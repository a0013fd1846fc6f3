"""Dump every output of fixed inputs, or say what moved between two dumps.

    python3 scripts/diff_outputs.py dump OUT.npz --seeds 1-10 --cases 200
    python3 scripts/diff_outputs.py compare BASE.npz HEAD.npz

``dump`` runs ``verify_suite(generate_cases(N, seed))`` for each seed of
``--seeds``, the closed-form fixture (``reference_case``),
``counterexample_scan()`` and ``classical_suite(20)``, and writes each
output field to one array of ``OUT.npz``: ``verify.lhs``, ``verify.kint_lhs``
and every other report field and component, ``fixture.*``,
``counterexample.*`` and ``classical.*``; ``<group>.id`` labels the rows
(``seed:case`` for the suite).  ``means.*`` holds each suite case's circle
means at r and R, ``circle_mean_plus`` and the canonical
``circle_mean_max(u, v)``, both at tol ``MEANS_TOL``.  Nothing is timed, so
a dump depends only on the source tree.

``compare`` prints, per field, how many values are bit-identical (nan equals
nan) and how many moved, with the largest absolute and relative move and the
first ten rows that moved; then the total of moved values and every verdict
change.  Each suite lhs that moved by more than tol/10 is checked against
``perfbench.checks.independent_lhs`` of the same case.  It exits 1 on a
verdict change or on a field that is not in both dumps with the same rows,
and 0 otherwise; a moved value alone is not a failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from bench_pairs import ROOT
from failure_census import seed_range
from nevkit.bounds import (classical_suite, counterexample_scan, generate_cases,
                           growth_bound_verify, reference_case, verify_suite)
from nevkit.potentials import canonical_split, circle_mean_max, circle_mean_plus

TOL = 1e-6  # the suite's case tolerance, the default of generate_cases
MEANS_TOL = 1e-8  # the tolerance of c_plus_R in growth_bound_rhs, 0.01 * TOL
CLASSICAL_SUITE = 20


def _columns(group: str, ids, rows) -> dict:
    """``{group.field: array}`` from a list of ``{field: value}`` rows."""
    out = {f"{group}.id": np.array([str(i) for i in ids])}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if all(isinstance(v, (int, float)) for v in values):
            out[f"{group}.{key}"] = np.array(values, dtype=float)
        else:
            out[f"{group}.{key}"] = np.array(["" if v is None else str(v) for v in values])
    return out


def _report_row(rep) -> dict:
    return {"lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
            "verdict": rep.verdict, **rep.components, "certificate": rep.certificate}


def _means_row(case) -> dict:
    u, v = canonical_split(case.model)
    row = {}
    for name, t in (("r", case.window.inner), ("R", case.window.outer)):
        row[f"plus_{name}"] = circle_mean_plus(case.model, t, tol=MEANS_TOL)
        row[f"canonical_{name}"] = circle_mean_max(u, v, t, tol=MEANS_TOL)
    return row


def collect(seeds, cases: int) -> dict:
    """Every output of the fixed inputs, as ``{field: array}``."""
    suites = [generate_cases(cases, seed=seed, tol=TOL) for seed in seeds]
    reports = [rep for suite in suites for rep in verify_suite(suite)]
    circles = [case for suite in suites for case in suite]
    scan = counterexample_scan()
    classical = classical_suite(CLASSICAL_SUITE)
    return {
        **_columns("verify", [f"{rep.seed}:{rep.case_id}" for rep in reports],
                   [_report_row(rep) for rep in reports]),
        **_columns("means", [f"{case.seed}:{case.case_id}" for case in circles],
                   [_means_row(case) for case in circles]),
        **_columns("fixture", ["fixture"], [_report_row(growth_bound_verify(reference_case()))]),
        **_columns("counterexample", range(1, len(scan) + 1),
                   [{"epsilon": row.epsilon, "lhs": row.lhs, "dini": row.dini}
                    for row in scan]),
        **_columns("classical", [index for index, _, _ in classical],
                   [res for _, _, res in classical]),
    }


def moves(a: np.ndarray, b: np.ndarray):
    """(identical mask, largest absolute move, largest relative move) of two
    float arrays."""
    same = (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return same, 0.0, 0.0
    x, y = a[~same], b[~same]
    with np.errstate(invalid="ignore"):
        gap = np.where(x == y, 0.0, np.abs(x - y))  # +0.0 against -0.0
        rel = gap / np.maximum(np.abs(x), np.abs(y))
    return same, float(np.nanmax(gap, initial=0.0)), float(np.nanmax(rel, initial=0.0))


def compare(base: dict, head: dict, out=sys.stdout) -> int:
    """Print what moved from ``base`` to ``head``; returns the number of
    verdict changes and of fields that cannot be compared."""
    changes = moved = 0
    print(f"{'field':<32} {'same':>6} {'moved':>6} {'max_abs':>10} {'max_rel':>10}", file=out)
    for key in sorted(set(base) | set(head)):
        if key not in base or key not in head:
            print(f"{key:<32} only in {'head' if key in head else 'base'}", file=out)
            changes += 1
            continue
        a, b = base[key], head[key]
        if a.shape != b.shape:
            print(f"{key:<32} {a.size} values against {b.size}", file=out)
            changes += 1
            continue
        if a.dtype.kind == b.dtype.kind == "f":
            same, gap, rel = moves(a, b)
            sizes = f" {gap:>10.3g} {rel:>10.3g}"
        else:
            same, sizes = a == b, ""
        print(f"{key:<32} {int(same.sum()):>6} {int((~same).sum()):>6}{sizes}", file=out)
        if not same.all():
            ids = base[key.split(".")[0] + ".id"][~same]
            print(f"{'':<4}at {' '.join(ids[:10])}{' ...' if ids.size > 10 else ''}", file=out)
            # rows that differ make every other field of the group meaningless
            changes += key.endswith(".id")
            moved += int((~same).sum())
    print(f"moved values: {moved}", file=out)
    flips = 0
    for key in sorted(k for k in set(base) & set(head) if k.endswith(".verdict")):
        ids = base[key.split(".")[0] + ".id"]
        a, b = base[key], head[key]
        for i in np.flatnonzero(a != b) if a.shape == b.shape else ():
            flips += 1
            print(f"verdict {key.split('.')[0]} {ids[i]}: {a[i]} -> {b[i]}", file=out)
    print(f"verdict changes: {flips}", file=out)
    lhs_a, lhs_b = base.get("verify.lhs"), head.get("verify.lhs")
    if lhs_a is not None and lhs_b is not None and lhs_a.shape == lhs_b.shape:
        with np.errstate(invalid="ignore"):
            far = np.flatnonzero(np.abs(lhs_a - lhs_b) > TOL / 10.0)
        if far.size:
            sys.path.insert(0, str(ROOT))
            from perfbench.checks import independent_lhs
            from perfbench.inputs import case_spec
        for i in far:
            seed, case = map(int, base["verify.id"][i].split(":"))
            want = independent_lhs(case_spec(case, seed, tol=TOL))
            print(f"lhs {seed}:{case}: base {lhs_a[i]!r} head {lhs_b[i]!r} "
                  f"independent {want!r}", file=out)
    return changes + flips


def load(path) -> dict:
    with np.load(path) as npz:
        return {key: npz[key] for key in npz.files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    q = sub.add_parser("dump", help="write every output of the fixed inputs")
    q.add_argument("out", type=Path, help=".npz file to write")
    q.add_argument("--seeds", type=seed_range, default=range(1, 2), help="A-B, both included")
    q.add_argument("--cases", type=int, default=200, help="suite cases per seed")
    q = sub.add_parser("compare", help="what moved from one dump to another")
    q.add_argument("base", type=Path)
    q.add_argument("head", type=Path)
    args = ap.parse_args(argv)
    if args.mode == "dump":
        if args.cases < 1 or not args.seeds:
            ap.error("dump needs --cases > 0 and a nonempty --seeds range")
        np.savez(args.out, **collect(args.seeds, args.cases))
        return 0
    return 1 if compare(load(args.base), load(args.head)) else 0


if __name__ == "__main__":
    sys.exit(main())
