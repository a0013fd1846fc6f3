"""Command-line front end.

Subcommands
    characteristics  tabulate circle functionals of a model over radii
    verify           run the growth-bound suite on seeded random cases
    counterexample   divergence scan of the concentrated-mass family
    classical        bound checks for rational-function models

All outputs are CSV with `#` comment lines; exit code 0 means every checked
inequality held, 1 flags a violated inequality or a domain error such as an
atom sitting on a sampling circle, 2 a malformed input, 3 an I/O failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .bounds import (classical_shape_check, classical_suite, counterexample_scan,
                     generate_cases, scan_slope, verify_suite)
from .characteristics import (ChargeView, diff_nevanlinna,
                              diff_nevanlinna_total, radial_counting)
from .errors import NevkitError, ParseError, json_object
from .potentials import (RadialWindow, circle_max, circle_mean,
                         circle_mean_plus, model_from_json)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_IO = 3

SLOPE_BAND = (0.9, 1.1)  # unit jump in the scan family


@dataclass
class RunConfig:
    """Merged view of config-file values and command-line flags."""

    data: dict

    @classmethod
    def load(cls, args) -> "RunConfig":
        data = {}
        path = getattr(args, "config", None)
        if path:
            with open(path) as fh:
                data = json_object(fh.read(), path)
        return cls(data=data)

    def get(self, args, key, default=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        return self.data.get(key, default)


def _parse_floats(text, what: str):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"could not parse {what}: {text!r}") from None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _table(columns, rows) -> str:
    """CSV header line, then one line per row of cells."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines)


def _emit(body: str, args, cfg) -> str:
    text = ""
    if not cfg.get(args, "no_timestamp", False):
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        text += f"# generated {stamp}\n"
    return text + body + "\n"


def _write_out(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    target = os.path.abspath(out)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".nevkit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# subcommands

def _load_model(cfg, args):
    spec = cfg.get(args, "model")
    if spec is None:
        raise ParseError("a model is required (--model PATH or config key 'model')")
    if isinstance(spec, dict):
        return model_from_json(json.dumps(spec))
    try:
        with open(spec) as fh:
            return model_from_json(fh.read())
    except FileNotFoundError:
        raise ParseError(f"model file not found: {spec}") from None


CHARACTERISTICS_COLUMNS = ("quantity", "r", "R", "value", "route", "tolerance")


def run_characteristics(args, cfg: RunConfig) -> tuple[str, bool]:
    model = _load_model(cfg, args)
    radii = sorted(set(_parse_floats(cfg.get(args, "radii", "1.0"), "radii")))
    if any(t <= 0 for t in radii):
        raise ParseError("radii must be positive")
    tol = float(cfg.get(args, "tol", 1e-6))
    neg = ChargeView.negative_part(model)

    rows = []
    for t in radii:
        rows.append(("M_U", t, None, circle_max(model, t), "envelope", None))
        rows.append(("C_U", t, None, circle_mean(model, t), "closed", None))
        rows.append(("C_U_plus", t, None, circle_mean_plus(model, t, tol=tol),
                     "quadrature", tol))
        rows.append(("mu_rd", t, None, radial_counting(neg, t), "closed", None))
    windows = list(zip(radii, radii[1:]))
    if len(radii) > 2:
        windows.append((radii[0], radii[-1]))
    for r, R in windows:
        w = RadialWindow(r, R)
        rows.append(("T", r, R, diff_nevanlinna(model, w, tol=tol), "charge", tol))
        rows.append(("T_total", r, R, diff_nevanlinna_total(model, w, tol=tol),
                     "anchored", tol))
    return _table(CHARACTERISTICS_COLUMNS, rows), False


VERIFY_COLUMNS = ("case_id", "seed", "lhs", "rhs", "ratio", "verdict",
                  "c_plus_R", "n_neg", "bold_t", "bold_t_anchor", "total_mass",
                  "d_m", "kint_lhs", "kint_rhs", "dini", "factor", "second",
                  "rhs_anchor", "certificate")


def run_verify(args, cfg: RunConfig) -> tuple[str, bool]:
    n = int(cfg.get(args, "cases", 25))
    seed = int(cfg.get(args, "seed", 1))
    tol = float(cfg.get(args, "tol", 1e-6))
    reports = verify_suite(generate_cases(n, seed=seed, tol=tol))
    rows = [(rep.case_id, rep.seed, rep.lhs, rep.rhs, rep.ratio, rep.verdict,
             *(rep.components[k] for k in VERIFY_COLUMNS[6:-1]), rep.certificate)
            for rep in reports]
    passed = sum(1 for rep in reports if rep.passed)
    return (f"{_table(VERIFY_COLUMNS, rows)}\n"
            f"# summary passed={passed} total={len(reports)}", passed != len(reports))


def run_counterexample(args, cfg: RunConfig) -> tuple[str, bool]:
    spec = cfg.get(args, "epsilons")
    eps = _parse_floats(spec, "epsilons") if spec is not None else None
    rows = counterexample_scan(tuple(eps)) if eps else counterexample_scan()
    table = _table(("epsilon", "lhs", "dini"),
                   ((row.epsilon, row.lhs, row.dini) for row in rows))
    slope = scan_slope(rows)
    finite = [row for row in rows if row.epsilon > 0.0]
    ordered = sorted(finite, key=lambda row: -row.epsilon)
    monotone = all(a.lhs < b.lhs and a.dini < b.dini
                   for a, b in zip(ordered, ordered[1:]))
    failed = not (SLOPE_BAND[0] <= slope <= SLOPE_BAND[1] and monotone)
    return f"{table}\n# lhs_slope={slope:.6f}", failed


def _load_rational(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ParseError(f"rational file not found: {path}") from None
    doc = json_object(text, path)

    def divisor(key):
        return tuple((complex(e["re"], e["im"]), int(e["mult"])) for e in doc.get(key, ()))

    try:
        return divisor("zeros"), divisor("poles"), float(doc.get("scale", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad rational document: {exc}") from None


CLASSICAL_COLUMNS = ("index", "r", "R", "lhs", "rhs", "ratio", "bridge", "verdict")


def run_classical(args, cfg: RunConfig) -> tuple[str, bool]:
    tol = float(cfg.get(args, "tol", 1e-6))
    results = []
    suite = cfg.get(args, "suite")
    if suite:
        seed = int(cfg.get(args, "seed", 1))
        for index, _, res in classical_suite(int(suite), seed=seed, tol=tol):
            results.append((index, res))
    else:
        path = cfg.get(args, "rational")
        if not path:
            raise ParseError("need --rational PATH or --suite N")
        zeros, poles, scale = _load_rational(path)
        r = float(cfg.get(args, "r", 1.0))
        k = float(cfg.get(args, "k", 2.0))
        results.append((1, classical_shape_check(zeros, poles, scale, r, k, tol=tol)))
    rows = [(index, *(res[k] for k in CLASSICAL_COLUMNS[1:])) for index, res in results]
    passed = sum(1 for _, res in results if res["verdict"] == "pass")
    failed = any(res["verdict"] != "pass" for _, res in results)
    return (f"{_table(CLASSICAL_COLUMNS, rows)}\n"
            f"# summary passed={passed} total={len(results)}", failed)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nevkit",
                                description="circle functionals, counting "
                                            "characteristics, and growth-bound checks")
    p.add_argument("--version", action="version", version=f"nevkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--config", help="JSON config; flags override its keys")
        q.add_argument("--out", help="write CSV here (atomic); default stdout")
        q.add_argument("--tol", type=float, help="quadrature/verdict tolerance")
        q.add_argument("--no-timestamp", dest="no_timestamp", action="store_true",
                       default=None, help="omit the generated-at comment line")

    q = sub.add_parser("characteristics", help="tabulate circle functionals")
    common(q)
    q.add_argument("--model", help="model JSON path")
    q.add_argument("--radii", help="comma-separated radii")
    q.set_defaults(fn=run_characteristics)

    q = sub.add_parser("verify", help="growth-bound suite on random cases")
    common(q)
    q.add_argument("--cases", type=int, help="number of cases (default 25)")
    q.add_argument("--seed", type=int, help="suite seed (default 1)")
    q.set_defaults(fn=run_verify)

    q = sub.add_parser("counterexample", help="concentrated-mass divergence scan")
    common(q)
    q.add_argument("--epsilons", help="comma-separated widths; 0 is the jump limit")
    q.set_defaults(fn=run_counterexample)

    q = sub.add_parser("classical", help="rational-function bound checks")
    common(q)
    q.add_argument("--rational", help="divisor JSON path")
    q.add_argument("--r", type=float, help="inner radius")
    q.add_argument("--k", type=float, help="outer/inner radius ratio")
    q.add_argument("--suite", type=int, help="run N seeded random rationals")
    q.add_argument("--seed", type=int, help="suite seed (default 1)")
    q.set_defaults(fn=run_classical)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args)
        body, failed = args.fn(args, cfg)
        text = _emit(body, args, cfg)
        out = cfg.get(args, "out")
    except ParseError as exc:
        print(f"nevkit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NevkitError as exc:
        print(f"nevkit: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"nevkit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"nevkit: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        _write_out(text, out)
    except OSError as exc:
        print(f"nevkit: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_FAIL if failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
