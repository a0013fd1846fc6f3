"""List the failed benchmark operations of two source trees, seed by seed.

    python3 scripts/failure_census.py --base ../parent --head . --seeds 1-10

Each tree must be a source checkout with ``src/nevkit`` and ``perfbench/``
(for the parent commit, ``git archive <commit> | tar -x -C ../parent``
makes one).  For every workload of ``BENCHMARK.json`` and every seed of
``--seeds``, it runs ``perfbench/run.py --seconds 1 --trace 0`` once in
each tree: one round, so every operation runs once and the later-pass check
does not.  It prints one line per workload and seed with the case ids
(``seed:case``) of the failed operations on each side, then every message
of an operation or fixture that fails at the head and passes at the base.
It exits 1 if there is any such operation, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from bench_pairs import ROOT, SIDES, run_once

FAILED_OP = re.compile(r"^# op \d+ \(case (\S+)\) failed: ")


def failures(notes: list) -> dict:
    """Failed operations of one run, from its ``#`` lines on standard error:
    maps the case id (``seed:case``), or ``fixture`` for the closed-form
    case, to the first message about it."""
    out = {}
    for line in notes:
        hit = FAILED_OP.match(line)
        if hit:
            out.setdefault(hit[1], line)
        elif line.startswith("# fixture: "):
            out.setdefault("fixture", line)
    return out


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    ap.add_argument("--head", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    args = ap.parse_args(argv)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}

    new = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            fails = {side: failures(run_once(trees[side], workload, seed, 1.0)["notes"])
                     for side in SIDES}
            print(f"{workload} seed {seed}: "
                  + "  ".join(f"{side} {' '.join(fails[side]) or '-'}" for side in SIDES),
                  flush=True)
            new += [f"{workload}: {msg}" for key, msg in fails["head"].items()
                    if key not in fails["base"]]
    print(f"failing at the head only: {len(new)}")
    for line in new:
        print(line)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
