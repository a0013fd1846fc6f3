"""Compare two source trees on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload verify-divergent --seed 1 --pairs 10 --out BENCH.json

Each tree must be a source checkout with ``src/nevkit`` and ``perfbench/``
(for the parent commit, ``git archive <commit> | tar -x -C ../parent``
makes one).  Pair ``i`` runs ``perfbench/run.py --trace 0`` once in each
tree, base first when ``i`` is even and head first when it is odd, so slow
drift of the host's speed falls on both sides alike.  Every run uses the
same interpreter and ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``).

The result is one comparison: the machine, the workload, seed and pair
count, each run's metrics, and per end-to-end metric of ``BENCHMARK.json``
each side's median and quartiles, the head's wins and losses over the pairs
(ties count for neither), and ``gain``: whether the head won at least nine
tenths of the pairs and the medians differ by more than the base's
interquartile range.  The comparison is added to the JSON file ``--out``,
replacing an earlier one of the same workload and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its final JSON line, plus the
    lines it printed to standard error about failed operations."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark run in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "notes": [ln for ln in proc.stderr.splitlines() if ln.startswith("#")]}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric, each side's median and quartiles, the head's wins and
    losses, and the gain rule; ``better`` maps a metric to "higher" or
    "lower"."""
    out = {}
    for name, direction in better.items():
        vals = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, med, q3 = np.percentile(vals[side], [25, 50, 75])
            entry[side] = {"median": float(med), "q1": float(q1), "q3": float(q3)}
        sign = 1.0 if direction == "higher" else -1.0
        diffs = [sign * (h - b) for b, h in zip(vals["base"], vals["head"])]
        entry["wins"] = sum(d > 0 for d in diffs)
        entry["losses"] = sum(d < 0 for d in diffs)
        base_iqr = entry["base"]["q3"] - entry["base"]["q1"]
        gap = sign * (entry["head"]["median"] - entry["base"]["median"])
        entry["gain"] = bool(entry["wins"] >= 0.9 * len(pairs) and gap > base_iqr)
        out[name] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    ap.add_argument("--head", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", type=Path, required=True, help="JSON results file")
    args = ap.parse_args(argv)
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, args.seed, seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{side} ops_per_s={pair[side]['metrics']['ops_per_s']:.3f}"
            f" failed={pair[side]['failed']}" for side in SIDES), flush=True)

    comparison = {"workload": args.workload, "seed": args.seed,
                  "pairs": args.pairs, "seconds": seconds,
                  "summary": summarize(pairs, better), "runs": pairs}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"comparisons": []}
    doc["machine"] = machine()
    doc["comparisons"] = [c for c in doc["comparisons"]
                          if (c["workload"], c["seed"]) != (args.workload, args.seed)]
    doc["comparisons"].append(comparison)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in comparison["summary"].items():
        print(f"{name}: base {entry['base']['median']:.4g} "
              f"[{entry['base']['q1']:.4g}, {entry['base']['q3']:.4g}]  "
              f"head {entry['head']['median']:.4g} "
              f"[{entry['head']['q1']:.4g}, {entry['head']['q3']:.4g}]  "
              f"wins {entry['wins']}/{args.pairs}  gain {entry['gain']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
