"""Benchmark of nevkit: runs one workload in this process and prints its
metrics as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload verify-finite --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports nevkit from ``src/``
there and from nowhere else.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` wraps nevkit's layers in spans and gives the per-layer
metrics instead, and writes the spans to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# evaluate_many multiplies by the masses with `@`, and the installed OpenBLAS
# starts a thread per core for it; one BLAS thread keeps every workload on
# one core.  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after the BLAS setting)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUPS = 31

# The host's speed drifts by tens of percent over seconds to minutes (README,
# "Steadiness").  A fixed kernel that does not touch nevkit, timed before
# every operation, measures that drift.  Each operation's time is scaled by
# CALIBRATION_REF_S / (the median of the kernel times of the operations
# within CALIBRATION_WINDOW of it), i.e. to the speed at which the kernel
# takes CALIBRATION_REF_S, its median on the reference host.
CALIBRATION_REF_S = 2.4e-3
CALIBRATION_WINDOW = 2
_CAL_Z = 2.0 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False))
_CAL_LOCS = np.array([0.3 + 1.1j, -1.2 + 0.4j, 0.9 - 0.8j, -0.5 - 1.6j, 1.7 + 0.2j,
                      -0.1 + 0.05j])
_CAL_MASSES = np.array([1.0, -0.7, 0.4, -1.3, 0.8, 0.25])
_CAL_XP = np.linspace(0.0, 1.0, 3000)
_CAL_FP = np.sin(np.arange(3000.0))
_CAL_X = np.linspace(0.0, 1.0, 20000)


def calibration_s() -> float:
    """Wall time of the fixed kernel: broadcast log-distances and a matrix
    product (as in evaluate_many), a Python loop over floats, and np.interp
    (as in omega_many), three times over."""
    start = perf_counter()
    for _ in range(3):
        for _ in range(4):
            vals = np.log(np.abs(_CAL_Z[:, None] - _CAL_LOCS)) @ _CAL_MASSES
        acc = 0.0
        for v in vals.tolist():
            acc += v * v
        np.interp(_CAL_X, _CAL_XP, _CAL_FP)
    return perf_counter() - start


def scaled_times(times, cal_times) -> list:
    """Each time brought to the reference speed by the kernel times around it."""
    out = []
    for i, t in enumerate(times):
        near = cal_times[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        out.append(t * CALIBRATION_REF_S / statistics.median(near))
    return out


# per-layer metric -> (function, field of Tracer.totals, unit)
LAYER_METRICS = {}
for _fn, _fields in (
        ("quad.adaptive_simpson", ("calls", "self_s", "points")),
        ("quad.golden_max", ("calls", "self_s", "points")),
        ("quad.bisect_sign_changes", ("calls", "self_s", "points")),
        ("potentials.evaluate_many", ("calls", "self_s", "points")),
        ("potentials.circle_max_many", ("calls", "s", "radii")),
        ("potentials.circle_mean_max", ("calls", "s")),
        ("integrators.omega_many", ("calls", "self_s", "widths", "cells")),
        ("integrators._log_pair_detailed", ("calls", "s")),
        ("integrators.stieltjes_integral", ("calls", "s")),
        ("characteristics.diff_nevanlinna", ("calls", "s")),
        ("characteristics.diff_nevanlinna_total", ("calls", "s")),
        ("bounds.growth_bound_lhs", ("s",)),
        ("bounds.growth_bound_rhs", ("s",))):
    for _field in _fields:
        source = {"points": "work", "radii": "work", "widths": "work"}.get(_field, _field)
        unit = "s" if _field in ("s", "self_s") else "count"
        LAYER_METRICS[f"{_fn}.{_field}"] = (_fn, source, unit)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-finite", "verify-divergent", "means"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_fresh():
    """Import nevkit from the checkout, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "nevkit" or m.startswith("nevkit.")]:
        del sys.modules[name]
    return importlib.import_module("nevkit")


def spec_id(item) -> str:
    """seed:case_id of a plan entry, for messages."""
    spec = item[0] if isinstance(item, tuple) else item
    return f"{spec.seed}:{spec.case_id}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nevkit" / "__init__.py").is_file():
        print(f"error: no nevkit sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import checks
    from perfbench.workloads import WORKLOADS, reference_case
    wl = WORKLOADS[args.workload]

    # the round's numbers are the benchmark's own draw from the seed, made
    # once; set-up is importing nevkit and building the round's nevkit
    # objects, timed several times so the median does not hang on one
    # scheduling hiccup, each scaled by the calibration kernel timed just
    # before it
    plan = wl.plan(args.seed)
    setup_times, setup_scaled = [], []
    for _ in range(SETUPS):
        cal = statistics.median(calibration_s() for _ in range(5))
        start = perf_counter()
        nevkit = import_fresh()
        items = wl.build(plan)
        setup_times.append(perf_counter() - start)
        setup_scaled.append(setup_times[-1] * CALIBRATION_REF_S / cal)
    if Path(nevkit.__file__).resolve().parent != (SRC / "nevkit").resolve():
        print(f"error: nevkit imported from {nevkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print("# blas threads: " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))

    tracer = None
    if args.trace:
        from perfbench.spans import Tracer
        tracer = Tracer()
        tracer.install()

    op_times, cal_times, first, flags = [], [], [], []
    timed, lhs_negative = 0.0, 0
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    # whole rounds, as many as fit in --seconds by the last round's time,
    # and at least one
    round_s = 0.0
    while not flags or timed + round_s <= args.seconds:
        if flags:
            items = wl.build(plan)
        gc.collect()
        round_flags, round_start = [], timed
        for i, (spec, item) in enumerate(zip(plan, items)):
            cal_times.append(calibration_s())
            start = perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # an op that raises is a failed op
                elapsed = perf_counter() - start
                out, bad = None, [f"raised {exc!r}"]
            else:
                elapsed = perf_counter() - start
                bad = wl.check(spec, out)
                if flags and not bad and first[i] is not None:
                    bad = wl.same(first[i], out)
            timed += elapsed
            op_times.append(elapsed)
            if out is not None:
                lhs_negative += sum(1 for v in wl.lhs_values(out) if v < 0.0)
            if not flags:
                first.append(out)
            if bad:
                print(f"# op {i} (case {spec_id(spec)}) failed: {bad[0]}",
                      file=sys.stderr)
            round_flags.append(bool(bad))
        flags.append(round_flags)
        round_s = timed - round_start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.uninstall()

    # independent computations too costly for every op run on a fixed sample
    # of the first pass; every later pass equals the first (checked above),
    # so an op that fails here fails in every pass
    for i, problems in wl.sample_check(plan, first).items():
        print(f"# op {i} (case {spec_id(plan[i])}) failed: {problems[0]}",
              file=sys.stderr)
        for round_flags in flags:
            round_flags[i] = True
    failed = sum(sum(round_flags) for round_flags in flags)
    attempted = len(op_times)

    correct = True
    if args.workload.startswith("verify"):
        fixture = checks.check_fixture(nevkit.growth_bound_verify(reference_case()))
        for problem in fixture:
            print(f"# fixture: {problem}", file=sys.stderr)
        correct = not fixture

    cal = statistics.median(cal_times)
    raw = {"setup_s": statistics.median(setup_times), "ops_per_s": attempted / timed,
           "op_p50_s": statistics.median(op_times)}
    print("# unscaled: " + " ".join(f"{k}={v!r}" for k, v in raw.items())
          + f" calibration_s={cal!r}")
    if tracer is None:
        scaled = scaled_times(op_times, cal_times)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (attempted / sum(scaled), "1/s"),
            "op_p50_s": (statistics.median(scaled), "s"),
        }
    else:
        totals = tracer.totals()
        metrics = {name: (totals[fn][field] / attempted, unit)
                   for name, (fn, field, unit) in LAYER_METRICS.items()}
        metrics["bounds.lhs_negative"] = (lhs_negative / attempted, "count")
        metrics["process.sys_s"] = ((ru1.ru_stime - ru0.ru_stime) / attempted, "s")
        metrics["process.minflt"] = ((ru1.ru_minflt - ru0.ru_minflt) / attempted,
                                     "count")
        metrics["traced.ops_per_s"] = (attempted / timed, "1/s")
        metrics["host.calibration_s"] = (cal, "s")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
