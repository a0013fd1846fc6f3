"""Tests of the benchmark itself: its inputs, its checks and its tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import nevkit  # noqa: E402
from nevkit.bounds import growth_bound_verify, random_case  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.inputs import case_spec, stratified  # noqa: E402
from perfbench.spans import MODULES, TRACED, Tracer  # noqa: E402
from perfbench.workloads import GRID_TOL, MEANS_TOL, Means, reference_case  # noqa: E402


def first_of(seed, stratum, max_atoms=8):
    cid = 0
    while True:
        cid += 1
        spec = case_spec(cid, seed)
        if spec.stratum == stratum and len(spec.atoms) <= max_atoms:
            return spec


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7])
def test_recipe_matches_program_generator(seed):
    # the benchmark's copy of the recipe; a difference here means the
    # program's generator changed, not that the benchmark did
    for cid in range(1, 31):
        assert case_spec(cid, seed).build() == random_case(cid, seed=seed)


def test_stratified_rounds_have_fixed_make_up():
    quota = {"pieces": 3, "pieces+cantor/d10": 2, "cantor+jumps/d8": 1}
    a = stratified(5, quota)
    assert a == stratified(5, quota)
    assert a != stratified(6, quota)
    for seed in (5, 6):
        got = stratified(seed, quota)
        assert {k: sum(s.stratum == k for s in got) for k in quota} == quota
        assert [s.case_id for s in got] == sorted(s.case_id for s in got)


def test_stratified_by_key():
    got = stratified(5, {2: 3, 7: 1}, key=lambda spec: len(spec.atoms))
    assert sorted(len(s.atoms) for s in got) == [2, 2, 2, 7]
    plan = Means().plan(5)
    assert [spec for spec, _ in plan if len(spec.atoms) == 2][:3] == \
        [s for s in got if len(s.atoms) == 2]


def test_fresh_objects_each_build():
    spec = case_spec(1, 1)
    a, b = spec.build(), spec.build()
    assert a == b and a.integrator is not b.integrator


# -- checks reject perturbed values ---------------------------------------------

@pytest.fixture(scope="module")
def finite_case():
    spec = first_of(1, "pieces+cantor/d8", max_atoms=3)
    return spec, growth_bound_verify(spec.build())


@pytest.fixture(scope="module")
def jump_case():
    spec = first_of(1, "pieces+jumps", max_atoms=3)
    return spec, growth_bound_verify(spec.build())


def perturbed(rep, **changes):
    comp = dict(rep.components)
    fields = {}
    for key, value in changes.items():
        if key in comp:
            comp[key] = value
        else:
            fields[key] = value
    return dataclasses.replace(rep, components=comp, **fields)


def test_reports_pass_their_checks(finite_case, jump_case):
    for spec, rep in (finite_case, jump_case):
        assert checks.check_report(spec, rep) == []


@pytest.mark.parametrize("change", [
    lambda s, r: {"verdict": "fail"},
    lambda s, r: {"total_mass": r.components["total_mass"] * (1.0 + 1e-7)},
    lambda s, r: {"n_neg": r.components["n_neg"] + 1e-9},
    lambda s, r: {"factor": r.components["factor"] * (1.0 + 1e-9)},
    lambda s, r: {"kint_lhs": r.components["kint_rhs"] * 1.01},
    lambda s, r: {"dini": checks.dini_bracket(s)[1] * 1.01},
    lambda s, r: {"dini": checks.dini_bracket(s)[0] * 0.99},
    lambda s, r: {"rhs": r.rhs * (1.0 + 1e-9)},
    lambda s, r: {"rhs": math.inf},
    lambda s, r: {"lhs": r.rhs * 2.0, "verdict": "pass"},
])
def test_report_check_rejects(finite_case, change):
    spec, rep = finite_case
    assert checks.check_report(spec, perturbed(rep, **change(spec, rep)))


def test_report_check_rejects_finite_rhs_with_jumps(jump_case):
    spec, rep = jump_case
    assert checks.check_report(spec, perturbed(rep, rhs=1e6, verdict="pass"))


def test_report_check_rejects_below_floors(finite_case):
    spec, rep = finite_case
    floor = max(checks.closed_form_mean(spec, spec.R), 0.0)
    assert checks.check_report(spec, perturbed(rep, c_plus_R=floor - 1e-7))
    assert checks.check_report(spec, perturbed(rep, lhs=-10.0 * spec.tol))


def test_fixture_check():
    rep = growth_bound_verify(reference_case())
    assert checks.check_fixture(rep) == []
    assert checks.check_fixture(perturbed(rep, lhs=rep.lhs * (1.0 + 1e-6)))
    assert checks.check_fixture(perturbed(rep, ratio=rep.ratio * (1.0 + 1e-5)))


def test_same_report(jump_case):
    _, rep = jump_case
    assert checks.same_report(rep, perturbed(rep)) == []
    assert checks.same_report(rep, perturbed(rep, d_m=math.nextafter(rep.components["d_m"], 9.0)))
    assert checks.same_report(rep, perturbed(rep, certificate=None))


def test_independent_lhs(jump_case, finite_case):
    for spec, rep in (jump_case, finite_case):
        assert checks.check_lhs_independent(spec, rep.lhs) == []
        assert checks.check_lhs_independent(spec, rep.lhs + 1e-4)


def test_mean_checks():
    spec = first_of(2, "pieces", max_atoms=4)
    model, window = spec.build_model(), spec.build_window()
    t = float(spec.R)
    got = nevkit.circle_mean_plus(model, t, tol=GRID_TOL)
    assert checks.check_mean_plus(spec, t, got, GRID_TOL) == []
    assert checks.check_mean_plus(spec, t, got + 1e-7, GRID_TOL)

    radii = [spec.r, t]
    out = Means.run((model, window, radii))
    charge, canonical, total, grid = out

    def problems(**change):
        fields = dict(zip(("charge", "canonical", "total", "grid"), out), **change)
        return checks.check_means(spec, tuple(fields.values()), radii,
                                  MEANS_TOL, GRID_TOL)
    assert problems() == []
    assert problems(canonical=canonical + 3 * MEANS_TOL)
    floor_r = max(checks.closed_form_mean(spec, spec.r), 0.0)
    assert problems(total=charge + floor_r - 3 * MEANS_TOL)
    floor_t = max(checks.closed_form_mean(spec, t), 0.0)
    assert problems(grid=[grid[0], floor_t - 2 * GRID_TOL])


# -- tracer ---------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores():
    tracer = Tracer()
    tracer.install()
    try:
        for layer, name, _, _ in TRACED:
            original = getattr(sys.modules[f"nevkit.{layer}"], name).__wrapped__
            for mod in MODULES:
                bound = getattr(sys.modules.get(mod), name, None)
                assert bound is None or bound is not original, (mod, name)
    finally:
        tracer.uninstall()
    assert not hasattr(nevkit.bounds.circle_max_many, "__wrapped__")


def traced_counts(specs, means_item):
    tracer = Tracer()
    tracer.install()
    try:
        nevkit.verify_suite([s.build() for s in specs], workers=2)
        Means.run(means_item)
    finally:
        tracer.uninstall()
    return {name: (agg["calls"], agg["work"], agg["cells"])
            for name, agg in tracer.totals().items()}


def test_trace_counts_repeat_exactly(tmp_path):
    specs = [first_of(3, "pieces+cantor/d8", 3), first_of(3, "pieces+jumps", 3),
             first_of(3, "pieces", 3)]
    spec = specs[-1]
    item = (spec.build_model(), spec.build_window(), [spec.r, spec.R])
    a = traced_counts(specs, item)
    b = traced_counts(specs, item)
    assert a == b
    assert a["integrators.omega_many"][0] > 0
    assert a["potentials.circle_mean_max"][0] > 0
    assert a["quad.adaptive_simpson"][1] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        nevkit.growth_bound_verify(first_of(4, "pieces", 2).build())
    finally:
        tracer.uninstall()
    tot = tracer.totals()
    lhs = tot["bounds.growth_bound_lhs"]
    assert 0.0 < tot["potentials.evaluate_many"]["self_s"] < lhs["s"]
    assert all(agg["self_s"] <= agg["s"] + 1e-12 for agg in tot.values())


# -- the command ------------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "means", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_line_shape():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-divergent",
         "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
