import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nevkit as nk
from nevkit.bounds import (
    DEFAULT_EPSILONS,
    VerificationCase,
    classical_shape_check,
    classical_suite,
    counterexample_scan,
    counting_bound,
    generate_cases,
    growth_bound_lhs,
    growth_bound_rhs,
    growth_bound_verify,
    harness_workers,
    log_singularity_profile,
    max_plus_sampler,
    poisson_jensen_bound,
    random_case,
    reference_case,
    scan_slope,
    verify_suite,
)
from nevkit.characteristics import ChargeView
from nevkit.integrators import Integrator, Jump, lebesgue

from conftest import random_model

LN = math.log


# -- reference case ------------------------------------------------------------

def test_reference_lhs_closed_form():
    # integral of (ln 5 - ln|t-1|) dt over [0, 2] is 2 ln 5 + 2
    case = reference_case()
    got = growth_bound_lhs(case)
    assert got == pytest.approx(2.0 * LN(5.0) + 2.0, rel=1e-7)


def test_reference_rhs_closed_form():
    rhs, comp = growth_bound_rhs(reference_case())
    assert comp["factor"] == pytest.approx(12.0)
    assert comp["bold_t"] == pytest.approx(LN(5.0 / 2.0), abs=1e-8)
    assert comp["kint_lhs"] == pytest.approx(2.0 * LN(8.0) + 2.0, rel=1e-8)
    assert comp["second"] == comp["kint_lhs"]
    assert rhs == pytest.approx(12.0 * LN(5.0 / 2.0) * (2.0 * LN(8.0) + 2.0), rel=1e-7)


def test_reference_verdict():
    rep = growth_bound_verify(reference_case())
    assert rep.verdict == "pass"
    assert rep.passed
    assert rep.ratio == pytest.approx(0.0770655822616777, rel=1e-4)
    assert rep.certificate is None
    # the pair's loose side doubles as the full Dini integral
    assert rep.components["dini"] == rep.components["kint_rhs"]
    assert rep.components["bold_t_anchor"] >= rep.components["bold_t"]
    assert rep.components["rhs_anchor"] >= rep.rhs


def test_case_window_mismatch_rejected():
    with pytest.raises(ValueError):
        VerificationCase(case_id=0, seed=0,
                         model=nk.from_rational(poles=((1.0, 1),)),
                         integrator=lebesgue(1.5),
                         window=nk.RadialWindow(2.0, 4.0))


# -- divergence handling ---------------------------------------------------------

def test_jump_at_singular_radius_diverges_consistently():
    base = reference_case()
    case = VerificationCase(case_id=1, seed=0, model=base.model,
                            integrator=Integrator(end=2.0, jumps=(Jump(1.0, 1.0),)),
                            window=base.window, tol=base.tol)
    rep = growth_bound_verify(case)
    assert rep.lhs == math.inf and rep.rhs == math.inf
    assert rep.verdict == "consistent-divergence"
    assert rep.passed
    assert "jump" in rep.certificate


def test_jump_off_singular_radius_passes():
    base = reference_case()
    case = VerificationCase(case_id=2, seed=0, model=base.model,
                            integrator=Integrator(end=2.0, jumps=(Jump(0.5, 1.0),)),
                            window=base.window, tol=base.tol)
    rep = growth_bound_verify(case)
    assert math.isfinite(rep.lhs)
    assert rep.rhs == math.inf
    assert rep.verdict == "pass"
    assert "jump" in rep.certificate


def test_jump_integrator_leaves_d_m_uncomputed():
    # the stabilization diameter cannot change a +inf bound, so it is skipped
    base = reference_case()
    case = VerificationCase(case_id=2, seed=0, model=base.model,
                            integrator=Integrator(end=2.0, jumps=(Jump(0.5, 1.0),)),
                            window=base.window, tol=base.tol)
    assert math.isnan(growth_bound_rhs(case)[1]["d_m"])


def test_vanishing_characteristic_bounds_a_jump_integrator():
    # U <= 0 on |z| = 2 and no negative charge in the window: boldT = 0, and
    # 0 * inf is 0, so 0 <= 0 holds as it does without the jump
    model = nk.DeltaSubharmonicModel((nk.RieszAtom(0.1, 0.2),), nk.HarmonicPart((-0.5,)))
    window = nk.RadialWindow(1.0, 2.0)
    for m in (Integrator(end=1.0, pieces=((0.0, 1.0, 1.0),), jumps=((0.5, 1.0),)),
              Integrator(end=1.0, pieces=((0.0, 1.0, 1.0),))):
        rep = growth_bound_verify(VerificationCase(case_id=1, seed=0, model=model,
                                                   integrator=m, window=window))
        assert rep.components["bold_t"] == 0.0
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0 and rep.components["rhs_anchor"] == 0.0
        assert rep.verdict == "pass"


# -- singularity profile and sampler ----------------------------------------------

def test_log_singularity_profile_stacks_per_location():
    model = nk.DeltaSubharmonicModel(atoms=(
        nk.RieszAtom(1.0 + 0j, -1.0),
        nk.RieszAtom(-1.0 + 0j, -2.0),
        nk.RieszAtom(2.0 + 0j, 3.0),
        nk.RieszAtom(5.0 + 0j, -1.0)))
    sing = log_singularity_profile(model, upto=4.0, scale=8.0)
    assert len(sing) == 1
    assert sing[0].location == pytest.approx(1.0)
    # the largest single-location stack on the radius drives the blow-up
    assert sing[0].coefficient == pytest.approx(2.0)
    assert sing[0].scale == pytest.approx(8.0)


def test_log_singularity_profile_empty_for_positive_charge():
    model = nk.from_rational(zeros=((1.0, 2),))
    assert log_singularity_profile(model, upto=4.0, scale=8.0) == ()


def test_max_plus_sampler_clips(pole_model):
    sampler = max_plus_sampler(pole_model)
    got = sampler(np.array([0.5]))
    assert got[0] == pytest.approx(LN(10.0), abs=1e-8)
    disk = nk.from_rational(zeros=((0.0, 1),))
    assert max_plus_sampler(disk)(np.array([0.5]))[0] == 0.0


# -- pointwise and counting companions ---------------------------------------------

def test_poisson_jensen_oracle(pole_model, window24):
    lhs, bound = poisson_jensen_bound(pole_model, 0.0, window24)
    assert lhs == pytest.approx(LN(5.0), abs=1e-12)
    assert bound == pytest.approx(3.0 * LN(5.0 / 4.0) + LN(8.0), abs=1e-7)
    assert lhs <= bound


def test_poisson_jensen_at_atom_is_unbounded(window24):
    model = nk.from_rational(poles=((0.5, 1),), scale=5.0)
    lhs, bound = poisson_jensen_bound(model, 0.5, window24)
    assert lhs == math.inf and bound == math.inf


def test_poisson_jensen_window_check(pole_model, window24):
    with pytest.raises(ValueError):
        poisson_jensen_bound(pole_model, 3.0, window24)


@given(st.integers(min_value=1, max_value=60))
def test_poisson_jensen_holds(seed):
    model = random_model(seed)
    w = nk.RadialWindow(1.5, 4.5)
    rng = np.random.default_rng((4242, seed))
    z = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)
    lhs, bound = poisson_jensen_bound(model, z, w)
    assert lhs <= bound + 1e-10


def test_counting_bound_oracle():
    view = ChargeView(((1.0, 1.0),))
    count, mid, loose = counting_bound(view, r_star=3.0, R=4.0, r=2.0)
    assert count == 1.0
    assert mid == pytest.approx(4.0 * LN(4.0 / 3.0), abs=1e-12)
    assert loose == pytest.approx(4.0 * LN(2.0), abs=1e-12)
    assert count <= mid <= loose


def test_counting_bound_validation():
    view = ChargeView(((1.0, 1.0),))
    with pytest.raises(ValueError):
        counting_bound(view, r_star=3.0, R=2.0)
    with pytest.raises(nk.NegativeMassInView):
        counting_bound(ChargeView(((1.0, -1.0),)), r_star=2.0, R=4.0)


@given(st.integers(min_value=1, max_value=60))
def test_counting_bound_ordering(seed):
    rng = np.random.default_rng((99, seed))
    view = ChargeView(tuple((float(r), float(m)) for r, m in
                            zip(rng.uniform(0.0, 4.0, size=6),
                                rng.uniform(0.0, 2.0, size=6))))
    count, mid, loose = counting_bound(view, r_star=2.0, R=5.0, r=1.0)
    assert count <= mid + 1e-10
    assert mid <= loose + 1e-10


# -- case generation and the suite ---------------------------------------------

def test_random_case_deterministic():
    a = random_case(7, seed=1)
    b = random_case(7, seed=1)
    assert a.model == b.model
    assert a.integrator == b.integrator
    assert a.window == b.window
    assert random_case(7, seed=2).model != a.model


def test_random_case_kind_rotation():
    # case_id mod 5 drives the integrator composition
    plain = random_case(5, seed=1).integrator
    assert plain.pieces and plain.cantor is None and not plain.jumps
    mixed = random_case(4, seed=1).integrator
    assert mixed.pieces and mixed.cantor is not None and mixed.jumps
    singular = random_case(3, seed=1).integrator
    assert not singular.pieces and singular.cantor is not None and singular.jumps


def test_generate_cases_shape():
    cases = generate_cases(5, seed=1)
    assert [c.case_id for c in cases] == [1, 2, 3, 4, 5]
    for c in cases:
        assert c.integrator.end == pytest.approx(c.window.inner)


def test_small_suite_passes_and_sorts():
    reports = verify_suite(generate_cases(8, seed=1))
    assert [r.case_id for r in reports] == list(range(1, 9))
    assert all(r.passed for r in reports)


def test_suite_threaded_matches_sequential():
    cases = generate_cases(6, seed=3)
    seq = verify_suite(cases, workers=1)
    par = verify_suite(cases, workers=2)
    assert [(r.case_id, r.lhs, r.rhs, r.verdict) for r in par] \
        == [(r.case_id, r.lhs, r.rhs, r.verdict) for r in seq]


def test_harness_workers(monkeypatch):
    monkeypatch.delenv("NEVKIT_THREADS", raising=False)
    assert harness_workers() == 1
    monkeypatch.setenv("NEVKIT_THREADS", "2")
    # the env request is clamped to the machine
    assert harness_workers() == min(2, os.cpu_count() or 1)
    monkeypatch.setenv("NEVKIT_THREADS", "junk")
    with pytest.raises(ValueError):
        harness_workers()


# -- divergence scan --------------------------------------------------------------

def test_scan_closed_forms():
    rows = counterexample_scan(epsilons=(1e-1, 1e-2, 1e-3, 0.0))
    for row in rows[:-1]:
        assert row.lhs == pytest.approx(LN(5.0) + 1.0 + LN(1.0 / row.epsilon), abs=1e-7)
        assert row.dini == pytest.approx(1.0 + LN(8.0 / row.epsilon), abs=1e-7)
    assert rows[-1].epsilon == 0.0
    assert rows[-1].lhs == math.inf and rows[-1].dini == math.inf


def test_scan_monotone_and_unit_slope():
    rows = counterexample_scan(epsilons=DEFAULT_EPSILONS)
    finite = [r.lhs for r in rows if math.isfinite(r.lhs)]
    assert all(b > a for a, b in zip(finite, finite[1:]))
    assert scan_slope(rows) == pytest.approx(1.0, abs=1e-6)


def test_scan_validation():
    with pytest.raises(ValueError):
        counterexample_scan(epsilons=(1.5,))
    with pytest.raises(ValueError):
        scan_slope(counterexample_scan(epsilons=(0.1, 0.0))[1:])


# -- classical specialization -------------------------------------------------------

def test_classical_shape_identity_function():
    res = classical_shape_check(zeros=((0.0, 1),), r=2.0, k=2.0)
    assert res["lhs"] == pytest.approx(LN(2.0) - 0.5, abs=1e-8)
    assert res["bridge"] == pytest.approx(LN(4.0), abs=1e-8)
    assert res["d_m"] == pytest.approx(2.0, abs=1e-10)
    assert res["kint_lhs"] == pytest.approx(1.0 + LN(8.0), abs=1e-6)
    assert res["verdict"] == "pass"


def test_classical_bridge_is_bold_t():
    zeros, poles, scale, r, R = nk.bounds.random_rational(3, seed=1)
    res = classical_shape_check(zeros, poles, scale, r, k=R / r)
    case = VerificationCase(case_id=0, seed=0,
                            model=nk.from_rational(zeros=zeros, poles=poles, scale=scale),
                            integrator=lebesgue(r, slope=1.0 / r),
                            window=nk.RadialWindow(r, R))
    rep = growth_bound_verify(case)
    assert abs(res["bridge"] - rep.components["bold_t"]) <= 1e-12
    assert (res["lhs"], res["rhs"], res["verdict"]) == (rep.lhs, rep.rhs, rep.verdict)


def test_classical_shape_validation():
    with pytest.raises(ValueError):
        classical_shape_check(r=0.0)
    with pytest.raises(ValueError):
        classical_shape_check(r=1.0, k=1.0)


def test_classical_small_suite():
    rows = classical_suite(5, seed=1)
    assert len(rows) == 5
    for i, spec, res in rows:
        assert res["verdict"] == "pass"
        assert res["lhs"] <= res["rhs"] * (1.0 + 1e-6)
