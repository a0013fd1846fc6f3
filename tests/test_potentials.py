import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nevkit as nk
from nevkit import potentials
from nevkit.potentials import EMPTY_MODEL, canonical_split, circle_mean_max
from nevkit.quad import golden_max

from conftest import random_model

LN = math.log


# -- model construction and evaluation ---------------------------------------

def test_atom_validation():
    with pytest.raises(ValueError):
        nk.RieszAtom(1.0 + 0j, 0.0)
    with pytest.raises(ValueError):
        nk.RieszAtom(complex(math.inf, 0.0), 1.0)


def test_coincident_opposite_atoms_rejected():
    with pytest.raises(nk.CoincidentOppositeAtoms):
        nk.DeltaSubharmonicModel(atoms=(nk.RieszAtom(1j, 1.0),
                                        nk.RieszAtom(1j, -2.0)))


def test_same_sign_stacking_allowed():
    m = nk.DeltaSubharmonicModel(atoms=(nk.RieszAtom(1j, 1.0),
                                        nk.RieszAtom(1j, 2.0)))
    assert nk.evaluate(m, 1j) == -math.inf


def test_evaluate_rational_oracle():
    # (z-2)/(z-1)^2 at 3i: ln|3i-2| - 2 ln|3i-1|
    m = nk.from_rational(zeros=((2.0, 1),), poles=((1.0, 2),))
    got = nk.evaluate(m, 3j)
    assert got == pytest.approx(0.5 * LN(13.0) - LN(10.0), abs=1e-12)


def test_evaluate_sign_conventions(pole_model):
    assert nk.evaluate(pole_model, 0.0) == pytest.approx(LN(5.0), abs=1e-12)
    assert nk.evaluate(pole_model, 1.0) == math.inf
    zero = nk.from_rational(zeros=((0.5j, 1),))
    assert nk.evaluate(zero, 0.5j) == -math.inf


def test_from_rational_validation():
    with pytest.raises(nk.SharedZeroPole):
        nk.from_rational(zeros=((1.0, 1),), poles=((1.0, 2),))
    with pytest.raises(ValueError):
        nk.from_rational(zeros=((1.0, 0),))
    with pytest.raises(ValueError):
        nk.from_rational(scale=0.0)


def test_harmonic_polynomial():
    # Re(1 + (2+i) z) at z = 1+1j: 1 + Re(2+i + 2i-1) = 1 + 1 = 2
    h = nk.HarmonicPart((1.0 + 0j, 2.0 + 1j))
    m = nk.DeltaSubharmonicModel(harmonic=h)
    assert nk.evaluate(m, 1.0 + 1.0j) == pytest.approx(2.0, abs=1e-14)


def test_evaluate_many_shapes(pole_model):
    z = np.array([[0.0, 2.0], [3.0, -1.0]], dtype=complex)
    out = nk.evaluate_many(pole_model, z)
    assert out.shape == (2, 2)
    assert out[0, 0] == pytest.approx(LN(5.0))
    assert out[1, 1] == pytest.approx(LN(5.0 / 2.0))


# -- circle maximum -----------------------------------------------------------

def test_circle_max_oracles(pole_model):
    assert nk.circle_max(pole_model, 0.5) == pytest.approx(LN(10.0), abs=1e-9)
    assert nk.circle_max(pole_model, 4.0) == pytest.approx(LN(5.0 / 3.0), abs=1e-9)
    assert nk.circle_max(pole_model, 0.0) == pytest.approx(LN(5.0), abs=1e-12)


def test_circle_max_negative_atom_on_circle_is_inf(pole_model):
    assert nk.circle_max(pole_model, 1.0) == math.inf


def test_circle_max_positive_atom_on_circle_is_finite():
    m = nk.from_rational(zeros=((1.0, 1),))
    # sup over |z|=1 of ln|z-1| is ln 2, at the antipode
    assert nk.circle_max(m, 1.0) == pytest.approx(LN(2.0), abs=1e-9)


def test_circle_max_many_matches_scalar(pole_model):
    ts = np.array([0.3, 0.5, 2.0, 4.0])
    many = nk.circle_max_many(pole_model, ts)
    each = np.array([nk.circle_max(pole_model, float(t)) for t in ts])
    assert np.allclose(many, each, atol=1e-9)


@given(st.integers(min_value=1, max_value=40))
def test_circle_max_dominates_mean(seed):
    model = random_model(seed)
    t = 1.3057  # clear of the guard radii used by random_model
    if np.any(np.abs(model.atom_radii - t) < 1e-6):
        t *= 1.001
    assert nk.circle_max(model, t) >= nk.circle_mean(model, t) - 1e-9


def _assert_dominates_dense_grid(model, ts):
    circle = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2**15, endpoint=False))
    for t, got in zip(ts, nk.circle_max_many(model, ts)):
        dense = nk.evaluate_many(model, t * circle).max()
        assert got >= dense - 1e-12 * abs(dense), (t, got, dense)


def test_circle_max_pruning_keeps_every_peak_of_random_cases():
    # a bracket is polished only if its centre value plus the angular
    # Lipschitz bound can beat the grid maximum; no pruned one may have
    # hidden a peak that a 64x finer grid sees
    for case_id in range(1, 25):
        case = nk.random_case(case_id, seed=3)
        _assert_dominates_dense_grid(case.model, np.linspace(0.0, case.window.outer, 17))


def test_circle_max_pruning_keeps_narrow_and_nan_brackets():
    # a negative atom 1e-9 (relative) off the circle: a spike far narrower
    # than the grid spacing, with a huge Lipschitz bound
    t = 1.7
    spike = nk.DeltaSubharmonicModel(
        atoms=(nk.RieszAtom(t * (1.0 + 1e-9) * np.exp(2.0j), -0.8),
               nk.RieszAtom(0.6 + 0.3j, 1.5)),
        harmonic=nk.HarmonicPart((0.2, 0.05 + 0.1j)))
    _assert_dominates_dense_grid(spike, np.array([t]))
    assert nk.circle_max(spike, t) > 15.0
    # a positive atom exactly on the circle: its centre value is -inf and
    # the bound +inf, so the reach is nan and the bracket stays live
    a = 1.25 * np.exp(0.4j)
    on = nk.DeltaSubharmonicModel(
        atoms=(nk.RieszAtom(a, 2.0), nk.RieszAtom(0.5j, -1.0), nk.RieszAtom(-2.0, 0.7)))
    ts = np.array([abs(a), 0.8])
    _assert_dominates_dense_grid(on, ts)
    assert np.isfinite(nk.circle_max_many(on, ts)).all()
    # a negative atom 2.6% inside the circle next to a positive one: its
    # peak, 0.0065 from its angle, is not the grid maximum, and only its
    # atom bracket finds it (2.5e-4 above the value without that bracket)
    near = nk.DeltaSubharmonicModel(
        atoms=(nk.RieszAtom(-0.0326458 + 0.6891057j, -0.56723),
               nk.RieszAtom(-0.1721716 + 0.6787657j, 1.07665)))
    _assert_dominates_dense_grid(near, np.array([0.70807]))


def test_circle_max_zoom_is_no_worse_than_golden_polish(monkeypatch):
    # the same brackets polished by golden-section search, as before the zoom
    cases = [nk.random_case(case_id, seed=3) for case_id in range(1, 25)]
    runs = [(case.model, np.linspace(0.0, case.window.outer, 18)[1:], samples)
            for case in cases for samples in (512, 2048)]
    new = [nk.circle_max_many(model, ts, samples) for model, ts, samples in runs]
    monkeypatch.setattr(potentials, "zoom_max", lambda f, lo, hi: golden_max(
        lambda x: f(x[:, None])[:, 0], lo, hi))
    for got, (model, ts, samples) in zip(new, runs):
        old = nk.circle_max_many(model, ts, samples)
        ok = (got >= old - 1e-13 * np.maximum(1.0, np.abs(old))) | (got == old)
        assert ok.all(), (ts[~ok], got[~ok], old[~ok])


# -- circle means -------------------------------------------------------------

def test_circle_mean_closed_form(pole_model):
    assert nk.circle_mean(pole_model, 4.0) == pytest.approx(LN(5.0 / 4.0), abs=1e-13)
    assert nk.circle_mean(pole_model, 0.5) == pytest.approx(LN(5.0), abs=1e-13)


def test_circle_mean_atom_on_circle_raises(pole_model):
    with pytest.raises(nk.AtomOnCircle) as info:
        nk.circle_mean(pole_model, 1.0)
    assert info.value.radius == pytest.approx(1.0)


def test_circle_mean_needs_positive_radius(pole_model):
    with pytest.raises(ValueError):
        nk.circle_mean(pole_model, 0.0)


def test_circle_mean_plus_oracles(pole_model):
    assert nk.circle_mean_plus(pole_model, 4.0) == pytest.approx(LN(5.0 / 4.0), abs=1e-8)
    assert nk.circle_mean_plus(pole_model, 2.0) == pytest.approx(LN(5.0 / 2.0), abs=1e-8)


def test_circle_mean_plus_of_negative_model_is_zero():
    # U = ln|z| - 10 is negative on small circles, so U^+ averages to zero
    m = nk.DeltaSubharmonicModel(atoms=(nk.RieszAtom(0j, 1.0),),
                                 harmonic=nk.HarmonicPart((-10.0 + 0j,)))
    assert nk.circle_mean_plus(m, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_circle_mean_max_identity():
    # max(u, v) = (U)^+ + v splits the quadrature against two closed forms
    for seed in (3, 11, 27):
        model = random_model(seed)
        u, v = canonical_split(model)
        t = 2.427
        if np.any(np.abs(model.atom_radii - t) < 1e-6):
            t *= 1.0001
        lhs = circle_mean_max(u, v, t, tol=1e-9)
        rhs = nk.circle_mean_plus(model, t, tol=1e-9) + nk.circle_mean(v, t)
        assert lhs == pytest.approx(rhs, abs=5e-8)


def test_circle_mean_max_identical_models(pole_model):
    got = circle_mean_max(pole_model, pole_model, 4.0, tol=1e-9)
    assert got == pytest.approx(LN(5.0 / 4.0), abs=1e-8)


# -- canonical split / negation ----------------------------------------------

def test_canonical_split_signs():
    model = random_model(5)
    u, v = canonical_split(model)
    assert all(a.mass > 0 for a in u.atoms)
    assert all(a.mass > 0 for a in v.atoms)
    assert u.harmonic == model.harmonic
    assert v.harmonic.coefficients == ()
    back = {(a.location, a.mass) for a in u.atoms}
    back |= {(a.location, -a.mass) for a in v.atoms}
    assert back == {(a.location, a.mass) for a in model.atoms}


def test_negate_involution():
    model = random_model(8)
    assert nk.negate(nk.negate(model)) == model


# -- serialization -------------------------------------------------------------

@given(st.integers(min_value=1, max_value=60))
def test_model_json_roundtrip(seed):
    model = random_model(seed)
    again = nk.model_from_json(nk.model_to_json(model))
    assert again == model


def test_model_json_parse_error_diagnostics():
    with pytest.raises(nk.ParseError) as info:
        nk.model_from_json('{"atoms": [}')
    assert "line 1" in str(info.value)
    with pytest.raises(nk.ParseError):
        nk.model_from_json(json.dumps({"atoms": [{"re": 0.0}]}))
    with pytest.raises(nk.ParseError):
        nk.model_from_json("[1]")


def test_model_json_is_plain_data(pole_model):
    doc = json.loads(nk.model_to_json(pole_model))
    assert doc["atoms"] == [{"re": 1.0, "im": 0.0, "mass": -1.0}]
    assert doc["harmonic"] == [[LN(5.0), 0.0]]


def test_radial_window_validation():
    with pytest.raises(ValueError):
        nk.RadialWindow(2.0, 2.0)
    with pytest.raises(ValueError):
        nk.RadialWindow(-1.0, 2.0)
    w = nk.RadialWindow(0.0, 3.0)
    assert w.inner == 0.0 and w.outer == 3.0
