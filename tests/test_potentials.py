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


def test_circle_max_finds_peaks_off_the_grid_argmax_and_atom_angles():
    # each peak is neither the 512-angle grid argmax nor within one grid
    # spacing of an atom angle or antipode; a local maximum of the ring
    # brackets it (the old search returned 0.7762039 and 3.1620575)
    two = nk.DeltaSubharmonicModel(
        atoms=(nk.RieszAtom(-1.5255139293465825 + 0.4462221028486477j, -0.865380018791436),
               nk.RieszAtom(-0.9013339566274351 + 2.0618774660951877j, -1.580355959940917)))
    _assert_dominates_dense_grid(two, np.array([1.7379626542180726]))
    _assert_dominates_dense_grid(nk.random_case(85, seed=2).model,
                                 np.array([2.6123658955706115]))


def _count_zoom_brackets(monkeypatch):
    brackets = []
    zoom = potentials.zoom_max

    def counted(f, lo, hi):
        brackets.append(np.size(lo))
        return zoom(f, lo, hi)

    monkeypatch.setattr(potentials, "zoom_max", counted)
    return brackets


def test_circle_max_polishes_nothing_on_a_symmetric_circle(monkeypatch):
    # ln|3/z| is constant on every circle, so every ring node is a local
    # maximum up to rounding; the exact angular bound is 0 and prunes them all
    brackets = _count_zoom_brackets(monkeypatch)
    model = nk.from_rational(poles=((0.0, 1),), scale=3.0)
    ts = np.linspace(0.0, 4.0, 258)[1:]
    got = nk.circle_max_many(model, ts)
    assert not brackets
    exact = LN(3.0) - np.log(ts)
    assert (np.abs(got - exact) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(exact))).all()


@pytest.mark.parametrize("atom", [(1.3 + 0.4j, -0.7), (0.2j, 2.0), (-2.9 - 0.1j, 1.3)])
def test_angular_lipschitz_is_the_exact_max_slope_for_one_atom(atom):
    model = nk.DeltaSubharmonicModel(atoms=(nk.RieszAtom(*atom),))
    theta = np.linspace(0.0, 2.0 * np.pi, 2**20, endpoint=False)
    # dU/dtheta = m Im(z conj(z - a)) / |z - a|**2 at z = t e^(i theta)
    for t in (0.3, 1.0, 1.35, 2.0, 4.5):
        z = t * np.exp(1j * theta)
        slope = np.abs(atom[1] * (z * np.conj(z - atom[0])).imag / np.abs(z - atom[0]) ** 2)
        bound = potentials._angular_lipschitz(model, np.array([t]))[0]
        assert slope.max() <= bound <= slope.max() * (1.0 + 1e-6), (t, bound, slope.max())


def test_circle_max_zoom_is_no_worse_than_golden_polish(monkeypatch):
    # the same brackets polished by golden-section search, as before the zoom
    runs = [(case.model, np.linspace(0.0, case.window.outer, 18)[1:])
            for case in (nk.random_case(case_id, seed=3) for case_id in range(1, 25))]
    new = [nk.circle_max_many(model, ts) for model, ts in runs]
    monkeypatch.setattr(potentials, "zoom_max", lambda f, lo, hi: golden_max(
        lambda x: f(x[:, None])[:, 0], lo, hi))
    for got, (model, ts) in zip(new, runs):
        old = nk.circle_max_many(model, ts)
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
    # max(u, v) = (U)^+ + v: the canonical route against the plus route
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


def test_circle_mean_plus_is_the_closed_form_without_crossings():
    # U > 0 on the whole circle: the quadrature used to land 2.8e-8 below C_U
    model = nk.random_case(93, seed=11).model
    for tol in (1e-8, 1e-6):
        assert nk.circle_mean_plus(model, 5.9556, tol=tol) == nk.circle_mean(model, 5.9556)
    # it used to land 1.8e-10 below max(C_U, 0) at tol 1e-10
    model = nk.random_case(165, seed=3).model
    t = 3.6544386696810345
    got = nk.circle_mean_plus(model, t, tol=1e-10)
    assert got >= max(nk.circle_mean(model, t), 0.0) - 1e-10


def test_circle_mean_where_the_difference_vanishes(pole_model):
    got = circle_mean_max(pole_model, pole_model, 4.0, tol=1e-9)
    assert got == pytest.approx(LN(5.0 / 4.0), abs=1e-8)
    # U = 1 + Re z is 0 at the scan node pi of the unit circle and > 0 elsewhere
    touching = nk.DeltaSubharmonicModel(harmonic=nk.HarmonicPart((1.0, 1.0)))
    got = nk.circle_mean_plus(touching, 1.0, tol=1e-9)
    assert got == pytest.approx(1.0, abs=1e-9)


# Li2 at points exact in binary, to 21 digits (mpmath at 30 digits)
LI2_REFERENCE = (
    (0.3 + 0.1j, 0.322154530711909134727, 0.118647211566600948481),
    (-0.45j, -0.0482694838368878168294, -0.440545088284369128327),
    (0.2 - 0.3j, 0.181762413625544758894, -0.330002166431234926717),
    (0.5 + 0j, 0.582240526465012505903, 0.0),
    (0.6 + 0.5j, 0.569270508728060907288, 0.691372426891842798042),
    (-0.7 - 0.2j, -0.609992068585066903621, -0.151344422088460154075),
    (-0.9 + 0.1j, -0.753200481470191731991, 0.0712915281025446304882),
    (-0.8009833868238243 + 0.5983524496751358j,  # 0.9998 e^{2.5i}
     -0.719428590424677523514, 0.433534040876790577696),
    (0.9553355337891168 + 0.29551991114113285j,  # (1 - 1e-6) e^{0.3i}
     1.19619396108328271871, 0.661565589424817822673),
    (-0.9991341511381292 - 0.04158062085262806j,  # (1 - 1e-6) e^{-3.1i}
     -0.822033853284935256524, -0.0288268115933286705673),
    (0.5403023058681398 + 0.8414709848078965j,  # e^{i}
     0.324137740053329862185, 1.01395913236076852851),
    (0.9999995000000417 - 0.0009999998333333417j,  # e^{-0.001i}
     1.64336352052143159394, -0.00790775529287103835865),
    (1 + 0j, 1.64493406684822643647, 0.0),
    (-1 + 0j, -0.822467033424113218236, 0.0),
)


def test_li2_against_fixed_references():
    z = np.array([row[0] for row in LI2_REFERENCE])
    want = np.array([complex(re, im) for _, re, im in LI2_REFERENCE])
    got = potentials._li2(z)
    assert np.abs(got - want).max() <= 2e-15, np.abs(got - want)
    # one batch or one point at a time: the same values
    assert all(potentials._li2(np.array([p]))[0] == g for p, g in zip(z, got))


def test_full_circle_arc_is_the_closed_form_mean():
    full = (np.array([0.0]), np.array([2.0 * np.pi]))
    for case in nk.generate_cases(200, seed=1):
        for t in (case.window.inner, case.window.outer):
            want = nk.circle_mean(case.model, t)
            got = potentials._arc_integral(case.model, t, *full)[0] / (2.0 * np.pi)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14), (case.case_id, t)


def _literal(atoms, coefficients):
    return nk.DeltaSubharmonicModel(atoms=tuple(nk.RieszAtom(*a) for a in atoms),
                                    harmonic=nk.HarmonicPart(coefficients))


# circles with crossings where adaptive Simpson missed its tol, with their
# means to 20 digits (mpmath quadrature at 30 digits, split at the crossings)
KNOWN_BAD_CIRCLES = {
    # random_case(102, seed=1) at t = r: 1.55e-8 below at tol 1e-8
    "suite_1_102": (lambda: nk.random_case(102, seed=1).model, 1.0195279769617582,
                    "plus", 1e-8, 0.065597149549736469314),
    # the closed-form fixture at R, where U touches 0 at z = -4: 3.2e-11 off
    "fixture_R": (lambda: nk.reference_case().model, 4.0, "plus", 1e-8, LN(1.25)),
    # the four failing operations of the means benchmark, asked at tol 5e-9
    "means_8_30": (lambda: _literal((
        ((-3.670349067170601 + 0.877400605946223j), -0.6751375008750002),
        ((-0.9131666144850442 - 2.624418425391689j), 0.7906391262364839),
        ((-0.4192253601127682 - 0.6742937201337209j), 0.6956301153581097),
        ((0.17919570714190766 + 2.1748252367499616j), -1.5430607004573953),
        ((-1.6068440680776603 - 2.680746436806644j), 0.6328993472218267)),
        (0.09231068454268199, 0.0007187963104234422 + 0.016893090584174913j)),
        4.193382032553414, "plus", 5e-9, 0.58708920601474162748),  # was 5.3e-8 below
    "means_13_118": (lambda: _literal((
        ((-0.1036819118740886 - 5.130665929579541j), -0.662517676986365),
        ((1.490997334183902 + 3.8336258354267376j), 1.4616882294154112)),
        (0.3945924615439822,)),
        2.327136809511341, "canonical", 5e-9, 2.4650321551728476911),  # 7.5e-8 above
    "means_14_174": (lambda: _literal((
        ((1.319059172406993 + 2.0966652265211523j), -0.6006427591405488),
        ((-3.818618275356285 + 0.37795121366965245j), 1.522416182433905)),
        (0.31709045920373613, -0.002548251210040974 + 0.00886478891306429j)),
        2.4403280599016024, "canonical", 5e-9, 2.3649862293998860070),  # 3.7e-8 below
    "means_17_45": (lambda: _literal((
        ((-1.2028777929724177 - 0.20722969221580662j), 0.8137842806545024),
        ((-1.6901249451888558 - 0.5382302403221502j), 0.5652749455993707),
        ((-0.9191144854140046 - 0.6032633091865681j), -1.502217620287198),
        ((1.659497007562654 + 1.128432440933515j), 1.9793660862303302)),
        (0.12215947725830689, -0.021618586884972823 - 0.027749290674032177j)),
        1.560064748674415, "plus", 5e-9, 1.6403195845953080740),  # 7.7e-8 above
}


@pytest.mark.parametrize("name", sorted(KNOWN_BAD_CIRCLES))
def test_circle_mean_on_known_bad_circles(name):
    build, t, route, tol, want = KNOWN_BAD_CIRCLES[name]
    model = build()
    if route == "plus":
        got = nk.circle_mean_plus(model, t, tol=tol)
    else:
        got = circle_mean_max(*canonical_split(model), t, tol=tol)
    assert got == pytest.approx(want, abs=1e-14)


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
