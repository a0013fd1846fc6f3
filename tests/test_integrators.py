import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import nevkit as nk
from nevkit.bounds import random_case
from nevkit.integrators import (
    CantorPart,
    Integrator,
    Jump,
    LogSingularity,
    Piece,
    dini_integral,
    eval_m,
    eval_m_many,
    integrator_from_json,
    integrator_to_json,
    lebesgue,
    log_kernel_integral,
    nonconstancy_support,
    omega,
    omega_log_kernel_pair,
    omega_many,
    stieltjes_integral,
    _log_kernel_exact,
    _stabilization,
)

LN = math.log
EPS = np.finfo(float).eps

CANTOR = Integrator(end=1.0, cantor=CantorPart(0.0, 1.0, 1.0, depth=12))


def random_integrator(seed: int, with_jumps: bool = True) -> Integrator:
    """Small random mixed integrator on [0, end] for property tests."""
    rng = np.random.default_rng((777, seed))
    end = float(rng.uniform(0.5, 4.0))
    cuts = np.sort(rng.uniform(0.0, end, size=6))
    pieces = []
    for a, b in zip(cuts[:-1:2], cuts[1::2]):
        if b - a > 1e-3:
            pieces.append(Piece(float(a), float(b), float(rng.uniform(0.0, 3.0))))
    cantor = None
    if rng.random() < 0.5:
        a = float(rng.uniform(0.0, 0.4 * end))
        b = float(rng.uniform(0.6 * end, end))
        cantor = CantorPart(a, b, float(rng.uniform(0.1, 2.0)),
                            depth=int(rng.integers(3, 9)))
    jumps = ()
    if with_jumps and rng.random() < 0.5:
        jumps = tuple(Jump(float(x), float(h)) for x, h in
                      zip(rng.uniform(0.05 * end, 0.95 * end, size=2),
                          rng.uniform(0.1, 1.0, size=2)))
    return Integrator(end=end, pieces=tuple(pieces), cantor=cantor, jumps=jumps)


# -- construction -------------------------------------------------------------

def test_piece_validation():
    with pytest.raises(ValueError):
        Piece(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Piece(0.0, 1.0, -0.5)
    assert Piece(0.0, 2.0, 1.5).mass == pytest.approx(3.0)


def test_cantor_validation():
    with pytest.raises(ValueError):
        CantorPart(0.0, 1.0, 1.0, depth=0)
    with pytest.raises(ValueError):
        CantorPart(0.0, 1.0, 1.0, depth=17)
    with pytest.raises(ValueError):
        CantorPart(0.0, 1.0, -1.0)


def test_jump_validation():
    with pytest.raises(ValueError):
        Jump(0.5, 0.0)
    with pytest.raises(ValueError):
        Integrator(end=1.0, jumps=(Jump(1.0, 1.0),))
    with pytest.raises(ValueError):
        Integrator(end=1.0, jumps=(Jump(0.0, 1.0),))


def test_integrator_validation():
    with pytest.raises(ValueError):
        Integrator(end=1.0, pieces=(Piece(0.0, 0.6, 1.0), Piece(0.5, 1.0, 1.0)))
    with pytest.raises(ValueError):
        Integrator(end=1.0, pieces=(Piece(0.0, 2.0, 1.0),))
    with pytest.raises(ValueError):
        Integrator(end=0.0)
    # tuples coerce to the dataclasses and arrive sorted
    m = Integrator(end=2.0, pieces=((1.0, 2.0, 1.0), (0.0, 0.5, 2.0)),
                   jumps=((0.7, 1.0),))
    assert m.pieces[0].start == 0.0
    assert isinstance(m.jumps[0], Jump)


# -- evaluation ---------------------------------------------------------------

def test_eval_lebesgue():
    m = lebesgue(2.0)
    assert eval_m(m, 0.0) == 0.0
    assert eval_m(m, 1.3) == pytest.approx(1.3, abs=1e-14)
    assert eval_m(m, -1.0) == 0.0
    assert eval_m(m, 5.0) == pytest.approx(2.0)


def test_eval_cantor_oracles():
    # staircase node values, up to ~1e-12 float accumulation in the mesh
    assert eval_m(CANTOR, 0.5) == pytest.approx(0.5, abs=1e-10)
    assert eval_m(CANTOR, 1.0 / 3.0) == pytest.approx(0.5, abs=1e-10)
    assert eval_m(CANTOR, 1.0 / 9.0) == pytest.approx(0.25, abs=1e-10)
    assert eval_m(CANTOR, 7.0 / 9.0) == pytest.approx(0.75, abs=1e-10)
    assert eval_m(CANTOR, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_eval_jump_right_continuous():
    m = Integrator(end=2.0, jumps=(Jump(1.0, 3.0),))
    assert eval_m(m, 1.0 - 1e-9) == 0.0
    assert eval_m(m, 1.0) == 3.0
    assert eval_m(m, 1.5) == 3.0


@given(st.integers(min_value=1, max_value=50))
def test_eval_monotone(seed):
    m = random_integrator(seed)
    xs = np.linspace(-0.5, m.end + 0.5, 400)
    vals = eval_m_many(m, xs)
    assert np.all(np.diff(vals) >= -1e-13)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(m.total_variation, rel=1e-10)


def test_total_variation_additive():
    m = Integrator(end=2.0, pieces=(Piece(0.0, 1.0, 2.0),),
                   cantor=CantorPart(1.0, 2.0, 0.5), jumps=(Jump(0.5, 0.25),))
    assert m.total_variation == pytest.approx(2.75)


def test_nonconstancy_support_merges():
    m = Integrator(end=3.0, pieces=(Piece(0.0, 1.0, 1.0), Piece(1.0, 1.5, 2.0)),
                   jumps=(Jump(2.5, 1.0),))
    assert nonconstancy_support(m) == ((0.0, 1.5), (2.5, 2.5))
    assert nonconstancy_support(Integrator(end=1.0)) == ()


# -- modulus of continuity ----------------------------------------------------

def test_omega_lebesgue():
    m = lebesgue(2.0, slope=1.5)
    ts = np.array([0.1, 1.0, 2.0, 3.0])
    assert np.allclose(omega_many(m, ts), 1.5 * np.minimum(ts, 2.0), atol=1e-13)


def test_omega_cantor_dyadic():
    # windows of width 3^-k capture at most 2^-k of the staircase mass
    for k in range(1, 9):
        assert omega(CANTOR, 3.0 ** -k) == pytest.approx(2.0 ** -k, rel=1e-10)


def test_omega_jump_floor():
    m = Integrator(end=2.0, pieces=(Piece(0.0, 2.0, 0.1),), jumps=(Jump(1.0, 3.0),))
    # any positive window catches the jump
    assert omega(m, 1e-12) >= 3.0
    assert omega(m, 2.0) == pytest.approx(3.2, abs=1e-13)


@given(st.integers(min_value=1, max_value=60))
def test_omega_monotone_subadditive(seed):
    m = random_integrator(seed)
    ts = np.geomspace(1e-6, 2.0 * m.end, 40)
    om = omega_many(m, ts)
    assert np.all(np.diff(om) >= -1e-12)
    assert om[-1] == pytest.approx(m.total_variation, rel=1e-10)
    s, t = 0.37, 0.91
    assert omega(m, s + t) <= omega(m, s) + omega(m, t) + 1e-10


def _omega_full_scan(m, ts):
    """omega_many before it scanned only the window ends where the mass can
    peak: every kink and jump as a window start and shifted by -t, both
    ends interpolated, plus the left limits at the jumps."""
    ts = np.asarray(ts, dtype=float)
    flat = np.atleast_1d(ts).astype(float)
    xs, F, _ = m._mesh
    locs, _, cum = m._jump_arrays

    def fc(a):
        return np.interp(a, xs, F)

    def jr(a):
        if not locs.size:
            return 0.0
        return cum[np.searchsorted(locs, a, side="right")]

    def jl(a):
        if not locs.size:
            return 0.0
        return cum[np.searchsorted(locs, a, side="left")]

    anchors = np.concatenate([xs, locs]) if locs.size else xs
    out = np.empty(flat.size)
    chunk = max(1, int(4_000_000 / max(1, 2 * anchors.size + locs.size)))
    for k in range(0, flat.size, chunk):
        t = flat[k:k + chunk][:, None]
        a = np.concatenate([np.broadcast_to(anchors, (t.size, anchors.size)),
                            anchors[None, :] - t], axis=1)
        g = fc(a + t) - fc(a) + jr(a + t) - jr(a)
        best = g.max(axis=1)
        if locs.size:
            gl = fc(locs[None, :] + t) - fc(locs)[None, :] \
                + jl(locs[None, :] + t) - jl(locs)[None, :]
            best = np.maximum(best, gl.max(axis=1))
        out[k:k + chunk] = best
    out = np.maximum(out, 0.0)
    return out.reshape(ts.shape) if ts.shape else out[0]


def _widths(m, rng):
    """A geometric sweep plus 20 gaps between kinks, at which both ends of a
    window can sit on kinks."""
    xs, _, _ = m._mesh
    i, j = rng.integers(0, xs.size, size=(2, 20))
    gaps = np.abs(xs[i] - xs[j])
    return np.concatenate([np.geomspace(1e-6, 2.0 * m.end, 40), gaps[gaps > 0.0]])


@given(st.integers(min_value=1, max_value=40))
def test_omega_equals_the_full_scan_without_jumps(seed):
    m = random_integrator(seed, with_jumps=False)
    # a depth-10 staircase across the first two pieces, so that staircase
    # blocks and piece ends overlap
    a, b = (0.5 * (p.start + p.stop) for p in m.pieces[:2])
    stairs = Integrator(end=m.end, pieces=m.pieces,
                        cantor=CantorPart(a, b, 1.0, depth=10))
    rng = np.random.default_rng(seed)
    for mm in (m, stairs):
        ts = _widths(mm, rng)
        ref = _omega_full_scan(mm, ts)
        tol = 64 * EPS * max(1.0, mm.total_variation)
        assert np.all(np.abs(omega_many(mm, ts) - ref) <= tol)


def _dense_best(m, ts):
    """Best window mass over a uniform grid of 20,001 window starts, and over
    the windows that end on a jump, taken as m(loc) - m(loc - t) directly."""
    best, spacing = [], []
    locs = np.array([j.location for j in m.jumps])
    for t in ts:
        a = np.linspace(-t, m.end, 20_001)
        on_grid = eval_m_many(m, a + t) - eval_m_many(m, a)
        on_jump = eval_m_many(m, locs) - eval_m_many(m, locs - t)
        best.append(max(on_grid.max(), on_jump.max()))
        spacing.append(a[1] - a[0])
    return np.array(best), np.array(spacing)


@given(st.integers(min_value=1, max_value=30))
def test_omega_with_jumps_against_a_dense_scan(seed):
    base = random_integrator(seed, with_jumps=False)
    rng = np.random.default_rng((31, seed))
    # one jump where a piece stops, so that the heaviest windows end on it,
    # and one anywhere
    at = (base.pieces[0].stop, float(rng.uniform(0.05 * base.end, 0.95 * base.end)))
    jumps = tuple(Jump(x, float(h)) for x, h in zip(at, rng.uniform(0.1, 1.0, size=2)))
    m = Integrator(end=base.end, pieces=base.pieces, cantor=base.cantor, jumps=jumps)
    xs, _, rho = m._mesh
    # a dense sweep, on which (loc - t) + t often rounds below loc, and
    # widths that put a window's left end on a kink and its right end on a jump
    gaps = np.concatenate([j.location - xs[xs < j.location] for j in jumps])
    ts = np.concatenate([np.geomspace(1e-4, 2.0 * m.end, 100),
                         rng.choice(gaps, size=min(20, gaps.size), replace=False)])
    got = omega_many(m, ts)
    best, spacing = _dense_best(m, ts)
    rho_max = float(rho.max(initial=0.0))
    # the scans sum the same masses in another order: 4 eps M of rounding
    rounding = 4 * EPS * m.total_variation
    assert np.all(got >= best - rounding)
    assert np.all(got <= best + 2.0 * rho_max * spacing + 1e-12)
    # next to the full scan the only change on jumps is a gain
    assert np.all(got >= _omega_full_scan(m, ts) - rounding)


def test_omega_window_ending_on_a_jump_keeps_the_jump():
    # (loc - t) + t rounds one ulp below loc here, so the window
    # (loc - t, loc] loses the jump at loc if its end is taken as that sum
    m = random_case(42, seed=1).integrator
    t = 0.3113403136581097
    loc = m.jumps[0].location
    assert (loc - t) + t < loc
    want = eval_m(m, loc) - eval_m(m, loc - t)
    assert want == pytest.approx(1.1624048, abs=1e-7)
    assert omega(m, t) >= want


def test_stabilization_oracles():
    assert _stabilization(lebesgue(2.0)) == 2.0
    jump_only = Integrator(end=2.0, jumps=(Jump(1.0, 1.0),))
    assert _stabilization(jump_only) == 0.0
    assert _stabilization(CANTOR) == 1.0


@given(st.integers(min_value=1, max_value=60), st.booleans())
def test_stabilization_is_the_support_hull_width(seed, with_jumps):
    m = random_integrator(seed, with_jumps=with_jumps)
    ends = [(p.start, p.stop) for p in m.pieces if p.slope > 0]
    if m.cantor is not None:
        ends.append((m.cantor.start, m.cantor.stop))
    ends.extend((j.location, j.location) for j in m.jumps)
    d = max(b for _, b in ends) - min(a for a, _ in ends) if ends else 0.0
    assert _stabilization(m) == d
    # omega reaches the total variation just past d and not just before it
    M = m.total_variation
    assert omega(m, d * (1.0 + 1e-9)) >= M - 4 * EPS * M
    if d > 0.0:
        assert omega(m, d * (1.0 - 1e-6)) < M


# -- Dini integral and the stabilized pair ------------------------------------

def test_dini_lebesgue_closed_form():
    # omega(t)/t is 1 below the domain end and 2/t past it
    got = dini_integral(lebesgue(2.0), R=2.0)
    assert got == pytest.approx(2.0 * LN(4.0) + 2.0, rel=1e-8)
    got = dini_integral(lebesgue(2.0), R=4.0)
    assert got == pytest.approx(2.0 * LN(8.0) + 2.0, rel=1e-8)


def test_dini_jump_diverges():
    m = Integrator(end=2.0, jumps=(Jump(1.0, 1.0),))
    assert dini_integral(m, R=4.0) == math.inf
    assert dini_integral(Integrator(end=1.0), R=4.0) == 0.0


def test_pair_lebesgue_anchor():
    lhs, rhs = omega_log_kernel_pair(lebesgue(2.0), R=4.0)
    # stabilization happens exactly at the domain end, so both sides close
    want = 2.0 * LN(8.0) + 2.0
    assert lhs == pytest.approx(want, rel=1e-9)
    assert rhs == pytest.approx(want, rel=1e-9)
    assert lhs <= rhs


def test_pair_jump_diverges():
    m = Integrator(end=2.0, jumps=(Jump(1.0, 1.0),))
    assert omega_log_kernel_pair(m, R=4.0) == (math.inf, math.inf)
    assert omega_log_kernel_pair(Integrator(end=1.0), R=4.0) == (0.0, 0.0)


def test_pair_needs_room():
    # staircase stabilizes at width 1 which exceeds 4R for R = 0.2
    with pytest.raises(ValueError):
        omega_log_kernel_pair(CANTOR, R=0.2)
    with pytest.raises(ValueError):
        dini_integral(CANTOR, R=0.2)


@given(st.integers(min_value=1, max_value=40))
def test_pair_ordering(seed):
    m = random_integrator(seed, with_jumps=False)
    if m.total_variation == 0.0:
        return
    lhs, rhs = omega_log_kernel_pair(m, R=2.0 * m.end)
    assert lhs <= rhs
    # the loose side of the pair is the Dini integral over (0, 4R]
    assert rhs == dini_integral(m, R=2.0 * m.end)


# -- Stieltjes integration ----------------------------------------------------

def test_stieltjes_polynomial_oracles():
    m = lebesgue(2.0)
    assert stieltjes_integral(lambda t: np.ones_like(t), m) == pytest.approx(2.0, abs=1e-10)
    assert stieltjes_integral(lambda t: t, m) == pytest.approx(2.0, abs=1e-9)
    assert stieltjes_integral(lambda t: t * t, m) == pytest.approx(8.0 / 3.0, abs=1e-8)


def test_stieltjes_jump_weights():
    m = Integrator(end=2.0, jumps=(Jump(0.5, 2.0), Jump(1.5, 1.0)))
    got = stieltjes_integral(lambda t: t, m)
    assert got == pytest.approx(0.5 * 2.0 + 1.5 * 1.0, abs=1e-13)


def test_stieltjes_cantor_mean():
    # the staircase measure is symmetric about 1/2 at every depth
    got = stieltjes_integral(lambda t: t, CANTOR, tol=1e-10)
    assert got == pytest.approx(0.5, abs=1e-9)


def test_stieltjes_log_singularity_closed_form():
    m = lebesgue(2.0)
    sing = LogSingularity(location=1.0, coefficient=1.0, scale=4.0)

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(4.0 / np.abs(t - 1.0))

    got = stieltjes_integral(f, m, tol=1e-8, singularities=(sing,))
    assert got == pytest.approx(2.0 * LN(4.0) + 2.0, abs=1e-7)


def test_stieltjes_singularity_on_jump_diverges():
    m = Integrator(end=2.0, jumps=(Jump(1.0, 1.0),))
    f = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    pos = LogSingularity(location=1.0, coefficient=1.0)
    neg = LogSingularity(location=1.0, coefficient=-1.0)
    assert stieltjes_integral(f, m, singularities=(pos,)) == math.inf
    assert stieltjes_integral(f, m, singularities=(neg,)) == -math.inf


# -- two-route log-kernel integral ---------------------------------------------

def test_log_kernel_reference_value():
    # integral of ln(5/|t-1|) dt over [0,2] equals 2 ln 5 + 2
    got = log_kernel_integral(lebesgue(2.0), x=1.0, r=2.0, R=2.5)
    assert got == pytest.approx(2.0 * LN(5.0) + 2.0, rel=1e-6)


def test_log_kernel_jump_at_center():
    m = Integrator(end=2.0, pieces=(Piece(0.0, 2.0, 1.0),), jumps=(Jump(1.0, 1.0),))
    assert log_kernel_integral(m, x=1.0, r=2.0, R=2.5) == math.inf


def test_log_kernel_domain_checks():
    with pytest.raises(ValueError):
        log_kernel_integral(lebesgue(2.0), x=1.0, r=1.0, R=2.5)
    with pytest.raises(ValueError):
        log_kernel_integral(lebesgue(2.0), x=1.0, r=2.0, R=1.5)
    with pytest.raises(ValueError):
        log_kernel_integral(lebesgue(2.0), x=-0.5, r=2.0, R=2.5)


@pytest.mark.parametrize("seed, with_jumps, x", [
    (163, True, 1.524937498850474),  # pieces and a depth-8 staircase
    (242, False, 3.285712401983117),  # pieces only
    (365, False, 0.8340480053280852),  # pieces only
])
def test_log_kernel_substitution_is_exact(seed, with_jumps, x):
    # inputs on which a quadrature of the substitution route missed the
    # route check; the closed form on the breakpoints of g must not
    m = random_integrator(seed, with_jumps=with_jumps)
    r = m.end
    got = log_kernel_integral(m, x=x, r=r, R=2.0 * r)
    want = _log_kernel_exact(m, x, 4.0 * r)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@given(st.integers(min_value=1, max_value=400), st.booleans(),
       st.floats(min_value=0.0, max_value=2.0))
# a subnormal x puts a breakpoint near 0 where the ratio b/a of a cell overflows
@example(seed=1, with_jumps=False, u=2.225073858507e-311)
def test_log_kernel_routes_stay_consistent(seed, with_jumps, u):
    m = random_integrator(seed, with_jumps=with_jumps)
    r = m.end
    x = u * r
    assume(not any(abs(j.location - x) <= 1e-9 * r for j in m.jumps))
    got = log_kernel_integral(m, x=x, r=r, R=2.0 * r, tol=1e-6)
    want = _log_kernel_exact(m, x, 4.0 * r)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# -- serialization --------------------------------------------------------------

@given(st.integers(min_value=1, max_value=60))
def test_integrator_json_roundtrip(seed):
    m = random_integrator(seed)
    again = integrator_from_json(integrator_to_json(m))
    assert again == m


def test_integrator_json_schema():
    m = Integrator(end=2.0, pieces=(Piece(0.0, 1.0, 2.0),),
                   cantor=CantorPart(1.0, 2.0, 0.5, depth=6),
                   jumps=(Jump(0.5, 0.25),))
    doc = json.loads(integrator_to_json(m))
    assert doc == {
        "end": 2.0,
        "pieces": [{"from": 0.0, "to": 1.0, "slope": 2.0}],
        "cantor": {"a": 1.0, "b": 2.0, "h": 0.5, "depth": 6},
        "jumps": [{"x": 0.5, "h": 0.25}],
    }


def test_integrator_json_errors():
    with pytest.raises(nk.ParseError):
        integrator_from_json("{")
    with pytest.raises(nk.ParseError):
        integrator_from_json(json.dumps({"end": 1.0, "pieces": [{"from": 0.0}]}))
    with pytest.raises(nk.ParseError):
        integrator_from_json("[1]")
