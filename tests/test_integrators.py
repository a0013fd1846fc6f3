import dataclasses
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
    _max_density_run,
    _omega_over_t_integral,
    _stabilization,
)
from nevkit.quad import adaptive_simpson

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
    # both sides are the one log-kernel term, the Dini integral over (0, 4R]
    assert rhs == dini_integral(m, R=2.0 * m.end)


def dini_tail_budget(m, R, tol=1e-6):
    """(d, budget) of the Dini tail that ``growth_bound_rhs`` asks for."""
    d = _stabilization(m)
    scale = max(1.0, m.total_variation * (1.0 + abs(LN(4.0 * R / d))))
    return d, 100.0 * tol * scale * 0.25


def uncut_dini_tail(m, d, tol, floor):
    """The Dini tail with no cuts: one Simpson call over (ln t0, ln d)."""
    rho_max, w_max = _max_density_run(m)
    t0 = min(w_max, d)
    return rho_max * t0 + adaptive_simpson(lambda ys: omega_many(m, np.exp(ys)),
                                           (LN(t0), LN(d)), tol, min_depth=floor)


def dini_tail_share(m, R, floor):
    """Error of the Dini tail as a share of its budget, against the uncut
    tail at a hundredth of the budget and the given floor."""
    d, budget = dini_tail_budget(m, R)
    ref = uncut_dini_tail(m, d, budget / 100.0, floor)
    return abs(_omega_over_t_integral(m, d, budget) - ref) / budget


def many_pieces(n, seed, depth=None):
    """n random disjoint pieces on [0, 2], a mesh of 2n + 2 kinks, and a
    random staircase of the given depth if there is one."""
    rng = np.random.default_rng(seed)
    ends = np.sort(rng.uniform(0.0, 2.0, 2 * n)).reshape(-1, 2)
    pieces = [Piece(a, b, rng.uniform(0.1, 3.0)) for a, b in ends]
    cantor = depth and CantorPart(rng.uniform(0.0, 0.8), rng.uniform(1.2, 2.0),
                                  rng.uniform(0.3, 1.5), depth)
    return Integrator(end=2.0, pieces=pieces, cantor=cantor)


def test_dini_tail_meets_its_budget_with_pieces_alone():
    # every pieces-only case of seeds 1-3; without cuts at the kink
    # differences, floor 3 missed the budget on 7 of them, 2:40 by 7.1x
    misses = []
    for seed in (1, 2, 3):
        for case_id in range(5, 201, 5):
            case = random_case(case_id, seed=seed)
            share = dini_tail_share(case.integrator, case.window.outer, floor=14)
            if not share <= 1.0:
                misses.append((f"{seed}:{case_id}", share))
    assert misses == []


@pytest.mark.parametrize("n,seed", [(30, 7), (40, 21), (60, 21)])
def test_dini_tail_meets_its_budget_with_many_pieces(n, seed):
    # 62 kinks, every difference cut; 82 and 122 kinks, more than
    # _TAIL_KINKS, cut at the differences of 80 of them.  With no cuts and a
    # floor of 3 they are 26x, 19x and 42x over budget
    assert dini_tail_share(many_pieces(n, seed), R=4.0, floor=14) <= 1.0


def case_task(seed, case_id, depth=None):
    """(m, R) of a random case, its staircase moved to ``depth`` if given."""
    case = random_case(case_id, seed=seed)
    m = case.integrator
    if depth is not None:
        m = dataclasses.replace(m, cantor=dataclasses.replace(m.cantor, depth=depth))
    return m, case.window.outer


@pytest.mark.parametrize("m,R", [
    # the worst cases of seeds 1-10 at depths 8 (1:121, 6:141) and 10
    # (1:96, 3:21), at 0.32, 0.27, 0.38 and 0.31 of the budget
    case_task(1, 121), case_task(6, 141), case_task(1, 96), case_task(3, 21),
    # shallow stages: at a floor of 3, ternary cuts missed 1:11 at depth 4
    # by 1.58x and 3:26 at depth 3 by 1.19x
    case_task(1, 11, depth=4), case_task(3, 26, depth=3),
    (Integrator(end=1.0, cantor=CantorPart(0.0, 1.0, 1.0, depth=1)), None),
    (random_integrator(11, with_jumps=False), None),
    (random_integrator(14, with_jumps=False), None),
    # a depth-6 stage among 20 pieces: 2.0x over budget at a floor of 3
    (many_pieces(20, seed=3, depth=6), 4.0),
], ids=["1:121", "6:141", "1:96", "3:21", "1:11@4", "3:26@3", "cantor@1",
        "random11@5", "random14@6", "pieces20@6"])
def test_dini_tail_meets_its_budget_on_staircases(m, R):
    assert not m.jumps and m.cantor.height > 0.0
    assert dini_tail_share(m, R or 2.0 * m.end, floor=12) <= 1.0


def test_dini_tail_meets_its_budget_on_a_deep_staircase():
    # CANTOR has depth 12; its reference, uncut_dini_tail(CANTOR, 1.0,
    # budget / 100, floor=12), takes 6 s, so its value is written here.  The
    # cut tail is 0.31 of the budget from it (at depth 16: 0.24, but the
    # cut tail takes 6 s there and the reference 4 min)
    d, budget = dini_tail_budget(CANTOR, R=2.0)
    assert d == 1.0
    assert abs(_omega_over_t_integral(CANTOR, d, budget) - 1.291000437367732) <= budget


# -- the log-kernel term against routes of its own ----------------------------
#
# dini_integral is M ln(4R/d) + the Dini tail, which is ∫_(0,d] ln(4R/t) dω by
# parts only because ω(d) = M.  The routes below integrate against dω
# directly, with no integration by parts and no shared quadrature.

def jump_free_cases(seeds, kinds=(0, 1)):
    """(id, m, R) of the random cases of ``seeds`` whose kind (case_id % 5) is
    in ``kinds``: 0 is pieces alone, 1 pieces and a staircase."""
    for seed in seeds:
        for case_id in range(1, 201):
            if case_id % 5 in kinds:
                case = random_case(case_id, seed=seed)
                yield f"{seed}:{case_id}", case.integrator, case.window.outer


def log_kernel_by_envelope(m, R):
    """∫_(0,d] ln(4R/t) dω in closed form for a jump-free m without staircase.

    Between consecutive differences of mesh points, the mass of every window
    that starts or ends at a mesh point is linear in the width t, so ω is the
    upper envelope of those lines there.  On each piece of the envelope
    dω = β dt, and ∫ ln(4R/t) β dt = β [t ln(4R/t) + t].
    """
    xs, F, _ = m._mesh
    d = _stabilization(m)
    diffs = np.unique(np.abs(xs[:, None] - xs))
    cuts = np.append(diffs[diffs < d], d)

    def prim(t):
        return t * LN(4.0 * R / t) + t if t > 0.0 else 0.0

    def masses(t):
        return np.concatenate([np.interp(xs + t, xs, F) - F,
                               F - np.interp(xs - t, xs, F)])

    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        start = masses(a)
        slope = (masses(b) - start) / (b - a)
        k = np.lexsort((slope, start))[-1]  # highest at a, then steepest
        x = 0.0
        while x < b - a:
            # where each steeper line overtakes line k; the first one leads
            cross = np.full(slope.size, math.inf)
            up = slope > slope[k]
            cross[up] = np.maximum((start[k] - start[up]) / (slope[up] - slope[k]), x)
            nxt = min(cross.min(), b - a)
            total += slope[k] * (prim(a + nxt) - prim(a + x))
            first = cross == cross.min()
            k = np.flatnonzero(first)[np.argmax(slope[first])]
            x = nxt
    return total


def log_kernel_bracket(m, R, n=2000):
    """Bounds on ∫_(0,d] ln(4R/t) dω for a jump-free m: the kernel falls and
    ω rises, so on the widths t_k each step adds between ln(4R/t_(k+1)) Δω_k
    and ln(4R/t_k) Δω_k.  Below t0, the width of a cell of largest density
    ρ_max, ω(t) = ρ_max t, which gives the head in closed form."""
    xs, _, rho = m._mesh
    k = int(np.argmax(rho))
    d = _stabilization(m)
    t0 = min(xs[k + 1] - xs[k], d)
    head = rho[k] * t0 * (LN(4.0 * R / t0) + 1.0)
    ts = np.geomspace(t0, d, n)
    dw = np.diff(omega_many(m, ts))
    kernel = np.log(4.0 * R / ts)
    return head + kernel[1:] @ dw, head + kernel[:-1] @ dw


def test_omega_reaches_the_total_variation_at_the_stabilization_diameter():
    # the identity that lets the log-kernel term be computed once; in float
    # omega can come out a few ulps below M, never above
    ms = [m for _, m, _ in jump_free_cases(range(1, 11))] + [lebesgue(2.0), CANTOR]
    for m in ms:
        M = m.total_variation
        assert 0.0 <= M - omega(m, _stabilization(m)) <= 4 * EPS * M


def test_log_kernel_term_matches_the_envelope_route_with_pieces_alone():
    assert log_kernel_by_envelope(lebesgue(2.0), R=4.0) == pytest.approx(
        2.0 * LN(8.0) + 2.0, rel=1e-14)
    # every pieces-only case of seeds 1-10, within the tail's budget (the
    # worst, 6:70, is 0.046 of it)
    misses = []
    for case_id, m, R in jump_free_cases(range(1, 11), kinds=(0,)):
        _, budget = dini_tail_budget(m, R)
        err = abs(dini_integral(m, R, tol=100e-6) - log_kernel_by_envelope(m, R))
        if not err <= budget:
            misses.append((case_id, err / budget))
    assert misses == []


def test_log_kernel_term_lies_in_the_monotone_bracket():
    # every jump-free case of seeds 1-2; the brackets are up to 72 budgets
    # wide, and only a single piece's (which closes to ulps) needs the budget
    outside = []
    for case_id, m, R in jump_free_cases((1, 2)):
        _, budget = dini_tail_budget(m, R)
        lo, hi = log_kernel_bracket(m, R)
        if not lo - budget <= dini_integral(m, R, tol=100e-6) <= hi + budget:
            outside.append(case_id)
    assert outside == []


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
