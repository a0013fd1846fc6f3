"""Batched one-dimensional quadrature and root/maximum location helpers.

All routines take vectorized callables: ``f`` maps a float ndarray to a float
ndarray of the same shape.  Work proceeds in whole generations of panels so
the callable is hit a few times with large batches instead of thousands of
times with scalars.
"""
from __future__ import annotations

import numpy as np

from .errors import ToleranceNotReached

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

MAX_DEPTH = 50  # halvings of a cut interval after which panels are accepted as they are
MAX_PANELS = 200_000  # panels one adaptive_simpson call may create
BISECT_STEPS = 70  # cap on halvings; float brackets collapse well before it
BISECT_LEVELS = 6  # bisect_sign_changes cuts brackets into 2**6 pieces per call of f
GOLDEN_STEPS = 40  # golden-section steps: the bracket shrinks by 0.618**40
ZOOM_POINTS = 17  # points per bracket per zoom round; each round is 8x narrower
ZOOM_ROUNDS = 10  # zoom rounds: the last grid step is the half width / 8**10


def adaptive_simpson(f, cuts, tol: float, *, min_depth: int = 0) -> float:
    """Integrate ``f`` over [min(cuts), max(cuts)] to absolute tolerance ``tol``.

    Classic adaptive Simpson with Richardson correction, run breadth-first.
    The sorted, de-duplicated ``cuts`` are the first generation of panels, so
    a kink or step placed on a cut never lies inside a panel, and each
    panel's share of ``tol`` is its share of the length.  ``min_depth``
    forces that many halvings of each cut interval before a panel may
    self-accept, which is the guard against narrow features aliasing past
    the five-point error estimate.  Panels at MAX_DEPTH are accepted as-is;
    if their error estimates inside one cut interval overrun that interval's
    share of ``tol``, ToleranceNotReached is raised.
    """
    cuts = np.unique(np.asarray(cuts, dtype=float))
    if cuts.size < 2:
        return 0.0
    n = cuts.size - 1
    vals = np.asarray(f(np.concatenate([cuts, 0.5 * (cuts[:-1] + cuts[1:])])),
                      dtype=float)
    if not np.isfinite(vals).all():
        raise ToleranceNotReached(f"non-finite integrand on [{cuts[0]}, {cuts[-1]}]")

    span = cuts[-1] - cuts[0]
    left = cuts[:-1]
    h = np.diff(cuts)
    share = np.maximum(tol * (h / span), 1e-15)
    origin = np.arange(n)  # the cut interval each panel descends from
    va = vals[:n]
    vb = vals[1:n + 1]
    vm = vals[n + 1:]
    coarse = h / 6.0 * (va + 4.0 * vm + vb)

    total = 0.0
    forced_err = np.zeros(n)
    panels_done = n

    for depth in range(MAX_DEPTH + 1):
        lm = left + 0.25 * h
        rm = left + 0.75 * h
        fvals = f(np.concatenate([lm, rm]))
        flm = np.asarray(fvals[: lm.size], dtype=float)
        frm = np.asarray(fvals[lm.size:], dtype=float)
        s_left = h / 12.0 * (va + 4.0 * flm + vm)
        s_right = h / 12.0 * (vm + 4.0 * frm + vb)
        delta = (s_left + s_right - coarse) / 15.0
        bad = ~(np.isfinite(s_left) & np.isfinite(s_right))
        if bad.any():
            raise ToleranceNotReached("non-finite integrand during refinement")

        budget = tol * (h / span)
        done = ((np.abs(delta) <= budget) & (depth >= min_depth)) | (depth == MAX_DEPTH)
        total += float(np.sum(s_left[done] + s_right[done] + delta[done]))
        at_cap = done & (np.abs(delta) > budget)
        np.add.at(forced_err, origin[at_cap], np.abs(delta[at_cap]))

        keep = ~done
        if not keep.any():
            break
        panels_done += 2 * int(np.count_nonzero(keep))
        if panels_done > MAX_PANELS:
            raise ToleranceNotReached(
                f"panel budget exhausted ({panels_done} > {MAX_PANELS})")
        half = 0.5 * h[keep]
        left = np.concatenate([left[keep], left[keep] + half])
        h = np.concatenate([half, half])
        origin = np.concatenate([origin[keep], origin[keep]])
        va = np.concatenate([va[keep], vm[keep]])
        vb = np.concatenate([vm[keep], vb[keep]])
        vm = np.concatenate([flm[keep], frm[keep]])
        coarse = np.concatenate([s_left[keep], s_right[keep]])

    over = forced_err > share
    if over.any():
        i = int(np.argmax(over))
        raise ToleranceNotReached(
            f"residual error estimate {forced_err[i]:.3e} above budget "
            f"{share[i]:.3e} on [{cuts[i]}, {cuts[i + 1]}]")
    return total


def bisect_sign_changes(f, lo: np.ndarray, hi: np.ndarray,
                        flo: np.ndarray) -> np.ndarray:
    """Vectorized bracket search; each (lo[i], hi[i]) must bracket a sign change.

    One call of ``f`` cuts every bracket into 2**BISECT_LEVELS equal pieces:
    it gets the (brackets, 2**BISECT_LEVELS - 1) array of the inner points,
    and each bracket keeps the first piece whose upper end has not the sign
    of ``flo``, so every call counts as BISECT_LEVELS halvings.  Brackets
    with no float strictly inside stay as they are; the search stops when no
    bracket has one, or after BISECT_STEPS halvings.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sign_lo = np.sign(flo)[:, None]
    rows = np.arange(lo.size)
    steps = 0
    while steps < BISECT_STEPS:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        levels = min(BISECT_LEVELS, BISECT_STEPS - steps)
        frac = np.arange(1, 2 ** levels) / 2 ** levels
        x = np.column_stack([lo, lo[:, None] + (hi - lo)[:, None] * frac, hi])
        same = np.sign(f(x[:, 1:-1])) == sign_lo
        # j inner points keep the sign of lo before the first that does not
        j = np.logical_and.accumulate(same, axis=1).sum(axis=1)
        lo = np.where(live, x[rows, j], lo)
        hi = np.where(live, x[rows, j + 1], hi)
        steps += levels
    return 0.5 * (lo + hi)


def golden_max(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized golden-section maximization over the brackets [lo, hi].

    Each step keeps the part of the bracket on the side of the better probe;
    that part's other probe is the old probe it keeps, so ``f`` is called on
    one new probe per bracket per step: 4 + GOLDEN_STEPS points per bracket.
    Returns the maximum of the endpoint and probe values seen; unimodality is
    not required for correctness of that lower envelope, only for sharpness.

    Nothing in nevkit calls it any more (circle maxima use ``zoom_max``); it
    stays because the benchmark's tracer binds it by name.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    best = np.maximum(f(lo), f(hi))
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(GOLDEN_STEPS):
        best = np.maximum(best, np.maximum(f1, f2))
        take_left = f1 >= f2
        # keeping [lo, x2] makes x1 its upper probe; keeping [x1, hi], x2 its lower
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
        x = np.where(take_left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        fx = f(x)
        x1, x2 = np.where(take_left, x, x2), np.where(take_left, x1, x)
        f1, f2 = np.where(take_left, fx, f2), np.where(take_left, f1, fx)
    return np.maximum(best, np.maximum(f1, f2))


def zoom_max(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized maximization over the brackets [lo, hi] by batched zooming.

    Round 1 evaluates ZOOM_POINTS equally spaced points on each bracket, ends
    included.  Each later round centres the grid on the best point of the
    round before and shrinks the half width by 8, to one step of that grid
    (so it may probe up to one step past an end).  ``f`` gets one
    (brackets, ZOOM_POINTS) array per round.  Returns the largest value seen,
    a lower envelope whatever the shape of ``f``; on a unimodal bracket the
    maximizer is within the last step, the half width / 8**ZOOM_ROUNDS, of
    the best point.  Unlike golden-section search it sees a second peak in
    round 1, before it commits to either.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.linspace(lo, hi, ZOOM_POINTS, axis=1)
    half = 0.5 * (hi - lo)
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    rows = np.arange(lo.size)
    best = np.full(lo.size, -np.inf)
    for _ in range(ZOOM_ROUNDS):
        v = f(x)
        k = np.argmax(v, axis=1)
        best = np.maximum(best, v[rows, k])
        half = half * (2.0 / (ZOOM_POINTS - 1))
        x = x[rows, k][:, None] + half[:, None] * offsets
    return best
