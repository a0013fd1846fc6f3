"""Increasing integrators on [0, end] and their continuity diagnostics.

An integrator m is a sum of three components: absolutely continuous pieces
with constant nonnegative slope, a middle-thirds staircase, and upward jumps
strictly inside the domain.  m extends to the whole line by constants, so
m(x) = m(0) for x <= 0 and m(x) = m(end) for x >= end.

The staircase component is represented by its depth-d piecewise-linear stage
(ternary subdivision stopped at level d, linear on the surviving intervals).
The stage deviates from the ideal staircase by at most height * 2**-depth
uniformly, and it makes the whole integrator piecewise linear plus jumps, so
the modulus of continuity and the Stieltjes/log-kernel integrals below have
exact or certified evaluation paths.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, ToleranceNotReached, json_object
from .potentials import same_radius
from .quad import MAX_PANELS, adaptive_simpson

_SINGULARITY_DODGE = 1e-11  # relative step that moves a query off a log singularity
# floats per temporary of omega_many (128 KiB): at this size the allocator
# reuses a chunk's memory for the next, where 32,768 and more made numpy fault
# in fresh pages chunk after chunk
_OMEGA_CHUNK = 16_384
_TAIL_FLOOR = 4  # forced halvings of each cut interval of the Dini tail
# most kinks whose differences cut the Dini tail: k*(k-1)/2 cut intervals of
# 2**(_TAIL_FLOOR + 1) - 1 floor panels each fill at most half of MAX_PANELS
_TAIL_KINKS = math.isqrt(MAX_PANELS // (2 ** (_TAIL_FLOOR + 1) - 1))


@dataclass(frozen=True)
class Piece:
    """Absolutely continuous run: constant slope >= 0 on [start, stop]."""

    start: float
    stop: float
    slope: float

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "slope", float(self.slope))
        if not (0.0 <= self.start < self.stop < math.inf):
            raise ValueError(f"bad piece bounds ({self.start}, {self.stop})")
        if not (0.0 <= self.slope < math.inf):
            raise ValueError(f"piece slope must be finite and >= 0, got {self.slope}")

    @property
    def mass(self) -> float:
        return self.slope * (self.stop - self.start)


@dataclass(frozen=True)
class CantorPart:
    """Middle-thirds staircase of total rise ``height`` on [start, stop]."""

    start: float
    stop: float
    height: float
    depth: int = 12

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "height", float(self.height))
        object.__setattr__(self, "depth", int(self.depth))
        if not (0.0 <= self.start < self.stop < math.inf):
            raise ValueError(f"bad staircase bounds ({self.start}, {self.stop})")
        if not (0.0 <= self.height < math.inf):
            raise ValueError("staircase height must be finite and >= 0")
        if not (1 <= self.depth <= 16):
            raise ValueError("staircase depth must be in [1, 16]")


@dataclass(frozen=True)
class Jump:
    """Upward jump of size ``height`` at ``location``."""

    location: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "location", float(self.location))
        object.__setattr__(self, "height", float(self.height))
        if not (self.height > 0.0 and math.isfinite(self.height)):
            raise ValueError("jump height must be finite and > 0")


@dataclass(frozen=True)
class Integrator:
    """Increasing function on [0, end], normalized to m(0) = 0."""

    end: float
    pieces: tuple = ()
    cantor: CantorPart | None = None
    jumps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "end", float(self.end))
        if not (0.0 < self.end < math.inf):
            raise ValueError("domain end must be finite and > 0")
        pieces = tuple(p if isinstance(p, Piece) else Piece(*p) for p in self.pieces)
        pieces = tuple(sorted(pieces, key=lambda p: p.start))
        for p in pieces:
            if p.stop > self.end:
                raise ValueError(f"piece ({p.start}, {p.stop}) leaves [0, {self.end}]")
        for a, b in zip(pieces, pieces[1:]):
            if b.start < a.stop:
                raise ValueError(f"pieces overlap near {b.start}")
        object.__setattr__(self, "pieces", pieces)
        if self.cantor is not None and self.cantor.stop > self.end:
            raise ValueError("staircase leaves the domain")
        jumps = tuple(j if isinstance(j, Jump) else Jump(*j) for j in self.jumps)
        jumps = tuple(sorted(jumps, key=lambda j: j.location))
        for j in jumps:
            if not (0.0 < j.location < self.end):
                raise ValueError(f"jump at {j.location} not strictly inside (0, {self.end})")
        object.__setattr__(self, "jumps", jumps)

    # -- cached structure ---------------------------------------------------

    @cached_property
    def _stage_blocks(self):
        """Left endpoints, width, and density of the staircase stage segments."""
        c = self.cantor
        if c is None or c.height == 0.0:
            return np.empty(0), 0.0, 0.0
        n = 1 << c.depth
        idx = np.arange(n, dtype=np.int64)
        frac = np.zeros(n)
        for i in range(c.depth):
            frac += ((idx >> (c.depth - 1 - i)) & 1) * (2.0 / 3.0 ** (i + 1))
        span = c.stop - c.start
        lefts = c.start + span * frac
        width = span * 3.0 ** (-c.depth)
        density = (c.height * 2.0 ** (-c.depth)) / width
        return lefts, width, density

    @cached_property
    def _mesh(self):
        """Kinks xs, cumulative continuous mass F(xs), per-cell density."""
        pts = [np.array([0.0, self.end])]
        for p in self.pieces:
            pts.append(np.array([p.start, p.stop]))
        lefts, width, density = self._stage_blocks
        if lefts.size:
            pts.append(lefts)
            pts.append(lefts + width)
        xs = np.unique(np.concatenate(pts))
        mids = 0.5 * (xs[:-1] + xs[1:])
        rho = np.zeros(mids.size)
        for p in self.pieces:
            rho += np.where((mids > p.start) & (mids < p.stop), p.slope, 0.0)
        if lefts.size:
            j = np.searchsorted(lefts, mids, side="right") - 1
            inside = (j >= 0) & (mids <= lefts[np.clip(j, 0, lefts.size - 1)] + width)
            rho += np.where(inside, density, 0.0)
        F = np.concatenate([[0.0], np.cumsum(rho * np.diff(xs))])
        return xs, F, rho

    @cached_property
    def _jump_arrays(self):
        locs = np.array([j.location for j in self.jumps])
        heights = np.array([j.height for j in self.jumps])
        cum = np.concatenate([[0.0], np.cumsum(heights)])
        return locs, heights, cum

    @property
    def total_variation(self) -> float:
        """The continuous mass F(end) plus the jump heights."""
        return float(self._mesh[1][-1]) + float(sum(j.height for j in self.jumps))


def lebesgue(end: float, slope: float = 1.0) -> Integrator:
    """m(x) = slope * x on [0, end]."""
    return Integrator(end=end, pieces=(Piece(0.0, end, slope),))


# ---------------------------------------------------------------------------
# evaluation

def eval_m_many(m: Integrator, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    xs, F, _ = m._mesh
    out = np.interp(x, xs, F)
    locs, _, cum = m._jump_arrays
    if locs.size:
        out = out + cum[np.searchsorted(locs, x, side="right")]
    return out


def eval_m(m: Integrator, x: float) -> float:
    """m(x), right-continuous, constant outside [0, end]."""
    return float(eval_m_many(m, np.asarray(float(x))))


def nonconstancy_support(m: Integrator):
    """Closure of where m actually grows, as merged (lo, hi) intervals.

    Jump locations appear as degenerate (x, x) intervals when isolated.
    """
    raw = [(p.start, p.stop) for p in m.pieces if p.slope > 0]
    if m.cantor is not None and m.cantor.height > 0:
        raw.append((m.cantor.start, m.cantor.stop))
    raw.extend((j.location, j.location) for j in m.jumps)
    raw.sort()
    merged: list[list[float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


# ---------------------------------------------------------------------------
# modulus of continuity

def omega_many(m: Integrator, ts) -> np.ndarray:
    """Exact modulus of continuity at each window width in ``ts``.

    omega(t) = sup_a mass((a, a+t]).  Between jumps g(a) = m(a+t) - m(a) is
    piecewise linear with slope rho(a+t) - rho(a), so a window can peak only
    where that slope turns from >= 0 to <= 0: it starts at a kink where the
    density does not drop, or ends at a kink where it does not rise (if both
    ends are kinks and the start drops, the end drops too).  Otherwise it
    starts or ends at a jump, or starts just before one.  m at the fixed end
    comes from the mesh, never through (x - t) + t, so a window that ends on
    a jump keeps it.
    """
    ts = np.asarray(ts, dtype=float)
    flat = np.atleast_1d(ts)
    xs, F, rho = m._mesh
    locs, _, cum = m._jump_arrays

    def m_before(x):
        return np.interp(x, xs, F) + cum[np.searchsorted(locs, x, side="left")]

    after, before = np.append(rho, 0.0), np.insert(rho, 0, 0.0)
    starts = np.concatenate([xs[after >= before], locs])
    ends = np.concatenate([xs[after <= before], locs])
    m_starts, m_ends = eval_m_many(m, starts), eval_m_many(m, ends)
    m_left = m_before(locs)
    out = np.empty(flat.size)
    chunk = max(1, _OMEGA_CHUNK // max(starts.size, ends.size))
    for k in range(0, flat.size, chunk):
        t = flat[k:k + chunk, None]
        out[k:k + chunk] = np.maximum.reduce([
            (eval_m_many(m, starts + t) - m_starts).max(axis=1, initial=0.0),
            (m_ends - eval_m_many(m, ends - t)).max(axis=1, initial=0.0),
            (m_before(locs + t) - m_left).max(axis=1, initial=0.0)])
    return out.reshape(ts.shape) if ts.shape else out[0]


def omega(m: Integrator, t: float) -> float:
    return float(omega_many(m, np.asarray(float(t))))


def _stabilization(m: Integrator) -> float:
    """Infimum of the window widths at which omega reaches the total variation.

    A window (a, a+t] holds all the mass only when it covers the hull
    [lo, hi] of the support, and every neighbourhood of lo and of hi carries
    mass, so the infimum is hi - lo, with or without jumps (0 for constant m).
    Without jumps omega(hi - lo) is the total variation; a jump at lo is
    covered only by windows wider than hi - lo.
    """
    support = nonconstancy_support(m)
    return support[-1][1] - support[0][0] if support else 0.0


# ---------------------------------------------------------------------------
# Dini integral and the stabilized log-kernel pair

def _max_density_run(m: Integrator):
    """(rho_max, widest cell width attaining it) over the continuous part."""
    xs, _, rho = m._mesh
    if rho.size == 0 or rho.max() <= 0.0:
        return 0.0, 0.0
    rho_max = float(rho.max())
    at_max = rho >= rho_max * (1.0 - 1e-12)
    widths = np.diff(xs)
    return rho_max, float(widths[at_max].max())


def _omega_over_t_integral(m: Integrator, upper: float, tol_abs: float) -> float:
    """integral of omega(t)/t over (0, upper] for a jump-free m.

    Near zero omega(t) = rho_max * t exactly as long as t fits inside the
    widest maximal-density cell, which closes the integral there.  The rest
    is adaptive in ln t, floor _TAIL_FLOOR, first cut where omega can kink:
    for pieces alone at the differences of the mesh kinks (of _TAIL_KINKS
    evenly spread ones on a larger mesh); with a staircase, a measured
    heuristic, at its ternary scales span*3**-k and 2*span*3**-k.  Worst
    error seen against the uncut tail at tol_abs/100: 0.57 tol_abs.
    """
    rho_max, w_max = _max_density_run(m)
    if rho_max == 0.0 or upper <= 0.0:
        return 0.0
    t0 = min(w_max, upper)
    total = rho_max * t0
    if t0 < upper:
        def f(ys):
            return omega_many(m, np.exp(np.asarray(ys)))
        c, xs = m.cantor, m._mesh[0]
        if c is not None and c.height > 0.0:
            ts = (c.stop - c.start) * 3.0 ** -np.arange(c.depth + 1.0) * [[1.0], [2.0]]
        else:
            xs = xs[np.linspace(0, xs.size - 1, min(xs.size, _TAIL_KINKS)).astype(int)]
            ts = np.abs(xs[:, None] - xs)
        ts = ts[(ts > t0) & (ts < upper)]
        total += adaptive_simpson(f, np.log([t0, upper, *ts]), tol_abs, min_depth=_TAIL_FLOOR)
    return total


def _log_pair_detailed(m: Integrator, R: float, tol: float):
    """(dini, d): the log-kernel term ∫_(0,d] ln(4R/t) dω and the
    stabilization diameter d (nan, not computed, when m jumps).

    By parts the term is ω(d) ln(4R/d) + ∫_0^d ω(t)/t dt, and ω(d) = M, the
    total variation, since a window of width d covers the support hull
    (``_stabilization``); as ω = M past d, it is the Dini integral over
    (0, 4R].  A jump makes the tail, and so the term, +inf.
    """
    if m.jumps:
        return math.inf, math.nan
    d = _stabilization(m)
    if d == 0.0:
        return 0.0, 0.0
    cap = 4.0 * R
    if d > cap:
        raise ValueError("outer radius too small: stabilization exceeds 4R")
    M = m.total_variation
    log_term = math.log(cap / d)
    scale = max(1.0, M * (1.0 + abs(log_term)))
    tail = _omega_over_t_integral(m, d, tol * scale * 0.25)
    return M * log_term + tail, d


def omega_log_kernel_pair(m: Integrator, R: float, tol: float = 1e-6):
    """(lhs, rhs): ∫_(0,d] ln(4R/t) dω and the Dini tail plus M ln(4R/d), d
    the stabilization diameter.  By parts they are one number, computed once
    and returned twice (``_log_pair_detailed``).  (+inf, +inf) for a jump
    integrator, (0, 0) for a constant one.
    """
    dini = _log_pair_detailed(m, R, tol)[0]
    return dini, dini


def dini_integral(m: Integrator, R: float, tol: float = 1e-6) -> float:
    """integral of omega(t)/t over (0, 4R], the log-kernel term of
    ``_log_pair_detailed``.  +inf iff m has a jump component, 0 for a
    constant m; ValueError when d exceeds 4R.
    """
    return _log_pair_detailed(m, R, tol)[0]


# ---------------------------------------------------------------------------
# Stieltjes integration

@dataclass(frozen=True)
class LogSingularity:
    """Local behavior f(t) ~ coefficient * ln(scale/|t - location|)."""

    location: float
    coefficient: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "location", float(self.location))
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "scale", float(self.scale))
        if self.coefficient == 0.0 or not math.isfinite(self.coefficient):
            raise ValueError("singularity coefficient must be finite and nonzero")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("singularity scale must be finite and > 0")


def _on_jump(m: Integrator, x: float) -> bool:
    """Whether m jumps at x, by ``same_radius``."""
    return bool(same_radius(m._jump_arrays[0], x).any())


def _log_kernel_exact(m: Integrator, x: float, scale: float) -> float:
    """integral of ln(scale/|t - x|) dm(t), closed form on the mesh.

    +inf (or -inf) only through a jump exactly at x; the continuous part is
    always finite since ln is integrable.
    """
    xs, _, rho = m._mesh
    total = 0.0
    if rho.size:
        y1 = xs[:-1] - x
        y2 = xs[1:] - x
        with np.errstate(divide="ignore", invalid="ignore"):
            phi1 = np.where(y1 == 0.0, 0.0, y1 * (math.log(scale) - np.log(np.abs(y1)) + 1.0))
            phi2 = np.where(y2 == 0.0, 0.0, y2 * (math.log(scale) - np.log(np.abs(y2)) + 1.0))
        total += float(np.sum(rho * (phi2 - phi1)))
    locs, heights, _ = m._jump_arrays
    if locs.size:
        gap = np.abs(locs - x)
        if np.any(gap == 0.0):
            return math.inf
        total += float(heights @ (math.log(scale) - np.log(gap)))
    return total


def _desingularized(f, singularities):
    """Wrap f so queries dodge the singular points and the log part cancels."""
    sing = tuple(singularities)

    def ft(ts):
        ts = np.array(ts, dtype=float, copy=True)
        for s in sing:
            eps = _SINGULARITY_DODGE * max(1.0, abs(s.location))
            near = np.abs(ts - s.location) < eps
            if near.any():
                ts[near] = s.location + eps
        vals = np.asarray(f(ts), dtype=float)
        for s in sing:
            vals = vals - s.coefficient * (math.log(s.scale) - np.log(np.abs(ts - s.location)))
        return vals

    return ft


def _stage_integral(ft, cantor: CantorPart, tol_mass: float) -> float:
    """integral of ft against the staircase stage measure, by mass refinement.

    Nodes follow the ternary tree; a node is accepted when splitting it moves
    the midpoint-rule estimate by less than its share of the budget, and
    depth-level leaves are finished with Simpson on their uniform segments.
    """
    h = cantor.height
    if h <= 0.0:
        return 0.0
    total = 0.0
    lefts = np.array([cantor.start])
    width = cantor.stop - cantor.start
    mass = h
    parent = mass * ft(lefts + 0.5 * width)
    for _ in range(cantor.depth):
        kids = np.concatenate([lefts, lefts + 2.0 * width / 3.0])
        wc = width / 3.0
        mc = 0.5 * mass
        fc = mc * ft(kids + 0.5 * wc)
        n = lefts.size
        pair = fc[:n] + fc[n:]
        accept = np.abs(pair - parent) <= 0.5 * tol_mass * (mass / h)
        total += float(np.sum(pair[accept]))
        keep = ~accept
        if not keep.any():
            return total
        lefts = np.concatenate([lefts[keep], lefts[keep] + 2.0 * width / 3.0])
        parent = np.concatenate([fc[:n][keep], fc[n:][keep]])
        width = wc
        mass = mc
    a = lefts
    c = lefts + 0.5 * width
    b = lefts + width
    vals = ft(np.concatenate([a, c, b]))
    n = lefts.size
    total += float(np.sum(mass * (vals[:n] + 4.0 * vals[n:2 * n] + vals[2 * n:]) / 6.0))
    return total


def stieltjes_integral(f, m: Integrator, tol: float = 1e-8,
                       singularities=()) -> float:
    """integral of f dm over [0, end] for a vectorized sampler f.

    Known logarithmic blow-ups of f are passed as LogSingularity descriptors;
    their kernel part is integrated in closed form against the mesh and only
    the bounded remainder is quadratured.  When a positive-coefficient
    singularity lands on a jump of m the integral is +inf and is returned as
    such.  tol is an absolute budget for the quadrature parts.
    """
    sing = tuple(singularities)
    locs, heights, _ = m._jump_arrays
    for s in sing:
        if _on_jump(m, s.location):
            return math.inf if s.coefficient > 0 else -math.inf

    total = 0.0
    for s in sing:
        total += s.coefficient * _log_kernel_exact(m, s.location, s.scale)
    ft = _desingularized(f, sing) if sing else (lambda ts: np.asarray(f(ts), dtype=float))
    if locs.size:
        total += float(heights @ ft(locs))

    cont_mass = sum(p.mass for p in m.pieces)
    if m.cantor is not None:
        cont_mass += m.cantor.height
    if cont_mass > 0.0:
        cuts = tuple(s.location for s in sing)
        for p in m.pieces:
            if p.mass == 0.0:
                continue
            # cut at the interior cusps of the desingularized integrand
            inner = [c for c in cuts if p.start < c < p.stop]
            tol_mass = 0.9 * tol * p.mass / cont_mass
            total += p.slope * adaptive_simpson(ft, [p.start, p.stop, *inner],
                                                tol_mass / p.slope)
        if m.cantor is not None and m.cantor.height > 0.0:
            total += _stage_integral(ft, m.cantor,
                                     0.9 * tol * m.cantor.height / cont_mass)
    return total


# ---------------------------------------------------------------------------
# the two-route log-kernel integral

def log_kernel_integral(m: Integrator, x: float, r: float, R: float,
                        tol: float = 1e-6) -> float:
    """integral of ln(2R/|t - x|) dm(t) over [0, r], by two routes.

    The direct Stieltjes route is a closed form on the mesh; the returned
    value comes from the substitution route

        integral over (0, 4R] of g(t) / t dt,  g(t) = m(x + t/2) - m(x - t/2),

    also in closed form: g is linear between the widths at which x +- t/2
    meets a kink or a jump, so each cell (a, b) contributes
    alpha ln(b/a) + beta (b - a).  The two routes must agree within 4*tol
    when both are finite.  +inf exactly when m jumps at x.
    """
    if not (0.0 < r < R):
        raise ValueError("need 0 < r < R")
    if not same_radius(m.end, r):
        raise ValueError(f"integrator domain end {m.end} does not match r={r}")
    if not (0.0 <= x <= R):
        raise ValueError("x must lie in [0, R]")
    if _on_jump(m, x):
        return math.inf

    direct = _log_kernel_exact(m, x, 2.0 * R)

    xs, _, rho = m._mesh
    locs, _, _ = m._jump_arrays
    ts = np.unique(np.concatenate([[0.0, 4.0 * R], 2.0 * np.abs(xs - x),
                                   2.0 * np.abs(locs - x)]))
    half = 0.25 * (ts[:-1] + ts[1:])
    density = np.append(rho, 0.0)  # index -1 (left of 0) and rho.size read 0

    def rho_at(y):
        return density[np.searchsorted(xs, y, side="right") - 1]

    beta = 0.5 * (rho_at(x + half) + rho_at(x - half))
    alpha = eval_m_many(m, x + half) - eval_m_many(m, x - half) - 2.0 * beta * half
    # g(0+) = 0 off the jumps, so the cell that starts at 0 has no log part
    sub = float(beta @ np.diff(ts) + alpha[1:] @ np.diff(np.log(ts[1:])))

    scale = max(1.0, abs(direct))
    if abs(sub - direct) > 4.0 * tol * scale:
        raise ToleranceNotReached(
            f"route disagreement {abs(sub - direct):.3e} at x={x}")
    return sub


# ---------------------------------------------------------------------------
# serialization

def integrator_to_json(m: Integrator, indent: int | None = None) -> str:
    doc = {
        "end": m.end,
        "pieces": [{"from": p.start, "to": p.stop, "slope": p.slope} for p in m.pieces],
        "cantor": None if m.cantor is None else {
            "a": m.cantor.start, "b": m.cantor.stop,
            "h": m.cantor.height, "depth": m.cantor.depth},
        "jumps": [{"x": j.location, "h": j.height} for j in m.jumps],
    }
    return json.dumps(doc, indent=indent)


def integrator_from_json(text: str) -> Integrator:
    doc = json_object(text, "integrator document")
    try:
        pieces = tuple(Piece(p["from"], p["to"], p["slope"])
                       for p in doc.get("pieces", ()))
        cdoc = doc.get("cantor")
        cantor = None if cdoc is None else CantorPart(
            cdoc["a"], cdoc["b"], cdoc["h"], cdoc.get("depth", 12))
        jumps = tuple(Jump(j["x"], j["h"]) for j in doc.get("jumps", ()))
        return Integrator(end=doc["end"], pieces=pieces, cantor=cantor, jumps=jumps)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad integrator document: {exc}") from None
