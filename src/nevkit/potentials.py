"""Atomic models of differences of subharmonic functions on disks.

A model is a finite signed sum of logarithmic kernels plus the real part of a
complex polynomial:

    U(z) = Re(sum_k c_k z^k) + sum_j mass_j * ln|z - a_j|.

Positive masses are the subharmonic part, negative masses the part that gets
subtracted; the polynomial contributes the harmonic background.  Circle
means, including those of the upper envelope of two models, are closed forms;
circle maxima come from a sampled and polished angular search.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (AtomOnCircle, CoincidentOppositeAtoms, ParseError,
                     SharedZeroPole, json_object)
from .quad import bisect_sign_changes, zoom_max

RADIUS_TOL = 1e-12  # relative distance at which same_radius counts two radii as one
CIRCLE_MAX_SAMPLES = 512  # angular grid of every circle maximum
CROSSING_SCAN = 4096  # angular grid of the sign-change scan of circle_mean_max
_MAX_ANGLES = np.linspace(0.0, 2.0 * np.pi, CIRCLE_MAX_SAMPLES, endpoint=False)
_SCAN_ANGLES = np.linspace(0.0, 2.0 * np.pi, CROSSING_SCAN, endpoint=False)
_MAX_ANGLES.flags.writeable = _SCAN_ANGLES.flags.writeable = False

_LI2_POWER = tuple(1.0 / n ** 2 for n in range(48, 0, -1))  # _li2's Horner order
_LI2_BERNOULLI = (  # -B_2j / (2j (2j+1)!), j = 1..22: _li2's odd terms in ln z
    -0.013888888888888888, 6.944444444444444e-05, -7.873519778281683e-07,
    1.1482216343327455e-08, -1.8978869988971e-10, 3.387301370953521e-12,
    -6.372636443183181e-14, 1.2462059912950672e-15, -2.5105444608999545e-17,
    5.178258806090623e-19, -1.0887357368300849e-20, 2.325744114302087e-22,
    -5.03519521314739e-24, 1.1026499294381215e-25, -2.4386585509007344e-27,
    5.440142678856253e-29, -1.2228340131217352e-30, 2.767263468967951e-32,
    -6.3000905918320136e-34, 1.4420868388418476e-35, -3.3170939991595428e-37,
    7.663913557920658e-39)


@dataclass(frozen=True)
class RieszAtom:
    """A point charge: ``mass * ln|z - location|``."""

    location: complex
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "location", complex(self.location))
        object.__setattr__(self, "mass", float(self.mass))
        if not (math.isfinite(self.location.real) and math.isfinite(self.location.imag)):
            raise ValueError("atom location must be finite")
        if not math.isfinite(self.mass) or self.mass == 0.0:
            raise ValueError("atom mass must be finite and nonzero")

    @property
    def radius(self) -> float:
        return abs(self.location)


@dataclass(frozen=True)
class HarmonicPart:
    """Re of a complex polynomial, coefficient k multiplying z**k."""

    coefficients: tuple = ()

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if any(not (math.isfinite(c.real) and math.isfinite(c.imag)) for c in coeffs):
            raise ValueError("harmonic coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc.real


@dataclass(frozen=True)
class DeltaSubharmonicModel:
    """Finite atomic charge plus harmonic polynomial background."""

    atoms: tuple = ()
    harmonic: HarmonicPart = field(default_factory=HarmonicPart)

    def __post_init__(self):
        atoms = tuple(a if isinstance(a, RieszAtom) else RieszAtom(*a)
                      for a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        pos = {a.location for a in atoms if a.mass > 0}
        neg = {a.location for a in atoms if a.mass < 0}
        shared = pos & neg
        if shared:
            raise CoincidentOppositeAtoms(
                f"atoms of both signs at {sorted(shared, key=abs)[0]}")

    @cached_property
    def _atom_arrays(self):
        """Locations, masses, radii, and candidate angles (each atom's angle
        and its antipode), read-only since every evaluation shares them."""
        locs = np.array([a.location for a in self.atoms], dtype=complex)
        masses = np.array([a.mass for a in self.atoms], dtype=float)
        radii = np.array([a.radius for a in self.atoms], dtype=float)
        ang = np.angle(locs)
        angles = np.concatenate([ang, ang + np.pi]) % (2.0 * np.pi)
        for arr in (locs, masses, radii, angles):
            arr.flags.writeable = False
        return locs, masses, radii, angles

    @property
    def atom_radii(self) -> np.ndarray:
        return self._atom_arrays[2]


EMPTY_MODEL = DeltaSubharmonicModel()


@dataclass(frozen=True)
class RadialWindow:
    """A pair of radii 0 <= inner < outer."""

    inner: float
    outer: float

    def __post_init__(self):
        object.__setattr__(self, "inner", float(self.inner))
        object.__setattr__(self, "outer", float(self.outer))
        if not (0.0 <= self.inner < self.outer < math.inf):
            raise ValueError(f"need 0 <= inner < outer, got ({self.inner}, {self.outer})")


# ---------------------------------------------------------------------------
# evaluation

def evaluate_many(model: DeltaSubharmonicModel, z) -> np.ndarray:
    """Pointwise values on an array of complex points; +-inf at atoms."""
    z = np.asarray(z, dtype=complex)
    coeffs = model.harmonic.coefficients
    if len(coeffs) > 1:
        out = model.harmonic(z)
    else:  # a constant background needs no complex Horner pass
        out = np.full(z.shape, coeffs[0].real if coeffs else 0.0)
    if model.atoms:
        locs, masses, _, _ = model._atom_arrays
        dist = np.abs(z[..., None] - locs)
        with np.errstate(divide="ignore"):
            out = out + np.log(dist) @ masses
    return out


def evaluate(model: DeltaSubharmonicModel, z) -> float:
    """Value at a single point, with the +-inf convention at atoms."""
    return float(evaluate_many(model, np.asarray(complex(z))))


def same_radius(radii, t):
    """Which radii lie on the circle of radius t (or of each radius,
    broadcast), to RADIUS_TOL relative: the package's one same-radius rule,
    for atoms on circles, jumps at points and matching domain ends."""
    return np.abs(radii - t) <= RADIUS_TOL * np.maximum(1.0, np.abs(t))


def circle_max(model: DeltaSubharmonicModel, t: float) -> float:
    """sup of the model over the circle |z| = t.

    Returns +inf exactly when a negative-mass atom lies on the circle.  A
    positive-mass atom on a circle of positive radius leaves the supremum
    finite; at t = 0 the circle degenerates to the point 0.
    """
    return float(circle_max_many(model, np.array([float(t)]))[0])


def circle_max_many(model: DeltaSubharmonicModel, ts) -> np.ndarray:
    """Vectorized circle suprema over an array of radii.

    Each circle is sampled once, on a ring: the sorted union of the
    CIRCLE_MAX_SAMPLES-angle grid and every atom angle and its antipode.
    Every local maximum of the ring (ties count) is polished with
    ``quad.zoom_max`` over its two adjacent cells, unless it cannot beat the
    ring maximum: the sup over those cells is at most the local maximum plus
    ``_angular_lipschitz`` times the wider cell, so a skipped one's true sup
    is at most the ring maximum up to the rounding of its value.  Work is
    chunked over radii to keep the radius x angle x atom broadcasts within a
    fixed memory budget.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape)
    pos = ts > 0.0
    if (~pos).any():
        out[~pos] = evaluate(model, 0.0)
    flat_idx = np.flatnonzero(pos)
    if flat_idx.size == 0:
        return out
    natoms = max(1, len(model.atoms))
    chunk = max(16, 4_000_000 // ((CIRCLE_MAX_SAMPLES + 2 * natoms) * natoms))
    tpos = ts.reshape(-1)[flat_idx]
    res = np.empty(flat_idx.size)
    for k in range(0, flat_idx.size, chunk):
        res[k:k + chunk] = _circle_max_chunk(model, tpos[k:k + chunk])
    out.reshape(-1)[flat_idx] = res
    return out


def _angular_lipschitz(model: DeltaSubharmonicModel, tp: np.ndarray) -> np.ndarray:
    """Bound on |dU/dtheta| over the circle of each radius t in ``tp``:
    sum_k k |c_k| t**k + sum_j |m_j| t rho_j / |(t - rho_j)(t + rho_j)|, each
    atom's term the exact max of its own; +inf where an atom is on the circle."""
    slope = np.zeros(tp.shape)
    for k, c in enumerate(model.harmonic.coefficients[1:], start=1):
        slope += k * abs(c) * tp ** (k - 1)
    if model.atoms:
        _, masses, radii, _ = model._atom_arrays
        t = tp[:, None]
        with np.errstate(divide="ignore"):
            slope += (np.abs(masses) * radii / np.abs((t - radii) * (t + radii))).sum(axis=1)
    return tp * slope


def _circle_max_chunk(model: DeltaSubharmonicModel, tp: np.ndarray) -> np.ndarray:
    ring = np.unique(np.concatenate([_MAX_ANGLES, model._atom_arrays[3]]))
    vals = evaluate_many(model, tp[:, None] * np.exp(1j * ring))
    vals = np.where(np.isnan(vals), -np.inf, vals)
    best = np.max(vals, axis=1)

    # polish each local maximum over its two adjacent cells where its value
    # + L * the wider cell may exceed best; a nan reach (-inf + inf, a
    # positive atom on the circle) stays live
    after = np.diff(ring, append=ring[0] + 2.0 * np.pi)  # cell i is [ring[i], ring[i+1]]
    before = np.roll(after, 1)
    peak = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    with np.errstate(invalid="ignore"):
        reach = vals + _angular_lipschitz(model, tp)[:, None] * np.maximum(before, after)
    row, col = np.nonzero(peak & ~(reach <= best[:, None]))
    if row.size:
        t_live = tp[row]

        def f(theta):
            v = evaluate_many(model, t_live[:, None] * np.exp(1j * theta))
            return np.where(np.isnan(v), -np.inf, v)

        c = ring[col]
        np.maximum.at(best, row, zoom_max(f, c - before[col], c + after[col]))

    _, masses, radii, _ = model._atom_arrays
    coll = same_radius(radii[masses < 0], tp[:, None]).any(axis=1)
    return np.where(coll, np.inf, best)


def circle_mean(model: DeltaSubharmonicModel, t: float) -> float:
    """Mean over the circle |z| = t, in closed form.

    Only the constant harmonic coefficient survives averaging; each atom
    contributes mass * ln(max(t, |a|)).  Raises AtomOnCircle when an atom
    sits on the circle within RADIUS_TOL (no principal-value handling).
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("circle_mean needs t > 0")
    c0 = model.harmonic.coefficients[0].real if model.harmonic.coefficients else 0.0
    if not model.atoms:
        return c0
    _, masses, radii, _ = model._atom_arrays
    if same_radius(radii, t).any():
        raise AtomOnCircle(t)
    return c0 + float(masses @ np.log(np.maximum(t, radii)))


def _li2(z) -> np.ndarray:
    """Li2 on an array of complex points with |z| <= 1: the power series
    sum z**n / n**2 to n = 48 below |z| = 1/2, else the series in w = ln z,
    pi**2/6 + w (1 - ln(-w)) - w**2/4 + sum_j -B_2j w**(2j+1) / (2j (2j+1)!),
    convergent for |w| < 2 pi; here |w| <= |ln 2 + i pi| < 3.22, where the
    terms past j = 22 add under 1e-16."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs, w = z[small], np.log(z[~small])
    w2 = w * w
    power = odd = 0.0
    for c in _LI2_POWER:
        power = (power + c) * zs
    for b in reversed(_LI2_BERNOULLI):
        odd = odd * w2 + b
    with np.errstate(divide="ignore", invalid="ignore"):
        head = np.where(w == 0.0, 0.0, w * (1.0 - np.log(-w)))  # w ln(-w) -> 0 at z = 1
    out[small] = power
    out[~small] = math.pi ** 2 / 6.0 + head - 0.25 * w2 + odd * w2 * w
    return out


def _arc_integral(model: DeltaSubharmonicModel, t: float, lo, hi) -> np.ndarray:
    """Integral of the model over theta in each arc [lo, hi] of |z| = t, atom by
    atom in a fixed order: c_k gives Re(c_k t**k (e^{ik hi} - e^{ik lo}) / (ik)),
    an atom of mass m at rho e^{i phi} gives m (ln max(t, rho) (hi - lo) - Delta
    Im Li2(q e^{i(theta - phi)})), q = min(t, rho) / max(t, rho), from
    ln|1 - q e^{i psi}| = -Re sum q**n e^{i n psi} / n term by term."""
    span = hi - lo
    coeffs = model.harmonic.coefficients
    out = (coeffs[0].real if coeffs else 0.0) * span
    for k, c in enumerate(coeffs[1:], start=1):
        out = out + (c * t ** k * (np.exp(1j * k * hi) - np.exp(1j * k * lo)) / (1j * k)).real
    if model.atoms:
        locs, masses, radii, _ = model._atom_arrays
        q = np.minimum(t, radii) / np.maximum(t, radii)
        li = _li2(np.exp(1j * np.stack([lo, hi]))[..., None]
                  * (q * np.exp(-1j * np.angle(locs)))).imag
        for mass, log, d in zip(masses, np.log(np.maximum(t, radii)), (li[1] - li[0]).T):
            out = out + mass * (log * span - d)
    return out


def circle_mean_max(model_a: DeltaSubharmonicModel, model_b: DeltaSubharmonicModel,
                    t: float, tol: float = 1e-8) -> float:
    """Mean of the pointwise max of two models over the circle |z| = t.

    Sign changes of g = U_a - U_b are sought on CROSSING_SCAN angles plus
    every atom angle and antipode, and located by bisection.  Each arc
    between two neighbouring crossings takes the model that dominates at the
    scan node after its first crossing, in closed form (``_arc_integral``);
    with no sign change, the dominant model's ``circle_mean``.  The error is
    rounding plus about |g'| delta**2 / (4 pi) per crossing located delta
    off, far below ``tol``, which selects no work.  Two crossings inside one
    scan cell go unseen.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("circle_mean_max needs t > 0")
    for m in (model_a, model_b):
        if same_radius(m.atom_radii, t).any():
            raise AtomOnCircle(t)

    def g(theta):  # one z per batch of angles
        z = t * np.exp(1j * theta)
        return evaluate_many(model_a, z) - evaluate_many(model_b, z)

    nodes = np.unique(np.concatenate([_SCAN_ANGLES, model_a._atom_arrays[3],
                                      model_b._atom_arrays[3]]))
    sign = np.where(g(nodes) >= 0.0, 1.0, -1.0)
    after = np.append(sign[1:], sign[0])  # the sign at the next node round the turn
    flip = sign != after
    if not flip.any():
        return circle_mean(model_a if sign[0] > 0 else model_b, t)
    wrap_nodes = np.append(nodes, nodes[0] + 2.0 * np.pi)
    starts = bisect_sign_changes(g, wrap_nodes[:-1][flip], wrap_nodes[1:][flip], sign[flip])
    stops = np.append(starts[1:], starts[0] + 2.0 * np.pi)
    up = after[flip] > 0
    return float(_arc_integral(model_a, t, starts[up], stops[up]).sum()
                 + _arc_integral(model_b, t, starts[~up], stops[~up]).sum()) / (2.0 * np.pi)


def circle_mean_plus(model: DeltaSubharmonicModel, t: float, tol: float = 1e-8) -> float:
    """Mean of the positive part over the circle |z| = t, in closed form on arcs.

    The negative-part mean follows by feeding the negated model.
    """
    return circle_mean_max(model, EMPTY_MODEL, t, tol=tol)


# ---------------------------------------------------------------------------
# structure

def negate(model: DeltaSubharmonicModel) -> DeltaSubharmonicModel:
    return DeltaSubharmonicModel(
        atoms=tuple(RieszAtom(a.location, -a.mass) for a in model.atoms),
        harmonic=HarmonicPart(tuple(-c for c in model.harmonic.coefficients)))


def canonical_split(model: DeltaSubharmonicModel):
    """Split U = u - v into subharmonic u and v.

    v collects the negative atoms with flipped sign; u keeps the positive
    atoms and the harmonic background, so u - v reproduces the model exactly.
    """
    u = DeltaSubharmonicModel(
        atoms=tuple(a for a in model.atoms if a.mass > 0),
        harmonic=model.harmonic)
    v = DeltaSubharmonicModel(
        atoms=tuple(RieszAtom(a.location, -a.mass) for a in model.atoms if a.mass < 0))
    return u, v


def from_rational(zeros=(), poles=(), scale: complex = 1.0) -> DeltaSubharmonicModel:
    """Model of ln|f| for the rational f = scale * prod(z-z_k)^m / prod(z-p_j)^n.

    zeros and poles are (location, multiplicity) pairs; multiplicities are
    positive integers.  Shared locations between the two lists are rejected.
    """
    scale = complex(scale)
    if scale == 0:
        raise ValueError("scale must be nonzero")
    atoms = []
    seen_zero = set()
    for loc, mult in zeros:
        if not (isinstance(mult, (int, np.integer)) and mult > 0):
            raise ValueError(f"zero multiplicity must be a positive integer, got {mult!r}")
        atoms.append(RieszAtom(complex(loc), float(mult)))
        seen_zero.add(complex(loc))
    for loc, mult in poles:
        if not (isinstance(mult, (int, np.integer)) and mult > 0):
            raise ValueError(f"pole multiplicity must be a positive integer, got {mult!r}")
        if complex(loc) in seen_zero:
            raise SharedZeroPole(f"zero and pole share location {complex(loc)}")
        atoms.append(RieszAtom(complex(loc), -float(mult)))
    return DeltaSubharmonicModel(
        atoms=tuple(atoms),
        harmonic=HarmonicPart((complex(math.log(abs(scale))),)))


# ---------------------------------------------------------------------------
# serialization

def model_to_json(model: DeltaSubharmonicModel, indent: int | None = None) -> str:
    doc = {
        "atoms": [{"re": a.location.real, "im": a.location.imag, "mass": a.mass}
                  for a in model.atoms],
        "harmonic": [[c.real, c.imag] for c in model.harmonic.coefficients],
    }
    return json.dumps(doc, indent=indent)


def model_from_json(text: str) -> DeltaSubharmonicModel:
    doc = json_object(text, "model document")
    try:
        atoms = tuple(RieszAtom(complex(a["re"], a["im"]), a["mass"])
                      for a in doc.get("atoms", ()))
        harmonic = HarmonicPart(tuple(complex(re, im)
                                      for re, im in doc.get("harmonic", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad model document: {exc}") from None
    return DeltaSubharmonicModel(atoms=atoms, harmonic=harmonic)
