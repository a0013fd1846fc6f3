"""Atomic models of differences of subharmonic functions on disks.

A model is a finite signed sum of logarithmic kernels plus the real part of a
complex polynomial:

    U(z) = Re(sum_k c_k z^k) + sum_j mass_j * ln|z - a_j|.

Positive masses are the subharmonic part, negative masses the part that gets
subtracted; the polynomial contributes the harmonic background.  Everything
downstream (circle means, counting functions, growth characteristics) reduces
to closed forms or one-dimensional quadrature over these models.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (AtomOnCircle, CoincidentOppositeAtoms, ParseError,
                     SharedZeroPole, json_object)
from .quad import adaptive_simpson, bisect_sign_changes, zoom_max

RADIUS_TOL = 1e-12  # relative distance at which an atom counts as on a circle
CIRCLE_MAX_SAMPLES = 2048  # angular grid of the single-radius circle_max
CROSSING_SCAN = 4096  # angular grid that locates sign changes in circle_mean_max


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


def _circle(model: DeltaSubharmonicModel, t: float):
    def f(theta):
        return evaluate_many(model, t * np.exp(1j * np.asarray(theta)))
    return f


def _on_circle(radii: np.ndarray, t) -> np.ndarray:
    """Which radii lie on the circle of radius t (or of each radius, broadcast)."""
    return np.abs(radii - t) <= RADIUS_TOL * np.maximum(1.0, np.abs(t))


def circle_max(model: DeltaSubharmonicModel, t: float) -> float:
    """sup of the model over the circle |z| = t.

    Returns +inf exactly when a negative-mass atom lies on the circle.  A
    positive-mass atom on a circle of positive radius leaves the supremum
    finite; at t = 0 the circle degenerates to the point 0.
    """
    return float(circle_max_many(model, np.array([float(t)]),
                                 samples=CIRCLE_MAX_SAMPLES)[0])


def circle_max_many(model: DeltaSubharmonicModel, ts, samples: int = 512) -> np.ndarray:
    """Vectorized circle suprema over an array of radii.

    Grid scan over angles (including every atom angle and its antipode as
    candidates) followed by a polish with ``quad.zoom_max`` of the brackets
    of half width one grid spacing around the grid argmax and each atom angle
    and antipode.  A bracket is polished only if it can beat the grid
    maximum: its sup is at most its centre value plus ``_angular_lipschitz``
    times the spacing, so a pruned bracket's true sup is at most the grid
    maximum up to the rounding of its centre value.  Work is chunked over
    radii to keep the radius x angle x atom broadcasts within a fixed memory
    budget.
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
    chunk = max(16, 4_000_000 // ((samples + 2 * natoms) * natoms))
    tpos = ts.reshape(-1)[flat_idx]
    res = np.empty(flat_idx.size)
    for k in range(0, flat_idx.size, chunk):
        res[k:k + chunk] = _circle_max_chunk(model, tpos[k:k + chunk], samples)
    out.reshape(-1)[flat_idx] = res
    return out


def _angular_lipschitz(model: DeltaSubharmonicModel, tp: np.ndarray) -> np.ndarray:
    """Bound on |dU/dtheta| over the circle of each radius t in ``tp``:
    t * (sum_k k |c_k| t**(k-1) + sum_j |m_j| / |t - |a_j||), since
    |z - a_j| >= |t - |a_j||; +inf where an atom lies on the circle."""
    slope = np.zeros(tp.shape)
    for k, c in enumerate(model.harmonic.coefficients[1:], start=1):
        slope += k * abs(c) * tp ** (k - 1)
    if model.atoms:
        _, masses, radii, _ = model._atom_arrays
        with np.errstate(divide="ignore"):
            slope += (np.abs(masses) / np.abs(tp[:, None] - radii)).sum(axis=1)
    return tp * slope


def _circle_max_chunk(model: DeltaSubharmonicModel, tp: np.ndarray,
                      samples: int) -> np.ndarray:
    base = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    angles = model._atom_arrays[3]
    cand = np.concatenate([base, angles])
    z = tp[:, None] * np.exp(1j * cand)[None, :]
    vals = evaluate_many(model, z)
    vals = np.where(np.isnan(vals), -np.inf, vals)
    best = np.max(vals, axis=1)

    # brackets around the grid argmax and around each atom angle, kept where
    # centre value + L * spacing may exceed best; a nan reach (-inf + inf,
    # a positive atom on the circle) stays live
    spacing = 2.0 * np.pi / samples
    ctr = np.column_stack([cand[np.argmax(vals, axis=1)],
                           np.broadcast_to(angles, (tp.size, angles.size))])
    at_ctr = np.column_stack([best, vals[:, samples:]])
    with np.errstate(invalid="ignore"):
        reach = at_ctr + _angular_lipschitz(model, tp)[:, None] * spacing
    row, col = np.nonzero(~(reach <= best[:, None]))
    if row.size:
        t_live = tp[row]

        def f(theta):
            v = evaluate_many(model, t_live[:, None] * np.exp(1j * theta))
            return np.where(np.isnan(v), -np.inf, v)

        c = ctr[row, col]
        np.maximum.at(best, row, zoom_max(f, c - spacing, c + spacing))

    _, masses, radii, _ = model._atom_arrays
    coll = _on_circle(radii[masses < 0], tp[:, None]).any(axis=1)
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
    if _on_circle(radii, t).any():
        raise AtomOnCircle(t)
    return c0 + float(masses @ np.log(np.maximum(t, radii)))


def circle_mean_max(model_a: DeltaSubharmonicModel, model_b: DeltaSubharmonicModel,
                    t: float, tol: float = 1e-8) -> float:
    """Mean of the pointwise max of two models over the circle |z| = t.

    Sign changes of the difference are located by sampling plus bisection;
    the upper envelope is then integrated adaptively in one call, over the
    turn that starts at the first sign change, cut at every sign change and
    atom angle.  Absolute error <= tol, else ToleranceNotReached.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("circle_mean_max needs t > 0")
    for m in (model_a, model_b):
        if m.atoms:
            if _on_circle(m.atom_radii, t).any():
                raise AtomOnCircle(t)

    fa = _circle(model_a, t)
    fb = _circle(model_b, t)

    # the crossing scan runs on a denser grid than the quadrature would need:
    # a sign change missed inside one cell puts a kink into a panel, where the
    # Richardson acceptance test underestimates the true panel error
    features = np.unique(np.concatenate([model_a._atom_arrays[3], model_b._atom_arrays[3]]))
    base = np.linspace(0.0, 2.0 * np.pi, CROSSING_SCAN, endpoint=False)
    nodes = np.unique(np.concatenate([base, features]))
    diff = fa(nodes) - fb(nodes)

    def g(theta):
        return fa(theta) - fb(theta)

    sign = np.where(diff >= 0.0, 1.0, -1.0)
    wrap_nodes = np.append(nodes, nodes[0] + 2.0 * np.pi)
    wrap_sign = np.append(sign, sign[0])
    flip = wrap_sign[:-1] * wrap_sign[1:] < 0
    crossings = bisect_sign_changes(g, wrap_nodes[:-1][flip], wrap_nodes[1:][flip],
                                    sign[flip])

    # the atom angles are cuts too: the integrand's narrow features sit
    # exactly there, and a feature centered on a panel boundary cannot alias
    # past the Simpson error estimate
    c0 = float(crossings.min()) if crossings.size else 0.0
    cuts = np.concatenate([[c0, c0 + 2.0 * np.pi], crossings,
                           np.where(features < c0, features + 2.0 * np.pi, features)])

    def envelope(theta):
        return np.maximum(fa(theta), fb(theta))

    # pi * tol on the integral over 2*pi leaves the mean half of tol
    return adaptive_simpson(envelope, cuts, np.pi * tol, min_depth=2) / (2.0 * np.pi)


def circle_mean_plus(model: DeltaSubharmonicModel, t: float, tol: float = 1e-8) -> float:
    """Mean of the positive part over the circle |z| = t, by quadrature.

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
