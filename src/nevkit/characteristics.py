"""Counting functions and growth characteristics of atomic models."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeMassInView, PoleOnCircle
from .potentials import (RADIUS_TOL, DeltaSubharmonicModel, RadialWindow,
                         canonical_split, circle_mean, circle_mean_max,
                         circle_mean_plus, from_rational)


@dataclass(frozen=True)
class ChargeView:
    """Radial profile of one sign of the charge: (radius, mass) pairs."""

    entries: tuple = ()

    def __post_init__(self):
        entries = tuple(sorted((float(r), float(m)) for r, m in self.entries))
        for r, _ in entries:
            if not (r >= 0.0 and math.isfinite(r)):
                raise ValueError(f"bad radius {r}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def positive_part(cls, model: DeltaSubharmonicModel) -> "ChargeView":
        return cls(tuple((a.radius, a.mass) for a in model.atoms if a.mass > 0))

    @classmethod
    def negative_part(cls, model: DeltaSubharmonicModel) -> "ChargeView":
        return cls(tuple((a.radius, -a.mass) for a in model.atoms if a.mass < 0))

    def _arrays(self):
        if not self.entries:
            return np.empty(0), np.empty(0)
        arr = np.asarray(self.entries)
        return arr[:, 0], arr[:, 1]


def radial_counting(view: ChargeView, t: float) -> float:
    """Total mass in the closed disk of radius t; right-continuous in t."""
    radii, masses = view._arrays()
    if not radii.size:
        return 0.0
    return float(masses[radii <= t].sum())


def integrated_counting(view: ChargeView, window: RadialWindow) -> float:
    """Log-averaged counting of the view over the window.

    Sum of mass * ln(R / max(r, radius)) over radii <= R.  With inner radius
    0 the value is +inf exactly when the view carries mass at the origin.
    """
    radii, masses = view._arrays()
    if np.any(masses < 0):
        raise NegativeMassInView("counting view must carry nonnegative mass")
    r, R = window.inner, window.outer
    if not radii.size:
        return 0.0
    inside = radii <= R
    if not inside.any():
        return 0.0
    radii, masses = radii[inside], masses[inside]
    if r == 0.0 and np.any(radii == 0.0):
        return math.inf
    with np.errstate(divide="ignore"):
        terms = masses * (math.log(R) - np.log(np.maximum(radii, r)))
    return float(terms.sum())


def jensen_residual(model: DeltaSubharmonicModel, window: RadialWindow) -> float:
    """Circle-mean increment minus integrated counting, for atom mass >= 0.

    Zero in exact arithmetic; what is returned is the closed-form rounding
    residual, a direct probe of the mean/counting bookkeeping.
    """
    if any(a.mass < 0 for a in model.atoms):
        raise NegativeMassInView("residual is defined for nonnegative atom mass")
    mean_gap = circle_mean(model, window.outer) - circle_mean(model, window.inner)
    return mean_gap - integrated_counting(ChargeView.positive_part(model), window)


def diff_nevanlinna(model: DeltaSubharmonicModel, window: RadialWindow,
                    tol: float = 1e-6, route: str = "charge") -> float:
    """Two-radius characteristic of the model over the window.

    route="charge" takes the positive-part circle means plus the integrated
    counting of the negative charge; route="canonical" integrates the upper
    envelope of the canonical pair at both radii and subtracts.  The two
    agree up to quadrature error.
    """
    r, R = window.inner, window.outer
    if r <= 0.0:
        raise ValueError("two-radius characteristic needs inner radius > 0")
    if route == "charge":
        n_neg = integrated_counting(ChargeView.negative_part(model), window)
        return circle_mean_plus(model, R, tol=0.5 * tol) \
            - circle_mean_plus(model, r, tol=0.5 * tol) + n_neg
    if route == "canonical":
        u, v = canonical_split(model)
        return circle_mean_max(u, v, R, tol=0.5 * tol) \
            - circle_mean_max(u, v, r, tol=0.5 * tol)
    raise ValueError(f"unknown route {route!r}")


def diff_nevanlinna_total(model: DeltaSubharmonicModel, window: RadialWindow,
                          tol: float = 1e-6) -> float:
    """Anchored variant: full outer circle mean plus the windowed counting.

    Defined for inner radius 0 as well; +inf there exactly when the negative
    charge sits at the origin.
    """
    n_neg = integrated_counting(ChargeView.negative_part(model), window)
    return circle_mean_plus(model, window.outer, tol=tol) + n_neg


@dataclass(frozen=True)
class ClassicalCharacteristic:
    """Proximity/counting split of ln|f| for a rational f at one radius."""

    radius: float
    proximity: float
    counting: float

    @property
    def total(self) -> float:
        return self.proximity + self.counting


def classical_characteristic(zeros=(), poles=(), scale: float = 1.0,
                             r: float = 1.0, tol: float = 1e-6) -> ClassicalCharacteristic:
    """Characteristic of the rational function with the given divisor at r."""
    if not r > 0:
        raise ValueError("radius must be positive")
    for loc, _ in poles:
        if abs(abs(complex(loc)) - r) <= RADIUS_TOL * max(1.0, r):
            raise PoleOnCircle(f"pole at {loc} sits on the circle of radius {r}")
    model = from_rational(zeros=zeros, poles=poles, scale=scale)
    proximity = circle_mean_plus(model, r, tol=tol)
    counting = 0.0
    for loc, mult in poles:
        rho = abs(complex(loc))
        if rho == 0.0:
            counting += mult * math.log(r)
        elif rho <= r:
            counting += mult * math.log(r / rho)
    return ClassicalCharacteristic(radius=r, proximity=proximity, counting=counting)

