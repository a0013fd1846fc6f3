"""Certified checks of the radial growth bound and its edge cases.

The central object is a VerificationCase: a model, an increasing integrator
on [0, r], and a window (r, R).  growth_bound_verify integrates the clipped
circle maximum against the integrator (left side) and assembles the product
bound (right side) from the anchored two-radius characteristic and the
stabilized log-kernel term, reporting every intermediate as a component.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .characteristics import ChargeView, classical_characteristic, integrated_counting
from .errors import NegativeMassInView
from .integrators import (CantorPart, Integrator, Jump, LogSingularity, Piece,
                          _log_pair_detailed, lebesgue, stieltjes_integral)
from .potentials import (DeltaSubharmonicModel, HarmonicPart, RadialWindow,
                         RieszAtom, circle_max_many, circle_mean_plus,
                         evaluate, from_rational, same_radius)


@dataclass(frozen=True)
class VerificationCase:
    """One bound check: model + integrator on [0, inner] + window."""

    case_id: int
    seed: int
    model: DeltaSubharmonicModel
    integrator: Integrator
    window: RadialWindow
    tol: float = 1e-6

    def __post_init__(self):
        r = self.window.inner
        if not same_radius(self.integrator.end, r):
            raise ValueError(
                f"integrator ends at {self.integrator.end}, window starts at {r}")


@dataclass
class VerificationReport:
    case_id: int
    seed: int
    lhs: float
    rhs: float
    ratio: float
    verdict: str
    components: dict = field(default_factory=dict)
    certificate: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "consistent-divergence")


# ---------------------------------------------------------------------------
# left side

def log_singularity_profile(model: DeltaSubharmonicModel, upto: float,
                            scale: float):
    """Blow-up descriptors of the circle maximum from the negative charge.

    At a radius carrying negative atoms the circle maximum grows like
    c * ln(scale/|t - radius|) where c is the largest mass stacked at a single
    location on that radius; radii that ``same_radius`` matches are merged.
    """
    per_loc: dict[complex, float] = {}
    for a in model.atoms:
        if a.mass < 0 and a.radius <= upto:
            per_loc[a.location] = per_loc.get(a.location, 0.0) - a.mass
    if not per_loc:
        return ()
    pairs = sorted((abs(loc), c) for loc, c in per_loc.items())
    out: list[LogSingularity] = []
    for rho, coeff in pairs:
        if out and same_radius(out[-1].location, rho):
            if coeff > out[-1].coefficient:
                out[-1] = LogSingularity(out[-1].location, coeff, scale)
        else:
            out.append(LogSingularity(rho, coeff, scale))
    return tuple(out)


def max_plus_sampler(model: DeltaSubharmonicModel):
    """Vectorized t -> max(circle maximum at t, 0)."""
    def f(ts):
        return np.maximum(circle_max_many(model, np.asarray(ts, dtype=float)), 0.0)
    return f


def growth_bound_lhs(case: VerificationCase) -> float:
    """integral of the clipped circle maximum against the integrator."""
    sing = log_singularity_profile(case.model, upto=case.window.outer,
                                   scale=2.0 * case.window.outer)
    # the sampled circle maxima are polished to about 1e-12 relative, far
    # below case.tol, and the verdict slack is rhs-relative, so case.tol is
    # the whole quadrature budget
    return stieltjes_integral(max_plus_sampler(case.model), case.integrator,
                              tol=case.tol, singularities=sing)


# ---------------------------------------------------------------------------
# right side

def growth_bound_rhs(case: VerificationCase):
    """(rhs, components) of the product bound over the case's window.

    rhs = (6R/(R-r)) * boldT * max(total mass, stabilized log-kernel term).
    components also carries the looser anchored variant with inner radius 0,
    which can only increase boldT and therefore the bound.  Both products
    take 0 * inf = 0: a vanishing characteristic bounds a jump integrator too.
    """
    r, R = case.window.inner, case.window.outer
    m = case.integrator

    neg = ChargeView.negative_part(case.model)
    c_plus = circle_mean_plus(case.model, R, tol=0.01 * case.tol)
    n_neg = integrated_counting(neg, case.window)
    n_neg_anchor = integrated_counting(neg, RadialWindow(0.0, R))
    bold_t = c_plus + n_neg
    bold_anchor = c_plus + n_neg_anchor

    total_mass = m.total_variation
    # the Dini tail, costly on staircases, runs at a coarse budget: tens of
    # tol relative to the term, far inside every finite ratio's margin
    dini, d_m = _log_pair_detailed(m, R, tol=100.0 * case.tol)
    factor = 6.0 * R / (R - r)
    # the bound's formula; with d <= r < R, ln(4R/d) >= ln 4 > 1 makes dini
    # exceed M, so M is never the larger
    second = max(total_mass, dini)
    rhs = factor * bold_t * second if bold_t and second else 0.0
    components = {
        "c_plus_R": c_plus,
        "n_neg": n_neg,
        "bold_t": bold_t,
        "bold_t_anchor": bold_anchor,
        "total_mass": total_mass,
        "d_m": d_m,
        # one number under the three names that reports and checks read
        "kint_lhs": dini,
        "kint_rhs": dini,
        "dini": dini,
        "factor": factor,
        "second": second,
        "rhs_anchor": factor * bold_anchor * second if bold_anchor and second else 0.0,
    }
    return rhs, components


def growth_bound_verify(case: VerificationCase) -> VerificationReport:
    """Evaluate both sides and compare with the case tolerance."""
    lhs = growth_bound_lhs(case)
    rhs, components = growth_bound_rhs(case)
    certificate = None
    if math.isinf(rhs) and case.integrator.jumps:
        certificate = "jump component: stabilized log-kernel term diverges"
    if math.isinf(lhs) and math.isinf(rhs):
        verdict = "consistent-divergence"
        ratio = math.nan
    elif lhs <= rhs * (1.0 + case.tol):
        verdict = "pass"
        ratio = lhs / rhs if math.isfinite(rhs) and rhs != 0.0 else 0.0
    else:
        verdict = "fail"
        ratio = lhs / rhs if rhs != 0.0 else math.inf
    return VerificationReport(case_id=case.case_id, seed=case.seed, lhs=lhs,
                              rhs=rhs, ratio=ratio, verdict=verdict,
                              components=components, certificate=certificate)


# ---------------------------------------------------------------------------
# pointwise and counting companions

def poisson_jensen_bound(model: DeltaSubharmonicModel, w: complex,
                         window: RadialWindow, tol: float = 1e-6):
    """(value at w, harmonic-majorant bound) for |w| inside the window.

    bound = ((R+r)/(R-r)) * outer clipped circle mean
          + sum over negative atoms inside |a| < R of |mass| * ln(2R/|w-a|).
    """
    r, R = window.inner, window.outer
    w = complex(w)
    if abs(w) > r:
        raise ValueError(f"|w|={abs(w):.6g} outside the inner disk of radius {r}")
    lhs = evaluate(model, w)
    bound = (R + r) / (R - r) * circle_mean_plus(model, R, tol=tol)
    for a in model.atoms:
        if a.mass < 0 and a.radius < R:
            gap = abs(w - a.location)
            bound += (-a.mass) * (math.inf if gap == 0.0 else math.log(2.0 * R / gap))
    return lhs, bound


def counting_bound(view: ChargeView, r_star: float, R: float,
                   r: float = 0.0):
    """(count inside r_star, windowed bound, loosened bound).

    count <= (R/(R-r_star)) * counting over (r_star, R)
          <= (R/(R-r_star)) * counting over (r, R) for any r <= r_star.
    """
    if not (0.0 <= r <= r_star < R):
        raise ValueError("need 0 <= r <= r_star < R")
    if any(mass < 0 for _, mass in view.entries):
        raise NegativeMassInView("counting bound needs nonnegative mass")
    count = float(sum(mass for rho, mass in view.entries if rho <= r_star))
    scale = R / (R - r_star)
    mid = scale * integrated_counting(view, RadialWindow(r_star, R))
    loose = scale * integrated_counting(view, RadialWindow(r, R))
    return count, mid, loose


# ---------------------------------------------------------------------------
# case generation

def reference_case(tol: float = 1e-6) -> VerificationCase:
    """Closed-form anchor: single unit negative atom, Lebesgue integrator."""
    model = from_rational(poles=((1.0, 1),), scale=5.0)
    return VerificationCase(case_id=0, seed=0, model=model,
                            integrator=lebesgue(2.0), window=RadialWindow(2.0, 4.0),
                            tol=tol)


def _clear_of(value: float, targets, rel: float = 3e-6) -> float:
    for t in targets:
        while abs(value - t) <= rel * max(1.0, t):
            value *= 1.0 + 2.0 * rel
    return value


def _random_pieces(rng, r: float):
    for _ in range(64):
        n = int(rng.integers(1, 5))
        cuts = np.sort(rng.uniform(0.0, r, size=2 * n))
        widths = cuts[1::2] - cuts[0::2]
        gaps = cuts[2::2] - cuts[1:-1:2]
        if widths.min() >= 1e-3 * r and (gaps.size == 0 or gaps.min() > 0.0):
            return tuple(Piece(float(a), float(b), float(s))
                         for a, b, s in zip(cuts[0::2], cuts[1::2],
                                            rng.uniform(0.1, 2.0, size=n)))
    return (Piece(0.0, r, 1.0),)


def random_case(case_id: int, seed: int = 1, tol: float = 1e-6) -> VerificationCase:
    """Deterministic random case: the stream depends only on (seed, case_id)."""
    rng = np.random.default_rng((seed, case_id))
    r = float(rng.uniform(1.0, 2.5))
    R = r * float(rng.uniform(1.8, 3.0))

    atoms = []
    for _ in range(int(rng.integers(1, 9))):
        rad = 0.9 * R * math.sqrt(float(rng.uniform()))
        rad = _clear_of(rad, (r, R))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        mass = float(rng.choice((-1.0, 1.0))) * float(rng.integers(1, 4)) \
            * float(rng.uniform(0.2, 1.0))
        atoms.append(RieszAtom(rad * complex(math.cos(ang), math.sin(ang)), mass))

    coeffs = [complex(float(rng.uniform(-0.5, 0.5)))]
    if rng.uniform() < 0.3:
        mag = float(rng.uniform(0.0, 0.2 / R))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        coeffs.append(mag * complex(math.cos(phase), math.sin(phase)))
    model = DeltaSubharmonicModel(atoms=tuple(atoms),
                                  harmonic=HarmonicPart(tuple(coeffs)))

    kind = case_id % 5
    pieces = _random_pieces(rng, r) if kind in (0, 1, 2, 4) else ()
    cantor = None
    if kind in (1, 3, 4):
        a = float(rng.uniform(0.0, 0.5)) * r
        b = a + float(rng.uniform(0.3, 0.9)) * (r - a)
        cantor = CantorPart(a, b, float(rng.uniform(0.3, 1.5)),
                            depth=int(rng.choice((8, 10))))
    jumps = ()
    if kind in (2, 3, 4):
        locs = rng.uniform(0.05 * r, 0.95 * r, size=int(rng.integers(1, 3)))
        jumps = tuple(Jump(float(x), float(rng.uniform(0.2, 1.0)))
                      for x in np.unique(locs))
    m = Integrator(end=r, pieces=pieces, cantor=cantor, jumps=jumps)
    return VerificationCase(case_id=case_id, seed=seed, model=model,
                            integrator=m, window=RadialWindow(r, R), tol=tol)


def generate_cases(n: int, seed: int = 1, tol: float = 1e-6):
    return tuple(random_case(i, seed=seed, tol=tol) for i in range(1, n + 1))


def harness_workers() -> int:
    """Worker count from NEVKIT_THREADS; unset or 1 means sequential."""
    raw = os.environ.get("NEVKIT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"NEVKIT_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(n, os.cpu_count() or 1))


def verify_suite(cases, workers: int | None = None):
    """Run growth_bound_verify over the cases, optionally in a thread pool."""
    cases = tuple(cases)
    if workers is None:
        workers = harness_workers()
    if workers <= 1 or len(cases) <= 1:
        reports = [growth_bound_verify(c) for c in cases]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(growth_bound_verify, cases))
    return sorted(reports, key=lambda rep: rep.case_id)


# ---------------------------------------------------------------------------
# divergence scan

DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 0.0)


@dataclass(frozen=True)
class ScanRow:
    epsilon: float
    lhs: float
    dini: float


def counterexample_scan(epsilons=DEFAULT_EPSILONS, tol: float = 1e-8):
    """Unit mass smeared over (1-eps, 1+eps) against a pole-like model.

    Each row is a VerificationCase on the window (2, 4).  The left side of
    the bound and the Dini integral both grow like ln(1/eps); the eps = 0 row
    is the jump limit, where both are +inf.
    """
    model = from_rational(poles=((1.0, 1),), scale=5.0)
    window = RadialWindow(2.0, 4.0)
    rows = []
    for i, eps in enumerate(epsilons, start=1):
        eps = float(eps)
        if not (0.0 <= eps < 1.0):
            raise ValueError("epsilon must lie in [0, 1)")
        if eps == 0.0:
            m = Integrator(end=2.0, jumps=(Jump(1.0, 1.0),))
        else:
            m = Integrator(end=2.0, pieces=(Piece(1.0 - eps, 1.0 + eps, 0.5 / eps),))
        rep = growth_bound_verify(VerificationCase(
            case_id=i, seed=0, model=model, integrator=m, window=window, tol=tol))
        rows.append(ScanRow(epsilon=eps, lhs=rep.lhs, dini=rep.components["dini"]))
    return tuple(rows)


def scan_slope(rows) -> float:
    """Fitted d(lhs)/d(ln(1/eps)) over the finite rows of a scan."""
    xs = [math.log(1.0 / row.epsilon) for row in rows
          if row.epsilon > 0.0 and math.isfinite(row.lhs)]
    ys = [row.lhs for row in rows if row.epsilon > 0.0 and math.isfinite(row.lhs)]
    if len(xs) < 2:
        raise ValueError("need at least two finite rows to fit a slope")
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


# ---------------------------------------------------------------------------
# classical specialization

def random_rational(index: int, seed: int = 1):
    """(zeros, poles, scale, r, R) with divisor radii clear of both circles."""
    rng = np.random.default_rng((seed, 7000 + index))
    r = float(rng.uniform(0.8, 1.5))
    R = r * float(rng.uniform(1.6, 2.5))

    def draw(n):
        out = []
        for _ in range(n):
            rad = _clear_of(2.0 * math.sqrt(float(rng.uniform())), (r, R))
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            out.append((rad * complex(math.cos(ang), math.sin(ang)),
                        int(rng.integers(1, 3))))
        return tuple(out)

    zeros = draw(int(rng.integers(0, 3)))
    poles = draw(int(rng.integers(1, 3)))
    scale = math.exp(float(rng.uniform(-1.0, 1.0)))
    return zeros, poles, scale, r, R


def classical_shape_check(zeros=(), poles=(), scale: float = 1.0,
                          r: float = 1.0, k: float = 2.0,
                          tol: float = 1e-6) -> dict:
    """Growth bound for ln|f| with the normalized length integrator on [0, r].

    The bound itself is the VerificationCase of the model, lebesgue(r, 1/r)
    and the window (r, kr).  bridge is the classical route to its bold_t,
    T(R) - T(r) + proximity(r), reported next to it.
    """
    if not (r > 0.0 and k > 1.0):
        raise ValueError("need r > 0 and k > 1")
    R = k * r
    at_r = classical_characteristic(zeros, poles, scale, r, tol=0.01 * tol)
    at_R = classical_characteristic(zeros, poles, scale, R, tol=0.01 * tol)
    rep = growth_bound_verify(VerificationCase(
        case_id=0, seed=0, model=from_rational(zeros=zeros, poles=poles, scale=scale),
        integrator=lebesgue(r, slope=1.0 / r), window=RadialWindow(r, R), tol=tol))
    comp = rep.components
    return {
        "r": r, "R": R, "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
        "bridge": at_R.total - at_r.total + at_r.proximity,
        "proximity_r": at_r.proximity,
        "kint_lhs": comp["kint_lhs"], "kint_rhs": comp["kint_rhs"],
        "d_m": comp["d_m"], "verdict": rep.verdict,
    }


def classical_suite(n: int, seed: int = 1, tol: float = 1e-6):
    """Shape checks over seeded random rationals; (index, spec, result) rows."""
    rows = []
    for i in range(1, n + 1):
        zeros, poles, scale, r, R = random_rational(i, seed=seed)
        res = classical_shape_check(zeros, poles, scale, r, k=R / r, tol=tol)
        rows.append((i, (zeros, poles, scale), res))
    return rows
