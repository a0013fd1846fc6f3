"""Checks of nevkit's outputs against independent computations or properties.

Nothing here compares with a stored copy of an earlier output.  Each check
returns a list of problems, empty when the output is right; a workload marks
the operation failed when the list is not empty.  The numbers a check needs
are recomputed from the ``CaseSpec`` (plain numbers), never read back from
nevkit's objects.
"""
from __future__ import annotations

import math

import numpy as np

LN = math.log

# the closed-form fixture: ln|5/(z-1)| against m(t) = t on [0, 2], window (2, 4)
FIXTURE_LHS = 2.0 * LN(5.0) + 2.0
FIXTURE_RATIO = FIXTURE_LHS / (12.0 * LN(5.0 / 2.0) * (2.0 * LN(8.0) + 2.0))


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# quantities recomputed from the spec

def total_mass(spec) -> float:
    mass = sum(slope * (stop - start) for start, stop, slope in spec.pieces)
    if spec.cantor is not None:
        mass += spec.cantor[2]
    return mass + sum(h for _, h in spec.jumps)


def negative_counting(spec) -> float:
    """sum over negative atoms with |a| <= R of |mass| ln(R / max(r, |a|))."""
    out = 0.0
    for loc, mass in spec.atoms:
        rho = abs(loc)
        if mass < 0 and rho <= spec.R:
            out += -mass * (LN(spec.R) - LN(max(spec.r, rho)))
    return out


def closed_form_mean(spec, t: float) -> float:
    """C_U(t): constant term plus sum of mass ln max(t, |a|)."""
    return spec.coeffs[0].real + sum(mass * LN(max(t, abs(loc)))
                                     for loc, mass in spec.atoms)


def density_bound(spec) -> float:
    """An upper bound on the density of the continuous part of m."""
    rho = max((slope for _, _, slope in spec.pieces), default=0.0)
    if spec.cantor is not None:
        start, stop, height, depth = spec.cantor
        rho += height * 1.5 ** depth / (stop - start)
    return rho


def dini_bracket(spec) -> tuple:
    """Bounds on the integral of omega(t)/t over (0, 4R] for a jump-free m.

    omega is subadditive with omega(end) = M, so M <= (end/t + 1) omega(t),
    which gives M t/(end + t) <= omega(t); and omega(t) <= min(M, rho t)
    for any rho bounding the density.
    """
    M = total_mass(spec)
    cap = 4.0 * spec.R
    lo = M * LN(1.0 + cap / spec.r)
    rho = density_bound(spec)
    knee = M / rho
    hi = rho * cap if knee >= cap else M + M * LN(cap / knee)
    return lo, hi


# ---------------------------------------------------------------------------
# verify-* reports

def check_report(spec, rep) -> list:
    """Properties every verification report of ``spec`` must have."""
    bad = []
    tol = spec.tol
    lhs, rhs, comp = rep.lhs, rep.rhs, rep.components
    if rep.case_id != spec.case_id:
        bad.append(f"case_id {rep.case_id} != {spec.case_id}")

    if math.isinf(lhs) and math.isinf(rhs):
        verdict = "consistent-divergence"
    elif lhs <= rhs * (1.0 + tol):
        verdict = "pass"
    else:
        verdict = "fail"
    if rep.verdict != verdict:
        bad.append(f"verdict {rep.verdict!r}, bound gives {verdict!r}")
    if verdict == "fail":
        bad.append(f"bound violated: lhs {lhs!r} > rhs {rhs!r}")
    # lhs is a nonnegative integral asked for at tol
    if not lhs >= -tol:
        bad.append(f"lhs {lhs!r} below -tol")

    if math.isinf(rhs) != bool(spec.jumps):
        bad.append(f"rhs {rhs!r} with {len(spec.jumps)} jumps")

    # the program sums the mass over up to 2 * 2**depth mesh cells whose
    # widths carry rounding, which reaches a few 1e-12 relative
    M = total_mass(spec)
    if not _close(comp["total_mass"], M, 1e-9):
        bad.append(f"total_mass {comp['total_mass']!r} != {M!r}")
    n_neg = negative_counting(spec)
    if not _close(comp["n_neg"], n_neg, 1e-12, 1e-14):
        bad.append(f"n_neg {comp['n_neg']!r} != {n_neg!r}")
    factor = 6.0 * spec.R / (spec.R - spec.r)
    if not _close(comp["factor"], factor, 1e-14):
        bad.append(f"factor {comp['factor']!r} != {factor!r}")

    # c_plus_R, the mean of max(U, 0) on |z| = R, is at least the mean of U
    # (C_U(R), in closed form) and at least 0; growth_bound_rhs asks for it
    # at 0.01 * tol
    c_plus = comp["c_plus_R"]
    floor = max(closed_form_mean(spec, spec.R), 0.0)
    if not c_plus >= floor - 0.01 * tol:
        bad.append(f"c_plus_R {c_plus!r} below max(C_U(R), 0) = {floor!r}")
    if not comp["kint_lhs"] <= comp["kint_rhs"]:
        bad.append(f"kint_lhs {comp['kint_lhs']!r} > kint_rhs {comp['kint_rhs']!r}")
    want_rhs = factor * (c_plus + n_neg) * max(M, comp["kint_lhs"])
    if not (rhs == want_rhs or _close(rhs, want_rhs, 1e-12)):
        bad.append(f"rhs {rhs!r} != factor * bold_t * second = {want_rhs!r}")

    if not spec.jumps:
        lo, hi = dini_bracket(spec)
        slack = 1e-6 * max(1.0, hi)
        if not lo - slack <= comp["dini"] <= hi + slack:
            bad.append(f"dini {comp['dini']!r} outside [{lo!r}, {hi!r}]")
    return bad


def check_fixture(rep) -> list:
    """The closed-form case: lhs = 2 ln 5 + 2 and the ratio in closed form."""
    bad = []
    if rep.verdict != "pass":
        bad.append(f"fixture verdict {rep.verdict!r}")
    if not _close(rep.lhs, FIXTURE_LHS, 1e-7):
        bad.append(f"fixture lhs {rep.lhs!r} != {FIXTURE_LHS!r}")
    if not _close(rep.ratio, FIXTURE_RATIO, 1e-6):
        bad.append(f"fixture ratio {rep.ratio!r} != {FIXTURE_RATIO!r}")
    return bad


def same_report(a, b) -> list:
    """Field-for-field equality of two reports (NaN equal to NaN)."""
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (math.isnan(x) and math.isnan(y))
        return x == y
    bad = []
    for name in ("case_id", "seed", "lhs", "rhs", "ratio", "verdict", "certificate"):
        if not eq(getattr(a, name), getattr(b, name)):
            bad.append(f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}")
    if a.components.keys() != b.components.keys():
        bad.append("component names differ")
    else:
        for key in a.components:
            if not eq(a.components[key], b.components[key]):
                bad.append(f"{key}: {a.components[key]!r} != {b.components[key]!r}")
    return bad


# ---------------------------------------------------------------------------
# an independent left side: own circle maximum, scipy quadrature

def _model_arrays(spec):
    locs = np.array([loc for loc, _ in spec.atoms], dtype=complex)
    masses = np.array([mass for _, mass in spec.atoms], dtype=float)
    coeffs = np.array(spec.coeffs, dtype=complex)
    return locs, masses, coeffs


def _values(arrays, z):
    locs, masses, coeffs = arrays
    poly = np.zeros(z.shape, dtype=complex)
    for c in coeffs[::-1]:
        poly = poly * z + c
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(z[..., None] - locs))
    return poly.real + np.einsum("...k,k->...", logs, masses)


def dense_circle_max(spec, ts, angles: int = 2048, levels: int = 4) -> np.ndarray:
    """sup over |z| = t of the spec's model, for each t in ``ts``.

    A uniform angle grid, then ``levels`` rounds of 33-point local grids that
    shrink 16-fold around the best grid angle and around every atom angle and
    its antipode (where the sharp peaks of negative atoms sit).
    """
    arrays = _model_arrays(spec)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    grid = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    atom_ang = np.angle(arrays[0]) if arrays[0].size else np.empty(0)
    atom_ang = np.concatenate([atom_ang, atom_ang + np.pi])
    local = np.linspace(-1.0, 1.0, 33)
    out = np.empty(ts.size)
    for k in range(0, ts.size, 32):
        t = ts[k:k + 32, None]
        vals = _values(arrays, t * np.exp(1j * grid))
        best = vals.max(axis=1)
        centers = np.concatenate(
            [grid[vals.argmax(axis=1)][:, None],
             np.broadcast_to(atom_ang, (t.shape[0], atom_ang.size))], axis=1)
        half = 2.0 * np.pi / angles
        for _ in range(levels):
            theta = centers[:, :, None] + half * local
            v = _values(arrays, t[:, :, None] * np.exp(1j * theta))
            v = np.where(np.isnan(v), -np.inf, v)
            flat = v.reshape(v.shape[0], -1)
            best = np.maximum(best, flat.max(axis=1))
            centers = np.take_along_axis(
                theta.reshape(theta.shape[0], -1),
                np.argmax(v, axis=2) + np.arange(v.shape[1]) * local.size, axis=1)
            half /= 16.0
        out[k:k + 32] = best
    return out


def independent_lhs(spec) -> float:
    """integral of max(sup_{|z|=t} U, 0) dm(t) over [0, r], without nevkit.

    Pieces go to scipy's adaptive quadrature, split at the radii of negative
    atoms where the integrand has a logarithmic peak; the staircase stage is
    integrated block by block (uniform density on each of its 2**depth
    blocks) with 3-point Gauss-Legendre, and by scipy where a block is near
    such a radius; jumps add height times the integrand.
    """
    from scipy.integrate import quad

    def f_many(ts):
        return np.maximum(dense_circle_max(spec, ts), 0.0)

    def f(t):
        return float(f_many(np.array([t]))[0])

    sing = sorted(abs(loc) for loc, mass in spec.atoms if mass < 0)
    total = 0.0
    for x, h in spec.jumps:
        total += h * f(x)
    for start, stop, slope in spec.pieces:
        pts = [s for s in sing if start < s < stop]
        val, _ = quad(f, start, stop, points=pts or None, limit=400,
                      epsabs=1e-10, epsrel=1e-10)
        total += slope * val
    if spec.cantor is not None:
        start, stop, height, depth = spec.cantor
        n = 1 << depth
        idx = np.arange(n)
        frac = np.zeros(n)
        for i in range(depth):
            frac += ((idx >> (depth - 1 - i)) & 1) * (2.0 / 3.0 ** (i + 1))
        width = (stop - start) * 3.0 ** (-depth)
        lefts = start + (stop - start) * frac
        mass = height / n
        near = np.zeros(n, dtype=bool)
        for s in sing:
            near |= (lefts - width <= s) & (s <= lefts + 2.0 * width)
        x, w = np.polynomial.legendre.leggauss(3)
        far = lefts[~near]
        nodes = (far[:, None] + 0.5 * width * (x + 1.0)).ravel()
        vals = f_many(nodes).reshape(far.size, x.size)
        total += mass * float(np.sum(vals @ (0.5 * w)))
        for a in lefts[near]:
            pts = [s for s in sing if a < s < a + width]
            val, _ = quad(f, a, a + width, points=pts or None, limit=200,
                          epsabs=1e-12, epsrel=1e-10)
            total += mass / width * val
    return total


def check_lhs_independent(spec, lhs: float) -> list:
    want = independent_lhs(spec)
    if not _close(lhs, want, 1e-7, 2.0 * spec.tol):
        return [f"lhs {lhs!r} != independent {want!r}"]
    return []


# ---------------------------------------------------------------------------
# means

def trapezoid_mean_plus(spec, t: float, n: int) -> tuple:
    """Periodic trapezoid rule for the mean of max(U, 0) on |z| = t, with a
    bound on its error from the kinks of max(U, 0).

    A kink where U crosses 0 with slope J adds J h**2 B2(s)/2 to the rule's
    error (Euler-Maclaurin, |B2| <= 1/6); elsewhere the periodic rule
    converges geometrically.  The slope is taken from the grid itself.
    """
    h = 2.0 * np.pi / n
    theta = np.arange(n) * h
    vals = _values(_model_arrays(spec), t * np.exp(1j * theta))
    mean = float(np.mean(np.maximum(vals, 0.0)))
    nxt = np.roll(vals, -1)
    cross = (vals > 0.0) != (nxt > 0.0)
    slopes = np.abs(nxt[cross] - vals[cross]) / h
    kink_err = float(np.sum(slopes)) * h * h / 12.0 / (2.0 * np.pi)
    return mean, kink_err


def check_mean_plus(spec, t: float, got: float, tol: float) -> list:
    """Compare with the trapezoid rule at 2**17 points.  The slack is the
    program's tolerance plus twice the rule's kink error bound plus four
    times its change from 2**16 points, which covers peaks of atoms near
    the circle that the grid resolves only barely."""
    coarse, _ = trapezoid_mean_plus(spec, t, 1 << 16)
    fine, kink_err = trapezoid_mean_plus(spec, t, 1 << 17)
    slack = tol + 1e-12 + 2.0 * kink_err + 4.0 * abs(fine - coarse)
    if not abs(got - fine) <= slack:
        return [f"circle_mean_plus({t!r}) {got!r} != trapezoid {fine!r}"
                f" (slack {slack:.2e})"]
    return []


def check_means(spec, out, radii, tol: float, grid_tol: float) -> list:
    """Exact relations a means output must keep, within the tolerance the
    program was asked for:

    - the two routes agree within 2 * tol (each is a difference of two
      means asked for at tol/2);
    - the anchored total minus the charge route, which is C_U^+(r), is at
      least max(C_U(r), 0) (Jensen, C_U the closed-form mean) less 2 * tol;
    - a grid mean asked for at grid_tol is at least max(C_U(t), 0) less
      grid_tol.
    """
    charge, canonical, total, grid = out
    bad = []
    if not abs(charge - canonical) <= 2.0 * tol:
        bad.append(f"routes differ: charge {charge!r} canonical {canonical!r}")
    floor = max(closed_form_mean(spec, spec.r), 0.0)
    if not total - charge >= floor - 2.0 * tol:
        bad.append(f"total - charge {total - charge!r} below max(C_U(r), 0) = {floor!r}")
    for t, got in zip(radii, grid):
        floor = max(closed_form_mean(spec, float(t)), 0.0)
        if not got >= floor - grid_tol:
            bad.append(f"circle_mean_plus({float(t)!r}) {got!r} below"
                       f" max(C_U(t), 0) = {floor!r}")
    return bad
