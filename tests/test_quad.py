import importlib
import re

import numpy as np
import pytest

from nevkit.errors import ToleranceNotReached
from nevkit.quad import (BISECT_STEPS, GOLDEN_STEPS, ZOOM_POINTS, ZOOM_ROUNDS,
                         adaptive_simpson, bisect_sign_changes, golden_max,
                         zoom_max)

EPS = np.finfo(float).eps


# -- adaptive_simpson ----------------------------------------------------------

def test_cubic_over_uneven_cuts_is_exact():
    def f(x):
        return 3.0 * x**3 - 2.0 * x**2 + x - 5.0

    def F(x):
        return 0.75 * x**4 - 2.0 / 3.0 * x**3 + 0.5 * x**2 - 5.0 * x

    cuts = [2.7, -1.0, 0.13, 0.5, 0.13]  # unsorted, one repeated
    got = adaptive_simpson(f, cuts, 1e-12)
    assert got == pytest.approx(F(2.7) - F(-1.0), rel=1e-13)


def test_kink_on_a_cut_is_exact():
    c = 0.37
    got = adaptive_simpson(lambda x: np.abs(x - c), [0.0, c, 1.0], 1e-12)
    assert got == pytest.approx(0.5 * (c**2 + (1.0 - c) ** 2), rel=4 * EPS)


def test_degenerate_cuts_integrate_to_zero():
    assert adaptive_simpson(np.cos, [1.5], 1e-9) == 0.0
    assert adaptive_simpson(np.cos, [1.5, 1.5], 1e-9) == 0.0


def _per_interval(f, cuts, tol, min_depth):
    """The loop callers ran before adaptive_simpson took the cuts: one call
    per cut interval, each with its length's share of tol."""
    cuts = sorted(cuts)
    span = cuts[-1] - cuts[0]
    return [adaptive_simpson(f, (a, b), tol * (b - a) / span, min_depth=min_depth)
            for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("min_depth", [0, 2])
def test_one_call_equals_the_per_interval_loop(min_depth):
    def f(x):
        return np.sqrt(np.abs(x - 0.3)) + np.sin(20.0 * x) + (x > 1.2)

    cuts = [0.0, 0.3, 0.55, 1.2, 2.0]
    parts = _per_interval(f, cuts, 1e-9, min_depth)
    got = adaptive_simpson(f, cuts, 1e-9, min_depth=min_depth)
    assert abs(got - sum(parts)) <= 8 * EPS * sum(abs(p) for p in parts)


def test_forced_error_is_checked_per_cut_interval():
    # the singular interval [0, 0.5] gets 1/20 of tol; the error forced
    # through at MAX_DEPTH there exceeds that share but not tol itself
    tol = 3e-9

    def f(x):
        return 1.0 / np.sqrt(np.abs(x - 0.3))

    with pytest.raises(ToleranceNotReached, match=r"on \[0\.0, 0\.5\]") as info:
        adaptive_simpson(f, [0.0, 0.5, 10.0], tol)
    forced, share = (float(v) for v in re.search(
        r"estimate (\S+) above budget (\S+)", str(info.value)).groups())
    assert share == pytest.approx(tol * 0.5 / 10.0, rel=1e-3)
    assert share < forced < tol


def test_non_finite_value_at_a_cut_raises():
    def f(x):
        return np.where(x == 0.5, np.inf, x)

    with pytest.raises(ToleranceNotReached, match="non-finite"):
        adaptive_simpson(f, [0.0, 0.5, 1.0], 1e-9)


# -- bisect_sign_changes -------------------------------------------------------

def _bisect_reference(f, lo, hi, flo):
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sign_lo = np.sign(flo)
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        same = np.sign(f(mid)) == sign_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def test_bisection_stops_once_brackets_collapse():
    def f(x):
        return np.sin(3.0 * x) + 0.2 * np.cos(7.0 * x) - 0.1

    nodes = np.linspace(0.0, 2.0 * np.pi, 4097)
    vals = f(nodes)
    flip = np.sign(vals[:-1]) != np.sign(vals[1:])
    lo, hi, flo = nodes[:-1][flip], nodes[1:][flip], vals[:-1][flip]
    assert lo.size >= 4

    calls = []

    def counted(x):
        calls.append(1)
        return f(x)

    got = bisect_sign_changes(counted, lo, hi, flo)
    want = _bisect_reference(f, lo, hi, flo)
    assert np.array_equal(got, want)
    assert len(calls) < BISECT_STEPS


# -- golden_max ----------------------------------------------------------------

def test_golden_max_probes_once_per_step():
    lo = np.linspace(-1.0, 2.0, 7)
    points = []

    def f(x):
        points.append(np.size(x))
        return np.sin(3.0 * x)

    golden_max(f, lo, lo + 0.5)
    assert sum(points) == (4 + GOLDEN_STEPS) * lo.size
    assert len(points) == 4 + GOLDEN_STEPS


def test_golden_max_finds_a_smooth_peak():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-3.0, 3.0, size=50)
    lo = x0 - rng.uniform(0.01, 1.0, size=50)
    hi = x0 + rng.uniform(0.01, 1.0, size=50)
    got = golden_max(lambda x: 2.0 * np.cos(x - x0), lo, hi)
    assert np.all(np.abs(got - 2.0) <= 4 * EPS * 2.0)


def two_peaks(x):
    return np.cos(2.0 * x) + 0.3 * x


# brackets that each hold two peaks of two_peaks
TWO_PEAK_LO = np.array([-0.5, -3.5, -2.0, 2.9])
TWO_PEAK_HI = np.array([3.6, 0.5, 3.5, 6.5])


def test_golden_max_is_at_least_both_endpoints():
    # the search may settle on either peak, but what it returns is the
    # largest value seen, the endpoints included
    got = golden_max(two_peaks, TWO_PEAK_LO, TWO_PEAK_HI)
    assert np.all(got >= two_peaks(TWO_PEAK_LO)) and np.all(got >= two_peaks(TWO_PEAK_HI))
    dense = np.linspace(TWO_PEAK_LO, TWO_PEAK_HI, 200_001)
    assert np.all(got <= two_peaks(dense).max(axis=0) + 1e-9)


# -- zoom_max ------------------------------------------------------------------

def test_zoom_max_calls_once_per_round_on_the_whole_grid():
    lo = np.linspace(-1.0, 2.0, 7)
    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return np.sin(3.0 * x)

    zoom_max(f, lo, lo + 0.5)
    assert shapes == [(lo.size, ZOOM_POINTS)] * ZOOM_ROUNDS


def test_zoom_max_finds_a_smooth_peak():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-3.0, 3.0, size=50)
    lo = x0 - rng.uniform(0.01, 1.0, size=50)
    hi = x0 + rng.uniform(0.01, 1.0, size=50)
    got = zoom_max(lambda x: 2.0 * np.cos(x - x0[:, None]), lo, hi)
    assert np.all(np.abs(got - 2.0) <= 4 * EPS * 2.0)


def test_zoom_max_sees_both_peaks_of_a_bracket():
    # round 1 samples the whole bracket, so the zoom settles on the higher
    # peak; golden-section search settles on the lower one of bracket 3
    got = zoom_max(two_peaks, TWO_PEAK_LO, TWO_PEAK_HI)
    assert np.all(got >= two_peaks(TWO_PEAK_LO)) and np.all(got >= two_peaks(TWO_PEAK_HI))
    dense = two_peaks(np.linspace(TWO_PEAK_LO, TWO_PEAK_HI, 200_001)).max(axis=0)
    assert np.all(got >= dense - 1e-12)
    golden = golden_max(two_peaks, TWO_PEAK_LO, TWO_PEAK_HI)
    assert dense[2] - golden[2] == pytest.approx(0.1498, abs=1e-4)


# -- the benchmark's tracer binds nevkit functions by name ---------------------

def test_traced_names_exist():
    from perfbench.spans import TRACED

    for layer, name, _, _ in TRACED:
        assert callable(getattr(importlib.import_module(f"nevkit.{layer}"), name, None)), \
            f"nevkit.{layer}.{name}"
