import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nevkit as nk
from nevkit.characteristics import (
    CSV_HEADER,
    ChargeView,
    ReportRow,
    classical_characteristic,
    diff_nevanlinna,
    diff_nevanlinna_total,
    integrated_counting,
    jensen_residual,
    radial_counting,
    rows_to_csv,
)

from conftest import random_model

LN = math.log


# -- charge views and counting --------------------------------------------------

def test_charge_view_split(pole_model):
    assert ChargeView.positive_part(pole_model).entries == ()
    assert ChargeView.negative_part(pole_model).entries == ((1.0, 1.0),)


def test_charge_view_sorted():
    v = ChargeView(((2.0, 1.0), (0.5, 3.0)))
    assert v.entries == ((0.5, 3.0), (2.0, 1.0))
    with pytest.raises(ValueError):
        ChargeView(((-1.0, 1.0),))


def test_radial_counting_steps():
    v = ChargeView(((1.0, 1.0), (3.0, 2.0)))
    assert radial_counting(v, 0.5) == 0.0
    assert radial_counting(v, 1.0) == 1.0
    assert radial_counting(v, 3.0) == 3.0
    assert radial_counting(v, 10.0) == 3.0


def test_integrated_counting_oracles():
    v = ChargeView(((1.0, 1.0),))
    assert integrated_counting(v, nk.RadialWindow(2.0, 4.0)) == pytest.approx(LN(2.0))
    assert integrated_counting(v, nk.RadialWindow(0.5, 4.0)) == pytest.approx(LN(4.0))
    # mass outside the window contributes nothing
    assert integrated_counting(v, nk.RadialWindow(0.1, 0.5)) == 0.0


def test_integrated_counting_origin_mass():
    v = ChargeView(((0.0, 1.0), (1.0, 1.0)))
    assert integrated_counting(v, nk.RadialWindow(0.0, 2.0)) == math.inf
    got = integrated_counting(v, nk.RadialWindow(1.0, 2.0))
    assert got == pytest.approx(2.0 * LN(2.0))


def test_integrated_counting_rejects_negative_mass():
    with pytest.raises(nk.NegativeMassInView):
        integrated_counting(ChargeView(((1.0, -1.0),)), nk.RadialWindow(0.5, 2.0))


@given(st.integers(min_value=1, max_value=60))
def test_integrated_counting_window_additive(seed):
    rng = np.random.default_rng((31, seed))
    v = ChargeView(tuple((float(r), float(m)) for r, m in
                         zip(rng.uniform(0.0, 5.0, size=8),
                             rng.uniform(0.0, 3.0, size=8))))
    r, R, S = 0.5, 2.0, 4.5
    whole = integrated_counting(v, nk.RadialWindow(r, S))
    split = integrated_counting(v, nk.RadialWindow(r, R)) \
        + integrated_counting(v, nk.RadialWindow(R, S))
    assert whole == pytest.approx(split, abs=1e-12)


# -- Jensen bookkeeping ----------------------------------------------------------

@given(st.integers(min_value=1, max_value=60))
def test_jensen_residual_vanishes(seed):
    model = random_model(seed, positive_only=True)
    res = jensen_residual(model, nk.RadialWindow(0.5, 4.5))
    assert abs(res) <= 1e-10


def test_jensen_residual_rejects_negative_atoms(pole_model):
    with pytest.raises(nk.NegativeMassInView):
        jensen_residual(pole_model, nk.RadialWindow(2.0, 4.0))


# -- two-radius characteristic ----------------------------------------------------

def test_diff_nevanlinna_constant_for_degree_one(pole_model, window24):
    # ln|5/(z-1)| has constant characteristic, so the window difference is 0
    for route in ("charge", "canonical"):
        got = diff_nevanlinna(pole_model, window24, route=route)
        assert got == pytest.approx(0.0, abs=2e-6)


def test_diff_nevanlinna_routes_agree():
    model = nk.from_rational(zeros=((2.0, 1),), poles=((1.0, 2),))
    w = nk.RadialWindow(3.0, 6.0)
    a = diff_nevanlinna(model, w, route="charge")
    b = diff_nevanlinna(model, w, route="canonical")
    assert a == pytest.approx(b, abs=4e-6)
    # degree-two pole at finite distance: growth is about ln(R/r) per order
    assert a > 0.5


def test_diff_nevanlinna_needs_positive_inner(pole_model):
    with pytest.raises(ValueError):
        diff_nevanlinna(pole_model, nk.RadialWindow(0.0, 4.0))
    with pytest.raises(ValueError):
        diff_nevanlinna(pole_model, nk.RadialWindow(2.0, 4.0), route="mystery")


def test_diff_nevanlinna_total_oracle(pole_model, window24):
    got = diff_nevanlinna_total(pole_model, window24)
    assert got == pytest.approx(LN(5.0 / 4.0) + LN(2.0), abs=1e-7)


def test_diff_nevanlinna_total_allows_zero_inner(pole_model):
    got = diff_nevanlinna_total(pole_model, nk.RadialWindow(0.0, 4.0))
    assert got == pytest.approx(LN(5.0 / 4.0) + LN(4.0), abs=1e-7)
    origin_pole = nk.from_rational(poles=((0.0, 1),))
    assert diff_nevanlinna_total(origin_pole, nk.RadialWindow(0.0, 2.0)) == math.inf


def test_diff_nevanlinna_total_dominates_window(pole_model, window24):
    # anchored value exceeds the plain difference by C_U at the inner radius
    t = diff_nevanlinna(pole_model, window24)
    t_anchor = diff_nevanlinna_total(pole_model, window24)
    assert t_anchor >= t - 1e-7


@given(st.integers(min_value=1, max_value=30))
def test_shift_identity(seed):
    # anchored characteristics of U and -U differ by the inner circle mean
    model = random_model(seed)
    w = nk.RadialWindow(1.5, 4.5)
    lhs = diff_nevanlinna_total(model, w, tol=1e-8)
    rhs = diff_nevanlinna_total(nk.negate(model), w, tol=1e-8) \
        + nk.circle_mean(model, w.inner)
    assert lhs == pytest.approx(rhs, abs=1e-6)


# -- classical characteristic -------------------------------------------------------

def test_classical_identity_function():
    c = classical_characteristic(zeros=((0.0, 1),), r=2.0)
    assert c.proximity == pytest.approx(LN(2.0), abs=1e-8)
    assert c.counting == 0.0
    assert c.total == pytest.approx(LN(2.0), abs=1e-8)


def test_classical_origin_pole():
    c = classical_characteristic(poles=((0.0, 1),), r=2.0)
    assert c.proximity == pytest.approx(0.0, abs=1e-8)
    assert c.counting == pytest.approx(LN(2.0))


def test_classical_pole_inside():
    # f = 1/(z-1.5) at r=2: the circle dips inside the unit disk around the
    # pole, so the proximity term is genuinely positive
    c = classical_characteristic(poles=((1.5, 1),), r=2.0)
    assert c.counting == pytest.approx(LN(2.0 / 1.5))
    assert c.proximity == pytest.approx(0.0632703831357, abs=1e-9)
    # f = 1/(z-1) at r=2 never enters that disk: proximity vanishes
    flat = classical_characteristic(poles=((1.0, 1),), r=2.0)
    assert flat.proximity == pytest.approx(0.0, abs=1e-10)


def test_classical_pole_on_circle_raises():
    with pytest.raises(nk.PoleOnCircle):
        classical_characteristic(poles=((2.0, 1),), r=2.0)
    with pytest.raises(ValueError):
        classical_characteristic(r=0.0)


def test_classical_bridge():
    # anchored two-radius value equals T(R) - T(r) + m(r) for rationals
    zeros, poles, scale = ((2.0, 1),), ((1.0, 2), (0.5j, 1)), 3.0
    model = nk.from_rational(zeros=zeros, poles=poles, scale=scale)
    r, R = 3.0, 6.0
    lhs = diff_nevanlinna_total(model, nk.RadialWindow(r, R), tol=1e-8)
    at_r = classical_characteristic(zeros, poles, scale, r=r, tol=1e-8)
    at_R = classical_characteristic(zeros, poles, scale, r=R, tol=1e-8)
    rhs = at_R.total - at_r.total + at_r.proximity
    assert lhs == pytest.approx(rhs, abs=4e-6)


def test_log_modulus_at_oracle():
    f = nk.from_rational(zeros=((2.0, 1),), poles=((1.0, 2),), scale=1.0)
    assert nk.evaluate(f, 3j) == pytest.approx(0.5 * LN(13.0) - LN(10.0), abs=1e-12)
    assert nk.evaluate(nk.from_rational(poles=((1.0, 1),)), 1.0) == math.inf


# -- CSV reporting ---------------------------------------------------------------

def test_rows_to_csv_shape():
    rows = (ReportRow("M_U", 2.0, None, 1.5, "envelope", 1e-8),
            ReportRow("T", 2.0, 4.0, 0.25, "charge", None))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].split(",") == ["M_U", "2.0", "", "1.5", "envelope", "1e-08"]
    assert lines[2].split(",") == ["T", "2.0", "4.0", "0.25", "charge", ""]
    assert text.endswith("\n")
