"""Tests for coefficients, delays, and window-integral extrema.

Oracles used here and nowhere in the package:
- scipy.integrate.quad (adaptive quadrature) for integrals,
- dense numpy grids (1e6 points per period) for essential extrema,
- hand-derived closed forms for the oscillating-coefficient windows,
- dense scans of antiderivative differences, which bound a supremum from
  below, for the extrema the package takes from structure.
"""

import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ddestab import timefn as tf

# Closed-form oracle values, derived independently of the package:
# max_t int_{t-2}^t sin^2(s) ds = 1 + sin(2)/2 (stationary where cos(2(t-1)) = 1).
SUP_SINSQ_LAG2 = 1.0 + math.sin(2.0) / 2.0
# max_t int_{t-1/2}^t sin^2(pi s) ds = 1/4 + 1/(2 pi).
SUP_SINSQ_PI_HALFLAG = 0.25 + 1.0 / (2.0 * math.pi)
# max_t |int_{t-1.1}^{t-1} sin^2(pi s) ds| = 1/20 + sin(pi/10)/(2 pi).
SUP_GAP_110_100 = 0.05 + math.sin(0.1 * math.pi) / (2.0 * math.pi)
# min_t int_t^{t+2} sin^2(s) ds = 1 - sin(2)/2.
INF_SINSQ_LEN2 = 1.0 - math.sin(2.0) / 2.0
# What a coefficient outside the library is told to be built with.
_CONSTRUCTORS = r"constant, sinsq, piecewise_constant, scaled, coeff_sum or difference"


def dense_sup(fn, lo, hi, n=1_000_000):
    ts = np.linspace(lo, hi, n)
    return max(fn(t) for t in ts)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_constructors_reject_bad_parameters():
    with pytest.raises(ValueError):
        tf.constant(-0.1)
    with pytest.raises(ValueError):
        tf.sinsq(-1.0, 1.0)
    with pytest.raises(ValueError):
        tf.sinsq(1.0, 0.0)
    with pytest.raises(ValueError):
        tf.piecewise_constant([0.0, 1.0], [1.0])  # wrong arity
    with pytest.raises(ValueError):
        tf.piecewise_constant([1.0, 1.0], [1.0, 2.0, 3.0])  # not increasing
    with pytest.raises(ValueError):
        tf.piecewise_constant([0.0], [1.0, -2.0])
    with pytest.raises(ValueError):
        tf.scaled(-2.0, tf.constant(1.0))
    with pytest.raises(ValueError):
        tf.ConstantLag(-1.0)
    with pytest.raises(ValueError):
        tf.GeneralDelay(lambda t: t, -1.0)
    with pytest.raises(ValueError):
        tf.PeriodicClass(0.0)
    with pytest.raises(ValueError):
        tf.GeneralClass(-5.0)


def test_difference_rejects_negative_combination():
    with pytest.raises(ValueError):
        tf.difference(tf.constant(0.3), tf.constant(0.4))
    with pytest.raises(ValueError):
        tf.difference(tf.sinsq(0.3, 1.0), tf.sinsq(0.6, 1.0))
    # Structurally dissimilar difference goes through the normal-form minimum.
    with pytest.raises(ValueError):
        tf.difference(tf.constant(0.3), tf.sinsq(0.9, 1.0))
    # Its peak, 1e-5 above the constant, falls between any fixed samples.
    with pytest.raises(ValueError, match="negative"):
        tf.difference(tf.constant(1.0), tf.sinsq(1.00001, 1.0, 0.006))
    # A step function is validated on every segment, however narrow.
    with pytest.raises(ValueError, match="negative at t=100.13"):
        tf.difference(tf.constant(1.0), tf.piecewise_constant([100.13, 100.15], [0.5, 1.5, 0.5]))


def test_difference_simplifies_common_shapes():
    d = tf.difference(tf.constant(1.0), tf.constant(0.3))
    assert isinstance(d, tf.ConstantCoefficient) and d.v == 0.7
    d = tf.difference(tf.sinsq(0.6, 1.0), tf.sinsq(0.3, 1.0))
    assert isinstance(d, tf.SinSqCoefficient) and d.amplitude == pytest.approx(0.3)
    a = tf.sinsq(1.0, 1.0)
    assert tf.difference(a, tf.constant(0.0)) is a


# ---------------------------------------------------------------------------
# Antiderivatives against adaptive quadrature
# ---------------------------------------------------------------------------


QUAD_CASES = [
    tf.constant(0.7),
    tf.sinsq(0.6, 1.0),
    tf.sinsq(2.5, math.pi, phase=0.4),
    tf.piecewise_constant([0.0, 1.0, 2.5], [0.5, 2.0, 0.0, 1.5]),
    tf.scaled(1.7, tf.sinsq(1.0, 2.0)),
    tf.coeff_sum([tf.constant(0.2), tf.sinsq(1.0, 1.0), tf.sinsq(0.5, 3.0)]),
    tf.difference(tf.sinsq(1.0, 1.0), tf.sinsq(0.25, 1.0)),
]


@pytest.mark.parametrize("c", QUAD_CASES, ids=lambda c: type(c).__name__)
@pytest.mark.parametrize("t1,t2", [(-1.3, 2.7), (0.0, 10.0), (3.1, 3.1)])
def test_integral_matches_adaptive_quadrature(c, t1, t2):
    expected, _ = quad(c.value, t1, t2, epsabs=1e-13, epsrel=1e-13, limit=400)
    got = c.integral(t1, t2)
    assert got == pytest.approx(expected, abs=1e-10, rel=1e-10)


def test_piecewise_accumulation_is_exact():
    rng = np.random.default_rng(7)
    widths = rng.uniform(0.1, 2.0, size=1000)
    bps = np.concatenate([[0.0], np.cumsum(widths)])
    vals = rng.uniform(0.0, 3.0, size=1002)
    c = tf.piecewise_constant(bps.tolist(), vals.tolist())
    acc = 0.0
    for i in range(1000):
        acc += vals[i + 1] * (bps[i + 1] - bps[i])
    assert c.integral(bps[0], bps[-1]) == acc  # bitwise: same accumulation order


def test_piecewise_value_is_right_continuous():
    c = tf.piecewise_constant([0.0, 1.0], [5.0, 7.0, 9.0])
    assert c.value(-0.5) == 5.0
    assert c.value(0.0) == 7.0
    assert c.value(0.999) == 7.0
    assert c.value(1.0) == 9.0


# ---------------------------------------------------------------------------
# Window integrals
# ---------------------------------------------------------------------------


def test_window_integral_constant_case():
    assert tf.window_integral(tf.constant(2.0), tf.ConstantLag(1.5), 0.0) == 3.0


def test_window_integral_periodic_multiple_is_constant():
    c = tf.sinsq(0.1, math.pi)  # period 1; window of length 6 covers 6 periods
    for t in (0.0, 0.3, 7.9, 123.456):
        assert tf.window_integral(c, tf.ConstantLag(6.0), t) == pytest.approx(0.3, abs=1e-12)


def test_window_integral_rejects_future_window():
    bad = tf.GeneralDelay(lambda t: t + 2.0, 1.0)
    with pytest.raises(tf.DomainError):
        tf.window_integral(tf.constant(1.0), bad, 0.0)


def test_general_delay_validates_lag_bound():
    d = tf.GeneralDelay(lambda t: t - 2.0, 1.0)
    with pytest.raises(tf.DomainError):
        d(0.0)


# ---------------------------------------------------------------------------
# Essential suprema / infima
# ---------------------------------------------------------------------------


def test_sup_window_integral_constant_exact():
    assert tf.sup_window_integral(tf.constant(0.7), tf.ConstantLag(2.0)) == pytest.approx(
        1.4, abs=0.0
    )


def test_sup_window_integral_sinsq_lag2():
    c = tf.sinsq(1.0, 1.0)
    got = tf.sup_window_integral(c, tf.ConstantLag(2.0))
    oracle = dense_sup(lambda t: c.integral(t - 2.0, t), 0.0, math.pi)
    assert got == pytest.approx(SUP_SINSQ_LAG2, abs=1e-9)
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got >= oracle - 1e-12


def test_sup_window_integral_sinsq_pi_halflag():
    c = tf.sinsq(1.0, math.pi)
    got = tf.sup_window_integral(c, tf.ConstantLag(0.5))
    assert got == pytest.approx(SUP_SINSQ_PI_HALFLAG, abs=1e-9)


def test_sup_info_reports_attaining_time():
    c = tf.sinsq(1.0, 1.0)
    info = tf.sup_window_integral_info(c, tf.ConstantLag(2.0))
    assert not info.horizon_limited
    assert tf.window_integral(c, tf.ConstantLag(2.0), info.argmax) == pytest.approx(
        info.value, abs=1e-9
    )


def test_sup_between_delays_gap_windows():
    c = tf.sinsq(1.0, math.pi)
    got = tf.sup_between_delays(c, tf.ConstantLag(1.5), tf.ConstantLag(1.0))
    assert got == pytest.approx(SUP_SINSQ_PI_HALFLAG, abs=1e-9)
    got_narrow = tf.sup_between_delays(c, tf.ConstantLag(1.1), tf.ConstantLag(1.0))
    assert got_narrow == pytest.approx(SUP_GAP_110_100, abs=1e-9)
    oracle = dense_sup(lambda t: abs(c.integral(t - 1.1, t - 1.0)), 0.0, 1.0)
    assert got_narrow == pytest.approx(oracle, abs=1e-6)


def test_sup_between_delays_is_symmetric():
    c = tf.sinsq(1.0, 1.0)
    d1, d2 = tf.ConstantLag(2.0), tf.IdentityDelay()
    assert tf.sup_between_delays(c, d1, d2) == pytest.approx(
        tf.sup_between_delays(c, d2, d1), abs=1e-12
    )


def test_liminf_forward_integral():
    c = tf.sinsq(1.0, 1.0)
    got = tf.liminf_forward_integral(c, 2.0)
    assert got == pytest.approx(INF_SINSQ_LEN2, abs=1e-9)
    assert tf.liminf_forward_integral(tf.constant(0.7), 3.0) == pytest.approx(2.1, abs=1e-12)
    with pytest.raises(ValueError):
        tf.liminf_forward_integral(c, 0.0)


def test_step_rate_scan_is_flagged_only_under_a_horizon():
    c = tf.piecewise_constant([0.0, 5.0], [0.2, 1.0, 0.4])
    info = tf.sup_window_integral_info(c, tf.ConstantLag(2.0))
    assert not info.horizon_limited
    # The largest lag-2 window sits entirely inside the value-1.0 band.
    assert info.value == pytest.approx(2.0, abs=1e-9)
    assert tf.sup_window_integral_info(c, tf.ConstantLag(2.0), horizon=10.0).horizon_limited


def test_general_delay_window_is_read_through_its_lag_envelope():
    c = tf.sinsq(1.0, 1.0)  # its normal form bounds it by 1
    d = tf.GeneralDelay(lambda t: t - 1.0 - 0.5 * math.sin(t) ** 2, 1.5)
    for horizon, limited in ((None, False), (4.0 * math.pi, True)):
        # The window at the declared lag_bound, plus the 1e-9 of the bound by
        # which a read may pass it.
        envelope = tf.sup_window_integral_info(c, tf.ConstantLag(1.5), horizon=horizon)
        info = tf.sup_window_integral_info(c, d, horizon=horizon)
        assert info == tf.SupInfo(envelope.value + 1e-9, envelope.argmax, limited)
    oracle = dense_sup(lambda t: c.integral(d(t), t), 0.0, 4.0 * math.pi, n=200_000)
    assert oracle <= info.value <= oracle + 0.1


@pytest.mark.parametrize("horizon", [None, 40.0])
def test_general_delay_gap_is_read_through_its_lag_envelope(horizon):
    # A signed difference touches 0; its dip below 0 (rounding's alone, if
    # any), times the lag, joins the bound.
    signed = tf.difference(tf.constant(0.4), tf.sinsq(0.4, 2.0))
    eps = max(0.0, -tf._least(tf._normal_form((1.0, signed)), -math.inf, math.inf)[1])
    d = tf.GeneralDelay(lambda t: t - 1.0 - 0.5 * math.sin(t) ** 2, 1.5)
    # Both ends lie in [t - far, t], far the larger lag bound.
    for c, other, far, dip in ((tf.sinsq(1.0, 1.0), tf.ConstantLag(2.5), 2.5, 0.0),
                               (signed, tf.ConstantLag(0.4), 1.5, eps)):
        top = tf.sup_window_integral_info(c, tf.ConstantLag(far), horizon=horizon)
        bound = tf._normal_form((1.0, c)).bound
        info = tf.sup_between_delays_info(c, d, other, horizon=horizon)
        expected = max(top.value, 0.0) + far * dip + 1e-9 * bound
        assert info == tf.SupInfo(expected, top.argmax, horizon is not None)
        scan = dense_sup(lambda t: abs(c.integral(d(t), other(t))), 0.0, 40.0, n=20_000)
        assert scan <= info.value


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -5.0])
def test_explicit_horizon_must_be_finite_and_positive(horizon):
    # A plain ValueError: criteria reads a ConfigurationError as missing
    # structure and would write an Inconclusive certificate instead.
    with pytest.raises(ValueError) as err:
        tf.sup_window_integral(tf.sinsq(1.0, 1.0), tf.ConstantLag(2.0), horizon=horizon)
    assert not isinstance(err.value, tf.ConfigurationError)


# ---------------------------------------------------------------------------
# Ratio and value extrema, means, vanishing
# ---------------------------------------------------------------------------


def test_ratio_extrema_proportional_is_exact():
    hi, lo = tf.ratio_extrema(tf.sinsq(0.6, 1.0), tf.sinsq(1.0, 1.0))
    assert hi.value == pytest.approx(0.6, abs=1e-12)
    assert lo.value == pytest.approx(0.6, abs=1e-12)
    hi, lo = tf.ratio_extrema(tf.constant(0.3), tf.constant(0.7))
    assert hi.value == pytest.approx(3.0 / 7.0, abs=1e-15)


def test_ratio_extrema_zero_numerator():
    hi, lo = tf.ratio_extrema(tf.constant(0.0), tf.sinsq(1.0, 1.0))
    assert hi.value == 0.0 and lo.value == 0.0


def test_ratio_extrema_general_case():
    num = tf.sinsq(1.0, 1.0)
    den = tf.coeff_sum([tf.constant(1.0), tf.sinsq(1.0, 1.0)])
    hi, lo = tf.ratio_extrema(num, den)  # s/(1+s) with s in [0, 1]
    assert hi.value == pytest.approx(0.5, abs=1e-9)
    assert lo.value == pytest.approx(0.0, abs=1e-9)


def test_ratio_extrema_unbounded():
    hi, _ = tf.ratio_extrema(tf.constant(1.0), tf.sinsq(1.0, 1.0))
    assert hi.value == math.inf


def test_ratio_whose_wave_denominator_vanishes_is_pinned():
    den = tf.sinsq(1.0, 1.0)
    # A numerator that stays positive, 1 + cos^2(t), makes the supremum infinite at t = 0.
    hi, lo = tf.ratio_extrema(tf.coeff_sum([tf.constant(1.0), tf.sinsq(1.0, 1.0, math.pi / 2.0)]),
                              den)
    assert hi == tf.SupInfo(math.inf, 0.0, False)
    assert lo == tf.SupInfo(1.0, 1.5707963198096195, False)
    # One that vanishes with it, sin^2(t) (1 + 2 cos^2(t)), leaves 1 + 2 cos^2(t)
    # with the zeros of sin(t) excluded.
    hi, lo = tf.ratio_extrema(tf.coeff_sum([tf.sinsq(1.0, 1.0), tf.sinsq(0.5, 2.0)]), den)
    assert hi == tf.SupInfo(2.9999999999980003, 3.1415916533411528, False)
    assert lo == tf.SupInfo(1.0, 1.5707963198096195, False)


def test_step_only_ratio_whose_denominator_vanishes_is_read_once_per_piece(monkeypatch):
    calls = []
    golden = tf._golden_max
    monkeypatch.setattr(tf, "_golden_max", lambda *args: calls.append(args) or golden(*args))
    num = tf.piecewise_constant([5.0, 10.0, 20.0], [1.0, 2.0, 1.0, 0.5])
    den = tf.piecewise_constant([5.0, 10.0, 20.0], [1.0, 0.0, 1.0, 0.5])
    hi, lo = tf.ratio_extrema(num, den)
    assert (hi.value, hi.argmax, lo.value, lo.argmax) == (math.inf, 5.0, 1.0, 0.0)
    # Where both vanish the point is excluded; only the other pieces count.
    hi, lo = tf.ratio_extrema(tf.piecewise_constant([5.0, 10.0], [3.0, 0.0, 2.0]),
                              tf.piecewise_constant([5.0, 10.0], [1.0, 0.0, 4.0]))
    assert (hi.value, lo.value) == (3.0, 0.5)
    assert calls == []


def test_coefficient_extrema():
    hi, lo = tf.coefficient_extrema(tf.sinsq(0.8, 1.0))
    assert hi.value == pytest.approx(0.8, abs=1e-10)
    assert lo.value == pytest.approx(0.0, abs=1e-10)
    hi, lo = tf.coefficient_extrema(tf.constant(0.4))
    assert (hi.value, lo.value) == (0.4, 0.4)


def test_persistent_mean():
    assert tf.persistent_mean(tf.sinsq(0.8, 1.0)) == pytest.approx(0.4, abs=1e-12)
    assert tf.persistent_mean(tf.constant(0.4)) == 0.4
    # The tail past the last breakpoint: its one level, or its mean over a period.
    assert tf.persistent_mean(tf.piecewise_constant([0.0, 2.0], [0.0, 1.0, 0.5])) == 0.5
    c = tf.coeff_sum([tf.sinsq(0.8, 1.0), tf.piecewise_constant([0.0, 2.0], [0.0, 1.0, 0.5])])
    assert tf.persistent_mean(c) == pytest.approx(0.9, abs=1e-12)
    assert tf.persistent_mean(c, 7.0) == pytest.approx(0.9, abs=1e-12)


def test_vanishing_fraction():
    assert tf.vanishing_fraction(tf.sinsq(1.0, 1.0)) < 0.02
    assert tf.vanishing_fraction(tf.constant(0.0)) == 1.0
    # A step part is read past its last breakpoint: zero segments before it
    # are a null fraction of all t >= t0, however wide or narrow.
    c = tf.piecewise_constant([0.0, 6.0, 12.0], [1.0, 0.0, 1.0, 1.0])
    assert tf.vanishing_fraction(c) == 0.0
    c = tf.piecewise_constant([1.0, 1.01, 30.0], [1.0, 0.0, 1.0, 1.0])
    assert tf.vanishing_fraction(c) == 0.0
    c = tf.piecewise_constant([1.0, 1.01, 30.0], [1.0, 0.0, 1.0, 0.0])
    assert tf.vanishing_fraction(c) == 1.0


# ---------------------------------------------------------------------------
# Delay algebra
# ---------------------------------------------------------------------------


def test_delay_min_max_constant_lags():
    d = tf.delay_min(tf.ConstantLag(1.0), tf.ConstantLag(3.0), tf.IdentityDelay())
    assert isinstance(d, tf.ConstantLag) and d.lag == 3.0
    d = tf.delay_max(tf.ConstantLag(1.0), tf.ConstantLag(3.0), tf.IdentityDelay())
    assert isinstance(d, tf.IdentityDelay)
    d = tf.delay_max(tf.ConstantLag(1.0), tf.ConstantLag(3.0))
    assert isinstance(d, tf.ConstantLag) and d.lag == 1.0


def test_delay_min_max_general():
    g = tf.GeneralDelay(lambda t: t - 1.0 - 0.5 * abs(math.sin(t)), 1.5)
    d = tf.delay_min(g, tf.ConstantLag(1.2))
    assert isinstance(d, tf.GeneralDelay)
    assert d(0.0) == pytest.approx(-1.2)
    assert d(math.pi / 2.0) == pytest.approx(math.pi / 2.0 - 1.5)


def test_equal_delay_envelopes_share_one_search():
    g = tf.GeneralDelay(lambda t: t - 1.0 - 0.5 * abs(math.sin(t)), 1.5)
    envelopes = [tf.delay_min(g, tf.ConstantLag(1.1)) for _ in range(2)]
    assert envelopes[0] == envelopes[1] and hash(envelopes[0]) == hash(envelopes[1])
    assert envelopes[0] != tf.delay_max(g, tf.ConstantLag(1.1))
    c = tf.sinsq(1.0, 1.0)
    first = tf.sup_window_integral_info(c, envelopes[0], horizon=10.0)
    again = tf.sup_window_integral_info(c, envelopes[1], horizon=10.0)
    info = tf.sup_window_integral_info.cache_info()
    assert (info.hits, info.misses) == (1, 1) and again == first


_PULSE = tf.piecewise_constant([2.0, 5.0], [0.5, 1.5, 0.25])
_BEAT = [tf.sinsq(1.0, 1.0), tf.sinsq(1.0, math.sqrt(2.0))]


@pytest.mark.parametrize("build, expected", [
    (lambda: tf.constant(2.0), tf.ConstantClass()),
    # 2 pi / (2 w) keeps the bits of pi / w.
    (lambda: tf.sinsq(1.3, 0.7, 0.2), tf.PeriodicClass(math.pi / 0.7)),
    (lambda: tf.sinsq(0.0, 0.7), tf.ConstantClass()),
    (lambda: tf.piecewise_constant([1.0, 2.0], [0.5, 0.5, 0.5]), tf.ConstantClass()),
    # The transient ends at the last breakpoint where the level changes.
    (lambda: _PULSE, tf.ConstantClass(5.0)),
    (lambda: tf.piecewise_constant([-9.0, -0.5], [1.0, 0.0, 1.0]), tf.ConstantClass(-0.5)),
    (lambda: tf.piecewise_constant([1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 1.0]), tf.ConstantClass(1.0)),
    (lambda: tf.scaled(0.0, _PULSE), tf.ConstantClass()),
    # Periods 1 and 0.5 share the period 1.
    (lambda: tf.coeff_sum([tf.sinsq(1.0, math.pi), tf.sinsq(2.0, 2.0 * math.pi)]),
     tf.PeriodicClass(1.0)),
    (lambda: tf.coeff_sum([tf.sinsq(1.0, 1.0), _PULSE]), tf.PeriodicClass(math.pi, 5.0)),
    (lambda: tf.coeff_sum(_BEAT), tf.ConfigurationError),
    # Steps beside incommensurate waves are refused as the waves alone are,
    # however the sum is bracketed.
    (lambda: tf.coeff_sum(_BEAT + [_PULSE]), tf.ConfigurationError),
    (lambda: tf.coeff_sum([tf.coeff_sum(_BEAT), _PULSE]), tf.ConfigurationError),
    # Parts that cancel exactly leave a constant.
    (lambda: tf.difference(tf.coeff_sum([_PULSE, tf.constant(1.0)]), _PULSE), tf.ConstantClass()),
    (lambda: tf.difference(tf.coeff_sum([tf.sinsq(0.5, 1.0), tf.constant(1.0)]),
                           tf.sinsq(0.5, 1.0)), tf.ConstantClass()),
], ids=["constant", "sinsq", "sinsq_amplitude_0", "equal_steps", "steps", "negative_steps",
        "equal_tail_steps", "scaled_by_0", "periods_1_and_half", "steps_and_waves",
        "incommensurate", "flat_bracketing", "nested_bracketing", "cancelling_steps", "cancelling_waves"])
def test_asymptotic_class_is_read_off_the_normal_form(build, expected):
    if expected is tf.ConfigurationError:
        # The periods are named at full precision.
        with pytest.raises(expected, match=re.escape("periods %r, %r" % (
                math.pi, math.pi / math.sqrt(2.0)))):
            build().asymptotic_class
    else:
        assert build().asymptotic_class == expected


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    amp=st.floats(0.05, 3.0),
    freq=st.floats(0.2, 4.0),
    lag=st.floats(0.01, 5.0),
    t=st.floats(0.0, 50.0),
)
def test_property_sup_dominates_samples(amp, freq, lag, t):
    c = tf.sinsq(amp, freq)
    sup = tf.sup_window_integral(c, tf.ConstantLag(lag))
    assert tf.window_integral(c, tf.ConstantLag(lag), t) <= sup + 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=st.floats(-20.0, 20.0), k=st.integers(-5, 5))
def test_property_periodic_window_shift(t, k):
    c = tf.sinsq(1.3, 1.0)
    period = math.pi
    w1 = tf.window_integral(c, tf.ConstantLag(2.0), t)
    w2 = tf.window_integral(c, tf.ConstantLag(2.0), t + k * period)
    assert w1 == pytest.approx(w2, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scale=st.floats(0.01, 20.0), lag=st.floats(0.1, 4.0))
def test_property_sup_scales_linearly(scale, lag):
    c = tf.sinsq(1.0, 1.0)
    base = tf.sup_window_integral(c, tf.ConstantLag(lag))
    scaled_sup = tf.sup_window_integral(tf.scaled(scale, c), tf.ConstantLag(lag))
    assert scaled_sup == pytest.approx(scale * base, rel=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lag1=st.floats(0.0, 4.0), lag2=st.floats(0.0, 4.0))
def test_property_sup_monotone_in_lag(lag1, lag2):
    lo, hi = sorted((lag1, lag2))
    c = tf.sinsq(1.0, 1.0)
    s_lo = tf.sup_window_integral(c, tf.ConstantLag(lo))
    s_hi = tf.sup_window_integral(c, tf.ConstantLag(hi))
    assert s_lo <= s_hi + 1e-12


def test_repeated_search_is_a_memo_hit():
    c, lag = tf.sinsq(0.7, 1.3, 0.2), tf.ConstantLag(1.7)
    first = tf.sup_window_integral_info(c, lag, 0.0, horizon=None)
    hits = tf.sup_window_integral_info.cache_info().hits
    again = tf.sup_window_integral_info(
        tf.sinsq(0.7, 1.3, 0.2), tf.ConstantLag(1.7), 0.0, horizon=None
    )
    assert tf.sup_window_integral_info.cache_info().hits == hits + 1
    assert again == first == tf.sup_window_integral_info.__wrapped__(c, lag)
    assert tf.sup_window_integral(c, lag) == first.value
    assert tf.sup_window_integral_info.cache_info().hits == hits + 2


_REIMPORT = """
import gc, importlib, sys, weakref
refs = []
for _ in range(5):
    for name in [m for m in sys.modules if m == "ddestab" or m.startswith("ddestab.")]:
        del sys.modules[name]
    importlib.import_module("ddestab.cli")
    refs.append(weakref.ref(sys.modules["ddestab.timefn"]))
gc.collect()
print(sum(ref() is not None for ref in refs))
"""


def test_reimported_modules_are_freed():
    # A module-level typing.Union alias stays in typing's subscription cache,
    # and with it every module set imported again (as a benchmark's setup does).
    src = os.path.dirname(os.path.dirname(os.path.abspath(tf.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "1"


def test_memo_never_shares_general_delays_of_equal_code():
    def lagged(lag):
        return tf.GeneralDelay(lambda t: t - lag, lag)

    c = tf.sinsq(1.0, 1.0)
    near, far = lagged(0.5), lagged(2.0)
    assert near.fn.__code__ is far.fn.__code__ and near != far
    misses = tf.sup_window_integral_info.cache_info().misses
    s_near = tf.sup_window_integral_info(c, near, horizon=20.0)
    s_far = tf.sup_window_integral_info(c, far, horizon=20.0)
    assert tf.sup_window_integral_info.cache_info().misses == misses + 2
    assert s_near == tf.sup_window_integral_info.__wrapped__(c, near, horizon=20.0)
    assert s_far == tf.sup_window_integral_info.__wrapped__(c, far, horizon=20.0)
    assert s_near.value < s_far.value


# ---------------------------------------------------------------------------
# Window extrema from the normal form: closed forms, kinks, stationary points
# ---------------------------------------------------------------------------


def antiderivative_scan(c, fn_of_anti, lo, hi, n=4096):
    """Values of a window integral, built from c.antiderivative, on n + 1 points."""
    return [fn_of_anti(c.antiderivative, lo + (hi - lo) * k / n) for k in range(n + 1)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    amp=st.floats(0.05, 5.0),
    freq=st.floats(0.2, 6.0),
    phase=st.floats(0.0, math.pi),
    lag=st.floats(0.01, 6.0),
    short=st.floats(0.0, 3.0),
    plateau=st.integers(0, 3),
)
def test_property_sinsq_closed_forms_bracket_a_dense_scan(amp, freq, phase, lag, short, plateau):
    c = tf.sinsq(amp, freq, phase)
    if plateau:
        lag = plateau * math.pi / freq  # w L = k pi: the window integral is constant
    period = math.pi / freq
    h = (period + lag + short) / 4096
    # A 4097-point scan of a smooth window integral misses the extremum by at
    # most half its second derivative, 2 A w |sin w L|, times (h/2)^2.
    slack = amp * freq * h * h / 4.0 + 1e-9
    sups = [
        (tf.sup_window_integral_info(c, tf.ConstantLag(lag)),
         lambda F, t: F(t) - F(t - lag), lag),
        (tf.sup_between_delays_info(c, tf.ConstantLag(short + lag), tf.ConstantLag(short)),
         lambda F, t: abs(F(t - short) - F(t - short - lag)), lag + short),
    ]
    for info, fn, pad in sups:
        scan = max(antiderivative_scan(c, fn, 0.0, period + pad))
        assert scan <= info.value + 1e-9
        assert info.value - scan <= slack
        assert info.argmax >= 0.0
        assert fn(c.antiderivative, info.argmax) == pytest.approx(info.value, abs=1e-9)
    inf = tf.liminf_forward_integral_info(c, lag)
    scan = min(antiderivative_scan(c, lambda F, t: F(t + lag) - F(t), 0.0, period + lag))
    assert inf.value <= scan + 1e-9
    assert scan - inf.value <= slack
    assert inf.value >= 0.0 and inf.argmax >= 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    base=st.floats(0.1, 1.0),
    height=st.floats(1.5, 5.0),
    start=st.floats(1.0, 490.0),
    width_cells=st.floats(0.01, 0.9),
    lag_cells=st.floats(0.01, 0.9),
)
def test_property_step_window_sup_finds_a_spike_narrower_than_a_grid_cell(
    base, height, start, width_cells, lag_cells
):
    # The scan span is the analysis horizon 500 plus the lag; the spike and
    # the lag are both narrower than 1/1024 of it.
    cell = 500.0 / 1024
    width, lag = width_cells * cell, lag_cells * cell
    c = tf.piecewise_constant([start, start + width, 500.0], [base, height, base, base])
    info = tf.sup_window_integral_info(c, tf.ConstantLag(lag))

    def window(F, t):
        return F(t) - F(t - lag)

    scan = antiderivative_scan(c, window, 0.0, 500.0 + lag)
    scan += antiderivative_scan(c, window, start - 1.0, start + 1.0)
    assert max(scan) <= info.value + 1e-12
    assert info.value == pytest.approx(height * min(width, lag) + base * max(lag - width, 0.0),
                                       rel=1e-9)


def test_step_extrema_see_every_segment():
    c = tf.piecewise_constant([100.0, 100.01, 300.0], [1.0, 4.0, 1.0, 0.5])
    hi, lo = tf.coefficient_extrema(c)
    assert (hi.value, lo.value) == (4.0, 0.5)
    hi, lo = tf.ratio_extrema(c, tf.coeff_sum([tf.constant(1.0), c]))
    assert (hi.value, lo.value) == (0.8, 0.5 / 1.5)
    assert tf.liminf_forward_integral(c, 0.001) == pytest.approx(0.0005, rel=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    amp=st.floats(0.05, 5.0),
    freq=st.floats(0.2, 6.0),
    phase=st.floats(0.0, math.pi),
    lag=st.floats(0.01, 6.0),
    short=st.floats(0.0, 3.0),
    t0=st.floats(0.0, 5.0),
    periods=st.floats(0.2, 3.0),
)
def test_property_sinsq_extrema_under_a_horizon_bracket_a_dense_scan(
    amp, freq, phase, lag, short, t0, periods
):
    # A horizon of at least one period takes the closed form; a shorter one
    # keeps the search. Either way the range is [t0, t0 + horizon + pad].
    c = tf.sinsq(amp, freq, phase)
    horizon = periods * math.pi / freq
    slack = amp * freq * ((horizon + lag + short) / 4096) ** 2 / 4.0 + 1e-9
    searches = [
        (tf.sup_window_integral_info(c, tf.ConstantLag(lag), t0, horizon=horizon),
         lambda F, t: F(t) - F(t - lag), lag, max),
        (tf.sup_between_delays_info(c, tf.ConstantLag(short + lag), tf.ConstantLag(short), t0,
                                    horizon=horizon),
         lambda F, t: abs(F(t - short) - F(t - short - lag)), lag + short, max),
        (tf.liminf_forward_integral_info(c, lag, t0, horizon=horizon),
         lambda F, t: F(t + lag) - F(t), lag, min),
    ]
    for info, fn, pad, extremum in searches:
        sign = 1.0 if extremum is max else -1.0
        scan = extremum(antiderivative_scan(c, fn, t0, t0 + horizon + pad))
        assert sign * (scan - info.value) <= 1e-9
        assert sign * (info.value - scan) <= slack
        assert info.horizon_limited
        assert t0 <= info.argmax <= t0 + horizon + pad
        assert fn(c.antiderivative, info.argmax) == pytest.approx(info.value, abs=1e-9)


def test_sinsq_over_a_horizon_of_a_period_or_more_is_not_searched(monkeypatch):
    calls = []
    anti = tf.SinSqCoefficient.antiderivative

    def counted(self, t):
        calls.append(t)
        return anti(self, t)

    monkeypatch.setattr(tf.SinSqCoefficient, "antiderivative", counted)
    c = tf.sinsq(0.8, 1.3)
    period = math.pi / 1.3
    infos = [
        tf.liminf_forward_integral_info.__wrapped__(c, period, horizon=40.0),
        tf.sup_window_integral_info.__wrapped__(c, tf.ConstantLag(0.7), horizon=40.0),
        tf.sup_between_delays_info.__wrapped__(
            c, tf.ConstantLag(0.7), tf.ConstantLag(0.2), horizon=40.0
        ),
    ]
    assert calls == []
    assert all(info.horizon_limited for info in infos)
    # One period over a shorter horizon is still searched.
    tf.liminf_forward_integral_info.__wrapped__(c, period, horizon=0.5 * period)
    assert calls


def test_gap_ending_at_t_is_the_window_for_a_nonnegative_coefficient():
    lag = tf.GeneralDelay(lambda t: t - 1.0 - 0.5 * math.sin(t) ** 2, 1.5)
    pulse = tf.piecewise_constant([3.0, 3.2], [0.1, 2.0, 0.1])
    for c in (tf.sinsq(0.9, 1.2, 0.3), tf.coeff_sum([tf.scaled(2.0, tf.sinsq(0.4, 0.7)), pulse])):
        gap = tf.sup_between_delays_info(c, lag, tf.IdentityDelay(), 0.5, horizon=12.0)
        assert gap == tf.sup_window_integral_info(c, lag, 0.5, horizon=12.0)

    # A class of the caller's own has no normal form to vouch for its sign: refused.
    @dataclass(frozen=True)
    class MinusOne(tf.Coefficient):
        def value(self, t):
            return -1.0

        def antiderivative(self, t):
            return -t

        @property
        def asymptotic_class(self):
            return tf.ConstantClass()

    with pytest.raises(TypeError, match=_CONSTRUCTORS):
        tf.sup_window_integral_info(MinusOne(), lag, horizon=12.0)
    with pytest.raises(TypeError, match=_CONSTRUCTORS):
        tf.sup_between_delays_info(MinusOne(), lag, tf.IdentityDelay(), horizon=12.0)
    # A signed combination is nonnegative only within a tolerance: its gap is read apart.
    signed = tf.difference(tf.constant(1.0), tf.sinsq(0.5, 1.0))
    misses = tf.sup_window_integral_info.cache_info().misses
    tf.sup_between_delays_info(signed, lag, tf.IdentityDelay(), horizon=12.0)
    assert tf.sup_window_integral_info.cache_info().misses == misses


def test_mixture_window_search_sees_the_kinks_of_a_step_summand():
    # A 0.05-wide pulse on sinsq is narrower than a grid cell of the 250-long
    # scan; the lag-0.05 window that covers it was stepped over.
    pulse = tf.piecewise_constant([250.37, 250.42], [0.0, 1.0, 0.0])
    c = tf.coeff_sum([tf.sinsq(0.5, 1.0), pulse])
    info = tf.sup_window_integral_info(c, tf.ConstantLag(0.05))
    scan = max(antiderivative_scan(c, lambda F, t: F(t) - F(t - 0.05), 250.3, 250.5))
    assert scan > 0.066
    assert scan <= info.value + 1e-12
    gap = tf.sup_between_delays_info(c, tf.ConstantLag(1.05), tf.ConstantLag(1.0))
    assert scan <= gap.value + 1e-12
    # A 0.05-wide hole in a unit floor: the lowest forward window is the hole.
    hole = tf.piecewise_constant([250.37, 250.42], [1.0, 0.0, 1.0])
    inf = tf.liminf_forward_integral_info(tf.coeff_sum([tf.sinsq(0.5, 1.0), hole]), 0.05)
    in_hole = 0.5 * (0.025 - (math.sin(2 * 250.42) - math.sin(2 * 250.37)) / 4)
    assert inf.value == pytest.approx(in_hole, abs=1e-9)


def test_mixture_extrema_see_every_segment_of_a_step_summand():
    # ratio_extrema is checked through check_nondelay_dominant in test_criteria.
    pulse = tf.piecewise_constant([250.37, 250.39], [0.0, 1.0, 0.0])
    b = tf.coeff_sum([tf.sinsq(0.5, 1.0), pulse])
    hi, _ = tf.coefficient_extrema(b)
    assert max(b.value(250.37 + 0.02 * k / 100) for k in range(100)) <= hi.value


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


@st.composite
def commensurate_sums(draw, base):
    """A sum of sinsq terms at multiples of base, maybe with a step summand."""
    terms = [
        tf.sinsq(draw(st.floats(0.05, 2.0)), base * draw(st.integers(1, 4)),
                 draw(st.floats(0.0, math.pi)))
        for _ in range(draw(st.integers(2, 4)))
    ]
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 10.0))
        width = draw(st.floats(0.01, 2.0))
        terms.append(tf.piecewise_constant([start, start + width, 12.0],
                                           [draw(st.floats(0.0, 1.0)) for _ in range(4)]))
    return tf.coeff_sum(terms)


def _scan_range(c, t0=0.0, horizon=None, pad=0.0):
    """A range an extremum must cover: the horizon plus pad, or else the
    transient plus pad and one tail period past it (a unit for a constant tail)."""
    if horizon is not None:
        return t0, t0 + horizon + pad
    cls = c.asymptotic_class
    period = cls.period if isinstance(cls, tf.PeriodicClass) else 1.0
    return t0, max(t0, cls.transient_end + pad) + period


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), base=st.floats(0.3, 2.0), k=st.floats(0.01, 5.0),
       t=st.floats(-50.0, 50.0))
def test_property_normal_form_is_exact_and_encloses_a_dense_scan(data, base, k, t):
    c, d = data.draw(commensurate_sums(base)), data.draw(commensurate_sums(base))
    nf = tf._normal_form((1.0, c))
    assert nf.level(t) + nf.trig(t) == pytest.approx(c.value(t), abs=1e-12 * nf.bound)
    assert tf.proportional_ratio(tf.scaled(k, c), c) == k
    lo, hi = _scan_range(c)
    c_hi, c_lo = tf.coefficient_extrema(c)
    values = [c.value(lo + (hi - lo) * j / 4096) for j in range(4097)]
    assert c_lo.value <= min(values) and max(values) <= c_hi.value
    # Stationary points are found, not stepped over: the scan comes within
    # its own resolution of each extremum.
    assert c_hi.value - max(values) <= 1e-3 * nf.bound
    assert min(values) - c_lo.value <= 1e-3 * nf.bound
    den = tf.coeff_sum([tf.constant(0.25), d])
    lo, hi = _scan_range(tf.coeff_sum([c, den]))
    r_hi, r_lo = tf.ratio_extrema(c, den)
    ratios = [c.value(s) / den.value(s) for s in np.linspace(lo, hi, 4097)]
    assert r_lo.value <= min(ratios) and max(ratios) <= r_hi.value


def test_normal_form_decides_shape_questions_without_sampling(monkeypatch):
    calls = []
    value = tf.SinSqCoefficient.value

    def counted(self, t):
        calls.append(t)
        return value(self, t)

    monkeypatch.setattr(tf.SinSqCoefficient, "value", counted)
    from ddestab import models as md

    a, b = tf.sinsq(0.9, 1.0, 0.3), tf.sinsq(0.3, 1.0, 0.3)
    assert tf.proportional_ratio(b, a) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert tf.proportional_ratio(tf.sinsq(0.3, 2.0), a) is None
    assert tf.vanishing_fraction(tf.coeff_sum([a, tf.constant(0.0)])) == 0.0
    tf.difference(tf.constant(1.5), tf.coeff_sum([a, b]))
    md.linearize(md.ex51())
    assert len(calls) <= 4


def test_extrema_of_several_frequencies_come_from_the_companion_matrix():
    # sin^2(t) + sin^2(2t) peaks where cos(2t) + cos(4t) is least:
    # cos(2t) = -1/4, giving 1 - (2 (1/16) - 1 - 1/4)/2 = 1.5625.
    c = tf.coeff_sum([tf.sinsq(1.0, 1.0), tf.sinsq(1.0, 2.0)])
    hi, lo = tf.coefficient_extrema(c)
    assert hi.value == pytest.approx(1.5625, abs=1e-14) and hi.value >= 1.5625
    assert -1e-14 <= lo.value <= 0.0
    assert c.value(hi.argmax) == pytest.approx(1.5625, abs=1e-14)
    # Values read at a stationary point are moved outward, not trusted to the last bit.
    assert hi.value > c.value(hi.argmax) and lo.value < c.value(lo.argmax)


def test_steps_beside_incommensurate_waves_are_refused():
    # Past the step, sqrt(2) and 1 mix as they do alone: no one period shows
    # every value. Proportionality and vanishing are still exact.
    c = tf.coeff_sum([tf.sinsq(1.0, 1.0), tf.sinsq(1.0, math.sqrt(2.0)),
                      tf.piecewise_constant([5.0], [0.0, 0.5])])
    assert tf.proportional_ratio(tf.scaled(2.0, c), c) == 2.0
    assert tf.vanishing_fraction(c) == 0.0
    for read in (lambda: c.asymptotic_class, lambda: tf._harmonics(tf._normal_form((1.0, c))),
                 lambda: tf.coefficient_extrema(c), lambda: tf.persistent_mean(c)):
        with pytest.raises(tf.ConfigurationError, match="no common period"):
            read()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), base=st.floats(0.3, 2.0), lag=st.floats(0.01, 3.0),
       short=st.floats(0.0, 2.0), t0=st.floats(0.0, 5.0),
       horizon=st.one_of(st.none(), st.floats(0.5, 15.0)))
def test_property_window_extrema_of_sums_bracket_a_dense_scan(data, base, lag, short, t0, horizon):
    c = data.draw(commensurate_sums(base))
    # W is Lipschitz with constant 2 max|c|, so a scan at spacing h comes
    # within max|c| h of each extremum.
    bound = tf._normal_form((1.0, c)).bound
    searches = [
        (tf.sup_window_integral_info(c, tf.ConstantLag(lag), t0, horizon=horizon),
         lambda F, t: F(t) - F(t - lag), lag, max),
        (tf.sup_between_delays_info(c, tf.ConstantLag(short + lag), tf.ConstantLag(short), t0,
                                    horizon=horizon),
         lambda F, t: abs(F(t - short) - F(t - short - lag)), lag + short, max),
        (tf.liminf_forward_integral_info(c, lag, t0, horizon=horizon),
         lambda F, t: F(t + lag) - F(t), lag, min),
    ]
    for info, fn, pad, extremum in searches:
        lo, hi = _scan_range(c, t0, horizon, pad)
        scan = extremum(antiderivative_scan(c, fn, lo, hi, 2048))
        sign = 1.0 if extremum is max else -1.0
        assert sign * (scan - info.value) <= 1e-9
        assert sign * (info.value - scan) <= bound * (hi - lo) / 2048 + 1e-9
        assert lo <= info.argmax <= hi
        assert fn(c.antiderivative, info.argmax) == pytest.approx(info.value, abs=1e-9)


def test_window_extrema_at_constant_lags_are_never_searched(monkeypatch):
    calls = []
    golden = tf._golden_max

    def counted(*args):
        calls.append(args)
        return golden(*args)

    monkeypatch.setattr(tf, "_golden_max", counted)
    pulse = tf.piecewise_constant([250.37, 250.42], [0.0, 1.0, 0.0])
    near, far = tf.ConstantLag(1.0), tf.ConstantLag(1.05)
    for c in (tf.coeff_sum([tf.sinsq(0.5, 1.0), pulse]),
              tf.coeff_sum([tf.sinsq(1.0, 1.0), tf.sinsq(0.7, 2.0, 0.4)])):
        tf.sup_window_integral_info(c, tf.ConstantLag(0.05))
        tf.sup_between_delays_info(c, far, near)
        tf.liminf_forward_integral_info(c, 0.05)
    signed = tf.difference(tf.constant(1.0), tf.sinsq(0.5, 1.0))
    gap = tf.sup_between_delays_info(signed, far, near)
    assert calls == []
    # 1 - sin^2(s)/2 over a 0.05-long gap is largest where sin(s) = 0.
    top = max(antiderivative_scan(signed, lambda F, t: F(t - 1.0) - F(t - 1.05), 0.0, math.pi))
    assert top <= gap.value <= top + 1e-6


def test_windows_and_domination_beside_incommensurate_waves_are_refused():
    # No grid search stands in for the missing period, with or without a
    # horizon, and domination is not decided on one either.
    pulse = tf.piecewise_constant([250.37, 250.39], [0.0, 10.0, 0.0])
    c = tf.coeff_sum([tf.sinsq(1.0, 1.0), tf.sinsq(1.0, math.sqrt(2.0)), pulse])
    for horizon in (None, 300.0):
        for search in (
            lambda: tf.sup_window_integral_info(c, tf.ConstantLag(0.02), horizon=horizon),
            lambda: tf.sup_between_delays_info(c, tf.ConstantLag(1.02), tf.ConstantLag(1.0),
                                               horizon=horizon),
            lambda: tf.liminf_forward_integral_info(c, 0.02, horizon=horizon),
        ):
            with pytest.raises(tf.ConfigurationError, match="no common period"):
                search()
    with pytest.raises(tf.ConfigurationError, match="no common period"):
        tf.difference(tf.constant(3.0), c)


class _OwnHalf(tf.Coefficient):
    """The constant 0.5 as a class of the caller's own, hashed by identity."""

    def value(self, t):
        return 0.5

    def antiderivative(self, t):
        return 0.5 * t

    @property
    def asymptotic_class(self):
        return tf.ConstantClass()


@dataclass  # compares by value, so it has no hash
class _UnhashableHalf(_OwnHalf):
    pass


class _SubSinSq(tf.SinSqCoefficient):
    """A subclass of a library class, which may redefine anything."""


# Memoized searches hash their arguments first, so an unhashable class meets
# the memo's own TypeError before any normal form is taken.
_MEMOIZED = {"sup_window_integral", "sup_window_integral_general", "sup_between_delays",
             "liminf_forward_integral", "ratio_extrema", "coefficient_extrema"}
_SEARCHES = {
    "sup_window_integral": lambda c: tf.sup_window_integral(c, tf.ConstantLag(1.0)),
    "sup_window_integral_general": lambda c: tf.sup_window_integral(
        c, tf.GeneralDelay(lambda t: t - 1.0, 1.0), horizon=10.0),
    "sup_between_delays": lambda c: tf.sup_between_delays(c, tf.ConstantLag(1.5),
                                                          tf.ConstantLag(0.5)),
    "liminf_forward_integral": lambda c: tf.liminf_forward_integral(c, 1.0),
    "ratio_extrema": lambda c: tf.ratio_extrema(tf.constant(1.0), c),
    "coefficient_extrema": lambda c: tf.coefficient_extrema(c),
    "domination_violation": lambda c: tf.domination_violation([tf.constant(1.0)], [c]),
    "proportional_ratio": lambda c: tf.proportional_ratio(c, tf.constant(1.0)),
    "vanishing_fraction": lambda c: tf.vanishing_fraction(c),
}


def test_coefficient_class_of_its_own_may_be_unhashable():
    from ddestab import criteria as cr

    assert _UnhashableHalf.__hash__ is None
    with pytest.raises(TypeError, match=_CONSTRUCTORS + r" \(unhashable type: '_UnhashableHalf'\)"):
        tf._normal_form((1.0, _UnhashableHalf()))
    # With no negative side there is no domination to decide, and the solver
    # integrates the class through its value.
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(_UnhashableHalf(), tf.ConstantLag(1.0))])
    assert eq.positive_terms[0].coeff == _UnhashableHalf()
    with pytest.raises(TypeError, match=_CONSTRUCTORS):
        cr.LinearDelayEquation(positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())],
                               negative_terms=[cr.Term(_UnhashableHalf(), tf.ConstantLag(1.0))])


@pytest.mark.parametrize("wrap", [lambda c: c, lambda c: tf.scaled(2.0, c)], ids=["bare", "scaled"])
@pytest.mark.parametrize("own", [_OwnHalf(), _UnhashableHalf(), _SubSinSq(0.5, 1.0)],
                         ids=["own", "unhashable", "subclass"])
@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_a_coefficient_outside_the_library_has_no_normal_form_and_is_refused(search, own, wrap):
    c = wrap(own)
    assert type(c) is not tf.SinSqCoefficient  # the scaling keeps the subclass
    match = _CONSTRUCTORS
    if type(own) is _UnhashableHalf and search in _MEMOIZED:
        match = "unhashable type: '_UnhashableHalf'"
    with pytest.raises(TypeError, match=match):
        _SEARCHES[search](c)


# ---------------------------------------------------------------------------
# Grid searches: one array pass from the normal form
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), base=st.floats(0.3, 2.0), start=st.floats(-20.0, 20.0),
       widths=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=3),
       ts=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=20))
def test_property_array_antiderivative_matches_the_coefficients_own(data, base, start, widths, ts):
    knots = [start + sum(widths[:k + 1]) for k in range(len(widths))]
    levels = [data.draw(st.floats(0.0, 2.0)) for _ in range(len(knots) + 1)]
    step = tf.piecewise_constant(knots, levels)
    c = tf.coeff_sum([data.draw(commensurate_sums(base)), step])
    nf = tf._normal_form((1.0, c))
    ts = np.array(ts)
    own = np.array([c.antiderivative(t) for t in ts])
    scale = nf.bound * (1.0 + np.abs(ts).max())
    assert np.abs(np.diff(nf.antiderivatives(ts)) - np.diff(own)).max() <= 1e-12 * scale
    assert np.abs(nf.values(ts) - [c.value(t) for t in ts]).max() <= 1e-12 * nf.bound


def test_maximize_reads_again_every_grid_point_whose_array_value_is_not_finite():
    def fn(t):
        return math.sin(t) + 0.1 * t

    def values(xs):
        # fn's own values, except NaN around the supremum and -inf or +inf
        # elsewhere: fn is finite at every one of those points.
        v = np.array([fn(x) for x in xs.tolist()])
        v[(xs > 7.0) & (xs < 8.5)] = math.nan
        v[xs < 1.0] = -math.inf
        v[(xs > 3.0) & (xs < 3.1)] = math.inf
        return v

    cls = tf.GeneralClass(10.0)
    reference = tf._maximize(fn, 0.0, cls, 0.0)
    assert 7.0 < reference.argmax < 8.5
    assert tf._maximize(fn, 0.0, cls, 0.0, values=values) == reference


def _wobble(lag, wobble, freq):
    return tf.GeneralDelay(lambda t: t - lag * (1.0 + wobble * math.sin(freq * t)),
                           lag * (1.0 + wobble))


@st.composite
def _nonnegative_coefficients(draw):
    """A sinsq, a scaled sum of two, or a sinsq plus a pulse narrower than a grid cell."""
    freq = draw(st.floats(0.3, 3.0))
    wave = tf.sinsq(draw(st.floats(0.1, 2.0)), freq, draw(st.floats(0.0, 3.0)))
    shape = draw(st.sampled_from(["sinsq", "scaled", "pulse"]))
    if shape == "sinsq":
        return wave
    if shape == "scaled":
        other = tf.sinsq(draw(st.floats(0.1, 1.0)), freq * draw(st.integers(2, 3)))
        return tf.scaled(draw(st.floats(0.1, 3.0)), tf.coeff_sum([wave, other]))
    start = draw(st.floats(1.0, 25.0))
    pulse = tf.piecewise_constant([start, start + draw(st.floats(0.005, 0.03))],
                                  [0.0, draw(st.floats(0.5, 5.0)), 0.0])
    return tf.coeff_sum([wave, pulse])


@st.composite
def _general_delays(draw):
    """A wobble delay, or its pointwise min or max with a constant lag."""
    delay = _wobble(draw(st.floats(0.3, 2.0)), draw(st.floats(0.05, 0.5)),
                    draw(st.floats(0.3, 2.0)))
    envelope = draw(st.sampled_from([None, tf.delay_min, tf.delay_max]))
    return delay if envelope is None else envelope(delay, tf.ConstantLag(draw(st.floats(0.1, 2.0))))


@st.composite
def _signed_differences(draw):
    """a - b, validated nonnegative but signed by construction: a level and a
    wave above a wave at a multiple of its frequency."""
    freq, amp = draw(st.floats(0.3, 3.0)), draw(st.floats(0.1, 2.0))
    a = tf.coeff_sum([tf.sinsq(draw(st.floats(0.1, 1.0)), freq, draw(st.floats(0.0, 3.0))),
                      tf.constant(amp + draw(st.floats(0.0, 0.5)))])
    return tf.difference(a, tf.sinsq(amp, freq * draw(st.integers(1, 3))))


def _general_searches(c, lower, other, horizon):
    """(search, fn, pad) for the window over lower and the gap between lower and other."""
    return [
        (lambda: tf.sup_window_integral_info.__wrapped__(c, lower, 0.0, horizon=horizon),
         lambda t: tf.window_integral(c, lower, t), lower.lag_bound),
        (lambda: tf.sup_between_delays_info.__wrapped__(c, lower, other, 0.0, horizon=horizon),
         lambda t: abs(c.integral(lower(t), other(t))), max(lower.lag_bound, other.lag_bound)),
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=st.one_of(_nonnegative_coefficients(), _signed_differences()), lower=_general_delays(),
       other=st.one_of(_general_delays(), st.floats(0.0, 2.5).map(tf.ConstantLag)),
       horizon=st.one_of(st.none(), st.floats(10.0, 40.0)))
def test_property_lag_envelope_bounds_a_dense_scan(c, lower, other, horizon):
    for search, fn, pad in _general_searches(c, lower, other, horizon):
        info = search()
        assert info.horizon_limited == (horizon is not None)
        # Without a horizon the bound holds for all t >= 0; 60 is a stand-in.
        lo, hi = _scan_range(c, 0.0, 60.0 if horizon is None else horizon, pad)
        assert max(fn(t) for t in np.linspace(lo, hi, 4097).tolist()) <= info.value


@pytest.mark.parametrize("horizon, verdict", [(None, "UniformExponential"), (40.0, "Asymptotic")])
def test_certification_never_calls_a_general_delay(horizon, verdict):
    from ddestab import criteria as cr
    from ddestab import models as md

    def delayed(t):
        raise AssertionError("the delay was called at t=%g" % t)

    delay = tf.GeneralDelay(delayed, 1.3)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.4, 1.2), delay)],
                                negative_terms=[cr.Term(tf.sinsq(0.1, 1.2), tf.IdentityDelay())])
    assert cr.best_verdict(cr.evaluate_all(eq, horizon=horizon)) == verdict
    rate = tf.sinsq(0.5, math.pi)
    md.check_les_removal(md.MackeyGlassRemoval(r=rate, beta=1.25, gamma=1.0, n=2.0, g=delay,
                                               h=tf.ConstantLag(1.0)), horizon=horizon)
    md.check_les_production(md.MackeyGlassProduction(s=rate, beta=2.0, n=4.0, p=delay,
                                                     q=tf.ConstantLag(2.0)), horizon=horizon)


class _OwnDelay:
    """A delayed argument of the caller's own class: lag 0.5 before t = 10, 3 after."""

    lag_bound = 3.0

    def __call__(self, t):
        return t - (0.5 if t < 10.0 else 3.0)


def test_only_the_library_delays_are_accepted():
    from ddestab import criteria as cr
    from ddestab import models as md

    # Taken as it stood, the delay needed no horizon: the search scanned one
    # period of c for S = 0.386, though the lag 3 from t = 10 on gives 1.41,
    # and the diff and ratio forms certified UniformExponential.
    own, c, b = _OwnDelay(), tf.sinsq(0.8, 1.3, 0.4), tf.sinsq(0.2, 1.3, 0.4)
    builds = [
        lambda: cr.Term(c, own),
        lambda: cr.DistributedTerm(1, c, own),
        lambda: md.MackeyGlassRemoval(r=c, beta=1.25, gamma=1.0, n=2.0, g=own,
                                      h=tf.ConstantLag(1.0)),
        lambda: tf.delay_min(own, tf.ConstantLag(1.0)),
        lambda: tf.sup_window_integral_info(c, own),
        lambda: tf.sup_between_delays_info(c, own, tf.ConstantLag(1.0)),
    ]
    for build in builds:
        with pytest.raises(TypeError, match=r"as GeneralDelay\(fn, lag_bound\)"):
            build()
    # Wrapped, it is a general delay, read through its lag envelope: at the
    # declared lag 3, S = 1.06 and V_a = 1.41, and no route certifies.
    wrapped = tf.GeneralDelay(own, own.lag_bound)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(c, wrapped)],
                                negative_terms=[cr.Term(b, tf.IdentityDelay())])
    assert {cert.verdict for cert in cr.evaluate_all(eq)} == {cr.INCONCLUSIVE}


def test_a_gap_between_a_general_delay_and_itself_is_not_searched(monkeypatch):
    from ddestab import models as md

    calls = []
    golden = tf._golden_max
    monkeypatch.setattr(tf, "_golden_max", lambda *args: calls.append(args) or golden(*args))
    c, d = tf.sinsq(0.8, 1.3, 0.4), _wobble(1.0, 0.4, 0.9)
    info = tf.sup_between_delays_info(c, d, d, horizon=40.0)
    assert not calls
    # What refining every point of the flat grid gives (1 025 golden runs).
    full = tf._maximize(lambda t: abs(c.integral(d(t), d(t))), 0.0, tf.GeneralClass(40.0),
                        d.lag_bound)
    assert info == full == tf.SupInfo(0.0, 0.0, True)
    assert tf.sup_between_delays_info(c, d, d) == tf.SupInfo(0.0, 0.0, False)
    # A removal model reading one general delay twice: 2 062 golden runs
    # when the gap was searched.
    calls.clear()
    model = md.MackeyGlassRemoval(r=tf.sinsq(1.0, 1.0, 0.3), beta=1.25, gamma=1.0, n=2.0,
                                  g=d, h=d)
    cert = md.check_les_removal(model, horizon=40.0)
    assert {q.symbol: q.value for q in cert.quantities}["V"] == 0.0
    assert len(calls) < 100


def test_general_delay_rejects_a_delayed_argument_that_is_not_a_number():
    delay = tf.GeneralDelay(
        lambda t: math.nan if t >= 20.0 else t - 1.0 - 0.4 * math.sin(0.9 * t), 1.4)
    with pytest.raises(tf.DomainError, match="at current time 20 is not a number"):
        delay(20.0)
    with pytest.raises(tf.DomainError, match="at current time 20 is not a number"):
        tf.window_integral(tf.constant(1.0), delay, 20.0)


@pytest.mark.parametrize("fn, message", [
    (lambda t: math.nan if t >= 20.0 else t - 1.0 - 0.4 * math.sin(0.9 * t), "is not a number"),
    (lambda t: t - (5.0 if t >= 20.0 else 1.0), "by more than lag_bound 1.4"),
], ids=["nan", "breaks_bound"])
def test_certification_takes_the_declared_lag_bound_and_the_solver_checks_it(fn, message):
    from ddestab import criteria as cr
    from ddestab import solver as sv

    def equation(d):
        return cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.sinsq(0.4, 1.2), d)],
            negative_terms=[cr.Term(tf.sinsq(0.1, 1.2), tf.IdentityDelay())])

    # Certification reads the declared lag_bound alone, so it neither calls
    # nor checks the delay: its certificates are those of any delay with that
    # bound. The solver checks every read, and raises at the first bad one.
    bad, plain = tf.GeneralDelay(fn, 1.4), tf.GeneralDelay(lambda t: t - 1.0, 1.4)
    for horizon in (None, 40.0):
        assert ([cert.to_dict() for cert in cr.evaluate_all(equation(bad), horizon=horizon)]
                == [cert.to_dict() for cert in cr.evaluate_all(equation(plain), horizon=horizon)])
    with pytest.raises(tf.DomainError, match=message):
        sv.integrate(equation(bad), sv.ConstantHistory(0.8), 30.0, step=0.05, initial_value=1.2)
