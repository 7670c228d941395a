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
from unittest import mock

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


def test_general_class_scan_is_flagged():
    c = tf.piecewise_constant([0.0, 5.0], [0.2, 1.0, 0.4])
    info = tf.sup_window_integral_info(c, tf.ConstantLag(2.0))
    assert info.horizon_limited
    # The largest lag-2 window sits entirely inside the value-1.0 band.
    assert info.value == pytest.approx(2.0, abs=1e-9)


def test_general_delay_requires_horizon():
    c = tf.sinsq(1.0, 1.0)
    d = tf.GeneralDelay(lambda t: t - 1.0 - 0.5 * math.sin(t) ** 2, 1.5)
    with pytest.raises(tf.ConfigurationError):
        tf.sup_window_integral(c, d)
    got = tf.sup_window_integral(c, d, horizon=4.0 * math.pi)
    oracle = dense_sup(lambda t: c.integral(d(t), t), 0.0, 4.0 * math.pi, n=200_000)
    assert got == pytest.approx(oracle, abs=1e-6)


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


class _OwnPeriodic(tf.Coefficient):
    """A periodic coefficient of the caller's own: no normal form, so it is searched."""

    def __init__(self, fn, period):
        self.fn, self.period = fn, period

    def value(self, t):
        return self.fn(t)

    @property
    def asymptotic_class(self):
        return tf.PeriodicClass(self.period)


def test_ratio_of_own_classes_whose_denominator_vanishes_is_pinned():
    den = _OwnPeriodic(lambda t: math.sin(t) ** 2, math.pi)
    # A numerator that stays positive makes the supremum infinite at t = 0.
    hi, lo = tf.ratio_extrema(_OwnPeriodic(lambda t: 1.0 + math.cos(t) ** 2, math.pi), den)
    assert hi == tf.SupInfo(math.inf, 0.0, False)
    assert lo == tf.SupInfo(1.0, 1.5707963198096195, False)
    # One that vanishes with it leaves 1 + cos(t)/2 with t = 0 excluded.
    num = _OwnPeriodic(lambda t: math.sin(t) ** 2 * (1.0 + 0.5 * math.cos(t)), 2.0 * math.pi)
    hi, lo = tf.ratio_extrema(num, den)
    assert hi == tf.SupInfo(1.49999999999975, 1.0002462229565892e-06, False)
    assert lo == tf.SupInfo(0.50000000000025, 3.1415916535707487, False)


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
    mean, limited = tf.persistent_mean(tf.sinsq(0.8, 1.0))
    assert mean == pytest.approx(0.4, abs=1e-12) and not limited
    mean, limited = tf.persistent_mean(tf.constant(0.4))
    assert mean == 0.4 and not limited
    mean, limited = tf.persistent_mean(tf.piecewise_constant([0.0, 2.0], [0.0, 1.0, 0.5]))
    assert limited


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


def test_merge_classes():
    assert tf.merge_classes([tf.ConstantClass(), tf.ConstantClass()]) == tf.ConstantClass()
    merged = tf.merge_classes([tf.PeriodicClass(1.0), tf.PeriodicClass(0.5)])
    assert merged == tf.PeriodicClass(1.0)
    merged = tf.merge_classes([tf.PeriodicClass(math.pi), tf.GeneralClass(9.0)])
    assert merged == tf.GeneralClass(9.0)
    with pytest.raises(tf.ConfigurationError):
        tf.merge_classes([tf.PeriodicClass(math.pi), tf.PeriodicClass(1.0)])


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
        return tf.GeneralDelay(lambda t: t - lag, 2.0)

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

    # A coefficient that goes negative keeps the search for sup |F|.
    @dataclass(frozen=True)
    class MinusOne(tf.Coefficient):
        def value(self, t):
            return -1.0

        def antiderivative(self, t):
            return -t

        @property
        def asymptotic_class(self):
            return tf.ConstantClass()

    window = tf.sup_window_integral_info(MinusOne(), lag, horizon=12.0)
    gap = tf.sup_between_delays_info(MinusOne(), lag, tf.IdentityDelay(), horizon=12.0)
    assert window.value == pytest.approx(-1.0, abs=1e-9)
    assert gap.value == pytest.approx(1.5, abs=1e-9)
    # A signed combination is nonnegative only within a tolerance: it is searched too.
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
    """The range an extremum covers: one period, or the span plus pad."""
    cls = c.asymptotic_class
    if horizon is None and isinstance(cls, tf.PeriodicClass):
        return t0, t0 + cls.period
    span = horizon if horizon is not None else tf.representative_span(cls)
    return t0, t0 + span + pad


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


def test_incommensurate_waves_keep_the_search():
    # A step summand makes the class general, so sqrt(2) and 1 may mix;
    # proportionality and vanishing are still exact.
    c = tf.coeff_sum([tf.sinsq(1.0, 1.0), tf.sinsq(1.0, math.sqrt(2.0)),
                      tf.piecewise_constant([5.0], [0.0, 0.5])])
    assert tf._harmonics(tf._normal_form((1.0, c))) is None
    assert tf.proportional_ratio(tf.scaled(2.0, c), c) == 2.0
    assert tf.vanishing_fraction(c) == 0.0
    hi, lo = tf.coefficient_extrema(c)
    lo_t, hi_t = _scan_range(c)
    values = [c.value(lo_t + (hi_t - lo_t) * j / 4096) for j in range(4097)]
    assert lo.value <= min(values) + 1e-9 and max(values) <= hi.value + 1e-9


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


def test_grid_fallback_holds_every_kink():
    # sqrt(2) and 1 have no common base frequency, so the window is searched
    # on the grid; the 0.02-wide pulse is narrower than its 0.245 cells.
    pulse = tf.piecewise_constant([250.37, 250.39], [0.0, 10.0, 0.0])
    c = tf.coeff_sum([tf.sinsq(1.0, 1.0), tf.sinsq(1.0, math.sqrt(2.0)), pulse])
    assert tf._harmonics(tf._normal_form((1.0, c))) is None
    info = tf.sup_window_integral_info(c, tf.ConstantLag(0.02))
    scan = max(antiderivative_scan(c, lambda F, t: F(t) - F(t - 0.02), 250.3, 250.5))
    assert scan > 0.2
    assert scan <= info.value + 1e-12
    gap = tf.sup_between_delays_info(c, tf.ConstantLag(1.02), tf.ConstantLag(1.0))
    assert scan <= gap.value + 1e-12
    # The domination check's grid holds the breakpoints too.
    with pytest.raises(ValueError, match="negative at t=250.37"):
        tf.difference(tf.constant(3.0), c)


def test_coefficient_class_of_its_own_may_be_unhashable():
    from ddestab import criteria as cr

    @dataclass  # compares by value, so it has no hash
    class Half(tf.Coefficient):
        def value(self, t):
            return 0.5

        def antiderivative(self, t):
            return 0.5 * t

        @property
        def asymptotic_class(self):
            return tf.ConstantClass()

    assert Half.__hash__ is None
    assert tf._normal_form((1.0, Half())) is None
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())],
                                negative_terms=[cr.Term(Half(), tf.ConstantLag(1.0))])
    assert eq.negative_terms[0].coeff == Half()
    with pytest.raises(ValueError, match="domination"):
        cr.LinearDelayEquation(positive_terms=[cr.Term(tf.constant(0.4), tf.IdentityDelay())],
                               negative_terms=[cr.Term(Half(), tf.ConstantLag(1.0))])


# ---------------------------------------------------------------------------
# Grid searches: one array pass from the normal form, general delays read once
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


def test_general_delay_searches_share_one_read_of_the_grid(monkeypatch):
    from ddestab import criteria as cr

    reads, calls = [], []

    def delayed(t):
        reads.append(t)
        return t - 1.0 - 0.3 * math.sin(1.1 * t)

    golden = tf._golden_max
    monkeypatch.setattr(tf, "_golden_max", lambda *args: calls.append(args) or golden(*args))
    delay = tf.GeneralDelay(delayed, 1.3)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.4, 1.2), delay)],
                                negative_terms=[cr.Term(tf.sinsq(0.1, 1.2), tf.IdentityDelay())])
    certs = cr.evaluate_all(eq, horizon=40.0)
    assert {cert.name for cert in certs} >= {"diff-form", "ratio-form"}
    lo, hi = _scan_range(eq.positive_terms[0].coeff, 0.0, 40.0, 1.3)
    grid = {lo + (hi - lo) * k / tf._GRID for k in range(tf._GRID + 1)}
    on_grid = [t for t in reads if t in grid]
    assert set(on_grid) == grid
    # The diff form (on a - b) and the ratio form (on a) each search the
    # grid; past one shared read, a grid point is read again only to report
    # its value: the first point and each refined local maximum.
    assert len(calls) >= 2
    assert len(on_grid) <= len(grid) + len(calls) + 2
    # Refining every local maximum took 34 golden runs and 2 927 reads of the
    # delay; the brackets that the lag envelope bounds below the best read
    # are skipped.
    assert len(calls) <= 14
    assert len(reads) <= 1_850


def test_general_delay_search_raises_at_the_first_invalid_grid_point():
    c = tf.sinsq(1.0, 1.0)
    far = tf.GeneralDelay(lambda t: t - (0.5 if t < 5.0 else 3.0), 1.0)
    near = tf.GeneralDelay(lambda t: t - (0.2 if t < 3.0 else 2.0), 1.0)
    lo, hi = _scan_range(c, 0.0, 10.0, 1.0)
    grid = [lo + (hi - lo) * k / tf._GRID for k in range(tf._GRID + 1)]
    for search, first in ((lambda: tf.sup_window_integral_info(c, far, horizon=10.0), 5.0),
                          # d1 is read before d2 at each point, as the integral's bounds are.
                          (lambda: tf.sup_between_delays_info(c, far, near, horizon=10.0), 3.0)):
        t = next(x for x in grid if x >= first)
        with pytest.raises(tf.DomainError, match="lags current time %s by" % re.escape("%g" % t)):
            search()


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


def test_general_delay_gap_values_read_the_delays_at_the_times_given():
    wobble = tf.GeneralDelay(lambda t: t - 1.0 - 0.4 * math.sin(0.9 * t), 1.4)
    c = tf.sinsq(0.8, 1.3, 0.4)
    values = tf._gap_values(c, wobble, tf.IdentityDelay())
    xs = np.array([0.5, 2.0, 3.25, 7.0])
    own = [c.integral(wobble(t), t) for t in xs.tolist()]
    assert np.abs(values(xs) - own).max() <= 1e-12
    # Points joining the grid are read too, so the search equals the point-by-point one.
    fn, cls, points = (lambda t: tf.window_integral(c, wobble, t)), tf.GeneralClass(30.0), (3.3, 7.77)
    assert (tf._maximize(fn, 0.0, cls, 1.4, points, values)
            == tf._maximize(fn, 0.0, cls, 1.4, points))


@pytest.mark.parametrize("pulse", [False, True])
def test_general_delay_searches_report_the_coefficients_own_integral(pulse):
    wobble = tf.GeneralDelay(lambda t: t - 1.0 - 0.4 * math.sin(0.9 * t), 1.4)
    c = tf.sinsq(0.8, 1.3, 0.4)
    if pulse:
        c = tf.coeff_sum([c, tf.piecewise_constant([12.3, 12.35], [0.0, 3.0, 0.0])])
    near = tf.ConstantLag(0.3)
    for lower in (wobble, tf.delay_min(wobble, tf.ConstantLag(1.2)),
                  tf.delay_max(wobble, tf.ConstantLag(1.2))):
        searches = [
            (tf.sup_window_integral_info(c, lower, horizon=30.0),
             lambda t: c.integral(lower(t), t)),
            (tf.sup_between_delays_info(c, lower, near, horizon=30.0),
             lambda t: abs(c.integral(lower(t), near(t)))),
        ]
        lo, hi = _scan_range(c, 0.0, 30.0, lower.lag_bound)
        for info, fn in searches:
            assert info.value == fn(info.argmax)
            assert max(fn(t) for t in np.linspace(lo, hi, 4097)) - 1e-12 <= info.value
            # The grid evaluated point by point, fn alone, is the reference.
            assert info == tf._maximize(fn, 0.0, tf.GeneralClass(30.0), lower.lag_bound)


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


def _general_searches(c, lower, other, horizon):
    """(search, fn, pad) for the window over lower and the gaps between two general delays."""
    return [
        (lambda: tf.sup_window_integral_info.__wrapped__(c, lower, 0.0, horizon=horizon),
         lambda t: tf.window_integral(c, lower, t), lower.lag_bound),
        (lambda: tf.sup_between_delays_info.__wrapped__(c, lower, other, 0.0, horizon=horizon),
         lambda t: abs(c.integral(lower(t), other(t))), max(lower.lag_bound, other.lag_bound)),
    ]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=_nonnegative_coefficients(), lower=_general_delays(), other=_general_delays(),
       horizon=st.floats(10.0, 40.0))
def test_property_pruned_general_delay_search_is_the_full_refinement_bit_for_bit(
        c, lower, other, horizon):
    for search, fn, pad in _general_searches(c, lower, other, horizon):
        # Point by point and with no bound, every local maximum is refined.
        assert search() == tf._maximize(fn, 0.0, tf.GeneralClass(horizon), pad)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=_nonnegative_coefficients(), lower=_general_delays(), other=_general_delays())
def test_property_envelope_bounds_hold_over_every_skipped_bracket(c, lower, other):
    searches, maximize = [], tf._maximize

    def spy(fn, t0, cls, pad, points=(), values=None, bounds=None):
        seen = []

        def recorded(lows, highs):
            tops = bounds(lows, highs)
            seen.extend(zip(lows.tolist(), highs.tolist(), tops.tolist()))
            return tops

        info = maximize(fn, t0, cls, pad, points, values, recorded)
        searches.append((fn, info.value, seen))
        return info

    with mock.patch.object(tf, "_maximize", spy):
        for search, _, _ in _general_searches(c, lower, other, 20.0):
            search()
    assert len(searches) == 2 and all(seen for _, _, seen in searches)
    # A skipped bracket's bound lies below the value found; check every such one.
    for fn, best, seen in searches:
        for lo, hi, top in seen:
            if top < best:
                assert max(fn(t) for t in np.linspace(lo, hi, 129).tolist()) <= top


def test_signed_combinations_and_own_classes_refine_every_local_maximum(monkeypatch):
    calls = []
    golden = tf._golden_max
    monkeypatch.setattr(tf, "_golden_max", lambda *args: calls.append(args) or golden(*args))

    class OwnWave(tf.Coefficient):
        def value(self, t):
            return 0.8 * math.sin(1.3 * t) ** 2

        def antiderivative(self, t):
            return 0.8 * (t / 2.0 - math.sin(2.6 * t) / 5.2)

        @property
        def asymptotic_class(self):
            return tf.PeriodicClass(math.pi / 1.3)

    signed = tf.difference(tf.coeff_sum([tf.sinsq(0.5, 1.0), tf.constant(0.6)]),
                           tf.sinsq(0.4, 2.0))
    assert tf._normal_form((1.0, signed)).signed
    lower, other = _wobble(1.0, 0.4, 0.9), _wobble(0.5, 0.3, 1.7)
    for c in (signed, OwnWave()):
        for search, fn, pad in _general_searches(c, lower, other, 30.0):
            calls.clear()
            info = search()
            lo, hi = 0.0, 30.0 + pad
            vals = np.array([fn(lo + (hi - lo) * k / tf._GRID) for k in range(tf._GRID + 1)])
            sides = np.concatenate(([-math.inf], vals, [-math.inf]))
            peaks = np.count_nonzero((vals >= sides[:-2]) & (vals >= sides[2:]))
            assert len(calls) == peaks
            assert info == tf._maximize(fn, 0.0, tf.GeneralClass(30.0), pad)


def test_general_delay_rejects_a_delayed_argument_that_is_not_a_number():
    from ddestab import criteria as cr

    delay = tf.GeneralDelay(
        lambda t: math.nan if t >= 20.0 else t - 1.0 - 0.4 * math.sin(0.9 * t), 1.4)
    with pytest.raises(tf.DomainError, match="at current time 20 is not a number"):
        delay(20.0)
    # The search raises at the first grid point from 20, as for a bound violation.
    c = tf.sinsq(0.8, 1.3, 0.4)
    lo, hi = _scan_range(c, 0.0, 40.0, 1.4)
    first = next(lo + (hi - lo) * k / tf._GRID for k in range(tf._GRID + 1)
                 if lo + (hi - lo) * k / tf._GRID >= 20.0)
    message = "at current time %s is not a number" % re.escape("%g" % first)
    with pytest.raises(tf.DomainError, match=message):
        tf.sup_window_integral_info(c, delay, horizon=40.0)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.4, 1.2), delay)],
                                negative_terms=[cr.Term(tf.sinsq(0.1, 1.2), tf.IdentityDelay())])
    with pytest.raises(tf.DomainError, match=message):
        cr.evaluate_all(eq, horizon=40.0)
