"""Tests for coefficients, delays, and window-integral extrema.

Oracles used here and nowhere in the package:
- scipy.integrate.quad (adaptive quadrature) for integrals,
- dense numpy grids (1e6 points per period) for essential extrema,
- hand-derived closed forms for the oscillating-coefficient windows,
- dense scans of antiderivative differences, which bound a supremum from
  below, for the extrema the package takes from structure.
"""

import math

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
    # Structurally dissimilar difference goes through the sampled validator.
    with pytest.raises(ValueError):
        tf.difference(tf.constant(0.3), tf.sinsq(0.9, 1.0))
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
    c = tf.piecewise_constant([0.0, 6.0, 12.0], [1.0, 0.0, 1.0, 1.0])
    assert 0.3 < tf.vanishing_fraction(c) < 0.7


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

    # The plain form, then the _info form left to its defaults: one search.
    tf.sup_window_integral_info.cache_clear()
    d = tf.sinsq(0.4, 2.0)
    plain = tf.sup_window_integral(d, lag)
    assert tf.sup_window_integral_info(d, lag).value == plain
    info = tf.sup_window_integral_info.cache_info()
    assert (info.hits, info.misses) == (1, 1)


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
# Extrema from structure: sinsq closed forms and step-function kinks
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
