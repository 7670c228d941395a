"""Tests for trajectory classification, decay fitting, and thresholds.

Oracles: hand-built trajectories with known envelopes, the real
characteristic root of the pure delay equation (via scipy brentq on
gamma = exp(lag * gamma)) and the real part of its leading complex root
(scipy lambertw), scipy's peak prominences, and exact synthetic step
predicates.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.signal import peak_prominences
from scipy.special import lambertw

from ddestab import criteria as cr
from ddestab import diagnostics as dg
from ddestab import models as md
from ddestab import solver as sv
from ddestab import timefn as tf


def _synthetic(fn, dfn, t_hi=40.0, n=2001, diverged=False):
    ts = np.linspace(0.0, t_hi, n)
    xs = np.array([fn(t) for t in ts])
    ms = np.array([dfn(t) for t in ts])
    return sv.Trajectory(
        ts, xs, ms, sv.ConstantHistory(xs[0]),
        diverged=diverged, divergence_time=t_hi if diverged else None,
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_decaying_exponential():
    tr = _synthetic(lambda t: math.exp(-0.3 * t), lambda t: -0.3 * math.exp(-0.3 * t))
    rep = dg.classify(tr, max_lag=1.0)
    assert rep.classification == dg.DECAYING
    assert rep.initial_amplitude == pytest.approx(1.0)
    assert rep.tail_amplitude < 0.02


def test_classify_growing_exponential():
    tr = _synthetic(lambda t: math.exp(0.2 * t), lambda t: 0.2 * math.exp(0.2 * t))
    assert dg.classify(tr, max_lag=1.0).classification == dg.GROWING


def test_classify_sustained_oscillation():
    tr = _synthetic(math.sin, math.cos)
    assert dg.classify(tr, max_lag=1.0).classification == dg.SUSTAINED


def test_classify_around_nonzero_equilibrium():
    tr = _synthetic(
        lambda t: 0.5 + math.exp(-0.3 * t), lambda t: -0.3 * math.exp(-0.3 * t)
    )
    assert dg.classify(tr, equilibrium=0.5, max_lag=1.0).classification == dg.DECAYING
    assert dg.classify(tr, equilibrium=0.0, max_lag=1.0).classification == dg.SUSTAINED


def test_classify_zero_signal_is_decaying():
    tr = _synthetic(lambda t: 0.0, lambda t: 0.0)
    assert dg.classify(tr).classification == dg.DECAYING


def test_classify_divergence_flag_wins():
    tr = _synthetic(lambda t: 1.0, lambda t: 0.0, diverged=True)
    assert dg.classify(tr).classification == dg.GROWING


def test_classify_rejects_short_spans():
    tr = _synthetic(math.sin, math.cos, t_hi=5.0, n=101)
    with pytest.raises(tf.ConfigurationError):
        dg.classify(tr, max_lag=1.0)
    assert dg.classify(tr, max_lag=0.1).classification == dg.SUSTAINED


def test_classify_truncated_divergent_run_is_growing():
    # Divergence cuts the run short of twenty lags; that is a verdict, not
    # a span too short to judge.
    model = md.ex51(sigma=1.6, r=12.0)
    x_eq = md.equilibrium(model)
    traj = sv.integrate(model, sv.ConstantHistory(0.8 * x_eq), 96.0,
                        initial_value=1.2 * x_eq, on_divergence="truncate")
    assert traj.diverged and traj.t1 - traj.t0 < 20.0 * 1.6
    rep = dg.classify(traj, equilibrium=x_eq, max_lag=1.6)
    assert rep.classification == dg.GROWING


def test_removal_run_crossing_zero_under_fractional_n_diverges():
    # x^2.5 has no real value once the state turns negative: the run ends
    # there as diverged instead of raising out of the integrator.
    model = md.MackeyGlassRemoval(r=tf.constant(12.0), beta=1.25, gamma=1.0, n=2.5,
                                  g=tf.ConstantLag(1.5), h=tf.ConstantLag(1.0))
    traj, rep, _ = dg.perturbed_run(model, horizon=60.0, step=0.01)
    assert traj.diverged and traj.t1 < 60.0
    assert rep.classification == dg.GROWING
    x_eq = md.equilibrium(model)
    with pytest.raises(sv.DivergenceError):
        sv.integrate(model, 0.8 * x_eq, 60.0, step=0.01, initial_value=1.2 * x_eq)


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_ode_rate():
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())]
    )
    tr = sv.integrate(eq, 1.0, 10.0, step=0.005)
    fit = dg.fit_decay(tr)
    assert not fit.used_peaks
    assert fit.gamma_hat == pytest.approx(1.0, abs=1e-3)
    assert fit.fit_quality > 0.9999


def test_fit_recovers_dominant_delay_root():
    # For x' = -x(t - 0.3) the dominant rate gamma solves
    # gamma = exp(0.3 gamma).
    gamma_true = brentq(lambda g: g - math.exp(0.3 * g), 1.0, 3.0, xtol=1e-12)
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(0.3))]
    )
    tr = sv.integrate(eq, 1.0, 10.0, step=0.005)
    fit = dg.fit_decay(tr)
    assert fit.gamma_hat == pytest.approx(gamma_true, abs=1e-2)


@pytest.mark.parametrize("gamma", [0.2, 1.0])
@pytest.mark.parametrize("m", [0.5, 2.0])
def test_fit_recovers_synthetic_envelope_through_peaks(gamma, m):
    omega = 3.0
    fn = lambda t: m * math.exp(-gamma * t) * math.cos(omega * t)
    dfn = lambda t: m * math.exp(-gamma * t) * (
        -gamma * math.cos(omega * t) - omega * math.sin(omega * t)
    )
    tr = _synthetic(fn, dfn, t_hi=12.0 / gamma, n=4001)
    fit = dg.fit_decay(tr)
    assert fit.used_peaks
    assert fit.gamma_hat == pytest.approx(gamma, rel=0.01)
    assert fit.fit_quality > 0.999


def test_fit_takes_a_plateau_as_one_peak():
    # Three oscillation peaks after the transient quarter, each held for two
    # samples: counted sample by sample they were six, enough for a fit
    # through peaks.
    values = [1.0] * 4 + [0.01, 0.8, 0.8, 0.01, 0.4, 0.4, 0.01, 0.2, 0.2, 0.01, 0.005, 0.001]
    times = np.arange(len(values), dtype=float)
    tr = sv.Trajectory(times, np.array(values), np.zeros(len(values)), sv.ConstantHistory(1.0))
    assert not dg.fit_decay(tr).used_peaks
    # Five such peaks, halving every three samples, are five peaks, each at
    # its first sample.
    values = [1.0] * 6 + [0.01, 0.8, 0.8, 0.01, 0.4, 0.4, 0.01, 0.2, 0.2, 0.01, 0.1, 0.1, 0.01,
                          0.05, 0.05, 0.01, 0.005]
    times = np.arange(len(values), dtype=float)
    tr = sv.Trajectory(times, np.array(values), np.zeros(len(values)), sv.ConstantHistory(1.0))
    fit = dg.fit_decay(tr)
    assert fit.used_peaks
    assert fit.gamma_hat == pytest.approx(math.log(2.0) / 3.0, rel=1e-12)
    assert fit.m_hat == pytest.approx(0.8 * 2.0 ** (7 / 3), rel=1e-12)


def test_fit_of_ex51_does_not_move_with_the_trajectory_by_one_ulp():
    # The run that ``ddestab simulate --target ex51`` fits. Its deviation
    # decays to roundoff of the state (ulps of 0.5) long before the end,
    # and its pulsed rate holds x nearly flat between pulses, so roundoff
    # makes bumps on flat shoulders: taken as peaks, they moved gamma_hat by
    # 0.16% (a shift of every value) to 2-4% (each value one ulp in a random
    # direction). One ulp, either way or mixed, may move only the logs of
    # the genuine peaks, by some 5e-6.
    traj, _, setup = dg.perturbed_run(md.ex51())
    x_eq = setup["equilibrium"]
    fit = dg.fit_decay(traj, x_eq)
    assert fit.used_peaks and fit.fit_quality > 0.99
    rng = np.random.default_rng(5151)
    directions = [math.inf, -math.inf] + [
        np.where(rng.random(traj.values.size) < 0.5, math.inf, -math.inf) for _ in range(12)
    ]
    for direction in directions:
        moved = sv.Trajectory(traj.times, np.nextafter(traj.values, direction),
                              traj.derivatives, traj.history)
        assert dg.fit_decay(moved, x_eq).gamma_hat == pytest.approx(fit.gamma_hat, rel=1e-4)


def test_fit_of_a_run_decaying_to_zero_keeps_the_relative_floor():
    # x' = -x(t - 1) from 1.2 over 4 000 steps: after the transient quarter
    # the deviation is at most 1.2e-14, and the fit goes through peaks down
    # to 1e-8 of that. Roundoff at the scale of the whole run (1.2, some
    # 1e-12 over 4 000 steps) would drop them all; at the scale of the
    # retained samples it stays below the relative floor, so the fit is that
    # of the relative floor alone, pinned here bit for bit, and near the
    # dominant root's rate -Re W(-1).
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(1.0))])
    tr = sv.integrate(eq, 1.0, 400.0, step=0.1, initial_value=1.2)
    fit = dg.fit_decay(tr)
    assert fit.used_peaks
    assert fit.gamma_hat == 0.3182578982997112 and fit.m_hat == 1.0461666017990026
    assert fit.gamma_hat == pytest.approx(-lambertw(-1.0).real, rel=1e-3)


def test_a_shoulder_bump_below_the_floor_is_no_peak():
    # Six peaks 2^(-t/2) after the transient quarter, and on the falling
    # shoulder of the one at t = 10 a bump rising 1e-9 at t = 12: higher than
    # the floor (1e-8 of the largest retained deviation, 0.125) but less
    # prominent than it, so the fit goes through the six alone.
    values = np.zeros(20)
    values[:5] = 1.0
    for t in (6, 8, 10, 14, 16, 18):
        values[t] = 2.0 ** (-t / 2)
    values[11] = 0.9 * values[10]
    values[12] = values[11] + 1e-9
    times = np.arange(values.size, dtype=float)
    tr = sv.Trajectory(times, values, np.zeros(values.size), sv.ConstantHistory(1.0))
    fit = dg.fit_decay(tr)
    assert fit.used_peaks
    assert fit.gamma_hat == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
    assert fit.fit_quality == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:some peaks have a prominence of 0")
def test_prominences_are_scipys():
    # The candidates as fit_decay takes them: every sample above the one
    # before it and no lower than the one after (a plateau's first sample,
    # and steps on a rise, whose prominence is 0), above a level.
    rng = np.random.default_rng(23)
    for size in range(5, 400):
        dev = rng.integers(0, 4 if size % 2 else 1000, size).astype(float)
        peaks = np.flatnonzero((dev[1:-1] > dev[:-2]) & (dev[1:-1] >= dev[2:])) + 1
        if peaks.size:
            peaks = peaks[dev[peaks] >= np.median(dev[peaks])]
            assert dg._prominences(dev, peaks).tolist() == peak_prominences(dev, peaks)[0].tolist()


def test_fit_rejects_flat_zero():
    tr = _synthetic(lambda t: 0.0, lambda t: 0.0)
    with pytest.raises(tf.ConfigurationError):
        dg.fit_decay(tr)


# ---------------------------------------------------------------------------
# Threshold search
# ---------------------------------------------------------------------------


def test_threshold_bisection_on_step_predicates():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = rng.uniform(0.05, 0.95)
        thr = dg.find_threshold(lambda p: p < c, 0.0, 1.0, tol=1e-4)
        assert abs(thr - c) <= 1e-4
        # Orientation-flipped predicate finds the same point.
        thr2 = dg.find_threshold(lambda p: p >= c, 0.0, 1.0, tol=1e-4)
        assert abs(thr2 - c) <= 1e-4


def test_threshold_requires_a_bracket():
    with pytest.raises(dg.BracketError):
        dg.find_threshold(lambda p: True, 0.0, 1.0)
    with pytest.raises(tf.ConfigurationError):
        dg.find_threshold(lambda p: p < 0.5, 1.0, 0.0)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_threshold_rejects_nonpositive_tol(tol):
    def pred(p):
        raise AssertionError("tol must be rejected before bisecting")

    with pytest.raises(tf.ConfigurationError):
        dg.find_threshold(pred, 0.0, 1.0, tol=tol)


def test_threshold_stops_where_the_bracket_holds_no_float_inside():
    # Floats near 1e16 are 2 apart, so [1e16, 1e16 + 8] holds three between
    # its ends and no bracket narrower than 2: with tol 1e-3 the bisection
    # used to call the predicate forever.
    calls = []

    def pred(p):
        calls.append(p)
        return p < 1e16 + 3.0

    thr = dg.find_threshold(pred, 1e16, 1e16 + 8.0, tol=1e-3)
    assert len(calls) <= 2 + 3
    assert thr in (1e16 + 2.0, 1e16 + 4.0) and pred(thr - 2.0) != pred(thr + 2.0)


def test_certificate_threshold_for_removal_model():
    pred = dg.certificate_predicate(lambda r: md.ex51(sigma=1.1, r=r))
    thr = dg.find_threshold(pred, 3.0, 5.0, tol=1e-3)
    gap = 0.05 + math.sin(0.1 * math.pi) / (2.0 * math.pi)
    want = (1.0 + 1.0 / math.e) / (0.2 + 1.2 * gap)
    assert thr == pytest.approx(want, abs=2e-3)


# ---------------------------------------------------------------------------
# Certificate vs simulation consistency
# ---------------------------------------------------------------------------


def test_certificate_onset_is_below_empirical_onset():
    cert_thr = dg.find_threshold(
        dg.certificate_predicate(md.eq3), 0.2, 0.45, tol=1e-4
    )
    sup_win = 1.0 + math.sin(2.0) / 2.0
    want = (1.0 + 1.0 / math.e) / sup_win - 0.6
    assert cert_thr == pytest.approx(want, abs=5e-4)

    emp = dg.empirical_predicate(md.eq3, step=0.02)
    # Soundness direction: wherever the certificate passes, the standard
    # perturbed run must decay.
    assert emp(0.3)
    assert emp(cert_thr - 1e-3)
    # The certificate is conservative: decay persists well beyond it.
    assert emp(0.45)
    emp_thr = dg.find_threshold(emp, 0.45, 0.595, tol=2e-3)
    assert emp_thr > cert_thr
