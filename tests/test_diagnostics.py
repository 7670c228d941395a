"""Tests for trajectory classification, decay fitting, and thresholds.

Oracles: hand-built trajectories with known envelopes, the real
characteristic root of the pure delay equation (via scipy brentq on
gamma = exp(lag * gamma)), and exact synthetic step predicates.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

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
