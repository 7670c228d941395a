"""Tests for the stability-certificate checkers.

Benchmark equations (hand-derived check values, independent of the code):

- E1: x'(t) + x(t-1) - 0.3 x(t) = 0.
  difference form: S = 0.7 > 1/e, S + 2QV = 0.7 + 2*(3/7)*0.7 = 1.3 < 1+1/e;
  ratio form: window integral 1 is not below (1+1/e)/2.
- E2: x'(t) + 0.4 x(t-1) - 0.35 x(t-3) = 0.
  ratio form: S = 0.4 > 1/e, S + V = 0.4 + 0.8 = 1.2 < 1+1/e;
  difference form: Q*V = 7 * 0.1 = 0.7 is not below 1/2.
"""

import json
import math
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from ddestab import criteria as cr
from ddestab import models as md
from ddestab import timefn as tf

INV_E = 1.0 / math.e
ONE_PLUS_INV_E = 1.0 + INV_E


def eq_e1():
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(1.0))],
        negative_terms=[cr.Term(tf.constant(0.3), tf.IdentityDelay())],
    )


def eq_e2():
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.4), tf.ConstantLag(1.0))],
        negative_terms=[cr.Term(tf.constant(0.35), tf.ConstantLag(3.0))],
    )


def eq_oscillating(b=0.3):
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.sinsq(0.6, 1.0), tf.ConstantLag(2.0))],
        negative_terms=[cr.Term(tf.sinsq(b, 1.0), tf.IdentityDelay())],
    )


def find_check(cert, lhs, rhs, tol=1e-9):
    for c in cert.checks:
        if abs(c.lhs - lhs) <= tol and abs(c.rhs - rhs) <= tol:
            return c
    raise AssertionError(
        "no check with lhs=%g rhs=%g in %s"
        % (lhs, rhs, [(c.lhs, c.rhs) for c in cert.checks])
    )


# ---------------------------------------------------------------------------
# Benchmark certificates
# ---------------------------------------------------------------------------


def test_e1_diff_form_certifies_exponential():
    cert = cr.check_diff_form(eq_e1())
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    entry = find_check(cert, 0.7, INV_E)
    assert entry.direction == ">" and entry.satisfied
    main = find_check(cert, 1.3, ONE_PLUS_INV_E)
    assert main.direction == "<" and main.satisfied
    assert main.margin == pytest.approx(ONE_PLUS_INV_E - 1.3, abs=1e-12)


def test_e1_ratio_form_inconclusive():
    cert = cr.check_ratio_form(eq_e1())
    assert cert.verdict == cr.INCONCLUSIVE
    main = find_check(cert, 1.0, (1.0 + INV_E) / 2.0)
    assert not main.satisfied and not main.marginal


def test_e2_ratio_form_certifies_exponential():
    cert = cr.check_ratio_form(eq_e2())
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    entry = find_check(cert, 0.4, INV_E)
    assert entry.direction == ">" and entry.satisfied
    main = find_check(cert, 1.2, ONE_PLUS_INV_E)
    assert main.satisfied
    sup_q = {q.symbol: q.value for q in cert.quantities}
    assert sup_q["S_a"] == pytest.approx(0.4, abs=1e-9)
    assert sup_q["V_a"] == pytest.approx(0.8, abs=1e-9)
    assert sup_q["R_sup"] == pytest.approx(0.875, abs=1e-12)


def test_e2_diff_form_inconclusive():
    cert = cr.check_diff_form(eq_e2())
    assert cert.verdict == cr.INCONCLUSIVE
    main = find_check(cert, 0.7, 0.5)
    assert not main.satisfied


def test_ratio_form_ratio_weighted_bound():
    # x' + 0.5 x(t-1) - 0.2 sin^2(t) x(t) = 0: the ratio b/a ranges over
    # [0, 0.4], so the window integral 0.5 meets (1 - 0.4)/(1 - 0)(1 - 0.5) + 1/e.
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.5), tf.ConstantLag(1.0))],
        negative_terms=[cr.Term(tf.sinsq(0.2, 1.0), tf.IdentityDelay())],
    )
    cert = cr.check_ratio_form(eq)
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    q = {q.symbol: q.value for q in cert.quantities}
    assert q["S_a"] == pytest.approx(0.5, abs=1e-12)
    assert q["V_a"] == pytest.approx(0.5, abs=1e-12)
    assert q["R_sup"] == pytest.approx(0.4, abs=1e-12)
    assert q["bound"] == pytest.approx(0.3 + INV_E, abs=1e-12)
    assert find_check(cert, 0.5, 0.3 + INV_E).satisfied


def test_diff_form_multi_term_gap_spans_all_delays():
    # 0.2 at lags 1 and 2 against 0.1 at lag 0.5: the difference 0.3 is
    # integrated over the full spread [t-2, t-0.5] for V and [t-2, t] for S.
    eq = cr.LinearDelayEquation(
        positive_terms=[
            cr.Term(tf.constant(0.2), tf.ConstantLag(1.0)),
            cr.Term(tf.constant(0.2), tf.ConstantLag(2.0)),
        ],
        negative_terms=[cr.Term(tf.constant(0.1), tf.ConstantLag(0.5))],
    )
    q = {q.symbol: q.value for q in cr.check_diff_form(eq).quantities}
    assert q["V"] == pytest.approx(0.45, abs=1e-12)
    assert q["S"] == pytest.approx(0.6, abs=1e-12)


def test_evaluate_all_orders_by_strength():
    certs = cr.evaluate_all(eq_e2())
    assert certs[0].verdict == cr.UNIFORM_EXPONENTIAL
    assert certs[0].name == "ratio-form"
    assert cr.best_verdict(certs) == cr.UNIFORM_EXPONENTIAL
    ranks = [cr._VERDICT_RANK[c.verdict] for c in certs]
    assert ranks == sorted(ranks, reverse=True)


def test_oscillating_family_threshold_behavior():
    # Below the analytic threshold (1+1/e)/(1+sin(2)/2) - 0.6 both sides certify.
    b_star = ONE_PLUS_INV_E / (1.0 + math.sin(2.0) / 2.0) - 0.6
    good = cr.check_diff_form(eq_oscillating(b_star - 1e-3))
    assert good.verdict == cr.UNIFORM_EXPONENTIAL
    bad = cr.check_diff_form(eq_oscillating(b_star + 1e-3))
    assert bad.verdict == cr.INCONCLUSIVE
    # Far above the threshold, the small-window route's gap product also fails.
    far = cr.check_diff_form(eq_oscillating(0.5))
    assert far.verdict == cr.INCONCLUSIVE


# ---------------------------------------------------------------------------
# Boundary semantics
# ---------------------------------------------------------------------------


def test_exact_tie_at_no_expansion_bound_still_certifies():
    # Window integral exactly 1/e: the non-strict case-1 entry passes at margin 0.
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(INV_E))]
    )
    diff = cr.check_diff_form(eq)
    assert diff.verdict == cr.UNIFORM_EXPONENTIAL
    tie = find_check(diff, INV_E, INV_E)
    assert not tie.strict and tie.margin == 0.0
    ratio = cr.check_ratio_form(eq)
    assert ratio.verdict == cr.UNIFORM_EXPONENTIAL


def test_marginal_verdict_within_band():
    lag = ONE_PLUS_INV_E + 5e-10
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(lag))]
    )
    cert = cr.check_diff_form(eq)
    assert cert.verdict == cr.MARGINAL
    assert any(c.marginal for c in cert.checks)


def test_zero_equation_is_inconclusive_everywhere():
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.0), tf.IdentityDelay())]
    )
    for cert in cr.evaluate_all(eq):
        assert cert.verdict == cr.INCONCLUSIVE
        assert any(not c.satisfied for c in cert.checks)


def test_domination_validation_rejects_negative_excess():
    with pytest.raises(ValueError):
        cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(0.3), tf.ConstantLag(1.0))],
            negative_terms=[cr.Term(tf.constant(0.4), tf.IdentityDelay())],
        )


def _spiked_feedback(a):
    # b = 0.5 except for a spike to 1.5 on [500.13, 500.18], far narrower
    # than the spacing of any fixed sample grid over the 500-long span.
    b = tf.piecewise_constant([500.13, 500.18], [0.5, 1.5, 0.5])
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(a), tf.IdentityDelay())],
        negative_terms=[cr.Term(b, tf.ConstantLag(1.0))],
    )


def test_a_zero_constant_lag_is_the_identity_delay():
    # A positive term at ConstantLag(0.0) is undelayed, so the nondelay-dominant
    # route applies to it; as a window start it leaves a window of no length.
    zero, now = tf.ConstantLag(0.0), tf.IdentityDelay()
    assert cr.Term(tf.constant(1.0), zero) == cr.Term(tf.constant(1.0), now)
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), zero)],
        negative_terms=[cr.Term(tf.constant(0.3), tf.ConstantLag(1.0))],
    )
    assert cr.check_nondelay_dominant(eq).verdict == cr.UNIFORM_EXPONENTIAL
    with pytest.raises(ValueError, match="positive length"):
        cr.DistributedTerm(1, tf.constant(0.5), zero)
    removal = md.MackeyGlassRemoval(r=tf.constant(1.0), beta=1.25, gamma=1.0, n=2.0,
                                    g=zero, h=tf.ConstantLag(1.0))
    production = md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=4.0,
                                          p=tf.ConstantLag(2.0), q=zero)
    assert (removal.g, production.q) == (now, now)


def test_domination_is_decided_on_every_segment_of_a_step_function():
    with pytest.raises(ValueError, match="domination"):
        _spiked_feedback(1.0)
    # Dominated, the spike still sets the ratio supremum.
    cert = cr.check_nondelay_dominant(_spiked_feedback(2.0))
    assert {q.symbol: q.value for q in cert.quantities}["R_sup"] == 0.75
    assert tf.proportional_ratio(_spiked_feedback(2.0).negative_terms[0].coeff,
                                 tf.constant(1.0)) is None


def test_domination_samples_every_step_segment_of_a_mixture():
    # sinsq plus a 0.02-wide pulse reaches 1.33 > 1 inside the pulse, which
    # the 513-sample grid over the sinsq period steps over.
    pulse = tf.piecewise_constant([250.37, 250.39], [0.0, 1.0, 0.0])
    feedback = tf.coeff_sum([tf.sinsq(0.5, 1.0), pulse])
    with pytest.raises(ValueError, match="domination"):
        cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())],
            negative_terms=[cr.Term(feedback, tf.ConstantLag(1.0))],
        )


def test_domination_sees_a_sinsq_peak_between_samples():
    # b = 1.000001 sin^2(t + 0.003) exceeds a = 1 by 1e-6 near its peak.
    with pytest.raises(ValueError, match="domination"):
        cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(1.0))],
            negative_terms=[cr.Term(tf.sinsq(1.000001, 1.0, 0.003), tf.IdentityDelay())],
        )


class _Surge(tf.ConstantCoefficient):
    """A constant by its class, not by its values: v, plus 3 on [0, 0.5) mod 2 pi."""

    def value(self, t):
        return self.v + (3.0 if t % (2.0 * math.pi) < 0.5 else 0.0)

    def antiderivative(self, t):
        k, r = divmod(t, 2.0 * math.pi)
        return self.v * t + 3.0 * (0.5 * k + min(r, 0.5))

    @property
    def asymptotic_class(self):
        return tf.PeriodicClass(2.0 * math.pi)


class _Spike(tf.Coefficient):
    """0.2, plus 3 on |t mod 2 pi - 1.0047| < 1e-4: narrower than any search grid."""

    def value(self, t):
        return 0.2 + (3.0 if abs(t % (2.0 * math.pi) - 1.0047) < 1e-4 else 0.0)

    def antiderivative(self, t):
        k, r = divmod(t, 2.0 * math.pi)
        return 0.2 * t + 3.0 * (2e-4 * k + min(max(r - 1.0046, 0.0), 2e-4))

    @property
    def asymptotic_class(self):
        return tf.PeriodicClass(2.0 * math.pi)


class _Drift(tf.ConstantLag):
    """A constant lag by its class that reads x(t - 4) whatever its lag."""

    def __call__(self, t):
        return t - 4.0


class _Flat(tf.Coefficient):
    """The constant 0.5 by its values alone, with no asymptotic class of its own."""

    def value(self, t):
        return 0.5

    def antiderivative(self, t):
        return 0.5 * t


def _flat_at_lag_one():
    """x' + c x(t - 1) = 0 with c a caller's class, which builds as it has no negative side."""
    return cr.LinearDelayEquation(positive_terms=[cr.Term(_Flat(), tf.ConstantLag(1.0))])


def _against_half_at_lag_one(b):
    """x' + 0.5 x(t - 1) - b x(t) = 0, certified by every checker."""
    return cr.evaluate_all(cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.5), tf.ConstantLag(1.0))],
        negative_terms=[cr.Term(b, tf.IdentityDelay())]))


_CONSTRUCTORS = r"constant, sinsq, piecewise_constant, scaled, coeff_sum or difference"


# Each once certified UniformExponential on a quantity that was not the true one.
@pytest.mark.parametrize("probe, match", [
    # b > a on 8% of every period; diff and ratio forms read b as the constant 0.2.
    (lambda: _against_half_at_lag_one(_Surge(0.2)), _CONSTRUCTORS),
    # The linearization's scaling rebuilt the rate as a plain constant.
    (lambda: md.check_les_removal(md.MackeyGlassRemoval(
        r=_Surge(0.2), beta=2.0, gamma=1.0, n=1.5, g=tf.ConstantLag(1.0), h=tf.ConstantLag(0.5))),
     _CONSTRUCTORS),
    # S = 0.45 was read at lag 1; at the true lag 4, 0.45 * 4 > pi / 2 is unstable.
    (lambda: cr.evaluate_all(cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.45), _Drift(1.0))])),
     r"as GeneralDelay\(fn, lag_bound\)"),
    # The ratio form read R_sup = 0.4 off a grid; the true esssup b / a is 6.4.
    (lambda: _against_half_at_lag_one(_Spike()), _CONSTRUCTORS),
    # A class with values only raised a bare NotImplementedError for its asymptotic class.
    (lambda: cr.check_diff_form(_flat_at_lag_one()), _CONSTRUCTORS),
    (lambda: cr.check_ratio_form(_flat_at_lag_one()), _CONSTRUCTORS),
    (lambda: md.check_les_production(md.MackeyGlassProduction(
        s=_Flat(), beta=2.0, n=4.0, p=tf.ConstantLag(1.0), q=tf.ConstantLag(0.5))),
     _CONSTRUCTORS),
], ids=["surge", "surge_removal", "drift", "spike", "flat_diff", "flat_ratio",
        "flat_production"])
def test_a_class_outside_the_library_is_refused_before_any_certificate(probe, match):
    with pytest.raises(TypeError, match=match):
        probe()


def test_non_finite_check_sides_fail_closed():
    for lhs, rhs in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (math.inf, math.inf)):
        for strict in (True, False):
            for direction in ("<", ">"):
                check = cr.make_check("x", lhs, rhs, strict=strict, direction=direction)
                assert not check.satisfied and not check.marginal
    assert cr.make_check("x", 0.5, 1.0, strict=True).satisfied


def test_a_nan_window_integral_takes_the_exceeding_branch(monkeypatch):
    # NaN is not within 1/e, so both forms list the exceeding entry and the
    # bound that goes with it, each failing closed.
    monkeypatch.setattr(tf, "sup_window_integral_info",
                        lambda *a, **k: tf.SupInfo(math.nan, 0.0, False))
    for cert in (cr.check_diff_form(eq_e2()), cr.check_ratio_form(eq_e2())):
        assert cert.verdict == cr.INCONCLUSIVE
        entry, bound = cert.checks[-2:]
        assert "exceeds the no-expansion bound" in entry.description
        assert "1 + 1/e" in bound.description
        assert not (entry.satisfied or entry.marginal or bound.satisfied or bound.marginal)


def test_ratio_supremum_sees_every_step_segment_of_a_mixture():
    # Dominated by a = 2, the pulse still sets the ratio supremum; the
    # 1025-point grid over the 250-long span steps over it.
    pulse = tf.piecewise_constant([250.37, 250.39], [0.0, 1.0, 0.0])
    feedback = tf.coeff_sum([tf.sinsq(0.5, 1.0), pulse])
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(2.0), tf.IdentityDelay())],
        negative_terms=[cr.Term(feedback, tf.ConstantLag(1.0))],
    )
    cert = cr.check_nondelay_dominant(eq)
    scan = max(feedback.value(250.37 + 0.02 * k / 100) / 2.0 for k in range(100))
    assert scan > 0.66
    assert {q.symbol: q.value for q in cert.quantities}["R_sup"] >= scan


# ---------------------------------------------------------------------------
# Non-delay-dominant checker
# ---------------------------------------------------------------------------


def test_nondelay_dominant_multi_term():
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(2.0), tf.IdentityDelay())],
        negative_terms=[
            cr.Term(tf.constant(0.5), tf.ConstantLag(1.0)),
            cr.Term(tf.constant(1.0), tf.ConstantLag(2.0)),
        ],
    )
    cert = cr.check_nondelay_dominant(eq)
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    ratio = {q.symbol: q.value for q in cert.quantities}["R_sup"]
    assert ratio == pytest.approx(0.75, abs=1e-12)


def test_nondelay_dominant_boundary_ratio_is_marginal():
    # b/a exactly 1 sits on the boundary of the criterion; the strict check
    # fails with margin 0, which the semantics report as Marginal.
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())],
        negative_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(1.0))],
    )
    cert = cr.check_nondelay_dominant(eq)
    assert cert.verdict == cr.MARGINAL


def test_step_rate_is_scanned_through_its_steps_from_a_negative_start():
    # The step part's horizon counts from t0; a scan from t0 = -10 stopped at
    # -5 and read b/a = 0.5, missing the step to 1.0 on [4, 5).
    b = tf.piecewise_constant([4.0, 5.0], [0.5, 1.0, 0.5])
    for t0 in (-10.0, 0.0):
        eq = cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())],
            negative_terms=[cr.Term(b, tf.ConstantLag(1.0))],
            t0=t0,
        )
        cert = cr.check_nondelay_dominant(eq)
        assert {q.symbol: q.value for q in cert.quantities}["R_sup"] == 1.0
        assert cert.verdict == cr.MARGINAL
        assert tf.coefficient_extrema(b, t0)[0].value == 1.0


def test_step_rate_mean_and_vanishing_fraction_read_its_tail():
    # b is zero for all t >= 5; reading [t0, t0 + 5] gave a mean of 0.6 from
    # t0 = 0 and 0.5 from t0 = -10, and a vanishing fraction of 0.
    b = tf.piecewise_constant([4.0, 5.0], [0.5, 1.0, 0.0])
    for t0 in (0.0, -10.0, 7.0):
        assert tf.persistent_mean(b, t0) == 0.0
        assert tf.vanishing_fraction(b, t0) == 1.0
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(b, tf.ConstantLag(1.0))])
    certs = {c.name: c for c in cr.evaluate_all(eq)}
    assert {q.symbol: q.value for q in certs["diff-form"].quantities}["mean_diff"] == 0.0
    assert {q.symbol: q.value for q in certs["ratio-form"].quantities}["mean_a"] == 0.0
    # The structure is known, but the rate is not persistent.
    assert all(c.verdict == cr.INCONCLUSIVE for c in certs.values())
    for name in ("diff-form", "ratio-form"):
        failed = [c.description for c in certs[name].checks if not c.satisfied]
        assert not any("from structure" in d for d in failed)
        assert any("long-run mean" in d for d in failed)


def test_nondelay_dominant_inapplicable_when_positive_delayed():
    cert = cr.check_nondelay_dominant(eq_e1())
    assert cert.verdict == cr.INCONCLUSIVE
    assert any("not" in n for n in cert.notes)
    assert any(not c.satisfied for c in cert.checks)


def test_nondelay_dominant_distributed_negative_needs_persistence():
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())],
        distributed_terms=[
            cr.DistributedTerm(-1, tf.constant(0.4), tf.ConstantLag(2.0))
        ],
    )
    cert = cr.check_nondelay_dominant(eq)
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    assert any("persistently positive" in c.description for c in cert.checks)


# ---------------------------------------------------------------------------
# Reduction and distributed/mixed routing
# ---------------------------------------------------------------------------


def test_reduce_multi_delay():
    eq = cr.LinearDelayEquation(
        positive_terms=[
            cr.Term(tf.constant(0.4), tf.ConstantLag(1.0)),
            cr.Term(tf.constant(0.4), tf.ConstantLag(3.0)),
        ],
        negative_terms=[cr.Term(tf.constant(0.2), tf.IdentityDelay())],
    )
    red = cr.reduce(eq)
    assert isinstance(red.h, tf.ConstantLag) and red.h.lag == 3.0
    assert isinstance(red.H, tf.ConstantLag) and red.H.lag == 1.0
    assert isinstance(red.g, tf.IdentityDelay)
    assert isinstance(red.r, tf.ConstantLag) and red.r.lag == 3.0
    assert isinstance(red.R, tf.IdentityDelay)
    assert red.a.value(0.0) == pytest.approx(0.8)


def test_reduce_distributed_brackets_window():
    eq = cr.LinearDelayEquation(
        distributed_terms=[
            cr.DistributedTerm(1, tf.constant(0.5), tf.ConstantLag(2.0)),
            cr.DistributedTerm(-1, tf.constant(0.2), tf.ConstantLag(5.0)),
        ]
    )
    red = cr.reduce(eq)
    assert isinstance(red.h, tf.ConstantLag) and red.h.lag == 2.0
    assert isinstance(red.H, tf.IdentityDelay)
    assert isinstance(red.r, tf.ConstantLag) and red.r.lag == 5.0
    assert isinstance(red.U, tf.ConstantLag) and red.U.lag == 2.0


def test_distributed_only_equation_gets_sound_certificates():
    # x'(t) + 0.5 avg_{[t-2,t]} x - 0.2 avg_{[t-5,t]} x = 0:
    # S = 0.3*2 = 0.6 > 1/e; V over the window-start gap = 0.3*3 = 0.9;
    # Q = 0.2/0.3; star sum = 0.6 + 2*(2/3)*0.9 = 1.8 > 1+1/e -> fails.
    eq = cr.LinearDelayEquation(
        distributed_terms=[
            cr.DistributedTerm(1, tf.constant(0.5), tf.ConstantLag(2.0)),
            cr.DistributedTerm(-1, tf.constant(0.2), tf.ConstantLag(5.0)),
        ]
    )
    cert = cr.check_diff_form(eq)
    assert cert.verdict == cr.INCONCLUSIVE
    find_check(cert, 0.6 + 2.0 * (0.2 / 0.3) * 0.9, ONE_PLUS_INV_E)
    # A narrow-window distributed equation certifies.
    eq2 = cr.LinearDelayEquation(
        distributed_terms=[
            cr.DistributedTerm(1, tf.constant(0.5), tf.ConstantLag(0.5)),
            cr.DistributedTerm(-1, tf.constant(0.2), tf.ConstantLag(0.6)),
        ]
    )
    cert2 = cr.check_diff_form(eq2)
    assert cert2.verdict == cr.UNIFORM_EXPONENTIAL


def test_mixed_concentrated_distributed_is_inconclusive_with_note():
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(0.2))],
        distributed_terms=[
            cr.DistributedTerm(-1, tf.constant(0.2), tf.ConstantLag(1.0))
        ],
    )
    for checker in (cr.check_diff_form, cr.check_ratio_form):
        cert = checker(eq)
        assert cert.verdict == cr.INCONCLUSIVE
        assert any("mixes concentrated and distributed" in n for n in cert.notes)


def test_default_persistence_window_is_one_period():
    cert = cr.check_diff_form(eq_oscillating(0.2))
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    assert any(c.description.endswith("T=3.14159") for c in cert.checks)


def test_step_rate_certifies_from_its_constant_tail():
    # The step part is a transient before a constant tail, so persistence is
    # known from structure and the upgrade holds over all t >= t0.
    rate = tf.piecewise_constant([0.0, 6.0], [1.0, 0.5, 1.0])
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(rate, tf.ConstantLag(0.5))],
        negative_terms=[cr.Term(tf.scaled(0.3, rate), tf.IdentityDelay())],
    )
    for check in (cr.check_diff_form, cr.check_ratio_form):
        cert = check(eq)
        assert cert.verdict == cr.UNIFORM_EXPONENTIAL and cert.notes == ()
    quantities = {q.symbol: q.value for q in cr.check_diff_form(eq).quantities}
    # a - b = 0.7 rate: the lag-0.5 window inside the level-1 tail, and the
    # forward unit window inside the level-0.5 band.
    assert quantities["mean_diff"] == pytest.approx(0.7, abs=1e-15)
    assert quantities["S"] == pytest.approx(0.35, abs=1e-15)
    assert quantities["liminf_T"] == pytest.approx(0.35, abs=1e-15)


def test_a_wave_rate_is_read_past_its_steps():
    # Past t = 12 the rate is 2 sin^2 t, which reaches 0; a scan that stopped
    # at the last breakpoint read a_inf = 0.5758 there and certified.
    a = tf.coeff_sum([tf.scaled(2.0, tf.sinsq(1.0, 1.0)),
                      tf.piecewise_constant([0.0, 1.0, 12.0], [0.0, 1.0, 1.0, 0.0])])
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(a, tf.IdentityDelay())],
        negative_terms=[cr.Term(tf.scaled(0.5, a), tf.ConstantLag(1.0))],
    )
    cert = cr.check_nondelay_dominant(eq)
    assert cert.verdict != cr.UNIFORM_EXPONENTIAL
    assert {q.symbol: q.value for q in cert.quantities}["a_inf"] <= 1e-12


def test_a_window_is_read_one_tail_period_past_the_steps():
    # Past t = 5 the rate is 0.3 sin^2 t + 0.15: its lag-1 window reaches
    # 0.4262 and its mean is 0.30. A scan over [0, 5 + 1] read S = 0.3311,
    # "within 1/e", and a mean of 0.2781 over [5, 10].
    a = tf.coeff_sum([tf.sinsq(0.3, 1.0), tf.piecewise_constant([0.0, 5.0], [0.0, 0.0, 0.15])])
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(a, tf.ConstantLag(1.0))])
    for check, mean, window in ((cr.check_diff_form, "mean_diff", "S"),
                                (cr.check_ratio_form, "mean_a", "S_a")):
        cert = check(eq)
        quantities = {q.symbol: q.value for q in cert.quantities}
        assert quantities[window] >= 0.4262
        assert quantities[mean] == pytest.approx(0.30, abs=1e-12)
        descriptions = [c.description for c in cert.checks]
        assert any("exceeds the no-expansion bound" in d for d in descriptions)
        assert not any("within the no-expansion bound" in d for d in descriptions)


def test_certificate_serialization_shape():
    cert = cr.check_diff_form(eq_e1())
    blob = json.dumps(cert.to_dict(), allow_nan=False)
    data = json.loads(blob)
    assert data["verdict"] == cr.UNIFORM_EXPONENTIAL
    for c in data["checks"]:
        assert set(c) == {
            "description",
            "lhs",
            "rhs",
            "strict",
            "direction",
            "satisfied",
            "margin",
            "marginal",
        }
    for q in data["quantities"]:
        assert set(q) == {"symbol", "value", "source"}


# ---------------------------------------------------------------------------
# Certificate exits that no golden output reaches
# ---------------------------------------------------------------------------


# Each exit's ``to_dict()`` JSON, recorded before the checkers shared one
# verdict rule; a difference here is a change to a certificate's bytes.
EXIT_PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certificate_exits.json")


def _undelayed_against(*negative, distributed=()):
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())],
        negative_terms=negative,
        distributed_terms=distributed,
    )


def _window(weight, lag):
    return cr.DistributedTerm(-1, tf.constant(weight), tf.ConstantLag(lag))


def _general_delay_eq():
    wobble = tf.GeneralDelay(lambda t: t - 1.0 - 0.2 * math.sin(t), 1.2)
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.5), wobble)],
        negative_terms=[cr.Term(tf.constant(0.1), tf.IdentityDelay())],
    )


def _removal(n):
    # b_factor = 1 - n + n/1.25: -1 at n = 10 (outside the band), 0 at n = 5 (inside).
    return md.MackeyGlassRemoval(r=tf.sinsq(4.0, math.pi), beta=1.25, gamma=1.0, n=n,
                                 g=tf.ConstantLag(1.1), h=tf.ConstantLag(1.0))


EXITS = {
    "nondelay-positive-side-not-single": lambda: cr.check_nondelay_dominant(
        cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(0.5), tf.IdentityDelay()),
                            cr.Term(tf.constant(0.3), tf.ConstantLag(1.0))],
            negative_terms=[cr.Term(tf.constant(0.2), tf.IdentityDelay())])),
    "nondelay-negative-side-mixed": lambda: cr.check_nondelay_dominant(_undelayed_against(
        cr.Term(tf.constant(0.2), tf.ConstantLag(1.0)), distributed=[_window(0.2, 0.5)])),
    "nondelay-several-distributed-negative": lambda: cr.check_nondelay_dominant(
        _undelayed_against(distributed=[_window(0.2, 0.5), _window(0.1, 1.0)])),
    "nondelay-distributed-upgrade": lambda: cr.check_nondelay_dominant(
        _undelayed_against(distributed=[_window(0.3, 0.5)])),
    "diff-general-delay-no-horizon": lambda: cr.check_diff_form(_general_delay_eq()),
    "ratio-general-delay-no-horizon": lambda: cr.check_ratio_form(_general_delay_eq()),
    "les-removal-precondition-outside-band": lambda: md.check_les_removal(_removal(10.0)),
    "les-removal-precondition-inside-band": lambda: md.check_les_removal(_removal(5.0)),
}


@pytest.mark.parametrize("case", sorted(EXITS))
def test_certificate_exit_is_pinned(case):
    with open(EXIT_PINS) as fh:
        expected = json.load(fh)[case]
    assert json.dumps(EXITS[case]().to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def const_eq(a, b, lag_h, lag_g):
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(a), tf.ConstantLag(lag_h))],
        negative_terms=[cr.Term(tf.constant(b), tf.ConstantLag(lag_g))],
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    a=st.floats(0.05, 2.0),
    bfrac=st.floats(0.0, 1.0),
    lag_h=st.floats(0.0, 3.0),
    lag_g=st.floats(0.0, 3.0),
    # b_factor = 1 - n + n/1.25 changes sign at n = 5.
    n=st.one_of(st.just(5.0), st.floats(0.5, 10.0)),
)
def test_property_certificate_soundness(a, bfrac, lag_h, lag_g, n):
    removal = md.MackeyGlassRemoval(r=tf.constant(a), beta=1.25, gamma=1.0, n=n,
                                    g=tf.ConstantLag(lag_g), h=tf.ConstantLag(lag_h))
    certs = cr.evaluate_all(const_eq(a, bfrac * a, lag_h, lag_g)) + (
        md.check_les_removal(removal), md.check_les_production(md.ex5(n)))
    for cert in certs:
        for c in cert.checks:
            m = (c.rhs - c.lhs) if c.direction == "<" else (c.lhs - c.rhs)
            assert (m == c.margin) or (m != m and c.margin != c.margin)
        if cert.verdict == cr.MARGINAL:
            assert all(c.satisfied or c.marginal for c in cert.checks)
            assert not all(c.satisfied for c in cert.checks)
        elif cert.verdict != cr.INCONCLUSIVE:
            for c in cert.checks:
                assert c.satisfied
                if c.strict:
                    assert c.margin > cr.MARGINAL_BAND


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    scale=st.floats(0.2, 5.0),
    a=st.floats(0.1, 1.5),
    bfrac=st.floats(0.0, 0.9),
    lag_h=st.floats(0.1, 2.5),
    lag_g=st.floats(0.0, 2.5),
)
def test_property_time_rescaling_invariance(scale, a, bfrac, lag_h, lag_g):
    # Speeding time up by `scale` while shrinking lags leaves every window
    # integral, hence every verdict, unchanged.
    base = cr.evaluate_all(const_eq(a, bfrac * a, lag_h, lag_g))
    margins = [c.margin for cert in base for c in cert.checks if math.isfinite(c.margin)]
    assume(all(abs(m) > 1e-6 for m in margins))
    rescaled = cr.evaluate_all(
        const_eq(scale * a, scale * bfrac * a, lag_h / scale, lag_g / scale)
    )
    assert [c.verdict for c in base] == [c.verdict for c in rescaled]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(a=st.floats(0.1, 2.0), lag1=st.floats(0.0, 2.0), lag2=st.floats(0.0, 2.0))
def test_property_longer_delay_never_improves_verdict(a, lag1, lag2):
    lo, hi = sorted((lag1, lag2))
    eq_lo = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(a), tf.ConstantLag(lo))]
    )
    eq_hi = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(a), tf.ConstantLag(hi))]
    )
    rank_lo = cr._VERDICT_RANK[cr.check_diff_form(eq_lo).verdict]
    rank_hi = cr._VERDICT_RANK[cr.check_diff_form(eq_hi).verdict]
    assert rank_lo >= rank_hi
