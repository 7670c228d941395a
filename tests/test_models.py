"""Tests for the nonlinear models, their linearizations, and LES checks.

Oracles: central finite differences for linearized coefficients,
scipy.optimize.brentq on check margins for thresholds, closed forms for
the pulsed-rate benchmark systems (window integrals over full periods are
exact multiples of the mean).
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ddestab import criteria as cr
from ddestab import models as md
from ddestab import timefn as tf

INV_E = 1.0 / math.e

# Closed-form thresholds for the production benchmark (s = 0.1 sin^2(pi t),
# delays 3 and 6, so window integrals are exact: I_q = 0.3, gap = 0.15):
# combined: 0.15 n - 1/e + 0.3 < 1
N_COMBINED = (INV_E + 0.7) / 0.15
# paired part 1: (1 + n/2) * 0.15 < 1
N_GAP = 2.0 * (1.0 / 0.15 - 1.0)
# paired part 2: 0.3 z - 1/e < 1 - 0.15 z with z = 1 + n/2
N_PAIR = 2.0 * ((1.0 + INV_E) / 0.45 - 1.0)

# Removal benchmark (r sin^2(pi t), lags 1 and sigma): difference-form
# margin vanishes at r* = (1 + 1/e) / (0.2 + 1.2 * gap(sigma)).
def removal_threshold(sigma):
    # sup_t |int_{t-sigma}^{t-1} sin^2(pi s) ds| for sigma in (1, 2):
    # = (sigma-1)/2 + sin(pi (sigma-1))/(2 pi).
    gap = (sigma - 1.0) / 2.0 + math.sin(math.pi * (sigma - 1.0)) / (2.0 * math.pi)
    return (1.0 + INV_E) / (0.2 + 1.2 * gap)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


def test_equilibria_match_closed_forms():
    assert md.equilibrium(md.ex51()) == pytest.approx(0.5, abs=1e-15)
    assert md.equilibrium(md.ex5(4.0)) == pytest.approx(1.0, abs=1e-15)
    simple = md.MackeyGlassRemoval(
        r=tf.constant(1.0), beta=2.0, gamma=1.0, n=1.0,
        g=tf.ConstantLag(1.0), h=tf.ConstantLag(1.0),
    )
    assert md.equilibrium(simple) == pytest.approx(1.0, abs=1e-15)


def test_no_positive_equilibrium_errors():
    flat = md.MackeyGlassRemoval(
        r=tf.constant(1.0), beta=1.0, gamma=1.0, n=2.0,
        g=tf.ConstantLag(1.0), h=tf.ConstantLag(1.0),
    )
    with pytest.raises(md.NoPositiveEquilibriumError):
        md.equilibrium(flat)
    with pytest.raises(md.NoPositiveEquilibriumError):
        md.linearize(flat)
    weak = md.MackeyGlassProduction(
        s=tf.constant(1.0), beta=0.9, n=2.0,
        p=tf.ConstantLag(1.0), q=tf.ConstantLag(1.0),
    )
    with pytest.raises(md.NoPositiveEquilibriumError):
        md.equilibrium(weak)
    with pytest.raises(md.NoPositiveEquilibriumError):
        md.check_les_production(weak)


def test_reaction_vanishes_at_equilibrium():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        beta = rng.uniform(0.1, 5.0)
        gamma = beta * rng.uniform(0.02, 0.98)
        n = rng.uniform(0.2, 8.0)
        m = md.MackeyGlassRemoval(
            r=tf.constant(1.0), beta=beta, gamma=gamma, n=n,
            g=tf.ConstantLag(1.0), h=tf.ConstantLag(2.0),
        )
        x = md.equilibrium(m)
        assert abs(md.removal_reaction(m, x, x)) <= 1e-10 * max(1.0, beta * x)
    for _ in range(1000):
        beta = rng.uniform(1.02, 6.0)
        n = rng.uniform(0.2, 8.0)
        m = md.MackeyGlassProduction(
            s=tf.constant(1.0), beta=beta, n=n,
            p=tf.ConstantLag(1.0), q=tf.ConstantLag(2.0),
        )
        x = md.equilibrium(m)
        assert abs(md.production_reaction(m, x, x, x)) <= 1e-10 * max(1.0, beta * x)


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def test_linearize_removal_matches_finite_differences():
    m = md.MackeyGlassRemoval(
        r=tf.sinsq(2.0, 1.3), beta=1.7, gamma=0.9, n=1.5,
        g=tf.ConstantLag(0.7), h=tf.ConstantLag(1.9),
    )
    x = md.equilibrium(m)
    eps = 1e-6
    production = lambda y: m.beta * y / (1.0 + y ** m.n)
    deriv = (production(x + eps) - production(x - eps)) / (2.0 * eps)
    lin = md.linearize(m)
    t_probe = 0.5
    rv = m.r.value(t_probe)
    assert lin.positive_terms[0].coeff.value(t_probe) == pytest.approx(
        m.gamma * rv, rel=1e-12
    )
    assert lin.positive_terms[0].delay == tf.ConstantLag(1.9)
    assert lin.negative_terms[0].coeff.value(t_probe) == pytest.approx(
        deriv * rv, rel=1e-6
    )
    assert lin.negative_terms[0].delay == tf.ConstantLag(0.7)


def test_linearize_production_matches_finite_differences():
    m = md.ex5(5.0)
    x = md.equilibrium(m)
    eps = 1e-6
    f = lambda xp, xq, xt: m.beta * xp / (1.0 + xq ** m.n) - xt
    d_p = (f(x + eps, x, x) - f(x - eps, x, x)) / (2.0 * eps)
    d_q = (f(x, x + eps, x) - f(x, x - eps, x)) / (2.0 * eps)
    lin = md.linearize(m)
    t_probe = 0.25
    sv = m.s.value(t_probe)
    by_delay = {term.delay: term.coeff.value(t_probe) for term in lin.positive_terms}
    assert by_delay[tf.IdentityDelay()] == pytest.approx(sv, rel=1e-12)
    assert by_delay[tf.ConstantLag(6.0)] == pytest.approx(-d_q * sv, rel=1e-6)
    assert lin.negative_terms[0].coeff.value(t_probe) == pytest.approx(
        d_p * sv, rel=1e-6
    )
    assert lin.negative_terms[0].delay == tf.ConstantLag(3.0)
    assert d_p == pytest.approx(1.0, rel=1e-6)


def test_strong_saturation_puts_both_terms_on_positive_side():
    m = md.ex51()  # beta/gamma = 1.25, factor 1 - n + n/1.25
    assert md._removal_negative_factor(m) == pytest.approx(0.6, abs=1e-12)
    strong = md.MackeyGlassRemoval(
        r=tf.constant(1.0), beta=1.25, gamma=1.0, n=6.0,
        g=tf.ConstantLag(1.0), h=tf.ConstantLag(2.0),
    )
    assert md._removal_negative_factor(strong) < 0.0
    lin = md.linearize(strong)
    assert len(lin.positive_terms) == 2 and not lin.negative_terms
    cert = md.check_les_removal(strong)
    assert cert.verdict == cr.INCONCLUSIVE
    assert any("two nonnegative delayed removal terms" in n for n in cert.notes)


# ---------------------------------------------------------------------------
# LES certificates: removal benchmark
# ---------------------------------------------------------------------------


def test_removal_benchmark_certifies_below_threshold():
    cert = md.check_les_removal(md.ex51(sigma=1.1, r=4.0))
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    assert any("local exponential stability" in n for n in cert.notes)
    cert_big = md.check_les_removal(md.ex51(sigma=1.1, r=8.5))
    assert cert_big.verdict == cr.INCONCLUSIVE


def _removal_main_margin(sigma):
    def margin(r):
        cert = md.check_les_removal(md.ex51(sigma=sigma, r=r))
        for c in cert.checks:
            if "combined window and gap bound" in c.description:
                return c.margin
        raise AssertionError("combined check missing at r=%g" % r)

    return margin


@pytest.mark.parametrize(
    "sigma,lo,hi", [(1.1, 3.0, 5.0), (1.5, 1.9, 2.5)]
)
def test_removal_certificate_threshold_matches_closed_form(sigma, lo, hi):
    root = brentq(_removal_main_margin(sigma), lo, hi, xtol=1e-10)
    assert root == pytest.approx(removal_threshold(sigma), abs=1e-7)


def test_removal_model_scaling_invariance():
    # (beta, gamma, r) -> (c beta, c gamma, r/c) leaves the dynamics and
    # hence the certificate unchanged.
    base = md.check_les_removal(md.ex51(sigma=1.1, r=4.0))
    for c in (0.5, 2.0, 7.0):
        m = md.MackeyGlassRemoval(
            r=tf.sinsq(4.0 / c, math.pi), beta=1.25 * c, gamma=c, n=2.0,
            g=tf.ConstantLag(1.1), h=tf.ConstantLag(1.0),
        )
        cert = md.check_les_removal(m)
        assert cert.verdict == base.verdict
        for got, want in zip(cert.checks, base.checks):
            if math.isfinite(want.margin):
                assert got.margin == pytest.approx(want.margin, abs=1e-9)


# ---------------------------------------------------------------------------
# LES certificates: production benchmark
# ---------------------------------------------------------------------------


def test_production_benchmark_single_route():
    cert = md.check_les_production(md.ex5(4.0))
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    combined = [c for c in cert.checks if "single-condition route" in c.description]
    assert len(combined) == 1
    assert combined[0].lhs == pytest.approx(
        max(2.0 * 0.3 - INV_E, 0.0) + 0.3, abs=1e-9
    )


def test_production_upgrade_unavailable_over_a_finite_horizon():
    # A finite scan horizon leaves the persistence upgrade unproven, so the
    # single-condition route certifies asymptotic stability only.
    cert = md.check_les_production(md.ex5(4.0), horizon=10.0)
    assert cert.verdict == cr.ASYMPTOTIC
    combined = [c for c in cert.checks if "single-condition route" in c.description]
    assert combined[0].lhs == pytest.approx(2.0 * 0.3 - INV_E + 0.3, abs=1e-9)
    assert any("upgrade unavailable" in n for n in cert.notes)


def test_production_certificate_notes_a_finite_scan_horizon():
    # Its suprema were scanned to the horizon only, as the diff form's were,
    # which says so; without a horizon ex5's periodic rate needs no caveat.
    def caveat(cert):
        return any("scanned up to a finite horizon" in n for n in cert.notes)

    cert = md.check_les_production(md.ex5(4.0), horizon=40.0)
    assert cert.verdict == cr.ASYMPTOTIC
    assert "certified by the single-condition route" in cert.notes
    assert caveat(cert)
    assert caveat(cr.check_diff_form(md.linearize(md.ex5(4.0)), horizon=40.0))
    assert not caveat(md.check_les_production(md.ex5(4.0)))


def test_production_benchmark_fails_when_steep():
    cert = md.check_les_production(md.ex5(12.0))
    assert cert.verdict == cr.INCONCLUSIVE
    gap = [c for c in cert.checks if "paired route, part 1" in c.description]
    assert gap and gap[0].lhs == pytest.approx(1.05, abs=1e-9)
    assert not gap[0].satisfied


def test_production_paired_route_used_when_gap_dominates():
    # With weak saturation (alpha = 1/2) and the production delay much longer
    # than the saturation delay, the gap integral is large: the combined
    # condition fails through its 2*gap term while the paired pair
    # (1.5 * 0.5409 < 1, window part clipped to zero) still certifies.
    m = md.MackeyGlassProduction(
        s=tf.sinsq(0.1, math.pi), beta=2.0, n=1.0,
        p=tf.ConstantLag(11.5), q=tf.ConstantLag(1.0),
    )
    checks, _ = md.production_stability_checks(m)
    assert checks["combined_bound"].lhs == pytest.approx(
        1.05 + 0.1 / math.pi, abs=1e-9
    )
    assert not checks["combined_bound"].satisfied
    cert = md.check_les_production(m)
    assert cert.verdict == cr.UNIFORM_EXPONENTIAL
    assert any("paired-condition route" in n for n in cert.notes)


@pytest.mark.parametrize(
    "key,lo,hi,expected",
    [
        ("combined_bound", 6.0, 8.0, N_COMBINED),
        ("gap_bound", 10.0, 12.0, N_GAP),
        ("window_vs_gap_bound", 3.0, 5.0, N_PAIR),
    ],
)
def test_production_condition_thresholds(key, lo, hi, expected):
    def margin(n):
        checks, _ = md.production_stability_checks(md.ex5(n))
        return checks[key].margin

    root = brentq(margin, lo, hi, xtol=1e-10)
    assert root == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


def test_builtin_table_and_overrides():
    eq = md.make_builtin("eq3", b=0.2)
    assert isinstance(eq, cr.LinearDelayEquation)
    model = md.make_builtin("ex51", r=6.0)
    assert isinstance(model, md.MackeyGlassRemoval)
    assert model.r.value(0.5) == pytest.approx(6.0)
    with pytest.raises(KeyError):
        md.make_builtin("nope")
    with pytest.raises(ValueError):
        md.make_builtin("eq26", b=0.1)


def test_builtin_benchmark_certificates():
    assert cr.best_verdict(cr.evaluate_all(md.eq26())) == cr.UNIFORM_EXPONENTIAL
    assert cr.best_verdict(cr.evaluate_all(md.eq27())) == cr.UNIFORM_EXPONENTIAL
    assert cr.best_verdict(cr.evaluate_all(md.eq3(0.3))) == cr.UNIFORM_EXPONENTIAL
    assert cr.best_verdict(cr.evaluate_all(md.eq3(0.5))) == cr.INCONCLUSIVE
