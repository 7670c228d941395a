"""Tests for the method-of-steps integrator and its dense output.

Oracles: closed-form solutions (exponentials, a cosine that solves a pure
delay equation exactly, the piecewise polynomial fundamental solution of
the pure-delay equation), Richardson-style self-convergence, and exact
linearity identities.
"""

import dataclasses
import hashlib
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddestab import criteria as cr
from ddestab import models as md
from ddestab import solver as sv
from ddestab import timefn as tf


def _term(value, lag):
    return cr.Term(tf.constant(value), tf.ConstantLag(lag))  # a zero lag reads x(t)


def _linear(pos, neg=(), dist=()):
    return cr.LinearDelayEquation(
        positive_terms=[_term(v, l) for v, l in pos],
        negative_terms=[_term(v, l) for v, l in neg],
        distributed_terms=list(dist),
    )


# ---------------------------------------------------------------------------
# Exact solutions
# ---------------------------------------------------------------------------


def test_identity_term_reproduces_exponential():
    eq = _linear([(1.0, 0.0)])
    tr = sv.integrate(eq, 1.0, 5.0, step=0.01)
    worst = max(abs(tr.value(t) - math.exp(-t)) for t in np.linspace(0.0, 5.0, 101))
    assert worst < 1e-9


def test_forced_identity_equation_matches_closed_form():
    # x' = -x + cos t with x(0) = 1/2 has the exact solution
    # x(t) = (cos t + sin t) / 2.
    eq = _linear([(1.0, 0.0)])
    tr = sv.integrate(
        eq, 0.5, 8.0, step=0.01, forcing=math.cos, initial_value=0.5
    )
    worst = max(
        abs(tr.value(t) - 0.5 * (math.cos(t) + math.sin(t)))
        for t in np.linspace(0.0, 8.0, 161)
    )
    assert worst < 1e-8


def test_cosine_solves_pure_delay_equation():
    # x' = -(pi/2) x(t-1) is solved exactly by cos(pi t / 2).
    eq = _linear([(math.pi / 2.0, 1.0)])
    tr = sv.integrate(eq, lambda t: math.cos(math.pi * t / 2.0), 10.0, step=0.01)
    worst = max(
        abs(tr.value(t) - math.cos(math.pi * t / 2.0)) for t in np.linspace(0, 10, 201)
    )
    assert worst < 1e-6


def test_mixed_identity_and_delay_terms():
    # x' = -x(t) - 0.5 x(t-1) + f with f chosen so cos(t) is the solution:
    # f(t) = -sin t + cos t + 0.5 cos(t - 1).
    eq = _linear([(1.0, 0.0), (0.5, 1.0)])
    f = lambda t: -math.sin(t) + math.cos(t) + 0.5 * math.cos(t - 1.0)
    tr = sv.integrate(eq, lambda t: math.cos(t), 10.0, step=0.01, forcing=f)
    worst = max(abs(tr.value(t) - math.cos(t)) for t in np.linspace(0, 10, 201))
    assert worst < 1e-6


def test_fundamental_solution_of_undelayed_equation():
    eq = _linear([(0.7, 0.0)])
    X = sv.fundamental_solution(eq, 2.0, 8.0, step=0.01)
    worst = max(
        abs(X.value(t) - math.exp(-0.7 * (t - 2.0))) for t in np.linspace(2, 8, 121)
    )
    assert worst < 1e-8
    assert X.value(1.0) == 0.0
    assert X.value(2.0) == 1.0


def test_fundamental_solution_piecewise_polynomial():
    # For x' = -a x(t - tau): X = 1 on [0, tau], 1 - a(t - tau) on the next
    # segment, then the quadratic continuation.
    a, tau = 1.0, 1.0 / math.e
    eq = _linear([(a, tau)])
    X = sv.fundamental_solution(eq, 0.0, 3.0 * tau, step=0.001)

    def exact(t):
        if t < tau:
            return 1.0
        if t < 2.0 * tau:
            return 1.0 - a * (t - tau)
        return 1.0 - a * (t - tau) + a * a * (t - 2.0 * tau) ** 2 / 2.0

    worst = max(
        abs(X.value(t) - exact(t)) for t in np.linspace(0.0, 3.0 * tau - 1e-9, 400)
    )
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# Convergence and dense output
# ---------------------------------------------------------------------------


def test_rk4_error_ratios_are_fourth_order():
    eq = _linear([(0.8, 1.0)], neg=[(0.3, 0.5)])
    hist = lambda t: math.sin(t)
    ref = sv.integrate(eq, hist, 10.0, step=0.0015625)
    probes = np.linspace(1.0, 10.0, 37)
    errs = []
    for s in (0.05, 0.025, 0.0125, 0.00625):
        tr = sv.integrate(eq, hist, 10.0, step=s)
        errs.append(max(abs(tr.value(t) - ref.value(t)) for t in probes))
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_delay_equation_keeps_fourth_order():
    # A start jump at incommensurate lags: the mesh tracks only the first few
    # sums of lags, and the jumps it leaves out must not cost the order.
    eq = _linear([(0.6, 1.015)], neg=[(0.3, 0.297)])
    probes = np.linspace(0.0, 12.0, 1201)

    def run(step):
        tr = sv.integrate(eq, 0.8, 12.0, step=step, initial_value=1.2)
        return np.array([tr.value(t) for t in probes])

    ref = run(0.000625)
    errs = [np.max(np.abs(run(s) - ref)) for s in (0.04, 0.02, 0.01, 0.005)]
    assert errs[0] / errs[-1] >= 2**10.5


def test_dense_output_hits_nodes_and_interpolates():
    eq = _linear([(0.9, 1.0)])
    tr = sv.integrate(eq, 1.0, 6.0, step=0.05)
    for i in (0, 7, tr.times.size - 1):
        assert tr.value(tr.times[i]) == pytest.approx(tr.values[i], abs=1e-14)
    fine = sv.integrate(eq, 1.0, 6.0, step=0.0125)
    mids = (tr.times[:-1] + tr.times[1:]) / 2.0
    worst = max(abs(tr.value(t) - fine.value(t)) for t in mids)
    assert worst < 1e-6
    with pytest.raises(tf.DomainError):
        tr.value(6.5)
    with pytest.raises(tf.DomainError):
        tr.derivative(-2.0)


def test_derivative_output_matches_equation():
    eq = _linear([(0.9, 1.0)])
    tr = sv.integrate(eq, 1.0, 6.0, step=0.02)
    for t in (1.3, 2.75, 4.1):
        assert tr.derivative(t) == pytest.approx(-0.9 * tr.value(t - 1.0), abs=1e-7)


def test_node_arrays_are_read_only():
    eq = _linear([(0.9, 1.0)])
    tr = sv.integrate(eq, 1.0, 3.0, step=0.1)
    with pytest.raises(ValueError):
        tr.values[0] = 99.0


# ---------------------------------------------------------------------------
# Superposition (exact linearity)
# ---------------------------------------------------------------------------


def superposition_check(eq, phi1, phi2, t1, *, step, forcing=None):
    """Worst-case linearity defect |x[phi1+phi2, f] - x[phi1, f] - x[phi2, 0]|.

    For a linear equation the defect is pure numerics (roundoff plus
    interpolation), so it doubles as an integration self-test.
    """

    def value(phi, t):
        return phi.value(t) if hasattr(phi, "value") else phi(t)

    x1 = sv.integrate(eq, phi1, t1, step=step, forcing=forcing)
    x2 = sv.integrate(eq, phi2, t1, step=step)
    both = sv.FunctionHistory(lambda t: value(phi1, t) + value(phi2, t))
    x12 = sv.integrate(eq, both, t1, step=step, forcing=forcing)
    return float(np.max(np.abs(x12.values - x1.values - x2.values)))


def test_superposition_trivial_zero():
    eq = _linear([(0.6, 2.0)])
    defect = superposition_check(
        eq, sv.ConstantHistory(0.0), sv.ConstantHistory(0.0), 10.0, step=0.01
    )
    assert defect == 0.0


@pytest.mark.parametrize("builder", [md.eq26, md.eq27])
def test_superposition_on_benchmarks(builder):
    eq = builder()
    defect = superposition_check(
        eq,
        lambda t: math.sin(t),
        lambda t: 0.3 * math.cos(2.0 * t),
        eq.t0 + 20.0,
        step=1e-3,
        forcing=lambda t: 0.1 * math.sin(t),
    )
    assert defect < 1e-8


# ---------------------------------------------------------------------------
# Fundamental solution positivity and the integral identity
# ---------------------------------------------------------------------------


def test_positivity_in_the_small_delay_regime():
    # a * tau = 1/e exactly: the fundamental solution stays positive.
    eq = _linear([(1.0, 1.0 / math.e)])
    X = sv.fundamental_solution(eq, 0.0, 50.0, step=0.005)
    assert np.all(X.values > 0.0)


def test_sign_change_beyond_the_critical_product():
    eq = _linear([(1.0, 1.1 / math.e)])
    X = sv.fundamental_solution(eq, 0.0, 50.0, step=0.005)
    assert np.min(X.values) < 0.0


def test_lemma_identity_bound_and_defect():
    eq = _linear([(1.0, 1.0 / math.e)])
    rep = sv.verify_lemma3(eq, 0.0, 20.0, step=0.005)
    assert rep.positive_throughout
    assert rep.max_value <= 1.0 + 1e-3
    assert rep.identity_defect < 1e-6


def test_lemma_identity_with_negative_term_and_offset_start():
    eq = _linear([(1.0, 0.3)], neg=[(0.4, 0.1)])
    rep = sv.verify_lemma3(eq, 2.0, 17.0, step=0.005)
    assert rep.positive_throughout
    assert rep.max_value <= 1.0 + 1e-3
    assert rep.identity_defect < 1e-6


def test_lemma_identity_reports_sign_change():
    eq = _linear([(1.0, 1.2)])
    rep = sv.verify_lemma3(eq, 0.0, 20.0, step=0.005)
    assert not rep.positive_throughout
    assert rep.max_value > 1.0 + 1e-3
    # The identity itself holds regardless of positivity.
    assert rep.identity_defect < 1e-6


# Exact reports, so that any change to how the lemma integrand is summed
# shows. The distributed window (0.015) is shorter than two steps.
LEMMA_PINS = {
    "eq26": (md.eq26(), 10.0, 1.701673026282486, False, 3.6857002649881565e-07),
    "eq3": (md.eq3(), 12.0, 1.0009469909937838, False, 2.742630385965672e-06),
    "distributed": (
        cr.LinearDelayEquation(
            distributed_terms=[cr.DistributedTerm(1, tf.constant(0.8), tf.ConstantLag(0.015))]
        ),
        5.0, 0.9820150905357858, True, 9.462085253097996e-07,
    ),
}


@pytest.mark.parametrize("name", sorted(LEMMA_PINS))
def test_lemma_report_is_pinned(name):
    eq, t1, max_value, positive, defect = LEMMA_PINS[name]
    rep = sv.verify_lemma3(eq, 0.0, t1, step=0.01)
    assert (rep.max_value, rep.positive_throughout, rep.identity_defect) == (
        max_value, positive, defect
    )


# ---------------------------------------------------------------------------
# Divergence handling
# ---------------------------------------------------------------------------


def test_divergence_raise_and_truncate():
    eq = _linear([(1.0, 3.0)])
    with pytest.raises(sv.DivergenceError) as exc:
        sv.integrate(eq, 1.0, 200.0, step=0.01, divergence_threshold=10.0)
    partial = exc.value.trajectory
    assert partial.diverged and partial.divergence_time < 200.0
    tr = sv.integrate(
        eq, 1.0, 200.0, step=0.01, divergence_threshold=10.0, on_divergence="truncate"
    )
    assert tr.diverged
    assert tr.t1 == pytest.approx(partial.divergence_time)
    assert abs(tr.final_value) > 10.0
    assert np.all(np.abs(tr.values[:-1]) <= 10.0 + 1e-9)


# ---------------------------------------------------------------------------
# Step-size precheck and extrapolation
# ---------------------------------------------------------------------------


def test_step_larger_than_lag_is_rejected():
    eq = _linear([(0.9, 1.0)])
    with pytest.raises(tf.ConfigurationError):
        sv.integrate(eq, 1.0, 5.0, step=1.5)
    tr = sv.integrate(eq, 1.0, 5.0, step=1.5, allow_extrapolation=True)
    assert tr.t1 == pytest.approx(5.0)


@pytest.mark.parametrize("t1", [math.inf, -math.inf, math.nan])
def test_non_finite_end_time_is_rejected(t1):
    with pytest.raises(sv.ConfigurationError):
        sv.integrate(_linear([(0.9, 1.0)]), 1.0, t1, step=0.01)


def test_general_delay_integration_self_converges():
    delay = tf.GeneralDelay(lambda t: t - (0.5 + 0.4 * math.sin(t)), 0.9)
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.8), delay)]
    )
    coarse = sv.integrate(eq, 1.0, 8.0, step=0.02)
    fine = sv.integrate(eq, 1.0, 8.0, step=0.005)
    worst = max(abs(coarse.value(t) - fine.value(t)) for t in np.linspace(0, 8, 81))
    # Variable-delay kink crossings are not mesh-aligned, so the order
    # drops locally; 1e-5 at step 0.02 reflects that.
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# Distributed terms
# ---------------------------------------------------------------------------


def test_point_mass_windows_converge_to_concentrated_limit():
    conc = _linear([(0.9, 1.0)])
    ref = sv.integrate(conc, 1.0, 8.0, step=0.002)
    probes = np.linspace(0.0, 8.0, 100)
    errs = []
    for w in (0.4, 0.2, 0.1):
        dist = cr.DistributedTerm(
            sign=1,
            total_weight=tf.constant(0.9),
            window_start=tf.ConstantLag(1.0 + w / 2.0),
            kernel=cr.UniformKernel(w),
        )
        eq = cr.LinearDelayEquation(distributed_terms=[dist])
        tr = sv.integrate(eq, 1.0, 8.0, step=0.01)
        errs.append(max(abs(tr.value(t) - ref.value(t)) for t in probes))
    assert errs[0] > errs[1] > errs[2]
    # Uniform window averaging is second-order accurate in the width.
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_full_window_average_decays_and_converges():
    dist = cr.DistributedTerm(
        sign=1, total_weight=tf.constant(1.0), window_start=tf.ConstantLag(1.0)
    )
    eq = cr.LinearDelayEquation(distributed_terms=[dist])
    ref = sv.integrate(eq, 1.0, 6.0, step=0.005)
    assert 0.0 < ref.final_value < 1e-4
    coarse = sv.integrate(eq, 1.0, 6.0, step=0.02)
    worst = max(abs(coarse.value(t) - ref.value(t)) for t in np.linspace(0, 6, 61))
    assert worst < 1e-4


# A removal window against a feedback window, both over the last 0.634.
_WINDOW_PAIR = cr.LinearDelayEquation(distributed_terms=[
    cr.DistributedTerm(1, tf.constant(1.948), tf.ConstantLag(0.634)),
    cr.DistributedTerm(-1, tf.constant(0.178), tf.ConstantLag(0.634)),
])


def _window_run(step, t1, history=0.8):
    return sv.integrate(_WINDOW_PAIR, history, t1, step=step, initial_value=1.2)


def test_window_integrals_converge_at_third_order():
    # Exact window integrals leave only the dense output's own error:
    # about 8x per halving (trapezoid windows gave 4x).
    ref = _window_run(0.05 / 16, 21.0)
    probes = np.linspace(0.0, 21.0, 421)
    errs = []
    for step in (0.05, 0.025, 0.0125):
        tr = _window_run(step, 21.0)
        errs.append(max(abs(tr.value(t) - ref.value(t)) for t in probes))
    assert errs[0] / errs[1] >= 6.0 and errs[1] / errs[2] >= 6.0


def test_decaying_window_run_has_no_noise_floor():
    # Windows are summed over their own steps, never as differences of a
    # running O(1) integral, so a tail far below machine epsilon stays
    # accurate to the discretisation error.
    coarse, fine = _window_run(0.05, 40.0), _window_run(0.0125, 40.0)
    assert 0.0 < abs(fine.final_value) < 1e-30
    assert coarse.final_value == pytest.approx(fine.final_value, rel=0.01)


def test_window_before_start_time_reads_any_history_alike():
    const = _window_run(0.05, 5.0)
    for hist in (
        sv.FunctionHistory(lambda t: 0.8),
        sv.TabulatedHistory(np.array([-0.634, 0.0]), np.array([0.8, 0.8])),
    ):
        tr = _window_run(0.05, 5.0, hist)
        assert np.max(np.abs(tr.values - const.values)) < 1e-13


def test_trajectory_integral_is_exact_on_the_dense_output():
    tr = sv.integrate(_linear([(1.0, 0.0)]), 1.0, 5.0, step=0.01)
    exact = math.exp(-0.3) - math.exp(-2.7)
    assert tr.integral(0.3, 2.7) == pytest.approx(exact, abs=1e-10)
    # The history part: the constant 1 over [-1, 0].
    assert tr.integral(-1.0, 2.7) == pytest.approx(1.0 + 1.0 - math.exp(-2.7), abs=1e-10)
    with pytest.raises(tf.DomainError):
        tr.integral(1.0, 5.5)
    with pytest.raises(sv.ConfigurationError):
        tr.integral(2.7, 0.3)


# ---------------------------------------------------------------------------
# Histories, models, CSV
# ---------------------------------------------------------------------------


def test_tabulated_history_interpolates_and_guards_domain():
    hist = sv.tabulate_history(math.sin, -3.0, 0.0, 0.01)
    assert hist.value(-1.234) == pytest.approx(math.sin(-1.234), abs=1e-4)
    with pytest.raises(tf.DomainError):
        hist.value(-3.5)
    with pytest.raises(sv.ConfigurationError):
        sv.TabulatedHistory(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def test_tabulated_history_copies_the_caller_arrays():
    ts, xs = np.array([0.0, 1.0]), np.array([1.0, 3.0])
    hist = sv.TabulatedHistory(ts, xs)
    xs[0] = 2.0
    assert hist.value(0.5) == 2.0
    with pytest.raises(ValueError):
        hist.values[0] = 2.0


def test_removal_model_settles_on_equilibrium():
    m = md.ex51(sigma=1.1, r=4.0)
    tr = sv.integrate(m, 0.4, 60.0, step=0.01)
    assert tr.final_value == pytest.approx(md.equilibrium(m), abs=1e-3)


def test_production_model_settles_on_equilibrium():
    m = md.ex5(4.0)
    tr = sv.integrate(m, 0.9, 400.0, step=0.05)
    assert tr.final_value == pytest.approx(md.equilibrium(m), abs=1e-3)


def test_trajectory_csv_round_trip(tmp_path):
    eq = _linear([(0.9, 1.0)])
    tr = sv.integrate(eq, 1.0, 3.0, step=0.1)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.allclose(data["t"], tr.times)
    assert np.allclose(data["x"], tr.values)
    assert np.allclose(data["xdot"], tr.derivatives)


# ---------------------------------------------------------------------------
# Breaking points
# ---------------------------------------------------------------------------


def test_breaking_points_contain_lag_sums():
    pts = sv.breaking_points(0.0, 10.0, [1.0, 0.5])
    for want in (0.0, 0.5, 1.0, 1.5, 2.5, 10.0):
        assert any(abs(p - want) < 1e-9 for p in pts)
    assert pts == sorted(pts)
    assert pts[0] == 0.0 and pts[-1] == 10.0


def test_breaking_points_incommensurate_lags():
    pts = sv.breaking_points(0.0, 10.0, [1.0, math.e])
    for n in range(3):
        for m in range(3):
            want = n * 1.0 + m * math.e
            if want <= 10.0:
                assert any(abs(p - want) < 1e-9 for p in pts)


def test_breaking_points_stop_at_sums_of_five_lags():
    pts = sv.breaking_points(0.0, 41.0, [1.015, 0.297])
    want = sorted({n * 1.015 + m * 0.297 for n in range(6) for m in range(6 - n)})
    assert len(pts) == 22 == len(want) + 1
    assert np.allclose(pts[:-1], want, rtol=0.0, atol=1e-12) and pts[-1] == 41.0


def test_incommensurate_lags_cost_few_extra_steps():
    eq = _linear([(0.6, 1.015)], neg=[(0.3, 0.297)])
    tr = sv.integrate(eq, 0.8, 41.0, step=0.02, initial_value=1.2)
    assert len(tr.times) - 1 <= 2070


def test_breaking_points_closer_than_a_sliver_of_the_step_are_merged():
    # Lags 1 and 1 + 5e-9 give breaking points 5e-9 apart, below 1e-6 of the
    # step: each pair is one node, and the mesh is that of the lag of 1 alone.
    eq = _linear([(0.5, 1.0), (0.3, 1.000000005)])
    tr = sv.integrate(eq, 1.0, 5.0, step=0.01)
    assert tr.times.size == 501
    assert np.diff(tr.times).min() >= 0.01 * 1e-6
    assert tr.times[-1] == 5.0


def test_mesh_nodes_include_breaking_points():
    eq = _linear([(0.8, 1.0)], neg=[(0.3, 0.5)])
    tr = sv.integrate(eq, 1.0, 4.0, step=0.03)
    for bp in (0.5, 1.0, 1.5, 2.0, 3.5):
        assert np.min(np.abs(tr.times - bp)) < 1e-9


# ---------------------------------------------------------------------------
# Segment reads: the same bits for less work
# ---------------------------------------------------------------------------


def _digest(tr):
    h = hashlib.sha256()
    for arr in (tr.times, tr.values, tr.derivatives, tr.left_derivatives):
        h.update(b"none" if arr is None else arr.tobytes())
    h.update(repr((tr.diverged, tr.divergence_time)).encode())
    return h.hexdigest()


_WOBBLE = tf.GeneralDelay(lambda t: t - (0.5 + 0.4 * math.sin(t)), 0.9)
_SLOW_WOBBLE = tf.GeneralDelay(lambda t: t - (1.0 + 0.3 * math.sin(0.7 * t)), 1.3)
# A lag that swings between 0.5 and 1.5, 25 to 75 steps of 0.02.
_SWING = tf.GeneralDelay(lambda t: t - (1.0 + 0.5 * math.sin(0.7 * t)), 1.5)
# A removal run from 1e150 that swings past 1.34e154 around t = 14.3, where
# x^2 of a delayed read overflows in the middle of a segment.
_HUGE_REMOVAL = md.MackeyGlassRemoval(r=tf.constant(4.0), beta=1.25, gamma=1.0, n=2.0,
                                      g=tf.ConstantLag(0.5), h=tf.ConstantLag(1.0))


def _huge_removal_run(on_divergence):
    return sv.integrate(_HUGE_REMOVAL, 1e150, 40.0, step=0.01, initial_value=1e150,
                        divergence_threshold=1e300, on_divergence=on_divergence)


# A production run whose x^2 at the lag of 1 overflows in the middle of a
# segment near t = 9.68: the forcing drives it up from 1e150. With q reading
# x(t), the overflow is x(t)^2 in the current part, and the run ends at 8.68.
_HUGE_PRODUCTION = md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=2.0,
                                            p=tf.ConstantLag(0.5), q=tf.ConstantLag(1.0))
_HUGE_PRODUCTION_NOW = md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=2.0,
                                                p=tf.ConstantLag(1.0), q=tf.IdentityDelay())


def _huge_production_run(on_divergence, model=_HUGE_PRODUCTION):
    return sv.integrate(model, 1e150, 40.0, step=0.01, initial_value=1e150,
                        forcing=lambda t: 1e153 * t, divergence_threshold=1e300,
                        on_divergence=on_divergence)


def _raised_trajectory(run):
    with pytest.raises(sv.DivergenceError) as info:
        run()
    return info.value.trajectory


# One run for each way a read leaves a segment's numpy reads for the scalar
# read (a step equal to the lag, reads near t0 under a start jump,
# extrapolation, windows reaching the current time), plus tabulated and
# function histories, forcing, general delays, both models with and without
# an undelayed argument, a fundamental solution, diverging runs, and two runs
# with no delayed point read: one with windows alone, all on the scalar
# loop, and one with nothing to read, whose forcing is its whole right-hand
# side, one segment. The digests were
# taken from the integrator that evaluated every stage and read by itself;
# those of the delay-only runs whose lags span many steps (a general delay,
# an overflow inside a segment in both divergence modes, NaN from a negative
# x under a fractional n) before delay-only runs settled segments of steps
# in one numpy pass; and those of the runs whose state part reads x(t) at
# lags of many steps (eq3's shape, a linear run whose x(t) term comes first
# and one with two x(t) terms, production runs with forcing, with NaN from a
# fractional n, and with an overflow inside a segment in both divergence
# modes) before such runs were settled a segment of steps per pass too;
# those of an overflow in the current part (both divergence modes) and of
# windows whose start is a general delay, whole and narrow, before every
# delayed read was placed once per run; and that of a lag swinging between
# 25 and 75 steps before a segment followed the lag where it is rather than
# the run's least lag; those of runs whose terms share a site (a constant
# lag, ex51's g = h, a general delay, a general window start), of the window
# pair to t = 21, of windows narrower than a step, under a tabulated history
# with a start jump, and extrapolated, before each distinct site was read
# once and every window placed once per run.
PIN_RUNS = {
    "step_equals_lag": (
        lambda: sv.integrate(_linear([(0.9, 0.05)]), 1.0, 3.0, step=0.05),
        "17d3ebbf29845904f8f3358da63baa35cf2725a9ad8a788493807cfcf8ff4a5a",
    ),
    "start_jump_constant_lags": (
        lambda: sv.integrate(
            _linear([(0.9, 1.0)], [(0.3, 0.7)]), 0.8, 10.0, step=0.01, initial_value=1.2
        ),
        "a95de3a70fc2eb79ed27fe099dfa46b930e8a10af48a60477a3a132d39dba331",
    ),
    "extrapolation": (
        lambda: sv.integrate(
            _linear([(0.9, 0.2)]), 1.0, 5.0, step=0.3, allow_extrapolation=True
        ),
        "3119ba9017322352da72021c652485d22536909b750d16de08d81a24ca9725b1",
    ),
    "window_to_now": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[_term(0.3, 0.5)],
                distributed_terms=[cr.DistributedTerm(1, tf.constant(0.8), tf.ConstantLag(1.0))],
            ),
            0.8, 6.0, step=0.05, initial_value=1.2,
        ),
        "aa7f4831f0af2b66f1a8b49cd1792afb3fb73b784d210b3a23d610831d0e722c",
    ),
    "narrow_window": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                negative_terms=[_term(0.2, 0.0)],
                distributed_terms=[cr.DistributedTerm(
                    1, tf.constant(0.9), tf.ConstantLag(1.1), cr.UniformKernel(0.2)
                )],
            ),
            1.0, 6.0, step=0.02,
        ),
        "fb1a58190366d48d481a8d0d1e4aa1a34a686bb63017f108d5aa14b6fc6bb244",
    ),
    "tabulated_history": (
        lambda: sv.integrate(
            _linear([(0.9, 1.0)], [(0.2, 0.0)]),
            sv.tabulate_history(math.cos, -1.5, 0.0, 0.1), 6.0, step=0.02,
        ),
        "ac5bfb1db393d05bf8acc5e25a32b41aa3a04829a064d510fa8bc5f049b33033",
    ),
    "function_history_forcing": (
        lambda: sv.integrate(
            _linear([(1.0, 0.0), (0.5, 1.0)]), math.cos, 10.0, step=0.01,
            forcing=lambda t: -math.sin(t) + math.cos(t) + 0.5 * math.cos(t - 1.0),
        ),
        "1d4044bda706c51508f73699f8f7a276fd6ba476fd5a74e6c0f92753118579f0",
    ),
    "distributed_only": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(distributed_terms=[
                cr.DistributedTerm(1, tf.constant(0.9), tf.ConstantLag(1.2), cr.UniformKernel(0.5)),
                cr.DistributedTerm(-1, tf.sinsq(0.2, 1.1), tf.ConstantLag(0.7)),
            ]),
            0.8, 10.0, step=0.02, initial_value=1.2,
        ),
        "2c81071f79a33504b6862aa4494a6de1b0fa7719599a4338cffd9499ec35cf97",
    ),
    "forcing_only": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(), 0.5, 10.0, step=0.01,
            forcing=lambda t: math.cos(t) * math.exp(-0.1 * t),
        ),
        "59fb8a686d8bbae92e848633d68eefdbf2c9c4e0f736d79f95a8cd6f59622b96",
    ),
    "general_delay": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.8, 1.3), _WOBBLE)]),
            0.8, 8.0, step=0.02, initial_value=1.2,
        ),
        "b42c451beaffae1efd8f4661a1e4af87641d3cf289fe10041e32f2d3abb4b1d9",
    ),
    "general_delay_blocks": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[cr.Term(tf.sinsq(0.8, 1.3), _SLOW_WOBBLE),
                                cr.Term(tf.constant(0.3), tf.ConstantLag(1.5))],
                negative_terms=[cr.Term(tf.constant(0.1), tf.ConstantLag(0.8))],
            ),
            0.8, 12.0, step=0.02, initial_value=1.2,
        ),
        "8afe35263b110c267cd7acbaa251128fa0cb9fa36df2733144c7fabc6f57e05e",
    ),
    "general_lag_swing": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(positive_terms=[cr.Term(tf.constant(0.5), _SWING)]),
            0.8, 40.0, step=0.02, initial_value=1.2,
        ),
        "387139f8dd78338354aa522bd8df0a79354c9a1f330c796aaeb934670f657b70",
    ),
    "overflow_in_block_truncate": (
        lambda: _huge_removal_run("truncate"),
        "a1cbaf0dd748683b75fcdd14f159122ab238020516eb13cc1883ef5f5de4076a",
    ),
    "overflow_in_block_raise": (
        lambda: _raised_trajectory(lambda: _huge_removal_run("raise")),
        "a1cbaf0dd748683b75fcdd14f159122ab238020516eb13cc1883ef5f5de4076a",
    ),
    "removal_fractional_n_nan": (
        lambda: sv.integrate(
            md.MackeyGlassRemoval(r=tf.sinsq(6.0, math.pi), beta=1.25, gamma=1.0, n=2.5,
                                  g=tf.ConstantLag(1.2), h=tf.ConstantLag(1.0)),
            0.5, 40.0, step=0.01, initial_value=0.9, on_divergence="truncate",
        ),
        "2aaca73e1fb67f04e5be49b98a01a7e7c796ccc235a79565b87bd135ecc32031",
    ),
    "ex51": (
        lambda: sv.integrate(md.ex51(), 0.4, 30.0, step=0.01, initial_value=0.6),
        "aa974d1ba708e4016e24fd14d1b0e4fc4b4c0ac15d2988a85593a2b2669900c5",
    ),
    "ex5": (
        lambda: sv.integrate(md.ex5(n=11.0), 0.8, 60.0, step=0.05, initial_value=1.2),
        "183bfb2d02b908c49a2c307af9a9f9e17e53a8fa9ba46e5d4a8cfdf43371442d",
    ),
    "fundamental_solution": (
        lambda: sv.fundamental_solution(md.eq26(), 0.5, 8.0, step=0.01),
        "e43245eb44f09bfe5af75f51af0b9cb84179d8ea6143fc3029451d691cdefd96",
    ),
    "divergence": (
        lambda: sv.integrate(
            _linear([(1.0, 3.0)]), 1.0, 200.0, step=0.01, divergence_threshold=10.0,
            on_divergence="truncate",
        ),
        "e54c1f5ec040aa334d8582a7231d40d89cf3bb59a62594be9eba8aa05a50b96b",
    ),
    "removal_undelayed_g": (
        lambda: sv.integrate(
            md.MackeyGlassRemoval(r=tf.sinsq(2.0, math.pi), beta=1.25, gamma=1.0, n=2.0,
                                  g=tf.IdentityDelay(), h=tf.ConstantLag(1.0)),
            0.5, 20.0, step=0.01, initial_value=0.7,
        ),
        "42b56c94180acb1bb37a98db7ce6106e92345bd12556766721c7bf0b39aa771b",
    ),
    "sinsq_undelayed_negative": (
        lambda: sv.integrate(md.eq3abc(0.6, 0.45), 0.8, 40.0, step=0.02, initial_value=1.2),
        "301cd576e4fb2e4d0d556c37d6b4ffaa89ef85bdc18767d7f39214ed0a294e3a",
    ),
    "linear_current_first": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[cr.Term(tf.constant(0.5), tf.IdentityDelay()),
                                cr.Term(tf.sinsq(0.4, 1.3), tf.ConstantLag(1.0))],
                negative_terms=[cr.Term(tf.constant(0.2), tf.ConstantLag(0.6))],
            ),
            0.8, 20.0, step=0.01, initial_value=1.2,
        ),
        "86d88c650caa1db6a72e7e030c8af4aadb5a1b62856709dba84245208b66a446",
    ),
    "linear_two_current_terms": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[cr.Term(tf.sinsq(0.5, 1.1), tf.ConstantLag(1.0)),
                                cr.Term(tf.constant(0.7), tf.IdentityDelay())],
                negative_terms=[cr.Term(tf.constant(0.2), tf.ConstantLag(0.5)),
                                cr.Term(tf.sinsq(0.3, 0.9), tf.IdentityDelay())],
            ),
            0.8, 20.0, step=0.01, initial_value=1.2, forcing=lambda t: 0.1 * math.cos(t),
        ),
        "e4a77a96ebd958c19abfdcd2a3a621831a741d476556422848d4d01ecd2757f4",
    ),
    "production_forcing": (
        lambda: sv.integrate(
            md.MackeyGlassProduction(s=tf.sinsq(0.8, math.pi), beta=2.0, n=4.0,
                                     p=tf.ConstantLag(1.0), q=tf.ConstantLag(2.0)),
            0.9, 40.0, step=0.02, initial_value=1.1, forcing=lambda t: 0.05 * math.cos(t),
        ),
        "d7a2cc2eb0e1b1a8e79991aa3e052ba23e0e02ce055a3645365a9ed9a40754fa",
    ),
    "production_fractional_n_nan": (
        lambda: sv.integrate(
            md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=2.5,
                                     p=tf.ConstantLag(0.5), q=tf.ConstantLag(1.0)),
            0.5, 40.0, step=0.01, forcing=lambda t: -1.5 if t > 7.3 else 0.0,
            on_divergence="truncate",
        ),
        "c3e6ee2d3863a09b9d96773c0f1c20b4bbc665f2b1736cd5807df1762f4bc27c",
    ),
    "production_overflow_in_block_truncate": (
        lambda: _huge_production_run("truncate"),
        "8ddd4e6794f9e6d5f72e217d00aca3171eeed50ff65f88803f5ab4a9c4d36226",
    ),
    "production_overflow_in_block_raise": (
        lambda: _raised_trajectory(lambda: _huge_production_run("raise")),
        "8ddd4e6794f9e6d5f72e217d00aca3171eeed50ff65f88803f5ab4a9c4d36226",
    ),
    "production_current_overflow_truncate": (
        lambda: _huge_production_run("truncate", _HUGE_PRODUCTION_NOW),
        "c75a558e2cd7767dd49883a414552f91870189dc7f43e1e838b24760b4a2c50e",
    ),
    "production_current_overflow_raise": (
        lambda: _raised_trajectory(lambda: _huge_production_run("raise", _HUGE_PRODUCTION_NOW)),
        "c75a558e2cd7767dd49883a414552f91870189dc7f43e1e838b24760b4a2c50e",
    ),
    "general_window_start": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[_term(0.2, 0.5)],
                distributed_terms=[cr.DistributedTerm(1, tf.constant(0.6), _SLOW_WOBBLE)],
            ),
            0.8, 10.0, step=0.02, initial_value=1.2,
        ),
        "57d7f1110950f2f520aa34912839c361d312a3f635602863188adbcc1734bbf6",
    ),
    "general_window_start_narrow": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[_term(0.2, 0.5)],
                distributed_terms=[cr.DistributedTerm(
                    1, tf.constant(0.6), _SLOW_WOBBLE, cr.UniformKernel(0.6)
                )],
            ),
            0.8, 10.0, step=0.02, initial_value=1.2,
        ),
        "e47f57c09a4a7014535240c418421bebdd972e92068745dec59526d98c94b09f",
    ),
    "production_undelayed_q": (
        lambda: sv.integrate(
            md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=4.0,
                                     p=tf.ConstantLag(2.0), q=tf.IdentityDelay()),
            0.9, 30.0, step=0.02, initial_value=1.1, forcing=lambda t: 0.1 * math.sin(t),
        ),
        "6df384dfa83e43448669809a3881830d1ea749685b08dfa37b5ace5c4ed1ae8c",
    ),
    "window_pair_long": (
        lambda: _window_run(0.05, 21.0),
        "a40c7ba8735fd4c6220a6f548f976b164fae5a4a75a83aeef7fa3cfcf044daaf",
    ),
    "one_lag_both_signs": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[cr.Term(tf.constant(0.9), tf.ConstantLag(1.0))],
                negative_terms=[cr.Term(tf.sinsq(0.3, 1.3), tf.ConstantLag(1.0))],
            ),
            0.8, 20.0, step=0.01, initial_value=1.2,
        ),
        "8b6e2f12270d7a6f8309c65c68688c467894b0b198042cbc2573ab2c03764ee2",
    ),
    "ex51_sigma_one": (
        lambda: sv.integrate(md.ex51(sigma=1.0), 0.4, 30.0, step=0.01, initial_value=0.6),
        "6abf71e6e0836eda34227f494cdcdf04bf701540bf23d52adb3e7395291929da",
    ),
    "general_delay_shared": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[cr.Term(tf.constant(0.8), _SLOW_WOBBLE)],
                negative_terms=[cr.Term(tf.sinsq(0.2, 1.3), _SLOW_WOBBLE)],
            ),
            0.8, 12.0, step=0.02, initial_value=1.2,
        ),
        "94a4601576ede4ee17cd2347be576a013b407ff2085d3b70704f4d557e105951",
    ),
    "general_window_start_shared": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[_term(0.2, 0.5)],
                distributed_terms=[cr.DistributedTerm(1, tf.constant(0.6), _SLOW_WOBBLE),
                                   cr.DistributedTerm(-1, tf.constant(0.2), _SLOW_WOBBLE)],
            ),
            0.8, 10.0, step=0.02, initial_value=1.2,
        ),
        "3c52038cc2d98b47a303af1fb60d2ba7f61897bbc8b5e086237947b51386b9bb",
    ),
    "window_inside_step": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(distributed_terms=[
                cr.DistributedTerm(1, tf.constant(0.9), tf.ConstantLag(1.1), cr.UniformKernel(0.01)),
                cr.DistributedTerm(-1, tf.constant(0.3), tf.ConstantLag(0.5), cr.UniformKernel(0.3)),
            ]),
            math.cos, 8.0, step=0.02,
        ),
        "6a06a4c9e90b01161b6f61f9d2a7632a6db1a8f7ed2d57ef2a56f838f30bc27b",
    ),
    "window_tabulated_history_jump": (
        lambda: _window_run(0.05, 6.0, sv.tabulate_history(math.cos, -1.0, 0.0, 0.1)),
        "9dd4bec4071ca6fcb0fb156f978813157143550702b3f9af892f0cfe66223fc4",
    ),
    "window_extrapolated": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(
                positive_terms=[cr.Term(tf.constant(0.5), tf.ConstantLag(0.15))],
                distributed_terms=[cr.DistributedTerm(
                    1, tf.constant(0.4), tf.ConstantLag(0.2), cr.UniformKernel(0.1)
                )],
            ),
            1.0, 5.0, step=0.3, allow_extrapolation=True,
        ),
        "1bff4a41a5e0c9179ccd2e96926c9eaf983b97d1b4fe428af2e52bd55a6a84ce",
    ),
}


@pytest.mark.parametrize("name", sorted(PIN_RUNS))
def test_trajectory_bits_are_pinned(name):
    run, digest = PIN_RUNS[name]
    assert _digest(run()) == digest


def test_non_finite_start_derivative_ends_the_run_at_t0():
    # -1e300 * 1e10 overflows, so x'(t0) is infinite while x0 stays below the threshold.
    eq = cr.LinearDelayEquation(positive_terms=[_term(1e300, 0.0)])
    raised = _raised_trajectory(lambda: sv.integrate(eq, 1e10, 5.0, step=0.01))
    kept = sv.integrate(eq, 1e10, 5.0, step=0.01, on_divergence="truncate")
    for tr in (raised, kept):
        assert (tr.times.tolist(), tr.values.tolist(), tr.derivatives.tolist()) == ([0.0], [1e10], [0.0])
        assert (tr.diverged, tr.divergence_time, tr.left_derivatives) == (True, 0.0, None)


def test_general_delay_breaking_its_bound_between_lag_samples_raises_at_its_step():
    # Only the stage times 10.01, 10.02 and 10.03 see the lag of 5; placing
    # the reads up front gives up on this delay at the first of them, and the
    # scalar read meets the error at its own step.
    bad = tf.GeneralDelay(lambda t: t - (5.0 if 10.005 < t < 10.035 else 0.5), 1.0)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.constant(0.4), bad)])
    with pytest.raises(tf.DomainError) as info:
        sv.integrate(eq, 1.0, 25.6, step=0.02)
    assert str(info.value) == "delayed argument 5.01 lags current time 10.01 by more than lag_bound 1"


def test_general_delay_whose_argument_is_not_a_number_raises_at_its_step():
    bad = tf.GeneralDelay(lambda t: math.nan if t >= 20.0 else t - 1.0 - 0.4 * math.sin(0.9 * t), 1.4)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.4, 1.2), bad)])
    with pytest.raises(tf.DomainError, match="at current time 20 is not a number"):
        sv.integrate(eq, 1.0, 30.0, step=0.02)


def test_general_delay_is_called_once_per_stage_time():
    calls = []

    def wobble(t):
        calls.append(t)
        return t - (1.0 + 0.3 * math.sin(0.7 * t))

    # The run of the "general_delay_blocks" pin, whose lags span many steps.
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.sinsq(0.8, 1.3), tf.GeneralDelay(wobble, 1.3)),
                        cr.Term(tf.constant(0.3), tf.ConstantLag(1.5))],
        negative_terms=[cr.Term(tf.constant(0.1), tf.ConstantLag(0.8))],
    )
    # Each midpoint and step end, and t0 for the start slope, whether or not
    # reads may pass the last node.
    for allow_extrapolation in (False, True):
        calls.clear()
        steps = sv.integrate(eq, 0.8, 12.0, step=0.02, initial_value=1.2,
                             allow_extrapolation=allow_extrapolation).times.size - 1
        assert len(calls) <= 2 * steps + 1


@pytest.mark.parametrize("dip", [(10.015, 10.025), (10.005, 10.015)])
def test_general_lag_below_the_step_at_any_stage_time_is_rejected_up_front(dip):
    # The lag of 0.015 < 0.02 is seen at the step end 10.02 or only at the
    # midpoint 10.01; either way no step is taken.
    lo, hi = dip
    coeff = _CountingConstant(0.4)
    dipping = tf.GeneralDelay(lambda t: t - (0.015 if lo < t < hi else 0.5), 1.0)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(coeff, dipping)])
    with pytest.raises(tf.ConfigurationError, match="smallest positive lag 0.015"):
        sv.integrate(eq, 1.0, 20.0, step=0.02)
    assert coeff.calls == 0


@pytest.mark.parametrize("t1", [9.0, 20.0])
def test_general_lag_below_the_step_is_rejected_up_front_though_the_delay_raises_later(t1):
    # The lag dips to 0.005 on (2, 3) and breaks its bound of 1 past t = 10.
    # The stage times it lands at before it raises show the dip either way;
    # giving up on the whole delay, the run to 20 raised mid-run instead.
    coeff = _CountingConstant(0.3)
    dipping = tf.GeneralDelay(
        lambda t: t - (0.005 if 2.0 < t < 3.0 else 2.0 if t > 10.0 else 0.5), 1.0)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(coeff, dipping)])
    with pytest.raises(tf.ConfigurationError, match="smallest positive lag 0.005"):
        sv.integrate(eq, 1.0, t1, step=0.02)
    assert coeff.calls == 0


def test_a_window_ending_less_than_a_step_before_t_is_rejected_up_front():
    # The window's upper end lags t by 0.005 < 0.01, as a point lag below the
    # step would. Alone it raised mid-run; beside a window that reaches t,
    # whose predictor then served it too, the run completed.
    coeff = _CountingConstant(0.5)
    narrow = cr.DistributedTerm(1, coeff, tf.ConstantLag(0.5), cr.UniformKernel(0.495))
    whole = cr.DistributedTerm(1, tf.constant(0.2), tf.ConstantLag(0.5))
    for windows in ([narrow], [narrow, whole]):
        eq = cr.LinearDelayEquation(distributed_terms=windows)
        with pytest.raises(tf.ConfigurationError, match="smallest positive lag 0.005"):
            sv.integrate(eq, 1.0, 5.0, step=0.01)
    assert coeff.calls == 0


def test_a_general_delay_that_raises_later_is_settled_in_passes_up_to_there(monkeypatch):
    # Landed in time order, the delay is NaN from its first raise, at 10.005,
    # on: the 1 000 steps up to t = 10 are settled in passes, and the scalar
    # read meets the error at its own step. Giving up on the whole delay took
    # every step on the scalar loop and 3 003 calls.
    calls = []

    def wobble(t):
        calls.append(t)
        return t - (0.5 * (1.0 + 0.3 * math.sin(t)) if t <= 10.0 else 2.0)

    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.4), tf.GeneralDelay(wobble, 0.65))])
    array_stages = _count_array_stages(monkeypatch)
    with pytest.raises(tf.DomainError) as info:
        sv.integrate(eq, 1.0, 20.0, step=0.01)
    assert str(info.value) == (
        "delayed argument 8.005 lags current time 10.005 by more than lag_bound 0.65")
    assert sum(array_stages) == 2 * 1000
    # Each stage time up to 10.005, t0 for the start slope, and 10.005 again.
    assert len(calls) == 2 * 1000 + 3
    # A run that stops short of the raise keeps its bits.
    assert _digest(sv.integrate(eq, 1.0, 9.9, step=0.01)) == (
        "99dad0ccb437eea30eafe6101fe8ea4f2e3c556c11d84fa38679762d2f53372b")


@pytest.mark.parametrize("run", [
    lambda eq: sv.integrate_columns([eq, eq], [1.0], 5.0, step=0.05),
    lambda eq: sv.integrate(eq, 1.0, 5.0, step=0.05, on_divergence="ignore"),
    lambda eq: sv.integrate(eq, 1.0, 5.0, step=0.0),
    lambda eq: sv.integrate(eq, 1.0, 5.0, step=-0.01),
    lambda eq: sv.integrate(eq, 1.0, 5.0, step=math.nan),
    lambda eq: sv.integrate(eq, 1.0, 0.0, step=0.05),
    lambda eq: sv.integrate(eq, 1.0, -1.0, step=0.05),
], ids=["targets_without_histories", "on_divergence", "step_zero", "step_negative", "step_nan",
        "t1_at_t0", "t1_before_t0"])
def test_invalid_run_arguments_are_rejected_up_front(run):
    coeff = _CountingConstant(0.4)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(coeff, tf.ConstantLag(1.0))])
    with pytest.raises(tf.ConfigurationError):
        run(eq)
    assert coeff.calls == 0


def test_nan_divergence_threshold_is_rejected_up_front():
    coeff = _CountingConstant(0.4)
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(coeff, tf.ConstantLag(1.0))])
    with pytest.raises(tf.ConfigurationError):
        sv.integrate(eq, 1.0, 5.0, step=0.05, divergence_threshold=math.nan)
    assert coeff.calls == 0
    # No threshold at all stays allowed.
    assert sv.integrate(eq, 1.0, 5.0, step=0.05, divergence_threshold=math.inf).t1 == 5.0


class _CountingConstant(tf.Coefficient):
    """A constant coefficient that counts its evaluations."""

    def __init__(self, v):
        self.v = v
        self.calls = 0

    def value(self, t):
        self.calls += 1
        return self.v


def test_each_stage_time_is_evaluated_once_and_reads_come_in_blocks(monkeypatch):
    coeffs = [_CountingConstant(0.3), _CountingConstant(0.2)]
    eq = cr.LinearDelayEquation(positive_terms=[
        cr.Term(coeffs[0], tf.ConstantLag(1.0)), cr.Term(coeffs[1], tf.ConstantLag(0.7)),
    ])
    scalar_reads = []
    hermite = sv._hermite

    def counting_hermite(*args):
        if isinstance(args[-1], float):  # a segment passes arrays
            scalar_reads.append(args[-1])
        return hermite(*args)

    monkeypatch.setattr(sv, "_hermite", counting_hermite)
    # The run reads only the past, so segments of its steps go through the
    # state part on arrays; count the stage values those calls give.
    array_stages = _count_array_stages(monkeypatch)
    steps = sv.integrate(eq, 1.0, 20.0, step=0.01).times.size - 1
    # The midpoint serves k2 and k3; the step end serves k4 and the node slopes.
    assert max(c.calls for c in coeffs) <= 2 * steps + 1
    assert len(scalar_reads) <= 0.05 * steps
    # Both stage values of nine steps in ten come from array calls.
    assert sum(array_stages) >= 0.9 * 2 * steps


def _count_array_stages(monkeypatch, times=None):
    """The number of stage times in each call of ``delayed`` on arrays, counted
    as the call starts; each time the time part is evaluated at goes into
    ``times``, if given."""
    array_stages = []
    make_rhs = sv._make_rhs

    def counting_rhs(target, forcing):
        rhs = make_rhs(target, forcing)
        first, *others = rhs.coeffs
        value = first.value if isinstance(first, tf.Coefficient) else first

        def counted(t):
            if times is not None:
                times.append(t)
            return value(t)

        def delayed(cv, xv):
            if isinstance(cv[0], np.ndarray):
                array_stages.append(cv[0].size)
            return rhs.delayed(cv, xv)

        return dataclasses.replace(rhs, coeffs=(counted, *others), delayed=delayed)

    monkeypatch.setattr(sv, "_make_rhs", counting_rhs)
    return array_stages


def test_each_stage_time_is_evaluated_once_when_the_state_reads_x_now(monkeypatch):
    # eq26: x' + x(t - 1) - 0.3 x(t) = 0. The state part reads x(t), so segments
    # of steps get their delayed part on arrays and finish on floats.
    times = []
    array_stages = _count_array_stages(monkeypatch, times)
    steps = sv.integrate(md.eq26(), 1.0, 20.0, step=0.01, initial_value=1.2).times.size - 1
    assert len(times) <= 2 * steps + 1
    # Both stage times of nine steps in ten get their delayed part from array calls.
    assert sum(array_stages) >= 0.9 * 2 * steps


def _count_passes(monkeypatch):
    """The number of stage times in each pass of a one-column run: its
    ``delayed`` is called on arrays once per pass, a pass that raises included."""
    return _count_array_stages(monkeypatch)


def test_a_pass_that_raises_hands_its_segment_to_the_scalar_loop(monkeypatch):
    # x^2 overflows in the middle of a segment: the pass raises there once, and
    # the scalar loop settles the rest of that segment without asking it again.
    sizes = _count_passes(monkeypatch)
    steps = _huge_removal_run("truncate").times.size - 1
    assert sum(sizes) <= 2 * steps + sizes[-1]


def test_a_swinging_lag_is_settled_in_segments_that_follow_it(monkeypatch):
    # A segment ends where a read reaches its first step, so it spans the lag
    # of its own stretch of the run (25 to 75 steps), not the run's least:
    # sized by the least lag, the 2 000 steps took 80 passes.
    sizes = _count_passes(monkeypatch)
    steps = PIN_RUNS["general_lag_swing"][0]().times.size - 1
    assert len(sizes) <= 50
    assert sum(sizes) == 2 * steps


def test_a_zero_constant_lag_reads_the_current_state():
    # x' + x(t - 1) - 0.3 x(t - 0) = 0 is eq26; the zero lag used to be read
    # as a delay landing in the step being taken, and raised.
    runs = [
        sv.integrate(
            cr.LinearDelayEquation(positive_terms=[_term(1.0, 1.0)],
                                   negative_terms=[cr.Term(tf.constant(0.3), delay)]),
            0.8, 10.0, step=0.01, initial_value=1.2,
        )
        for delay in (tf.ConstantLag(0.0), tf.IdentityDelay())
    ]
    assert _digest(runs[0]) == _digest(runs[1])


def test_each_distinct_site_is_read_once_per_stage_time(monkeypatch):
    # A general delay read by two terms, and a general window start shared by
    # two windows, are called as often as with one term: once per stage time
    # and once at t0 for the start slope.
    calls = []

    def wobble(t):
        calls.append(t)
        return t - (1.0 + 0.3 * math.sin(0.7 * t))

    delay = tf.GeneralDelay(wobble, 1.3)
    pair = [cr.Term(tf.constant(0.8), delay)], [cr.Term(tf.sinsq(0.2, 1.3), delay)]
    windows = [cr.DistributedTerm(1, tf.constant(0.6), delay),
               cr.DistributedTerm(-1, tf.constant(0.2), delay)]
    averages = []
    window_average = sv._window_average
    monkeypatch.setattr(sv, "_window_average", lambda *args: averages.append(args[1])
                        or window_average(*args))
    for one, two in (
        (cr.LinearDelayEquation(positive_terms=pair[0]),
         cr.LinearDelayEquation(positive_terms=pair[0], negative_terms=pair[1])),
        (cr.LinearDelayEquation(distributed_terms=windows[:1]),
         cr.LinearDelayEquation(distributed_terms=windows)),
    ):
        counts = []
        for eq in (one, two):
            calls.clear()
            steps = sv.integrate(eq, 0.8, 12.0, step=0.02, initial_value=1.2).times.size - 1
            counts.append(len(calls))
        assert counts == [2 * steps + 1] * 2
    # Every window read is placed, the start slope's too: the site read serves
    # only the slots placement cannot know.
    assert averages == []


@pytest.mark.parametrize("kernels", [[None], [None, 0.4]], ids=["point_and_window", "two_windows"])
def test_a_delay_shared_by_sites_of_two_kinds_lands_once(kernels):
    # One general delay read by a point term and starting a window, or
    # starting two windows of different kernels (so two sites), lands once per
    # run: at t0 and at each of the 1 200 stage times. Landed once per site,
    # it was called 2 402 times.
    calls = []

    def wobble(t):
        calls.append(t)
        return t - (1.0 + 0.3 * math.sin(0.7 * t))

    delay = tf.GeneralDelay(wobble, 1.3)
    windows = [cr.DistributedTerm(1, tf.constant(0.3), delay, cr.UniformKernel(width))
               for width in kernels]
    points = [cr.Term(tf.constant(0.4), delay)] if len(kernels) == 1 else []
    eq = cr.LinearDelayEquation(positive_terms=points, distributed_terms=windows)
    assert len(sv._make_rhs(eq, None).sites) == 2
    steps = sv.integrate(eq, 0.8, 12.0, step=0.02, initial_value=1.2).times.size - 1
    assert steps == 600 and len(calls) == 2 * steps + 1


def _window_property_run(start, width, history, jump, unstable, mix, lag, a, step):
    """A short run over one window that a removal and a feedback term share:
    its ``start`` a constant lag, a general delay, or one that touches t
    (windows of length zero); its kernel whole or of ``width``; under a
    constant, a function or a tabulated ``history``, with or without a start
    ``jump``; ``unstable`` runs (a * lag = 12, threshold 1.5) mostly diverge,
    and ``mix`` adds a point read and an x(t) term."""
    start = {
        "constant": tf.ConstantLag(lag),
        "general": tf.GeneralDelay(lambda t: t - lag * (1.0 + 0.3 * math.sin(t)), 1.3 * lag),
        "touching": tf.GeneralDelay(lambda t: t - lag * max(0.0, math.sin(3.0 * t)), lag),
    }[start]
    if unstable:
        a = 12.0 / lag
    kernel = cr.UniformKernel(width)
    windows = [cr.DistributedTerm(1, tf.constant(a), start, kernel),
               cr.DistributedTerm(-1, tf.sinsq(0.3 * a, 1.0), start, kernel)]
    positive, negative = [], []
    if mix:
        positive, negative = [_term(0.3 * a, max(lag, step))], [_term(0.1 * a, 0.0)]
    eq = cr.LinearDelayEquation(positive_terms=positive, negative_terms=negative,
                                distributed_terms=windows)
    phi = {
        "constant": 0.8,
        "function": sv.FunctionHistory(lambda t: 0.8 + 0.2 * math.cos(3.0 * t)),
        "tabulated": sv.tabulate_history(lambda t: 0.8 - 0.1 * t, -2.5, 0.0, 0.1),
    }[history]
    return sv.integrate(eq, phi, 6.0, step=step, initial_value=1.2 if jump else None,
                        divergence_threshold=1.5 if unstable else 1e12,
                        on_divergence="truncate")


def _outcome(run):
    """A run's trajectory bits, or the type and message of what it raised."""
    try:
        tr = run()
    except Exception as exc:
        return type(exc), str(exc)
    return [None if arr is None else arr.tobytes()
            for arr in (tr.times, tr.values, tr.derivatives, tr.left_derivatives)], (
        tr.diverged, tr.divergence_time)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    start=st.sampled_from(["constant", "general", "touching"]),
    width=st.sampled_from([None, 0.004, 0.3, 3.0]),
    history=st.sampled_from(["constant", "function", "tabulated"]),
    jump=st.booleans(),
    unstable=st.booleans(),
    mix=st.booleans(),
    lag=st.floats(0.05, 1.5),
    a=st.floats(0.1, 2.0),
    step=st.sampled_from([0.01, 0.02, 0.05]),
)
# A window of 0.3 ending 0.02 before t, at a step of 0.05: its reads would
# reach past the last node, so the run is rejected up front either way.
@example(start="constant", width=0.3, history="function", jump=True, unstable=False, mix=True,
         lag=0.32, a=1.0, step=0.05)
def test_property_placed_windows_are_the_site_read_bit_for_bit(start, width, history, jump,
                                                                unstable, mix, lag, a, step):
    args = (start, width, history, jump, unstable, mix, lag, a, step)
    placed = _outcome(lambda: _window_property_run(*args))
    # Placement off: every window slot is read at the site. A run with a
    # window builds its geometry anew, so it cannot get the placed one back.
    with mock.patch.object(sv, "_placed_window", lambda lo, *rest: [None] * lo.size):
        site = _outcome(lambda: _window_property_run(*args))
    assert placed == site


def _property_run(kind, a, lag, wobble, now, step, unstable):
    """A short run of ``kind``: a linear equation at a constant lag (``wobble``
    0) or a general one, with an x(t) term of ``now * a`` unless ``now`` is 0;
    ``ex51``; or a production model reading x(t) in its denominator when
    ``now`` < 0. An ``unstable`` run has a threshold of 1.5, and a linear one
    a coefficient times lag of 2.5, a production one a forcing that drives x
    below zero, where its fractional power is NaN: most of them diverge."""
    options = dict(step=step, divergence_threshold=1.5 if unstable else 1e12,
                   on_divergence="truncate")
    if kind == "ex51":
        return sv.integrate(md.ex51(sigma=0.5 + lag, r=2.0 * a), 0.4, 8.0,
                            initial_value=0.6, **options)
    if kind == "production":
        model = md.MackeyGlassProduction(
            s=tf.sinsq(a, 1.0), beta=2.0, n=2.5 + 4.0 * wobble, p=tf.ConstantLag(lag),
            q=tf.IdentityDelay() if now < 0.0 else tf.ConstantLag(2.0 * lag),
        )
        forcing = (lambda t: -3.0 * math.cos(t)) if unstable else None
        return sv.integrate(model, 0.8, 12.0, initial_value=1.2, forcing=forcing, **options)
    delay = tf.ConstantLag(lag)
    if wobble > 0.0:
        delay = tf.GeneralDelay(lambda t: t - lag * (1.0 + wobble * math.sin(t)),
                                lag * (1.0 + wobble))
    if unstable:
        a = 2.5 / lag
    positive, negative = [cr.Term(tf.constant(a), delay)], []
    if now != 0.0:
        (positive if now > 0.0 else negative).append(_term(abs(now) * a, 0.0))
    eq = cr.LinearDelayEquation(positive_terms=positive, negative_terms=negative)
    return sv.integrate(eq, 0.8, 8.0, initial_value=1.2, **options)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["linear", "ex51", "production"]),
    a=st.floats(0.1, 3.0),
    lag=st.floats(0.15, 1.5),
    wobble=st.sampled_from([0.0, 0.2, 0.5]),
    now=st.sampled_from([0.0, 0.5, -0.5]),
    step=st.sampled_from([0.01, 0.02, 0.05]),
    unstable=st.booleans(),
)
def test_property_the_pass_is_the_scalar_loop_bit_for_bit(kind, a, lag, wobble, now, step,
                                                           unstable):
    run = _property_run(kind, a, lag, wobble, now, step, unstable)
    with mock.patch.object(sv, "_BLOCK_STEPS", 10**9):  # every step on the scalar loop
        scalar = _property_run(kind, a, lag, wobble, now, step, unstable)
    for name in ("times", "values", "derivatives", "left_derivatives"):
        got, want = getattr(run, name), getattr(scalar, name)
        assert (got is None and want is None) or got.tobytes() == want.tobytes()
    assert run.diverged == scalar.diverged


class _NegativeRate(tf.Coefficient):
    """A rate below zero, which no library class builds: it turns the
    production form's pull towards its production term into growth."""

    def __init__(self, size):
        self.size = size

    def value(self, t):
        return -self.size * (1.0 + 0.5 * math.cos(t))


_LAG, _NOW = tf.ConstantLag, tf.IdentityDelay()


def _growing_linear(*, pos, neg):
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.sinsq(v, 1.0, 1.0), d) for v, d in pos],
        negative_terms=[cr.Term(tf.sinsq(v, 1.0, 1.0), d) for v, d in neg],
    )


def _growing_production():
    return md.MackeyGlassProduction(s=_NegativeRate(1e4), beta=2.0, n=2.0, p=_LAG(0.5),
                                    q=_LAG(1.0))


# Per case: the target, its forcing, the shape its x(t) part declares (None
# where the pass falls back to calling current, the forced production form
# among them), and two runs (history, initial value, threshold), one crossing the threshold
# and one ending on a slope that is not finite at a finite node, both in the
# middle of a segment. Until the delayed read reaches t0, the linear and
# production cases grow by a factor of some 1e6 to 1e7 a step, so the slope
# of a node just below the largest float overflows, from the initial values
# chosen here; the removal case reads x(t) in its Hill term (n = 1.5), so a
# node below zero has a NaN slope. The rates vary, so the midpoint and the
# step end read different values.
_SHAPE_CASES = {
    "sum": (_growing_linear(pos=[(1e4, _LAG(1.0))], neg=[(1e4, _NOW)]), None, "sum",
            [(0.8, 1.0, 1e100), (0.8, 0.802, math.inf)]),
    "forced sum": (_growing_linear(pos=[(1e4, _LAG(1.0))], neg=[(1e4, _NOW)]),
                   lambda t: 3.0 * t, "sum", [(0.8, 1.0, 1e100), (0.8, 0.802, math.inf)]),
    "product": (_growing_production(), None, "product",
                [(0.8, 1.1, 1e100), (0.8, 0.98, math.inf)]),
    "forced product": (_growing_production(), lambda t: 3.0 * t, None,
                       [(0.8, 1.1, 1e100), (0.8, 0.98, math.inf)]),
    "term after x(t)": (_growing_linear(pos=[(1e4 + 0.5, _LAG(1.5))],
                                        neg=[(1e4, _NOW), (0.5, _LAG(1.0))]),
                        None, None, [(0.8, 1.0, 1e100), (0.8, 0.802, math.inf)]),
    "two x(t) terms": (_growing_linear(pos=[(1e4, _LAG(1.0)), (2.5e3, _NOW)], neg=[(1.25e4, _NOW)]),
                       None, None, [(0.8, 1.0, 1e100), (0.8, 0.802, math.inf)]),
    "removal, g = x(t)": (md.MackeyGlassRemoval(r=tf.constant(200.0), beta=1.0, gamma=1.0, n=1.5,
                                                g=_NOW, h=_LAG(1.0)),
                          None, None, [(-1.0, 0.5, 10.0), (1.0, 15.0, math.inf)]),
}


@pytest.mark.parametrize("case", sorted(_SHAPE_CASES))
@pytest.mark.parametrize("ends_on", ["threshold", "slope"])
def test_the_shaped_recurrence_is_the_scalar_loop_bit_for_bit(case, ends_on):
    target, forcing, shape, runs = _SHAPE_CASES[case]
    history, x0, threshold = runs[ends_on == "slope"]

    def run():
        return sv.integrate(target, history, 3.0, step=0.01, initial_value=x0, forcing=forcing,
                            divergence_threshold=threshold, on_divergence="truncate")

    settled = []
    settle = sv._settle

    def recording(*args):
        out = settle(*args)
        settled.append((args[0], len(args[4]), len(out[1])))
        return out

    with mock.patch.object(sv, "_settle", recording):
        got = run()
    with mock.patch.object(sv, "_BLOCK_STEPS", 10**9):  # every step on the scalar loop
        want = run()
    assert _digest(got) == _digest(want)
    # The pass ran in the declared shape and stopped in mid-segment, where the
    # run ends: at a node past the threshold, or at a finite node whose slope
    # is not finite.
    assert {s for s, *_ in settled} == {shape}
    assert any(0 < n < m for _, m, n in settled)
    assert got.diverged and got.times[-1] == got.divergence_time
    assert (abs(got.values[-1]) > threshold) == (ends_on == "threshold")


@pytest.mark.parametrize("target", [md.eq3(), md.eq26(), md.ex5()], ids=["eq3", "eq26", "ex5"])
def test_a_pass_over_the_builtins_that_read_x_now_never_calls_current(target, monkeypatch):
    # A builtin whose shape went undeclared would fall back to the loop
    # through ``current`` and still keep its bits; only the calls tell.
    calls, passes = [], []
    settle = sv._settle

    def counting(shape, current, *rest):
        passes.append(shape)
        return settle(shape, lambda y, d: calls.append(y) or current(y, d), *rest)

    monkeypatch.setattr(sv, "_settle", counting)
    sv.integrate(target, 0.8, 60.0, step=0.05, initial_value=1.2)
    assert passes and None not in passes
    assert calls == []


# Where glibc's pow(x, 2), which Python's x**2 calls, differs from x*x and
# from numpy's square, in _pow alone and through the whole reaction.
_POW_TRAP = 0.5500016000000001
_REACTION_TRAP = 0.9200799845202297


def _same(array, scalars):
    assert isinstance(array, np.ndarray)
    assert np.array_equal(array, np.array(scalars), equal_nan=True)


def test_pow_on_arrays_is_the_scalar_pow_element_by_element():
    assert _POW_TRAP ** 2 != _POW_TRAP * _POW_TRAP
    xs = [_POW_TRAP, _REACTION_TRAP, -0.3, 0.0, 2.0]
    for n in (2.0, 10.0, 2.5):
        _same(md._pow(np.array(xs), n), [md._pow(x, n) for x in xs])
    assert math.isnan(md._pow(np.array([-0.3]), 2.5)[0])
    with pytest.raises(OverflowError):
        md._pow(1e200, 2.0)
    with pytest.raises(OverflowError):
        md._pow(np.array([1.0, 1e200]), 2.0)


@pytest.mark.parametrize("model", [
    md.MackeyGlassRemoval(r=tf.constant(1.5), beta=1.25, gamma=1.0, n=2.0,
                          g=tf.ConstantLag(1.0), h=tf.ConstantLag(0.5)),
    md.MackeyGlassRemoval(r=tf.constant(1.5), beta=1.25, gamma=1.0, n=2.5,
                          g=tf.ConstantLag(1.0), h=tf.ConstantLag(0.5)),
    md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=2.0,
                             p=tf.ConstantLag(1.0), q=tf.ConstantLag(0.5)),
    md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=2.5,
                             p=tf.ConstantLag(1.0), q=tf.ConstantLag(0.5)),
], ids=["removal", "removal-fractional", "production", "production-fractional"])
def test_model_state_on_arrays_is_the_scalar_state_element_by_element(model):
    # Both reads carry the traps, a negative value (NaN under a fractional
    # n) and zero; the time part varies too. On arrays the delayed part goes
    # over the stage times at once and the current part over each one's numbers.
    rhs = sv._make_rhs(model, None)

    def state(y, cv, xv):
        d = rhs.delayed(cv, xv)
        return d if rhs.current is None else rhs.current(y, d)

    xs = [_POW_TRAP, _REACTION_TRAP, -0.3, 0.0, 1.7]
    ys = [0.8, 1.1, 0.2, _REACTION_TRAP, -0.4]
    rates = [0.3, 1.5, 2.0, 0.7, 1.0]
    scalar = [state(y, [r], [a, b]) for y, r, a, b in zip(ys, rates, xs, xs[::-1])]
    d = rhs.delayed([np.array(rates)], np.array([xs, xs[::-1]]))
    if rhs.current is not None:
        d = np.array([rhs.current(y, e) for y, e in zip(ys, np.transpose(d).tolist())])
    _same(d, scalar)
    with pytest.raises(OverflowError):
        state(1.0, [1.0], [1e200, 1e200])
    with pytest.raises(OverflowError):
        rhs.delayed([np.ones(2)], np.array([[1.0, 1e200], [1.0, 1e200]]))


def test_sinsq_time_part_on_a_block_is_the_scalar_time_part():
    # At t = 1.258, sin(t)**2 differs from sin(t) * sin(t) and numpy's square.
    s = math.sin(1.258)
    assert s ** 2 != s * s
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(1.0, 1.0), tf.ConstantLag(1.0))])
    coeffs = sv._make_rhs(eq, None).coeffs
    times = [1.258, 0.5, 2.0, 3.3]
    total, w = sv._plan(coeffs, np.array(times)).T
    _same(w, [coeffs[1].value(t) for t in times])
    _same(total, [coeffs[0].value(t) for t in times])
    assert w[0] == s ** 2


class _OwnCoefficient(tf.Coefficient):
    """A coefficient class of the caller's own: the plan goes through its value."""

    def __init__(self, amplitude, raise_after=math.inf):
        self.amplitude = amplitude
        self.raise_after = raise_after

    def value(self, t):
        if t > self.raise_after:
            raise ValueError("own coefficient undefined past %g" % self.raise_after)
        return self.amplitude * math.cos(t) ** 2


class _RaisingSinSq(tf.SinSqCoefficient):
    """A sin^2 rate that cannot be evaluated past ``after``; a subclass, so
    the plan takes it through its scalar value."""

    after = 30.0

    def value(self, t):
        if t > self.after:
            raise OverflowError("rate undefined past %g" % self.after)
        return super().value(t)


# sin(_POW_PHASE) is _POW_TRAP, so a sin^2 part at phase _POW_PHASE and t = 0
# squares the value where glibc's pow(x, 2) is not x*x.
_POW_PHASE = math.asin(_POW_TRAP)
_AMPLITUDES = st.sampled_from([0.0, -0.0, 1.0, 0.3, 6.0]) | st.floats(0.0, 5.0)
_LEAVES = st.one_of(
    st.builds(tf.ConstantCoefficient, st.sampled_from([0.0, -0.0, 0.7]) | st.floats(0.0, 5.0)),
    st.builds(tf.SinSqCoefficient, _AMPLITUDES,
              st.sampled_from([1.0, math.pi]) | st.floats(0.1, 5.0),
              st.sampled_from([0.0, _POW_PHASE]) | st.floats(-3.0, 3.0)),
    st.builds(tf.piecewise_constant, st.just([0.5, 1.258, 2.0]),
              st.lists(st.floats(0.0, 5.0), min_size=4, max_size=4)),
    st.builds(tf.piecewise_constant, st.just([]), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=1)),
    st.builds(_OwnCoefficient, st.floats(0.0, 5.0)),
)
_TREES = st.recursive(_LEAVES, lambda parts: st.one_of(
    st.builds(tf.ScaledCoefficient, st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(0.0, 5.0), parts),
    st.builds(tf.coeff_sum, st.lists(parts, min_size=1, max_size=3)),
    # The shape ``difference`` builds when no structure simplifies it.
    st.builds(lambda a, b, w: tf._LinearCombination(((1.0, a), (-w, b))), parts, parts,
              st.sampled_from([1.0, -0.0]) | st.floats(0.0, 2.0)),
), max_leaves=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trees=st.lists(_TREES, min_size=1, max_size=3),
       times=st.lists(st.floats(-5.0, 20.0), max_size=8))
def test_property_the_plan_is_the_scalar_time_part_bit_for_bit(trees, times):
    assert math.sin(_POW_PHASE) == _POW_TRAP and _POW_TRAP ** 2 != _POW_TRAP * _POW_TRAP
    # The square trap, t = 0 (the pow trap at _POW_PHASE), every breakpoint
    # exactly, and times before the first one.
    times = [1.258, 0.0, 0.5, 2.0, 0.2, -1.0] + times
    forced = lambda t: math.exp(-t) * math.sin(3.0 * t)  # noqa: E731
    coeffs = (sv._forcing_part(None), sv._forcing_part(forced), *trees)
    table = sv._plan(coeffs, np.array(times))
    for column, f in zip(table.T, sv._time_fns(coeffs)):
        want = [f(t) for t in times]
        assert column.tobytes() == np.array(want, dtype=float).tobytes()


def test_the_plan_takes_a_difference_in_its_own_order():
    # 0.6 sin^2(t) + 0.5 less 0.3 sin^2(2t) is no shape ``difference`` simplifies.
    a = tf.coeff_sum([tf.sinsq(0.6, 1.0), tf.constant(0.5)])
    d = tf.difference(a, tf.sinsq(0.3, 2.0))
    assert isinstance(d, tf._LinearCombination) and isinstance(a, tf.SumCoefficient)
    times = np.linspace(-1.0, 7.0, 97)
    (column,) = sv._plan((d,), times).T
    assert column.tobytes() == np.array([d.value(t) for t in times.tolist()]).tobytes()


def test_a_run_whose_plan_raises_evaluates_each_stage_time_in_the_scalar_loop():
    # The pin's rate raises past t = 30, which its run, ended by a NaN near
    # t = 3.4, never reaches; planned up front, the rate raises, and the run
    # falls back to the scalar loop with the pin's bits.
    run, digest = PIN_RUNS["removal_fractional_n_nan"]
    rate = _RaisingSinSq(6.0, math.pi)
    model = md.MackeyGlassRemoval(r=rate, beta=1.25, gamma=1.0, n=2.5,
                                  g=tf.ConstantLag(1.2), h=tf.ConstantLag(1.0))
    with pytest.raises(OverflowError):
        sv._plan((rate,), np.array([10.0, 31.0]))
    tr = sv.integrate(model, 0.5, 40.0, step=0.01, initial_value=0.9, on_divergence="truncate")
    assert _digest(tr) == digest == _digest(run())


def test_a_diverging_run_evaluates_each_stage_time_once(monkeypatch):
    # The pin ends in a NaN after 338 steps; its time part is planned once
    # over the run's stage times and never evaluated again.
    times = []
    _count_array_stages(monkeypatch, times)
    run, digest = PIN_RUNS["removal_fractional_n_nan"]
    tr = run()
    assert _digest(tr) == digest and tr.diverged
    steps = sv._build_mesh(0.0, 40.0, 0.01, [1.2, 1.0]).size - 1
    assert len(set(times)) == len(times) == 2 * steps + 1


def _column_family(kind, params):
    """The targets of one column call and the options they share."""
    if kind == "linear":
        # eq3abc's shape beside a constant pair and a run with no x(t) term:
        # the same site, columns whose state part reads x(t) or not.
        targets = [md.eq3abc(a, a * b) for a, b in params]
        targets.append(cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(params[0][0]), tf.ConstantLag(2.0))],
            negative_terms=[cr.Term(tf.constant(params[0][0] * params[0][1]), tf.IdentityDelay())]))
        targets.append(cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.sinsq(params[-1][0], 1.0), tf.ConstantLag(2.0))]))
        # Two that pass the threshold mid-segment, with and without x(t).
        targets.append(cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(3.0), tf.ConstantLag(2.0))]))
        targets.append(md.eq3abc(6.0, 1.0))
        return targets, [0.8] * len(targets), [1.2] * len(targets), dict(
            step=0.05, t1=30.0, divergence_threshold=1e3)
    if kind == "ex51":
        targets = [md.ex51(sigma=0.5, r=4.0 * a) for a, _ in params]
        # The huge removal run overflows x^2 in the middle of a segment.
        targets.append(_HUGE_REMOVAL)
        starts = [0.4] * len(params) + [1e150]
        return targets, starts, [0.6] * len(params) + [1e150], dict(
            step=0.01, t1=16.0, divergence_threshold=1e300)
    targets = [md.ex5(n=4.0 + 8.0 * a) for a, _ in params]
    return targets, [0.8] * len(targets), [1.2 + b for _, b in params], dict(step=0.1, t1=60.0)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["linear", "ex51", "ex5"]),
    params=st.lists(st.tuples(st.floats(0.05, 1.5), st.floats(0.0, 0.9)), min_size=1, max_size=4),
    on_divergence=st.sampled_from(["truncate", "raise"]),
)
def test_property_columns_are_separate_runs_bit_for_bit(kind, params, on_divergence):
    targets, histories, starts, options = _column_family(kind, params)
    t1 = options.pop("t1")
    # A column whose history is not a constant one, so that the group's
    # passes leave every read before t0 to the scalar loop, and one whose
    # start lies past the threshold, so that it ends at t0.
    base = histories[0]
    targets += [targets[0], targets[0]]
    histories += [sv.FunctionHistory(lambda t: base * (1.0 + 0.1 * math.sin(t))), base]
    starts += [starts[0], 1e300]
    # One column whose coefficient raises part way, with the family's sites.
    bad = _OwnCoefficient(0.3, raise_after=t1 / 2.0)
    if kind == "linear":
        targets.append(cr.LinearDelayEquation(
            positive_terms=[cr.Term(bad, tf.ConstantLag(2.0))]))
    elif kind == "ex51":
        targets.append(dataclasses.replace(md.ex51(sigma=0.5), r=bad))
    else:
        targets.append(dataclasses.replace(md.ex5(), s=bad))
    histories.append(histories[0])
    starts.append(starts[0])
    columns = sv.integrate_columns(targets, histories, t1, initial_values=starts,
                                   on_divergence=on_divergence, **options)
    assert isinstance(columns[-1], ValueError)
    for target, history, x0, got in zip(targets, histories, starts, columns):
        try:
            want = sv.integrate(target, history, t1, initial_value=x0,
                                on_divergence=on_divergence, **options)
        except Exception as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            want, got = getattr(exc, "trajectory", None), getattr(got, "trajectory", None)
            if want is None:
                continue
        for name in ("times", "values", "derivatives", "left_derivatives"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert (got.diverged, got.divergence_time) == (want.diverged, want.divergence_time)


def test_a_column_without_a_plan_leaves_the_others_their_passes(monkeypatch):
    # The own coefficient raises past t = 28, beyond where its run ends: it
    # diverges at t = 25.25. The plan covers every stage time up to t = 30,
    # so it raises, and the column takes every step on the scalar loop while
    # it stays in the group. The planned columns settle the same passes as
    # in the group without it, and every column keeps its bits.
    lag = tf.ConstantLag(2.0)
    planned = [md.eq3abc(0.4, 0.2), cr.LinearDelayEquation(positive_terms=[cr.Term(tf.constant(0.5), lag)])]
    own = cr.LinearDelayEquation(positive_terms=[cr.Term(_OwnCoefficient(3.0, raise_after=28.0), lag)])
    options = dict(step=0.05, divergence_threshold=1e3, on_divergence="truncate")
    with pytest.raises(ValueError):
        sv._plan(sv._make_rhs(own, None).coeffs, np.array([29.0]))
    array_stages = _count_array_stages(monkeypatch)
    sizes, runs = [], []
    for targets in (planned, planned + [own]):
        array_stages.clear()
        runs.append(sv.integrate_columns(targets, [0.8] * len(targets), 30.0,
                                         initial_values=[1.2] * len(targets), **options))
        sizes.append(list(array_stages))
    assert sizes[0] == sizes[1] and sum(sizes[0]) >= 2 * 2 * 500
    alone = sv.integrate(own, 0.8, 30.0, initial_value=1.2, **options)
    assert alone.divergence_time == 25.25
    for got, want in zip(runs[1], runs[0] + [alone]):
        assert _digest(got) == _digest(want)


def _record_array_stage_times(monkeypatch):
    """Per right-hand side made, in order, the stage times its ``delayed`` is
    called at on arrays. They come from one more time-part entry, t itself,
    which ``delayed`` takes off before it goes on."""
    seen = []
    make_rhs = sv._make_rhs

    def recording_rhs(target, forcing):
        rhs = make_rhs(target, forcing)
        times = []
        seen.append(times)

        def delayed(cv, xv):
            if isinstance(cv, np.ndarray):
                times.extend(cv[-1].tolist())
            return rhs.delayed(cv[:-1], xv)

        return dataclasses.replace(rhs, coeffs=rhs.coeffs + ((lambda t: t),), delayed=delayed)

    monkeypatch.setattr(sv, "_make_rhs", recording_rhs)
    return seen


@pytest.mark.parametrize("kind", ["linear", "ex51", "ex5"])
def test_each_column_passes_at_the_stage_times_of_its_run_alone(kind, monkeypatch):
    # Same work as alone: in the group, every column's ``delayed`` goes over
    # the arrays of the same stage times as in its lone run, in the same
    # passes, those that diverge mid-segment or raise on their arrays (the
    # linear and ex51 families) included.
    targets, histories, starts, options = _column_family(kind, [(0.3, 0.2), (1.2, 0.7)])
    t1 = options.pop("t1")
    seen = _record_array_stage_times(monkeypatch)
    sv.integrate_columns(targets, histories, t1, initial_values=starts, on_divergence="truncate",
                         **options)
    grouped = list(seen)
    seen.clear()
    for target, history, x0 in zip(targets, histories, starts):
        sv.integrate(target, history, t1, initial_value=x0, on_divergence="truncate", **options)
    assert len(grouped) == len(targets) and all(grouped)
    assert grouped == seen


def test_node_slope_rereads_keep_the_time_part():
    # With the step equal to the lag every end read lands on the node just
    # pushed, and the first one also on the left limit of the start jump:
    # the node slopes read again, but reuse k4's coefficients and forcing.
    coeff = _CountingConstant(0.3)
    forced = []

    def forcing(t):
        forced.append(t)
        return 0.1

    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(coeff, tf.ConstantLag(0.01))])
    tr = sv.integrate(eq, 1.0, 2.0, step=0.01, initial_value=1.5, forcing=forcing)
    steps = tr.times.size - 1
    assert coeff.calls == len(forced) == 2 * steps + 1


@pytest.mark.parametrize("part", ["time", "state"])
def test_overflow_truncates_at_the_first_node_past_it(part):
    # OverflowError in the forcing (the time part) or in x^n of a huge
    # delayed state (the state part) after t = 0.5 makes that stage's
    # derivative NaN, so the run stops as diverged at the node 0.51.
    model = md.MackeyGlassRemoval(r=tf.constant(1.0), beta=1.25, gamma=1.0, n=2.0,
                                  g=tf.ConstantLag(1.0), h=tf.ConstantLag(1.0))
    history, forcing = 0.5, None
    if part == "time":
        def forcing(t):
            if t > 0.5:
                raise OverflowError("forcing overflows")
            return 0.0
    else:
        history = lambda t: 1e200 if -0.5 < t < 0.0 else 0.5
    tr = sv.integrate(model, history, 5.0, step=0.01, forcing=forcing, on_divergence="truncate")
    assert tr.diverged
    assert tr.t1 == 0.5 and tr.divergence_time == 0.51
    with pytest.raises(sv.DivergenceError):
        sv.integrate(model, history, 5.0, step=0.01, forcing=forcing)


# ---------------------------------------------------------------------------
# The geometry memo
# ---------------------------------------------------------------------------


_LAG = (tf.ConstantLag(1.0),)


def test_repeated_arguments_share_one_geometry():
    geo = sv._geometry(0.0, 10.0, 0.05, _LAG, False, True)
    assert sv._geometry(0.0, 10.0, 0.05, (tf.ConstantLag(1.0),), False, True) is geo
    # A window builds anew, and leaves the kept geometry as it is.
    window = (sv._Window(tf.ConstantLag(1.0), cr.UniformKernel(0.5)),)
    assert sv._geometry(0.0, 10.0, 0.05, window, False, True) is not sv._geometry(
        0.0, 10.0, 0.05, window, False, True)
    assert sv._geometry(0.0, 10.0, 0.05, _LAG, False, True) is geo


def test_runs_of_one_family_share_the_geometry_and_keep_their_bits():
    eqs = [_linear([(a, 1.0)], [(0.2, 0.5)]) for a in (0.3, 0.6)]
    warm = [sv.integrate(eq, 0.8, 12.0, step=0.05, initial_value=1.2) for eq in eqs]
    assert sv._shared_geometry.cache_info()[:2] == (1, 1)  # hits, misses
    assert warm[0].times.base is warm[1].times.base  # one mesh under both
    for eq, tr in zip(eqs, warm):
        sv._shared_geometry.cache_clear()
        cold = sv.integrate(eq, 0.8, 12.0, step=0.05, initial_value=1.2)
        assert cold.values.tobytes() == tr.values.tobytes()
        assert cold.derivatives.tobytes() == tr.derivatives.tobytes()


@pytest.mark.parametrize("kind", ["point", "window"])
def test_a_general_delay_site_builds_its_geometry_anew(kind):
    calls = []

    def wobble(t):
        calls.append(t)
        return t - (1.0 + 0.3 * math.sin(0.7 * t))

    delay = tf.GeneralDelay(wobble, 1.3)
    site = delay if kind == "point" else sv._Window(delay, cr.UniformKernel())
    first = sv._geometry(0.0, 12.0, 0.02, (site,), False, True)
    assert sv._geometry(0.0, 12.0, 0.02, (site,), False, True) is not first
    assert len(calls) == 2 * (2 * first.steps + 1)
    assert sv._shared_geometry.cache_info().currsize == 0


# A breaking point 2e-8 before t1 = 0 merges into it, so the mesh ends at t1 itself.
_NEAR_END = (tf.ConstantLag(10.0 - 2e-8),)


@pytest.mark.parametrize("first, second, bits", [
    ((0.0, 10.0, _LAG, False, True), (-0.0, 10.0, _LAG, False, True),
     lambda geo: math.copysign(1.0, geo.mesh[0])),
    ((-10.0, 0.0, _NEAR_END, False, True), (-10.0, -0.0, _NEAR_END, False, True),
     lambda geo: math.copysign(1.0, geo.mesh[-1])),
    # A run that ends at its start time records t0 as its divergence time.
    ((0.0, 10.0, _LAG, False, True), (0, 10.0, _LAG, False, True), lambda geo: type(geo.t0)),
    ((0.0, 10.0, _LAG, False, True), (0.0, 10.0, _LAG, True, True), lambda geo: geo.extrapolate),
    # Reads before t0 are clean in a constant history only, not in a tabulated one.
    ((0.0, 10.0, _LAG, False, True), (0.0, 10.0, _LAG, False, False), lambda geo: geo.unclean),
], ids=["t0_sign", "t1_sign", "t0_type", "extrapolation", "history"])
def test_keys_that_differ_in_bits_build_their_own_geometry(first, second, bits):
    geos = [sv._geometry(t0, t1, 0.05, sites, extrapolate, constant)
            for t0, t1, sites, extrapolate, constant in (first, second)]
    assert sv._shared_geometry.cache_info()[:2] == (0, 2)  # hits, misses
    assert bits(geos[0]) != bits(geos[1])


def test_the_step_check_raises_on_every_call():
    eq = _linear([(0.5, 0.03)])
    for _ in range(2):
        with pytest.raises(tf.ConfigurationError, match="exceeds the smallest positive lag"):
            sv.integrate(eq, 0.8, 5.0, step=0.05)
    assert sv._shared_geometry.cache_info()[1:] == (2, 1, 0)  # misses, maxsize, currsize


def test_a_shared_geometry_is_read_only():
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.4, 1.3, 0.2), tf.ConstantLag(1.0)),
                                                cr.Term(tf.constant(0.1), tf.ConstantLag(0.5))])
    sv.integrate(eq, 0.8, 5.0, step=0.05)
    geo = sv._geometry(0.0, 5.0, 0.05, sv._make_rhs(eq, None).sites, False, True)
    assert sv._shared_geometry.cache_info().hits == 1
    assert len(geo.waves) == 1
    shared = [geo.mesh, geo.widths, geo.times, geo.point, geo.step_of, *geo.weights, geo.early,
              *geo.waves.values()]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_a_new_wave_does_not_grow_a_shared_geometry():
    def run(freq):
        eq = cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.4, freq), _LAG[0])])
        return sv.integrate(eq, 0.8, 5.0, step=0.05).values.tobytes()

    warm = {freq: run(freq) for freq in (1.3, 1.7, 1.3, 2.1)}
    assert sv._shared_geometry.cache_info()[:2] == (3, 1)  # hits, misses
    assert list(sv._geometry(0.0, 5.0, 0.05, _LAG, False, True).waves) == [(1.3, 0.0)]
    for freq, bits in warm.items():
        sv._shared_geometry.cache_clear()
        assert run(freq) == bits


def test_a_run_of_unclean_steps_is_one_segment():
    # A window that reaches t leaves every step to the scalar loop: one run
    # of unclean steps, from 0 to the end. Reads of a lag of 1 in a tabulated
    # history are unclean up to t = 1 + 1e-9, then clean.
    window = sv._Window(tf.ConstantLag(0.5), cr.UniformKernel())
    geo = sv._geometry(0.0, 5.0, 0.05, (window,), False, True)
    assert geo.unclean == [0, geo.steps, geo.steps]
    geo = sv._geometry(0.0, 5.0, 0.05, _LAG, False, False)
    assert geo.unclean == [0, 20, geo.steps]
