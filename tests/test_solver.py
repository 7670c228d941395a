"""Tests for the method-of-steps integrator and its dense output.

Oracles: closed-form solutions (exponentials, a cosine that solves a pure
delay equation exactly, the piecewise polynomial fundamental solution of
the pure-delay equation), Richardson-style self-convergence, and exact
linearity identities.
"""

import math

import numpy as np
import pytest

from ddestab import criteria as cr
from ddestab import models as md
from ddestab import solver as sv
from ddestab import timefn as tf


def _term(value, lag):
    delay = tf.IdentityDelay() if lag == 0.0 else tf.ConstantLag(lag)
    return cr.Term(tf.constant(value), delay)


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


def test_superposition_trivial_zero():
    eq = _linear([(0.6, 2.0)])
    defect = sv.superposition_check(
        eq, sv.ConstantHistory(0.0), sv.ConstantHistory(0.0), 10.0, step=0.01
    )
    assert defect == 0.0


@pytest.mark.parametrize("builder", [md.eq26, md.eq27])
def test_superposition_on_benchmarks(builder):
    eq = builder()
    defect = sv.superposition_check(
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
        5.0, 0.9840177841385668, True, 0.002003523270015628,
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


def test_history_sum_weights():
    combo = sv.history_sum([math.sin, math.cos], [2.0, -1.0])
    assert combo.value(0.3) == pytest.approx(2.0 * math.sin(0.3) - math.cos(0.3))
    with pytest.raises(sv.ConfigurationError):
        sv.history_sum([math.sin], [1.0, 2.0])


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


def test_mesh_nodes_include_breaking_points():
    eq = _linear([(0.8, 1.0)], neg=[(0.3, 0.5)])
    tr = sv.integrate(eq, 1.0, 4.0, step=0.03)
    for bp in (0.5, 1.0, 1.5, 2.0, 3.5):
        assert np.min(np.abs(tr.times - bp)) < 1e-9
