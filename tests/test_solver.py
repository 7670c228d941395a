"""Tests for the method-of-steps integrator and its dense output.

Oracles: closed-form solutions (exponentials, a cosine that solves a pure
delay equation exactly, the piecewise polynomial fundamental solution of
the pure-delay equation), Richardson-style self-convergence, and exact
linearity identities.
"""

import hashlib
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


def test_mesh_nodes_include_breaking_points():
    eq = _linear([(0.8, 1.0)], neg=[(0.3, 0.5)])
    tr = sv.integrate(eq, 1.0, 4.0, step=0.03)
    for bp in (0.5, 1.0, 1.5, 2.0, 3.5):
        assert np.min(np.abs(tr.times - bp)) < 1e-9


# ---------------------------------------------------------------------------
# Block reads: the same bits for less work
# ---------------------------------------------------------------------------


def _digest(tr):
    h = hashlib.sha256()
    for arr in (tr.times, tr.values, tr.derivatives, tr.left_derivatives):
        h.update(b"none" if arr is None else arr.tobytes())
    h.update(repr((tr.diverged, tr.divergence_time)).encode())
    return h.hexdigest()


_WOBBLE = tf.GeneralDelay(lambda t: t - (0.5 + 0.4 * math.sin(t)), 0.9)

# One run for each way a read leaves the numpy block for the scalar read
# (a step equal to the lag, reads near t0 under a start jump, extrapolation,
# windows reaching the current time), plus tabulated and function histories,
# forcing, a general delay, both models with and without an undelayed
# argument, a fundamental solution and a diverging run. The digests were
# taken from the integrator that evaluated every stage and read by itself.
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
    "general_delay": (
        lambda: sv.integrate(
            cr.LinearDelayEquation(positive_terms=[cr.Term(tf.sinsq(0.8, 1.3), _WOBBLE)]),
            0.8, 8.0, step=0.02, initial_value=1.2,
        ),
        "b42c451beaffae1efd8f4661a1e4af87641d3cf289fe10041e32f2d3abb4b1d9",
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
    "production_undelayed_q": (
        lambda: sv.integrate(
            md.MackeyGlassProduction(s=tf.constant(0.5), beta=2.0, n=4.0,
                                     p=tf.ConstantLag(2.0), q=tf.IdentityDelay()),
            0.9, 30.0, step=0.02, initial_value=1.1, forcing=lambda t: 0.1 * math.sin(t),
        ),
        "6df384dfa83e43448669809a3881830d1ea749685b08dfa37b5ace5c4ed1ae8c",
    ),
}


@pytest.mark.parametrize("name", sorted(PIN_RUNS))
def test_trajectory_bits_are_pinned(name):
    run, digest = PIN_RUNS[name]
    assert _digest(run()) == digest


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
        if isinstance(args[-1], float):  # a block passes arrays
            scalar_reads.append(args[-1])
        return hermite(*args)

    monkeypatch.setattr(sv, "_hermite", counting_hermite)
    steps = sv.integrate(eq, 1.0, 20.0, step=0.01).times.size - 1
    # The midpoint serves k2 and k3; the step end serves k4 and the node slopes.
    assert max(c.calls for c in coeffs) <= 2 * steps + 1
    assert len(scalar_reads) <= 0.05 * steps


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
