"""End-to-end acceptance suite.

Each criterion prints one CRITERION line so the run log doubles as the
pass/fail table; assertions enforce the stated tolerances.

Criterion 5 carries a documented discrepancy: the pulsed removal model
as configured (saturation at lag sigma, removal at lag 1) decays at
sigma=1.5, r=3.2, verified by three independent methods (the in-repo
integrator, a separate fixed-step Euler run, and a monodromy spectral
radius of 0.605 with instability onset near r=5.4), while the recorded
Sustained behavior matches the variant with the delay roles exchanged
(onset near r=3.0). The five attainable rows are asserted, the sixth
prints FAIL with the analysis, and the recorded expectation is pinned
as a strict xfail so any behavior change surfaces immediately.
"""

import math

import numpy as np
import pytest

from ddestab import cli
from ddestab import criteria as cr
from ddestab import diagnostics as dg
from ddestab import models as md
from ddestab import solver as sv
from ddestab import timefn as tf

INV_E = 1.0 / math.e


def _criterion(number: int, ok: bool, detail: str) -> None:
    print("CRITERION %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail))


# ---------------------------------------------------------------------------
# 1. Oscillating-rate window integral and threshold
# ---------------------------------------------------------------------------


def test_acceptance_1_example1_threshold():
    rows = {row["name"]: row for row in cli.SCENARIOS["example1"]()}
    sup = rows["unit-amplitude oscillating rate: esssup of the window integral over one lag"]["computed"]
    thr = rows["undelayed-size threshold from certificate bisection"]["computed"]
    exact_sup = 1.0 + math.sin(2.0) / 2.0
    exact_thr = (1.0 + INV_E) / exact_sup - 0.6
    ok = abs(sup - exact_sup) <= 1e-6 and abs(thr - exact_thr) <= 1e-4 and abs(thr - 0.34031) <= 1e-4
    _criterion(1, ok, "window sup %.9f (target 1.4546487), threshold b* %.6f (target 0.34031)" % (sup, thr))
    assert abs(sup - 1.4546487) <= 1e-6
    assert abs(sup - exact_sup) <= 1e-6
    assert abs(thr - exact_thr) <= 1e-4
    assert abs(thr - 0.34031) <= 1e-4


# ---------------------------------------------------------------------------
# 2. Dual-route pass/fail pattern on the two constant pairs
# ---------------------------------------------------------------------------


def test_acceptance_2_example2_pattern():
    certs26 = {c.name: c for c in cr.evaluate_all(md.make_builtin("eq26"))}
    certs27 = {c.name: c for c in cr.evaluate_all(md.make_builtin("eq27"))}
    q26 = {q.symbol: q.value for q in certs26["diff-form"].quantities}
    q27 = {q.symbol: q.value for q in certs27["ratio-form"].quantities}
    combined26 = q26["S"] + 2.0 * q26["Q"] * q26["V"]
    combined27 = q27["S_a"] + q27["V_a"]
    pattern = (
        certs26["diff-form"].verdict,
        certs26["ratio-form"].verdict,
        certs27["ratio-form"].verdict,
        certs27["diff-form"].verdict,
    )
    expected = (
        cr.UNIFORM_EXPONENTIAL,
        cr.INCONCLUSIVE,
        cr.UNIFORM_EXPONENTIAL,
        cr.INCONCLUSIVE,
    )
    ok = (
        pattern == expected
        and abs(q26["S"] - 0.7) <= 1e-9
        and abs(combined26 - 1.3) <= 1e-9
        and abs(combined27 - 1.2) <= 1e-9
    )
    _criterion(2, ok, "pattern %s, values S=%.3f, S+2QV=%.3f, S_a+V_a=%.3f" % (
        "/".join(pattern), q26["S"], combined26, combined27))
    assert pattern == expected
    assert q26["S"] == pytest.approx(0.7, abs=1e-9)
    assert q26["S"] > INV_E
    assert combined26 == pytest.approx(1.3, abs=1e-9)
    assert combined26 < 1.367879 + 1e-6
    assert combined27 == pytest.approx(1.2, abs=1e-9)
    assert combined27 < 1.367879 + 1e-6


# ---------------------------------------------------------------------------
# 3. Proportional-pair ratio-route threshold
# ---------------------------------------------------------------------------


def test_acceptance_3_example2a_threshold():
    def ratio_ue(a: float) -> bool:
        certs = {c.name: c for c in cr.evaluate_all(md.make_builtin("eq3abc", a=a, b=a / 2.0))}
        return certs["ratio-form"].verdict == cr.UNIFORM_EXPONENTIAL

    thr = dg.find_threshold(ratio_ue, 0.05, 0.95, tol=1e-5)
    exact = 0.5 * (1.0 + INV_E) / 1.4546487
    ok = abs(thr - exact) <= 1e-4 and abs(thr - 0.47018) <= 1e-4
    _criterion(3, ok, "threshold a* %.6f (target 0.47018)" % thr)
    assert abs(thr - exact) <= 1e-4
    assert abs(thr - 0.47018) <= 1e-4


# ---------------------------------------------------------------------------
# 4. Production-form thresholds, discrepancy documented
# ---------------------------------------------------------------------------


def test_acceptance_4_example5_thresholds():
    rows = cli.SCENARIOS["example5"]()
    by_name = {row["name"]: row for row in rows}
    thr_combined = by_name["single-condition route: threshold in the saturation exponent n"]["computed"]
    thr_gap = by_name["paired route, part 1: threshold in n"]["computed"]
    pair_row = by_name["paired route, part 2 evaluated literally as displayed: threshold in n"]
    recorded_row = by_name["paired route, part 2: recorded threshold"]
    exact_pair = 2.0 * ((1.0 + INV_E) / 0.45 - 1.0)
    ok = (
        abs(thr_combined - 7.119) <= 1e-2
        and abs(thr_gap - 11.333) <= 1e-2
        and abs(pair_row["computed"] - exact_pair) <= 1e-3
        and recorded_row["status"] == "info"
        and recorded_row["recorded"] == 14.2
    )
    _criterion(4, ok, "n thresholds %.4f / %.4f, literal part-2 %.4f vs recorded 14.2 flagged" % (
        thr_combined, thr_gap, pair_row["computed"]))
    assert abs(thr_combined - 7.119) <= 1e-2
    assert abs(thr_gap - 11.333) <= 1e-2
    # The literal reading of part 2 has its own threshold; the report keeps
    # the recorded 14.2 as an info row instead of asserting either number.
    assert abs(pair_row["computed"] - exact_pair) <= 1e-3
    assert recorded_row["status"] == "info"
    assert recorded_row["recorded"] == 14.2
    assert "neither value asserted" in recorded_row["note"]


# ---------------------------------------------------------------------------
# 5. Figure reproductions
# ---------------------------------------------------------------------------


def _figure_rows():
    runs = [
        ("removal sigma=1.1 r=4", md.make_builtin("ex51", sigma=1.1, r=4.0), 0.4, 0.6, 100.0, 0.01, dg.DECAYING),
        ("removal sigma=1.1 r=8.5", md.make_builtin("ex51", sigma=1.1, r=8.5), 0.4, 0.6, 100.0, 0.01, dg.SUSTAINED),
        ("removal sigma=1.5 r=3", md.make_builtin("ex51", sigma=1.5, r=3.0), 0.4, 0.6, 100.0, 0.01, dg.DECAYING),
        ("removal sigma=1.5 r=3.2", md.make_builtin("ex51", sigma=1.5, r=3.2), 0.4, 0.6, 100.0, 0.01, dg.SUSTAINED),
        ("production n=11", md.make_builtin("ex5", n=11.0), 0.4, 0.6, 600.0, 0.05, dg.DECAYING),
        ("production n=13", md.make_builtin("ex5", n=13.0), 0.98, 0.98, 600.0, 0.05, dg.SUSTAINED),
    ]
    rows = []
    for name, model, phi, x0, horizon, step, expected in runs:
        x_eq, max_lag, t0 = dg.target_structure(model)
        traj = sv.integrate(
            model, sv.ConstantHistory(phi), t0 + horizon, step=step,
            initial_value=x0, on_divergence="truncate",
        )
        rep = dg.classify(traj, equilibrium=x_eq, max_lag=max_lag)
        rows.append((name, rep.classification, expected, traj))
    return rows


def test_acceptance_5_figure_classifications():
    rows = _figure_rows()
    matches = sum(1 for _, got, expected, _ in rows if got == expected)
    for name, got, expected, _ in rows:
        tag = "match" if got == expected else "MISMATCH (documented)"
        print("  %s: computed %s, recorded %s [%s]" % (name, got, expected, tag))
    _criterion(
        5,
        matches == len(rows),
        "%d/6 classifications match; sigma=1.5 r=3.2 decays as configured "
        "(measured onset ~5.4; recorded onset ~3 belongs to the delay-exchanged variant)"
        % matches,
    )
    by_name = {name: (got, expected, traj) for name, got, expected, traj in rows}
    # Five rows are attainable and asserted.
    for name in (
        "removal sigma=1.1 r=4",
        "removal sigma=1.1 r=8.5",
        "removal sigma=1.5 r=3",
        "production n=11",
        "production n=13",
    ):
        got, expected, _ = by_name[name]
        assert got == expected, name
    assert abs(by_name["removal sigma=1.1 r=4"][2].final_value - 0.5) < 0.01
    assert abs(by_name["production n=11"][2].final_value - 1.0) < 0.01
    # The sixth row is the documented discrepancy; pin the verified reality
    # so a behavior change cannot pass silently.
    assert by_name["removal sigma=1.5 r=3.2"][0] == dg.DECAYING
    assert matches == 5
    # The scripted scenario must surface the same mismatch rather than hide it.
    scenario_rows = cli.SCENARIOS["fig1a"]()
    mismatch = [row for row in scenario_rows if row["status"] == "mismatch"]
    assert len(mismatch) == 1 and "r=3.2" in mismatch[0]["name"]


@pytest.mark.xfail(
    strict=True,
    reason="recorded Sustained at sigma=1.5, r=3.2 is unattainable for the equation "
    "as configured: it decays there (independent integrator and monodromy agree, "
    "instability onset ~5.4); the recorded onset ~3 matches the delay-exchanged "
    "variant; see the fig1a reproduction report",
)
def test_acceptance_5_recorded_expectation_sigma15_r32():
    model = md.make_builtin("ex51", sigma=1.5, r=3.2)
    traj = sv.integrate(
        model, sv.ConstantHistory(0.4), 100.0, step=0.01,
        initial_value=0.6, on_divergence="truncate",
    )
    rep = dg.classify(traj, equilibrium=0.5, max_lag=1.5)
    assert rep.classification == dg.SUSTAINED


# ---------------------------------------------------------------------------
# 6. Positivity and integral bound property suite
# ---------------------------------------------------------------------------


def test_acceptance_6_positivity_property_suite():
    rng = np.random.default_rng(20260814)
    failures = []
    worst_bound = 0.0
    for k in range(200):
        a0 = float(rng.uniform(0.05, 2.0))
        lag = float(rng.uniform(0.05, 1.0)) * INV_E / a0
        eq = cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(a0), tf.ConstantLag(lag))]
        )
        step = lag / 20.0
        X = sv.fundamental_solution(eq, 0.0, 30.0 * lag, step=step)
        positive = bool(np.all(X.values > 0.0))
        report = sv.verify_lemma3(eq, 0.0, 12.0 * lag, step=step)
        worst_bound = max(worst_bound, report.max_value)
        if not (positive and report.positive_throughout and report.max_value <= 1.0 + 1e-3):
            failures.append((a0, lag, positive, report.max_value))
    ok = not failures
    _criterion(6, ok, "200 draws, 0 positivity failures, max integral %.6f <= 1.001" % worst_bound)
    assert failures == []
    assert worst_bound <= 1.0 + 1e-3


# ---------------------------------------------------------------------------
# 7. Integrator order
# ---------------------------------------------------------------------------


def test_acceptance_7_solver_order():
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.IdentityDelay())]
    )
    errors = []
    step = 0.05
    for _ in range(4):
        traj = sv.integrate(eq, sv.ConstantHistory(1.0), 1.0, step=step, initial_value=1.0)
        errors.append(abs(traj.final_value - math.exp(-1.0)))
        step /= 2.0
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    ok = all(14.0 <= r <= 18.0 for r in ratios)
    _criterion(7, ok, "error ratios per halving: %.3f, %.3f, %.3f" % tuple(ratios))
    for r in ratios:
        assert 14.0 <= r <= 18.0


# ---------------------------------------------------------------------------
# 8. Certificates against simulation
# ---------------------------------------------------------------------------


def test_acceptance_8_certificate_simulation_consistency():
    rng = np.random.default_rng(8)
    contradictions = []
    accepted = 0
    while accepted < 100:
        a = float(rng.uniform(0.2, 1.2))
        b = float(rng.uniform(0.0, max(a - 0.15, 0.0)))
        la = float(rng.uniform(0.3, 1.5))
        lb = float(rng.uniform(0.3, 1.5))
        eq = cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.constant(a), tf.ConstantLag(la))],
            negative_terms=[cr.Term(tf.constant(b), tf.ConstantLag(lb))],
        )
        if cr.best_verdict(cr.evaluate_all(eq)) != cr.UNIFORM_EXPONENTIAL:
            continue
        accepted += 1
        max_lag = eq.max_lag
        horizon = 60.0 * max_lag
        traj = sv.integrate(
            eq, sv.ConstantHistory(0.8), horizon, step=0.02,
            initial_value=1.2, on_divergence="truncate",
        )
        rep = dg.classify(traj, max_lag=max_lag)
        if rep.classification != dg.DECAYING:
            # Slow transients near the certificate boundary get one longer look.
            traj = sv.integrate(
                eq, sv.ConstantHistory(0.8), 2.5 * horizon, step=0.02,
                initial_value=1.2, on_divergence="truncate",
            )
            rep = dg.classify(traj, max_lag=max_lag)
        if rep.classification != dg.DECAYING:
            contradictions.append((a, b, la, lb, rep.classification))
    ok = not contradictions
    _criterion(8, ok, "100 certified equations, %d contradictions" % len(contradictions))
    assert contradictions == []


def test_acceptance_8_general_delay_certificates_against_simulation():
    # The benchmark's general-delay shape: an oscillating pair whose positive
    # side is read through a wobbling lag. Its certificates read the delay
    # only through its declared lag_bound, never calling it.
    rng = np.random.default_rng(34)
    contradictions = []
    accepted = 0
    while accepted < 20:
        a = float(rng.uniform(0.3, 0.5))
        b = a * float(rng.uniform(0.1, 0.6))
        freq = float(rng.uniform(0.6, 1.6))
        lag, wobble, wobble_freq = (float(rng.uniform(lo, hi))
                                    for lo, hi in ((0.5, 1.5), (0.1, 0.5), (0.3, 2.0)))
        delay = tf.GeneralDelay(
            lambda t, lag=lag, wobble=wobble, w=wobble_freq: t - lag * (1.0 + wobble * math.sin(w * t)),
            lag * (1.0 + wobble),
        )
        eq = cr.LinearDelayEquation(
            positive_terms=[cr.Term(tf.sinsq(a, freq), delay)],
            negative_terms=[cr.Term(tf.sinsq(b, freq), tf.IdentityDelay())],
        )
        if cr.best_verdict(cr.evaluate_all(eq)) != cr.UNIFORM_EXPONENTIAL:
            continue
        accepted += 1
        max_lag = eq.max_lag
        # Slow transients near the certificate boundary get one longer look.
        for lags in (60.0, 400.0):
            traj = sv.integrate(
                eq, sv.ConstantHistory(0.8), lags * max_lag, step=0.02,
                initial_value=1.2, on_divergence="truncate",
            )
            rep = dg.classify(traj, max_lag=max_lag)
            if rep.classification == dg.DECAYING:
                break
        else:
            contradictions.append((a, b, freq, lag, wobble, wobble_freq, rep.classification))
    ok = not contradictions
    _criterion(8, ok, "20 certified general-delay equations, %d contradictions" % len(contradictions))
    assert contradictions == []
