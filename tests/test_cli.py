"""Tests for the command-line front end.

Oracles: configuration round-trips checked for byte identity, emitted
JSON re-validated by an independent reader that rederives every check
from its printed lhs/rhs/direction, and exit codes pinned against the
documented contract (0 ok, 1 reproduction mismatch, 2 usage, 3 numeric).
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import ddestab
from ddestab import cli
from ddestab import criteria as cr
from ddestab import diagnostics as dg
from ddestab import models as md
from ddestab import solver as sv
from ddestab import timefn as tf

MARGINAL_BAND = 1e-9


def _rich_equation() -> cr.LinearDelayEquation:
    return cr.LinearDelayEquation(
        positive_terms=[
            cr.Term(tf.sinsq(0.6, 1.0, 0.25), tf.ConstantLag(2.0)),
            cr.Term(tf.coeff_sum([tf.constant(0.1), tf.scaled(0.5, tf.constant(0.2))]), tf.ConstantLag(1.0)),
            cr.Term(tf.piecewise_constant([1.0, 2.0], [0.3, 0.4, 0.3]), tf.ConstantLag(0.5)),
        ],
        negative_terms=[cr.Term(tf.constant(0.2), tf.IdentityDelay())],
        distributed_terms=[
            cr.DistributedTerm(
                sign=1,
                total_weight=tf.constant(0.05),
                window_start=tf.ConstantLag(1.5),
                kernel=cr.UniformKernel(0.5),
            )
        ],
        t0=0.0,
    )


# ---------------------------------------------------------------------------
# Configuration codec
# ---------------------------------------------------------------------------


def test_config_round_trip_linear_equation():
    text = cli.serialize_config(_rich_equation(), {"step": 0.02, "horizon": 40.0})
    parsed = cli.parse_config(text)
    assert cli.serialize_config(parsed.target, parsed.options) == text


def test_config_round_trip_models():
    for target in (md.make_builtin("ex51", sigma=1.5, r=3.0), md.make_builtin("ex5", n=11.0)):
        text = cli.serialize_config(target)
        parsed = cli.parse_config(text)
        assert cli.serialize_config(parsed.target) == text
        assert type(parsed.target) is type(target)


@pytest.mark.parametrize(
    "coeff",
    [
        tf.scaled(0.4, tf.piecewise_constant([1.0, 2.0], [0.3, 0.4, 0.3])),
        tf.coeff_sum([tf.sinsq(0.6, 1.0), tf.piecewise_constant([1.0], [0.2, 0.1])]),
    ],
)
def test_config_round_trip_scaled_and_sum(coeff):
    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(coeff, tf.ConstantLag(1.0))])
    text = cli.serialize_config(eq)
    assert json.loads(text)["target"]["positive"][0]["coeff"]["kind"] in ("scaled", "sum")
    parsed = cli.parse_config(text)
    assert parsed.target == eq
    assert cli.serialize_config(parsed.target) == text


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("breakpoints", [None], "target.positive[0].coeff.breakpoints[0]: expected a number"),
        ("breakpoints", ["1"], "target.positive[0].coeff.breakpoints[0]: expected a number"),
        ("breakpoints", [True], "target.positive[0].coeff.breakpoints[0]: expected a number"),
        ("values", 0.5, "target.positive[0].coeff.values: expected an array"),
    ],
    ids=["null", "string", "boolean", "not-an-array"],
)
def test_config_rejects_non_numeric_piecewise_entries(tmp_path, capsys, field, value, message):
    coeff = {"kind": "piecewise", "breakpoints": [1.0], "values": [0.2, 0.1], field: value}
    config = tmp_path / "piecewise.json"
    config.write_text(json.dumps({"schema": 1, "target": {
        "type": "linear", "positive": [{"coeff": coeff, "delay": {"lag": 1.0}}]}}))
    assert cli.main(["check", "--target", str(config), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_config_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text('{"schema": 1, "target": {"type": "linear", "positive": [{"coeff": '
                      '{"kind": "constant", "v": 0.5}, "delay": {"lag": 1%s}}]}}' % ("0" * 400))
    assert cli.main(["check", "--target", str(config), "--out", str(tmp_path)]) == 2
    assert "target.positive[0].delay.lag: number too large for a float" in capsys.readouterr().err


def test_config_schema_errors_carry_field_paths():
    cases = [
        ("not json at all", "<document>"),
        ('{"schema": 2, "target": {"type": "linear"}}', "schema"),
        ('{"schema": true, "target": {"type": "linear"}}', "schema: unsupported schema version True"),
        ('{"schema": 1}', "missing required field 'target'"),
        ('{"schema": 1, "target": {"type": "nope"}}', "target.type"),
        (
            '{"schema": 1, "target": {"type": "linear", '
            '"positive": [{"coeff": {"kind": "huh"}, "delay": {"lag": 1}}]}}',
            "target.positive[0].coeff.kind",
        ),
        (
            '{"schema": 1, "target": {"type": "mg_removal", "r": {"kind": "constant", "v": 1.0}, '
            '"beta": 1.25, "gamma": 1.0, "n": 2.0, "g": {"lag": 1.0}, "h": {"wat": 1}}}',
            "target.h",
        ),
        ('{"schema": 1, "target": {"type": "linear", "bogus": 3}}', "target.bogus"),
        (
            '{"schema": 1, "target": {"type": "linear", "distributed": [{"sign": true, '
            '"weight": {"kind": "constant", "v": 0.1}, "window_start": {"lag": 1.0}}]}}',
            "target.distributed[0].sign: expected 1 or -1",
        ),
    ]
    # Python's json reads NaN and Infinity, so a configuration can carry them.
    linear = '{"schema": 1, "target": {"type": "linear", %s}}'
    coeff = linear % '"positive": [{"coeff": {%s}, "delay": {"lag": 1.0}}]'
    sinsq = coeff % '"kind": "sinsq", "amplitude": 0.5, "angular_freq": 1.0, "phase": %s'
    steps = coeff % '"kind": "piecewise", "breakpoints": [%s, 2], "values": [0.2, 0.1, 0.3]'
    for bad in ("NaN", "Infinity", "-Infinity"):
        cases += [
            (sinsq % bad, "target.positive[0].coeff: phase must be finite"),
            (steps % bad, "target.positive[0].coeff: breakpoints must be finite"),
            (linear % ('"t0": %s' % bad), "target: t0 must be finite"),
        ]
    for text, fragment in cases:
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(text)
        assert fragment in str(err.value)


def test_general_delay_is_not_serializable():
    eq = cr.LinearDelayEquation(
        positive_terms=[
            cr.Term(tf.constant(0.5), tf.GeneralDelay(lambda t: t - 1.0 - 0.1 * math.sin(t), 1.1))
        ]
    )
    with pytest.raises(cli.ConfigError):
        cli.target_to_config(eq)


def test_a_subclass_of_a_serializable_class_is_not_serializable():
    class Surge(tf.ConstantCoefficient):
        """0.2 by its field, but 3.2 on [0, 0.5): written as its field, it read back as 0.2."""

        def value(self, t):
            return self.v + (3.0 if 0.0 <= t < 0.5 else 0.0)

    eq = cr.LinearDelayEquation(positive_terms=[cr.Term(Surge(0.2), tf.ConstantLag(1.0))])
    with pytest.raises(cli.ConfigError, match="coefficient 'Surge' is not serializable"):
        cli.serialize_config(eq)


def test_parse_overrides():
    assert cli.parse_overrides(["r=4", "sigma=1.1"]) == {"r": 4.0, "sigma": 1.1}
    assert cli.parse_overrides([]) == {}
    with pytest.raises(cli.ConfigError):
        cli.parse_overrides(["r"])
    with pytest.raises(cli.ConfigError):
        cli.parse_overrides(["r=fast"])


def test_resolve_builtin_targets():
    # Empty overrides fall back to the declared defaults.
    model = cli.resolve_target("ex5", {})[0]
    assert isinstance(model, md.MackeyGlassProduction)
    assert model.n == 4.0

    model = cli.resolve_target("ex5", {"n": 11.0})[0]
    assert model.beta == 2.0
    assert model.s.amplitude == pytest.approx(0.1)
    assert model.s.angular_freq == pytest.approx(math.pi)
    assert model.p.lag == 3.0
    assert model.q.lag == 6.0

    eq = cli.resolve_target("eq3", {"b": 0.3})[0]
    assert isinstance(eq, cr.LinearDelayEquation)
    assert eq.positive_terms[0].coeff.amplitude == pytest.approx(0.6)
    assert eq.positive_terms[0].delay.lag == 2.0
    assert isinstance(eq.negative_terms[0].delay, tf.IdentityDelay)

    with pytest.raises(cli.ConfigError) as err:
        cli.resolve_target("nosuch", {})
    assert "eq26" in str(err.value) and "ex51" in str(err.value)
    with pytest.raises(cli.ConfigError):
        cli.resolve_target("eq3", {"nope": 1.0})


def test_resolve_target_from_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(cli.serialize_config(_rich_equation(), {"step": 0.02}))
    target, options = cli.resolve_target(str(path), {})
    assert isinstance(target, cr.LinearDelayEquation)
    assert options == {"step": 0.02}
    with pytest.raises(cli.ConfigError):
        cli.resolve_target(str(path), {"r": 1.0})
    with pytest.raises(cli.ConfigError):
        cli.resolve_target(str(tmp_path / "missing.json"), {})


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _revalidate_certificates(doc):
    # Independent reader: every printed check must rederive from its own
    # numbers, and the verdict must match the checks it claims to rest on.
    assert doc["schema"] == 1
    for cert in doc["certificates"]:
        for check in cert["checks"]:
            lhs, rhs = check["lhs"], check["rhs"]
            margin = (rhs - lhs) if check["direction"] == "<" else (lhs - rhs)
            assert margin == pytest.approx(check["margin"], abs=1e-12)
            if check["strict"]:
                expect = margin > MARGINAL_BAND
            else:
                expect = margin >= 0.0
            assert check["satisfied"] == expect
        satisfied = [c["satisfied"] for c in cert["checks"]]
        if cert["verdict"] in ("UniformExponential", "Asymptotic"):
            assert all(satisfied)
        elif cert["verdict"] == "Marginal":
            assert all(c["satisfied"] or c["marginal"] for c in cert["checks"])


def test_check_eq26_writes_certificates(tmp_path, capsys):
    assert cli.main(["check", "--target", "eq26", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificates.json").read_text())
    by_name = {c["name"]: c for c in doc["certificates"]}
    assert by_name["diff-form"]["verdict"] == "UniformExponential"
    assert by_name["ratio-form"]["verdict"] == "Inconclusive"
    assert doc["verdict"] == "UniformExponential"
    _revalidate_certificates(doc)
    assert "UniformExponential" in capsys.readouterr().out


def test_check_model_and_file_targets(tmp_path):
    assert cli.main(["check", "--target", "ex51", "--set", "r=4", "--set", "sigma=1.1",
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificates.json").read_text())
    assert doc["verdict"] == "UniformExponential"
    assert doc["target"]["type"] == "mg_removal"
    _revalidate_certificates(doc)

    path = tmp_path / "eq.json"
    path.write_text(cli.serialize_config(md.make_builtin("eq27")))
    assert cli.main(["check", "--target", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificates.json").read_text())
    by_name = {c["name"]: c for c in doc["certificates"]}
    assert by_name["ratio-form"]["verdict"] == "UniformExponential"
    _revalidate_certificates(doc)


def test_check_unknown_builtin_exit_code(tmp_path, capsys):
    assert cli.main(["check", "--target", "nosuch", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown built-in" in err and "eq26" in err


def test_check_writes_non_finite_values_as_null(tmp_path):
    # Before t = 5 both sides weigh 1, so a - b vanishes there: Q = sup b/(a - b)
    # is infinite, and N* = 2QV with V = 0 is NaN.
    eq = cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), tf.ConstantLag(0.5))],
        negative_terms=[cr.Term(tf.piecewise_constant([5.0], [1.0, 0.5]), tf.ConstantLag(0.5))],
    )
    config = tmp_path / "eq.json"
    config.write_text(cli.serialize_config(eq))
    assert cli.main(["check", "--target", str(config), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificates.json").read_text()
    assert "1e+308" not in text
    doc = json.loads(text)
    assert doc["verdict"] == "Inconclusive"
    diff = {c["name"]: c for c in doc["certificates"]}["diff-form"]
    assert diff["verdict"] == "Inconclusive"
    values = {q["symbol"]: q["value"] for q in diff["quantities"]}
    assert values["Q"] is None and values["N_star"] is None
    (product,) = [c for c in diff["checks"] if c["description"].startswith("product of the side ratio")]
    assert product["lhs"] is None and product["margin"] is None
    assert product["satisfied"] is False


def test_check_horizon_reaches_the_certificates(tmp_path):
    assert cli.main(["check", "--target", "eq3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificates.json").read_text())
    assert doc["verdict"] == "UniformExponential"

    assert cli.main(["check", "--target", "eq3", "--horizon", "10", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificates.json").read_text())
    assert doc["verdict"] == "Asymptotic"
    notes = [n for c in doc["certificates"] for n in c["notes"]]
    assert any("scanned up to a finite horizon" in n for n in notes)


@pytest.mark.parametrize("horizon", ["nan", "inf", "0", "-5"])
def test_check_rejects_bad_horizon(tmp_path, capsys, horizon):
    # Strong saturation (n = 6) fails the removal model's precondition
    # before any extremum search reads the horizon.
    saturated = tmp_path / "saturated.json"
    saturated.write_text(cli.serialize_config(dataclasses.replace(md.ex51(), n=6.0)))
    for target in ("eq3", str(saturated)):
        assert cli.main(["check", "--target", target, "--horizon", horizon,
                         "--out", str(tmp_path)]) == 2
        assert "--horizon" in capsys.readouterr().err
        assert not (tmp_path / "certificates.json").exists()


@pytest.mark.parametrize("T", ["nan", "inf", "0", "-5"])
def test_bad_T_is_rejected_up_front(tmp_path, capsys, T):
    # eq3 at b = 0.59 is Inconclusive before any route reads T, so only the
    # up-front check sees it; options.T is checked the same way as --T.
    config = tmp_path / "eq3.json"
    config.write_text(cli.serialize_config(md.make_builtin("eq3", b=0.59), {"T": float(T)}))
    out = tmp_path / "out"
    for argv in (["check", "--target", "eq3", "--set", "b=0.59", "--T", T],
                 ["check", "--target", str(config)],
                 ["check", "--target", "eq26", "--T", T],
                 ["sweep", "--target", "eq3", "--param", "b", "--lo", "0.2", "--hi", "0.45",
                  "--points", "2", "--step", "0.05", "--T", T]):
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "--T must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--target", "eq3", "--grid", "64"],
        ["sweep", "--target", "eq3", "--param", "b", "--lo", "0.2", "--hi", "0.45", "--grid", "64"],
    ],
)
def test_grid_flag_is_gone(tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--out", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("key", ["grid", "tol"])
def test_config_rejects_removed_options(tmp_path, capsys, key):
    path = tmp_path / "eq.json"
    path.write_text(cli.serialize_config(md.make_builtin("eq26"), {key: -5}))
    assert cli.main(["check", "--target", str(path), "--out", str(tmp_path)]) == 2
    assert "options.%s" % key in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_ex51_decaying(tmp_path):
    assert cli.main(["simulate", "--target", "ex51", "--set", "r=4", "--set", "sigma=1.1",
                     "--out", str(tmp_path)]) == 0
    behavior = json.loads((tmp_path / "behavior.json").read_text())
    assert behavior["classification"] == "Decaying"
    assert behavior["equilibrium"] == pytest.approx(0.5)
    assert behavior["history"] == pytest.approx(0.4)
    assert behavior["initial_value"] == pytest.approx(0.6)
    data = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)
    assert list(data.dtype.names) == ["t", "x", "xdot"]
    assert data["t"][0] == 0.0
    assert abs(data["x"][-1] - 0.5) < 0.01


def test_simulate_reads_a_zero_lag_as_the_current_state(tmp_path):
    # x' + x(t - 1) - 0.3 x(t - 0) = 0 is eq26, x' + x(t - 1) - 0.3 x(t) = 0.
    config = tmp_path / "zero_lag.json"
    config.write_text(json.dumps({"schema": 1, "target": {
        "type": "linear",
        "positive": [{"coeff": {"kind": "constant", "v": 1.0}, "delay": {"lag": 1.0}}],
        "negative": [{"coeff": {"kind": "constant", "v": 0.3}, "delay": {"lag": 0}}]}}))
    zero, eq26 = tmp_path / "zero", tmp_path / "eq26"
    assert cli.main(["simulate", "--target", str(config), "--out", str(zero)]) == 0
    assert cli.main(["simulate", "--target", "eq26", "--out", str(eq26)]) == 0
    assert (zero / "trajectory.csv").read_text() == (eq26 / "trajectory.csv").read_text()


def test_simulate_bad_override_exit_code(tmp_path, capsys):
    assert cli.main(["simulate", "--target", "ex51", "--set", "nope=1",
                     "--out", str(tmp_path)]) == 2
    assert "no parameter" in capsys.readouterr().err


def test_simulate_history_and_x0_reach_the_run(tmp_path):
    assert cli.main(["simulate", "--target", "eq26", "--history", "0.5", "--x0", "2",
                     "--horizon", "25", "--out", str(tmp_path)]) == 0
    behavior = json.loads((tmp_path / "behavior.json").read_text())
    assert behavior["history"] == 0.5
    assert behavior["initial_value"] == 2.0
    assert behavior["horizon"] == 25.0
    first = (tmp_path / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert first[:2] == ["0", "2"]
    # x'(0) = -x(-1) + 0.3 x(0) reads the history.
    assert float(first[2]) == pytest.approx(-0.5 + 0.3 * 2.0)


def test_simulate_rejects_infinite_horizon(tmp_path, capsys):
    assert cli.main(["simulate", "--target", "eq26", "--horizon", "inf",
                     "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--x0", "--history"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_start_values(tmp_path, capsys, flag, value):
    # "--x0=-inf": a separate "-inf" would read as a flag.
    assert cli.main(["simulate", "--target", "eq26", "%s=%s" % (flag, value),
                     "--out", str(tmp_path)]) == 2
    assert "%s must be finite" % flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_simulate_huge_history_is_a_diverging_run(tmp_path):
    assert cli.main(["simulate", "--target", "eq26", "--history", "1e308", "--horizon", "5",
                     "--out", str(tmp_path)]) == 0

    def strict(token):
        raise AssertionError("behavior.json holds %s" % token)

    behavior = json.loads((tmp_path / "behavior.json").read_text(), parse_constant=strict)
    assert behavior["diverged"] is True


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_eq3_threshold(tmp_path):
    assert cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.0",
                     "--hi", "0.55", "--points", "3", "--tol", "1e-3",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "param,verdict,classification"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[1] == "UniformExponential" and first[2] == "Decaying"
    doc = json.loads((tmp_path / "threshold.json").read_text())
    assert doc["parameter"] == "b"
    assert doc["predicate"] == "certificate"
    assert doc["threshold"] == pytest.approx(0.34035, abs=2e-3)


def test_sweep_bracket_failure_exit_code(tmp_path, capsys):
    # Certificate holds at both endpoints: nothing to bisect.
    assert cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.0",
                     "--hi", "0.1", "--points", "2", "--out", str(tmp_path)]) == 3
    assert "predicate" in capsys.readouterr().err
    # The visited points are still written before the failure.
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_with_a_tol_below_the_float_spacing_ends(tmp_path, monkeypatch):
    # Bisection used to go on once 0.5*(lo + hi) stopped moving, one
    # certificate call per turn; it ends where no float lies between.
    calls = []
    certify = dg.certify
    monkeypatch.setattr(dg, "certify", lambda *a, **k: calls.append(a) or certify(*a, **k))
    assert cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.3", "--hi", "0.6",
                     "--tol", "1e-20", "--predicate", "certificate", "--out", str(tmp_path)]) == 0
    # The table's 9 points, then some 50 halvings down to the spacing near 0.34.
    assert 50 < len(calls) < 100
    thr = json.loads((tmp_path / "threshold.json").read_text())["threshold"]
    assert thr == pytest.approx(0.34035, abs=2e-3)


def test_sweep_rejects_nonpositive_tol(tmp_path, capsys):
    assert cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.2",
                     "--hi", "0.45", "--points", "2", "--step", "0.05", "--tol", "0",
                     "--out", str(tmp_path)]) == 2
    assert "tol" in capsys.readouterr().err


def test_sweep_checks_tol_before_the_table(tmp_path, capsys):
    assert cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.2",
                     "--hi", "0.5", "--points", "9", "--tol", "0", "--out", str(tmp_path)]) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_threshold_uses_the_table_T(tmp_path, capsys):
    # --T governs the bisection as well as the table: with windows this
    # short nothing certifies, so there is no flip to bisect.
    assert cli.main(["sweep", "--target", "eq3abc", "--set", "b=0.1", "--param", "a",
                     "--lo", "0.2", "--hi", "0.9", "--points", "3", "--step", "0.05",
                     "--T", "1e-4", "--out", str(tmp_path)]) == 3
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.split(",")[1] != "UniformExponential" for row in rows)
    assert not (tmp_path / "threshold.json").exists()
    assert "predicate is False at both ends" in capsys.readouterr().err


def test_sweep_requires_declared_parameter(tmp_path, capsys):
    assert cli.main(["sweep", "--target", "eq26", "--param", "a", "--lo", "0.0",
                     "--hi", "1.0", "--out", str(tmp_path)]) == 2
    assert "no parameter" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_example2_passes(tmp_path):
    assert cli.main(["reproduce", "example2", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "reproduction.json").read_text())
    assert doc["scenario"] == "example2"
    assert doc["status"] == "ok"
    assert doc["mismatches"] == 0
    names = [row["name"] for row in doc["rows"]]
    assert any("difference-route verdict" in n for n in names)


def test_reproduce_example1_threshold_rows(tmp_path):
    assert cli.main(["reproduce", "example1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "reproduction.json").read_text())
    rows = {row["name"]: row for row in doc["rows"]}
    sup_row = rows["unit-amplitude oscillating rate: esssup of the window integral over one lag"]
    assert sup_row["computed"] == pytest.approx(1.0 + math.sin(2.0) / 2.0, abs=1e-6)
    assert sup_row["status"] == "ok"


def test_reproduce_fig2_passes(tmp_path):
    assert cli.main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "reproduction.json").read_text())
    assert doc["status"] == "ok"


def test_reproduce_fig1a_reports_documented_mismatch(tmp_path, capsys):
    # The pulsed removal model as displayed decays at r=3.2; the recorded
    # onset between 3 and 3.2 belongs to the delay-exchanged variant. The
    # scenario must surface that honestly: exit 1, one mismatch row, and
    # info rows bracketing the measured onset between r=5 and r=6.
    assert cli.main(["reproduce", "fig1a", "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "reproduction.json").read_text())
    assert doc["status"] == "mismatch"
    assert doc["mismatches"] == 1
    mismatch = [row for row in doc["rows"] if row["status"] == "mismatch"]
    assert len(mismatch) == 1
    assert "r=3.2" in mismatch[0]["name"]
    assert mismatch[0]["computed"] == "Decaying"
    assert mismatch[0]["recorded"] == "Sustained"
    assert "exchanged" in mismatch[0]["note"]
    r3 = [row for row in doc["rows"] if "r=3:" in row["name"]][0]
    assert r3["status"] == "ok" and r3["computed"] == "Decaying"
    assert "[mismatch]" in capsys.readouterr().out


def test_reproduce_unknown_scenario_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["reproduce", "nosuch", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_reproduce_json_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["reproduce", "example2", "--out", str(out1)]) == 0
    assert cli.main(["reproduce", "example2", "--out", str(out2)]) == 0

    def strip_timestamp(path):
        return [
            line
            for line in (path / "reproduction.json").read_text().splitlines()
            if "generated_at" not in line
        ]

    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_readme_documents_every_flag_and_option():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    flags = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert "--history" in flags and "--x0" in flags
    assert sorted(f for f in flags if f not in readme) == []
    assert [k for k in cli._OPTION_KEYS if "`%s`" % k not in readme] == []


def test_package_exports_the_readme_quick_start_names():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    imported = block.split("from ddestab import (", 1)[1].split(")", 1)[0]
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert sorted(ddestab.__all__) == sorted(names | {"__version__"})
    assert all(hasattr(ddestab, name) for name in ddestab.__all__)


def test_readme_python_quick_start_prints_its_comments(capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    # The comment lines right after a print are its expected output.
    expected, after_print = [], False
    for line in block.splitlines():
        if after_print and line.startswith("# "):
            expected.append(line[2:])
        else:
            after_print = "print(" in line
    exec(compile(block, "README.md", "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("amplitudes, freqs, steps", [
    ((1.0, 1.0), (1.0, math.sqrt(2.0)), []),
    # Commensurate to 1e-11: the window integral passes 1/e near t = 7.9e10,
    # though a search over one period once certified on S = 0.339.
    ((0.3, 0.2), (1.0, 2.00000000002), []),
    # A step summand leaves the same waves in the tail.
    ((1.0, 1.0), (1.0, math.sqrt(2.0)),
     [{"kind": "piecewise", "breakpoints": [5.0], "values": [0.0, 0.5]}]),
], ids=["sqrt2", "nearly_commensurate", "sqrt2_with_steps"])
def test_check_incommensurate_periods_exits_2(tmp_path, capsys, amplitudes, freqs, steps):
    rate = {"kind": "sum", "terms": [
        {"kind": "sinsq", "amplitude": a, "angular_freq": w} for a, w in zip(amplitudes, freqs)
    ] + steps}
    config = tmp_path / "incommensurate.json"
    config.write_text(json.dumps({"schema": 1, "target": {
        "type": "linear", "positive": [{"coeff": rate, "delay": {"lag": 1.0}}]}}))
    out = tmp_path / "out"
    for extra in ([], ["--horizon", "200"]):
        assert cli.main(["check", "--target", str(config), "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert "no common period" in err and "declare" not in err
        assert not (out / "certificates.json").exists()


def test_outputs_have_no_leftover_temp_files(tmp_path):
    assert cli.main(["simulate", "--target", "eq26", "--horizon", "25",
                     "--out", str(tmp_path)]) == 0
    leftovers = [name for name in os.listdir(tmp_path) if ".tmp" in name]
    assert leftovers == []


def test_sweep_bisection_reuses_the_table(tmp_path, monkeypatch):
    # Every run goes through the column call: the table's as columns of one
    # call, each bisection run as a call of one column.
    runs = []
    integrate_columns = sv.integrate_columns

    def counted(targets, *args, **kwargs):
        runs.extend(targets)
        return integrate_columns(targets, *args, **kwargs)

    monkeypatch.setattr(sv, "integrate_columns", counted)
    assert cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.3", "--hi", "0.6",
                     "--points", "3", "--tol", "0.1", "--step", "0.05", "--predicate", "empirical",
                     "--out", str(tmp_path)]) == 0
    swept = len(runs)
    # Before, the sweep ran its table and then this whole bisection anew.
    runs.clear()
    predicate = dg.empirical_predicate(lambda b: md.make_builtin("eq3", b=b), step=0.05)
    threshold = dg.find_threshold(predicate, 0.3, 0.6, tol=0.1)
    # The bisection's end points and its first midpoint (0.45) are table rows.
    assert swept == 3 + len(runs) - 3
    assert json.loads((tmp_path / "threshold.json").read_text())["threshold"] == threshold


def test_sweep_whose_second_point_fails_exits_with_that_points_error(tmp_path, capsys):
    # sigma = 1.5 needs 30 time units to classify, and the horizon is 25; the
    # first point's run is fine. The table's runs go together, after its
    # certificates, yet the error is the one the second point's run raises.
    argv = ["sweep", "--target", "ex51", "--param", "sigma", "--lo", "1.0", "--hi", "2.0",
            "--points", "3", "--tol", "0.1", "--step", "0.05", "--horizon", "25",
            "--predicate", "empirical", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: span 25 too short to classify; need at least 20 lags (30)\n"
    assert not (tmp_path / "sweep.csv").exists()


# The sweep workload's empirical sweeps: its steps, horizons and tolerances.
_SWEEPS = {
    "eq3": ["--param", "b", "--lo", "0.35", "--hi", "0.58", "--tol", "1e-3", "--step", "0.05",
            "--horizon", "50"],
    "eq3abc": ["--set", "b=0.2", "--param", "a", "--lo", "0.22", "--hi", "0.8", "--tol", "1e-3",
               "--step", "0.05", "--horizon", "50"],
    "ex51": ["--set", "sigma=1.2", "--param", "r", "--lo", "4.0", "--hi", "9.0", "--tol", "0.05",
             "--step", "0.05", "--horizon", "40"],
    "ex5": ["--param", "n", "--lo", "6.0", "--hi", "12.5", "--tol", "0.05", "--step", "0.1",
            "--horizon", "121"],
}


@pytest.mark.parametrize("target", sorted(_SWEEPS))
def test_a_sweep_writes_the_same_bytes_with_a_cold_or_a_warm_geometry_memo(target, tmp_path,
                                                                          monkeypatch):
    argv = ["sweep", "--target", target, *_SWEEPS[target], "--points", "3",
            "--predicate", "empirical"]

    def outputs(out):
        assert cli.main(argv + ["--out", str(out)]) == 0
        report = (out / "threshold.json").read_text().splitlines()
        return (out / "sweep.csv").read_bytes(), [l for l in report if '"generated_at"' not in l]

    warm = outputs(tmp_path / "warm")
    # The table's run and every bisection run after the first share one geometry.
    memo = sv._shared_geometry.cache_info()
    assert memo.misses == 1 and memo.hits >= 5
    with monkeypatch.context() as m:
        m.setattr(sv, "_shared_geometry", sv._shared_geometry.__wrapped__)  # a build per run
        cold = outputs(tmp_path / "cold")
    assert cold == warm
