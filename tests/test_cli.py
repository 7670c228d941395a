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

from ddestab import cli
from ddestab import criteria as cr
from ddestab import diagnostics as dg
from ddestab import models as md
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


def test_config_schema_errors_carry_field_paths():
    cases = [
        ("not json at all", "<document>"),
        ('{"schema": 2, "target": {"type": "linear"}}', "schema"),
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


def test_sweep_rejects_nonpositive_tol(tmp_path, capsys):
    assert cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.2",
                     "--hi", "0.45", "--points", "2", "--step", "0.05", "--tol", "0",
                     "--out", str(tmp_path)]) == 2
    assert "tol" in capsys.readouterr().err


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


def test_outputs_have_no_leftover_temp_files(tmp_path):
    assert cli.main(["simulate", "--target", "eq26", "--horizon", "25",
                     "--out", str(tmp_path)]) == 0
    leftovers = [name for name in os.listdir(tmp_path) if ".tmp" in name]
    assert leftovers == []


def test_sweep_bisection_reuses_the_table(tmp_path, monkeypatch):
    runs = []
    perturbed_run = dg.perturbed_run

    def counted(target, **kwargs):
        runs.append(target)
        return perturbed_run(target, **kwargs)

    monkeypatch.setattr(dg, "perturbed_run", counted)
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
