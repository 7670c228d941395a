"""Command-line front end for certificates, simulation, and sweeps.

Parses equation/model configurations (built-in names or JSON documents),
dispatches the criteria checkers, the integrator, and the threshold
search, and writes machine-readable reports: certificates.json,
trajectory.csv + behavior.json, sweep.csv + threshold.json, and the
scripted reproduction tables. All files are written atomically and all
JSON output is byte-stable apart from the generated_at timestamp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from . import criteria as cr
from . import diagnostics as dg
from . import models as md
from . import solver as sv
from . import timefn as tf

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ParsedConfig",
    "parse_config",
    "serialize_config",
    "target_to_config",
    "target_from_config",
    "resolve_target",
    "SCENARIOS",
    "main",
]

SCHEMA_VERSION = 1

_INV_E = 1.0 / math.e


class ConfigError(ValueError):
    """A configuration document or flag set violates the schema.

    The message starts with the path of the offending field when the
    error comes from a document.
    """


# ---------------------------------------------------------------------------
# Configuration codec
# ---------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ConfigError("%s: %s" % (path or "<document>", message))


def _as_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, "expected an object, got %s" % type(obj).__name__)
    return obj


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, "missing required field %r" % key)
    return obj[key]


def _number(obj: dict, key: str, path: str, default=None) -> float:
    if key not in obj:
        if default is not None:
            return default
        _fail(path, "missing required field %r" % key)
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail("%s.%s" % (path, key), "expected a number")
    return float(value)


def _check_keys(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail("%s.%s" % (path, key), "unexpected field (allowed: %s)" % ", ".join(sorted(allowed)))


def coefficient_to_config(c: tf.Coefficient) -> dict:
    if isinstance(c, tf.ConstantCoefficient):
        return {"kind": "constant", "v": c.v}
    if isinstance(c, tf.SinSqCoefficient):
        if c.declared_class is not None:
            raise ConfigError("coefficients with a declared asymptotic class are not serializable")
        return {
            "kind": "sinsq",
            "amplitude": c.amplitude,
            "angular_freq": c.angular_freq,
            "phase": c.phase,
        }
    if isinstance(c, tf.PiecewiseConstantCoefficient):
        if c.declared_class is not None:
            raise ConfigError("coefficients with a declared asymptotic class are not serializable")
        return {
            "kind": "piecewise",
            "breakpoints": list(c.breakpoints),
            "values": list(c.values),
        }
    if isinstance(c, tf.ScaledCoefficient):
        return {"kind": "scaled", "factor": c.factor, "inner": coefficient_to_config(c.inner)}
    if isinstance(c, tf.SumCoefficient):
        if c.declared_class is not None:
            raise ConfigError("coefficients with a declared asymptotic class are not serializable")
        return {"kind": "sum", "terms": [coefficient_to_config(t) for t in c.terms]}
    raise ConfigError("coefficient %r is not serializable" % type(c).__name__)


def coefficient_from_config(obj, path: str) -> tf.Coefficient:
    obj = _as_dict(obj, path)
    kind = obj.get("kind")
    try:
        if kind == "constant":
            _check_keys(obj, ("kind", "v"), path)
            return tf.constant(_number(obj, "v", path))
        if kind == "sinsq":
            _check_keys(obj, ("kind", "amplitude", "angular_freq", "phase"), path)
            return tf.sinsq(
                _number(obj, "amplitude", path),
                _number(obj, "angular_freq", path),
                _number(obj, "phase", path, default=0.0),
            )
        if kind == "piecewise":
            _check_keys(obj, ("kind", "breakpoints", "values"), path)
            breakpoints = _get(obj, "breakpoints", path)
            values = _get(obj, "values", path)
            if not isinstance(breakpoints, list) or not isinstance(values, list):
                _fail(path, "breakpoints and values must be arrays")
            return tf.piecewise_constant(breakpoints, values)
        if kind == "scaled":
            _check_keys(obj, ("kind", "factor", "inner"), path)
            inner = coefficient_from_config(_get(obj, "inner", path), path + ".inner")
            return tf.scaled(_number(obj, "factor", path), inner)
        if kind == "sum":
            _check_keys(obj, ("kind", "terms"), path)
            terms = _get(obj, "terms", path)
            if not isinstance(terms, list) or not terms:
                _fail(path + ".terms", "expected a non-empty array")
            return tf.coeff_sum(
                [coefficient_from_config(t, "%s.terms[%d]" % (path, i)) for i, t in enumerate(terms)]
            )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(
        "%s.kind" % path,
        "unknown coefficient kind %r (expected constant, sinsq, piecewise, scaled, or sum)" % kind,
    )


def delay_to_config(d) -> dict:
    if isinstance(d, tf.ConstantLag):
        return {"lag": d.lag}
    if isinstance(d, tf.IdentityDelay):
        return {"identity": True}
    raise ConfigError("delay %r is not serializable (only constant lags and the identity)" % type(d).__name__)


def delay_from_config(obj, path: str):
    obj = _as_dict(obj, path)
    if "lag" in obj:
        _check_keys(obj, ("lag",), path)
        try:
            return tf.ConstantLag(_number(obj, "lag", path))
        except ValueError as exc:
            _fail(path, str(exc))
    if obj.get("identity") is True:
        _check_keys(obj, ("identity",), path)
        return tf.IdentityDelay()
    _fail(path, 'expected {"lag": number} or {"identity": true}')


def _term_to_config(term: cr.Term) -> dict:
    return {"coeff": coefficient_to_config(term.coeff), "delay": delay_to_config(term.delay)}


def _term_from_config(obj, path: str) -> cr.Term:
    obj = _as_dict(obj, path)
    _check_keys(obj, ("coeff", "delay"), path)
    return cr.Term(
        coefficient_from_config(_get(obj, "coeff", path), path + ".coeff"),
        delay_from_config(_get(obj, "delay", path), path + ".delay"),
    )


def _distributed_to_config(term: cr.DistributedTerm) -> dict:
    return {
        "sign": term.sign,
        "weight": coefficient_to_config(term.total_weight),
        "window_start": delay_to_config(term.window_start),
        "width": term.kernel.width,
    }


def _distributed_from_config(obj, path: str) -> cr.DistributedTerm:
    obj = _as_dict(obj, path)
    _check_keys(obj, ("sign", "weight", "window_start", "width"), path)
    sign = _get(obj, "sign", path)
    if sign not in (1, -1):
        _fail(path + ".sign", "expected 1 or -1")
    width = obj.get("width")
    if width is not None and (isinstance(width, bool) or not isinstance(width, (int, float))):
        _fail(path + ".width", "expected a number or null")
    try:
        return cr.DistributedTerm(
            sign=sign,
            total_weight=coefficient_from_config(_get(obj, "weight", path), path + ".weight"),
            window_start=delay_from_config(_get(obj, "window_start", path), path + ".window_start"),
            kernel=cr.UniformKernel(None if width is None else float(width)),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))


def target_to_config(target) -> dict:
    """Serialize an equation or model to its configuration descriptor."""
    if isinstance(target, cr.LinearDelayEquation):
        return {
            "type": "linear",
            "t0": target.t0,
            "positive": [_term_to_config(t) for t in target.positive_terms],
            "negative": [_term_to_config(t) for t in target.negative_terms],
            "distributed": [_distributed_to_config(t) for t in target.distributed_terms],
        }
    if isinstance(target, md.MackeyGlassRemoval):
        return {
            "type": "mg_removal",
            "r": coefficient_to_config(target.r),
            "beta": target.beta,
            "gamma": target.gamma,
            "n": target.n,
            "g": delay_to_config(target.g),
            "h": delay_to_config(target.h),
        }
    if isinstance(target, md.MackeyGlassProduction):
        return {
            "type": "mg_production",
            "s": coefficient_to_config(target.s),
            "beta": target.beta,
            "n": target.n,
            "p": delay_to_config(target.p),
            "q": delay_to_config(target.q),
        }
    raise ConfigError("target %r is not serializable" % type(target).__name__)


def _terms_from_config(obj: dict, key: str, path: str, loader):
    items = obj.get(key, [])
    if not isinstance(items, list):
        _fail("%s.%s" % (path, key), "expected an array")
    return [loader(item, "%s.%s[%d]" % (path, key, i)) for i, item in enumerate(items)]


def target_from_config(obj, path: str = "target"):
    """Build an equation or model from its configuration descriptor."""
    obj = _as_dict(obj, path)
    kind = obj.get("type")
    try:
        if kind == "linear":
            _check_keys(obj, ("type", "t0", "positive", "negative", "distributed"), path)
            return cr.LinearDelayEquation(
                positive_terms=_terms_from_config(obj, "positive", path, _term_from_config),
                negative_terms=_terms_from_config(obj, "negative", path, _term_from_config),
                distributed_terms=_terms_from_config(obj, "distributed", path, _distributed_from_config),
                t0=_number(obj, "t0", path, default=0.0),
            )
        if kind == "mg_removal":
            _check_keys(obj, ("type", "r", "beta", "gamma", "n", "g", "h"), path)
            return md.MackeyGlassRemoval(
                r=coefficient_from_config(_get(obj, "r", path), path + ".r"),
                beta=_number(obj, "beta", path),
                gamma=_number(obj, "gamma", path),
                n=_number(obj, "n", path),
                g=delay_from_config(_get(obj, "g", path), path + ".g"),
                h=delay_from_config(_get(obj, "h", path), path + ".h"),
            )
        if kind == "mg_production":
            _check_keys(obj, ("type", "s", "beta", "n", "p", "q"), path)
            return md.MackeyGlassProduction(
                s=coefficient_from_config(_get(obj, "s", path), path + ".s"),
                beta=_number(obj, "beta", path),
                n=_number(obj, "n", path),
                p=delay_from_config(_get(obj, "p", path), path + ".p"),
                q=delay_from_config(_get(obj, "q", path), path + ".q"),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(
        "%s.type" % path,
        "unknown target type %r (expected linear, mg_removal, or mg_production)" % kind,
    )


_OPTION_KEYS = ("step", "horizon", "T")


@dataclass(frozen=True)
class ParsedConfig:
    """A validated configuration document: the target plus default options."""

    target: object
    options: dict


def parse_config(text: str) -> ParsedConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>: not valid JSON (%s)" % exc)
    doc = _as_dict(doc, "")
    _check_keys(doc, ("schema", "target", "options"), "")
    schema = _get(doc, "schema", "")
    if schema != SCHEMA_VERSION:
        _fail("schema", "unsupported schema version %r (expected %d)" % (schema, SCHEMA_VERSION))
    target = target_from_config(_get(doc, "target", ""), "target")
    options = doc.get("options", {})
    options = _as_dict(options, "options")
    _check_keys(options, _OPTION_KEYS, "options")
    for key, value in options.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail("options.%s" % key, "expected a number")
    return ParsedConfig(target, dict(options))


def serialize_config(target, options: Optional[dict] = None) -> str:
    """Canonical JSON document for a target (round-trips through parse_config)."""
    doc = {"schema": SCHEMA_VERSION, "target": target_to_config(target)}
    if options:
        doc["options"] = dict(options)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Overrides and target resolution
# ---------------------------------------------------------------------------


def parse_overrides(pairs) -> dict:
    """--set KEY=VALUE flags into a parameter map."""
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError("--set expects KEY=VALUE, got %r" % pair)
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("--set expects KEY=VALUE, got %r" % pair)
        try:
            overrides[key] = float(raw)
        except ValueError:
            raise ConfigError("--set %s: %r is not a number" % (key, raw))
    return overrides


def resolve_target(name_or_path: str, overrides: dict):
    """A built-in name or a configuration file path into (target, file options)."""
    if name_or_path in md.BUILTINS:
        try:
            return md.make_builtin(name_or_path, **overrides), {}
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc.args[0] if exc.args else exc))
    if os.path.exists(name_or_path):
        if overrides:
            raise ConfigError("--set applies to built-in targets only; edit the configuration file instead")
        with open(name_or_path) as fh:
            parsed = parse_config(fh.read())
        return parsed.target, dict(parsed.options)
    if name_or_path.endswith(".json") or os.sep in name_or_path:
        raise ConfigError("configuration file %r not found" % name_or_path)
    raise ConfigError(
        "unknown built-in %r; available: %s" % (name_or_path, ", ".join(sorted(md.BUILTINS)))
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = "%s.tmp%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run_check(args: argparse.Namespace) -> int:
    # Checked here, not only by the searches: a certificate can conclude
    # before any search reads the horizon.
    if args.horizon is not None and not (math.isfinite(args.horizon) and args.horizon > 0.0):
        raise ConfigError("--horizon must be finite and positive, got %g" % args.horizon)
    target, opts = resolve_target(args.target, parse_overrides(args.sets))
    T = args.T if args.T is not None else opts.get("T")
    verdict, certs = dg.certify(target, T, horizon=args.horizon)
    payload = {
        "schema": SCHEMA_VERSION,
        "generated_at": _utc_now(),
        "target": target_to_config(target),
        "verdict": verdict,
        "certificates": [c.to_dict() for c in certs],
    }
    path = os.path.join(args.out, "certificates.json")
    _write_json(path, payload)
    for cert in certs:
        print("%s: %s" % (cert.name, cert.verdict))
    print("verdict: %s -> %s" % (verdict, path))
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    target, opts = resolve_target(args.target, parse_overrides(args.sets))
    step = args.step if args.step is not None else opts.get("step")
    horizon = args.horizon if args.horizon is not None else opts.get("horizon")
    traj, report, setup = dg.perturbed_run(
        target, history=args.history, x0=args.x0, horizon=horizon, step=step
    )
    behavior = {
        "schema": SCHEMA_VERSION,
        "generated_at": _utc_now(),
        "target": target_to_config(target),
        "classification": report.classification,
        "initial_amplitude": report.initial_amplitude,
        "tail_amplitude": report.tail_amplitude,
        "final_time": traj.t1,
        "final_value": traj.final_value,
        "diverged": traj.diverged,
        "divergence_time": traj.divergence_time,
    }
    behavior.update(setup)
    if report.classification == dg.DECAYING:
        try:
            fit = dg.fit_decay(traj, equilibrium=setup["equilibrium"])
            behavior["decay_fit"] = {
                "gamma_hat": fit.gamma_hat,
                "m_hat": fit.m_hat,
                "fit_quality": fit.fit_quality,
                "used_peaks": fit.used_peaks,
            }
        except tf.ConfigurationError:
            pass
    csv_path = os.path.join(args.out, "trajectory.csv")
    os.makedirs(args.out, exist_ok=True)
    tmp = "%s.tmp%d" % (csv_path, os.getpid())
    traj.to_csv(tmp)
    os.replace(tmp, csv_path)
    _write_json(os.path.join(args.out, "behavior.json"), behavior)
    print(
        "classification: %s (tail %.6g over initial %.6g) -> %s"
        % (report.classification, report.tail_amplitude, report.initial_amplitude, csv_path)
    )
    return 0


def _builtin_builder(name: str, param: str, overrides: dict):
    if name not in md.BUILTINS:
        raise ConfigError(
            "sweep requires a built-in target with declared parameters; available: %s"
            % ", ".join(sorted(md.BUILTINS))
        )
    declared = md.BUILTINS[name].params
    if param not in declared:
        raise ConfigError(
            "built-in %r has no parameter %r (declared: %s)"
            % (name, param, ", ".join(sorted(declared)) or "none")
        )
    for key in overrides:
        if key not in declared:
            raise ConfigError(
                "built-in %r has no parameter %r (declared: %s)"
                % (name, key, ", ".join(sorted(declared)))
            )

    def build(value: float):
        params = dict(overrides)
        params[param] = value
        return md.make_builtin(name, **params)

    return build


def run_sweep(args: argparse.Namespace) -> int:
    if not (args.hi > args.lo):
        raise ConfigError("sweep requires --hi greater than --lo")
    if args.points < 2:
        raise ConfigError("sweep requires at least two points")
    raw_build = _builtin_builder(args.target, args.param, parse_overrides(args.sets))

    def build(value: float):
        # Name the offending parameter value when a point is invalid.
        try:
            return raw_build(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("%s=%g: %s" % (args.param, value, exc)) from exc

    lines = ["param,verdict,classification"]
    tabulated = {}  # the predicate's value at each table point
    for i in range(args.points):
        value = args.lo + (args.hi - args.lo) * i / (args.points - 1)
        target = build(value)
        verdict, _ = dg.certify(target, args.T)
        _, report, _ = dg.perturbed_run(target, horizon=args.horizon, step=args.step)
        lines.append("%.17g,%s,%s" % (value, verdict, report.classification))
        if args.predicate == "certificate":
            tabulated[value] = verdict == cr.UNIFORM_EXPONENTIAL
        else:
            tabulated[value] = report.classification == dg.DECAYING
    csv_path = os.path.join(args.out, "sweep.csv")
    _write_atomic(csv_path, "\n".join(lines) + "\n")

    if args.predicate == "certificate":
        predicate = dg.certificate_predicate(build, args.T)
    else:
        predicate = dg.empirical_predicate(build, horizon=args.horizon, step=args.step)

    def reuse_table(value: float) -> bool:
        # The bisection starts from lo and hi: the table's first point and,
        # unless rounding moved it, its last.
        return tabulated[value] if value in tabulated else predicate(value)

    threshold = dg.find_threshold(reuse_table, args.lo, args.hi, tol=args.tol)
    payload = {
        "schema": SCHEMA_VERSION,
        "generated_at": _utc_now(),
        "target": args.target,
        "parameter": args.param,
        "lo": args.lo,
        "hi": args.hi,
        "tol": args.tol,
        "predicate": args.predicate,
        "threshold": threshold,
    }
    _write_json(os.path.join(args.out, "threshold.json"), payload)
    print("threshold %s = %.10g (%s predicate) -> %s" % (args.param, threshold, args.predicate, csv_path))
    return 0


# ---------------------------------------------------------------------------
# Reproduction scenarios
# ---------------------------------------------------------------------------


def _row(name, computed, recorded, *, tol=None, provenance="recorded", status=None, note=None):
    if status is None:
        if tol is None or isinstance(computed, str) or isinstance(recorded, str):
            status = "ok" if computed == recorded else "mismatch"
        else:
            status = "ok" if abs(computed - recorded) <= tol else "mismatch"
    return {
        "name": name,
        "computed": computed,
        "recorded": recorded,
        "tol": tol,
        "provenance": provenance,
        "status": status,
        "note": note,
    }


def _ratio_only_predicate(build):
    def pred(value: float) -> bool:
        certs = {c.name: c for c in cr.evaluate_all(build(value))}
        return certs["ratio-form"].verdict == cr.UNIFORM_EXPONENTIAL

    return pred


def _repro_example1():
    sup = tf.sup_window_integral(tf.sinsq(1.0, 1.0), tf.ConstantLag(2.0))
    exact_sup = 1.0 + math.sin(2.0) / 2.0
    threshold = dg.find_threshold(
        dg.certificate_predicate(lambda b: md.make_builtin("eq3", b=b)), 0.0, 0.6, tol=1e-5
    )
    exact_thr = (1.0 + _INV_E) / exact_sup - 0.6
    return [
        _row(
            "unit-amplitude oscillating rate: esssup of the window integral over one lag",
            sup,
            exact_sup,
            tol=1e-6,
            provenance="derived",
            note="closed form 1 + sin(2)/2",
        ),
        _row(
            "same esssup against the recorded upper bound",
            sup,
            1.4547,
            tol=5e-4,
            provenance="recorded",
        ),
        _row(
            "undelayed-size threshold from certificate bisection",
            threshold,
            exact_thr,
            tol=1e-4,
            provenance="derived",
            note="closed form (1 + 1/e)/(1 + sin(2)/2) - 0.6",
        ),
        _row(
            "same threshold against the recorded value",
            threshold,
            0.3403,
            tol=5e-4,
            provenance="recorded",
        ),
        _row(
            "previously recorded bound for the same family",
            threshold,
            0.26,
            status="info",
            provenance="recorded",
            note="the window-integral route raises the certified range from 0.26 to ~0.3403",
        ),
    ]


def _repro_example2():
    certs26 = {c.name: c for c in cr.evaluate_all(md.make_builtin("eq26"))}
    certs27 = {c.name: c for c in cr.evaluate_all(md.make_builtin("eq27"))}
    q26 = {q.symbol: q.value for q in certs26["diff-form"].quantities}
    q27 = {q.symbol: q.value for q in certs27["ratio-form"].quantities}
    return [
        _row(
            "undelayed-negative pair: difference-route verdict",
            certs26["diff-form"].verdict,
            cr.UNIFORM_EXPONENTIAL,
        ),
        _row(
            "undelayed-negative pair: net one-lag window integral S",
            q26["S"],
            0.7,
            tol=1e-6,
        ),
        _row(
            "undelayed-negative pair: combined bound S + 2QV",
            q26["S"] + 2.0 * q26["Q"] * q26["V"],
            1.3,
            tol=1e-6,
            note="below 1 + 1/e = 1.367879",
        ),
        _row(
            "undelayed-negative pair: ratio-route verdict",
            certs26["ratio-form"].verdict,
            cr.INCONCLUSIVE,
        ),
        _row(
            "both-delayed pair: ratio-route verdict",
            certs27["ratio-form"].verdict,
            cr.UNIFORM_EXPONENTIAL,
        ),
        _row(
            "both-delayed pair: combined bound S_a + V_a",
            q27["S_a"] + q27["V_a"],
            1.2,
            tol=1e-6,
            note="below 1 + 1/e = 1.367879",
        ),
        _row(
            "both-delayed pair: difference-route verdict",
            certs27["diff-form"].verdict,
            cr.INCONCLUSIVE,
        ),
    ]


def _repro_example2a():
    threshold = dg.find_threshold(
        _ratio_only_predicate(lambda a: md.make_builtin("eq3abc", a=a, b=a / 2.0)),
        0.05,
        0.95,
        tol=1e-5,
    )
    exact = 0.5 * (1.0 + _INV_E) / (1.0 + math.sin(2.0) / 2.0)
    return [
        _row(
            "proportional pair (b = a/2): ratio-route threshold in a",
            threshold,
            exact,
            tol=1e-4,
            provenance="derived",
            note="closed form (1/2)(1 + 1/e)/(1 + sin(2)/2)",
        ),
        _row(
            "same threshold against the recorded value",
            threshold,
            0.47,
            tol=5e-3,
            provenance="recorded",
        ),
    ]


def _production_check_predicate(key: str):
    def pred(n: float) -> bool:
        checks, _ = md.production_stability_checks(md.make_builtin("ex5", n=n))
        return checks[key].satisfied

    return pred


def _repro_example5():
    thr_combined = dg.find_threshold(_production_check_predicate("combined_bound"), 0.5, 20.0, tol=1e-6)
    thr_gap = dg.find_threshold(_production_check_predicate("gap_bound"), 0.5, 20.0, tol=1e-6)
    thr_pair = dg.find_threshold(
        _production_check_predicate("window_vs_gap_bound"), 0.5, 20.0, tol=1e-6
    )
    exact_combined = (_INV_E + 0.7) / 0.15
    exact_gap = 34.0 / 3.0
    exact_pair = 2.0 * ((1.0 + _INV_E) / 0.45 - 1.0)
    return [
        _row(
            "single-condition route: threshold in the saturation exponent n",
            thr_combined,
            exact_combined,
            tol=1e-4,
            provenance="derived",
            note="closed form (1/e + 0.7)/0.15",
        ),
        _row(
            "same threshold against the recorded value",
            thr_combined,
            7.119,
            tol=1e-2,
            provenance="recorded",
        ),
        _row(
            "paired route, part 1: threshold in n",
            thr_gap,
            exact_gap,
            tol=1e-4,
            provenance="derived",
            note="closed form 2(1/0.15 - 1) = 34/3",
        ),
        _row(
            "same threshold against the recorded value",
            thr_gap,
            11.333,
            tol=1e-2,
            provenance="recorded",
        ),
        _row(
            "paired route, part 2 evaluated literally as displayed: threshold in n",
            thr_pair,
            exact_pair,
            tol=1e-4,
            provenance="derived",
            note="closed form 2((1 + 1/e)/0.45 - 1)",
        ),
        _row(
            "paired route, part 2: recorded threshold",
            thr_pair,
            14.2,
            status="info",
            provenance="recorded",
            note=(
                "discrepancy flagged, neither value asserted: the displayed inequality "
                "evaluated literally gives ~4.0795, while the recorded 14.2 follows "
                "different window arithmetic"
            ),
        ),
        _row(
            "overall certified range in n",
            thr_combined,
            11.333,
            status="info",
            provenance="recorded",
            note=(
                "with the literal part-2 bound the paired route stops before the single "
                "condition, so the overall certified range ends at ~7.1192; the recorded "
                "overall 11.333 relies on part 2 holding up to 14.2"
            ),
        ),
    ]


def _pulse_removal_threshold(sigma: float, lo: float, hi: float) -> float:
    return dg.find_threshold(
        dg.certificate_predicate(lambda r: md.make_builtin("ex51", sigma=sigma, r=r)),
        lo,
        hi,
        tol=1e-4,
    )


def _repro_fig1():
    model4 = md.make_builtin("ex51", sigma=1.1, r=4.0)
    traj4, rep4, _ = dg.perturbed_run(model4, history=0.4, x0=0.6, horizon=100.0, step=0.01)
    model85 = md.make_builtin("ex51", sigma=1.1, r=8.5)
    _, rep85, _ = dg.perturbed_run(model85, history=0.4, x0=0.6, horizon=100.0, step=0.01)
    threshold = _pulse_removal_threshold(1.1, 1.0, 6.0)
    gap = 0.05 + math.sin(0.1 * math.pi) / (2.0 * math.pi)
    exact_thr = (1.0 + _INV_E) / (0.2 + 1.2 * gap)
    return [
        _row("pulsed removal model, sigma=1.1, r=4: classification", rep4.classification, dg.DECAYING),
        _row("pulsed removal model, sigma=1.1, r=4: x(100)", traj4.final_value, 0.5, tol=0.01),
        _row(
            "pulsed removal model, sigma=1.1, r=8.5: classification",
            rep85.classification,
            dg.SUSTAINED,
        ),
        _row(
            "certificate threshold in r (exact window arithmetic)",
            threshold,
            exact_thr,
            tol=1e-3,
            provenance="derived",
            note="closed form (1 + 1/e)/(0.2 + 1.2 (0.05 + sin(0.1 pi)/(2 pi)))",
        ),
        _row(
            "certificate threshold in r against the recorded value",
            threshold,
            4.27,
            status="info",
            provenance="recorded",
            note=(
                "the recorded bound rounds the delay-gap integral up to 0.1 r; exact "
                "window arithmetic gives 0.09918 r and threshold ~4.2878"
            ),
        ),
    ]


def _repro_fig1a():
    runs = {}
    for r in (3.0, 3.2, 5.0, 6.0):
        model = md.make_builtin("ex51", sigma=1.5, r=r)
        _, rep, _ = dg.perturbed_run(model, history=0.4, x0=0.6, horizon=100.0, step=0.01)
        runs[r] = rep.classification
    threshold = _pulse_removal_threshold(1.5, 0.5, 3.0)
    gap = 0.25 + 1.0 / (2.0 * math.pi)
    exact_thr = (1.0 + _INV_E) / (0.2 + 1.2 * gap)
    onset_note = (
        "the equation as displayed decays well past this point: its measured "
        "instability onset lies between r=5 and r=6 (runs below); the recorded "
        "onset between 3 and 3.2 matches the variant with the delay roles "
        "exchanged (removal at lag sigma, saturation at lag 1)"
    )
    return [
        _row("pulsed removal model, sigma=1.5, r=3: classification", runs[3.0], dg.DECAYING),
        _row(
            "pulsed removal model, sigma=1.5, r=3.2: classification",
            runs[3.2],
            dg.SUSTAINED,
            note=onset_note,
        ),
        _row(
            "pulsed removal model, sigma=1.5, r=5: classification",
            runs[5.0],
            dg.DECAYING,
            status="info",
            provenance="measured",
            note="still decaying at r=5",
        ),
        _row(
            "pulsed removal model, sigma=1.5, r=6: classification",
            runs[6.0],
            dg.GROWING,
            status="info",
            provenance="measured",
            note="oscillations grow without bound at r=6",
        ),
        _row(
            "certificate threshold in r (exact window arithmetic)",
            threshold,
            exact_thr,
            tol=1e-3,
            provenance="derived",
            note="closed form (1 + 1/e)/(0.2 + 1.2 (0.25 + 1/(2 pi)))",
        ),
        _row(
            "certificate threshold in r against the recorded value",
            threshold,
            2.73576,
            status="info",
            provenance="recorded",
            note=(
                "the recorded bound 2 + 2/e uses the mean-rate value r/4 for the "
                "delay-gap integral; the exact esssup is r(0.25 + 1/(2 pi)), giving "
                "threshold ~1.9796"
            ),
        ),
    ]


def _repro_fig2():
    model11 = md.make_builtin("ex5", n=11.0)
    traj11, rep11, _ = dg.perturbed_run(model11, history=0.4, x0=0.6, horizon=600.0, step=0.05)
    model13 = md.make_builtin("ex5", n=13.0)
    _, rep13, _ = dg.perturbed_run(model13, history=0.98, x0=0.98, horizon=600.0, step=0.05)
    return [
        _row("pulsed production model, n=11: classification", rep11.classification, dg.DECAYING),
        _row("pulsed production model, n=11: x(600)", traj11.final_value, 1.0, tol=0.01),
        _row("pulsed production model, n=13: classification", rep13.classification, dg.SUSTAINED),
    ]


SCENARIOS = {
    "example1": _repro_example1,
    "example2": _repro_example2,
    "example2a": _repro_example2a,
    "example5": _repro_example5,
    "fig1": _repro_fig1,
    "fig1a": _repro_fig1a,
    "fig2": _repro_fig2,
}


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


def run_reproduce(args: argparse.Namespace) -> int:
    rows = SCENARIOS[args.scenario]()
    mismatches = sum(1 for row in rows if row["status"] == "mismatch")
    payload = {
        "schema": SCHEMA_VERSION,
        "generated_at": _utc_now(),
        "scenario": args.scenario,
        "rows": rows,
        "mismatches": mismatches,
        "status": "mismatch" if mismatches else "ok",
    }
    _write_json(os.path.join(args.out, "reproduction.json"), payload)
    print("scenario %s" % args.scenario)
    for row in rows:
        line = "[%-8s] %s: computed=%s recorded=%s" % (
            row["status"],
            row["name"],
            _format_cell(row["computed"]),
            _format_cell(row["recorded"]),
        )
        if row["tol"] is not None:
            line += " tol=%g" % row["tol"]
        line += " (%s)" % row["provenance"]
        print(line)
        if row["note"]:
            print("    note: %s" % row["note"])
    print("%d row(s), %d mismatch(es)" % (len(rows), mismatches))
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddestab",
        description="Stability certificates and simulations for delay equations "
        "with positive and negative coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target(p):
        p.add_argument("--target", required=True, help="built-in name or configuration file path")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="sets",
            help="override a declared parameter of a built-in (repeatable)",
        )
        p.add_argument("--out", default=".", help="output directory")

    p_check = sub.add_parser("check", help="evaluate the analytic certificates")
    add_target(p_check)
    p_check.add_argument("--T", type=float, default=None, help="persistence window length")
    p_check.add_argument("--horizon", type=float, default=None, help="sup-search horizon for aperiodic rates")

    p_sim = sub.add_parser("simulate", help="integrate a perturbed run and classify it")
    add_target(p_sim)
    p_sim.add_argument("--step", type=float, default=None, help="integration step")
    p_sim.add_argument("--horizon", type=float, default=None, help="integration span")
    p_sim.add_argument("--history", type=float, default=None, help="constant history value")
    p_sim.add_argument("--x0", type=float, default=None, help="initial value at the start time")

    p_sweep = sub.add_parser("sweep", help="sweep a parameter and bisect the stability threshold")
    add_target(p_sweep)
    p_sweep.add_argument("--param", required=True, help="declared parameter to sweep")
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=9, help="sampled points in [lo, hi]")
    p_sweep.add_argument(
        "--predicate",
        choices=("certificate", "empirical"),
        default="certificate",
        help="which stability predicate drives the bisection",
    )
    p_sweep.add_argument("--tol", type=float, default=1e-4, help="bisection tolerance (positive)")
    p_sweep.add_argument("--step", type=float, default=None, help="integration step for empirical runs")
    p_sweep.add_argument("--horizon", type=float, default=None, help="integration span for empirical runs")
    p_sweep.add_argument("--T", type=float, default=None, help="persistence window length")

    p_repro = sub.add_parser("reproduce", help="run a scripted reproduction scenario")
    p_repro.add_argument("scenario", choices=sorted(SCENARIOS))
    p_repro.add_argument("--out", default=".", help="output directory")

    return parser


_COMMANDS = {
    "check": run_check,
    "simulate": run_simulate,
    "sweep": run_sweep,
    "reproduce": run_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (dg.BracketError, sv.DivergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
