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
from typing import Callable, NamedTuple, Optional

from . import criteria as cr
from . import diagnostics as dg
from . import models as md
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


_REQUIRED = object()


def _get(obj: dict, key: str, path: str, default=_REQUIRED):
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        _fail(path, "missing required field %r" % key)
    return default


def _check_keys(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail("%s.%s" % (path, key), "unexpected field (allowed: %s)" % ", ".join(sorted(allowed)))


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number too large for a float")


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
        lag = _number(obj["lag"], path + ".lag")
        try:
            return tf.ConstantLag(lag)
        except ValueError as exc:
            _fail(path, str(exc))
    if obj.get("identity") is True:
        _check_keys(obj, ("identity",), path)
        return tf.IdentityDelay()
    _fail(path, 'expected {"lag": number} or {"identity": true}')


class _Leaf(NamedTuple):
    """A field rule for a value that holds no declared shape."""

    dump: Callable  # attribute value -> configuration value
    load: Callable  # (configuration value, field path) -> constructor argument


class _Field(NamedTuple):
    key: str
    rule: object  # a _Leaf, a _Shape, a _Family, or a one-element list of one (an array)
    default: object = _REQUIRED  # a configuration value, loaded like a given one
    attr: Optional[str] = None  # attribute of the built object; the key when None


class _Shape(NamedTuple):
    """A serializable type; ``build`` (``cls`` when None) takes the loaded fields in order."""

    cls: type
    fields: tuple
    build: Optional[Callable] = None


class _Family(NamedTuple):
    """Shapes told apart by the value of one key, such as a coefficient's ``kind``."""

    noun: str
    tag: str
    shapes: dict  # tag value -> _Shape, in the order error messages list them


def _dump(rule, value):
    if isinstance(rule, list):
        return [_dump(rule[0], item) for item in value]
    if isinstance(rule, _Leaf):
        return rule.dump(value)
    if isinstance(rule, _Family):
        for name, shape in rule.shapes.items():
            if type(value) is shape.cls:  # a subclass may redefine what the fields describe
                return {rule.tag: name, **_dump(shape, value)}
        raise ConfigError("%s %r is not serializable" % (rule.noun, type(value).__name__))
    return {f.key: _dump(f.rule, getattr(value, f.attr or f.key)) for f in rule.fields}


def _load(rule, value, path: str, tag=()):
    """What ``value`` describes under ``rule``; ``tag`` is a family key allowed beside the fields."""
    if isinstance(rule, list):
        if not isinstance(value, list):
            _fail(path, "expected an array")
        return [_load(rule[0], item, "%s[%d]" % (path, i)) for i, item in enumerate(value)]
    if isinstance(rule, _Leaf):
        return rule.load(value, path)
    obj = _as_dict(value, path)
    if isinstance(rule, _Family):
        name = obj.get(rule.tag)
        if not (isinstance(name, str) and name in rule.shapes):
            *others, last = rule.shapes
            _fail(
                "%s.%s" % (path, rule.tag),
                "unknown %s %s %r (expected %s, or %s)"
                % (rule.noun, rule.tag, name, ", ".join(others), last),
            )
        return _load(rule.shapes[name], obj, path, (rule.tag,))
    _check_keys(obj, tag + tuple(f.key for f in rule.fields), path)
    try:
        args = [_load(f.rule, _get(obj, f.key, path, f.default), path + "." + f.key) for f in rule.fields]
        return (rule.build or rule.cls)(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))


def _sign(value, path: str) -> int:
    if isinstance(value, bool) or value not in (1, -1):
        _fail(path, "expected 1 or -1")
    return value


def _kernel(width, path: str) -> cr.UniformKernel:
    return cr.UniformKernel(None if width is None else _number(width, path))


_NUMBER = _Leaf(lambda value: value, _number)
_DELAY = _Leaf(delay_to_config, delay_from_config)
# Filled in below, because coefficients nest coefficients.
_COEFFICIENTS = _Family("coefficient", "kind", {})
_COEFFICIENTS.shapes.update(
    constant=_Shape(tf.ConstantCoefficient, (_Field("v", _NUMBER),), tf.constant),
    sinsq=_Shape(
        tf.SinSqCoefficient,
        (_Field("amplitude", _NUMBER), _Field("angular_freq", _NUMBER), _Field("phase", _NUMBER, 0.0)),
        tf.sinsq,
    ),
    piecewise=_Shape(
        tf.PiecewiseConstantCoefficient,
        (_Field("breakpoints", [_NUMBER]), _Field("values", [_NUMBER])),
        tf.piecewise_constant,
    ),
    scaled=_Shape(
        tf.ScaledCoefficient, (_Field("factor", _NUMBER), _Field("inner", _COEFFICIENTS)), tf.scaled
    ),
    sum=_Shape(tf.SumCoefficient, (_Field("terms", [_COEFFICIENTS]),), tf.coeff_sum),
)
_TERM = _Shape(cr.Term, (_Field("coeff", _COEFFICIENTS), _Field("delay", _DELAY)))
_DISTRIBUTED_TERM = _Shape(
    cr.DistributedTerm,
    (
        _Field("sign", _Leaf(_NUMBER.dump, _sign)),
        _Field("weight", _COEFFICIENTS, attr="total_weight"),
        _Field("window_start", _DELAY),
        _Field("width", _Leaf(lambda kernel: kernel.width, _kernel), None, attr="kernel"),
    ),
)
_TARGETS = _Family(
    "target",
    "type",
    {
        "linear": _Shape(
            cr.LinearDelayEquation,
            (
                _Field("positive", [_TERM], [], attr="positive_terms"),
                _Field("negative", [_TERM], [], attr="negative_terms"),
                _Field("distributed", [_DISTRIBUTED_TERM], [], attr="distributed_terms"),
                _Field("t0", _NUMBER, 0.0),
            ),
        ),
        "mg_removal": _Shape(
            md.MackeyGlassRemoval,
            (
                _Field("r", _COEFFICIENTS),
                _Field("beta", _NUMBER),
                _Field("gamma", _NUMBER),
                _Field("n", _NUMBER),
                _Field("g", _DELAY),
                _Field("h", _DELAY),
            ),
        ),
        "mg_production": _Shape(
            md.MackeyGlassProduction,
            (
                _Field("s", _COEFFICIENTS),
                _Field("beta", _NUMBER),
                _Field("n", _NUMBER),
                _Field("p", _DELAY),
                _Field("q", _DELAY),
            ),
        ),
    },
)


def target_to_config(target) -> dict:
    """Serialize an equation or model to its configuration descriptor."""
    return _dump(_TARGETS, target)


def target_from_config(obj, path: str = "target"):
    """Build an equation or model from its configuration descriptor."""
    return _load(_TARGETS, obj, path)


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
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:  # True == 1
        _fail("schema", "unsupported schema version %r (expected %d)" % (schema, SCHEMA_VERSION))
    target = target_from_config(_get(doc, "target", ""), "target")
    options = _as_dict(doc.get("options", {}), "options")
    _check_keys(options, _OPTION_KEYS, "options")
    for key, value in options.items():
        _number(value, "options.%s" % key)
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


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = "%s.tmp%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_report(path: str, **fields) -> None:
    """Write a JSON report: the given fields plus the schema and a timestamp."""
    stamp = datetime.now(timezone.utc).isoformat()
    payload = {"schema": SCHEMA_VERSION, "generated_at": stamp, **fields}
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _check_positive(flag: str, value: Optional[float]) -> None:
    # Checked up front, not only by the searches: a certificate can conclude
    # before any search reads the horizon or the persistence window T.
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise ConfigError("%s must be finite and positive, got %g" % (flag, value))


def run_check(args: argparse.Namespace) -> int:
    _check_positive("--horizon", args.horizon)
    target, opts = resolve_target(args.target, parse_overrides(args.sets))
    T = args.T if args.T is not None else opts.get("T")
    _check_positive("--T", T)
    verdict, certs = dg.certify(target, T, horizon=args.horizon)
    path = os.path.join(args.out, "certificates.json")
    _write_report(
        path,
        target=target_to_config(target),
        verdict=verdict,
        certificates=[c.to_dict() for c in certs],
    )
    for cert in certs:
        print("%s: %s" % (cert.name, cert.verdict))
    print("verdict: %s -> %s" % (verdict, path))
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    for flag, value in (("--history", args.history), ("--x0", args.x0)):
        if value is not None and not math.isfinite(value):
            raise ConfigError("%s must be finite, got %g" % (flag, value))
    target, opts = resolve_target(args.target, parse_overrides(args.sets))
    step = args.step if args.step is not None else opts.get("step")
    horizon = args.horizon if args.horizon is not None else opts.get("horizon")
    traj, report, setup = dg.perturbed_run(
        target, history=args.history, x0=args.x0, horizon=horizon, step=step
    )
    behavior = {
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
    _write_report(os.path.join(args.out, "behavior.json"), **behavior)
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
    for key in (param, *overrides):
        if key not in declared:
            raise ConfigError(
                "built-in %r has no parameter %r (declared: %s)"
                % (name, key, ", ".join(sorted(declared)) or "none")
            )

    def build(value: float):
        # The swept value wins over a --set of the same parameter; an
        # invalid point is named by its value.
        try:
            return md.make_builtin(name, **{**overrides, param: value})
        except ValueError as exc:
            raise ConfigError("%s=%g: %s" % (param, value, exc)) from exc

    return build


def run_sweep(args: argparse.Namespace) -> int:
    if not (args.hi > args.lo):
        raise ConfigError("sweep requires --hi greater than --lo")
    if args.points < 2:
        raise ConfigError("sweep requires at least two points")
    _check_positive("--T", args.T)
    _check_positive("--tol", args.tol)
    build = _builtin_builder(args.target, args.param, parse_overrides(args.sets))
    # The table's runs go as columns of shared runs, after its certificates;
    # the first error is still the one a point-by-point table meets first.
    points, failure = [], None
    for i in range(args.points):
        value = args.lo + (args.hi - args.lo) * i / (args.points - 1)
        try:
            target = build(value)
            points.append((value, target, dg.certify(target, args.T)[0]))
        except Exception as exc:
            failure = exc
            break
    runs = dg.perturbed_runs([target for _, target, _ in points], horizon=args.horizon,
                             step=args.step)
    lines = ["param,verdict,classification"]
    tabulated = {}  # the predicate's value at each table point
    for (value, _, verdict), run in zip(points, runs):
        if isinstance(run, Exception):
            raise run
        report = run[1]
        lines.append("%.17g,%s,%s" % (value, verdict, report.classification))
        if args.predicate == "certificate":
            tabulated[value] = verdict == cr.UNIFORM_EXPONENTIAL
        else:
            tabulated[value] = report.classification == dg.DECAYING
    if failure is not None:
        raise failure
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
    _write_report(
        os.path.join(args.out, "threshold.json"),
        target=args.target,
        parameter=args.param,
        lo=args.lo,
        hi=args.hi,
        tol=args.tol,
        predicate=args.predicate,
        threshold=threshold,
    )
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


def _derived_and_recorded(
    name, computed, exact, *, tol, note, recorded_name, recorded, recorded_tol=None, recorded_note=None
):
    """A value against its closed form, then against its recorded reference (info only without a tol)."""
    return [
        _row(name, computed, exact, tol=tol, provenance="derived", note=note),
        _row(
            recorded_name,
            computed,
            recorded,
            tol=recorded_tol,
            status=None if recorded_tol else "info",
            note=recorded_note,
        ),
    ]


def _repro_example1():
    sup = tf.sup_window_integral(tf.sinsq(1.0, 1.0), tf.ConstantLag(2.0))
    exact_sup = 1.0 + math.sin(2.0) / 2.0
    threshold = dg.find_threshold(
        dg.certificate_predicate(lambda b: md.make_builtin("eq3", b=b)), 0.0, 0.6, tol=1e-5
    )
    exact_thr = (1.0 + _INV_E) / exact_sup - 0.6
    return [
        *_derived_and_recorded(
            "unit-amplitude oscillating rate: esssup of the window integral over one lag",
            sup,
            exact_sup,
            tol=1e-6,
            note="closed form 1 + sin(2)/2",
            recorded_name="same esssup against the recorded upper bound",
            recorded=1.4547,
            recorded_tol=5e-4,
        ),
        *_derived_and_recorded(
            "undelayed-size threshold from certificate bisection",
            threshold,
            exact_thr,
            tol=1e-4,
            note="closed form (1 + 1/e)/(1 + sin(2)/2) - 0.6",
            recorded_name="same threshold against the recorded value",
            recorded=0.3403,
            recorded_tol=5e-4,
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
    def ratio_form_certifies(a: float) -> bool:
        eq = md.make_builtin("eq3abc", a=a, b=a / 2.0)
        return cr.check_ratio_form(eq).verdict == cr.UNIFORM_EXPONENTIAL

    threshold = dg.find_threshold(ratio_form_certifies, 0.05, 0.95, tol=1e-5)
    exact = 0.5 * (1.0 + _INV_E) / (1.0 + math.sin(2.0) / 2.0)
    return _derived_and_recorded(
        "proportional pair (b = a/2): ratio-route threshold in a",
        threshold,
        exact,
        tol=1e-4,
        note="closed form (1/2)(1 + 1/e)/(1 + sin(2)/2)",
        recorded_name="same threshold against the recorded value",
        recorded=0.47,
        recorded_tol=5e-3,
    )


def _production_threshold(key: str) -> float:
    """Threshold in n where one stability check of the production model stops holding."""

    def holds(n: float) -> bool:
        checks, _ = md.production_stability_checks(md.make_builtin("ex5", n=n))
        return checks[key].satisfied

    return dg.find_threshold(holds, 0.5, 20.0, tol=1e-6)


def _repro_example5():
    thr_combined = _production_threshold("combined_bound")
    thr_gap = _production_threshold("gap_bound")
    thr_pair = _production_threshold("window_vs_gap_bound")
    exact_combined = (_INV_E + 0.7) / 0.15
    exact_gap = 34.0 / 3.0
    exact_pair = 2.0 * ((1.0 + _INV_E) / 0.45 - 1.0)
    return [
        *_derived_and_recorded(
            "single-condition route: threshold in the saturation exponent n",
            thr_combined,
            exact_combined,
            tol=1e-4,
            note="closed form (1/e + 0.7)/0.15",
            recorded_name="same threshold against the recorded value",
            recorded=7.119,
            recorded_tol=1e-2,
        ),
        *_derived_and_recorded(
            "paired route, part 1: threshold in n",
            thr_gap,
            exact_gap,
            tol=1e-4,
            note="closed form 2(1/0.15 - 1) = 34/3",
            recorded_name="same threshold against the recorded value",
            recorded=11.333,
            recorded_tol=1e-2,
        ),
        *_derived_and_recorded(
            "paired route, part 2 evaluated literally as displayed: threshold in n",
            thr_pair,
            exact_pair,
            tol=1e-4,
            note="closed form 2((1 + 1/e)/0.45 - 1)",
            recorded_name="paired route, part 2: recorded threshold",
            recorded=14.2,
            recorded_note=(
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


def _pulse_removal_run(sigma: float, r: float):
    """(trajectory, report) of the figures' perturbed run of the pulsed removal model."""
    traj, report, _ = dg.perturbed_run(
        md.make_builtin("ex51", sigma=sigma, r=r), history=0.4, x0=0.6, horizon=100.0, step=0.01
    )
    return traj, report


def _repro_fig1():
    traj4, rep4 = _pulse_removal_run(1.1, 4.0)
    _, rep85 = _pulse_removal_run(1.1, 8.5)
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
        *_derived_and_recorded(
            "certificate threshold in r (exact window arithmetic)",
            threshold,
            exact_thr,
            tol=1e-3,
            note="closed form (1 + 1/e)/(0.2 + 1.2 (0.05 + sin(0.1 pi)/(2 pi)))",
            recorded_name="certificate threshold in r against the recorded value",
            recorded=4.27,
            recorded_note=(
                "the recorded bound rounds the delay-gap integral up to 0.1 r; exact "
                "window arithmetic gives 0.09918 r and threshold ~4.2878"
            ),
        ),
    ]


def _repro_fig1a():
    runs = {r: _pulse_removal_run(1.5, r)[1].classification for r in (3.0, 3.2, 5.0, 6.0)}
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
        *_derived_and_recorded(
            "certificate threshold in r (exact window arithmetic)",
            threshold,
            exact_thr,
            tol=1e-3,
            note="closed form (1 + 1/e)/(0.2 + 1.2 (0.25 + 1/(2 pi)))",
            recorded_name="certificate threshold in r against the recorded value",
            recorded=2.73576,
            recorded_note=(
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
    _write_report(
        os.path.join(args.out, "reproduction.json"),
        scenario=args.scenario,
        rows=rows,
        mismatches=mismatches,
        status="mismatch" if mismatches else "ok",
    )
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
    p_check.add_argument("--horizon", type=float, default=None,
                         help="scan each supremum only this far from t0 (a conditional certificate)")

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
    except dg.BracketError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
