"""Seeded workloads of the ddestab benchmark: generators, operations, checks.

A workload turns a seed into a deterministic stream of target specs. A spec
is a plain dict of numbers and strings; the library sees only the target
built from it. Specs come in cycles that hold one spec of every kind of the
workload in a fixed order, so any whole number of cycles has the same mix.
All parameters are drawn from continuous ranges, so no two certify targets
or simulate runs share a family (lags, rate shape), while every sweep
evaluates one family at many parameter values.

One operation (op) is one certificate call (``certify``), one perturbed run
(``simulate``) or one ``ddestab sweep`` command (``sweep``). Each op returns
an output record; ``check`` turns it into a list of problems (empty when
the op is correct) and ``digest_items`` into exact, comparable values.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import math
import os
import random
from types import SimpleNamespace

import numpy as np

WORKLOADS = ("certify", "simulate", "sweep")

# Closed-form certificate thresholds that ``ddestab reproduce`` tabulates as
# "derived" rows, keyed by (target, parameter, fixed overrides), with the
# tolerance of that row. A certificate sweep of the same family must agree.
_INV_E = 1.0 / math.e
CLOSED_FORMS = {
    # example1: (1 + 1/e)/(1 + sin(2)/2) - 0.6
    ("eq3", "b", ()): ((1.0 + _INV_E) / (1.0 + math.sin(2.0) / 2.0) - 0.6, 1e-4),
    # fig1: sigma = 1.1
    ("ex51", "r", (("sigma", 1.1),)): (
        (1.0 + _INV_E) / (0.2 + 1.2 * (0.05 + math.sin(0.1 * math.pi) / (2.0 * math.pi))),
        1e-3,
    ),
    # fig1a: sigma = 1.5
    ("ex51", "r", (("sigma", 1.5),)): (
        (1.0 + _INV_E) / (0.2 + 1.2 * (0.25 + 1.0 / (2.0 * math.pi))),
        1e-3,
    ),
}

# Suprema captured from certificate calls for the dense-scan check.
CAPTURED = ("sup_window_integral_info", "sup_between_delays_info", "liminf_forward_integral_info")
DENSE_POINTS = 4096


def load_library() -> SimpleNamespace:
    """The ddestab layers, reached only through their module attributes."""
    mods = {
        key: importlib.import_module("ddestab." + name)
        for key, name in (
            ("tf", "timefn"),
            ("cr", "criteria"),
            ("md", "models"),
            ("sv", "solver"),
            ("dg", "diagnostics"),
            ("cli", "cli"),
        )
    }
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# Generators: one draw function per kind, rng -> spec
# ---------------------------------------------------------------------------


# The median certificate falls among the three oscillating kinds below. Their
# ranges keep each on one verdict route: the diff form and the ratio form
# both certify. A call that ends Inconclusive skips the forward-integral
# search and costs a fifth as much, so a kind drawn across routes would
# move the median from seed to seed by which route most draws took.
def _c_sinsq_pair(rng):
    """eq3 shape: delayed oscillating removal, undelayed oscillating feedback."""
    a = rng.uniform(0.3, 0.6)
    return dict(kind="sinsq_pair", a=a, b=a * rng.uniform(0.1, 0.7), freq=rng.uniform(0.6, 1.6),
                phase=rng.uniform(0.0, math.pi), lag=rng.uniform(1.0, 1.3))


def _c_sinsq_both_delayed(rng):
    """eq3abc shape with both sides delayed."""
    a = rng.uniform(0.2, 0.6)
    return dict(kind="sinsq_both_delayed", a=a, b=a * rng.uniform(0.1, 0.6), freq=rng.uniform(0.6, 1.6),
                phase=rng.uniform(0.0, math.pi), lag=rng.uniform(0.5, 2.0), neg_lag=rng.uniform(0.2, 3.0))


def _c_constant_pair(rng):
    """eq26 shape (undelayed negative side) or eq27 shape (both sides delayed)."""
    a = rng.uniform(0.2, 1.5)
    neg_lag = 0.0 if rng.random() < 0.5 else rng.uniform(0.3, 4.0)
    return dict(kind="constant_pair", a=a, b=a * rng.uniform(0.05, 0.95), lag=rng.uniform(0.2, 2.5),
                neg_lag=neg_lag)


def _segment_widths(rng, count, horizon):
    """Widths down to 0.02, closed by one segment that ends at ``horizon``.

    The fixed end keeps the analysis horizon, and with it the search cost,
    the same across draws.
    """
    widths = [math.exp(rng.uniform(math.log(0.02), math.log(5.0))) for _ in range(count - 1)]
    return widths + [horizon - sum(widths)]


def _c_piecewise(rng):
    """General-class piecewise-constant rate whose segments include narrow ones."""
    return dict(kind="piecewise", widths=_segment_widths(rng, 5, 30.0),
                values=[rng.uniform(0.2, 2.0) for _ in range(6)], ratio=rng.uniform(0.1, 0.6),
                lag=rng.uniform(0.3, 2.5))


def _c_nondelay_dominant(rng):
    """Undelayed constant removal over a delayed piecewise feedback with narrow segments."""
    a = rng.uniform(0.5, 1.5)
    return dict(kind="nondelay_dominant", a=a, widths=_segment_widths(rng, 3, 20.0),
                values=[a * rng.uniform(0.05, 0.95) for _ in range(4)], lag=rng.uniform(0.3, 2.0))


def _c_general_delay(rng):
    """Oscillating pair read through a time-varying lag; needs an analysis horizon.

    The horizon is fixed, so the cost of the search does not hinge on the draw.
    """
    a = rng.uniform(0.3, 0.5)
    return dict(kind="general_delay", a=a, b=a * rng.uniform(0.1, 0.6), freq=rng.uniform(0.6, 1.6),
                lag=rng.uniform(0.5, 1.5), wobble=rng.uniform(0.1, 0.5), wobble_freq=rng.uniform(0.3, 2.0),
                horizon=40.0)


def _c_distributed(rng):
    """Window-averaged removal against a window-averaged feedback."""
    a = rng.uniform(0.3, 1.5)
    return dict(kind="distributed", a=a, b=a * rng.uniform(0.0, 0.8), lag=rng.uniform(0.5, 2.0),
                neg_lag=rng.uniform(0.5, 2.0))


def _c_removal(rng):
    """ex51 shape: removal-delay Mackey-Glass model, pulsed rate."""
    return dict(kind="removal", sigma=rng.uniform(1.0, 1.5), r=rng.uniform(1.0, 8.0))


def _c_production(rng):
    """ex5 shape: production-form Mackey-Glass model, pulsed rate."""
    return dict(kind="production", n=rng.uniform(2.0, 14.0), s=rng.uniform(0.05, 0.2),
                p_lag=rng.uniform(2.5, 3.5), q_lag=rng.uniform(5.5, 6.5))


# Three cheap kinds, three of middling cost and three dear ones, so the
# median latency falls inside the middle group rather than between groups.
CERTIFY_KINDS = (
    _c_constant_pair,
    _c_sinsq_pair,
    _c_removal,
    _c_distributed,
    _c_sinsq_both_delayed,
    _c_piecewise,
    _c_general_delay,
    _c_production,
    _c_nondelay_dominant,
)


# Horizons are fixed per kind, at least twenty of the kind's largest lags
# (as ``classify`` requires), so a run's cost does not hinge on its draw.
def _s_removal(rng):
    return dict(kind="removal", sigma=rng.uniform(1.0, 1.5), r=rng.uniform(1.0, 8.0), horizon=31.0,
                step=0.01)


def _s_production(rng):
    return dict(kind="production", n=rng.uniform(2.0, 14.0), s=0.1, p_lag=rng.uniform(2.5, 3.5),
                q_lag=rng.uniform(5.5, 6.5), horizon=137.0, step=0.05)


# Linear runs start 1.2 from their zero equilibrium, so a Decaying verdict
# (tail under 2% of the start) does not by itself bring them within 0.01;
# a removal rate times the largest lag of at most 1 keeps them well damped.
def _s_constant_lags(rng):
    lag = rng.uniform(0.5, 1.5)
    a = rng.uniform(0.3, 1.0) / lag
    neg_lag = rng.uniform(0.2, 2.0)
    return dict(kind="constant_lags", a=a, b=a * rng.uniform(0.0, 0.8), lag=lag, neg_lag=neg_lag,
                horizon=41.0, step=0.02)


def _s_general_lag(rng):
    lag = rng.uniform(0.5, 1.5)
    wobble = rng.uniform(0.1, 0.5)
    return dict(kind="general_lag", a=rng.uniform(0.3, 1.0) / (lag * (1.0 + wobble)), lag=lag,
                wobble=wobble, wobble_freq=rng.uniform(0.3, 2.0), horizon=46.0, step=0.02)


def _s_distributed(rng):
    return dict(kind="distributed", a=rng.uniform(0.5, 2.0), b=rng.uniform(0.0, 0.3),
                lag=rng.uniform(0.6, 1.0), horizon=21.0, step=0.05)


SIMULATE_KINDS = (_s_removal, _s_constant_lags, _s_production, _s_general_lag, _s_distributed)


def _sweep(target, param, lo, hi, predicate, *, tol, step, horizon, points=3, sets=()):
    argv = ["sweep", "--target", target, "--param", param, "--lo", repr(lo), "--hi", repr(hi),
            "--points", str(points), "--tol", repr(tol), "--step", repr(step),
            "--horizon", repr(horizon), "--predicate", predicate]
    for key, value in sets:
        argv += ["--set", "%s=%r" % (key, value)]
    return dict(kind="%s-%s" % (target, predicate), target=target, param=param, lo=lo, hi=hi,
                predicate=predicate, tol=tol, sets=[list(s) for s in sets], argv=argv)


# Brackets enclose the flip of each family's predicate over the whole drawn
# range; eq3 certificate and ex51 certificate sweeps use a tolerance small
# enough for the closed-form comparison.
def _w_eq3_cert(rng):
    return _sweep("eq3", "b", rng.uniform(0.15, 0.3), rng.uniform(0.4, 0.55), "certificate",
                  tol=5e-5, step=0.05, horizon=50.0, points=9)


def _w_eq3_emp(rng):
    return _sweep("eq3", "b", rng.uniform(0.3, 0.45), rng.uniform(0.57, 0.6), "empirical",
                  tol=1e-3, step=0.05, horizon=50.0)


def _w_eq3abc_cert(rng):
    b = rng.uniform(0.1, 0.3)
    return _sweep("eq3abc", "a", b + rng.uniform(0.03, 0.06), rng.uniform(1.2, 1.4), "certificate",
                  tol=1e-3, step=0.05, horizon=50.0, sets=(("b", b),))


def _w_eq3abc_emp(rng):
    b = rng.uniform(0.1, 0.3)
    return _sweep("eq3abc", "a", b + rng.uniform(0.01, 0.03), b + rng.uniform(0.5, 0.7), "empirical",
                  tol=1e-3, step=0.05, horizon=50.0, sets=(("b", b),))


def _w_ex51_cert(rng):
    sigma = rng.choice((1.1, 1.5))
    thr = CLOSED_FORMS[("ex51", "r", (("sigma", sigma),))][0]
    lo, hi = thr - rng.uniform(0.05, 0.2), thr + rng.uniform(0.05, 0.2)
    return _sweep("ex51", "r", lo, hi, "certificate", tol=1e-3, step=0.05, horizon=40.0,
                  sets=(("sigma", sigma),))


def _w_ex51_emp(rng):
    return _sweep("ex51", "r", rng.uniform(3.0, 4.5), rng.uniform(8.5, 9.5), "empirical",
                  tol=0.05, step=0.05, horizon=40.0, sets=(("sigma", rng.uniform(1.0, 1.4)),))


def _w_ex5_cert(rng):
    return _sweep("ex5", "n", rng.uniform(5.0, 6.5), rng.uniform(8.0, 9.5), "certificate",
                  tol=0.05, step=0.1, horizon=121.0)


def _w_ex5_emp(rng):
    return _sweep("ex5", "n", rng.uniform(5.0, 7.5), rng.uniform(11.5, 13.5), "empirical",
                  tol=0.05, step=0.1, horizon=121.0)


SWEEP_KINDS = (
    _w_eq3_cert,
    _w_eq3abc_emp,
    _w_ex51_cert,
    _w_ex5_emp,
    _w_eq3_emp,
    _w_eq3abc_cert,
    _w_ex51_emp,
    _w_ex5_cert,
)

KINDS = {"certify": CERTIFY_KINDS, "simulate": SIMULATE_KINDS, "sweep": SWEEP_KINDS}


def generate(workload: str, seed: int, cycles: int) -> list:
    """The first ``cycles`` cycles of the workload's spec stream for ``seed``."""
    rng = random.Random("ddestab-bench:%s:%d" % (workload, seed))
    return [[draw(rng) for draw in KINDS[workload]] for _ in range(cycles)]


# ---------------------------------------------------------------------------
# Builders: spec -> target
# ---------------------------------------------------------------------------


def _general_delay(tf, lag, wobble, freq):
    def delayed(t):
        return t - lag * (1.0 + wobble * math.sin(freq * t))

    return tf.GeneralDelay(delayed, lag * (1.0 + wobble))


def _lag(tf, lag):
    return tf.ConstantLag(lag) if lag > 0.0 else tf.IdentityDelay()


def build(lib, spec):
    """The library object a spec describes (sweep specs are argument lists)."""
    tf, cr, md = lib.tf, lib.cr, lib.md
    kind = spec["kind"]
    Term, Eq = cr.Term, cr.LinearDelayEquation
    if kind == "removal":
        return md.ex51(spec["sigma"], spec["r"])
    if kind == "production":
        return md.MackeyGlassProduction(s=tf.sinsq(spec["s"], math.pi), beta=2.0, n=spec["n"],
                                        p=tf.ConstantLag(spec["p_lag"]), q=tf.ConstantLag(spec["q_lag"]))
    if kind == "sinsq_pair":
        pos = tf.sinsq(spec["a"], spec["freq"], spec["phase"])
        neg = tf.sinsq(spec["b"], spec["freq"], spec["phase"])
        return Eq(positive_terms=[Term(pos, tf.ConstantLag(spec["lag"]))],
                  negative_terms=[Term(neg, tf.IdentityDelay())])
    if kind == "sinsq_both_delayed":
        pos = tf.sinsq(spec["a"], spec["freq"], spec["phase"])
        neg = tf.sinsq(spec["b"], spec["freq"], spec["phase"])
        return Eq(positive_terms=[Term(pos, tf.ConstantLag(spec["lag"]))],
                  negative_terms=[Term(neg, tf.ConstantLag(spec["neg_lag"]))])
    if kind in ("constant_pair", "constant_lags"):
        return Eq(positive_terms=[Term(tf.constant(spec["a"]), tf.ConstantLag(spec["lag"]))],
                  negative_terms=[Term(tf.constant(spec["b"]), _lag(tf, spec["neg_lag"]))])
    if kind == "nondelay_dominant":
        feedback = tf.piecewise_constant(list(itertools.accumulate(spec["widths"])), spec["values"])
        return Eq(positive_terms=[Term(tf.constant(spec["a"]), tf.IdentityDelay())],
                  negative_terms=[Term(feedback, tf.ConstantLag(spec["lag"]))])
    if kind == "piecewise":
        rate = tf.piecewise_constant(list(itertools.accumulate(spec["widths"])), spec["values"])
        return Eq(positive_terms=[Term(rate, tf.ConstantLag(spec["lag"]))],
                  negative_terms=[Term(tf.scaled(spec["ratio"], rate), tf.IdentityDelay())])
    if kind == "general_delay":
        delay = _general_delay(tf, spec["lag"], spec["wobble"], spec["wobble_freq"])
        return Eq(positive_terms=[Term(tf.sinsq(spec["a"], spec["freq"]), delay)],
                  negative_terms=[Term(tf.sinsq(spec["b"], spec["freq"]), tf.IdentityDelay())])
    if kind == "general_lag":
        delay = _general_delay(tf, spec["lag"], spec["wobble"], spec["wobble_freq"])
        return Eq(positive_terms=[Term(tf.constant(spec["a"]), delay)])
    if kind == "distributed":
        terms = [cr.DistributedTerm(1, tf.constant(spec["a"]), tf.ConstantLag(spec["lag"]))]
        if spec["b"] > 0.0:
            neg_window = tf.ConstantLag(spec.get("neg_lag", spec["lag"]))
            terms.append(cr.DistributedTerm(-1, tf.constant(spec["b"]), neg_window))
        return Eq(distributed_terms=terms)
    if "argv" in spec:
        return list(spec["argv"])
    raise ValueError("unknown spec kind %r" % kind)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Rebinder:
    """Rebinds attributes of modules and classes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SupCapture:
    """Records every window-integral extremum a certificate call computes.

    Installed around the whole run (its cost is one list append per call);
    the records feed the dense-scan check after each op, outside its timing.
    """

    def __init__(self, lib):
        self.lib = lib
        self.calls = []
        self._rebinder = Rebinder()

    def install(self):
        for name in CAPTURED:
            original = getattr(self.lib.tf, name)
            self._rebinder.set(self.lib.tf, name, self._recorder(name, original))

    def uninstall(self):
        self._rebinder.restore()

    def _recorder(self, name, original):
        calls = self.calls

        @functools.wraps(original)
        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result

        return record


class Runner:
    """Runs ops of one workload against one loaded library."""

    def __init__(self, lib, workload: str, out_dir: str):
        self.lib = lib
        self.workload = workload
        self.out_dir = out_dir
        self.capture = SupCapture(lib) if workload == "certify" else None
        self.op = getattr(self, "_" + workload)

    def __enter__(self):
        os.makedirs(self.out_dir, exist_ok=True)
        if self.capture is not None:
            self.capture.install()
        return self

    def __exit__(self, *exc):
        if self.capture is not None:
            self.capture.uninstall()
        return False

    def prepare(self, spec):
        """Untimed work before an op: build the target, clear old outputs."""
        if self.capture is not None:
            self.capture.calls.clear()
        if self.workload == "sweep":
            for name in ("sweep.csv", "threshold.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.out_dir, name))
        return build(self.lib, spec)

    def _certify(self, spec, target):
        lib = self.lib
        if isinstance(target, lib.md.MackeyGlassRemoval):
            return {"certs": (lib.md.check_les_removal(target),)}
        if isinstance(target, lib.md.MackeyGlassProduction):
            return {"certs": (lib.md.check_les_production(target),)}
        return {"certs": lib.cr.evaluate_all(target, horizon=spec.get("horizon"))}

    def _simulate(self, spec, target):
        lib = self.lib
        x_eq, max_lag, t0 = lib.dg.target_structure(target)
        base = x_eq if x_eq > 0.0 else 1.0
        traj = lib.sv.integrate(target, lib.sv.ConstantHistory(0.8 * base), t0 + spec["horizon"],
                                step=spec["step"], initial_value=1.2 * base, on_divergence="truncate")
        report = lib.dg.classify(traj, equilibrium=x_eq, max_lag=max_lag)
        fit = None
        if report.classification == lib.dg.DECAYING:
            # As in ``ddestab simulate``: a run with nothing to fit has no fit.
            with contextlib.suppress(lib.tf.ConfigurationError):
                fit = lib.dg.fit_decay(traj, equilibrium=x_eq)
        return {"traj": traj, "report": report, "fit": fit, "x_eq": x_eq}

    def _sweep(self, spec, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv + ["--out", self.out_dir])
        return {"code": code, "stderr": err.getvalue()}

    def collect(self, spec, output):
        """Untimed work after an op: read what it wrote, take captured calls."""
        if self.capture is not None:
            output["sups"] = list(self.capture.calls)
        if self.workload == "sweep":
            for name, key in (("sweep.csv", "csv"), ("threshold.json", "threshold_json")):
                try:
                    with open(os.path.join(self.out_dir, name)) as fh:
                        output[key] = fh.read()
                except FileNotFoundError:
                    output[key] = None
        return output


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def _scan_range(tf, coeff, t0, horizon, pad):
    """[t0, t0 + span + pad]: the range over which the extremum is claimed."""
    if horizon is not None:
        span = horizon
    else:
        cls = coeff.asymptotic_class
        span = cls.period if isinstance(cls, tf.PeriodicClass) else (
            cls.analysis_horizon if isinstance(cls, tf.GeneralClass) else 1.0)
    return t0, t0 + span + pad


def dense_scan(tf, name, args, points=DENSE_POINTS):
    """Largest value of a captured call's window integral on a uniform grid.

    The window integral is evaluated from ``Coefficient.antiderivative``, so
    the scan is a lower bound on a supremum; a claim below it is unsound.
    An infimum is scanned negated, so the same comparison applies.
    ``args`` maps the call's parameter names to its arguments.
    """
    coeff = args["c"]
    anti = coeff.antiderivative
    t0, horizon = args.get("t0", 0.0), args.get("horizon")
    if name == "sup_window_integral_info":
        lower = args["lower"]
        pad = lower.lag_bound

        def fn(t):
            return anti(t) - anti(lower(t))
    elif name == "sup_between_delays_info":
        d1, d2 = args["d1"], args["d2"]
        pad = max(d1.lag_bound, d2.lag_bound)

        def fn(t):
            return abs(anti(d2(t)) - anti(d1(t)))
    else:
        length = args["length"]
        pad = length

        def fn(t):
            return anti(t) - anti(t + length)
    lo, hi = _scan_range(tf, coeff, t0, horizon, pad)
    return max(fn(lo + (hi - lo) * k / points) for k in range(points + 1))


def check(lib, workload, spec, output) -> list:
    """Problems with one op's output; empty when it is correct."""
    if workload == "certify":
        problems = []
        for name, args, kwargs, result in output["sups"]:
            bound = inspect.signature(getattr(lib.tf, name)).bind(*args, **kwargs)
            scanned = dense_scan(lib.tf, name, bound.arguments)
            claimed = -result.value if name == "liminf_forward_integral_info" else result.value
            # Written so that a NaN claim fails too.
            if not scanned <= claimed + 1e-9 * max(1.0, abs(claimed)):
                problems.append("%s claims %r but a dense scan reaches %r" % (name, claimed, scanned))
        return problems
    if workload == "simulate":
        traj, report = output["traj"], output["report"]
        problems = []
        if not np.all(np.isfinite(traj.values)):
            problems.append("trajectory holds non-finite values")
        if report.classification == lib.dg.DECAYING and abs(traj.final_value - output["x_eq"]) > 0.01:
            problems.append("classified Decaying but ends %r from equilibrium %r"
                            % (traj.final_value - output["x_eq"], output["x_eq"]))
        return problems
    return _check_sweep(spec, output)


def _check_sweep(spec, output) -> list:
    if output["code"] != 0:
        return ["exit code %d: %s" % (output["code"], output["stderr"].strip()[-200:])]
    if output["csv"] is None or output["threshold_json"] is None:
        return ["sweep.csv or threshold.json missing"]
    threshold = json.loads(output["threshold_json"])["threshold"]
    column, passing = (1, "UniformExponential") if spec["predicate"] == "certificate" else (2, "Decaying")
    rows = [line.split(",") for line in output["csv"].strip().splitlines()[1:]]
    grid = [(float(row[0]), row[column] == passing) for row in rows]
    tol = spec["tol"]
    flips = [(x0, x1) for (x0, p0), (x1, p1) in zip(grid, grid[1:]) if p0 != p1]
    problems = []
    if not any(x0 - tol <= threshold <= x1 + tol for x0, x1 in flips):
        problems.append("threshold %r lies outside every grid flip %r" % (threshold, flips))
    key = (spec["target"], spec["param"], tuple(tuple(s) for s in spec["sets"]))
    if spec["predicate"] == "certificate" and key in CLOSED_FORMS:
        exact, row_tol = CLOSED_FORMS[key]
        if spec["lo"] <= exact <= spec["hi"] and abs(threshold - exact) > row_tol:
            problems.append("threshold %r differs from closed form %r by more than %g"
                            % (threshold, exact, row_tol))
    return problems


# ---------------------------------------------------------------------------
# Output digest
# ---------------------------------------------------------------------------


def digest_items(workload, output) -> list:
    """The op's results as exact values (floats by repr) for the digest."""
    if workload == "certify":
        return [
            [c.name, c.verdict,
             [[q.symbol, repr(q.value)] for q in c.quantities],
             [[repr(ch.lhs), repr(ch.rhs), ch.satisfied] for ch in c.checks]]
            for c in output["certs"]
        ]
    if workload == "simulate":
        traj, fit = output["traj"], output["fit"]
        return [output["report"].classification, repr(traj.t1), repr(traj.final_value),
                int(traj.times.size), None if fit is None else repr(fit.gamma_hat)]
    threshold = None
    if output["threshold_json"] is not None:
        threshold = repr(json.loads(output["threshold_json"])["threshold"])
    return [output["code"], output["csv"], threshold]
