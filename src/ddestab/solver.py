"""Numerical integration of scalar delay equations by the method of steps.

Classical fixed-step RK4 between breaking points, with cubic Hermite dense
output on every step. Delayed reads hit the prescribed history before the
start time and the dense output afterwards; distributed (window-averaged)
terms integrate the same dense output exactly, one closed-form integral per
window.

The step size must not exceed the smallest positive lag, so every delayed
read lands in an already-completed segment. The only exception is the
leading sliver of a window that extends up to the current time: those
reads use a within-step linear predictor, which keeps the overall scheme
explicit. ``allow_extrapolation=True`` extends the same predictor to
concentrated reads, for equations whose lag genuinely dips below the step.

Each right-hand side is split into a time part (coefficients, forcing),
its delayed reads, and a state part (the arithmetic on x). A step
evaluates the first two once per distinct stage time: the midpoint serves
k2 and k3, the step end k4 and both node slopes; when the node slopes
must read again, they keep the step end's time part. Reads at constant
lags come in blocks: while the steps advance by less than the smallest
lag, every such read lands in finished steps, so a block's reads are
located with one ``np.searchsorted`` and interpolated elementwise by
``_hermite``, in the same operations and order as one scalar read, hence
bit for bit. Blocks are used when the smallest lag spans at least
``_BLOCK_STEPS`` steps; shorter blocks cost more than they save. The
scalar read remains for every read a block cannot settle ahead of time:
general delays, windows, the history, reads near t0 or at the last
finished node, extrapolated reads, and all reads when the lag is short.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import criteria as cr
from . import models as md
from . import timefn as tf
from .timefn import ConfigurationError, DomainError, IdentityDelay

__all__ = [
    "DivergenceError",
    "ConstantHistory",
    "FunctionHistory",
    "TabulatedHistory",
    "tabulate_history",
    "Trajectory",
    "breaking_points",
    "integrate",
    "fundamental_solution",
    "Lemma3Report",
    "verify_lemma3",
]

DEFAULT_DIVERGENCE_THRESHOLD = 1e12
_BREAKING_POINT_CAP = 200_000
# Reads come in blocks only when the smallest constant lag spans at least
# this many steps: a block pays some fifty numpy calls up front, and saves a
# few microseconds per step and read site (the two break even near 10 steps
# on lag-to-step ratios 8-64 of a linear and a removal run).
_BLOCK_STEPS = 12


class DivergenceError(RuntimeError):
    """The state left the finite range; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantHistory:
    """phi(t) = value for all t up to the start time."""

    const: float = 0.0

    def value(self, t: float) -> float:
        return self.const


@dataclass(frozen=True)
class FunctionHistory:
    """History given by an arbitrary callable."""

    fn: Callable[[float], float]

    def value(self, t: float) -> float:
        return float(self.fn(t))


@dataclass(frozen=True)
class TabulatedHistory:
    """Piecewise-linear history through tabulated (time, value) points."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        # Copies, so freezing them leaves the caller's arrays writable.
        ts = np.array(self.times, dtype=float)
        xs = np.array(self.values, dtype=float)
        if ts.ndim != 1 or ts.shape != xs.shape or ts.size < 2:
            raise ConfigurationError("need matching 1-d arrays with >= 2 samples")
        if not np.all(np.diff(ts) > 0.0):
            raise ConfigurationError("history times must be strictly increasing")
        ts.setflags(write=False)
        xs.setflags(write=False)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", xs)

    def value(self, t: float) -> float:
        lo, hi = self.times[0], self.times[-1]
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        if t < lo - pad or t > hi + pad:
            raise DomainError(
                "history queried at %g outside tabulated range [%g, %g]" % (t, lo, hi)
            )
        return float(np.interp(t, self.times, self.values))


History = Union[ConstantHistory, FunctionHistory, TabulatedHistory]


def _as_history(phi) -> History:
    if callable(getattr(phi, "value", None)):
        return phi
    if isinstance(phi, (int, float)):
        return ConstantHistory(float(phi))
    if callable(phi):
        return FunctionHistory(phi)
    raise ConfigurationError("history must be a History object, callable, or number")


def tabulate_history(fn, t_lo: float, t_hi: float, step: float) -> TabulatedHistory:
    """Sample a callable on a uniform grid into a TabulatedHistory."""
    if not (t_hi > t_lo) or not (step > 0.0):
        raise ConfigurationError("need t_hi > t_lo and step > 0")
    n = max(2, int(math.ceil((t_hi - t_lo) / step)) + 1)
    ts = np.linspace(t_lo, t_hi, n)
    xs = np.array([float(fn(t)) for t in ts])
    return TabulatedHistory(ts, xs)


def _history_integral(hist: History, lo: float, hi: float, spacing: float) -> float:
    """Integral of the history over [lo, hi]: exact for a constant history,
    otherwise the trapezoid rule at about ``spacing``."""
    if isinstance(hist, ConstantHistory):
        return hist.const * (hi - lo)
    n = max(1, int(math.ceil((hi - lo) / spacing)))
    vals = [hist.value(u) for u in np.linspace(lo, hi, n + 1)]
    return (hi - lo) / n * (sum(vals) - 0.5 * (vals[0] + vals[-1]))


# ---------------------------------------------------------------------------
# Trajectory with dense output
# ---------------------------------------------------------------------------


def _hermite(ta, xa, ma, tb, xb, mb, t):
    h = tb - ta
    s = (t - ta) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * xa
        + (s3 - 2.0 * s2 + s) * h * ma
        + (-2.0 * s3 + 3.0 * s2) * xb
        + (s3 - s2) * h * mb
    )


def _hermite_deriv(ta, xa, ma, tb, xb, mb, t):
    h = tb - ta
    s = (t - ta) / h
    s2 = s * s
    return (
        (6.0 * s2 - 6.0 * s) * (xa - xb) / h
        + (3.0 * s2 - 4.0 * s + 1.0) * ma
        + (3.0 * s2 - 2.0 * s) * mb
    )


def _hermite_integral(ta, xa, ma, tb, xb, mb, u, v):
    """Integral over [u, v] of the Hermite piece on [ta, tb], in closed form."""
    h = tb - ta
    p = (u - ta) / h
    q = (v - ta) / h
    # Differences of the powers of the two ends, for the basis primitives.
    d1 = q - p
    d2 = q * q - p * p
    d3 = q * q * q - p * p * p
    d4 = q * q * q * q - p * p * p * p
    return h * (
        (0.5 * d4 - d3 + d1) * xa
        + (0.25 * d4 - 2.0 / 3.0 * d3 + 0.5 * d2) * h * ma
        + (d3 - 0.5 * d4) * xb
        + (0.25 * d4 - d3 / 3.0) * h * mb
    )


def _piece_integral(ta, xa, ma, tb, xb, mb):
    """Integral of the Hermite piece over its whole step (arrays welcome)."""
    h = tb - ta
    return h * (xa + xb) / 2.0 + h * h * (ma - mb) / 12.0


def _dense_integral(ts, xs, ms, mends, pieces, a, b):
    """Integral of the dense output over [a, b], ts[0] <= a < b <= ts[-1].

    Steps lying wholly inside are summed from their stored integrals
    ``pieces``; only the two end steps are integrated in part. The sum runs
    over the window alone, so a decaying solution keeps its relative
    accuracy (a global running antiderivative would cancel it away).
    """
    i = bisect.bisect_right(ts, a) - 1  # the step holding a
    j = bisect.bisect_left(ts, b) - 1  # the step holding b
    if i == j:
        return _hermite_integral(ts[i], xs[i], ms[i], ts[i + 1], xs[i + 1], mends[i + 1], a, b)
    head = _hermite_integral(ts[i], xs[i], ms[i], ts[i + 1], xs[i + 1], mends[i + 1], a, ts[i + 1])
    tail = _hermite_integral(ts[j], xs[j], ms[j], ts[j + 1], xs[j + 1], mends[j + 1], ts[j], b)
    return head + sum(pieces[i + 1:j]) + tail


@dataclass(frozen=True)
class Trajectory:
    """Dense numerical solution on [t0, t1] plus the prescribed history.

    ``times``/``values``/``derivatives`` are the accepted mesh nodes; reads
    between nodes use the cubic Hermite interpolant of the enclosing step.
    ``derivatives`` holds right-limits; when a node's derivative is
    two-sided (delayed reads crossing a start-time jump), the left limits
    in ``left_derivatives`` close off the Hermite piece on the left.
    """

    times: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    history: History
    diverged: bool = False
    divergence_time: Optional[float] = None
    left_derivatives: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("times", "values", "derivatives"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.left_derivatives is not None:
            arr = np.asarray(self.left_derivatives, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "left_derivatives", arr)
            if arr.size != self.times.size:
                raise ConfigurationError("left_derivatives length mismatch")
        if not (self.times.size >= 1 and self.times.size == self.values.size == self.derivatives.size):
            raise ConfigurationError("node arrays must have equal nonzero length")

    def _end_deriv(self, i: int) -> float:
        if self.left_derivatives is not None:
            return self.left_derivatives[i]
        return self.derivatives[i]

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    @property
    def final_value(self) -> float:
        return float(self.values[-1])

    def value(self, t: float) -> float:
        ts = self.times
        pad = 1e-9 * max(1.0, abs(self.t0), abs(self.t1))
        if t < self.t0 - pad:
            return self.history.value(t)
        if t > self.t1 + pad:
            raise DomainError("trajectory queried at %g beyond end %g" % (t, self.t1))
        i = bisect.bisect_right(ts, t) - 1
        i = min(max(i, 0), ts.size - 2) if ts.size > 1 else 0
        if ts.size == 1 or t <= ts[0]:
            return float(self.values[0])
        return float(
            _hermite(
                ts[i], self.values[i], self.derivatives[i],
                ts[i + 1], self.values[i + 1], self._end_deriv(i + 1), t,
            )
        )

    def derivative(self, t: float) -> float:
        ts = self.times
        pad = 1e-9 * max(1.0, abs(self.t0), abs(self.t1))
        if t < self.t0 - pad:
            raise DomainError("derivative undefined inside the history segment")
        if t > self.t1 + pad:
            raise DomainError("trajectory queried at %g beyond end %g" % (t, self.t1))
        if ts.size == 1:
            return float(self.derivatives[0])
        i = bisect.bisect_right(ts, t) - 1
        if 0 <= i < ts.size and t == ts[i]:
            return float(self.derivatives[i])
        i = min(max(i, 0), ts.size - 2)
        return float(
            _hermite_deriv(
                ts[i], self.values[i], self.derivatives[i],
                ts[i + 1], self.values[i + 1], self._end_deriv(i + 1), t,
            )
        )

    @cached_property
    def _dense(self) -> tuple:
        """Nodes, end derivatives and whole-step integrals, as lists."""
        mends = self.derivatives if self.left_derivatives is None else self.left_derivatives
        ts, xs, ms = self.times, self.values, self.derivatives
        pieces = _piece_integral(ts[:-1], xs[:-1], ms[:-1], ts[1:], xs[1:], mends[1:])
        return ts.tolist(), xs.tolist(), ms.tolist(), mends.tolist(), pieces.tolist()

    def integral(self, lo: float, hi: float) -> float:
        """Integral of x over [lo, hi], exact on the dense output.

        The part before t0 comes from the history: exact for a constant
        history, otherwise the trapezoid rule at the largest mesh step.
        """
        if not lo <= hi:
            raise ConfigurationError("need lo <= hi")
        t0, t1 = self.t0, self.t1
        if hi > t1 + 1e-9 * max(1.0, abs(t0), abs(t1)):
            raise DomainError("trajectory integrated to %g beyond end %g" % (hi, t1))
        total = 0.0
        if lo < t0:
            steps = np.diff(self.times)
            spacing = float(steps.max()) if steps.size else t0 - lo
            total = _history_integral(self.history, lo, min(hi, t0), spacing)
            lo = t0
        hi = min(hi, t1)
        if hi > lo:
            total += _dense_integral(*self._dense, lo, hi)
        return float(total)

    def __call__(self, t: float) -> float:
        return self.value(t)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,x,xdot\n")
            for t, x, m in zip(self.times, self.values, self.derivatives):
                fh.write("%.17g,%.17g,%.17g\n" % (t, x, m))


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Rhs:
    """A right-hand side split into a time part, delayed reads and a state part.

    ``coeffs(t)`` is the time part: coefficient values and forcing at t.
    ``sites`` lists what the equation reads from the past, one slot each: a
    delay, read at one delayed time, or a DistributedTerm, averaged over its
    window. ``state(y, cv, xv)`` is the arithmetic on the state y, given the
    time part ``cv`` and one value ``xv[k]`` per site; ``y_dependent`` is
    False when it ignores y. ``read_lags``/``general_reads`` describe
    concentrated delayed reads (they constrain the step); ``mesh_lags`` seed
    the breaking-point mesh; ``windows`` flags distributed terms, and
    ``window_to_now`` those whose windows reach the current time, where the
    leading sliver needs the within-step predictor.
    """

    coeffs: Callable
    sites: tuple
    state: Callable
    y_dependent: bool
    read_lags: list
    general_reads: list
    mesh_lags: list
    windows: bool = False
    window_to_now: bool = False

    def fn(self, t, y, read, integral):
        """The derivative at (t, y), reading x through ``read``/``integral``."""
        xv = [_site_value(site, t, read, integral) for site in self.sites]
        return self.state(y, self.coeffs(t), xv)


def _site_value(site, t, read, integral):
    if isinstance(site, cr.DistributedTerm):
        return _window_average(site, t, read, integral)
    return read(site(t))


def _window_reaches_now(term: cr.DistributedTerm) -> bool:
    if term.kernel.width is None:
        return True
    if isinstance(term.window_start, tf.ConstantLag):
        return term.kernel.width >= term.window_start.lag - 1e-12
    return True  # variable window start: assume the worst


def _window_average(term: cr.DistributedTerm, t: float, read, integral) -> float:
    """Average of x over the term's window at time t, from its exact integral."""
    lo = term.window_start(t)
    hi = t
    if term.kernel.width is not None:
        hi = min(lo + term.kernel.width, t)
    length = hi - lo
    if length < 1e-14:
        return read(lo)
    return integral(lo, hi) / length


def _slots(delays):
    """Each delay's site index (-1 for x(t) itself) and the delayed sites."""
    at, sites = [], []
    for d in delays:
        if isinstance(d, IdentityDelay):
            at.append(-1)
        else:
            at.append(len(sites))
            sites.append(d)
    return at, sites


def _make_linear_rhs(eq: cr.LinearDelayEquation, forcing):
    # Every term adds w(t) * x in turn: w = -a for a positive term, +b for a
    # negative one, and -sign * weight for a window (``total -= s * avg`` and
    # ``total += (-s) * avg`` give the same bits).
    terms = eq.positive_terms + eq.negative_terms
    signed = [(-1.0, term.coeff) for term in eq.positive_terms]
    signed += [(1.0, term.coeff) for term in eq.negative_terms]
    distributed = eq.distributed_terms
    signed += [(-term.sign, term.total_weight) for term in distributed]
    at, sites = _slots(term.delay for term in terms)
    at += range(len(sites), len(sites) + len(distributed))
    sites += distributed

    def coeffs(t):
        total = 0.0 if forcing is None else float(forcing(t))
        return total, [s * c.value(t) for s, c in signed]

    def state(y, cv, xv):
        total, ws = cv
        for w, k in zip(ws, at):
            total += w * (y if k < 0 else xv[k])
        return total

    read_lags, general_reads = _delay_split(sites)
    mesh_lags = list(read_lags)
    window_to_now = False
    for term in distributed:
        window_to_now = window_to_now or _window_reaches_now(term)
        if isinstance(term.window_start, tf.ConstantLag):
            mesh_lags.append(term.window_start.lag)
            if term.kernel.width is not None and term.window_start.lag > term.kernel.width:
                mesh_lags.append(term.window_start.lag - term.kernel.width)
    return _Rhs(
        coeffs, tuple(sites), state, -1 in at, read_lags, general_reads, mesh_lags,
        bool(distributed), window_to_now,
    )


def _make_removal_rhs(model: md.MackeyGlassRemoval, forcing):
    (at_g, at_h), sites = _slots((model.g, model.h))

    def coeffs(t):
        return model.r.value(t), None if forcing is None else float(forcing(t))

    def state(y, cv, xv):
        rate, force = cv
        x_g = y if at_g < 0 else xv[at_g]
        x_h = y if at_h < 0 else xv[at_h]
        total = rate * md.removal_reaction(model, x_g, x_h)
        if force is not None:
            total += force
        return total

    return _model_rhs(coeffs, sites, state, min(at_g, at_h) < 0)


def _make_production_rhs(model: md.MackeyGlassProduction, forcing):
    (at_p, at_q), sites = _slots((model.p, model.q))

    def coeffs(t):
        return model.s.value(t), None if forcing is None else float(forcing(t))

    def state(y, cv, xv):
        rate, force = cv
        x_p = y if at_p < 0 else xv[at_p]
        x_q = y if at_q < 0 else xv[at_q]
        total = rate * md.production_reaction(model, x_p, x_q, y)
        if force is not None:
            total += force
        return total

    return _model_rhs(coeffs, sites, state, True)


def _model_rhs(coeffs, sites, state, y_dependent):
    read_lags, general_reads = _delay_split(sites)
    return _Rhs(coeffs, tuple(sites), state, y_dependent, read_lags, general_reads, list(read_lags))


def _delay_split(delays):
    lags, general = [], []
    for d in delays:
        if isinstance(d, tf.ConstantLag) and d.lag > 0.0:
            lags.append(d.lag)
        elif isinstance(d, tf.GeneralDelay):
            general.append(d)
    return lags, general


def _make_rhs(target, forcing):
    if isinstance(target, cr.LinearDelayEquation):
        return _make_linear_rhs(target, forcing)
    if isinstance(target, md.MackeyGlassRemoval):
        return _make_removal_rhs(target, forcing)
    if isinstance(target, md.MackeyGlassProduction):
        return _make_production_rhs(target, forcing)
    raise ConfigurationError(
        "target must be a LinearDelayEquation or a Mackey-Glass model"
    )


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------


def breaking_points(t0: float, t1: float, lags: Sequence[float]) -> list:
    """Times where solution smoothness can drop: t0 plus sums of lags.

    Deduplicated on a 1e-9 grid and capped at a fixed count; the cap only
    costs mesh alignment, not correctness of the integration.
    """
    uniq = sorted({l for l in lags if l > 0.0})
    points = {0.0}
    heap = [0.0]
    seen = {0}
    span = t1 - t0
    while heap and len(points) < _BREAKING_POINT_CAP:
        p = heapq.heappop(heap)
        for lag in uniq:
            q = p + lag
            if q > span + 1e-9:
                continue
            key = int(round(q / 1e-9))
            if key in seen:
                continue
            seen.add(key)
            points.add(q)
            heapq.heappush(heap, q)
    out = sorted(t0 + p for p in points if p <= span + 1e-9)
    if not out or abs(out[-1] - t1) > 1e-9:
        out.append(t1)
    else:
        out[-1] = t1
    return out


def _build_mesh(t0: float, t1: float, step: float, lags: Sequence[float]) -> np.ndarray:
    bps = breaking_points(t0, t1, lags)
    nodes = [t0]
    for a, b in zip(bps[:-1], bps[1:]):
        seg = b - a
        if seg <= step * 1e-6 and len(nodes) > 1:
            # Merge breaking points closer than a sliver of the step.
            nodes[-1] = b
            continue
        n = max(1, int(math.ceil(seg / step - 1e-9)))
        for k in range(1, n + 1):
            nodes.append(a + seg * k / n)
    return np.asarray(nodes)


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------


def integrate(
    target,
    history,
    t1: float,
    *,
    step: float = 0.01,
    t0: Optional[float] = None,
    initial_value: Optional[float] = None,
    forcing: Optional[Callable[[float], float]] = None,
    allow_extrapolation: bool = False,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    on_divergence: str = "raise",
) -> Trajectory:
    """Integrate a delay equation or model forward from its history.

    ``target`` is a LinearDelayEquation, MackeyGlassRemoval, or
    MackeyGlassProduction. ``history`` supplies x on [t0 - max_lag, t0];
    ``initial_value`` overrides x(t0) (allowing a jump at the start).
    ``on_divergence`` is "raise" or "truncate"; divergence means |x|
    exceeding ``divergence_threshold`` or turning non-finite.
    """
    if on_divergence not in ("raise", "truncate"):
        raise ConfigurationError('on_divergence must be "raise" or "truncate"')
    if not (math.isfinite(step) and step > 0.0):
        raise ConfigurationError("step must be positive")
    if t0 is None:
        t0 = target.t0 if isinstance(target, cr.LinearDelayEquation) else 0.0
    if not math.isfinite(t1):
        raise ConfigurationError("t1 must be finite")
    if not (t1 > t0):
        raise ConfigurationError("need t1 > t0")

    rhs = _make_rhs(target, forcing)
    hist = _as_history(history)

    if not allow_extrapolation:
        min_lag = min(rhs.read_lags, default=math.inf)
        for gd in rhs.general_reads:
            for k in range(257):
                t = t0 + (t1 - t0) * k / 256.0
                min_lag = min(min_lag, t - gd(t))
        if min_lag < step - 1e-12 and (rhs.read_lags or rhs.general_reads):
            raise ConfigurationError(
                "step %g exceeds the smallest positive lag %g; shrink the step "
                "or pass allow_extrapolation=True" % (step, min_lag)
            )

    mesh = _build_mesh(t0, t1, step, rhs.mesh_lags)
    nodes = mesh.tolist()
    x0 = float(hist.value(t0)) if initial_value is None else float(initial_value)

    # A start-time jump (initial value differing from the history's end)
    # makes delayed reads at exactly t0 two-sided: by default they resolve
    # to x0, except while evaluating quantities tied to the left limit.
    jump0 = abs(x0 - float(hist.value(t0))) > 1e-15 * max(1.0, abs(x0))
    want_left = False

    ts: list = [t0]
    xs: list = [x0]
    ms: list = [0.0]  # right-limit node derivatives
    mls = [0.0] if jump0 else None  # left-limit node derivatives
    mends = ms if mls is None else mls  # derivatives closing each step
    pieces: list = []  # whole-step integrals, for distributed windows
    pending = [t0, x0, 0.0]  # anchor time, value, slope for leading-edge reads
    hist_pad = 1e-9 * max(1.0, abs(t0))
    hist_lo, hist_hi = t0 - hist_pad, t0 + hist_pad
    extrapolate = allow_extrapolation or rhs.window_to_now
    # Whether the reads since the last ``prepare`` used the last node or the
    # predictor (they change once the step is pushed), or the left limit of
    # the start-time jump (they change with ``want_left``).
    touched_end = touched_left = False

    def read(tau: float) -> float:
        nonlocal touched_end, touched_left
        if tau < hist_lo:
            return float(hist.value(tau))
        if jump0 and want_left and tau <= hist_hi:
            touched_left = True
            return float(hist.value(min(tau, t0)))
        last = ts[-1]
        if tau <= last + 1e-12 * max(1.0, abs(last)):
            i = bisect.bisect_right(ts, tau) - 1
            if i >= len(ts) - 1:
                touched_end = True
                return xs[-1]
            if i < 0:
                return xs[0]
            return _hermite(ts[i], xs[i], ms[i], ts[i + 1], xs[i + 1], mends[i + 1], tau)
        if extrapolate:
            touched_end = True
            at, ax, am = pending
            return ax + (tau - at) * am
        raise DomainError(
            "delayed read at %g ahead of completed segment end %g" % (tau, last)
        )

    def integral(lo: float, hi: float) -> float:
        nonlocal touched_end
        total = 0.0
        if lo < t0:
            total = _history_integral(hist, lo, min(hi, t0), step)
            lo = t0
        last = ts[-1]
        if hi > last:
            if not extrapolate and hi > last + 1e-12 * max(1.0, abs(last)):
                raise DomainError(
                    "window reaches %g ahead of completed segment end %g" % (hi, last)
                )
            # The predictor, integrated exactly over the sliver past the end.
            touched_end = True
            at, ax, am = pending
            a = max(lo, last)
            total += (hi - a) * (ax + (0.5 * (a + hi) - at) * am)
            hi = last
        if hi > lo:
            # The last step is always an end step here, read from its nodes,
            # so only steps sealed below are summed.
            total += _dense_integral(ts, xs, ms, mends, pieces, lo, hi)
        return total

    # Method of steps: while the steps advance by less than the smallest
    # constant lag, every read at such a lag lands in steps already
    # finished. A block of steps therefore gets those reads in one numpy
    # pass, bit for bit what ``read`` returns. NaN marks a slot left to
    # ``read``: general delays, windows, and reads in the history, near t0
    # or at or past the last finished node.
    sites = rhs.sites
    batched = [k for k, s in enumerate(sites) if isinstance(s, tf.ConstantLag) and s.lag > 0.0]
    if batched and min(sites[k].lag for k in batched) < _BLOCK_STEPS * float(np.diff(mesh).max()):
        batched = []  # blocks of a few steps would not pay for their numpy calls
    lags = np.array([sites[k].lag for k in batched])
    lag_min = float(lags.min()) if batched else math.inf
    unresolved = [math.nan] * len(sites)
    xs_done = np.empty(mesh.size)
    ms_done = np.empty(mesh.size)
    me_done = ms_done if mls is None else np.empty(mesh.size)
    synced = 0

    def block(j):
        """(count, rows, clean) for the steps j to j + count - 1.

        ``rows[0][r]`` and ``rows[1][r]`` hold one read value per site at the
        midpoint and at the end of step j + r; ``clean`` says a row has no NaN.
        """
        nonlocal synced
        n = j + 1  # finished nodes
        last = nodes[j]
        if batched:
            # The steps whose end reads at the smallest lag land below the last node.
            stop = min(int(np.searchsorted(mesh, last + lag_min, "right")) + 1, mesh.size - 1)
            count = int(np.searchsorted(mesh[j + 1:stop + 1] - lag_min, last))
        else:
            count = mesh.size - 1 - j
        if not batched or n < 2:
            return count, ([unresolved] * count,) * 2, ([False] * count,) * 2
        xs_done[synced:n] = xs[synced:n]
        ms_done[synced:n] = ms[synced:n]
        if mls is not None:
            me_done[synced:n] = mls[synced:n]
        synced = n
        ta = mesh[j:j + count]
        tb = mesh[j + 1:j + count + 1]
        tau = np.stack((ta + 0.5 * (tb - ta), tb))[..., None] - lags
        i = np.clip(np.searchsorted(mesh[:n], tau, "right") - 1, 0, n - 2)
        with np.errstate(all="ignore"):
            vals = _hermite(
                mesh[i], xs_done[i], ms_done[i], mesh[i + 1], xs_done[i + 1], me_done[i + 1], tau
            )
        rows = np.full(tau.shape[:2] + (len(sites),), math.nan)
        rows[..., batched] = np.where((tau > hist_hi) & (tau < last), vals, math.nan)
        return count, rows.tolist(), (~np.isnan(rows).any(axis=-1)).tolist()

    coeffs, state, y_dependent = rhs.coeffs, rhs.state, rhs.y_dependent

    def prepare(t, row, clean, cv=None):
        """Time part and read values at stage time t; None if either overflows.

        A given time part ``cv`` is kept, and only the reads are redone.
        """
        nonlocal touched_end, touched_left
        touched_end = touched_left = False
        try:
            if cv is None:
                cv = coeffs(t)
            if clean:
                return cv, row
            xv = list(row)
            for k, site in enumerate(sites):
                if xv[k] != xv[k]:
                    xv[k] = _site_value(site, t, read, integral)
            return cv, xv
        except OverflowError:
            return None

    def stage(y, prep):
        if prep is None:
            return math.nan
        try:
            return state(y, *prep)
        except OverflowError:
            return math.nan

    ms[0] = stage(x0, prepare(t0, unresolved, False))
    if mls is not None:
        mls[0] = ms[0]
    if not math.isfinite(ms[0]) or not math.isfinite(x0) or abs(x0) > divergence_threshold:
        traj = Trajectory(np.array(ts), np.array(xs), np.array([0.0]), hist, True, t0)
        if on_divergence == "raise":
            raise DivergenceError("derivative not finite at start time %g" % t0, traj)
        return traj

    def push(t, x, m):
        ts.append(t)
        xs.append(x)
        ms.append(m)
        if mls is not None:
            mls.append(m)

    diverged = False
    div_time = None
    block_start = block_end = 0
    for j in range(mesh.size - 1):
        if j == block_end:
            count, (mid_rows, end_rows), (mid_clean, end_clean) = block(j)
            block_start, block_end = j, j + count
        r = j - block_start
        ta = nodes[j]
        tb = nodes[j + 1]
        h = tb - ta
        xa = xs[-1]
        k1 = ms[-1]
        pending[0], pending[1], pending[2] = ta, xa, k1
        # k2 and k3 share the stage time ta + h/2, so its time part and reads.
        at_mid = prepare(ta + 0.5 * h, mid_rows[r], mid_clean[r])
        k2 = stage(xa + 0.5 * h * k1, at_mid)
        k3 = stage(xa + 0.5 * h * k2, at_mid) if y_dependent else k2
        # The step end can sit exactly where a delayed read crosses the
        # start-time jump; the step itself belongs to the left limit.
        want_left = True
        at_end = prepare(tb, end_rows[r], end_clean[r])
        k4 = stage(xa + h * k3, at_end)
        xb = xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(xb) or abs(xb) > divergence_threshold:
            diverged = True
            div_time = tb
            if math.isfinite(xb):
                push(tb, xb, k4 if math.isfinite(k4) else 0.0)
            break
        push(tb, xb, k4 if math.isfinite(k4) else 0.0)
        # The node slopes reuse k4's time part (a k4 that overflowed has
        # ended the run), and its reads unless one of them saw the step end,
        # which the push has just replaced.
        cv_end = at_end[0]
        if touched_end:
            at_end = prepare(tb, end_rows[r], end_clean[r], cv_end)
            m_left = stage(xb, at_end)
        else:
            m_left = stage(xb, at_end) if y_dependent else k4
        want_left = False
        if touched_left:
            m_right = stage(xb, prepare(tb, end_rows[r], end_clean[r], cv_end))
        else:
            m_right = m_left
        if math.isfinite(m_right) and math.isfinite(m_left):
            ms[-1] = m_right
            if mls is not None:
                mls[-1] = m_left
            if rhs.windows:
                # Sealed once its closing derivative is final.
                pieces.append(_piece_integral(ta, xa, ms[-2], tb, xb, mends[-1]))
        else:
            diverged = True
            div_time = tb
            break

    traj = Trajectory(
        np.array(ts), np.array(xs), np.array(ms), hist,
        diverged=diverged, divergence_time=div_time,
        left_derivatives=None if mls is None else np.array(mls),
    )
    if diverged and on_divergence == "raise":
        raise DivergenceError(
            "solution exceeded %g near t=%g" % (divergence_threshold, div_time), traj
        )
    return traj


# ---------------------------------------------------------------------------
# Fundamental solution and the integral identity check
# ---------------------------------------------------------------------------


def fundamental_solution(
    eq: cr.LinearDelayEquation,
    s: float,
    t1: float,
    *,
    step: float = 0.01,
) -> Trajectory:
    """X(., s): zero before s, one at s, then the homogeneous solution."""
    if not isinstance(eq, cr.LinearDelayEquation):
        raise ConfigurationError("fundamental solutions are defined for linear equations")
    return integrate(eq, ConstantHistory(0.0), t1, step=step, t0=s, initial_value=1.0)


@dataclass(frozen=True)
class Lemma3Report:
    """Result of checking 0 <= int_s^t X-weighted coefficients <= 1.

    ``max_value`` is the largest prefix integral of
    sum_k a_k(u) X(h_k(u), s) - sum_j b_j(u) X(g_j(u), s) over t in
    [s, t1]; the defining identity makes it equal 1 - X(t, s), so it stays
    at most 1 whenever the fundamental solution stays positive.
    ``identity_defect`` is the worst quadrature-vs-solver disagreement.
    """

    max_value: float
    positive_throughout: bool
    identity_defect: float


def verify_lemma3(
    eq: cr.LinearDelayEquation,
    s: float,
    t1: float,
    *,
    step: float = 0.01,
) -> Lemma3Report:
    """Check the fundamental-solution integral bound numerically.

    Integrates X(., s), forms the prefix integrals of the coefficient
    combination read along X, and reports their maximum together with
    positivity of X. Composite Simpson per smooth segment: the integrand
    jumps where delayed reads cross the initial jump of X, so the grid is
    aligned with breaking points and endpoint samples are nudged inward.
    """
    X = fundamental_solution(eq, s, t1, step=step)
    lag = max(eq.max_lag, step)
    spacing = min(10.0 * step, lag / 2.0)
    # The integrand is minus the equation's right-hand side read along X.
    rhs = _make_rhs(eq, None)
    segments = breaking_points(s, t1, rhs.mesh_lags)
    prefix = [(s, 0.0)]
    acc = 0.0
    for a, b in zip(segments[:-1], segments[1:]):
        seg = b - a
        if seg < 1e-12:
            continue
        n = max(2, 2 * int(math.ceil(seg / spacing / 2.0)))
        hgrid = seg / n
        # Larger than the trajectory's own boundary tolerance, so one-sided
        # samples land strictly on their side of a jump.
        nudge = min(seg / 8.0, max(1e-7, 1e-8 * max(1.0, abs(s), abs(t1))))
        ys = []
        for k in range(n + 1):
            u = a + seg * k / n
            u = min(max(u, a + nudge), b - nudge)
            ys.append(-rhs.fn(u, X.value(u), X.value, X.integral))
        for k in range(2, n + 1, 2):
            acc += hgrid / 3.0 * (ys[k - 2] + 4.0 * ys[k - 1] + ys[k])
            prefix.append((a + seg * k / n, acc))

    max_value = max(v for _, v in prefix)
    defect = max(abs(v - (1.0 - X.value(t))) for t, v in prefix)
    positive = bool(np.all(X.values > 0.0))
    return Lemma3Report(
        max_value=float(max_value),
        positive_throughout=positive,
        identity_defect=float(defect),
    )
