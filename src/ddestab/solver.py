"""Numerical integration of scalar delay equations by the method of steps.

Classical fixed-step RK4 between breaking points, with cubic Hermite dense
output on every step. Delayed reads hit the prescribed history before the
start time and the dense output afterwards; distributed (window-averaged)
terms integrate the same dense output exactly, one closed-form integral per
window.

The mesh is uniform between breaking points: t0, t1 and t0 plus every sum
of at most five constant lags. A jump at t0 reaches the k-th derivative at
the sums of k lags; past RK4's order it no longer costs accuracy, so deeper
sums are not tracked.

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
must read again, they keep the step end's time part. The state part is
split again: a delayed part that needs no x(t) and a current part that
finishes it with the state, so k2 and k3 share one delayed part as well.

Where every delayed read lands, at both stage times of every step, is
found once per run: t - lag at a constant lag, one call per stage time at
a general delay. Its smallest lag bounds the step, checked before the
first step. From any step j, the method of steps (Bellen and Zennaro 2003,
ch. 3) settles a segment of steps at once: the steps up to the first one
that reads step j or later or has a slot only the scalar read can read. Its
reads land in finished steps or before t0 in a constant history, so the
segment interpolates them elementwise, with Hermite weights found once per
run, in the same operations and order as one scalar read, hence bit for
bit. The time part is then evaluated at the segment's stage times and the
delayed part on arrays. When the state part ignores the current state
(every term delayed, as in the removal form of ``ex51``), that gives
k2 = k3 and k4, each step's k1 is the previous k4, and the nodes are the
running sum ``np.cumsum`` of the increments. When it reads x(t) (``eq3``,
``eq26``, the production form of ``ex5``), the RK4 recurrence runs over
floats through the current part alone. Either way these are the scalar
loop's own IEEE operations in its order. The pass hands a step back to
the scalar loop when its node or node slope leaves the finite range or
the divergence threshold, and the rest of its segment when its array
part raises (an overflowing time part or x^n, a floating-point exception).

Segments are settled in one pass when they hold at least ``_BLOCK_STEPS``
steps; shorter ones cost more than they save. The scalar read and the
scalar step remain the reference for everything a segment cannot settle
ahead of time: windows, reads near t0 (two-sided under a start jump) or at
the last finished node, histories other than a constant one, extrapolated
reads, divergence, and all steps when the lag is short.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

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
# Deepest tracked sum of lags: RK4's order plus one, a level of margin.
_LEVELS = 5
# A segment of steps is settled in one pass only when it holds at least this
# many steps: the pass pays some fifteen numpy calls for the segment's reads
# and some thirty more to settle its steps. It breaks even with the scalar
# loop at 4-6 steps on eq26 and eq3 runs and about 6 on ex5 and ex51 runs,
# and gains 1.1-1.9x at 8; 10 leaves a margin.
_BLOCK_STEPS = 10


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


History = ConstantHistory | FunctionHistory | TabulatedHistory


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


def _hermite_weights(ta, tb, t):
    """The weights of xa, ma, xb and mb in the cubic Hermite piece on [ta, tb] at t."""
    h = tb - ta
    s = (t - ta) / h
    s2 = s * s
    s3 = s2 * s
    return 2.0 * s3 - 3.0 * s2 + 1.0, (s3 - 2.0 * s2 + s) * h, -2.0 * s3 + 3.0 * s2, (s3 - s2) * h


def _hermite(ta, xa, ma, tb, xb, mb, t):
    w0, w1, w2, w3 = _hermite_weights(ta, tb, t)
    return w0 * xa + w1 * ma + w2 * xb + w3 * mb


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

    ``coeffs`` is the time part: one function of t per value it holds
    (coefficients, forcing). ``sites`` lists what the equation reads from the
    past, one slot each: a delay, read at one delayed time, or a
    DistributedTerm, averaged over its window. The state part comes in two
    pieces. ``delayed(cv, xv)`` does all the arithmetic that needs no x(t),
    given the time part's values ``cv`` and one value ``xv[k]`` per site;
    ``current(y, d)`` finishes it with the state y. ``current`` is None when
    the state part ignores y, and ``delayed`` then gives the derivative
    itself. Given arrays (one entry per stage time) in place of the numbers,
    ``delayed`` does the same IEEE operations element by element, and gives
    the values ``current`` takes, one array each. What the integrator needs to
    know of the reads (the lags that bound the step and seed the mesh, the
    windows) it derives from the sites.
    """

    coeffs: tuple
    sites: tuple
    delayed: Callable
    current: Optional[Callable]

    def fn(self, t, y, read, integral):
        """The derivative at (t, y), reading x through ``read``/``integral``."""
        xv = [_site_value(site, t, read, integral) for site in self.sites]
        d = self.delayed([f(t) for f in self.coeffs], xv)
        return d if self.current is None else self.current(y, d)


def _site_value(site, t, read, integral):
    if isinstance(site, cr.DistributedTerm):
        return _window_average(site, t, read, integral)
    return read(site(t))


def _time_parts(coeffs, times: np.ndarray) -> list:
    """The time part at each of ``times``, one array per value.

    Each time goes through the scalar functions, so every coefficient
    through its own ``value``: numpy's sin and square need not agree with
    ``math.sin`` and Python's ``**`` in the last bit.
    """
    ts = times.tolist()
    return [np.fromiter(map(f, ts), float, len(ts)) for f in coeffs]


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


def _forcing_part(forcing):
    return (lambda t: 0.0) if forcing is None else (lambda t: float(forcing(t)))


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
    # ``delayed`` sums the terms before the first x(t), after the forcing,
    # and forms w or w * x of each term after it; ``current`` adds those in
    # order, times y where the term reads x(t).
    first = at.index(-1) if -1 in at else len(at)
    head = [(s, k) for (s, _), k in zip(signed[:first], at)]
    rest = [(s, k) for (s, _), k in zip(signed[first:], at[first:])]
    later = [(i, k < 0) for i, (_, k) in enumerate(rest, 1)][1:]  # d[i] after the first x(t)

    def delayed(cv, xv):
        total = cv[0]
        for (s, k), v in zip(head, cv[1:]):
            total += s * v * xv[k]
        if not rest:
            return total
        vs = cv[first + 1:]
        return [total] + [s * v if k < 0 else s * v * xv[k] for (s, k), v in zip(rest, vs)]

    def current(y, d):
        total = d[0] + d[1] * y  # rest opens with the first x(t) term
        for i, times_y in later:
            total += d[i] * y if times_y else d[i]
        return total

    coeffs = (_forcing_part(forcing),) + tuple(c.value for _, c in signed)
    return _Rhs(coeffs, tuple(sites), delayed, current if rest else None)


def _make_model_rhs(model, rate, gamma, slots, forcing):
    """rate(t) [_production_term(x_a, x_b) - gamma x_c] plus forcing.

    ``slots`` holds the site indices of a, b and c (-1 for x(t)) and the
    sites; a None ``gamma`` clears x_c itself. ``delayed`` forms the
    production term when both its reads are delayed, and the whole
    derivative when x_c is delayed too.
    """
    (a, b, c), sites = slots
    split = min(a, b) >= 0
    coeffs = (rate.value,) if forcing is None else (rate.value, _forcing_part(forcing))
    nc = len(coeffs)

    def finish(cv, p, x_c):
        total = cv[0] * (p - (x_c if gamma is None else gamma * x_c))
        if forcing is not None:
            total += cv[1]
        return total

    def delayed(cv, xv):
        if not split:
            return [*cv, *xv]
        p = md._production_term(model, xv[a], xv[b])
        return finish(cv, p, xv[c]) if c >= 0 else [*cv, p]

    def current(y, d):
        if split:
            return finish(d, d[nc], y)
        x_a, x_b, x_c = (y if k < 0 else d[nc + k] for k in (a, b, c))
        return finish(d, md._production_term(model, x_a, x_b), x_c)

    return _Rhs(coeffs, tuple(sites), delayed, None if min(a, b, c) >= 0 else current)


def _make_removal_rhs(model: md.MackeyGlassRemoval, forcing):
    (g, h), sites = _slots((model.g, model.h))
    return _make_model_rhs(model, model.r, model.gamma, ((g, g, h), sites), forcing)


def _make_production_rhs(model: md.MackeyGlassProduction, forcing):
    (p, q), sites = _slots((model.p, model.q))
    return _make_model_rhs(model, model.s, None, ((p, q, -1), sites), forcing)


def _mesh_lags(sites) -> list:
    """The lags that seed the breaking-point mesh: constant read lags and constant window ends."""
    lags = [d.lag for d in sites if isinstance(d, tf.ConstantLag)]
    for term in sites:
        if isinstance(term, cr.DistributedTerm) and isinstance(term.window_start, tf.ConstantLag):
            lags.append(term.window_start.lag)
            if term.kernel.width is not None and term.window_start.lag > term.kernel.width:
                lags.append(term.window_start.lag - term.kernel.width)
    return lags


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
    """Times where the solution loses enough smoothness to cost RK4 accuracy.

    ``t0``, ``t1`` and ``t0`` plus every sum of at most ``_LEVELS`` lags
    below ``t1``, sorted and kept 1e-9 apart. A jump at ``t0`` reaches
    ``x^(k)`` at the sums of ``k`` lags, so deeper sums are smooth enough
    for RK4 (Bellen and Zennaro 2003, ch. 3).
    """
    uniq = sorted({l for l in lags if l > 0.0})
    sums = {
        sum(c)
        for k in range(1, _LEVELS + 1)
        for c in itertools.combinations_with_replacement(uniq, k)
    }
    out = [t0]
    for t in sorted(t0 + p for p in sums):
        if out[-1] + 1e-9 < t < t1 - 1e-9:
            out.append(t)
    out.append(t1)
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
    if math.isnan(divergence_threshold):
        raise ConfigurationError("divergence_threshold must not be NaN")

    rhs = _make_rhs(target, forcing)
    hist = _as_history(history)
    sites = rhs.sites
    windows = [s for s in sites if isinstance(s, cr.DistributedTerm)]

    mesh = _build_mesh(t0, t1, step, _mesh_lags(sites))
    nodes = mesh.tolist()
    steps = mesh.size - 1
    widths = np.diff(mesh)
    stage_times = np.stack((mesh[:-1] + 0.5 * widths, mesh[1:]))

    # Where each delayed read lands at the midpoint ([0]) and the end ([1]) of
    # every step: the floats the site returns there. NaN leaves a slot to be
    # read at the site: windows, general delays under ``allow_extrapolation``
    # and those that raise (again at their own step). The smallest lag bounds
    # the step: constant lags as given, general ones at their least over the
    # stage times.
    tau = np.full(stage_times.shape + (len(sites),), math.nan)
    lags = []
    for k, site in enumerate(sites):
        if isinstance(site, tf.ConstantLag):
            tau[..., k] = stage_times - site.lag
            lags.append(site.lag)
        elif isinstance(site, tf.GeneralDelay) and not allow_extrapolation:
            try:
                reads = list(map(site, stage_times.ravel().tolist()))
            except Exception:
                continue
            tau[..., k] = np.reshape(reads, stage_times.shape)
            lags.append(float(np.min(stage_times - tau[..., k])))
    min_lag = min(lags, default=math.inf)
    if min_lag < step - 1e-12 and not allow_extrapolation:
        raise ConfigurationError(
            "step %g exceeds the smallest positive lag %g; shrink the step "
            "or pass allow_extrapolation=True" % (step, min_lag)
        )

    h0 = float(hist.value(t0))
    x0 = h0 if initial_value is None else float(initial_value)
    # A start-time jump (initial value differing from the history's end)
    # makes delayed reads at exactly t0 two-sided: by default they resolve
    # to x0, except while evaluating quantities tied to the left limit.
    jump0 = abs(x0 - h0) > 1e-15 * max(1.0, abs(x0))
    want_left = False

    xs: list = [x0]
    ms: list = [0.0]  # right-limit node derivatives
    mls = [0.0] if jump0 else None  # left-limit node derivatives
    mends = ms if mls is None else mls  # derivatives closing each step
    pieces: list = []  # whole-step integrals, for distributed windows
    hist_pad = 1e-9 * max(1.0, abs(t0))
    hist_lo, hist_hi = t0 - hist_pad, t0 + hist_pad
    extrapolate = allow_extrapolation or any(map(_window_reaches_now, windows))
    # Whether the reads since the last ``prepare`` used the last node or the
    # predictor (they change once the step is pushed), or the left limit of
    # the start-time jump (they change with ``want_left``).
    touched_end = touched_left = False
    # The finished nodes are nodes[:len(xs)]. The predictor past the last one
    # serves only a step not yet pushed: the node-slope reads after a push land
    # at or before the new node (a GeneralDelay returns min(v, t), windows end at t).

    def read(tau: float) -> float:
        nonlocal touched_end, touched_left
        if tau < hist_lo:
            return float(hist.value(tau))
        if jump0 and want_left and tau <= hist_hi:
            touched_left = True
            return float(hist.value(min(tau, t0)))
        n = len(xs)
        last = nodes[n - 1]
        if tau <= last + 1e-12 * max(1.0, abs(last)):
            i = bisect.bisect_right(nodes, tau, 0, n) - 1
            if i >= n - 1:
                touched_end = True
                return xs[-1]
            if i < 0:
                return xs[0]
            return _hermite(nodes[i], xs[i], ms[i], nodes[i + 1], xs[i + 1], mends[i + 1], tau)
        if extrapolate:
            touched_end = True
            return xs[-1] + (tau - last) * ms[-1]
        raise DomainError(
            "delayed read at %g ahead of completed segment end %g" % (tau, last)
        )

    def integral(lo: float, hi: float) -> float:
        nonlocal touched_end
        total = 0.0
        if lo < t0:
            total = _history_integral(hist, lo, min(hi, t0), step)
            lo = t0
        last = nodes[len(xs) - 1]
        if hi > last:
            if not extrapolate and hi > last + 1e-12 * max(1.0, abs(last)):
                raise DomainError(
                    "window reaches %g ahead of completed segment end %g" % (hi, last)
                )
            # The predictor, integrated exactly over the sliver past the end.
            touched_end = True
            a = max(lo, last)
            total += (hi - a) * (xs[-1] + (0.5 * (a + hi) - last) * ms[-1])
            hi = last
        if hi > lo:
            # The last step is always an end step here, read from its nodes,
            # so only steps sealed below are summed.
            total += _dense_integral(nodes, xs, ms, mends, pieces, lo, hi)
        return total

    # Method of steps: a segment of steps whose reads all land in finished
    # steps, or before t0 in a constant history, gets them in one numpy pass,
    # bit for bit what ``read`` returns. ``reach`` is the running maximum of
    # the step that a read of each step, or of an earlier one, lands in: the
    # steps from j on read only finished steps up to the first whose reach is
    # j or more. ``unclean`` lists the steps with a slot only ``read`` can
    # read (NaN in ``tau``, a read near t0, or one before t0 in a history
    # other than a constant one), then the number of steps.
    step_of = np.searchsorted(mesh, tau, "right") - 1  # the step holding each read
    before = hist.const if isinstance(hist, ConstantHistory) else math.nan
    later = tau > hist_hi
    clean = later | ((tau < hist_lo) & (before == before))
    unclean = np.flatnonzero(~clean.all(axis=(0, 2))).tolist() + [steps]
    landed = np.where(later, step_of, -1).max(axis=(0, 2), initial=-1)
    reach = np.maximum.accumulate(landed).tolist()
    np.clip(step_of, 0, steps - 1, out=step_of)
    with np.errstate(all="ignore"):
        weights = _hermite_weights(mesh[step_of], mesh[step_of + 1], tau)
    xs_done = np.zeros(mesh.size)
    ms_done = np.zeros(mesh.size)
    me_done = ms_done if mls is None else np.zeros(mesh.size)
    synced = 0

    def block(j, stop):
        """Read values per site at the midpoints (``[0]``) and the ends
        (``[1]``) of the steps j to stop - 1, a segment."""
        nonlocal synced
        n = j + 1  # finished nodes
        xs_done[synced:n] = xs[synced:n]
        ms_done[synced:n] = ms[synced:n]
        if mls is not None:
            me_done[synced:n] = mls[synced:n]
        synced = n
        at = step_of[:, j:stop]
        nxt = at + 1
        w0, w1, w2, w3 = (w[:, j:stop] for w in weights)
        with np.errstate(all="ignore"):
            vals = w0 * xs_done[at] + w1 * ms_done[at] + w2 * xs_done[nxt] + w3 * me_done[nxt]
        return np.where(tau[:, j:stop] < hist_lo, before, vals)

    resume = 0  # the pass waits for this step after one of its segments raised
    # A node diverges unless |x| <= limit: past the threshold or not finite.
    limit = min(divergence_threshold, sys.float_info.max)
    coeffs, delayed, current = rhs.coeffs, rhs.delayed, rhs.current
    y_dependent = current is not None

    def prepare(t, at, cv=None):
        """Time part and delayed part at stage time t; None if one overflows.

        Each slot is read at its place in ``at``, or at the site where that
        is NaN. A given time part ``cv`` is kept, and only the reads are redone.
        """
        nonlocal touched_end, touched_left
        touched_end = touched_left = False
        try:
            if cv is None:
                cv = [f(t) for f in coeffs]
            xv = list(at)
            for k, a in enumerate(at):
                xv[k] = read(a) if a == a else _site_value(sites[k], t, read, integral)
            return cv, delayed(cv, xv)
        except OverflowError:
            return None

    def stage(y, prep):
        if prep is None:
            return math.nan
        if current is None:
            return prep[1]
        try:
            return current(y, prep[1])
        except OverflowError:
            return math.nan

    def advance(j, reads):
        """Settle the segment from step j on in one pass, given its ``block`` reads.

        The time part at the stage times and ``delayed`` go over arrays. When
        the state part ignores y, k3 = k2, each step's k1 is the previous k4,
        and the nodes are a running sum; otherwise the recurrence runs step by
        step on ``current``. Either way they are the scalar loop's operations
        in its order. Returns how many steps it settled; the next one, if any,
        goes to the scalar loop, since its node or node slope is not finite or
        passes the threshold. Anything that raises on the arrays (an
        overflowing time part or x^n, a floating-point exception) hands the
        segment to the scalar loop.
        """
        nonlocal resume
        m = reads.shape[1]
        try:
            cv = _time_parts(coeffs, stage_times[:, j:j + m].ravel())
            with np.errstate(all="raise", under="ignore"):
                d = delayed(cv, reads.reshape(2 * m, -1).T)
                if y_dependent:
                    return settle(j, np.transpose(d).tolist(), m)
                k2, k4 = d[:m], d[m:]
                k1 = np.concatenate(([ms[-1]], k4[:-1]))
                incr = widths[j:j + m] / 6.0 * (k1 + 2.0 * k2 + 2.0 * k2 + k4)
                incr[0] += xs[-1]
                xb = np.cumsum(incr)
        except Exception:
            resume = j + m  # the scalar loop meets it again at its own step
            return 0
        # A non-finite k4 leaves its node non-finite too.
        ok = np.abs(xb) <= limit
        if not ok.all():
            m = int(np.argmin(ok))
        xs.extend(xb[:m].tolist())
        slopes = k4[:m].tolist()
        ms.extend(slopes)
        if mls is not None:
            mls.extend(slopes)
        return m

    def settle(j, ds, m):
        """The RK4 recurrence of ``advance`` over floats, from the delayed parts
        ``ds`` at the m midpoints and then the m step ends."""
        xa, k1 = xs[-1], ms[-1]
        nodes_x, slopes = [], []
        try:
            for h, at_mid, at_end in zip(widths[j:j + m].tolist(), ds[:m], ds[m:]):
                k2 = current(xa + 0.5 * h * k1, at_mid)
                k3 = current(xa + 0.5 * h * k2, at_mid)
                k4 = current(xa + h * k3, at_end)
                xa = xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not abs(xa) <= limit:
                    break
                k1 = current(xa, at_end)
                if not math.isfinite(k1):
                    break
                nodes_x.append(xa)
                slopes.append(k1)
        except Exception:
            pass  # the scalar loop meets it again at its own step
        xs.extend(nodes_x)
        ms.extend(slopes)
        if mls is not None:
            mls.extend(slopes)
        return len(slopes)

    ms[0] = stage(x0, prepare(t0, [math.nan] * len(sites)))
    if mls is not None:
        mls[0] = ms[0]
    if not (abs(x0) <= limit and math.isfinite(ms[0])):
        traj = Trajectory(mesh[:1], np.array(xs), np.array([0.0]), hist, True, t0)
        if on_divergence == "raise":
            raise DivergenceError("derivative not finite at start time %g" % t0, traj)
        return traj

    diverged = False
    div_time = None
    j = 0
    while j < steps:
        if j >= resume:
            # The segment from j ends at the next unclean step (j itself for
            # a window), then at the first step that reads step j or later.
            stop = unclean[bisect.bisect_left(unclean, j)]
            if stop - j >= _BLOCK_STEPS:
                stop = bisect.bisect_left(reach, j, j, stop)
            if stop - j >= _BLOCK_STEPS:
                j += advance(j, block(j, stop))
                if j == stop:
                    continue
        mid_tau, end_tau = tau[:, j].tolist()
        ta = nodes[j]
        tb = nodes[j + 1]
        h = tb - ta
        xa = xs[-1]
        k1 = ms[-1]
        # k2 and k3 share the stage time ta + h/2, so its time part and reads.
        at_mid = prepare(ta + 0.5 * h, mid_tau)
        k2 = stage(xa + 0.5 * h * k1, at_mid)
        k3 = stage(xa + 0.5 * h * k2, at_mid) if y_dependent else k2
        # The step end can sit exactly where a delayed read crosses the
        # start-time jump; the step itself belongs to the left limit.
        want_left = True
        at_end = prepare(tb, end_tau)
        k4 = stage(xa + h * k3, at_end)
        xb = xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if math.isfinite(xb):  # and so is k4
            xs.append(xb)
            ms.append(k4)
            if mls is not None:
                mls.append(k4)
        if not abs(xb) <= limit:
            diverged = True
            div_time = tb
            break
        # The node slopes reuse k4's time part (a k4 that overflowed has
        # ended the run), and its reads unless one of them saw the step end,
        # which the push has just replaced.
        cv_end = at_end[0]
        if touched_end:
            at_end = prepare(tb, end_tau, cv_end)
            m_left = stage(xb, at_end)
        else:
            m_left = stage(xb, at_end) if y_dependent else k4
        want_left = False
        if touched_left:
            m_right = stage(xb, prepare(tb, end_tau, cv_end))
        else:
            m_right = m_left
        if math.isfinite(m_right) and math.isfinite(m_left):
            ms[-1] = m_right
            if mls is not None:
                mls[-1] = m_left
            if windows:
                # Sealed once its closing derivative is final.
                pieces.append(_piece_integral(ta, xa, ms[-2], tb, xb, mends[-1]))
        else:
            diverged = True
            div_time = tb
            break
        j += 1

    traj = Trajectory(
        mesh[:len(xs)], np.array(xs), np.array(ms), hist,
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
    segments = breaking_points(s, t1, _mesh_lags(rhs.sites))
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
