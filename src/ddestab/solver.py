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

Every delayed read lands in a finished step: no step may exceed the lag
of the near end of any read, a point lag or the upper end of a
fixed-width window, at any stage time. The one exception is the leading
sliver of a window that reaches the current time (or whose start moves):
those reads use a within-step linear predictor, which keeps the scheme
explicit. ``allow_extrapolation=True`` lifts the rule and extends the same
predictor to every read, for equations whose lag genuinely dips below the
step.

Each right-hand side is split into a time part (coefficients, forcing),
its delayed reads, and a state part (the arithmetic on x). The time part is
planned once per run, at t0 and at every stage time at once, from the
coefficient objects themselves and bit for bit their scalar ``value``; a
step reads its row, a segment a slice. The reads are taken once per
distinct stage time: the midpoint serves k2 and k3, the step end k4 and
both node slopes; when the node slopes must read again, they keep the step
end's time part. The state part is split again: a delayed part that needs
no x(t) and a current part that finishes it with the state, so k2 and k3
share one delayed part as well.

Terms that read one site (a positive and a negative term at one lag, two
distributed terms over one window) share it, so each distinct delay and
each distinct window (start and kernel) is read once per stage time. Where
each distinct delay, a point read's or a window's start, lands at t0 and at
both stage times of every step is found once per run, in time order: t -
lag at a constant lag, one call per time at a general delay, up to the
first call that raises. The rule above is checked on those landings before
the first step. Each window is placed once per run as well, at t0, at the
midpoint and at the step end before and after the push: its ends, the steps
that hold them, its history span, the coefficients of the predictor sliver
and the Hermite-integral weights of its head and tail. A window read is
then a few products and the sum of the whole steps between, in the
operations and order of the closed-form integral, hence bit for bit; the
tail of the last finished step is formed once per state and shared by every
window read at it. From any step j, the method of steps (Bellen and Zennaro
2003, ch. 3) settles a segment of steps at once: the steps up to the first
one that reads step j or later or has a slot only the scalar read can read.
Its reads land in finished steps or before t0 in a constant history, so the
segment interpolates them elementwise, with Hermite weights found once per
run, in the same operations and order as one scalar read, hence bit for
bit. The time part is then a slice of the plan and the delayed part is
formed on arrays. When the state part ignores the current state (every term
delayed, as in the removal form of ``ex51``), that gives k2 = k3 and k4,
each step's k1 is the previous k4, and the nodes are the running sum
``np.cumsum`` of the increments. When it reads x(t), the RK4 recurrence
runs over floats, fed one list per entry of the delayed part. The
right-hand side declares the affine shape of its current part where it has
one: a linear equation whose one x(t) term closes the sum (``eq3``,
``eq26``) is d0 + d1 x(t), forcing included, and the unforced production
form with both Hill reads delayed (``ex5``) is d0 (dp - x(t)). Each shape
has its own loop with the stage arithmetic written out; any other (a term
after the x(t) term, x(t) inside the Hill term, a forced production form)
calls the current part at each stage. Either way these are the scalar
loop's own IEEE operations in its order, and its rules for ending a run.
The pass hands a step back to the scalar loop when its node or node slope
leaves the finite range or the divergence threshold, and the rest of its
segment when its array part raises (an overflowing x^n, a floating-point
exception).

Runs that share their start time, end, step and delayed reads are columns
of one integration (``integrate_columns``) and share its geometry
(``_Geometry``): the mesh, plan times, landings, step check, window
placements and the segments a pass may settle. The geometry last built is
kept for the next call with the same arguments when every site lands
without calling the caller's code, so the runs of a sweep share one. A
column (``_Column``) owns its nodes, plan, delayed part, float recurrence
and scalar step. The loop over segments (``_integrate_group``) gathers the
reads of every column with a plan at once, and its pass (``_settle_pass``)
sums the increments of every column that ignores x(t) in one
``np.cumsum``. Then each column takes scalar steps up to the segment's end:
all of them when it has no plan or its pass raised, and the next one,
which ends its run, when its pass stopped short. A run of steps that no
pass can settle is one segment of scalar steps. So a column does the work
and gets the bits of its run alone. ``integrate`` is one column.

Segments are settled in one pass when they hold at least ``_BLOCK_STEPS``
steps; shorter ones cost more than they save. The scalar read and the
scalar step remain the reference for everything a segment cannot settle
ahead of time: windows, reads near t0 (two-sided under a start jump) or at
the last finished node, histories other than a constant one, extrapolated
reads, divergence, and all steps when the lag is short. The site read, in
turn, is the reference for every window read placement cannot know: a
window shorter than 1e-14, a start from the first time where it raises,
a window that reaches past the last node where that raises.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections import ChainMap
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    "integrate_columns",
    "fundamental_solution",
    "Lemma3Report",
    "verify_lemma3",
]

DEFAULT_DIVERGENCE_THRESHOLD = 1e12
# Deepest tracked sum of lags: RK4's order plus one, a level of margin.
_LEVELS = 5
# A segment of steps is settled in one pass only when it holds at least this
# many steps: the pass pays some fifteen numpy calls for the segment's reads
# and some thirty more to settle its steps. Per column (one run alone) it
# breaks even with the scalar loop at about 5 steps on eq26 and eq3 runs,
# 4-5 on ex5 runs and 5-6 on ex51 runs, and gains 1.1-2.3x at 8; 10 leaves
# a margin.
# Columns of one integration share the reads' calls and the running sum,
# so they break even sooner.
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


def _hermite_integral_weights(ta, tb, u, v):
    """h and the weights of xa, ma, xb and mb in the integral over [u, v] of
    the Hermite piece on [ta, tb], divided by h (arrays welcome)."""
    h = tb - ta
    p = (u - ta) / h
    q = (v - ta) / h
    # Differences of the powers of the two ends, for the basis primitives.
    d1 = q - p
    d2 = q * q - p * p
    d3 = q * q * q - p * p * p
    d4 = q * q * q * q - p * p * p * p
    return (
        h,
        0.5 * d4 - d3 + d1,
        (0.25 * d4 - 2.0 / 3.0 * d3 + 0.5 * d2) * h,
        d3 - 0.5 * d4,
        (0.25 * d4 - d3 / 3.0) * h,
    )


def _hermite_integral(ta, xa, ma, tb, xb, mb, u, v):
    """Integral over [u, v] of the Hermite piece on [ta, tb], in closed form."""
    h, a, b, c, d = _hermite_integral_weights(ta, tb, u, v)
    return h * (a * xa + b * ma + c * xb + d * mb)


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

    ``coeffs`` is the time part: one entry per value it holds, a Coefficient
    or a function of t (forcing). ``sites`` lists what the equation reads from
    the past, one slot per distinct read: the delays, each read at one
    delayed time, then the windows (``_Window``), each averaged over. Terms
    that read one site (a positive and a negative term at one lag, two
    distributed terms over one window) share its slot. The state part comes
    in two pieces. ``delayed(cv, xv)`` does all the arithmetic that needs no
    x(t), given the time part's values ``cv`` and one value ``xv[k]`` per
    site; ``current(y, d)`` finishes it with the state y. ``current`` is None
    when the state part ignores y, and ``delayed`` then gives the derivative
    itself. Given arrays (one entry per stage time) in place of the numbers,
    ``delayed`` does the same IEEE operations element by element, and gives
    the values ``current`` takes, one array each. What the integrator needs to
    know of the reads (the lags that bound the step and seed the mesh, the
    windows) it derives from the sites, and it places each site's reads,
    windows included, once per run.

    ``shape`` declares the affine form of ``current``, so that a pass runs
    the float recurrence with the stage arithmetic written out (``_settle``):
    "sum" when ``current(y, d)`` is ``d[0] + d[1] * y`` (a linear equation
    whose one x(t) term closes the sum), "product" when it is
    ``d[0] * (d[1] - y)`` (the production form with both Hill reads
    delayed and no forcing). None leaves the recurrence to call ``current``.
    """

    coeffs: tuple
    sites: tuple
    delayed: Callable
    current: Optional[Callable]
    shape: Optional[str] = None

    def fn(self, t, y, read, integral):
        """The derivative at (t, y), reading x through ``read``/``integral``."""
        xv = [_site_value(site, t, read, integral) for site in self.sites]
        d = self.delayed([f(t) for f in _time_fns(self.coeffs)], xv)
        return d if self.current is None else self.current(y, d)


def _site_value(site, t, read, integral):
    if isinstance(site, _Window):
        return _window_average(site, t, read, integral)
    return read(site(t))


def _time_fns(coeffs) -> list:
    """The scalar function of each time-part entry: a coefficient's ``value``, or the entry."""
    return [f.value if isinstance(f, tf.Coefficient) else f for f in coeffs]


def _plan(coeffs, times: np.ndarray, waves: Optional[dict] = None) -> np.ndarray:
    """The time part at each of ``times``: one row per time, one column per entry.

    Built from the coefficients themselves, bit for bit what their scalar
    ``value`` gives at each time. A constant is filled in; a sin^2 part is
    ``amplitude * s2`` on arrays, with s2 = ``math.sin(w * t + phase) ** 2``
    one time at a time (numpy's sin and square need not agree with
    ``math.sin`` and Python's ``**`` in the last bit), once per distinct
    (w, phase) in ``waves``; a step part is its level at ``searchsorted``.
    Scalings, sums and differences combine their parts in their own
    operations and order. Everything else (a class of the caller's own, a
    forcing) goes through its scalar function.
    """
    waves = {} if waves is None else waves
    return np.stack([_planned(f, times, waves) for f in coeffs], axis=-1)


def _planned(f, times: np.ndarray, waves: dict) -> np.ndarray:
    kind = type(f)
    if kind is tf.ConstantCoefficient:
        return np.full(times.shape, f.v, dtype=float)
    if kind is tf.SinSqCoefficient:
        key = (f.angular_freq, f.phase)
        if key not in waves:
            sines = map(math.sin, (f.angular_freq * times + f.phase).tolist())
            waves[key] = np.fromiter(map(pow, sines, itertools.repeat(2)), float, times.size)
            waves[key].setflags(write=False)  # a memoized geometry shares it across runs
        return f.amplitude * waves[key]
    if kind is tf.PiecewiseConstantCoefficient:
        return np.array(f.values)[np.searchsorted(f.breakpoints, times, "right")]
    if kind is tf.ScaledCoefficient:
        return f.factor * _planned(f.inner, times, waves)
    if kind is tf.SumCoefficient:
        return _summed([_planned(c, times, waves) for c in f.terms])
    if kind is tf._LinearCombination:
        return _summed([w * _planned(c, times, waves) for w, c in f.parts])
    fn = f.value if isinstance(f, tf.Coefficient) else f
    return np.fromiter(map(fn, times.tolist()), float, times.size)


def _summed(parts: list) -> np.ndarray:
    """Python's ``sum`` of the parts at each time, as a sum's ``value`` adds them."""
    return np.fromiter(map(sum, zip(*(p.tolist() for p in parts))), float, parts[0].size)


@dataclass(frozen=True)
class _Window:
    """What a distributed term averages x over: [w(t), t], or [w(t), w(t) + width] cut at t."""

    window_start: tf.Delay
    kernel: cr.UniformKernel


def _ends(site) -> tuple:
    """The constant lags of the far and the near end of what ``site`` reads,
    None where an end is not constant. A point lag is both ends; the near
    end of a window that reaches t, or whose start moves, is 0."""
    if not isinstance(site, _Window):
        lag = site.lag if isinstance(site, tf.ConstantLag) else None
        return lag, lag
    start, width = site.window_start, site.kernel.width
    if not isinstance(start, tf.ConstantLag):
        return None, 0.0
    if width is None or width >= start.lag - 1e-12:
        return start.lag, 0.0
    return start.lag, start.lag - width


def _landings(delay, times: np.ndarray) -> np.ndarray:
    """Where ``delay`` lands at each of ``times``, given in time order: t - lag
    at a constant lag, else one call per time, NaN from the first call that
    raises on (the site read meets the error again at its own step)."""
    if isinstance(delay, tf.ConstantLag):
        return times - delay.lag
    lands = []
    try:
        for t in times.tolist():
            lands.append(delay(t))
    except Exception:
        pass
    out = np.full(times.size, math.nan)
    out[:len(lands)] = lands
    return out


def _window_average(term: _Window, t: float, read, integral) -> float:
    """Average of x over the window at time t, from its exact integral."""
    lo = term.window_start(t)
    hi = t
    if term.kernel.width is not None:
        hi = min(lo + term.kernel.width, t)
    length = hi - lo
    if length < 1e-14:
        return read(lo)
    return integral(lo, hi) / length


def _slots(reads):
    """Each read's site index (-1 for x(t) itself) and the distinct sites, in order."""
    at, sites = [], []
    for d in reads:
        if isinstance(d, IdentityDelay):
            at.append(-1)
            continue
        if d not in sites:
            sites.append(d)
        at.append(sites.index(d))
    return at, sites


def _forcing_part(forcing):
    return tf.constant(0.0) if forcing is None else (lambda t: float(forcing(t)))


def _make_linear_rhs(eq: cr.LinearDelayEquation, forcing):
    # Every term adds w(t) * x in turn: w = -a for a positive term, +b for a
    # negative one, and -sign * weight for a window (``total -= s * avg`` and
    # ``total += (-s) * avg`` give the same bits).
    terms = eq.positive_terms + eq.negative_terms
    signed = [(-1.0, term.coeff) for term in eq.positive_terms]
    signed += [(1.0, term.coeff) for term in eq.negative_terms]
    distributed = eq.distributed_terms
    signed += [(-term.sign, term.total_weight) for term in distributed]
    at, sites = _slots([term.delay for term in terms]
                       + [_Window(term.window_start, term.kernel) for term in distributed])
    # ``delayed`` sums the terms before the first x(t), after the forcing,
    # and forms w or w * x of each term after it; ``current`` adds those in
    # order, times y where the term reads x(t).
    # Each term is (s, k, i): its sign, its site and its time-part entry cv[i].
    first = at.index(-1) if -1 in at else len(at)
    parts = [(s, k, i) for i, ((s, _), k) in enumerate(zip(signed, at), 1)]
    head, rest = parts[:first], parts[first:]
    later = [(i, k < 0) for i, (_, k, _) in enumerate(rest, 1)][1:]  # d[i] after the first x(t)

    def delayed(cv, xv):
        total = cv[0]
        for s, k, i in head:
            total = total + s * cv[i] * xv[k]  # not in place: cv[0] may be a view of the plan
        if not rest:
            return total
        return [total] + [s * cv[i] if k < 0 else s * cv[i] * xv[k] for s, k, i in rest]

    def current(y, d):
        total = d[0] + d[1] * y  # rest opens with the first x(t) term
        for i, times_y in later:
            total += d[i] * y if times_y else d[i]
        return total

    coeffs = (_forcing_part(forcing),) + tuple(c for _, c in signed)
    return _Rhs(coeffs, tuple(sites), delayed, current if rest else None,
                "sum" if len(rest) == 1 else None)


def _make_model_rhs(model, rate, gamma, slots, forcing):
    """rate(t) [_production_term(x_a, x_b) - gamma x_c] plus forcing.

    ``slots`` holds the site indices of a, b and c (-1 for x(t)) and the
    sites; a None ``gamma`` clears x_c itself. ``delayed`` forms the
    production term when both its reads are delayed, and the whole
    derivative when x_c is delayed too.
    """
    (a, b, c), sites = slots
    split = min(a, b) >= 0
    coeffs = (rate,) if forcing is None else (rate, _forcing_part(forcing))
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

    shape = "product" if split and c < 0 and gamma is None and forcing is None else None
    return _Rhs(coeffs, tuple(sites), delayed, None if min(a, b, c) >= 0 else current, shape)


def _make_rhs(target, forcing):
    if isinstance(target, cr.LinearDelayEquation):
        return _make_linear_rhs(target, forcing)
    if isinstance(target, md.MackeyGlassRemoval):
        (g, h), sites = _slots((target.g, target.h))
        return _make_model_rhs(target, target.r, target.gamma, ((g, g, h), sites), forcing)
    if isinstance(target, md.MackeyGlassProduction):
        (p, q), sites = _slots((target.p, target.q))
        return _make_model_rhs(target, target.s, None, ((p, q, -1), sites), forcing)
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
    pieces = [np.array([t0], dtype=float)]
    for a, b in zip(bps[:-1], bps[1:]):
        seg = b - a
        if seg <= step * 1e-6 and len(pieces) > 1:
            # Merge breaking points closer than a sliver of the step.
            pieces[-1][-1] = b
            continue
        n = max(1, int(math.ceil(seg / step - 1e-9)))
        pieces.append(a + seg * np.arange(1, n + 1) / n)  # a + seg * k / n, k = 1..n
    return np.concatenate(pieces)


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
    exceeding ``divergence_threshold`` or turning non-finite. This is the
    one-column case of ``integrate_columns``.
    """
    (out,) = integrate_columns(
        [target], [history], t1, step=step, t0=t0, initial_values=[initial_value],
        forcing=forcing, allow_extrapolation=allow_extrapolation,
        divergence_threshold=divergence_threshold, on_divergence=on_divergence,
    )
    if isinstance(out, Exception):
        raise out
    return out


def integrate_columns(
    targets: Sequence,
    histories: Sequence,
    t1: float,
    *,
    step: float = 0.01,
    t0: Optional[float] = None,
    initial_values: Optional[Sequence] = None,
    forcing: Optional[Callable[[float], float]] = None,
    allow_extrapolation: bool = False,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    on_divergence: str = "raise",
) -> list:
    """``integrate`` each target from its history and initial value, as columns of one run.

    Returns, per target, its Trajectory or the exception ``integrate``
    raises for it, a DivergenceError included. Targets whose start time and
    sites agree share one mesh, one placement of their reads, the sin calls
    of their time plans and one loop over segments: each pass gathers the
    reads of every column with a plan at once and settles, in one running
    sum, the steps of every column whose state part ignores x(t); each
    column then takes scalar steps up to the segment's end. Each column
    keeps its own ``delayed``, its own float recurrence and its own scalar
    steps, so it gets the bits ``integrate`` gives it alone.

    The geometry (mesh, landings, placements and the sin calls of the
    plans) is also reused across calls: the last one built is returned
    again for the same start, end, step, sites, ``allow_extrapolation``
    and constant-history flag, when every site is a ``ConstantLag`` point
    read or a window starting at one. A site at a ``GeneralDelay`` builds
    its geometry anew on every call, so its delay is called, and checked,
    on every run.
    """
    if initial_values is None:
        initial_values = [None] * len(targets)
    if not len(targets) == len(histories) == len(initial_values):
        raise ConfigurationError("need one history and one initial value per target")
    results: list = [None] * len(targets)
    groups: list = []  # ((t0, sites), [(index, rhs, history, initial value)])
    for c, (target, history, x0) in enumerate(zip(targets, histories, initial_values)):
        try:
            start = _start_time(target, t1, step, t0, divergence_threshold, on_divergence)
            rhs = _make_rhs(target, forcing)
            column = (c, rhs, _as_history(history), x0)
        except Exception as exc:
            results[c] = exc
            continue
        key = (start, rhs.sites)
        for known, members in groups:
            if known == key:
                members.append(column)
                break
        else:
            groups.append((key, [column]))
    for (start, sites), members in groups:
        try:
            geo = _geometry(start, t1, step, sites, allow_extrapolation,
                            all(isinstance(hist, ConstantHistory) for _, _, hist, _ in members))
        except Exception as exc:  # the step check, shared by the group
            for c, *_ in members:
                results[c] = exc
            continue
        _integrate_group(geo, members, results, divergence_threshold, on_divergence)
    return results


def _start_time(target, t1, step, t0, divergence_threshold, on_divergence) -> float:
    """The run's start time, once its arguments check out."""
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
    return t0


def _placed_window(lo, t, last, width, mesh, t0, extrapolate) -> list:
    """One window's reads at the times ``t`` from its lower ends ``lo``, with
    the last finished node at ``last``: per read a record, or None where only
    the site read can read it (a window shorter than 1e-14, a lower end that
    is not finite, a window reaching past ``last`` where that raises).

    A record follows ``_window_average`` and ``integral`` branch for branch,
    with their numbers worked out ahead: the length; the history span where
    the window starts before t0 (else None); whether it reaches past the
    last node, with the two coefficients of the predictor sliver; the step
    holding the lower end (-1 when no finished step is read) and h and the
    Hermite-integral weights of the head (of the whole part when both ends
    lie in that step); the step holding the upper end, with h and the
    weights of the tail, or None where the tail is the last finished step
    whole, which every read at one state shares.
    """
    with np.errstate(all="ignore"):
        hi = t if width is None else np.where(t < lo + width, t, lo + width)
        length = hi - lo
        early = lo < t0
        lo_in = np.where(early, t0, lo)
        over = hi > last
        a = np.where(last > lo_in, last, lo_in)
        hi_in = np.where(over, last, hi)
        known = np.isfinite(lo) & (length >= 1e-14)
        if not extrapolate:
            known &= ~(hi > last + 1e-12 * np.maximum(1.0, np.abs(last)))
        top = mesh.size - 2
        i = np.minimum(np.maximum(np.searchsorted(mesh, lo_in, "right") - 1, 0), top)
        jj = np.minimum(np.maximum(np.searchsorted(mesh, hi_in, "left") - 1, 0), top)
        dense = hi_in > lo_in
        single = i == jj
        head = _hermite_integral_weights(mesh[i], mesh[i + 1], lo_in,
                                         np.where(single, hi_in, mesh[i + 1]))
        tail = _hermite_integral_weights(mesh[jj], mesh[jj + 1], mesh[jj], hi_in)
        own = dense & ~single & (hi_in != last)
        spans = (lo, np.where(t0 < hi, t0, hi))
        length, *rest = (f.tolist() for f in (length, over, hi - a, 0.5 * (a + hi) - last,
                                              np.where(dense, i, -1), *head, jj))
    records = list(zip(length, _sparse(early, spans), *rest, _sparse(own, tail)))
    for j in np.flatnonzero(~known).tolist():
        records[j] = None
    return records


def _sparse(mask, parts) -> list:
    """Per entry of ``mask``, the tuple of ``parts`` there, or None where it is False."""
    out = [None] * mask.size
    at = np.flatnonzero(mask)
    for j, values in zip(at.tolist(), zip(*(p[at].tolist() for p in parts))):
        out[j] = values
    return out


def _settle(shape, current, xa, k1, hs, d, limit) -> tuple:
    """The RK4 recurrence of a pass over floats, from the node xa and its
    slope k1 over steps of widths ``hs``: the nodes and node slopes it
    settles, up to the first node with ``not abs(x) <= limit`` or slope that
    is not finite, or the first step whose ``current`` raises.

    ``d`` is the delayed part, per entry its values at the m midpoints and
    then the m step ends. A declared ``shape`` (see ``_Rhs``) runs its own
    loop with the arithmetic of ``current`` written out; any other calls
    ``current`` with each stage's entries. Either way these are the scalar
    loop's IEEE operations in its order.
    """
    m = len(hs)
    nodes_x, slopes = [], []
    if shape == "sum":
        c0, c1 = d
        for h, a0, a1, b0, b1 in zip(hs, c0, c1, c0[m:], c1[m:]):
            k2 = a0 + a1 * (xa + 0.5 * h * k1)
            k3 = a0 + a1 * (xa + 0.5 * h * k2)
            k4 = b0 + b1 * (xa + h * k3)
            xa = xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not abs(xa) <= limit:
                break
            k1 = b0 + b1 * xa
            if not math.isfinite(k1):
                break
            nodes_x.append(xa)
            slopes.append(k1)
    elif shape == "product":
        rate, p = d
        for h, ra, pa, rb, pb in zip(hs, rate, p, rate[m:], p[m:]):
            k2 = ra * (pa - (xa + 0.5 * h * k1))
            k3 = ra * (pa - (xa + 0.5 * h * k2))
            k4 = rb * (pb - (xa + h * k3))
            xa = xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not abs(xa) <= limit:
                break
            k1 = rb * (pb - xa)
            if not math.isfinite(k1):
                break
            nodes_x.append(xa)
            slopes.append(k1)
    else:
        rows = list(zip(*d))
        try:
            for h, at_mid, at_end in zip(hs, rows, rows[m:]):
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
    return nodes_x, slopes


class _Geometry:
    """What the columns of one integration share: the mesh and where every
    read lands, fixed before the first step from t0, t1, the step, the
    sites, ``allow_extrapolation`` and ``constant`` (whether every column's
    history is a constant one). ``waves`` holds the sin^2 of each
    (frequency, phase) at ``times``, shared by the columns' time plans: those
    of the first call that plans one (see ``_integrate_group``).
    """

    def __init__(self, t0, t1, step, sites, allow_extrapolation, constant):
        self.t0, self.step = t0, step
        self.windows = windows = [s for s in sites if isinstance(s, _Window)]
        ends = [_ends(site) for site in sites]
        self.mesh = mesh = _build_mesh(t0, t1, step,
                                       [lag for end in ends for lag in end if lag is not None])
        self.nodes = mesh.tolist()
        self.steps = steps = mesh.size - 1
        self.widths = widths = np.diff(mesh)
        stage_times = np.stack((mesh[:-1] + 0.5 * widths, mesh[1:]))
        # Where the time parts are planned and where each distinct delay, a point
        # read's or a window's start, lands: at t0, then at the midpoint and the
        # end of every step in time order.
        self.times = times = np.concatenate(([t0], stage_times.T.ravel()))
        self.waves = {}
        delays = [site.window_start if isinstance(site, _Window) else site for site in sites]
        distinct = {k: _landings(d, times) for k, d in enumerate(delays) if delays.index(d) == k}
        lands = [distinct[delays.index(d)] for d in delays]
        # The point reads at the midpoint ([0]) and the end ([1]) of every step;
        # NaN from where a delay raises leaves the slot to the site read. Windows,
        # placed below, keep their slots NaN so that no segment takes them. No
        # step may exceed a positive near end (a window's near end is 0 where the
        # predictor serves it) or a general delay's least lag over the stage
        # times it lands at.
        tau = np.full(stage_times.shape + (len(sites),), math.nan)
        points = len(sites) - len(windows)
        for k in range(points):
            tau[..., k] = lands[k][1:].reshape(-1, 2).T
        lags = [near for _, near in ends if near]
        lags += [float(np.fmin.reduce(stage_times - tau[..., k], axis=None, initial=math.inf))
                 for k, (_, near) in enumerate(ends) if near is None]
        min_lag = min(lags, default=math.inf)
        if min_lag < step - 1e-12 and not allow_extrapolation:
            raise ConfigurationError(
                "step %g exceeds the smallest positive lag %g; shrink the step "
                "or pass allow_extrapolation=True" % (step, min_lag)
            )

        hist_pad = 1e-9 * max(1.0, abs(t0))
        self.hist_lo, self.hist_hi = hist_lo, hist_hi = t0 - hist_pad, t0 + hist_pad
        self.extrapolate = allow_extrapolation or any(near == 0.0 for _, near in ends)
        # The point reads' places in the scalar loop, at t0 and step by step.
        self.start_point = [float(lo[0]) for lo in lands[:points]]
        self.point = np.ascontiguousarray(tau[..., :points].transpose(1, 0, 2))
        # Every window read, placed once from the landings of its start (see
        # ``_placed_window``): the records at t0, and per step those of its
        # midpoint, of its end before the push and of its end after it, one
        # per window in order.
        self.start_win, self.placed, self.whole = (), [((), (), ())] * steps, None
        if windows:
            # The four uses end to end, each with its stage times and last finished nodes.
            at = np.concatenate(([t0], stage_times[0], stage_times[1], stage_times[1]))
            last = np.concatenate((mesh[:1], mesh[:-1], mesh[:-1], mesh[1:]))
            uses = [_placed_window(np.concatenate((lo[:1], lo[1::2], lo[2::2], lo[2::2])), at,
                                   last, w.kernel.width, mesh, t0, self.extrapolate)
                    for w, lo in zip(windows, lands[points:])]
            self.start_win = tuple(use[0] for use in uses)
            self.placed = list(zip(*(zip(*(use[1 + u * steps:1 + (u + 1) * steps] for use in uses))
                                     for u in range(3))))
            # The weights of each step's integral whole: the tail a window read
            # shares when its window reaches the last finished node.
            self.whole = list(zip(*(w.tolist() for w in _hermite_integral_weights(
                mesh[:-1], mesh[1:], mesh[:-1], mesh[1:]))))

        # Method of steps: a segment of steps whose reads all land in finished
        # steps, or before t0 in a constant history, gets them in one numpy pass,
        # bit for bit what ``read`` returns. ``reach`` is the running maximum of
        # the step that a read of each step, or of an earlier one, lands in: the
        # steps from j on read only finished steps up to the first whose reach is
        # j or more. ``unclean`` lists where each run of steps with a slot only
        # ``read`` can read (NaN in ``tau``, a read near t0, or one before t0 in
        # a history other than a constant one) starts and ends, in turn, then
        # the number of steps.
        self.step_of = step_of = np.searchsorted(mesh, tau, "right") - 1  # the step of each read
        later = tau > hist_hi
        clean = later | ((tau < hist_lo) & constant)
        edges = np.diff(~clean.all(axis=(0, 2)), prepend=False, append=False)
        self.unclean = np.flatnonzero(edges).tolist() + [steps]
        landed = np.where(later, step_of, -1).max(axis=(0, 2), initial=-1)
        self.reach = np.maximum.accumulate(landed).tolist()
        # The steps from ``late`` on read nothing before t0.
        self.early = early = tau < hist_lo
        self.late = int(np.flatnonzero(early.any(axis=(0, 2)))[-1]) + 1 if early.any() else 0
        np.clip(step_of, 0, steps - 1, out=step_of)
        with np.errstate(all="ignore"):
            self.weights = _hermite_weights(mesh[step_of], mesh[step_of + 1], tau)
        # Runs may share the geometry (``_geometry``), so no column may write to it.
        for shared in (mesh, widths, times, self.point, step_of, *self.weights, early):
            shared.setflags(write=False)


def _geometry(t0, t1, step, sites, allow_extrapolation, constant) -> _Geometry:
    """The ``_Geometry`` of these arguments: the one last built when every
    site lands without calling the caller's code (point reads at a
    ``ConstantLag`` and windows that start at one), else a new one, so that a
    general delay is called, and checked, on every run."""
    if all(type(s.window_start if isinstance(s, _Window) else s) is tf.ConstantLag for s in sites):
        # 0.0 == -0.0 as a key, but a mesh from -0.0 holds other bits.
        signs = (math.copysign(1.0, t0), math.copysign(1.0, t1))
        return _shared_geometry(t0, t1, step, sites, allow_extrapolation, constant, signs)
    return _Geometry(t0, t1, step, sites, allow_extrapolation, constant)


# Size 1: the runs of a sweep's table and bisection share one geometry, and
# simulate never repeats one. Typed, since an int t0 and a float one give
# Trajectories other bits (the divergence time of a run that ends at t0).
@lru_cache(maxsize=1, typed=True)
def _shared_geometry(t0, t1, step, sites, allow_extrapolation, constant, signs) -> _Geometry:
    return _Geometry(t0, t1, step, sites, allow_extrapolation, constant)


class _Column:
    """One run over a geometry: its nodes, its time plan and its scalar step.

    ``div_time`` is t0 when the run ends at its start slope, and the time
    it diverged at once a step ends it."""

    __slots__ = ("geo", "index", "hist", "before", "jump0", "want_left", "touched_end",
                 "touched_left", "tail", "xs", "ms", "mls", "pieces", "rhs", "table", "delayed",
                 "current", "limit", "div_time")

    def __init__(self, geo, index, rhs, hist, x0, limit, waves):
        self.geo, self.index, self.hist, self.limit = geo, index, hist, limit
        self.before = hist.const if isinstance(hist, ConstantHistory) else math.nan
        h0 = float(hist.value(geo.t0))
        x0 = h0 if x0 is None else float(x0)
        # A start-time jump (initial value differing from the history's end)
        # makes delayed reads at exactly t0 two-sided: by default they resolve
        # to x0, except while evaluating quantities tied to the left limit.
        self.jump0 = abs(x0 - h0) > 1e-15 * max(1.0, abs(x0))
        self.want_left = False
        # Whether the reads since the last ``prepare`` used the last node or the
        # predictor (they change once the step is pushed), or the left limit of
        # the start-time jump (they change with ``want_left``).
        self.touched_end = self.touched_left = False
        # The integral over the last finished step whole, once a window read at
        # the current state has formed it; each step and each push clear it.
        self.tail = None
        # The finished nodes are nodes[:len(xs)]. The predictor past the last one
        # serves only a step not yet pushed: the node-slope reads after a push land
        # at or before the new node (a GeneralDelay returns min(v, t), windows end at t).
        self.xs, self.ms, self.mls = [x0], [0.0], [0.0]
        self.pieces = []  # whole-step integrals, for distributed windows
        self.rhs, self.delayed, self.current = rhs, rhs.delayed, rhs.current
        # The time part is planned at t0 (the start slope) and at every stage
        # time at once; the scalar loop reads one row at its step, a pass a
        # slice (midpoints [0], step ends [1]).
        try:
            table = _plan(rhs.coeffs, geo.times, waves)
            cv0 = table[0].tolist()
            self.table = np.ascontiguousarray(table[1:].reshape(geo.steps, 2, -1).transpose(1, 0, 2))
        except Exception:
            # No plan: the scalar loop evaluates each stage time through the
            # scalar functions, and meets the error, if any, at its own step.
            cv0 = self.table = None
        self.div_time = None
        self.ms[0] = self.mls[0] = self.stage(x0, self.prepare(geo.t0, geo.start_point,
                                                               geo.start_win, cv0))
        if not (abs(x0) <= limit and math.isfinite(self.ms[0])):
            # The run ends at t0, with the slope 0 on record.
            self.div_time, self.ms[0] = geo.t0, 0.0

    def read(self, tau: float) -> float:
        geo = self.geo
        if tau < geo.hist_lo:
            return float(self.hist.value(tau))
        if self.jump0 and self.want_left and tau <= geo.hist_hi:
            self.touched_left = True
            return float(self.hist.value(min(tau, geo.t0)))
        nodes, xs = geo.nodes, self.xs
        n = len(xs)
        last = nodes[n - 1]
        if tau <= last + 1e-12 * max(1.0, abs(last)):
            i = bisect.bisect_right(nodes, tau, 0, n) - 1
            if i >= n - 1:
                self.touched_end = True
                return xs[-1]
            if i < 0:
                return xs[0]
            return _hermite(nodes[i], xs[i], self.ms[i], nodes[i + 1], xs[i + 1], self.mls[i + 1], tau)
        if geo.extrapolate:
            self.touched_end = True
            return xs[-1] + (tau - last) * self.ms[-1]
        raise DomainError(
            "delayed read at %g ahead of completed segment end %g" % (tau, last)
        )

    def integral(self, lo: float, hi: float) -> float:
        geo, xs, ms = self.geo, self.xs, self.ms
        total = 0.0
        if lo < geo.t0:
            total = _history_integral(self.hist, lo, min(hi, geo.t0), geo.step)
            lo = geo.t0
        last = geo.nodes[len(xs) - 1]
        if hi > last:
            if not geo.extrapolate and hi > last + 1e-12 * max(1.0, abs(last)):
                raise DomainError(
                    "window reaches %g ahead of completed segment end %g" % (hi, last)
                )
            # The predictor, integrated exactly over the sliver past the end.
            self.touched_end = True
            a = max(lo, last)
            total += (hi - a) * (xs[-1] + (0.5 * (a + hi) - last) * ms[-1])
            hi = last
        if hi > lo:
            # The last step is always an end step here, read from its nodes,
            # so only steps sealed below are summed.
            total += _dense_integral(geo.nodes, xs, ms, self.mls, self.pieces, lo, hi)
        return total

    def window(self, p) -> float:
        """A placed window read: ``_window_average`` through ``integral``,
        in their operations and order, from the record ``p``."""
        length, span, over, c1, c2, i, h, w0, w1, w2, w3, jj, own = p
        xs, ms, mls = self.xs, self.ms, self.mls
        total = 0.0
        if span is not None:
            total = _history_integral(self.hist, span[0], span[1], self.geo.step)
        if over:
            self.touched_end = True
            total += c1 * (xs[-1] + c2 * ms[-1])
        if i >= 0:
            part = h * (w0 * xs[i] + w1 * ms[i] + w2 * xs[i + 1] + w3 * mls[i + 1])
            if jj != i:
                if own is None and self.tail is not None:
                    end = self.tail
                else:
                    h, w0, w1, w2, w3 = self.geo.whole[jj] if own is None else own
                    end = h * (w0 * xs[jj] + w1 * ms[jj] + w2 * xs[jj + 1] + w3 * mls[jj + 1])
                    if own is None:
                        self.tail = end
                part = part + sum(self.pieces[i + 1:jj]) + end
            total += part
        return total / length

    def prepare(self, t, at, win, cv):
        """Time part and delayed part at stage time t; None if one overflows.

        The time part is ``cv``, a row of the plan, or evaluated here when
        the run has none. Each point slot is read at its place in ``at``,
        each window slot from its record in ``win``; either at the site
        where that is NaN or None.
        """
        self.touched_end = self.touched_left = False
        try:
            if cv is None:
                cv = [f(t) for f in _time_fns(self.rhs.coeffs)]
            xv = list(at)
            for k, a in enumerate(at):
                xv[k] = self.read(a if a == a else self.rhs.sites[k](t))
            for k, p in enumerate(win, len(at)):
                xv.append(self.window(p) if p is not None else
                          _window_average(self.rhs.sites[k], t, self.read, self.integral))
            return cv, self.delayed(cv, xv)
        except OverflowError:
            return None

    def stage(self, y, prep):
        if prep is None:
            return math.nan
        if self.current is None:
            return prep[1]
        try:
            return self.current(y, prep[1])
        except OverflowError:
            return math.nan

    def extend(self, nodes_x, slopes):
        self.xs.extend(nodes_x)
        self.ms.extend(slopes)
        self.mls.extend(slopes)

    def step(self) -> None:
        """RK4 step from the last finished node on floats; ``div_time`` is
        set when the run ends at its new node."""
        geo, xs, ms, mls, table = self.geo, self.xs, self.ms, self.mls, self.table
        j = len(xs) - 1
        mid_tau, end_tau = geo.point[j].tolist()
        mid_win, end_win, post_win = geo.placed[j]
        self.tail = None
        ta = geo.nodes[j]
        tb = geo.nodes[j + 1]
        h = tb - ta
        xa = xs[-1]
        k1 = ms[-1]
        # k2 and k3 share the stage time ta + h/2, so its time part and reads.
        at_mid = self.prepare(ta + 0.5 * h, mid_tau, mid_win,
                              None if table is None else table[0, j].tolist())
        k2 = self.stage(xa + 0.5 * h * k1, at_mid)
        k3 = self.stage(xa + 0.5 * h * k2, at_mid) if self.current is not None else k2
        # The step end can sit exactly where a delayed read crosses the
        # start-time jump; the step itself belongs to the left limit.
        self.want_left = True
        at_end = self.prepare(tb, end_tau, end_win, None if table is None else table[1, j].tolist())
        k4 = self.stage(xa + h * k3, at_end)
        xb = xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if math.isfinite(xb):  # and so is k4
            xs.append(xb)
            ms.append(k4)
            mls.append(k4)
            self.tail = None
        if not abs(xb) <= self.limit:
            self.div_time = tb
            return
        # The node slopes reuse k4's time part (a k4 that overflowed has
        # ended the run), and its reads unless one of them saw the step end,
        # which the push has just replaced.
        cv_end = at_end[0]
        if self.touched_end:
            at_end = self.prepare(tb, end_tau, post_win, cv_end)
            m_left = self.stage(xb, at_end)
        else:
            m_left = self.stage(xb, at_end) if self.current is not None else k4
        self.want_left = False
        if self.touched_left:
            m_right = self.stage(xb, self.prepare(tb, end_tau, post_win, cv_end))
        else:
            m_right = m_left
        if not (math.isfinite(m_right) and math.isfinite(m_left)):
            self.div_time = tb
            return
        ms[-1] = m_right
        mls[-1] = m_left
        if geo.windows:
            # Sealed once its closing derivative is final.
            self.pieces.append(_piece_integral(ta, xa, ms[-2], tb, xb, mls[-1]))

    def finish(self, divergence_threshold, on_divergence):
        """The run's Trajectory, or the DivergenceError that carries it."""
        geo, stop = self.geo, self.div_time
        traj = Trajectory(
            geo.mesh[:len(self.xs)], np.array(self.xs), np.array(self.ms), self.hist,
            diverged=stop is not None, divergence_time=stop,
            left_derivatives=np.array(self.mls) if self.jump0 and stop != geo.t0 else None,
        )
        if stop is None or on_divergence == "truncate":
            return traj
        if stop == geo.t0:
            return DivergenceError("derivative not finite at start time %g" % stop, traj)
        return DivergenceError("solution exceeded %g near t=%g" % (divergence_threshold, stop), traj)


def _settle_pass(geo, cols, j, stop, reads, limit) -> None:
    """Settle steps j to stop - 1 of each column from its segment reads
    (rows in ``cols``' order).

    The time part is a slice of the plan and ``delayed`` goes over
    arrays. When the state part ignores y, k3 = k2, each step's k1 is the
    previous k4, and the nodes are a running sum, for all such columns
    at once; otherwise ``_settle`` runs the recurrence step by step,
    column by column, in the loop of the column's shape. Either way they
    are the scalar loop's operations in its order. A column settles fewer
    steps when its next node or node slope is not finite or passes the
    threshold, and none when ``delayed`` raises on its arrays (an
    overflowing x^n, a floating-point exception); the scalar loop takes
    the rest of its segment.
    """
    m = stop - j
    summed = []  # (row, delayed part) of the columns summed at once
    with np.errstate(all="raise", under="ignore"):
        for r, col in enumerate(cols):
            try:
                d = col.delayed(col.table[:, j:stop].reshape(2 * m, -1).T,
                                reads[r].reshape(2 * m, -1).T)
            except Exception:
                continue  # the scalar loop meets it again at its own step
            if col.current is None:
                summed.append((r, d))
            else:
                col.extend(*_settle(col.rhs.shape, col.current, col.xs[-1], col.ms[-1],
                                    geo.widths[j:stop].tolist(), [v.tolist() for v in d], limit))
    if summed:
        d = np.array([d for _, d in summed])
        k2, k4 = d[:, :m], d[:, m:]
        ends = np.array([(cols[r].ms[-1], cols[r].xs[-1]) for r, _ in summed])
        k1 = np.concatenate((ends[:, :1], k4[:, :-1]), axis=1)
        # An overflow or a non-finite k4 leaves its node non-finite.
        incr = geo.widths[j:stop] / 6.0 * (k1 + 2.0 * k2 + 2.0 * k2 + k4)
        incr[:, 0] += ends[:, 1]
        xb = np.cumsum(incr, axis=1)
        ok = np.abs(xb) <= limit
        for (r, _), fine, xr, kr in zip(summed, ok, xb, k4):
            n = m if fine.all() else int(np.argmin(fine))
            cols[r].extend(xr[:n].tolist(), kr[:n].tolist())


def _integrate_group(geo, members, results, divergence_threshold, on_divergence) -> None:
    """Integrate ``members``, the columns of the geometry ``geo``, into ``results``."""
    # A node diverges unless |x| <= limit: past the threshold or not finite.
    limit = min(divergence_threshold, sys.float_info.max)
    # The first call that plans a sin^2 part fills the geometry's wave table;
    # a later call keeps a (frequency, phase) the table lacks in its own, so a
    # memoized geometry holds the waves of one call at most.
    waves = ChainMap({}, geo.waves) if geo.waves else geo.waves
    columns = []
    for c, rhs, hist, x0 in members:
        try:
            columns.append(_Column(geo, c, rhs, hist, x0, limit, waves))
        except Exception as exc:
            results[c] = exc

    # One loop over segments. A run of unclean steps (every step of a run
    # with a window) is one segment. From a clean step j the pass settles the
    # segment up to the next unclean step, then the first step that reads
    # step j or later, when it holds at least ``_BLOCK_STEPS`` steps, for
    # every column with a plan at once; a shorter segment is one step. Then
    # each column takes scalar steps up to the segment's end: all of them
    # when it has no plan, its ``delayed`` raised on its arrays or the
    # segment is unclean, and the next one, which ends its run, when the
    # pass stopped short.
    going = [col for col in columns if col.div_time is None]
    rows = 0  # the columns the node arrays below hold, in order
    j = 0
    while going and j < geo.steps:
        k = bisect.bisect_right(geo.unclean, j)
        stop = geo.unclean[k]  # the end of j's unclean run (k odd), else the next one's start
        if k % 2 == 0:  # a clean run; an unclean one (k odd) takes scalar steps only
            if stop - j >= _BLOCK_STEPS:
                stop = bisect.bisect_left(geo.reach, j, j, stop)
            if stop - j < _BLOCK_STEPS:
                stop = j + 1
            elif passing := [col for col in going if col.table is not None]:
                if rows != len(passing):  # columns only ever leave
                    rows, synced = len(passing), 0
                    # Each column's finished nodes, node slopes and closing slopes.
                    done = np.zeros((3, rows, geo.mesh.size))
                    before = np.array([col.before for col in passing], float)[:, None, None, None]
                    # Where each read's step starts in the flat node arrays,
                    # row r of which starts at r * mesh.size.
                    flat_of = geo.step_of + np.arange(rows)[:, None, None, None] * geo.mesh.size
                    flat_next = flat_of + 1
                n = j + 1  # finished nodes
                for r, col in enumerate(passing):
                    done[:, r, synced:n] = col.xs[synced:n], col.ms[synced:n], col.mls[synced:n]
                synced = n
                # Read values per column and site at the midpoints ([0]) and
                # the ends ([1]) of the segment's steps.
                at, nxt = flat_of[:, :, j:stop], flat_next[:, :, j:stop]
                w0, w1, w2, w3 = (w[:, j:stop] for w in geo.weights)
                xf, mf, ef = done.reshape(3, -1)
                with np.errstate(all="ignore"):
                    vals = w0 * xf[at] + w1 * mf[at] + w2 * xf[nxt] + w3 * ef[nxt]
                    reads = vals if j >= geo.late else np.where(geo.early[:, j:stop], before, vals)
                    _settle_pass(geo, passing, j, stop, reads, limit)
        for col in going:
            try:
                # While the column's next step is before ``stop``.
                while len(col.xs) <= stop and col.div_time is None:
                    col.step()
            except Exception as exc:
                results[col.index] = exc
        going = [col for col in going if col.div_time is None and results[col.index] is None]
        j = stop
    for col in columns:
        if results[col.index] is None:
            results[col.index] = col.finish(divergence_threshold, on_divergence)


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
    ends = [_ends(site) for site in rhs.sites]
    segments = breaking_points(s, t1, [lag for end in ends for lag in end if lag is not None])
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
