"""Numerical integration of scalar delay equations by the method of steps.

Classical fixed-step RK4 between breaking points, with cubic Hermite dense
output on every step. Delayed reads hit the prescribed history before the
start time and the dense output afterwards; distributed (window-averaged)
terms are evaluated by trapezoid quadrature on the same dense output.

The step size must not exceed the smallest positive lag, so every delayed
read lands in an already-completed segment. The only exception is the
leading sliver of a window that extends up to the current time: those
reads use a within-step linear predictor, which keeps the overall scheme
explicit. ``allow_extrapolation=True`` extends the same predictor to
concentrated reads, for equations whose lag genuinely dips below the step.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
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
    "history_sum",
    "Trajectory",
    "breaking_points",
    "integrate",
    "fundamental_solution",
    "Lemma3Report",
    "verify_lemma3",
    "superposition_check",
]

DEFAULT_DIVERGENCE_THRESHOLD = 1e12
_BREAKING_POINT_CAP = 200_000


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

_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))


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


def history_sum(histories: Sequence, weights: Optional[Sequence[float]] = None) -> FunctionHistory:
    """Pointwise weighted sum of histories (weights default to 1)."""
    hs = [_as_history(h) for h in histories]
    ws = [1.0] * len(hs) if weights is None else [float(w) for w in weights]
    if len(ws) != len(hs):
        raise ConfigurationError("one weight per history required")
    return FunctionHistory(lambda t: sum(w * h.value(t) for w, h in zip(ws, hs)))


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
    """Derivative evaluator ``fn(t, y, read)`` plus the delay structure.

    ``read_lags``/``general_reads`` describe concentrated delayed reads (they
    constrain the step); ``mesh_lags`` seed the breaking-point mesh;
    ``window_to_now`` flags distributed windows reaching the current time,
    whose leading sliver needs the within-step predictor.
    """

    fn: Callable
    read_lags: list
    general_reads: list
    mesh_lags: list
    window_to_now: bool


def _window_reaches_now(term: cr.DistributedTerm) -> bool:
    if term.kernel.width is None:
        return True
    if isinstance(term.window_start, tf.ConstantLag):
        return term.kernel.width >= term.window_start.lag - 1e-12
    return True  # variable window start: assume the worst


def _window_average(term: cr.DistributedTerm, t: float, read, qstep: float) -> float:
    """Trapezoid average of ``read`` over the term's window at time t."""
    lo = term.window_start(t)
    hi = t
    if term.kernel.width is not None:
        hi = min(lo + term.kernel.width, t)
    length = hi - lo
    if length < 1e-14:
        return read(lo)
    npts = max(2, int(math.ceil(length / qstep)) + 1)
    grid = np.linspace(lo, hi, npts)
    return float(_trapezoid([read(tau) for tau in grid], grid)) / length


def _make_linear_rhs(eq: cr.LinearDelayEquation, forcing, step: float):
    concentrated = []
    for term in eq.positive_terms:
        concentrated.append((term.coeff, term.delay, -1.0))
    for term in eq.negative_terms:
        concentrated.append((term.coeff, term.delay, +1.0))
    distributed = tuple(eq.distributed_terms)

    def fn(t, y, read):
        total = 0.0 if forcing is None else float(forcing(t))
        for coeff, delay, sgn in concentrated:
            xv = y if isinstance(delay, IdentityDelay) else read(delay(t))
            total += sgn * coeff.value(t) * xv
        for term in distributed:
            avg = _window_average(term, t, read, step)
            total -= term.sign * term.total_weight.value(t) * avg
        return total

    read_lags, general_reads = _delay_split(d for _, d, _ in concentrated)
    mesh_lags = list(read_lags)
    window_to_now = False
    for term in distributed:
        window_to_now = window_to_now or _window_reaches_now(term)
        if isinstance(term.window_start, tf.ConstantLag):
            mesh_lags.append(term.window_start.lag)
            if term.kernel.width is not None and term.window_start.lag > term.kernel.width:
                mesh_lags.append(term.window_start.lag - term.kernel.width)
    return _Rhs(fn, read_lags, general_reads, mesh_lags, window_to_now)


def _make_removal_rhs(model: md.MackeyGlassRemoval, forcing):
    def fn(t, y, read):
        x_g = y if isinstance(model.g, IdentityDelay) else read(model.g(t))
        x_h = y if isinstance(model.h, IdentityDelay) else read(model.h(t))
        total = model.r.value(t) * md.removal_reaction(model, x_g, x_h)
        if forcing is not None:
            total += float(forcing(t))
        return total

    return _model_rhs(fn, (model.g, model.h))


def _make_production_rhs(model: md.MackeyGlassProduction, forcing):
    def fn(t, y, read):
        x_p = y if isinstance(model.p, IdentityDelay) else read(model.p(t))
        x_q = y if isinstance(model.q, IdentityDelay) else read(model.q(t))
        total = model.s.value(t) * md.production_reaction(model, x_p, x_q, y)
        if forcing is not None:
            total += float(forcing(t))
        return total

    return _model_rhs(fn, (model.p, model.q))


def _model_rhs(fn, delays):
    read_lags, general_reads = _delay_split(delays)
    return _Rhs(fn, read_lags, general_reads, list(read_lags), False)


def _delay_split(delays):
    lags, general = [], []
    for d in delays:
        if isinstance(d, tf.ConstantLag) and d.lag > 0.0:
            lags.append(d.lag)
        elif isinstance(d, tf.GeneralDelay):
            general.append(d)
    return lags, general


def _make_rhs(target, forcing, step: float):
    if isinstance(target, cr.LinearDelayEquation):
        return _make_linear_rhs(target, forcing, step)
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

    rhs = _make_rhs(target, forcing, step)
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
    x0 = float(hist.value(t0)) if initial_value is None else float(initial_value)

    # A start-time jump (initial value differing from the history's end)
    # makes delayed reads at exactly t0 two-sided: by default they resolve
    # to x0, except while evaluating quantities tied to the left limit.
    jump0 = abs(x0 - float(hist.value(t0))) > 1e-15 * max(1.0, abs(x0))
    want_left = [False]

    ts: list = [t0]
    xs: list = [x0]
    ms: list = [0.0]  # right-limit node derivatives
    mls = [0.0] if jump0 else None  # left-limit node derivatives
    pending = [t0, x0, 0.0]  # anchor time, value, slope for leading-edge reads
    hist_pad = 1e-9 * max(1.0, abs(t0))

    def read(tau: float) -> float:
        if tau < t0 - hist_pad:
            return float(hist.value(tau))
        if jump0 and want_left[0] and tau <= t0 + hist_pad:
            return float(hist.value(min(tau, t0)))
        last = ts[-1]
        if tau <= last + 1e-12 * max(1.0, abs(last)):
            i = bisect.bisect_right(ts, tau) - 1
            if i >= len(ts) - 1:
                return xs[-1]
            if i < 0:
                return xs[0]
            mend = mls[i + 1] if mls is not None else ms[i + 1]
            return _hermite(ts[i], xs[i], ms[i], ts[i + 1], xs[i + 1], mend, tau)
        if allow_extrapolation or rhs.window_to_now:
            at, ax, am = pending
            return ax + (tau - at) * am
        raise DomainError(
            "delayed read at %g ahead of completed segment end %g" % (tau, last)
        )

    def safe_rhs(t, y):
        try:
            return rhs.fn(t, y, read)
        except OverflowError:
            return math.nan

    ms[0] = safe_rhs(t0, x0)
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
    for j in range(mesh.size - 1):
        ta = float(mesh[j])
        tb = float(mesh[j + 1])
        h = tb - ta
        xa = xs[-1]
        k1 = ms[-1]
        pending[0], pending[1], pending[2] = ta, xa, k1
        k2 = safe_rhs(ta + 0.5 * h, xa + 0.5 * h * k1)
        k3 = safe_rhs(ta + 0.5 * h, xa + 0.5 * h * k2)
        # The step end can sit exactly where a delayed read crosses the
        # start-time jump; the step itself belongs to the left limit.
        want_left[0] = True
        k4 = safe_rhs(tb, xa + h * k3)
        xb = xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(xb) or abs(xb) > divergence_threshold:
            want_left[0] = False
            diverged = True
            div_time = tb
            if math.isfinite(xb):
                push(tb, xb, k4 if math.isfinite(k4) else 0.0)
            break
        push(tb, xb, k4 if math.isfinite(k4) else 0.0)
        m_left = safe_rhs(tb, xb)
        want_left[0] = False
        m_right = safe_rhs(tb, xb) if jump0 else m_left
        if math.isfinite(m_right) and math.isfinite(m_left):
            ms[-1] = m_right
            if mls is not None:
                mls[-1] = m_left
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
    rhs = _make_rhs(eq, None, min(step, spacing))
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
            ys.append(-rhs.fn(u, X.value(u), X.value))
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


# ---------------------------------------------------------------------------
# Superposition defect
# ---------------------------------------------------------------------------


def superposition_check(
    eq: cr.LinearDelayEquation,
    phi1,
    phi2,
    t1: float,
    *,
    step: float = 1e-3,
    forcing: Optional[Callable[[float], float]] = None,
) -> float:
    """Worst-case linearity defect |x[phi1+phi2, f] - x[phi1, f] - x[phi2, 0]|.

    For a linear equation the defect is pure numerics (roundoff plus
    interpolation), so it doubles as an integration self-test.
    """
    if not isinstance(eq, cr.LinearDelayEquation):
        raise ConfigurationError("superposition applies to linear equations")
    x1 = integrate(eq, phi1, t1, step=step, forcing=forcing)
    x2 = integrate(eq, phi2, t1, step=step)
    both = history_sum([phi1, phi2])
    x12 = integrate(eq, both, t1, step=step, forcing=forcing)
    defect = np.max(np.abs(x12.values - x1.values - x2.values))
    return float(defect)
