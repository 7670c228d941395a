"""Time-varying coefficients, delayed arguments, and the window integrals
and essential extrema consumed by the stability criteria.

Coefficients are nonnegative functions of time with exact antiderivatives,
so window integrals are closed-form differences rather than quadratures.
Each coefficient derives its asymptotic class (constant, periodic, or
general with an analysis horizon) from its structure; the class
determines how essential suprema over unbounded time ranges are
evaluated. Where the coefficient has more structure, the extremum comes
from it: closed forms for a sinsq window, and the kinks and segments of a
step function; everything else is searched on a grid, to which the step
summands of a mixture add their kinks and segments.
"""

from __future__ import annotations

import functools
import inspect
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

__all__ = [
    "ConfigurationError",
    "DomainError",
    "ConstantClass",
    "PeriodicClass",
    "GeneralClass",
    "AsymptoticClass",
    "Coefficient",
    "ConstantCoefficient",
    "SinSqCoefficient",
    "PiecewiseConstantCoefficient",
    "ScaledCoefficient",
    "SumCoefficient",
    "constant",
    "sinsq",
    "piecewise_constant",
    "scaled",
    "coeff_sum",
    "difference",
    "step_cover",
    "summand_cover",
    "proportional_ratio",
    "ConstantLag",
    "IdentityDelay",
    "GeneralDelay",
    "Delay",
    "delay_min",
    "delay_max",
    "SupInfo",
    "window_integral",
    "sup_window_integral",
    "sup_window_integral_info",
    "sup_between_delays",
    "sup_between_delays_info",
    "liminf_forward_integral",
    "liminf_forward_integral_info",
    "ratio_extrema",
    "coefficient_extrema",
    "persistent_mean",
    "vanishing_fraction",
    "merge_classes",
    "representative_span",
]

_GRID = 1024
_REFINE_XTOL = 1e-12
_ZERO_TOL = 1e-12
# Ulps by which a closed-form extremum is moved outward, so that no check
# rests on the rounding of the formula.
_PAD_ULPS = 4
# Entries kept by the per-process memo of each extremum search. The searches
# take frozen dataclasses and floats and are deterministic in them, so a hit
# returns exactly what recomputing would.
_MEMO_SIZE = 256


class ConfigurationError(ValueError):
    """A coefficient/delay combination lacks the structure an operation needs."""


class DomainError(ValueError):
    """A time argument lies outside the domain an operation accepts."""


# ---------------------------------------------------------------------------
# Asymptotic classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantClass:
    """The coefficient is constant in time."""


@dataclass(frozen=True)
class PeriodicClass:
    """The coefficient is periodic with the given period."""

    period: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError("period must be finite and positive")


@dataclass(frozen=True)
class GeneralClass:
    """No exploitable structure; extrema are scanned up to analysis_horizon."""

    analysis_horizon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.analysis_horizon) and self.analysis_horizon > 0.0):
            raise ValueError("analysis_horizon must be finite and positive")


AsymptoticClass = Union[ConstantClass, PeriodicClass, GeneralClass]


def merge_classes(classes: Sequence[AsymptoticClass]) -> AsymptoticClass:
    """Combine the asymptotic classes of several coefficients.

    Any general class dominates (horizons are maxed); periodic classes must
    share a common period reachable as a small integer multiple of the
    largest one, otherwise a ConfigurationError names the periods.
    """
    generals = [c for c in classes if isinstance(c, GeneralClass)]
    if generals:
        return GeneralClass(max(c.analysis_horizon for c in generals))
    periods = [c.period for c in classes if isinstance(c, PeriodicClass)]
    if not periods:
        return ConstantClass()
    base = max(periods)
    for mult in range(1, 65):
        candidate = mult * base
        if all(abs(candidate / p - round(candidate / p)) < 1e-9 for p in periods):
            return PeriodicClass(candidate)
    raise ConfigurationError(
        "periodic components (periods %s) have no common period within 64 "
        "multiples of the longest" % ", ".join("%.6g" % p for p in periods)
    )


def representative_span(cls: AsymptoticClass) -> float:
    """A time span over which the class's behavior is fully represented."""
    if isinstance(cls, PeriodicClass):
        return cls.period
    if isinstance(cls, GeneralClass):
        return cls.analysis_horizon
    return 1.0


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


class Coefficient:
    """A nonnegative function of time with an exact antiderivative."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def antiderivative(self, t: float) -> float:
        raise NotImplementedError

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        raise NotImplementedError

    def integral(self, t1: float, t2: float) -> float:
        """Exact integral of the coefficient over [t1, t2]."""
        return self.antiderivative(t2) - self.antiderivative(t1)


@dataclass(frozen=True)
class ConstantCoefficient(Coefficient):
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and self.v >= 0.0):
            raise ValueError("constant coefficient must be finite and nonnegative")

    def value(self, t: float) -> float:
        return self.v

    def antiderivative(self, t: float) -> float:
        return self.v * t

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        return ConstantClass()


@dataclass(frozen=True)
class SinSqCoefficient(Coefficient):
    """amplitude * sin(angular_freq * t + phase)**2."""

    amplitude: float
    angular_freq: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError("amplitude must be finite and nonnegative")
        if not (math.isfinite(self.angular_freq) and self.angular_freq > 0.0):
            raise ValueError("angular_freq must be finite and positive")

    def value(self, t: float) -> float:
        return self.amplitude * math.sin(self.angular_freq * t + self.phase) ** 2

    def antiderivative(self, t: float) -> float:
        w = self.angular_freq
        return self.amplitude * (t / 2.0 - math.sin(2.0 * (w * t + self.phase)) / (4.0 * w))

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        if self.amplitude == 0.0:
            return ConstantClass()
        return PeriodicClass(math.pi / self.angular_freq)


@dataclass(frozen=True)
class PiecewiseConstantCoefficient(Coefficient):
    """Right-continuous step function: values[i] on [breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple
    values: tuple
    _cum: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bp) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError("piecewise values must be finite and nonnegative")
        # Exact cumulative integrals at each breakpoint, accumulated once so
        # antiderivative differences do not drift with the number of pieces.
        cum = [0.0]
        for i in range(1, len(bp)):
            cum.append(cum[-1] + vals[i] * (bp[i] - bp[i - 1]))
        object.__setattr__(self, "_cum", tuple(cum))

    def value(self, t: float) -> float:
        if not self.breakpoints or t < self.breakpoints[0]:
            return self.values[0]
        i = bisect_right(self.breakpoints, t) - 1
        return self.values[i + 1]

    def antiderivative(self, t: float) -> float:
        bp = self.breakpoints
        if not bp:
            return self.values[0] * t
        if t < bp[0]:
            return self.values[0] * (t - bp[0])
        i = bisect_right(bp, t) - 1
        return self._cum[i] + self.values[i + 1] * (t - bp[i])

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        if all(v == self.values[0] for v in self.values):
            return ConstantClass()
        return GeneralClass(max(abs(self.breakpoints[-1]), 1.0))


@dataclass(frozen=True)
class ScaledCoefficient(Coefficient):
    factor: float
    inner: Coefficient

    def __post_init__(self) -> None:
        if not (math.isfinite(self.factor) and self.factor >= 0.0):
            raise ValueError("scale factor must be finite and nonnegative")

    def value(self, t: float) -> float:
        return self.factor * self.inner.value(t)

    def antiderivative(self, t: float) -> float:
        return self.factor * self.inner.antiderivative(t)

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        if self.factor == 0.0:
            return ConstantClass()
        return self.inner.asymptotic_class


@dataclass(frozen=True)
class SumCoefficient(Coefficient):
    terms: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("sum needs at least one term")

    def value(self, t: float) -> float:
        return sum(c.value(t) for c in self.terms)

    def antiderivative(self, t: float) -> float:
        return sum(c.antiderivative(t) for c in self.terms)

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        return merge_classes([c.asymptotic_class for c in self.terms])


@dataclass(frozen=True)
class _LinearCombination(Coefficient):
    """Internal signed combination (for differences like a-b).

    Nonnegativity is validated on every segment of a step function and
    otherwise, as it cannot be verified symbolically, on a sample grid over
    the representative span; public constructors never produce negative
    weights.
    """

    parts: tuple  # of (weight, Coefficient)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("combination needs at least one part")
        span = representative_span(self.asymptotic_class)
        scale = max(
            (abs(w) * max(abs(c.value(0.0)), abs(c.value(span / 3.0))) for w, c in self.parts),
            default=1.0,
        )
        tol = 1e-9 * max(scale, 1.0)
        ts = step_cover(self)
        if ts is None:
            ts = [span * k / 256.0 for k in range(257)]
        for t in ts:
            if self.value(t) < -tol:
                raise ValueError("signed combination is negative at t=%g" % t)

    def value(self, t: float) -> float:
        return sum(w * c.value(t) for w, c in self.parts)

    def antiderivative(self, t: float) -> float:
        return sum(w * c.antiderivative(t) for w, c in self.parts)

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        return merge_classes([c.asymptotic_class for _, c in self.parts])


def constant(v: float) -> ConstantCoefficient:
    return ConstantCoefficient(float(v))


def sinsq(amplitude: float, angular_freq: float, phase: float = 0.0) -> SinSqCoefficient:
    return SinSqCoefficient(float(amplitude), float(angular_freq), float(phase))


def piecewise_constant(
    breakpoints: Sequence[float], values: Sequence[float]
) -> PiecewiseConstantCoefficient:
    return PiecewiseConstantCoefficient(tuple(breakpoints), tuple(values))


def scaled(factor: float, inner: Coefficient) -> Coefficient:
    if isinstance(inner, ConstantCoefficient):
        return ConstantCoefficient(factor * inner.v)
    if isinstance(inner, SinSqCoefficient):
        return SinSqCoefficient(factor * inner.amplitude, inner.angular_freq, inner.phase)
    return ScaledCoefficient(float(factor), inner)


def coeff_sum(terms: Sequence[Coefficient]) -> Coefficient:
    terms = tuple(terms)
    if len(terms) == 1:
        return terms[0]
    if terms and all(isinstance(c, ConstantCoefficient) for c in terms):
        return ConstantCoefficient(sum(c.v for c in terms))
    return SumCoefficient(terms)


def difference(a: Coefficient, b: Coefficient) -> Coefficient:
    """The pointwise difference a - b, validated nonnegative.

    Structural simplifications keep the result exact for the common shapes
    (constants, equal-frequency oscillations, shared scaled bases).
    """
    if isinstance(a, ConstantCoefficient) and isinstance(b, ConstantCoefficient):
        d = a.v - b.v
        if d < -1e-9 * max(1.0, a.v):
            raise ValueError("difference is negative")
        return ConstantCoefficient(max(d, 0.0))
    if (
        isinstance(a, SinSqCoefficient)
        and isinstance(b, SinSqCoefficient)
        and abs(a.angular_freq - b.angular_freq) < 1e-12
        and abs(a.phase - b.phase) < 1e-12
    ):
        d = a.amplitude - b.amplitude
        if d < -1e-9 * max(1.0, a.amplitude):
            raise ValueError("difference is negative")
        return SinSqCoefficient(max(d, 0.0), a.angular_freq, a.phase)
    if isinstance(b, ConstantCoefficient) and b.v == 0.0:
        return a
    return _LinearCombination(((1.0, a), (-1.0, b)))


def _step_breakpoints(*coeffs: Coefficient) -> Optional[tuple]:
    """Sorted union of the coefficients' breakpoints, or None if one is not a step function.

    Step functions are constant and piecewise-constant coefficients and any
    scaled, summed or signed combination built only from them; between two
    consecutive breakpoints such a coefficient is constant.
    """
    merged = set()
    for c in coeffs:
        if isinstance(c, PiecewiseConstantCoefficient):
            bps = c.breakpoints
        elif isinstance(c, ScaledCoefficient):
            bps = _step_breakpoints(c.inner)
        elif isinstance(c, SumCoefficient):
            bps = _step_breakpoints(*c.terms)
        elif isinstance(c, _LinearCombination):
            bps = _step_breakpoints(*(part for _, part in c.parts))
        elif isinstance(c, ConstantCoefficient):
            bps = ()
        else:
            return None
        if bps is None:
            return None
        merged.update(bps)
    return tuple(sorted(merged))


def _step_points(breakpoints: Sequence[float], lo: float, hi: float) -> list:
    """lo, hi, the breakpoints between them and the midpoint of every segment.

    A step function with these breakpoints takes each of its values on
    [lo, hi] at one of the returned points.
    """
    xs = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
    mids = [0.5 * (x + y) for x, y in zip(xs, xs[1:])]
    return sorted(xs + mids)


def step_cover(*coeffs: Coefficient, t0: float = -math.inf) -> Optional[list]:
    """A point in every segment at or after t0 of the step functions, or None."""
    bps = _step_breakpoints(*coeffs)
    if bps is None:
        return None
    if not bps:
        return [t0 if math.isfinite(t0) else 0.0]
    lo = max(bps[0] - 1.0, t0)
    return _step_points(bps, lo, max(bps[-1], lo) + 1.0)


def _step_summands(*coeffs: Coefficient) -> list:
    """The step functions among the summands of the coefficients.

    Summands are found through sums, signed combinations and scalings; a
    step function is its own only summand.
    """
    parts, todo = [], list(coeffs)
    while todo:
        c = todo.pop()
        if _step_breakpoints(c) is not None:
            parts.append(c)
        elif isinstance(c, SumCoefficient):
            todo.extend(c.terms)
        elif isinstance(c, _LinearCombination):
            todo.extend(part for _, part in c.parts)
        elif isinstance(c, ScaledCoefficient):
            todo.append(c.inner)
    return parts


def summand_cover(*coeffs: Coefficient, t0: float = -math.inf) -> list:
    """A point in every segment at or after t0 of the step-function summands.

    A mixture such as a sinsq plus a narrow pulse gets a point inside the
    pulse that a sample grid could step over. Empty when there are none.
    """
    parts = _step_summands(*coeffs)
    return step_cover(*parts, t0=t0) if parts else []


def _nonnegative(c: Coefficient) -> bool:
    """Whether c >= 0 everywhere follows from how c is built.

    The sinsq, constant, piecewise-constant and scaled constructors reject
    negative values and factors. A signed combination is excluded: its
    sign is only sampled.
    """
    if isinstance(c, (SinSqCoefficient, ConstantCoefficient, PiecewiseConstantCoefficient)):
        return True
    if isinstance(c, ScaledCoefficient):
        return _nonnegative(c.inner)
    if isinstance(c, SumCoefficient):
        return all(_nonnegative(term) for term in c.terms)
    return False


def proportional_ratio(num: Coefficient, den: Coefficient) -> Optional[float]:
    """Constant k with num = k * den everywhere, or None.

    Step functions are compared on every segment. Anything else is sampled
    over the merged representative span; an irrational offset keeps
    structural zeros of the two functions from hiding at the sample points.
    """
    if isinstance(num, ConstantCoefficient) and isinstance(den, ConstantCoefficient):
        if den.v == 0.0:
            return 0.0 if num.v == 0.0 else None
        return num.v / den.v
    ts = step_cover(num, den)
    if ts is None:
        cls = merge_classes([num.asymptotic_class, den.asymptotic_class])
        span = representative_span(cls)
        offset = span * (math.e / 7.0 - math.floor(math.e / 7.0))
        samples = 513
        ts = [offset + span * k / (samples - 1) for k in range(samples)]
    den_vals = [den.value(t) for t in ts]
    num_vals = [num.value(t) for t in ts]
    den_scale = max((abs(v) for v in den_vals), default=0.0)
    num_scale = max((abs(v) for v in num_vals), default=0.0)
    if den_scale == 0.0:
        return 0.0 if num_scale == 0.0 else None
    ratios = [
        nv / dv for nv, dv in zip(num_vals, den_vals) if abs(dv) > 1e-9 * den_scale
    ]
    if not ratios:
        return None
    k = ratios[len(ratios) // 2]
    if max(ratios) - min(ratios) > 1e-9 * max(1.0, abs(k)):
        return None
    resid_tol = 1e-9 * max(num_scale, abs(k) * den_scale, 1e-300)
    if all(abs(nv - k * dv) <= resid_tol for nv, dv in zip(num_vals, den_vals)):
        return k
    return None


# ---------------------------------------------------------------------------
# Delays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantLag:
    """t -> t - lag."""

    lag: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lag) and self.lag >= 0.0):
            raise ValueError("lag must be finite and nonnegative")

    def __call__(self, t: float) -> float:
        return t - self.lag

    @property
    def lag_bound(self) -> float:
        return self.lag


@dataclass(frozen=True)
class IdentityDelay:
    """t -> t (no delay)."""

    def __call__(self, t: float) -> float:
        return t

    @property
    def lag_bound(self) -> float:
        return 0.0


@dataclass(frozen=True)
class GeneralDelay:
    """Arbitrary measurable delayed argument with a declared worst-case lag.

    The callable must satisfy t - lag_bound <= fn(t) <= t; violations are
    reported lazily, at evaluation time.
    """

    fn: Callable[[float], float]
    lag_bound: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lag_bound) and self.lag_bound >= 0.0):
            raise ValueError("lag_bound must be finite and nonnegative")

    def __call__(self, t: float) -> float:
        v = self.fn(t)
        if v > t + 1e-9:
            raise DomainError("delayed argument %g exceeds current time %g" % (v, t))
        if t - v > self.lag_bound + 1e-9:
            raise DomainError(
                "delayed argument %g lags current time %g by more than lag_bound %g"
                % (v, t, self.lag_bound)
            )
        return min(v, t)


Delay = Union[ConstantLag, IdentityDelay, GeneralDelay]


def _as_lag(d: Delay) -> Optional[float]:
    if isinstance(d, ConstantLag):
        return d.lag
    if isinstance(d, IdentityDelay):
        return 0.0
    return None


def delay_min(*delays: Delay) -> Delay:
    """Pointwise minimum of delayed arguments (the most-delayed one)."""
    if len(delays) == 1:
        return delays[0]
    lags = [_as_lag(d) for d in delays]
    if all(l is not None for l in lags):
        m = max(lags)
        return IdentityDelay() if m == 0.0 else ConstantLag(m)
    bound = max(d.lag_bound for d in delays)
    return GeneralDelay(lambda t, _ds=delays: min(d(t) for d in _ds), bound)


def delay_max(*delays: Delay) -> Delay:
    """Pointwise maximum of delayed arguments (the least-delayed one)."""
    if len(delays) == 1:
        return delays[0]
    lags = [_as_lag(d) for d in delays]
    if all(l is not None for l in lags):
        m = min(lags)
        return IdentityDelay() if m == 0.0 else ConstantLag(m)
    bound = min(d.lag_bound for d in delays)
    return GeneralDelay(lambda t, _ds=delays: max(d(t) for d in _ds), bound)


# ---------------------------------------------------------------------------
# Window integrals and extrema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupInfo:
    """An extremum value with where it was attained and how it was obtained."""

    value: float
    argmax: float
    horizon_limited: bool


def window_integral(c: Coefficient, lower: Delay, t: float) -> float:
    """Integral of c over [lower(t), t]."""
    lo = lower(t)
    if lo > t + 1e-9:
        raise DomainError("window lower bound %g exceeds t=%g" % (lo, t))
    return c.integral(min(lo, t), t)


def _structure(
    classes: Sequence[AsymptoticClass],
    delays: Sequence[Delay],
    horizon: Optional[float],
):
    """Resolve how to search for an extremum: exact point, one period, or scan."""
    cls = merge_classes(classes)
    general_delay = any(isinstance(d, GeneralDelay) for d in delays)
    if horizon is not None:
        # GeneralClass rejects a non-finite or non-positive horizon with a
        # plain ValueError; criteria would turn a ConfigurationError into
        # an Inconclusive certificate.
        return ("general", GeneralClass(float(horizon)).analysis_horizon)
    if isinstance(cls, GeneralClass):
        return ("general", cls.analysis_horizon)
    if general_delay:
        raise ConfigurationError(
            "a general delayed argument needs an explicit analysis horizon"
        )
    if isinstance(cls, PeriodicClass):
        return ("periodic", cls.period)
    return ("constant", 0.0)


def _finite(v: float) -> float:
    return v if v == v else -math.inf  # NaN -> -inf so it never wins a max


def _golden_max(fn, lo: float, hi: float, xtol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc = fn(c)
    fd = fn(d)
    best_x, best_v = (c, _finite(fc)) if _finite(fc) >= _finite(fd) else (d, _finite(fd))
    while h > xtol:
        if _finite(fc) >= _finite(fd):
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = fn(c)
            if _finite(fc) > best_v:
                best_x, best_v = c, _finite(fc)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = fn(d)
            if _finite(fd) > best_v:
                best_x, best_v = d, _finite(fd)
    return best_x, best_v


def _best(xs: Sequence[float], vals: Sequence[float], limited: bool) -> SupInfo:
    """The largest of vals at its first point; an infinite value wins outright."""
    if math.inf in vals:
        i = vals.index(math.inf)
        return SupInfo(math.inf, xs[i], limited)
    i = max(range(len(vals)), key=vals.__getitem__)
    return SupInfo(vals[i], xs[i], limited)


def _maximize(fn, t0: float, structure, span_pad: float, points=None, exhaustive=False) -> SupInfo:
    """Supremum of fn over the structure's scan range from t0.

    ``points(lo, hi)``, when given, lists points of [lo, hi] where fn can
    have a maximum that a grid steps over (the kinks of a window integral,
    the segments of a step function). When they are ``exhaustive``, fn is
    evaluated only at those. Otherwise they join a grid that locates the
    local maxima, and a golden-section search refines each.
    """
    kind, param = structure
    if kind == "constant":
        return SupInfo(fn(t0), t0, False)
    if kind == "periodic":
        lo, hi = t0, t0 + param
        limited = False
    else:
        lo, hi = t0, t0 + param + span_pad
        limited = True
    if points is not None and exhaustive:
        xs = points(lo, hi)
        return _best(xs, [_finite(fn(x)) for x in xs], limited)
    n = _GRID
    xs = [lo + (hi - lo) * k / n for k in range(n + 1)]
    if points is not None:
        xs = sorted(set(xs).union(x for x in points(lo, hi) if lo < x < hi))
        n = len(xs) - 1
    vals = [_finite(fn(x)) for x in xs]
    if math.inf in vals:
        return _best(xs, vals, limited)
    best_x, best_v = xs[0], vals[0]
    xtol = max(_REFINE_XTOL, (hi - lo) * 1e-15)
    for i in range(n + 1):
        left = vals[i - 1] if i > 0 else -math.inf
        right = vals[i + 1] if i < n else -math.inf
        if vals[i] >= left and vals[i] >= right and vals[i] > -math.inf:
            blo = xs[max(i - 1, 0)]
            bhi = xs[min(i + 1, n)]
            x, v = _golden_max(fn, blo, bhi, xtol)
            if vals[i] > v:
                x, v = xs[i], vals[i]
            if v > best_v:
                best_x, best_v = x, v
    return SupInfo(best_v, best_x, limited)


def _kinks(c: Coefficient, shifts: Sequence[float]):
    """(points, exhaustive) for _maximize of a window integral of c whose ends sit at t - shift.

    The window integral of a step function is piecewise linear in t, with
    kinks where an end crosses a breakpoint, so its kinks are exhaustive.
    The kinks of the step summands of a mixture join the search grid.
    """
    parts = _step_summands(c)
    if not parts:
        return None, False
    kinks = sorted({b + s for b in _step_breakpoints(*parts) for s in shifts})
    return (
        lambda lo, hi: [lo] + [x for x in kinks if lo < x < hi] + [hi],
        _step_breakpoints(c) is not None,
    )


def _segments(*coeffs: Coefficient, t0: float):
    """(points, exhaustive) for _maximize of a pointwise function of the coefficients.

    A point in every segment is exhaustive for step functions; for a
    mixture, a point in every segment of its step summands joins the grid.
    """
    bps = _step_breakpoints(*coeffs)
    if bps is not None:
        return (lambda lo, hi: _step_points(bps, lo, hi)), True
    cover = summand_cover(*coeffs, t0=t0)
    if not cover:
        return None, False
    return (lambda lo, hi: cover), False


def _sinsq_window(c: Coefficient, structure, length: float, u0: float, upper: bool):
    """Closed-form extremum over u >= u0 of the integral of c over [u - length, u].

    Applies to a sinsq coefficient A sin^2(w s + phi) whenever the scan
    range covers its period pi/w: always when the structure is periodic,
    and under an explicit horizon when the horizon is at least one period.
    The integral is A L/2 - A sin(w L) cos(2 w u + 2 phi - w L)/(2 w), so
    its supremum (``upper``) is A L/2 + A |sin w L|/(2 w) and its infimum
    A L/2 - A |sin w L|/(2 w). Returns (value, first extremal u >= u0,
    horizon_limited), the value padded outward by a few ulps and the
    extremal u within one period of u0; None when c is not such a sinsq or
    the range is shorter than a period.
    """
    if not isinstance(c, SinSqCoefficient):
        return None
    kind, param = structure
    period = math.pi / c.angular_freq
    if kind == "constant" or (kind == "general" and param < period):
        return None
    amp, w = c.amplitude, c.angular_freq
    limited = kind == "general"
    sin_wl = math.sin(w * length)
    half = amp * length / 2.0
    swing = amp * abs(sin_wl) / (2.0 * w)
    pad = _PAD_ULPS * math.ulp(half + swing)
    value = half + swing + pad if upper else max(half - swing - pad, 0.0)
    # Extremal where 2 w u + 2 phi - w L is pi or 0 (mod 2 pi), by the sign
    # of sin(w L); any u is extremal when sin(w L) vanishes.
    if sin_wl == 0.0:
        return value, u0, limited
    theta = math.pi if (sin_wl > 0.0) == upper else 0.0
    base = (theta - 2.0 * c.phase + w * length) / (2.0 * w)
    u = base + period * math.ceil((u0 - base) / period)
    return value, u if u >= u0 else u + period, limited


def _memoized(search):
    """Memoize a search so that every way of passing the same arguments shares one entry."""
    signature = inspect.signature(search)
    cached = functools.lru_cache(maxsize=_MEMO_SIZE)(search)

    @functools.wraps(search)
    def memoized(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args, **bound.kwargs)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


@_memoized
def sup_window_integral_info(
    c: Coefficient,
    lower: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> SupInfo:
    """Essential supremum over t >= t0 of the integral of c over [lower(t), t]."""
    structure = _structure([c.asymptotic_class], [lower], horizon)
    lag = _as_lag(lower)
    points = (None, False)
    if lag is not None:
        exact = _sinsq_window(c, structure, lag, t0, True)
        if exact is not None:
            return SupInfo(*exact)
        points = _kinks(c, (0.0, lag))
    return _maximize(
        lambda t: window_integral(c, lower, t), t0, structure, lower.lag_bound, *points
    )


def sup_window_integral(
    c: Coefficient,
    lower: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> float:
    return sup_window_integral_info(c, lower, t0, horizon=horizon).value


@_memoized
def sup_between_delays_info(
    c: Coefficient,
    d1: Delay,
    d2: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> SupInfo:
    """Essential supremum over t >= t0 of |integral of c over [d1(t), d2(t)]|.

    When d2 is the identity and c is nonnegative by construction, the
    integral is the window integral over [d1(t), t] and that search answers.
    """
    if isinstance(d2, IdentityDelay) and _nonnegative(c):
        return sup_window_integral_info(c, d1, t0, horizon=horizon)
    structure = _structure([c.asymptotic_class], [d1, d2], horizon)
    lag1, lag2 = _as_lag(d1), _as_lag(d2)
    points = (None, False)
    if lag1 is not None and lag2 is not None:
        near = min(lag1, lag2)
        exact = _sinsq_window(c, structure, abs(lag1 - lag2), t0 - near, True)
        if exact is not None:
            return SupInfo(exact[0], max(exact[1] + near, t0), exact[2])
        points = _kinks(c, (lag1, lag2))
    pad = max(d1.lag_bound, d2.lag_bound)
    return _maximize(
        lambda t: abs(c.integral(d1(t), d2(t))), t0, structure, pad, *points
    )


def sup_between_delays(
    c: Coefficient,
    d1: Delay,
    d2: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> float:
    return sup_between_delays_info(c, d1, d2, t0, horizon=horizon).value


@_memoized
def liminf_forward_integral_info(
    c: Coefficient,
    length: float,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> SupInfo:
    """Essential infimum over t >= t0 of the integral of c over [t, t+length].

    For constant and periodic coefficients the infimum over one period equals
    the limit inferior; for general coefficients the scan value is a
    horizon-limited stand-in.
    """
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError("length must be finite and positive")
    structure = _structure([c.asymptotic_class], [], horizon)
    exact = _sinsq_window(c, structure, length, t0 + length, False)
    if exact is not None:
        return SupInfo(exact[0], max(exact[1] - length, t0), exact[2])
    info = _maximize(
        lambda t: -c.integral(t, t + length), t0, structure, length, *_kinks(c, (0.0, -length))
    )
    return SupInfo(-info.value, info.argmax, info.horizon_limited)


def liminf_forward_integral(
    c: Coefficient,
    length: float,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> float:
    return liminf_forward_integral_info(c, length, t0, horizon=horizon).value


@_memoized
def ratio_extrema(
    num: Coefficient,
    den: Coefficient,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
):
    """(esssup, essinf) of num(t)/den(t) for t >= t0.

    Points where the denominator vanishes are excluded when the numerator
    vanishes with it (matching the essential extrema of the a.e.-defined
    ratio); a vanishing denominator under a nonvanishing numerator makes the
    supremum infinite.
    """
    k = proportional_ratio(num, den)
    if k is not None:
        return SupInfo(k, t0, False), SupInfo(k, t0, False)
    structure = _structure(
        [num.asymptotic_class, den.asymptotic_class], [], horizon
    )
    span = representative_span(merge_classes([num.asymptotic_class, den.asymptotic_class]))
    probe = max(abs(den.value(t0 + span * k2 / 64.0)) for k2 in range(65))
    floor = 1e-12 * max(probe, 1e-300)

    def ratio_at(t: float) -> float:
        dv = den.value(t)
        nv = num.value(t)
        if abs(dv) <= floor:
            if abs(nv) <= 1e-9 * max(probe, 1.0):
                return math.nan
            return math.inf
        return nv / dv

    points = _segments(num, den, t0=t0)
    hi = _maximize(ratio_at, t0, structure, 0.0, *points)
    lo = _maximize(lambda t: -ratio_at(t), t0, structure, 0.0, *points)
    return hi, SupInfo(-lo.value, lo.argmax, lo.horizon_limited)


def coefficient_extrema(
    c: Coefficient,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
):
    """(esssup, essinf) of the coefficient's values for t >= t0."""
    structure = _structure([c.asymptotic_class], [], horizon)
    points = _segments(c, t0=t0)
    hi = _maximize(c.value, t0, structure, 0.0, *points)
    lo = _maximize(lambda t: -c.value(t), t0, structure, 0.0, *points)
    return hi, SupInfo(-lo.value, lo.argmax, lo.horizon_limited)


def persistent_mean(c: Coefficient, t0: float = 0.0):
    """(long-run mean value, horizon_limited flag).

    Exact for constant and periodic coefficients; for general ones the mean
    over the analysis horizon is reported and flagged.
    """
    cls = c.asymptotic_class
    if isinstance(cls, ConstantClass):
        return c.value(t0), False
    if isinstance(cls, PeriodicClass):
        return c.integral(t0, t0 + cls.period) / cls.period, False
    span = cls.analysis_horizon
    return c.integral(t0, t0 + span) / span, True


def vanishing_fraction(c: Coefficient, t0: float = 0.0) -> float:
    """Fraction of sample points where the coefficient (essentially) vanishes."""
    span = representative_span(c.asymptotic_class)
    samples = 512
    ts = [t0 + span * (k + 0.5) / samples for k in range(samples)]
    vals = [abs(c.value(t)) for t in ts]
    scale = max(max(vals), 1e-300)
    return sum(1 for v in vals if v <= _ZERO_TOL * scale) / samples
