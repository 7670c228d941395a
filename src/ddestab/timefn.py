"""Time-varying coefficients, delayed arguments, and the window integrals
and essential extrema consumed by the stability criteria.

Coefficients are nonnegative functions of time with exact antiderivatives,
so window integrals are closed-form differences rather than quadratures.
The coefficients are closed: each is exactly of a class the constructors
make, and is a step part plus a trigonometric polynomial (its normal
form); any other class, a library class's subclass too, raises TypeError.
Each coefficient's asymptotic class is read off its normal form: a
transient, up to the last breakpoint where its level changes, then a tail
that is periodic when it has waves (their common period, or a
ConfigurationError when they have none) and constant otherwise. An
essential extremum is read over the transient and one tail period, which
is all of t >= t0; only an explicit horizon makes the range finite, and
flags it. The normal form also decides pointwise questions exactly:
proportionality, vanishing, domination and nonnegativity, and the extrema
of a coefficient or of a ratio with a positive denominator. It gives
every window extremum at constant lags: between two kinks a window
integral is a trigonometric polynomial plus a linear term, read at its
kinks and stationary points. A general delay is read through its lag
envelope: both ends of a window lie in [t - lag_bound, t], so the window
over those constant lags bounds it, and the delay itself is never called
(its declared lag_bound is the premise). A step-only ratio whose
denominator reaches zero is read once per piece. Other ratios whose
denominator reaches zero are searched on a grid with a golden-section
refinement of each local maximum. The grid takes one numpy pass from the
normal form, but every value reported is the coefficient's own.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

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
    "domination_violation",
    "proportional_ratio",
    "ConstantLag",
    "IdentityDelay",
    "GeneralDelay",
    "Delay",
    "canonical_delay",
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
]

_GRID = 1024
_REFINE_XTOL = 1e-12
# Ulps by which a closed-form extremum is moved outward, so that no check
# rests on the rounding of the formula.
_PAD_ULPS = 4
_TAU = 2.0 * math.pi
# Entries kept by the per-process memo of each extremum search. The searches
# take frozen dataclasses and floats and are deterministic in them, so a hit
# returns exactly what recomputing would. A key is the arguments as passed, so
# every caller passes t0 by position and horizon by keyword.
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
    """The coefficient is constant from ``transient_end`` on (-inf: everywhere)."""

    transient_end: float = -math.inf


@dataclass(frozen=True)
class PeriodicClass:
    """The coefficient is periodic with the given period from ``transient_end`` on."""

    period: float
    transient_end: float = -math.inf

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError("period must be finite and positive")


@dataclass(frozen=True)
class GeneralClass:
    """An explicit analysis horizon: extrema are scanned that far from the start.

    No coefficient has this class; a search takes it from its ``horizon``.
    """

    analysis_horizon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.analysis_horizon) and self.analysis_horizon > 0.0):
            raise ValueError("analysis_horizon must be finite and positive")


AsymptoticClass = ConstantClass | PeriodicClass | GeneralClass


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


class Coefficient:
    """A nonnegative function of time with an exact antiderivative.

    The solver integrates any subclass by its ``value``; searches and
    certificates take only the constructors' own classes (see ``_normal_form``),
    and so does the asymptotic class, which is read off the normal form.
    """

    def value(self, t: float) -> float:
        raise NotImplementedError

    def antiderivative(self, t: float) -> float:
        raise NotImplementedError

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        """Constant or periodic past a transient (see ``_class_of``).

        TypeError without a normal form.
        """
        return _normal_form((1.0, self)).asymptotic_class

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
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")

    def value(self, t: float) -> float:
        return self.amplitude * math.sin(self.angular_freq * t + self.phase) ** 2

    def antiderivative(self, t: float) -> float:
        w = self.angular_freq
        return self.amplitude * (t / 2.0 - math.sin(2.0 * (w * t + self.phase)) / (4.0 * w))


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
        if not all(math.isfinite(b) for b in bp):
            raise ValueError("breakpoints must be finite")
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


@dataclass(frozen=True)
class _LinearCombination(Coefficient):
    """Internal signed combination (for differences like a-b).

    ``difference`` validates it nonnegative before building it; public
    constructors never produce negative weights.
    """

    parts: tuple  # of (weight, Coefficient)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("combination needs at least one part")

    def value(self, t: float) -> float:
        return sum(w * c.value(t) for w, c in self.parts)

    def antiderivative(self, t: float) -> float:
        return sum(w * c.antiderivative(t) for w, c in self.parts)


def constant(v: float) -> ConstantCoefficient:
    return ConstantCoefficient(float(v))


_ONE = ConstantCoefficient(1.0)


def sinsq(amplitude: float, angular_freq: float, phase: float = 0.0) -> SinSqCoefficient:
    return SinSqCoefficient(float(amplitude), float(angular_freq), float(phase))


def piecewise_constant(
    breakpoints: Sequence[float], values: Sequence[float]
) -> PiecewiseConstantCoefficient:
    return PiecewiseConstantCoefficient(tuple(breakpoints), tuple(values))


def scaled(factor: float, inner: Coefficient) -> Coefficient:
    if type(inner) is ConstantCoefficient:
        return ConstantCoefficient(factor * inner.v)
    if type(inner) is SinSqCoefficient:
        return SinSqCoefficient(factor * inner.amplitude, inner.angular_freq, inner.phase)
    return ScaledCoefficient(float(factor), inner)


def coeff_sum(terms: Sequence[Coefficient]) -> Coefficient:
    terms = tuple(terms)
    if len(terms) == 1:
        return terms[0]
    if terms and all(type(c) is ConstantCoefficient for c in terms):
        return ConstantCoefficient(sum(c.v for c in terms))
    return SumCoefficient(terms)


def difference(a: Coefficient, b: Coefficient) -> Coefficient:
    """The pointwise difference a - b, validated nonnegative.

    Structural simplifications keep the result exact for the common shapes
    (constants, equal-frequency oscillations, shared scaled bases).
    """
    if type(a) is ConstantCoefficient and type(b) is ConstantCoefficient:
        d = a.v - b.v
        if d < -1e-9 * max(1.0, a.v):
            raise ValueError("difference is negative")
        return ConstantCoefficient(max(d, 0.0))
    if (
        type(a) is SinSqCoefficient
        and type(b) is SinSqCoefficient
        and abs(a.angular_freq - b.angular_freq) < 1e-12
        and abs(a.phase - b.phase) < 1e-12
    ):
        d = a.amplitude - b.amplitude
        if d < -1e-9 * max(1.0, a.amplitude):
            raise ValueError("difference is negative")
        return SinSqCoefficient(max(d, 0.0), a.angular_freq, a.phase)
    if type(b) is ConstantCoefficient and b.v == 0.0:
        return a
    t = domination_violation([a], [b])
    if t is not None:
        raise ValueError("signed combination is negative at t=%g" % t)
    return _LinearCombination(((1.0, a), (-1.0, b)))


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _NormalForm:
    """levels[i] plus the sum of Re(w e^{i f t}) over the waves (f, w).

    i is the segment of the (right-continuous) breakpoints holding t. As
    A sin^2(w t + phi) = A/2 - (A/2) cos(2 w t + 2 phi), a sinsq term adds
    A/2 to the levels and -(A/2) e^{2 i phi} at f = 2 w. ``signed`` tells
    whether a part entered with a negative weight; otherwise the
    coefficient is nonnegative by construction.
    """

    waves: tuple
    breakpoints: tuple
    levels: tuple
    signed: bool

    def level(self, t: float) -> float:
        return self.levels[bisect_right(self.breakpoints, t)]

    def trig(self, t: float) -> float:
        return sum(w.real * math.cos(f * t) - w.imag * math.sin(f * t) for f, w in self.waves)

    @functools.cached_property
    def asymptotic_class(self) -> AsymptoticClass:
        return _class_of(self)

    @property
    def bound(self) -> float:
        """An upper bound of the coefficient's magnitude."""
        return max(map(abs, self.levels)) + sum(abs(w) for _, w in self.waves)

    def values(self, ts: np.ndarray) -> np.ndarray:
        """The form at each of the times ts, in one array pass."""
        levels = np.asarray(self.levels)[np.searchsorted(self.breakpoints, ts, "right")]
        return levels + self._waves(ts, False)

    def antiderivatives(self, ts: np.ndarray) -> np.ndarray:
        """An antiderivative of the form at each of the times ts, in one array pass.

        The step part accumulates from the first breakpoint, as a piecewise
        constant coefficient does; a wave (f, w) adds Re(w e^{i f t} / (i f)).
        """
        levels, knots = np.asarray(self.levels), np.asarray(self.breakpoints or (0.0,))
        cum = np.concatenate(([0.0], np.cumsum(levels[1:-1] * np.diff(knots))))
        i = np.searchsorted(self.breakpoints, ts, "right")
        j = np.maximum(i - 1, 0)
        return cum[j] + levels[i] * (ts - knots[j]) + self._waves(ts, True)

    def _waves(self, ts: np.ndarray, integrated: bool) -> np.ndarray:
        """The sum of Re(w e^{i f t}) over the waves (f, w) at ts, or of Re(w e^{i f t} / (i f))."""
        if not self.waves:
            return np.zeros(np.shape(ts))
        f, w = (np.array(x) for x in zip(*self.waves))
        return (np.exp(1j * np.multiply.outer(ts, f)) @ (w / (1j * f) if integrated else w)).real


def _normal_form(*parts) -> _NormalForm:
    """The normal form of the sum of weight * c over the (weight, c) parts.

    Raises TypeError unless each part is exactly of a class the constructors
    make (a subclass may redefine its values).
    """
    try:
        return _normal_form_memo(*parts)
    except TypeError as exc:  # a part of another class, or an unhashable one
        raise TypeError("a coefficient must be built by constant, sinsq, piecewise_constant, "
                        "scaled, coeff_sum or difference (%s)" % exc) from None


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _normal_form_memo(*parts) -> _NormalForm:
    waves, steps, todo, signed = {}, [], list(parts), False
    while todo:
        w, c = todo.pop()
        signed = signed or w < 0.0
        kind = type(c)
        if kind is ConstantCoefficient:
            steps.append(((), (w * c.v,)))
        elif kind is SinSqCoefficient:
            half = w * c.amplitude / 2.0
            steps.append(((), (half,)))
            f = 2.0 * c.angular_freq
            waves[f] = waves.get(f, 0.0) - half * cmath.exp(2j * c.phase)
        elif kind is PiecewiseConstantCoefficient:
            steps.append((c.breakpoints, tuple(w * v for v in c.values)))
        elif kind is ScaledCoefficient:
            todo.append((w * c.factor, c.inner))
        elif kind is SumCoefficient:
            todo.extend((w, term) for term in c.terms)
        elif kind is _LinearCombination:
            todo.extend((w * weight, part) for weight, part in c.parts)
        else:
            raise TypeError("%s has no normal form" % kind.__name__)
    bps = tuple(sorted(set().union(*(b for b, _ in steps))))
    levels = tuple(sum(v[bisect_right(b, t)] for b, v in steps) for t in (-math.inf,) + bps)
    waves = tuple((f, w) for f, w in sorted(waves.items()) if w != 0)
    return _NormalForm(waves, bps, levels, signed)


def _class_of(*forms: _NormalForm) -> AsymptoticClass:
    """The asymptotic class of the forms taken together: the range an extremum is read over.

    The transient ends at the last breakpoint where a form's level changes
    (the latest over the forms; -inf when none does). From there on each
    form is its last level plus its waves. So waves make the class periodic,
    with the period of the base frequency that ``_base_multiple`` finds, and
    without waves it is constant.
    """
    end = max((b for nf in forms for b, v, w in zip(nf.breakpoints, nf.levels, nf.levels[1:])
               if v != w), default=-math.inf)
    fs = sorted({f for nf in forms for f, _ in nf.waves})
    if not fs:
        return ConstantClass(end)
    return PeriodicClass(_base_multiple(fs) * (_TAU / fs[0]), end)


def _base_multiple(fs: Sequence[float]) -> int:
    """The least m <= 64 that makes each of the sorted frequencies fs a multiple of fs[0] / m.

    Each k = m f / fs[0] must be within 1e-9 of an integer, and each f within
    1e-12 f of k fs[0] / m. ConfigurationError names the periods when no m
    passes: the sum is almost periodic, and no one period represents it.
    """
    ratios = [f / fs[0] for f in fs]
    for m in range(1, 65):
        nu = fs[0] / m
        if all(abs(m * r - round(m * r)) < 1e-9 and abs(round(f / nu) * nu - f) <= 1e-12 * f
               for f, r in zip(fs, ratios)):
            return m
    raise ConfigurationError(
        "periodic components (periods %s) have no common period within 64 "
        "multiples of the longest" % ", ".join(repr(_TAU / f) for f in fs)
    )


def _pieces(breakpoints: Sequence[float], lo: float, hi: float) -> list:
    """lo, the breakpoints strictly between lo and hi, and hi."""
    return [lo] + [b for b in breakpoints if lo < b < hi] + [hi]


def _harmonics(*forms: _NormalForm):
    """(nu, arrays): each form's waves as two-sided coefficients c[K + m] of e^{i m nu t}.

    nu is the lowest frequency over the multiple that ``_base_multiple``
    finds, the test that ``_class_of`` makes too.
    """
    fs = sorted({f for nf in forms for f, _ in nf.waves}) or [1.0]
    nu = fs[0] / _base_multiple(fs)
    order = {f: round(f / nu) for f in fs}
    K = max(order.values())
    arrays = [np.zeros(2 * K + 1, complex) for _ in forms]
    for nf, c in zip(forms, arrays):
        for f, w in nf.waves:
            c[K + order[f]] += w / 2.0
            c[K - order[f]] += w.conjugate() / 2.0
    return nu, arrays


def _derivative(c):
    """Two-sided coefficients of the derivative in nu t."""
    K = (len(c) - 1) // 2
    return 1j * np.arange(-K, K + 1) * c


def _trig_zeros(g) -> list:
    """Angles x where the (real, as g is Hermitian) sum of g[K + m] e^{i m x} vanishes.

    Negligible top harmonics are dropped. One harmonic has a closed form;
    more take the eigenvalues of the companion matrix of the polynomial in
    z = e^{i x} (Boyd, SINUM 2002), polished by Newton steps. Angles of
    roots off the unit circle stay as spare candidates.
    """
    tol = 1e-14 * float(np.max(np.abs(g)))
    while len(g) > 1 and abs(g[-1]) <= tol:
        g = g[1:-1]
    K = (len(g) - 1) // 2
    if K == 0:
        return []
    if K == 1:  # g0 + 2 |g1| cos(x + arg g1) = 0
        c, phi = -g[1].real / (2.0 * abs(g[2])), cmath.phase(g[2])
        return [] if abs(c) > 1.0 else [math.acos(c) - phi, -math.acos(c) - phi]
    companion = np.eye(2 * K, k=-1, dtype=complex)
    companion[:, -1] = -g[:-1] / g[-1]
    x = np.angle(np.linalg.eigvals(companion))
    m, dg = np.arange(-K, K + 1), _derivative(g)
    for _ in range(3):
        e = np.exp(1j * np.outer(x, m))
        step = (e @ g).real / np.where((e @ dg).real == 0.0, np.inf, (e @ dg).real)
        x = np.where(np.abs(step) < 0.5 / K, x - step, x)
    return x.tolist()


def _candidates(breakpoints, smooth: bool, lo: float, hi: float, nu: float, angles) -> list:
    """(t, m) pairs where a function with these sorted breakpoints takes its extrema on [lo, hi].

    m is the midpoint of the piece [a, b) between breakpoints that holds t,
    where the piece's levels are read. Each piece gives a; when ``smooth``,
    also b as a left limit and the times inside where nu t is one of
    ``angles(m)`` mod 2 pi.
    """
    xs = _pieces(breakpoints, lo, hi)
    out = []
    for a, b in zip(xs, xs[1:]):
        m = (a + b) / 2.0
        out.append((a, m))
        if smooth:
            for x in angles(m):
                first, stop = (math.ceil((s * nu - x) / _TAU) for s in (a, b))
                out += [(t, m) for t in ((x + _TAU * k) / nu for k in range(first, stop)) if t > a]
            out.append((b, m))
    return sorted(out) + [(hi, hi)]


def _least(nf: _NormalForm, lo: float, hi: float):
    """(t, value) where the normal form is least on [lo, hi], by its own arithmetic.

    An infinite end is cut a period (a unit, without waves) past the outer
    breakpoints.
    """
    nu, (c,) = _harmonics(nf)
    period, bps = (_TAU / nu if nf.waves else 1.0), nf.breakpoints or (0.0,)
    lo = bps[0] - period if lo == -math.inf else lo
    hi = max(bps[-1], lo) + period if hi == math.inf else hi
    angles = _trig_zeros(_derivative(c))
    points = _candidates(nf.breakpoints, bool(nf.waves), lo, hi, nu, lambda m: angles)
    return min(((t, nf.level(m) + nf.trig(t)) for t, m in points), key=lambda p: p[1])


def domination_violation(
    pos: Sequence[Coefficient], neg: Sequence[Coefficient], t0: float = -math.inf
) -> Optional[float]:
    """The time t >= t0 where sum(neg) most exceeds sum(pos), if beyond tolerance.

    None when sum(pos) - sum(neg) stays above -1e-9 times the larger
    side's magnitude (at least -1e-9). Exact from the normal form. Raises
    TypeError when neg is not empty and a coefficient has no normal form,
    and ConfigurationError when the waves have no common period: then
    domination cannot be decided.
    """
    if not neg:
        return None
    t, value = _least(_normal_form(*((1.0, c) for c in pos), *((-1.0, c) for c in neg)),
                      t0, math.inf)
    scale = max(_normal_form(*((1.0, c) for c in side)).bound for side in (pos, neg))
    return t if value < -1e-9 * max(scale, 1.0) else None


def proportional_ratio(num: Coefficient, den: Coefficient) -> Optional[float]:
    """Constant k with num = k * den everywhere, or None.

    Decided from the normal forms: num - k * den must vanish, every level
    and wave of it within 1e-9 of the magnitudes. A scaling of den gives
    its factor; otherwise k is the ratio of the largest levels, or of the
    magnitudes when den has no level. TypeError without a normal form.
    """
    n, d = _normal_form((1.0, num)), _normal_form((1.0, den))
    if d.bound == 0.0:
        return 0.0 if n.bound == 0.0 else None
    if type(num) is ScaledCoefficient and num.inner == den:
        k = num.factor
    else:
        d_top = max(map(abs, d.levels))
        k = max(map(abs, n.levels)) / d_top if d_top else n.bound / d.bound
    rest = _normal_form((1.0, num), (-k, den)).bound
    return k if rest <= 1e-9 * max(n.bound, k * d.bound) else None


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

    The callable must satisfy t - lag_bound <= fn(t) <= t; violations,
    and a delayed argument that is NaN, are reported lazily, at evaluation
    time, so the solver meets them at the step that reads them. The window
    extrema never call it: they read it through its lag envelope, which
    rests on the declared lag_bound alone.
    """

    fn: Callable[[float], float]
    lag_bound: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lag_bound) and self.lag_bound >= 0.0):
            raise ValueError("lag_bound must be finite and nonnegative")

    def __call__(self, t: float) -> float:
        v = self.fn(t)
        if not v <= t + 1e-9:  # also catches NaN, for which every comparison is False
            if v != v:
                raise DomainError("delayed argument at current time %g is not a number" % t)
            raise DomainError("delayed argument %g exceeds current time %g" % (v, t))
        if t - v > self.lag_bound + 1e-9:
            raise DomainError(
                "delayed argument %g lags current time %g by more than lag_bound %g"
                % (v, t, self.lag_bound)
            )
        return t if t < v else v  # min(v, t) without the builtin call


Delay = ConstantLag | IdentityDelay | GeneralDelay


def canonical_delay(d: Delay) -> Delay:
    """``d``, or ``IdentityDelay()`` for a zero ``ConstantLag``: both read x(t).

    Raises TypeError for anything but exactly a ``Delay`` class (a subclass
    may read other times than its lag says): a delayed argument of another
    class is wrapped as ``GeneralDelay(fn, lag_bound)``, which checks every
    value it returns.
    """
    if type(d) not in (ConstantLag, IdentityDelay, GeneralDelay):
        raise TypeError(
            "a delay must be a ConstantLag, IdentityDelay or GeneralDelay, not %s; "
            "wrap a delayed argument as GeneralDelay(fn, lag_bound)" % type(d).__name__
        )
    return IdentityDelay() if isinstance(d, ConstantLag) and d.lag == 0.0 else d


@dataclass(frozen=True)
class _Envelope:
    """t -> pick(d(t) for d in delays), pick being min or max.

    A value, not a closure, so that equal envelopes compare and hash equal
    and a search over one is a memo hit for the other.
    """

    delays: tuple
    pick: Callable

    def __call__(self, t: float) -> float:
        return self.pick(d(t) for d in self.delays)


def _is_general(*delays: Delay) -> bool:
    return any(type(d) is GeneralDelay for d in delays)


def _pointwise(delays: tuple, pick: Callable, opposite: Callable) -> Delay:
    """pick(d(t) for d in delays); the lags and lag bounds combine by the opposite."""
    for d in delays:
        canonical_delay(d)  # raises TypeError for a delay of another class
    if len(delays) == 1:
        return delays[0]
    bound = opposite(d.lag_bound for d in delays)
    if _is_general(*delays):
        return GeneralDelay(_Envelope(delays, pick), bound)
    return canonical_delay(ConstantLag(bound))


def delay_min(*delays: Delay) -> Delay:
    """Pointwise minimum of delayed arguments (the most-delayed one)."""
    return _pointwise(delays, min, max)


def delay_max(*delays: Delay) -> Delay:
    """Pointwise maximum of delayed arguments (the least-delayed one)."""
    return _pointwise(delays, max, min)


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
    return c.integral(t if t < lo else lo, t)  # min(lo, t) without the builtin call


def _search_class(
    cls: AsymptoticClass,
    delays: Sequence[Delay],
    horizon: Optional[float],
) -> AsymptoticClass:
    """The class an extremum is read under: the coefficients', or a given horizon's."""
    for d in delays:
        canonical_delay(d)  # raises TypeError for a delay of another class
    # GeneralClass rejects a non-finite or non-positive horizon with a plain
    # ValueError; criteria would turn a ConfigurationError into an
    # Inconclusive certificate.
    return cls if horizon is None else GeneralClass(float(horizon))


def _finite(v: float) -> float:
    return v if v == v else -math.inf  # NaN -> -inf so it never wins a max


def _golden_max(fn, lo: float, hi: float, xtol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc = _finite(fn(c))
    fd = _finite(fn(d))
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    while h > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = _finite(fn(c))
            if fc > best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = _finite(fn(d))
            if fd > best_v:
                best_x, best_v = d, fd
    return best_x, best_v


def _scan_range(t0: float, cls: AsymptoticClass, pad: float):
    """(lo, hi, horizon_limited): the range from t0 that an extremum is read over.

    An explicit horizon gives [t0, t0 + horizon + pad], flagged. Otherwise
    the range runs through the transient plus pad, past which a window of
    reach pad sees only the tail, and one tail period more (none for a
    constant tail): the whole of t >= t0, exactly.
    """
    if isinstance(cls, GeneralClass):
        return t0, t0 + cls.analysis_horizon + pad, True
    period = cls.period if isinstance(cls, PeriodicClass) else 0.0
    return t0, max(t0, cls.transient_end + pad) + period, False


def _maximize(fn, t0: float, cls, span_pad: float, points=(), values=None) -> SupInfo:
    """Supremum of fn over the class's scan range from t0.

    A grid locates the local maxima and a golden-section search refines
    each; ``points`` (kinks, breakpoints) join the grid, so none is stepped
    over. ``values``, when given, maps the grid (an array) to fn's values in
    one pass. They only choose the brackets: every value reported, a grid
    point's too, is fn's own, and fn reads again each grid point whose
    array value is not finite (NaN, where fn may be finite, or infinite).
    Without ``values`` every grid point is NaN, so fn reads them all.
    """
    lo, hi, limited = _scan_range(t0, cls, span_pad)
    grid = lo + (hi - lo) * np.arange(_GRID + 1) / _GRID
    inside = [x for x in points if lo < x < hi]
    if inside:
        grid = np.union1d(grid, inside)
    vals = np.full(grid.size, math.nan) if values is None else values(grid)
    odd = np.flatnonzero(~np.isfinite(vals))
    vals[odd] = [_finite(fn(x)) for x in grid[odd].tolist()]
    xs = grid.tolist()
    if np.isposinf(vals).any():
        return SupInfo(math.inf, xs[int(np.argmax(vals))], limited)
    best_x, best_v = xs[0], _finite(fn(xs[0]))
    xtol = max(_REFINE_XTOL, (hi - lo) * 1e-15)
    n = len(xs) - 1
    neighbours = np.concatenate(([-math.inf], vals, [-math.inf]))
    peaks = np.flatnonzero((vals >= neighbours[:-2]) & (vals >= neighbours[2:]) & (vals > -math.inf))
    for i in peaks.tolist():
        x, v = _golden_max(fn, xs[max(i - 1, 0)], xs[min(i + 1, n)], xtol)
        v_i = _finite(fn(xs[i]))
        if v_i > v:
            x, v = xs[i], v_i
        if v > best_v:
            best_x, best_v = x, v
    return SupInfo(best_v, best_x, limited)


def _window_extrema(c: Coefficient, near: float, far: float, t0: float, cls, pad: float):
    """(sup, inf) over the scan range from t0 of W(t), the integral of c over [t - far, t - near].

    Between two kinks (a breakpoint plus near or far), W' = c(t - near) -
    c(t - far) is a level, read at the piece's midpoint, plus a trigonometric
    polynomial. So the continuous W is read by c's own antiderivative at the
    range's ends, every kink and every zero of W', moved outward by a few
    ulps when c has waves. A single wave (f, w) over at least its period has
    the closed form level L +- |w| |sin(f L/2)| / (f/2), L = far - near, the
    infimum floored at 0 unless c is signed.
    """
    lo, hi, limited = _scan_range(t0, cls, pad)
    nf = _normal_form((1.0, c))
    if len(nf.waves) == 1 and not nf.breakpoints and (
        isinstance(cls, PeriodicClass)
        or (isinstance(cls, GeneralClass) and cls.analysis_horizon >= _TAU / nf.waves[0][0])
    ):
        (f, w), length = nf.waves[0], far - near
        half, swing = nf.levels[0] * length, abs(w) * abs(math.sin(f * length / 2.0)) / (f / 2.0)
        ulps = _PAD_ULPS * math.ulp(half + swing)
        low = half - swing - ulps
        # W - half is Re(hat e^{i f t}) / f: largest where f t = -arg(hat), least pi past it.
        hat = w * (cmath.exp(-1j * f * near) - cmath.exp(-1j * f * far)) / 1j
        t_top, t_low = (lo + (x - cmath.phase(hat) - lo * f) % _TAU / f for x in (0.0, math.pi))
        return (SupInfo(half + swing + ulps, t_top, limited),
                SupInfo(low if nf.signed else max(low, 0.0), t_low, limited))
    kinks = sorted({b + s for b in nf.breakpoints for s in (near, far)})
    nu, angles = 1.0, None
    if nf.waves:
        nu, (g,) = _harmonics(nf)
        K = (len(g) - 1) // 2
        m = np.arange(-K, K + 1)
        slope = g * (np.exp(-1j * nu * near * m) - np.exp(-1j * nu * far * m))

        def angles(mid: float) -> list:
            h = slope.copy()
            h[K] += nf.level(mid - near) - nf.level(mid - far)
            return _trig_zeros(h)

    values = [(c.integral(t - far, t - near), t)
              for t, _ in _candidates(kinks, bool(nf.waves), lo, hi, nu, angles)]
    (top, t_top), (low, t_low) = (pick(values, key=lambda v: v[0]) for pick in (max, min))
    if nf.waves:
        top += _PAD_ULPS * sum(math.ulp(c.antiderivative(t_top - s)) for s in (near, far))
        low -= _PAD_ULPS * sum(math.ulp(c.antiderivative(t_low - s)) for s in (near, far))
    return SupInfo(top, t_top, limited), SupInfo(low, t_low, limited)


def _envelope_sup(c: Coefficient, far: float, t0: float, cls) -> SupInfo:
    """An upper bound over the range from t0 of |integral of c over [u, v]|, u, v in [t - far, t].

    That is where the ends of a window or gap lie when far is the larger lag
    bound, give or take the 1e-9 by which a general delay's own check lets
    a read pass its bound. With W the integral of c over [t - far, t],
    eps = max(0, -min c) for a signed form and 0 otherwise, and |c| <= B,
    the bound is max(sup W, 0) + far eps + 1e-9 B. No delay is called: the
    bound rests on the declared lag_bound.
    """
    nf = _normal_form((1.0, c))
    top = _window_extrema(c, 0.0, far, t0, cls, far)[0]
    eps = max(0.0, -_least(nf, -math.inf, math.inf)[1]) if nf.signed else 0.0
    return SupInfo(max(top.value, 0.0) + far * eps + 1e-9 * nf.bound, top.argmax,
                   top.horizon_limited)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def sup_window_integral_info(
    c: Coefficient,
    lower: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> SupInfo:
    """Essential supremum over t >= t0 of the integral of c over [lower(t), t].

    Exact at a constant lag; through a general delay, its lag envelope
    bounds it (see ``_envelope_sup``).
    """
    cls = _search_class(c.asymptotic_class, [lower], horizon)
    if _is_general(lower):
        return _envelope_sup(c, lower.lag_bound, t0, cls)
    return _window_extrema(c, 0.0, lower.lag_bound, t0, cls, lower.lag_bound)[0]


def sup_window_integral(
    c: Coefficient,
    lower: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> float:
    return sup_window_integral_info(c, lower, t0, horizon=horizon).value


@functools.lru_cache(maxsize=_MEMO_SIZE)
def sup_between_delays_info(
    c: Coefficient,
    d1: Delay,
    d2: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> SupInfo:
    """Essential supremum over t >= t0 of |integral of c over [d1(t), d2(t)]|.

    When d2 is the identity and c is nonnegative by construction (built
    without a signed combination), the integral is the window integral over
    [d1(t), t] and that search answers. At constant lags it is the larger
    of sup W and -inf W, W the integral from the farther to the nearer lag.
    With a general delay the lag envelope bounds it (see ``_envelope_sup``),
    but a general delay and itself leave an empty gap: exactly 0.
    """
    nf = _normal_form((1.0, c))
    if isinstance(d2, IdentityDelay) and not nf.signed:
        return sup_window_integral_info(c, d1, t0, horizon=horizon)
    cls = _search_class(nf.asymptotic_class, [d1, d2], horizon)
    if d1 == d2 and _is_general(d1):
        return SupInfo(0.0, float(t0), horizon is not None)
    if _is_general(d1, d2):
        return _envelope_sup(c, max(d1.lag_bound, d2.lag_bound), t0, cls)
    near, far = sorted((d1.lag_bound, d2.lag_bound))
    top, low = _window_extrema(c, near, far, t0, cls, far)
    if top.value >= -low.value:
        return top
    return SupInfo(-low.value, low.argmax, low.horizon_limited)


def sup_between_delays(
    c: Coefficient,
    d1: Delay,
    d2: Delay,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> float:
    return sup_between_delays_info(c, d1, d2, t0, horizon=horizon).value


@functools.lru_cache(maxsize=_MEMO_SIZE)
def liminf_forward_integral_info(
    c: Coefficient,
    length: float,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> SupInfo:
    """Essential infimum over t >= t0 of the integral of c over [t, t+length].

    The scan covers the transient and one tail period, so the value is the
    infimum over all t >= t0; under an explicit horizon it is a
    horizon-limited stand-in.
    """
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError("length must be finite and positive")
    cls = _search_class(c.asymptotic_class, [], horizon)
    return _window_extrema(c, -length, 0.0, t0, cls, length)[1]


def liminf_forward_integral(
    c: Coefficient,
    length: float,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
) -> float:
    return liminf_forward_integral_info(c, length, t0, horizon=horizon).value


@functools.lru_cache(maxsize=_MEMO_SIZE)
def ratio_extrema(
    num: Coefficient,
    den: Coefficient,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
):
    """(esssup, essinf) of num(t)/den(t) for t >= t0.

    Proportional coefficients give their ratio. While the denominator
    stays positive, the ratio is read at the candidates of the normal forms,
    stationary where p'q - pq' (a trigonometric polynomial) vanishes, and
    moved outward by a few ulps when a form has waves. A denominator that
    reaches zero is searched: where it vanishes with the numerator the
    point is excluded (the ratio is defined a.e.), and under a nonvanishing
    numerator the supremum is infinite.
    """
    k = proportional_ratio(num, den)
    if k is not None:
        return SupInfo(k, t0, False), SupInfo(k, t0, False)
    forms = (_normal_form((1.0, num)), _normal_form((1.0, den)))
    cls = _search_class(_class_of(*forms), [], horizon)
    lo, hi, limited = _scan_range(t0, cls, 0.0)
    least = _least(forms[1], lo, hi)
    bps = sorted(set(forms[0].breakpoints).union(forms[1].breakpoints))
    if least[1] > 1e-12 * forms[1].bound:
        nu, (p, q) = _harmonics(*forms)
        K = (len(p) - 1) // 2

        def angles(mid: float) -> list:
            pa, qa = p.copy(), q.copy()
            pa[K] += forms[0].level(mid)
            qa[K] += forms[1].level(mid)
            return _trig_zeros(np.convolve(_derivative(pa), qa) - np.convolve(pa, _derivative(qa)))

        points = []
        for t, m in _candidates(bps, bool(forms[0].waves or forms[1].waves), lo, hi, nu, angles):
            nv, dv = (c.value(t) + (nf.level(m) - nf.level(t)) for c, nf in zip((num, den), forms))
            points.append((t, nv / dv))
        (t_hi, r_hi), (t_lo, r_lo) = (f(points, key=lambda p: p[1]) for f in (max, min))
        ulps = math.ulp(forms[0].bound) + max(abs(r_hi), abs(r_lo)) * math.ulp(forms[1].bound)
        pad = _PAD_ULPS * ulps / least[1] if forms[0].waves or forms[1].waves else 0.0
        return SupInfo(r_hi + pad, t_hi, limited), SupInfo(r_lo - pad, t_lo, limited)
    scale = coefficient_extrema(den, t0, horizon=horizon)[0].value
    floor, tol = 1e-12 * max(scale, 1e-300), 1e-9 * max(scale, 1.0)

    def ratio_at(t: float) -> float:
        dv = den.value(t)
        nv = num.value(t)
        if abs(dv) <= floor:
            if abs(nv) <= tol:
                return math.nan
            return math.inf
        return nv / dv

    if not (forms[0].waves or forms[1].waves):
        # Without waves the ratio is constant on each piece: one read each.
        reads = [(ratio_at(t), t) for t, _ in _candidates(bps, False, lo, hi, 1.0, None)]
        (r_hi, t_hi), (r_lo, t_lo) = (
            max(reads, key=lambda r: _finite(sign * r[0])) for sign in (1.0, -1.0))
        return SupInfo(_finite(r_hi), t_hi, limited), SupInfo(-_finite(-r_lo), t_lo, limited)

    def ratios(xs: np.ndarray) -> np.ndarray:
        nv, dv = forms[0].values(xs), forms[1].values(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(dv) <= floor,
                            np.where(np.abs(nv) <= tol, math.nan, math.inf), nv / dv)

    r_hi = _maximize(ratio_at, t0, cls, 0.0, bps, ratios)
    r_lo = _maximize(lambda t: -ratio_at(t), t0, cls, 0.0, bps, lambda xs: -ratios(xs))
    return r_hi, SupInfo(-r_lo.value, r_lo.argmax, r_lo.horizon_limited)


def coefficient_extrema(
    c: Coefficient,
    t0: float = 0.0,
    *,
    horizon: Optional[float] = None,
):
    """(esssup, essinf) of the coefficient's values for t >= t0: those of c/1."""
    return ratio_extrema(c, _ONE, t0, horizon=horizon)


def persistent_mean(c: Coefficient, t0: float = 0.0) -> float:
    """The long-run mean value of c, exactly: that of its tail.

    The tail is read from max(t0, transient_end): its one value, or its
    mean over one period.
    """
    cls = c.asymptotic_class
    lo = max(t0, cls.transient_end)
    if isinstance(cls, ConstantClass):
        return c.value(lo)
    return c.integral(lo, lo + cls.period) / cls.period


def vanishing_fraction(c: Coefficient, t0: float = 0.0) -> float:
    """Fraction of all t >= t0 where c vanishes: 1.0 or 0.0.

    The tail is read from max(t0, transient_end), since a transient is a
    null fraction of all t >= t0. Waves vanish only on a null set, and a
    tail without waves has one level, so c vanishes on all of the tail or on
    none of it. TypeError without a normal form.
    """
    nf = _normal_form((1.0, c))
    if nf.waves:
        return 0.0
    return 1.0 if nf.level(max(t0, nf.asymptotic_class.transient_end)) == 0.0 else 0.0
