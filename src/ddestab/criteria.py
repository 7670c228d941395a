"""Exponential-stability certificates for scalar linear delay equations.

The equations have the form

    x'(t) + sum_k a_k(t) x(h_k(t)) - sum_j b_j(t) x(g_j(t)) = 0

with nonnegative coefficients on both sides and bounded delays, optionally
with distributed (window-averaged) terms instead of concentrated ones.
Three checkers produce machine-checkable certificates:

- ``check_nondelay_dominant``: the positive side is an undelayed term that
  dominates the negative side pointwise.
- ``check_diff_form``: tests driven by window integrals of the difference
  a - b (applicable when the difference is persistent).
- ``check_ratio_form``: tests driven by window integrals of a itself and
  the ratio b/a.

Every certificate records the computed quantities, the individual
inequality checks with margins, and a verdict that is sound with respect
to the listed checks: UniformExponential or Asymptotic means every check
holds; Marginal means each check holds or fails within ``MARGINAL_BAND``.
One rule, ``_conclude``, turns the checks into the verdict, for the
model certificates too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import timefn as tf
from .timefn import Coefficient, Delay, IdentityDelay, PeriodicClass

__all__ = [
    "UNIFORM_EXPONENTIAL",
    "ASYMPTOTIC",
    "MARGINAL",
    "INCONCLUSIVE",
    "MARGINAL_BAND",
    "Term",
    "UniformKernel",
    "DistributedTerm",
    "LinearDelayEquation",
    "ReducedPair",
    "Quantity",
    "Check",
    "Certificate",
    "reduce",
    "check_nondelay_dominant",
    "check_diff_form",
    "check_ratio_form",
    "evaluate_all",
    "best_verdict",
]

UNIFORM_EXPONENTIAL = "UniformExponential"
ASYMPTOTIC = "Asymptotic"
MARGINAL = "Marginal"
INCONCLUSIVE = "Inconclusive"

_VERDICT_RANK = {UNIFORM_EXPONENTIAL: 3, ASYMPTOTIC: 2, MARGINAL: 1, INCONCLUSIVE: 0}

MARGINAL_BAND = 1e-9
_INV_E = 1.0 / math.e
_VANISH_LIMIT = 0.02


# ---------------------------------------------------------------------------
# Equation description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One concentrated term coeff(t) * x(delay(t)); a zero lag reads x(t)."""

    coeff: Coefficient
    delay: Delay

    def __post_init__(self) -> None:
        object.__setattr__(self, "delay", tf.canonical_delay(self.delay))


@dataclass(frozen=True)
class UniformKernel:
    """Uniform averaging kernel over the term's window.

    ``width`` of None spreads the mass over the whole window [w(t), t];
    a finite width concentrates it uniformly on [w(t), w(t) + width].
    """

    width: Optional[float] = None

    def __post_init__(self) -> None:
        if self.width is not None and not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError("kernel width must be positive when given")


@dataclass(frozen=True)
class DistributedTerm:
    """A window-averaged term sign * weight(t) * avg_{[w(t), t]} x.

    ``sign`` +1 puts the term on the positive (removal) side of the
    equation, -1 on the negative side.
    """

    sign: int
    total_weight: Coefficient
    window_start: Delay
    kernel: UniformKernel = UniformKernel()

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "window_start", tf.canonical_delay(self.window_start))
        if isinstance(self.window_start, IdentityDelay):
            raise ValueError("distributed term needs a window of positive length")


@dataclass(frozen=True)
class LinearDelayEquation:
    positive_terms: tuple = ()
    negative_terms: tuple = ()
    distributed_terms: tuple = ()
    t0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive_terms", tuple(self.positive_terms))
        object.__setattr__(self, "negative_terms", tuple(self.negative_terms))
        object.__setattr__(self, "distributed_terms", tuple(self.distributed_terms))
        for term in self.positive_terms + self.negative_terms:
            if not isinstance(term, Term):
                raise TypeError("positive/negative entries must be Term instances")
        for term in self.distributed_terms:
            if not isinstance(term, DistributedTerm):
                raise TypeError("distributed entries must be DistributedTerm instances")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        # The framework requires the positive side to dominate pointwise:
        # sum a_k(t) >= sum b_j(t) for (almost) all t >= t0.
        t = tf.domination_violation(self._pos_coeffs(), self._neg_coeffs(), self.t0)
        if t is not None:
            raise ValueError(
                "negative-side coefficients exceed the positive side at t=%g "
                "(violates the domination requirement)" % t
            )

    def _pos_coeffs(self):
        return [t.coeff for t in self.positive_terms] + [
            d.total_weight for d in self.distributed_terms if d.sign == 1
        ]

    def _neg_coeffs(self):
        return [t.coeff for t in self.negative_terms] + [
            d.total_weight for d in self.distributed_terms if d.sign == -1
        ]

    @property
    def all_delays(self):
        delays = [t.delay for t in self.positive_terms + self.negative_terms]
        delays.extend(d.window_start for d in self.distributed_terms)
        return delays

    @property
    def max_lag(self) -> float:
        return max((d.lag_bound for d in self.all_delays), default=0.0)


@dataclass(frozen=True)
class ReducedPair:
    """Aggregated two-term view of a multi-term equation.

    a/b are the summed positive/negative coefficients; h/H (g/G) bracket the
    positive (negative) delayed arguments; r/R bracket everything; r/U
    bracket h and g, the most-delayed arguments of the two sides.
    """

    a: Coefficient
    b: Coefficient
    h: Delay
    H: Delay
    g: Delay
    G: Delay
    r: Delay
    R: Delay
    U: Delay


def reduce(eq: LinearDelayEquation) -> ReducedPair:
    pos_coeffs = eq._pos_coeffs()
    neg_coeffs = eq._neg_coeffs()
    pos_delays = [t.delay for t in eq.positive_terms]
    neg_delays = [t.delay for t in eq.negative_terms]
    for d in eq.distributed_terms:
        # A window term reads x across [w(t), t]; both ends bound its reach.
        target = pos_delays if d.sign == 1 else neg_delays
        target.append(d.window_start)
        target.append(IdentityDelay())
    a = tf.coeff_sum(pos_coeffs) if pos_coeffs else tf.constant(0.0)
    b = tf.coeff_sum(neg_coeffs) if neg_coeffs else tf.constant(0.0)
    h = tf.delay_min(*pos_delays) if pos_delays else IdentityDelay()
    H = tf.delay_max(*pos_delays) if pos_delays else IdentityDelay()
    g = tf.delay_min(*neg_delays) if neg_delays else IdentityDelay()
    G = tf.delay_max(*neg_delays) if neg_delays else IdentityDelay()
    r = tf.delay_min(h, g)
    R = tf.delay_max(H, G)
    U = tf.delay_max(h, g)
    return ReducedPair(a=a, b=b, h=h, H=H, g=g, G=G, r=r, R=R, U=U)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quantity:
    symbol: str
    value: float
    source: str


@dataclass(frozen=True)
class Check:
    """One inequality ``lhs direction rhs`` with its evaluation.

    ``margin`` is how far the inequality holds: rhs - lhs for "<" checks,
    lhs - rhs for ">" checks. Strict checks are satisfied only when the
    margin clears the marginal band; non-strict checks pass at margin 0.
    ``marginal`` flags failures within the band of the bound. A check with
    a side that is not finite is neither.
    """

    description: str
    lhs: float
    rhs: float
    strict: bool
    direction: str
    satisfied: bool
    margin: float
    marginal: bool


def make_check(
    description: str, lhs: float, rhs: float, *, strict: bool, direction: str = "<"
) -> Check:
    if direction not in ("<", ">"):
        raise ValueError("direction must be '<' or '>'")
    margin = (rhs - lhs) if direction == "<" else (lhs - rhs)
    # A side that is not finite fails closed, whatever the margin says.
    finite = math.isfinite(lhs) and math.isfinite(rhs)
    if strict:
        satisfied = finite and margin > MARGINAL_BAND
    else:
        satisfied = finite and margin >= 0.0
    marginal = finite and not satisfied and margin >= -MARGINAL_BAND
    return Check(
        description=description,
        lhs=lhs,
        rhs=rhs,
        strict=strict,
        direction=direction,
        satisfied=satisfied,
        margin=margin,
        marginal=marginal,
    )


def _json_num(x: float) -> Optional[float]:
    """The value, or None (JSON null) when it is not finite."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class Certificate:
    name: str
    verdict: str
    quantities: tuple = ()
    checks: tuple = ()
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "quantities": [
                {"symbol": q.symbol, "value": _json_num(q.value), "source": q.source}
                for q in self.quantities
            ],
            "checks": [
                {
                    "description": c.description,
                    "lhs": _json_num(c.lhs),
                    "rhs": _json_num(c.rhs),
                    "strict": c.strict,
                    "direction": c.direction,
                    "satisfied": c.satisfied,
                    "margin": _json_num(c.margin),
                    "marginal": c.marginal,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
        }


def _conclude(
    name: str,
    strength: str,
    quantities: Sequence[Quantity],
    checks: Sequence[Check],
    notes: Sequence[str],
) -> Certificate:
    if all(c.satisfied for c in checks):
        verdict = strength
    elif all(c.satisfied or c.marginal for c in checks):
        verdict = MARGINAL
    else:
        verdict = INCONCLUSIVE
    return Certificate(
        name=name,
        verdict=verdict,
        quantities=tuple(quantities),
        checks=tuple(checks),
        notes=tuple(notes),
    )


def _inapplicable(name: str, reason: str) -> Certificate:
    check = make_check(
        "applicability precondition holds (indicator): " + reason,
        0.0,
        0.5,
        strict=False,
        direction=">",
    )
    return _conclude(name, INCONCLUSIVE, (), (check,), ("checker not applicable: " + reason,))


def _default_T(c: Coefficient) -> float:
    cls = c.asymptotic_class
    if isinstance(cls, PeriodicClass):
        return cls.period
    return 1.0


def _persistence_checks(c: Coefficient, label: str, t0: float):
    """Structural checks that the integral of ``c`` diverges (persistence).

    Every coefficient has a constant or periodic tail, so the structural
    indicator always reads 1 and the long-run mean is exact.
    """
    checks = []
    mean = tf.persistent_mean(c, t0)
    checks.append(
        make_check(
            "persistence of %s verifiable from structure "
            "(indicator: 1 = constant/periodic class)" % label,
            1.0,
            0.5,
            strict=False,
            direction=">",
        )
    )
    checks.append(
        make_check(
            "long-run mean of %s is positive" % label, mean, 0.0, strict=True, direction=">"
        )
    )
    checks.append(_vanishing_check(c, label, t0))
    return checks, mean


def _vanishing_check(c: Coefficient, label: str, t0: float) -> Check:
    return make_check(
        "%s vanishes only on a negligible fraction of times" % label,
        tf.vanishing_fraction(c, t0),
        _VANISH_LIMIT,
        strict=True,
        direction="<",
    )


def _no_expansion(subject: str, S: float) -> Check:
    """The window integral S of the ``subject`` side against the
    no-expansion bound 1/e: within it (non-strict), else exceeding it."""
    if S <= _INV_E:
        return make_check(
            "%s window integral within the no-expansion bound 1/e" % subject,
            S,
            _INV_E,
            strict=False,
            direction="<",
        )
    return make_check(
        "%s window integral exceeds the no-expansion bound 1/e" % subject,
        S,
        _INV_E,
        strict=True,
        direction=">",
    )


def _persistence_upgrade(
    name: str,
    c: Coefficient,
    integrand: str,
    subject: str,
    quantities: list,
    checks: list,
    notes: list,
    T: Optional[float],
    t0: float,
    horizon: Optional[float],
) -> Certificate:
    """Conclude a certificate from its checks and, when they all hold, the upgrade.

    The verdict is uniform exponential when the forward integral of ``c``
    over windows of length T stays positive, and asymptotic otherwise.
    """
    if not all(c_.satisfied for c_ in checks):
        return _conclude(name, ASYMPTOTIC, quantities, checks, notes)
    T_used = T if T is not None else _default_T(c)
    lim_info = tf.liminf_forward_integral_info(c, T_used, t0, horizon=horizon)
    quantities.append(
        Quantity(
            "liminf_T",
            lim_info.value,
            "essential infimum of the forward integral of %s over windows of length T=%g"
            % (integrand, T_used),
        )
    )
    upgrade = make_check(
        "%s persistently positive over windows of length T=%g" % (subject, T_used),
        lim_info.value,
        0.0,
        strict=True,
        direction=">",
    )
    if upgrade.satisfied and not lim_info.horizon_limited:
        checks.append(upgrade)
        return _conclude(name, UNIFORM_EXPONENTIAL, quantities, checks, notes)
    notes.append(
        "persistent-positivity upgrade unavailable over windows of length "
        "T=%g; verdict limited to asymptotic stability" % T_used
    )
    return _conclude(name, ASYMPTOTIC, quantities, checks, notes)


def _gap_pair(eq: LinearDelayEquation, red: ReducedPair):
    """The delay pair whose gap integral enters the certificate, with a label."""
    if eq.distributed_terms:
        return red.r, red.U, "between the window-start arguments of the two sides"
    if len(eq.positive_terms) <= 1 and len(eq.negative_terms) <= 1:
        return red.h, red.g, "between the delayed arguments of the two sides"
    return red.r, red.R, "across the full spread of delayed arguments"


def _read_notes(infos: Sequence[tf.SupInfo], delays: Sequence[Delay] = ()) -> list:
    """The notes on how the window quantities were read through ``delays``.

    A quantity read through a general delay is an upper bound from its
    declared lag_bound; every check that reads one only gets harder as the
    quantity grows, so the verdict stays sound.
    """
    notes = []
    if any(info.horizon_limited for info in infos):
        notes.append(
            "one or more suprema were scanned up to a finite horizon; the "
            "certificate is conditional on the scan capturing the essential extrema"
        )
    if any(isinstance(d, tf.GeneralDelay) for d in delays):
        notes.append(
            "window integrals read through a general delayed argument are upper "
            "bounds from its declared lag_bound, a premise of the certificate: "
            "the delay itself is never called"
        )
    return notes


# ---------------------------------------------------------------------------
# Checker: difference form
# ---------------------------------------------------------------------------


def check_diff_form(
    eq: LinearDelayEquation,
    T: Optional[float] = None,
    *,
    horizon: Optional[float] = None,
) -> Certificate:
    """Stability test driven by window integrals of the difference a - b.

    Asymptotic stability when the windowed integral of a - b stays close
    enough to the no-expansion bound 1/e and the gap between the two sides'
    delayed arguments is small relative to b/(a-b); upgraded to uniform
    exponential stability when a - b is persistently positive over windows
    of length T.
    """
    name = "diff-form"
    if eq.distributed_terms and (eq.positive_terms or eq.negative_terms):
        return _inapplicable(
            name, "equation mixes concentrated and distributed terms"
        )
    red = reduce(eq)
    try:
        c = tf.difference(red.a, red.b)
    except ValueError:
        return _inapplicable(name, "difference of the two sides is not nonnegative")
    t0 = eq.t0
    checks, mean = _persistence_checks(c, "the coefficient difference", t0)
    quantities = [Quantity("mean_diff", mean, "long-run mean value of a-b")]

    d1, d2, gap_label = _gap_pair(eq, red)
    try:
        s_info = tf.sup_window_integral_info(c, red.h, t0, horizon=horizon)
        v_info = tf.sup_between_delays_info(c, d1, d2, t0, horizon=horizon)
    except tf.ConfigurationError as exc:
        return _inapplicable(name, str(exc))
    q_hi, _ = tf.ratio_extrema(red.b, c, t0, horizon=horizon)
    S, Q, V = s_info.value, q_hi.value, v_info.value
    star = max(S - _INV_E, 0.0) + 2.0 * Q * V
    quantities += [
        Quantity("S", S, "esssup over t of int_{h(t)}^{t} (a-b)(s) ds"),
        Quantity("Q", Q, "esssup over t of b(t)/(a-b)(t)"),
        Quantity("V", V, "esssup over t of |int (a-b)(s) ds| " + gap_label),
        Quantity(
            "N_star",
            star,
            "positive excess of S over 1/e plus twice the product Q*V",
        ),
    ]
    notes = _read_notes((s_info, v_info, q_hi), (red.h, d1, d2))

    checks.append(_no_expansion("difference", S))
    if S <= _INV_E:
        checks.append(
            make_check(
                "product of the side ratio and the gap integral below one half",
                Q * V,
                0.5,
                strict=True,
                direction="<",
            )
        )
    else:
        checks.append(
            make_check(
                "combined window and gap bound below 1 + 1/e",
                S + 2.0 * Q * V,
                1.0 + _INV_E,
                strict=True,
                direction="<",
            )
        )
    return _persistence_upgrade(
        name, c, "a-b", "difference", quantities, checks, notes, T, t0, horizon
    )


# ---------------------------------------------------------------------------
# Checker: ratio form
# ---------------------------------------------------------------------------


def check_ratio_form(
    eq: LinearDelayEquation,
    T: Optional[float] = None,
    *,
    horizon: Optional[float] = None,
) -> Certificate:
    """Stability test driven by window integrals of the positive side a.

    Requires the ratio b/a bounded below one and the gap integral of a
    below one; asymptotic stability when the windowed integral of a stays
    within a bound built from the ratio extrema, upgraded to uniform
    exponential stability when a is persistently positive.
    """
    name = "ratio-form"
    if eq.distributed_terms and (eq.positive_terms or eq.negative_terms):
        return _inapplicable(
            name, "equation mixes concentrated and distributed terms"
        )
    red = reduce(eq)
    t0 = eq.t0
    checks, mean = _persistence_checks(red.a, "the positive-side coefficient", t0)
    quantities = [Quantity("mean_a", mean, "long-run mean value of a")]

    d1, d2, gap_label = _gap_pair(eq, red)
    try:
        s_info = tf.sup_window_integral_info(red.a, red.h, t0, horizon=horizon)
        v_info = tf.sup_between_delays_info(red.a, d1, d2, t0, horizon=horizon)
    except tf.ConfigurationError as exc:
        return _inapplicable(name, str(exc))
    r_hi, r_lo = tf.ratio_extrema(red.b, red.a, t0, horizon=horizon)
    S, V = s_info.value, v_info.value
    R_sup, R_inf = r_hi.value, max(r_lo.value, 0.0)
    quantities += [
        Quantity("S_a", S, "esssup over t of int_{h(t)}^{t} a(s) ds"),
        Quantity("R_sup", R_sup, "esssup over t of b(t)/a(t)"),
        Quantity("R_inf", R_inf, "essinf over t of b(t)/a(t)"),
        Quantity("V_a", V, "esssup over t of |int a(s) ds| " + gap_label),
    ]
    notes = _read_notes((s_info, v_info, r_hi, r_lo), (red.h, d1, d2))

    checks.append(
        make_check(
            "negative-to-positive ratio bounded below one",
            R_sup,
            1.0,
            strict=True,
            direction="<",
        )
    )
    checks.append(
        make_check(
            "gap integral of the positive side below one",
            V,
            1.0,
            strict=True,
            direction="<",
        )
    )

    proportional = tf.proportional_ratio(red.b, red.a) is not None
    g_identity = not eq.distributed_terms and all(
        isinstance(t.delay, IdentityDelay) for t in eq.negative_terms
    )
    checks.append(_no_expansion("positive-side", S))
    # The exact complement of the entry test: a NaN S takes these checks too.
    if not S <= _INV_E:
        if proportional and g_identity:
            checks.append(
                make_check(
                    "positive-side window integral below (1 + 1/e)/2 "
                    "(negative side undelayed, proportional coefficients)",
                    S,
                    (1.0 + _INV_E) / 2.0,
                    strict=True,
                    direction="<",
                )
            )
        elif proportional:
            checks.append(
                make_check(
                    "combined window and gap bound below 1 + 1/e "
                    "(proportional coefficients)",
                    S + V,
                    1.0 + _INV_E,
                    strict=True,
                    direction="<",
                )
            )
        else:
            if R_inf >= 1.0 - 1e-15:
                bound = _INV_E
            else:
                bound = (1.0 - R_sup) / (1.0 - R_inf) * (1.0 - V) + _INV_E
            quantities.append(
                Quantity(
                    "bound",
                    bound,
                    "(1 - sup b/a)/(1 - inf b/a) * (1 - gap integral) + 1/e",
                )
            )
            checks.append(
                make_check(
                    "positive-side window integral below the ratio-weighted bound",
                    S,
                    bound,
                    strict=True,
                    direction="<",
                )
            )
    return _persistence_upgrade(
        name, red.a, "a", "positive side", quantities, checks, notes, T, t0, horizon
    )


# ---------------------------------------------------------------------------
# Checker: non-delay-dominant form
# ---------------------------------------------------------------------------


def check_nondelay_dominant(
    eq: LinearDelayEquation,
    T: Optional[float] = None,
    *,
    horizon: Optional[float] = None,
) -> Certificate:
    """Stability test for equations whose positive side is undelayed.

    Applicable when the equation has exactly one positive term a(t) x(t)
    with a bounded away from zero. Concentrated negative sides give
    uniform exponential stability outright when sup b/a < 1; a single
    distributed negative term gives asymptotic stability, upgraded when
    a - b is persistently positive.
    """
    name = "nondelay-dominant"
    pos_dist = [d for d in eq.distributed_terms if d.sign == 1]
    neg_dist = [d for d in eq.distributed_terms if d.sign == -1]
    if pos_dist or len(eq.positive_terms) != 1:
        return _inapplicable(name, "positive side is not a single concentrated term")
    a_term = eq.positive_terms[0]
    if not isinstance(a_term.delay, IdentityDelay):
        return _inapplicable(name, "positive term is delayed")
    if neg_dist and eq.negative_terms:
        return _inapplicable(
            name, "negative side mixes concentrated and distributed terms"
        )
    if len(neg_dist) > 1:
        return _inapplicable(name, "negative side has several distributed terms")

    a = a_term.coeff
    b = reduce(eq).b
    t0 = eq.t0
    try:
        _, a_lo = tf.coefficient_extrema(a, t0, horizon=horizon)
    except tf.ConfigurationError as exc:
        return _inapplicable(name, str(exc))
    r_hi, _ = tf.ratio_extrema(b, a, t0, horizon=horizon)

    quantities = [
        Quantity("a_inf", a_lo.value, "essinf over t of the undelayed coefficient a"),
        Quantity("R_sup", r_hi.value, "esssup over t of the summed ratio b/a"),
    ]
    notes = _read_notes((a_lo, r_hi))
    checks = [
        _vanishing_check(a, "undelayed coefficient", t0),
        make_check(
            "undelayed coefficient bounded away from zero",
            a_lo.value,
            0.0,
            strict=True,
            direction=">",
        ),
        make_check(
            "summed negative-to-positive ratio bounded below one",
            r_hi.value,
            1.0,
            strict=True,
            direction="<",
        ),
    ]
    if not all(c.satisfied for c in checks):
        return _conclude(name, ASYMPTOTIC, quantities, checks, notes)

    if not neg_dist:
        return _conclude(name, UNIFORM_EXPONENTIAL, quantities, checks, notes)

    # Window-averaged negative side: exponential upgrade needs persistence
    # of a - b.
    try:
        c = tf.difference(a, b)
    except ValueError:
        return _conclude(name, ASYMPTOTIC, quantities, checks, notes)
    return _persistence_upgrade(
        name, c, "a-b", "difference", quantities, checks, notes, T, t0, horizon
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def evaluate_all(
    eq: LinearDelayEquation,
    T: Optional[float] = None,
    *,
    horizon: Optional[float] = None,
):
    """Run every checker and return the certificates, strongest verdict first."""
    certs = [
        check_nondelay_dominant(eq, T, horizon=horizon),
        check_diff_form(eq, T, horizon=horizon),
        check_ratio_form(eq, T, horizon=horizon),
    ]
    certs.sort(key=lambda c: -_VERDICT_RANK[c.verdict])
    return tuple(certs)


def best_verdict(certs) -> str:
    return max((c.verdict for c in certs), key=_VERDICT_RANK.__getitem__, default=INCONCLUSIVE)
