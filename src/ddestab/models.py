"""Nonlinear blood-cell-regulation models with saturating production.

Two variants are supported, both with a time-varying, possibly vanishing
rate in front of the whole right-hand side:

- removal-delay form:
    x'(t) = r(t) [ beta x(g(t)) / (1 + x(g(t))^n) - gamma x(h(t)) ]
- production/self-clearance form:
    x'(t) = s(t) [ beta x(p(t)) / (1 + x(q(t))^n) - x(t) ]

Each admits a unique positive equilibrium when production dominates
clearance (beta > gamma, resp. beta > 1). ``linearize`` produces the
linear delay equation governing perturbations around that equilibrium and
the ``check_les_*`` functions certify local exponential stability by
applying the linear stability tests to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import criteria as cr
from . import timefn as tf
from .timefn import Coefficient, ConstantLag, Delay, IdentityDelay

__all__ = [
    "NoPositiveEquilibriumError",
    "MackeyGlassRemoval",
    "MackeyGlassProduction",
    "equilibrium",
    "linearize",
    "removal_reaction",
    "production_reaction",
    "check_les_removal",
    "check_les_production",
    "production_stability_checks",
    "eq3",
    "eq26",
    "eq27",
    "eq3abc",
    "ex51",
    "ex5",
    "BUILTINS",
    "BuiltinSpec",
    "make_builtin",
]


class NoPositiveEquilibriumError(ValueError):
    """Production does not dominate clearance, so no positive equilibrium."""


def _pow(x, n: float):
    """x**n; NaN for a negative x under a fractional n, which has no real value.

    The NaN makes the derivative non-finite, so the integrator stops the run
    as diverged. An array goes element by element through the same Python
    ``**``: glibc's ``pow(x, 2)`` is not ``x*x`` (``0.5500016000000001**2``
    differs from the square in the last bit), and numpy's power squares.
    """
    whole = float(n).is_integer()
    if whole:
        n = int(n)
    if isinstance(x, np.ndarray):
        return np.array([v ** n if whole or v >= 0.0 else math.nan for v in x.tolist()])
    if not whole and x < 0.0:
        return math.nan
    return x ** n


@dataclass(frozen=True)
class MackeyGlassRemoval:
    """x'(t) = r(t) [ beta x(g(t)) / (1 + x(g(t))^n) - gamma x(h(t)) ]."""

    r: Coefficient
    beta: float
    gamma: float
    n: float
    g: Delay
    h: Delay

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be positive")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if not (math.isfinite(self.n) and self.n > 0.0):
            raise ValueError("n must be positive")
        object.__setattr__(self, "g", tf.canonical_delay(self.g))
        object.__setattr__(self, "h", tf.canonical_delay(self.h))


@dataclass(frozen=True)
class MackeyGlassProduction:
    """x'(t) = s(t) [ beta x(p(t)) / (1 + x(q(t))^n) - x(t) ]."""

    s: Coefficient
    beta: float
    n: float
    p: Delay
    q: Delay

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be positive")
        if not (math.isfinite(self.n) and self.n > 0.0):
            raise ValueError("n must be positive")
        object.__setattr__(self, "p", tf.canonical_delay(self.p))
        object.__setattr__(self, "q", tf.canonical_delay(self.q))


def _production_term(model, x, x_n):
    """beta x / (1 + x_n^n), the saturating production of either model."""
    return model.beta * x / (1.0 + _pow(x_n, model.n))


def removal_reaction(model: MackeyGlassRemoval, x_g: float, x_h: float) -> float:
    """The bracketed reaction term of the removal-delay model."""
    return _production_term(model, x_g, x_g) - model.gamma * x_h


def production_reaction(
    model: MackeyGlassProduction, x_p: float, x_q: float, x_now: float
) -> float:
    """The bracketed reaction term of the production form."""
    return _production_term(model, x_p, x_q) - x_now


def equilibrium(model) -> float:
    """The unique positive equilibrium of the model."""
    if isinstance(model, MackeyGlassRemoval):
        if model.beta <= model.gamma:
            raise NoPositiveEquilibriumError(
                "beta must exceed gamma for a positive equilibrium"
            )
        return (model.beta / model.gamma - 1.0) ** (1.0 / model.n)
    if isinstance(model, MackeyGlassProduction):
        if model.beta <= 1.0:
            raise NoPositiveEquilibriumError(
                "beta must exceed one for a positive equilibrium"
            )
        return (model.beta - 1.0) ** (1.0 / model.n)
    raise TypeError("unsupported model type: %r" % type(model).__name__)


def _removal_negative_factor(model: MackeyGlassRemoval) -> float:
    # Derivative of beta*x/(1+x^n) at the equilibrium equals gamma times this.
    return 1.0 - model.n + model.gamma * model.n / model.beta


def _production_alpha(model: MackeyGlassProduction) -> float:
    return model.n * (model.beta - 1.0) / model.beta


def linearize(model) -> cr.LinearDelayEquation:
    """The linear delay equation for perturbations around the equilibrium."""
    if isinstance(model, MackeyGlassRemoval):
        equilibrium(model)  # raises when no positive equilibrium exists
        bf = _removal_negative_factor(model)
        positive = [cr.Term(tf.scaled(model.gamma, model.r), model.h)]
        negative = []
        if bf >= 0.0:
            if bf > 0.0:
                negative.append(cr.Term(tf.scaled(model.gamma * bf, model.r), model.g))
        else:
            # Saturation so strong that the production term destabilizes in
            # the same direction as removal: both terms land on the positive
            # side.
            positive.append(cr.Term(tf.scaled(model.gamma * (-bf), model.r), model.g))
        return cr.LinearDelayEquation(positive_terms=positive, negative_terms=negative)
    if isinstance(model, MackeyGlassProduction):
        equilibrium(model)
        alpha = _production_alpha(model)
        positive = [
            cr.Term(model.s, IdentityDelay()),
            cr.Term(tf.scaled(alpha, model.s), model.q),
        ]
        negative = [cr.Term(model.s, model.p)]
        return cr.LinearDelayEquation(positive_terms=positive, negative_terms=negative)
    raise TypeError("unsupported model type: %r" % type(model).__name__)


# ---------------------------------------------------------------------------
# Local exponential stability checks
# ---------------------------------------------------------------------------


def check_les_removal(
    model: MackeyGlassRemoval,
    T: Optional[float] = None,
    *,
    horizon: Optional[float] = None,
) -> cr.Certificate:
    """Certify local exponential stability of the removal-delay model.

    The linearization around the positive equilibrium is tested with both
    linear checkers; the certificate carries the stronger route. Requires
    the linearized production coefficient to stay nonnegative (mild
    saturation), otherwise the published two-sided tests do not apply.
    """
    name = "les-removal"
    x_star = equilibrium(model)
    bf = _removal_negative_factor(model)
    quantities = [
        cr.Quantity("x_star", x_star, "positive equilibrium state"),
        cr.Quantity(
            "b_factor",
            bf,
            "linearized production coefficient divided by gamma "
            "(1 - n + gamma*n/beta)",
        ),
    ]
    precondition = cr.make_check(
        "linearized production coefficient nonnegative (mild saturation)",
        bf,
        0.0,
        strict=True,
        direction=">",
    )
    if not precondition.satisfied:
        # The failed precondition leaves the rule Marginal or Inconclusive.
        return cr._conclude(name, cr.INCONCLUSIVE, quantities, [precondition], [
            "linearization has two nonnegative delayed removal terms; "
            "the two-sided stability tests do not apply"
        ])
    lin = linearize(model)
    routes = [cr.check_diff_form(lin, T, horizon=horizon)]
    routes.append(cr.check_ratio_form(lin, T, horizon=horizon))
    best = max(routes, key=lambda c: cr._VERDICT_RANK[c.verdict])
    notes = list(best.notes)
    notes.append("linearization tested via the %s checker" % best.name)
    notes.append(
        "verdict certifies local exponential stability of the positive equilibrium"
    )
    # A UniformExponential or Asymptotic route has every check satisfied, so
    # the rule gives its verdict back.
    return cr._conclude(name, best.verdict, quantities + list(best.quantities),
                        [precondition, *best.checks], notes)


def production_stability_checks(
    model: MackeyGlassProduction,
    *,
    horizon: Optional[float] = None,
):
    """The three stability conditions for the production form, as checks.

    Keys:

    - ``combined_bound``: single condition combining the
      saturation-weighted window integral with twice the delay-gap
      integral.
    - ``gap_bound`` and ``window_vs_gap_bound``: the paired alternative
      route; both must hold together.

    Returns the checks and ``(quantities, notes)``; the notes say when a
    supremum was scanned only to a finite horizon.
    """
    alpha = _production_alpha(model)
    s = model.s
    inner = tf.delay_min(model.p, model.q)
    outer = tf.delay_max(model.p, model.q)
    iq_info = tf.sup_window_integral_info(s, model.q, 0.0, horizon=horizon)
    gap_info = tf.sup_between_delays_info(s, inner, outer, 0.0, horizon=horizon)
    iq, gap = iq_info.value, gap_info.value
    combined = max(alpha * iq - 1.0 / math.e, 0.0) + 2.0 * gap
    width = (1.0 + alpha) * gap
    shifted = max((1.0 + alpha) * iq - 1.0 / math.e, 0.0)
    checks = {
        "combined_bound": cr.make_check(
            "saturation-weighted window plus twice the delay gap below one "
            "(single-condition route)",
            combined,
            1.0,
            strict=True,
            direction="<",
        ),
        "gap_bound": cr.make_check(
            "amplified delay-gap integral below one (paired route, part 1)",
            width,
            1.0,
            strict=True,
            direction="<",
        ),
        "window_vs_gap_bound": cr.make_check(
            "amplified window excess below one minus the amplified gap "
            "(paired route, part 2)",
            shifted,
            1.0 - width,
            strict=True,
            direction="<",
        ),
    }
    quantities = (
        cr.Quantity("alpha", alpha, "saturation strength n(beta-1)/beta"),
        cr.Quantity("I_q", iq, "esssup over t of int_{q(t)}^{t} s"),
        cr.Quantity(
            "gap", gap, "esssup over t of |int s| between the two delayed arguments"
        ),
    )
    return checks, (quantities, cr._limited_note(iq_info, gap_info))


def check_les_production(
    model: MackeyGlassProduction,
    T: Optional[float] = None,
    *,
    horizon: Optional[float] = None,
) -> cr.Certificate:
    """Certify local exponential stability of the production-form model.

    Passes when either the single combined condition holds or both paired
    conditions hold, provided the rate s is persistent.
    """
    name = "les-production"
    x_star = equilibrium(model)
    t0 = 0.0
    pre, notes, mean = cr._persistence_checks(model.s, "the rate coefficient", t0)
    cond, (quantities, limited) = production_stability_checks(model, horizon=horizon)
    notes.extend(limited)
    quantities = (
        cr.Quantity("x_star", x_star, "positive equilibrium state"),
        cr.Quantity("mean_s", mean, "long-run mean value of the rate"),
    ) + quantities

    pre_ok = all(c.satisfied for c in pre)
    if pre_ok and cond["combined_bound"].satisfied:
        route = [cond["combined_bound"]]
        notes.append("certified by the single-condition route")
    elif pre_ok and cond["gap_bound"].satisfied and cond["window_vs_gap_bound"].satisfied:
        route = [cond["gap_bound"], cond["window_vs_gap_bound"]]
        notes.append("certified by the paired-condition route")
    else:
        checks = tuple(pre) + tuple(cond.values())
        notes.append(
            "a passing verdict would certify local exponential stability of "
            "the positive equilibrium"
        )
        return cr._conclude(name, cr.ASYMPTOTIC, quantities, checks, notes)

    T_used = T if T is not None else cr._default_T(model.s)
    lim_info = tf.liminf_forward_integral_info(model.s, T_used, t0, horizon=horizon)
    upgrade = cr.make_check(
        "rate persistently positive over windows of length T=%g" % T_used,
        lim_info.value,
        0.0,
        strict=True,
        direction=">",
    )
    checks = tuple(pre) + tuple(route)
    notes.append(
        "verdict certifies local exponential stability of the positive equilibrium"
    )
    if upgrade.satisfied and not lim_info.horizon_limited:
        checks = checks + (upgrade,)
        return cr._conclude(name, cr.UNIFORM_EXPONENTIAL, quantities, checks, notes)
    notes.append(
        "persistent-positivity upgrade unavailable over windows of length T=%g" % T_used
    )
    return cr._conclude(name, cr.ASYMPTOTIC, quantities, checks, notes)


# ---------------------------------------------------------------------------
# Built-in benchmark systems
# ---------------------------------------------------------------------------


def eq3(b: float = 0.3) -> cr.LinearDelayEquation:
    """Oscillating-rate pair: x' + sin^2(t) [0.6 x(t-2) - b x(t)] = 0."""
    return eq3abc(0.6, b)


def eq26() -> cr.LinearDelayEquation:
    """Constant pair with undelayed negative term: x' + x(t-1) - 0.3 x(t) = 0."""
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(1.0), ConstantLag(1.0))],
        negative_terms=[cr.Term(tf.constant(0.3), IdentityDelay())],
    )


def eq27() -> cr.LinearDelayEquation:
    """Constant pair with both terms delayed: x' + 0.4 x(t-1) - 0.35 x(t-3) = 0."""
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.constant(0.4), ConstantLag(1.0))],
        negative_terms=[cr.Term(tf.constant(0.35), ConstantLag(3.0))],
    )


def eq3abc(a: float = 0.6, b: float = 0.3) -> cr.LinearDelayEquation:
    """Oscillating-rate pair with adjustable sizes:
    x' + sin^2(t) [a x(t-2) - b x(t)] = 0."""
    return cr.LinearDelayEquation(
        positive_terms=[cr.Term(tf.sinsq(float(a), 1.0), ConstantLag(2.0))],
        negative_terms=[cr.Term(tf.sinsq(float(b), 1.0), IdentityDelay())],
    )


def ex51(sigma: float = 1.1, r: float = 4.0) -> MackeyGlassRemoval:
    """Removal-delay model with a pulsed rate:
    x' = r sin^2(pi t) [1.25 x(t-sigma)/(1+x^2(t-sigma)) - x(t-1)]."""
    return MackeyGlassRemoval(
        r=tf.sinsq(float(r), math.pi),
        beta=1.25,
        gamma=1.0,
        n=2.0,
        g=ConstantLag(float(sigma)),
        h=ConstantLag(1.0),
    )


def ex5(n: float = 4.0) -> MackeyGlassProduction:
    """Production-form model with a pulsed rate:
    x' = 0.1 sin^2(pi t) [2 x(t-3)/(1+x^n(t-6)) - x(t)]."""
    return MackeyGlassProduction(
        s=tf.sinsq(0.1, math.pi),
        beta=2.0,
        n=float(n),
        p=ConstantLag(3.0),
        q=ConstantLag(6.0),
    )


@dataclass(frozen=True)
class BuiltinSpec:
    factory: object
    params: dict


BUILTINS = {
    "eq3": BuiltinSpec(eq3, {"b": 0.3}),
    "eq26": BuiltinSpec(eq26, {}),
    "eq27": BuiltinSpec(eq27, {}),
    "eq3abc": BuiltinSpec(eq3abc, {"a": 0.6, "b": 0.3}),
    "ex51": BuiltinSpec(ex51, {"sigma": 1.1, "r": 4.0}),
    "ex5": BuiltinSpec(ex5, {"n": 4.0}),
}


def make_builtin(name: str, **overrides):
    """Instantiate a built-in system by name with parameter overrides."""
    if name not in BUILTINS:
        raise KeyError(
            "unknown built-in %r; available: %s" % (name, ", ".join(sorted(BUILTINS)))
        )
    spec = BUILTINS[name]
    params = dict(spec.params)
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(
                "built-in %r has no parameter %r (declared: %s)"
                % (name, key, ", ".join(sorted(params)) or "none")
            )
        params[key] = value
    return spec.factory(**params)
