"""Trajectory behavior classification and certificate/simulation bridges.

Classifies simulated trajectories as decaying, sustained, or growing by
comparing amplitude envelopes of the first and last quarter of the run,
fits exponential decay rates, and locates parameter thresholds where a
stability predicate flips. Predicate factories wrap both the analytic
certificates and direct simulation so the two can be cross-checked on the
same family of equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import criteria as cr
from . import models as md
from . import solver as sv
from .timefn import ConfigurationError

__all__ = [
    "DECAYING",
    "SUSTAINED",
    "GROWING",
    "BehaviorReport",
    "classify",
    "DecayFit",
    "fit_decay",
    "BracketError",
    "find_threshold",
    "target_structure",
    "certify",
    "perturbed_run",
    "perturbed_runs",
    "certificate_predicate",
    "empirical_predicate",
]

DECAYING = "Decaying"
SUSTAINED = "Sustained"
GROWING = "Growing"

DEFAULT_DECAY_RATIO = 0.02
DEFAULT_GROWTH_RATIO = 5.0
_FIT_FLOOR_REL = 1e-8


@dataclass(frozen=True)
class BehaviorReport:
    """Amplitude-envelope classification of one trajectory."""

    classification: str
    initial_amplitude: float
    tail_amplitude: float


def classify(
    trajectory: sv.Trajectory,
    equilibrium: float = 0.0,
    *,
    max_lag: Optional[float] = None,
) -> BehaviorReport:
    """Compare first- and last-quarter amplitudes around the equilibrium.

    With ``max_lag`` given, the run must span at least twenty lags so the
    tail window sits clear of the transient; a run truncated by divergence
    is Growing however short it is.
    """
    span = trajectory.t1 - trajectory.t0
    too_short = max_lag is not None and max_lag > 0.0 and span < 20.0 * max_lag
    if too_short and not trajectory.diverged:
        raise ConfigurationError(
            "span %g too short to classify; need at least 20 lags (%g)"
            % (span, 20.0 * max_lag)
        )
    dev = np.abs(trajectory.values - equilibrium)
    q = max(2, dev.size // 4)
    init = float(np.max(dev[:q]))
    tail = float(np.max(dev[-q:]))
    if trajectory.diverged:
        verdict = GROWING
    elif init == 0.0:
        verdict = DECAYING if tail == 0.0 else GROWING
    elif tail <= DEFAULT_DECAY_RATIO * init:
        verdict = DECAYING
    elif tail >= DEFAULT_GROWTH_RATIO * init:
        verdict = GROWING
    else:
        verdict = SUSTAINED
    return BehaviorReport(verdict, init, tail)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of |x - x_eq| ~ m * exp(-gamma t).

    ``fit_quality`` is the R^2 of the log-linear regression;
    ``used_peaks`` tells whether the envelope was fit through oscillation
    peaks or through all retained samples.
    """

    gamma_hat: float
    m_hat: float
    fit_quality: float
    used_peaks: bool


def _bases(heights, gaps) -> list:
    """Per peak, the lowest sample between it and the nearest strictly
    higher peak before it, or the start of the signal.

    ``gaps[j]`` is the lowest sample from peak j - 1 (the start for j = 0)
    up to peak j. A stack holds the peaks not yet passed by a higher one,
    each with the lowest sample between it and the one below it.
    """
    tops, lows = [math.inf], [math.inf]  # the start of the signal, higher than any peak
    low = math.inf  # the lowest sample since the top of the stack
    out = []
    for height, gap in zip(heights, gaps):
        if gap < low:
            low = gap
        while tops[-1] <= height:
            tops.pop()
            below = lows.pop()
            if below < low:
                low = below
        out.append(low)
        tops.append(height)
        lows.append(low)
        low = height
    return out


def _prominences(dev, peaks) -> np.ndarray:
    """How far each of the peaks (ascending indices into ``dev``) rises above
    the higher of its two bases: the lowest sample between it and the
    nearest strictly higher peak on each side, or that end of the signal.

    ``peaks`` must hold every peak of ``dev`` (a run of equal samples as
    its first) higher than the lowest of them; a lower one ends no base.
    Samples among them that are no peaks change nothing: from such a
    sample to the peak it rises to, every sample is at least as high.
    """
    heights = dev[peaks].tolist()
    gaps = np.minimum.reduceat(dev, np.concatenate(([0], peaks))).tolist()
    left = _bases(heights, gaps)
    right = _bases(heights[::-1], gaps[::-1])[::-1]
    return np.array([h - (a if a > b else b) for h, a, b in zip(heights, left, right)])


def fit_decay(trajectory: sv.Trajectory, equilibrium: float = 0.0) -> DecayFit:
    """Fit an exponential envelope to the deviation from equilibrium.

    Uses local maxima of the deviation when the signal oscillates (five or
    more peaks); otherwise falls back to all samples. The first quarter of
    the run is skipped as transient, and a floor keeps roundoff out of the
    fit: 1e-8 of the largest deviation, or the roundoff the run's steps can
    accumulate at the state's scale (one unit roundoff of the largest
    retained |x| or of |x_eq| per step), whichever is larger. A peak must
    rise above it, and by at least it above the lowest sample between the
    peak and the nearest higher one on each side (its prominence), so that
    roundoff on a flat shoulder makes no peak. A run of equal samples that
    rises from the one before it and falls to the one after is one peak, at
    its first sample.
    """
    ts = trajectory.times
    steps = ts.size - 1
    start = trajectory.t0 + 0.25 * (trajectory.t1 - trajectory.t0)
    keep = ts >= start
    ts = ts[keep]
    values = trajectory.values[keep]
    dev = np.abs(values - equilibrium)
    if dev.size < 4:
        raise ConfigurationError("too few samples after the transient to fit")
    if not np.max(dev) > 0.0:
        raise ConfigurationError("deviation is identically zero; nothing to fit")
    scale = max(float(np.max(np.abs(values))), abs(equilibrium))
    floor = max(_FIT_FLOOR_REL * float(np.max(dev)), steps * np.finfo(float).eps * scale)

    # A sample above the one before it and no lower than the one after: a
    # plateau is one candidate, at its first sample, and a step on a rise is
    # one with no prominence.
    peak_idx = np.flatnonzero((dev[1:-1] > dev[:-2]) & (dev[1:-1] >= dev[2:])) + 1
    peak_idx = peak_idx[dev[peak_idx] > floor]
    peak_idx = peak_idx[_prominences(dev, peak_idx) >= floor]
    used_peaks = peak_idx.size >= 5
    if used_peaks:
        fit_t = ts[peak_idx]
        fit_y = dev[peak_idx]
    else:
        good = dev > floor
        fit_t = ts[good]
        fit_y = dev[good]
    if fit_t.size < 2:
        raise ConfigurationError("too few usable samples to fit a decay rate")
    logs = np.log(fit_y)
    slope, intercept = np.polyfit(fit_t, logs, 1)
    pred = slope * fit_t + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    quality = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        gamma_hat=float(-slope),
        m_hat=float(math.exp(intercept)),
        fit_quality=quality,
        used_peaks=used_peaks,
    )


class BracketError(ValueError):
    """The predicate does not flip across the given bracket."""


def find_threshold(
    predicate: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-4,
) -> float:
    """Bisect for the parameter where a boolean predicate flips.

    Stops once the bracket is no wider than ``tol``, or once no float lies
    strictly inside it (a ``tol`` below the float spacing there).
    """
    if not (hi > lo):
        raise ConfigurationError("need hi > lo")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigurationError("tol must be positive and finite, got %g" % tol)
    p_lo = bool(predicate(lo))
    p_hi = bool(predicate(hi))
    if p_lo == p_hi:
        raise BracketError(
            "predicate is %s at both ends of [%g, %g]" % (p_lo, lo, hi)
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if bool(predicate(mid)) == p_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Certificate and simulation bridges
# ---------------------------------------------------------------------------


def target_structure(target):
    """(equilibrium, max lag, start time) for an equation or model."""
    if isinstance(target, cr.LinearDelayEquation):
        return 0.0, target.max_lag, target.t0
    if isinstance(target, md.MackeyGlassRemoval):
        lag = max(target.g.lag_bound, target.h.lag_bound)
        return md.equilibrium(target), lag, 0.0
    if isinstance(target, md.MackeyGlassProduction):
        lag = max(target.p.lag_bound, target.q.lag_bound)
        return md.equilibrium(target), lag, 0.0
    raise ConfigurationError(
        "target must be a LinearDelayEquation or a Mackey-Glass model"
    )


def certify(
    target,
    T: Optional[float] = None,
    *,
    horizon: Optional[float] = None,
):
    """(best verdict, certificate tuple) for an equation or model."""
    if isinstance(target, cr.LinearDelayEquation):
        certs = cr.evaluate_all(target, T, horizon=horizon)
        return cr.best_verdict(certs), certs
    if isinstance(target, md.MackeyGlassRemoval):
        cert = md.check_les_removal(target, T, horizon=horizon)
    elif isinstance(target, md.MackeyGlassProduction):
        cert = md.check_les_production(target, T, horizon=horizon)
    else:
        raise ConfigurationError(
            "target must be a LinearDelayEquation or a Mackey-Glass model"
        )
    return cert.verdict, (cert,)


def perturbed_run(target, *, history=None, x0=None, horizon=None, step=None):
    """Standard perturbed simulation: (trajectory, behavior report, setup).

    The run starts from a constant history at 0.8 of the reference state
    with an initial value at 1.2 of it (reference 1.0 when the equilibrium
    is zero), over sixty lags at step 0.01 unless overridden. ``setup``
    records the values used. This is the one-target case of ``perturbed_runs``.
    """
    (out,) = perturbed_runs([target], history=history, x0=x0, horizon=horizon, step=step)
    if isinstance(out, Exception):
        raise out
    return out


def perturbed_runs(targets, *, history=None, x0=None, horizon=None, step=None) -> list:
    """``perturbed_run`` of each target: its triple, or the exception it raises.

    Runs that end at the same time are columns of one ``integrate_columns``
    call, which shares the passes of those whose sites agree too.
    """
    out: list = [None] * len(targets)
    groups: dict = {}  # end time -> [(index, target, setup, max lag)]
    for i, target in enumerate(targets):
        try:
            x_eq, max_lag, t0 = target_structure(target)
        except Exception as exc:
            out[i] = exc
            continue
        base = x_eq if x_eq > 0.0 else 1.0
        setup = {
            "equilibrium": x_eq,
            "history": history if history is not None else 0.8 * base,
            "initial_value": x0 if x0 is not None else 1.2 * base,
            "horizon": horizon if horizon is not None else 60.0 * max(max_lag, 1.0),
            "step": step if step is not None else 0.01,
            "t0": t0,
        }
        groups.setdefault(setup["t0"] + setup["horizon"], []).append((i, target, setup, max_lag))
    for t1, members in groups.items():
        indices, group, setups, lags = zip(*members)
        trajs = sv.integrate_columns(
            group,
            [sv.ConstantHistory(setup["history"]) for setup in setups],
            t1,
            step=setups[0]["step"],
            initial_values=[setup["initial_value"] for setup in setups],
            on_divergence="truncate",
        )
        for i, setup, max_lag, traj in zip(indices, setups, lags, trajs):
            if not isinstance(traj, Exception):
                try:
                    traj = (traj, classify(traj, equilibrium=setup["equilibrium"], max_lag=max_lag),
                            setup)
                except Exception as exc:
                    traj = exc
            out[i] = traj
    return out


def certificate_predicate(
    builder: Callable[[float], object], T: Optional[float] = None
) -> Callable[[float], bool]:
    """param -> True iff the analytic certificates fully certify stability."""

    def pred(param: float) -> bool:
        verdict, _ = certify(builder(param), T)
        return verdict == cr.UNIFORM_EXPONENTIAL

    return pred


def empirical_predicate(
    builder: Callable[[float], object],
    *,
    horizon: Optional[float] = None,
    step: Optional[float] = None,
) -> Callable[[float], bool]:
    """param -> True iff the standard perturbed run (``perturbed_run``) decays."""

    def pred(param: float) -> bool:
        _, report, _ = perturbed_run(builder(param), horizon=horizon, step=step)
        return report.classification == DECAYING

    return pred
