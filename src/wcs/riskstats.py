"""Scalar risk statistics on scenarios: mean, variance, CVaR and friends.

All sums run over the descending-cost ordering with compensated summation
(math.fsum), which keeps the 1e-10 equality checks elsewhere in the toolkit
honest up to n ~ 1e6 atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Scenario, SortedScenario, sort_desc
from .errors import KappaOutOfRange


@dataclass(frozen=True)
class CvarLevel:
    """Tail level alpha in [0, 1). alpha = 0 degenerates CVaR to the mean."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"CVaR level must be in [0,1), got {self.alpha}")


def _level(alpha) -> float:
    a = alpha.alpha if isinstance(alpha, CvarLevel) else float(alpha)
    CvarLevel(a)  # reuse its range check
    return a


def mean(s: Scenario) -> float:
    srt = sort_desc(s)
    return math.fsum((srt.probs_desc * srt.costs_desc).tolist())


def variance(s: Scenario) -> float:
    # centered at the max cost so constant vectors give exactly 0
    srt = sort_desc(s)
    c = srt.costs_desc - srt.costs_desc[0]
    m = math.fsum((srt.probs_desc * c).tolist())
    return math.fsum((srt.probs_desc * (c - m) ** 2).tolist())


def greedy_fill(caps: np.ndarray) -> np.ndarray:
    """Fill mass 1 left to right under per-slot caps; caps must sum to >= 1.

    Returns q with q[i] = caps[i] for the fully used prefix, one partial
    entry, zeros after. Prefix sums are refined with fsum so the partial
    mass is the correctly rounded remainder.
    """
    n = caps.shape[0]
    cum = np.cumsum(caps)
    k = int(np.searchsorted(cum, 1.0, side="right"))
    # fsum-refine the cutoff in case cumsum rounding misplaced it
    while k > 0 and math.fsum(caps[:k].tolist()) > 1.0:
        k -= 1
    while k < n and math.fsum(caps[: k + 1].tolist()) <= 1.0:
        k += 1
    q = np.zeros(n)
    q[:k] = caps[:k]
    if k < n:
        q[k] = 1.0 - math.fsum(caps[:k].tolist())
    return q


def _cvar_fill(srt: SortedScenario, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return srt.probs_desc.copy()
    return greedy_fill(srt.probs_desc / (1.0 - alpha))


def cvar(s: Scenario, alpha) -> float:
    """CVaR via the greedy solution of the capped LP max{q'f : 0 <= q <= p/(1-a)}.

    alpha = 0 gives the mean; alpha >= 1 - p_(1) gives max(f).
    """
    a = _level(alpha)
    srt = sort_desc(s)
    q = _cvar_fill(srt, a)
    return math.fsum((q * srt.costs_desc).tolist())


def cvar_distribution(s: Scenario, alpha) -> np.ndarray:
    """Greedy maximizer of the CVaR LP, in original atom order."""
    a = _level(alpha)
    srt = sort_desc(s)
    return srt.unsort(_cvar_fill(srt, a))


def partial_fill_rank(srt: SortedScenario, alpha: float) -> int:
    """Number k of atoms whose cumulative nominal mass stays strictly below 1-alpha.

    Rank k+1 (0-based index k) is the atom receiving the partial mass in the
    greedy CVaR fill; the strict inequality makes the piecewise-slope
    identity for budgeted sets hold exactly on discrete data.
    """
    target = 1.0 - alpha
    cum = np.cumsum(srt.probs_desc)
    k = int(np.searchsorted(cum, target, side="left"))
    # exact-comparison refinement against fsum prefixes
    while k > 0 and math.fsum(srt.probs_desc[:k].tolist()) >= target:
        k -= 1
    while k < srt.n and math.fsum(srt.probs_desc[: k + 1].tolist()) < target:
        k += 1
    return min(k, srt.n - 1)


def var_quantile(s: Scenario, alpha) -> float:
    """Cost of the partial-fill atom of the greedy CVaR solution (the VaR atom)."""
    a = _level(alpha)
    srt = sort_desc(s)
    return float(srt.costs_desc[partial_fill_rank(srt, a)])


def cvar_deviation(s: Scenario, alpha) -> float:
    """CVaR minus mean, evaluated on centered costs.

    Centering makes the value exactly 0 for constant cost vectors
    (deviation axiom D1) without changing it otherwise; it is clamped at 0
    against float wobble in the subtraction.
    """
    a = _level(alpha)
    srt = sort_desc(s)
    c = srt.costs_desc - srt.costs_desc[-1]
    q = _cvar_fill(srt, a)
    cv = math.fsum((q * c).tolist())
    m = math.fsum((srt.probs_desc * c).tolist())
    return max(0.0, cv - m)


def _kappa(n: int, alpha) -> float:
    """kappa = n (1 - alpha), checked to lie in (0, n) for n >= 2."""
    a = alpha.alpha if isinstance(alpha, CvarLevel) else float(alpha)
    if n < 2:
        raise KappaOutOfRange(f"need n >= 2, got {n}")
    kappa = n * (1.0 - a)
    if not 0.0 < kappa < n:
        raise KappaOutOfRange(f"kappa = n(1-alpha) = {kappa} outside (0, {n})")
    return kappa


def c_alpha_n(n: int, alpha) -> float:
    """Tight constant bounding CVaR deviation by the standard deviation (uniform p).

    The bound and this constant are stated for uniform probabilities only;
    callers must not apply them to non-uniform scenarios.
    """
    kappa = _kappa(n, alpha)
    k = math.floor(kappa)
    return math.sqrt(n * (k + (kappa - k) ** 2) - kappa * kappa) / kappa


def tight_cvar_vector(n: int, alpha) -> np.ndarray:
    """Zero-mean vector attaining cvar_deviation / stdev = c_alpha_n under uniform p."""
    kappa = _kappa(n, alpha)
    k = math.floor(kappa)
    d = n * (k + (kappa - k) ** 2) - kappa * kappa
    z = np.full(n, -kappa * kappa / d)
    z[:k] = kappa * (n - kappa) / d
    if k < n:
        z[k] = (-kappa * kappa + n * kappa * (kappa - k)) / d
    return z
