"""Closed-form worst-case sensitivities, one per uncertainty family.

Each function returns the rate of increase of the worst-case expected cost
per unit of the family's growth rate as the set size vanishes. All of them
except the penalty form are generalized measures of deviation: nonnegative,
zero iff costs are constant, degree-1 positively homogeneous, translation
invariant. The penalty form is degree-2 homogeneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GROWTH_LINEAR, GROWTH_SQRT, PhiFunction, Scenario
from .errors import UnboundedRatio
from . import riskstats


@dataclass(frozen=True)
class SensitivityReport:
    value: float
    growth: str


def smooth_phi_sensitivity(s: Scenario, phi: PhiFunction) -> SensitivityReport:
    """sqrt(2 Var_p(f) / phi''(1)), growth sqrt(eps)."""
    value = math.sqrt(2.0 * riskstats.variance(s) / phi.curvature)
    return SensitivityReport(value=value, growth=GROWTH_SQRT)


def penalty_phi_sensitivity(s: Scenario, phi: PhiFunction) -> SensitivityReport:
    """Var_p(f) / phi''(1); linear in the penalty parameter, degree-2 homogeneous."""
    value = riskstats.variance(s) / phi.curvature
    return SensitivityReport(value=value, growth=GROWTH_LINEAR)


def tv_sensitivity(s: Scenario) -> SensitivityReport:
    value = 0.5 * (float(np.max(s.costs)) - float(np.min(s.costs)))
    return SensitivityReport(value=value, growth=GROWTH_LINEAR)


def budgeted_sensitivity(s: Scenario) -> SensitivityReport:
    # mean minus min as a sum of nonnegative terms (exact 0 on constants)
    value = math.fsum((s.probs * (s.costs - np.min(s.costs))).tolist())
    return SensitivityReport(value=value, growth=GROWTH_LINEAR)


def combination_sensitivity(s: Scenario, alpha) -> SensitivityReport:
    value = riskstats.cvar_deviation(s, alpha)
    return SensitivityReport(value=value, growth=GROWTH_LINEAR)


def symmetric_box_sensitivity(s: Scenario) -> SensitivityReport:
    """CVaR at level 1/2 minus the mean (the shrinking symmetric-box limit)."""
    value = riskstats.cvar_deviation(s, 0.5)
    return SensitivityReport(value=value, growth=GROWTH_LINEAR)


def wasserstein_sensitivity(points, probs, ratio_oracle) -> SensitivityReport:
    """Largest transport ratio over the support; errors if any ratio is unbounded.

    ``ratio_oracle(y)`` must return sup_z (f(z)-f(y))/||z-y||_p, finite for
    every support point (the cost must be Lipschitz around the support).
    The dual multiplier is nonnegative, so the max is clamped below at 0.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    p = np.atleast_1d(np.asarray(probs, dtype=float))
    if p.shape != pts.shape:
        raise ValueError(f"{pts.size} support points vs {p.size} probabilities")
    ratios = []
    for y in pts:
        r = float(ratio_oracle(float(y)))
        if not math.isfinite(r):
            raise UnboundedRatio(f"transport ratio from support point {y} is {r}")
        ratios.append(r)
    value = max(0.0, max(ratios))
    return SensitivityReport(value=value, growth=GROWTH_LINEAR)


def worst_case_sensitivity(s: Scenario, family) -> SensitivityReport:
    """Closed form of a ``families`` descriptor (Wasserstein: use wasserstein_sensitivity)."""
    return family.sensitivity(s)
