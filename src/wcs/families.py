"""Uncertainty-family descriptors and the name -> family registry.

A family is one ambiguity set around the nominal probabilities p. Its
descriptor is the one place that knows the set: its command-line ``name``,
its ``growth`` rate g (sqrt(eps) for smooth phi-divergence balls, eps
otherwise), whether it is ``piecewise_linear`` (a maximum over the vertices
of a polytope that does not depend on the costs), the ``homogeneity`` degree
of its sensitivity, the closed-form ``sensitivity(s)`` and the exact
``worst_case(s, eps)``, and ``worst_values(costs, probs, eps)``, the
value-only V(eps) of each row of an (m, n) cost block, which the newsvendor
search calls; ``piecewise_linear`` tells that search whether the orders
where two scenario cost lines cross are kinks of V. The piecewise-linear
families and the built-in modified chi-square and KL balls solve a block
at once (the phi kernels are chosen by identity, so a user phi named "kl"
keeps its own math); a user phi solves it row by row.

Wasserstein is the one family that needs support geometry, not only a cost
vector: its scenario-level methods raise, and callers holding the geometry use
``sensitivity.wasserstein_sensitivity`` and ``worstcase.wc_wasserstein_pl``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .core import (
    GROWTH_LINEAR,
    GROWTH_SQRT,
    KL,
    MODIFIED_CHI2,
    CostModel,
    PhiFunction,
    Scenario,
)
from .errors import UnknownFamily
from .riskstats import CvarLevel
from .sensitivity import (
    budgeted_sensitivity,
    combination_sensitivity,
    penalty_phi_sensitivity,
    smooth_phi_sensitivity,
    symmetric_box_sensitivity,
    tv_sensitivity,
)
from .worstcase import (
    box_symmetric_values,
    budgeted_values,
    chi2_values,
    combination_values,
    kl_values,
    tv_values,
    wc_box_symmetric,
    wc_budgeted,
    wc_chi2,
    wc_combination,
    wc_smooth_phi,
    wc_tv,
)


class UncertaintyFamily:
    """Base of the descriptors; subclasses add ``sensitivity`` and ``worst_case``."""

    name: ClassVar[str]
    growth: ClassVar[str] = GROWTH_LINEAR
    piecewise_linear: ClassVar[bool] = False
    homogeneity: ClassVar[float] = 1.0

    def worst_values(self, costs: np.ndarray, probs: np.ndarray, eps: float) -> np.ndarray:
        """worst_case(row, eps).value for each row of a block of finite costs.

        This default solves row by row; families with a batched kernel
        override it.
        """
        return np.array(
            [self.worst_case(Scenario(costs=row, probs=probs), eps).value for row in costs],
            dtype=float,
        )


@dataclass(frozen=True)
class SmoothPhi(UncertaintyFamily):
    """phi-divergence ball {q : D_phi(q | p) <= eps}."""

    phi: PhiFunction = MODIFIED_CHI2

    name = "phi"
    growth = GROWTH_SQRT

    def sensitivity(self, s):
        return smooth_phi_sensitivity(s, self.phi)

    def worst_case(self, s, eps):
        # by identity: a user phi may reuse a built-in's name with other math
        if self.phi is MODIFIED_CHI2:
            return wc_chi2(s, eps)
        return wc_smooth_phi(s, self.phi, eps)

    def worst_values(self, costs, probs, eps):
        if self.phi is MODIFIED_CHI2:
            return chi2_values(costs, probs, eps)
        if self.phi is KL:
            return kl_values(costs, probs, eps)
        return super().worst_values(costs, probs, eps)


@dataclass(frozen=True)
class PenaltyPhi(UncertaintyFamily):
    """phi-divergence penalty: prices the divergence instead of bounding it, so
    there is a (degree-2 homogeneous) sensitivity but no set to maximize over."""

    phi: PhiFunction = MODIFIED_CHI2

    name = "penalty-phi"
    homogeneity = 2.0

    def sensitivity(self, s):
        return penalty_phi_sensitivity(s, self.phi)

    def worst_case(self, s, eps):
        raise TypeError(f"no worst case for {self!r}: a penalty bounds no set")


@dataclass(frozen=True)
class TotalVariation(UncertaintyFamily):
    """{q : sum |q - p| <= eps}."""

    name = "tv"
    piecewise_linear = True

    def sensitivity(self, s):
        return tv_sensitivity(s)

    def worst_case(self, s, eps):
        return wc_tv(s, eps)

    def worst_values(self, costs, probs, eps):
        return tv_values(costs, probs, eps)


@dataclass(frozen=True)
class Budgeted(UncertaintyFamily):
    """Likelihood-ratio cap {q : 0 <= q <= (1 + eps) p}."""

    name = "budgeted"
    piecewise_linear = True

    def sensitivity(self, s):
        return budgeted_sensitivity(s)

    def worst_case(self, s, eps):
        return wc_budgeted(s, eps)

    def worst_values(self, costs, probs, eps):
        return budgeted_values(costs, probs, eps)


@dataclass(frozen=True)
class Combination(UncertaintyFamily):
    """(1 - eps) {p} + eps * (CVaR_alpha polytope)."""

    alpha: float

    name = "combo"
    piecewise_linear = True

    def __post_init__(self):
        CvarLevel(self.alpha)  # reuse its range check

    def sensitivity(self, s):
        return combination_sensitivity(s, self.alpha)

    def worst_case(self, s, eps):
        return wc_combination(s, self.alpha, eps)

    def worst_values(self, costs, probs, eps):
        return combination_values(costs, probs, self.alpha, eps)


@dataclass(frozen=True)
class SymmetricBox(UncertaintyFamily):
    """Likelihood-ratio band {q : p / (1 + nu) <= q <= (1 + nu) p}."""

    name = "box"
    piecewise_linear = True

    def sensitivity(self, s):
        return symmetric_box_sensitivity(s)

    def worst_case(self, s, eps):
        return wc_box_symmetric(s, eps)

    def worst_values(self, costs, probs, eps):
        return box_symmetric_values(costs, probs, eps)


@dataclass(frozen=True)
class WassersteinL1(UncertaintyFamily):
    """L1 transport budget on the support points."""

    cost_model: CostModel | None = None

    name = "wasserstein"

    def sensitivity(self, s):
        raise ValueError(
            "use wasserstein_sensitivity(points, probs, oracle) for Wasserstein families"
        )

    def worst_case(self, s, eps):
        raise TypeError(
            f"no scenario-level worst case for {self!r}; Wasserstein needs support "
            "geometry via wc_wasserstein_pl"
        )


# in CLI choice order
FAMILIES: dict[str, type[UncertaintyFamily]] = {
    cls.name: cls
    for cls in (
        SmoothPhi, PenaltyPhi, TotalVariation, Budgeted, Combination, SymmetricBox, WassersteinL1
    )
}
# families with a worst case to compute or decide against
WORST_CASE_NAMES = tuple(name for name, cls in FAMILIES.items() if cls is not PenaltyPhi)
# families whose sensitivity reads only the scenario
SCENARIO_NAMES = tuple(name for name, cls in FAMILIES.items() if cls is not WassersteinL1)


def build_family(
    name: str, phi: PhiFunction = MODIFIED_CHI2, alpha: float = 0.95
) -> UncertaintyFamily:
    """The registered family called ``name``; it takes whichever of phi, alpha it has as fields."""
    if name not in FAMILIES:
        raise UnknownFamily(f"unknown uncertainty family {name!r}")
    options = {"phi": phi, "alpha": alpha}
    cls = FAMILIES[name]
    return cls(**{f.name: options[f.name] for f in fields(cls) if f.name in options})


def growth_rate(family: UncertaintyFamily) -> str:
    """g label for the family: sqrt(eps) for smooth phi balls, eps otherwise."""
    return family.growth
