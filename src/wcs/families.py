"""Uncertainty-family descriptors and the name -> family registry.

A family is one ambiguity set around the nominal probabilities p. Its
descriptor is the one place that knows the set: its command-line ``name``,
its ``growth`` rate g (sqrt(eps) for smooth phi-divergence balls, eps
otherwise), the ``homogeneity`` degree of its sensitivity, the closed-form
``sensitivity(s)`` and the exact ``worst_case(s, eps)``, and
``block_reader(probs, eps)``, which maps an (m, n) cost block to each row's
value-only V(eps) for the newsvendor kink search (None, for smooth phi and
Wasserstein, means order by order).

Wasserstein reads the transport geometry a scenario carries besides its
costs: the support points ``s.points`` and the piecewise-linear cost
``s.curve`` the costs are read off. ``dro.cost_scenario`` attaches both;
a scenario without them raises ``NoTransportGeometry``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .core import (
    GROWTH_LINEAR,
    GROWTH_SQRT,
    MODIFIED_CHI2,
    PhiFunction,
    PiecewiseLinearCost,
    Scenario,
)
from .errors import NoTransportGeometry, NoWorstCase, UnknownFamily
from .riskstats import cvar_level
from .sensitivity import (
    budgeted_sensitivity,
    combination_sensitivity,
    penalty_phi_sensitivity,
    smooth_phi_sensitivity,
    symmetric_box_sensitivity,
    tv_sensitivity,
    wasserstein_sensitivity,
)
from .worstcase import (
    box_symmetric_reader,
    budgeted_reader,
    combination_reader,
    tv_reader,
    wc_box_symmetric,
    wc_budgeted,
    wc_combination,
    wc_smooth_phi,
    wc_tv,
    wc_wasserstein_pl,
)


class UncertaintyFamily:
    """Base of the descriptors; subclasses add ``sensitivity`` and ``worst_case``."""

    name: ClassVar[str]
    growth: ClassVar[str] = GROWTH_LINEAR
    homogeneity: ClassVar[float] = 1.0

    def block_reader(self, probs: np.ndarray, eps: float):
        """A function from a block of finite cost rows to worst_case(row, eps).value of each, or
        None for a family read order by order (families with one override this)."""
        return None


@dataclass(frozen=True)
class SmoothPhi(UncertaintyFamily):
    """phi-divergence ball {q : D_phi(q | p) <= eps}."""

    phi: PhiFunction = MODIFIED_CHI2

    name = "phi"
    growth = GROWTH_SQRT

    def sensitivity(self, s):
        return smooth_phi_sensitivity(s, self.phi)

    def worst_case(self, s, eps):
        return wc_smooth_phi(s, self.phi, eps)


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
        raise NoWorstCase(f"no worst case for {self!r}: a penalty bounds no set")


@dataclass(frozen=True)
class TotalVariation(UncertaintyFamily):
    """{q : sum |q - p| <= eps}."""

    name = "tv"

    def sensitivity(self, s):
        return tv_sensitivity(s)

    def worst_case(self, s, eps):
        return wc_tv(s, eps)

    def block_reader(self, probs, eps):
        return tv_reader(probs, eps)


@dataclass(frozen=True)
class Budgeted(UncertaintyFamily):
    """Likelihood-ratio cap {q : 0 <= q <= (1 + eps) p}."""

    name = "budgeted"

    def sensitivity(self, s):
        return budgeted_sensitivity(s)

    def worst_case(self, s, eps):
        return wc_budgeted(s, eps)

    def block_reader(self, probs, eps):
        return budgeted_reader(probs, eps)


@dataclass(frozen=True)
class Combination(UncertaintyFamily):
    """(1 - eps) {p} + eps * (CVaR_alpha polytope)."""

    alpha: float

    name = "combo"

    def __post_init__(self):
        cvar_level(self.alpha)

    def sensitivity(self, s):
        return combination_sensitivity(s, self.alpha)

    def worst_case(self, s, eps):
        return wc_combination(s, self.alpha, eps)

    def block_reader(self, probs, eps):
        return combination_reader(probs, self.alpha, eps)


@dataclass(frozen=True)
class SymmetricBox(UncertaintyFamily):
    """Likelihood-ratio band {q : p / (1 + nu) <= q <= (1 + nu) p}."""

    name = "box"

    def sensitivity(self, s):
        return symmetric_box_sensitivity(s)

    def worst_case(self, s, eps):
        return wc_box_symmetric(s, eps)

    def block_reader(self, probs, eps):
        return box_symmetric_reader(probs, eps)


@dataclass(frozen=True)
class WassersteinL1(UncertaintyFamily):
    """L1 transport budget on the support points ``s.points``, costs read off ``s.curve``."""

    name = "wasserstein"

    def sensitivity(self, s):
        return wasserstein_sensitivity(s.points, s.probs, _transport_curve(s).ratio_from)

    def worst_case(self, s, eps):
        return wc_wasserstein_pl(s.points, s.probs, _transport_curve(s), eps)


def _transport_curve(s: Scenario) -> PiecewiseLinearCost:
    if s.points is None or s.curve is None:
        raise NoTransportGeometry("a Wasserstein set needs the scenario's points and curve")
    return s.curve


# in CLI choice order
FAMILIES: dict[str, type[UncertaintyFamily]] = {
    cls.name: cls
    for cls in (
        SmoothPhi, PenaltyPhi, TotalVariation, Budgeted, Combination, SymmetricBox, WassersteinL1
    )
}
# families with a worst case to compute or decide against
WORST_CASE_NAMES = tuple(name for name, cls in FAMILIES.items() if cls is not PenaltyPhi)
# families whose sensitivity reads only the scenario's costs and probabilities
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
