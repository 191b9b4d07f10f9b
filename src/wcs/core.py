"""Shared data model: scenarios, phi functions, scalar cost models.

Conventions
-----------
A *scenario* is a discrete nominal model: a vector of real costs ``f`` paired
with a strictly positive probability vector ``p`` summing to one. The pair is
immutable after construction; every operation in the toolkit is a pure
function of immutable values, so all of it is safe to call concurrently.

The uncertainty families themselves live in ``families``. Each carries one
of the two growth-rate labels below: ``g(eps) = sqrt(eps)`` for smooth
phi-divergence balls and ``g(eps) = eps`` for every other family here.

Sorting convention: descending cost, ties broken by original index ascending
(stable). Any tie-break yields the same worst-case values; determinism is the
only requirement.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    EmptyInput,
    LengthMismatch,
    NonFiniteCost,
    NonPositiveProbability,
    ProbSumMismatch,
)

PROB_SUM_TOL = 1e-12

GROWTH_SQRT = "sqrt"
GROWTH_LINEAR = "linear"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Scenario:
    """Discrete nominal model: costs f_i with probability masses p_i > 0."""

    costs: np.ndarray
    probs: np.ndarray

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    def is_constant(self) -> bool:
        return bool(np.all(self.costs == self.costs[0]))

    def with_costs(self, costs) -> Scenario:
        """These probabilities with new costs; only the costs are checked.

        The probabilities were validated when this scenario was built, so
        they are shared, not copied or re-summed. The costs must match
        their shape and be finite (a cost formula can overflow).
        """
        f = np.array(costs, dtype=float)
        if f.shape != self.probs.shape:
            raise LengthMismatch(f"{f.size} costs vs {self.n} probabilities")
        _check_finite(f)
        return Scenario(costs=_freeze(f), probs=self.probs)


@dataclass(frozen=True, eq=False)
class SortedScenario:
    """Scenario reordered so costs_desc[0] >= ... >= costs_desc[n-1].

    ``order[rank]`` is the original index of the atom at that rank, so
    ``costs_desc = costs[order]`` and ``unsort`` inverts the permutation
    bit-exactly.
    """

    order: np.ndarray
    costs_desc: np.ndarray
    probs_desc: np.ndarray

    @property
    def n(self) -> int:
        return self.costs_desc.shape[0]

    def unsort(self, values_desc: np.ndarray) -> np.ndarray:
        """Map a rank-indexed vector back to original atom order."""
        out = np.empty_like(np.asarray(values_desc, dtype=float))
        out[self.order] = values_desc
        return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_finite(f: np.ndarray) -> None:
    if not np.all(np.isfinite(f)):
        raise NonFiniteCost(f"non-finite cost entries at {np.nonzero(~np.isfinite(f))[0].tolist()}")


def validate(costs, probs=None) -> Scenario:
    """Validate raw vectors into a Scenario.

    Absent probs means uniform 1/n. Zero or negative probabilities are
    rejected rather than dropped (dropping would silently change
    n-dependent quantities), and probability sums off by more than 1e-12
    are an error rather than renormalized.
    """
    f = np.atleast_1d(np.asarray(costs, dtype=float)).copy()
    if f.ndim != 1 or f.size == 0:
        raise EmptyInput("costs must be a non-empty 1-d vector")
    _check_finite(f)
    n = f.size
    if probs is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.atleast_1d(np.asarray(probs, dtype=float)).copy()
        if p.size == 0:
            raise EmptyInput("probs must be non-empty when given")
        if p.shape != f.shape:
            raise LengthMismatch(f"{n} costs vs {p.size} probabilities")
        if not np.all(np.isfinite(p) & (p > 0.0)):
            raise NonPositiveProbability(
                f"probabilities must be strictly positive and finite, got min {float(np.min(p))!r}"
            )
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ProbSumMismatch(f"probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}")
    return Scenario(costs=_freeze(f), probs=_freeze(p))


def sort_desc(s: Scenario) -> SortedScenario:
    """Stable descending-cost ordering; ties keep original index order."""
    order = np.argsort(-s.costs, kind="stable")
    return SortedScenario(
        order=_freeze(order),
        costs_desc=_freeze(s.costs[order]),
        probs_desc=_freeze(s.probs[order]),
    )


# ---------------------------------------------------------------------------
# Phi functions (smooth divergences)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiFunction:
    """Smooth divergence generator: strictly convex, phi(1)=0, phi'(1)=0, phi''(1)>0.

    ``inv_deriv`` is [phi']^{-1} on its domain [zeta_floor, +inf); arguments
    below ``zeta_floor`` clamp the primal ratio z to 0, which is how the
    q >= 0 constraint enters the dual solve.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    inv_deriv: Callable[[np.ndarray], np.ndarray]
    zeta_floor: float
    curvature: float  # phi''(1)

    def inverse_clamped(self, zeta):
        """z = [phi']^{-1}(zeta) with out-of-domain arguments clamped to z = 0."""
        zeta = np.asarray(zeta, dtype=float)
        z = self.inv_deriv(np.maximum(zeta, self.zeta_floor))
        return np.where(zeta < self.zeta_floor, 0.0, np.maximum(z, 0.0))

    def conjugate(self, zeta):
        """phi*(zeta) = max_{z>=0} (zeta z - phi(z)), via the clamped inverse."""
        z = self.inverse_clamped(zeta)
        return np.asarray(zeta, dtype=float) * z - self.value(z)

    def divergence(self, q: np.ndarray, p: np.ndarray) -> float:
        return float(math.fsum((p * self.value(q / p)).tolist()))


def _chi2_value(z):
    z = np.asarray(z, dtype=float)
    return 0.5 * (z - 1.0) ** 2


def _kl_value(z):
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(z > 0.0, z * np.log(np.where(z > 0.0, z, 1.0)) - z + 1.0, 1.0)
    return out


MODIFIED_CHI2 = PhiFunction(
    name="modified-chi2",
    value=_chi2_value,
    deriv=lambda z: np.asarray(z, dtype=float) - 1.0,
    inv_deriv=lambda zeta: 1.0 + np.asarray(zeta, dtype=float),
    zeta_floor=-1.0,
    curvature=1.0,
)

KL = PhiFunction(
    name="kl",
    value=_kl_value,
    deriv=lambda z: np.log(np.asarray(z, dtype=float)),
    inv_deriv=lambda zeta: np.exp(np.asarray(zeta, dtype=float)),
    zeta_floor=-np.inf,
    curvature=1.0,
)

PHI_BY_NAME = {"chi2": MODIFIED_CHI2, "modified-chi2": MODIFIED_CHI2, "kl": KL}


# ---------------------------------------------------------------------------
# Piecewise-linear scalar costs (transport ratio oracle support)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """Continuous piecewise-linear z -> f(z) on a (possibly unbounded) interval.

    ``slopes`` has one more entry than ``breakpoints``; slopes[j] applies on
    (breakpoints[j-1], breakpoints[j]). Values are pinned by ``anchor``
    = (z0, f(z0)), which keeps the function continuous by construction.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor: tuple[float, float]
    domain: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        b = self.breakpoints
        if len(self.slopes) != len(b) + 1:
            raise ValueError("need len(slopes) == len(breakpoints) + 1")
        if any(not math.isfinite(v) for v in self.slopes):
            raise ValueError("slopes must be finite")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError("empty domain")
        if not (lo <= self.anchor[0] <= hi):
            raise ValueError("anchor outside domain")

    def _segment(self, z: float) -> int:
        # index of the slope applying just right of z (left of z is index-1 logic)
        return bisect.bisect_right(self.breakpoints, z)

    def value(self, z: float) -> float:
        z0, f0 = self.anchor
        if z == z0:
            return f0
        lo, hi = min(z0, z), max(z0, z)
        knots = [lo] + [b for b in self.breakpoints if lo < b < hi] + [hi]
        total = f0
        sgn = 1.0 if z > z0 else -1.0
        pts = knots if z > z0 else knots[::-1]
        for a, b in zip(pts[:-1], pts[1:]):
            mid = 0.5 * (a + b)
            total += sgn * self.slopes[self._segment(mid)] * abs(b - a)
        return total

    def slope_right(self, z: float) -> float:
        return self.slopes[self._segment(z)]

    def slope_left(self, z: float) -> float:
        return self.slopes[bisect.bisect_left(self.breakpoints, z)]

    def ratio_candidates(self, y: float) -> list[tuple[float, float]]:
        """(ratio, z) pairs whose ratio-max is sup_z (f(z)-f(y))/|z-y|.

        On every linear segment the secant ratio from y is monotone in z, so
        the supremum over z is attained at a breakpoint, a finite domain
        endpoint, in the limit z -> y (one-sided slopes; reported with
        z = y), or in the limit z -> +-inf (asymptotic slopes; reported
        with infinite z).
        """
        lo, hi = self.domain
        if not (lo <= y <= hi):
            raise ValueError(f"support point {y} outside cost domain {self.domain}")
        fy = self.value(y)
        cands: list[tuple[float, float]] = []
        if y > lo:
            cands.append((-self.slope_left(y), y))
        if y < hi:
            cands.append((self.slope_right(y), y))
        points = set(self.breakpoints)
        if math.isfinite(lo):
            points.add(lo)
        else:
            cands.append((-self.slopes[0], -math.inf))
        if math.isfinite(hi):
            points.add(hi)
        else:
            cands.append((self.slopes[-1], math.inf))
        inside = sorted(b for b in points if lo <= b <= hi and b != y)
        left_adj = max((b for b in inside if b < y), default=None)
        right_adj = min((b for b in inside if b > y), default=None)
        for b in inside:
            # the knots adjacent to y share y's linear piece: their secant IS the
            # one-sided slope, so use it verbatim instead of re-deriving it from
            # value differences (keeps slope equalities exact)
            if b == left_adj:
                cands.append((-self.slope_left(y), b))
            elif b == right_adj:
                cands.append((self.slope_right(y), b))
            else:
                cands.append(((self.value(b) - fy) / abs(b - y), b))
        return cands

    def ratio_from(self, y: float) -> float:
        """sup_z (f(z) - f(y)) / |z - y|, clamped at 0 (the dual multiplier is >= 0)."""
        return max(0.0, max(r for r, _ in self.ratio_candidates(y)))


def interpolated_cost(points, values) -> PiecewiseLinearCost:
    """Piecewise-linear interpolation through (points, values), flat beyond the ends.

    Used to lift a discrete cost vector to a Lipschitz scalar cost for the
    transport-ratio oracle.
    """
    xs = np.asarray(points, dtype=float)
    fs = np.asarray(values, dtype=float)
    idx = np.argsort(xs, kind="stable")
    xs, fs = xs[idx], fs[idx]
    if xs.size != np.unique(xs).size:
        raise ValueError("support points must be distinct")
    if xs.size == 1:
        return PiecewiseLinearCost((), (0.0,), (float(xs[0]), float(fs[0])))
    slopes = tuple((fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i]) for i in range(xs.size - 1))
    return PiecewiseLinearCost(
        breakpoints=tuple(xs.tolist()),
        slopes=(0.0,) + slopes + (0.0,),
        anchor=(float(xs[0]), float(fs[0])),
    )


@dataclass(frozen=True)
class ConcaveGradientCost:
    """Concave differentiable multivariate cost, described by its gradient.

    For concave f the transport ratio from a support point equals the dual
    norm of the gradient there; ``dual_norm_order`` is the q of the
    (p, q)-Hölder pair for the transport norm.
    """

    gradient: Callable[[np.ndarray], np.ndarray]
    dual_norm_order: float = 2.0

    def ratio_from(self, y) -> float:
        g = np.atleast_1d(np.asarray(self.gradient(np.asarray(y, dtype=float)), dtype=float))
        return float(np.linalg.norm(g, ord=self.dual_norm_order))


CostModel = Union[PiecewiseLinearCost, ConcaveGradientCost]


def growth_value(growth: str, eps: float) -> float:
    if growth == GROWTH_SQRT:
        return math.sqrt(eps)
    if growth == GROWTH_LINEAR:
        return eps
    raise ValueError(f"unknown growth label {growth!r}")
