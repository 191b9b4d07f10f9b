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

Rank convention: descending cost, ties broken by original index ascending
(stable), as ``desc_order`` returns it. Any tie-break yields the same
worst-case values; determinism is the only requirement. A solver that needs
only the atoms above one quantile and the order near it sorts just that
window (``riskstats.select_tail``), and ranks every atom the same way.

Summation convention: every scalar sum is ``exact_sum``, the correctly
rounded sum of its terms, so no result depends on the order of the terms.
A sum of products p_i f_i passes both factors (``exact_sum(p, f)``), and
the kernel forms each chunk's products itself, so no n-sized product is
built. Where one large set is summed against many small refinements, its
exact total is kept as an integer (``exact_total``), the refinements add
their own terms to it, and each comparison rounds once (``round_total``).
A sum against a vector that is zero outside a known support (a CVaR fill)
adds the exact totals of the support's parts and rounds once, which is
the dense sum's value whenever that total is not zero. The kernel bins
each term by the sign and exponent bits of its double and sums its two
halves exactly with np.bincount; a non-finite term is seen in the top
bins, not in a separate pass over the terms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DuplicateSupportPoints,
    EmptyInput,
    InvalidCostCurve,
    InvalidPhiFunction,
    LengthMismatch,
    NonFiniteCost,
    NonPositiveProbability,
    OutsideCostDomain,
    ProbSumMismatch,
    UnknownGrowth,
)

PROB_SUM_TOL = 1e-12

GROWTH_SQRT = "sqrt"
GROWTH_LINEAR = "linear"


# ---------------------------------------------------------------------------
# Correctly rounded sums
# ---------------------------------------------------------------------------

# below this many terms math.fsum over a list is as fast as the bins
EXACT_SUM_CUTOFF = 1024
# below this many terms exact_total adds the terms' integer ratios in Python
_RATIO_CUTOFF = 64
_CHUNK = 1 << 14
# a term's bin is its sign and biased exponent E, the top 12 bits of its double
_BINS = 1 << 12
_BIN_SHIFT = np.uint64(52)
# the high half keeps the top 27 significant bits; the low half holds the other 26
_LOW_BITS = 26
_HIGH_MASK = np.uint64(((1 << 64) - 1) ^ ((1 << _LOW_BITS) - 1))
# a term with E >= 1 is an integer m < 2^53 times 2^(E - 1075), one with E = 0 (a
# subnormal or zero) is m times 2^-1074; totals count 2^-1127 = 2^(-1074 - 53)
_UNIT_SHIFT = np.maximum(np.arange(_BINS) & 0x7FF, 1) + 52
# in a bin, halves are integers below 2^27 units, so a chunk's bin sums stay below
# 2^41 units and the float bins add this many chunks exactly (below 2^53 units)
_FLUSH = 1 << 12
# from this E up, _FLUSH chunks of bin sums could pass the largest double (2^(E - 996)
# for the high halves), so those terms are summed scaled by 2^-64; E = 2047 is inf or nan
_TOP_E = 2020
_TOP_SCALE = 64


def _bin_total(hi_bins: np.ndarray, lo_bins: np.ndarray) -> int:
    """The exact total, in units of 2^-1127, of float bins of high and low halves."""
    used = np.flatnonzero((hi_bins != 0.0) | (lo_bins != 0.0))
    shift = _UNIT_SHIFT[used]
    # each bin sum is an integer count of its unit below 2^53, so the scaling is exact
    hi = np.ldexp(hi_bins[used], 1127 - _LOW_BITS - shift).astype(np.int64)
    lo = np.ldexp(lo_bins[used], 1127 - shift).astype(np.int64)
    return sum(
        (h << (s + _LOW_BITS)) + (lo_ << s)
        for s, h, lo_ in zip(shift.tolist(), hi.tolist(), lo.tolist())
    )


def exact_total(a, b=None) -> int | None:
    """Exact sum of a 1-d float array, or of the products fl(a_i * b_i), as an integer count of 2^-1127.

    0 for an empty array, before any buffer is allocated; None if a term
    is not finite. Below _RATIO_CUTOFF terms it adds their integer ratios in
    Python. The kernel reads each double's own bits: a shift by 52
    gives its bin (sign and biased exponent), a mask keeps its top 27
    significant bits and one subtraction gives the exact low half. Within a
    bin every half is an integer multiple of one power of two, so
    np.bincount sums each half exactly in float64, chunk by chunk, and the
    float bins add up across chunks until they are turned into integers
    once (``_bin_total``). Terms of 2^997 and above, whose bins could
    overflow, are summed scaled by 2^-64, and an inf or nan term is seen in
    those top bins before any low half is formed. With b, each chunk's
    products are formed inside the loop, as a * b forms them (an
    overflowing product warns there as it would), and no n-sized product
    array is built. Totals of disjoint parts add exactly, so a sum over a
    large set is taken once and its refinements add only their own terms.
    """
    if np.size(a) == 0:
        return 0
    a = np.ascontiguousarray(a, dtype=float)
    if b is not None:
        b = np.ascontiguousarray(b, dtype=float)
    if a.size < _RATIO_CUTOFF:
        total = 0
        try:
            # a term's integer ratio n / 2^k is n 2^(1127 - k) units
            for n, d in map(float.as_integer_ratio, (a if b is None else a * b).tolist()):
                total += n << (1128 - d.bit_length())
        except (OverflowError, ValueError):  # the ratio of an inf or a nan
            return None
        return total
    size = min(a.size, _CHUNK)
    bins = np.empty(size, dtype=np.uint64)
    hi = np.empty(size)
    low = np.empty(size)
    hi_bins = np.zeros(_BINS)
    lo_bins = np.zeros(_BINS)
    total = 0
    for count, start in enumerate(range(0, a.size, _CHUNK), 1):
        x = a[start : start + _CHUNK]
        m = x.size
        if b is not None:
            x = np.multiply(x, b[start : start + m], out=low[:m])
        u = x.view(np.uint64)
        e = np.right_shift(u, _BIN_SHIFT, out=bins[:m]).view(np.intp)
        h = np.bitwise_and(u, _HIGH_MASK, out=hi[:m].view(np.uint64)).view(float)
        hi_sums = np.bincount(e, weights=h, minlength=_BINS)
        top = hi_sums.reshape(2, -1)[:, _TOP_E:].any()
        if top:
            big = x[(e & 0x7FF) >= _TOP_E]
            if not np.isfinite(big).all():
                return None
            total += exact_total(big * 2.0**-_TOP_SCALE) << _TOP_SCALE
        # the low half, exact; in place over the products when there are some
        lo_sums = np.bincount(e, weights=np.subtract(x, h, out=low[:m]), minlength=_BINS)
        if top:
            hi_sums.reshape(2, -1)[:, _TOP_E:] = lo_sums.reshape(2, -1)[:, _TOP_E:] = 0.0
        hi_bins += hi_sums
        lo_bins += lo_sums
        if count % _FLUSH == 0:
            total += _bin_total(hi_bins, lo_bins)
            hi_bins[:] = lo_bins[:] = 0.0
    return total + _bin_total(hi_bins, lo_bins)


def round_total(total: int) -> float:
    """The double nearest total * 2^-1127 (Python's int division rounds correctly)."""
    return total / (1 << 1127)


def exact_sum(a, b=None) -> float:
    """Correctly rounded sum of a 1-d float array, or of the products fl(a_i * b_i).

    math.fsum(a.tolist()), or math.fsum((a * b).tolist()), bit for bit:
    ``exact_total`` then one ``round_total``. Short arrays, arrays with a
    non-finite term (fsum's inf/nan rules apply) go to math.fsum.

    One difference from fsum: fsum raises OverflowError whenever a partial
    sum overflows, which depends on the order of the terms; exact_sum raises
    it only when the exact total rounds beyond the largest finite double.
    """
    a = np.asarray(a, dtype=float)
    total = exact_total(a, b) if a.size >= EXACT_SUM_CUTOFF else None
    if total is None or total == 0:
        terms = a if b is None else a * b
        if total is None:
            return math.fsum(terms.tolist())
        # an exact zero is -0.0 only if fsum makes it so and every term is -0.0
        return math.fsum([-0.0]) if np.signbit(terms).all() else 0.0
    return round_total(total)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Scenario:
    """Discrete nominal model: costs f_i with probability masses p_i > 0.

    A transport set also reads each atom's support point (``points``) and the
    piecewise-linear cost the costs are read off (``curve``). ``validate`` and
    ``with_costs`` leave both None, so a re-costed scenario keeps no stale curve.
    """

    costs: np.ndarray
    probs: np.ndarray
    points: np.ndarray | None = None
    curve: PiecewiseLinearCost | None = None

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    def is_constant(self) -> bool:
        return bool((self.costs == self.costs[0]).all())

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

    def unsort(self, values_desc: np.ndarray) -> np.ndarray:
        """Map a rank-indexed vector back to original atom order."""
        out = np.empty_like(np.asarray(values_desc, dtype=float))
        out[self.order] = values_desc
        return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_finite(f: np.ndarray) -> None:
    if not np.isfinite(f).all():
        raise NonFiniteCost(f"non-finite cost entries at {np.nonzero(~np.isfinite(f))[0].tolist()}")


def validate(costs, probs=None) -> Scenario:
    """Validate raw vectors into a Scenario.

    Absent probs means uniform 1/n. Zero or negative probabilities are
    rejected rather than dropped (dropping would silently change
    n-dependent quantities), and probability sums off by more than 1e-12
    are an error rather than renormalized.
    """
    f = np.array(costs, dtype=float, ndmin=1)
    if f.ndim != 1 or f.size == 0:
        raise EmptyInput("costs must be a non-empty 1-d vector")
    _check_finite(f)
    n = f.size
    if probs is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.array(probs, dtype=float, ndmin=1)
        if p.size == 0:
            raise EmptyInput("probs must be non-empty when given")
        if p.shape != f.shape:
            raise LengthMismatch(f"{n} costs vs {p.size} probabilities")
        if not (np.isfinite(p) & (p > 0.0)).all():
            raise NonPositiveProbability(
                f"probabilities must be strictly positive and finite, got min {float(p.min())!r}"
            )
        total = exact_sum(p)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ProbSumMismatch(f"probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}")
    return Scenario(costs=_freeze(f), probs=_freeze(p))


def desc_order(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, costs[order]): descending cost, ties in index order.

    An unstable argsort places the atoms, and one int64 sort of the keys
    run * n + index puts each run of equal costs back in index order, so
    the order equals np.argsort(-costs, kind="stable") (exact for
    n < 3e9, where run * n fits in int64).
    """
    order = np.argsort(-costs)
    costs_desc = costs[order]
    tie = costs_desc[1:] == costs_desc[:-1]
    if tie.any():
        n = costs.size
        run = np.zeros(n, dtype=np.int64)
        np.cumsum(~tie, out=run[1:])
        run *= n
        order += run
        order.sort()
        order -= run
        # 0.0 and -0.0 tie but differ in bits: gather again
        costs_desc = costs[order]
    return order, costs_desc


def distinct(a) -> np.ndarray:
    """The distinct entries of a finite float array, ascending: np.unique(a) bit for bit.

    This is np.unique's sorting path (sort a flat copy, keep each entry that
    differs from its left neighbour) without its first call's import of
    numpy.ma, which costs a short process about 13 ms under numpy 2.
    """
    a = np.array(a, dtype=float).ravel()
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def sort_desc(s: Scenario) -> SortedScenario:
    """Stable descending-cost ordering; ties keep original index order."""
    order, costs_desc = desc_order(s.costs)
    return SortedScenario(
        order=_freeze(order),
        costs_desc=_freeze(costs_desc),
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
    inv_deriv: Callable[[np.ndarray], np.ndarray]
    zeta_floor: float
    curvature: float  # phi''(1)

    def __post_init__(self):
        # every solve divides by phi''(1) or takes its root; zeta_floor may be -inf (KL)
        if not 0.0 < self.curvature < math.inf:
            raise InvalidPhiFunction(f"phi''(1) must be finite and > 0, got {self.curvature}")
        if math.isnan(self.zeta_floor):
            raise InvalidPhiFunction("zeta_floor must not be NaN")

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
        return exact_sum(p, self.value(q / p))


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
    inv_deriv=lambda zeta: 1.0 + np.asarray(zeta, dtype=float),
    zeta_floor=-1.0,
    curvature=1.0,
)

KL = PhiFunction(
    name="kl",
    value=_kl_value,
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
            raise InvalidCostCurve("need len(slopes) == len(breakpoints) + 1")
        if any(not math.isfinite(v) for v in self.slopes):
            raise InvalidCostCurve("slopes must be finite")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise InvalidCostCurve("breakpoints must be strictly increasing")
        lo, hi = self.domain
        if not lo < hi:
            raise InvalidCostCurve("empty domain")
        if not (lo <= self.anchor[0] <= hi):
            raise InvalidCostCurve("anchor outside domain")

    def _segment(self, z: float) -> int:
        # index of the slope applying just right of z (left of z is index-1 logic)
        return bisect.bisect_right(self.breakpoints, z)

    def _step(self, total: float, a: float, b: float, sgn: float) -> float:
        # f(b) from f(a) = total across the linear piece between knots a and b
        return total + sgn * self.slopes[self._segment(0.5 * (a + b))] * abs(b - a)

    @cached_property
    def _knot_values(self) -> tuple[float, ...]:
        """f at each breakpoint, accumulated knot by knot outward from the anchor.

        ``value`` walks the same knots in the same order, so each entry is
        the walk's value bit for bit, and a value query is one step from the
        last knot before its point.
        """
        z0, f0 = self.anchor
        b = self.breakpoints
        out = [f0] * len(b)
        right = range(bisect.bisect_right(b, z0), len(b))
        left = range(bisect.bisect_left(b, z0) - 1, -1, -1)
        for sgn, idx in ((1.0, right), (-1.0, left)):
            a, total = z0, f0
            for j in idx:
                total = self._step(total, a, b[j], sgn)
                a, out[j] = b[j], total
        return tuple(out)

    def value(self, z: float) -> float:
        z0, f0 = self.anchor
        if z == z0:
            return f0
        b = self.breakpoints
        # the last knot strictly between the anchor and z, if any
        if z > z0:
            sgn, j = 1.0, bisect.bisect_left(b, z) - 1
            inside = j >= 0 and b[j] > z0
        else:
            sgn, j = -1.0, bisect.bisect_right(b, z)
            inside = j < len(b) and b[j] < z0
        if not inside:
            return self._step(f0, z0, z, sgn)
        return self._step(self._knot_values[j], b[j], z, sgn)

    def slope_right(self, z: float) -> float:
        return self.slopes[self._segment(z)]

    def slope_left(self, z: float) -> float:
        return self.slopes[bisect.bisect_left(self.breakpoints, z)]

    def ratio_from(self, y: float) -> float:
        """sup_z (f(z) - f(y)) / |z - y|, clamped at 0 (the dual multiplier is >= 0).

        On every linear piece the secant ratio from y is monotone in z, so the
        supremum is at a knot, a finite domain end, or in the limit toward an
        infinite end (the asymptotic slope). The limits z -> y add nothing:
        each one-sided slope is the secant to the adjacent knot or end, or the
        asymptotic slope where there is none.
        """
        lo, hi = self.domain
        if not (lo <= y <= hi):
            raise OutsideCostDomain(f"support point {y} outside cost domain {self.domain}")
        fy = self.value(y)
        ratios = [0.0]
        if lo == -math.inf:
            ratios.append(-self.slopes[0])
        if hi == math.inf:
            ratios.append(self.slopes[-1])
        finite = {b for b in (*self.breakpoints, lo, hi) if lo <= b <= hi and math.isfinite(b)}
        inside = sorted(finite - {y})
        j = bisect.bisect_left(inside, y)
        for i, b in enumerate(inside):
            # the knots adjacent to y share y's linear piece: their secant IS the
            # one-sided slope, so use it verbatim instead of re-deriving it from
            # value differences (keeps slope equalities exact)
            if i == j - 1:
                ratios.append(-self.slope_left(y))
            elif i == j:
                ratios.append(self.slope_right(y))
            else:
                ratios.append((self.value(b) - fy) / abs(b - y))
        return max(ratios)


def interpolated_cost(points, values) -> PiecewiseLinearCost:
    """Piecewise-linear interpolation through (points, values), flat beyond the ends.

    Used to lift a discrete cost vector to a Lipschitz scalar cost for the
    transport-ratio oracle.
    """
    xs = np.asarray(points, dtype=float)
    fs = np.asarray(values, dtype=float)
    idx = np.argsort(xs, kind="stable")
    xs, fs = xs[idx], fs[idx]
    if xs.size != distinct(xs).size:
        raise DuplicateSupportPoints("support points must be distinct")
    xs, fs = xs.tolist(), fs.tolist()
    if len(xs) == 1:
        return PiecewiseLinearCost((), (0.0,), (xs[0], fs[0]))
    # Python floats: a slope that overflows is inf, without numpy's warning
    slopes = tuple((fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))
    return PiecewiseLinearCost(
        breakpoints=tuple(xs), slopes=(0.0,) + slopes + (0.0,), anchor=(xs[0], fs[0])
    )


def growth_value(growth: str, eps: float) -> float:
    if growth == GROWTH_SQRT:
        return math.sqrt(eps)
    if growth == GROWTH_LINEAR:
        return eps
    raise UnknownGrowth(f"unknown growth label {growth!r}")
