"""Scalar risk statistics on scenarios: mean, variance, CVaR and friends.

Every sum is correctly rounded by ``core.exact_sum``, which keeps the 1e-10
equality checks elsewhere in the toolkit honest up to n ~ 1e6 atoms. A
correctly rounded sum does not depend on the order of its terms, so the
mean and the variance (centred at the max cost) read the scenario as it
is, and so do the sums over a tail set.

The rank-dependent quantities (CVaR, its maximizer, VaR, the CVaR
deviation) need only the atoms ranked before one weighted quantile, in any
order, and the order inside a window around it: a selection, not a sort
(``select_tail``). A strided sample of about ``_SAMPLE`` atoms brackets the
window, and exact sums check that it holds the boundary; a boundary outside
it widens it, up to every atom, which is also the window whenever n is
below 2 ``_SAMPLE``. Only the window is sorted, and only its arithmetic
depends on order, so every result equals the full sort's bit for bit.
``greedy_fill`` and ``prefix_rank`` run the same boundary search on an
array already in rank order.
``row_fsums`` and ``cvar_rows`` work on each row of an (m, n) cost block
at once, bit for bit as the scalar forms; their rows are short, so they
sum with math.fsum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .core import Scenario, SortedScenario, desc_order, exact_sum, exact_total, round_total
from .errors import InvalidCvarLevel, KappaOutOfRange

# atoms in the sample that brackets a window; below twice this n the window is every atom
_SAMPLE = 8192

_T = TypeVar("_T")
_NO_HEAD = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class CvarLevel:
    """Tail level alpha in [0, 1). alpha = 0 degenerates CVaR to the mean."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidCvarLevel(f"CVaR level must be in [0,1), got {self.alpha}")


def _level(alpha) -> float:
    a = alpha.alpha if isinstance(alpha, CvarLevel) else float(alpha)
    CvarLevel(a)  # reuse its range check
    return a


def mean(s: Scenario) -> float:
    return exact_sum(s.probs * s.costs)


def variance(s: Scenario) -> float:
    # centered at the max cost so constant vectors give exactly 0
    c = s.costs - np.max(s.costs)
    m = exact_sum(s.probs * c)
    return exact_sum(s.probs * (c - m) ** 2)


# ---------------------------------------------------------------------------
# Tail selection: a head set and a sorted window around one weighted quantile
# ---------------------------------------------------------------------------


def _below(strict: bool):
    return operator.lt if strict else operator.le


def _boundary(head: int, w: np.ndarray, target: float, strict: bool) -> tuple[int, float]:
    """(k, S_k): the number k of prefixes w[:j], j >= 1, whose sum S_j with the head stays below target.

    Below is < if strict, else <=. S_j is the correctly rounded value of
    the exact total head + w[0] + ... + w[j-1] (head as ``exact_total``
    counts; 0 for no head), so the comparison is exact. A cumsum search
    places k and the exact sums refine it; with weights > 0, S_j rises
    with j, so the answer does not depend on the search.
    """
    below = _below(strict)

    def total(j: int) -> float:
        return round_total(head + exact_total(w[:j])) if head else exact_sum(w[:j])

    start = round_total(head)
    cum = w.cumsum()
    if head:
        cum += start
    k = int(cum.searchsorted(target, "left" if strict else "right"))
    s_k = total(k) if k else start
    while k > 0 and not below(s_k, target):
        k -= 1
        s_k = total(k) if k else start
    while k < w.size:
        s_next = total(k + 1)
        if not below(s_next, target):
            break
        k, s_k = k + 1, s_next
    return k, s_k


@dataclass(frozen=True)
class Split:
    """The atoms ``head`` rank before ``window``; both hold original indices, the window in rank order.

    ``in_head`` is the head as a mask over all atoms.
    """

    head: np.ndarray
    in_head: np.ndarray
    window: np.ndarray
    through_end: bool  # the window holds the cheapest atom

    def tail(self, weights: np.ndarray, target: float, strict: bool = False) -> Tail | None:
        """The Tail of weights up to target on this split, or None if its boundary lies outside the window."""
        head = exact_total(weights[self.head]) if self.head.size else 0
        if head and not _below(strict)(round_total(head), target):
            return None
        k, mass = _boundary(head, weights[self.window], target, strict)
        if k == self.window.size and not self.through_end:
            return None
        return Tail(self, weights, target, k, mass)


@dataclass(frozen=True)
class Tail:
    """The boundary of a greedy fill of ``weights`` up to ``target`` on a split.

    The boundary atom is split.window[k]; k == window.size only when the
    window holds the cheapest atom and every weight stays below the
    target. ``mass`` is the correctly rounded total weight ranked before
    the boundary.
    """

    split: Split
    weights: np.ndarray
    target: float
    k: int
    mass: float

    @property
    def last(self) -> int:
        """Original index of the boundary atom, or of the cheapest atom when every weight fits."""
        window = self.split.window
        return int(window[min(self.k, window.size - 1)])

    def before_last(self) -> np.ndarray:
        """Original indices of the atoms ranked before ``last``, in any order."""
        window = self.split.window
        return np.concatenate((self.split.head, window[: min(self.k, window.size - 1)]))

    def fill(self) -> np.ndarray:
        """The greedy fill in atom order: full weight before the boundary, target - mass on it."""
        window = self.split.window
        q = self.weights * self.split.in_head
        q[window[: self.k]] = self.weights[window[: self.k]]
        if self.k < window.size:
            q[window[self.k]] = self.target - self.mass
        return q


def _whole(order: np.ndarray) -> Split:
    """The split with no head and the whole rank order as its window."""
    return Split(_NO_HEAD, np.zeros(order.size, dtype=bool), order, True)


def _split(costs: np.ndarray, weights: np.ndarray, target: float, margin: int, through_end: bool) -> Split:
    """The split whose window spans margin sample ranks on each side of the estimated boundary.

    The sample is every stride-th atom; its costs sorted descending and its
    cumulative weight, scaled to the total weight, estimate the rank at
    which the mass before it reaches target. The window's cost range runs
    between the sample costs margin ranks above and below (to the cheapest
    atom if through_end), ties included, so it is a block of whole ranks.
    """
    stride = costs.size // _SAMPLE
    if stride < 2:
        return _whole(desc_order(costs)[0])
    sample = costs[::stride]
    order = np.argsort(-sample)
    cum = np.cumsum(weights[::stride][order])
    cum *= np.sum(weights) / cum[-1]
    r = int(np.searchsorted(cum, target))
    above, below = r - margin, r + margin
    top = float(sample[order[above]]) if above >= 0 else math.inf
    bottom = float(sample[order[below]]) if below < sample.size and not through_end else -math.inf
    in_head = costs > top
    head = np.flatnonzero(in_head)
    window = np.flatnonzero(~in_head & (costs >= bottom))
    ranked = window[desc_order(costs[window])[0]]
    return Split(head, in_head, ranked, head.size + window.size == costs.size)


def select(
    costs: np.ndarray,
    weights: np.ndarray,
    target: float,
    attempt: Callable[[Split], _T | None],
    through_end: bool = False,
) -> _T:
    """attempt(split) on ever wider splits around the boundary of weights at target.

    The first split keeps 1/32 of the sample ranks on each side of the
    estimate, each widening 4x as many, and the last one is every atom,
    where attempt must succeed.
    """
    margin = max(1, _SAMPLE // 32)
    while True:
        split = _split(costs, weights, target, margin, through_end)
        found = attempt(split)
        if found is not None:
            return found
        if split.window.size == costs.size:
            raise AssertionError("the boundary lies outside the whole order")
        margin *= 4


def select_tail(costs: np.ndarray, weights: np.ndarray, target: float, strict: bool = False) -> Tail:
    """The Tail of a greedy fill of weights (> 0) in descending-stable cost order up to target.

    The boundary is the first atom whose exact prefix sum passes target
    (reaches it if strict); the head before its window is never sorted.
    """
    return select(costs, weights, target, lambda split: split.tail(weights, target, strict))


def greedy_fill(caps: np.ndarray) -> np.ndarray:
    """Fill mass 1 left to right under per-slot caps; caps must sum to >= 1.

    Returns q with q[i] = caps[i] for the fully used prefix, one partial
    entry, zeros after. The cutoff comes from exact prefix sums, so the
    partial mass is the correctly rounded remainder.
    """
    k, mass = _boundary(0, caps, 1.0, strict=False)
    q = np.zeros(caps.size)
    q[:k] = caps[:k]
    if k < caps.size:
        q[k] = 1.0 - mass
    return q


def cvar_fill(s: Scenario, alpha) -> tuple[np.ndarray, Tail | None]:
    """Greedy maximizer of the CVaR LP at level alpha, in atom order, and its Tail (None at alpha = 0)."""
    a = _level(alpha)
    if a == 0.0:
        return s.probs.copy(), None
    tail = select_tail(s.costs, s.probs / (1.0 - a), 1.0)
    return tail.fill(), tail


def row_fsums(a: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-d array."""
    # one row of Python floats at a time, not the whole block
    return np.array([math.fsum(row.tolist()) for row in a], dtype=float)


def cvar_rows(costs: np.ndarray, probs: np.ndarray, alpha) -> np.ndarray:
    """CVaR of each row of an (m, n) cost block under the shared probabilities.

    Bit-identical to ``cvar`` on each row: one stable sort of the block, and
    one greedy fill for all rows when the probabilities are uniform (the
    sorted probabilities are then the same for every row).
    """
    a = _level(alpha)
    order = np.argsort(-costs, axis=1, kind="stable")
    f = np.take_along_axis(costs, order, axis=1)
    if a == 0.0:
        q = probs[order]
    elif np.all(probs == probs[0]):
        q = greedy_fill(probs / (1.0 - a))
    else:
        q = np.array([greedy_fill(p / (1.0 - a)) for p in probs[order]])
    return row_fsums(q * f)


def cvar(s: Scenario, alpha) -> float:
    """CVaR via the greedy solution of the capped LP max{q'f : 0 <= q <= p/(1-a)}.

    alpha = 0 gives the mean; alpha >= 1 - p_(1) gives max(f).
    """
    return exact_sum(cvar_fill(s, alpha)[0] * s.costs)


def cvar_distribution(s: Scenario, alpha) -> np.ndarray:
    """Greedy maximizer of the CVaR LP, in original atom order."""
    return cvar_fill(s, alpha)[0]


def partial_fill_rank(srt: SortedScenario, alpha: float) -> int:
    """Number k of atoms whose cumulative nominal mass stays strictly below 1-alpha.

    Rank k+1 (0-based index k) is the atom receiving the partial mass in the
    greedy CVaR fill; the strict inequality makes the piecewise-slope
    identity for budgeted sets hold exactly on discrete data.
    """
    return prefix_rank(srt.probs_desc, 1.0 - alpha)


def prefix_rank(probs: np.ndarray, target: float) -> int:
    """First index whose exact prefix sum probs[0] + ... + probs[k] reaches target.

    The last index if no prefix does.
    """
    return min(_boundary(0, probs, target, strict=True)[0], probs.size - 1)


def var_tail(s: Scenario, alpha: float) -> Tail:
    """The Tail of the nominal masses at 1 - alpha, strict: its boundary is the VaR atom."""
    return select_tail(s.costs, s.probs, 1.0 - alpha, strict=True)


def var_quantile(s: Scenario, alpha) -> float:
    """Cost of the partial-fill atom of the greedy CVaR solution (the VaR atom)."""
    return float(s.costs[var_tail(s, _level(alpha)).last])


def cvar_deviation(s: Scenario, alpha) -> float:
    """CVaR minus mean, evaluated on centered costs.

    Centering makes the value exactly 0 for constant cost vectors
    (deviation axiom D1) without changing it otherwise; it is clamped at 0
    against float wobble in the subtraction.
    """
    q, _ = cvar_fill(s, alpha)
    c = s.costs - s.costs.min()
    return max(0.0, exact_sum(q * c) - exact_sum(s.probs * c))


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
