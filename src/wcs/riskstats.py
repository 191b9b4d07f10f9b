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
window: it estimates the boundary's rank, and the window spans ``_Z``
standard errors of that estimate, read off the sample itself, plus
``_SAMPLE // 1024`` sample ranks on each side. Exact sums check that it
holds the boundary; a boundary outside it widens it, up to every atom,
which is also the window whenever n is below 2 ``_SAMPLE``. Only the window is sorted, and
only its arithmetic depends on order, so every result equals the full sort's
bit for bit.
The CVaR fill of tail mass beta = 1 - alpha is the greedy fill of p / beta
up to mass 1 (a box or budgeted set whose level rounds to 1 gives beta
itself, scaled by a power of two below 2^-1022: ``_fill_caps``). The
CVaR-type values (CVaR, the CVaR deviation, and through them the
budgeted, combination and box worst cases and sensitivities) sum only
their fill's support, the head and the window atoms up to the boundary
(``Tail.dot``), bit for bit as the dense fill's sum; value-only callers
never build the dense fill. The budgeted slope sums the atoms ranked
before the VaR atom the same way (``Tail.excess``).
``greedy_fill`` and ``prefix_rank`` run the same boundary search on an
array already in rank order.
``row_fsums`` sums each row of an (m, n) block and ``fill_rows`` forms the
CVaR fill of each row of probabilities in rank order, bit for bit as the
scalar forms; their rows are short, so the sums use math.fsum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .core import (
    EXACT_SUM_CUTOFF, Scenario, SortedScenario, desc_order, exact_sum, exact_total, round_total,
)
from .errors import InvalidCvarLevel, KappaOutOfRange

# atoms in the sample that brackets a window; below twice this n the window is every atom
_SAMPLE = 8192
# the first window's margin: _Z standard errors of the estimated boundary rank, plus 1/1024 of the sample
_Z = 2.0

_T = TypeVar("_T")
_NO_HEAD = np.empty(0, dtype=np.intp)


def cvar_level(alpha) -> float:
    """alpha as a float, checked to be a tail level in [0, 1); 0 degenerates CVaR to the mean."""
    a = float(alpha)
    if not 0.0 <= a < 1.0:
        raise InvalidCvarLevel(f"CVaR level must be in [0,1), got {a}")
    return a


def mean(s: Scenario) -> float:
    return exact_sum(s.probs, s.costs)


def variance(s: Scenario) -> float:
    # centered at the max cost so constant vectors give exactly 0
    with np.errstate(over="ignore", invalid="ignore"):
        c = s.costs - np.max(s.costs)
        c -= exact_sum(s.probs, c)
        c *= c
    v = exact_sum(s.probs, c)
    if math.isfinite(v):
        return v
    half, scale, v = scaled_variance(s)  # the range or a square overflows
    return half * half * (scale * (scale * v))


def scaled_variance(s: Scenario) -> tuple[float, float, float]:
    """(half, scale, v): Var_p f = (half scale)^2 v, v the variance of the ``centred`` costs
    scaled into [0, 1], which neither underflows nor overflows where Var_p f would."""
    c, _, half = centred(s)
    scale = float(c.max())
    return half, scale, variance(Scenario(costs=c / scale, probs=s.probs)) if scale else 0.0


def half_sum(a: float, b: float) -> float:
    """(a + b) / 2 for finite doubles a and b, halved first where a + b overflows."""
    return 0.5 * (a + b) if math.isfinite(a + b) else 0.5 * a + 0.5 * b


def centred(s: Scenario) -> tuple[np.ndarray, float, float]:
    """(c, E_p c, half) for the costs centred at their min, c = (f - min f) / half.

    half is 1 unless f - min f overflows a double; that shows as an inf
    E_p c, not in a pass of its own, and the costs are then centred again
    on f / 2, as ``worstcase._standardise`` does, with half = 2. A
    deviation of c times half is the deviation of f.
    """
    low = s.costs.min()
    with np.errstate(over="ignore"):
        c = s.costs - low
    m = exact_sum(s.probs, c)
    if math.isinf(m):
        c = s.costs / 2.0 - low / 2.0
        return c, exact_sum(s.probs, c), 2.0
    return c, m, 1.0


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
        head = exact_total(weights[self.head])
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

    def fill(self) -> np.ndarray:
        """The greedy fill in atom order: full weight before the boundary, target - mass on it."""
        window = self.split.window
        q = self.weights * self.split.in_head
        q[window[: self.k]] = self.weights[window[: self.k]]
        if self.k < window.size:
            q[window[self.k]] = self.target - self.mass
        return q

    def dot(self, values: np.ndarray) -> float:
        """exact_sum(self.fill() * values) bit for bit, for finite values, from the fill's support.

        The head, the window atoms before the boundary and the boundary's
        partial term hold the products the dense fill holds, and every other
        product is a zero, so their exact totals agree. A zero total takes
        the dense sum, as its sign depends on every term, and so do arrays
        below ``EXACT_SUM_CUTOFF``, where math.fsum is the cheaper sum.
        """
        if values.size < EXACT_SUM_CUTOFF:
            return exact_sum(self.fill(), values)
        head = exact_total(self.weights[self.split.head], values[self.split.head])
        window = self.split.window[: self.k + 1]
        w = self.weights[window]
        if self.k < self.split.window.size:
            w[-1] = self.target - self.mass
        rest = exact_total(w, values[window])
        if head is None or rest is None or head + rest == 0:
            return exact_sum(self.fill(), values)
        return round_total(head + rest)

    def excess(self, values: np.ndarray) -> float:
        """Sum of weights_i (values_i - values[last]) over the atoms ranked before ``last``.

        Correctly rounded, for finite values: the head's and the window's
        exact totals rounded once, or, where that total is zero (its sign
        depends on every term) and below ``EXACT_SUM_CUTOFF``, the dense
        sum. Where a gap overflows, the sum is taken on values / 2 and doubled.
        """
        at = values[self.last]
        window = self.split.window[: min(self.k, self.split.window.size - 1)]
        head = self.split.head
        with np.errstate(over="ignore"):
            if values.size >= EXACT_SUM_CUTOFF:
                gaps = values[head]
                gaps -= at
                total = exact_total(self.weights[head], gaps)
                rest = exact_total(self.weights[window], values[window] - at)
                if total is not None and rest is not None and total + rest != 0:
                    return round_total(total + rest)
            before = np.concatenate((head, window)) if head.size else window
            total = exact_sum(self.weights[before], values[before] - at)
        return 2.0 * self.excess(values / 2.0) if math.isinf(total) else total


def _whole(order: np.ndarray) -> Split:
    """The split with no head and the whole rank order as its window."""
    return Split(_NO_HEAD, np.zeros(order.size, dtype=bool), order, True)


def _split(costs: np.ndarray, weights: np.ndarray, target: float, widen: int, through_end: bool) -> Split:
    """The split whose window spans widen first margins of sample ranks on each side of the estimated boundary.

    The sample is every stride-th atom; its costs sorted descending and its
    cumulative weight, scaled to the total weight, estimate the rank at
    which the mass before it reaches target. That rank errs by about
    sqrt(S F (1 - F)) sample ranks, S the sample size and F target's share
    of the total, clipped to [0, 1], times the sampled weights' design
    effect sqrt(mean w^2) / mean w; the first margin is ``_Z`` of these
    errors plus ``_SAMPLE // 1024`` ranks, and at least one rank. The
    window's cost range runs between the sample costs widen margins above
    and below (to the cheapest atom if through_end), ties included, so it
    is a block of whole ranks.
    """
    stride = costs.size // _SAMPLE
    if stride < 2:
        return _whole(desc_order(costs)[0])
    sample, w = costs[::stride], weights[::stride]
    order = np.argsort(-sample)
    cum = np.cumsum(w[order])
    total = np.sum(weights)
    share = min(max(target / total, 0.0), 1.0)
    u = w / cum[-1]  # S sum u^2 is the design effect squared; u <= 1, so u^2 does not overflow
    error = sample.size * math.sqrt(share * (1.0 - share) * float(u @ u))
    margin = widen * max(1, math.ceil(_Z * error) + _SAMPLE // 1024)
    cum *= total / cum[-1]
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

    The first split's margin comes from the sample's own error
    (``_split``), each widening spans 4x as many sample ranks, and the
    last one is every atom, where attempt must succeed.
    """
    widen = 1
    while True:
        split = _split(costs, weights, target, widen, through_end)
        found = attempt(split)
        if found is not None:
            return found
        if split.window.size == costs.size:
            raise AssertionError("the boundary lies outside the whole order")
        widen *= 4


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


def cvar_beta(alpha) -> float | None:
    """1 - alpha, the CVaR tail's nominal mass beta, for a checked level alpha; None at alpha = 0."""
    a = cvar_level(alpha)
    return None if a == 0.0 else 1.0 - a


def _fill_caps(probs: np.ndarray, beta) -> np.ndarray:
    """p / beta, the caps of the CVaR fill of tail mass beta. A beta (b, k), b 2^-k below
    2^-1022, divides p 2^k, so the caps keep its precision; a cap past 1 ends the fill
    wherever it lies, so they stop at 2 rather than overflow."""
    if not isinstance(beta, tuple):
        return probs / beta
    with np.errstate(over="ignore"):
        return np.minimum(np.ldexp(probs, beta[1]) / beta[0], 2.0)


def beta_tail(s: Scenario, beta) -> Tail | None:
    """The Tail of the CVaR fill of tail mass beta, the greedy fill of p / beta up to 1 (None: p)."""
    return None if beta is None else select_tail(s.costs, _fill_caps(s.probs, beta), 1.0)


def cvar_tail(s: Scenario, alpha) -> Tail | None:
    """The Tail of the greedy maximizer of the CVaR LP at level alpha (None at alpha = 0, where it is p)."""
    return beta_tail(s, cvar_beta(alpha))


def beta_fill(s: Scenario, beta) -> tuple[np.ndarray, Tail | None]:
    """The CVaR fill of tail mass beta in atom order, and its Tail (``beta_tail``; None: p)."""
    tail = beta_tail(s, beta)
    return (s.probs.copy() if tail is None else tail.fill()), tail


def tail_cvar(s: Scenario, tail: Tail | None) -> float:
    """CVaR from its Tail (``cvar_tail``): the mean without one, else the tail's sum against the costs."""
    return mean(s) if tail is None else tail.dot(s.costs)


def row_fsums(a: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-d array."""
    return np.array(list(map(math.fsum, a.tolist())), dtype=float)


def fill_rows(ranked: np.ndarray, beta) -> np.ndarray:
    """The CVaR fill of tail mass beta (``beta_tail``) of each row of p in rank order (None: p)."""
    if beta is None:
        return ranked
    return np.array([greedy_fill(caps) for caps in _fill_caps(ranked, beta)])


def cvar(s: Scenario, alpha) -> float:
    """CVaR via the greedy solution of the capped LP max{q'f : 0 <= q <= p/(1-a)}.

    alpha = 0 gives the mean; alpha >= 1 - p_(1) gives max(f).
    """
    return tail_cvar(s, cvar_tail(s, alpha))


def cvar_distribution(s: Scenario, alpha) -> np.ndarray:
    """Greedy maximizer of the CVaR LP, in original atom order."""
    return beta_fill(s, cvar_beta(alpha))[0]


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
    return float(s.costs[var_tail(s, cvar_level(alpha)).last])


def cvar_deviation(s: Scenario, alpha) -> float:
    """CVaR minus mean, evaluated on centered costs.

    Centering makes the value exactly 0 for constant cost vectors
    (deviation axiom D1) without changing it otherwise; it is clamped at 0
    against float wobble in the subtraction.
    """
    tail = cvar_tail(s, alpha)
    c, m, half = centred(s)
    return half * max(0.0, (m if tail is None else tail.dot(c)) - m)


def _kappa(n: int, alpha) -> float:
    """kappa = n (1 - alpha), checked to lie in (0, n) for n >= 2."""
    if n < 2:
        raise KappaOutOfRange(f"need n >= 2, got {n}")
    kappa = n * (1.0 - float(alpha))
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
