"""Decision-level DRO: newsvendor and logistic-regression solvers, frontier
sweeps, and seedable synthetic data generators.

Newsvendor cost (order x, demand y):

    f(x, y) = -r min(x, y) - q max(x - y, 0) + s max(y - x, 0) + c x

with 0 <= q < c < r and s >= 0 (q is the unit salvage value here, not a
probability vector). The SAA optimizer is, in closed form, the empirical
demand quantile at the critical fractile (r + s - c) / (r + s - q).

At eps > 0 the worst-case value V(x) is a supremum of costs convex in x,
so it is convex; two searches find its least order on [0, 1.5 max y].

For the polytope families and Wasserstein V is linear between its kinks:
the demand atoms, the range ends and, between atoms, the orders where two
scenario cost lines cross (polytopes: the LP view of CVaR, Rockafellar &
Uryasev 2000) or 2 s y / (r + s - q) (Wasserstein). Sign searches on the
secants of neighbouring kinks find the best atom and then the best kink in
the atom gaps around it, where alone kinks are generated, so a solve reads V
at O(log n) orders. Each search (``_first_nonneg``) is false position over
the index, which bisects wherever a step does not halve its bracket. V is read in
blocks of about 2^13 cost entries, value only, by the ``block_reader`` the
family makes once per solve (Wasserstein, without one, order by order). Of orders
within the tie tolerance 1e-12 (1 + |V|) of the least V, the smallest is
returned, with the scalar solver's worst case there.

A smooth phi ball has a unique worst q, so V is differentiable between the
atoms. Its search reads one scalar worst case per order and takes V's
one-sided slopes from the worst q (Danskin's theorem): (c - q) - (r + s -
q) Q(Y > x) on the right, Q(Y >= x) on the left. The same sign search
finds the first atom whose right slope is >= 0 and, where the minimum falls
inside an atom gap, V' is root-found there. Any q in the ball bounds the
least V from below by L(q) = min_x E_q f(x, .), E_q f at q's
critical-fractile quantile (weak duality); the root-find stops once V(x) -
L(q(x)) is within the tie tolerance, or when its bracket closes to adjacent
doubles. E_q f is linear in x between atoms, so V(x) - L(q(x)) >= |V'(x)|
times the distance to the bracket end downhill, and only a read whose
bound nears the tolerance sums its gap.

V is L-Lipschitz in x, L = max(c - q, r + s - c), so kinks, atoms and
crossings alike, closer than the tie tolerance of V (for smooth phi, of the
largest cost) at the range ends over L are one order, the smallest
(``_apart``): rounding could otherwise turn a bisection the wrong way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .core import GROWTH_LINEAR, PiecewiseLinearCost, Scenario, distinct, validate
from .errors import (
    EmptyInput, InvalidEpsList, InvalidGeneratorArgs, InvalidLabel, InvalidNewsvendorParams,
    LengthMismatch, NegativeDemand, NonConvergence, NonFiniteCost, UnsupportedFamily,
)
from .families import SmoothPhi, UncertaintyFamily, WassersteinL1
from .rng import SplitMix64
from . import riskstats, sensitivity, worstcase

# cost-matrix entries per block of candidate orders in the value-only scans
_BLOCK_ELEMENTS = 1 << 13
# proximal-gradient iterations before a logistic fit raises NonConvergence
_MAX_ITER = 50_000


# ---------------------------------------------------------------------------
# Newsvendor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewsvendorParams:
    r: float  # unit revenue
    c: float  # unit order cost
    q: float  # unit salvage value
    s: float  # unit shortage penalty

    def __post_init__(self):
        if not (0.0 <= self.q < self.c < self.r and self.s >= 0.0):
            raise InvalidNewsvendorParams(
                f"need 0 <= q < c < r and s >= 0, got r={self.r} c={self.c} q={self.q} s={self.s}"
            )

    @property
    def critical_fractile(self) -> float:
        return (self.r + self.s - self.c) / (self.r + self.s - self.q)


def newsvendor_cost(params: NewsvendorParams, x: float, y: float) -> float:
    return float(_newsvendor_cost_vec(params, x, y))


def _newsvendor_cost_vec(params: NewsvendorParams, x, ys: np.ndarray) -> np.ndarray:
    # x may be a column of orders: one row of costs per order
    return (
        -params.r * np.minimum(x, ys)
        - params.q * np.maximum(x - ys, 0.0)
        + params.s * np.maximum(ys - x, 0.0)
        + params.c * x
    )


def demand_cost_curve(params: NewsvendorParams, x: float) -> PiecewiseLinearCost:
    """z -> f(x, z) over demand z >= 0: slope -(r-q) below the order point, s above."""
    if x <= 0.0:
        return PiecewiseLinearCost((), (params.s,), anchor=(0.0, params.c * x), domain=(0.0, math.inf))
    return PiecewiseLinearCost(
        breakpoints=(x,),
        slopes=(-(params.r - params.q), params.s),
        anchor=(x, (params.c - params.r) * x),
        domain=(0.0, math.inf),
    )


def cost_scenario(params: NewsvendorParams, demand: Scenario, x: float) -> Scenario:
    """f(x, y) over the demand atoms y, with the atoms as support points and the
    cost curve z -> f(x, z) attached: the transport geometry Wasserstein reads."""
    # an overflow to inf is the finiteness check's to report, not numpy's
    with np.errstate(over="ignore", invalid="ignore"):
        f = _newsvendor_cost_vec(params, x, demand.costs)
    return replace(demand.with_costs(f), points=demand.costs, curve=demand_cost_curve(params, x))


def demand_quantile(demand: Scenario, tau: float) -> float:
    """Smallest demand atom whose cumulative mass reaches tau."""
    order = np.argsort(demand.costs, kind="stable")
    return float(demand.costs[order][riskstats.prefix_rank(demand.probs[order], tau)])


def _tol(v: float) -> float:
    """The tie tolerance of a value v: two values closer than this are equal."""
    return 1e-12 * (1.0 + abs(v))


def _check_demand(demand: Scenario) -> None:
    if np.any(demand.costs < 0.0):
        raise NegativeDemand(f"negative demand atoms at {np.nonzero(demand.costs < 0.0)[0].tolist()}")


def _memoised(evaluate, memo: dict[float, float]):
    """values(xs) lists V at the orders xs, calling evaluate only on those not in memo."""

    def values(xs):
        new = [x for x in xs if x not in memo]
        if new:
            memo.update(zip(new, evaluate(np.array(new)).tolist()))
        return [memo[x] for x in xs]

    return values


def _first_nonneg(slope, lo: int, hi: int, s_lo: float, s_hi: float) -> int:
    """The first i in (lo, hi] with slope(i) >= 0, for slopes rising with i from s_lo < 0 at lo to
    s_hi >= 0 at hi (each read, a bound, or NaN where unknown; s_lo = -inf puts the chord's zero
    at hi). False position over the index, probing the last index before the chord's zero, with
    an end kept twice halved (Illinois) and a bisection after a probe that does not halve the
    bracket, or without a chord: bisection's answer in at most 2 ceil(log2(hi - lo)) + 2 probes."""
    side, chord = 0, True
    while hi - lo > 1:
        width = hi - lo
        t = hi - width * (s_hi / (s_hi - s_lo)) if chord and s_lo < s_hi else math.nan
        chord = lo <= t <= hi
        m = min(max(math.floor(t), lo + 1), hi - 1) if chord else lo + width // 2
        if (s := slope(m)) >= 0.0:
            hi, s_hi, s_lo, side = m, s, s_lo * (0.5 if side > 0 else 1.0), 1
        else:
            lo, s_lo, s_hi, side = m, s, s_hi * (0.5 if side < 0 else 1.0), -1
        chord = not chord or 2 * (hi - lo) <= width
    return hi


def _first_rise(values, xs) -> int:
    """First i with V(xs[i + 1]) >= V(xs[i]): by convexity, the minimum of V over xs, where
    the pairs' secants rise with i (a falling pair's kept negative where it underflows)."""

    def secant(i):
        a, b = values(xs[i : i + 2])
        s = (b - a) / (xs[i + 1] - xs[i])
        return s if b >= a else min(s, -5e-324)

    return _first_nonneg(secant, -1, len(xs) - 1, math.nan, math.nan)


def _first_within(values, xs, level) -> int:
    """First i with V(xs[i]) <= level, where V falls along xs and xs[-1], usually the answer, qualifies."""
    return _first_nonneg(lambda i: level - values([xs[i]])[0], -1, len(xs) - 1, -math.inf, 0.0)


def saa_newsvendor(params: NewsvendorParams, demand: Scenario) -> float:
    """Nominal expected-cost minimizer in closed form: the smallest atom whose exact cumulative
    mass reaches the critical fractile. The fractile is rounded, so where a cumulative mass
    lies within rounding of it, a comparison of nominal costs may pick the next atom."""
    _check_demand(demand)
    return demand_quantile(demand, params.critical_fractile)


def _apart(orders, gap: float) -> list[float]:
    """The sorted distinct orders, less each within gap above a kept one: V, L-Lipschitz,
    cannot separate the two by more than the tie tolerance L gap, so they are one order."""
    xs = distinct(orders)
    keep = np.ones(xs.size, dtype=bool)
    for i in np.nonzero(xs[1:] - xs[:-1] <= gap)[0] + 1:
        if keep[i - 1]:
            last = xs[i - 1]
        keep[i] = xs[i] - last > gap
    return xs[keep].tolist()


def _crossings(params: NewsvendorParams, atoms: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The orders in (lo, hi) where two scenario cost lines cross.

    f(., yi) and f(., yj) with yi < yj are parallel outside (yi, yj) and
    cross once inside, at x = (s yj + (r - q) yi) / (r + s - q), where the
    low-demand line has slope (c - q) and the high-demand line (c - r - s).
    x grows with yj, so for each yi the yj whose crossing lands in (lo, hi)
    are one window of the sorted atoms, found by searchsorted on s * atoms.
    They are unsorted and may repeat; a crossing within rounding of an atom
    (every crossing is one at s = 0, in exact arithmetic) is ``_apart``'s
    to merge.
    """
    r, q, s = params.r, params.q, params.s
    i = np.arange(np.searchsorted(atoms, hi))  # a crossing lies above its yi
    with np.errstate(over="ignore", invalid="ignore"):  # an inf fails the bracket tests
        base = (r - q) * atoms[i]
        d = r + s - q
        slack = 1e-9 * (abs(hi * d) + np.abs(base))  # widen the windows for rounding
        sa = s * atoms
        j0 = np.maximum(np.searchsorted(sa, lo * d - base - slack), i + 1)
        j1 = np.searchsorted(sa, hi * d - base + slack, side="right")
        counts = np.maximum(j1 - j0, 0)
        starts = np.cumsum(counts) - counts
        jj = np.arange(counts.sum()) + np.repeat(j0 - starts, counts)
        yi, yj = np.repeat(atoms[i], counts), atoms[jj]
        x = (s * yj + (r - q) * yi) / d
    return x[(yi < x) & (x < yj) & (lo < x) & (x < hi)]


def _transport_kinks(params: NewsvendorParams, atoms: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The orders in (lo, hi) where Wasserstein's V kinks between atoms: x = 2 s y / (r + s - q),
    where moving atom y > x to demand 0 starts to gain more per unit moved, (r + s - q) x / y - s,
    than moving it up, s. Every other rate the dual compares is constant or reorders at atoms."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf fails the range test
        x = 2.0 * params.s * atoms / (params.r + params.s - params.q)
    return x[(lo < x) & (x < hi)]


def _cost_rows(params: NewsvendorParams, demand: Scenario, xs: np.ndarray) -> np.ndarray:
    """The cost row f(x, .) of each order x; a non-finite cost raises as cost_scenario does."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf is reported below
        f = _newsvendor_cost_vec(params, xs[:, None], demand.costs)
    finite = np.isfinite(f)
    if not finite.all():
        demand.with_costs(f[finite.all(axis=1).argmin()])
    return f


def _worst_values(params: NewsvendorParams, demand: Scenario, read, xs: np.ndarray) -> np.ndarray:
    """V(x) for each candidate order x: read, a family's ``block_reader``, on blocks of cost rows."""
    rows = max(1, _BLOCK_ELEMENTS // demand.n)
    vals = [read(_cost_rows(params, demand, xs[i : i + rows])) for i in range(0, xs.size, rows)]
    return vals[0] if len(vals) == 1 else np.concatenate(vals)


@dataclass(frozen=True)
class DroSolution:
    """The chosen order x, the scalar worst case at x, and its certificate.

    ``bracket`` = (lo, hi) holds the searched orders nearest x on each side,
    x itself where there is none. For the polytope families and Wasserstein
    they are x's neighbouring kinks and ``slopes`` the secants from x to
    them (-inf, +inf at a range end): V's one-sided derivatives, so left <=
    0 <= right certifies x exactly. For a smooth phi ball ``slopes`` are the
    Danskin slopes read off the worst q at x, and the certificate is ``gap``
    = V(x) - L(q) >= V(x) - least V for that q, or, at a kink past
    saturation, a mixture of two (``_slope_root``); ``gap`` is None for the
    other families. All three are None at eps = 0, where x is the SAA order.
    """

    x: float
    worst_case: worstcase.WorstCaseResult
    bracket: tuple[float, float] | None = None
    slopes: tuple[float, float] | None = None
    gap: float | None = None


def _kink_search(params, demand, family, eps):
    """(x*, bracket, slopes): V's best kink, for a family whose V is linear between its kinks."""
    atoms = distinct(demand.costs)
    top = 1.5 * float(atoms[-1])
    # the range ends' costs first, before the family checks eps: an overflowing cost raises there
    ends = _cost_rows(params, demand, np.array([0.0, top]))
    read = family.block_reader(demand.probs, eps)
    if read is None:  # Wasserstein, read order by order
        values = _memoised(lambda new: np.array([
            worstcase.worst_case(cost_scenario(params, demand, x), family, eps).value for x in new.tolist()
        ]), {})
    else:
        memo = dict(zip((0.0, top), read(ends).tolist()))
        values = _memoised(lambda new: _worst_values(params, demand, read, new), memo)
    v_ends = max(abs(v) for v in values([0.0, top]))
    gap = _tol(v_ends) / max(params.c - params.q, params.r + params.s - params.c)
    between = _transport_kinks if isinstance(family, WassersteinL1) else _crossings

    def kinks(a, b):
        """Every kink in [grid[a], grid[b]] the search may compare, sorted."""
        return _apart(np.append(grid[a : b + 1], between(params, atoms, grid[a], grid[b])), gap)

    grid = _apart(np.append(atoms, [0.0, top]), gap)
    k = _first_rise(values, grid)
    a = max(k - 1, 0)
    ks = kinks(a, min(k + 1, len(grid) - 1))
    m = _first_rise(values, ks)
    v = values([ks[m]])[0]
    level = v + _tol(v)
    if a > 0 and values([grid[a]])[0] <= level:
        # V is flat at its minimum, which may reach further left than the bracket
        j = _first_within(values, grid[: a + 1], level)
        ks = kinks(max(j - 1, 0), j + 1)
        # grid[j], or the crossing it merged into
        m = int(np.searchsorted(ks, grid[j], side="right")) - 1
    i = _first_within(values, ks[: m + 1], level)
    x = ks[i]
    lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]
    v_lo, v, v_hi = values([lo, x, hi])
    s_left = (v - v_lo) / (x - lo) if lo < x else -math.inf
    s_right = (v_hi - v) / (hi - x) if x < hi else math.inf
    return x, (lo, hi), (s_left, s_right)


def _slope_search(params, demand, family, eps) -> DroSolution:
    """The smooth phi search of the module docstring, one scalar worst case per order read."""
    order = np.argsort(demand.costs, kind="stable")
    ys = demand.costs[order]
    c_q, d = params.c - params.q, params.r + params.s - params.q
    reads = {}

    def costs(x):
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports an inf
            return demand.with_costs(_newsvendor_cost_vec(params, x, demand.costs))

    def read(x):
        """(worst case at x, V'(x-), V'(x+)), memoised."""
        if x not in reads:
            wc = worstcase.worst_case(costs(x), family, eps)
            qs = wc.worst_q[order]
            at_or_above = float(qs[np.searchsorted(ys, x) :].sum())
            above = float(qs[np.searchsorted(ys, x, side="right") :].sum())
            reads[x] = wc, c_q - d * at_or_above, c_q - d * above
        return reads[x]

    def gap(x, floor=0.0):
        """V(x) - L(q) for the worst q at x, L(q) = E_q f at q's critical-fractile order; or
        floor, a lower bound on it, where that passes the tolerance by more than the rounding
        of the sums (slack, the tie tolerance of the largest cost at the range ends)."""
        wc = reads[x][0]
        if floor > 2.0 * _tol(wc.value) + slack:
            return floor
        k = min(int(np.searchsorted(wc.worst_q[order].cumsum(), params.critical_fractile)), ys.size - 1)
        return wc.value - math.fsum((wc.worst_q * costs(ys[k]).costs).tolist())

    atoms = distinct(demand.costs)
    top = 1.5 * float(atoms[-1])
    # the range ends' costs first, which bound V there: an overflowing cost raises
    slack = _tol(max(float(np.abs(costs(x).costs).max()) for x in (0.0, top)))
    grid = _apart(np.append(atoms, [0.0, top]), slack / max(c_q, d - c_q))
    # the first order whose right slope is >= 0: below the atoms it is c - r - s, at top c - q > 0
    k = _first_nonneg(lambda i: read(grid[i])[2], -1, len(grid) - 1, c_q - d, c_q)
    x, certified = grid[k], None
    if k > 0 and read(x)[1] > 0.0:
        i = int(np.searchsorted(ys, x))
        x, certified = _slope_root(read, gap, grid[k - 1], x, float(ys[i - 1]) if i else -math.inf)
    wc, left, right = read(x)
    bracket = (max((y for y in reads if y < x), default=x), min((y for y in reads if y > x), default=x))
    return DroSolution(x, wc, bracket, (left, right), gap(x) if certified is None else certified)


def _slope_root(read, gap, a: float, b: float, atom: float) -> tuple[float, float]:
    """(x, gap) for an order x in the atom gap [a, b], where V'(a+) < 0 < V'(b-) and atom
    is the last atom below b (above a where ``_apart`` merged it into a).

    False position on V' with the Pegasus rule (Dowell & Jarratt 1972), to an
    order whose own gap is within tolerance. Each end's worst q prices f on the
    gap by a line below V through the end; their mixture with slope 0 there has
    L = the value where the lines meet, where a read that keeps most of its
    end's slope steps next. Past saturation V kinks between atoms, at the
    lines' meeting point, and no single worst q certifies the kink: where a read
    keeps its end's slope exactly, V is linear, and the ends' bound may stop the
    search. So do ends one double apart. Between atom and b every E_q f is linear,
    and a read far from the root skips its gap (``gap``'s floor).
    """
    (wa, _, sa), (wb, sb, _) = read(a), read(b)
    fa, fb, side, kept = sa, sb, 0, 0.0  # fa, fb weigh the ends in the false-position step
    while True:
        meet = (wb.value - wa.value - sb * (b - a)) / (sa - sb)  # from a to where the lines meet
        x, v = (a, wa.value) if wa.value <= wb.value else (b, wb.value)
        if not math.nextafter(a, b) < b or kept == 1.0 and v - (wa.value + sa * meet) <= _tol(v):
            return x, min(gap(x), v - (wa.value + sa * meet))
        # a read that kept over half its end's slope steps to where the lines meet
        x = a + meet if kept > 0.5 else b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = a + 0.5 * (b - a)
        wc, _, slope = read(x)
        floor = slope * (x - max(a, atom)) if slope > 0.0 else -slope * (b - x)
        if (own := gap(x, floor if x > atom else 0.0)) <= _tol(wc.value) or slope == 0.0:
            return x, own
        if slope < 0.0:
            fb *= fa / (fa + slope) if side < 0 else 1.0
            kept = slope / sa
            a, wa, sa, fa, side = x, wc, slope, slope, -1
        else:
            fa *= fb / (fb + slope) if side > 0 else 1.0
            kept = slope / sb
            b, wb, sb, fb, side = x, wc, slope, slope, 1


def dro_newsvendor(
    params: NewsvendorParams, demand: Scenario, family: UncertaintyFamily, eps: float
) -> DroSolution:
    """Minimize the family's exact worst-case cost over the order quantity."""
    _check_demand(demand)
    if eps == 0.0:
        x0 = saa_newsvendor(params, demand)
        s_x = cost_scenario(params, demand, x0)
        return DroSolution(x=x0, worst_case=worstcase.worst_case(s_x, family, 0.0))
    if isinstance(family, SmoothPhi):
        return _slope_search(params, demand, family, eps)
    x, bracket, slopes = _kink_search(params, demand, family, eps)
    s_x = cost_scenario(params, demand, x)
    return DroSolution(x, worstcase.worst_case(s_x, family, eps), bracket, slopes)


# ---------------------------------------------------------------------------
# Frontier sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    eps: float
    decision: Union[float, np.ndarray]
    nominal_mean: float
    sensitivity: float


def frontier(
    problem,
    data,
    family: UncertaintyFamily,
    eps_list: Sequence[float],
    measure: UncertaintyFamily,
) -> list[FrontierPoint]:
    """Sweep eps, solve the DRO at each size, report (mean, sensitivity) at the solution.

    ``measure`` is the family whose sensitivity is reported. Newsvendor
    sweeps take (NewsvendorParams, demand Scenario) and any supported family.
    Logistic sweeps take (LabeledDataset, None) with the transport family;
    the decision is the weight vector and the measures act on the
    per-sample loss distribution.
    """
    eps_arr = [float(e) for e in eps_list]
    descending = any(b < a for a, b in zip(eps_arr, eps_arr[1:]))
    if not eps_arr or any(e < 0 for e in eps_arr) or descending:
        raise InvalidEpsList("eps_list must be non-empty, non-negative and ascending")
    if isinstance(problem, LabeledDataset):
        return _logreg_frontier(problem, family, eps_arr, measure)
    params, demand = problem, data
    points = []
    for eps in eps_arr:
        sol = dro_newsvendor(params, demand, family, eps)
        s_x = cost_scenario(params, demand, sol.x)
        points.append(FrontierPoint(eps, sol.x, riskstats.mean(s_x), measure.sensitivity(s_x).value))
    return points


def _logreg_frontier(
    dataset: LabeledDataset,
    family: UncertaintyFamily,
    eps_arr: list[float],
    measure: UncertaintyFamily,
) -> list[FrontierPoint]:
    if not isinstance(family, WassersteinL1):
        raise UnsupportedFamily("dataset sweeps support only the transport (WassersteinL1) family")
    for eps in eps_arr:
        worstcase._check_eps(eps)
    points = []
    for eps in eps_arr:
        # the regularized fit only: logreg_wasserstein would also fit the SAA model
        fit = _prox_descent(dataset, eps, 1e-8)
        margins = dataset.labels * (dataset.features @ fit.w)
        losses = np.logaddexp(0.0, -margins)
        s_w = validate(losses, np.full(dataset.n, 1.0 / dataset.n))
        if isinstance(measure, WassersteinL1):
            # the regularized form is exact: V(eps, w) = eps ||w|| + loss
            sens = float(np.linalg.norm(fit.w))
        else:
            sens = measure.sensitivity(s_w).value
        points.append(FrontierPoint(eps, fit.w, float(np.mean(losses)), sens))
    return points


# ---------------------------------------------------------------------------
# Logistic regression (Wasserstein kappa = inf reduction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    """n x d feature matrix (conventionally with an all-one column) and +-1 labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def labeled_dataset(features, labels) -> LabeledDataset:
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.atleast_1d(np.asarray(labels, dtype=float))
    if X.size == 0 or y.size == 0:
        raise EmptyInput("empty dataset")
    if X.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidLabel("labels must be +-1")
    bad = ~np.all(np.isfinite(X), axis=1)
    if np.any(bad):
        raise NonFiniteCost(f"non-finite features in rows {np.nonzero(bad)[0].tolist()}")
    return LabeledDataset(features=X, labels=y)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # min(t, -t) = -|t|, so exp never overflows; unlike -abs(t) it keeps a NaN's sign bit
    e = np.exp(np.minimum(t, -t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logloss(data: LabeledDataset, w: np.ndarray) -> float:
    margins = data.labels * (data.features @ w)
    return float(np.mean(np.logaddexp(0.0, -margins)))


def logloss_grad(data: LabeledDataset, w: np.ndarray) -> np.ndarray:
    margins = data.labels * (data.features @ w)
    weights = _sigmoid(-margins)  # = 1 - sigmoid(margin)
    return -(data.features.T @ (data.labels * weights)) / data.n


@dataclass(frozen=True)
class LogregFit:
    w: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    separable: bool


@np.errstate(all="ignore")
def _prox_descent(data: LabeledDataset, eps: float, tol: float) -> LogregFit:
    """Proximal gradient from w = 0 on eps ||w||_2 + logloss(w).

    The step doubles each iteration and halves until the trial w+ passes
    2 step <grad(w+) - grad(w), d> <= ||d||^2 with d = w+ - w, which by
    convexity certifies the quadratic upper bound of backtracking proximal
    gradient (Beck & Teboulle 2009) without subtracting two nearly equal
    losses; the accepted gradient is the next iteration's. The stop is the
    optimality residual ||grad + eps w/||w|| ||, or max(||grad|| - eps, 0)
    at w = 0, so w = 0 returns at iteration 0 once eps >= ||grad(0)||.
    """
    w = np.zeros(data.d)
    g = logloss_grad(data, w)
    step = 1.0
    for it in range(_MAX_ITER + 1):
        nw = float(np.linalg.norm(w))
        # max(nan, 0.0) is nan (max(0.0, nan) would be 0.0): a NaN never reads as converged
        if nw == 0.0:
            resid = max(float(np.linalg.norm(g)) - eps, 0.0)
        else:
            resid = float(np.linalg.norm(g + eps * w / nw))
        if resid <= tol:
            margins = data.labels * (data.features @ w)
            separable = eps == 0.0 and bool(np.all(margins > 0))
            objective = eps * nw + logloss(data, w)
            if not math.isfinite(objective):
                raise NonConvergence(f"the fit's objective is {objective} at iteration {it}")
            return LogregFit(w, objective, resid, it, separable)
        if it == _MAX_ITER:
            break
        step *= 2.0
        while True:
            v = w - step * g
            nv = float(np.linalg.norm(v))
            # the prox of step * eps ||.||: shrink towards 0, exactly 0 inside the ball
            w_new = np.zeros_like(v) if nv <= step * eps else (1.0 - step * eps / nv) * v
            g_new = logloss_grad(data, w_new)
            d = w_new - w
            if 2.0 * step * float((g_new - g) @ d) <= float(d @ d) or step <= 1e-18:
                break
            step *= 0.5
        w, g = w_new, g_new
    raise NonConvergence(f"optimality residual {resid:.3e} > tol {tol} after {_MAX_ITER} iterations")


def logreg_saa(data: LabeledDataset, tol: float = 1e-8) -> LogregFit:
    """Average log-loss minimizer: the eps = 0 proximal-gradient fit.

    On separable data there is no finite minimizer; the run still stops at
    the gradient-norm criterion and the fit is flagged separable.
    """
    return _prox_descent(data, 0.0, tol)


def logreg_wasserstein(
    data: LabeledDataset, eps: float, tol: float = 1e-8
) -> tuple[LogregFit, sensitivity.SensitivityReport]:
    """Minimize eps ||w||_2 + average log-loss; sensitivity is ||w_SAA||_2.

    One proximal-gradient loop from w = 0 solves both the SAA fit and the
    regularized fit, each to optimality residual <= tol. The shrinkage step
    makes w = 0 exact, and it is the fit at iteration 0 once
    eps >= ||(1/2n) sum y_i x_i||_2 (the zero-subgradient condition).
    """
    worstcase._check_eps(eps)
    saa = logreg_saa(data, tol=tol)
    report = sensitivity.SensitivityReport(value=float(np.linalg.norm(saa.w)), growth=GROWTH_LINEAR)
    fit = saa if eps == 0.0 else _prox_descent(data, eps, tol)
    return fit, report


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def gen_mixture_demand(
    n: int, mu_low: float = 10.0, mu_high: float = 100.0, p_low: float = 0.9, seed: int = 0
) -> np.ndarray:
    """Two-component exponential mixture; per draw: u1 picks the component
    (u1 < p_low -> low mean), u2 maps through -mu ln(1 - u2)."""
    if n < 1 or mu_low <= 0 or mu_high <= 0 or not 0.0 <= p_low <= 1.0:
        raise InvalidGeneratorArgs("need n >= 1, positive means, p_low in [0,1]")
    rng = SplitMix64(seed)
    out = np.empty(n)
    for i in range(n):
        mu = mu_low if rng.uniform() < p_low else mu_high
        out[i] = -mu * math.log(1.0 - rng.uniform())
    return out


def demand_scenario(draws) -> Scenario:
    """Empirical (uniform-weight) scenario over a demand sample."""
    return validate(np.asarray(draws, dtype=float))


def gen_synth_classification(n: int, d: int, margin: float, seed: int = 0) -> LabeledDataset:
    """Two spherical Gaussian clusters at +-margin * e1, labels by cluster.

    Per sample: one uniform picks the cluster (u < 0.5 -> +1), then d unit
    normals from Box-Muller pairs (cosine branch first; for odd d the last
    sine value is discarded). An all-one intercept column is appended.
    """
    if n < 2 or d < 1:
        raise InvalidGeneratorArgs("need n >= 2 and d >= 1")
    rng = SplitMix64(seed)
    X = np.empty((n, d + 1))
    y = np.empty(n)
    for i in range(n):
        cluster = 1.0 if rng.uniform() < 0.5 else -1.0
        noise = []
        for _ in range((d + 1) // 2):
            noise.extend(rng.gauss_pair())
        X[i, :d] = noise[:d]
        X[i, 0] += cluster * margin
        X[i, d] = 1.0
        y[i] = cluster
    return labeled_dataset(X, y)
