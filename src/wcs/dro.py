"""Decision-level DRO: newsvendor and logistic-regression solvers, frontier
sweeps, and seedable synthetic data generators.

Newsvendor cost (order x, demand y):

    f(x, y) = -r min(x, y) - q max(x - y, 0) + s max(y - x, 0) + c x

with 0 <= q < c < r and s >= 0 (q is the unit salvage value here, not a
probability vector). The SAA optimizer is the empirical demand quantile at
the critical fractile (r + s - c) / (r + s - q).

One search serves every family. It reads V, the worst-case value, at its
kinks on [0, 1.5 max y]: the demand atoms, the range ends and, for the
piecewise-linear families, the orders where two scenario cost lines cross
(the LP view of CVaR, Rockafellar & Uryasev 2000). V is a supremum of
costs convex in x, so bisections find the best atom and then the best kink
in the two atom gaps around it; crossings are generated only there, so a
solve reads V at O(log n) orders and builds no all-pairs array. First-order
Wasserstein is convex only from the smallest positive atom y1 up (its
multiplier rises with x below y1): the bisections run there, and the kinks
below y1, 0 and the multiplier's own, are read one by one. Of orders within
the tie tolerance 1e-12 (1 + |V|) of the least V, the smallest is returned.

Polytope families and Wasserstein have V linear between kinks, so the best
kink is exact. A smooth phi ball has a unique worst q, so V is
differentiable between atoms and may dip inside a gap: ``_refine`` shrinks
the bracket around the best kink by rounds of evenly spaced orders.

V is read in batches, value only: a block of orders is one (m, n) cost
matrix of about 2^13 entries, and the family's ``worst_values`` returns V
of every row. Modified chi-square and KL solve a block at once, a user phi
row by row, and Wasserstein, which needs the demand geometry, order by
order. The reported worst case is the scalar solver's at x*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import GROWTH_LINEAR, MODIFIED_CHI2, PhiFunction, PiecewiseLinearCost, Scenario, validate
from .errors import (
    EmptyInput,
    EpsOutOfRange,
    InvalidEpsList,
    InvalidGeneratorArgs,
    InvalidLabel,
    InvalidNewsvendorParams,
    LengthMismatch,
    NegativeDemand,
    NonConvergence,
    NonFiniteCost,
    UnsupportedFamily,
)
from .families import UncertaintyFamily, WassersteinL1, build_family
from .rng import SplitMix64
from . import riskstats, sensitivity, worstcase

# cost-matrix entries per block of candidate orders in the value-only scans
_BLOCK_ELEMENTS = 1 << 13
# orders per refine round, and the most rounds: 13 shrinks of about 16x
# reach a double's resolution
_ROUND = 32
_ROUNDS = 13
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
    # an overflow to inf is the finiteness check's to report, not numpy's
    with np.errstate(over="ignore", invalid="ignore"):
        f = _newsvendor_cost_vec(params, x, demand.costs)
    return demand.with_costs(f)


def _cost_blocks(params: NewsvendorParams, demand: Scenario, xs: np.ndarray):
    """The cost matrices f(x, y) of consecutive blocks of candidate orders xs."""
    rows = max(1, _BLOCK_ELEMENTS // demand.n)
    for i in range(0, xs.size, rows):
        # an overflow to inf is the caller's to report, not numpy's
        with np.errstate(over="ignore", invalid="ignore"):
            yield _newsvendor_cost_vec(params, xs[i : i + rows, None], demand.costs)


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


def _memoised(evaluate):
    """values(xs) lists V at the orders xs, calling evaluate only on new ones."""
    memo: dict[float, float] = {}

    def values(xs):
        new = [x for x in xs if x not in memo]
        if new:
            memo.update(zip(new, evaluate(np.array(new)).tolist()))
        return [memo[x] for x in xs]

    return values


def _first_rise(values, xs) -> int:
    """First i with V(xs[i + 1]) >= V(xs[i]): by convexity, the minimum of V over xs."""
    lo, hi = 0, len(xs) - 1
    while lo < hi:
        m = (lo + hi) // 2
        a, b = values(xs[m : m + 2])
        lo, hi = (m + 1, hi) if b < a else (lo, m)
    return lo


def _first_within(values, xs, level) -> int:
    """First i with V(xs[i]) <= level, where V falls along xs and xs[-1] qualifies."""
    lo, hi = 0, len(xs) - 1
    m = hi - 1  # usually xs[-1] is the answer: try its neighbour first
    while lo < hi:
        lo, hi = (lo, m) if values([xs[m]])[0] <= level else (m + 1, hi)
        m = (lo + hi) // 2
    return lo


def saa_newsvendor(params: NewsvendorParams, demand: Scenario) -> float:
    """Nominal expected-cost minimizer; kinks only at demand atoms, ties to smaller x.

    The candidates are the atoms and the midpoints between them. The nominal
    cost is convex in x, so a bisection finds its minimum over them, and a
    second one the smallest candidate within 1e-12 (1 + |min|) of it: O(log n)
    cost rows, each summed exactly. The midpoint of two adjacent doubles
    rounds to one of them, and a repeated candidate would read as a flat
    minimum to the bisection, so the candidates are deduplicated.
    """
    _check_demand(demand)
    atoms = np.unique(demand.costs)
    xs = np.union1d(atoms, 0.5 * (atoms[:-1] + atoms[1:])).tolist()
    values = _memoised(
        lambda new: np.concatenate(
            [riskstats.row_fsums(demand.probs * f) for f in _cost_blocks(params, demand, new)]
        )
    )
    m = _first_rise(values, xs)
    v = values([xs[m]])[0]
    return xs[_first_within(values, xs[: m + 1], v + _tol(v))]


def _crossings(params: NewsvendorParams, atoms: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The sorted orders in (lo, hi) where two scenario cost lines cross.

    f(., yi) and f(., yj) with yi < yj are parallel outside (yi, yj) and
    cross once inside, at x = (s yj + (r - q) yi) / (r + s - q), where the
    low-demand line has slope (c - q) and the high-demand line (c - r - s).
    x grows with yj, so for each yi the yj whose crossing lands in (lo, hi)
    are one window of the sorted atoms, found by searchsorted on s * atoms.
    A crossing within rounding of an atom is dropped: in exact arithmetic it
    is that atom (every crossing is, at s = 0), and its V differs from the
    atom's only by rounding, which could turn the bisection the wrong way.
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
    x = x[(yi < x) & (x < yj) & (lo < x) & (x < hi)]
    k = np.searchsorted(atoms, x)  # atoms[k - 1] < x <= atoms[k]
    apart = np.minimum(x - atoms[k - 1], atoms[k] - x) > 4.0 * np.spacing(x)
    return np.unique(x[apart])


def _worst_value(
    params: NewsvendorParams,
    demand: Scenario,
    family: UncertaintyFamily,
    eps: float,
    x: float,
) -> worstcase.WorstCaseResult:
    if isinstance(family, WassersteinL1):
        return worstcase.wc_wasserstein_pl(
            demand.costs, demand.probs, demand_cost_curve(params, x), eps
        )
    return worstcase.worst_case(cost_scenario(params, demand, x), family, eps)


def _worst_values(
    params: NewsvendorParams,
    demand: Scenario,
    family: UncertaintyFamily,
    eps: float,
    xs: np.ndarray,
) -> np.ndarray:
    """V(x) for each candidate order x, value only."""
    if isinstance(family, WassersteinL1):
        return np.array([_worst_value(params, demand, family, eps, float(x)).value for x in xs])
    vals = []
    for f in _cost_blocks(params, demand, xs):
        finite = np.all(np.isfinite(f), axis=1)
        if not np.all(finite):
            demand.with_costs(f[np.argmin(finite)])  # raises NonFiniteCost, as cost_scenario does
        vals.append(family.worst_values(f, demand.probs, eps))
    return np.concatenate(vals)


@dataclass(frozen=True)
class DroSolution:
    """The chosen order x, the scalar worst case at x, and its certificate.

    ``bracket`` = (lo, hi) holds searched orders on each side of x (x itself
    at an end of the range) and ``slopes`` the secant slopes of V from x to
    them (-inf and +inf at an end). For convex V, left <= 0 <= right puts a
    minimizer in the bracket, where V >= V(x) - max(-left (hi - x),
    right (x - lo)). For the piecewise-linear families and Wasserstein the
    ends are the neighbouring kinks, so the slopes are V's one-sided
    derivatives at x and the certificate is exact; for smooth phi the
    bracket is refined. Both are None at eps = 0, where x is the SAA order.
    """

    x: float
    worst_case: worstcase.WorstCaseResult
    bracket: tuple[float, float] | None = None
    slopes: tuple[float, float] | None = None


def _kink_search(params, demand, family, eps):
    """(x*, bracket, slopes): V's best kink, refined around it when V is smooth."""
    atoms = np.unique(demand.costs)
    grid = np.union1d(atoms, [0.0, 1.5 * float(atoms[-1])]).tolist()
    values = _memoised(lambda new: _worst_values(params, demand, family, eps, new))

    def kinks(a, b):
        """Every kink in [grid[a], grid[b]], sorted."""
        if not family.piecewise_linear:
            return grid[a : b + 1]
        lo, hi = grid[a], grid[b]
        return np.union1d(grid[a : b + 1], _crossings(params, atoms, lo, hi)).tolist()

    values([grid[0], grid[-1]])  # the range ends first: an overflowing cost raises there
    wasserstein, below = isinstance(family, WassersteinL1), []
    if wasserstein and atoms[-1] > 0.0:
        # V = E_p f + eps lambda*, with lambda* = max(s, (r + s - q) x / y1 - s)
        # below the smallest positive atom y1 (an atom at 0 adds only s) and
        # max(s, r - q) from y1 up: V is convex on each side and linear
        # between kinks, so the kinks below y1 are read and the rest bisected
        y1, d = float(atoms[atoms > 0.0][0]), params.r + params.s - params.q
        below = sorted({z for z in (0.0, 2.0 * params.s * y1 / d) if z < y1})
        grid = grid[grid.index(y1) :]
    k = _first_rise(values, grid)
    a = max(k - 1, 0)
    ks = kinks(a, min(k + 1, len(grid) - 1))
    m = _first_rise(values, ks)
    v = min(values([ks[m]]) + values(below))
    level = v + _tol(v)
    if a > 0 and values([grid[a]])[0] <= level:
        # V is flat at its minimum, which may reach further left than the bracket
        j = _first_within(values, grid[: a + 1], level)
        ks = kinks(max(j - 1, 0), j + 1)
        m = ks.index(grid[j])
    if min(values(below), default=math.inf) <= level:
        ks = below + grid[:1]
        i = next(j for j, u in enumerate(values(below)) if u <= level)
    else:
        i = _first_within(values, ks[: m + 1], level)
    x = ks[i]
    lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]
    if below and x == grid[0]:
        lo = below[-1]
    if not (family.piecewise_linear or wasserstein):
        x, lo, hi = _refine(values, x, lo, hi)
    v_lo, v, v_hi = values([lo, x, hi])
    s_left = (v - v_lo) / (x - lo) if lo < x else -math.inf
    s_right = (v_hi - v) / (hi - x) if x < hi else math.inf
    return x, (lo, hi), (s_left, s_right)


def _refine(values, x, lo, hi):
    """(x, lo, hi) with the bracket [lo, hi] shrunk around the order x.

    Each round reads V at _ROUND evenly spaced orders, one batch; one
    replaces x only if lower by more than the tolerance, so a minimum at a
    kink stays there. The bracket becomes x's neighbours while V there is
    no lower than V(x), so it keeps certifying left <= 0 <= right. Rounds
    stop when it would not, when it stops shrinking, or when convexity (a
    secant on one side of x, extended) bounds V on it within the tolerance
    of V(x).
    """
    v = values([x])[0]
    for _ in range(_ROUNDS):
        pts = sorted({lo, x, hi, *np.linspace(lo, hi, _ROUND + 2).tolist()})
        vals = values(pts)
        j = int(np.argmin(vals))
        if v - vals[j] > _tol(v):
            x, v = pts[j], vals[j]
        i = pts.index(x)
        ia, ib = max(i - 1, 0), min(i + 1, len(pts) - 1)
        if (pts[ia], pts[ib]) == (lo, hi) or min(vals[ia], vals[ib]) < v:
            break
        lo, hi = pts[ia], pts[ib]
        if lo < x < hi:
            gap = max((vals[ia] - v) * (hi - x) / (x - lo), (vals[ib] - v) * (x - lo) / (hi - x))
            if gap <= _tol(v):
                break
    return x, lo, hi


def dro_newsvendor(
    params: NewsvendorParams, demand: Scenario, family: UncertaintyFamily, eps: float
) -> DroSolution:
    """Minimize the family's exact worst-case cost over the order quantity."""
    _check_demand(demand)
    if eps == 0.0:
        x0 = saa_newsvendor(params, demand)
        return DroSolution(x=x0, worst_case=_worst_value(params, demand, family, 0.0, x0))
    x, bracket, slopes = _kink_search(params, demand, family, eps)
    return DroSolution(x, _worst_value(params, demand, family, eps, x), bracket, slopes)


# ---------------------------------------------------------------------------
# Frontier sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    eps: float
    decision: Union[float, np.ndarray]
    nominal_mean: float
    sensitivity: float


MeasureFn = Callable[[Scenario, float], float]


def resolve_measure(
    name: str,
    *,
    phi: PhiFunction = MODIFIED_CHI2,
    alpha: float = 0.95,
    params: NewsvendorParams | None = None,
    demand: Scenario | None = None,
) -> MeasureFn:
    """Sensitivity selector for frontier sweeps; (scenario, decision) -> value."""
    family = build_family(name, phi, alpha)
    if isinstance(family, WassersteinL1):
        if params is None or demand is None:
            raise UnsupportedFamily("wasserstein measure needs newsvendor params and demand")
        return lambda s, x: sensitivity.wasserstein_sensitivity(
            demand.costs, demand.probs, demand_cost_curve(params, x).ratio_from
        ).value
    return lambda s, x: family.sensitivity(s).value


def frontier(
    problem,
    data,
    family: UncertaintyFamily,
    eps_list: Sequence[float],
    measure: MeasureFn | str,
    **measure_kwargs,
) -> list[FrontierPoint]:
    """Sweep eps, solve the DRO at each size, report (mean, sensitivity) at the solution.

    Newsvendor sweeps take (NewsvendorParams, demand Scenario) and any
    supported family. Logistic sweeps take (LabeledDataset, None) with the
    transport family; the decision is the weight vector and the measures
    act on the per-sample loss distribution.
    """
    eps_arr = [float(e) for e in eps_list]
    if any(e < 0 for e in eps_arr) or any(b < a for a, b in zip(eps_arr, eps_arr[1:])):
        raise InvalidEpsList("eps_list must be non-negative and ascending")
    if isinstance(problem, LabeledDataset):
        return _logreg_frontier(problem, family, eps_arr, measure, **measure_kwargs)
    params, demand = problem, data
    if isinstance(measure, str):
        measure = resolve_measure(measure, params=params, demand=demand, **measure_kwargs)
    points = []
    for eps in eps_arr:
        sol = dro_newsvendor(params, demand, family, eps)
        s_x = cost_scenario(params, demand, sol.x)
        points.append(
            FrontierPoint(
                eps=eps,
                decision=sol.x,
                nominal_mean=riskstats.mean(s_x),
                sensitivity=measure(s_x, sol.x),
            )
        )
    return points


def _logreg_frontier(
    dataset: LabeledDataset,
    family: UncertaintyFamily,
    eps_arr: list[float],
    measure: MeasureFn | str,
    *,
    tol: float = 1e-8,
    **measure_kwargs,
) -> list[FrontierPoint]:
    if not isinstance(family, WassersteinL1):
        raise UnsupportedFamily("dataset sweeps support only the transport (WassersteinL1) family")
    measure_name = measure if isinstance(measure, str) else None
    if measure_name not in (None, "wasserstein"):
        measure = resolve_measure(measure_name, **measure_kwargs)
    points = []
    for eps in eps_arr:
        # the regularized fit only: logreg_wasserstein would also fit the SAA model
        fit = _prox_descent(dataset, eps, tol, _MAX_ITER)
        margins = dataset.labels * (dataset.features @ fit.w)
        losses = np.logaddexp(0.0, -margins)
        s_w = validate(losses, np.full(dataset.n, 1.0 / dataset.n))
        if measure_name == "wasserstein":
            # the regularized form is exact: V(eps, w) = eps ||w|| + loss
            sens = float(np.linalg.norm(fit.w))
        else:
            sens = measure(s_w, 0.0)
        points.append(
            FrontierPoint(
                eps=eps,
                decision=fit.w,
                nominal_mean=float(np.mean(losses)),
                sensitivity=sens,
            )
        )
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


def _prox_descent(data: LabeledDataset, eps: float, tol: float, max_iter: int) -> LogregFit:
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
    for it in range(max_iter + 1):
        nw = float(np.linalg.norm(w))
        # max(nan, 0.0) is nan (max(0.0, nan) would be 0.0): a NaN never reads as converged
        if nw == 0.0:
            resid = max(float(np.linalg.norm(g)) - eps, 0.0)
        else:
            resid = float(np.linalg.norm(g + eps * w / nw))
        if resid <= tol:
            margins = data.labels * (data.features @ w)
            separable = eps == 0.0 and bool(np.all(margins > 0))
            return LogregFit(w, eps * nw + logloss(data, w), resid, it, separable)
        if it == max_iter:
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
    raise NonConvergence(f"optimality residual {resid:.3e} > tol {tol} after {max_iter} iterations")


def logreg_saa(data: LabeledDataset, tol: float = 1e-8, max_iter: int = _MAX_ITER) -> LogregFit:
    """Average log-loss minimizer: the eps = 0 proximal-gradient fit.

    On separable data there is no finite minimizer; the run still stops at
    the gradient-norm criterion and the fit is flagged separable.
    """
    return _prox_descent(data, 0.0, tol, max_iter)


def robust_logreg_objective(
    data: LabeledDataset, w: np.ndarray, eps: float, kappa: float = math.inf, lam: float | None = None
) -> float:
    """Objective of the transport-robust logistic program at (w, lam).

    With finite kappa the per-sample cost is the larger of the true-label
    loss and the flipped-label loss discounted by kappa*lam; kappa = inf
    drops the flipped branch and the program reduces to norm-regularized
    logistic regression. Evaluator only; the solver path is the reduction.
    """
    if lam is None:
        lam = float(np.linalg.norm(w))
    margins = data.labels * (data.features @ w)
    s_true = np.logaddexp(0.0, -margins)
    if math.isinf(kappa):
        s = s_true
    else:
        s = np.maximum(s_true, np.logaddexp(0.0, margins) - kappa * lam)
    return float(eps * lam + np.mean(s))


def logreg_wasserstein(
    data: LabeledDataset, eps: float, tol: float = 1e-8, max_iter: int = _MAX_ITER
) -> tuple[LogregFit, sensitivity.SensitivityReport]:
    """Minimize eps ||w||_2 + average log-loss; sensitivity is ||w_SAA||_2.

    One proximal-gradient loop from w = 0 solves both the SAA fit and the
    regularized fit, each to optimality residual <= tol. The shrinkage step
    makes w = 0 exact, and it is the fit at iteration 0 once
    eps >= ||(1/2n) sum y_i x_i||_2 (the zero-subgradient condition).
    """
    if eps < 0:
        raise EpsOutOfRange("eps must be >= 0")
    saa = logreg_saa(data, tol=tol, max_iter=max_iter)
    report = sensitivity.SensitivityReport(value=float(np.linalg.norm(saa.w)), growth=GROWTH_LINEAR)
    fit = saa if eps == 0.0 else _prox_descent(data, eps, tol, max_iter)
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
