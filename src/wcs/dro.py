"""Decision-level DRO: newsvendor and logistic-regression solvers, frontier
sweeps, and seedable synthetic data generators.

Newsvendor cost (order x, demand y):

    f(x, y) = -r min(x, y) - q max(x - y, 0) + s max(y - x, 0) + c x

with 0 <= q < c < r and s >= 0 (q is the unit salvage value here, not a
probability vector). The SAA optimizer is the empirical demand quantile at
the critical fractile (r + s - c) / (r + s - q).

The robust outer search enumerates candidate order quantities (demand atoms,
a uniform grid, and, for families whose value function is piecewise linear
in x, the pairwise crossing points of scenario cost lines) and refines once
around the incumbent; the worst-case value is convex in x for every family
here, so the grid pitch bounds the interior error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import GROWTH_LINEAR, MODIFIED_CHI2, PhiFunction, PiecewiseLinearCost, Scenario, validate
from .errors import EmptyInput, LengthMismatch, NonConvergence
from .families import UncertaintyFamily, WassersteinL1, build_family
from .rng import SplitMix64
from . import riskstats, sensitivity, worstcase


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
            raise ValueError(
                f"need 0 <= q < c < r and s >= 0, got r={self.r} c={self.c} q={self.q} s={self.s}"
            )

    @property
    def critical_fractile(self) -> float:
        return (self.r + self.s - self.c) / (self.r + self.s - self.q)


def newsvendor_cost(params: NewsvendorParams, x: float, y: float) -> float:
    return float(_newsvendor_cost_vec(params, x, y))


def _newsvendor_cost_vec(params: NewsvendorParams, x: float, ys: np.ndarray) -> np.ndarray:
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


def demand_quantile(demand: Scenario, tau: float) -> float:
    """Smallest demand atom whose cumulative mass reaches tau."""
    order = np.argsort(demand.costs, kind="stable")
    atoms = demand.costs[order]
    probs = demand.probs[order]
    for k in range(atoms.size):
        if math.fsum(probs[: k + 1].tolist()) >= tau:
            return float(atoms[k])
    return float(atoms[-1])


def _nominal_objective(params: NewsvendorParams, demand: Scenario, x: float) -> float:
    return math.fsum((demand.probs * _newsvendor_cost_vec(params, x, demand.costs)).tolist())


def _argmin_smallest(xs: np.ndarray, vals: np.ndarray) -> float:
    best = float(np.min(vals))
    tol = 1e-12 * (1.0 + abs(best))
    return float(np.min(xs[vals <= best + tol]))


def saa_newsvendor(params: NewsvendorParams, demand: Scenario) -> float:
    """Nominal expected-cost minimizer; kinks only at demand atoms, ties to smaller x."""
    atoms = np.unique(demand.costs)
    cands = list(atoms) + [0.5 * (a + b) for a, b in zip(atoms[:-1], atoms[1:])]
    xs = np.array(sorted(cands))
    vals = np.array([_nominal_objective(params, demand, float(x)) for x in xs])
    return _argmin_smallest(xs, vals)


def _crossing_points(params: NewsvendorParams, atoms: np.ndarray) -> list[float]:
    # f(., yi) and f(., yj) are parallel outside (yi, yj) and cross at most once
    # inside, where the low-demand line has slope (c - q) and the high-demand
    # line has slope (c - r - s)
    out = []
    r, q, s = params.r, params.q, params.s
    denom = r + s - q
    for i in range(atoms.size):
        for j in range(i + 1, atoms.size):
            yi, yj = float(atoms[i]), float(atoms[j])
            x = (s * yj + (r - q) * yi) / denom
            if yi < x < yj:
                out.append(x)
    return out


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


@dataclass(frozen=True)
class DroSolution:
    x: float
    worst_case: worstcase.WorstCaseResult


def dro_newsvendor(
    params: NewsvendorParams, demand: Scenario, family: UncertaintyFamily, eps: float
) -> DroSolution:
    """Minimize the family's exact worst-case cost over the order quantity."""
    if eps == 0.0:
        x0 = saa_newsvendor(params, demand)
        return DroSolution(x=x0, worst_case=_worst_value(params, demand, family, 0.0, x0))
    atoms = np.unique(demand.costs)
    hi = 1.5 * float(np.max(atoms))
    cands = set(np.linspace(0.0, hi, 400).tolist()) | set(atoms.tolist())
    if family.piecewise_linear and atoms.size <= 200:
        cands |= {x for x in _crossing_points(params, atoms) if 0.0 <= x <= hi}
    xs = np.array(sorted(cands))
    vals = np.array([_worst_value(params, demand, family, eps, float(x)).value for x in xs])
    x1 = _argmin_smallest(xs, vals)
    pitch = hi / 399.0
    local = np.linspace(max(0.0, x1 - pitch), min(hi, x1 + pitch), 40)
    xs2 = np.unique(np.append(local, x1))
    vals2 = np.array([_worst_value(params, demand, family, eps, float(x)).value for x in xs2])
    x_star = _argmin_smallest(xs2, vals2)
    return DroSolution(x=x_star, worst_case=_worst_value(params, demand, family, eps, x_star))


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
            raise ValueError("wasserstein measure needs newsvendor params and demand")
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
        raise ValueError("eps_list must be non-negative and ascending")
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
        raise ValueError("dataset sweeps support only the transport (WassersteinL1) family")
    measure_name = measure if isinstance(measure, str) else None
    if measure_name not in (None, "wasserstein"):
        measure = resolve_measure(measure_name, **measure_kwargs)
    points = []
    for eps in eps_arr:
        fit, _ = logreg_wasserstein(dataset, eps, tol=tol)
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
        raise ValueError("labels must be +-1")
    return LabeledDataset(features=X, labels=y)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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


def logreg_saa(data: LabeledDataset, tol: float = 1e-8, max_iter: int = 50_000) -> LogregFit:
    """Average log-loss minimizer by gradient descent with backtracking.

    On separable data there is no finite minimizer; the run still terminates
    at the gradient-norm criterion and the fit is flagged separable.
    """
    w = np.zeros(data.d)
    loss = logloss(data, w)
    step = 1.0
    for it in range(1, max_iter + 1):
        g = logloss_grad(data, w)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            margins = data.labels * (data.features @ w)
            return LogregFit(w, loss, gn, it - 1, separable=bool(np.all(margins > 0)))
        step *= 2.0
        while step > 1e-18:
            w_new = w - step * g
            loss_new = logloss(data, w_new)
            if loss_new <= loss - 0.5 * step * gn * gn:
                break
            step *= 0.5
        w, loss = w_new, loss_new
    raise NonConvergence(f"gradient norm {gn:.3e} > tol {tol} after {max_iter} iterations")


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
    data: LabeledDataset, eps: float, tol: float = 1e-8, max_iter: int = 50_000
) -> tuple[LogregFit, sensitivity.SensitivityReport]:
    """Minimize eps ||w||_2 + average log-loss; sensitivity is ||w_SAA||_2.

    Subgradient descent with diminishing steps warm-starts a proximal
    polish whose shrinkage step returns w = 0 exactly once
    eps >= ||(1/2n) sum y_i x_i||_2 (the zero-subgradient condition).
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    # the reported sensitivity only needs the SAA norm; plain gradient descent
    # hits its float noise floor near 1e-9, so do not chase tighter tolerances
    saa = logreg_saa(data, tol=max(tol, 1e-8), max_iter=max_iter)
    report = sensitivity.SensitivityReport(value=float(np.linalg.norm(saa.w)), growth=GROWTH_LINEAR)
    if eps == 0.0:
        return saa, report

    g0 = logloss_grad(data, np.zeros(data.d))
    if eps >= float(np.linalg.norm(g0)):
        w = np.zeros(data.d)
        fit = LogregFit(w, robust_logreg_objective(data, w, eps), 0.0, 0, separable=False)
        return fit, report

    def objective(w):
        return eps * float(np.linalg.norm(w)) + logloss(data, w)

    # phase 1: diminishing-step subgradient descent from the origin
    w = np.zeros(data.d)
    best_w, best_f = w.copy(), objective(w)
    for k in range(1, 301):
        sub = logloss_grad(data, w)
        nw = float(np.linalg.norm(w))
        if nw > 0:
            sub = sub + eps * w / nw
        w = w - (0.5 / math.sqrt(k)) * sub
        f = objective(w)
        if f < best_f:
            best_w, best_f = w.copy(), f
    w = best_w

    # phase 2: proximal polish (shrinkage snaps exactly to zero)
    step = 1.0
    loss = logloss(data, w)
    for it in range(1, max_iter + 1):
        g = logloss_grad(data, w)
        step *= 2.0
        while True:
            v = w - step * g
            nv = float(np.linalg.norm(v))
            w_new = np.zeros_like(v) if nv <= step * eps else (1.0 - step * eps / nv) * v
            loss_new = logloss(data, w_new)
            dw = w_new - w
            if loss_new <= loss + float(g @ dw) + float(dw @ dw) / (2.0 * step) or step <= 1e-18:
                break
            step *= 0.5
        moved = float(np.linalg.norm(w_new - w)) / step
        w, loss = w_new, loss_new
        nw = float(np.linalg.norm(w))
        resid = (
            max(0.0, float(np.linalg.norm(logloss_grad(data, w))) - eps)
            if nw == 0.0
            else float(np.linalg.norm(logloss_grad(data, w) + eps * w / nw))
        )
        if resid <= tol or moved <= tol * 1e-3:
            fit = LogregFit(w, objective(w), resid, it, separable=False)
            return fit, report
    raise NonConvergence(f"prox residual {resid:.3e} > tol {tol} after {max_iter} iterations")


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def gen_mixture_demand(
    n: int, mu_low: float = 10.0, mu_high: float = 100.0, p_low: float = 0.9, seed: int = 0
) -> np.ndarray:
    """Two-component exponential mixture; per draw: u1 picks the component
    (u1 < p_low -> low mean), u2 maps through -mu ln(1 - u2)."""
    if n < 1 or mu_low <= 0 or mu_high <= 0 or not 0.0 <= p_low <= 1.0:
        raise ValueError("need n >= 1, positive means, p_low in [0,1]")
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
        raise ValueError("need n >= 2 and d >= 1")
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
