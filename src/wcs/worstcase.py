"""Exact worst-case expected costs V(eps) and worst-case distributions q(eps).

Each family gets its exact maximizer over the stated ambiguity set, a dual
certificate where one exists, and flags for the degenerate (constant-cost)
and clamped (eps beyond the family's saturation point) regimes. Constant
costs never error: every wc_* returns V(eps) = E_p(f) with q = p, flagged
degenerate, instead of dividing by a zero variance.

The smooth-phi solver works on the two first-order conditions of the
penalized dual

    sum_i p_i [phi*]'(delta (f_i + c)) = 1          (stationarity in c)
    divergence(q(delta, c) | p) = eps               (stationarity in delta)

by nested root-finding: c by bisection (monotone in c) to 1e-12, delta by
bracketed bisection to 1e-12, with [phi']^{-1} clamped at its domain edge so
the q >= 0 constraint is honored when the small-set closed forms would go
negative. For the built-in modified chi-square and KL generators the inner
equation also has a closed-form solution; it is used when available and is
tested to agree with the bisection path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    KL,
    MODIFIED_CHI2,
    PhiFunction,
    PiecewiseLinearCost,
    Scenario,
    SortedScenario,
    sort_desc,
    validate,
)
from .errors import EpsOutOfRange, NoBracket
from . import riskstats

_C_TOL = 1e-12
_DELTA_TOL = 1e-12
_DELTA_LO = 1e-14
_DELTA_CAP = 1e18


@dataclass(frozen=True)
class SmoothPhiDual:
    """Inverse penalty multiplier delta(eps) >= 0 and shift c(eps)."""

    delta: float
    c: float


@dataclass(frozen=True)
class TvDual:
    """Dual of the small-eps total-variation LP: theta center, lambda radius."""

    theta: float
    lam: float


@dataclass(frozen=True)
class BudgetedDual:
    """Right slope of the piecewise-linear value function at this eps."""

    slope: float


@dataclass(frozen=True)
class WassersteinDual:
    lam: float
    validity_radius: float
    attained: bool


@dataclass(frozen=True)
class BoxParams:
    """Likelihood-ratio band L <= q/p <= U with L <= 1 <= U."""

    L: float
    U: float

    def __post_init__(self):
        if not (0.0 <= self.L <= 1.0 <= self.U):
            raise ValueError(f"need 0 <= L <= 1 <= U, got L={self.L}, U={self.U}")


@dataclass(frozen=True)
class WorstCaseResult:
    epsilon: float
    value: float
    worst_q: np.ndarray
    dual: object | None
    degenerate: bool = False
    clamped: bool = False
    # Wasserstein results may carry mass on transported points; when set,
    # worst_q indexes these arrays instead of the nominal support.
    support_points: np.ndarray | None = None
    support_costs: np.ndarray | None = None


def _clip_q(q: np.ndarray) -> np.ndarray:
    if np.min(q) < -1e-12:
        raise AssertionError(f"worst-case mass went negative: min q = {np.min(q)}")
    return np.where(q < 0.0, 0.0, q)


def _dot(q: np.ndarray, f: np.ndarray) -> float:
    return math.fsum((q * f).tolist())


def _degenerate(s: Scenario, eps: float) -> WorstCaseResult:
    return WorstCaseResult(
        epsilon=eps,
        value=riskstats.mean(s),
        worst_q=s.probs.copy(),
        dual=None,
        degenerate=True,
    )


def _check_eps(eps: float):
    if not (math.isfinite(eps) and eps >= 0.0):
        raise EpsOutOfRange(f"set size must be finite and >= 0, got {eps}")


# ---------------------------------------------------------------------------
# Smooth phi-divergence balls
# ---------------------------------------------------------------------------


class _PhiTilter:
    """Inner-c solver with prefix sums cached across the outer delta search."""

    def __init__(self, phi: PhiFunction, srt: SortedScenario):
        self.phi = phi
        self.f = srt.costs_desc
        self.p = srt.probs_desc
        self.pk = np.cumsum(self.p)
        self.sk = np.cumsum(self.p * self.f)
        self.fmax = float(np.max(np.abs(self.f)))

    def _solve_c_exact(self, delta: float) -> float | None:
        # by identity: a user phi may reuse a built-in's name with other math
        f = self.f
        if self.phi is KL:
            # sum p exp(delta (f + c)) = 1  =>  c = -logsumexp(delta f; p)/delta
            m = float(delta * f[0])
            return -(m + math.log(math.fsum((self.p * np.exp(delta * f - m)).tolist()))) / delta
        if self.phi is MODIFIED_CHI2:
            # sum over active prefix of p (1 + delta (f + c)) = 1, piecewise linear in c
            c_all = (1.0 - self.pk - delta * self.sk) / (delta * self.pk)
            tol = 1e-12 * (1.0 + np.abs(c_all) + self.fmax)
            active_ok = 1.0 + delta * (f + c_all) >= -tol
            inactive_ok = np.empty_like(active_ok)
            inactive_ok[:-1] = 1.0 + delta * (f[1:] + c_all[:-1]) <= tol[:-1]
            inactive_ok[-1] = True
            hits = np.nonzero(active_ok & inactive_ok)[0]
            if hits.size == 0:
                return None
            return float(c_all[hits[0]])
        return None

    def _solve_c_bisect(self, delta: float) -> float:
        f, p, phi = self.f, self.p, self.phi

        def g(c: float) -> float:
            return math.fsum((p * phi.inverse_clamped(delta * (f + c))).tolist()) - 1.0

        lo, hi = -float(f[0]), -float(f[-1])
        if g(lo) > 0.0 or g(hi) < 0.0:  # numerically flat or degenerate; midpoint is fine
            return 0.5 * (lo + hi)
        for _ in range(200):
            if hi - lo <= _C_TOL * max(1.0, abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def solve_c(self, delta: float) -> float:
        c = self._solve_c_exact(delta)
        if c is None:
            c = self._solve_c_bisect(delta)
        return c

    def tilt(self, delta: float) -> tuple[np.ndarray, float]:
        c = self.solve_c(delta)
        z = self.phi.inverse_clamped(delta * (self.f + c))
        return self.p * z, c


def _saturation_divergence(phi: PhiFunction, srt: SortedScenario) -> tuple[float, np.ndarray]:
    """Divergence of the cheapest point mass on the argmax-cost atoms."""
    top = srt.costs_desc == srt.costs_desc[0]
    pm = math.fsum(srt.probs_desc[top].tolist())
    q = np.where(top, srt.probs_desc / pm, 0.0)
    phi0 = float(phi.value(np.array(0.0)))
    if not math.isfinite(phi0):
        return math.inf, q
    d = math.fsum((srt.probs_desc * np.where(top, phi.value(np.array(1.0 / pm)), phi0)).tolist())
    return d, q


def wc_smooth_phi(s: Scenario, phi: PhiFunction, eps: float) -> WorstCaseResult:
    """Exact worst case over the phi-divergence ball of radius eps."""
    _check_eps(eps)
    if s.is_constant():
        return _degenerate(s, eps)
    if eps == 0.0:
        return WorstCaseResult(
            epsilon=0.0,
            value=riskstats.mean(s),
            worst_q=s.probs.copy(),
            dual=SmoothPhiDual(delta=0.0, c=-riskstats.mean(s)),
        )

    srt = sort_desc(s)
    d_sat, q_sat = _saturation_divergence(phi, srt)
    if eps >= d_sat - 1e-9 * (1.0 + abs(d_sat)):
        q = srt.unsort(q_sat)
        return WorstCaseResult(
            epsilon=eps, value=_dot(q, s.costs), worst_q=_clip_q(q), dual=None, clamped=True
        )

    tilter = _PhiTilter(phi, srt)

    def residual(delta: float) -> float:
        q_desc, _ = tilter.tilt(delta)
        return eps - phi.divergence(q_desc, srt.probs_desc)

    lo, hi = _DELTA_LO, 1.0
    while residual(hi) > 0.0:
        hi *= 2.0
        if hi > _DELTA_CAP:
            raise NoBracket(
                f"could not bracket the divergence equation for eps={eps} "
                f"on delta in [{_DELTA_LO}, {hi}]"
            )
    for _ in range(200):
        if hi - lo <= _DELTA_TOL * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    delta = 0.5 * (lo + hi)
    q_desc, c = tilter.tilt(delta)
    q = srt.unsort(q_desc)
    return WorstCaseResult(
        epsilon=eps,
        value=_dot(q, s.costs),
        worst_q=_clip_q(q),
        dual=SmoothPhiDual(delta=delta, c=c),
    )


def wc_chi2(s: Scenario, eps: float) -> WorstCaseResult:
    """Modified chi-square ball: closed form while the tilt stays nonnegative.

    q_i = p_i (1 + sqrt(2 eps / Var) (f_i - mean)); if any entry would go
    negative the exact clamped dual solve takes over.
    """
    _check_eps(eps)
    if s.is_constant():
        return _degenerate(s, eps)
    if eps == 0.0:
        return WorstCaseResult(
            epsilon=0.0,
            value=riskstats.mean(s),
            worst_q=s.probs.copy(),
            dual=SmoothPhiDual(delta=0.0, c=-riskstats.mean(s)),
        )
    m = riskstats.mean(s)
    var = riskstats.variance(s)
    delta = math.sqrt(2.0 * eps / var)
    q = s.probs * (1.0 + delta * (s.costs - m))
    if np.min(q) < 0.0:
        return wc_smooth_phi(s, MODIFIED_CHI2, eps)
    return WorstCaseResult(
        epsilon=eps, value=_dot(q, s.costs), worst_q=_clip_q(q), dual=SmoothPhiDual(delta, -m)
    )


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def wc_tv(s: Scenario, eps: float) -> WorstCaseResult:
    """Exact maximizer over {q : sum |q - p| <= eps}; eps > 2 clamps to the simplex."""
    _check_eps(eps)
    clamped = eps > 2.0
    e = min(eps, 2.0)
    if s.is_constant():
        return _degenerate(s, eps)
    srt = sort_desc(s)
    q = srt.probs_desc.copy()
    gain = min(0.5 * e, 1.0 - q[0])
    q[0] += gain
    need = gain
    for j in range(srt.n - 1, 0, -1):  # strip cheapest-first
        take = min(need, q[j])
        q[j] -= take
        need -= take
        if need <= 0.0:
            break
    dual = TvDual(
        theta=0.5 * (srt.costs_desc[0] + srt.costs_desc[-1]),
        lam=0.5 * (srt.costs_desc[0] - srt.costs_desc[-1]),
    )
    q_orig = srt.unsort(q)
    return WorstCaseResult(
        epsilon=eps, value=_dot(q_orig, s.costs), worst_q=_clip_q(q_orig), dual=dual,
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# Budgeted (likelihood-ratio cap) and CVaR structure
# ---------------------------------------------------------------------------


def budgeted_slope(s: Scenario, eps: float) -> float:
    """Right slope of V_b at eps: sum_{i<=k} p_(i) (f_(i) - f_(k+1)).

    k counts the atoms whose cumulative mass stays strictly below
    1/(1+eps); the same rank convention defines the VaR atom, which makes
    this formula agree with (CVaR - VaR)/(1+eps) exactly.
    """
    return _budgeted_slope(sort_desc(s), eps)


def _budgeted_slope(srt: SortedScenario, eps: float) -> float:
    alpha = eps / (1.0 + eps)
    k = riskstats.partial_fill_rank(srt, alpha)
    if k == 0:
        return 0.0
    return math.fsum((srt.probs_desc[:k] * (srt.costs_desc[:k] - srt.costs_desc[k])).tolist())


def wc_budgeted(s: Scenario, eps: float) -> WorstCaseResult:
    """Cap set 0 <= q <= (1+eps) p; V equals CVaR at level eps/(1+eps) exactly."""
    _check_eps(eps)
    sat = float(np.max(1.0 / s.probs - 1.0))
    clamped = eps > sat
    e = min(eps, sat)
    if s.is_constant():
        return _degenerate(s, eps)
    srt = sort_desc(s)
    value, q = riskstats.cvar_sorted(srt, e / (1.0 + e))
    slope = 0.0 if clamped else _budgeted_slope(srt, e)
    return WorstCaseResult(
        epsilon=eps, value=value, worst_q=_clip_q(q), dual=BudgetedDual(slope=slope),
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# Convex combination of nominal and CVaR set; likelihood-ratio boxes
# ---------------------------------------------------------------------------


def wc_combination(s: Scenario, alpha, eps: float) -> WorstCaseResult:
    """V = (1-eps) mean + eps CVaR_alpha over the shrunk CVaR polytope."""
    if not (math.isfinite(eps) and 0.0 <= eps <= 1.0):
        raise EpsOutOfRange(f"combination mixing weight must be in [0,1], got {eps}")
    if s.is_constant():
        return _degenerate(s, eps)
    cv, g = riskstats.cvar_sorted(sort_desc(s), alpha)
    q = (1.0 - eps) * s.probs + eps * g
    value = (1.0 - eps) * riskstats.mean(s) + eps * cv
    return WorstCaseResult(epsilon=eps, value=value, worst_q=_clip_q(q), dual=None)


def wc_box(s: Scenario, box: BoxParams) -> WorstCaseResult:
    """V = L mean + (1-L) CVaR at level (U-1)/(U-L) over {L p <= q <= U p}."""
    if s.is_constant():
        return _degenerate(s, 0.0)
    if box.L == 1.0:
        return WorstCaseResult(
            epsilon=0.0, value=riskstats.mean(s), worst_q=s.probs.copy(), dual=None
        )
    level = (box.U - 1.0) / (box.U - box.L)
    cv, g = riskstats.cvar_sorted(sort_desc(s), level)
    q = box.L * s.probs + (1.0 - box.L) * g
    value = box.L * riskstats.mean(s) + (1.0 - box.L) * cv
    return WorstCaseResult(epsilon=0.0, value=value, worst_q=_clip_q(q), dual=None)


def wc_box_symmetric(s: Scenario, nu: float) -> WorstCaseResult:
    """Symmetric band U = 1/L = 1 + nu; slope at nu -> 0 is CVaR_{1/2} - mean."""
    _check_eps(nu)
    res = wc_box(s, BoxParams(L=1.0 / (1.0 + nu), U=1.0 + nu))
    return WorstCaseResult(
        epsilon=nu, value=res.value, worst_q=res.worst_q, dual=None, degenerate=res.degenerate
    )


# ---------------------------------------------------------------------------
# Wasserstein (L1 transport) on scalar piecewise-linear costs
# ---------------------------------------------------------------------------


def wc_wasserstein_pl(points, probs, cost: PiecewiseLinearCost, eps: float) -> WorstCaseResult:
    """First-order-exact worst case under an L1 transport budget.

    V(eps) = E_p f + eps * lambda* with lambda* the smallest dual multiplier
    at eps = 0 (the largest transport ratio over the support). The result is
    exact while the optimal transport direction remains available; the
    reported validity radius is the budget consumed by moving the best
    atom's mass to the far end of its maximal-ratio segment, a conservative
    underestimate of the true exactness range. When the ratio is attained
    only in a limit (mass escaping to infinity), worst_q stays at the
    nominal and the result is first-order only.
    """
    _check_eps(eps)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    f = np.array([cost.value(float(y)) for y in pts])
    s = validate(f, probs)
    nominal = riskstats.mean(s)

    degenerate = all(v == 0.0 for v in cost.slopes)
    all_cands = [cost.ratio_candidates(float(y)) for y in pts]
    lam = max(0.0, max(r for cands in all_cands for r, _ in cands))
    value = nominal + eps * lam

    # exact attainment: the farthest finite z reaching the max ratio, weighted
    # by the mass available to move, determines the exactness radius
    best: tuple[int, float, float] | None = None  # (atom, |z-y|, z)
    if lam > 0.0:
        for i, cands in enumerate(all_cands):
            for r, z in cands:
                dist = abs(z - pts[i])
                if (
                    math.isfinite(z)
                    and dist > 0.0
                    and abs(r - lam) <= 1e-12 * (1.0 + lam)
                    and (best is None or s.probs[i] * dist > s.probs[best[0]] * best[1])
                ):
                    best = (i, dist, z)

    if eps == 0.0 or lam == 0.0 or best is None:
        radius = 0.0 if lam > 0.0 else math.inf
        return WorstCaseResult(
            epsilon=eps,
            value=value,
            worst_q=s.probs.copy(),
            dual=WassersteinDual(lam=lam, validity_radius=radius, attained=best is not None),
            degenerate=degenerate,
        )

    i_star, dist, z_star = best
    radius = s.probs[i_star] * dist
    mu = min(eps / dist, float(s.probs[i_star]))
    q = np.append(s.probs.copy(), mu)
    q[i_star] -= mu
    support = np.append(pts, z_star)
    costs_ext = np.append(f, cost.value(z_star))
    return WorstCaseResult(
        epsilon=eps,
        value=value,
        worst_q=_clip_q(q),
        dual=WassersteinDual(lam=lam, validity_radius=radius, attained=True),
        degenerate=degenerate,
        support_points=support,
        support_costs=costs_ext,
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def worst_case(s: Scenario, family, eps: float) -> WorstCaseResult:
    """Exact worst case of a ``families`` descriptor (Wasserstein: use wc_wasserstein_pl)."""
    return family.worst_case(s, eps)
