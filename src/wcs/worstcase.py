"""Exact worst-case expected costs V(eps) and worst-case distributions q(eps).

Each family gets its exact maximizer over the stated ambiguity set, a dual
certificate where one exists, and flags for the degenerate (constant-cost)
and clamped (eps beyond the family's saturation point) regimes. Constant
costs never error: every wc_* returns V(eps) = the common cost with q = p,
flagged degenerate, instead of dividing by a zero variance.

The smooth-phi solves work on the standardised costs
g = (f - max f)/(max f - min f) in [-1, 0]: V is translation-equivariant
and positively homogeneous in f, so V, the multiplier delta and the shift
c map back, and no cost scale can underflow a variance or push the root of
the divergence equation out of reach. The worst case tilts p as
q_i = p_i [phi']^{-1}(delta (g_i + c)), with [phi']^{-1} clamped at its
domain edge so q >= 0, where

    sum_i p_i [phi']^{-1}(delta (g_i + c)) = 1          (stationarity in c)
    divergence(q(delta, c) | p) = eps                   (stationarity in delta)

Modified chi-square solves both in closed form on its active set (the
costliest atoms keeping mass); KL solves c in closed form and delta by
safeguarded Newton, with D'(delta) = delta Var_q(g). A user phi runs the
nested bisection, c inside and delta outside, each to full precision, the
same for every phi; built-in KL still open after Newton's step cap and
chi-square with no active count run it too, at a user phi's cost.

The value-only batches at the end (``*_values``) return V(eps) for each row
of a cost block. The built-in phis are picked here alone, by identity, in
``wc_smooth_phi`` and ``phi_values``, which returns None for a user phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    KL,
    MODIFIED_CHI2,
    PhiFunction,
    PiecewiseLinearCost,
    Scenario,
    SortedScenario,
    exact_sum,
    exact_total,
    sort_desc,
    validate,
)
from .errors import EpsOutOfRange, InvalidBoxParams, NoBracket
from . import riskstats

# splits of a bracket; each bisection stops earlier once its ends are adjacent doubles
_BISECTIONS = 200
_DELTA_CAP = 1e300


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
            raise InvalidBoxParams(f"need 0 <= L <= 1 <= U, got L={self.L}, U={self.U}")


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


def _degenerate(s: Scenario, eps: float) -> WorstCaseResult:
    # the common cost itself: E_p f can round an ulp above it, as sum p is 1 only to rounding
    return WorstCaseResult(
        epsilon=eps,
        value=float(s.costs[0]),
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


@dataclass(frozen=True)
class _Standardised:
    """g = (f / half - top) / scale in [-1, 0]: top is max f / half, scale the range of f / half.

    half is 2 when max f - min f overflows, else 1. Every family's V is
    translation-equivariant and positively homogeneous in f, so a solve on g
    maps back: V = half (top + scale E_q g), and the tilt argument
    delta_g (g + c_g) is delta (f + c) for the delta and c of ``dual``.
    """

    g: np.ndarray
    top: float
    scale: float
    half: float

    def value(self, vg: float) -> float:
        return self.half * (self.top + self.scale * vg)

    def dual(self, delta: float, c: float) -> SmoothPhiDual:
        return SmoothPhiDual(
            delta=delta / self.half / self.scale, c=self.half * (self.scale * c - self.top)
        )


def _standardise(f: np.ndarray) -> _Standardised:
    half, top, bottom = 1.0, float(np.max(f)), float(np.min(f))
    if math.isinf(top - bottom):
        half, f, top, bottom = 2.0, f / 2.0, top / 2.0, bottom / 2.0
    return _Standardised(g=(f - top) / (top - bottom), top=top, scale=top - bottom, half=half)


def _tilted(
    st: _Standardised, q: np.ndarray, delta: float, c: float, eps: float
) -> WorstCaseResult:
    """The result for a tilt q, in atom order, solved on st.g with multiplier delta and shift c."""
    return WorstCaseResult(
        epsilon=eps, value=st.value(exact_sum(q, st.g)), worst_q=_clip_q(q), dual=st.dual(delta, c)
    )


def _unresolved(phi: PhiFunction, eps: float) -> bool:
    """Whether eps is too small for any tilt to move V off E_p f by 2^-53 of the cost range.

    On g in [-1, 0], V - E_p f is about the range times sqrt(2 eps Var_p g / phi''(1))
    <= sqrt(eps / (2 phi''(1))), so below eps = 2^-105 phi''(1) the nominal p is the
    worst case to within rounding. There the tilt of the costliest atom rounds
    away, and a solve would only chase the rounding of sum p.
    """
    return eps < 2.0**-105 * phi.curvature


def _point_mass(s: Scenario, q: np.ndarray, eps: float) -> WorstCaseResult:
    """Past the saturation divergence: all mass on the argmax-cost atoms, so V = max f."""
    return WorstCaseResult(
        epsilon=eps, value=float(np.max(s.costs)), worst_q=_clip_q(q), dual=None, clamped=True
    )


def _saturated(eps: float, d_sat: float) -> bool:
    return eps >= d_sat - 1e-9 * (1.0 + abs(d_sat))


def _saturation_divergence(phi: PhiFunction, srt: SortedScenario) -> tuple[float, np.ndarray]:
    """Divergence of the cheapest point mass on the argmax-cost atoms."""
    top = srt.costs_desc == srt.costs_desc[0]
    pm = exact_sum(srt.probs_desc[top])
    q = np.where(top, srt.probs_desc / pm, 0.0)
    phi0 = float(phi.value(np.array(0.0)))
    if not math.isfinite(phi0):
        return math.inf, q
    d = exact_sum(srt.probs_desc, np.where(top, phi.value(np.array(1.0 / pm)), phi0))
    return d, q


def _bisect_tilt(
    phi: PhiFunction, gs: SortedScenario, eps: float
) -> tuple[np.ndarray, float, float]:
    """(q, delta, c) on sorted standardised costs by nested bisection: c inside, delta outside.

    D(delta) rises from 0 at delta = 0. The bracket grows from [0, 1] by
    squaring its top. While its bottom is 0 it is cut at hi / 2^k with k
    doubling from 1, so a root down to the smallest double is reached in
    about 11 cuts; then it is split at geometric midpoints while it spans
    more than a factor 2. Both bisections run to full precision, since a
    near-tie among the costliest atoms makes D steep in delta and sum q
    steep in c.
    """
    f, p = gs.costs_desc, gs.probs_desc

    def tilt(delta: float) -> tuple[np.ndarray, float]:
        """(q, c) at delta, with c bisected so that sum q = 1."""

        def mass_gap(c: float) -> float:
            # a c far above the root may overflow [phi']^{-1}: inf mass reads as too much
            with np.errstate(over="ignore"):
                return exact_sum(p, phi.inverse_clamped(delta * (f + c))) - 1.0

        lo, hi = -float(f[0]), -float(f[-1])
        # ends that do not bracket the root: numerically flat or degenerate; midpoint is fine
        if not (mass_gap(lo) > 0.0 or mass_gap(hi) < 0.0):
            for _ in range(_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                if mass_gap(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
        c = 0.5 * (lo + hi)
        return p * phi.inverse_clamped(delta * (f + c)), c

    def residual(delta: float) -> float:
        q_desc, _ = tilt(delta)
        return eps - phi.divergence(q_desc, p)

    lo, hi = 0.0, 1.0
    while residual(hi) > 0.0:
        lo, hi = hi, max(2.0, hi * hi)
        if hi > _DELTA_CAP:
            raise NoBracket(
                f"could not bracket the divergence equation for eps={eps} on delta in [0, {hi}]"
            )
    cut = 1
    for _ in range(_BISECTIONS):
        if lo == 0.0:
            mid, cut = max(math.ldexp(hi, -cut), math.ulp(0.0)), 2 * cut
        elif 2.0 * lo < hi:
            mid = math.sqrt(lo) * math.sqrt(hi)
        else:
            mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    q_desc, c = tilt(hi)
    return q_desc, hi, c


def _chi2_spread_count(g: np.ndarray, p: np.ndarray, eps: float) -> int | None:
    """The active count of ``_chi2_prefix``'s test, each prefix measured in its own spread.

    The batch test squares g, so where the k + 1 costliest atoms span less
    than about 1e-154 of the range, W_k underflows and no k passes. Here a
    Welford update keeps W_k / s_k^2 for the prefix spread s_k = -g_k,
    rescaled as s_k grows, and the test runs in units of s_k. One Python
    pass over the atoms; only rows the batch test leaves open come here.
    """
    gl, pl = g.tolist(), p.tolist()
    total = math.fsum(pl)
    mass = mean = w = spread = 0.0
    for k, (gk, pk) in enumerate(zip(gl, pl)):
        if -gk > spread:
            ratio = spread / -gk
            w *= ratio * ratio
            spread = -gk
        d = gk - mean
        mass += pk
        mean += pk * d / mass
        if spread == 0.0:
            continue
        w += pk * (d / spread) * ((gk - mean) / spread)
        slack = 2.0 * eps - (total - mass) / mass
        if not (slack > 0.0 and w > 0.0):
            continue
        delta, base = math.sqrt(slack / w), 1.0 / mass
        tol = 1e-12 * (base + delta)
        if base + delta * (gk - mean) / spread < -tol:
            continue
        if k + 1 == len(gl) or base + delta * (gl[k + 1] - mean) / spread <= tol:
            return k + 1
    return None


def _chi2_active_tilt(gs: SortedScenario, eps: float) -> tuple[np.ndarray, float, float] | None:
    """(q, delta, c) of the modified chi-square tilt on sorted standardised costs, or None.

    The active count comes from ``_chi2_prefix``, the test ``_chi2_rows``
    runs, or, where that test finds none, from ``_chi2_spread_count``; P_k,
    mu_k and W_k are then summed exactly, two-pass, over the active atoms,
    since prefix sums leave W with a rounding error that shows in the
    divergence. In the second case the deviations are measured in the
    active atoms' spread, so W does not underflow. None when no active
    count passes the test.
    """
    g, p = gs.costs_desc, gs.probs_desc
    k, found, _ = _chi2_prefix(g[None, :], p[None, :], eps)
    if found[0]:
        k, spread = int(k[0]) + 1, 1.0
    else:
        k = _chi2_spread_count(g, p, eps)
        if k is None:
            return None
        spread = -float(g[k - 1])
    ga, pa = g[:k], p[:k]
    mass = exact_sum(pa)
    mu = exact_sum(pa, ga) / mass
    dev = (ga - mu) / spread
    w = exact_sum(pa, dev**2)
    slack = 2.0 * eps - exact_sum(p[k:]) / mass
    if not (slack > 0.0 and w > 0.0):
        return None
    delta = math.sqrt(slack / w)
    q = np.zeros_like(p)
    q[:k] = pa * np.maximum(1.0 / mass + delta * dev, 0.0)
    delta /= spread
    return q, delta, (1.0 / mass - 1.0) / delta - mu


def _sorted_tilt(s: Scenario, st: _Standardised, phi: PhiFunction, eps: float, active=None):
    """The tilt on the costs sorted once: active(gs, eps) where it finds one, else bisection."""
    srt = sort_desc(s)
    d_sat, q_sat = _saturation_divergence(phi, srt)
    if _saturated(eps, d_sat):
        return _point_mass(s, srt.unsort(q_sat), eps)
    gs = SortedScenario(order=srt.order, costs_desc=st.g[srt.order], probs_desc=srt.probs_desc)
    solved = active(gs, eps) if active else None
    q_desc, delta, c = solved or _bisect_tilt(phi, gs, eps)
    return _tilted(st, srt.unsort(q_desc), delta, c, eps)


def _kl_saturation(costs: np.ndarray, probs: np.ndarray, eps: float):
    """(argmax mask, its mass, saturated) for one scenario's costs or per row of a block.

    KL's worst case is the point mass on the argmax atoms once eps reaches
    -log of their mass. One scenario's mass is summed exactly, a block's
    row by row with np.sum.
    """
    top = costs == np.max(costs, axis=-1, keepdims=True)
    if costs.ndim == 1:
        mass = exact_sum(probs[top])
    else:
        mass = np.sum(np.where(top, probs, 0.0), axis=1)
    return top, mass, _saturated(eps, -np.log(mass))


def _chi2_tilt_result(s: Scenario, st: _Standardised, eps: float) -> WorstCaseResult:
    """Modified chi-square: closed form while the tilt stays nonnegative.

    q_i = p_i (1 + sqrt(2 eps / Var) (g_i - mean)), without a sort; if the
    cheapest atom's mass would go negative, the sorted active-set solve takes over.
    """
    m = exact_sum(s.probs, st.g)
    dev = st.g - m
    dev *= dev
    var = exact_sum(s.probs, dev)
    if var > 0.0:
        delta = math.sqrt(2.0 * eps / var)
        # the tilt of the cheapest atom, g = -1, is 1 - delta (1 + m)
        if delta * (1.0 + m) <= 1.0:
            return _tilted(st, s.probs * (1.0 + delta * (st.g - m)), delta, -m, eps)
    return _sorted_tilt(s, st, MODIFIED_CHI2, eps, _chi2_active_tilt)


def _kl_tilt_result(s: Scenario, st: _Standardised, eps: float) -> WorstCaseResult:
    """KL without a sort: q = p exp(delta g) / Z with delta from the batched Newton."""
    top, pm, saturated = _kl_saturation(s.costs, s.probs, eps)
    if saturated:
        return _point_mass(s, np.where(top, s.probs / pm, 0.0), eps)
    _, delta = _kl_tilt(st.g[None, :], s.probs, eps)
    delta = float(delta[0])
    if math.isnan(delta):
        return _sorted_tilt(s, st, KL, eps)
    w = s.probs * np.exp(delta * st.g)
    z = exact_sum(w)
    return _tilted(st, w / z, delta, -math.log(z) / delta, eps)


def wc_smooth_phi(s: Scenario, phi: PhiFunction, eps: float) -> WorstCaseResult:
    """Exact worst case over the phi-divergence ball of radius eps."""
    _check_eps(eps)
    if s.is_constant():
        return _degenerate(s, eps)
    if eps == 0.0 or _unresolved(phi, eps):
        m = riskstats.mean(s)
        return WorstCaseResult(
            epsilon=eps, value=m, worst_q=s.probs.copy(), dual=SmoothPhiDual(delta=0.0, c=-m)
        )
    st = _standardise(s.costs)
    # by identity: a user phi may reuse a built-in's name with other math
    if phi is MODIFIED_CHI2:
        return _chi2_tilt_result(s, st, eps)
    if phi is KL:
        return _kl_tilt_result(s, st, eps)
    return _sorted_tilt(s, st, phi, eps)


def wc_chi2(s: Scenario, eps: float) -> WorstCaseResult:
    """Modified chi-square ball: wc_smooth_phi with the built-in MODIFIED_CHI2."""
    return wc_smooth_phi(s, MODIFIED_CHI2, eps)


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def _strip_cheapest(q: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Take need[r] from row r of q in place, last column first; column 0 is kept.

    The loop it stands for runs j = n-1 .. 1: take = min(need, q[j]),
    q[j] -= take, need -= take, until need <= 0. np.cumsum adds in sequence
    and x + (-y) == x - y, so before[:, t] is that loop's need on reaching
    column n-1-t bit for bit; the loop empties every column before the
    first one that covers its need, and takes the need from that one.
    Returns whether each row's need was covered.
    """
    tail = q[:, :0:-1]  # a view: columns n-1 .. 1
    before = np.cumsum(np.concatenate((need[:, None], -tail[:, :-1]), axis=1), axis=1)
    covered = tail >= before
    width = tail.shape[1]
    t = np.where(covered.any(axis=1), np.argmax(covered, axis=1), width)
    tail[np.arange(width) < t[:, None]] = 0.0
    rows = np.flatnonzero(t < width)
    tail[rows, t[rows]] -= before[rows, t[rows]]
    return t < width


def wc_tv(s: Scenario, eps: float) -> WorstCaseResult:
    """Exact maximizer over {q : sum |q - p| <= eps}; eps > 2 clamps to the simplex.

    The argmax atom gains min(eps/2, 1 - its mass), stripped from the
    cheapest atoms up. Only the cheap side that covers the strip is sorted:
    a window from above the strip's boundary down to the cheapest atom.
    """
    _check_eps(eps)
    clamped = eps > 2.0
    e = min(eps, 2.0)
    if s.is_constant():
        return _degenerate(s, eps)
    top = int(np.argmax(s.costs))
    gain = min(0.5 * e, 1.0 - float(s.probs[top]))

    def strip(split: riskstats.Split):
        # the whole order starts with the argmax atom, which keeps its mass
        whole = split.window[0] == top
        cheap = split.window[1:] if whole else split.window
        row = np.concatenate(([0.0], s.probs[cheap]))
        if not (_strip_cheapest(row[None, :], np.array([gain]))[0] or whole):
            return None
        return cheap, row[1:]

    cheap, kept = riskstats.select(s.costs, s.probs, 1.0 - gain, strip, through_end=True)
    q = s.probs.copy()
    q[top] += gain
    q[cheap] = kept
    top_cost, bottom_cost = float(s.costs[top]), float(s.costs[cheap[-1]])
    half_sum = riskstats.half_sum
    dual = TvDual(theta=half_sum(top_cost, bottom_cost), lam=half_sum(top_cost, -bottom_cost))
    return WorstCaseResult(
        epsilon=eps, value=exact_sum(q, s.costs), worst_q=_clip_q(q), dual=dual, clamped=clamped
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
    return _budgeted_slope(s, eps, None)


def _budgeted_slope(s: Scenario, eps: float, near: riskstats.Split | None) -> float:
    """The slope, its VaR atom found on the split near if it lies there.

    There the head's masses are gathered once, for the VaR boundary and for the slope.
    """
    alpha = eps / (1.0 + eps)
    if near is not None:
        head = s.probs[near.head]
        total = exact_total(head) if head.size else 0
        tail = near.tail(s.probs, 1.0 - alpha, strict=True, head=total)
        if tail is not None:
            return tail.excess(s.costs, head)
    return riskstats.var_tail(s, alpha).excess(s.costs)


def _budget_saturation(probs: np.ndarray) -> float:
    """max_i (1/p_i - 1), the eps beyond which the cap set holds the whole simplex.

    fl(1/p) falls as p rises and fl(y - 1) rises with y, so the max is at the smallest p.
    """
    return 1.0 / float(probs.min()) - 1.0


def wc_budgeted(s: Scenario, eps: float) -> WorstCaseResult:
    """Cap set 0 <= q <= (1+eps) p; V equals CVaR at level eps/(1+eps) exactly."""
    _check_eps(eps)
    sat = _budget_saturation(s.probs)
    clamped = eps > sat
    e = min(eps, sat)
    if s.is_constant():
        return _degenerate(s, eps)
    q, tail = riskstats.cvar_fill(s, e / (1.0 + e))
    slope = 0.0 if clamped else _budgeted_slope(s, e, None if tail is None else tail.split)
    value = riskstats.tail_cvar(s, tail)
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
    g, tail = riskstats.cvar_fill(s, alpha)
    q = (1.0 - eps) * s.probs + eps * g
    value = (1.0 - eps) * riskstats.mean(s) + eps * riskstats.tail_cvar(s, tail)
    return WorstCaseResult(epsilon=eps, value=value, worst_q=_clip_q(q), dual=None)


def wc_box(s: Scenario, box: BoxParams) -> WorstCaseResult:
    """V = L mean + (1-L) CVaR at level (U-1)/(U-L) over {L p <= q <= U p}."""
    if s.is_constant():
        return _degenerate(s, 0.0)
    if box.L == 1.0:
        return WorstCaseResult(
            epsilon=0.0, value=riskstats.mean(s), worst_q=s.probs.copy(), dual=None
        )
    g, tail = riskstats.cvar_fill(s, (box.U - 1.0) / (box.U - box.L))
    q = box.L * s.probs + (1.0 - box.L) * g
    value = box.L * riskstats.mean(s) + (1.0 - box.L) * riskstats.tail_cvar(s, tail)
    return WorstCaseResult(epsilon=0.0, value=value, worst_q=_clip_q(q), dual=None)


def wc_box_symmetric(s: Scenario, nu: float) -> WorstCaseResult:
    """Symmetric band U = 1/L = 1 + nu; slope at nu -> 0 is CVaR_{1/2} - mean."""
    _check_eps(nu)
    return replace(wc_box(s, BoxParams(L=1.0 / (1.0 + nu), U=1.0 + nu)), epsilon=nu)


# ---------------------------------------------------------------------------
# Value-only batches: V(eps) for each row of an (m, n) cost block
# ---------------------------------------------------------------------------
#
# Each row is one cost vector under the shared probabilities; rows must be
# finite. No worst_q or dual is built. The piecewise-linear families return
# exactly the scalar solver's value; modified chi-square uses the closed form
# of its active-set optimality conditions and KL a batched Newton tilt, which
# agree with wc_smooth_phi to within 1e-12 of the row's range.


def _by_row(costs: np.ndarray, probs: np.ndarray, solve) -> np.ndarray:
    """solve() on the non-constant rows; constant rows get their cost, as _degenerate does."""
    const = np.all(costs == costs[:, :1], axis=1)
    if not np.any(const):
        return solve(costs)
    out = np.empty(costs.shape[0])
    out[const] = costs[const, 0]
    if not np.all(const):
        out[~const] = solve(costs[~const])
    return out


def budgeted_values(costs: np.ndarray, probs: np.ndarray, eps: float) -> np.ndarray:
    """wc_budgeted(row, eps).value for each row, bit for bit."""
    _check_eps(eps)
    e = min(eps, _budget_saturation(probs))
    return _by_row(costs, probs, lambda f: riskstats.cvar_rows(f, probs, e / (1.0 + e)))


def combination_values(
    costs: np.ndarray, probs: np.ndarray, alpha: float, eps: float
) -> np.ndarray:
    """wc_combination(row, alpha, eps).value for each row, bit for bit."""
    if not (math.isfinite(eps) and 0.0 <= eps <= 1.0):
        raise EpsOutOfRange(f"combination mixing weight must be in [0,1], got {eps}")

    def solve(f):
        cv = riskstats.cvar_rows(f, probs, alpha)
        return (1.0 - eps) * riskstats.row_fsums(probs * f) + eps * cv

    return _by_row(costs, probs, solve)


def box_symmetric_values(costs: np.ndarray, probs: np.ndarray, nu: float) -> np.ndarray:
    """wc_box_symmetric(row, nu).value for each row, bit for bit."""
    _check_eps(nu)
    box = BoxParams(L=1.0 / (1.0 + nu), U=1.0 + nu)

    def solve(f):
        mean = riskstats.row_fsums(probs * f)
        if box.L == 1.0:
            return mean
        cv = riskstats.cvar_rows(f, probs, (box.U - 1.0) / (box.U - box.L))
        return box.L * mean + (1.0 - box.L) * cv

    return _by_row(costs, probs, solve)


def tv_values(costs: np.ndarray, probs: np.ndarray, eps: float) -> np.ndarray:
    """wc_tv(row, eps).value for each row, bit for bit: its strip, run across rows."""
    _check_eps(eps)
    e = min(eps, 2.0)

    def solve(f):
        order = np.argsort(-f, axis=1, kind="stable")
        q = probs[order]
        gain = np.minimum(0.5 * e, 1.0 - q[:, 0])
        q[:, 0] += gain
        _strip_cheapest(q, gain)
        return riskstats.row_fsums(q * np.take_along_axis(f, order, axis=1))

    return _by_row(costs, probs, solve)


def _chi2_prefix(g: np.ndarray, p: np.ndarray, eps: float):
    """(k, found, E_q g) per row of standardised costs sorted descending.

    Column k holds the prefix of the k + 1 costliest atoms. With them
    active, q_i = p_i (1/P_k + delta (g_i - mu_k)) on them and 0 elsewhere,
    where P_k, mu_k and W_k are the mass, the mean and the p-weighted sum of
    squared deviations of the active atoms. The divergence constraint gives
    delta^2 W_k = 2 eps - (1 - P_k)/P_k and E_q g = mu_k + sqrt(W_k (2 eps -
    (1 - P_k)/P_k)), the variance expansion of the chi-square ball (k = n - 1
    is the unclamped closed form). The optimum is the first k whose active
    tilts are >= 0 and whose next atom's tilt is <= 0; found is False on a
    row where no k passes.
    """
    rows = np.arange(g.shape[0])
    with np.errstate(all="ignore"):
        P = np.cumsum(p, axis=1)
        S = np.cumsum(p * g, axis=1)
        mu = S / P
        W = np.maximum(np.cumsum(p * g * g, axis=1) - S * mu, 0.0)
        # the mass left off the prefix, against the row's total rather than 1
        slack = 2.0 * eps - (P[:, -1:] - P) / P
        delta = np.sqrt(slack / W)
        base = 1.0 / P
        tol = 1e-12 * (base + delta)
        # atom k, the cheapest active one, keeps a nonnegative tilt ...
        ok = np.isfinite(delta) & (base + delta * (g - mu) >= -tol)
        # ... and atom k + 1 would get a nonpositive one
        ok[:, :-1] &= base[:, :-1] + delta[:, :-1] * (g[:, 1:] - mu[:, :-1]) <= tol[:, :-1]
        k = np.argmax(ok, axis=1)
        return k, ok[rows, k], mu[rows, k] + np.sqrt(W[rows, k] * slack[rows, k])


def _chi2_rows(raw: np.ndarray, probs: np.ndarray, eps: float) -> np.ndarray:
    """wc_chi2(row, eps).value per row; NaN where no active set passes or the range overflows.

    Each row is sorted, its costs centred at the row max and scaled by the
    row range, so the squares cannot overflow, and ``_chi2_prefix`` finds its
    active set and V from prefix sums; past the saturation divergence V is max f.
    """
    order = np.argsort(-raw, axis=1, kind="stable")
    f = np.take_along_axis(raw, order, axis=1)
    p = probs[order]
    with np.errstate(all="ignore"):
        top, scale = f[:, 0], f[:, 0] - f[:, -1]
        g = (f - top[:, None]) / scale[:, None]  # in [-1, 0]
        _, found, vg = _chi2_prefix(g, p, eps)
        value = np.where(found, top + scale * vg, np.nan)
        pm = np.sum(np.where(f == top[:, None], p, 0.0), axis=1)
        saturated = np.isfinite(scale) & _saturated(eps, 0.5 * (1.0 - pm) / pm)
    value[saturated] = top[saturated]
    return value


_KL_TOL = 1e-14
_KL_MAX_ITER = 100


def _kl_tilt(g: np.ndarray, probs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(E_q g, delta) of the KL tilt q ~ p exp(delta g) with D(q | p) = eps, per row of g.

    D(delta) = delta E_q g - log E_p exp(delta g) rises with delta, with
    D'(delta) = delta Var_q g (Ben-Tal et al. 2013). Newton runs across all
    rows from delta = sqrt(2 eps / Var_p g), the small-eps expansion, inside
    a per-row bracket [lo, hi]; a step that leaves the bracket bisects it,
    or doubles delta while hi is unbounded. Each row needs some g = 0 and
    g <= 0 elsewhere, so exp(delta g) <= 1 cannot overflow and the top atoms
    keep E_p exp(delta g) >= their mass. A row stops when |D - eps| is at
    most _KL_TOL eps plus the rounding of D's two terms, or when its
    bracket closes to adjacent doubles: at small eps the rounding of log Z
    can exceed that bound, and delta is then exact to its last bit. A row
    still open after _KL_MAX_ITER steps is NaN in both outputs.
    """
    out = np.full(g.shape[0], np.nan)
    out_delta = np.full(g.shape[0], np.nan)
    rows = np.arange(g.shape[0])
    lo = np.zeros(g.shape[0])
    hi = np.full(g.shape[0], np.inf)
    with np.errstate(all="ignore"):
        mean = g @ probs
        delta = np.sqrt(2.0 * eps / (((g - mean[:, None]) ** 2) @ probs))
        for _ in range(_KL_MAX_ITER):
            w = probs * np.exp(delta[:, None] * g)
            z = np.sum(w, axis=1)
            mean = np.sum(w * g, axis=1) / z
            first, log_z = delta * mean, np.log(z)
            resid = first - log_z - eps
            done = np.abs(resid) <= _KL_TOL * eps + 2.0**-51 * (np.abs(first) + np.abs(log_z))
            out[rows[done]] = mean[done]
            out_delta[rows[done]] = delta[done]
            keep = ~done
            if not np.any(keep):
                break
            rows, g, delta, lo, hi = rows[keep], g[keep], delta[keep], lo[keep], hi[keep]
            w, z, mean, resid = w[keep], z[keep], mean[keep], resid[keep]
            var = np.sum(w * (g - mean[:, None]) ** 2, axis=1) / z
            lo = np.where(resid < 0.0, delta, lo)
            hi = np.where(resid > 0.0, delta, hi)
            # lo and hi failed the stop already, so a row whose bracket holds no
            # other double never passes it: its delta is exact, the residual noise
            closed = ~(np.nextafter(lo, hi) < hi)
            out[rows[closed]] = mean[closed]
            out_delta[rows[closed]] = delta[closed]
            keep = ~closed
            rows, g, delta, lo, hi = rows[keep], g[keep], delta[keep], lo[keep], hi[keep]
            w, z, mean, resid, var = w[keep], z[keep], mean[keep], resid[keep], var[keep]
            step = delta - resid / (delta * var)
            fallback = np.where(np.isinf(hi), 2.0 * delta, 0.5 * (lo + hi))
            delta = np.where((lo < step) & (step < hi), step, fallback)
    return out, out_delta


def _kl_rows(raw: np.ndarray, probs: np.ndarray, eps: float) -> np.ndarray:
    """wc_smooth_phi(row, KL, eps).value per row; NaN if the range overflows or Newton stalls.

    Costs are standardised to g = (f - max f) / (max f - min f) in [-1, 0],
    the worst-case tilt q ~ p exp(delta g) is solved for every row at once
    (``_kl_tilt``), and V = max f + (max f - min f) E_q g. Past the
    saturation divergence -log(mass on the argmax atoms) V is max f.
    """
    top = np.max(raw, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = top - np.min(raw, axis=1)
    value = np.full(raw.shape[0], np.nan)
    _, _, saturated = _kl_saturation(raw, probs, eps)
    value[saturated] = top[saturated]
    tilt = np.flatnonzero(~saturated & np.isfinite(scale))
    if tilt.size:
        g = (raw[tilt] - top[tilt, None]) / scale[tilt, None]
        value[tilt] = top[tilt] + scale[tilt] * _kl_tilt(g, probs, eps)[0]
    return value


def phi_values(costs: np.ndarray, probs: np.ndarray, phi: PhiFunction, eps: float):
    """wc_smooth_phi(row, phi, eps).value for each row, to within 1e-12 of the row's range.

    None for a user phi, which has no row kernel. A built-in phi's kernel
    (``_chi2_rows``, ``_kl_rows``) solves every row at once; a row it leaves
    NaN goes to wc_smooth_phi, which standardises an overflowing range on
    f / 2 and ends in the nested bisection where the kernel fails again.
    """
    # by identity: a user phi may reuse a built-in's name with other math
    kernel = _chi2_rows if phi is MODIFIED_CHI2 else _kl_rows if phi is KL else None
    if kernel is None:
        return None
    _check_eps(eps)
    if eps == 0.0 or _unresolved(phi, eps):
        return _by_row(costs, probs, lambda f: riskstats.row_fsums(probs * f))
    value = _by_row(costs, probs, lambda f: kernel(f, probs, eps))
    for i in np.flatnonzero(np.isnan(value)):
        # wc_smooth_phi itself: it solves an overflowing range on f / 2, bit for bit
        value[i] = wc_smooth_phi(Scenario(costs=costs[i], probs=probs), phi, eps).value
    return value


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
    """Exact worst case of a ``families`` descriptor (Wasserstein reads s.points and s.curve)."""
    return family.worst_case(s, eps)
