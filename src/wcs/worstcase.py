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

``wc_smooth_phi`` returns at the first of these rungs that holds, top to bottom:

1. eps not finite and >= 0: EpsOutOfRange;
2. constant costs: degenerate, V the common cost;
3. eps = 0 or too small to move V off E_p f (``_unresolved``): q = p;
4. standardise f to g;
5. modified chi-square with every atom active, unsorted, while the cheapest atom's
   tilt is >= 0: the all-atom piece of its one-dimensional dual (``_chi2_piece``);
6. past the saturation divergence: the point mass on the argmax atoms;
7. modified chi-square, sorted once: the costliest atoms keep mass, their count
   proposed by prefix sums and certified by its piece's root (``_chi2_dual``).
   Below saturation this always returns;
8. any other phi: one safeguarded Newton on delta (``_tilt`` by ``_newton``),
   with D'(delta) = delta sum p h (g - g_h)^2 for h the slope of [phi']^{-1};
   KL takes c in closed form, any other phi solves it by the same Newton. No
   delta found raises NoBracket.

The block readers (``*_reader``) return V(eps) for each row of a cost block
for the piecewise-linear families, by one rank-weighted kernel. The built-in
phis are picked here alone, by identity. The L1 transport worst case
(``wc_wasserstein_pl``) is exact at every eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    KL, MODIFIED_CHI2, PhiFunction, PiecewiseLinearCost, Scenario, exact_sum, sort_desc, validate,
)
from .errors import EpsOutOfRange, InvalidBoxParams, NoBracket, OutsideCostDomain
from . import riskstats

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
    """Transport multiplier lam, the slope last bought, and whether worst_q attains V."""

    lam: float
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
    # a copy even where no mass is negative: returning q itself then gives the same bits,
    # but measured on the n = 1e6 solvers it raised peak resident memory by about 5%
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

    def dual(self, delta: float, c: float, spread: float) -> SmoothPhiDual:
        return SmoothPhiDual(
            delta=delta / self.half / self.scale / spread, c=self.half * (self.scale * c - self.top)
        )


def _standardise(f: np.ndarray) -> _Standardised:
    half, top, bottom = 1.0, float(np.max(f)), float(np.min(f))
    if math.isinf(top - bottom):
        half, f, top, bottom = 2.0, f / 2.0, top / 2.0, bottom / 2.0
    return _Standardised(g=(f - top) / (top - bottom), top=top, scale=top - bottom, half=half)


def _tilted(
    st: _Standardised, q: np.ndarray, delta: float, c: float, eps: float, spread: float = 1.0
) -> WorstCaseResult:
    """The result for tilt q, in atom order, solved on st.g: multiplier delta / spread, shift c."""
    v = st.value(exact_sum(q, st.g))
    return WorstCaseResult(epsilon=eps, value=v, worst_q=_clip_q(q), dual=st.dual(delta, c, spread))


def _unresolved(phi: PhiFunction, eps: float) -> bool:
    """Whether eps is too small for any tilt to move V off E_p f by 2^-53 of the cost range.

    On g in [-1, 0], V - E_p f is about the range times sqrt(2 eps Var_p g / phi''(1))
    <= sqrt(eps / (2 phi''(1))), so below eps = 2^-105 phi''(1) the nominal p is the
    worst case to within rounding. There the tilt of the costliest atom rounds
    away, and a solve would only chase the rounding of sum p.
    """
    return eps < 2.0**-105 * phi.curvature


def _chi2_piece(g: np.ndarray, p: np.ndarray, k: int, floor: float, eps: float):
    """Modified chi-square's dual on the piece where the atoms g[:k] are active, floor their
    cheapest cost and p[k:] the mass of the rest.

    sup E_q g = inf_eta eta + r ||(g - eta)_+||_{2,p} for r^2 = 1 + 2 eps, with q = p (g -
    eta)_+ / A and A = E_p (g - eta)_+ (Ben-Tal et al. 2013; Duchi & Namkoong 2021). On the
    piece, eta = floor - spread t for the spread = -floor of the active costs, and r^2 A^2 =
    E_p (g - eta)_+^2 is a quadratic in t: its root is t = sqrt(W / slack) / P - mu, where P,
    mu and W are the active atoms' mass, mean offset and squared deviation in spread units,
    summed exactly, two-pass, and slack = 2 eps - (mass of the rest) / P. Every offset is >= 0
    and no square underflows. Returns t, inf where the piece has no root, and tilt(t): q on
    the active atoms, delta = 1 / A and c = -eta - A, both in the spread's units.
    """
    spread = -floor
    pa = p[:k]
    base = (g[:k] - floor) / spread
    total = exact_sum(pa)
    mu = exact_sum(pa, base) / total
    dev = base - mu
    dev *= dev
    slack = 2.0 * eps - exact_sum(p[k:]) / total
    root = math.sqrt(exact_sum(pa, dev) / slack) / total - mu if slack > 0.0 else math.inf

    def tilt(t):
        a = total * (mu + t)
        return pa * (base + t) / a, 1.0 / a, spread * (1.0 + t - a)

    return root, tilt


def _chi2_count(g: np.ndarray, p: np.ndarray, eps: float) -> int:
    """The active count prefix sums propose on standardised costs sorted descending: the
    atoms j with h'(g_j) > 0 for the dual h of ``_chi2_piece``.

    h is convex, with h'(g_j) = 1 - r A_j / sqrt(B_j), A_j and B_j the sums of p_i (g_i -
    g_j) and p_i (g_i - g_j)^2 over the atoms above j. Each grows from the last by terms >=
    0, so no prefix sum cancels. The top atoms (g = 0) count: there h' tends to 1 - r
    sqrt(their mass), > 0 below saturation.
    """
    step = g[:-1] - g[1:]
    mass = p[:-1].cumsum()
    a, b = np.zeros_like(g), np.zeros_like(g)
    a[1:] = (mass * step).cumsum()
    b[1:] = (step * (2.0 * a[:-1] + mass * step)).cumsum()
    return int(np.count_nonzero(g == 0.0)) + int(np.count_nonzero((1.0 + 2.0 * eps) * a * a < b))


def _chi2_dual(s: Scenario, st: _Standardised, eps: float) -> WorstCaseResult:
    """Modified chi-square's worst case on standardised costs, sorted once.

    ``_chi2_count`` proposes the active count k, and the piece of k (``_chi2_piece``)
    certifies it by a root t in [0, (g_k - g_{k+1}) / spread]: a stationary point of a
    convex h is its minimum. A root off the piece says on which side the count lies, and
    the counts are bisected; a root that rounds off every piece lies on a breakpoint.
    """
    srt = sort_desc(s)
    g, p = st.g[srt.order], srt.probs_desc
    n = g.size
    # counts known to be too few (the top atoms alone, below saturation), and the largest
    # count that may still hold the root
    lo, hi = int(np.count_nonzero(g == 0.0)), n
    k = min(max(_chi2_count(g, p, eps), lo + 1), hi)
    while True:
        spread = -float(g[k - 1])
        t, tilt = _chi2_piece(g, p, k, -spread, eps)
        gap = float(g[k - 1] - g[k]) / spread if k < n else math.inf
        if t > gap and k < hi:
            lo = k
        elif t < 0.0 and k - 1 > lo:
            hi = k - 1
        else:
            break
        k = (lo + 1 + hi) // 2
    qa, delta, c = tilt(min(max(t, 0.0), gap))
    q = np.zeros_like(p)
    q[:k] = qa
    return _tilted(st, srt.unsort(q), delta, c, eps, spread)


_TILT_TOL = 1e-14
# every solve closes within this many steps: x doubles past _DELTA_CAP or
# brackets its root, and a bisection from there reaches adjacent doubles
_NEWTON_STEPS = 4096


def _newton(x: float, lo: float, hi: float, at):
    """The root of a rising residual by safeguarded Newton from x in the bracket [lo, hi].

    at(x) returns the residual at x, its rounding noise, a slope() giving the
    residual's derivative there, and an output. A step that leaves the
    bracket bisects it, or doubles x while hi is unbounded. The solve stops
    when |residual| <= noise, or when the bracket closes to adjacent
    doubles: x is then exact to its last bit, and the residual is noise.
    Returns x and the output there, or None once x passes _DELTA_CAP
    unsolved or the step budget runs out.
    """
    for _ in range(_NEWTON_STEPS):
        resid, noise, slope, out = at(x)
        if resid < 0.0:
            lo = x
        elif resid > 0.0:
            hi = x
        if abs(resid) <= noise or not math.nextafter(lo, hi) < hi:
            return x, out
        if not x <= _DELTA_CAP:
            return None
        step = x - resid / slope()
        x = step if lo < step < hi else 2.0 * x if math.isinf(hi) else 0.5 * (lo + hi)
    return None


def _kl_moments(g: np.ndarray, probs: np.ndarray, eps: float):
    """``_newton``'s at for KL's delta: q ~ p exp(delta g) in closed form.

    D(delta) = delta E_q g - log Z with D'(delta) = delta Var_q g and c =
    -log Z / delta. g has some 0 and is <= 0 elsewhere, so exp(delta g) <= 1
    cannot overflow and Z stays >= the top atoms' mass. The noise is the
    rounding of D's two terms.
    """

    def at(delta):
        w = probs * np.exp(delta * g)
        z = w.sum()
        mean = (w * g).sum() / z
        first, log_z = delta * mean, np.log(z)
        noise = _TILT_TOL * eps + 2.0**-51 * (abs(first) + abs(log_z))

        def slope():
            return delta * ((w * (g - mean) ** 2).sum() / z)

        return first - log_z - eps, noise, slope, -log_z / delta

    return at


def _inverse_slope(phi: PhiFunction, zeta: np.ndarray) -> np.ndarray:
    """Slope of the clamped [phi']^{-1} at zeta: central difference, step 2^-26 (|zeta| + phi''(1))."""
    step = 2.0**-26 * (np.abs(zeta) + phi.curvature)
    return (phi.inverse_clamped(zeta + step) - phi.inverse_clamped(zeta - step)) / (2.0 * step)


def _phi_moments(phi: PhiFunction, g: np.ndarray, probs: np.ndarray, eps: float):
    """``_newton``'s at for the delta of any phi, with z = [phi']^{-1}(delta (g + c)).

    At each delta, c solves sum p z = 1 by the same safeguarded Newton on
    [0, 1] (g + c is <= 0 at c = 0 and >= 0 at c = 1), with slope delta
    sum p h, where h is the slope of [phi']^{-1}, to within 2^-52, the
    rounding of a sum near 1; it starts from the last c, first from -E_p g,
    the root as delta -> 0. D = sum p phi(z) is summed exactly, and
    D'(delta) = delta sum p h (g - g_h)^2 with g_h the h-weighted mean of g.
    h only steers the steps. D rounds by about 2^-51 phi''(1); a stop with D
    farther from eps than 1e-6 eps plus 8 times that found no tilt in the c
    bracket (Burg's phi' is bounded above, and past its pole the tilt clamps
    to 0), and its output is None, as it is where the c solve fails.
    """
    c = -(g * probs).sum()

    def at(delta):
        nonlocal c

        def mass(shift):
            zeta = delta * (g + shift)
            z = phi.inverse_clamped(zeta)

            def rate():
                return delta * (_inverse_slope(phi, zeta) * probs).sum()

            return (z * probs).sum() - 1.0, 2.0**-52, rate, z

        def slope():
            h = probs * _inverse_slope(phi, delta * (g + c))
            g_h = (h * g).sum() / h.sum()
            return delta * (h * (g - g_h) ** 2).sum()

        solved = _newton(c, 0.0, 1.0, mass)
        if solved is None:
            # a NaN c fails every later c solve at its first step, so no delta is found
            c = math.nan
            return math.nan, 0.0, slope, None
        c, z = solved
        d = exact_sum(probs, phi.value(z))
        missed = abs(d - eps) > 1e-6 * eps + 2.0**-48 * phi.curvature
        return d - eps, _TILT_TOL * eps, slope, None if missed else c

    return at


def _tilt(g: np.ndarray, probs: np.ndarray, phi: PhiFunction, eps: float):
    """(delta, c) of the phi tilt with D(q | p) = eps on standardised costs g, or None.

    Newton on delta (``_newton``) runs from delta = sqrt(2 eps / Var_p g)
    sqrt(phi''(1)), the small-eps expansion, inside the bracket [0, inf).
    KL's moments are closed-form (``_kl_moments``), any other phi solves c
    (``_phi_moments``). None where no delta is found: it passes _DELTA_CAP,
    the steps run out, D misses eps or the c solve fails.
    """
    with np.errstate(all="ignore"):
        mean = (g * probs).sum()
        delta = np.sqrt(2.0 * eps / ((g - mean) ** 2 * probs).sum()) * math.sqrt(phi.curvature)
        # by identity: a user phi may reuse a built-in's name with other math
        at = _kl_moments(g, probs, eps) if phi is KL else _phi_moments(phi, g, probs, eps)
        solved = _newton(delta, 0.0, math.inf, at)
    if solved is None or solved[1] is None:
        return None
    return float(solved[0]), float(solved[1])


def wc_smooth_phi(s: Scenario, phi: PhiFunction, eps: float) -> WorstCaseResult:
    """Exact worst case over the phi-divergence ball of radius eps, by the module's ladder."""
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
    chi2 = phi is MODIFIED_CHI2
    if chi2:
        # every atom active, without a sort, while the cheapest atom's tilt stays >= 0
        t, tilt = _chi2_piece(st.g, s.probs, s.n, -1.0, eps)
        if t >= 0.0:
            return _tilted(st, *tilt(t), eps)
    # the point mass on the argmax atoms once eps reaches its divergence: -log of their mass
    # for KL, (1 - mass) / (2 mass) for chi-square, mass phi(1 / mass) + (1 - mass) phi(0)
    # for any other phi, out of reach where phi(0) is inf or nan
    top = s.costs == s.costs.max()
    pm = exact_sum(s.probs[top])
    with np.errstate(all="ignore"):
        if phi is KL:
            d_sat = -np.log(pm)
        elif chi2:
            d_sat = 0.5 * (1.0 - pm) / pm
        else:
            d_sat = pm * phi.value(1.0 / pm) + (1.0 - pm) * phi.value(np.zeros_like(pm))
    if d_sat < np.inf and eps >= d_sat - 1e-9 * abs(d_sat):
        q = np.where(top, s.probs / pm, 0.0)
        return WorstCaseResult(
            epsilon=eps, value=float(np.max(s.costs)), worst_q=_clip_q(q), dual=None, clamped=True
        )
    if chi2:
        return _chi2_dual(s, st, eps)
    tilt = _tilt(st.g, s.probs, phi, eps)
    if tilt is None:
        raise NoBracket(
            f"found no delta in [0, {_DELTA_CAP}] meeting the divergence equation at eps={eps}"
        )
    delta, c = tilt
    if phi is KL:
        # q = p exp(delta g) / Z, with Z summed exactly
        w = s.probs * np.exp(delta * st.g)
        z = exact_sum(w)
        return _tilted(st, w / z, delta, -math.log(z) / delta, eps)
    return _tilted(st, s.probs * phi.inverse_clamped(delta * (st.g + c)), delta, c, eps)


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
    before = np.concatenate((need[:, None], -tail[:, :-1]), axis=1).cumsum(axis=1)
    covered = tail >= before
    width = tail.shape[1]
    t = np.where(covered.any(axis=1), covered.argmax(axis=1), width)
    tail[np.arange(width) < t[:, None]] = 0.0
    rows = (t < width).nonzero()[0]
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
    """The slope, its VaR atom found on the split near if it lies there."""
    beta = _budget_beta(eps) or 1.0  # the nominal mass the VaR atom's prefix reaches
    if isinstance(beta, tuple):  # below 2^-1022, rounded once
        beta = 1.0 / (1.0 + eps)
    tail = None if near is None else near.tail(s.probs, beta, strict=True)
    if tail is None:
        tail = riskstats.select_tail(s.costs, s.probs, beta, strict=True)
    return tail.excess(s.costs)


def _budget_saturation(probs: np.ndarray) -> float:
    """max_i (1/p_i - 1), the eps beyond which the cap set holds the whole simplex.

    fl(1/p) falls as p rises and fl(y - 1) rises with y, so the max is at the smallest p.
    """
    return 1.0 / float(probs.min()) - 1.0


def _fill_beta(level: float, num: float, den: float):
    """The tail mass of a CVaR fill at a level in [0, 1]: 1 - level (None at 0), or, where the level
    has rounded to 1, the tail mass num / den itself; below 2^-1022, where it would lose bits, as
    (num 2^64 / den, 64) for ``riskstats._fill_caps``."""
    if level < 1.0:
        return riskstats.cvar_beta(level)
    return num / den if num / den >= 2.0**-1022 else (math.ldexp(num, 64) / den, 64)


def _budget_beta(e: float):
    """The budgeted fill's tail mass 1/(1 + e), as 1 - e/(1 + e) until that level rounds to 1."""
    return _fill_beta(e / (1.0 + e), 1.0, 1.0 + e)


def wc_budgeted(s: Scenario, eps: float) -> WorstCaseResult:
    """Cap set 0 <= q <= (1+eps) p; V equals CVaR at level eps/(1+eps) exactly, or, where that
    level rounds to 1 below saturation, the CVaR fill of tail mass 1/(1+eps) (``_budget_beta``)."""
    _check_eps(eps)
    sat = _budget_saturation(s.probs)
    clamped = eps > sat
    e = min(eps, sat)
    if s.is_constant():
        return _degenerate(s, eps)
    q, tail = riskstats.beta_fill(s, _budget_beta(e))
    slope = 0.0 if clamped else _budgeted_slope(s, e, None if tail is None else tail.split)
    value = riskstats.tail_cvar(s, tail)
    return WorstCaseResult(
        epsilon=eps, value=value, worst_q=_clip_q(q), dual=BudgetedDual(slope=slope),
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# One nominal-CVaR mixture: the convex combination set and likelihood-ratio boxes
# ---------------------------------------------------------------------------


def _mixture(s: Scenario, keep: float, move: float, beta, eps: float) -> WorstCaseResult:
    """q = keep p + move g, g the CVaR fill of tail mass beta, and V = keep E_p f + move CVaR.

    Both weights are given, as 1 - (1 - eps) is not eps."""
    if s.is_constant():
        return _degenerate(s, eps)
    tail = riskstats.beta_tail(s, beta)
    q = keep * s.probs + move * (s.probs if tail is None else tail.fill())
    value = keep * riskstats.mean(s) + move * riskstats.tail_cvar(s, tail)
    return WorstCaseResult(epsilon=eps, value=value, worst_q=_clip_q(q), dual=None)


def _combination_terms(alpha, eps: float):
    """(keep, move, beta) of (1 - eps) {p} + eps (CVaR_alpha polytope)."""
    if not (math.isfinite(eps) and 0.0 <= eps <= 1.0):
        raise EpsOutOfRange(f"combination mixing weight must be in [0,1], got {eps}")
    return 1.0 - eps, eps, riskstats.cvar_beta(alpha)


def _box_terms(L: float, U: float):
    """(keep, move, beta) of {L p <= q <= U p}: L p + (1 - L) (the CVaR fill at level (U-1)/(U-L)).

    Past U ~ 2^53 (1 - L) that level rounds to 1, and beta is the fill's tail
    mass (1 - L)/(U - L) itself (``_fill_beta``).
    """
    if L == 1.0:
        return 1.0, 0.0, None
    return L, 1.0 - L, _fill_beta((U - 1.0) / (U - L), 1.0 - L, U - L)


def wc_combination(s: Scenario, alpha, eps: float) -> WorstCaseResult:
    """V = (1-eps) mean + eps CVaR_alpha over the shrunk CVaR polytope."""
    return _mixture(s, *_combination_terms(alpha, eps), eps)


def wc_box(s: Scenario, box: BoxParams) -> WorstCaseResult:
    """V = L mean + (1-L) CVaR at level (U-1)/(U-L) over {L p <= q <= U p}."""
    return _mixture(s, *_box_terms(box.L, box.U), 0.0)


def wc_box_symmetric(s: Scenario, nu: float) -> WorstCaseResult:
    """Symmetric band U = 1/L = 1 + nu; slope at nu -> 0 is CVaR_{1/2} - mean."""
    _check_eps(nu)
    return _mixture(s, *_box_terms(1.0 / (1.0 + nu), 1.0 + nu), nu)


# ---------------------------------------------------------------------------
# Block readers: V(eps) for each row of an (m, n) cost block
# ---------------------------------------------------------------------------
#
# Each row is one finite cost vector under the shared probabilities, and each
# value is the scalar solver's bit for bit. Every polytope worst q weighs the
# costs ranked descending by one vector w, a CVaR fill or TV's gain and strip.
# A reader is made once per (probs, eps); under uniform p so is w, and a read
# is one value sort per row and one exact dot, in which tied atoms trade ranks
# unseen (``riskstats.row_fsums`` is correctly rounded).


def _rank_reader(probs: np.ndarray, weigh, keep=None, move=None):
    """Reads <w, f sorted descending>, or keep E_p f + move that dot, of each row f of a block,
    w = weigh(p in f's rank order), which may write into its argument. A constant row reads its
    cost, as ``_degenerate`` gives, so at n = 1 no w is formed."""
    w = weigh(probs[None, :].copy()) if probs.size > 1 and (probs == probs[0]).all() else None

    def solve(f, up):
        if w is not None:
            dot = riskstats.row_fsums(w * up[:, ::-1])
        else:
            order = (-f).argsort(axis=1, kind="stable")
            dot = riskstats.row_fsums(weigh(probs[order]) * f[np.arange(f.shape[0])[:, None], order])
        return dot if keep is None else keep * riskstats.row_fsums(probs * f) + move * dot

    def read(costs: np.ndarray) -> np.ndarray:
        up = np.sort(costs, axis=1)  # values only, ascending
        const = up[:, 0] == up[:, -1]
        if not const.any():
            return solve(costs, up)
        out = costs[:, 0].copy()
        if not const.all():
            out[~const] = solve(costs[~const], up[~const])
        return out

    return read


def budgeted_reader(probs: np.ndarray, eps: float):
    """Reads wc_budgeted(row, eps).value of each row of a cost block, bit for bit."""
    _check_eps(eps)
    beta = _budget_beta(min(eps, _budget_saturation(probs)))
    return _rank_reader(probs, partial(riskstats.fill_rows, beta=beta))


def combination_reader(probs: np.ndarray, alpha, eps: float):
    """Reads wc_combination(row, alpha, eps).value of each row of a cost block, bit for bit."""
    keep, move, beta = _combination_terms(alpha, eps)
    return _rank_reader(probs, partial(riskstats.fill_rows, beta=beta), keep, move)


def box_symmetric_reader(probs: np.ndarray, nu: float):
    """Reads wc_box_symmetric(row, nu).value of each row of a cost block, bit for bit."""
    _check_eps(nu)
    keep, move, beta = _box_terms(1.0 / (1.0 + nu), 1.0 + nu)
    return _rank_reader(probs, partial(riskstats.fill_rows, beta=beta), keep, move)


def tv_reader(probs: np.ndarray, eps: float):
    """Reads wc_tv(row, eps).value of each row of a cost block, bit for bit: w gains
    min(eps/2, 1 - its mass) on the top rank, stripped from the bottom (``_strip_cheapest``)."""
    _check_eps(eps)

    def weigh(pr):
        gain = np.minimum(0.5 * min(eps, 2.0), 1.0 - pr[:, 0])
        pr[:, 0] += gain
        _strip_cheapest(pr, gain)
        return pr

    return _rank_reader(probs, weigh)


# ---------------------------------------------------------------------------
# Wasserstein (L1 transport) on scalar piecewise-linear costs
# ---------------------------------------------------------------------------


def wc_wasserstein_pl(points, probs, cost: PiecewiseLinearCost, eps: float) -> WorstCaseResult:
    """Exact sup E_q f over the q within L1 transport cost eps of p, by the 1-D strong dual
    (Gao & Kleywegt 2016; Mohajerin Esfahani & Kuhn 2018).

    Per unit of atom y_i's mass, the best gain f(z) - f(y_i) for distance |z - y_i| is the
    concave envelope over the knots and finite domain ends, and f grows at lam_inf toward an
    infinite end. Envelope segments steeper than lam_inf, costing p_i times their length, are
    bought steepest first; budget left buys lam_inf, attained by an atom on the last linear
    piece toward that end moved outward (else V is a supremum: ``attained`` False). ``lam``
    is the slope last bought; ``worst_q`` indexes ``support_points``, atoms first.
    """
    _check_eps(eps)
    ys = np.atleast_1d(np.asarray(points, dtype=float)).tolist()
    f = [cost.value(y) for y in ys]
    s = validate(f, probs)
    n, probs, (lo, hi), knots = s.n, s.probs.tolist(), cost.domain, cost.breakpoints
    if not all(lo <= y <= hi for y in ys):
        raise OutsideCostDomain(f"support points outside cost domain {cost.domain}")
    targets = sorted({t for t in (*knots, lo, hi) if lo <= t <= hi and math.isfinite(t)})
    f_t = [cost.value(t) for t in targets]
    # the infinite ends: (growth rate, direction, where the last linear piece there starts)
    ends = [(cost.slopes[-1], 1.0, max(knots, default=lo))] if hi == math.inf else []
    if lo == -math.inf:
        ends.append((-cost.slopes[0], -1.0, min(knots, default=hi)))
    lam_inf = float(max([0.0] + [rate for rate, _, _ in ends]))

    # each atom's envelope by a monotone chain over its gaining moves, nearest first, as
    # (distance, gain, target, slope into it) from the atom itself at the origin
    segments = []  # (slope, cost p_i * length, atom, target), each atom's in envelope order
    moves = list(zip(targets, f_t, range(len(targets))))
    for i, (y, fy, p) in enumerate(zip(ys, f, probs)):
        # only a move gaining more than lam_inf per distance can be a vertex bought
        gains = [(abs(t - y), ft - fy, j) for t, ft, j in moves if ft - fy > lam_inf * abs(t - y)]
        hull = [(0.0, 0.0, None, math.inf)]
        for d, g, j in sorted(gains):
            while d == hull[-1][0] or (g - hull[-1][1]) / (d - hull[-1][0]) >= hull[-1][3]:
                hull.pop()
            hull.append((d, g, j, (g - hull[-1][1]) / (d - hull[-1][0])))
        top = math.inf
        for (d0, *_), (d1, _, j, slope) in zip(hull, hull[1:]):
            top = min(top, slope)  # rounding may not steepen an envelope
            if top <= lam_inf:
                break
            segments.append((top, p * (d1 - d0), i, j))
    segments.sort(key=lambda seg: -seg[0])  # stable: each atom's bought in order
    # slot of each atom's mass: i itself, or n + the target its last bought segment reaches
    slot, k, spent = list(range(n)), 0, 0.0
    while k < len(segments) and spent + segments[k][1] < eps:
        spent += segments[k][1]
        slot[segments[k][2]] = n + segments[k][3]
        k += 1
    mass, extra, attained = probs[:], [], True
    leftover = eps - spent if k == len(segments) else 0.0
    if k < len(segments):
        # the segment bought in part moves a share w of its atom on; the share kept and the
        # share moved add back to p_i exactly (Sterbenz: the one subtracted is >= p_i / 2)
        _, cap, i, j = segments[k]
        w = min((eps - spent) / cap, 1.0) if cap else 0.0  # a cost that underflowed to 0
        mass[i] = probs[i] * (1.0 - w) if w <= 0.5 else probs[i] - probs[i] * w
        slot.append(n + j)
        mass.append(probs[i] - mass[i])
    elif leftover > 0.0 and lam_inf > 0.0:
        # an atom on the last linear piece toward a steepest end attains V, moved outward
        place = ys + targets
        on_last = [(sgn, i) for rate, sgn, edge in ends if rate == lam_inf for i in range(n)
                   if sgn * (place[slot[i]] - edge) >= 0.0]
        attained = bool(on_last)
        if attained:
            sgn, i = on_last[0]
            extra = [place[slot[i]] + sgn * leftover / probs[i]]
            slot[i] = n + len(targets)
    q = np.bincount(slot, weights=mass, minlength=n + len(targets) + len(extra))
    held = (q > 0.0) | (np.arange(q.size) < n)
    support_costs = np.array(f + f_t + [cost.value(z) for z in extra])[held]
    value = exact_sum(q[held], support_costs)
    degenerate = all(v == 0.0 for v in cost.slopes)
    return WorstCaseResult(
        epsilon=eps,
        value=value if attained else value + lam_inf * leftover,
        worst_q=q[held],
        dual=WassersteinDual(float(segments[k][0]) if k < len(segments) else lam_inf, attained),
        degenerate=degenerate,
        clamped=leftover > 0.0 and lam_inf == 0.0 and not degenerate,
        support_points=np.array(ys + targets + extra)[held],
        support_costs=support_costs,
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def worst_case(s: Scenario, family, eps: float) -> WorstCaseResult:
    """Exact worst case of a ``families`` descriptor (Wasserstein reads s.points and s.curve)."""
    return family.worst_case(s, eps)
