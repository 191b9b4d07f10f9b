"""Independent brute-force verifiers.

Nothing in here shares code with the closed-form solvers it checks: the
simplex grid maximizer and the vertex enumerations are the provenance source
for derived expected values elsewhere in the test suite, and the
finite-difference estimator recovers sensitivities straight from exact value
functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Scenario, growth_value, validate
from .errors import (
    InvalidEpsSequence,
    InvalidOracleMode,
    NonMonotoneEstimates,
    ResolutionTooCoarse,
    UnknownPolytope,
)
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# Polytope descriptors for the vertex mode
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapPolytope:
    """{q : sum q = 1, lo <= q <= hi} (budgeted, box, combination, CVaR sets)."""

    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class TvPolytope:
    """{q in simplex : sum |q - p| <= eps} around the scenario's nominal p."""

    eps: float


def budgeted_polytope(s: Scenario, eps: float) -> CapPolytope:
    return CapPolytope(lo=np.zeros(s.n), hi=(1.0 + eps) * s.probs)


def cvar_polytope(s: Scenario, alpha: float) -> CapPolytope:
    return CapPolytope(lo=np.zeros(s.n), hi=s.probs / (1.0 - alpha))


def combination_polytope(s: Scenario, alpha: float, eps: float) -> CapPolytope:
    lo = (1.0 - eps) * s.probs
    return CapPolytope(lo=lo, hi=lo + eps * s.probs / (1.0 - alpha))


def box_polytope(s: Scenario, L: float, U: float) -> CapPolytope:
    return CapPolytope(lo=L * s.probs, hi=U * s.probs)


def _cap_vertices(poly: CapPolytope):
    n = poly.lo.shape[0]
    slack = 1.0 - math.fsum(poly.lo.tolist())
    for perm in itertools.permutations(range(n)):
        q = poly.lo.copy()
        budget = slack
        for i in perm:
            add = min(poly.hi[i] - poly.lo[i], budget)
            q[i] += add
            budget -= add
            if budget <= 0.0:
                break
        yield q


def _tv_vertices(poly: TvPolytope, p: np.ndarray):
    # every vertex has a single strictly-gaining atom; donors are stripped to
    # zero in some order with at most one partial, so saturating in every
    # order covers the whole vertex set
    n = p.shape[0]
    for r in range(n):
        others = [j for j in range(n) if j != r]
        budget_cap = min(0.5 * poly.eps, 1.0 - p[r])
        for perm in itertools.permutations(others):
            q = p.copy()
            q[r] += budget_cap
            need = budget_cap
            for j in perm:
                take = min(need, q[j])
                q[j] -= take
                need -= take
                if need <= 0.0:
                    break
            yield q


def brute_force_wc(
    s: Scenario,
    member: Optional[Callable[[np.ndarray], bool]] = None,
    resolution: Optional[float] = None,
    polytope: Optional[object] = None,
) -> float:
    """Maximize E_q(f) by brute force.

    Vertex mode (``polytope`` given): enumerates the polytope vertices
    obtained by saturating cap constraints in every order and returns the
    exact LP optimum. Grid mode (``member`` given): walks the simplex grid
    with the given step (default min(p)/20) and returns the best feasible
    grid value, exact to within resolution * range(f) of the true optimum.
    """
    if (member is None) == (polytope is None):
        raise InvalidOracleMode("pass exactly one of member= or polytope=")
    f = s.costs
    if polytope is not None:
        if isinstance(polytope, CapPolytope):
            verts = _cap_vertices(polytope)
        elif isinstance(polytope, TvPolytope):
            verts = _tv_vertices(polytope, s.probs)
        else:
            raise UnknownPolytope(f"unknown polytope descriptor {polytope!r}")
        return max(math.fsum((q * f).tolist()) for q in verts)

    step = resolution if resolution is not None else float(np.min(s.probs)) / 20.0
    if step > float(np.min(s.probs)) / 4.0:
        raise ResolutionTooCoarse(f"grid step {step} > min(p)/4 = {np.min(s.probs) / 4.0}")
    k = max(1, round(1.0 / step))
    best = -math.inf
    n = s.n

    def rec(prefix: list[int], left: int, depth: int):
        nonlocal best
        if depth == n - 1:
            q = np.array(prefix + [left], dtype=float) / k
            if member(q):
                best = max(best, math.fsum((q * f).tolist()))
            return
        for c in range(left + 1):
            rec(prefix + [c], left - c, depth + 1)

    rec([], k, 0)
    return best


# ---------------------------------------------------------------------------
# Finite-difference sensitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FdReport:
    estimate: float
    quotients: tuple[float, ...]
    eps: tuple[float, ...]


def fd_sensitivity(v: Callable[[float], float], growth: str, eps_seq) -> FdReport:
    """Extrapolate (V(eps) - V(0)) / g(eps) down a decreasing eps sequence.

    Concavity of V makes the eps-normalized quotient (V(eps) - V(0)) / eps
    non-increasing in eps; a violation beyond 1e-6 is an upstream bug and
    raises. (The sqrt-normalized quotient carries no such guarantee: a
    positively skewed tilt gives V = V0 + S sqrt(eps) + C eps with C > 0.)
    The estimate is the two-point Richardson limit of the last two reported
    quotients under the model quotient = S + C g(eps).
    """
    eps = [float(e) for e in eps_seq]
    if not eps or any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise InvalidEpsSequence("eps_seq must be positive and strictly decreasing")
    v0 = v(0.0)
    values = [v(e) for e in eps]
    linear = [(val - v0) / e for val, e in zip(values, eps)]
    for a, b in zip(linear, linear[1:]):
        # a at larger eps, b at smaller: concavity demands b >= a (within slack)
        if b < a - 1e-6 * max(1.0, abs(a)):
            raise NonMonotoneEstimates(
                f"eps-normalized quotients increased along eps: {a!r} -> {b!r}; "
                "V is not concave"
            )
    gs = [growth_value(growth, e) for e in eps]
    quot = [(val - v0) / g for val, g in zip(values, gs)]
    if len(quot) == 1:
        est = quot[0]
    else:
        s1, s2 = quot[-2], quot[-1]
        g1, g2 = gs[-2], gs[-1]
        est = (s2 * g1 - s1 * g2) / (g1 - g2)
    return FdReport(estimate=est, quotients=tuple(quot), eps=tuple(eps))


# ---------------------------------------------------------------------------
# Deviation-axiom checking
# ---------------------------------------------------------------------------


def random_scenario(
    rng: SplitMix64, n_lo: int = 2, n_hi: int = 6, min_prob: float = 0.0
) -> Scenario:
    """Costs uniform on [-10, 10], probs via normalized unit exponentials.

    ``min_prob`` rejection-samples away near-degenerate atoms; use it for
    finite-difference checks whose eps floor scales with min(p).
    """
    n = rng.randint(n_lo, n_hi)
    costs = [-10.0 + 20.0 * rng.uniform() for _ in range(n)]
    while True:
        e = [rng.exponential(1.0) for _ in range(n)]
        total = math.fsum(e)
        if all(v > 0.0 for v in e) and min(e) / total >= min_prob:
            break
    return validate(costs, [v / total for v in e])


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    counterexample: Optional[dict] = None


@dataclass(frozen=True)
class AxiomReport:
    nonnegativity: AxiomCheck
    zero_iff_constant: AxiomCheck
    homogeneity: AxiomCheck
    translation_invariance: AxiomCheck
    trials: int
    homogeneity_degree: float

    @property
    def all_passed(self) -> bool:
        return all(
            c.passed
            for c in (
                self.nonnegativity,
                self.zero_iff_constant,
                self.homogeneity,
                self.translation_invariance,
            )
        )


_BETAS = (0.5, 2.0, 7.0)
_SHIFTS = (-3.0, 0.0, 11.0)


def deviation_axioms(
    measure: Callable[[Scenario], float],
    trials: int,
    seed: int,
    homogeneity_degree: float = 1.0,
    rtol: float = 1e-8,
) -> AxiomReport:
    """Randomized check of the generalized-deviation axioms.

    Failures are data, not errors: each axiom reports pass/fail with the
    first counterexample found. ``homogeneity_degree`` is 1 for the
    square-root-growth and linear-growth measures, 2 for the penalty form.
    """
    rng = SplitMix64(seed)

    def ce(s: Scenario, **extra) -> dict:
        return {"costs": s.costs.tolist(), "probs": s.probs.tolist(), **extra}

    nonneg = zero_iff = homo = transl = None

    # constant probes and unit perturbations
    for const in (0.0, 1.0, -5.0):
        n = rng.randint(2, 6)
        s_const = validate([const] * n)
        val = measure(s_const)
        if abs(val) > rtol:
            zero_iff = zero_iff or ce(s_const, value=val, why="nonzero on constant costs")
        bumped = np.full(n, const)
        bumped[0] += 1.0
        s_bump = validate(bumped)
        if not measure(s_bump) > 0.0:
            zero_iff = zero_iff or ce(s_bump, value=measure(s_bump), why="zero on nonconstant costs")

    for _ in range(trials):
        s = random_scenario(rng)
        base = measure(s)
        if base < -rtol * (1.0 + abs(base)):
            nonneg = nonneg or ce(s, value=base)
        if not s.is_constant() and not base > 0.0:
            zero_iff = zero_iff or ce(s, value=base, why="zero on nonconstant costs")
        for beta in _BETAS:
            expected = beta**homogeneity_degree * base
            got = measure(s.with_costs(beta * s.costs))
            if abs(got - expected) > rtol * (1.0 + abs(expected)):
                homo = homo or ce(s, beta=beta, expected=expected, got=got)
        for a in _SHIFTS:
            got = measure(s.with_costs(a + s.costs))
            if abs(got - base) > rtol * (1.0 + abs(base)):
                transl = transl or ce(s, shift=a, expected=base, got=got)

    return AxiomReport(
        nonnegativity=AxiomCheck(nonneg is None, nonneg),
        zero_iff_constant=AxiomCheck(zero_iff is None, zero_iff),
        homogeneity=AxiomCheck(homo is None, homo),
        translation_invariance=AxiomCheck(transl is None, transl),
        trials=trials,
        homogeneity_degree=homogeneity_degree,
    )
