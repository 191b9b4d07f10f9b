"""The exact L1-transport worst case against its 1-D strong dual, by brute force.

For a piecewise-linear cost f and atoms y_i with masses p_i,

    V(eps) = E_p f + min over lam >= lam_inf of
             lam eps + sum_i p_i max_t (f(t) - f(y_i) - lam |t - y_i|)^+

(Gao & Kleywegt 2016; Mohajerin Esfahani & Kuhn 2018), with t over the
knots and finite domain ends and lam_inf the growth of f toward an
infinite end. The objective is convex and piecewise linear in lam, so
``dual_oracle`` evaluates it at every pairwise breakpoint of the (distance,
gain) points and at lam_inf and keeps the least. It shares no code with
``wc_wasserstein_pl``'s envelope greedy, and ``transport_cost`` measures a
worst_q's distance from p by the 1-D CDF formula in exact rationals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wcs
from wcs import dro
from wcs.core import exact_sum
from wcs.errors import OutsideCostDomain, WcsError
from wcs.rng import SplitMix64


def _growth(cost) -> float:
    lo, hi = cost.domain
    rates = [0.0]
    if hi == math.inf:
        rates.append(cost.slopes[-1])
    if lo == -math.inf:
        rates.append(-cost.slopes[0])
    return max(rates)


def _moves(points, cost):
    """Per atom, the (distance, gain) of staying and of moving to each knot or finite end."""
    lo, hi = cost.domain
    targets = [t for t in {*cost.breakpoints, lo, hi} if math.isfinite(t) and lo <= t <= hi]
    return [
        [(0.0, 0.0)] + [(abs(t - y), cost.value(t) - cost.value(y)) for t in targets]
        for y in points
    ]


def _breakpoints(points, cost):
    """Every lam >= lam_inf where one atom's best move can change."""
    lam_inf = _growth(cost)
    out = {lam_inf}
    for row in _moves(points, cost):
        for (d1, g1), (d2, g2) in itertools.combinations(row, 2):
            if d1 != d2 and (g1 - g2) / (d1 - d2) >= lam_inf:
                out.add((g1 - g2) / (d1 - d2))
    return sorted(out)


def dual_oracle(points, probs, cost, eps: float) -> float:
    """V(eps) as the least dual objective over every breakpoint lam."""
    rows = _moves(points, cost)

    def objective(lam):
        return lam * eps + math.fsum(
            p * max(g - lam * d for d, g in row) for p, row in zip(probs, rows)
        )

    nominal = math.fsum(p * cost.value(y) for p, y in zip(probs, points))
    return nominal + min(objective(lam) for lam in _breakpoints(points, cost))


def capacities(points, probs, cost) -> list[float]:
    """The budgets where V(eps) kinks: the mean distance moved between two breakpoint lams."""
    rows = _moves(points, cost)
    lams = _breakpoints(points, cost)
    out = []
    for lam in [a + 0.5 * (b - a) for a, b in zip(lams, lams[1:])] + [lams[-1] + 1.0]:
        # the farthest of the best moves at lam
        far = [max(row, key=lambda m: (m[1] - lam * m[0], m[0]))[0] for row in rows]
        out.append(math.fsum(p * d for p, d in zip(probs, far)))
    return sorted(set(out))


def transport_cost(points, probs, support, q) -> Fraction:
    """The L1 transport cost from p to q: the integral of |F_p - F_q|, in exact rationals."""
    mass: dict[Fraction, Fraction] = {}
    for z, w in zip(points, probs):
        mass[Fraction(z)] = mass.get(Fraction(z), Fraction(0)) + Fraction(w)
    for z, w in zip(support, q):
        mass[Fraction(z)] = mass.get(Fraction(z), Fraction(0)) - Fraction(w)
    zs = sorted(mass)
    total, gap = Fraction(0), Fraction(0)
    for a, b in zip(zs, zs[1:]):
        gap += mass[a]
        total += abs(gap) * (b - a)
    return total


def _probs(rng: SplitMix64, n: int) -> list[float]:
    w = [rng.exponential(1.0) + 0.05 for _ in range(n)]
    total = math.fsum(w)
    return [v / total for v in w]


def _instances():
    """(points, probs, cost): newsvendor curves, interpolated costs and general curves."""
    rng = SplitMix64(2016)
    out = []
    for k in range(40):
        n = 1 + int(6 * rng.uniform())
        params = dro.NewsvendorParams(r=10.0, c=2.0, q=1.5 * rng.uniform(), s=[0.0, 4.0][k % 2])
        atoms = [0.0 if rng.uniform() < 0.15 else 50.0 * rng.uniform() for _ in range(n)]
        x = 75.0 * rng.uniform() if rng.uniform() < 0.9 else 0.0
        out.append((atoms, _probs(rng, n), dro.demand_cost_curve(params, x)))
    for _ in range(40):
        n = 1 + int(6 * rng.uniform())
        pts = sorted({round(20.0 * rng.uniform(), 3) for _ in range(n)})
        cost = wcs.interpolated_cost(pts, [rng.exponential(5.0) for _ in pts])
        out.append((pts, _probs(rng, len(pts)), cost))
    for k in range(40):
        n = 1 + int(6 * rng.uniform())
        knots = tuple(sorted({round(20.0 * rng.uniform() - 10.0, 2) for _ in range(1 + k % 4)}))
        slopes = tuple(8.0 * rng.uniform() - 4.0 for _ in range(len(knots) + 1))
        domain = [(-math.inf, math.inf), (-10.0, math.inf), (-math.inf, 10.0), (-10.0, 10.0)][k % 4]
        anchor = (knots[0], 3.0 * rng.uniform())
        cost = wcs.PiecewiseLinearCost(knots, slopes, anchor, domain)
        lo, hi = max(domain[0], -12.0), min(domain[1], 12.0)
        pts = sorted({lo + (hi - lo) * rng.uniform() for _ in range(n)})
        out.append((pts, _probs(rng, len(pts)), cost))
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("case", range(len(INSTANCES)))
def test_value_is_the_dual_optimum(case):
    points, probs, cost = INSTANCES[case]
    caps = capacities(points, probs, cost)
    budgets = {0.0, 1e-3, 2.0 * caps[-1] + 1.0, 100.0}
    for c in caps:
        budgets |= {c, c * (1.0 - 1e-9), c * (1.0 + 1e-9)}
    for eps in sorted(b for b in budgets if b >= 0.0):
        r = wcs.wc_wasserstein_pl(points, probs, cost, eps)
        want = dual_oracle(points, probs, cost, eps)
        assert abs(r.value - want) <= 1e-10 * (1.0 + abs(want)), (eps, r.value, want)
        if r.dual.attained:
            q = r.worst_q
            assert np.all(q >= 0.0) and abs(math.fsum(q.tolist()) - 1.0) <= 1e-12
            moved = transport_cost(points, probs, r.support_points, q)
            assert moved <= Fraction(eps) * (1 + Fraction(1, 10**12))
            assert exact_sum(q, r.support_costs) == r.value


class TestHandCase:
    """Demand [10, 20] with p 1/2 each, order 15, r 10, c 2, q 0, s 4."""

    params = dro.NewsvendorParams(r=10, c=2, q=0, s=4)

    def solve(self, eps):
        curve = dro.demand_cost_curve(self.params, 15.0)
        return wcs.wc_wasserstein_pl([10.0, 20.0], [0.5, 0.5], curve, eps)

    def test_the_second_atom_moves_at_eps_10(self):
        # atom 10 goes to 0 at ratio 10 (budget 5), then half of atom 20 at ratio 6.5
        r = self.solve(10.0)
        assert (r.value, r.dual.lam, r.dual.attained) == (-2.5, 6.5, True)
        assert exact_sum(r.worst_q, r.support_costs) == r.value

    def test_eps_0_is_the_nominal_at_the_sensitivity(self):
        r = self.solve(0.0)
        curve = dro.demand_cost_curve(self.params, 15.0)
        sens = wcs.wasserstein_sensitivity([10.0, 20.0], [0.5, 0.5], curve.ratio_from).value
        assert (r.value, r.dual.lam) == (-85.0, 10.0) and sens == 10.0

    def test_past_the_envelopes_the_growth_is_not_attained(self):
        # every atom sits at demand 0, none on the slope-s piece above the order
        r = self.solve(20.0)
        assert (r.value, r.dual.lam, r.dual.attained, r.clamped) == (50.0, 4.0, False, False)


def test_an_atom_on_the_last_piece_attains_the_growth():
    # f is flat below 0, rises 5 on [0, 1] and 2 beyond: the growth toward +inf is 2
    cost = wcs.PiecewiseLinearCost((0.0, 1.0), (0.0, 5.0, 2.0), (0.0, 0.0))
    r = wcs.wc_wasserstein_pl([-1.0, 3.0], [0.5, 0.5], cost, 10.0)
    # atom -1 moves to the knot 1 at ratio 2.5 (budget 1), and from there, on the last
    # piece, on to 19 with the other 9
    assert (r.value, r.dual.lam, r.dual.attained) == (25.0, 2.0, True)
    assert r.support_points.tolist() == [-1.0, 3.0, 19.0] and r.worst_q.tolist() == [0.0, 0.5, 0.5]


def test_flat_ends_clamp():
    cost = wcs.interpolated_cost([0.0, 1.0, 2.0], [1.0, 5.0, 3.0])
    r = wcs.wc_wasserstein_pl([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], cost, 10.0)
    assert r.clamped and r.dual.attained and r.dual.lam == 0.0 and r.value == 5.0


# ---------------------------------------------------------------------------
# Invariants of V in eps and in the curve
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def transport_problems(draw):
    k = draw(st.integers(0, 3))
    knots = sorted(set(draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))))
    slopes = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(knots) + 1, max_size=len(knots) + 1))
    domain = draw(st.sampled_from([(-math.inf, math.inf), (-12.0, math.inf), (-12.0, 12.0)]))
    points = sorted(set(draw(st.lists(st.floats(-11.0, 11.0), min_size=1, max_size=5))))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points)))
    anchor = (0.0, draw(st.floats(-5.0, 5.0)))
    total = math.fsum(weights)
    return points, [w / total for w in weights], tuple(knots), tuple(slopes), anchor, domain


def _tol(*values) -> float:
    return 1e-10 * (1.0 + max(abs(v) for v in values))


@PROPERTY_SETTINGS
@given(problem=transport_problems(), budgets=st.lists(st.floats(0.0, 20.0), min_size=3, max_size=6))
def test_value_rises_concavely_and_lam_falls(problem, budgets):
    points, probs, knots, slopes, anchor, domain = problem
    cost = wcs.PiecewiseLinearCost(knots, slopes, anchor, domain)
    eps = sorted(set(budgets))
    rs = [wcs.wc_wasserstein_pl(points, probs, cost, e) for e in eps]
    v = [r.value for r in rs]
    for a, b in zip(v, v[1:]):
        assert b >= a - _tol(a, b)
    for (e0, e1, e2), (v0, v1, v2) in zip(zip(eps, eps[1:], eps[2:]), zip(v, v[1:], v[2:])):
        # V(e1) lies on or above the chord from e0 to e2
        assert v1 >= v0 + (v2 - v0) * (e1 - e0) / (e2 - e0) - _tol(v0, v1, v2)
    lams = [r.dual.lam for r in rs]
    assert all(b <= a * (1.0 + 1e-12) + 1e-12 for a, b in zip(lams, lams[1:]))


@PROPERTY_SETTINGS
@given(
    problem=transport_problems(),
    eps=st.floats(0.0, 20.0),
    shift=st.floats(-100.0, 100.0),
    scale=st.floats(0.01, 100.0),
)
def test_value_shifts_and_scales_with_the_curve(problem, eps, shift, scale):
    points, probs, knots, slopes, (z0, f0), domain = problem

    def value(slopes, anchor_value):
        cost = wcs.PiecewiseLinearCost(knots, tuple(slopes), (z0, anchor_value), domain)
        return wcs.wc_wasserstein_pl(points, probs, cost, eps).value

    v = value(slopes, f0)
    assert value(slopes, f0 + shift) == pytest.approx(v + shift, abs=_tol(v, shift))
    scaled = value([scale * m for m in slopes], scale * f0)
    assert scaled == pytest.approx(scale * v, abs=scale * _tol(v))


def test_a_support_point_outside_the_cost_domain_is_typed():
    curve = dro.demand_cost_curve(dro.NewsvendorParams(r=10, c=2, q=0, s=4), 5.0)
    with pytest.raises(OutsideCostDomain) as exc:
        curve.ratio_from(-1.0)
    assert str(exc.value) == "support point -1.0 outside cost domain (0.0, inf)"
    assert isinstance(exc.value, WcsError)
    with pytest.raises(OutsideCostDomain) as exc:
        wcs.wc_wasserstein_pl([-1.0, 2.0], [0.5, 0.5], curve, 0.1)
    assert str(exc.value) == "support points outside cost domain (0.0, inf)"
    assert isinstance(exc.value, WcsError)


def test_a_move_whose_cost_underflows_keeps_the_nominal_at_eps_0():
    # p_i times a distance of 1e-323 rounds to 0: the segment costs nothing, and buys nothing at 0
    cost = wcs.interpolated_cost([0.0, 1e-323], [0.0, 1e-310])
    r = wcs.wc_wasserstein_pl([0.0, 1e-323], [0.1, 0.9], cost, 0.0)
    assert r.value == 0.9 * 1e-310 and r.worst_q.tolist() == [0.1, 0.9]
