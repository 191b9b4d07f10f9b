import math
import tracemalloc

import numpy as np
import pytest

import wcs
from wcs import dro, oracle
from wcs.errors import LengthMismatch, NegativeDemand, NonConvergence, NonFiniteCost
from wcs.rng import SplitMix64

PARAMS = dro.NewsvendorParams(r=10, c=2, q=0, s=4)


def uniform_demand(atoms):
    return wcs.demand_scenario(atoms)


class TestNewsvendorCost:
    def test_examples(self):
        assert dro.newsvendor_cost(PARAMS, 15, 10) == pytest.approx(-70.0)
        assert dro.newsvendor_cost(PARAMS, 15, 20) == pytest.approx(-100.0)
        assert dro.newsvendor_cost(PARAMS, 10, 10) == pytest.approx(-80.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            dro.NewsvendorParams(r=10, c=11, q=0, s=0)  # c >= r
        with pytest.raises(ValueError):
            dro.NewsvendorParams(r=10, c=2, q=3, s=0)  # q >= c
        with pytest.raises(ValueError):
            dro.NewsvendorParams(r=10, c=2, q=0, s=-1)


class TestSaa:
    def test_seven_atom_example(self):
        d = uniform_demand([10, 20, 30, 40, 50, 60, 70])
        assert dro.saa_newsvendor(PARAMS, d) == 60.0

    def test_two_atom_example(self):
        assert dro.saa_newsvendor(PARAMS, uniform_demand([10, 20])) == 20.0

    def test_tiny_fractile_orders_min(self):
        p = dro.NewsvendorParams(r=10, c=10 - 1e-9, q=0, s=0)
        assert dro.saa_newsvendor(p, uniform_demand([5, 15, 25])) == 5.0

    def test_matches_critical_fractile_quantile(self):
        rng = SplitMix64(17)
        for _ in range(80):
            r = 1.0 + 9.0 * rng.uniform()
            c = r * (0.05 + 0.9 * rng.uniform())
            q = c * 0.9 * rng.uniform()
            s = 5.0 * rng.uniform()
            params = dro.NewsvendorParams(r=r, c=c, q=q, s=s)
            n = rng.randint(2, 9)
            d = uniform_demand(sorted(100.0 * rng.uniform() for _ in range(n)))
            assert dro.saa_newsvendor(params, d) == dro.demand_quantile(
                d, params.critical_fractile
            )


def _reference_quantile(demand, tau):
    """The quadratic definition: first sorted atom whose fsum prefix reaches tau."""
    order = np.argsort(demand.costs, kind="stable")
    for k in range(order.size):
        if math.fsum(demand.probs[order[: k + 1]].tolist()) >= tau:
            return float(demand.costs[order[k]])
    return float(demand.costs[order[-1]])


def _reference_saa(params, demand):
    """One fsum of p * f per candidate order, atoms and midpoints, ties to smaller x."""
    atoms = sorted(set(demand.costs.tolist()))
    xs = sorted(atoms + [0.5 * (a + b) for a, b in zip(atoms[:-1], atoms[1:])])
    def objective(x):
        f = np.array([dro.newsvendor_cost(params, x, y) for y in demand.costs])
        return math.fsum((demand.probs * f).tolist())

    vals = [objective(x) for x in xs]
    best = min(vals)
    return min(x for x, v in zip(xs, vals) if v <= best + 1e-12 * (1.0 + abs(best)))


class TestSaaBatch:
    def test_matches_the_per_candidate_objective(self):
        rng = SplitMix64(23)
        for trial in range(30):
            n = 1 + trial * 3
            if trial % 3 == 0:  # many ties
                atoms = [float(math.floor(40.0 * rng.uniform())) for _ in range(n)]
            else:
                atoms = [100.0 * rng.uniform() for _ in range(n)]
            w = [0.2 + rng.uniform() for _ in range(n)]
            probs = [v / math.fsum(w) for v in w] if trial % 2 else None
            demand = wcs.validate(atoms, probs)
            c, s = 1.0 + 8.0 * rng.uniform(), 4.0 * rng.uniform()
            params = dro.NewsvendorParams(r=10.0, c=c, q=0.5, s=s)
            assert dro.saa_newsvendor(params, demand) == _reference_saa(params, demand)

    def test_demand_quantile_matches_the_quadratic_search(self):
        rng = SplitMix64(29)
        for trial in range(40):
            n = 1 + trial % 9
            w = [0.2 + rng.uniform() for _ in range(n)]
            probs = [v / math.fsum(w) for v in w] if trial % 2 else None
            demand = wcs.validate([float(math.floor(5.0 * rng.uniform())) for _ in range(n)], probs)
            cum = np.cumsum(np.sort(demand.probs))
            # the exact cumulative masses, the points between them, and both ends
            taus = [0.0, 1.0, 1.0 + 1e-9, *cum.tolist(), *(cum - 1e-17).tolist(), rng.uniform()]
            for tau in taus:
                assert dro.demand_quantile(demand, tau) == _reference_quantile(demand, tau)
        quarters = wcs.validate([4.0, 1.0, 3.0, 2.0])
        taus = (0.25, 0.5, 0.75, 1.0)
        assert [dro.demand_quantile(quarters, t) for t in taus] == [1.0, 2.0, 3.0, 4.0]

    def test_large_n_needs_no_n_by_n_array(self, monkeypatch):
        # every atom and midpoint at n = 1e4 is 2e4 cost rows, 1.6 GB as one array
        demand = wcs.demand_scenario(dro.gen_mixture_demand(10_000, seed=42))
        rows = []
        cost_vec = dro._newsvendor_cost_vec

        def counted(params, x, ys):
            rows.append(np.size(x))
            return cost_vec(params, x, ys)

        monkeypatch.setattr(dro, "_newsvendor_cost_vec", counted)
        tracemalloc.start()
        try:
            x = dro.saa_newsvendor(PARAMS, demand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert sum(rows) <= 4 * math.ceil(math.log2(2 * demand.n))
        assert x == dro.demand_quantile(demand, PARAMS.critical_fractile)

    def test_adjacent_double_atoms(self):
        # the midpoint of two adjacent doubles is one of them: a repeated
        # candidate must not read as a flat minimum and stop the search early
        params = dro.NewsvendorParams(r=10.0, c=0.5, q=0.0, s=100.0)
        for pair in ([3.0, 3.0000000000000004], [0.1 + 0.2, 0.3], [1.0, math.nextafter(1.0, 2.0)]):
            for rest in ([1.0 / 3.0, 2.0, 100.0], [0.5, 50.0, 60.0, 100.0]):
                demand = uniform_demand(pair + rest)
                x = dro.saa_newsvendor(params, demand)
                assert x == dro.demand_quantile(demand, params.critical_fractile) == 100.0
                assert x == _reference_saa(params, demand)


def _reference_scan(params, demand, family, eps):
    """dro_newsvendor with one scalar worst case per candidate order."""

    def argmin(xs, vals):
        best = min(vals)
        return min(x for x, v in zip(xs, vals) if v <= best + 1e-12 * (1.0 + abs(best)))

    def value(x):
        return wcs.worst_case(dro.cost_scenario(params, demand, x), family, eps).value

    atoms = np.unique(demand.costs)
    hi = 1.5 * float(np.max(atoms))
    cands = set(np.linspace(0.0, hi, 400).tolist()) | set(atoms.tolist())
    if family.piecewise_linear and atoms.size <= 200:
        r, q, s = params.r, params.q, params.s
        for i in range(atoms.size):
            for j in range(i + 1, atoms.size):
                yi, yj = float(atoms[i]), float(atoms[j])
                x = (s * yj + (r - q) * yi) / (r + s - q)
                if yi < x < yj and 0.0 <= x <= hi:
                    cands.add(x)
    xs = sorted(cands)
    x1 = argmin(xs, [value(x) for x in xs])
    pitch = hi / 399.0
    local = np.linspace(max(0.0, x1 - pitch), min(hi, x1 + pitch), 40)
    xs2 = np.unique(np.append(local, x1)).tolist()
    x_star = argmin(xs2, [value(x) for x in xs2])
    return x_star, value(x_star)


def _pairwise_crossings(params, atoms):
    """Every x strictly inside (yi, yj) where the cost lines of atoms yi < yj cross."""
    r, q, s = params.r, params.q, params.s
    i, j = np.triu_indices(atoms.size, k=1)
    yi, yj = atoms[i], atoms[j]
    x = (s * yj + (r - q) * yi) / (r + s - q)
    return x[(yi < x) & (x < yj)]


class TestBatchedScan:
    """No family's V(x*) exceeds a grid scan's V, one scalar worst case per candidate.

    The piecewise-linear families are searched over the kinks of V, so
    their x* is moreover a kink.
    """

    @pytest.mark.parametrize(
        "family",
        [
            wcs.Budgeted(),
            wcs.TotalVariation(),
            wcs.Combination(0.7),
            wcs.SymmetricBox(),
            wcs.SmoothPhi(),
            pytest.param(wcs.SmoothPhi(wcs.KL), id="phi-kl"),
        ],
        ids=lambda f: f.name,
    )
    def test_matches_the_per_candidate_scan(self, family):
        rng = SplitMix64(37)
        for n in (3, 24, 300):
            atoms = [rng.exponential(10.0 if rng.uniform() < 0.9 else 100.0) for _ in range(n)]
            w = [0.05 + rng.exponential(1.0) for _ in range(n)]
            demand = wcs.validate(atoms, [v / math.fsum(w) for v in w])
            q, s = 0.5 * rng.uniform(), 4.0 * rng.uniform()
            params = dro.NewsvendorParams(r=10.0, c=2.0, q=q, s=s)
            eps = 0.6 if family.name == "combo" else 0.25 + rng.uniform()
            sol = dro.dro_newsvendor(params, demand, family, eps)
            x_ref, v_ref = _reference_scan(params, demand, family, eps)
            assert sol.worst_case.value <= v_ref + 1e-12 * (1.0 + abs(v_ref)), n
            if not family.piecewise_linear:
                continue
            atoms = np.unique(demand.costs)
            kinks = np.concatenate([atoms, _pairwise_crossings(params, atoms)])
            assert sol.x in kinks.tolist(), n

    def test_overflowing_candidate_is_rejected(self):
        with pytest.raises(NonFiniteCost):
            dro.dro_newsvendor(PARAMS, wcs.validate([1e308, 1.0]), wcs.Budgeted(), 0.5)


PL_FAMILIES = [wcs.Budgeted(), wcs.TotalVariation(), wcs.Combination(0.7), wcs.SymmetricBox()]


def _values(params, demand, family, eps, xs):
    """V at each order in xs, through the family's batched values on explicit cost rows."""
    out = []
    for k in range(0, len(xs), 64):
        rows = [dro.cost_scenario(params, demand, float(x)).costs for x in xs[k : k + 64]]
        out.extend(family.worst_values(np.array(rows), demand.probs, eps).tolist())
    return np.array(out)


class TestKinkSearch:
    """The piecewise-linear families: the smallest exact minimizer over V's kinks, certified."""

    @pytest.mark.parametrize("s", [0.0, 4.0])
    @pytest.mark.parametrize("family", PL_FAMILIES, ids=lambda f: f.name)
    def test_matches_a_dense_kink_scan(self, family, s):
        demand = wcs.demand_scenario(dro.gen_mixture_demand(1000, seed=42))
        params = dro.NewsvendorParams(r=10.0, c=2.0, q=0.5, s=s)
        eps = 0.6 if family.name == "combo" else 0.3
        sol = dro.dro_newsvendor(params, demand, family, eps)
        atoms = np.unique(demand.costs)
        hi = 1.5 * float(atoms[-1])
        # at s = 0 every crossing is an atom in exact arithmetic
        cross = _pairwise_crossings(params, atoms) if s > 0.0 else np.array([])
        kinks = np.unique(np.concatenate([[0.0, hi], atoms, cross]))
        # dense near x*: every kink within six atoms of it; sparse elsewhere
        near = np.searchsorted(atoms, sol.x)
        lo, top = atoms[max(near - 6, 0)], atoms[min(near + 6, atoms.size - 1)]
        dense = (kinks >= lo) & (kinks <= top)
        dense[::499] = True
        xs = kinks[dense]
        vals = _values(params, demand, family, eps, xs)
        best = float(np.min(vals))
        level = best + 1e-12 * (1.0 + abs(best))
        v = sol.worst_case.value
        assert v <= level
        assert sol.x == float(np.min(xs[vals <= level]))
        # the bracket is x*'s two neighbours in the kink set; the slopes are V's there
        i = int(np.searchsorted(kinks, sol.x))
        assert kinks[i] == sol.x
        assert sol.bracket == (kinks[i - 1], kinks[i + 1])
        v_left, v_right = _values(params, demand, family, eps, sol.bracket)
        gaps = (sol.x - kinks[i - 1], kinks[i + 1] - sol.x)
        assert sol.slopes == ((v - v_left) / gaps[0], (v_right - v) / gaps[1])
        # and they certify: V falls into x* and does not fall after it
        assert sol.slopes[0] * gaps[0] < -1e-12 * (1.0 + abs(v))
        assert sol.slopes[1] * gaps[1] >= -1e-12 * (1.0 + abs(v))

    def test_flat_minimum_returns_the_smallest_order(self):
        # s = 0 and eps = 0.6: the worst case puts 0.2 = (c - q)/(r + s - q) on the
        # demand above the order, so V is flat on [10, 20]
        params = dro.NewsvendorParams(r=10, c=2, q=0, s=0)
        sol = dro.dro_newsvendor(params, uniform_demand([10.0, 20.0]), wcs.Budgeted(), 0.6)
        assert sol.x == 10.0
        assert sol.bracket == (0.0, 20.0)
        assert sol.slopes[0] < 0.0 and abs(sol.slopes[1]) <= 1e-12

    def test_flat_minimum_across_atoms_returns_the_smallest_order(self):
        # the atoms at 0 and 1000 carry the whole worst case, 1/7 = (c - q)/(r + s - q)
        # of it above the order, for every order from the crossing of the 0 and 60
        # lines up to that of the 0 and 1000 lines: V is flat across 40, 50 and 60
        demand = wcs.validate([0.0, 40.0, 50.0, 60.0, 1000.0], [0.5, 1 / 7, 1 / 7, 1 / 7, 1 / 14])
        sol = dro.dro_newsvendor(PARAMS, demand, wcs.Budgeted(), 1.0)
        assert sol.x == (4.0 * 60.0 + 10.0 * 0.0) / 14.0
        assert sol.bracket == ((4.0 * 50.0) / 14.0, 40.0)
        flat = [dro.cost_scenario(PARAMS, demand, x) for x in (40.0, 50.0, 60.0, 200.0)]
        for s in flat:
            v = wcs.worst_case(s, wcs.Budgeted(), 1.0).value
            assert v == pytest.approx(sol.worst_case.value, abs=1e-12 * abs(v))

    @pytest.mark.parametrize("family", PL_FAMILIES, ids=lambda f: f.name)
    def test_near_atom_crossings_are_dropped_at_s_zero(self, family):
        # at s = 0 the crossing formula returns each low atom up to rounding; such
        # a point is no kink, and as a bracket end it would make the slopes noise
        params = dro.NewsvendorParams(r=10, c=2, q=0.7, s=0)
        demand = wcs.demand_scenario(dro.gen_mixture_demand(100, seed=4))
        atoms = np.unique(demand.costs)
        assert np.count_nonzero(~np.isin(_pairwise_crossings(params, atoms), atoms)) > 0
        assert dro._crossings(params, atoms, 0.0, 1.5 * float(atoms[-1])).size == 0
        for eps in (0.1, 0.3, 0.5, 0.8):
            sol = dro.dro_newsvendor(params, demand, family, eps)
            grid = [0.0, *atoms.tolist()]
            assert sol.x in grid and sol.bracket[0] in grid and sol.bracket[1] in grid
            vals = _values(params, demand, family, eps, atoms)
            best = float(np.min(vals))
            assert sol.worst_case.value <= best + 1e-12 * (1.0 + abs(best))

    @pytest.mark.parametrize("family", PL_FAMILIES, ids=lambda f: f.name)
    def test_overflow_at_the_range_end_is_rejected(self, family):
        # r x overflows only for orders near 1.5 max y, which the bisection need not visit
        params = dro.NewsvendorParams(r=100.0, c=1.0, q=0.0, s=1.0)
        with pytest.raises(NonFiniteCost):
            dro.dro_newsvendor(params, wcs.demand_scenario([14.0, 23.0, 75.0, 3e307]), family, 0.3)

    @pytest.mark.parametrize("family", [wcs.SmoothPhi(), wcs.SmoothPhi(wcs.KL)], ids=["chi2", "kl"])
    def test_scanned_families_bracket_their_choice(self, family):
        demand = wcs.demand_scenario(dro.gen_mixture_demand(60, seed=3))
        sol = dro.dro_newsvendor(PARAMS, demand, family, 0.4)
        (lo, hi), (s_left, s_right) = sol.bracket, sol.slopes
        assert lo < sol.x < hi and s_left <= 0.0 <= s_right
        values = _values(PARAMS, demand, family, 0.4, [lo, sol.x, hi])
        v_left, v, v_right = values
        assert (s_left, s_right) == ((v - v_left) / (sol.x - lo), (v_right - v) / (hi - sol.x))
        saa = dro.dro_newsvendor(PARAMS, demand, family, 0.0)
        assert saa.bracket is None and saa.slopes is None

    @pytest.mark.parametrize("family", [wcs.Budgeted(), wcs.TotalVariation()], ids=lambda f: f.name)
    def test_large_n_needs_no_all_pairs_array(self, family):
        # all pairs at n = 1e4 are 5e7 crossings, 400 MB per float array
        demand = wcs.demand_scenario(dro.gen_mixture_demand(10_000, seed=7))
        tracemalloc.start()
        try:
            sol = dro.dro_newsvendor(PARAMS, demand, family, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert sol.slopes[0] <= 0.0 <= sol.slopes[1]


class TestRefinedSearch:
    """Smooth phi: the best kink, refined inside its bracket; Wasserstein: its exact kinks."""

    @pytest.mark.parametrize("s", [0.0, 4.0])
    @pytest.mark.parametrize("family", [wcs.SmoothPhi(), wcs.SmoothPhi(wcs.KL)], ids=["chi2", "kl"])
    def test_bracket_holds_the_minimum_of_a_dense_scan(self, family, s):
        demand = wcs.demand_scenario(dro.gen_mixture_demand(1000, seed=42))
        params = dro.NewsvendorParams(r=10.0, c=2.0, q=0.5, s=s)
        sol = dro.dro_newsvendor(params, demand, family, 0.3)
        (lo, hi), v = sol.bracket, sol.worst_case.value
        assert lo < sol.x < hi and sol.slopes[0] <= 0.0 <= sol.slopes[1]
        atoms = np.unique(demand.costs)
        # every atom, a grid over the range, and a fine grid over the bracket
        grid = np.linspace(0.0, 1.5 * float(atoms[-1]), 1000)
        xs = np.unique(np.concatenate([atoms, grid, np.linspace(lo, hi, 101)]))
        vals = _values(params, demand, family, 0.3, xs)
        best = float(np.min(vals))
        assert lo <= xs[np.argmin(vals)] <= hi
        assert v <= best + 1e-12 * (1.0 + abs(best))

    def test_wasserstein_is_no_worse_than_a_grid(self):
        def value(params, demand, eps, x):
            curve = dro.demand_cost_curve(params, float(x))
            return wcs.wc_wasserstein_pl(demand.costs, demand.probs, curve, eps).value

        def grid_minimum(params, demand, eps):
            """The least V over the atoms, 400 orders on the range and 40 around the best."""
            hi = 1.5 * float(np.max(demand.costs))
            xs = np.union1d(demand.costs, np.linspace(0.0, hi, 400))
            vals = [value(params, demand, eps, x) for x in xs]
            x1 = xs[int(np.argmin(vals))]
            local = np.linspace(max(0.0, x1 - hi / 399.0), min(hi, x1 + hi / 399.0), 40)
            return min(vals + [value(params, demand, eps, x) for x in local])

        rng = SplitMix64(53)
        demands = [wcs.demand_scenario([rng.exponential(30.0) for _ in range(n)]) for n in (1, 2, 5, 12)]
        # atoms at zero demand: the multiplier's kink sits at the smallest positive atom
        demands += [uniform_demand([0.0, 10.0]), uniform_demand([0.0, 0.0, 3.0, 12.0])]
        for demand in demands:
            n = demand.n
            for s in (0.0, 4.0):
                params = dro.NewsvendorParams(r=10.0, c=2.0, q=0.5 * rng.uniform(), s=s)
                # at large eps the best order falls below min y, where V is not convex
                for eps in (0.05, 0.5, 2.0, 10.0, 50.0):
                    sol = dro.dro_newsvendor(params, demand, wcs.WassersteinL1(), eps)
                    v_ref = grid_minimum(params, demand, eps)
                    tol = 1e-12 * (1.0 + abs(v_ref))
                    assert sol.worst_case.value <= v_ref + tol, (n, s, eps)
                    # V is linear between the searched kinks: its one-sided slopes at x*
                    (lo, hi), (s_left, s_right) = sol.bracket, sol.slopes
                    assert s_left <= 0.0 and (hi == sol.x or s_right * (hi - sol.x) >= -tol)


class TestDroNewsvendor:
    def test_two_atom_budgeted_worked_instance(self):
        d = uniform_demand([10, 20])
        sol = dro.dro_newsvendor(PARAMS, d, wcs.Budgeted(), 1.0)
        assert sol.x == pytest.approx(90.0 / 7.0, abs=1e-9)
        assert sol.worst_case.value == pytest.approx(-520.0 / 7.0, abs=1e-9)

    def test_eps_zero_equals_saa_for_every_family(self):
        d = uniform_demand([10, 20, 35])
        x0 = dro.saa_newsvendor(PARAMS, d)
        fams = [
            wcs.SmoothPhi(wcs.MODIFIED_CHI2),
            wcs.SmoothPhi(wcs.KL),
            wcs.TotalVariation(),
            wcs.Budgeted(),
            wcs.Combination(0.5),
            wcs.SymmetricBox(),
            wcs.WassersteinL1(None),
        ]
        for fam in fams:
            assert dro.dro_newsvendor(PARAMS, d, fam, 0.0).x == x0

    def test_wasserstein_small_eps_keeps_saa(self):
        d = uniform_demand([10, 20, 30, 40])
        x0 = dro.saa_newsvendor(PARAMS, d)
        for eps in (0.01, 0.1):
            sol = dro.dro_newsvendor(PARAMS, d, wcs.WassersteinL1(None), eps)
            assert sol.x == pytest.approx(x0, abs=1e-9)

    def test_wasserstein_sensitivity_constant_in_x(self):
        d = uniform_demand([10, 20, 30, 40, 50])
        lo, hi = 10.0, 50.0
        for x in np.linspace(lo + 0.5, hi - 0.5, 20):
            rep = wcs.wasserstein_sensitivity(
                d.costs, d.probs, dro.demand_cost_curve(PARAMS, float(x)).ratio_from
            )
            assert rep.value == max(PARAMS.r - PARAMS.q, PARAMS.s)


class TestCostScenario:
    def test_keeps_demand_probabilities(self):
        d = wcs.validate([10.0, 20.0, 35.0], [0.2, 0.3, 0.5])
        s = dro.cost_scenario(PARAMS, d, 15.0)
        assert s.probs is d.probs
        assert s.costs.tolist() == [dro.newsvendor_cost(PARAMS, 15.0, y) for y in (10, 20, 35)]

    def test_overflowing_cost_is_rejected(self):
        # r * min(x, y) overflows to -inf for demand near the float limit
        d = wcs.validate([1e308, 1.0])
        with pytest.raises(NonFiniteCost):
            dro.cost_scenario(PARAMS, d, 1e308)


def _kink_set(params, atoms, hi):
    """0, hi, the demand atoms, and every x in (0, hi) where two scenario costs cross.

    Found independently of the solver: on each interval between consecutive
    breakpoints both cost lines are linear in x, so a sign change of their
    difference is located by linear interpolation.
    """
    kinks = {0.0, hi, *atoms.tolist()}
    for i in range(atoms.size):
        for j in range(i + 1, atoms.size):
            yi, yj = float(atoms[i]), float(atoms[j])
            grid = sorted({0.0, hi, yi, yj})

            def diff(x):
                return dro.newsvendor_cost(params, x, yi) - dro.newsvendor_cost(params, x, yj)

            for a, b in zip(grid[:-1], grid[1:]):
                da, db = diff(a), diff(b)
                if da * db < 0.0:
                    kinks.add(a - da * (b - a) / (db - da))
    return sorted(kinks)


ORACLE_POLYTOPES = {
    "budgeted": (wcs.Budgeted(), lambda s, eps: oracle.budgeted_polytope(s, eps)),
    "tv": (wcs.TotalVariation(), lambda s, eps: oracle.TvPolytope(eps)),
    "combo": (wcs.Combination(0.7), lambda s, eps: oracle.combination_polytope(s, 0.7, eps)),
    "box": (
        wcs.SymmetricBox(),
        lambda s, eps: oracle.box_polytope(s, 1.0 / (1.0 + eps), 1.0 + eps),
    ),
}


class TestNewsvendorAgainstOracle:
    """V(x*) is the minimum over the kinks of the vertex-enumerated V(x).

    For the polytope families V(x) is piecewise linear in x with kinks only
    where the cost order of the scenarios changes, so its minimum on
    [0, 1.5 max y] sits on the kink set.
    """

    @pytest.mark.parametrize("fkey", list(ORACLE_POLYTOPES))
    def test_reported_value_is_the_oracle_minimum(self, fkey):
        family, polytope = ORACLE_POLYTOPES[fkey]
        rng = SplitMix64(31)
        for trial in range(6):
            r = 2.0 + 8.0 * rng.uniform()
            c = r * (0.1 + 0.8 * rng.uniform())
            params = dro.NewsvendorParams(r=r, c=c, q=c * 0.9 * rng.uniform(), s=5.0 * rng.uniform())
            n = 2 + trial % 5
            atoms = [100.0 * rng.uniform() for _ in range(n)]
            probs = None
            if trial % 2:
                w = [0.2 + rng.uniform() for _ in range(n)]
                probs = [v / math.fsum(w) for v in w]
            demand = wcs.validate(atoms, probs)
            eps = (0.05, 0.3, 0.7)[trial % 3] if fkey == "combo" else 0.1 + 1.4 * rng.uniform()

            def oracle_value(x):
                s = dro.cost_scenario(params, demand, x)
                return oracle.brute_force_wc(s, polytope=polytope(s, eps))

            sol = dro.dro_newsvendor(params, demand, family, eps)
            hi = 1.5 * max(atoms)
            best = min(oracle_value(x) for x in _kink_set(params, np.unique(atoms), hi))
            v = sol.worst_case.value
            assert abs(v - best) <= 1e-9 * (1.0 + abs(best)), (trial, sol.x, v, best)
            assert abs(v - oracle_value(sol.x)) <= 1e-9 * (1.0 + abs(v))


class TestFrontier:
    def test_tiny_budgeted_sweep(self):
        d = uniform_demand([10, 20])
        pts = dro.frontier(PARAMS, d, wcs.Budgeted(), [0.0, 1.0], "budgeted")
        assert [p.eps for p in pts] == [0.0, 1.0]
        assert pts[0].nominal_mean == pytest.approx(-110.0, abs=1e-9)
        assert pts[0].sensitivity == pytest.approx(50.0, abs=1e-9)
        assert pts[1].nominal_mean == pytest.approx(-520.0 / 7.0, abs=1e-6)
        assert pts[1].sensitivity == pytest.approx(0.0, abs=1e-6)

    def test_single_point_is_saa(self):
        d = uniform_demand([10, 20])
        pts = dro.frontier(PARAMS, d, wcs.Budgeted(), [0.0], "budgeted")
        assert len(pts) == 1
        assert pts[0].decision == dro.saa_newsvendor(PARAMS, d)

    def test_matching_measure_non_increasing_on_worked_instance(self):
        # holds on this sweep (exact solutions); kinked ambiguity costs can
        # produce small local bumps on less regular discrete instances
        d = uniform_demand([10.0, 20.0])
        pts = dro.frontier(PARAMS, d, wcs.Budgeted(), [0.0, 0.25, 0.5, 1.0], "budgeted")
        sens = [p.sensitivity for p in pts]
        assert sens == pytest.approx([50.0, 50.0, 50.0, 0.0], abs=1e-9)
        assert all(b <= a + 1e-9 for a, b in zip(sens, sens[1:]))

    def test_eps_list_validation(self):
        d = uniform_demand([10, 20])
        with pytest.raises(ValueError):
            dro.frontier(PARAMS, d, wcs.Budgeted(), [0.5, 0.1], "budgeted")

    def test_dataset_sweep(self):
        ds = dro.gen_synth_classification(40, 2, 0.5, seed=5)
        pts = dro.frontier(ds, None, wcs.WassersteinL1(None), [0.0, 0.1, 0.3], "wasserstein")
        means = [p.nominal_mean for p in pts]
        sens = [p.sensitivity for p in pts]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(sens, sens[1:]))
        assert sens[-1] == 0.0  # fully shrunk fit
        assert isinstance(pts[0].decision, np.ndarray)
        # measures acting on the per-sample loss distribution also work
        pts_phi = dro.frontier(ds, None, wcs.WassersteinL1(None), [0.0, 0.1], "phi")
        assert pts_phi[0].sensitivity > pts_phi[1].sensitivity

    def test_dataset_sweep_fits_once_per_eps(self, monkeypatch):
        ds = dro.gen_synth_classification(60, 3, 0.4, seed=9)
        eps_list = [0.0, 0.02, 0.1]
        expected = [dro.logreg_wasserstein(ds, e)[0].w for e in eps_list]
        calls = []
        fit = dro._prox_descent
        monkeypatch.setattr(dro, "_prox_descent", lambda *a: calls.append(a[1]) or fit(*a))
        pts = dro.frontier(ds, None, wcs.WassersteinL1(None), eps_list, "tv")
        assert calls == eps_list
        for pt, w in zip(pts, expected):
            assert pt.decision.tobytes() == w.tobytes()

    def test_dataset_sweep_requires_transport_family(self):
        ds = dro.gen_synth_classification(20, 1, 0.5, seed=5)
        with pytest.raises(ValueError):
            dro.frontier(ds, None, wcs.Budgeted(), [0.0], "budgeted")


class TestLogreg:
    def toy(self):
        return dro.labeled_dataset([[1, 1], [1, 1], [-1, 1], [-1, 1]], [1, 1, -1, -1])

    def test_saa_separable_toy(self):
        fit = dro.logreg_saa(self.toy(), tol=1e-8)
        assert fit.w[0] > 0
        assert fit.objective < math.log(2)
        assert fit.separable
        assert fit.grad_norm <= 1e-8

    def test_saa_gradient_contract(self):
        ds = dro.gen_synth_classification(50, 2, 0.4, seed=3)
        fit = dro.logreg_saa(ds, tol=1e-8)
        assert fit.grad_norm <= 1e-8
        assert not fit.separable

    def test_saa_intercept_only_all_positive_labels(self):
        # no finite minimizer: intercept drifts upward, flagged separable
        ds = dro.labeled_dataset([[1.0], [1.0], [1.0]], [1, 1, 1])
        fit = dro.logreg_saa(ds, tol=1e-6)
        assert fit.separable
        assert fit.w[0] > 1.0

    def test_saa_nonconvergence_reports_grad(self):
        ds = dro.gen_synth_classification(50, 2, 0.4, seed=3)
        with pytest.raises(NonConvergence):
            dro.logreg_saa(ds, tol=1e-12, max_iter=2)

    def test_wasserstein_zero_threshold_on_toy(self):
        # ||(1/2n) sum y_i x_i||_2 = 1/2 for the +-1 toy
        for eps in (0.5, 0.75, 2.0):
            fit, _ = dro.logreg_wasserstein(self.toy(), eps)
            assert np.array_equal(fit.w, np.zeros(2))
        fit, _ = dro.logreg_wasserstein(self.toy(), 0.49)
        assert np.linalg.norm(fit.w) > 0

    def test_eps_zero_matches_saa(self):
        ds = dro.gen_synth_classification(40, 2, 0.6, seed=5)
        saa = dro.logreg_saa(ds, tol=1e-8)
        fit, rep = dro.logreg_wasserstein(ds, 0.0, tol=1e-8)
        assert fit.objective == pytest.approx(saa.objective, abs=1e-10)
        assert rep.value == float(np.linalg.norm(saa.w))

    def test_norm_path_non_increasing(self):
        ds = dro.gen_synth_classification(60, 3, 0.7, seed=11)
        norms = []
        for eps in np.linspace(0.0, 0.4, 10):
            fit, _ = dro.logreg_wasserstein(ds, float(eps), tol=1e-8)
            norms.append(float(np.linalg.norm(fit.w)))
        assert all(b <= a + 1e-6 for a, b in zip(norms, norms[1:]))

    def test_local_optimality_probe(self):
        ds = dro.gen_synth_classification(40, 2, 0.5, seed=19)
        eps = 0.05
        fit, _ = dro.logreg_wasserstein(ds, eps, tol=1e-9)
        f0 = dro.robust_logreg_objective(ds, fit.w, eps)
        rng = np.random.default_rng(0)
        for _ in range(100):
            pert = fit.w + 1e-4 * rng.normal(size=fit.w.shape)
            assert dro.robust_logreg_objective(ds, pert, eps) >= f0 - 1e-8

    def test_finite_kappa_objective_evaluator(self):
        ds = self.toy()
        w = np.array([0.3, -0.1])
        base = dro.robust_logreg_objective(ds, w, 0.2, kappa=math.inf)
        assert base == pytest.approx(0.2 * np.linalg.norm(w) + dro.logloss(ds, w))
        # finite kappa adds the flipped-label branch, never below the base
        assert dro.robust_logreg_objective(ds, w, 0.2, kappa=1.0) >= base - 1e-12
        assert dro.robust_logreg_objective(ds, w, 0.2, kappa=0.0) >= base

    def test_dataset_validation(self):
        with pytest.raises(LengthMismatch):
            dro.labeled_dataset([[1, 1]], [1, -1])
        with pytest.raises(ValueError):
            dro.labeled_dataset([[1], [2]], [1, 2])


def _masked_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_matches_the_masked_formula_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, 750.0, 1e308, np.inf, tiny, 2.2e-308, 1e-300, 36.7, 37.5, 709.9]
    t = np.array(special + [-v for v in special] + [np.nan, -np.nan])
    rng = SplitMix64(5)
    t = np.concatenate([t, [rng.exponential(20.0) * (rng.uniform() - 0.5) for _ in range(2000)]])
    assert dro._sigmoid(t).view(np.uint64).tolist() == _masked_sigmoid(t).view(np.uint64).tolist()


class TestProxDescent:
    """The one proximal-gradient loop behind logreg_saa and logreg_wasserstein."""

    @staticmethod
    def residual(ds, w, eps):
        g = dro.logloss_grad(ds, w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return max(float(np.linalg.norm(g)) - eps, 0.0)
        return float(np.linalg.norm(g + eps * w / nw))

    def test_instance_where_loss_differences_stalled(self):
        ds = dro.gen_synth_classification(1000, 10, 0.3, seed=2)
        fit, _ = dro.logreg_wasserstein(ds, 0.19036360653900758)
        assert fit.grad_norm <= 1e-8

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_battery_meets_tol_with_its_certificate(self, tol):
        for seed in range(3):
            for n, d, margin in ((50, 2, 0.4), (120, 4, 1.0), (40, 2, 8.0)):
                ds = dro.gen_synth_classification(n, d, margin, seed=seed)
                g0 = float(np.linalg.norm(dro.logloss_grad(ds, np.zeros(ds.d))))
                for eps in (0.0, 0.01, 0.1, 0.5 * g0, 0.99 * g0, 0.999999 * g0):
                    fit, _ = dro.logreg_wasserstein(ds, eps, tol=tol)
                    assert fit.grad_norm <= tol
                    assert fit.grad_norm == self.residual(ds, fit.w, eps)
                    nw = float(np.linalg.norm(fit.w))
                    assert fit.objective == eps * nw + dro.logloss(ds, fit.w)

    def test_saa_is_the_eps_zero_fit(self):
        ds = dro.gen_synth_classification(80, 3, 0.5, seed=4)
        saa = dro.logreg_saa(ds)
        fit, rep = dro.logreg_wasserstein(ds, 0.0)
        assert np.array_equal(saa.w, fit.w)
        assert (saa.objective, saa.grad_norm, saa.iterations, saa.separable) == (
            fit.objective, fit.grad_norm, fit.iterations, fit.separable
        )
        assert rep.value == float(np.linalg.norm(saa.w))

    def test_zero_fit_past_the_threshold_takes_no_iteration(self):
        ds = dro.gen_synth_classification(60, 2, 0.7, seed=8)
        g0 = float(np.linalg.norm(dro.logloss_grad(ds, np.zeros(ds.d))))
        for eps in (g0, 1.5 * g0, 10.0):
            fit, _ = dro.logreg_wasserstein(ds, eps)
            assert np.array_equal(fit.w, np.zeros(ds.d))
            assert fit.iterations == 0
            assert not fit.separable

    def test_separable_set_converges_at_tight_tol(self):
        ds = dro.gen_synth_classification(40, 2, 8.0, seed=2)
        fit = dro.logreg_saa(ds, tol=1e-10)
        assert fit.separable
        assert fit.grad_norm <= 1e-10
        robust, _ = dro.logreg_wasserstein(ds, 0.1, tol=1e-10)
        assert robust.grad_norm <= 1e-10
        assert not robust.separable

    def test_nan_gradient_never_reads_as_converged(self):
        # bypasses labeled_dataset, which rejects the NaN cell
        ds = dro.LabeledDataset(np.array([[1.0, np.nan], [1.0, 2.0]]), np.array([1.0, -1.0]))
        with pytest.raises(NonConvergence):
            dro.logreg_saa(ds, max_iter=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_are_rejected(self, bad):
        with pytest.raises(NonFiniteCost):
            dro.labeled_dataset([[1.0, 0.5], [1.0, bad]], [1, -1])


class TestNegativeDemand:
    NEGATIVE = [-5.0, -10.0, -3.0]

    def test_saa_rejects(self):
        with pytest.raises(NegativeDemand):
            dro.saa_newsvendor(PARAMS, uniform_demand(self.NEGATIVE))

    @pytest.mark.parametrize("family", [wcs.Budgeted(), wcs.WassersteinL1(None)])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_dro_rejects(self, family, eps):
        with pytest.raises(NegativeDemand):
            dro.dro_newsvendor(PARAMS, uniform_demand([4.0, -1.0, 7.0]), family, eps)

    def test_frontier_rejects(self):
        with pytest.raises(NegativeDemand):
            dro.frontier(PARAMS, uniform_demand(self.NEGATIVE), wcs.Budgeted(), [0.0, 0.5], "budgeted")

    def test_zero_demand_stays_valid(self):
        d = uniform_demand([0.0, 10.0, 3.0])
        assert dro.saa_newsvendor(PARAMS, d) == 10.0
        assert dro.dro_newsvendor(PARAMS, d, wcs.Budgeted(), 0.5).x >= 0.0


class TestGenerators:
    def test_mixture_golden_seed42(self):
        draws = dro.gen_mixture_demand(3, seed=42)
        assert draws.tolist() == [
            1.742467176876429,
            4.218852587151469,
            20.266827034800766,
        ]

    def test_mixture_mean(self):
        draws = dro.gen_mixture_demand(100_000, seed=5)
        assert draws.mean() == pytest.approx(19.0, abs=1.0)

    def test_pure_low_component(self):
        draws = dro.gen_mixture_demand(4000, p_low=1.0, seed=9)
        # exponential(10): sigma = 10, 3 sigma / sqrt(n) band
        assert abs(draws.mean() - 10.0) <= 3.0 * 10.0 / math.sqrt(4000)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            dro.gen_mixture_demand(0)
        with pytest.raises(ValueError):
            dro.gen_mixture_demand(5, p_low=1.5)

    def test_classification_golden(self):
        ds = dro.gen_synth_classification(4, 1, 2.0, seed=7)
        assert ds.features[:, 0].tolist() == [
            2.1493867600706413,
            -1.9960797927848106,
            2.5928373053999594,
            2.452815217884077,
        ]
        assert np.array_equal(ds.features[:, 1], np.ones(4))
        assert ds.labels.tolist() == [1.0, -1.0, 1.0, 1.0]

    def test_large_margin_separable(self):
        ds = dro.gen_synth_classification(40, 2, 8.0, seed=2)
        assert dro.logreg_saa(ds, tol=1e-6).separable

    def test_zero_margin_small_weights(self):
        ds = dro.gen_synth_classification(60, 2, 0.0, seed=2)
        saa = dro.logreg_saa(ds, tol=1e-8)
        assert np.linalg.norm(saa.w) < 1.0
        fit, _ = dro.logreg_wasserstein(ds, 0.3, tol=1e-8)
        assert np.array_equal(fit.w, np.zeros(ds.d))
