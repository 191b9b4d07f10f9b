import math

import numpy as np
import pytest

import wcs
from wcs import dro, oracle
from wcs.errors import LengthMismatch, NonConvergence, NonFiniteCost
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
