import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

import wcs
from wcs import oracle
from wcs.core import PhiFunction, PiecewiseLinearCost
from wcs.errors import LengthMismatch, UnboundedRatio
from wcs.rng import SplitMix64

# chi-square generator scaled to curvature 2: phi(z) = (z-1)^2
CHI2_X2 = PhiFunction(
    name="chi2-times-two",
    value=lambda z: (np.asarray(z, dtype=float) - 1.0) ** 2,
    inv_deriv=lambda zeta: 1.0 + 0.5 * np.asarray(zeta, dtype=float),
    zeta_floor=-2.0,
    curvature=2.0,
)


def uniform(costs):
    return wcs.validate(costs)


class TestSmoothPhi:
    def test_value_matches_fd_of_exact_dual_solve(self):
        s = uniform([0, 10])
        rep = wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2)
        assert rep.value == pytest.approx(math.sqrt(50), abs=1e-12)
        fd = oracle.fd_sensitivity(
            lambda e: wcs.wc_smooth_phi(s, wcs.MODIFIED_CHI2, e).value,
            "sqrt",
            [10.0**-k for k in range(2, 9)],
        )
        assert fd.estimate == pytest.approx(rep.value, rel=1e-3)

    def test_curvature_scaling(self):
        s = uniform([0, 10])
        assert wcs.smooth_phi_sensitivity(s, CHI2_X2).value == pytest.approx(5.0, abs=1e-12)

    def test_constant(self):
        assert wcs.smooth_phi_sensitivity(uniform([2, 2]), wcs.KL).value == 0.0

    def test_growth_label(self):
        assert wcs.smooth_phi_sensitivity(uniform([0, 1]), wcs.KL).growth == "sqrt"


def _exact_smooth_phi_sensitivity(s, curvature):
    """sqrt(2 Var_p f / curvature) of the scenario's doubles, in rationals, then 50 digits."""
    p = [Fraction(v) for v in s.probs.tolist()]
    f = [Fraction(v) for v in s.costs.tolist()]
    m = sum(pi * fi for pi, fi in zip(p, f))
    r = 2 * sum(pi * (fi - m) ** 2 for pi, fi in zip(p, f)) / Fraction(curvature)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float((decimal.Decimal(r.numerator) / decimal.Decimal(r.denominator)).sqrt())


class TestSmoothPhiAtExtremeScales:
    """The sensitivity where Var_p f itself underflows or overflows a double."""

    @pytest.mark.parametrize(
        "costs",
        [
            [1e-200, 3e-200, 2e-200],
            [-1e308, 1e308, 0.0],
            [1.7e308, 1e308, 1.5e308],
            # the "tiny" scenario of scenario_golden.json
            [
                2.6257544849162857e-200, 1.0921646924313636e-200, 7.394256028364448e-201,
                3.6179118794204066e-202, 6.803561881144849e-201, 2.487797888968403e-201,
            ],
        ],
        ids=["tiny3", "overflowing-range", "overflowing-squares", "golden-tiny"],
    )
    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL, CHI2_X2], ids=lambda p: p.name)
    def test_within_four_ulps_of_the_exact_value(self, costs, phi):
        s = uniform(costs)
        want = _exact_smooth_phi_sensitivity(s, phi.curvature)
        got = wcs.smooth_phi_sensitivity(s, phi).value
        assert abs(got - want) <= 4 * math.ulp(want), (got, want)

    @pytest.mark.parametrize("lam", [1e-200, 1e150])
    def test_positively_homogeneous_across_scales(self, lam):
        costs = np.array([0.3, 2.5, -1.25, 4.0, 4.0, 1.75])
        probs = np.array([0.1, 0.25, 0.05, 0.2, 0.15, 0.25])
        base = wcs.smooth_phi_sensitivity(wcs.validate(costs, probs), wcs.KL).value
        got = wcs.smooth_phi_sensitivity(wcs.validate(lam * costs, probs), wcs.KL).value
        assert abs(got - lam * base) <= 4 * math.ulp(lam * base), (got, lam * base)

    def test_variance_and_penalty_overflow_to_inf(self):
        for costs in ([-1e308, 1e308, 0.0], [1.7e308, 1e308, 1.5e308]):
            s = uniform(costs)
            assert wcs.variance(s) == math.inf
            assert wcs.penalty_phi_sensitivity(s, wcs.MODIFIED_CHI2).value == math.inf

    def test_variance_stays_finite_where_the_weights_pull_it_back(self):
        # a 1e-310 weight on the far atom: Var = p (1 - p) (2e308)^2 is about 4e306
        s = wcs.validate([-1e308, 1e308], [1e-310, 1.0])
        assert wcs.variance(s) == pytest.approx(4e306, rel=1e-13)
        want = _exact_smooth_phi_sensitivity(s, 1.0)
        assert abs(wcs.smooth_phi_sensitivity(s, wcs.KL).value - want) <= 4 * math.ulp(want)


class TestPenaltyPhi:
    def test_value(self):
        s = uniform([0, 10])
        assert wcs.penalty_phi_sensitivity(s, wcs.MODIFIED_CHI2).value == pytest.approx(25.0)
        assert wcs.penalty_phi_sensitivity(uniform([3, 3]), wcs.KL).value == 0.0

    def test_homogeneity_degrees(self):
        s = uniform([1, 5, 3])
        s2 = uniform([2, 10, 6])
        smooth = wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2).value
        smooth2 = wcs.smooth_phi_sensitivity(s2, wcs.MODIFIED_CHI2).value
        pen = wcs.penalty_phi_sensitivity(s, wcs.MODIFIED_CHI2).value
        pen2 = wcs.penalty_phi_sensitivity(s2, wcs.MODIFIED_CHI2).value
        assert smooth2 == pytest.approx(2 * smooth, rel=1e-12)
        assert pen2 == pytest.approx(4 * pen, rel=1e-12)


class TestLinearGrowthMeasures:
    def test_tv(self):
        s = uniform([1, 5, 3])
        assert wcs.tv_sensitivity(s).value == 2.0
        fd = oracle.fd_sensitivity(
            lambda e: wcs.wc_tv(s, e).value, "linear", [10.0**-k for k in range(1, 6)]
        )
        assert fd.estimate == pytest.approx(2.0, abs=1e-9)
        assert wcs.tv_sensitivity(uniform([0, 10])).value == 5.0
        assert wcs.tv_sensitivity(uniform([4, 4])).value == 0.0

    def test_budgeted(self):
        s = uniform([1, 5, 3])
        assert wcs.budgeted_sensitivity(s).value == pytest.approx(2.0)
        fd = oracle.fd_sensitivity(
            lambda e: wcs.wc_budgeted(s, e).value, "linear", [10.0**-k for k in range(2, 6)]
        )
        assert fd.estimate == pytest.approx(2.0, abs=1e-9)
        assert wcs.budgeted_sensitivity(uniform([0, 10])).value == pytest.approx(5.0)
        assert wcs.budgeted_sensitivity(uniform([9, 9])).value == 0.0

    def test_combination(self):
        s = uniform([0, 10])
        rep = wcs.combination_sensitivity(s, 0.5)
        assert rep.value == pytest.approx(5.0)
        for eps in (0.25, 0.7, 1.0):
            quot = (wcs.wc_combination(s, 0.5, eps).value - wcs.mean(s)) / eps
            assert quot == pytest.approx(rep.value, abs=1e-12)
        # alpha beyond 1 - p_(1): CVaR saturates at the max
        s3 = uniform([1, 5, 3])
        rep = wcs.combination_sensitivity(s3, 0.9)
        assert rep.value == pytest.approx(np.max(s3.costs) - wcs.mean(s3))
        assert wcs.combination_sensitivity(uniform([2, 2]), 0.3).value == 0.0

    def test_symmetric_box(self):
        assert wcs.symmetric_box_sensitivity(uniform([0, 10])).value == pytest.approx(5.0)
        # cvar_{1/2} of (1,5,3) from the capped-polytope vertex oracle: 13/3
        s = uniform([1, 5, 3])
        lp = oracle.brute_force_wc(s, polytope=oracle.cvar_polytope(s, 0.5))
        assert lp == pytest.approx(13.0 / 3.0, abs=1e-12)
        assert wcs.symmetric_box_sensitivity(s).value == pytest.approx(lp - 3.0, abs=1e-12)
        assert wcs.symmetric_box_sensitivity(uniform([1, 1, 1])).value == 0.0


class TestWasserstein:
    def test_newsvendor_interior_order_quantity(self):
        # r=10, q=0, s=4: ratio is max{r-q, s} = 10 at any interior x
        from wcs import dro

        params = dro.NewsvendorParams(r=10, c=2, q=0, s=4)
        pts = [10.0, 20.0]
        rep = wcs.wasserstein_sensitivity(
            pts, [0.5, 0.5], dro.demand_cost_curve(params, 15.0).ratio_from
        )
        assert rep.value == 10.0

    def test_constant(self):
        flat = PiecewiseLinearCost((), (0.0,), anchor=(0.0, 1.0))
        rep = wcs.wasserstein_sensitivity([0.0, 1.0], [0.5, 0.5], flat.ratio_from)
        assert rep.value == 0.0

    def test_unbounded_ratio(self):
        with pytest.raises(UnboundedRatio):
            wcs.wasserstein_sensitivity([0.0], [1.0], lambda y: math.inf)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            wcs.wasserstein_sensitivity([0.0, 1.0], [1.0], lambda y: 1.0)


class TestDispatch:
    def test_families(self):
        s = uniform([1, 5, 3])
        assert wcs.TotalVariation().sensitivity(s).value == 2.0
        assert wcs.Budgeted().sensitivity(s).value == pytest.approx(2.0)
        assert wcs.SmoothPhi(wcs.KL).sensitivity(s).value == pytest.approx(math.sqrt(16 / 3))
        assert wcs.Combination(0.5).sensitivity(s).value == pytest.approx(4 / 3)
        assert wcs.SymmetricBox().sensitivity(s).value == pytest.approx(4 / 3)
        with pytest.raises(ValueError):
            wcs.WassersteinL1().sensitivity(s)


class TestDeviationAxioms:
    MEASURES = {
        "phi": lambda s: wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2).value,
        "tv": lambda s: wcs.tv_sensitivity(s).value,
        "budgeted": lambda s: wcs.budgeted_sensitivity(s).value,
        "combo": lambda s: wcs.combination_sensitivity(s, 0.5).value,
        "box": lambda s: wcs.symmetric_box_sensitivity(s).value,
    }

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_degree_one_measures(self, name):
        rep = oracle.deviation_axioms(self.MEASURES[name], trials=150, seed=77)
        assert rep.all_passed, rep

    def test_penalty_is_degree_two(self):
        measure = lambda s: wcs.penalty_phi_sensitivity(s, wcs.MODIFIED_CHI2).value
        rep1 = oracle.deviation_axioms(measure, trials=100, seed=78)
        assert not rep1.homogeneity.passed
        ce = rep1.homogeneity.counterexample
        # observed value follows the beta-squared pattern: got = beta * (beta * base)
        assert ce["got"] == pytest.approx(ce["beta"] * ce["expected"], rel=1e-8)
        rep2 = oracle.deviation_axioms(measure, trials=100, seed=78, homogeneity_degree=2.0)
        assert rep2.all_passed


class TestOverflowingRange:
    """Costs whose range overflows a double are centred on f / 2 and the result doubled."""

    def test_values_on_the_smallest_overflowing_scenario(self):
        s = uniform([-1e308, 1e308, 0.0])
        # CVaR at 1/2 holds 1e308 on mass 1/3 and 0 on 1/6; the mean is 0
        for value in (
            wcs.cvar_deviation(s, 0.5),
            wcs.combination_sensitivity(s, 0.5).value,
            wcs.symmetric_box_sensitivity(s).value,
        ):
            assert value == pytest.approx(2.0 / 3.0 * 1e308, rel=1e-15)
        # E_p (f - min f) = (0 + 2e308 + 1e308) / 3
        assert wcs.budgeted_sensitivity(s).value == pytest.approx(1e308, rel=1e-15)

    @pytest.mark.parametrize("n", [3, 5000])
    def test_twice_the_value_on_halved_costs(self, n):
        rng = np.random.default_rng(n)
        costs = rng.uniform(-1.0, 1.0, n) * 1e308
        costs[:2] = [-1.5e308, 1.7e308]
        weights = rng.exponential(1.0, n) + 0.05
        probs = weights / math.fsum(weights.tolist())
        s, half = wcs.validate(costs, probs), wcs.validate(costs / 2.0, probs)
        measures = (
            lambda s: wcs.cvar_deviation(s, 0.3),
            lambda s: wcs.combination_sensitivity(s, 0.9).value,
            lambda s: wcs.symmetric_box_sensitivity(s).value,
            lambda s: wcs.budgeted_sensitivity(s).value,
        )
        for measure in measures:
            value = measure(s)
            assert value > 0.0
            assert repr(value) == repr(2.0 * measure(half))


class TestTopOfTheDoubleRange:
    def test_tv_sensitivity_on_an_overflowing_range(self):
        assert wcs.tv_sensitivity(uniform([-1e308, 1e308, 0.0])).value == 1e308


class TestBounds:
    def test_phi_tv_bound_uniform(self):
        # sqrt(phi''(1)/2) * S_phi <= S_tv for uniform p
        rng = SplitMix64(5)
        for _ in range(300):
            n = rng.randint(2, 6)
            s = wcs.validate([-10 + 20 * rng.uniform() for _ in range(n)])
            lhs = math.sqrt(wcs.KL.curvature / 2) * wcs.smooth_phi_sensitivity(s, wcs.KL).value
            assert lhs <= wcs.tv_sensitivity(s).value + 1e-9

    def test_combination_bound_uniform(self):
        rng = SplitMix64(6)
        for _ in range(300):
            n = rng.randint(2, 6)
            s = wcs.validate([-10 + 20 * rng.uniform() for _ in range(n)])
            alpha = 0.05 + 0.9 * rng.uniform()
            lhs = wcs.combination_sensitivity(s, alpha).value
            rhs = (
                wcs.c_alpha_n(n, alpha)
                * math.sqrt(wcs.MODIFIED_CHI2.curvature / 2)
                * wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2).value
            )
            assert lhs <= rhs + 1e-9

    def test_loose_budgeted_bound_uniform(self):
        rng = SplitMix64(7)
        for _ in range(300):
            n = rng.randint(2, 6)
            s = wcs.validate([-10 + 20 * rng.uniform() for _ in range(n)])
            lhs = wcs.budgeted_sensitivity(s).value
            rhs = (
                math.sqrt((n - 1) * wcs.MODIFIED_CHI2.curvature / 2)
                * wcs.smooth_phi_sensitivity(s, wcs.MODIFIED_CHI2).value
            )
            assert lhs < rhs + 1e-9
