import math

import numpy as np
import pytest

import wcs
from wcs.core import interpolated_cost, PiecewiseLinearCost, ConcaveGradientCost
from wcs.errors import (
    EmptyInput,
    LengthMismatch,
    NonFiniteCost,
    NonPositiveProbability,
    ProbSumMismatch,
)


class TestValidate:
    def test_uniform_default(self):
        s = wcs.validate([1, 5, 3])
        assert np.allclose(s.probs, [1 / 3, 1 / 3, 1 / 3])
        assert s.n == 3

    def test_explicit_probs(self):
        s = wcs.validate([0, 10], [0.5, 0.5])
        assert np.array_equal(s.costs, [0.0, 10.0])

    def test_zero_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            wcs.validate([0, 10], [1.0, 0.0])

    def test_negative_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            wcs.validate([0, 10], [1.5, -0.5])

    def test_sum_mismatch_not_renormalized(self):
        with pytest.raises(ProbSumMismatch):
            wcs.validate([0, 10], [0.6, 0.6])

    def test_non_finite_costs(self):
        with pytest.raises(NonFiniteCost):
            wcs.validate([0, math.nan])
        with pytest.raises(NonFiniteCost):
            wcs.validate([0, math.inf])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            wcs.validate([])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            wcs.validate([0, 10], [1.0])

    def test_idempotent(self):
        s1 = wcs.validate([2.5, -1, 7], [0.2, 0.3, 0.5])
        s2 = wcs.validate(s1.costs, s1.probs)
        assert np.array_equal(s1.costs, s2.costs)
        assert np.array_equal(s1.probs, s2.probs)

    def test_inputs_are_copied_and_frozen(self):
        raw = np.array([1.0, 2.0])
        s = wcs.validate(raw, [0.5, 0.5])
        raw[0] = 99.0
        assert s.costs[0] == 1.0
        with pytest.raises(ValueError):
            s.costs[0] = 0.0


class TestWithCosts:
    def test_shares_probs_and_freezes_a_copy_of_the_costs(self):
        s = wcs.validate([1.0, 2.0, 4.0], [0.2, 0.3, 0.5])
        raw = np.array([5.0, -1.0, 0.5])
        t = s.with_costs(raw)
        raw[0] = 99.0
        assert t.probs is s.probs
        assert np.array_equal(t.costs, [5.0, -1.0, 0.5])
        with pytest.raises(ValueError):
            t.costs[0] = 0.0

    def test_checks_only_the_costs(self):
        s = wcs.validate([1.0, 2.0])
        with pytest.raises(LengthMismatch):
            s.with_costs([1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteCost):
            s.with_costs([1.0, math.inf])
        with pytest.raises(NonFiniteCost):
            s.with_costs([math.nan, 1.0])


class TestSortDesc:
    def test_basic(self):
        srt = wcs.sort_desc(wcs.validate([1, 5, 3]))
        assert np.array_equal(srt.costs_desc, [5.0, 3.0, 1.0])
        assert np.array_equal(srt.order, [1, 2, 0])

    def test_stable_ties(self):
        srt = wcs.sort_desc(wcs.validate([7, 7]))
        assert np.array_equal(srt.costs_desc, [7.0, 7.0])
        assert np.array_equal(srt.order, [0, 1])

    def test_probs_follow(self):
        srt = wcs.sort_desc(wcs.validate([0, 10], [0.5, 0.5]))
        assert np.array_equal(srt.costs_desc, [10.0, 0.0])
        assert np.array_equal(srt.probs_desc, [0.5, 0.5])

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            s = wcs.validate(rng.normal(size=n) * 10)
            srt = wcs.sort_desc(s)
            assert np.array_equal(srt.unsort(srt.costs_desc), s.costs)
            assert np.array_equal(srt.unsort(srt.probs_desc), s.probs)

    def test_tie_break_does_not_change_worst_case_values(self):
        # same multiset of (cost, prob) pairs in two different input orders
        a = wcs.validate([4, 4, 1], [0.3, 0.5, 0.2])
        b = wcs.validate([4, 4, 1], [0.5, 0.3, 0.2])
        for eps in (0.1, 0.5, 1.2):
            assert wcs.wc_tv(a, eps).value == pytest.approx(wcs.wc_tv(b, eps).value, abs=1e-14)
            assert wcs.wc_budgeted(a, eps).value == pytest.approx(
                wcs.wc_budgeted(b, eps).value, abs=1e-14
            )
            assert wcs.wc_chi2(a, eps).value == pytest.approx(wcs.wc_chi2(b, eps).value, abs=1e-12)


class TestPhiFunctions:
    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_normalization(self, phi):
        assert phi.value(np.array(1.0)) == pytest.approx(0.0, abs=1e-15)
        assert phi.deriv(np.array(1.0)) == pytest.approx(0.0, abs=1e-15)
        assert phi.curvature > 0

    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_inverse_of_derivative(self, phi):
        for z in np.linspace(0.4, 1.8, 29):
            back = float(phi.inverse_clamped(phi.deriv(np.array(z))))
            assert back == pytest.approx(z, abs=1e-10)

    def test_chi2_clamps_to_zero(self):
        assert float(wcs.MODIFIED_CHI2.inverse_clamped(np.array(-1.5))) == 0.0

    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_conjugate_local_expansion(self, phi):
        # phi*(zeta) = zeta + zeta^2 / (2 phi''(1)) + o(zeta^2)
        for zeta in (1e-3, -1e-3, 5e-4):
            expected = zeta + zeta**2 / (2 * phi.curvature)
            assert float(phi.conjugate(np.array(zeta))) == pytest.approx(expected, abs=1e-9)

    def test_kl_at_zero(self):
        assert float(wcs.KL.value(np.array(0.0))) == 1.0


class TestPiecewiseLinearCost:
    def newsvendor_curve(self):
        # r=10, q=0, s=4, x=15: slope -10 below 15, +4 above, f(15) = -120
        return PiecewiseLinearCost(
            breakpoints=(15.0,), slopes=(-10.0, 4.0), anchor=(15.0, -120.0), domain=(0.0, math.inf)
        )

    def test_values(self):
        c = self.newsvendor_curve()
        assert c.value(15.0) == -120.0
        assert c.value(10.0) == pytest.approx(-70.0)
        assert c.value(20.0) == pytest.approx(-100.0)
        assert c.value(0.0) == pytest.approx(30.0)

    def test_ratio_from_each_side_of_the_kink(self):
        c = self.newsvendor_curve()
        # below (or at) the kink the z -> 0 descent uses the steep segment only
        for y in (5.0, 10.0, 15.0):
            assert c.ratio_from(y) == 10.0
        # above the kink the best finite move is the z = 0 secant (crosses the kink)
        for y in (19.0, 40.0):
            assert c.ratio_from(y, ) == max(4.0, (c.value(0.0) - c.value(y)) / y)

    def test_ratio_against_dense_grid(self):
        c = self.newsvendor_curve()
        zs = np.linspace(0.0, 400.0, 40001)
        for y in (7.0, 15.0, 33.0):
            fy = c.value(y)
            vals = [(c.value(z) - fy) / abs(z - y) for z in zs if z != y]
            assert c.ratio_from(y) >= max(vals) - 1e-9

    def test_constant_cost_ratio_zero(self):
        c = PiecewiseLinearCost((), (0.0,), anchor=(0.0, 3.0))
        assert c.ratio_from(1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost((1.0, 1.0), (0.0, 1.0, 2.0), anchor=(0.0, 0.0))
        with pytest.raises(ValueError):
            PiecewiseLinearCost((1.0,), (0.0,), anchor=(0.0, 0.0))
        with pytest.raises(ValueError):
            PiecewiseLinearCost((1.0,), (0.0, math.inf), anchor=(0.0, 0.0))

    def test_interpolated_flat_extension(self):
        c = interpolated_cost([0.0, 1.0, 2.0], [1.0, 5.0, 3.0])
        assert c.value(1.0) == pytest.approx(5.0)
        assert c.value(0.5) == pytest.approx(3.0)
        assert c.value(-4.0) == pytest.approx(1.0)
        assert c.value(9.0) == pytest.approx(3.0)
        assert c.ratio_from(0.0) == pytest.approx(4.0)  # best ascent toward f=5


class TestConcaveGradientCost:
    def test_matches_numeric_sup(self):
        # f(z) = -z^2; sup_z (f(z)-f(y))/|z-y| = |f'(y)| = 2|y|
        cost = ConcaveGradientCost(gradient=lambda z: -2.0 * z)
        zs = np.linspace(-50, 50, 200001)
        for y in (1.0, -2.0):
            ratios = [(-(z**2) + y**2) / abs(z - y) for z in zs if z != y]
            assert cost.ratio_from(y) == pytest.approx(max(ratios), abs=1e-3)
        rep = wcs.wasserstein_sensitivity([1.0, -2.0], [0.5, 0.5], cost.ratio_from)
        assert rep.value == pytest.approx(4.0, abs=1e-12)


class TestFamilies:
    def test_growth_rates(self):
        assert wcs.growth_rate(wcs.SmoothPhi(wcs.KL)) == "sqrt"
        for fam in (
            wcs.TotalVariation(),
            wcs.Budgeted(),
            wcs.Combination(0.5),
            wcs.SymmetricBox(),
            wcs.WassersteinL1(None),
        ):
            assert wcs.growth_rate(fam) == "linear"

    def test_combination_level_range(self):
        with pytest.raises(ValueError):
            wcs.Combination(1.0)
        with pytest.raises(ValueError):
            wcs.Combination(-0.1)
