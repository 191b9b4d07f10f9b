import itertools
import math

import numpy as np
import pytest

import wcs
from wcs import oracle
from wcs.errors import KappaOutOfRange
from wcs.rng import SplitMix64


def scenario(costs, probs=None):
    return wcs.validate(costs, probs)


class TestMeanVariance:
    def test_mean_examples(self):
        assert wcs.mean(scenario([1, 5, 3])) == pytest.approx(3.0)
        assert wcs.mean(scenario([0, 10], [0.5, 0.5])) == pytest.approx(5.0)
        assert wcs.mean(scenario([4.2] * 5)) == pytest.approx(4.2)

    def test_variance_examples(self):
        assert wcs.variance(scenario([0, 10], [0.5, 0.5])) == pytest.approx(25.0)
        assert wcs.variance(scenario([1, 5, 3])) == pytest.approx(8.0 / 3.0)
        assert wcs.variance(scenario([7, 7, 7])) == 0.0


class TestCvar:
    def test_examples(self):
        # capped-polytope vertex enumeration fixes the expected values
        s = scenario([0, 10])
        assert wcs.cvar(s, 0.5) == pytest.approx(
            oracle.brute_force_wc(s, polytope=oracle.cvar_polytope(s, 0.5)), abs=1e-12
        )
        assert wcs.cvar(s, 0.5) == pytest.approx(10.0)
        s2 = scenario([1, 5, 3])
        assert wcs.cvar(s2, 0.0) == pytest.approx(wcs.mean(s2))
        assert wcs.cvar(s2, 2 / 3) == pytest.approx(5.0)

    def test_saturation_at_max(self):
        s = scenario([1, 5, 3], [0.2, 0.5, 0.3])
        assert wcs.cvar(s, 0.5) == pytest.approx(5.0)  # alpha >= 1 - p_(1)

    def test_matches_vertex_lp_on_random_instances(self):
        rng = SplitMix64(101)
        for _ in range(120):
            s = oracle.random_scenario(rng, 2, 4)
            alpha = 0.98 * rng.uniform()
            lp = oracle.brute_force_wc(s, polytope=oracle.cvar_polytope(s, alpha))
            assert wcs.cvar(s, alpha) == pytest.approx(lp, abs=1e-10)

    def test_monotone_and_bounded(self):
        rng = SplitMix64(55)
        for _ in range(60):
            s = oracle.random_scenario(rng)
            levels = sorted(rng.uniform() * 0.99 for _ in range(6))
            vals = [wcs.cvar(s, a) for a in levels]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(wcs.mean(s) - 1e-10 <= v <= np.max(s.costs) + 1e-10 for v in vals)

    def test_level_range(self):
        with pytest.raises(ValueError):
            wcs.cvar(scenario([1, 2]), 1.0)
        with pytest.raises(ValueError):
            wcs.cvar(scenario([1, 2]), -0.2)


class TestVarQuantile:
    def test_examples(self):
        assert wcs.var_quantile(scenario([1, 5, 3]), 0.5) == 3.0
        assert wcs.var_quantile(scenario([0, 10]), 0.5) == 10.0
        assert wcs.var_quantile(scenario([2, 2, 2]), 0.8) == 2.0

    def test_alpha_zero_is_min(self):
        assert wcs.var_quantile(scenario([1, 5, 3]), 0.0) == 1.0

    def test_partial_fill_atom_identity(self):
        # the quantile atom is exactly the partial atom of the greedy fill
        rng = SplitMix64(9)
        for _ in range(80):
            s = oracle.random_scenario(rng, 2, 6)
            alpha = 0.97 * rng.uniform()
            q = wcs.cvar_distribution(s, alpha)
            srt = wcs.sort_desc(s)
            q_desc = q[srt.order]
            caps = srt.probs_desc / (1.0 - alpha)
            partial = [i for i in range(s.n) if 1e-14 < q_desc[i] < caps[i] * (1 - 1e-14)]
            if partial:
                assert wcs.var_quantile(s, alpha) == srt.costs_desc[partial[0]]


class TestPrefixRank:
    @staticmethod
    def reference(probs, target):
        for k in range(len(probs)):
            if math.fsum(probs[: k + 1]) >= target:
                return k
        return len(probs) - 1

    def test_examples(self):
        quarters = np.full(4, 0.25)
        ranks = [wcs.riskstats.prefix_rank(quarters, t) for t in (0.0, 0.25, 0.26, 0.5, 1.0, 1.5)]
        assert ranks == [0, 0, 1, 1, 3, 3]

    def test_matches_the_fsum_definition(self):
        rng = SplitMix64(23)
        for _ in range(200):
            n = rng.randint(1, 12)
            probs = oracle.random_scenario(rng, n, n).probs
            tenths = [0.1 * rng.randint(0, 11) for _ in range(3)]
            for target in [rng.uniform()] + tenths + [math.fsum(probs[: rng.randint(1, n)].tolist())]:
                want = self.reference(probs.tolist(), target)
                assert wcs.riskstats.prefix_rank(probs, target) == want


class TestCvarDeviation:
    def test_examples(self):
        assert wcs.cvar_deviation(scenario([0, 10]), 0.5) == pytest.approx(5.0)
        assert wcs.cvar_deviation(scenario([3, 3]), 0.7) == pytest.approx(0.0)
        assert wcs.cvar_deviation(scenario([1, 5, 3]), 2 / 3) == pytest.approx(2.0)


class TestCAlphaN:
    def test_examples(self):
        assert wcs.c_alpha_n(4, 0.75) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert wcs.c_alpha_n(5, 0.7) == pytest.approx(4 / 3, abs=1e-12)
        assert wcs.c_alpha_n(10, 0.9) == pytest.approx(3.0, abs=1e-9)

    def test_kappa_out_of_range(self):
        with pytest.raises(KappaOutOfRange):
            wcs.c_alpha_n(1, 0.5)
        with pytest.raises(KappaOutOfRange):
            wcs.c_alpha_n(5, 0.0)  # kappa = n
        with pytest.raises(KappaOutOfRange):
            wcs.c_alpha_n(5, 1.0)  # kappa = 0

    def test_upper_bound_and_integer_equality(self):
        for n, alpha in itertools.product(range(2, 13), (0.3, 0.5, 0.66, 0.75, 0.9)):
            kappa = n * (1 - alpha)
            if not 0 < kappa < n:
                continue
            c = wcs.c_alpha_n(n, alpha)
            cap = math.sqrt(alpha / (1 - alpha))
            assert c <= cap + 1e-9
            if abs(kappa - round(kappa)) < 1e-9:
                assert c == pytest.approx(cap, abs=1e-9)


class TestTightCvarVector:
    def test_example_n4(self):
        z = wcs.tight_cvar_vector(4, 0.75)
        assert np.allclose(z, [1.0, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.75, 0.9])
    def test_zero_mean_and_tightness(self, n, alpha):
        z = wcs.tight_cvar_vector(n, alpha)
        s = wcs.validate(z)
        assert wcs.mean(s) == pytest.approx(0.0, abs=1e-12)
        ratio = wcs.cvar_deviation(s, alpha) / math.sqrt(wcs.variance(s))
        assert ratio == pytest.approx(wcs.c_alpha_n(n, alpha), abs=1e-9)

    def test_ratio_example(self):
        z = wcs.tight_cvar_vector(4, 0.75)
        s = wcs.validate(z)
        assert wcs.cvar_deviation(s, 0.75) / math.sqrt(wcs.variance(s)) == pytest.approx(
            math.sqrt(3), abs=1e-9
        )

    def test_uniform_bound_holds_and_is_tight(self):
        rng = SplitMix64(12)
        for _ in range(200):
            n = rng.randint(2, 6)
            s = wcs.validate([-10 + 20 * rng.uniform() for _ in range(n)])
            alpha = 0.05 + 0.9 * rng.uniform()
            bound = wcs.c_alpha_n(n, alpha) * math.sqrt(wcs.variance(s))
            assert wcs.cvar_deviation(s, alpha) <= bound + 1e-9
