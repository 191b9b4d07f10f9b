import math

import numpy as np
import pytest

import wcs
from wcs import oracle
from wcs.errors import (
    InvalidEpsSequence,
    InvalidOracleMode,
    NonMonotoneEstimates,
    ResolutionTooCoarse,
    UnknownGrowth,
    UnknownPolytope,
    WcsError,
)
from wcs.rng import SplitMix64


class TestBruteForce:
    def test_tv_vertex_example(self):
        s = wcs.validate([1, 5, 3])
        v = oracle.brute_force_wc(s, polytope=oracle.TvPolytope(0.2))
        assert v == pytest.approx(3.4, abs=1e-12)
        assert v == pytest.approx(wcs.wc_tv(s, 0.2).value, abs=1e-12)

    def test_chi2_grid_example(self):
        s = wcs.validate([0, 10])
        member = lambda q: 0.5 * np.sum((q - s.probs) ** 2 / s.probs) <= 0.02 + 1e-12
        v = oracle.brute_force_wc(s, member=member, resolution=1e-4)
        assert v == pytest.approx(6.0, abs=1e-3)

    def test_eps_zero_member(self):
        s = wcs.validate([0, 10])
        member = lambda q: bool(np.allclose(q, s.probs, atol=1e-12))
        v = oracle.brute_force_wc(s, member=member, resolution=1e-2)
        assert v == pytest.approx(5.0)

    def test_resolution_guard(self):
        s = wcs.validate([0, 10], [0.9, 0.1])
        with pytest.raises(ResolutionTooCoarse):
            oracle.brute_force_wc(s, member=lambda q: True, resolution=0.2)

    def test_exactly_one_mode(self):
        s = wcs.validate([0, 10])
        with pytest.raises(ValueError):
            oracle.brute_force_wc(s)
        with pytest.raises(ValueError):
            oracle.brute_force_wc(
                s, member=lambda q: True, polytope=oracle.TvPolytope(0.1)
            )

    def test_grid_vertex_agreement_polyhedral(self):
        rng = SplitMix64(111)
        for _ in range(10):
            s = oracle.random_scenario(rng, 2, 3, min_prob=0.15)
            res = float(np.min(s.probs)) / 20.0
            span = res * (float(np.max(s.costs)) - float(np.min(s.costs)))
            eps = 0.5 * rng.uniform() + 0.05
            vert = oracle.brute_force_wc(s, polytope=oracle.TvPolytope(eps))
            member = lambda q: float(np.sum(np.abs(q - s.probs))) <= eps + 1e-12
            grid = oracle.brute_force_wc(s, member=member, resolution=res)
            assert grid <= vert + 1e-12
            assert vert <= grid + span + 1e-9

    def test_sandwich_for_closed_forms(self):
        rng = SplitMix64(112)
        for _ in range(8):
            s = oracle.random_scenario(rng, 2, 3, min_prob=0.15)
            res = float(np.min(s.probs)) / 20.0
            span = res * (float(np.max(s.costs)) - float(np.min(s.costs)))
            eps = 0.3 * rng.uniform() + 0.05
            closed = wcs.wc_budgeted(s, eps).value
            member = lambda q: bool(np.all(q <= (1 + eps) * s.probs + 1e-12))
            grid = oracle.brute_force_wc(s, member=member, resolution=res)
            assert grid - 1e-12 <= closed <= grid + span + 1e-9


class TestTypedErrors:
    def test_brute_force_mode(self):
        with pytest.raises(InvalidOracleMode):
            oracle.brute_force_wc(wcs.validate([0, 10]))
        assert issubclass(InvalidOracleMode, ValueError)

    def test_unknown_polytope(self):
        with pytest.raises(UnknownPolytope):
            oracle.brute_force_wc(wcs.validate([0, 10]), polytope=object())
        assert issubclass(UnknownPolytope, TypeError)

    def test_fd_eps_sequence(self):
        with pytest.raises(InvalidEpsSequence):
            oracle.fd_sensitivity(lambda e: e, "linear", [1e-2, 1e-2])
        assert issubclass(InvalidEpsSequence, ValueError)

    def test_fd_unknown_growth(self):
        with pytest.raises(UnknownGrowth) as exc:
            oracle.fd_sensitivity(lambda e: e, "cubic", [0.1])
        assert str(exc.value) == "unknown growth label 'cubic'" and isinstance(exc.value, WcsError)


class TestFdSensitivity:
    def test_chi2_example(self):
        s = wcs.validate([0, 10])
        rep = oracle.fd_sensitivity(
            lambda e: wcs.wc_chi2(s, e).value, "sqrt", [10.0**-k for k in range(2, 9)]
        )
        assert rep.estimate == pytest.approx(math.sqrt(50), rel=1e-3)
        assert len(rep.quotients) == 7

    def test_budgeted_exactly_linear(self):
        s = wcs.validate([0, 10])
        rep = oracle.fd_sensitivity(
            lambda e: wcs.wc_budgeted(s, e).value, "linear", [10.0**-k for k in range(2, 6)]
        )
        assert rep.estimate == pytest.approx(5.0, abs=1e-9)

    def test_constant_costs(self):
        s = wcs.validate([2, 2, 2])
        rep = oracle.fd_sensitivity(
            lambda e: wcs.wc_tv(s, e).value, "linear", [1e-1, 1e-2, 1e-3]
        )
        assert rep.estimate == pytest.approx(0.0, abs=1e-12)

    def test_non_monotone_raises(self):
        # convex (not concave) value function: quotient decreases as eps drops
        with pytest.raises(NonMonotoneEstimates):
            oracle.fd_sensitivity(lambda e: e * e + e, "linear", [1e-1, 1e-2, 1e-3])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            oracle.fd_sensitivity(lambda e: e, "linear", [1e-3, 1e-2])
        with pytest.raises(ValueError):
            oracle.fd_sensitivity(lambda e: e, "linear", [])


class TestDeviationAxioms:
    def test_tv_passes(self):
        rep = oracle.deviation_axioms(
            lambda s: wcs.tv_sensitivity(s).value, trials=200, seed=13
        )
        assert rep.all_passed
        assert rep.trials == 200

    def test_penalty_beta_squared_pattern(self):
        rep = oracle.deviation_axioms(
            lambda s: wcs.penalty_phi_sensitivity(s, wcs.MODIFIED_CHI2).value,
            trials=60,
            seed=13,
        )
        assert not rep.homogeneity.passed
        assert rep.nonnegativity.passed
        assert rep.zero_iff_constant.passed
        assert rep.translation_invariance.passed

    def test_zero_measure_fails_zero_iff(self):
        rep = oracle.deviation_axioms(lambda s: 0.0, trials=30, seed=14)
        assert not rep.zero_iff_constant.passed
        assert rep.nonnegativity.passed

    def test_reproducible(self):
        m = lambda s: wcs.tv_sensitivity(s).value
        a = oracle.deviation_axioms(m, trials=50, seed=99)
        b = oracle.deviation_axioms(m, trials=50, seed=99)
        assert a == b


class TestRandomScenario:
    def test_shapes_and_ranges(self):
        rng = SplitMix64(3)
        for _ in range(50):
            s = oracle.random_scenario(rng)
            assert 2 <= s.n <= 6
            assert np.all(s.costs >= -10) and np.all(s.costs <= 10)
            assert np.all(s.probs > 0)

    def test_min_prob_rejection(self):
        rng = SplitMix64(4)
        for _ in range(30):
            s = oracle.random_scenario(rng, min_prob=0.05)
            assert float(np.min(s.probs)) >= 0.05
