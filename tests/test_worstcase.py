import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import wcs
from wcs import oracle
from wcs.errors import EpsOutOfRange
from wcs.rng import SplitMix64
from wcs.worstcase import _DELTA_CAP, _NEWTON_STEPS, _newton, _strip_cheapest

ALL_SCENARIO_FAMILIES = [
    wcs.SmoothPhi(wcs.MODIFIED_CHI2),
    wcs.SmoothPhi(wcs.KL),
    wcs.TotalVariation(),
    wcs.Budgeted(),
    wcs.Combination(0.6),
    wcs.SymmetricBox(),
]


def _saturation_divergence(phi, s):
    """D_phi of the point mass on the argmax atoms: mass phi(1 / mass) + (1 - mass) phi(0)."""
    mass = math.fsum(s.probs[s.costs == s.costs.max()].tolist())
    return mass * float(phi.value(1.0 / mass)) + (1.0 - mass) * float(phi.value(0.0))


def eps_grid(s, family, k=50):
    """Grid inside the family's natural range (phi balls stay below saturation)."""
    if isinstance(family, wcs.SmoothPhi):
        hi = 0.9 * min(_saturation_divergence(family.phi, s), 5.0)
    elif isinstance(family, wcs.TotalVariation):
        hi = 2.0
    elif isinstance(family, wcs.Budgeted):
        hi = float(np.max(1.0 / s.probs - 1.0))
    elif isinstance(family, wcs.Combination):
        hi = 1.0
    else:
        hi = 3.0
    return np.linspace(0.0, hi, k)


class TestChi2:
    def test_two_atom_example(self):
        s = wcs.validate([0, 10])
        r = wcs.wc_chi2(s, 0.02)
        assert r.value == pytest.approx(6.0, abs=1e-12)
        assert np.allclose(r.worst_q, [0.4, 0.6], atol=1e-12)
        member = lambda q: 0.5 * np.sum((q - s.probs) ** 2 / s.probs) <= 0.02 + 1e-12
        grid = oracle.brute_force_wc(s, member=member, resolution=1e-4)
        assert r.value == pytest.approx(grid, abs=1e-3)

    def test_three_atom_example(self):
        r = wcs.wc_chi2(wcs.validate([1, 5, 3]), 0.005)
        assert r.value == pytest.approx(3.163299, abs=1e-6)
        assert np.allclose(r.worst_q, [0.292509, 0.374158, 0.333333], atol=1e-6)

    def test_eps_zero(self):
        s = wcs.validate([1, 5, 3])
        r = wcs.wc_chi2(s, 0.0)
        assert r.value == pytest.approx(wcs.mean(s))
        assert np.array_equal(r.worst_q, s.probs)

    def test_closed_form_dual_satisfies_foc(self):
        s = wcs.validate([1, 5, 3])
        r = wcs.wc_chi2(s, 0.005)
        assert r.dual.c == pytest.approx(-wcs.mean(s))
        assert r.dual.delta == pytest.approx(math.sqrt(2 * 0.005 / wcs.variance(s)))

    def test_negative_eps_rejected(self):
        with pytest.raises(EpsOutOfRange):
            wcs.wc_chi2(wcs.validate([0, 1]), -0.1)


def _chi2_in_fractions(r, s):
    """D(worst_q | p) of the modified chi-square and sum worst_q - 1, exactly."""
    q = [Fraction(v) for v in r.worst_q.tolist()]
    p = [Fraction(v) for v in s.probs.tolist()]
    return sum(pi * (qi / pi - 1) ** 2 for qi, pi in zip(q, p)) / 2, sum(q) - 1


def _chi2_dual_minimum(s, eps):
    """min over eta of eta + sqrt(1 + 2 eps) ||(f - eta)_+||_{2,p}, by golden section.

    By weak duality every eta bounds the chi-square worst case from above, so
    this bound does not rely on the solver. The minimiser lies above
    min f - range / sqrt(8 eps), where h is eta + r sqrt(Var + (E f - eta)^2)."""
    f, p = s.costs, s.probs
    r = math.sqrt(1.0 + 2.0 * eps)

    def h(eta):
        return eta + r * math.sqrt(math.fsum((p * np.maximum(f - eta, 0.0) ** 2).tolist()))

    lo, hi = float(f.min() - np.ptp(f) * (1.0 + 1.0 / math.sqrt(2.0 * eps))), float(f.max())
    for _ in range(200):
        a, b = lo + 0.381966 * (hi - lo), hi - 0.381966 * (hi - lo)
        lo, hi = (lo, b) if h(a) <= h(b) else (a, hi)
    return h(0.5 * (lo + hi))


def _skewed_scenario(rng, n):
    """Costs N(0, 1) and p ~ w^k, k up to 8, with a mass from 1e-20 to 1e-300 planted on the
    costliest atom in half the draws."""
    costs = rng.standard_normal(n)
    w = rng.exponential(1.0, n) ** rng.uniform(1.0, 8.0)
    if rng.uniform() < 0.5:
        w[np.argmax(costs)] = 10.0 ** -rng.uniform(20.0, 300.0) * w.sum()
    return wcs.validate(costs, w / math.fsum(w.tolist()))


class TestChi2AdversarialMasses:
    """Atom masses many decades apart: the active count and its root must not cancel."""

    @pytest.mark.parametrize("top", [1e-20, 1e-40, 1e-107, 3.6e-250])
    def test_a_tiny_mass_on_the_costliest_atom(self, top):
        # V was 1.99999984 < 2 at 1e-20, with sum q - 1 = 1.6e-7, and below it no
        # delta was found (NoBracket); q = (0, .57, .33, 0, 0) / .9 is feasible
        s = wcs.validate([3, 2, 2, 1, 0], [top, 0.57, 0.33, 0.002, 0.098 - top])
        r = wcs.wc_chi2(s, 1.0)
        d, excess = _chi2_in_fractions(r, s)
        assert not r.clamped and abs(d - 1) <= 1e-12
        assert abs(excess) <= s.n * 2.0**-52
        assert 2.0 <= r.value <= 3.0
        assert abs(r.value - _chi2_dual_minimum(s, 1.0)) <= 1e-9 * 3.0

    def test_the_count_takes_the_whole_tie_run(self, monkeypatch):
        # whichever count the prefix sums propose, the bisection lands on the same
        # piece: the whole run at cost 2 keeps mass, with one ratio q / p, and a
        # count inside the run (a gap of 0) is never accepted
        from wcs import worstcase

        s = wcs.validate([2, 3, 2, 1, 2, 0], [0.3, 1e-20, 0.3, 0.002, 0.27, 0.128 - 1e-20])
        want = wcs.wc_chi2(s, 0.5)
        run = s.costs == 2.0
        ratio = want.worst_q[run] / s.probs[run]
        assert np.all(ratio > 0.0) and np.ptp(ratio) <= 4e-16 * ratio.max()
        assert np.all(want.worst_q[s.costs < 2.0] == 0.0)
        assert abs(want.value - _chi2_dual_minimum(s, 0.5)) <= 1e-9 * 3.0
        for k in range(s.n + 2):
            monkeypatch.setattr(worstcase, "_chi2_count", lambda g, p, eps, k=k: k)
            got = wcs.wc_chi2(s, 0.5)
            assert got.value == want.value and got.worst_q.tobytes() == want.worst_q.tobytes()
            assert got.dual == want.dual

    def test_small_scenarios_against_the_grid_and_the_dual(self):
        # the grid's best feasible q bounds V from below and any dual eta from
        # above; the draws with tiny masses take the dual bound alone, as no grid
        # resolves them
        rng = np.random.default_rng(7)
        for _ in range(60):
            s = _skewed_scenario(rng, int(rng.integers(2, 5)))
            eps = 10.0 ** rng.uniform(-3.0, 1.0)
            r = wcs.wc_chi2(s, eps)
            width = float(np.ptp(s.costs))
            if not r.clamped:
                d, excess = _chi2_in_fractions(r, s)
                assert abs(d - Fraction(eps)) <= 1e-12 * eps and abs(excess) <= s.n * 2.0**-52
                assert abs(r.value - _chi2_dual_minimum(s, eps)) <= 1e-9 * width, (s, eps)
            if s.n <= 3 and s.probs.min() >= 0.04:
                member = lambda q: wcs.MODIFIED_CHI2.divergence(q, s.probs) <= eps  # noqa: E731
                grid = oracle.brute_force_wc(s, member=member, resolution=0.01)
                assert grid <= r.value + 1e-9 * width


class TestSmoothPhi:
    def test_matches_chi2_everywhere(self):
        rng = SplitMix64(21)
        for _ in range(60):
            s = oracle.random_scenario(rng, 2, 5)
            eps = 2.0 * rng.uniform()
            a = wcs.wc_chi2(s, eps)
            b = wcs.wc_smooth_phi(s, wcs.MODIFIED_CHI2, eps)
            assert a.value == pytest.approx(b.value, abs=1e-8)
            assert np.allclose(a.worst_q, b.worst_q, atol=1e-7)

    def test_kl_against_independent_tilt_solve(self):
        # n=2 uniform: worst q = (1-t, t); solve the 1-d divergence equation
        def kl_gap(t):
            return t * math.log(2 * t) + (1 - t) * math.log(2 * (1 - t)) - 0.02

        lo, hi = 0.5 + 1e-12, 1 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if kl_gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        v_expected = 10 * 0.5 * (lo + hi)
        r = wcs.wc_smooth_phi(wcs.validate([0, 10]), wcs.KL, 0.02)
        assert r.value == pytest.approx(v_expected, abs=1e-9)
        assert r.value == pytest.approx(5.997, abs=1e-3)
        assert r.worst_q[1] == pytest.approx(0.5997, abs=1e-4)

    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_an_eps_too_small_to_move_v_gives_the_nominal(self, phi):
        # sum p is 1 - 2^-54 here; KL used to chase that rounding to V = E_p f + 3e-10
        s = wcs.validate([0, 0, 0, 0, 0, 1], np.array([4, 4, 4, 2, 1, 4]) / 19.0)
        for eps in (5e-324, 7.8e-251, 2.0**-106):
            r = wcs.wc_smooth_phi(s, phi, eps)
            assert (r.epsilon, r.value) == (eps, wcs.mean(s))
            assert np.array_equal(r.worst_q, s.probs)

    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_small_eps_expansion(self, phi):
        s = wcs.validate([1, 5, 3], [0.2, 0.5, 0.3])
        eps = 1e-8
        rate = (wcs.wc_smooth_phi(s, phi, eps).value - wcs.mean(s)) / math.sqrt(eps)
        assert rate == pytest.approx(
            math.sqrt(2 * wcs.variance(s) / phi.curvature), rel=1e-3
        )

    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_dual_certificate_residuals(self, phi):
        rng = SplitMix64(31)
        for _ in range(40):
            s = oracle.random_scenario(rng, 2, 5)
            eps = 1.5 * rng.uniform() + 1e-4
            r = wcs.wc_smooth_phi(s, phi, eps)
            if r.dual is None:  # saturated or degenerate
                continue
            srt = wcs.sort_desc(s)
            z = phi.inverse_clamped(r.dual.delta * (srt.costs_desc + r.dual.c))
            foc_c = math.fsum((srt.probs_desc * z).tolist()) - 1.0
            foc_delta = eps - phi.divergence(srt.probs_desc * z, srt.probs_desc)
            assert abs(foc_c) < 1e-9
            assert abs(foc_delta) < 1e-9

    def test_saturation_returns_max(self):
        s = wcs.validate([0, 10])
        r = wcs.wc_chi2(s, 5.0)  # max chi2 divergence toward the vertex is 0.5
        assert r.value == 10.0
        assert r.clamped
        r2 = wcs.wc_smooth_phi(s, wcs.KL, 10.0)  # KL saturation at ln 2
        assert r2.value == 10.0

    def test_generic_bisection_path_via_scaled_chi2(self):
        # phi(z) = (z-1)^2 has no analytic inner solve here; its ball of
        # radius eps equals the modified chi2 ball of radius eps/2
        from wcs.core import PhiFunction

        chi2_x2 = PhiFunction(
            name="chi2-times-two",
            value=lambda z: (np.asarray(z, dtype=float) - 1.0) ** 2,
            inv_deriv=lambda zeta: 1.0 + 0.5 * np.asarray(zeta, dtype=float),
            zeta_floor=-2.0,
            curvature=2.0,
        )
        rng = SplitMix64(51)
        for _ in range(15):
            s = oracle.random_scenario(rng, 2, 4)
            eps = 0.8 * rng.uniform() + 1e-3
            a = wcs.wc_smooth_phi(s, chi2_x2, eps)
            b = wcs.wc_chi2(s, eps / 2.0)
            assert a.value == pytest.approx(b.value, abs=1e-8)

    @pytest.mark.parametrize("name", ["modified-chi2", "kl"])
    def test_user_phi_named_like_a_builtin(self, name):
        # the closed forms belong to the built-in objects, not to their names:
        # a user phi that reuses a name must still get its own math
        from wcs.core import PhiFunction

        chi2_x2 = PhiFunction(
            name=name,
            value=lambda z: (np.asarray(z, dtype=float) - 1.0) ** 2,
            inv_deriv=lambda zeta: 1.0 + 0.5 * np.asarray(zeta, dtype=float),
            zeta_floor=-2.0,
            curvature=2.0,
        )
        s = wcs.validate([1, 5, 3], [0.2, 0.3, 0.5])
        want = wcs.wc_chi2(s, 0.05).value
        assert want == pytest.approx(3.6427, abs=1e-4)
        assert wcs.worst_case(s, wcs.SmoothPhi(chi2_x2), 0.1).value == pytest.approx(want, abs=1e-8)
        assert wcs.wc_smooth_phi(s, chi2_x2, 0.1).value == pytest.approx(want, abs=1e-8)

    def test_eps_zero_dual(self):
        s = wcs.validate([1, 5, 3])
        r = wcs.wc_smooth_phi(s, wcs.KL, 0.0)
        assert r.dual.delta == 0.0
        assert r.dual.c == pytest.approx(-wcs.mean(s))

    def test_no_bracket_for_flat_pseudo_phi(self):
        from wcs.core import PhiFunction
        from wcs.errors import NoBracket

        # inverse derivative pinned at 1: the tilt never moves, divergence
        # stays 0, and the outer search must report the failed bracket
        # (value is +inf at 0 so the saturation shortcut stays out of play)
        flat = PhiFunction(
            name="flat",
            value=lambda z: np.where(np.asarray(z, dtype=float) > 0.0, 0.0, math.inf),
            inv_deriv=lambda zeta: np.ones_like(np.asarray(zeta, dtype=float)),
            zeta_floor=-math.inf,
            curvature=1.0,
        )
        with pytest.raises(NoBracket):
            wcs.wc_smooth_phi(wcs.validate([0, 10]), flat, 0.5)

    def test_bounded_phi_derivative_raises_instead_of_a_wrong_value(self):
        # Burg's phi' = 1 - 1/z stays below 1: past the pole the tilt clamps to 0,
        # and the solve returned V = 4.0245 with D = 0.190 at eps 1 and V = 3.942
        # with D = 0.152 at eps 3, below V(0.3)
        from wcs.core import PhiFunction
        from wcs.errors import NoBracket

        def value(z):
            z = np.asarray(z, dtype=float)
            with np.errstate(divide="ignore"):
                return z - 1.0 - np.log(z)

        burg = PhiFunction(
            name="burg",
            value=value,
            inv_deriv=lambda zeta: 1.0 / (1.0 - np.asarray(zeta, dtype=float)),
            zeta_floor=-math.inf,
            curvature=1.0,
        )
        s = wcs.validate([1, 5, 3], [0.2, 0.3, 0.5])
        for eps in (0.1, 0.3):
            r = wcs.wc_smooth_phi(s, burg, eps)
            assert abs(burg.divergence(r.worst_q, s.probs) - eps) <= 1e-12 * eps
        for eps in (1.0, 3.0):
            with pytest.raises(NoBracket):
                wcs.wc_smooth_phi(s, burg, eps)

    def test_an_inverse_that_is_nan_past_its_pole_raises_no_bracket(self):
        # Hellinger's phi' = 2 - 2 / sqrt(z) stays below 2, and this [phi']^{-1} is NaN
        # past 2: at eps 0.8 the c solve finds no root, which raises NoBracket
        from wcs.core import PhiFunction
        from wcs.errors import NoBracket

        hellinger = PhiFunction(
            name="hellinger",
            value=lambda z: 2.0 * (np.sqrt(np.asarray(z, dtype=float)) - 1.0) ** 2,
            inv_deriv=lambda zeta: 1.0 / np.sqrt(1.0 - 0.5 * np.asarray(zeta, dtype=float)) ** 4,
            zeta_floor=-math.inf,
            curvature=1.0,
        )
        s = wcs.validate([-87.0, -45.0, 47.5], [0.18, 0.64, 0.18])
        r = wcs.wc_smooth_phi(s, hellinger, 0.1)
        assert abs(hellinger.divergence(r.worst_q, s.probs) - 0.1) <= 1e-12 * 0.1
        with pytest.raises(NoBracket):
            wcs.wc_smooth_phi(s, hellinger, 0.8)

    def test_single_atom_scenarios(self):
        s = wcs.validate([5.0])
        for fam in ALL_SCENARIO_FAMILIES:
            r = wcs.worst_case(s, fam, 0.3)
            assert r.degenerate and r.value == 5.0

    def test_generic_tilt_matches_the_primary_solve(self, monkeypatch):
        # a user copy of chi2 runs the generic tilt with the c solve any user
        # phi runs, against the built-in chi2's dual solve, and so does a user
        # copy of KL, where the built-in KL takes c in closed form
        from wcs import worstcase

        rng = SplitMix64(43)
        cases = []
        for _ in range(16):
            # three atoms at least: with two, chi2 saturates where its closed form ends
            s = oracle.random_scenario(rng, 3, 11)
            kl_sat = -math.log(float(np.sum(s.probs[s.costs == s.costs.max()])))
            chi2_sat = _saturation_divergence(wcs.MODIFIED_CHI2, s)
            # past this eps the closed form would take mass off the cheapest atom
            mean = float(s.probs @ s.costs)
            closed = float(s.probs @ (s.costs - mean) ** 2) / (2.0 * (mean - s.costs.min()) ** 2)
            kl_eps = kl_sat * (0.05 + 0.9 * rng.uniform())
            chi2_eps = closed + (chi2_sat - closed) * (0.05 + 0.9 * rng.uniform())
            kl, chi2 = wcs.wc_smooth_phi(s, wcs.KL, kl_eps), wcs.wc_chi2(s, chi2_eps)
            assert np.min(chi2.worst_q) == 0.0 and not chi2.clamped
            cases.append((s, kl_eps, kl, chi2_eps, chi2))

        calls = []
        real = worstcase._tilt
        monkeypatch.setattr(
            worstcase, "_tilt", lambda g, p, phi, eps: calls.append(phi) or real(g, p, phi, eps)
        )
        user_kl = dataclasses.replace(wcs.KL, name="kl-as-user")
        user_chi2 = dataclasses.replace(wcs.MODIFIED_CHI2, name="chi2-as-user")
        for s, kl_eps, kl, chi2_eps, chi2 in cases:
            width = float(np.ptp(s.costs))
            for phi, eps, want, got in (
                (user_kl, kl_eps, kl, wcs.wc_smooth_phi(s, user_kl, kl_eps)),
                (user_chi2, chi2_eps, chi2, wcs.wc_smooth_phi(s, user_chi2, chi2_eps)),
            ):
                assert abs(got.value - want.value) <= 1e-12 * width, (phi.name, eps)
                assert np.allclose(got.worst_q, want.worst_q, rtol=0.0, atol=1e-12)
                d = phi.divergence(got.worst_q, s.probs)
                assert abs(d - eps) <= 1e-10 * eps, (phi.name, eps, d)
            # the built-in chi2 never reaches the generic tilt
            wcs.wc_chi2(s, chi2_eps)
        assert calls == [user_kl, user_chi2] * len(cases)


class TestTv:
    def test_small_eps_example(self):
        s = wcs.validate([1, 5, 3])
        r = wcs.wc_tv(s, 0.2)
        assert r.value == pytest.approx(3.4, abs=1e-12)
        assert np.allclose(r.worst_q, [0.2333333, 0.4333333, 0.3333333], atol=1e-6)

    def test_large_eps_example(self):
        r = wcs.wc_tv(wcs.validate([1, 5, 3]), 1.0)
        assert r.value == pytest.approx(4.6666667, abs=1e-6)
        assert np.allclose(r.worst_q, [0.0, 0.8333333, 0.1666667], atol=1e-6)

    def test_eps_zero(self):
        s = wcs.validate([1, 5, 3])
        r = wcs.wc_tv(s, 0.0)
        assert r.value == pytest.approx(3.0)
        assert np.allclose(r.worst_q, s.probs)

    def test_eps_beyond_two_clamps(self):
        s = wcs.validate([1, 5, 3])
        r = wcs.wc_tv(s, 3.5)
        assert r.clamped
        assert r.value == pytest.approx(5.0)

    def test_negative_eps(self):
        with pytest.raises(EpsOutOfRange):
            wcs.wc_tv(wcs.validate([0, 1]), -0.5)

    def test_dual_optimality_small_eps(self):
        # strong LP duality: eps * max_i |f_i - theta| + mean = V for eps < min(p)
        rng = SplitMix64(61)
        for _ in range(50):
            s = oracle.random_scenario(rng, 2, 6)
            eps = 0.9 * float(np.min(s.probs)) * rng.uniform()
            if eps == 0.0:
                continue
            r = wcs.wc_tv(s, eps)
            dual_val = eps * float(np.max(np.abs(s.costs - r.dual.theta))) + wcs.mean(s)
            assert dual_val == pytest.approx(r.value, abs=1e-10)
            assert r.dual.lam == pytest.approx(
                float(np.max(np.abs(s.costs - r.dual.theta))), abs=1e-12
            )

    @staticmethod
    def _strip_loop(q, need):
        # the cheapest-first strip as a loop: the reference for _strip_cheapest
        q = q.copy()
        for j in range(q.size - 1, 0, -1):
            take = min(need, q[j])
            q[j] -= take
            need -= take
            if need <= 0.0:
                break
        return q

    def test_strip_matches_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for trial in range(2000):
            n = int(rng.integers(2, 40))
            p = np.full(n, 1.0 / n) if trial % 3 == 0 else rng.exponential(size=n) + 1e-3
            p = p / p.sum()
            e = (0.0, 2.0, rng.uniform(0.0, 2.0), 2.0 * (1.0 - p[0]))[trial % 4]
            q = p.copy()
            gain = min(0.5 * e, 1.0 - q[0])
            q[0] += gain
            ref = self._strip_loop(q, gain)
            _strip_cheapest(q[None, :], np.array([gain]))
            assert np.array_equal(q.view(np.int64), ref.view(np.int64))

    def test_strip_rows_are_independent(self):
        rng = np.random.default_rng(8)
        q = rng.exponential(size=(50, 12)) + 1e-3
        q /= q.sum(axis=1, keepdims=True)
        need = rng.uniform(0.0, 1.0, 50) * (1.0 - q[:, 0])
        ref = np.array([self._strip_loop(row, w) for row, w in zip(q, need)])
        _strip_cheapest(q, need)
        assert np.array_equal(q.view(np.int64), ref.view(np.int64))


class TestTopOfTheDoubleRange:
    """Duals whose plain form overflows are taken on halved costs; each is a Python float."""

    def test_tv_dual_on_an_overflowing_range(self):
        dual = wcs.wc_tv(wcs.validate([-1e308, 1e308, 0.0]), 0.3).dual
        assert (dual.theta, dual.lam) == (0.0, 1e308)
        assert type(dual.theta) is float and type(dual.lam) is float

    def test_tv_dual_on_an_overflowing_sum(self):
        dual = wcs.wc_tv(wcs.validate([1.7e308, 1e308, 1.5e308]), 0.3).dual
        assert (dual.theta, dual.lam) == (1.35e308, 0.5 * 1.7e308 - 0.5 * 1e308)

    def test_budgeted_slope_on_an_overflowing_range(self):
        s = wcs.validate([-1e308, 1e308, 0.0])
        assert wcs.wc_budgeted(s, 0.3).dual.slope == 1e308
        assert wcs.budgeted_slope(s, 0.3) == 1e308

    @pytest.mark.parametrize("n", [3, 5000])
    def test_budgeted_slope_is_twice_the_slope_on_halved_costs(self, n):
        rng = np.random.default_rng(n)
        costs = rng.uniform(-1.0, 1.0, n) * 1e308
        costs[:2] = [-1.5e308, 1.7e308]
        weights = rng.exponential(1.0, n) + 0.05
        probs = weights / math.fsum(weights.tolist())
        s, half = wcs.validate(costs, probs), wcs.validate(costs / 2.0, probs)
        for eps in (0.05, 0.3, 2.0):
            slope = wcs.budgeted_slope(s, eps)
            assert math.isfinite(slope) and slope == 2.0 * wcs.budgeted_slope(half, eps)


class TestBudgeted:
    def test_two_atom_example(self):
        r = wcs.wc_budgeted(wcs.validate([0, 10]), 0.4)
        assert r.value == pytest.approx(7.0, abs=1e-12)
        assert np.allclose(r.worst_q, [0.3, 0.7], atol=1e-12)

    def test_three_atom_example(self):
        r = wcs.wc_budgeted(wcs.validate([1, 5, 3]), 0.5)
        assert r.value == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(r.worst_q, [0.0, 0.5, 0.5], atol=1e-12)

    def test_eps_zero(self):
        s = wcs.validate([1, 5, 3])
        assert wcs.wc_budgeted(s, 0.0).value == pytest.approx(wcs.mean(s))

    def test_value_is_cvar_exactly(self):
        rng = SplitMix64(71)
        for _ in range(60):
            s = oracle.random_scenario(rng, 2, 6)
            eps = 3.0 * rng.uniform()
            e_eff = min(eps, float(np.max(1.0 / s.probs - 1.0)))
            assert wcs.wc_budgeted(s, eps).value == wcs.cvar(s, e_eff / (1.0 + e_eff))

    def test_clamps_at_saturation(self):
        s = wcs.validate([1, 5, 3], [0.2, 0.5, 0.3])
        r = wcs.wc_budgeted(s, 100.0)
        assert r.clamped
        assert r.value == pytest.approx(5.0)
        assert r.dual.slope == 0.0

    def test_slope_on_first_piece(self):
        s = wcs.validate([1, 5, 3])
        r = wcs.wc_budgeted(s, 0.2)
        assert r.dual.slope == pytest.approx(wcs.budgeted_sensitivity(s).value, abs=1e-12)

    # with min p = 1e-20 the set saturates at eps = 1e20, but eps/(1 + eps) rounds to 1 from ~2e16
    ROUNDED_LEVEL_EPS = (3e16, 1e17, 1e18, 1e19, 5e19, 1e20, 1e21)

    def test_a_level_that_rounds_to_one_below_saturation(self):
        s = wcs.validate([5.0, 1.0, 2.0], [1e-20, 0.5, 0.5 - 1e-20])
        r = wcs.wc_budgeted(s, 1e18)
        # the costliest atom takes its cap (1 + eps) p = 0.01 and the next one the rest
        assert not r.clamped and r.value == pytest.approx(0.01 * 5.0 + 0.99 * 2.0, rel=1e-15)
        assert r.worst_q.tolist() == pytest.approx([0.01, 0.0, 0.99], rel=1e-15)
        assert r.dual.slope == pytest.approx(3e-20, rel=1e-15)
        assert wcs.budgeted_slope(s, 1e18) == r.dual.slope
        r = wcs.wc_budgeted(wcs.validate([1, 2, 3], [1e-20, 0.5, 0.5 - 1e-20]), 1e20)
        assert r.value == 3.0 and r.dual.slope == 0.0 and not r.clamped

    def test_a_rounded_level_matches_the_batch_and_the_vertex_oracle(self):
        rng = SplitMix64(41)
        scenarios = []
        for _ in range(6):
            n = rng.randint(3, 6)
            costs = [-10.0 + 20.0 * rng.uniform() for _ in range(n)]
            tiny = [1e-20, 3e-19][: rng.randint(1, 2)]
            rest = [rng.exponential(1.0) for _ in range(n - len(tiny))]
            total = math.fsum(rest) / (1.0 - math.fsum(tiny))
            scenarios.append(wcs.validate(costs, tiny + [v / total for v in rest]))
        for s in scenarios:
            for eps in self.ROUNDED_LEVEL_EPS:
                r = wcs.wc_budgeted(s, eps)
                batch = wcs.Budgeted().block_reader(s.probs, eps)(s.costs[None, :])
                assert batch[0].hex() == r.value.hex()
                want = oracle.brute_force_wc(s, polytope=oracle.budgeted_polytope(s, eps))
                assert abs(r.value - want) <= 1e-12 * max(1.0, abs(want))

    def test_a_subnormal_tail_mass_keeps_its_caps(self):
        # past eps ~ 4.5e307 the tail mass 1/(1 + eps) is below 2^-1022; the costliest atom's
        # cap (1 + eps) 1e-310 still stops short of 1, for the budgeted set and the box alike
        s = wcs.validate([2.0, 1.0], [1e-310, 1.0 - 1e-310])
        for eps in (4e307, 1e308, 1.7e308):
            # about 0.004, 0.01 and 0.017: p = 1e-310 keeps 14 digits
            cap = float(Fraction(s.probs[0]) * (1 + Fraction(eps)))
            want = oracle.brute_force_wc(s, polytope=oracle.budgeted_polytope(s, eps))
            assert want == pytest.approx(1.0 + cap, rel=1e-15, abs=0.0)
            for family, r in (
                (wcs.Budgeted(), wcs.wc_budgeted(s, eps)),
                (wcs.SymmetricBox(), wcs.wc_box_symmetric(s, eps)),
            ):
                assert r.value == pytest.approx(want, rel=1e-15, abs=0.0), family.name
                assert r.worst_q.tolist() == pytest.approx([cap, 1.0 - cap], rel=1e-15, abs=0.0)
                batch = family.block_reader(s.probs, eps)(np.array([s.costs, s.costs[::-1]]))
                assert batch[0].hex() == r.value.hex()
            assert wcs.wc_budgeted(s, eps).dual.slope == 1e-310 == wcs.budgeted_slope(s, eps)
        # a band whose tail mass (1 - L)/(U - L) ~ 2e-315 rounds off by 5e-10 of itself: the
        # costliest atom's q = L p + (1 - L) p (U - L)/(1 - L) = p U must not carry that error
        L, U = 1.0 - 2.0**-45, 1.234e301
        s = wcs.validate([2.0, 1.0], [1e-315, 1.0 - 1e-315])
        r = wcs.wc_box(s, wcs.BoxParams(L, U))
        assert r.worst_q[0] == pytest.approx(1e-315 * U, rel=1e-13, abs=0.0)
        want = oracle.brute_force_wc(s, polytope=oracle.box_polytope(s, L, U))
        assert r.value == pytest.approx(want, rel=1e-15, abs=0.0)
        # at the largest eps every cap but the costliest one passes 1
        s = wcs.validate([3.0, 2.0, 1.0], [2e-310, 3e-310, 1.0 - 5e-310])
        r = wcs.wc_budgeted(s, 1.7976931348623157e308)
        want = oracle.brute_force_wc(s, polytope=oracle.budgeted_polytope(s, 1.7976931348623157e308))
        assert r.value == pytest.approx(want, rel=1e-15, abs=0.0)


class TestCombination:
    def test_example(self):
        s = wcs.validate([0, 10])
        assert wcs.wc_combination(s, 0.5, 0.3).value == pytest.approx(6.5, abs=1e-12)
        assert wcs.wc_combination(s, 0.5, 0.0).value == pytest.approx(5.0)
        assert wcs.wc_combination(s, 0.5, 1.0).value == pytest.approx(10.0)

    def test_eps_range(self):
        with pytest.raises(EpsOutOfRange):
            wcs.wc_combination(wcs.validate([0, 1]), 0.5, 1.5)

    def test_slope_identity(self):
        rng = SplitMix64(81)
        for _ in range(40):
            s = oracle.random_scenario(rng, 2, 5)
            alpha = 0.95 * rng.uniform()
            dev = wcs.cvar_deviation(s, alpha)
            for eps in (0.2, 0.6, 1.0):
                quot = (wcs.wc_combination(s, alpha, eps).value - wcs.mean(s)) / eps
                assert quot == pytest.approx(dev, abs=1e-10)


class TestBox:
    def test_examples(self):
        s = wcs.validate([0, 10])
        assert wcs.wc_box(s, wcs.BoxParams(0.0, 2.0)).value == pytest.approx(10.0)
        assert wcs.wc_box_symmetric(s, 1.0).value == pytest.approx(7.5)
        assert wcs.wc_box(s, wcs.BoxParams(1.0, 1.0)).value == pytest.approx(5.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            wcs.BoxParams(1.2, 2.0)
        with pytest.raises(ValueError):
            wcs.BoxParams(0.5, 0.9)

    def test_symmetric_slope_at_zero(self):
        s = wcs.validate([1, 5, 3], [0.2, 0.5, 0.3])
        target = wcs.symmetric_box_sensitivity(s).value
        nu = 1e-7
        assert (wcs.wc_box_symmetric(s, nu).value - wcs.mean(s)) / nu == pytest.approx(
            target, rel=1e-5
        )

    # past nu ~ 9e15 the CVaR level (U - 1)/(U - L) rounds to 1
    HUGE_NU = (1e16, 3e16, 1e18, 1e20, 1e100, 1e300)

    def test_a_band_whose_level_rounds_to_one(self):
        s = wcs.validate([1, 2, 3], [0.2, 0.3, 0.5])
        for nu in self.HUGE_NU:
            r = wcs.wc_box_symmetric(s, nu)
            assert r.value == pytest.approx(3.0, abs=1e-15) and r.epsilon == nu
            assert r.worst_q[2] == pytest.approx(1.0, abs=1e-15)
        r = wcs.wc_box(s, wcs.BoxParams(0.5, 1e17))
        assert r.value == 0.5 * wcs.mean(s) + 0.5 * 3.0
        # U at the largest double: the caps p / beta stay finite
        assert wcs.wc_box_symmetric(s, 1.7976931348623157e308).value == 3.0

    def test_huge_bands_match_the_vertex_oracle(self):
        rng = SplitMix64(29)
        scenarios = [oracle.random_scenario(rng, 1, 6) for _ in range(40)]
        # the costliest atom's cap (U - L)/(1 - L) p stops short of 1 until nu ~ 1e20
        scenarios.append(wcs.validate([5.0, 1.0, 2.0], [1e-20, 0.5, 0.5 - 1e-20]))
        for s in scenarios:
            for nu in self.HUGE_NU:
                L, U = 1.0 / (1.0 + nu), 1.0 + nu
                want = oracle.brute_force_wc(s, polytope=oracle.box_polytope(s, L, U))
                assert abs(wcs.wc_box_symmetric(s, nu).value - want) <= 1e-12 * max(1.0, abs(want))
        r = wcs.wc_box_symmetric(scenarios[-1], 1e18)
        assert r.value == pytest.approx(0.01 * 5.0 + 0.99 * 2.0, rel=1e-12)

    def test_value_rises_with_nu_through_the_rounded_level(self):
        """Nondecreasing to within the rounding of the weights L and 1 - L, which
        moves V by about 2e-16 of the largest cost below nu = 9e15 as well."""
        rng = SplitMix64(31)
        nus = [0.0, 0.5, 3.0, 1e8, 1e15, 9e15, *self.HUGE_NU]
        for _ in range(100):
            s = oracle.random_scenario(rng, 1, 6)
            values = [wcs.wc_box_symmetric(s, nu).value for nu in nus]
            slack = 1e-15 * float(np.max(np.abs(s.costs)))
            assert all(b >= a - slack for a, b in zip(values, values[1:]))
            batch = [wcs.SymmetricBox().block_reader(s.probs, nu)(s.costs[None, :])[0] for nu in nus]
            assert [v.hex() for v in batch] == [v.hex() for v in values]

    def test_bands_below_the_rounded_level_keep_the_cvar_formula(self):
        """L mean + (1 - L) CVaR at level (U - 1)/(U - L), bit for bit, up to nu = 9e15."""
        rng = SplitMix64(37)
        for _ in range(40):
            s = oracle.random_scenario(rng, 2, 8)
            for nu in (1e-9, 0.5, 3.0, 1e8, 1e15, 9e15):
                L, U = 1.0 / (1.0 + nu), 1.0 + nu
                level = (U - 1.0) / (U - L)
                r = wcs.wc_box_symmetric(s, nu)
                assert r.value.hex() == (L * wcs.mean(s) + (1.0 - L) * wcs.cvar(s, level)).hex()
                q = L * s.probs + (1.0 - L) * wcs.cvar_distribution(s, level)
                assert np.array_equal(r.worst_q, q)


class TestWassersteinPl:
    def test_newsvendor_example(self):
        from wcs import dro

        params = dro.NewsvendorParams(r=10, c=2, q=0, s=4)
        curve = dro.demand_cost_curve(params, 15.0)
        for eps in (0.0, 0.1, 0.5, 2.0):
            r = wcs.wc_wasserstein_pl([10.0, 20.0], [0.5, 0.5], curve, eps)
            assert r.value == pytest.approx(-85.0 + 10.0 * eps, abs=1e-10)
            assert r.dual.lam == 10.0
        # moving atom 10 to 0 at ratio 10 costs 5; past it, atom 20 moves there at ratio 6.5
        r = wcs.wc_wasserstein_pl([10.0, 20.0], [0.5, 0.5], curve, 6.0)
        assert (r.value, r.dual.lam, r.dual.attained) == (-35.0 + 6.5, 6.5, True)
        # transported plan reproduces the value exactly
        assert math.fsum((r.worst_q * r.support_costs).tolist()) == pytest.approx(
            r.value, abs=1e-10
        )

    def test_interpolated_cost_at_n_400(self, monkeypatch):
        # the cost is read once at each atom and once at each knot, not once per atom and knot
        rng = SplitMix64(43)
        pts = [100.0 * rng.uniform() for _ in range(400)]
        cost = wcs.interpolated_cost(pts, [rng.exponential(3.0) for _ in range(400)])
        nominal = wcs.mean(wcs.validate([cost.value(y) for y in pts]))
        steepest = max(abs(v) for v in cost.slopes)
        reads, value = [], wcs.PiecewiseLinearCost.value
        monkeypatch.setattr(
            wcs.PiecewiseLinearCost, "value", lambda c, z: reads.append(z) or value(c, z)
        )
        r0 = wcs.wc_wasserstein_pl(pts, None, cost, 0.0)
        assert len(reads) == 800
        r = wcs.wc_wasserstein_pl(pts, None, cost, 0.2)
        # the steepest ascent from a support point runs along the steepest piece
        assert (r0.value, r0.dual.lam) == (nominal, steepest)
        assert r.value == wcs.core.exact_sum(r.worst_q, r.support_costs)
        assert nominal < r.value <= nominal + 0.2 * steepest and r.dual.lam < steepest

    def test_constant_cost(self):
        flat = wcs.PiecewiseLinearCost((), (0.0,), anchor=(0.0, 2.0))
        r = wcs.wc_wasserstein_pl([0.0, 3.0], [0.5, 0.5], flat, 1.0)
        assert r.degenerate
        assert r.value == pytest.approx(2.0)


class TestFamilyInvariants:
    @pytest.mark.parametrize(
        "family", ALL_SCENARIO_FAMILIES, ids=lambda f: type(f).__name__ + getattr(getattr(f, "phi", None), "name", "")
    )
    def test_value_function_shape(self, family):
        rng = SplitMix64(91)
        for _ in range(6):
            s = oracle.random_scenario(rng, 2, 5, min_prob=0.02)
            grid = eps_grid(s, family, k=50)
            vals = [wcs.worst_case(s, family, float(e)).value for e in grid]
            assert vals[0] == pytest.approx(wcs.mean(s), abs=1e-10)
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))  # non-decreasing
            diffs = np.diff(vals)
            assert all(b <= a + 1e-8 for a, b in zip(diffs, diffs[1:]))  # concave

    @pytest.mark.parametrize(
        "family", ALL_SCENARIO_FAMILIES, ids=lambda f: type(f).__name__ + getattr(getattr(f, "phi", None), "name", "")
    )
    def test_worst_q_feasible_and_consistent(self, family):
        rng = SplitMix64(92)
        for _ in range(12):
            s = oracle.random_scenario(rng, 2, 5, min_prob=0.02)
            for e in eps_grid(s, family, k=7)[1:]:
                r = wcs.worst_case(s, family, float(e))
                q = r.worst_q
                assert np.all(q >= 0.0)
                assert math.fsum(q.tolist()) == pytest.approx(1.0, abs=1e-10)
                assert math.fsum((q * s.costs).tolist()) == pytest.approx(
                    r.value, abs=1e-8 * (1 + abs(r.value))
                )
                e_eff = float(e)
                if isinstance(family, wcs.SmoothPhi) and not r.clamped:
                    assert family.phi.divergence(q, s.probs) <= e_eff + 1e-9
                elif isinstance(family, wcs.TotalVariation):
                    assert float(np.sum(np.abs(q - s.probs))) <= min(e_eff, 2.0) + 1e-9
                elif isinstance(family, wcs.Budgeted) and not r.clamped:
                    assert np.all(q <= (1.0 + e_eff) * s.probs + 1e-9)
                elif isinstance(family, wcs.Combination):
                    lo = (1.0 - e_eff) * s.probs
                    hi = lo + e_eff * s.probs / (1.0 - family.alpha)
                    assert np.all(q >= lo - 1e-9) and np.all(q <= hi + 1e-9)
                elif isinstance(family, wcs.SymmetricBox):
                    assert np.all(q >= s.probs / (1.0 + e_eff) - 1e-9)
                    assert np.all(q <= (1.0 + e_eff) * s.probs + 1e-9)

    @pytest.mark.parametrize(
        "family",
        [f for f in ALL_SCENARIO_FAMILIES if not isinstance(f, wcs.SmoothPhi)],
        ids=lambda f: type(f).__name__,
    )
    def test_average_sensitivity_below_closed_form_linear_growth(self, family):
        rng = SplitMix64(93)
        for _ in range(5):
            s = oracle.random_scenario(rng, 2, 4, min_prob=0.02)
            closed = family.sensitivity(s).value
            grid = eps_grid(s, family, k=12)[1:]
            quots = [
                (wcs.worst_case(s, family, float(e)).value - wcs.mean(s)) / float(e)
                for e in grid
            ]
            assert all(q <= closed + 1e-6 * (1 + abs(closed)) for q in quots)
            assert all(b <= a + 1e-8 * (1 + abs(a)) for a, b in zip(quots, quots[1:]))

    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_average_sensitivity_smooth_phi(self, phi):
        # for sqrt growth only the eps-normalized quotient is concavity-monotone;
        # the sqrt-normalized quotient converges to the closed form from either side
        rng = SplitMix64(94)
        family = wcs.SmoothPhi(phi)
        for _ in range(5):
            s = oracle.random_scenario(rng, 2, 4, min_prob=0.02)
            closed = wcs.smooth_phi_sensitivity(s, phi).value
            grid = eps_grid(s, family, k=12)[1:]
            lin = [
                (wcs.worst_case(s, family, float(e)).value - wcs.mean(s)) / float(e)
                for e in grid
            ]
            assert all(b <= a + 1e-8 * (1 + abs(a)) for a, b in zip(lin, lin[1:]))
            tiny = 1e-9
            quot = (wcs.worst_case(s, family, tiny).value - wcs.mean(s)) / math.sqrt(tiny)
            assert quot == pytest.approx(closed, rel=1e-3)

    @pytest.mark.parametrize(
        "family", ALL_SCENARIO_FAMILIES, ids=lambda f: type(f).__name__ + getattr(getattr(f, "phi", None), "name", "")
    )
    def test_constant_costs_degenerate(self, family):
        s = wcs.validate([3.5, 3.5, 3.5])
        r = wcs.worst_case(s, family, 0.5)
        assert r.degenerate
        assert r.value == pytest.approx(3.5)
        assert np.allclose(r.worst_q, s.probs)
        # E_p f is 0.05468750000000001 here, as the masses sum to 1 only to rounding
        s = wcs.validate([0.0546875] * 5, [0.2] * 5)
        assert wcs.mean(s) > 0.0546875
        assert wcs.worst_case(s, family, 0.5).value == 0.0546875
        rows = np.array([[0.0546875] * 5, [0.0, 1.0, 2.0, 3.0, 4.0]])
        for eps in (0.0, 0.5):
            if (read := family.block_reader(s.probs, eps)) is not None:
                assert read(rows)[0] == 0.0546875


def _user_chi2_x2():
    """phi(z) = (z - 1)^2: not a built-in object, so c is solved by Newton."""
    from wcs.core import PhiFunction

    return PhiFunction(
        name="chi2-times-two",
        value=lambda z: (np.asarray(z, dtype=float) - 1.0) ** 2,
        inv_deriv=lambda zeta: 1.0 + 0.5 * np.asarray(zeta, dtype=float),
        zeta_floor=-2.0,
        curvature=2.0,
    )


SMOOTH_PHI_FAMILIES = [
    wcs.SmoothPhi(wcs.MODIFIED_CHI2),
    wcs.SmoothPhi(wcs.KL),
    wcs.SmoothPhi(_user_chi2_x2()),
]


class TestScaleFreeSmoothPhi:
    """Every smooth-phi solve works on standardised costs, so no cost scale breaks it."""

    def test_tiny_costs_are_solved(self):
        # the variance underflowed to 0.0 (ZeroDivisionError) and KL found no bracket
        s = wcs.validate([1e-200, 2e-200, 3e-200])
        for phi in (wcs.MODIFIED_CHI2, wcs.KL):
            r = wcs.SmoothPhi(phi).worst_case(s, 0.5)
            assert 2e-200 < r.value < 3e-200 and not r.clamped
            assert abs(phi.divergence(r.worst_q, s.probs) - 0.5) <= 1e-12 * 0.5

    def test_chi2_active_atoms_closer_than_the_square_root_of_the_smallest_double(self):
        # the top two costs differ by 2.85e-306 of the range: W of the active set
        # underflowed to 0, no active count passed and the bisection found no bracket.
        # In the third the three costliest atoms span 1.2e-308 of the range: without
        # the spread count the generic Newton finds no bracket, and delta on g overflowed
        cases = (
            ([0.0, 2.85025536e-306, -1.0], None, 0.5),
            ([-7201.14, -2.85e-306, -6.24e-204, -345219.6, -398909.2, -337349.8], None, 1.4156),
            (
                [-5.271437473353929e-306, -9.625458487726364e-306, -1.7876827789736745e-307,
                 -815.4853502445765],
                [0.19337752405023637, 0.4778666671729567, 0.28473894191649607,
                 0.044016866860310866],
                0.6017505816264382,
            ),
        )
        for costs, probs, eps in cases:
            s = wcs.validate(costs, probs)
            r = wcs.wc_chi2(s, eps)
            assert not r.clamped and math.isfinite(r.dual.delta)
            # the dual gives back the tilt q = p max(1 + delta (f + c), 0)
            delta = r.dual.delta
            z = 1.0 + delta * np.maximum(s.costs + r.dual.c, -1.0 / delta)
            assert np.allclose(r.worst_q, s.probs * z, rtol=0.0, atol=1e-12)
            assert abs(wcs.MODIFIED_CHI2.divergence(r.worst_q, s.probs) - eps) <= 1e-12 * eps
            top_two = np.sort(s.costs)[-2:]
            assert top_two[0] <= r.value <= top_two[1]

    def test_chi2_stays_inside_the_cost_range(self):
        # both costs exceed 1.0000000001, yet the delta bisection returned 0.99934
        s = wcs.validate(
            [1.000000000147217, 1.000000000147246], [0.20800734362858495, 0.791992656371415]
        )
        v = wcs.wc_chi2(s, 0.01).value
        assert 1.000000000147217 <= v <= 1.000000000147246
        # 200 rows of 20 draws near 1e150: the bisection returned 0.0 for some
        rng = SplitMix64(8)
        rows = np.array([[1e150 * rng.exponential(1.0) for _ in range(20)] for _ in range(200)])
        probs = np.full(20, 1.0 / 20)
        for eps in (0.3, 0.5):
            for row in rows:
                v = wcs.wc_chi2(wcs.validate(row, probs), eps).value
                assert row.min() <= v <= row.max(), (eps, v)

    def test_kl_on_huge_costs_tilts_to_the_top(self):
        # the delta bisection stopped at delta = 4.6e-13 for a root near 1e-151
        # and returned V = 1.333e150 < E_p f with a worst_q summing to 1/3
        s = wcs.validate(1e150 * np.array([1.0, 2.0, 4.0]))
        r = wcs.wc_smooth_phi(s, wcs.KL, 0.3)
        unit = wcs.wc_smooth_phi(wcs.validate([1.0, 2.0, 4.0]), wcs.KL, 0.3)
        assert r.value == pytest.approx(3.3052e150, rel=1e-4)
        assert r.value == pytest.approx(1e150 * unit.value, rel=1e-14)
        assert math.fsum(r.worst_q.tolist()) == pytest.approx(1.0, abs=1e-15)
        assert abs(wcs.KL.divergence(r.worst_q, s.probs) - 0.3) <= 1e-12 * 0.3

    def test_kl_residual_does_not_grow_with_the_cost_scale(self):
        # an absolute stop in delta left 4e-14, 7e-10 and 9e-7 at scales 1, 1e3, 1e6
        rng = SplitMix64(3)
        costs = np.array([rng.exponential(1.0) for _ in range(40)])
        for scale in (1.0, 1e3, 1e6):
            s = wcs.validate(scale * costs)
            r = wcs.wc_smooth_phi(s, wcs.KL, 0.3)
            assert abs(wcs.KL.divergence(r.worst_q, s.probs) - 0.3) <= 1e-12 * 0.3, scale

    @pytest.mark.parametrize("family", SMOOTH_PHI_FAMILIES, ids=lambda f: f.phi.name)
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e3, 1e6, 1e150])
    def test_gates_at_every_cost_scale(self, family, scale):
        rng = SplitMix64(5)
        unit = np.array([rng.exponential(1.0) for _ in range(12)])
        w = [0.05 + rng.exponential(1.0) for _ in range(12)]
        probs = np.array([v / math.fsum(w) for v in w])
        s = wcs.validate(scale * unit, probs)
        width = np.ptp(s.costs)
        # chi2 drops no atom at the first three and 1, 3 and 6 atoms at the others
        for eps in (0.01, 0.05, 0.3, 1.0, 1.5, 3.0):
            r = family.worst_case(s, eps)
            assert not r.clamped
            d = family.phi.divergence(r.worst_q, s.probs)
            assert abs(d - eps) <= 1e-12 * eps, (eps, d)
            assert s.costs.min() <= r.value <= s.costs.max()
            for lam, t in ((3.0, -7.5 * scale), (0.5, 1e3 * scale)):
                moved = family.worst_case(wcs.validate(lam * s.costs + t, probs), eps).value
                want = lam * r.value + t
                assert abs(moved - want) <= 1e-12 * (abs(want) + lam * width), (eps, lam, t)

    def test_user_phi_and_kl_use_the_tilt_kernel_and_chi2_the_active_set(self, monkeypatch):
        from wcs import worstcase

        calls = []
        real = worstcase._tilt
        monkeypatch.setattr(
            worstcase, "_tilt", lambda g, p, phi, eps: calls.append(phi) or real(g, p, phi, eps)
        )
        s = wcs.validate([1, 5, 3], [0.2, 0.3, 0.5])
        clamped = wcs.wc_chi2(s, 0.3)
        assert clamped.worst_q[0] == 0.0 and calls == []
        assert wcs.wc_smooth_phi(s, wcs.KL, 0.3).dual is not None and calls == [wcs.KL]
        user = _user_chi2_x2()
        assert wcs.wc_smooth_phi(s, user, 0.6).value == pytest.approx(clamped.value, abs=1e-12)
        assert calls == [wcs.KL, user]

    def test_user_phi_reaches_a_multiplier_far_below_one(self):
        # phi = K (z - 1)^2 with K = 1e-200 is chi2 scaled by 2K: the same tilt
        # solves it at eps 2K times chi2's, with a multiplier 2K times chi2's,
        # below the 2^-200 that halving [0, 1] reached. Its saturation
        # divergence is about 1e-200, which an absolute 1e-9 slack read as
        # reached at every eps here (V = 5.0 at eps = 1e-201).
        from wcs.core import PhiFunction

        K = 1e-200
        tiny = PhiFunction(
            name="chi2-times-1e-200",
            value=lambda z: K * (np.asarray(z, dtype=float) - 1.0) ** 2,
            inv_deriv=lambda zeta: 1.0 + np.asarray(zeta, dtype=float) / (2.0 * K),
            zeta_floor=-2.0 * K,
            curvature=2.0 * K,
        )
        s = wcs.validate([1, 5, 3], [0.2, 0.3, 0.5])
        for eps in (0.005, 0.05, 0.3):
            r = wcs.wc_smooth_phi(s, tiny, 2.0 * K * eps)
            chi2 = wcs.wc_chi2(s, eps)
            assert not r.clamped
            assert r.value == pytest.approx(chi2.value, abs=1e-12 * 4.0)
            assert np.allclose(r.worst_q, chi2.worst_q, rtol=0.0, atol=1e-12)
            assert r.dual.delta == pytest.approx(2.0 * K * chi2.dual.delta, rel=1e-12)
            assert abs(tiny.divergence(r.worst_q, s.probs) - 2.0 * K * eps) <= 1e-12 * 2.0 * K * eps


def _residual(f, slope, noise=0.0):
    """An at for ``_newton``: residual f(x), slope(x), and x itself as the output."""
    seen = []

    def at(x):
        seen.append(x)
        return f(x), noise, lambda: slope(x), x

    return at, seen


class TestNewton:
    def test_a_rising_residual_is_solved_to_within_its_noise(self):
        at, _ = _residual(lambda x: x * x - 2.0, lambda x: 2.0 * x, noise=1e-12)
        x, out = _newton(1.0, 0.0, math.inf, at)
        assert abs(x * x - 2.0) <= 1e-12 and out == x

    def test_with_no_noise_it_stops_where_the_bracket_closes_to_adjacent_doubles(self):
        # x^2 - 2 is 0 at no double: the solve ends between the two around sqrt(2)
        at, seen = _residual(lambda x: x * x - 2.0, lambda x: 2.0 * x)
        x, _ = _newton(1.0, 0.0, 2.0, at)
        lo = max(v for v in seen if v * v < 2.0)
        hi = min(v for v in seen if v * v > 2.0)
        assert math.nextafter(lo, hi) == hi and x in (lo, hi)

    def test_a_residual_that_stays_negative_gives_none_past_the_cap(self):
        # a slope pointing the wrong way sends every step out of the bracket, so x doubles
        at, seen = _residual(lambda x: -1.0, lambda x: -1.0)
        assert _newton(1.0, 0.0, math.inf, at) is None
        assert seen[-1] > _DELTA_CAP >= seen[-2] and len(seen) < _NEWTON_STEPS

    @pytest.mark.parametrize(
        "x, hi, nan_at, path",
        [
            # NaN below 4 doubles x while hi is unbounded ...
            (1.0, math.inf, lambda x: x < 4.0, [1.0, 2.0, 4.0, 10.0]),
            # ... and NaN above 5 bisects the bracket [0, 8]
            (6.0, 8.0, lambda x: x > 5.0, [6.0, 4.0, 3.0]),
        ],
    )
    def test_a_nan_residual_doubles_or_bisects_instead_of_stopping(self, x, hi, nan_at, path):
        root = path[-1]
        at, seen = _residual(lambda x: math.nan if nan_at(x) else x - root, lambda x: 1.0)
        assert _newton(x, 0.0, hi, at) == (root, root)
        assert seen == path
