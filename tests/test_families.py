import decimal
import math
import warnings

import numpy as np
import pytest

import wcs
from wcs import families
from wcs.errors import UnknownFamily, WcsError
from wcs.rng import SplitMix64

NAMES = ("phi", "penalty-phi", "tv", "budgeted", "combo", "box", "wasserstein")


def scenario():
    return wcs.validate([1, 5, 3], [0.2, 0.3, 0.5])


class TestRegistry:
    def test_names_in_cli_order(self):
        assert tuple(wcs.FAMILIES) == NAMES
        assert families.WORST_CASE_NAMES == tuple(n for n in NAMES if n != "penalty-phi")
        assert families.SCENARIO_NAMES == NAMES[:-1]
        for name in NAMES:
            assert wcs.build_family(name).name == name

    def test_build_from_options(self):
        assert wcs.build_family("phi") == wcs.SmoothPhi(wcs.MODIFIED_CHI2)
        assert wcs.build_family("phi", wcs.KL, 0.3) == wcs.SmoothPhi(wcs.KL)
        assert wcs.build_family("penalty-phi", wcs.KL) == wcs.PenaltyPhi(wcs.KL)
        assert wcs.build_family("combo", wcs.KL, 0.3) == wcs.Combination(0.3)
        assert wcs.build_family("tv", wcs.KL, 0.3) == wcs.TotalVariation()
        assert wcs.build_family("wasserstein") == wcs.WassersteinL1(None)
        with pytest.raises(ValueError):
            wcs.build_family("nope")
        with pytest.raises(ValueError):
            wcs.build_family("combo", alpha=1.0)

    def test_unknown_name_raises_a_typed_error(self):
        with pytest.raises(UnknownFamily, match="unknown uncertainty family 'nope'"):
            wcs.build_family("nope")
        assert issubclass(UnknownFamily, WcsError) and issubclass(UnknownFamily, ValueError)


class TestDescriptors:
    def test_attributes(self):
        table = {
            # name: (growth, piecewise_linear, homogeneity)
            "phi": ("sqrt", False, 1.0),
            "penalty-phi": ("linear", False, 2.0),
            "tv": ("linear", True, 1.0),
            "budgeted": ("linear", True, 1.0),
            "combo": ("linear", True, 1.0),
            "box": ("linear", True, 1.0),
            "wasserstein": ("linear", False, 1.0),
        }
        for name, (growth, pl, degree) in table.items():
            fam = wcs.build_family(name)
            assert (fam.growth, fam.piecewise_linear, fam.homogeneity) == (growth, pl, degree)
            assert wcs.growth_rate(fam) == growth

    def test_methods_match_the_per_family_functions(self):
        s = scenario()
        kl, chi2 = wcs.KL, wcs.MODIFIED_CHI2
        cases = [
            (wcs.SmoothPhi(kl), wcs.smooth_phi_sensitivity(s, kl), wcs.wc_smooth_phi(s, kl, 0.3)),
            (wcs.SmoothPhi(), wcs.smooth_phi_sensitivity(s, chi2), wcs.wc_chi2(s, 0.3)),
            (wcs.TotalVariation(), wcs.tv_sensitivity(s), wcs.wc_tv(s, 0.3)),
            (wcs.Budgeted(), wcs.budgeted_sensitivity(s), wcs.wc_budgeted(s, 0.3)),
            (
                wcs.Combination(0.5),
                wcs.combination_sensitivity(s, 0.5),
                wcs.wc_combination(s, 0.5, 0.3),
            ),
            (wcs.SymmetricBox(), wcs.symmetric_box_sensitivity(s), wcs.wc_box_symmetric(s, 0.3)),
        ]
        for fam, rep, res in cases:
            assert fam.sensitivity(s) == rep
            assert wcs.worst_case_sensitivity(s, fam) == rep
            got = wcs.worst_case(s, fam, 0.3)
            assert got.value == res.value and got.worst_q.tolist() == res.worst_q.tolist()
        assert wcs.PenaltyPhi(wcs.KL).sensitivity(s) == wcs.penalty_phi_sensitivity(s, wcs.KL)

    def test_no_scenario_level_worst_case(self):
        s = scenario()
        with pytest.raises(TypeError):
            wcs.worst_case(s, wcs.PenaltyPhi(), 0.1)
        with pytest.raises(TypeError):
            wcs.worst_case(s, wcs.WassersteinL1(None), 0.1)
        with pytest.raises(ValueError):
            wcs.worst_case_sensitivity(s, wcs.WassersteinL1(None))


def _blocks():
    """(label, cost block, probs) over uniform and non-uniform p and three cost scales.

    Every block has a constant row and a row of many ties; the rows of the
    last block sit on the chi-square active-set boundary, where the two tied
    zeros of [2, 1, 0, 0] get tilt 0 at eps = 11/18.
    """
    rng = SplitMix64(404)
    out = []
    for n, uniform in ((2, True), (7, False), (40, True), (40, False)):
        w = [rng.exponential(1.0) + 0.05 for _ in range(n)]
        p = np.full(n, 1.0 / n) if uniform else np.array([v / math.fsum(w) for v in w])
        rows = [[rng.exponential(1.0) for _ in range(n)] for _ in range(8)]
        rows.append([3.0] * n)
        rows.append([float(math.floor(3.0 * rng.uniform())) for _ in range(n)])
        for scale in (1.0, 1e150, 1e-150):
            out.append((f"n={n}/uniform={uniform}/scale={scale}", scale * np.array(rows), p))
    boundary = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 1.0], [7.0, 5.0, 3.0, 3.0]])
    out.append(("boundary", boundary, np.full(4, 0.25)))
    return out


def _scalar_values(family, block, probs, eps):
    demand = wcs.validate(block[0], probs)
    return [family.worst_case(demand.with_costs(row), eps).value for row in block]


def _user_phi():
    """phi(z) = (z - 1)^2, a chi-square that is not the built-in object."""
    return dict(
        value=lambda z: (np.asarray(z, dtype=float) - 1.0) ** 2,
        deriv=lambda z: 2.0 * (np.asarray(z, dtype=float) - 1.0),
        inv_deriv=lambda zeta: 1.0 + 0.5 * np.asarray(zeta, dtype=float),
        zeta_floor=-2.0,
        curvature=2.0,
    )


class TestWorstValues:
    """``worst_values`` against ``worst_case(...).value`` row by row."""

    @pytest.mark.parametrize(
        "family",
        [
            wcs.Budgeted(),
            wcs.TotalVariation(),
            wcs.Combination(0.8),
            wcs.Combination(0.0),
            wcs.SymmetricBox(),
        ],
        ids=repr,
    )
    def test_piecewise_linear_families_bit_for_bit(self, family):
        # eps = 60 lies past every budgeted saturation point here and clamps tv
        eps_list = (0.0, 0.3, 1.0) if family.name == "combo" else (0.0, 0.3, 1.0, 60.0)
        for label, block, probs in _blocks():
            for eps in eps_list:
                got = family.worst_values(block, probs, eps)
                want = _scalar_values(family, block, probs, eps)
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want], (label, eps)

    def test_chi2_matches_the_scalar_solver(self):
        fam = wcs.SmoothPhi()
        for label, block, probs in _blocks():
            if "scale=1.0" in label or label == "boundary":
                # unclamped, clamped, the boundary tie, and past saturation
                eps_list = (0.0, 0.001, 0.3, 11.0 / 18.0, 1.0, 60.0)
            else:
                # the scalar's bisection cannot bracket clamped cases at this scale
                eps_list = (0.0, 0.001, 0.01)
            for eps in eps_list:
                got = fam.worst_values(block, probs, eps)
                want = _scalar_values(fam, block, probs, eps)
                for row, g, w in zip(block, got, want):
                    assert abs(g - w) <= 1e-9 * (abs(w) + np.ptp(row)), (label, eps, g, w)

    def test_chi2_is_scale_equivariant_where_the_scalar_cannot_bracket(self):
        fam = wcs.SmoothPhi()
        for label, block, probs in _blocks():
            if "scale=1.0" not in label:
                continue
            unit = fam.worst_values(block, probs, 0.7)
            for scale in (1e150, 1e-150):
                got = fam.worst_values(scale * block, probs, 0.7)
                assert np.allclose(got, scale * unit, rtol=1e-9, atol=0.0), label

    def test_chi2_row_without_a_consistent_active_set_goes_to_the_scalar(self):
        # the row's range overflows, so the centred closed form is undefined
        block = np.array([[1e308, -1e308, 0.0], [1.0, 2.0, 3.0]])
        probs = np.full(3, 1.0 / 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = wcs.SmoothPhi().worst_values(block, probs, 0.1)
            want = _scalar_values(wcs.SmoothPhi(), block, probs, 0.1)
        np.testing.assert_array_equal(got, want)

    def test_kl_matches_the_scalar_solver(self):
        fam = wcs.SmoothPhi(wcs.KL)
        for label, block, probs in _blocks():
            if "scale=1.0" not in label and label != "boundary":
                # the scalar's absolute delta bounds miss the root at these scales
                continue
            # eps = 1 clamps the two-atom rows; 60 lies past every saturation point
            for eps in (0.0, 0.001, 0.3, 1.0, 60.0):
                got = fam.worst_values(block, probs, eps)
                want = _scalar_values(fam, block, probs, eps)
                for row, g, w in zip(block, got, want):
                    assert abs(g - w) <= 1e-9 * np.ptp(row), (label, eps, g, w)

    def test_kl_is_scale_equivariant_where_the_scalar_cannot_solve(self):
        # wc_smooth_phi misses the root at 1e150 and raises NoBracket at 1e-150
        # and 1e-200; the kernel solves on the standardised costs
        fam = wcs.SmoothPhi(wcs.KL)
        for label, block, probs in _blocks():
            if "scale=1.0" not in label:
                continue
            width = np.ptp(block, axis=1)
            for eps in (0.001, 0.3, 1.0):
                unit = fam.worst_values(block, probs, eps)
                for lam, t in ((1e150, 0.0), (1e-150, 0.0), (1e-200, 0.0), (3.0, -7.5), (0.5, 1e3)):
                    got = fam.worst_values(lam * block + t, probs, eps)
                    want = lam * unit + t
                    tol = 1e-12 * (np.abs(want) + lam * width)
                    assert np.all(np.abs(got - want) <= tol), (label, eps, lam, t)

    def test_kl_tilt_meets_the_divergence_equation(self):
        # independent of the kernel: in 50-digit decimals, find the tilt
        # q ~ p exp(delta f) whose mean is the kernel's V, then its D(q | p)
        f = [0.3, 2.5, -1.25, 4.0, 4.0, 1.75]
        w = [0.4, 1.3, 0.2, 0.35, 0.15, 2.1]
        probs = np.array([v / math.fsum(w) for v in w])
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            atoms = [(decimal.Decimal(pi), decimal.Decimal(fi)) for pi, fi in zip(probs.tolist(), f)]

            def tilt(delta):
                weights = [(pi * (delta * fi).exp(), fi) for pi, fi in atoms]
                z = sum(wi for wi, _ in weights)
                mean = sum(wi * fi for wi, fi in weights) / z
                return mean, delta * mean - z.ln()

            for eps in (0.001, 0.3, 1.0):
                (value,) = wcs.SmoothPhi(wcs.KL).worst_values(np.array([f]), probs, eps)
                lo, hi = decimal.Decimal(0), decimal.Decimal(100)
                for _ in range(200):
                    mid = (lo + hi) / 2
                    if tilt(mid)[0] < decimal.Decimal(value):
                        lo = mid
                    else:
                        hi = mid
                divergence = float(tilt((lo + hi) / 2)[1])
                assert abs(divergence - eps) <= 1e-12 * eps, (eps, divergence)

    def test_kl_needs_no_scalar_solve_on_finite_ranges(self, monkeypatch):
        # saturated rows and every Newton run, at every scale, stay in the kernel
        def scalar(*args):
            raise AssertionError("scalar fallback")

        monkeypatch.setattr(wcs.worstcase, "wc_smooth_phi", scalar)
        for label, block, probs in _blocks():
            for eps in (0.001, 0.3, 1.0, 60.0):
                assert np.all(np.isfinite(wcs.SmoothPhi(wcs.KL).worst_values(block, probs, eps)))

    def test_kl_row_with_an_overflowing_range_goes_to_the_scalar(self):
        block = np.array([[1e308, -1e308, 0.0], [1.0, 2.0, 3.0]])
        probs = np.full(3, 1.0 / 3.0)
        fam = wcs.SmoothPhi(wcs.KL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = fam.worst_values(block, probs, 0.1)
            want = _scalar_values(fam, block, probs, 0.1)
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-9 * 2.0

    def test_kl_eps_errors_match_the_scalar(self):
        _, block, probs = _blocks()[0]
        for eps in (math.nan, -0.1, math.inf):
            with pytest.raises(wcs.errors.EpsOutOfRange):
                wcs.SmoothPhi(wcs.KL).worst_values(block, probs, eps)
            with pytest.raises(wcs.errors.EpsOutOfRange):
                _scalar_values(wcs.SmoothPhi(wcs.KL), block, probs, eps)

    def test_default_solves_row_by_row(self):
        _, block, probs = _blocks()[1]
        fam = wcs.SmoothPhi(wcs.PhiFunction("user", **_user_phi()))
        want = _scalar_values(fam, block, probs, 0.3)
        assert fam.worst_values(block, probs, 0.3).tolist() == want
        for fam in (wcs.PenaltyPhi(), wcs.WassersteinL1()):
            with pytest.raises(TypeError):
                fam.worst_values(block, probs, 0.3)

    def test_eps_errors_match_the_scalar(self):
        _, block, probs = _blocks()[0]
        for fam, eps in ((wcs.Budgeted(), -1.0), (wcs.TotalVariation(), math.inf),
                         (wcs.Combination(0.5), 1.5), (wcs.SymmetricBox(), -0.1),
                         (wcs.SmoothPhi(), math.nan)):
            with pytest.raises(wcs.errors.EpsOutOfRange):
                fam.worst_values(block, probs, eps)

