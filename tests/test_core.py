import bisect
import dataclasses
import math
import re
import struct

import numpy as np
import pytest

import wcs
from wcs import core
from wcs.core import interpolated_cost, exact_sum, PiecewiseLinearCost
from wcs.rng import SplitMix64
from wcs.errors import (
    EmptyInput,
    InvalidCostCurve,
    InvalidPhiFunction,
    LengthMismatch,
    NonFiniteCost,
    NonPositiveProbability,
    ProbSumMismatch,
    WcsError,
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


def _fsum_outcome(fn, a):
    """fn(a) as its bits, or the exception type it raises."""
    try:
        return struct.pack("<d", fn(a))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_same_as_fsum(a):
    a = np.asarray(a, dtype=float)
    assert _fsum_outcome(exact_sum, a) == _fsum_outcome(lambda x: math.fsum(x.tolist()), a)


class TestExactSum:
    """exact_sum against math.fsum, bit for bit (the sign of zero included)."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    def test_sizes_around_the_cutoff_and_the_chunk(self, n):
        rng = np.random.default_rng(n)
        _assert_same_as_fsum(rng.standard_normal(n))
        _assert_same_as_fsum(rng.exponential(size=n) * 10.0 ** rng.integers(-300, 300, n))

    def test_a_million_terms(self):
        rng = np.random.default_rng(1)
        _assert_same_as_fsum(rng.exponential(size=1_000_000) * rng.uniform(-1.0, 1.0, 1_000_000))

    def test_random_magnitudes_and_cancellation(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            n = int(rng.integers(1024, 5000))
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
            if trial % 2:
                a[n // 2 :] = -a[: n - n // 2]  # the big terms cancel in pairs
                a[int(rng.integers(n))] += 1e-300
            _assert_same_as_fsum(a)

    def test_subnormals(self):
        rng = np.random.default_rng(3)
        tiny = 5e-324 * rng.integers(-(1 << 52), 1 << 52, 3000)
        _assert_same_as_fsum(tiny)
        _assert_same_as_fsum(np.concatenate([tiny, [2.2250738585072014e-308, -1e-310]]))
        _assert_same_as_fsum(np.full(2000, 5e-324))

    def test_huge_mixtures(self):
        a = np.tile([1e300, -1e300, 1e-300, 3.0, 1.7e308, -1.7e308], 400)
        _assert_same_as_fsum(a)
        _assert_same_as_fsum(np.concatenate([a, [1e308, 7e307]]))
        assert math.isfinite(exact_sum(np.concatenate([a, [1e308, 7e307]])))

    def test_signed_zeros(self):
        _assert_same_as_fsum(np.full(3000, -0.0))
        _assert_same_as_fsum(np.full(3000, 0.0))
        mixed = np.where(np.arange(3000) % 3 == 0, -0.0, 0.0)
        _assert_same_as_fsum(mixed)
        cancel = np.concatenate([np.full(1500, 1.5), np.full(1500, -1.5)])
        _assert_same_as_fsum(cancel)
        assert math.copysign(1.0, exact_sum(cancel)) == 1.0

    @pytest.mark.parametrize(
        "special", [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf], [math.inf, math.nan]]
    )
    def test_non_finite_returns_or_raises_as_fsum(self, special):
        a = np.concatenate([np.ones(2000), special])
        _assert_same_as_fsum(a)

    def test_total_beyond_the_largest_double_overflows(self):
        a = np.full(2000, 1.7e308)
        with pytest.raises(OverflowError):
            exact_sum(a)
        _assert_same_as_fsum(a)

    def test_overflow_only_when_the_total_overflows(self):
        # fsum raises on the intermediate 2 * max; the exact total is max
        big = 1.7976931348623157e308
        a = np.concatenate([[big, big, -big], np.zeros(2000)])
        with pytest.raises(OverflowError):
            math.fsum(a.tolist())
        assert exact_sum(a) == big

    @pytest.mark.parametrize("at", [0, 70_000, 199_999])
    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_entry_in_any_chunk_is_seen_in_the_bins(self, at, special):
        a = np.random.default_rng(at).standard_normal(200_000)
        a[at] = special
        assert core.exact_total(a) is None
        assert core.exact_total(np.delete(a, at)) is not None
        _assert_same_as_fsum(a)

    @pytest.mark.parametrize("fused", [False, True])
    def test_flushing_the_float_bins_keeps_the_total(self, fused, monkeypatch):
        rng = np.random.default_rng(5)
        n = 3 * core._CHUNK + 7
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        b = rng.uniform(-1.0, 1.0, n) if fused else None
        want = core.exact_total(a, b)
        monkeypatch.setattr(core, "_FLUSH", 1)
        assert core.exact_total(a, b) == want
        assert core.round_total(want) == math.fsum((a if b is None else a * b).tolist())


class TestDistinct:
    """core.distinct against np.unique, bit for bit (the sign of zero included)."""

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 1000])
    def test_matches_np_unique(self, n):
        rng = np.random.default_rng(n)
        zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        for a in (
            rng.standard_normal(n),
            rng.integers(-3, 4, n).astype(float),
            zeros,
            np.where(rng.random(n) < 0.3, rng.integers(-2, 3, n), zeros),
        ):
            want = np.unique(a).tobytes()
            assert core.distinct(a).tobytes() == want
            assert core.distinct(a.tolist()).tobytes() == want


class TestStableOrder:
    """sort_desc's order against numpy's stable argsort of -costs."""

    @staticmethod
    def _assert_stable(costs):
        s = wcs.validate(costs)
        srt = wcs.sort_desc(s)
        ref = np.argsort(-s.costs, kind="stable")
        assert np.array_equal(srt.order, ref)
        assert np.array_equal(srt.costs_desc.view(np.int64), s.costs[ref].view(np.int64))
        assert np.array_equal(srt.probs_desc, s.probs[ref])

    def test_single_atom(self):
        self._assert_stable([3.0])

    @pytest.mark.parametrize("n", [2, 17, 5000])
    def test_all_equal(self, n):
        self._assert_stable(np.full(n, 2.5))

    def test_signed_zero_mixes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            c = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            c[rng.random(n) < 0.2] = 1.0
            self._assert_stable(c)

    def test_heavy_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            self._assert_stable(rng.integers(-3, 4, n).astype(float))
        self._assert_stable(rng.integers(0, 1000, 200_000).astype(float))

    def test_distinct_costs(self):
        self._assert_stable(np.random.default_rng(6).standard_normal(100_000))


class TestPhiFunctions:
    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_normalization(self, phi):
        assert phi.value(np.array(1.0)) == pytest.approx(0.0, abs=1e-15)
        # phi'(1) = 0, read through the inverse the solvers use
        assert float(phi.inverse_clamped(np.array(0.0))) == 1.0
        assert phi.curvature > 0

    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_inverse_of_derivative(self, phi):
        # phi' by a central difference of phi; its error is about 4e-11 at h = 1e-5
        h = 1e-5
        for z in np.linspace(0.4, 1.8, 29):
            slope = (phi.value(np.array(z + h)) - phi.value(np.array(z - h))) / (2.0 * h)
            assert float(phi.inverse_clamped(slope)) == pytest.approx(z, abs=1e-10)

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

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("curvature", -1.0, "phi''(1) must be finite and > 0, got -1.0"),
            ("curvature", 0.0, "phi''(1) must be finite and > 0, got 0.0"),
            ("curvature", math.nan, "phi''(1) must be finite and > 0, got nan"),
            ("curvature", math.inf, "phi''(1) must be finite and > 0, got inf"),
            ("zeta_floor", math.nan, "zeta_floor must not be NaN"),
        ],
    )
    @pytest.mark.parametrize("phi", [wcs.MODIFIED_CHI2, wcs.KL], ids=lambda p: p.name)
    def test_a_curvature_or_floor_no_solve_can_use_is_rejected(self, phi, field, bad, message):
        # phi''(1) <= 0 raised a bare math domain error or divided by zero in the
        # solves, nan gave a nan sensitivity and inf a zero one and the nominal V
        with pytest.raises(InvalidPhiFunction) as exc:
            dataclasses.replace(phi, name="user", **{field: bad})
        assert str(exc.value) == message
        assert isinstance(exc.value, WcsError) and isinstance(exc.value, ValueError)
        fields = dict(name="user", value=phi.value, inv_deriv=phi.inv_deriv,
                      zeta_floor=phi.zeta_floor, curvature=phi.curvature)
        with pytest.raises(InvalidPhiFunction, match=re.escape(message)):
            wcs.PhiFunction(**{**fields, field: bad})

    @pytest.mark.parametrize("curvature", [2.0, 1e-200, 2])
    def test_a_positive_curvature_and_kls_unbounded_floor_construct(self, curvature):
        phi = dataclasses.replace(wcs.KL, name="user", curvature=curvature)
        assert phi.curvature == curvature and phi.zeta_floor == -math.inf


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

    @pytest.mark.parametrize(
        "anchor, domain, message",
        [((1.0, 0.0), (1.0, 1.0), "empty domain"), ((5.0, 0.0), (0.0, 1.0), "anchor outside domain")],
    )
    def test_empty_domain_and_anchor_outside_it_are_typed(self, anchor, domain, message):
        with pytest.raises(InvalidCostCurve) as exc:
            PiecewiseLinearCost((), (1.0,), anchor=anchor, domain=domain)
        assert str(exc.value) == message and isinstance(exc.value, WcsError)

    def test_interpolated_flat_extension(self):
        c = interpolated_cost([0.0, 1.0, 2.0], [1.0, 5.0, 3.0])
        assert c.value(1.0) == pytest.approx(5.0)
        assert c.value(0.5) == pytest.approx(3.0)
        assert c.value(-4.0) == pytest.approx(1.0)
        assert c.value(9.0) == pytest.approx(3.0)
        assert c.ratio_from(0.0) == pytest.approx(4.0)  # best ascent toward f=5


def _walk_value(cost, z):
    """f(z) by walking every knot from the anchor to z, one linear piece at a time."""
    z0, f0 = cost.anchor
    if z == z0:
        return f0
    lo, hi = min(z0, z), max(z0, z)
    knots = [lo] + [b for b in cost.breakpoints if lo < b < hi] + [hi]
    sgn = 1.0 if z > z0 else -1.0
    pts = knots if z > z0 else knots[::-1]
    total = f0
    for a, b in zip(pts[:-1], pts[1:]):
        slope = cost.slopes[bisect.bisect_right(cost.breakpoints, 0.5 * (a + b))]
        total += sgn * slope * abs(b - a)
    return total


class TestKnotValues:
    """Values read through the cached knot values equal the full walk bit for bit."""

    def test_matches_the_walk(self):
        rng = SplitMix64(41)
        for trial in range(30):
            n = 1 + 7 * trial
            pts = [200.0 * rng.uniform() - 100.0 for _ in range(n)]
            vals = [rng.gauss_pair()[0] * 10.0 ** rng.randint(-3, 3) for _ in range(n)]
            costs = [interpolated_cost(pts, vals)]
            if n > 2:
                # an anchor inside the knots, so values left of it are walked leftward
                bp = sorted(pts)
                slopes = tuple(rng.gauss_pair()[0] for _ in range(n + 1))
                costs.append(PiecewiseLinearCost(tuple(bp), slopes, anchor=(bp[n // 2] + 0.5, 3.0)))
            for cost in costs:
                zs = list(cost.breakpoints) + [cost.anchor[0], -1e3, 1e3]
                zs += [200.0 * rng.uniform() - 100.0 for _ in range(20)]
                got = [cost.value(z).hex() for z in zs]
                assert got == [_walk_value(cost, z).hex() for z in zs], trial


class TestFamilies:
    def test_growth_rates(self):
        assert wcs.SmoothPhi(wcs.KL).growth == "sqrt"
        for fam in (
            wcs.TotalVariation(),
            wcs.Budgeted(),
            wcs.Combination(0.5),
            wcs.SymmetricBox(),
            wcs.WassersteinL1(),
        ):
            assert fam.growth == "linear"

    def test_combination_level_range(self):
        with pytest.raises(ValueError):
            wcs.Combination(1.0)
        with pytest.raises(ValueError):
            wcs.Combination(-0.1)
