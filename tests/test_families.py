import decimal
import math

import numpy as np
import pytest

import wcs
from wcs import dro, families
from wcs.errors import NoWorstCase, UnknownFamily, WcsError
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
        assert wcs.build_family("wasserstein") == wcs.WassersteinL1()
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
            # name: (growth, has a block reader, homogeneity)
            "phi": ("sqrt", False, 1.0),
            "penalty-phi": ("linear", False, 2.0),
            "tv": ("linear", True, 1.0),
            "budgeted": ("linear", True, 1.0),
            "combo": ("linear", True, 1.0),
            "box": ("linear", True, 1.0),
            "wasserstein": ("linear", False, 1.0),
        }
        for name, (growth, blocks, degree) in table.items():
            fam = wcs.build_family(name)
            has_blocks = fam.block_reader(np.full(3, 1.0 / 3.0), 0.1) is not None
            assert (fam.growth, has_blocks, fam.homogeneity) == (growth, blocks, degree)

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
            got = wcs.worst_case(s, fam, 0.3)
            assert got.value == res.value and got.worst_q.tolist() == res.worst_q.tolist()
        assert wcs.PenaltyPhi(wcs.KL).sensitivity(s) == wcs.penalty_phi_sensitivity(s, wcs.KL)

    def test_no_scenario_level_worst_case(self):
        s = scenario()
        with pytest.raises(TypeError):
            wcs.worst_case(s, wcs.PenaltyPhi(), 0.1)
        with pytest.raises(TypeError):
            wcs.worst_case(s, wcs.WassersteinL1(), 0.1)
        with pytest.raises(ValueError):
            wcs.WassersteinL1().sensitivity(s)

    def test_penalty_raises_its_typed_error(self):
        with pytest.raises(NoWorstCase):
            wcs.PenaltyPhi().worst_case(scenario(), 0.1)
        assert issubclass(NoWorstCase, TypeError)


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


def _edge_blocks():
    """(label, cost block, probs) on the edges of the rank-weighted reader: newsvendor rows at
    s = 0, where every atom above the order ties at (c - r) x, rows of 0.0 and -0.0, n = 1 and
    2, and a mass of 1e-310, whose budgeted and box tail masses go subnormal past eps 4.5e307."""
    out = []
    s0 = dro.NewsvendorParams(r=10, c=2, q=0, s=0)
    atoms = np.array([3.0, 8.0, 8.0, 20.0, 1.0, 0.0, 12.0, 8.0])
    xs = np.array([0.0, 0.5, 1.0, 3.0, 5.0, 8.0, 9.5, 12.0, 20.0, 30.0])
    weighted = np.array([1.0, 3.0, 2.0, 0.5, 4.0, 1.5, 2.5, 0.5]) / 15.0
    signed = np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, -1.0], [0.0, -0.0, -0.0, 0.0],
                       [-0.0, -0.0, 2.0, 0.0], [1.0, 0.0, -0.0, 1.0]])
    for uniform in (True, False):
        p = np.full(8, 0.125) if uniform else weighted
        out.append((f"s=0/uniform={uniform}", dro._cost_rows(s0, wcs.validate(atoms, p), xs), p))
        p = np.full(4, 0.25) if uniform else np.array([0.1, 0.4, 0.3, 0.2])
        out.append((f"signed zeros/uniform={uniform}", signed, p))
        p = np.full(2, 0.5) if uniform else np.array([0.3, 0.7])
        out.append((f"n=2/uniform={uniform}", np.array([[1.0, 2.0], [2.0, 1.0], [0.0, -0.0], [5.0, 5.0]]), p))
    out.append(("n=1", np.array([[3.0], [-0.0], [1e300]]), np.array([1.0])))
    out.append(("subnormal tail", np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1e-310, 1.0 - 1e-310])))
    return out


def _scalar_values(family, block, probs, eps):
    demand = wcs.validate(block[0], probs)
    return [family.worst_case(demand.with_costs(row), eps).value for row in block]


def _user_phi():
    """phi(z) = (z - 1)^2, a chi-square that is not the built-in object."""
    return dict(
        value=lambda z: (np.asarray(z, dtype=float) - 1.0) ** 2,
        inv_deriv=lambda zeta: 1.0 + 0.5 * np.asarray(zeta, dtype=float),
        zeta_floor=-2.0,
        curvature=2.0,
    )


class TestWorstValues:
    """Each family's ``block_reader`` against ``worst_case(...).value`` row by row."""

    # eps 60 lies past every budgeted saturation point of _blocks and clamps tv; past 2^53
    # the budgeted and box levels round to 1, and at 1e308 their tail mass is subnormal
    EPS = {
        "budgeted": (0.0, 0.3, 1.0, 60.0, 2.0**60, 1e308),
        "tv": (0.0, 0.3, 1.0, 60.0),
        "combo": (0.0, 0.3, 1.0),
        "box": (0.0, 0.3, 1.0, 60.0, 2.0**60, 1e308),
    }

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
        groups: dict[bytes, list] = {}
        for label, block, probs in [*_blocks(), *_edge_blocks()]:
            groups.setdefault(probs.tobytes(), []).append((label, block, probs))
        for group in groups.values():
            probs = group[0][2]
            for eps in self.EPS[family.name]:
                # one reader for every block under these probs, and a fresh one per block
                read = family.block_reader(probs, eps)
                for label, block, _ in group:
                    want = [v.hex() for v in _scalar_values(family, block, probs, eps)]
                    assert [v.hex() for v in read(block).tolist()] == want, (label, eps)
                    fresh = family.block_reader(probs, eps)(block)
                    assert [v.hex() for v in fresh.tolist()] == want, (label, eps)

    def test_no_kernel_is_solved_order_by_order(self, monkeypatch):
        _, block, probs = _blocks()[1]
        user = wcs.SmoothPhi(wcs.PhiFunction("user", **_user_phi()))
        for fam in (wcs.SmoothPhi(), wcs.SmoothPhi(wcs.KL), user, wcs.PenaltyPhi(), wcs.WassersteinL1()):
            assert fam.block_reader(probs, 0.3) is None
        # the kink search then reads each order's scalar worst case
        params = dro.NewsvendorParams(r=10, c=2, q=0, s=4)
        demand = wcs.validate([3.0, 8.0, 8.0, 20.0, 1.0, 0.0, 12.0])
        scalar, read = wcs.worstcase.worst_case, []
        monkeypatch.setattr(wcs.worstcase, "worst_case", lambda s, f, e: read.append(s) or scalar(s, f, e))
        dro._kink_search(params, demand, wcs.WassersteinL1(), 0.3)
        assert len(read) > 2 and all(s.points is not None for s in read)
        with pytest.raises(TypeError):
            dro._kink_search(params, demand, wcs.PenaltyPhi(), 0.3)

    def test_eps_errors_match_the_scalar(self):
        _, block, probs = _blocks()[0]
        for fam, eps in ((wcs.Budgeted(), -1.0), (wcs.TotalVariation(), math.inf),
                         (wcs.Combination(0.5), 1.5), (wcs.SymmetricBox(), -0.1)):
            with pytest.raises(wcs.errors.EpsOutOfRange):
                fam.block_reader(probs, eps)


class TestSmoothPhiRows:
    """The scalar smooth-phi worst case on the rows of the same blocks."""

    def test_chi2_is_scale_equivariant(self):
        fam = wcs.SmoothPhi()
        for label, block, probs in _blocks():
            if "scale=1.0" not in label:
                continue
            unit = np.array(_scalar_values(fam, block, probs, 0.7))
            for scale in (1e150, 1e-150):
                got = np.array(_scalar_values(fam, scale * block, probs, 0.7))
                assert np.allclose(got, scale * unit, rtol=1e-9, atol=0.0), label

    def test_chi2_row_with_an_overflowing_range_is_not_read_as_saturated(self):
        # the argmax atom holds 1/3, so the row saturates only at eps = 1
        block = np.array([[1e308, -1e308, 0.0]])
        probs = np.full(3, 1.0 / 3.0)
        for eps in (0.3, 0.9):
            (value,) = _scalar_values(wcs.SmoothPhi(), block, probs, eps)
            assert value < 1e308, eps

    def test_kl_is_scale_equivariant(self):
        fam = wcs.SmoothPhi(wcs.KL)
        for label, block, probs in _blocks():
            if "scale=1.0" not in label:
                continue
            width = np.ptp(block, axis=1)
            for eps in (0.001, 0.3, 1.0):
                unit = np.array(_scalar_values(fam, block, probs, eps))
                for lam, t in ((1e150, 0.0), (1e-150, 0.0), (1e-200, 0.0), (3.0, -7.5), (0.5, 1e3)):
                    got = np.array(_scalar_values(fam, lam * block + t, probs, eps))
                    want = lam * unit + t
                    tol = 1e-12 * (np.abs(want) + lam * width)
                    assert np.all(np.abs(got - want) <= tol), (label, eps, lam, t)

    def test_kl_tilt_meets_the_divergence_equation(self):
        # independent of the solver: in 50-digit decimals, find the tilt
        # q ~ p exp(delta f) whose mean is the solver's V, then its D(q | p)
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
                (value,) = _scalar_values(wcs.SmoothPhi(wcs.KL), np.array([f]), probs, eps)
                lo, hi = decimal.Decimal(0), decimal.Decimal(100)
                for _ in range(200):
                    mid = (lo + hi) / 2
                    if tilt(mid)[0] < decimal.Decimal(value):
                        lo = mid
                    else:
                        hi = mid
                divergence = float(tilt((lo + hi) / 2)[1])
                assert abs(divergence - eps) <= 1e-12 * eps, (eps, divergence)

    def test_kl_eps_errors(self):
        _, block, probs = _blocks()[0]
        for eps in (math.nan, -0.1, math.inf):
            with pytest.raises(wcs.errors.EpsOutOfRange):
                _scalar_values(wcs.SmoothPhi(wcs.KL), block, probs, eps)
