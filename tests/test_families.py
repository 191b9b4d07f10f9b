import pytest

import wcs
from wcs import families

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
