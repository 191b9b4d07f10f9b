"""The package loads ``dro``, ``oracle`` and ``rng`` only when they are used.

A closed-form CLI call imports none of them, while the public surface
(``__all__``, ``dir`` and every exported name) stays what it was when the
package imported all of them up front.
"""

import json
import subprocess
import sys

import pytest

import wcs

# sorted(wcs.__all__) while the package still imported every module eagerly, less the
# three retired names ConcaveGradientCost, CvarLevel and worst_case_sensitivity
PUBLIC_NAMES = [
    "AxiomReport", "BoxParams", "Budgeted", "BudgetedDual", "Combination",
    "DroSolution", "FAMILIES", "FdReport", "FrontierPoint",
    "KL", "LabeledDataset", "MODIFIED_CHI2", "NewsvendorParams", "PHI_BY_NAME", "PenaltyPhi",
    "PhiFunction", "PiecewiseLinearCost", "Scenario", "SensitivityReport", "SmoothPhi",
    "SmoothPhiDual", "SortedScenario", "SplitMix64", "SymmetricBox", "TotalVariation", "TvDual",
    "UncertaintyFamily", "WassersteinDual", "WassersteinL1", "WorstCaseResult", "brute_force_wc",
    "budgeted_sensitivity", "budgeted_slope", "build_family", "c_alpha_n",
    "combination_sensitivity", "core", "cvar", "cvar_deviation", "cvar_distribution",
    "demand_scenario", "deviation_axioms", "dro", "dro_newsvendor", "errors", "families",
    "fd_sensitivity", "frontier", "gen_mixture_demand", "gen_synth_classification",
    "interpolated_cost", "labeled_dataset", "logreg_saa", "logreg_wasserstein", "mean",
    "newsvendor_cost", "oracle", "penalty_phi_sensitivity", "random_scenario", "riskstats", "rng",
    "saa_newsvendor", "sensitivity", "smooth_phi_sensitivity", "sort_desc",
    "symmetric_box_sensitivity", "tight_cvar_vector", "tv_sensitivity", "validate",
    "var_quantile", "variance", "wasserstein_sensitivity", "wc_box", "wc_box_symmetric",
    "wc_budgeted", "wc_chi2", "wc_combination", "wc_smooth_phi", "wc_tv", "wc_wasserstein_pl",
    "worst_case", "worstcase",
]
DEFERRED = ["wcs.dro", "wcs.oracle", "wcs.rng"]

# run main() in a fresh interpreter, then list which deferred modules it loaded
PROBE = """
import json, sys
from wcs.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([code, [m for m in {deferred} if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sensitivity", "--family", "phi", "--costs", "1,5,3"],
        ["worst-case", "--family", "budgeted", "--eps", "0.4", "--costs", "0,10"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_form_calls_import_no_dro_oracle_or_rng(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(deferred=DEFERRED), *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stderr) == [0, []]


def test_verify_loads_what_it_uses():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(deferred=DEFERRED), "verify", "--trials", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stderr) == [0, ["wcs.oracle", "wcs.rng"]]


def test_public_names_are_unchanged_and_resolve():
    # dir() in a fresh interpreter: importing wcs.cli, as other tests do, adds "cli"
    proc = subprocess.run(
        [sys.executable, "-c", "import json, wcs; print(json.dumps([wcs.__all__, dir(wcs)]))"],
        capture_output=True,
        text=True,
        check=True,
    )
    exported, listed = json.loads(proc.stdout)
    assert sorted(exported) == PUBLIC_NAMES
    assert [name for name in listed if not name.startswith("_")] == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(wcs, name) is not None
    from wcs import SplitMix64, dro, dro_newsvendor

    assert dro_newsvendor is dro.dro_newsvendor and wcs.SplitMix64 is SplitMix64
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        wcs.nope
