"""Worst-case sensitivity toolkit for DRO over discrete nominal distributions.

``dro``, ``oracle`` and ``rng``, and the names they export here, load on
first access (PEP 562): a process that only evaluates closed forms never
imports them.
"""

from importlib import import_module as _import_module

from .core import (
    KL,
    MODIFIED_CHI2,
    PHI_BY_NAME,
    PhiFunction,
    PiecewiseLinearCost,
    Scenario,
    SortedScenario,
    interpolated_cost,
    sort_desc,
    validate,
)
from .riskstats import (
    c_alpha_n,
    cvar,
    cvar_deviation,
    cvar_distribution,
    mean,
    tight_cvar_vector,
    var_quantile,
    variance,
)
from .sensitivity import (
    SensitivityReport,
    budgeted_sensitivity,
    combination_sensitivity,
    penalty_phi_sensitivity,
    smooth_phi_sensitivity,
    symmetric_box_sensitivity,
    tv_sensitivity,
    wasserstein_sensitivity,
)
from .worstcase import (
    BoxParams,
    BudgetedDual,
    SmoothPhiDual,
    TvDual,
    WassersteinDual,
    WorstCaseResult,
    budgeted_slope,
    wc_box,
    wc_box_symmetric,
    wc_budgeted,
    wc_chi2,
    wc_combination,
    wc_smooth_phi,
    wc_tv,
    wc_wasserstein_pl,
    worst_case,
)
from .families import (
    FAMILIES,
    Budgeted,
    Combination,
    PenaltyPhi,
    SmoothPhi,
    SymmetricBox,
    TotalVariation,
    UncertaintyFamily,
    WassersteinL1,
    build_family,
)

# submodule -> the names it exports here; the submodule and its names are
# imported on first access
_LAZY_EXPORTS = {
    "oracle": (
        "AxiomReport",
        "FdReport",
        "brute_force_wc",
        "deviation_axioms",
        "fd_sensitivity",
        "random_scenario",
    ),
    "dro": (
        "DroSolution",
        "FrontierPoint",
        "LabeledDataset",
        "NewsvendorParams",
        "demand_scenario",
        "dro_newsvendor",
        "frontier",
        "gen_mixture_demand",
        "gen_synth_classification",
        "labeled_dataset",
        "logreg_saa",
        "logreg_wasserstein",
        "newsvendor_cost",
        "saa_newsvendor",
    ),
    "rng": ("SplitMix64",),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in (module, *names)}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = _import_module(f".{module}", __name__)
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
