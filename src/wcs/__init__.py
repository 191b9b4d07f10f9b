"""Worst-case sensitivity toolkit for DRO over discrete nominal distributions."""

from .core import (
    ConcaveGradientCost,
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
    CvarLevel,
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
    worst_case_sensitivity,
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
    growth_rate,
)
from .oracle import (
    AxiomReport,
    FdReport,
    brute_force_wc,
    deviation_axioms,
    fd_sensitivity,
    random_scenario,
)
from .dro import (
    DroSolution,
    FrontierPoint,
    LabeledDataset,
    NewsvendorParams,
    demand_scenario,
    dro_newsvendor,
    frontier,
    gen_mixture_demand,
    gen_synth_classification,
    labeled_dataset,
    logreg_saa,
    logreg_wasserstein,
    newsvendor_cost,
    saa_newsvendor,
)
from .rng import SplitMix64

__all__ = [name for name in dir() if not name.startswith("_")]
