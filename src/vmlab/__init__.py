"""vmlab: vector-measure norms, approximation nets, and Daugavet experiments
on finite atomized measure spaces."""

__version__ = "0.1.0"

from .errors import (
    CapacityExceeded,
    NoRybakovFound,
    NotNormalized,
    NotPolyhedral,
    ParseError,
    ValidationError,
    VmlabError,
)
from .measure_core import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    dyadic_chain,
    l1_mu_norm,
    refine,
    sign_function,
)
from .normed_space import (
    L1,
    L2,
    LINF,
    NormSpec,
    dual_extreme_points,
    dual_norm,
    dual_spec,
    norm,
)
from .vector_measure import (
    VectorMeasure,
    combine,
    find_rybakov,
    indicator_measure,
    is_rybakov,
    nonunique_derivative_pair,
    rank_one_measure,
    rn_derivative,
    rn_derivatives,
    scalarize,
    semivariation,
    set_value,
    variation,
)
from .l1m_norm import (
    CLOSED_FORM,
    EXACT,
    HEURISTIC,
    NormResult,
    deviation,
    integrate,
    koethe_dual_norm,
    koethe_dual_norm_info,
    norm_best,
    norm_closed_form,
    norm_exact,
    norm_gap_bound_check,
    norm_heuristic,
)
from .opt_engine import (
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPSolution,
    best_sign_pattern,
    hill_climb,
    solve_lp,
)
from .approx_nets import (
    FiniteRankOperator,
    NetLevelStats,
    NetReport,
    associated_measure,
    basis_net,
    basis_truncated_measure,
    conditional_expectation,
    coordinate_family,
    expectation_family,
    integrate_martingale,
    martingale_measure,
    martingale_net,
    rn_operator,
    run_net,
    weakstar_gap,
)
from .daugavet import (
    DefectReport,
    DensityIdentityReport,
    FactoredOperator,
    OperatorMatrix,
    OpNormResult,
    SeriesGapReport,
    canonical_pair,
    center_defect,
    combine_operators,
    daugavet_defect,
    density_norm_identity,
    identity_operator,
    integration_operator,
    opnorm_from_l1,
    rank_one_defect,
    rank_one_operator,
    series_approximation_gap,
)
from .harness import (
    PRESETS,
    Scenario,
    build_scenario,
    dumps_report,
    emit,
    load_scenario,
    preset_scenario,
    run,
)
