"""vmlab: vector-measure norms, approximation nets, and Daugavet experiments
on finite atomized measure spaces."""

__version__ = "0.1.0"

from .errors import (
    CapacityExceeded,
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
)
from .normed_space import (
    L1,
    L2,
    LINF,
    NormSpec,
    norm,
)
from .vector_measure import (
    VectorMeasure,
    combine,
    indicator_measure,
    rank_one_measure,
    rn_derivatives,
)
from .l1m_norm import (
    CLOSED_FORM,
    EXACT,
    HEURISTIC,
    NormResult,
    deviation,
    integrate,
    koethe_dual_norm_info,
    norm_best,
    norm_closed_form,
    norm_exact,
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
    NetLevelStats,
    associated_measure,
    basis_net,
    basis_truncated_measure,
    coordinate_family,
    expectation_family,
    martingale_measure,
    martingale_net,
    rn_net,
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
    run,
)
