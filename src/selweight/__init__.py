"""Selection-bias correction for logistic regression on non-probability samples.

The package estimates per-unit selection probabilities from external data
(individual-level or summary-level), fits inverse-probability-weighted
logistic disease models, attaches sandwich variance estimators, and ships a
Monte Carlo harness for studying the methods under controlled selection
scenarios.
"""

from .errors import (
    AllReplicationsFailedError,
    DegenerateCutoffsError,
    DegenerateDenominatorError,
    DegenerateOutcomeError,
    DuplicateCellError,
    EmptyCategoryError,
    InfeasibleTotalsError,
    MissingColumnError,
    MissingNError,
    NonBinaryIndicatorError,
    NonConvergenceError,
    NonIntegerCellError,
    NonNumericCellError,
    ProbabilitySumOutOfRangeError,
    RankDeficientDesignError,
    ResponseOnBoundaryError,
    SelweightError,
    SeparationError,
    SingularBreadError,
    SingularHError,
    SingularJacobianError,
    SparseBinError,
    StudyError,
    UnmatchedCellError,
    ValidationError,
)
from .fitters import (
    DesignMatrix,
    FittedModel,
    build_design,
    expit,
    fit_multinomial,
    fit_simplex_regression,
    fit_weighted_logistic,
    logit,
    multinomial_probabilities,
    simplex_log_density,
    simplex_unit_deviance,
)
from .solver import (
    SolveReport,
    solve_estimating_equation,
)
from .variance import (
    SandwichComponents,
    cl_components,
    known_weights_components,
    normal_quantile,
    pl_components,
    vcov_cl,
    vcov_known_weights,
    vcov_pl,
    wald_ci,
)
from .weights import (
    BOTH_SAMPLES,
    EXTERNAL_ONLY,
    INTERNAL_ONLY,
    PopulationSummary,
    WeightSet,
    augment_weights_with_outcome,
    cell_codes,
    coarsen,
    estimate_weights_cl,
    estimate_weights_pl,
    estimate_weights_ps,
    estimate_weights_sr,
    first_occurrence,
    overlap_labels,
    winsorize_weights,
)
from .simulation import (
    DATA_METHODS,
    METHODS,
    LogRatioBins,
    MethodResult,
    Population,
    SimulationConfig,
    StudyMetric,
    StudyResult,
    estimate_r_offset_mc,
    generate_population,
    run_replication,
    run_study,
)
from .dataio import (
    AnalysisSample,
    ColumnRoleMap,
    ResultTable,
    load_dataset,
    load_population_summary,
    parse_role_map,
)

__version__ = "0.1.0"
