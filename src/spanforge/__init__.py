"""spanforge: a workbench for span programs over the reals.

Low-level programs query Boolean variables and decide whether a target
vector lies in the span of the available columns; high-level programs query
a real matrix and decide whether the target plus a free subspace meets its
column span.  The compiler turns high-level programs into Boolean-query
form (dense digits, or sparse payloads with routing trees), with witness
lifting in both directions.  Random-matrix experiments validate the
spectral facts the constructions rely on.
"""

from .calibration import (
    C_BOUNDED_DELTA,
    C_BOUNDED_EPSILON,
    RANK_NEGATIVE_THRESHOLD,
    RANK_POSITIVE_C,
)
from .compiler import (
    CompiledProgram,
    LiftedWitness,
    OverheadReport,
    compile_dense,
    compile_sparse,
    measure_overhead,
)
from .encoding import (
    FixedPointCode,
    IntegerCode,
    encode_int,
    encode_real,
    grid_values,
    index_bit_width,
)
from .errors import (
    InconsistentSystem,
    NoNegativeWitness,
    NoPositiveWitness,
    SolverFailure,
    SpanforgeError,
    SparseFormatError,
    ZeroConstraint,
)
from .highlevel import HighLevelProgram, wsize_over_inputs
from .linalg import (
    DEFAULT_TOL,
    min_norm_solve,
    min_quadratic_on_hyperplane,
    nullspace_basis,
    project_complement,
    svd,
)
from .lowlevel import (
    DomainWitnessSizes,
    LabeledVector,
    LowLevelProgram,
    WitnessReport,
    wsize_over_domain,
)
from .programs import (
    RankExperimentConfig,
    RankInstance,
    RankProgramSample,
    build_rank_program,
    grover_dj_program,
    rank_decision,
    run_rank_trials,
    threshold_matrix,
    unique_search_input,
    unique_search_program,
)
from .randmat import (
    RngStream,
    SpectralStats,
    exp_block_inverse_norm,
    exp_c_bounded,
    exp_inverse_wishart_trace,
    exp_lambda_min_cdf,
    exp_ratio_scaling,
    lambda_min_limit_cdf,
    lambda_min_limit_median,
    sample_bartlett,
    sample_gaussian,
    spectral_stats,
)
from .reports import TOOL_VERSION

__version__ = TOOL_VERSION

__all__ = [
    "C_BOUNDED_DELTA",
    "C_BOUNDED_EPSILON",
    "CompiledProgram",
    "DEFAULT_TOL",
    "DomainWitnessSizes",
    "FixedPointCode",
    "HighLevelProgram",
    "InconsistentSystem",
    "IntegerCode",
    "LabeledVector",
    "LiftedWitness",
    "LowLevelProgram",
    "NoNegativeWitness",
    "NoPositiveWitness",
    "OverheadReport",
    "RANK_NEGATIVE_THRESHOLD",
    "RANK_POSITIVE_C",
    "RankExperimentConfig",
    "RankInstance",
    "RankProgramSample",
    "RngStream",
    "SolverFailure",
    "SpanforgeError",
    "SparseFormatError",
    "SpectralStats",
    "TOOL_VERSION",
    "WitnessReport",
    "ZeroConstraint",
    "build_rank_program",
    "compile_dense",
    "compile_sparse",
    "encode_int",
    "encode_real",
    "exp_block_inverse_norm",
    "exp_c_bounded",
    "exp_inverse_wishart_trace",
    "exp_lambda_min_cdf",
    "exp_ratio_scaling",
    "grid_values",
    "grover_dj_program",
    "index_bit_width",
    "lambda_min_limit_cdf",
    "lambda_min_limit_median",
    "measure_overhead",
    "min_norm_solve",
    "min_quadratic_on_hyperplane",
    "nullspace_basis",
    "project_complement",
    "rank_decision",
    "run_rank_trials",
    "sample_bartlett",
    "sample_gaussian",
    "spectral_stats",
    "svd",
    "threshold_matrix",
    "unique_search_input",
    "unique_search_program",
    "wsize_over_domain",
    "wsize_over_inputs",
]
