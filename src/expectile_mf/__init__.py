"""Low-rank additive-plus-multiplicative matrix fitting under expectile loss.

The model represents a partially observed matrix as row effects plus column
effects plus a rank-k factor product, fit by minimizing an asymmetrically
weighted mean squared residual over the observed cells.
"""

from .analysis import (
    AlgoComparison,
    DenormalizedParams,
    GroupedSeries,
    PairStudyResult,
    RankSweep,
    band_curves,
    compare_algorithms,
    denormalize_params,
    icc,
    init_resilience,
    rank_sweep,
    rmse_from_loss,
)
from .errors import (
    DegenerateMatrix,
    DegenerateVariance,
    DimensionMismatch,
    EmptyInput,
    EmptyMask,
    EmptyResult,
    EmptyRow,
    EmptySample,
    ExpectileMFError,
    LengthMismatch,
    NonConvergence,
    NonFiniteObjective,
    ParseError,
    RankNotOne,
    UnnormalizedDataWarning,
    ZeroColumnWarning,
)
from .expectiles import Tau, as_tau, marginal_expectile_curves, scalar_expectile, weight
from .ingest import (
    HeartRateRecord,
    PersonDayMatrix,
    bin_records,
    filter_and_normalize,
    read_records_csv,
)
from .masked import (
    MaskedMatrix,
    NormalizationInfo,
    denormalize,
    drop_sparse_columns,
    global_stats,
    masked_col_means,
    masked_row_means,
    normalize,
    read_matrix_csv,
    write_matrix_csv,
)
from .model import (
    FactorModel,
    LossValue,
    Objective,
    canonicalize,
    fitted_matrix,
    flatten,
    load_model_json,
    loss_and_gradient,
    orient_rank1,
    save_model_json,
    unflatten,
)
from .optim import (
    OptimizeOptions,
    OptimizeResult,
    finite_difference_gradient,
    minimize,
)
from .pipeline import FitConfig, FitReport, fit, initial_model, tau_sweep
from .simulate import SimulatedData, SimulationSpec, generate, mean_matrix, residual_noise_std

__version__ = "0.1.0"
