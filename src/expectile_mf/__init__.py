"""Low-rank additive-plus-multiplicative matrix fitting under expectile loss.

The model represents a partially observed matrix as row effects plus column
effects plus a rank-k factor product, fit by minimizing an asymmetrically
weighted mean squared residual over the observed cells.
"""

from .analysis import (
    AlgoComparison,
    PairStudyResult,
    RankSweep,
    band_curves,
    compare_algorithms,
    icc,
    init_resilience,
    rank_sweep,
)
from .errors import ExpectileMFError, ParseError
from .expectiles import check_tau, marginal_expectile_curves, scalar_expectile
from .ingest import (
    PersonDayMatrix,
    bin_records,
    filter_and_normalize,
    read_records_csv,
)
from .masked import (
    MaskedMatrix,
    NormalizationInfo,
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
    loss_and_gradient,
    orient_rank1,
    unflatten,
)
from .optim import OptimizeOptions, OptimizeResult, minimize
from .pipeline import FitConfig, FitReport, fit, initial_model, tau_sweep
from .simulate import SimulatedData, SimulationSpec, generate

__version__ = "0.1.0"
