"""Offline acceleration of iterative optimizers.

Store a sliding window of parameter snapshots, solve a tiny regularized
Gram system over their consecutive differences, and combine the window
into an extrapolated point whose gradient is (approximately) minimized.
The procedure never touches training data and never feeds back into the
optimizer, so it can run after the fact on exported checkpoints.
"""

from .buffer import SlidingBuffer
from .checkpoint import MetricsRow, read_checkpoints, write_checkpoints, write_metrics
from .core import (
    Coefficients,
    RnaConfig,
    WeightTarget,
    adaptive_rna,
    as_iterate_matrix,
    build_residuals,
    extrapolate,
    normalize,
    rna,
    solve_regularized,
)
from .errors import (
    DegenerateSum,
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    NumericalFailure,
    OrderingViolation,
    RnaError,
    SingularSystem,
    WindowTooSmall,
)
from .experiment import (
    ExperimentSpec,
    accelerate_checkpoints,
    build_problem,
    default_spec,
    run_experiment,
    sweep,
)
from .optimizers import (
    AccelRecord,
    EpochRecord,
    OptimizerConfig,
    gd_step,
    learning_rate,
    run_with_rna,
    sgd_momentum_epoch,
)
from .problems import (
    Problem,
    finite_difference_gradient,
    make_logistic,
    make_mlp,
    make_quadratic,
    split_mlp_params,
)

__version__ = "0.1.0"

__all__ = [
    "AccelRecord",
    "Coefficients",
    "DegenerateSum",
    "DimensionMismatch",
    "EpochRecord",
    "ExperimentSpec",
    "FormatError",
    "InvalidConfig",
    "MetricsRow",
    "NumericalFailure",
    "OptimizerConfig",
    "OrderingViolation",
    "Problem",
    "RnaConfig",
    "RnaError",
    "SingularSystem",
    "SlidingBuffer",
    "WeightTarget",
    "WindowTooSmall",
    "accelerate_checkpoints",
    "adaptive_rna",
    "as_iterate_matrix",
    "build_problem",
    "build_residuals",
    "default_spec",
    "extrapolate",
    "finite_difference_gradient",
    "gd_step",
    "learning_rate",
    "make_logistic",
    "make_mlp",
    "make_quadratic",
    "normalize",
    "read_checkpoints",
    "rna",
    "run_experiment",
    "run_with_rna",
    "sgd_momentum_epoch",
    "solve_regularized",
    "split_mlp_params",
    "sweep",
    "write_checkpoints",
    "write_metrics",
    "__version__",
]
