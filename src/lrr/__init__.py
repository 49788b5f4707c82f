"""Low-rank representation: nuclear-norm solvers for recovering
multi-subspace structure, with spectral segmentation, outlier detection,
synthetic benchmark generators, and evaluation metrics."""

from .errors import (
    DegenerateInputError,
    FeasibilityError,
    NumericalError,
    UndefinedMetricError,
)
from .linalg import (
    SkinnySvd,
    column_shrink,
    entry_shrink,
    norm,
    pseudoinverse,
    skinny_svd,
    svt,
)
from .solver import (
    ERROR_MODELS,
    LrrSolution,
    SolverOptions,
    reduce_dictionary,
    solve_lrr,
    solve_lrr_clean,
    solve_lrr_reduced,
    solve_lrr_self,
)
from .cluster import (
    SegmentationResult,
    build_affinity,
    detect_outliers,
    estimate_k,
    laplacian_spectrum,
    ncut_segment,
    segment,
)
from .synth import (
    SubspaceEnsemble,
    SyntheticDataset,
    add_noise,
    add_outliers,
    corrupt_samples,
    gen_ensemble,
    sample,
)
from .metrics import (
    auc,
    recovery_error,
    roc_sweep,
    segmentation_accuracy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
