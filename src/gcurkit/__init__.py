"""Generalized CUR decomposition of matrix pairs via greedy index selection
on the generalized SVD, plus a single-matrix CUR, synthetic data generators,
and a reproducible experiment harness."""

from .curfac import CurFactors, InterpolativeFactors, deim_cur, interpolative
from .deim import deim_select, eta, interp_project
from .errors import (
    ContractViolationError,
    ConvergenceError,
    DependentBasisError,
    DimensionError,
    FullRankError,
    GcurkitError,
    ParseError,
    SingularMatrixError,
)
from .gcur import (
    BoundReport,
    GcurFactors,
    SubspaceGap,
    evaluate_bounds,
    gcur,
    gcur_only_a,
    reconstruct_a,
    reconstruct_b,
    relative_errors,
    svd_subspace_gap,
)
from .gsvd import GsvdFactors, TruncatedGsvd, gsvd, truncate, truncated_pair
from .matkit import (
    QrFactors,
    SvdFactors,
    max_principal_angle,
    smallest_singular_value,
    spectral_norm,
    svd,
    thin_qr,
)
from .synth import (
    NoiseModel,
    SubgroupSpec,
    colored_noise,
    lowrank_gapped,
    lowrank_sparse,
    perturb_chol,
    subgroup_data,
    toeplitz_chol,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ContractViolationError",
    "ConvergenceError",
    "CurFactors",
    "DependentBasisError",
    "DimensionError",
    "FullRankError",
    "GcurFactors",
    "GcurkitError",
    "GsvdFactors",
    "InterpolativeFactors",
    "NoiseModel",
    "ParseError",
    "QrFactors",
    "SingularMatrixError",
    "SubgroupSpec",
    "SubspaceGap",
    "SvdFactors",
    "TruncatedGsvd",
    "colored_noise",
    "deim_cur",
    "deim_select",
    "eta",
    "evaluate_bounds",
    "gcur",
    "gcur_only_a",
    "gsvd",
    "interp_project",
    "interpolative",
    "lowrank_gapped",
    "lowrank_sparse",
    "max_principal_angle",
    "perturb_chol",
    "reconstruct_a",
    "reconstruct_b",
    "relative_errors",
    "smallest_singular_value",
    "spectral_norm",
    "subgroup_data",
    "svd",
    "svd_subspace_gap",
    "thin_qr",
    "toeplitz_chol",
    "truncate",
    "truncated_pair",
    "__version__",
]
