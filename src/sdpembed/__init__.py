"""Low-dimensional embeddings from a fixed-diagonal kernel SDP.

The pipeline: build a degree-normalized, centered Gaussian kernel on the
training points; maximize Tr(rho K) over p.s.d. rho with diag(rho) = diag(K)
by a projected power method on a row-normalized factor; certify global
optimality with a Laplacian-like dual matrix; read embedding coordinates off
the SVD of the factor; and extend coordinates and kernel to new points with a
projected Nystrom formula.
"""

from .certificate import (
    CertificateReport,
    PrimalInfeasibilityError,
    certificate_matrix,
    check_optimality,
    nuclear_equivalence_check,
)
from .dataio import (
    CsvFormatError,
    Dataset,
    EmbeddingFile,
    EmbeddingSchemaError,
    gen_interval_grid,
    gen_swiss_roll,
    gen_three_clusters,
    load_csv,
    load_embedding,
    save_csv,
    save_embedding,
    standardize,
)
from .diffmaps import (
    DiffusionBasis,
    diffusion_distance,
    diffusion_map,
    spectral_basis,
    transition_matrix,
)
from .embedding import (
    EmbeddingResult,
    factor_to_embedding,
    kernel_distance,
    mean_value_check,
)
from .extension import (
    ExtendedPoint,
    block_extension_analysis,
    bordered_certificate,
    bordered_matrix,
    extend_kernel,
    extend_point,
    extend_points,
    extended_sdp_certificate,
)
from .interval import (
    IntervalProblem,
    build_interval_problem,
    run_interval_experiment,
    sign_solution,
)
from .kernels import (
    BaseKernelState,
    DiffusionKernel,
    ExtensionRow,
    check_volume_inequalities,
    diffusion_kernel,
    extension_row,
    gaussian_gram,
)
from .pipeline import PipelineResult, embed_points
from .solver import (
    Coupling,
    FactorState,
    SolverConfig,
    build_coupling,
    init_factor,
    objective,
    project_rows,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BaseKernelState",
    "CertificateReport",
    "Coupling",
    "CsvFormatError",
    "Dataset",
    "DiffusionBasis",
    "DiffusionKernel",
    "EmbeddingFile",
    "EmbeddingResult",
    "EmbeddingSchemaError",
    "ExtendedPoint",
    "ExtensionRow",
    "FactorState",
    "IntervalProblem",
    "PipelineResult",
    "PrimalInfeasibilityError",
    "SolverConfig",
    "block_extension_analysis",
    "bordered_certificate",
    "bordered_matrix",
    "build_coupling",
    "build_interval_problem",
    "certificate_matrix",
    "check_optimality",
    "check_volume_inequalities",
    "diffusion_distance",
    "diffusion_kernel",
    "diffusion_map",
    "embed_points",
    "extend_kernel",
    "extend_point",
    "extend_points",
    "extended_sdp_certificate",
    "extension_row",
    "factor_to_embedding",
    "gaussian_gram",
    "gen_interval_grid",
    "gen_swiss_roll",
    "gen_three_clusters",
    "init_factor",
    "kernel_distance",
    "load_csv",
    "load_embedding",
    "mean_value_check",
    "nuclear_equivalence_check",
    "objective",
    "project_rows",
    "run_interval_experiment",
    "save_csv",
    "save_embedding",
    "sign_solution",
    "solve",
    "spectral_basis",
    "standardize",
    "transition_matrix",
]
