"""Low-dimensional embeddings from a fixed-diagonal kernel SDP.

The pipeline: build a degree-normalized, centered Gaussian kernel on the
training points; maximize Tr(rho K) over p.s.d. rho with diag(rho) = diag(K)
on a row-scaled factor of rho, by projected power steps, then a Riemannian
trust region and a rank staircase; certify global optimality with a
Laplacian-like dual matrix; read embedding coordinates off the SVD of the
factor; and extend coordinates and kernel to new points with a
projected Nystrom formula.  The research checks of the paper's claims, and
the helpers only they use, live in ``sdpembed.diagnostics``, which this
namespace does not import.
"""

from .certificate import PrimalInfeasibilityError, check_optimality
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
from .diffmaps import diffusion_map, spectral_basis
from .embedding import factor_to_embedding
from .extension import extend_points
from .interval import run_interval_experiment, sign_solution
from .kernels import build_kernel, gaussian_gram
from .pipeline import embed_points
from .solver import SolverConfig, objective, solve

__version__ = "0.1.0"

__all__ = [
    "CsvFormatError",
    "Dataset",
    "EmbeddingFile",
    "EmbeddingSchemaError",
    "PrimalInfeasibilityError",
    "SolverConfig",
    "build_kernel",
    "check_optimality",
    "diffusion_map",
    "embed_points",
    "extend_points",
    "factor_to_embedding",
    "gaussian_gram",
    "gen_interval_grid",
    "gen_swiss_roll",
    "gen_three_clusters",
    "load_csv",
    "load_embedding",
    "objective",
    "run_interval_experiment",
    "save_csv",
    "save_embedding",
    "sign_solution",
    "solve",
    "spectral_basis",
    "standardize",
]
