"""One-call orchestration: kernel, solve, certificate, embedding."""

from dataclasses import dataclass, replace

from . import certificate, embedding, kernels, solver


@dataclass
class PipelineResult:
    kernel: kernels.DiffusionKernel
    factor: solver.FactorState
    embedding: embedding.EmbeddingResult
    certificate: certificate.CertificateReport


def embed_points(points, sigma, config=None, rank_tol=embedding._RANK_TOL):
    """Run the full training pipeline on a point cloud.

    The rank cap ``config.r0`` is capped at the number of points.  A failed
    certificate (the solver's last one, if it has one) is reported, not raised.
    """
    cfg = config or solver.SolverConfig()
    base = kernels.gaussian_gram(points, sigma)
    dk = kernels.diffusion_kernel(base)
    n = dk.K.shape[0]
    if cfg.r0 > n:
        cfg = replace(cfg, r0=max(2, n))
    state = solver.solve(dk.K, cfg)
    result = embedding.factor_to_embedding(state.H_Xi, rank_tol=rank_tol)
    report = state.certificate or certificate.check_optimality(dk.K, state.H_Xi)
    return PipelineResult(kernel=dk, factor=state, embedding=result, certificate=report)
