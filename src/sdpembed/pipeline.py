"""One-call orchestration: kernel, solve, certificate, embedding."""

from dataclasses import dataclass, replace

import numpy as np

from . import certificate, embedding, kernels, solver

# a bandwidth path goes up at most this many doublings of sigma; the top
# level is solved cold in full
_MAX_DOUBLINGS = 6


@dataclass
class PipelineResult:
    kernel: kernels.DiffusionKernel
    factor: solver.FactorState
    embedding: embedding.EmbeddingResult
    certificate: certificate.CertificateReport


@kernels._one_blas_thread()
def embed_points(points, sigma, config=None):
    """Run the full training pipeline on ``points`` under ``config`` (``SolverConfig()`` if None).

    The rank cap ``config.r0`` is capped at the number of points.  A failed
    certificate (the solver's last one, if it has one) is reported, not raised.

    Where the solver's power steps stall on the cold start at ``sigma``,
    it takes a bandwidth path instead of the trust region: it probes
    2 sigma, 4 sigma, ... with the same cold power steps up to the first
    level where they converge (or 2^6 sigma, which is solved cold in full),
    then solves each lower level, ``sigma`` last, from the unit rows of the
    level above.  One ``K`` is held at a time, ``config.max_iters`` caps the
    steps of the whole path, and the factor's ``iterations`` and
    ``products`` count them all; the rest comes from ``sigma`` itself.
    Only ``sigma``'s own level is certified, and only there does the rank
    staircase run: the levels above stop at the stopping rule, since their
    factors only serve as starts.  So a call runs one certificate, unless
    the staircase climbs at ``sigma``.
    """
    cfg = config or solver.SolverConfig()
    dk = kernels.build_kernel(points, sigma)
    points, n = dk.points, dk.K.shape[0]
    cfg = replace(cfg, r0=max(2, min(cfg.r0, n)))
    steps = products = level = 0
    while True:
        state, stalled = solver._solve(
            dk.K, cfg, None, cfg.max_iters - steps, probe=level < _MAX_DOUBLINGS,
            certify=level == 0,
        )
        steps, products = steps + state.iterations, products + state.products
        if not stalled:
            break
        level += 1
        dk = None  # one K at a time
        dk = kernels.build_kernel(points, sigma * 2**level)
    for level in range(level - 1, -1, -1):
        start = state.H_Xi / np.sqrt(np.diag(dk.K))[:, None]
        dk = None
        dk = kernels.build_kernel(points, sigma * 2**level)
        state, _ = solver._solve(dk.K, cfg, start, cfg.max_iters - steps, certify=level == 0)
        steps, products = steps + state.iterations, products + state.products
    state = replace(state, iterations=steps, products=products)
    result = embedding.factor_to_embedding(state.H_Xi, rank_tol=cfg.rank_tol)
    report = state.certificate or certificate.check_optimality(dk.K, state.H_Xi)
    return PipelineResult(kernel=dk, factor=state, embedding=result, certificate=report)
