"""Discretized-interval experiment: the SDP on a 1-d grid over [-1, 1].

The continuous kernel on [-1, 1] uses integrals for the degree and total
volume; on a uniform grid those integrals become plain sums over the grid
points, which is the general construction (``build_kernel``) applied to the
grid, so the experiment is ``embed_points`` on the grid of
:func:`dataio.gen_interval_grid`.  Small bandwidths give a kernel with both
signs and a rank-2 continuous solution (one odd and one even coordinate); at
sigma = 1 the solution collapses toward the rank-one matrix
sign(x) sqrt(K(x,x)) sign(y) sqrt(K(y,y)).

A caveat for odd grid sizes: the node x = 0 couples to the sign vector with
exactly cancelling weights (its kernel row is even, the sign vector odd), so
the discrete optimum has rank 2.  Its odd first coordinate follows sign(x)
and vanishes at x = 0; its even second coordinate carries the midpoint, with
chi2(0)^2 = K(0, 0) ~ 1/n.  The sign formula's own midpoint row is absent
from the optimum, so ``sign_residual`` there is that row,
sqrt(K(0, 0) max_x K(x, x)), to within about 0.2% for n = 201, 401, 801,
while elsewhere the two agree to about 1e-5.  Even grid sizes have no such
node and match the sign solution to solver precision.
"""

from dataclasses import dataclass, field

import numpy as np

from . import dataio, kernels, pipeline


@dataclass
class IntervalExperimentReport:
    n: int
    sigma: float
    rank: int
    certified: bool
    converged: bool
    objective: float
    sign_residual: float | None
    parity_residuals: dict = field(default_factory=dict)


def sign_solution(kernel):
    """Factor ``v = s sqrt(diag K)``, of shape (N, 1), of the rank-one
    candidate ``v v^T`` for the kernel of a grid, with s = sign(x) and
    s(0) = +1 (a grid node at zero needs a convention).

    On odd grids, sigma = 1, this candidate is a critical point (its
    complementary slackness holds to rounding) that ``check_optimality``
    rejects: L has a negative eigenvalue (-8.1e-4 at n = 201), and the
    certified rank-2 optimum has a larger objective."""
    s = np.where(kernel.points[:, 0] < 0, -1.0, 1.0)
    return (s * np.sqrt(np.diag(kernel.K)))[:, None]


def _max_deviation(H_Xi, v):
    """``max |H_i . H_j - v_i v_j|``, the entrywise deviation of
    ``H_Xi H_Xi^T`` from ``v v^T``, taken one row block at a time."""
    n = H_Xi.shape[0]
    rows = kernels._block_rows(n)
    worst = np.empty(n)

    def deviation(start, stop, spare):
        blk = spare[: (stop - start) * n].reshape(-1, n)
        np.matmul(H_Xi[start:stop], H_Xi.T, out=blk)
        blk -= v[start:stop] * v[:, 0]
        worst[start:stop] = np.abs(blk, out=blk).max(axis=1)

    kernels._each_block(n, rows, min(rows, n) * n, deviation)
    return float(worst.max())


@kernels._one_blas_thread()
def run_interval_experiment(n, sigma, cfg=None):
    """Solve, certify, and embed the discretized interval on ``n`` grid
    points at bandwidth ``sigma`` under the settings ``cfg``
    (``SolverConfig()`` if None); sigma is checked before the grid is built.

    Returns the report and the ``pipeline.PipelineResult`` it is read from,
    which holds the kernel and the coordinates.  The report carries the
    effective rank, certification status, the parity residuals of the
    leading coordinates under grid reflection (the first coordinate is odd,
    the second even), and, at sigma = 1, the maximal entrywise deviation of
    rho* from the rank-one sign solution of the ``K`` that was solved.  On
    odd grids that deviation is the sign formula's own midpoint row,
    sqrt(K(0, 0) max_x K(x, x)), which the rank-2 optimum does not have.
    """
    kernels._check_sigma(sigma)
    result = pipeline.embed_points(dataio.gen_interval_grid(n).points, sigma, cfg)
    emb = result.embedding
    sign_residual = None
    if sigma == 1.0:
        sign_residual = _max_deviation(emb.H_Xi, sign_solution(result.kernel))
    parity = {}
    if emb.rank >= 1:
        chi1 = emb.Xi[:, 0]
        parity["chi1_odd"] = float(np.max(np.abs(chi1 + chi1[::-1])))
    if emb.rank >= 2:
        chi2 = emb.Xi[:, 1]
        parity["chi2_even"] = float(np.max(np.abs(chi2 - chi2[::-1])))
    return IntervalExperimentReport(
        n=emb.Xi.shape[0],
        sigma=float(sigma),
        rank=emb.rank,
        certified=result.certificate.is_certified,
        converged=result.factor.converged,
        objective=result.factor.objective,
        sign_residual=sign_residual,
        parity_residuals=parity,
    ), result
