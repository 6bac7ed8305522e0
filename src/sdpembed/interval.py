"""Discretized-interval experiment: the SDP on a 1-d grid over [-1, 1].

The continuous kernel on [-1, 1] uses integrals for the degree and total
volume; on a uniform grid those integrals become plain sums over the grid
points, which makes the construction identical to the general one applied to
the grid.  Small bandwidths give a kernel with both signs and a rank-2
continuous solution (one odd and one even coordinate); at sigma = 1 the
solution collapses toward the rank-one matrix
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
class IntervalProblem:
    """Grid, bandwidth, and the centered kernel built from grid sums."""

    grid: np.ndarray
    sigma: float
    K: np.ndarray


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


def build_interval_problem(n, sigma):
    """Discretize the interval kernel on ``n`` uniform grid points.

    The grid is :func:`dataio.gen_interval_grid`; the kernel is an
    independent construction (direct grid sums) of the same formula the
    kernel module produces for it; the two agree to ~1e-12 and the
    experiment cross-checks that.
    """
    kernels._check_sigma(sigma)
    grid = dataio.gen_interval_grid(n).points[:, 0]
    gram = np.exp(-((grid[:, None] - grid[None, :]) ** 2) / sigma**2)
    degree = gram.sum(axis=1)
    volume = degree.sum()
    mixed = np.sqrt(np.outer(degree, degree))
    K = gram / mixed - mixed / volume
    K = np.triu(K) + np.triu(K, 1).T
    return IntervalProblem(grid=grid, sigma=float(sigma), K=K)


def sign_solution(problem):
    """Rank-one candidate ``s(x) sqrt(K(x,x)) s(y) sqrt(K(y,y))`` with
    s = sign(x) and s(0) = +1 (a grid node at zero needs a convention).

    On odd grids, sigma = 1, this candidate is a critical point (its
    complementary slackness holds to rounding) that ``check_optimality``
    rejects: L has a negative eigenvalue (-8.1e-4 at n = 201), and the
    certified rank-2 optimum has a larger objective."""
    s = np.sign(problem.grid)
    s[s == 0] = 1.0
    v = s * np.sqrt(np.diag(problem.K))
    return np.outer(v, v)


def run_interval_experiment(problem, cfg=None):
    """Solve, certify, and embed the discretized interval under the settings
    ``cfg`` (``SolverConfig()`` if None).

    Returns the report and the ``pipeline.PipelineResult`` it is read from,
    which holds the coordinates.  The report carries the effective rank,
    certification status, the parity residuals of the leading coordinates
    under grid reflection (the first coordinate is odd, the second even),
    and, at sigma = 1, the maximal entrywise deviation of rho* from the
    rank-one sign solution.  On odd grids that deviation is the sign
    formula's own midpoint row, sqrt(K(0, 0) max_x K(x, x)), which the rank-2
    optimum does not have.
    """
    result = pipeline.embed_points(problem.grid[:, None], problem.sigma, cfg)
    agreement = float(np.max(np.abs(result.kernel.K - problem.K)))
    if agreement > 1e-12:
        raise RuntimeError(
            f"grid-sum kernel deviates from the general construction by {agreement:.3e}"
        )
    emb = result.embedding
    rho = emb.H_Xi @ emb.H_Xi.T
    sign_residual = None
    if problem.sigma == 1.0:
        sign_residual = float(np.max(np.abs(rho - sign_solution(problem))))
    parity = {}
    if emb.rank >= 1:
        chi1 = emb.Xi[:, 0]
        parity["chi1_odd"] = float(np.max(np.abs(chi1 + chi1[::-1])))
    if emb.rank >= 2:
        chi2 = emb.Xi[:, 1]
        parity["chi2_even"] = float(np.max(np.abs(chi2 - chi2[::-1])))
    return IntervalExperimentReport(
        n=problem.grid.shape[0],
        sigma=problem.sigma,
        rank=emb.rank,
        certified=result.certificate.is_certified,
        converged=result.factor.converged,
        objective=result.factor.objective,
        sign_residual=sign_residual,
        parity_residuals=parity,
    ), result
