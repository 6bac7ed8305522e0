"""Projected power method for the rank-constrained form of the embedding SDP.

The program  max Tr(rho K)  s.t.  rho >= 0, diag(rho) = diag(K)  is solved
on a thin factor  rho = H_Xi H_Xi^T  with H_Xi of shape (N, r0), whose row i
has length sqrt(K_ii), so that every iterate is feasible.

The paper iterates on the standardized factor H = ddiag(K)^{-1/2} H_Xi, which
has unit rows, with the coupling matrix  J = ddiag(K)^{1/2} K ddiag(K)^{1/2}:
H <- P(J H), where P scales every row to unit length.  Row i of J H is
sqrt(K_ii) (K H_Xi)_i, a positive multiple of row i of K H_Xi, and P cancels
positive row scalings, so  P(J H) = P(K H_Xi).  The same iterates therefore
come from  H_Xi <- rows of K H_Xi scaled to length sqrt(K_ii),  one product
with K per step and no second N x N matrix.  For p.s.d. K the objective
E = Tr(H_Xi^T K H_Xi) = Tr(rho K) is nondecreasing along the iterates.

The iteration stops on the ``slackness_residual`` ||L(rho) H_Xi||_F / ||H_Xi||_F
of ``check_optimality``, computed by the same code from the K H_Xi of the next
step.  It and E are evaluated on every tenth iterate and on the last.
"""

from dataclasses import dataclass

import numpy as np

from .certificate import _slackness

# a row whose norm is below this is treated as zero and re-randomized
_ZERO_ROW = 1e-300

# an objective decrease beyond this much of Tr(K)^2, which bounds |E| for
# p.s.d. K, breaks the monotonicity guarantee and is reported as an internal
# error
_MONOTONE_RTOL = 1e-9

# E and the residual (a sixth of a step at N = 308, r0 = 10) are evaluated
# on every this many iterates and on the last
_CHECK_EVERY = 10


@dataclass
class SolverConfig:
    """Knobs of the projected power method.

    The iteration stops once the slackness residual is at most ``tol_conv``
    times max_i K_ii; it bottoms out at 1e-16 to 1e-14 of max K_ii.
    """

    r0: int = 10
    max_iters: int = 15000
    tol_conv: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.r0 < 2:
            raise ValueError("r0 must be at least 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol_conv <= 0:
            raise ValueError("tol_conv must be positive")


@dataclass
class FactorState:
    """Result of the projected power method.  ``H_Xi`` has rows of length
    sqrt(K_ii); ``converged`` means that ``slackness_residual`` reached
    ``tol_conv * max K_ii`` within ``max_iters``."""

    H_Xi: np.ndarray
    objective: float
    iterations: int
    converged: bool
    slackness_residual: float


def _scale_rows(M, lengths, rng):
    """Scale row i of M to Euclidean length ``lengths[i]`` (or ``lengths``).

    Rows of norm below 1e-300 are replaced by a fresh random vector drawn
    from ``rng`` (a zero row has no direction to keep, and any fixed
    replacement would bias the iteration).
    """
    norms = np.sqrt(np.einsum("ij,ij->i", M, M))
    zero = norms < _ZERO_ROW
    if np.any(zero):
        if rng is None:
            raise ValueError("zero row encountered and no rng supplied")
        M = M.copy()
        for i in np.flatnonzero(zero):
            row = rng.standard_normal(M.shape[1])
            while np.linalg.norm(row) < _ZERO_ROW:
                row = rng.standard_normal(M.shape[1])
            M[i] = row
        norms = np.sqrt(np.einsum("ij,ij->i", M, M))
    return M / (norms / lengths)[:, None]


def project_rows(M, rng=None):
    """Scale every row of M to unit Euclidean norm; rows of norm below 1e-300
    are replaced by a random unit vector drawn from ``rng``."""
    return _scale_rows(np.asarray(M, dtype=float), 1.0, rng)


def init_factor(n_points, cfg, rng=None):
    """Random start with unit rows: entries uniform in [-1, 1], rows normalized.

    Deterministic given ``cfg.seed`` (unless an external rng is supplied).
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return project_rows(rng.uniform(-1.0, 1.0, (n_points, cfg.r0)), rng)


def objective(K, H_Xi):
    """Quadratic objective ``Tr(H_Xi^T K H_Xi)``, which is Tr(rho K) for
    rho = H_Xi H_Xi^T."""
    K = np.asarray(K, dtype=float)
    if H_Xi.shape[0] != K.shape[0]:
        raise ValueError(f"shape mismatch: K is {K.shape}, H_Xi is {H_Xi.shape}")
    return float(np.einsum("ij,ij->", H_Xi, K @ H_Xi))


def solve(K, cfg):
    """Run the projected power method until the slackness residual is small.

    Parameters
    ----------
    K : (N, N) array
        Symmetric p.s.d. kernel matrix with strictly positive diagonal.
    cfg : SolverConfig

    Returns
    -------
    FactorState
        The factor, its objective and slackness residual, the number of
        steps taken, and the convergence flag.

    Raises
    ------
    ValueError
        If some diagonal entry of K is not strictly positive (that point
        cannot carry an embedding constraint), or if ``cfg.r0`` exceeds N.
    RuntimeError
        If the objective decreases by more than 1e-9 Tr(K)^2, which cannot
        happen for p.s.d. K and therefore signals a corrupted input.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    diag = np.diag(K)
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise ValueError(
            f"kernel diagonal must be strictly positive; first offending point "
            f"index {bad[0]} with K[i,i] = {diag[bad[0]]:.3e}"
        )
    if cfg.r0 > n:
        raise ValueError(f"r0 = {cfg.r0} exceeds the number of points {n}")
    root = np.sqrt(diag)
    threshold = cfg.tol_conv * diag.max()
    max_decrease = _MONOTONE_RTOL * diag.sum() ** 2
    rng = np.random.default_rng(cfg.seed)
    H_Xi = root[:, None] * init_factor(n, cfg, rng)
    iterations = 0
    previous = -np.inf
    while True:
        KH = K @ H_Xi
        if iterations % _CHECK_EVERY == 0 or iterations == cfg.max_iters:
            k_rho, residual = _slackness(KH, H_Xi, diag)
            energy = float(k_rho.sum())
            if energy < previous - max_decrease:
                raise RuntimeError(
                    f"objective decreased from {previous!r} to {energy!r}; "
                    "the kernel is not p.s.d."
                )
            previous = energy
            converged = bool(residual <= threshold)
            if converged or iterations == cfg.max_iters:
                break
        H_Xi = _scale_rows(KH, root, rng)
        iterations += 1
    return FactorState(H_Xi, energy, iterations, converged, residual)
