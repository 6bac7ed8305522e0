"""Projected power method for the rank-constrained form of the embedding SDP.

The program  max Tr(rho K)  s.t.  rho >= 0, diag(rho) = diag(K)  is solved
through the standardized variable  rho_t = ddiag(K)^{-1/2} rho ddiag(K)^{-1/2}
factored as  rho_t = H H^T  with H of shape (N, r0) and unit-norm rows.  With
the coupling matrix  J = ddiag(K)^{1/2} K ddiag(K)^{1/2}  the objective becomes
E(H) = Tr(H^T J H), maximized by repeating  H <- P(J H)  where P normalizes
rows.  For p.s.d. J the objective is nondecreasing along the iterates.

The iteration stops on the certificate's complementary-slackness residual:
with lam_i = (J H)_i . H_i and K_ii = sqrt(J_ii), row i of L(rho) H_Xi is
(lam_i H_i - (J H)_i) / sqrt(K_ii), the Riemannian gradient of E on the
product of unit spheres, and ||L H_Xi||_F / ||H_Xi||_F is the
``slackness_residual`` of ``check_optimality``.  It needs only the J H of the
next step; it and E are evaluated on every tenth iterate and on the last.
"""

from dataclasses import dataclass

import numpy as np

# a row whose norm is below this is treated as zero and re-randomized
_ZERO_ROW = 1e-300

# an objective decrease beyond this relative amount breaks the monotonicity
# guarantee for p.s.d. couplings and is reported as an internal error
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
    """Result of the projected power method.  ``converged`` means that
    ``slackness_residual`` reached ``tol_conv * max K_ii`` within ``max_iters``."""

    H: np.ndarray
    objective: float
    iterations: int
    converged: bool
    slackness_residual: float


def build_coupling(K):
    """Form the coupling matrix ``J = ddiag(K)^{1/2} K ddiag(K)^{1/2}`` from
    an (N, N) kernel matrix.

    Raises
    ------
    ValueError
        If some diagonal entry of K is not strictly positive; the row
        standardization divides by sqrt(diag K), and a vanishing diagonal
        means the corresponding point cannot carry an embedding constraint.
    """
    K = np.asarray(K, dtype=float)
    diag = np.diag(K)
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise ValueError(
            f"kernel diagonal must be strictly positive; first offending point "
            f"index {bad[0]} with K[i,i] = {diag[bad[0]]:.3e}"
        )
    root = np.sqrt(diag)
    return np.outer(root, root) * K


def project_rows(M, rng=None):
    """Scale every row of M to unit Euclidean norm.

    Rows of norm below 1e-300 are replaced by a fresh random unit vector
    drawn from ``rng`` (a zero row has no direction to keep, and any fixed
    replacement would bias the iteration).
    """
    M = np.asarray(M, dtype=float)
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
    return M / norms[:, None]


def init_factor(n_points, cfg, rng=None):
    """Random feasible start: entries uniform in [-1, 1], rows normalized.

    Deterministic given ``cfg.seed`` (unless an external rng is supplied).
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return project_rows(rng.uniform(-1.0, 1.0, (n_points, cfg.r0)), rng)


def objective(J, H):
    """Quadratic objective ``E(H) = Tr(H^T J H)``.

    Equals Tr(rho K) for rho = ddiag(K)^{1/2} H H^T ddiag(K)^{1/2}.
    """
    J = np.asarray(J, dtype=float)
    if H.shape[0] != J.shape[0]:
        raise ValueError(f"shape mismatch: J is {J.shape}, H is {H.shape}")
    return float(np.einsum("ij,ij->", H, J @ H))


def solve(J, cfg):
    """Run the projected power method until the slackness residual is small.

    Parameters
    ----------
    J : (N, N) array
        Symmetric p.s.d. coupling matrix.
    cfg : SolverConfig

    Returns
    -------
    FactorState
        Final factor with unit rows, its objective and slackness residual,
        the number of steps taken, and the convergence flag.

    Raises
    ------
    RuntimeError
        If the objective decreases by more than 1e-9 relative, which cannot
        happen for p.s.d. J and therefore signals a corrupted input.
    """
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if cfg.r0 > n:
        raise ValueError(f"r0 = {cfg.r0} exceeds the number of points {n}")
    # K_ii = sqrt(J_ii); abs() keeps a corrupted negative diagonal finite for
    # the monotonicity check to report, and zero rows of J get no weight
    k_diag = np.sqrt(np.abs(np.diag(J)))
    inv_k = np.divide(1.0, k_diag, out=np.zeros(n), where=k_diag > 0)
    norm_H_Xi = np.sqrt(k_diag.sum())
    threshold = cfg.tol_conv * k_diag.max()
    rng = np.random.default_rng(cfg.seed)
    H = init_factor(n, cfg, rng)
    iterations = 0
    previous = -np.inf
    while True:
        JH = J @ H
        if iterations % _CHECK_EVERY == 0 or iterations == cfg.max_iters:
            lam = np.einsum("ij,ij->i", JH, H)
            energy = float(lam.sum())
            if energy < previous - _MONOTONE_RTOL * max(1.0, abs(energy)):
                raise RuntimeError(
                    f"objective decreased from {previous!r} to {energy!r}; "
                    "the coupling matrix is not p.s.d."
                )
            previous = energy
            gradient = lam[:, None] * H - JH
            residual = float(np.sqrt(inv_k @ np.einsum("ij,ij->i", gradient, gradient)) / norm_H_Xi)
            converged = bool(residual <= threshold)
            if converged or iterations == cfg.max_iters:
                break
        H = project_rows(JH, rng)
        iterations += 1
    return FactorState(H, energy, iterations, converged, residual)
