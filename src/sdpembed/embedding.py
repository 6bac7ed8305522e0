"""Embedding coordinates from a converged factor.

The factor H_Xi, whose row i has length sqrt(K(i, i)), is decomposed by
SVD; the embedding keeps the columns whose singular values exceed
``rank_tol`` relative to the largest.  Column l of the result is the
eigenvector chi_l of rho* = H_Xi H_Xi^T scaled so ||chi_l||^2 equals the
corresponding eigenvalue, hence rho* = Xi Xi^T up to the truncation error.
Every embedded point sits at radius sqrt(K(x, x)) from the origin: the
constraint diag(rho) = diag(K) pins the lengths, only the angles are learned.
"""

from dataclasses import dataclass

import numpy as np

from .diffmaps import fix_signs

# the default relative singular-value cutoff, also ``SolverConfig``'s
_RANK_TOL = 1e-6


@dataclass
class EmbeddingResult:
    """Embedding coordinates ``Xi`` (N x r), all ``p`` singular values of
    H_Xi descending, the effective rank ``r``, and the factor itself."""

    Xi: np.ndarray
    singular_values: np.ndarray
    rank: int
    H_Xi: np.ndarray


def _check_rank_tol(rank_tol):
    if not 0 <= rank_tol < 1:
        raise ValueError(f"rank_tol must be in [0, 1), got {rank_tol}")


def factor_to_embedding(H_Xi, rank_tol=_RANK_TOL):
    """Convert a solved factor into embedding coordinates.

    Parameters
    ----------
    H_Xi : (N, p) array
        Factor of rho* = H_Xi H_Xi^T, as returned by ``solver.solve``, whose
        width p runs from 2 up to the solver's cap ``r0``.
    rank_tol : float
        Relative singular-value cutoff for the effective rank, in [0, 1).

    Returns
    -------
    EmbeddingResult
        Coordinates ordered by descending singular value (ties broken by the
        first index of the largest-magnitude entry), each column flipped so
        its largest-magnitude entry is positive.
    """
    _check_rank_tol(rank_tol)
    H_Xi = np.asarray(H_Xi, dtype=float)
    U, sv, _ = np.linalg.svd(H_Xi, full_matrices=False)
    if sv[0] <= 0:
        raise RuntimeError("all singular values vanish; the factor is zero")
    rank = int(np.sum(sv > rank_tol * sv[0]))
    cols = U[:, :rank] * sv[:rank]
    order = sorted(
        range(rank),
        key=lambda l: (-sv[l], int(np.argmax(np.abs(cols[:, l])))),
    )
    return EmbeddingResult(
        Xi=fix_signs(cols[:, order]),
        singular_values=sv.copy(),
        rank=rank,
        H_Xi=H_Xi,
    )
