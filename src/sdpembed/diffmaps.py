"""Diffusion-maps baseline: random-walk spectral basis, embedding, distances.

The random walk on the data has transition matrix ``p = k / d`` (rows sum to
one).  ``p`` is conjugate to the symmetric normalized kernel
``k_N(x, y) = k(x, y) / sqrt(d(x) d(y))``, so its spectrum is real and lies in
[0, 1].  Eigenvectors come in a bi-orthogonal pair (psi, phi) derived from the
orthonormal eigenvectors ``u`` of ``k_N`` via ``psi = u / sqrt(phi0)`` and
``phi = u * sqrt(phi0)``, with ``phi0 = d / vol`` the stationary distribution.
The baseline is dense: each function evaluates the N x N Gaussian gram ``k``
from the points of the base-kernel state.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _map_blocks


@dataclass
class DiffusionBasis:
    """Spectral data of the transition matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    phi0: np.ndarray
    u: np.ndarray


def _gram(base):
    """The N x N Gaussian gram of the training points."""
    n = base.points.shape[0]
    gram = np.empty((n, n))
    _map_blocks(base.points, base.points, base.sigma, lambda *block: None, target=gram)
    return gram


def transition_matrix(base):
    """Row-stochastic transition matrix ``p(x, y) = k(x, y) / d(x)``."""
    p = _gram(base)
    p /= base.degrees[:, None]
    return p


def fix_signs(vectors):
    """Flip each column so its largest-magnitude entry is positive.

    Eigenvectors are defined up to sign; this makes spectral output
    deterministic across runs and platforms.  Ties resolve to the first
    index of the largest magnitude.
    """
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        i = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


def spectral_basis(base):
    """Eigendecompose the walk via its symmetric conjugate.

    The decomposition is done on ``k_N`` (symmetric, so the spectrum is real
    and the solver stable) and mapped back to the bi-orthogonal pair.
    Eigenvalues are clipped at zero: the base kernel is positive definite, so
    tiny negatives are rounding.
    """
    root_d = np.sqrt(base.degrees)
    k_norm = _gram(base)
    k_norm /= np.outer(root_d, root_d)
    eigenvalues, u = np.linalg.eigh(k_norm)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    u = fix_signs(u[:, order])
    phi0 = base.degrees / base.volume
    root_phi0 = np.sqrt(phi0)
    return DiffusionBasis(
        eigenvalues=eigenvalues,
        psi=u / root_phi0[:, None],
        phi=u * root_phi0[:, None],
        phi0=phi0,
        u=u,
    )


def diffusion_map(basis, t, m):
    """Truncated diffusion-map coordinates.

    Column ``l`` (for l = 1..m) is ``eigenvalues[l]**t * psi[:, l]``; the
    constant eigenvector ``psi_0`` carries no distance information and is
    excluded.  ``t`` may be any nonnegative real.

    Returns an (N, m) array.
    """
    n = basis.eigenvalues.shape[0]
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must be in [1, {n - 1}], got {m}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return basis.psi[:, 1 : m + 1] * basis.eigenvalues[1 : m + 1] ** t


def diffusion_distance(basis, t, i, j):
    """Diffusion distance between training points ``i`` and ``j`` at time ``t``.

    Computed spectrally as the Euclidean distance between the full
    (m = N-1) diffusion-map rows, which equals the phi0^{-1}-weighted
    l2-distance between the t-step transition rows.
    """
    n = basis.eigenvalues.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("point indices out of range")
    diff = basis.psi[i, 1:] - basis.psi[j, 1:]
    return float(np.sqrt(np.sum((basis.eigenvalues[1:] ** t * diff) ** 2)))
