"""Diffusion-maps baseline: random-walk spectral basis and embedding.

The random walk on the data has transition matrix ``p = k / d`` (rows sum to
one).  ``p`` is conjugate to the symmetric normalized kernel
``k_N(x, y) = k(x, y) / sqrt(d(x) d(y))``, so its spectrum is real and lies in
[0, 1].  Eigenvectors come in a bi-orthogonal pair (psi, phi) derived from the
orthonormal eigenvectors ``u`` of ``k_N`` via ``psi = u / sqrt(phi0)`` and
``phi = u * sqrt(phi0)``, with ``phi0 = d / vol`` the stationary distribution.
The baseline is dense: :func:`spectral_basis` evaluates the N x N Gaussian
gram ``k`` from the points of a ``kernels.DiffusionKernel``.  The transition
matrix itself and the diffusion distance serve only the research checks in
``sdpembed.diagnostics``.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _map_blocks, _one_blas_thread


@dataclass
class DiffusionBasis:
    """Spectral data of the transition matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    phi0: np.ndarray


def _gram(kernel):
    """The N x N Gaussian gram of the training points."""
    n = kernel.points.shape[0]
    gram = np.empty((n, n))
    _map_blocks(kernel.points, kernel.points, kernel.sigma, lambda *block: None, target=gram)
    return gram


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


@_one_blas_thread()
def spectral_basis(kernel):
    """Eigendecompose the walk via its symmetric conjugate.

    The decomposition is done on ``k_N`` (symmetric, so the spectrum is real
    and the solver stable) and mapped back to the bi-orthogonal pair.
    Eigenvalues are clipped at zero: the base kernel is positive definite, so
    tiny negatives are rounding.
    """
    root_d = np.sqrt(kernel.degrees)
    k_norm = _gram(kernel)
    k_norm /= np.outer(root_d, root_d)
    eigenvalues, u = np.linalg.eigh(k_norm)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    u = fix_signs(u[:, order])
    phi0 = kernel.degrees / kernel.volume
    root_phi0 = np.sqrt(phi0)
    return DiffusionBasis(
        eigenvalues=eigenvalues,
        psi=u / root_phi0[:, None],
        phi=u * root_phi0[:, None],
        phi0=phi0,
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
