"""Projected Nystrom out-of-sample extension of coordinates and kernel.

A new point xbar first gets its kernel row kvec and diagonal value kappa from
the training set.  The plain Nystrom sum g_l = sum_i kvec[i] * Xi[i, l] lands
somewhere inside the embedding ball; projecting it onto the sphere of radius
sqrt(kappa) gives coordinates that (a) reduce exactly to the stored ones on
training points, (b) keep the squared length equal to kappa, and (c) maximize
the extended objective among all feasible one-point completions.  Symmetric
configurations can make g vanish; that case is flagged as degenerate rather
than divided through; g counts as vanishing at 1e-12 of the size of the
terms it is summed from, near the data and far from it alike.

Everything comes from the training set's ``kernels.DiffusionKernel``: its
points, sigma, degrees and volume (not ``K``, so the degree pass
``gaussian_gram`` is enough).  One set of rules decides which new points have
an extension: the checks of their dimension and finiteness in
:func:`_new_points`, and the error for a point with no kernel weight on the
training set and the clamp of kappa to zero within rounding in
:func:`_extended_diagonal`.  :func:`extend_points` and
:func:`sdpembed.diagnostics.extension_row` call both.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .certificate import _checked_factor

# ||g|| at or below 1e-12 of the size of the terms g is computed from,
# (kx @ (||Xi_i|| / sqrt(d_i))) / sqrt(dbar) + sqrt(dbar) ||center||, counts
# as degenerate: below it g is rounding noise.  Both terms scale like
# sqrt(dbar), as g does, so the test holds far from the data too, where the
# weights are tiny.  The first term's sum over kx is the last column of
# extend_points' one weight product
_DEGENERATE_RTOL = 1e-12

# tiny negative extended-diagonal values are rounding noise; anything below
# this is a genuine inequality violation, i.e. a bug
_KAPPA_CLAMP = -1e-12


@dataclass
class ExtendedPoint:
    """Out-of-sample embedding of M points: ``coords`` of shape (M, rank),
    and the kernel diagonal values ``kappa`` and degeneracy flags
    ``degenerate`` of shape (M,)."""

    coords: np.ndarray
    kappa: np.ndarray
    degenerate: np.ndarray


def _new_points(kernel, X):
    """The new points ``X`` as a float array of shape (M, d), after checking
    them: points of the wrong dimension or with non-finite coordinates raise
    ``ValueError``, naming the first such row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (M, d) array of points, got shape {X.shape}")
    if X.shape[1] != kernel.points.shape[1]:
        raise ValueError(
            f"points have dimension {X.shape[1]}, training set has {kernel.points.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"new point at index {bad[0]} has non-finite coordinates")
    return X


def _extended_diagonal(kernel, dbar):
    """``kappa = 1/dbar - dbar/vol`` of new points, from their extended
    degrees ``dbar = sum_i k(xbar, x_i)``.

    A point with no kernel weight on the training set (every Gaussian weight
    underflows, so ``dbar`` is zero or subnormal) raises ``ValueError``,
    naming the first such row.  ``kappa`` is nonnegative up to rounding;
    values in ``[-1e-12, 0]`` are clamped to zero and anything below that
    raises ``RuntimeError``, since the inequality ``dbar^2 <= vol`` is a
    theorem for this construction.
    """
    empty = np.flatnonzero(dbar < np.finfo(float).tiny)
    if empty.size:
        raise ValueError(
            f"new point at index {empty[0]} has no kernel weight on the "
            f"training set (every Gaussian weight underflows at sigma = {kernel.sigma})"
        )
    kappa = 1.0 / dbar - dbar / kernel.volume
    worst = kappa.min(initial=0.0)
    if worst < _KAPPA_CLAMP:
        raise RuntimeError(
            f"extended diagonal {worst:.3e} violates the volume inequality; "
            "this indicates an internal error"
        )
    return np.maximum(kappa, 0.0, out=kappa)


@kernels._one_blas_thread()
def extend_points(kernel, Xi, X):
    """Embed M new points by the projected Nystrom formula.

    Parameters
    ----------
    kernel : DiffusionKernel
        Of the training set: its points, sigma, degrees and volume (``K`` is
        not read).
    Xi : array of shape (N, rank)
        Coordinates of a certified embedding of the training set.
    X : array of shape (M, d)
        The new points; M may be 0.

    Returns
    -------
    ExtendedPoint
        ``coords`` of shape (M, rank), ``kappa`` and ``degenerate`` of shape
        (M,).  Non-degenerate rows satisfy ``||coords||^2 == kappa``;
        degenerate ones (the Nystrom sum g vanishes, e.g. at exact symmetry
        midpoints) carry zero coordinates instead of a division by ~0.

    Raises
    ------
    ValueError
        For coordinates ``Xi`` of any shape but (N, rank) with rank >= 1, for
        points of the wrong dimension or with non-finite coordinates, and
        for a point with no kernel weight on the training set (every Gaussian
        weight underflows), naming the first such row.
    RuntimeError
        If an extended diagonal violates the volume inequality beyond
        rounding, which is an internal error.

    The points are processed in row blocks of Gaussian weights ``kx`` (see
    ``kernels._map_blocks``).  Per block, one product
    ``kx @ [Xi / sqrt(d), 1, ||Xi_i|| / sqrt(d_i)]``, written straight into
    its rows of the result, gives ``A = kx @ (Xi / sqrt(d))``, the extended
    degrees ``dbar`` and the bound ``kx @ (||Xi_i|| / sqrt(d_i)) >= ||A||``
    of the degeneracy test; the rest runs once over all rows, so the runner's
    threads hold the GIL for little more than that product.  The Nystrom
    sums follow as ``g = A / sqrt(dbar) - sqrt(dbar) center`` with
    ``center = (sqrt(d) @ Xi) / vol``; the kernel rows ``kvec`` of
    :func:`sdpembed.diagnostics.extension_row` are never formed.
    """
    Xi = _checked_factor(Xi, kernel.points.shape[0])
    rank = Xi.shape[1]
    root_d = np.sqrt(kernel.degrees)
    # the middle column sqrt(d_i) / sqrt(d_i) is exactly 1
    weights = np.column_stack([Xi, root_d, np.linalg.norm(Xi, axis=1)]) / root_d[:, None]
    center = (root_d @ Xi) / kernel.volume
    X = _new_points(kernel, X)
    m = X.shape[0]
    prod = np.empty((m, rank + 2))

    def product(start, stop, kx):
        np.matmul(kx, weights, out=prod[start:stop])

    kernels._map_blocks(X, kernel.points, kernel.sigma, product)
    dbar, sizes = prod[:, rank], prod[:, rank + 1]
    kappa = _extended_diagonal(kernel, dbar)
    root_dbar = np.sqrt(dbar)
    g = prod[:, :rank] / root_dbar[:, None] - np.outer(root_dbar, center)
    norm_g = np.sqrt(np.einsum("ij,ij->i", g, g))
    size = sizes / root_dbar + root_dbar * np.linalg.norm(center)
    degenerate = norm_g <= _DEGENERATE_RTOL * size
    ok = ~degenerate
    coords = np.zeros((m, rank))
    coords[ok] = (np.sqrt(kappa[ok]) / norm_g[ok])[:, None] * g[ok]
    return ExtendedPoint(coords=coords, kappa=kappa, degenerate=degenerate)
