"""Gaussian base kernel, degree normalization, and the centered diffusion kernel.

Given training points ``x_1..x_N`` and a bandwidth ``sigma``, the base kernel
is ``k(x, y) = exp(-||x - y||^2 / sigma^2)`` with degrees
``d(x) = sum_z k(x, z)`` and total volume ``vol = sum_x d(x)``.  The matrix
handed to the semi-definite program is the centered, degree-normalized kernel

    K(x, y) = k(x, y) / sqrt(d(x) d(y)) - sqrt(d(x) d(y)) / vol,

which is positive semi-definite on the training set, annihilates the vector
``sqrt(d)`` exactly, has strictly positive diagonal (for distinct points), and
has top eigenvalue < 1.  The base-kernel state keeps the points, sigma, the
degrees and the volume, never the N x N gram: ``K`` is evaluated from the
points in row blocks.  One evaluator, ``_gaussian_weights``, gives every
Gaussian weight in the package (the degrees, ``K``, the extension to new
points, the volume probes and the diffusion-maps gram) from the training
points held as contiguous columns, writing into the caller's block with one
scratch block that the caller reuses across blocks.  The degree of a new
point is a row sum of the same weights; the module ``extension`` turns it
into the new point's kernel row and diagonal value.
"""

from dataclasses import dataclass

import numpy as np

# Gaussian weights are evaluated in row blocks whose weights and one scratch
# block of the same shape (coordinate differences, then in diffusion_kernel
# the products of root degrees) take about this many bytes together, which
# keeps them in cache and the working memory beside the N x N K small
_BLOCK_BYTES = 1 << 20


@dataclass
class BaseKernelState:
    """Training points and bandwidth of the Gaussian kernel, with its
    degrees and total volume: everything ``K`` and its out-of-sample
    extension are built from.  The gram matrix itself is never stored."""

    sigma: float
    points: np.ndarray
    degrees: np.ndarray
    volume: float


@dataclass
class DiffusionKernel:
    """Centered kernel ``K`` plus the base-kernel state needed for
    out-of-sample extension."""

    K: np.ndarray
    base: BaseKernelState


def _block_rows(n):
    """Rows per block of points evaluated against ``n`` training points."""
    return max(1, _BLOCK_BYTES // (2 * 8 * n))


def _gaussian_weights(X, columns, sigma, out, scratch):
    """Fill ``out`` (M, N) with ``exp(-||X_a - x_b||^2 / sigma^2)``, where the
    training points ``x_b`` come as the contiguous columns ``points.T`` of
    shape (d, N), and return it; ``scratch`` is a spare array shaped like
    ``out``.

    Squared distances are summed from coordinate differences one dimension at
    a time, so they are exact functions of the differences: the kernel does
    not change when the data are translated, ``k(x, x) == 1`` exactly, and
    ``k(x, y) == k(y, x)`` bit for bit, whatever the row blocks.  (The expanded
    ``|x|^2 + |y|^2 - 2 x.y`` form cancels for points far from the origin.)
    Each difference is a broadcast copy of the training column minus the new
    coordinate, ``x_b - X_a``, whose square has the bits of ``(X_a - x_b)^2``;
    the first dimension is written straight into ``out``.  (One broadcast
    ``subtract`` of column and coordinates buffers both inputs and is slower.)
    """
    np.copyto(out, columns[0])
    out -= X[:, :1]
    np.square(out, out=out)
    for j in range(1, columns.shape[0]):
        np.copyto(scratch, columns[j])
        scratch -= X[:, j : j + 1]
        np.square(scratch, out=scratch)
        out += scratch
    out /= -sigma**2
    return np.exp(out, out=out)


def _weight_blocks(X, points, sigma):
    """Yield ``(start, stop, weights)`` over row blocks of ``X`` against the
    training points; ``weights`` is a buffer reused by the next block."""
    columns = np.ascontiguousarray(points.T)
    n, m = points.shape[0], X.shape[0]
    rows = _block_rows(n)
    out = np.empty((min(rows, m), n))
    scratch = np.empty_like(out)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        k = stop - start
        yield start, stop, _gaussian_weights(X[start:stop], columns, sigma, out[:k], scratch[:k])


def _degrees(X, points, sigma):
    """Row sums of the Gaussian weights of ``X`` against the training points."""
    degrees = np.empty(X.shape[0])
    for start, stop, weights in _weight_blocks(X, points, sigma):
        degrees[start:stop] = weights.sum(axis=1)
    return degrees


def _checked_points(points, sigma):
    """The training points as a float array, after checking them and sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or min(points.shape) < 1:
        raise ValueError("need an (N, d) array of points with N, d >= 1")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite entries")
    return points


def gaussian_gram(points, sigma):
    """Degrees and total volume of the Gaussian kernel of a point cloud.

    Parameters
    ----------
    points : array of shape (N, d)
        Training points.
    sigma : float
        Kernel bandwidth, in the units of the feature distances.

    Returns
    -------
    BaseKernelState
        The points, sigma, per-point degrees ``d_i = sum_j k(x_i, x_j)`` and
        total volume.  Each degree is the row sum of one row block of
        Gaussian weights at a time (see ``_BLOCK_BYTES``), so no N x N gram
        is formed; :func:`diffusion_kernel` evaluates the weights again.
    """
    points = _checked_points(points, sigma)
    degrees = _degrees(points, points, sigma)
    return BaseKernelState(
        sigma=float(sigma), points=points, degrees=degrees, volume=float(degrees.sum())
    )


def diffusion_kernel(base):
    """Build the centered kernel ``K`` from a base-kernel state.

    Returns
    -------
    DiffusionKernel
        ``K(i, j) = k(x_i, x_j)/sqrt(d_i d_j) - sqrt(d_i d_j)/vol``, which
        annihilates ``sqrt(d)`` and is exactly symmetric.  Each row block of
        ``K`` is evaluated from its diagonal on, straight from the Gaussian
        weights of ``base.points``, normalized in place and mirrored below
        the diagonal, so the build holds ``K`` and a few block buffers.
    """
    points, n = base.points, base.points.shape[0]
    columns = np.ascontiguousarray(points.T)
    root_d = np.sqrt(base.degrees)
    K = np.empty((n, n))
    rows = _block_rows(n)
    spare = np.empty(min(rows, n) * n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        blk = K[start:stop, start:]
        scratch = spare[: blk.size].reshape(blk.shape)
        _gaussian_weights(points[start:stop], columns[:, start:], base.sigma, blk, scratch)
        outer = np.multiply.outer(root_d[start:stop], root_d[start:], out=scratch)
        blk /= outer
        outer /= base.volume
        blk -= outer
        K[stop:, start:stop] = K[start:stop, stop:].T
    return DiffusionKernel(K=K, base=base)
