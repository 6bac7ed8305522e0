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
points in row blocks.  Everything here also extends to new points: the
degree, the kernel row, and the diagonal value all have natural out-of-sample
formulas, and the extended diagonal is provably nonnegative.
"""

from dataclasses import dataclass

import numpy as np

# tiny negative extended-diagonal values are rounding noise; anything below
# this is a genuine inequality violation, i.e. a bug
_KAPPA_CLAMP = -1e-12

# Gaussian weights are evaluated in row blocks whose weights and coordinate
# differences take about this many bytes together, which keeps them in cache
# and the working memory beside the N x N K small
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


@dataclass
class ExtensionRow:
    """Out-of-sample kernel data at one new point: the row ``kvec`` of kernel
    values against the training set, the diagonal value ``kappa``, and the
    extended degree ``dbar``."""

    kvec: np.ndarray
    kappa: float
    dbar: float


@dataclass
class VolumeCheckReport:
    """Worst relative slack of the degree/volume inequalities
    ``d(x)^2 <= k(x, x) * vol`` over training points and probes."""

    worst_slack: float
    n_checked: int
    ok: bool


def _block_rows(n):
    """Rows per block of points evaluated against ``n`` training points."""
    return max(1, _BLOCK_BYTES // (2 * 8 * n))


def _gaussian_weights(X, points, sigma, out):
    """Fill ``out`` (M, N) with ``exp(-||X_a - points_b||^2 / sigma^2)``.

    Squared distances are summed from coordinate differences one dimension at
    a time, so they are exact functions of the differences: the kernel does
    not change when the data are translated, ``k(x, x) == 1`` exactly, and
    ``k(x, y) == k(y, x)`` bit for bit, whatever the row blocks.  (The expanded
    ``|x|^2 + |y|^2 - 2 x.y`` form cancels for points far from the origin.)
    """
    diff = np.empty_like(out)
    out.fill(0.0)
    for j in range(points.shape[1]):
        np.subtract.outer(X[:, j], points[:, j], out=diff)
        np.square(diff, out=diff)
        out += diff
    out /= -sigma**2
    return np.exp(out, out=out)


def _checked_points(points, sigma):
    """The training points as a float array, after checking them and sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("need a nonempty (N, d) array of points")
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
    n = points.shape[0]
    rows = _block_rows(n)
    buf = np.empty((min(rows, n), n))
    degrees = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        degrees[start:stop] = _gaussian_weights(
            points[start:stop], points, sigma, buf[: stop - start]
        ).sum(axis=1)
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
    root_d = np.sqrt(base.degrees)
    K = np.empty((n, n))
    rows = _block_rows(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        blk = K[start:stop, start:]
        _gaussian_weights(points[start:stop], points[start:], base.sigma, blk)
        outer = np.outer(root_d[start:stop], root_d[start:])
        blk /= outer
        outer /= base.volume
        blk -= outer
        K[stop:, start:stop] = K[start:stop, stop:].T
    return DiffusionKernel(K=K, base=base)


def extension_row(base, xbar):
    """Extend the centered kernel to one new point.

    Parameters
    ----------
    base : BaseKernelState
    xbar : array of shape (d,)
        The new point.

    Returns
    -------
    ExtensionRow
        ``kvec[i] = k(xbar, x_i)/sqrt(dbar d_i) - sqrt(dbar d_i)/vol``,
        ``kappa = 1/dbar - dbar/vol`` (Gaussian kernels have k(x, x) = 1),
        and the extended degree ``dbar = sum_i k(xbar, x_i)``.

    ``kappa`` is nonnegative up to rounding; values in ``[-1e-12, 0]`` are
    clamped to zero and anything below that raises, since the inequality
    ``dbar^2 <= vol`` is a theorem for this construction.  A point whose
    Gaussian weights all underflow (``dbar`` zero or subnormal) has no
    extension and raises ``ValueError``.
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    if xbar.shape[0] != base.points.shape[1]:
        raise ValueError(
            f"point has dimension {xbar.shape[0]}, training set has {base.points.shape[1]}"
        )
    if not np.all(np.isfinite(xbar)):
        raise ValueError("new point has non-finite coordinates")
    sq = np.maximum(((base.points - xbar) ** 2).sum(axis=1), 0.0)
    kx = np.exp(-sq / base.sigma**2)
    dbar = float(kx.sum())
    if dbar < np.finfo(float).tiny:
        raise ValueError(
            "new point has no kernel weight on the training set "
            f"(every Gaussian weight underflows at sigma = {base.sigma})"
        )
    mixed = np.sqrt(dbar * base.degrees)
    kvec = kx / mixed - mixed / base.volume
    kappa = 1.0 / dbar - dbar / base.volume
    if kappa < _KAPPA_CLAMP:
        raise RuntimeError(
            f"extended diagonal {kappa:.3e} violates the volume inequality; "
            "this indicates an internal error"
        )
    return ExtensionRow(kvec=kvec, kappa=max(kappa, 0.0), dbar=dbar)


def check_volume_inequalities(base, probes=()):
    """Check ``d(x)^2 <= k(x, x) * vol`` on the training set and at probes.

    The slack is reported relative to ``k(x, x) * vol``, where the Gaussian
    ``k(x, x)`` is exactly 1; a value below ``-1e-12`` marks the report as
    failed (the inequality is a theorem, so a failure means the kernel was
    built incorrectly).
    """
    points = base.points
    probes = np.asarray(probes, dtype=float).reshape(-1, points.shape[1])
    kx = _gaussian_weights(probes, points, base.sigma, np.empty((probes.shape[0], points.shape[0])))
    degrees = np.concatenate([base.degrees, kx.sum(axis=1)])
    slacks = (base.volume - degrees**2) / base.volume
    worst = float(slacks.min())
    return VolumeCheckReport(worst_slack=worst, n_checked=slacks.size, ok=worst >= -1e-12)
