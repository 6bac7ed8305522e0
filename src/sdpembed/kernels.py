"""Gaussian base kernel, degree normalization, and the centered diffusion kernel.

Given training points ``x_1..x_N`` and a bandwidth ``sigma``, the base kernel
is ``k(x, y) = exp(-||x - y||^2 / sigma^2)`` with degrees
``d(x) = sum_z k(x, z)`` and total volume ``vol = sum_x d(x)``.  The matrix
handed to the semi-definite program is the centered, degree-normalized kernel

    K(x, y) = k(x, y) / sqrt(d(x) d(y)) - sqrt(d(x) d(y)) / vol,

which is positive semi-definite on the training set, annihilates the vector
``sqrt(d)`` exactly, has strictly positive diagonal (for distinct points), and
has top eigenvalue < 1.  Everything here also extends to new points: the
degree, the kernel row, and the diagonal value all have natural out-of-sample
formulas, and the extended diagonal is provably nonnegative.
"""

from dataclasses import dataclass

import numpy as np

# tiny negative extended-diagonal values are rounding noise; anything below
# this is a genuine inequality violation, i.e. a bug
_KAPPA_CLAMP = -1e-12


@dataclass
class BaseKernelState:
    """Gaussian Gram matrix with its degrees and total volume."""

    sigma: float
    gram: np.ndarray
    degrees: np.ndarray
    volume: float
    points: np.ndarray


@dataclass
class DiffusionKernel:
    """Centered kernel ``K`` plus its exact top eigenvector ``e0`` and the
    base-kernel state needed for out-of-sample extension."""

    K: np.ndarray
    e0: np.ndarray
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


def _symmetrize(m):
    # fill both triangles from one computation so ||M - M^T||_inf == 0
    upper = np.triu(m)
    return upper + np.triu(m, 1).T


def _pairwise_sq_dists(points):
    # expanded quadratic form with clamping; cancellation can otherwise
    # produce small negative squared distances
    g = points @ points.T
    sq = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
    np.fill_diagonal(sq, 0.0)
    return _symmetrize(np.maximum(sq, 0.0))


def gaussian_gram(ds, sigma):
    """Evaluate the Gaussian kernel matrix of a dataset.

    Parameters
    ----------
    ds : Dataset or array of shape (N, d)
        Training points.
    sigma : float
        Kernel bandwidth, in the units of the feature distances.

    Returns
    -------
    BaseKernelState
        Gram matrix (unit diagonal), per-point degrees, and total volume.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    points = np.asarray(getattr(ds, "points", ds), dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("need a nonempty (N, d) array of points")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite entries")
    gram = np.exp(-_pairwise_sq_dists(points) / sigma**2)
    degrees = gram.sum(axis=1)
    return BaseKernelState(
        sigma=float(sigma),
        gram=gram,
        degrees=degrees,
        volume=float(degrees.sum()),
        points=points,
    )


def diffusion_kernel(base):
    """Build the centered kernel ``K`` from a base-kernel state.

    Returns
    -------
    DiffusionKernel
        ``K(i, j) = k(x_i, x_j)/sqrt(d_i d_j) - sqrt(d_i d_j)/vol`` together
        with ``e0 = sqrt(d / vol)``, which satisfies ``K e0 = 0`` exactly.
    """
    root_d = np.sqrt(base.degrees)
    outer = np.outer(root_d, root_d)
    K = _symmetrize(base.gram / outer - outer / base.volume)
    return DiffusionKernel(K=K, e0=root_d / np.sqrt(base.volume), base=base)


def extension_row(dk, xbar):
    """Extend the centered kernel to one new point.

    Parameters
    ----------
    dk : DiffusionKernel
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
    base = dk.base
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

    The slack is reported relative to ``k(x, x) * vol``; a value below
    ``-1e-12`` marks the report as failed (the inequality is a theorem, so a
    failure means the kernel was built incorrectly).
    """
    diag = np.diag(base.gram)
    slacks = [float(np.min((diag * base.volume - base.degrees**2) / (diag * base.volume)))]
    n = base.degrees.shape[0]
    for p in probes:
        p = np.asarray(p, dtype=float).reshape(-1)
        sq = np.maximum(((base.points - p) ** 2).sum(axis=1), 0.0)
        dbar = np.exp(-sq / base.sigma**2).sum()
        slacks.append(float((base.volume - dbar**2) / base.volume))
        n += 1
    worst = min(slacks)
    return VolumeCheckReport(worst_slack=worst, n_checked=n, ok=worst >= -1e-12)
