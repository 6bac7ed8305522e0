"""Projected Nystrom out-of-sample extension of coordinates and kernel.

A new point xbar first gets its kernel row kvec and diagonal value kappa from
the training set.  The plain Nystrom sum g_l = sum_i kvec[i] * Xi[i, l] lands
somewhere inside the embedding ball; projecting it onto the sphere of radius
sqrt(kappa) gives coordinates that (a) reduce exactly to the stored ones on
training points, (b) keep the squared length equal to kappa, and (c) maximize
the extended objective among all feasible one-point completions.  Symmetric
configurations can make g vanish; that case is flagged as degenerate rather
than divided through.

One new point borders the training program into an (N+1)-point one.
:func:`block_extension_analysis` probes when a bordered rho* stays p.s.d., and
:func:`extended_sdp_certificate` certifies the bordered kernel and factor with
:func:`check_optimality`, the same test as for the training program.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .certificate import check_optimality
from .solver import objective

# ||g|| at or below 1e-12 * sqrt(kappa) * ||u|| counts as degenerate, where
# u = kx / sqrt(dbar d) is the uncentered kernel row (kvec is u minus its
# projection onto sqrt(d)); g is computed from terms of that size, so below
# it g is rounding noise
_DEGENERATE_RTOL = 1e-12


@dataclass
class ExtendedPoint:
    """Out-of-sample embedding: coordinates, kernel diagonal value and
    degeneracy flag.  From :func:`extend_point` the fields describe one point;
    from :func:`extend_points` they are arrays with one entry (row) per point.
    """

    coords: np.ndarray
    kappa: float
    degenerate: bool


@dataclass
class BlockExtensionReport:
    """Feasibility analysis of bordering rho* with a column b and corner s."""

    in_range: bool
    range_residual: float
    s_min: float
    b_coeffs: np.ndarray
    min_eig_at_s_min: float
    min_eig_below_s_min: float | None
    min_eigs_at_tested_s: dict


def extend_points(base, Xi, X):
    """Embed M new points by the projected Nystrom formula.

    Parameters
    ----------
    base : BaseKernelState
        Of the training set: its points, sigma, degrees and volume.
    Xi : array of shape (N, rank)
        Coordinates of a certified embedding of the training set.
    X : array of shape (M, d)

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
        For points of the wrong dimension or with non-finite coordinates, and
        for a point with no kernel weight on the training set (every Gaussian
        weight underflows), naming the first such row.
    RuntimeError
        If an extended diagonal violates the volume inequality beyond
        rounding, which is an internal error.

    The points are processed in row blocks of Gaussian weights ``kx`` (see
    ``kernels._BLOCK_BYTES``).  Per block, one product ``kx @ [Xi / sqrt(d), 1]``
    gives both ``A = kx @ (Xi / sqrt(d))`` and the extended degrees ``dbar``,
    from which the Nystrom sums follow as
    ``g = A / sqrt(dbar) - sqrt(dbar) (sqrt(d) @ Xi) / vol``; the kernel rows
    ``kvec`` of :func:`kernels.extension_row` are never formed.
    """
    points, volume = base.points, base.volume
    n, dim = points.shape
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (M, d) array of points, got shape {X.shape}")
    if X.shape[1] != dim:
        raise ValueError(f"points have dimension {X.shape[1]}, training set has {dim}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"new point at index {bad[0]} has non-finite coordinates")
    rank = Xi.shape[1]
    root_d = np.sqrt(base.degrees)
    weights = np.hstack([Xi / root_d[:, None], np.ones((n, 1))])
    center = (root_d @ Xi) / volume
    inv_d = 1.0 / base.degrees
    m = X.shape[0]
    coords = np.zeros((m, rank))
    kappa = np.empty(m)
    degenerate = np.zeros(m, dtype=bool)
    for start, stop, kx in kernels._weight_blocks(X, points, base.sigma):
        prod = kx @ weights
        dbar = prod[:, rank]
        empty = np.flatnonzero(dbar < np.finfo(float).tiny)
        if empty.size:
            raise ValueError(
                f"new point at index {start + empty[0]} has no kernel weight on the training "
                f"set (every Gaussian weight underflows at sigma = {base.sigma})"
            )
        root_dbar = np.sqrt(dbar)
        g = prod[:, :rank] / root_dbar[:, None] - np.outer(root_dbar, center)
        k = 1.0 / dbar - dbar / volume
        worst = int(np.argmin(k))
        if k[worst] < kernels._KAPPA_CLAMP:
            raise RuntimeError(
                f"extended diagonal {k[worst]:.3e} violates the volume inequality; "
                "this indicates an internal error"
            )
        np.maximum(k, 0.0, out=k)
        np.square(kx, out=kx)
        norm_u = np.sqrt((kx @ inv_d) / dbar)
        norm_g = np.sqrt(np.einsum("ij,ij->i", g, g))
        flat = norm_g <= _DEGENERATE_RTOL * np.sqrt(k) * norm_u
        ok = ~flat
        coords[start:stop][ok] = (np.sqrt(k[ok]) / norm_g[ok])[:, None] * g[ok]
        kappa[start:stop] = k
        degenerate[start:stop] = flat
    return ExtendedPoint(coords=coords, kappa=kappa, degenerate=degenerate)


def extend_point(base, Xi, xbar):
    """Embed one new point: the one-row case of :func:`extend_points`,
    returning scalar ``kappa`` and ``degenerate`` and ``coords`` of shape
    (rank,)."""
    batch = extend_points(base, Xi, np.asarray(xbar, dtype=float).reshape(1, -1))
    return ExtendedPoint(
        coords=batch.coords[0], kappa=float(batch.kappa[0]), degenerate=bool(batch.degenerate[0])
    )


def extend_kernel(base, Xi, x, y):
    """Extended kernel value ``sum_l chi_l(x) chi_l(y)`` at two points.

    Restricted to training points this reproduces rho*; on the diagonal of a
    non-degenerate point it returns kappa.  If either extension is degenerate
    the product has no defined direction and 0.0 is returned.
    """
    pair = extend_points(base, Xi, np.asarray([x, y], dtype=float).reshape(2, -1))
    if pair.degenerate.any():
        return 0.0
    return float(pair.coords[0] @ pair.coords[1])


def bordered_matrix(rho, b, s):
    """Assemble the (N+1) x (N+1) block matrix [[rho, b], [b^T, s]]."""
    n = rho.shape[0]
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = rho
    out[:n, n] = b
    out[n, :n] = b
    out[n, n] = s
    return out


def block_extension_analysis(embedding, b, tested_s=(1.0, 10.0, 100.0)):
    """Check when bordering rho* by a column ``b`` stays p.s.d.

    The bordered matrix is p.s.d. exactly when b lies in the range of rho*
    and the corner value s is at least s_min = sum_l b_l^2, where b_l are the
    coefficients of b in the chi basis.  The report carries the numerical
    evidence: the least eigenvalue at s_min (nonnegative up to 1e-10 when b
    is in range), at 0.9 * s_min (negative when s_min > 0), and at each
    tested s for out-of-range b (all negative).
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    if not np.any(b):
        raise ValueError("b must be nonzero")
    Xi = embedding.Xi
    if b.shape[0] != Xi.shape[0]:
        raise ValueError("b must have one entry per training point")
    eigenvalues = np.einsum("ij,ij->j", Xi, Xi)
    b_coeffs = (Xi.T @ b) / eigenvalues
    residual = float(np.linalg.norm(b - Xi @ b_coeffs))
    in_range = residual <= 1e-8 * max(1.0, float(np.linalg.norm(b)))
    s_min = float(np.sum(b_coeffs**2))
    rho = Xi @ Xi.T

    def min_eig(s):
        return float(np.linalg.eigvalsh(bordered_matrix(rho, b, s))[0])

    min_at_s_min = min_eig(s_min)
    min_below = min_eig(0.9 * s_min) if s_min > 0 else None
    tested = {float(s): min_eig(float(s)) for s in tested_s}
    return BlockExtensionReport(
        in_range=in_range,
        range_residual=residual,
        s_min=s_min,
        b_coeffs=b_coeffs,
        min_eig_at_s_min=min_at_s_min,
        min_eig_below_s_min=min_below,
        min_eigs_at_tested_s=tested,
    )


def extended_sdp_certificate(dk, embedding, xbar):
    """Certify one projected-Nystrom extension as a solution of the bordered
    (N+1)-point program.

    The bordered kernel is Kbar = [[K, kvec], [kvec^T, kappa]] and the
    bordered factor stacks the extended coordinates under ``embedding.Xi``,
    so rho_bar = [[rho*, b], [b^T, kappa]] with b = Xi coords.  The extension
    is feasible for the bordered program but generally not its optimum, so
    the report usually does not certify; that is expected output, not an
    error.

    Returns
    -------
    (CertificateReport, float)
        :func:`check_optimality` of the bordered pair, and the relative
        residual of the trace identity
        Tr(rho_bar Kbar) = Tr(rho* K) + 2 sqrt(kappa) sqrt(kvec^T rho* kvec) + kappa^2.

    Raises
    ------
    ValueError
        For degenerate extensions (no direction to border with) or a zero
        extended diagonal (the bordered certificate needs kappa > 0).
    """
    point = extend_point(dk.base, embedding.Xi, xbar)
    if point.degenerate:
        raise ValueError("extension is degenerate at this point; no certificate to check")
    if point.kappa <= 0:
        raise ValueError("extended diagonal vanishes; bordered certificate undefined")
    row = kernels.extension_row(dk.base, xbar)
    Xi = embedding.Xi
    report = check_optimality(
        bordered_matrix(dk.K, row.kvec, row.kappa), np.vstack([Xi, point.coords])
    )
    expected = (
        objective(dk.K, Xi)
        + 2.0 * np.sqrt(row.kappa) * np.linalg.norm(row.kvec @ Xi)
        + row.kappa**2
    )
    return report, abs(report.objective - expected) / expected
