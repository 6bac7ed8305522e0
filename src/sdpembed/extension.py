"""Projected Nystrom out-of-sample extension of coordinates and kernel.

A new point xbar first gets its kernel row kvec and diagonal value kappa from
the training set.  The plain Nystrom sum g_l = sum_i kvec[i] * Xi[i, l] lands
somewhere inside the embedding ball; projecting it onto the sphere of radius
sqrt(kappa) gives coordinates that (a) reduce exactly to the stored ones on
training points, (b) keep the squared length equal to kappa, and (c) maximize
the extended objective among all feasible one-point completions.  Symmetric
configurations can make g vanish; that case is flagged as degenerate rather
than divided through.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .certificate import certificate_matrix

# ||g|| at or below 1e-12 * sqrt(kappa) * ||u|| counts as degenerate, where
# u = kx / sqrt(dbar d) is the uncentered kernel row (kvec is u minus its
# projection onto sqrt(d)); g is computed from terms of that size, so below
# it g is rounding noise
_DEGENERATE_RTOL = 1e-12

# new points are extended in row blocks whose two working arrays (Gaussian
# weights and coordinate differences) take about this many bytes together,
# which keeps them in cache and below the peak memory of training
_BLOCK_BYTES = 1 << 20


def _block_rows(n):
    """Rows per block of new points against ``n`` training points."""
    return max(1, _BLOCK_BYTES // (2 * 8 * n))


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


@dataclass
class ExtendedCertificateReport:
    """Certificate diagnostics for the bordered (N+1)-point program."""

    trace_identity_residual: float
    slackness_trace: float
    min_eig: float
    max_eig: float
    slackness_residual: float
    would_certify: bool
    quadratic_form_samples: list


def extend_points(dk, embedding, X):
    """Embed M new points by the projected Nystrom formula.

    Parameters
    ----------
    dk : DiffusionKernel
    embedding : EmbeddingResult
        A certified embedding of the training set.
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
    ``_BLOCK_BYTES``).  Per block, one product ``kx @ [Xi / sqrt(d), 1]``
    gives both ``A = kx @ (Xi / sqrt(d))`` and the extended degrees ``dbar``,
    from which the Nystrom sums follow as
    ``g = A / sqrt(dbar) - sqrt(dbar) (sqrt(d) @ Xi) / vol``; the kernel rows
    ``kvec`` of :func:`kernels.extension_row` are never formed.
    """
    base = dk.base
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
    Xi = embedding.Xi
    rank = Xi.shape[1]
    root_d = np.sqrt(base.degrees)
    weights = np.hstack([Xi / root_d[:, None], np.ones((n, 1))])
    center = (root_d @ Xi) / volume
    inv_d = 1.0 / base.degrees
    m = X.shape[0]
    coords = np.zeros((m, rank))
    kappa = np.empty(m)
    degenerate = np.zeros(m, dtype=bool)
    rows = _block_rows(n)
    kx_buf = np.empty((min(rows, m), n))
    diff_buf = np.empty_like(kx_buf)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        kx, diff = kx_buf[: stop - start], diff_buf[: stop - start]
        # squared distances from coordinate differences: the expanded
        # |x|^2 + |y|^2 - 2 x.y form cancels for points far from the origin
        kx.fill(0.0)
        for j in range(dim):
            np.subtract.outer(X[start:stop, j], points[:, j], out=diff)
            np.square(diff, out=diff)
            kx += diff
        kx /= -base.sigma**2
        np.exp(kx, out=kx)
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


def extend_point(dk, embedding, xbar):
    """Embed one new point: the one-row case of :func:`extend_points`,
    returning scalar ``kappa`` and ``degenerate`` and ``coords`` of shape
    (rank,)."""
    batch = extend_points(dk, embedding, np.asarray(xbar, dtype=float).reshape(1, -1))
    return ExtendedPoint(
        coords=batch.coords[0], kappa=float(batch.kappa[0]), degenerate=bool(batch.degenerate[0])
    )


def extend_kernel(dk, embedding, x, y):
    """Extended kernel value ``sum_l chi_l(x) chi_l(y)`` at two points.

    Restricted to training points this reproduces rho*; on the diagonal of a
    non-degenerate point it returns kappa.  If either extension is degenerate
    the product has no defined direction and 0.0 is returned.
    """
    pair = extend_points(dk, embedding, np.asarray([x, y], dtype=float).reshape(2, -1))
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


def bordered_certificate(K, rho, kvec, kappa, b, s, n_samples=8, seed=0):
    """Certificate diagnostics for a bordered kernel/candidate pair.

    Builds Kbar = [[K, kvec], [kvec^T, kappa]], rho_bar = [[rho, b], [b^T, s]]
    and the bordered dual candidate
    Lbar = ddiag(Kbar)^{-1} ddiag(Kbar rho_bar) - Kbar, and reports its
    spectrum, the slackness trace Tr(rho_bar Lbar), the slackness residual,
    and sampled quadratic forms v^T Lbar v at the corner values
    v_s = sqrt(kappa) kvec^T v / sqrt(kvec^T rho kvec).  No sign is asserted
    for the sampled forms; they are diagnostic output.

    ``trace_identity_residual`` is NaN here; it only applies when b comes
    from the canonical extension formula and is filled in by
    :func:`extended_sdp_certificate`.
    """
    Kbar = bordered_matrix(np.asarray(getattr(K, "K", K), dtype=float), kvec, kappa)
    rho_bar = bordered_matrix(rho, b, s)
    Lbar = certificate_matrix(Kbar, rho_bar)
    eigs = np.linalg.eigvalsh(Lbar)
    slack_trace = float(np.sum(rho_bar * Lbar))
    slack_residual = float(
        np.linalg.norm(Lbar @ rho_bar) / max(np.linalg.norm(rho_bar), 1e-300)
    )
    quad = float(kvec @ rho @ kvec)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_samples):
        v = rng.standard_normal(rho.shape[0])
        v_bar = np.append(v, np.sqrt(kappa) * float(kvec @ v) / np.sqrt(quad))
        samples.append(float(v_bar @ Lbar @ v_bar))
    scale = max(1.0, float(eigs[-1]))
    would_certify = slack_residual <= 1e-8 and eigs[0] >= -1e-8 * scale
    return ExtendedCertificateReport(
        trace_identity_residual=float("nan"),
        slackness_trace=slack_trace,
        min_eig=float(eigs[0]),
        max_eig=float(eigs[-1]),
        slackness_residual=slack_residual,
        would_certify=bool(would_certify),
        quadratic_form_samples=samples,
    )


def extended_sdp_certificate(dk, embedding, xbar):
    """Diagnose whether one projected-Nystrom extension solves the bordered SDP.

    Verifies the trace identity
    Tr(rho_bar Kbar) = Tr(rho* K) + 2 sqrt(kappa) sqrt(kvec^T rho* kvec) + kappa^2
    and the slackness trace Tr(rho_bar Lbar) = 0, then reports the spectrum
    of the bordered certificate.  The extension is feasible for the bordered
    program but generally not its optimum, so ``would_certify`` is usually
    False; that is expected output, not an error.

    Raises
    ------
    ValueError
        For degenerate extensions (no direction to border with) or a zero
        extended diagonal (the bordered dual candidate needs kappa > 0).
    """
    point = extend_point(dk, embedding, xbar)
    if point.degenerate:
        raise ValueError("extension is degenerate at this point; no certificate to check")
    if point.kappa <= 0:
        raise ValueError("extended diagonal vanishes; bordered certificate undefined")
    row = kernels.extension_row(dk, xbar)
    K = dk.K
    rho = embedding.Xi @ embedding.Xi.T
    b = embedding.Xi @ point.coords
    report = bordered_certificate(K, rho, row.kvec, row.kappa, b, point.kappa)
    quad = float(row.kvec @ rho @ row.kvec)
    expected = float(np.sum(K * rho)) + 2.0 * np.sqrt(row.kappa) * np.sqrt(quad) + row.kappa**2
    actual = float(
        np.sum(bordered_matrix(K, row.kvec, row.kappa) * bordered_matrix(rho, b, point.kappa))
    )
    report.trace_identity_residual = abs(actual - expected) / max(1.0, abs(expected))
    return report
