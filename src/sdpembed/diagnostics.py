"""Research checks of the paper's claims, off the training and serving path.

Nothing in the pipeline, the command line or the package namespace imports
this module; tests and demos import it as ``sdpembed.diagnostics``.  It holds
the dense reference for the certificate matrix, the nuclear-norm equivalence,
the bordered-matrix trichotomy and the certificate of a bordered (N+1)-point
program, the kernel row of one new point and the extended kernel at two
points, the degree/volume inequalities, the mean-value identity, and the
diffusion-maps transition matrix and diffusion distance.  Every function that
takes a kernel takes the one ``kernels.DiffusionKernel`` of the training set.
"""

from dataclasses import dataclass

import numpy as np

from .certificate import check_optimality
from .diffmaps import _gram
from .extension import _extended_diagonal, _new_points, extend_points
from .kernels import _degrees, _map_blocks
from .solver import objective

__all__ = [
    "block_extension_analysis",
    "bordered_matrix",
    "certificate_matrix",
    "check_volume_inequalities",
    "diffusion_distance",
    "extend_kernel",
    "extended_sdp_certificate",
    "extension_row",
    "mean_value_check",
    "nuclear_equivalence_check",
    "transition_matrix",
]


@dataclass
class NuclearEquivalenceReport:
    """Agreement between the kernel SDP solution and the nuclear-norm form."""

    diag_residual: float
    rank_X: int
    rank_rho: int
    nuclear_trace_gap: float
    ok: bool


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


def certificate_matrix(K, rho):
    """Candidate dual matrix ``L(rho) = ddiag(K)^{-1} ddiag(K rho) - K``."""
    K = np.asarray(K, dtype=float)
    diag = np.diag(K)
    if np.any(diag <= 0):
        raise ValueError("kernel diagonal must be strictly positive")
    return np.diag(np.einsum("ij,ji->i", K, rho) / diag) - K


def nuclear_equivalence_check(K, rho_star, rank_rtol=1e-8):
    """Cross-check the solution against the equivalent nuclear-norm program.

    With Sigma the symmetric square root of I - K (which requires
    lambda_max(K) < 1), the matrix X* = Sigma^T rho* Sigma solves a
    nuclear-norm minimization with the same rank.  This verifies that
    (i) mapping X* back reproduces the fixed diagonal, (ii) the congruence
    preserved the rank, and (iii) the nuclear norm of the p.s.d. X* equals
    its trace.
    """
    K = np.asarray(K, dtype=float)
    w, V = np.linalg.eigh(np.eye(K.shape[0]) - K)
    if w[0] <= 0:
        raise ValueError("kernel must have top eigenvalue strictly below 1")
    sigma = (V * np.sqrt(w)) @ V.T
    sigma_inv = (V / np.sqrt(w)) @ V.T
    X = sigma.T @ rho_star @ sigma
    back = sigma_inv.T @ X @ sigma_inv
    diag_residual = float(np.max(np.abs(np.diag(back) - np.diag(K))))

    sv_X = np.linalg.svd(X, compute_uv=False)
    sv_rho = np.linalg.svd(rho_star, compute_uv=False)
    rank_X = int(np.sum(sv_X > rank_rtol * sv_X[0]))
    rank_rho = int(np.sum(sv_rho > rank_rtol * sv_rho[0]))
    nuclear_trace_gap = float(abs(np.sum(sv_X) - np.trace(X)))
    ok = (
        diag_residual <= 1e-8
        and rank_X == rank_rho
        and nuclear_trace_gap <= 1e-10 * max(1.0, abs(float(np.trace(X))))
    )
    return NuclearEquivalenceReport(
        diag_residual=diag_residual,
        rank_X=rank_X,
        rank_rho=rank_rho,
        nuclear_trace_gap=nuclear_trace_gap,
        ok=ok,
    )


def extension_row(kernel, xbar):
    """Extend the centered kernel to one new point.

    Parameters
    ----------
    kernel : DiffusionKernel
    xbar : array of shape (d,)
        The new point.

    Returns
    -------
    ExtensionRow
        ``kvec[i] = k(xbar, x_i)/sqrt(dbar d_i) - sqrt(dbar d_i)/vol``,
        ``kappa = 1/dbar - dbar/vol`` (Gaussian kernels have k(x, x) = 1),
        and the extended degree ``dbar = sum_i k(xbar, x_i)``.

    The point is checked and ``kappa`` clamped by the rules of
    :func:`sdpembed.extension.extend_points`: a point of the wrong dimension,
    with non-finite coordinates or whose Gaussian weights all underflow
    raises ``ValueError``, and a ``kappa`` below rounding raises
    ``RuntimeError``.  Anything but one point of shape (d,), such as a
    batch (which ``extend_points`` takes), raises ``ValueError`` too.
    """
    if np.ndim(xbar) != 1:
        raise ValueError(f"expected one point of shape (d,), got shape {np.shape(xbar)}")
    X = _new_points(kernel, np.reshape(xbar, (1, -1)))
    kx = np.empty((1, kernel.points.shape[0]))
    _map_blocks(X, kernel.points, kernel.sigma, lambda *block: None, target=kx)
    dbar = kx.sum(axis=1)
    kappa = _extended_diagonal(kernel, dbar)
    mixed = np.sqrt(dbar[0] * kernel.degrees)
    kvec = kx[0] / mixed - mixed / kernel.volume
    return ExtensionRow(kvec=kvec, kappa=float(kappa[0]), dbar=float(dbar[0]))


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


def extended_sdp_certificate(kernel, embedding, xbar):
    """Certify one projected-Nystrom extension as a solution of the bordered
    (N+1)-point program.

    The bordered kernel is Kbar = [[K, kvec], [kvec^T, kappa]] and the
    bordered factor stacks the extended coordinates under ``embedding.Xi``,
    so rho_bar = [[rho*, b], [b^T, kappa]] with b = Xi coords.  ``kernel``
    must hold ``K`` (:func:`sdpembed.kernels.build_kernel`).  The extension
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
    point = extend_points(kernel, embedding.Xi, [xbar])
    if point.degenerate[0]:
        raise ValueError("extension is degenerate at this point; no certificate to check")
    if point.kappa[0] <= 0:
        raise ValueError("extended diagonal vanishes; bordered certificate undefined")
    row = extension_row(kernel, xbar)
    Xi = embedding.Xi
    report = check_optimality(
        bordered_matrix(kernel.K, row.kvec, row.kappa), np.vstack([Xi, point.coords])
    )
    expected = (
        objective(kernel.K, Xi)
        + 2.0 * np.sqrt(row.kappa) * np.linalg.norm(row.kvec @ Xi)
        + row.kappa**2
    )
    return report, abs(report.objective - expected) / expected


def check_volume_inequalities(kernel, probes=()):
    """Check ``d(x)^2 <= k(x, x) * vol`` on the training set and at probes.

    The slack is reported relative to ``k(x, x) * vol``, where the Gaussian
    ``k(x, x)`` is exactly 1; a value below ``-1e-12`` marks the report as
    failed (the inequality is a theorem, so a failure means the kernel was
    built incorrectly).  Probes of the wrong dimension or with non-finite
    coordinates raise ``ValueError``, as new points do in
    :func:`sdpembed.extension.extend_points`.
    """
    points = kernel.points
    probes = _new_points(kernel, probes) if np.size(probes) else np.empty((0, points.shape[1]))
    degrees = np.concatenate([kernel.degrees, _degrees(probes, points, kernel.sigma)])
    slacks = (kernel.volume - degrees**2) / kernel.volume
    worst = float(slacks.min())
    return VolumeCheckReport(worst_slack=worst, n_checked=slacks.size, ok=worst >= -1e-12)


def mean_value_check(K, embedding):
    """Verify the mean-value identity on a certified embedding.

    Each coordinate must reproduce itself as a weighted kernel average:
    chi_l(i) = [K(i,i) / (K rho*)(i,i)] * sum_j K(i,j) chi_l(j).  Returns the
    largest absolute residual over points and coordinates; on certified
    solutions it sits at rounding level, while generic feasible-but-suboptimal
    factors violate it badly.

    Raises
    ------
    RuntimeError
        If some (K rho*)(i, i) is not strictly positive, which contradicts
        certification and indicates the input was not a certified solution.
    """
    K = np.asarray(K, dtype=float)
    Xi = embedding.Xi
    KXi = K @ Xi
    k_rho_diag = np.einsum("ij,ij->i", KXi, Xi)
    if np.any(k_rho_diag <= 0):
        bad = int(np.argmin(k_rho_diag))
        raise RuntimeError(
            f"(K rho)(i, i) = {k_rho_diag[bad]:.3e} at point {bad}; "
            "mean-value factors are positive on certified solutions"
        )
    factors = np.diag(K) / k_rho_diag
    return float(np.abs(Xi - factors[:, None] * KXi).max())


def extend_kernel(kernel, Xi, x, y):
    """Extended kernel value ``sum_l chi_l(x) chi_l(y)`` at two points.

    Restricted to training points this reproduces rho*; on the diagonal of a
    non-degenerate point it returns kappa.  If either extension is degenerate
    the product has no defined direction and 0.0 is returned.
    """
    pair = extend_points(kernel, Xi, np.asarray([x, y], dtype=float).reshape(2, -1))
    if pair.degenerate.any():
        return 0.0
    return float(pair.coords[0] @ pair.coords[1])


def transition_matrix(kernel):
    """Row-stochastic transition matrix ``p(x, y) = k(x, y) / d(x)`` of the
    diffusion-maps random walk, the dense reference for
    :func:`sdpembed.diffmaps.spectral_basis`."""
    p = _gram(kernel)
    p /= kernel.degrees[:, None]
    return p


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
