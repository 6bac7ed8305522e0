"""Output checks that do not trust the library.

Everything here is plain numpy and imports nothing from ``sdpembed``: the
centered kernel is rebuilt from the points with a different formula (direct
differences instead of the expanded quadratic form), and the dual
certificate L(rho) = ddiag(K)^{-1} ddiag(K rho) - K is recomputed from the
factor.  Tolerances are relative to lambda_max(K), so the verdict does not
depend on the scale of K, which falls like 1/sigma^2.
"""

import numpy as np

# row feasibility: | ||H_i||^2 - K_ii | <= FEAS_RTOL * lambda_max(K)
FEAS_RTOL = 1e-9
# complementary slackness: ||L H||_F / ||H||_F <= SLACK_RTOL * lambda_max(K)
SLACK_RTOL = 1e-8
# dual feasibility: lambda_min(L) >= -EIG_RTOL * lambda_max(K)
EIG_RTOL = 1e-8
# an out-of-sample point must satisfy ||coords||^2 = kappa to this relative error
NORM_RTOL = 1e-12
# a copied training point must land on its stored coordinates to this
# tolerance, relative to its radius sqrt(K_ii)
COPY_RTOL = 1e-9


def centered_kernel(points, sigma):
    """K(x, y) = k(x, y)/sqrt(d(x) d(y)) - sqrt(d(x) d(y))/vol for the
    Gaussian k(x, y) = exp(-||x - y||^2 / sigma^2)."""
    points = np.asarray(points, dtype=float)
    sq = np.zeros((points.shape[0], points.shape[0]))
    for col in points.T:
        sq += (col[:, None] - col[None, :]) ** 2
    k = np.exp(-sq / sigma**2)
    root_d = np.sqrt(k.sum(axis=1))
    outer = np.outer(root_d, root_d)
    K = k / outer - outer / root_d.dot(root_d)
    return (K + K.T) / 2.0


def certify(K, H_Xi):
    """Recompute the certificate of ``rho = H_Xi H_Xi^T`` for kernel ``K``.

    Returns a dict with the objective Tr(K rho), the scale lambda_max(K),
    the three residuals divided by that scale, the weak-duality upper bound
    ``Tr(K rho) + max(0, -lambda_min(L)) Tr(K)`` on the optimum, and the
    verdict.
    """
    diag = np.diag(K)
    KH = K @ H_Xi
    k_rho_diag = np.einsum("ij,ij->i", KH, H_Xi)
    L = -K
    L[np.diag_indices_from(L)] += k_rho_diag / diag
    scale = float(np.linalg.eigvalsh(K)[-1])
    least = float(np.linalg.eigvalsh(L)[0])
    objective = float(k_rho_diag.sum())
    feasibility = float(np.max(np.abs(np.einsum("ij,ij->i", H_Xi, H_Xi) - diag))) / scale
    slackness = float(np.linalg.norm(L @ H_Xi) / np.linalg.norm(H_Xi)) / scale
    return {
        "objective": objective,
        "scale": scale,
        "feasibility": feasibility,
        "slackness": slackness,
        "least_eigenvalue": least / scale,
        "dual_bound": objective + max(0.0, -least) * float(diag.sum()),
        "feasible": feasibility <= FEAS_RTOL,
        "certified": bool(
            feasibility <= FEAS_RTOL and slackness <= SLACK_RTOL and least >= -EIG_RTOL * scale
        ),
    }


def extension_errors(rows, stored, copies, radius):
    """Problems in the rows of an ``extended.csv`` written by ``sdpembed extend``.

    ``rows`` are parsed lines ``(coords, kappa, degenerate)``.  Every
    non-degenerate row must satisfy ||coords||^2 = kappa.  When ``stored`` is
    given (a certified embedding), the rows listed in ``copies`` are copies of
    training points ``copies[row]`` and must reproduce ``stored`` rows.
    """
    errors = []
    for i, (coords, kappa, degenerate) in enumerate(rows):
        if degenerate:
            continue
        if abs(coords @ coords - kappa) > NORM_RTOL * kappa:
            errors.append(f"row {i}: ||coords||^2 = {coords @ coords!r}, kappa = {kappa!r}")
    if stored is not None:
        for row, j in copies.items():
            coords, _, degenerate = rows[row]
            miss = float(np.max(np.abs(coords - stored[j]))) if not degenerate else np.inf
            if miss > COPY_RTOL * radius[j]:
                errors.append(f"row {row}: copy of training point {j} is off by {miss:.3e}")
    return errors
