"""Dual certificate of global optimality for the fixed-diagonal kernel SDP.

A feasible rho (p.s.d. with diag(rho) = diag(K)) is a global maximizer of
Tr(rho K) if and only if the Laplacian-like matrix

    L(rho) = ddiag(K)^{-1} ddiag(K rho) - K

satisfies L(rho) rho = 0 and L(rho) >= 0.  L + K is diagonal by construction,
with entries D(i, i) = (K rho)(i, i) / K(i, i); on certified solutions
D(i, i) >= K(i, i), which is what makes the mean-value factor of the
out-of-sample formula positive.

Weak duality bounds the distance to the optimum: for every feasible rho',
Tr(K rho') = Tr(K rho) - Tr(L rho') <= Tr(K rho) - lambda_min(L) Tr(K), so
max(0, -lambda_min(L)) Tr(K) bounds Tr(K rho*) - Tr(K rho) from above.  It is
reported as the duality gap, and it vanishes exactly when L >= 0.

``check_optimality`` decides for a given ``K``: L's least eigenvalues come
from a dense solve below 1500 points and from block Lanczos from there on.
``certify_points``, the certificate of ``sdpembed certify``, needs no ``K``
where a low-rank factor of the Gaussian gram decides: from 1500 points on,
it tests L~ = diag(D) - K~ with ||K - K~||_2 <= delta, and since
lambda_min(L) >= lambda_min(L~) - delta, the eigenvalue test and the duality
gap take that lower bound.  K~ = A^T J A has rank r + 1, so the number of
L~'s eigenvalues below a shift is the inertia of one (r+1) x (r+1) matrix
(``_count_below``); block Lanczos on L~ runs only where that count does not
prove the eigenvalue test, and ``check_optimality`` decides wherever the
factor needs too many pivots or delta could change the verdict.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import _one_blas_thread, _times

# how many of the smallest eigenvalues of L the report exposes
_N_LEAST = 6

# tolerance on the row norms, on the slackness and on -lambda_min(L),
# relative to max_i K_ii, the scale of the solver's stopping rule
_RTOL = 1e-8

# from this many points on, the least eigenpairs of L come from block Lanczos,
# below it from a dense solve.  At one BLAS thread on the clusters at sigma
# 0.3 to 20, Lanczos took 0.03-0.19 s against a dense 0.28-0.30 s at N = 1499
# and 0.03-0.11 s against 0.15 s at N = 1199, but lost at N = 599; at sigma =
# 50 it took 96-136 steps and lost at every N below 1500
_DENSE_BELOW = 1500

# Lanczos stops once each of the _N_LEAST least Ritz values is within this
# much of max_i K_ii (100x below _RTOL) of an eigenvalue of L, by the bound
# min(r, r^2 / gap) on its error (see _ritz_converged)
_LANCZOS_RTOL = 1e-10

# the Lanczos basis is stacked in arrays of this many blocks of _N_LEAST
# vectors, one more array whenever the last is full: a new block is
# orthogonalized against each array with two products per pass.  The ten 2k
# training sets at sigma = 5 take 13-18 steps, so one or two arrays; an array
# sized for the largest basis, (N / 6 - 1) blocks, would be as large as K
_LANCZOS_CHUNK = 16

# from _DENSE_BELOW points on, certify_points pivots its factor of the
# Gaussian gram until the residual trace over min_i d_i, which bounds
# ||K - K~||_2 up to rounding, is at most this much of max_i K_ii, 10x below
# _LANCZOS_RTOL.  An absolute 1e-14 N on the trace left L~'s eigenvalues
# 1.4e-10 max_i K_ii from L's on the clusters at N = 3998, sigma = 50, whose
# max_i K_ii = 7e-6 comes from cancellation; this takes 78-82 pivots on the
# ten 2k training sets at sigma = 5 and 23-34 at sigma = 20 and 50
_FACTOR_RTOL = 1e-11


class PrimalInfeasibilityError(ValueError):
    """The candidate factor does not satisfy the diagonal constraints."""


@dataclass
class CertificateReport:
    """Outcome of the optimality check; eigenvalues ascending.  The
    tolerances ``tol_slack`` and ``tol_eig`` are relative to ``scale``,
    max_i K_ii.  ``least_eigenvalues`` are those of an ``L~`` with
    ||L - L~||_2 <= ``kernel_error_bound`` (0 where they are L's own), so
    the eigenvalue test takes lambda_min(L~) minus that bound, and so does
    ``duality_gap``, the weak-duality bound max(0, -lambda_min(L)) Tr(K) on
    Tr(K rho*) - ``objective``.  Where they are L's own they are its six
    least; where the bound is positive (the factored report of
    :func:`certify_points`) they are those at or below ``tol_eig * scale``,
    at most six and at least one, since Tr(L rho) = 0 puts lambda_min(L~)
    at or below the bound: on a certified model their number is the
    dimension of L's null space."""

    slackness_residual: float
    least_eigenvalues: np.ndarray
    duality_gap: float
    D_diagonal: np.ndarray
    is_certified: bool
    tol_slack: float
    tol_eig: float
    objective: float
    mean_value_slack: float
    scale: float
    kernel_error_bound: float


def _slackness(KH, H_Xi, diag):
    """``(K rho)_ii`` and the complementary-slackness residual
    ``||L H_Xi||_F / ||H_Xi||_F`` of rho = H_Xi H_Xi^T, from ``KH = K @ H_Xi``
    and ``diag = diag(K)``: row i of L H_Xi is D_i (H_Xi)_i - (K H_Xi)_i with
    D_i = (K rho)_ii / K_ii."""
    k_rho = np.einsum("ij,ij->i", KH, H_Xi)
    residual = np.linalg.norm((k_rho / diag)[:, None] * H_Xi - KH) / np.linalg.norm(H_Xi)
    return k_rho, float(residual)


def _ritz_converged(theta, r, tol):
    """Whether each of the ``_N_LEAST`` least of the ascending Ritz values
    ``theta`` is within ``tol`` of an eigenvalue, given the residual norms
    ``r`` of the first 2 ``_N_LEAST``.  A Ritz value's error is at most
    min(r, r^2 / delta) (Kato-Temple; Parlett, The Symmetric Eigenvalue
    Problem, 1998, ch. 11), delta its distance to the rest of the spectrum,
    for which the distance to the other Ritz values stands in, each widened
    by its own residual.  With no value beyond the first ``_N_LEAST``, where
    delta is unknown, only r <= tol counts."""
    b = _N_LEAST
    gap = np.abs(theta[: 2 * b, None] - theta[:b]) - r[:, None]
    np.fill_diagonal(gap, np.inf)
    delta = gap.min(axis=0) if len(theta) > b else 0.0
    return bool(np.all((r[:b] <= tol) | (r[:b] ** 2 <= tol * delta)))


def _lanczos_least(times, D, tol):
    """The ``_N_LEAST`` least eigenpairs of ``L = diag(D) - K``, where
    ``times(Q)`` gives ``Q @ K`` for a (``_N_LEAST``, N) ``Q``, by block
    Lanczos with full reorthogonalization: Ritz values ascending and unit
    Ritz vectors as columns, once ``_ritz_converged`` places every Ritz
    value within ``tol`` of an eigenvalue, or None if the basis fills R^N
    first.  They are checked on every step up to the 16th, then on every
    (step // 8)-th, so the Rayleigh-Ritz eighs cost a few times the last.
    A vector's residual ||L v - theta v|| is at most ``tol`` where its value
    crowds others, such as the zero of a certified L; an isolated value's
    may reach about sqrt(tol gap).

    The block of ``_N_LEAST`` vectors (rows of ``Q``) takes one product per
    step and resolves a least eigenvalue repeated up to ``_N_LEAST`` times,
    such as the zero of a certified L, whose multiplicity is the rank.  The
    basis is stacked in arrays of ``_LANCZOS_CHUNK`` blocks, and each new
    block is orthogonalized against it by two passes of block Gram-Schmidt,
    two products per array and pass; the tridiagonal T is written in place.
    The next block comes from a thin QR of the residual block, ``W^T = Q_W
    R``, and an SVD of the small ``R``.  A residual direction whose singular
    value is below ``tol`` spans an invariant subspace (a breakdown): it is
    replaced by a random vector orthogonal to the basis, with zero coupling.
    """
    n, b = len(D), _N_LEAST
    steps, rows = n // b - 1, _LANCZOS_CHUNK * b
    rng = np.random.default_rng(0)
    Q = np.linalg.qr(rng.standard_normal((n, b)))[0].T
    chunks, T = [], np.zeros((0, 0))

    def orthogonalize(W, basis):
        for _ in range(2):
            for V in basis:
                W -= (W @ V.T) @ V

    for k in range(1, steps + 1):
        j = (k - 1) * b
        at = j % rows
        if at == 0:
            chunks.append(np.empty((min(rows, steps * b - j), n)))
            grown = np.zeros((j + len(chunks[-1]),) * 2)
            grown[:j, :j] = T
            T = grown
        chunks[-1][at : at + b] = Q
        basis = [*chunks[:-1], chunks[-1][: at + b]]
        Q = basis[-1][at:]
        W = times(Q)
        np.subtract(Q * D, W, out=W)  # rows of L Q^T, since K is symmetric
        A = W @ Q.T
        orthogonalize(W, basis)
        T[j : j + b, j : j + b] = (A + A.T) / 2
        if k > 1:
            T[j : j + b, j - b : j] = B
            T[j - b : j, j : j + b] = B.T
        Q_W, R = np.linalg.qr(W.T)
        U, s, Vt = np.linalg.svd(R)
        Q = U.T @ Q_W.T
        B = s[:, None] * Vt  # W = B^T Q
        dead = s <= tol
        if dead.any():
            B[dead] = 0.0
            fresh = rng.standard_normal((dead.sum(), n))
            orthogonalize(fresh, [*basis, Q[~dead]])
            Q[dead] = np.linalg.qr(fresh.T)[0].T
        if k % max(1, k // 8) == 0:
            theta, S = np.linalg.eigh(T[: j + b, : j + b])
            if _ritz_converged(theta, np.linalg.norm(B @ S[j:, : 2 * b], axis=0), tol):
                vectors = (V.T @ S[i * rows : i * rows + len(V), :b] for i, V in enumerate(basis))
                return theta[:b], sum(vectors)
    return None


def _least_eigenpairs(K, D, scale, vectors=False):
    """The ``_N_LEAST`` least eigenvalues of ``L = diag(D) - K``, ascending,
    and their unit eigenvectors as columns: by block Lanczos from
    ``_DENSE_BELOW`` points on, else (or if its basis fills R^N) by a dense
    solve, which returns the vectors only when asked for (else None)."""
    if K.shape[0] >= _DENSE_BELOW:
        pairs = _lanczos_least(lambda Q: Q @ K, D, _LANCZOS_RTOL * scale)
        if pairs is not None:
            return pairs
    L = np.negative(K)
    L[np.diag_indices_from(L)] += D
    if not vectors:
        return np.linalg.eigvalsh(L)[:_N_LEAST], None
    w, V = np.linalg.eigh(L)
    return w[:_N_LEAST], V[:, :_N_LEAST]


def _at_or_below(values, limit):
    """The ascending ``values`` at or below ``limit``: at most ``_N_LEAST``
    of them, and at least the first."""
    return values[: max(1, min(_N_LEAST, int(np.count_nonzero(values <= limit))))]


def _count_below(A, D, t):
    """The number of eigenvalues below ``t`` of ``L~ = diag(D) - A^T J A``,
    ``J = diag(1, ..., 1, -1)``, from the inertia of the (r+1) x (r+1)
    matrix ``S = J - A E^{-1} A^T`` with ``E = diag(D - t)``; with it the
    eigenvalues ``mu`` of S ascending, their unit vectors as columns, ``A
    E^{-1}`` and a bound on the rounding error of each ``mu``.  No ``D_i``
    may equal ``t``.

    ``L~ - t I`` and ``J`` are the Schur complements of ``E`` and of ``J`` in
    the bordered matrix [[E, A^T], [A, J]], and ``S`` and ``E`` those of the
    other blocks, so Haynsworth's inertia additivity (Linear Algebra Appl.
    1, 1968) gives ``1 + #{lambda(L~) < t} = #{D_i < t} + #{mu < 0}``.

    The bound, a priori in the manner of Rump (BIT 46, 2006).  Entry (i, j)
    of the computed ``A E^{-1} A^T`` is a sum of N terms of three roundings
    each, so its error is at most ``gamma_{N+3} sum_k |A_ik A_jk| / |E_k|``
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3),
    and the 2-norm of that nonnegative matrix is at most its trace; adding
    ``J`` rounds once more.  The eigensolver's eigenvalues are those of a
    matrix within ``p(k) u ||S||_2`` of the computed ``S`` (LAPACK Users'
    Guide, 3rd ed., sec. 4.7), with ``p(k)`` taken as the order k = r + 1.
    By Weyl, each computed ``mu`` is within

        gamma_{N+4} (1 + sum_k ||A_{:k}||^2 / |E_k|) + gamma_k ||S||_F

    of the exact eigenvalue of the exact ``S``.
    """
    k, n = A.shape
    e = D - t
    B = A / e
    S = -(B @ A.T)
    S[np.diag_indices(k)] += np.r_[np.ones(k - 1), -1.0]
    mu, U = np.linalg.eigh(S)
    col_sq = np.einsum("ij,ij->j", A, A)
    bound = kernels._gamma(n + 4) * (1.0 + float(col_sq @ (1.0 / np.abs(e))))
    bound += kernels._gamma(k) * float(np.linalg.norm(S))
    count = int(np.count_nonzero(e < 0)) + int(np.count_nonzero(mu < 0)) - 1
    return count, mu, U, B, bound


def _counted_least(A, D, delta, scale):
    """The eigenvalues of ``L~ = diag(D) - A^T J A`` at or below ``tol_eig
    scale`` (:func:`_at_or_below`) where one count proves that none lies
    below ``t = delta - tol_eig scale``, so that ``lambda_min(L) >= -tol_eig
    scale``; else None.

    The count is taken at ``t`` only where every ``D_i`` lies above it.
    Then ``S <= J`` has ``mu_1 <= -1``, so the count is 0 exactly where
    ``mu_2 > 0``, and it decides only where ``mu_2`` clears the rounding
    bound of :func:`_count_below`.  An eigenvalue ``lambda`` of ``L~`` above
    ``t`` is where an eigenvalue of ``S`` crosses zero, with slope ``-||E^{-1}
    A^T u||^2`` at ``t`` (the secular equation; Golub, SIAM Review 15,
    1973), so one Newton step gives ``lambda ~ t + mu / ||E^{-1} A^T u||^2
    >= t`` from each ``mu > 0``.  It is taken from those ``mu`` that could
    reach zero by ``tol_eig scale`` at the first-order rate ``||A
    E^{-1}||_F^2``, and always from ``mu_2``.
    """
    t = delta - _RTOL * scale
    if D.min() <= t:
        return None
    count, mu, U, B, bound = _count_below(A, D, t)
    if count != 0 or mu[1] <= bound:
        return None
    near = (mu > 0) & (mu <= (_RTOL * scale - t) * float(np.vdot(B, B)))
    near[1] = True
    V = B.T @ U[:, near]
    return _at_or_below(np.sort(t + mu[near] / np.einsum("ij,ij->j", V, V)), _RTOL * scale)


def _checked_factor(H, n):
    """The factor or coordinates ``H`` as a float array, after checking that
    its shape is (n, r) with r >= 1 and its entries are finite (else
    ``ValueError``, naming the first row with a non-finite entry)."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != n or H.shape[1] < 1:
        raise ValueError(f"factor has shape {H.shape}, expected ({n}, r) with r >= 1")
    bad = np.flatnonzero(~np.isfinite(H).all(axis=1))
    if bad.size:
        raise ValueError(f"factor row {bad[0]} has non-finite entries")
    return H


@_one_blas_thread()
def check_optimality(K, H_Xi):
    """Decide global optimality of ``rho = H_Xi H_Xi^T`` for the (N, N)
    kernel ``K``; row i of the (N, r) factor ``H_Xi`` must have squared norm
    K_ii, to 1e-8 max_i K_ii, or ``PrimalInfeasibilityError`` is raised.

    The ``CertificateReport`` certifies when the complementary-slackness
    residual ||L H_Xi||_F / ||H_Xi||_F is at most 1e-8 max_i K_ii and the
    least eigenvalue of L at least -1e-8 max_i K_ii; failing is a report,
    not an exception.  The six least eigenvalues come from a dense
    ``eigvalsh`` below N = 1500 and from block Lanczos on v -> D v - K v,
    which forms no N x N array, above (each to 1e-10 max_i K_ii by the
    Ritz error bound min(r, r^2 / gap)); ``kernel_error_bound`` is 0.  A
    factor of any other shape than (N, r) with r >= 1, or with a non-finite
    entry, raises ``ValueError``.
    """
    K = np.asarray(K, dtype=float)
    H_Xi = _checked_factor(H_Xi, K.shape[0])
    diag = np.diag(K)
    scale = _checked_feasible(H_Xi, diag)
    k_rho, slackness = _slackness(_times(K, H_Xi), H_Xi, diag)
    return _report(slackness, _least_eigenpairs(K, k_rho / diag, scale)[0], 0.0, k_rho, diag)


def _checked_feasible(H_Xi, diag):
    """``max_i K_ii``, after checking that row i of ``H_Xi`` has squared
    norm ``K_ii`` to ``_RTOL`` of it (else ``PrimalInfeasibilityError``)."""
    scale = float(diag.max())
    row_sq = np.einsum("ij,ij->i", H_Xi, H_Xi)
    violation = np.abs(row_sq - diag)
    worst = int(np.argmax(violation))
    if violation[worst] > _RTOL * scale:
        raise PrimalInfeasibilityError(
            f"row {worst} has squared norm {row_sq[worst]:.6e}, "
            f"constraint requires {diag[worst]:.6e}"
        )
    return scale


def _least_bound(eigenvalues, bound):
    """lambda_min(L~) - ``bound`` <= lambda_min(L), the value of the eigenvalue test."""
    return float(eigenvalues[0]) - bound


def _slackness_holds(residual, scale):
    """The verdict's slackness test; ``scale`` is max_i K_ii."""
    return residual <= _RTOL * scale


def _eigenvalue_holds(least, scale):
    """The verdict's eigenvalue test, on a lower bound on lambda_min(L)."""
    return least >= -_RTOL * scale


def _report(slackness, eigenvalues, bound, k_rho, diag):
    """The report from the slackness residual, the least eigenvalues of an
    ``L~`` within ``bound`` of L, ``(K rho)_ii`` and ``diag K``."""
    scale = float(diag.max())
    D = k_rho / diag
    least = _least_bound(eigenvalues, bound)
    return CertificateReport(
        slackness_residual=slackness,
        least_eigenvalues=eigenvalues.copy(),
        duality_gap=max(0.0, -least) * float(diag.sum()),
        D_diagonal=D,
        is_certified=bool(_slackness_holds(slackness, scale) and _eigenvalue_holds(least, scale)),
        tol_slack=_RTOL,
        tol_eig=_RTOL,
        objective=float(k_rho.sum()),
        mean_value_slack=float(np.min(D - diag)),
        scale=scale,
        kernel_error_bound=bound,
    )


@_one_blas_thread()
def certify_points(points, sigma, H_Xi):
    """:func:`check_optimality` of ``rho = H_Xi H_Xi^T`` for the centered
    kernel of ``points`` at bandwidth ``sigma``, without ``K`` where a
    low-rank factor of the Gaussian gram decides: the certificate of
    ``sdpembed certify``.

    Below ``_DENSE_BELOW`` points it builds ``K`` and calls
    :func:`check_optimality`.  From there on one weight pass
    (:func:`kernels._degrees_and_product`) gives the degrees of
    :func:`kernels.gaussian_gram`, bit for bit, and ``K @ H_Xi``; with
    ``diag K`` from the degrees, the feasibility, ``D``, the slackness and
    the objective are those of ``K``.  The eigenvalue test runs on ``L~ =
    diag(D) - A^T J A`` from a pivoted Cholesky factor of the gram with
    ``||K - K~||_2 <= delta`` (:func:`kernels._low_rank`), and since
    ``lambda_min(L) >= lambda_min(L~) - delta``, it and the duality gap take
    ``lambda_min(L~) - delta``; the report gives ``delta`` as
    ``kernel_error_bound``.  Its eigenvalues of ``L~`` come from one
    inertia count and Newton steps (:func:`_counted_least`) where the count
    proves the test, else from block Lanczos on ``L~`` at O(N r) a product.
    The factored route hands over to :func:`check_optimality` of ``K`` when
    the factor needs more than N / 20 pivots, when Lanczos places ``-tol_eig
    max_i K_ii`` within ``delta`` of ``lambda_min(L~)``, where ``delta``
    could change the verdict (so the factor never does), or if the Lanczos
    basis fills R^N.
    Raises as :func:`check_optimality` does.
    """
    points = kernels._checked_points(points, sigma)
    if len(points) >= _DENSE_BELOW:
        H_Xi = _checked_factor(H_Xi, len(points))
        degrees, KH = kernels._degrees_and_product(points, sigma, H_Xi)
        kernel = kernels._kernel(points, sigma, degrees)
        diag = kernels._diagonal(kernel)
        scale = _checked_feasible(H_Xi, diag)
        factored = kernels._low_rank(kernel, len(points) // 20, _FACTOR_RTOL * scale)
        if factored is not None:
            A, delta = factored
            k_rho, slackness = _slackness(KH, H_Xi, diag)
            D = k_rho / diag
            least = _counted_least(A, D, delta, scale)
            if least is None:
                J = np.r_[np.ones(len(A) - 1), -1.0]
                pairs = _lanczos_least(lambda Q: ((Q @ A.T) * J) @ A, D, _LANCZOS_RTOL * scale)
                if pairs is not None and not abs(pairs[0][0] + _RTOL * scale) <= delta:
                    least = _at_or_below(pairs[0], _RTOL * scale)
            if least is not None:
                return _report(slackness, least, delta, k_rho, diag)
    return check_optimality(kernels.build_kernel(points, sigma).K, H_Xi)
