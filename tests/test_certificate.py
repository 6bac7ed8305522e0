import functools

import numpy as np
import pytest

from sdpembed import (
    PrimalInfeasibilityError,
    SolverConfig,
    build_kernel,
    check_optimality,
    embed_points,
    gen_three_clusters,
    run_interval_experiment,
    solve,
)

from sdpembed import certificate, kernels
from sdpembed.certificate import (
    _FACTOR_RTOL,
    _LANCZOS_RTOL,
    _N_LEAST,
    _RTOL,
    _count_below,
    _lanczos_least,
    _ritz_converged,
    certify_points,
)
from sdpembed.diagnostics import certificate_matrix, nuclear_equivalence_check
from sdpembed.solver import _unit_rows, init_factor

from conftest import CLUSTER_SEED, C, tight_config, traced_peak


def _two_point_kernel():
    return build_kernel(np.array([[0.0], [1.0]]), 1.0).K


def test_certificate_matrix_two_point_closed_form():
    # rho* = c [[1,-1],[-1,1]] gives ddiag(K rho*) = 2c^2 I and L = c * ones
    K = _two_point_kernel()
    rho = C * np.array([[1.0, -1.0], [-1.0, 1.0]])
    L = certificate_matrix(K, rho)
    assert np.allclose(L, C * np.ones((2, 2)), atol=1e-15)


def test_certificate_matrix_zero_rho():
    K = _two_point_kernel()
    assert np.allclose(certificate_matrix(K, np.zeros((2, 2))), -K, atol=0)


def test_trivial_solution_properties():
    # for entrywise-nonnegative K, rho_K = sqrt(diag) outer sqrt(diag)
    # satisfies L(rho_K) rho_K = 0 and L(rho_K) >= 0
    rng = np.random.default_rng(0)
    for trial in range(5):
        A = rng.uniform(0.1, 1.0, (5, 5))
        K = A @ A.T
        root = np.sqrt(np.diag(K))
        rho_K = np.outer(root, root)
        L = certificate_matrix(K, rho_K)
        assert np.max(np.abs(L @ rho_K)) < 1e-10 * np.max(np.abs(rho_K))
        assert np.linalg.eigvalsh(L)[0] >= -1e-10 * max(1, np.linalg.eigvalsh(L)[-1])


def test_check_optimality_two_point(two_point):
    report = two_point.certificate
    assert report.is_certified
    assert report.slackness_residual < 1e-12
    assert np.allclose(report.least_eigenvalues, [0.0, 2 * C], atol=1e-10)
    assert abs(report.duality_gap) < 1e-10
    assert report.objective == pytest.approx(4 * C**2, abs=1e-12)
    # D_ii = (K rho)_ii / K_ii = 2c^2 / c = 2c, so D - diag(K) = c > 0
    assert report.mean_value_slack == pytest.approx(C, abs=1e-12)


def test_check_optimality_rejects_suboptimal_sign():
    # rho with rho_12 = +c is feasible but not optimal: K rho = 0 there,
    # so L = -K which is indefinite
    K = _two_point_kernel()
    H = np.sqrt(C) * np.ones((2, 1))
    report = check_optimality(K, H)
    assert not report.is_certified
    assert report.least_eigenvalues[0] < -1e-3
    assert report.mean_value_slack < 0


def test_check_optimality_trivial_fixture():
    K = np.array([[1.0, 0.5], [0.5, 1.0]])
    H = np.ones((2, 1))
    report = check_optimality(K, H)
    assert report.is_certified
    assert report.slackness_residual < 1e-12


def test_check_optimality_primal_infeasibility():
    K = _two_point_kernel()
    H = 1.5 * np.sqrt(C) * np.array([[1.0], [-1.0]])
    with pytest.raises(PrimalInfeasibilityError, match="squared norm"):
        check_optimality(K, H)
    # a factor of any shape but (N, r) with r >= 1 is refused before its rows
    # are read; a nested list of the right shape is taken as an array
    for H, shape in [(H[:1], r"\(1, 1\)"), (H[:, :0], r"\(2, 0\)"), (H[:, 0], r"\(2,\)")]:
        with pytest.raises(ValueError, match=rf"factor has shape {shape}, expected \(2, r\)"):
            check_optimality(K, H)
    H = np.sqrt(C) * np.array([[1.0], [-1.0]])
    # a non-finite entry would pass the row-norm check (nan > tol is false)
    # and stop the eigensolver; it is refused by row
    for value in (np.nan, np.inf):
        bad = H.copy()
        bad[1, 0] = value
        with pytest.raises(ValueError, match="factor row 1 has non-finite entries"):
            check_optimality(K, bad)
    assert check_optimality(K, H.tolist()).objective == check_optimality(K, H).objective


def _random_feasible_factor(K):
    return np.sqrt(np.diag(K))[:, None] * init_factor(K.shape[0], SolverConfig(seed=7))


@pytest.fixture(scope="module")
def large_sigma(clusters):
    """The clusters at sigma = 3e4, where max K_ii is 1.8e-10."""
    return embed_points(clusters.points, 3e4)


def test_check_optimality_tolerances_follow_the_kernel_scale(large_sigma):
    # absolute tolerances would certify a random feasible factor whose
    # objective is 200x below the optimum
    K = large_sigma.kernel.K
    report = check_optimality(K, _random_feasible_factor(K))
    assert not report.is_certified
    assert large_sigma.certificate.is_certified
    assert large_sigma.certificate.objective > 100 * report.objective


def test_check_optimality_feasibility_follows_the_kernel_scale(large_sigma):
    # rows scaled by 3 miss the diagonal by 8 K_ii, below an absolute 1e-8
    K = large_sigma.kernel.K
    H_Xi = large_sigma.factor.H_Xi
    assert check_optimality(K, H_Xi).is_certified
    with pytest.raises(PrimalInfeasibilityError, match="squared norm"):
        check_optimality(K, 3.0 * H_Xi)


def test_duality_gap_bounds_the_objective_deficit(cluster_pipeline):
    # weak duality: max(0, -lambda_min(L)) Tr(K) >= Tr(K rho*) - Tr(K rho)
    K = cluster_pipeline.kernel.K
    optimum = cluster_pipeline.certificate
    report = check_optimality(K, _random_feasible_factor(K))
    deficit = optimum.objective - report.objective
    assert deficit > 0.1
    assert report.duality_gap >= deficit
    assert report.duality_gap < 1.1 * deficit
    assert optimum.duality_gap <= 1e-12 * optimum.objective


def test_solve_and_certificate_form_at_most_one_square_array():
    # N = 2408, above the dense cutoff: the kernel build holds K and no
    # gram, solve() needs no N x N array beyond K, and the Lanczos
    # certificate none at all (its basis of about 150 vectors is 0.06
    # K.nbytes here)
    points = gen_three_clusters(800, 8, 3).points
    dk, build_peak = traced_peak(lambda: build_kernel(points, 5.0))
    K = dk.K
    state, solve_peak = traced_peak(solve, K, SolverConfig())
    report, certificate_peak = traced_peak(check_optimality, K, state.H_Xi)
    assert report.is_certified
    assert build_peak < 1.1 * K.nbytes
    assert solve_peak < 0.1 * K.nbytes
    assert certificate_peak < 0.1 * K.nbytes


def _lanczos_against_dense(K, H_Xi):
    """Least eigenvalues of L(H_Xi H_Xi^T) from the Lanczos helper and from
    the dense eigvalsh, with the helper's residual bound."""
    diag = np.diag(K)
    D = np.einsum("ij,ij->i", K @ H_Xi, H_Xi) / diag
    bound = _LANCZOS_RTOL * diag.max()
    dense = np.linalg.eigvalsh(np.diag(D) - K)[:6]
    pairs = _lanczos_least(lambda Q: Q @ K, D, bound)
    return None if pairs is None else pairs[0], dense, bound


def _assert_same_least_eigenvalues(lanczos, dense, bound, scale):
    assert lanczos is not None
    assert np.all(np.diff(lanczos) >= 0)
    assert np.max(np.abs(lanczos - dense)) <= bound
    assert (lanczos[0] >= -_RTOL * scale) == (dense[0] >= -_RTOL * scale)


@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.3])
def test_lanczos_matches_dense_on_paper_points(clusters, sigma):
    # 500 power steps at width 10 leave L uncertified, with the least
    # eigenvalues of the small-sigma cases clustered within 1e-7 max K_ii of
    # zero
    K = build_kernel(clusters.points, sigma).K
    root = np.sqrt(np.diag(K))[:, None]
    rng = np.random.default_rng(0)
    H_Xi = root * init_factor(K.shape[0], SolverConfig(), rng)
    for _ in range(500):
        H_Xi = root * _unit_rows(K @ H_Xi, rng)
    lanczos, dense, bound = _lanczos_against_dense(K, H_Xi)
    _assert_same_least_eigenvalues(lanczos, dense, bound, np.diag(K).max())
    assert dense[0] < -_RTOL * np.diag(K).max()


def test_lanczos_matches_dense_at_kernel_scale(large_sigma):
    K = large_sigma.kernel.K
    lanczos, dense, bound = _lanczos_against_dense(K, _random_feasible_factor(K))
    _assert_same_least_eigenvalues(lanczos, dense, bound, np.diag(K).max())


def test_lanczos_resolves_the_zero_of_a_certified_rank_two_optimum(cluster_pipeline):
    K = cluster_pipeline.kernel.K
    lanczos, dense, bound = _lanczos_against_dense(K, cluster_pipeline.factor.H_Xi)
    _assert_same_least_eigenvalues(lanczos, dense, bound, np.diag(K).max())
    assert cluster_pipeline.embedding.rank == 2
    assert np.all(np.abs(lanczos[:2]) <= bound) and lanczos[2] > 1e-3


def _spy_on_lanczos(monkeypatch):
    """The list that every later ``_lanczos_least`` result is appended to."""
    runs = []

    def spy(*args):
        runs.append(_lanczos_least(*args))
        return runs[-1]

    monkeypatch.setattr(certificate, "_lanczos_least", spy)
    return runs


def _count_lanczos_steps(monkeypatch):
    """The list that the number of steps, products with ``K`` or ``K~``, of
    every later ``_lanczos_least`` run is appended to."""
    steps = []

    def spy(times, D, tol):
        def counted(Q):
            steps[-1] += 1
            return times(Q)

        steps.append(0)
        return _lanczos_least(counted, D, tol)

    monkeypatch.setattr(certificate, "_lanczos_least", spy)
    return steps


@pytest.mark.parametrize("per_cluster, sigma, dense", [(664, 5.0, 16), (498, 50.0, 96)])
def test_lanczos_steps_are_pinned(per_cluster, sigma, dense, monkeypatch):
    # the seed-3 clusters at N = 2000 and 1502: a change to the Lanczos step
    # that moves where _ritz_converged holds changes the certificate's bits
    points, Xi = _stored_clusters(per_cluster, 3, sigma)
    steps = _count_lanczos_steps(monkeypatch)
    assert check_optimality(build_kernel(points, sigma).K, Xi).is_certified
    assert steps == [dense]


def _count_evaluations(monkeypatch):
    """The list that the shift of every later ``_count_below`` call, one
    evaluation of S, is appended to."""
    shifts = []

    def spy(A, D, t):
        shifts.append(t)
        return _count_below(A, D, t)

    monkeypatch.setattr(certificate, "_count_below", spy)
    return shifts


def test_factored_certificate_counts_once_and_takes_no_lanczos_step(monkeypatch):
    # the seed-3 clusters at N = 2000, sigma = 5: one S at -tol_eig scale +
    # delta decides, so block Lanczos takes no step
    points, Xi = _stored_clusters(664, 3, 5.0)
    steps, shifts = _count_lanczos_steps(monkeypatch), _count_evaluations(monkeypatch)
    report = certify_points(points, 5.0, Xi)
    assert report.is_certified and report.kernel_error_bound > 0.0
    assert steps == []
    assert shifts == [report.kernel_error_bound - _RTOL * report.scale]


@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.3])
def test_check_optimality_takes_lanczos_above_the_cutoff(sigma, monkeypatch):
    # the certified optima of the paper's 308 points, with the cutoff below
    # them: at sigma = 0.3 five of L's least eigenvalues lie within 1.3e-12
    # max K_ii of zero
    points, Xi = _stored_clusters(100, CLUSTER_SEED, sigma)
    K = build_kernel(points, sigma).K
    dense = check_optimality(K, Xi)
    runs = _spy_on_lanczos(monkeypatch)
    monkeypatch.setattr(certificate, "_DENSE_BELOW", 300)
    lanczos = check_optimality(K, Xi)
    assert len(runs) == 1 and runs[0] is not None
    assert np.array_equal(lanczos.least_eigenvalues, runs[0][0])
    assert np.max(np.abs(lanczos.least_eigenvalues - dense.least_eigenvalues)) <= (
        _LANCZOS_RTOL * np.diag(K).max()
    )
    assert lanczos.is_certified == dense.is_certified


def test_interval_grid_of_1600_points_certifies_by_lanczos(monkeypatch):
    # the n = 1600 grid at sigma = 1 that ``sdpembed toy 1600 --sigma 1`` runs
    runs = _spy_on_lanczos(monkeypatch)
    report, _ = run_interval_experiment(1600, 1.0)
    assert report.certified
    assert runs and all(run is not None for run in runs)


def _assert_ritz_contract(theta, vectors, K, D, tol):
    """Each Ritz value within ``tol`` of the dense one, and each residual r
    within the bound that stopped Lanczos: r <= tol or r^2 <= tol gap, the
    gap taken from the dense spectrum.  Returns the residuals."""
    dense = np.linalg.eigvalsh(np.diag(D) - K)
    assert np.max(np.abs(theta - dense[:_N_LEAST])) <= tol
    gaps = np.abs(dense[:, None] - dense[:_N_LEAST])
    gaps[np.arange(_N_LEAST), np.arange(_N_LEAST)] = np.inf
    residuals = np.linalg.norm(D[:, None] * vectors - K @ vectors - vectors * theta, axis=0)
    assert np.all((residuals <= tol) | (residuals**2 <= tol * gaps.min(axis=0)))
    return residuals


def test_lanczos_ritz_pairs_are_eigenpairs_on_the_2k_clusters(clusters_2k):
    # at the certified optimum (the rank-2 null space of L) and at a random
    # feasible factor (negative eigenvalues, as where the staircase climbs)
    K = clusters_2k.kernel.K
    tol = _LANCZOS_RTOL * np.diag(K).max()
    residuals = []
    for H_Xi in (clusters_2k.factor.H_Xi, _random_feasible_factor(K)):
        # the product and the BLAS thread count of check_optimality, so the
        # same bits
        with kernels._one_blas_thread():
            D = np.einsum("ij,ij->i", kernels._times(K, H_Xi), H_Xi) / np.diag(K)
            theta, V = _lanczos_least(lambda Q: Q @ K, D, tol)
        assert V.shape == (K.shape[0], _N_LEAST)
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)
        residuals.append(_assert_ritz_contract(theta, V, K, D, tol))
        assert np.array_equal(theta, check_optimality(K, H_Xi).least_eigenvalues)
    # the optimum's zero pair crowds itself, so its residuals stay within tol
    assert np.all(residuals[0][:2] <= tol)


def test_lanczos_resolves_a_close_pair_among_the_least_eigenvalues():
    # L = V diag(lam) V^T, K = I - L and D = 1: lam[2] and lam[3] are 1e-9
    # apart, so their residuals must fall to about sqrt(1e-10 * 1e-9)
    rng = np.random.default_rng(0)
    n = 300
    lam = np.concatenate([[0.0, 0.05, 0.1, 0.1 + 1e-9, 0.12, 0.13], np.linspace(0.14, 2.0, n - 6)])
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    L = (V * lam) @ V.T
    K = np.eye(n) - (L + L.T) / 2
    theta, vectors = _lanczos_least(lambda Q: Q @ K, np.ones(n), 1e-10)
    assert np.max(np.abs(theta - lam[:_N_LEAST])) <= 1e-10
    _assert_ritz_contract(theta, vectors, K, np.ones(n), 1e-10)


def test_ritz_convergence_widens_each_gap_by_the_residual():
    # the sixth value has r = 1e-8: r^2 / gap meets tol = 1e-10 against a
    # seventh value 1e-4 away once that value is resolved, but not while its
    # own residual (1e-2) could put an eigenvalue right next to the sixth
    theta = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.5001, 1.0, 1.1, 1.2, 1.3, 1.4])
    r = np.zeros(12)
    r[5] = 1e-8
    assert _ritz_converged(theta, r, 1e-10)
    r[6] = 1e-2
    assert not _ritz_converged(theta, r, 1e-10)
    # r^2 / gap = 1e-8 is far above tol
    r[6] = 0.0
    r[5] = 1e-6
    assert not _ritz_converged(theta, r, 1e-10)
    # the first block has no seventh value, so only r <= tol counts
    assert not _ritz_converged(theta[:6], np.full(6, 1e-8), 1e-10)
    assert _ritz_converged(theta[:6], np.full(6, 1e-10), 1e-10)


def test_lanczos_breakdown_on_a_repeated_least_eigenvalue():
    # L has eigenvalue 0 three times and 1 elsewhere, so the Krylov space of
    # the first block is invariant after one step and fresh vectors continue
    rng = np.random.default_rng(5)
    n = 120
    U = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :3]
    L = np.eye(n) - U @ U.T
    K = np.eye(n) - (L + L.T) / 2
    least, vectors = _lanczos_least(lambda Q: Q @ K, np.ones(n), 1e-10)
    assert np.max(np.abs(least - [0, 0, 0, 1, 1, 1])) <= 1e-10
    # the Ritz vectors of the zero eigenvalue span the null space of L
    assert np.max(np.abs(L @ vectors[:, :3])) <= 1e-10


def test_certified_random_instance_invariants():
    rng = np.random.default_rng(1)
    result = embed_points(rng.standard_normal((20, 2)), 1.5, config=tight_config())
    report = result.certificate
    assert report.is_certified
    rho = result.embedding.H_Xi @ result.embedding.H_Xi.T
    L = certificate_matrix(result.kernel.K, rho)
    # complementary slackness in Frobenius norm
    assert np.linalg.norm(L @ rho) <= 1e-8 * np.linalg.norm(rho)
    # duality gap at the canonical candidate
    assert abs(report.duality_gap) <= 1e-10 * max(1.0, abs(report.objective))
    # L + K is exactly diagonal by construction
    off_diag = (L + result.kernel.K) - np.diag(np.diag(L + result.kernel.K))
    assert np.max(np.abs(off_diag)) == 0.0
    # mean-value factor bounds: 0 < K_ii / (K rho)_ii <= 1 / K_ii
    diag_K = np.diag(result.kernel.K)
    factors = diag_K / np.einsum("ij,ji->i", result.kernel.K, rho)
    assert np.all(factors > 0)
    assert np.all(factors <= 1.0 / diag_K + 1e-10)


def test_least_eigenvalues_has_six_entries_at_scale():
    rng = np.random.default_rng(2)
    result = embed_points(rng.standard_normal((12, 2)), 1.5, config=tight_config())
    assert result.certificate.least_eigenvalues.shape == (6,)
    assert np.all(np.diff(result.certificate.least_eigenvalues) >= 0)


def test_nuclear_equivalence_two_point(two_point):
    K = two_point.kernel.K
    rho = two_point.embedding.H_Xi @ two_point.embedding.H_Xi.T
    report = nuclear_equivalence_check(K, rho)
    assert report.ok
    assert report.rank_X == report.rank_rho == 1


def test_nuclear_trace_matches_shifted_objective(two_point):
    # Tr(X*) = Tr(rho* (I - K)) by the cyclic property
    K = two_point.kernel.K
    rho = two_point.embedding.H_Xi @ two_point.embedding.H_Xi.T
    w, V = np.linalg.eigh(np.eye(2) - K)
    sigma = (V * np.sqrt(w)) @ V.T
    X = sigma.T @ rho @ sigma
    assert np.trace(X) == pytest.approx(np.sum(rho * (np.eye(2) - K)), rel=1e-12)


def test_nuclear_equivalence_random_small_instance():
    rng = np.random.default_rng(3)
    result = embed_points(rng.standard_normal((6, 2)), 1.5, config=tight_config())
    assert result.certificate.is_certified
    rho = result.embedding.H_Xi @ result.embedding.H_Xi.T
    report = nuclear_equivalence_check(result.kernel.K, rho)
    assert report.ok
    assert report.diag_residual < 1e-8
    assert report.nuclear_trace_gap < 1e-10


def test_nuclear_equivalence_requires_contraction():
    with pytest.raises(ValueError, match="below 1"):
        nuclear_equivalence_check(np.eye(3), np.eye(3))


@functools.cache
def _stored_clusters(per_cluster, seed, sigma):
    """The clusters' points and the coordinates ``sdpembed embed`` stores for
    them under defaults."""
    points = gen_three_clusters(per_cluster, 8, seed).points
    return points, embed_points(points, sigma).embedding.Xi


def _low_rank_kernel(A, start=0, stop=None):
    """Rows ``start:stop`` of ``K~ = A^T J A``, from a factor of
    ``kernels._low_rank``."""
    return (A[:, start:stop].T * np.r_[np.ones(len(A) - 1), -1.0]) @ A


def _factor_error_norm(K, A):
    """||K - A^T J A||_F, in row blocks; it bounds the 2-norm."""
    total = 0.0
    for start in range(0, K.shape[0], 500):
        block = K[start : start + 500] - _low_rank_kernel(A, start, start + 500)
        total += float(np.vdot(block, block))
    return np.sqrt(total)


def _stored_factor(points, sigma):
    """``A`` and ``delta`` of the factor that ``certify_points`` takes."""
    with kernels._one_blas_thread():
        gram = kernels.gaussian_gram(points, sigma)
        scale = kernels._diagonal(gram).max()
        return kernels._low_rank(gram, len(points) // 20, _FACTOR_RTOL * scale)


@pytest.mark.parametrize(
    "per_cluster, seed, sigma",
    [(664, seed, 5.0) for seed in range(10)]
    + [(664, 3, 20.0), (664, 3, 50.0), (1330, 3, 5.0), (1330, 3, 20.0), (1330, 3, 50.0)],
)
def test_factored_certificate_agrees_with_the_dense_one(per_cluster, seed, sigma, monkeypatch):
    # the ten 2k training sets of the benchmark at sigma = 5, and the clusters
    # of seed 3 at N = 2000 and 3998 across bandwidths
    points, Xi = _stored_clusters(per_cluster, seed, sigma)
    runs, builds = _spy_on_lanczos(monkeypatch), []

    def counted_build(*args):
        builds.append(args)
        return build_kernel(*args)

    monkeypatch.setattr(kernels, "build_kernel", counted_build)
    report = certify_points(points, sigma, Xi)
    monkeypatch.undo()
    # the factor decides, with no K; at sigma = 5 the count alone
    assert not builds and len(runs) <= 1 and all(run is not None for run in runs)
    if sigma == 5.0:
        assert runs == []
    assert report.kernel_error_bound > 0.0
    K = build_kernel(points, sigma).K
    dense = check_optimality(K, Xi)
    scale = np.diag(K).max()
    assert report.scale == dense.scale == scale
    exact = np.linalg.eigvalsh(np.diag(dense.D_diagonal) - K)[:_N_LEAST]
    assert report.is_certified and dense.is_certified and exact[0] >= -_RTOL * scale
    # the reported prefix: L's eigenvalues at or below tol_eig scale, here
    # its null space of dimension 2 = rank
    least = report.least_eigenvalues
    assert len(least) == np.count_nonzero(exact <= _RTOL * scale) == 2
    assert np.all(np.diff(least) >= 0)
    assert np.max(np.abs(least - exact[: len(least)])) <= 1e-10 * scale + report.kernel_error_bound
    assert report.objective == pytest.approx(dense.objective, rel=1e-14)
    # K @ H_Xi from the weights cancels like K itself: 8e-11 max K_ii at
    # N = 3998, sigma = 50, where max K_ii = 7e-6 is itself a difference
    assert np.max(np.abs(report.D_diagonal - dense.D_diagonal)) <= 1e-9 * scale
    A, delta = _stored_factor(points, sigma)
    assert delta == report.kernel_error_bound
    # ||K - K~||_F >= ||K - K~||_2, so this is the stronger check
    assert _factor_error_norm(K, A) <= delta


def test_factored_certificate_hands_over_past_the_pivot_cap(monkeypatch):
    # N = 1508, sigma = 5: the gram needs more than N / 20 = 75 pivots, so
    # the certificate of K decides, and its report is the one returned
    points, Xi = _stored_clusters(500, 3, 5.0)
    factors = []

    def spy(*args):
        factors.append(low_rank(*args))
        return factors[-1]

    low_rank = kernels._low_rank
    monkeypatch.setattr(kernels, "_low_rank", spy)
    report = certify_points(points, 5.0, Xi)
    assert factors == [None]
    _assert_same_report(report, check_optimality(build_kernel(points, 5.0).K, Xi))


def _assert_same_report(report, other):
    for name, value in vars(report).items():
        assert np.array_equal(value, getattr(other, name)), name


def test_factored_certificate_hands_over_where_the_bound_could_decide(monkeypatch):
    # a bound twice as wide as the least eigenvalue's distance to the
    # tolerance could flip the verdict: the count at -tol_eig scale + delta
    # no longer certifies, Lanczos finds lambda_min(L~) within delta of the
    # tolerance, and the certificate of K decides
    points, Xi = _stored_clusters(664, 3, 5.0)
    factored = certify_points(points, 5.0, Xi)
    assert factored.kernel_error_bound > 0.0
    margin = 2 * (factored.least_eigenvalues[0] + _RTOL * factored.scale)
    low_rank = kernels._low_rank

    def widened(*args):
        return low_rank(*args)[0], margin

    monkeypatch.setattr(kernels, "_low_rank", widened)
    report = certify_points(points, 5.0, Xi)
    _assert_same_report(report, check_optimality(build_kernel(points, 5.0).K, Xi))
    assert report.is_certified


@pytest.mark.parametrize("sigma, negated", [(5.0, False), (20.0, False), (5.0, True)])
def test_inertia_count_matches_a_dense_count(sigma, negated):
    # the seed-3 clusters at N = 2000 and their factor; the negated model
    # flips the sign of row 0 of Xi, which leaves D_0 negative
    points, Xi = _stored_clusters(664, 3, sigma)
    if negated:
        Xi = Xi.copy()
        Xi[0] = -Xi[0]
    A, delta = _stored_factor(points, sigma)
    K = build_kernel(points, sigma).K
    D = np.einsum("ij,ij->i", K @ Xi, Xi) / np.diag(K)
    scale = np.diag(K).max()
    dense = np.linalg.eigvalsh(np.diag(D) - _low_rank_kernel(A))
    low = np.sort(D)[:2]
    shifts = [delta - _RTOL * scale, -1e-10 * scale, 1e-6 * scale, scale, low.mean()]
    if negated:
        assert D[0] < 0.0 and low[0] == D[0]
        shifts.append(D[0] - scale)
    for t in shifts:
        assert _count_below(A, D, t)[0] == np.count_nonzero(dense < t), t / scale
