import weakref

import numpy as np
import pytest

from sdpembed import (
    SolverConfig,
    build_kernel,
    certificate,
    check_optimality,
    embed_points,
    gen_three_clusters,
    kernels,
    objective,
    solve,
    solver,
)


def _rank_three_cloud():
    # 30 points in d = 4 at sigma = 0.8, whose optimum has rank 3: from the
    # width-2 start the staircase has to climb once
    return np.random.default_rng(1).standard_normal((30, 4))


def test_r0_capped_at_point_count():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((5, 2))
    with pytest.raises(ValueError, match="exceeds"):
        solve(build_kernel(points, 1.5).K, SolverConfig())
    result = embed_points(points, 1.5)
    assert 2 <= result.factor.H_Xi.shape[1] <= 5
    assert result.certificate.is_certified


def test_config_passed_through():
    # r0 caps the staircase: the default climbs to width 3 and certifies,
    # r0 = 2 stops at a width-2 stationary point that does not certify
    points = _rank_three_cloud()
    free = embed_points(points, 0.8)
    assert free.factor.H_Xi.shape[1] == 3 and free.embedding.rank == 3
    assert free.factor.converged and free.certificate.is_certified
    cfg = SolverConfig(r0=2, seed=4, max_iters=5000)
    result = embed_points(points, 0.8, config=cfg)
    assert result.factor.H_Xi.shape == (30, 2)
    assert result.factor.converged and not result.certificate.is_certified
    assert result.certificate.least_eigenvalues[0] < -1e-8 * np.diag(result.kernel.K).max()
    # rigidity holds for any feasible factor, certified or not
    row_sq = np.einsum("ij,ij->i", result.embedding.H_Xi, result.embedding.H_Xi)
    assert np.allclose(row_sq, np.diag(result.kernel.K), atol=1e-12)


def _assert_converged_and_certified(result):
    scale = np.diag(result.kernel.K).max()
    assert result.factor.converged
    assert result.factor.slackness_residual <= 1e-12 * scale
    assert result.certificate.is_certified
    # the solver's last certificate is the one reported, and it is current
    assert result.certificate is result.factor.certificate
    fresh = check_optimality(result.kernel.K, result.factor.H_Xi)
    assert np.array_equal(fresh.least_eigenvalues, result.certificate.least_eigenvalues)
    # the solver stops on the residual the report gives, and the objective
    # has the same bits however it is computed
    assert result.factor.slackness_residual == result.certificate.slackness_residual
    energy = objective(result.kernel.K, result.factor.H_Xi)
    assert energy == result.factor.objective == result.certificate.objective


def _assert_matches_a_cold_solve(result):
    cold = solve(result.kernel.K, SolverConfig())
    assert cold.converged
    assert result.factor.objective == pytest.approx(cold.objective, rel=1e-12, abs=0)


@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.3])
def test_paper_points_certify_at_small_sigma(clusters, sigma):
    # the power method alone stopped at its 15000-step cap on all three;
    # its steps stall on the cold start at each, so each takes the path
    result = embed_points(clusters.points, sigma)
    _assert_converged_and_certified(result)
    assert result.embedding.rank == 2
    _assert_matches_a_cold_solve(result)


@pytest.mark.parametrize("seed", [1, 2])
def test_other_data_seeds_match_a_cold_solve_at_sigma_0_2(seed):
    # a cold solve takes 14.6k and 14.1k products here
    result = embed_points(gen_three_clusters(100, 8, seed).points, 0.2)
    _assert_converged_and_certified(result)
    _assert_matches_a_cold_solve(result)


def _built_kernels(monkeypatch):
    """The sigma of every kernel that ``embed_points`` builds; each build
    also checks that no ``K`` built before it is still alive."""
    sigmas, alive = [], []
    build = kernels.build_kernel

    def spy(points, sigma):
        assert all(ref() is None for ref in alive), "two kernels alive at once"
        sigmas.append(sigma)
        dk = build(points, sigma)
        alive.append(weakref.ref(dk.K))
        return dk

    monkeypatch.setattr(kernels, "build_kernel", spy)
    return sigmas


def _certificates(monkeypatch):
    """The kernel size of every certificate that the solver or the pipeline
    computes."""
    sizes = []
    check = certificate.check_optimality

    def spy(K, H_Xi):
        sizes.append(K.shape[0])
        return check(K, H_Xi)

    monkeypatch.setattr(solver, "check_optimality", spy)
    monkeypatch.setattr(certificate, "check_optimality", spy)
    return sizes


def test_paper_points_at_sigma_0_1_take_a_short_path(clusters, monkeypatch):
    # a cold solve takes 2.24M products here (about 90 s); the power steps
    # stall up to sigma = 1.6 and converge at 3.2, and the path comes back
    # down with one K at a time
    sigmas = _built_kernels(monkeypatch)
    certified = _certificates(monkeypatch)
    result = embed_points(clusters.points, 0.1)
    assert sigmas == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 1.6, 0.8, 0.4, 0.2, 0.1]
    # only sigma's own level is certified: the levels above stop at the
    # stopping rule
    assert certified == [308]
    _assert_converged_and_certified(result)
    assert result.embedding.rank == 2
    assert result.kernel.sigma == 0.1
    assert result.factor.products < 20000


def test_path_shares_one_step_budget(clusters, monkeypatch):
    # the power steps stall at sigma = 0.3 after about 30 steps; the rest of
    # the 50 go to the probes, and the result is sigma's own, unconverged
    sigmas = _built_kernels(monkeypatch)
    result = embed_points(clusters.points, 0.3, config=SolverConfig(max_iters=50))
    assert sigmas[0] == sigmas[-1] == 0.3 and len(sigmas) > 1
    assert result.factor.iterations == 50 and not result.factor.converged
    assert result.kernel.sigma == 0.3
    row_sq = np.einsum("ij,ij->i", result.factor.H_Xi, result.factor.H_Xi)
    assert np.allclose(row_sq, np.diag(result.kernel.K), rtol=1e-12)


def test_clusters_at_sigma_5_take_no_path(clusters, monkeypatch):
    # the power steps converge on their own, so the result is a cold solve's
    # bit for bit, built on one kernel, with one product per step
    sigmas = _built_kernels(monkeypatch)
    certified = _certificates(monkeypatch)
    result = embed_points(clusters.points, 5.0)
    assert sigmas == [5.0]
    assert certified == [308]
    cold = solve(result.kernel.K, SolverConfig())
    assert np.array_equal(result.factor.H_Xi, cold.H_Xi)
    assert result.factor.objective == cold.objective
    assert result.factor.products == cold.products == result.factor.iterations + 1
    _assert_converged_and_certified(result)


def test_far_outlier_certifies():
    # a 50-point normal cloud and one point at (1e6, 1e6), whose Gaussian
    # weights to the cloud all underflow
    cloud = np.random.default_rng(0).standard_normal((50, 2))
    result = embed_points(np.vstack([cloud, [[1e6, 1e6]]]), 1.0)
    _assert_converged_and_certified(result)


def test_2k_clusters_at_sigma_5_certify_on_the_reported_residual():
    # the power steps converge on their own, and the Lanczos certificate
    # decides
    result = embed_points(gen_three_clusters(664, 8, 3).points, 5.0)
    _assert_converged_and_certified(result)


def test_2k_clusters_at_sigma_1_converge_within_a_product_budget(clusters_2k):
    # the power method alone took 8910 steps here; the solver takes about
    # 80 products with K
    _assert_converged_and_certified(clusters_2k)
    assert clusters_2k.factor.products <= 400


def test_2k_clusters_at_sigma_1_certify_once(clusters_2k, monkeypatch):
    # the path takes several kernels at N = 2000 and one certificate, which
    # at this size comes from block Lanczos; the result is the fixture's
    # bit for bit
    sigmas = _built_kernels(monkeypatch)
    certified = _certificates(monkeypatch)
    result = embed_points(gen_three_clusters(664, 8, 3).points, 1.0)
    assert sigmas[0] == sigmas[-1] == 1.0 and len(sigmas) > 1
    assert certified == [2000]
    assert np.array_equal(result.factor.H_Xi, clusters_2k.factor.H_Xi)
    assert result.factor.products == clusters_2k.factor.products
    _assert_converged_and_certified(result)
