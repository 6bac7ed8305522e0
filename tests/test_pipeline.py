import numpy as np
import pytest

from sdpembed import (
    SolverConfig,
    check_optimality,
    diffusion_kernel,
    embed_points,
    gaussian_gram,
    solve,
)


def _rank_three_cloud():
    # 30 points in d = 4 at sigma = 0.8, whose optimum has rank 3: from the
    # width-2 start the staircase has to climb once
    return np.random.default_rng(1).standard_normal((30, 4))


def test_r0_capped_at_point_count():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((5, 2))
    with pytest.raises(ValueError, match="exceeds"):
        solve(diffusion_kernel(gaussian_gram(points, 1.5)).K, SolverConfig())
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


@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.3])
def test_paper_points_certify_at_small_sigma(clusters, sigma):
    # the power method alone stopped at its 15000-step cap on all three
    result = embed_points(clusters.points, sigma)
    _assert_converged_and_certified(result)
    assert result.embedding.rank == 2


def test_far_outlier_certifies():
    # a 50-point normal cloud and one point at (1e6, 1e6), whose Gaussian
    # weights to the cloud all underflow
    cloud = np.random.default_rng(0).standard_normal((50, 2))
    result = embed_points(np.vstack([cloud, [[1e6, 1e6]]]), 1.0)
    _assert_converged_and_certified(result)


def test_2k_clusters_at_sigma_1_converge_within_a_product_budget(clusters_2k):
    # the power method alone took 8910 steps here; the solver takes about
    # 80 products with K
    _assert_converged_and_certified(clusters_2k)
    assert clusters_2k.factor.products <= 400
