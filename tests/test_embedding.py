import numpy as np
import pytest

from sdpembed import embed_points, factor_to_embedding
from sdpembed.diagnostics import mean_value_check

from conftest import C, tight_config


def test_two_point_coordinates(two_point):
    emb = two_point.embedding
    assert emb.rank == 1
    root_c = np.sqrt(C)
    assert np.allclose(emb.Xi.ravel(), [root_c, -root_c], atol=1e-12)
    assert root_c == pytest.approx(0.4806855, abs=1e-7)
    # singular values of H_Xi: sqrt(2c) then zero
    assert emb.singular_values[0] == pytest.approx(np.sqrt(2 * C), abs=1e-12)


def test_sign_convention_largest_entry_positive(cluster_pipeline):
    Xi = cluster_pipeline.embedding.Xi
    for j in range(Xi.shape[1]):
        assert Xi[np.argmax(np.abs(Xi[:, j])), j] > 0


def test_rank_unaffected_by_duplicated_columns(two_point):
    H_Xi = two_point.factor.H_Xi
    duplicated = np.hstack([H_Xi, H_Xi]) / np.sqrt(2.0)
    emb = factor_to_embedding(duplicated)
    assert emb.rank == two_point.embedding.rank


def test_rank_tol_separates_scales():
    H_Xi = np.array([[1.0, 0.0], [0.0, 1e-7]])
    assert factor_to_embedding(H_Xi, rank_tol=1e-6).rank == 1
    assert factor_to_embedding(H_Xi, rank_tol=1e-8).rank == 2
    assert factor_to_embedding(H_Xi, rank_tol=0.0).rank == 2
    for rank_tol in (-1e-6, 1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"rank_tol must be in \[0, 1\)"):
            factor_to_embedding(H_Xi, rank_tol=rank_tol)


def test_rigidity_and_spherical_shell(cluster_pipeline):
    emb = cluster_pipeline.embedding
    diag_K = np.diag(cluster_pipeline.kernel.K)
    row_norms_sq = np.einsum("ij,ij->i", emb.Xi, emb.Xi)
    assert np.max(np.abs(row_norms_sq - diag_K)) <= 1e-8
    radii = np.sqrt(row_norms_sq)
    lo, hi = np.sqrt(diag_K.min()), np.sqrt(diag_K.max())
    assert np.all(radii >= lo - 1e-10) and np.all(radii <= hi + 1e-10)


def test_columns_orthogonal(cluster_pipeline):
    Xi = cluster_pipeline.embedding.Xi
    gram = Xi.T @ Xi
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-8
    # column norms are the kept eigenvalues of rho*
    sv = cluster_pipeline.embedding.singular_values[: Xi.shape[1]]
    assert np.allclose(np.diag(gram), sv**2, rtol=1e-10)


def test_conformality_of_kernel_multiplication(cluster_pipeline):
    # multiplying the embedding by K preserves pairwise angles on certified
    # solutions (each row is rescaled by the positive factor D_ii)
    Xi = cluster_pipeline.embedding.Xi
    KXi = cluster_pipeline.kernel.K @ Xi
    rng = np.random.default_rng(1)
    n = Xi.shape[0]
    for _ in range(50):
        i, j = rng.integers(0, n, 2)
        cos_orig = Xi[i] @ Xi[j] / (np.linalg.norm(Xi[i]) * np.linalg.norm(Xi[j]))
        cos_mult = KXi[i] @ KXi[j] / (np.linalg.norm(KXi[i]) * np.linalg.norm(KXi[j]))
        angle_orig = np.arccos(np.clip(cos_orig, -1, 1))
        angle_mult = np.arccos(np.clip(cos_mult, -1, 1))
        assert abs(angle_orig - angle_mult) < 1e-6


def test_mean_value_two_point(two_point):
    assert mean_value_check(two_point.kernel.K, two_point.embedding) < 1e-12


def test_mean_value_trivial_fixture():
    K = np.array([[1.0, 0.5], [0.5, 1.0]])
    emb = factor_to_embedding(np.ones((2, 1)))
    assert mean_value_check(K, emb) < 1e-10


def test_mean_value_negative_control():
    # a random feasible factor is generically far from optimal: either the
    # identity is violated by a visible margin, or some (K rho)(i, i) even
    # turns nonpositive, which mean_value_check reports as an error
    rng = np.random.default_rng(2)
    result = embed_points(rng.standard_normal((20, 2)), 1.5, config=tight_config())
    H_random = rng.standard_normal((20, 4))
    H_random /= np.linalg.norm(H_random, axis=1, keepdims=True)
    emb = factor_to_embedding(np.sqrt(np.diag(result.kernel.K))[:, None] * H_random)
    try:
        assert mean_value_check(result.kernel.K, emb) > 1e-3
    except RuntimeError:
        pass


def test_all_zero_factor_rejected():
    with pytest.raises(RuntimeError, match="singular values"):
        factor_to_embedding(np.zeros((2, 2)))
