import numpy as np
import pytest

from sdpembed import (
    block_extension_analysis,
    bordered_certificate,
    bordered_matrix,
    extend_kernel,
    extend_point,
    extend_points,
    extended_sdp_certificate,
    extension_row,
)
from sdpembed import extension

from conftest import C


def test_restriction_to_training_points(two_point, cluster_pipeline):
    for result in (two_point, cluster_pipeline):
        Xi = result.embedding.Xi
        for i in range(0, Xi.shape[0], 7):
            p = extend_point(result.kernel, result.embedding, result.kernel.base.points[i])
            assert not p.degenerate
            assert np.max(np.abs(p.coords - Xi[i])) < 1e-8


def test_two_point_extension_value(two_point):
    p = extend_point(two_point.kernel, two_point.embedding, [-0.5])
    assert not p.degenerate
    # hand evaluation: coords = sqrt(kappa) * sign(g), kappa = 1/dbar - dbar/vol
    dbar = np.exp(-0.25) + np.exp(-2.25)
    kappa = 1 / dbar - dbar / (2 * (1 + np.exp(-1)))
    assert p.coords[0] == pytest.approx(np.sqrt(kappa), abs=1e-12)
    assert p.coords[0] == pytest.approx(0.8988, abs=5e-5)
    assert p.kappa == pytest.approx(kappa, abs=1e-14)


def test_symmetry_midpoint_is_degenerate(two_point):
    p = extend_point(two_point.kernel, two_point.embedding, [0.5])
    assert p.degenerate
    assert np.array_equal(p.coords, np.zeros(1))


def test_extend_points_matches_per_row_reference(cluster_pipeline):
    # three full row blocks and a partial one, with copies of training points
    dk, emb = cluster_pipeline.kernel, cluster_pipeline.embedding
    pts = dk.base.points
    rows = extension._block_rows(pts.shape[0])
    m = 3 * rows + rows // 2
    rng = np.random.default_rng(4)
    X = rng.uniform(pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0, (m, pts.shape[1]))
    at = rng.choice(m, 40, replace=False)
    copies = rng.choice(pts.shape[0], 40, replace=False)
    X[at] = pts[copies]
    ext = extend_points(dk, emb, X)
    assert ext.coords.shape == (m, emb.rank)
    assert not ext.degenerate.any()
    for i, x in enumerate(X):
        row = extension_row(dk, x)
        g = emb.Xi.T @ row.kvec
        expected = np.sqrt(row.kappa) * g / np.linalg.norm(g)
        assert abs(ext.kappa[i] - row.kappa) <= 1e-12 * row.kappa
        assert np.linalg.norm(ext.coords[i] - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.max(np.abs(ext.coords[at] - emb.Xi[copies])) <= 1e-12


def test_extend_points_flags_midpoint_in_a_batch(two_point):
    ext = extend_points(two_point.kernel, two_point.embedding, [[-0.5], [0.5], [-0.35]])
    assert ext.degenerate.tolist() == [False, True, False]
    assert np.array_equal(ext.coords[1], np.zeros(1))
    for i, x in enumerate([-0.5, -0.35]):
        p = extend_point(two_point.kernel, two_point.embedding, [x])
        np.testing.assert_allclose(ext.coords[2 * i], p.coords, rtol=1e-14)


def test_extend_points_rejects_bad_rows(two_point):
    dk, emb = two_point.kernel, two_point.embedding
    with pytest.raises(ValueError, match="dimension 2"):
        extend_points(dk, emb, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="index 1 has non-finite"):
        extend_points(dk, emb, [[0.2], [np.nan]])
    # every Gaussian weight underflows: no degree to normalize by
    with pytest.raises(ValueError, match="index 2 has no kernel weight"):
        extend_points(dk, emb, [[0.2], [0.5], [100.0], [-100.0]])
    with pytest.raises(ValueError, match="index 0 has no kernel weight"):
        extend_point(dk, emb, [1e6])


def test_norm_preservation(cluster_pipeline):
    rng = np.random.default_rng(0)
    lo = cluster_pipeline.kernel.base.points.min(axis=0)
    hi = cluster_pipeline.kernel.base.points.max(axis=0)
    for _ in range(25):
        x = rng.uniform(lo, hi)
        p = extend_point(cluster_pipeline.kernel, cluster_pipeline.embedding, x)
        if not p.degenerate:
            assert abs(p.coords @ p.coords - p.kappa) < 1e-10


def test_extension_maximizes_bordered_objective(two_point, cluster_pipeline):
    # among u with ||u||^2 = kappa, the returned coords maximize the linear
    # gain 2 g . u of the bordered objective; compare against -coords and
    # 100 random feasible candidates
    rng = np.random.default_rng(1)
    for result, xbar in [(two_point, [-0.35]), (cluster_pipeline, [2.0, 1.0])]:
        row = extension_row(result.kernel, xbar)
        p = extend_point(result.kernel, result.embedding, xbar)
        assert not p.degenerate
        g = result.embedding.Xi.T @ row.kvec
        best = 2 * g @ p.coords
        assert 2 * g @ (-p.coords) <= best + 1e-10
        for _ in range(100):
            u = rng.standard_normal(g.shape[0])
            u *= np.sqrt(p.kappa) / np.linalg.norm(u)
            assert 2 * g @ u <= best + 1e-10


def test_extend_kernel_restriction_and_diagonal(cluster_pipeline):
    emb = cluster_pipeline.embedding
    rho = emb.Xi @ emb.Xi.T
    pts = cluster_pipeline.kernel.base.points
    for i, j in [(0, 1), (5, 200), (100, 100)]:
        value = extend_kernel(cluster_pipeline.kernel, emb, pts[i], pts[j])
        assert value == pytest.approx(rho[i, j], abs=1e-8)
    x = np.array([1.7, 0.3])
    p = extend_point(cluster_pipeline.kernel, emb, x)
    assert extend_kernel(cluster_pipeline.kernel, emb, x, x) == pytest.approx(
        p.kappa, abs=1e-10
    )


def test_extend_kernel_two_point_product(two_point):
    value = extend_kernel(two_point.kernel, two_point.embedding, [-0.5], [0.0])
    assert value == pytest.approx(0.8987573 * np.sqrt(C), abs=1e-4)
    assert value == pytest.approx(0.43204, abs=1e-4)


def test_extend_kernel_degenerate_returns_zero(two_point):
    assert extend_kernel(two_point.kernel, two_point.embedding, [0.5], [0.0]) == 0.0


def test_appendix_double_sum_equivalence(cluster_pipeline):
    # eigenvector-product form vs explicit normalized double sum
    emb = cluster_pipeline.embedding
    rho = emb.Xi @ emb.Xi.T
    K = cluster_pipeline.kernel
    rng = np.random.default_rng(2)
    lo, hi = K.base.points.min(axis=0), K.base.points.max(axis=0)
    for _ in range(20):
        x, y = rng.uniform(lo, hi, (2, 2))
        rx, ry = extension_row(K, x), extension_row(K, y)
        qx, qy = rx.kvec @ rho @ rx.kvec, ry.kvec @ rho @ ry.kvec
        if min(qx, qy) <= 0:
            continue
        norm = np.sqrt(rx.kappa / qx) * np.sqrt(ry.kappa / qy)
        double_sum = norm * (rx.kvec @ rho @ ry.kvec)
        product_form = extend_kernel(K, emb, x, y)
        assert product_form == pytest.approx(double_sum, abs=1e-10)


def test_block_analysis_single_coefficient(two_point):
    chi1 = two_point.embedding.Xi[:, 0]
    beta = 0.37
    report = block_extension_analysis(two_point.embedding, beta * chi1)
    assert report.in_range
    assert report.s_min == pytest.approx(beta**2, rel=1e-10)
    assert np.allclose(report.b_coeffs, [beta], atol=1e-10)
    assert report.min_eig_at_s_min >= -1e-10
    assert report.min_eig_below_s_min < 0


def test_block_analysis_out_of_range(cluster_pipeline):
    emb = cluster_pipeline.embedding
    rng = np.random.default_rng(3)
    q = rng.standard_normal(emb.Xi.shape[0])
    # remove the in-range component, keeping a genuine null-space vector
    coeffs = (emb.Xi.T @ q) / np.einsum("ij,ij->j", emb.Xi, emb.Xi)
    q -= emb.Xi @ coeffs
    assert np.linalg.norm(q) > 1e-3
    report = block_extension_analysis(emb, q)
    assert not report.in_range
    for s, eig in report.min_eigs_at_tested_s.items():
        assert eig < 0, f"expected indefinite at s={s}"


def test_block_analysis_rank_one_identity(two_point):
    # at s = s_min the bordered matrix equals the sum of bordered outer
    # products of the eigenvectors
    emb = two_point.embedding
    b = 0.2 * emb.Xi[:, 0]
    report = block_extension_analysis(emb, b)
    rho = emb.Xi @ emb.Xi.T
    bordered = bordered_matrix(rho, b, report.s_min)
    stacked = np.append(emb.Xi[:, 0], report.b_coeffs[0])
    assert np.allclose(bordered, np.outer(stacked, stacked), atol=1e-10)


def test_block_analysis_rejects_zero_b(two_point):
    with pytest.raises(ValueError, match="nonzero"):
        block_extension_analysis(two_point.embedding, np.zeros(2))


def test_extended_certificate_two_point(two_point):
    report = extended_sdp_certificate(two_point.kernel, two_point.embedding, [-0.5])
    assert report.trace_identity_residual < 1e-8
    assert abs(report.slackness_trace) < 1e-8
    assert np.isfinite(report.min_eig)
    assert len(report.quadratic_form_samples) == 8


def test_extended_certificate_rejects_degenerate(two_point):
    with pytest.raises(ValueError, match="degenerate"):
        extended_sdp_certificate(two_point.kernel, two_point.embedding, [0.5])


def test_extended_certificate_canonical_basis_fixture(two_point):
    # bordering with kvec = e_i and the matching b solves the extended
    # program: the bordered certificate is p.s.d. with zero slackness
    K = two_point.kernel.K
    rho = two_point.embedding.Xi @ two_point.embedding.Xi.T
    kvec = np.array([1.0, 0.0])
    kappa = float(rho[0, 0])
    b = np.sqrt(kappa / (kvec @ rho @ kvec)) * (rho @ kvec)
    report = bordered_certificate(K, rho, kvec, kappa, b, kappa)
    assert report.would_certify
    assert report.min_eig >= -1e-10 * max(1.0, report.max_eig)
    assert report.slackness_residual < 1e-10
