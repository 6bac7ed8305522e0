import dataclasses

import numpy as np
import pytest

from sdpembed import (
    SolverConfig,
    build_kernel,
    check_optimality,
    embed_points,
    extend_points,
    factor_to_embedding,
    gaussian_gram,
    gen_swiss_roll,
)
from sdpembed import kernels
from sdpembed.solver import init_factor
from sdpembed.extension import _extended_diagonal
from sdpembed.diagnostics import (
    block_extension_analysis,
    bordered_matrix,
    certificate_matrix,
    check_volume_inequalities,
    extend_kernel,
    extended_sdp_certificate,
    extension_row,
)

from conftest import C


def test_restriction_to_training_points(two_point, cluster_pipeline):
    for result in (two_point, cluster_pipeline):
        Xi = result.embedding.Xi
        for i in range(0, Xi.shape[0], 7):
            p = extend_points(result.kernel, Xi, [result.kernel.points[i]])
            assert not p.degenerate[0]
            assert np.max(np.abs(p.coords[0] - Xi[i])) < 1e-8


def test_two_point_extension_value(two_point):
    p = extend_points(two_point.kernel, two_point.embedding.Xi, [[-0.5]])
    assert not p.degenerate[0]
    # hand evaluation: coords = sqrt(kappa) * sign(g), kappa = 1/dbar - dbar/vol
    dbar = np.exp(-0.25) + np.exp(-2.25)
    kappa = 1 / dbar - dbar / (2 * (1 + np.exp(-1)))
    assert p.coords[0, 0] == pytest.approx(np.sqrt(kappa), abs=1e-12)
    assert p.coords[0, 0] == pytest.approx(0.8988, abs=5e-5)
    assert p.kappa[0] == pytest.approx(kappa, abs=1e-14)


def test_symmetry_midpoint_is_degenerate(two_point):
    p = extend_points(two_point.kernel, two_point.embedding.Xi, [[0.5]])
    assert p.degenerate[0]
    assert np.array_equal(p.coords[0], np.zeros(1))


@pytest.fixture(scope="module")
def swiss_roll_pipeline():
    """A certified model of width 3: the swiss roll of 400 points (seed 0) at
    sigma = 3, solved under defaults."""
    return embed_points(gen_swiss_roll(400, 0).points, 3.0)


@pytest.mark.parametrize("model, rank", [("cluster_pipeline", 2), ("swiss_roll_pipeline", 3)])
def test_extend_points_matches_per_row_reference(model, rank, request):
    # three full row blocks and a partial one, with copies of training points
    result = request.getfixturevalue(model)
    dk, emb = result.kernel, result.embedding
    assert emb.rank == rank and result.certificate.is_certified
    pts = dk.points
    rows = kernels._block_rows(pts.shape[0])
    m = 3 * rows + rows // 2
    rng = np.random.default_rng(4)
    X = rng.uniform(pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0, (m, pts.shape[1]))
    at = rng.choice(m, 40, replace=False)
    copies = rng.choice(pts.shape[0], 40, replace=False)
    X[at] = pts[copies]
    ext = extend_points(dk, emb.Xi, X)
    assert ext.coords.shape == (m, emb.rank)
    assert not ext.degenerate.any()
    for i, x in enumerate(X):
        row = extension_row(dk, x)
        g = emb.Xi.T @ row.kvec
        expected = np.sqrt(row.kappa) * g / np.linalg.norm(g)
        assert abs(ext.kappa[i] - row.kappa) <= 1e-12 * row.kappa
        assert np.linalg.norm(ext.coords[i] - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.max(np.abs(ext.coords[at] - emb.Xi[copies])) <= 1e-12


def test_extend_points_takes_an_empty_batch_and_listed_coordinates(cluster_pipeline):
    dk, emb = cluster_pipeline.kernel, cluster_pipeline.embedding
    ext = extend_points(dk, emb.Xi, np.empty((0, 2)))
    assert ext.coords.shape == (0, emb.rank)
    assert ext.kappa.shape == ext.degenerate.shape == (0,)
    assert ext.degenerate.dtype == bool
    X = dk.points[:5] + 0.1
    listed = extend_points(dk, emb.Xi.tolist(), X)
    assert np.array_equal(listed.coords, extend_points(dk, emb.Xi, X).coords)


def test_extend_points_flags_midpoint_in_a_batch(two_point):
    ext = extend_points(two_point.kernel, two_point.embedding.Xi, [[-0.5], [0.5], [-0.35]])
    assert ext.degenerate.tolist() == [False, True, False]
    assert np.array_equal(ext.coords[1], np.zeros(1))
    for i, x in enumerate([-0.5, -0.35]):
        p = extend_points(two_point.kernel, two_point.embedding.Xi, [[x]])
        np.testing.assert_allclose(ext.coords[2 * i], p.coords[0], rtol=1e-14)


def _per_block_extension(base, Xi, X):
    """Reference for ``extend_points``: its coordinates and degeneracy flags
    computed block by block, inside the runner."""
    rank = Xi.shape[1]
    root_d = np.sqrt(base.degrees)
    weights = np.hstack([Xi / root_d[:, None], np.ones((Xi.shape[0], 1))])
    center = (root_d @ Xi) / base.volume
    row_sizes = np.linalg.norm(Xi, axis=1) / root_d
    coords = np.zeros((X.shape[0], rank))
    degenerate = np.zeros(X.shape[0], dtype=bool)

    def extend(start, stop, kx):
        prod = kx @ weights
        dbar = prod[:, rank]
        k = _extended_diagonal(base, dbar)
        root_dbar = np.sqrt(dbar)
        g = prod[:, :rank] / root_dbar[:, None] - np.outer(root_dbar, center)
        size = (kx @ row_sizes) / root_dbar + root_dbar * np.linalg.norm(center)
        norm_g = np.sqrt(np.einsum("ij,ij->i", g, g))
        flat = norm_g <= 1e-12 * size
        ok = ~flat
        coords[start:stop][ok] = (np.sqrt(k[ok]) / norm_g[ok])[:, None] * g[ok]
        degenerate[start:stop] = flat

    kernels._map_blocks(X, base.points, base.sigma, extend)
    return coords, degenerate


def _mirrored_model(rng):
    """A training set symmetric under x -> -x, 500 mirrored pairs in
    [-3, 3]^2 at sigma = 1, with the odd coordinate sign(x) sqrt(K_ii)."""
    half = rng.uniform([0.2, -3.0], [3.0, 3.0], (500, 2))
    base = gaussian_gram(np.vstack([half, half * [-1.0, 1.0]]), 1.0)
    radius = np.sqrt(1.0 / base.degrees - base.degrees / base.volume)
    return base, (np.sign(base.points[:, 0]) * radius)[:, None]


def test_degeneracy_over_all_rows_matches_the_per_block_rule():
    # every new point on the axis x = 0 of the mirrored set is an exact
    # symmetry midpoint; these sit in several row blocks, the shorter last
    # one included, among ordinary points and points far out, whose weights
    # are tiny but whose Nystrom sums are not rounding noise.  Two more
    # batches hold only midpoints and no midpoint at all
    rng = np.random.default_rng(6)
    base, Xi = _mirrored_model(rng)
    rows = kernels._block_rows(base.points.shape[0])
    m = 10 * rows + rows // 2
    ordinary = rng.uniform([-3.0, -3.0], [3.0, 3.0], (m, 2))
    far = np.arange(7, m, rows // 2 + 1)
    ordinary[far] = np.sign(ordinary[far]) * rng.uniform(5.0, 14.0, (far.size, 2))
    X = ordinary.copy()
    mid = np.r_[np.arange(5, 10 * rows, 2 * rows + 11), m - 3]
    X[mid, 0] = 0.0
    axis = ordinary * [0.0, 1.0]
    for batch in (X, axis, ordinary):
        ext = extend_points(base, Xi, batch)
        coords, degenerate = _per_block_extension(base, Xi, batch)
        assert np.array_equal(ext.degenerate, degenerate)
        assert np.array_equal(ext.coords, coords)
    assert ext.degenerate.sum() == 0
    ext = extend_points(base, Xi, X)
    assert ext.degenerate[mid].all() and not ext.coords[mid].any()
    assert not ext.degenerate[far].any()
    assert ext.degenerate.sum() < mid.size + far.size
    assert extend_points(base, Xi, axis).degenerate.all()


def test_no_degeneracy_along_a_ray_out_of_the_data():
    # the points (3 + t, 0.5) leave the mirrored set; their Nystrom sums point
    # along the odd coordinate until every Gaussian weight underflows
    base, Xi = _mirrored_model(np.random.default_rng(6))
    t = np.arange(27.0)
    ext = extend_points(base, Xi, np.column_stack([3.0 + t, np.full(t.size, 0.5)]))
    assert not ext.degenerate.any()
    assert (ext.coords[:, 0] > 0).all()
    np.testing.assert_allclose(ext.coords[:, 0] ** 2, ext.kappa, rtol=1e-12)
    with pytest.raises(ValueError, match="index 0 has no kernel weight"):
        extend_points(base, Xi, [[30.0, 0.5]])


def test_degeneracy_size_matches_the_extension_row_terms_near_the_threshold():
    # a training set symmetric under x -> -x with odd coordinates of width
    # 2, so the Nystrom sum g of a new point eps * v vanishes with eps.  Over
    # 40 eps per decade, ||g|| / size crosses 1e-12 densely, and each flag
    # must follow the size that extension_row's terms give: the sum of
    # ||(k(xbar, x_i) / sqrt(dbar d_i)) Xi_i|| and ||sqrt(dbar) center||.
    # A size 1e3 times too small, or the L1 norm of the rows in place of
    # their length, moves the threshold past some of these points
    rng = np.random.default_rng(7)
    half = rng.uniform(-3.0, 3.0, (400, 2))
    base = gaussian_gram(np.vstack([half, -half]), 1.0)
    radius = np.sqrt(1.0 / base.degrees - base.degrees / base.volume)
    Xi = radius[:, None] * base.points / np.linalg.norm(base.points, axis=1)[:, None]
    X = np.geomspace(1e-15, 1e-9, 241)[:, None] * [0.6, 0.8]
    ext = extend_points(base, Xi, X)
    ratio = np.empty(len(X))
    for i, x in enumerate(X):
        row = extension_row(base, x)
        mixed = np.sqrt(row.dbar * base.degrees)
        size = (row.kvec + mixed / base.volume) @ np.linalg.norm(Xi, axis=1)
        size += np.linalg.norm(mixed @ Xi) / base.volume
        ratio[i] = np.linalg.norm(Xi.T @ row.kvec) / size
    clear = np.abs(np.log(ratio / 1e-12)) > 0.01
    assert np.array_equal(ext.degenerate[clear], ratio[clear] <= 1e-12)
    assert np.count_nonzero((ratio > 1e-14) & (ratio < 0.99e-12)) >= 40
    assert np.count_nonzero((ratio > 1.01e-12) & (ratio < 1.2e-12)) >= 2


@pytest.mark.parametrize("extend", ["extend_points", "extension_row", "check_volume_inequalities"])
def test_extend_points_rejects_bad_rows(extend, two_point):
    # one set of new-point rules: extend_points names the first bad row of a
    # batch, and extension_row, given that row alone, names index 0;
    # check_volume_inequalities checks the dimension and finiteness of its
    # probes, whose degrees may underflow
    dk, emb = two_point.kernel, two_point.embedding
    cases = [
        (np.zeros((3, 2)), 0, "points have dimension 2"),
        ([[0.2], [np.nan]], 1, "index {} has non-finite"),
        # every Gaussian weight underflows: no degree to normalize by
        ([[0.2], [0.5], [100.0], [-100.0]], 2, "index {} has no kernel weight"),
        ([[1e6]], 0, "index {} has no kernel weight"),
    ]
    for X, bad, message in cases:
        if extend == "extend_points":
            with pytest.raises(ValueError, match=message.format(bad)):
                extend_points(dk, emb.Xi, X)
        elif extend == "extension_row":
            with pytest.raises(ValueError, match=message.format(0)):
                extension_row(dk, X[bad])
        elif "kernel weight" not in message:
            with pytest.raises(ValueError, match=message.format(bad)):
                check_volume_inequalities(dk, X)

    # a batch that is not 2-d, and for extension_row anything but one point:
    # a batch of two d = 1 points is not the point (0.1, 0.2) of a d = 2 base
    if extend == "extend_points":
        with pytest.raises(ValueError, match=r"expected an \(M, d\) array"):
            extend_points(dk, emb.Xi, np.zeros(3))
        # coordinates of any shape but (N, r) with r >= 1, N = 2 here
        for Xi in (emb.Xi[:1], emb.Xi[:, :0], emb.Xi[:, 0], emb.Xi[:, :, None]):
            shape = str(np.shape(Xi)).replace("(", r"\(").replace(")", r"\)")
            with pytest.raises(ValueError, match=rf"factor has shape {shape}, expected \(2, r\)"):
                extend_points(dk, Xi, [[0.2]])
        # a non-finite coordinate would make every Nystrom sum nan
        for value in (np.nan, -np.inf):
            Xi = emb.Xi.copy()
            Xi[1, 0] = value
            with pytest.raises(ValueError, match="factor row 1 has non-finite entries"):
                extend_points(dk, Xi, [[0.2]])
    elif extend == "extension_row":
        plane = gaussian_gram(np.random.default_rng(0).standard_normal((20, 2)), 1.0)
        for batch in ([[0.1], [0.2]], [[0.1, 0.2]], 0.1):
            with pytest.raises(ValueError, match=r"expected one point of shape \(d,\)"):
                extension_row(plane, batch)
    elif extend == "check_volume_inequalities":
        with pytest.raises(ValueError, match=r"expected an \(M, d\) array"):
            check_volume_inequalities(dk, np.zeros(3))

    # a volume 1000 times too small breaks dbar^2 <= vol: kappa = -543 at 0.2
    shrunk = dataclasses.replace(dk, volume=dk.volume / 1000)
    if extend == "extend_points":
        with pytest.raises(RuntimeError, match="volume inequality"):
            extend_points(shrunk, emb.Xi, [[0.2]])
    elif extend == "extension_row":
        with pytest.raises(RuntimeError, match="volume inequality"):
            extension_row(shrunk, [0.2])


def test_norm_preservation(cluster_pipeline):
    rng = np.random.default_rng(0)
    lo = cluster_pipeline.kernel.points.min(axis=0)
    hi = cluster_pipeline.kernel.points.max(axis=0)
    for _ in range(25):
        x = rng.uniform(lo, hi)
        p = extend_points(cluster_pipeline.kernel, cluster_pipeline.embedding.Xi, [x])
        if not p.degenerate[0]:
            assert abs(p.coords[0] @ p.coords[0] - p.kappa[0]) < 1e-10


def test_extension_maximizes_bordered_objective(two_point, cluster_pipeline):
    # among u with ||u||^2 = kappa, the returned coords maximize the linear
    # gain 2 g . u of the bordered objective; compare against -coords and
    # 100 random feasible candidates
    rng = np.random.default_rng(1)
    for result, xbar in [(two_point, [-0.35]), (cluster_pipeline, [2.0, 1.0])]:
        row = extension_row(result.kernel, xbar)
        p = extend_points(result.kernel, result.embedding.Xi, [xbar])
        assert not p.degenerate[0]
        g = result.embedding.Xi.T @ row.kvec
        best = 2 * g @ p.coords[0]
        assert 2 * g @ (-p.coords[0]) <= best + 1e-10
        for _ in range(100):
            u = rng.standard_normal(g.shape[0])
            u *= np.sqrt(p.kappa[0]) / np.linalg.norm(u)
            assert 2 * g @ u <= best + 1e-10


def test_extend_kernel_restriction_and_diagonal(cluster_pipeline):
    emb = cluster_pipeline.embedding
    rho = emb.Xi @ emb.Xi.T
    pts = cluster_pipeline.kernel.points
    for i, j in [(0, 1), (5, 200), (100, 100)]:
        value = extend_kernel(cluster_pipeline.kernel, emb.Xi, pts[i], pts[j])
        assert value == pytest.approx(rho[i, j], abs=1e-8)
    x = np.array([1.7, 0.3])
    p = extend_points(cluster_pipeline.kernel, emb.Xi, [x])
    assert extend_kernel(cluster_pipeline.kernel, emb.Xi, x, x) == pytest.approx(
        p.kappa[0], abs=1e-10
    )


def test_extend_kernel_two_point_product(two_point):
    value = extend_kernel(two_point.kernel, two_point.embedding.Xi, [-0.5], [0.0])
    assert value == pytest.approx(0.8987573 * np.sqrt(C), abs=1e-4)
    assert value == pytest.approx(0.43204, abs=1e-4)


def test_extend_kernel_degenerate_returns_zero(two_point):
    assert extend_kernel(two_point.kernel, two_point.embedding.Xi, [0.5], [0.0]) == 0.0


def test_appendix_double_sum_equivalence(cluster_pipeline):
    # eigenvector-product form vs explicit normalized double sum
    emb = cluster_pipeline.embedding
    rho = emb.Xi @ emb.Xi.T
    K = cluster_pipeline.kernel
    rng = np.random.default_rng(2)
    lo, hi = K.points.min(axis=0), K.points.max(axis=0)
    for _ in range(20):
        x, y = rng.uniform(lo, hi, (2, 2))
        rx, ry = extension_row(K, x), extension_row(K, y)
        qx, qy = rx.kvec @ rho @ rx.kvec, ry.kvec @ rho @ ry.kvec
        if min(qx, qy) <= 0:
            continue
        norm = np.sqrt(rx.kappa / qx) * np.sqrt(ry.kappa / qy)
        double_sum = norm * (rx.kvec @ rho @ ry.kvec)
        product_form = extend_kernel(K, emb.Xi, x, y)
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


def _dense_bordered_eigenvalues(pipeline, xbar):
    """Spectrum of the dense bordered certificate of the extension at xbar."""
    dk, emb = pipeline.kernel, pipeline.embedding
    row = extension_row(dk, xbar)
    H_bar = np.vstack([emb.Xi, extend_points(dk, emb.Xi, [xbar]).coords])
    L_bar = certificate_matrix(bordered_matrix(dk.K, row.kvec, row.kappa), H_bar @ H_bar.T)
    return np.linalg.eigvalsh(L_bar)


def test_extended_certificate_two_point(two_point):
    report, trace_residual = extended_sdp_certificate(two_point.kernel, two_point.embedding, [-0.5])
    assert trace_residual < 1e-8
    # bordering the two-point optimum with this extension stays optimal
    assert report.is_certified
    assert report.slackness_residual < 1e-12
    dense = _dense_bordered_eigenvalues(two_point, [-0.5])
    assert np.allclose(report.least_eigenvalues, dense, rtol=0, atol=1e-12)


def test_extended_certificate_clusters_match_dense_reference(clusters, cluster_pipeline):
    # near the clusters the extension is feasible but not optimal for the
    # bordered program, and the report's spectrum is the dense one
    for i in (0, 150, 305):
        xbar = clusters.points[i] + 0.3
        report, trace_residual = extended_sdp_certificate(
            cluster_pipeline.kernel, cluster_pipeline.embedding, xbar
        )
        assert trace_residual < 1e-12
        assert not report.is_certified
        dense = _dense_bordered_eigenvalues(cluster_pipeline, xbar)[:6]
        assert dense[0] < -1e-4
        assert np.allclose(report.least_eigenvalues, dense, rtol=1e-10, atol=1e-15)


def test_extended_certificate_tolerances_follow_the_kernel_scale(clusters):
    # at sigma = 3e4, max K_ii is 1.8e-10; the bordered extension of a random
    # feasible factor has lambda_min(L_bar) = -37 max K_ii and is not optimal
    dk = build_kernel(clusters.points, 3e4)
    root = np.sqrt(np.diag(dk.K))
    H_Xi = root[:, None] * init_factor(len(root), SolverConfig(seed=7))
    emb = factor_to_embedding(H_Xi, rank_tol=0)
    report, _ = extended_sdp_certificate(dk, emb, clusters.points.mean(axis=0) + 0.1)
    assert not report.is_certified
    assert report.least_eigenvalues[0] < -10 * root.max() ** 2


def test_extended_certificate_rejects_degenerate(two_point):
    with pytest.raises(ValueError, match="degenerate"):
        extended_sdp_certificate(two_point.kernel, two_point.embedding, [0.5])


def test_extended_certificate_canonical_basis_fixture(two_point):
    # bordering with kvec = e_1, kappa = rho_11 and a copy of the first
    # point's coordinates solves the extended program: the bordered
    # certificate is p.s.d. with zero slackness
    Xi = two_point.embedding.Xi
    K_bar = bordered_matrix(two_point.kernel.K, np.array([1.0, 0.0]), float(Xi[0] @ Xi[0]))
    report = check_optimality(K_bar, np.vstack([Xi, Xi[0]]))
    assert report.is_certified
    assert report.least_eigenvalues[0] >= -1e-10
    assert report.slackness_residual < 1e-10
