import numpy as np
import pytest

from sdpembed import (
    diffusion_map,
    gaussian_gram,
    gen_three_clusters,
    spectral_basis,
)
from sdpembed.diagnostics import diffusion_distance, transition_matrix

from conftest import A


def _base(seed=0, n=20, d=2, sigma=1.2):
    rng = np.random.default_rng(seed)
    return gaussian_gram(rng.standard_normal((n, d)), sigma)


def test_transition_two_point_closed_form():
    p = transition_matrix(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    expected = np.array([[1.0, A], [A, 1.0]]) / (1.0 + A)
    assert np.allclose(p, expected, atol=1e-15)


def test_transition_single_point():
    p = transition_matrix(gaussian_gram(np.zeros((1, 1)), 1.0))
    assert np.array_equal(p, [[1.0]])


def test_transition_rows_sum_to_one():
    p = transition_matrix(_base(1))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)


def test_spectral_basis_two_point_eigenvalues():
    basis = spectral_basis(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    expected = (1.0 - A) / (1.0 + A)
    assert basis.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert basis.eigenvalues[1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.4621171573, abs=1e-9)


def test_spectral_basis_invariants():
    base = _base(2)
    basis = spectral_basis(base)
    n = base.points.shape[0]
    assert basis.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(basis.eigenvalues) <= 1e-14)
    assert np.all(basis.eigenvalues >= 0)
    # psi_0 is the constant vector of ones
    assert np.allclose(basis.psi[:, 0], 1.0, atol=1e-8)
    # bi-orthogonality phi_l . psi_m = delta_lm
    assert np.allclose(basis.phi.T @ basis.psi, np.eye(n), atol=1e-8)
    # phi_l = phi0 * psi_l and phi0 is a distribution
    assert np.allclose(basis.phi, basis.phi0[:, None] * basis.psi, atol=1e-10)
    assert basis.phi0.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(basis.phi0 > 0)


def test_spectral_basis_diagonalizes_transition():
    base = _base(3, n=12)
    basis = spectral_basis(base)
    p = transition_matrix(base)
    reconstructed = basis.psi @ np.diag(basis.eigenvalues) @ basis.phi.T
    assert np.allclose(reconstructed, p, atol=1e-10)


def test_cluster_spectrum_has_gap_after_three():
    # three well-separated clusters: lambda_1, lambda_2 near 1, then a gap
    ds = gen_three_clusters(100, 0, seed=12345)
    basis = spectral_basis(gaussian_gram(ds.points, 1.5))
    assert basis.eigenvalues[1] > 0.9
    assert basis.eigenvalues[2] > 0.9
    assert basis.eigenvalues[3] < 0.5


def test_diffusion_map_shapes_and_truncation():
    base = _base(4, n=10)
    basis = spectral_basis(base)
    full = diffusion_map(basis, t=1.0, m=9)
    assert full.shape == (10, 9)
    assert np.allclose(diffusion_map(basis, t=1.0, m=3), full[:, :3], atol=0)
    with pytest.raises(ValueError):
        diffusion_map(basis, t=1.0, m=10)
    with pytest.raises(ValueError):
        diffusion_map(basis, t=1.0, m=0)


def test_diffusion_map_two_point_closed_form():
    basis = spectral_basis(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    coords = diffusion_map(basis, t=1.0, m=1)
    lam1 = (1.0 - A) / (1.0 + A)
    # psi_1 = u_1 / sqrt(phi0) = (1, -1) up to sign; the sign convention
    # makes the first entry positive
    assert np.allclose(coords.ravel(), [lam1, -lam1], atol=1e-12)


def test_diffusion_map_t_zero_gives_raw_psi():
    base = _base(5, n=8)
    basis = spectral_basis(base)
    coords = diffusion_map(basis, t=0.0, m=7)
    assert np.allclose(coords, basis.psi[:, 1:8], atol=0)


def test_diffusion_distance_identity_and_closed_form():
    base = gaussian_gram(np.array([[0.0], [1.0]]), 1.0)
    basis = spectral_basis(base)
    assert diffusion_distance(basis, 1.0, 0, 0) == 0.0
    # direct sum over the transition rows weighted by 1/phi0
    p = transition_matrix(base)
    phi0 = base.degrees / base.volume
    direct = np.sqrt(np.sum((p[0] - p[1]) ** 2 / phi0))
    assert diffusion_distance(basis, 1.0, 0, 1) == pytest.approx(direct, abs=1e-12)


def test_diffusion_distance_matches_definition_random_cloud():
    # oracle: matrix powers of p, no spectral machinery
    base = _base(6, n=20)
    basis = spectral_basis(base)
    p = transition_matrix(base)
    phi0 = base.degrees / base.volume
    for t in (1, 2, 3):
        pt = np.linalg.matrix_power(p, t)
        for i, j in [(0, 1), (3, 17), (5, 5), (2, 19)]:
            direct = np.sqrt(np.sum((pt[i] - pt[j]) ** 2 / phi0))
            assert diffusion_distance(basis, t, i, j) == pytest.approx(direct, abs=1e-8)


def test_isometry_full_map():
    base = _base(7, n=15)
    basis = spectral_basis(base)
    coords = diffusion_map(basis, t=1.5, m=14)
    for i in range(15):
        for j in range(i, 15):
            spectral = np.linalg.norm(coords[i] - coords[j])
            assert diffusion_distance(basis, 1.5, i, j) == pytest.approx(
                spectral, abs=1e-8
            )


def test_diffusion_kernel_identity():
    # Psi_t Psi_t^T equals p_{2t}(x, y)/phi0(y) - 1
    base = _base(8, n=12)
    basis = spectral_basis(base)
    p = transition_matrix(base)
    phi0 = base.degrees / base.volume
    t = 2
    coords = diffusion_map(basis, t=float(t), m=11)
    Kt = coords @ coords.T
    p2t = np.linalg.matrix_power(p, 2 * t)
    assert np.allclose(Kt, p2t / phi0[None, :] - 1.0, atol=1e-8)


def test_truncation_error_monotone():
    # weighted least-squares reconstruction error never grows with m
    base = _base(9, n=14)
    basis = spectral_basis(base)
    p = transition_matrix(base)
    phi0 = base.degrees / base.volume
    t = 1
    errors = []
    for m in range(1, 14):
        approx = (
            basis.psi[:, :m] * basis.eigenvalues[:m] ** t
        ) @ basis.phi[:, :m].T
        residual = p - approx
        errors.append(float(np.sum(phi0 * np.sum(residual**2 / phi0[None, :], axis=1))))
    assert all(e_next <= e + 1e-12 for e, e_next in zip(errors, errors[1:]))
