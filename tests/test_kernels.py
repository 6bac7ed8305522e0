import numpy as np
import pytest

from sdpembed import (
    Dataset,
    check_volume_inequalities,
    diffusion_kernel,
    extension_row,
    gaussian_gram,
)

from conftest import A, C


def _random_base(seed, n=30, d=2, sigma=1.0):
    rng = np.random.default_rng(seed)
    return gaussian_gram(rng.standard_normal((n, d)), sigma)


def test_gram_two_points():
    base = gaussian_gram(np.array([[0.0], [1.0]]), 1.0)
    assert base.gram[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert np.array_equal(np.diag(base.gram), [1.0, 1.0])
    assert base.degrees == pytest.approx([1 + A, 1 + A])
    assert base.volume == pytest.approx(2 * (1 + A))


def test_gram_diagonal_is_one():
    base = _random_base(0)
    assert np.array_equal(np.diag(base.gram), np.ones(30))


def test_gram_large_bandwidth_limit():
    base = gaussian_gram(np.array([[0.0], [0.5], [1.0]]), 1e6)
    assert np.allclose(base.gram, 1.0, atol=1e-10)
    assert np.allclose(base.degrees, 3.0, atol=1e-9)
    assert base.volume == pytest.approx(9.0, abs=1e-8)


def test_gram_rejects_bad_input():
    with pytest.raises(ValueError, match="sigma"):
        gaussian_gram(np.zeros((2, 1)), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        gaussian_gram(np.array([[np.nan]]), 1.0)


def test_diffusion_kernel_two_point_closed_form():
    dk = diffusion_kernel(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    assert np.allclose(dk.K, C * np.array([[1, -1], [-1, 1]]), atol=1e-15)
    assert C == pytest.approx(0.2310585786, abs=1e-9)


def test_diffusion_kernel_identical_points():
    dk = diffusion_kernel(gaussian_gram(np.zeros((2, 3)), 1.0))
    assert np.allclose(dk.K, 0.0, atol=1e-15)


def test_kernel_annihilates_root_degrees():
    base = _random_base(1)
    dk = diffusion_kernel(base)
    assert np.max(np.abs(dk.K @ np.sqrt(base.degrees))) < 1e-10
    # e0 is the corresponding unit vector
    assert np.linalg.norm(dk.e0) == pytest.approx(1.0, abs=1e-12)


def test_kernel_exact_symmetry_and_spectrum():
    for seed in range(5):
        base = _random_base(seed, n=25, sigma=float(1.0 + seed))
        dk = diffusion_kernel(base)
        assert np.max(np.abs(dk.K - dk.K.T)) == 0.0
        eigs = np.linalg.eigvalsh(dk.K)
        assert eigs[-1] < 1.0
        assert eigs[0] >= -1e-10 * eigs[-1]


def test_kernel_diagonal_formula():
    base = _random_base(2)
    dk = diffusion_kernel(base)
    expected = 1.0 / base.degrees - base.degrees / base.volume
    assert np.allclose(np.diag(dk.K), expected, atol=1e-14)
    assert np.all(np.diag(dk.K) >= 0)


def test_extension_row_restricts_to_training_rows():
    base = _random_base(3, n=20)
    dk = diffusion_kernel(base)
    for i in range(20):
        row = extension_row(dk, base.points[i])
        assert np.max(np.abs(row.kvec - dk.K[i])) < 1e-12
        assert abs(row.kappa - dk.K[i, i]) < 1e-12


def test_extension_row_two_point_fixture():
    # hand evaluation: dbar = e^-0.25 + e^-2.25, kappa = 1/dbar - dbar/vol,
    # kvec_i = k(xbar, x_i)/sqrt(dbar d_i) - sqrt(dbar d_i)/vol
    dk = diffusion_kernel(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    row = extension_row(dk, [-0.5])
    kx = np.array([np.exp(-0.25), np.exp(-2.25)])
    dbar = kx.sum()
    vol = 2 * (1 + A)
    mixed = np.sqrt(dbar * (1 + A))
    assert row.dbar == pytest.approx(dbar, abs=1e-15)
    assert row.dbar == pytest.approx(0.88420, abs=5e-6)
    assert np.allclose(row.kvec, kx / mixed - mixed / vol, atol=1e-15)
    assert row.kvec[0] == pytest.approx(0.30615, abs=5e-5)
    assert row.kvec[1] == pytest.approx(-0.30616, abs=5e-5)
    assert row.kappa == pytest.approx(1 / dbar - dbar / vol, abs=1e-15)
    assert row.kappa == pytest.approx(0.80777, abs=1e-5)


def test_extension_row_symmetry_midpoint_near_degenerate():
    dk = diffusion_kernel(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    row = extension_row(dk, [0.5])
    assert row.kvec[0] == pytest.approx(row.kvec[1], abs=1e-15)
    assert abs(row.kvec[0]) < 1e-4


def test_extension_row_dimension_mismatch():
    dk = diffusion_kernel(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    with pytest.raises(ValueError, match="dimension"):
        extension_row(dk, [0.0, 1.0])


def test_extension_row_rejects_point_without_weight():
    dk = diffusion_kernel(gaussian_gram(np.array([[0.0], [1.0]]), 1.0))
    with pytest.raises(ValueError, match="no kernel weight"):
        extension_row(dk, [100.0])


def test_volume_inequalities_gaussian_base():
    report = check_volume_inequalities(_random_base(4))
    assert report.ok and report.worst_slack >= -1e-12


def test_volume_inequalities_single_point():
    report = check_volume_inequalities(gaussian_gram(np.zeros((1, 2)), 1.0))
    assert report.ok
    assert report.worst_slack == pytest.approx(0.0, abs=1e-15)


def test_volume_inequalities_brute_force():
    # recompute both inequalities with explicit sums as the oracle
    rng = np.random.default_rng(5)
    points = rng.standard_normal((50, 3))
    probes = rng.standard_normal((20, 3))
    base = gaussian_gram(points, 1.3)
    report = check_volume_inequalities(base, probes)
    assert report.ok and report.n_checked == 70

    vol = sum(
        np.exp(-np.sum((x - y) ** 2) / 1.3**2) for x in points for y in points
    )
    for x in np.vstack([points, probes]):
        degree = sum(np.exp(-np.sum((x - y) ** 2) / 1.3**2) for y in points)
        assert degree**2 <= 1.0 * vol * (1 + 1e-12)


def test_volume_inequality_property_random_clouds():
    # 120 random instances of the degree-volume inequality, training + probes
    for trial in range(120):
        rng = np.random.default_rng(9000 + trial)
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        base = gaussian_gram(rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0),
                             float(rng.uniform(0.2, 4.0)))
        probes = rng.standard_normal((5, d))
        report = check_volume_inequalities(base, probes)
        assert report.ok, f"trial {trial}: slack {report.worst_slack}"


def test_gaussian_gram_accepts_dataset():
    ds = Dataset(np.array([[0.0], [1.0]]))
    base = gaussian_gram(ds, 1.0)
    assert base.gram.shape == (2, 2)
