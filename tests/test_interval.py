from dataclasses import replace

import numpy as np
import pytest

from sdpembed import (
    SolverConfig,
    build_kernel,
    embed_points,
    extend_points,
    gen_interval_grid,
    run_interval_experiment,
    sign_solution,
)

from conftest import tight_config, traced_peak


def _grid_kernel(n, sigma):
    return build_kernel(gen_interval_grid(n).points, sigma).K


def test_grid_sums_match_general_construction():
    # the interval kernel's integrals as plain sums over the grid
    for n, sigma in [(51, 0.1), (40, 1.0), (101, 0.7), (401, 1.0)]:
        grid = gen_interval_grid(n).points[:, 0]
        gram = np.exp(-((grid[:, None] - grid[None, :]) ** 2) / sigma**2)
        degree = gram.sum(axis=1)
        mixed = np.sqrt(np.outer(degree, degree))
        grid_sums = gram / mixed - mixed / degree.sum()
        assert np.max(np.abs(grid_sums - _grid_kernel(n, sigma))) < 1e-12


def test_small_bandwidth_kernel_takes_both_signs():
    K = _grid_kernel(201, 0.1)
    assert (K > 0).any() and (K < 0).any()


def test_two_point_grid_reduces_to_closed_form():
    # grid (-1, 1): distance 2, so with sigma = 2 the off-diagonal base
    # value is e^-1 and the closed form matches the unit-distance case
    K = _grid_kernel(2, 2.0)
    a = np.exp(-1.0)
    c = (1 - a) / (2 * (1 + a))
    assert np.allclose(K, c * np.array([[1, -1], [-1, 1]]), atol=1e-15)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        run_interval_experiment(1, 1.0)
    with pytest.raises(ValueError):
        run_interval_experiment(10, 0.0)


def test_sigma_one_even_grid_is_exact_sign_solution():
    # without a node at x = 0 the optimum is the rank-one sign solution to
    # solver precision
    report, _ = run_interval_experiment(200, 1.0, cfg=tight_config())
    assert report.certified and report.converged
    assert report.rank == 1
    assert report.sign_residual <= 1e-8
    assert report.parity_residuals["chi1_odd"] <= 1e-8


def test_sigma_one_odd_grid_midpoint_defect():
    """Characterization of the odd-grid behavior at sigma = 1.

    The node at x = 0 has an even kernel row, so its pairing with the odd
    sign vector cancels exactly; the optimum keeps a second eigenvalue of
    order K(0, 0) and deviates from the sign formula by O(1/n).  The
    solution is still certified; it is simply not the sign solution.
    """
    report, result = run_interval_experiment(201, 1.0, cfg=tight_config())
    assert report.certified and report.converged
    assert report.rank == 2
    mid_diag = result.kernel.K[100, 100]
    assert 0.1 * mid_diag < report.sign_residual < 100 * mid_diag
    assert report.sign_residual > 1e-4


def test_sigma_small_rank_two_with_parity():
    report, _ = run_interval_experiment(201, 0.1, cfg=tight_config())
    assert report.certified and report.converged
    assert report.rank == 2
    assert report.parity_residuals["chi1_odd"] <= 1e-6
    assert report.parity_residuals["chi2_even"] <= 1e-6


def test_sign_solution_convention():
    kernel = build_kernel(gen_interval_grid(5).points, 1.0)
    v = sign_solution(kernel)
    assert v.shape == (5, 1)
    candidate = v @ v.T
    root = np.sqrt(np.diag(kernel.K))
    assert candidate[0, 0] == pytest.approx(root[0] ** 2, rel=1e-12)
    # midpoint gets the +1 convention
    assert candidate[2, 2] == pytest.approx(root[2] ** 2, rel=1e-12)
    assert candidate[0, 4] == pytest.approx(-root[0] * root[4], rel=1e-12)


def test_sign_residual_monotone_in_tolerance():
    # on the even grid, tightening tol_conv cannot increase the residual
    residuals = []
    for tol in (1e-4, 1e-8, 1e-12):
        cfg = SolverConfig(tol_conv=tol, seed=0)
        residuals.append(run_interval_experiment(100, 1.0, cfg=cfg)[0].sign_residual)
    assert residuals[1] <= residuals[0] + 1e-12
    assert residuals[2] <= residuals[1] + 1e-12


def test_report_fields():
    report, _ = run_interval_experiment(60, 0.7, cfg=tight_config())
    assert report.n == 60 and report.sigma == 0.7
    assert report.sign_residual is None
    assert report.objective > 0
    # the second singular value is 0.08 of the first here
    coarse, _ = run_interval_experiment(60, 0.7, cfg=replace(tight_config(), rank_tol=0.1))
    assert report.rank == 2 and coarse.rank == 1


def test_experiment_holds_no_square_array_beyond_the_pipeline():
    # below the Lanczos cutoff embed_points peaks at K and the dense
    # certificate's L; the sign residual is taken over row blocks of the
    # factor and adds no N x N array.  A first solve imports numpy.random,
    # which neither peak should count.
    points = gen_interval_grid(1000).points
    embed_points(points[::100], 1.0)
    _, peak = traced_peak(run_interval_experiment, 1000, 1.0)
    result, pipeline_peak = traced_peak(embed_points, points, 1.0)
    assert peak <= pipeline_peak + 0.1 * result.kernel.K.nbytes


@pytest.mark.parametrize("sigma", [0.5, 0.3])
def test_grid_solutions_converge_at_first_order(sigma):
    # E(n) ~ E_inf + c / n: the objective's steps halve as n doubles, and so
    # does the error of the n-grid model extended to the 2n grid, with both
    # coordinates scaled by the root of their grid size (K ~ 1 / n)
    sizes = (100, 200, 400, 800)
    results = {n: run_interval_experiment(n, sigma)[1] for n in sizes}
    assert all(r.certificate.is_certified and r.embedding.rank == 2 for r in results.values())
    steps = np.diff([results[n].factor.objective for n in sizes])
    errors = []
    for n in sizes[:-1]:
        coarse, fine = results[n], results[2 * n]
        ext = extend_points(coarse.kernel, coarse.embedding.Xi, fine.kernel.points).coords
        ext *= np.sqrt(n)
        ref = fine.embedding.Xi * np.sqrt(2 * n)
        ext *= np.sign(np.sum(ext * ref, axis=0))
        errors.append(np.max(np.abs(ext - ref)) / np.max(np.abs(ref)))
    for sequence in (steps, np.array(errors)):
        ratios = sequence[:-1] / sequence[1:]
        assert np.all((1.9 <= ratios) & (ratios <= 2.1)), ratios
