from dataclasses import replace

import numpy as np
import pytest

from sdpembed import (
    SolverConfig,
    build_interval_problem,
    build_kernel,
    gen_interval_grid,
    run_interval_experiment,
    sign_solution,
)

from conftest import tight_config


def test_grid_sums_match_general_construction():
    for n, sigma in [(51, 0.1), (40, 1.0), (101, 0.7), (401, 1.0)]:
        problem = build_interval_problem(n, sigma)
        dk = build_kernel(gen_interval_grid(n).points, sigma)
        assert np.max(np.abs(problem.K - dk.K)) < 1e-12


def test_small_bandwidth_kernel_takes_both_signs():
    K = build_interval_problem(201, 0.1).K
    assert (K > 0).any() and (K < 0).any()


def test_two_point_grid_reduces_to_closed_form():
    # grid (-1, 1): distance 2, so with sigma = 2 the off-diagonal base
    # value is e^-1 and the closed form matches the unit-distance case
    problem = build_interval_problem(2, 2.0)
    a = np.exp(-1.0)
    c = (1 - a) / (2 * (1 + a))
    assert np.allclose(problem.K, c * np.array([[1, -1], [-1, 1]]), atol=1e-15)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_interval_problem(1, 1.0)
    with pytest.raises(ValueError):
        build_interval_problem(10, 0.0)


def test_sigma_one_even_grid_is_exact_sign_solution():
    # without a node at x = 0 the optimum is the rank-one sign solution to
    # solver precision
    problem = build_interval_problem(200, 1.0)
    report, _ = run_interval_experiment(problem, cfg=tight_config())
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
    problem = build_interval_problem(201, 1.0)
    report, _ = run_interval_experiment(problem, cfg=tight_config())
    assert report.certified and report.converged
    assert report.rank == 2
    mid_diag = problem.K[100, 100]
    assert 0.1 * mid_diag < report.sign_residual < 100 * mid_diag
    assert report.sign_residual > 1e-4


def test_sigma_small_rank_two_with_parity():
    problem = build_interval_problem(201, 0.1)
    report, _ = run_interval_experiment(problem, cfg=tight_config())
    assert report.certified and report.converged
    assert report.rank == 2
    assert report.parity_residuals["chi1_odd"] <= 1e-6
    assert report.parity_residuals["chi2_even"] <= 1e-6


def test_sign_solution_convention():
    problem = build_interval_problem(5, 1.0)
    candidate = sign_solution(problem)
    root = np.sqrt(np.diag(problem.K))
    assert candidate[0, 0] == pytest.approx(root[0] ** 2, rel=1e-12)
    # midpoint gets the +1 convention
    assert candidate[2, 2] == pytest.approx(root[2] ** 2, rel=1e-12)
    assert candidate[0, 4] == pytest.approx(-root[0] * root[4], rel=1e-12)


def test_sign_residual_monotone_in_tolerance():
    # on the even grid, tightening tol_conv cannot increase the residual
    problem = build_interval_problem(100, 1.0)
    residuals = []
    for tol in (1e-4, 1e-8, 1e-12):
        cfg = SolverConfig(tol_conv=tol, seed=0)
        residuals.append(run_interval_experiment(problem, cfg=cfg)[0].sign_residual)
    assert residuals[1] <= residuals[0] + 1e-12
    assert residuals[2] <= residuals[1] + 1e-12


def test_report_fields():
    problem = build_interval_problem(60, 0.7)
    report, _ = run_interval_experiment(problem, cfg=tight_config())
    assert report.n == 60 and report.sigma == 0.7
    assert report.sign_residual is None
    assert report.objective > 0
    # the second singular value is 0.08 of the first here
    coarse, _ = run_interval_experiment(problem, cfg=replace(tight_config(), rank_tol=0.1))
    assert report.rank == 2 and coarse.rank == 1
