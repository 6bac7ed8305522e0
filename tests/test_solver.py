from dataclasses import asdict, replace

import numpy as np
import pytest

from sdpembed import (
    SolverConfig,
    build_kernel,
    check_optimality,
    gen_interval_grid,
    objective,
    solve,
)

from sdpembed.solver import _WINDOW, _solve, _unit_rows, init_factor

from conftest import C, tight_config


def _two_point_kernel():
    return build_kernel(np.array([[0.0], [1.0]]), 1.0).K


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r0=1)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol_conv must be positive and finite"):
            SolverConfig(tol_conv=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_config_is_frozen_keyword_only_and_checks_every_field():
    cfg = SolverConfig()
    with pytest.raises(AttributeError):
        cfg.seed = 1
    with pytest.raises(TypeError):
        SolverConfig(0)
    # the fields in the order embedding.json records them
    assert list(asdict(cfg)) == ["seed", "tol_conv", "max_iters", "r0", "rank_tol"]
    for kwargs, message in [
        ({"r0": 1}, "r0 must be at least 2"),
        ({"max_iters": 0}, "max_iters must be at least 1"),
        ({"tol_conv": np.nan}, "tol_conv must be positive and finite, got nan"),
        ({"rank_tol": 1.5}, "rank_tol must be in [0, 1), got 1.5"),
        ({"rank_tol": -1e-6}, "rank_tol must be in [0, 1), got -1e-06"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"r0": 2.5}, "r0 must be an integer, got 2.5"),
        ({"r0": True}, "r0 must be an integer, got True"),
        ({"max_iters": 100.5}, "max_iters must be an integer, got 100.5"),
        ({"max_iters": np.float64(100.0)}, "max_iters must be an integer, got 100.0"),
        # checked in the order r0, max_iters, tol_conv, rank_tol, seed
        ({"seed": -1, "rank_tol": 2.0, "r0": 0}, "r0 must be at least 2"),
        ({"seed": -1, "rank_tol": 2.0}, "rank_tol must be in [0, 1), got 2.0"),
    ]:
        with pytest.raises(ValueError) as exc:
            SolverConfig(**kwargs)
        assert str(exc.value) == message
    assert SolverConfig(seed=np.int64(3), rank_tol=0.0).seed == 3


def test_unit_rows_three_four_five():
    out = _unit_rows(np.array([[3.0, 4.0]]), None)
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_unit_rows_idempotent_on_unit_rows():
    rng = np.random.default_rng(1)
    H = _unit_rows(rng.standard_normal((10, 4)), None)
    assert np.allclose(_unit_rows(H, None), H, atol=1e-15)


def test_unit_rows_zero_row_policy():
    rng = np.random.default_rng(2)
    M = np.zeros((3, 5))
    M[0, 0] = 2.0
    out = _unit_rows(M, rng)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="zero row"):
        _unit_rows(np.zeros((2, 3)), None)


def test_init_factor_unit_rows_and_determinism():
    cfg = SolverConfig(r0=6, seed=42)
    H = init_factor(50, cfg)
    assert H.shape == (50, 6)
    assert np.allclose(np.linalg.norm(H, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(H, init_factor(50, cfg))
    cfg2 = SolverConfig(r0=2, seed=0)
    assert init_factor(2, cfg2).shape == (2, 2)


def test_objective_top_eigenspace_oracle():
    # orthonormal columns spanning the top-r eigenspace give the sum of the
    # top r eigenvalues (no row feasibility required for the identity)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((12, 12))
    J = M @ M.T
    w, V = np.linalg.eigh(J)
    r = 4
    H = V[:, -r:]
    assert objective(J, H) == pytest.approx(np.sum(w[-r:]), rel=1e-12)


def test_objective_indicator_rows():
    J = np.diag([1.0, 2.0, 3.0])
    H = np.zeros((3, 2))
    H[1, 0] = 1.0
    assert objective(J, H) == pytest.approx(2.0, abs=0)


def test_objective_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        objective(np.eye(3), np.ones((2, 2)))


def test_solve_two_point_closed_form():
    state = solve(_two_point_kernel(), tight_config(r0=2))
    assert state.converged
    assert state.objective == pytest.approx(4 * C**2, abs=1e-12)
    rho = state.H_Xi @ state.H_Xi.T
    assert np.allclose(rho / C, [[1, -1], [-1, 1]], atol=1e-12)


def test_solve_diagonal_coupling_is_immediate():
    # every feasible rho of a diagonal K is optimal, with Tr(rho K) = sum K_ii^2
    K = np.diag([0.3, 0.7, 1.1])
    state = solve(K, SolverConfig(r0=2, seed=1))
    assert state.objective == pytest.approx(np.sum(np.diag(K) ** 2), abs=1e-12)
    assert state.converged


def test_solve_nonnegative_kernel_gives_rank_one():
    K = np.array([[1.0, 0.5], [0.5, 1.0]])
    state = solve(K, tight_config(r0=2, seed=3))
    assert np.allclose(state.H_Xi @ state.H_Xi.T, np.ones((2, 2)), atol=1e-10)


def test_solve_matches_trace_identity():
    # Tr(rho K) = E(H_Xi) under rho = H_Xi H_Xi^T, on a feasible factor
    rng = np.random.default_rng(4)
    dk = build_kernel(rng.standard_normal((18, 2)), 1.5)
    state = solve(dk.K, tight_config())
    assert np.allclose(np.linalg.norm(state.H_Xi, axis=1), np.sqrt(np.diag(dk.K)), rtol=1e-12)
    rho = state.H_Xi @ state.H_Xi.T
    assert np.sum(dk.K * rho) == pytest.approx(state.objective, rel=1e-10)


def test_solve_deterministic():
    rng = np.random.default_rng(5)
    dk = build_kernel(rng.standard_normal((10, 2)), 1.0)
    cfg = SolverConfig(seed=7, r0=5)
    a = solve(dk.K, cfg)
    b = solve(dk.K, cfg)
    assert np.array_equal(a.H_Xi, b.H_Xi)
    assert a.objective == b.objective and a.iterations == b.iterations


def test_solve_unconverged_flag():
    rng = np.random.default_rng(6)
    dk = build_kernel(rng.standard_normal((12, 2)), 1.0)
    state = solve(dk.K, SolverConfig(max_iters=1, tol_conv=1e-15))
    assert not state.converged
    assert state.iterations == 1


def test_solve_rejects_zero_diagonal():
    K = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="index 0"):
        solve(K, SolverConfig(r0=2))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-10])
def test_solve_rejects_indefinite_coupling(scale):
    # an indefinite K with positive diagonal (eigenvalues -1.28, 0.33, 1.06,
    # 1.09) on which the objective decreases; found by a seeded search over
    # random 3- to 5-point matrices with one-decimal entries.  The guard
    # follows the scale of K, so it fires on small kernels too.
    K = scale * np.array(
        [
            [0.1, 0.6, -0.1, 0.5],
            [0.6, 0.2, -0.3, -0.9],
            [-0.1, -0.3, 0.8, -0.4],
            [0.5, -0.9, -0.4, 0.1],
        ]
    )
    with pytest.raises(RuntimeError, match="decreased"):
        solve(K, SolverConfig(r0=2, seed=0))


def test_solve_r0_exceeding_n_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        solve(np.eye(3), SolverConfig(r0=4))


def test_iteration_preserves_feasibility_and_monotonicity():
    # manual replay of the iteration through the public pieces
    rng = np.random.default_rng(8)
    dk = build_kernel(rng.standard_normal((16, 2)), 1.2)
    root = np.sqrt(np.diag(dk.K))
    cfg = SolverConfig(r0=6, seed=9)
    H_Xi = root[:, None] * init_factor(16, cfg)
    energy = objective(dk.K, H_Xi)
    for _ in range(200):
        H_Xi = root[:, None] * _unit_rows(dk.K @ H_Xi, None)
        assert np.max(np.abs(np.linalg.norm(H_Xi, axis=1) / root - 1.0)) < 1e-12
        new_energy = objective(dk.K, H_Xi)
        assert new_energy >= energy - 1e-12 * max(1.0, abs(new_energy))
        energy = new_energy


def _power_steps(K, k, cfg):
    """k bare power steps at width 2 from the solver's start."""
    root = np.sqrt(np.diag(K))[:, None]
    rng = np.random.default_rng(cfg.seed)
    Y = init_factor(K.shape[0], replace(cfg, r0=2), rng)
    for _ in range(k):
        Y = _unit_rows(K @ (root * Y), rng)
    return root * Y


def test_solve_replays_the_bare_iteration():
    # with a tolerance no iterate can reach, the residual never falls fast
    # enough, so solve() takes exactly _WINDOW plain steps at width 2 before
    # the trust region, and max_iters = k <= _WINDOW stops it after k
    rng = np.random.default_rng(10)
    dk = build_kernel(rng.standard_normal((14, 2)), 1.0)
    for k in (1, 7, _WINDOW):
        cfg = SolverConfig(seed=1, max_iters=k, tol_conv=1e-300)
        state = solve(dk.K, cfg)
        assert not state.converged and state.iterations == k
        assert state.products == k + 1
        H_Xi = _power_steps(dk.K, k, cfg)
        assert np.array_equal(state.H_Xi, H_Xi)
        assert state.objective == pytest.approx(objective(dk.K, H_Xi), rel=1e-13)
    # the next step is a trust-region step, which costs more than one product
    cfg = SolverConfig(seed=1, max_iters=_WINDOW + 1, tol_conv=1e-300)
    state = solve(dk.K, cfg)
    assert state.iterations == _WINDOW + 1 and state.products > _WINDOW + 2
    assert not np.array_equal(state.H_Xi, _power_steps(dk.K, _WINDOW + 1, cfg))
    assert state.objective >= objective(dk.K, _power_steps(dk.K, _WINDOW, cfg))


def test_probe_stops_where_the_power_steps_stall():
    # the same run as above: with probe it returns the iterate its power
    # steps stalled at, bit for bit, before any trust-region step
    rng = np.random.default_rng(10)
    dk = build_kernel(rng.standard_normal((14, 2)), 1.0)
    cfg = SolverConfig(seed=1, tol_conv=1e-300)
    state, stalled = _solve(dk.K, cfg, None, cfg.max_iters, probe=True)
    assert stalled and not state.converged and state.certificate is None
    assert state.iterations == _WINDOW and state.products == _WINDOW + 1
    assert np.array_equal(state.H_Xi, _power_steps(dk.K, _WINDOW, cfg))
    # a run that does not stall is solve()'s own
    K = _two_point_kernel()
    state, stalled = _solve(K, tight_config(r0=2), None, 20000, probe=True)
    assert not stalled
    assert np.array_equal(state.H_Xi, solve(K, tight_config(r0=2)).H_Xi)


def test_solve_from_a_start_factor():
    rng = np.random.default_rng(4)
    K = build_kernel(rng.standard_normal((18, 2)), 1.5).K
    cold = solve(K, tight_config())
    # rows of any length are scaled to unit length; the optimum's own rows
    # are a stationary start, so the run stops at once
    warm = solve(K, tight_config(), start=3.0 * cold.H_Xi)
    assert warm.converged and warm.iterations == 0 and warm.products == 1
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    # a random start of width 3 keeps its width
    start = rng.standard_normal((18, 3))
    wide = solve(K, tight_config(r0=3), start=start)
    assert wide.converged and wide.H_Xi.shape == (18, 3)
    assert wide.objective == pytest.approx(cold.objective, rel=1e-12)
    # a budget of 0 steps only evaluates the start
    state, _ = _solve(K, tight_config(r0=3), start, 0)
    assert state.iterations == 0 and state.products == 1
    root = np.sqrt(np.diag(K))[:, None]
    assert np.array_equal(state.H_Xi, root * _unit_rows(start, None))
    for shape in ((18, 1), (18, 4), (17, 3), (18,)):
        with pytest.raises(ValueError, match="start must be"):
            solve(K, tight_config(r0=3), start=np.ones(shape))
    with pytest.raises(ValueError, match="start must be finite"):
        solve(K, tight_config(r0=3), start=np.full((18, 2), np.nan))


def test_solve_follows_the_paper_coupling_iteration():
    # the paper's form: unit rows H <- P(J H) with J = ddiag(K)^1/2 K ddiag(K)^1/2;
    # the power steps of solve() run on H_Xi = ddiag(K)^1/2 H and never form J
    rng = np.random.default_rng(11)
    dk = build_kernel(rng.standard_normal((20, 2)), 0.8)
    root = np.sqrt(np.diag(dk.K))
    J = np.outer(root, root) * dk.K
    for k in (1, 7, _WINDOW):
        cfg = SolverConfig(seed=2, max_iters=k, tol_conv=1e-300)
        state = solve(dk.K, cfg)
        H = init_factor(20, replace(cfg, r0=2))
        for _ in range(k):
            H = _unit_rows(J @ H, None)
        assert np.max(np.abs(state.H_Xi - root[:, None] * H)) <= 1e-12 * root.max()
        assert state.objective == pytest.approx(objective(J, H), rel=1e-12)


def _certified_residual(K, state):
    return check_optimality(K, state.H_Xi).slackness_residual


def _assert_stopped_on_certificate_residual(K, state, reported):
    scale = np.max(np.diag(K))
    assert state.converged
    assert state.slackness_residual <= tight_config().tol_conv * scale
    # both sit at the rounding floor here, so they agree in absolute terms
    assert abs(state.slackness_residual - reported) <= 1e-13 * scale


def test_cluster_pipeline_stops_on_certificate_residual(cluster_pipeline):
    _assert_stopped_on_certificate_residual(
        cluster_pipeline.kernel.K,
        cluster_pipeline.factor,
        cluster_pipeline.certificate.slackness_residual,
    )


def test_odd_interval_stops_on_certificate_residual():
    K = build_kernel(gen_interval_grid(201).points, 1.0).K
    state = solve(K, tight_config())
    _assert_stopped_on_certificate_residual(K, state, _certified_residual(K, state))
    # far from the rounding floor the two formulas agree in relative terms
    early = solve(K, SolverConfig(max_iters=10))
    assert not early.converged
    assert early.slackness_residual == pytest.approx(_certified_residual(K, early), rel=1e-9)


def test_cluster_pipeline_stops_without_a_blind_phase(cluster_pipeline):
    assert cluster_pipeline.factor.converged
    assert cluster_pipeline.factor.iterations <= 200
