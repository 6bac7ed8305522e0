import numpy as np

from sdpembed import SolverConfig, embed_points


def test_r0_capped_at_point_count():
    rng = np.random.default_rng(0)
    result = embed_points(rng.standard_normal((5, 2)), 1.5)
    assert result.factor.H_Xi.shape == (5, 5)
    assert result.certificate.is_certified


def test_config_passed_through():
    rng = np.random.default_rng(1)
    cfg = SolverConfig(r0=3, seed=4, max_iters=5000)
    result = embed_points(rng.standard_normal((12, 2)), 1.5, config=cfg)
    assert result.factor.H_Xi.shape == (12, 3)
    # rigidity holds for any feasible factor, certified or not
    row_sq = np.einsum("ij,ij->i", result.embedding.H_Xi, result.embedding.H_Xi)
    assert np.allclose(row_sq, np.diag(result.kernel.K), atol=1e-12)
