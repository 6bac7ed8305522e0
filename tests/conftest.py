"""Shared fixtures: closed-form two-point problem, cluster data, interval runs."""

import tracemalloc

import numpy as np
import pytest

from sdpembed import SolverConfig, embed_points
from sdpembed import gen_three_clusters, run_interval_experiment

# closed form for two points at distance 1 with sigma = 1: the centered
# kernel is c * [[1, -1], [-1, 1]] with c = (1 - e^-1) / (2 (1 + e^-1))
A = np.exp(-1.0)
C = (1.0 - A) / (2.0 * (1.0 + A))

CLUSTER_SEED = 12345


def tight_config(r0=10, seed=0):
    """Solver settings for certificate-grade accuracy."""
    return SolverConfig(r0=r0, max_iters=20000, tol_conv=1e-13, seed=seed)


def traced_peak(fn, *args):
    """Result of ``fn(*args)`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def two_point():
    """Solved pipeline for the two-point closed-form problem."""
    return embed_points(np.array([[0.0], [1.0]]), 1.0, config=tight_config(r0=2))


@pytest.fixture(scope="session")
def clusters():
    """Three clusters of 100 points each plus 8 outliers."""
    return gen_three_clusters(100, 8, CLUSTER_SEED)


@pytest.fixture(scope="session")
def cluster_pipeline(clusters):
    return embed_points(clusters.points, 5.0, config=tight_config())


@pytest.fixture(scope="session")
def clusters_2k():
    """The clusters at N = 2000 (664 per cluster, seed 3) and sigma = 1, solved
    under defaults."""
    return embed_points(gen_three_clusters(664, 8, 3).points, 1.0)


@pytest.fixture(scope="session")
def interval_results():
    """Interval experiments, (report, pipeline result) cached by (n, sigma)."""
    cache = {}

    def run(n, sigma):
        key = (n, sigma)
        if key not in cache:
            cache[key] = run_interval_experiment(n, sigma, cfg=tight_config())
        return cache[key]

    return run


@pytest.fixture(scope="session")
def random_pipelines():
    """100 solved-and-certified pipelines on random Gaussian clouds.

    The family is N in [10, 24], d in [1, 3] and sigma in [0.3, 2.5]; at the
    small bandwidths some optima need a factor wider than 2, so the rank
    staircase climbs.  The base seed is logged so failures are reproducible.
    """
    base_seed = 20240
    print(f"\n[random_pipelines] base seed {base_seed}, trials 100")
    results = []
    for trial in range(100):
        rng = np.random.default_rng(base_seed + trial)
        n = int(rng.integers(10, 25))
        d = int(rng.integers(1, 4))
        points = rng.standard_normal((n, d))
        sigma = float(rng.uniform(0.3, 2.5))
        results.append(
            (trial, embed_points(points, sigma, config=tight_config(seed=trial)))
        )
    return results
