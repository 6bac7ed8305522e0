"""Tests of the benchmark itself (not collected by the package's suite):

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from sdpembed import dataio, kernels, pipeline, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not (ROOT / ".bench_work").exists()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "embed_small_sigma", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _paper_set():
    return dataio.gen_three_clusters(100, 8, 12345).points


def test_check_rejects_random_factor_at_large_sigma():
    """At sigma = 3e4 the kernel is tiny, so the absolute tolerances of
    ``certificate.check_optimality`` pass a random feasible factor whose
    objective is far below the optimum; in a run, that disagreement with the
    benchmark's check counts as a failed operation."""
    points, sigma = _paper_set(), 3e4
    K = kernels.diffusion_kernel(kernels.gaussian_gram(points, sigma)).K
    H = solver.init_factor(points.shape[0], solver.SolverConfig(seed=7))
    H_Xi = np.sqrt(np.diag(K))[:, None] * H
    bench = check.certify(check.centered_kernel(points, sigma), H_Xi)
    assert bench["feasible"]
    assert not bench["certified"]
    assert bench["slackness"] > 1e3 * check.SLACK_RTOL


def test_check_agrees_with_library_on_a_certified_optimum():
    points = dataio.gen_three_clusters(20, 8, 0).points
    res = pipeline.embed_points(points, 5.0)
    bench = check.certify(check.centered_kernel(points, 5.0), res.embedding.H_Xi)
    assert res.certificate.is_certified and bench["certified"]
    assert bench["objective"] == pytest.approx(res.certificate.objective, rel=1e-12)
    assert bench["dual_bound"] == pytest.approx(bench["objective"], rel=1e-12)


def test_centered_kernel_matches_library():
    points = _paper_set()
    K = kernels.diffusion_kernel(kernels.gaussian_gram(points, 0.5)).K
    assert np.max(np.abs(check.centered_kernel(points, 0.5) - K)) <= 1e-14 * np.max(np.abs(K))


def test_extension_errors_flag_a_wrong_copy_and_a_wrong_norm():
    stored = np.array([[1.0, 0.0], [0.0, 2.0]])
    radius = np.array([1.0, 2.0])
    good = [(np.array([0.6, 0.8]), 1.0, False), (stored[1].copy(), 4.0, False)]
    assert check.extension_errors(good, stored, {1: 1}, radius) == []
    bad = [(np.array([0.6, 0.9]), 1.0, False), (stored[0].copy(), 1.0, False)]
    errors = check.extension_errors(bad, stored, {1: 1}, radius)
    assert len(errors) == 2
