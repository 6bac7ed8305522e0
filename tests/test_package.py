"""The package namespace and the command line load the main path alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sdpembed
import sdpembed.diagnostics

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import sdpembed, sdpembed.cli
loaded = "sdpembed.diagnostics" in sys.modules
# nor does an import look up the BLAS library, whose thread count only a call holds
blas = sdpembed.kernels._openblas.cache_info().misses
unresolved = [name for name in sdpembed.__all__ if not hasattr(sdpembed, name)]
import sdpembed.diagnostics
shared = sorted(set(sdpembed.__all__) & set(sdpembed.diagnostics.__all__))
missing = [n for n in sdpembed.diagnostics.__all__ if not hasattr(sdpembed.diagnostics, n)]
print(json.dumps({"loaded": loaded, "unresolved": unresolved, "shared": shared,
                  "missing": missing, "blas": blas}))
"""


def test_main_path_does_not_load_diagnostics():
    # a fresh interpreter, so no other test has imported the module already
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(run.stdout) == {
        "loaded": False,
        "unresolved": [],
        "shared": [],
        "missing": [],
        "blas": 0,
    }


def test_public_names_are_pinned():
    # a change to the public surface has to change this list too
    assert sdpembed.__all__ == [
        "CsvFormatError",
        "Dataset",
        "EmbeddingFile",
        "EmbeddingSchemaError",
        "PrimalInfeasibilityError",
        "SolverConfig",
        "build_kernel",
        "check_optimality",
        "diffusion_map",
        "embed_points",
        "extend_points",
        "factor_to_embedding",
        "gaussian_gram",
        "gen_interval_grid",
        "gen_swiss_roll",
        "gen_three_clusters",
        "load_csv",
        "load_embedding",
        "objective",
        "run_interval_experiment",
        "save_csv",
        "save_embedding",
        "sign_solution",
        "solve",
        "spectral_basis",
        "standardize",
    ]
    # the helpers only the research checks, tests and demos use
    for name in ("diffusion_distance", "extend_kernel", "transition_matrix"):
        assert name in sdpembed.diagnostics.__all__
