"""Regenerate ``bench/reference.json``, the values the correctness gate and
``objective_ratio`` compare against.

    PYTHONPATH=src python3 bench/make_reference.py

For the strict workload (the stored model of the 2k clusters at sigma = 5)
each case is one ``embed_points`` run with default settings, which certifies:
the reference is its rank and objective.  For ``embed_small_sigma``, which does
not certify under defaults, each case is a long run with a tight tolerance
(``LONG``) and the reference is the best objective it reaches.  Every case also
records the weak-duality bound ``Tr(K rho) + max(0, -lambda_min(L)) Tr(K)``,
an upper bound on the optimum that no feasible result may exceed.  Objectives
and bounds come from ``check.py``, not from the library.  Takes about five
minutes on two cores.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sdpembed import dataio, pipeline, solver  # noqa: E402

import check  # noqa: E402
from workloads import N_OUTLIERS, REFERENCE_FILE, SIZES, case_key  # noqa: E402

LONG = solver.SolverConfig(max_iters=400_000, tol_conv=1e-15)


def reference_case(points, sigma, config):
    t0 = time.perf_counter()
    res = pipeline.embed_points(points, sigma, config=config)
    bench = check.certify(check.centered_kernel(points, sigma), res.embedding.H_Xi)
    return {
        "rank": res.embedding.rank,
        "objective": bench["objective"],
        "dual_bound": bench["dual_bound"],
        "certified": bench["certified"],
        "iterations": res.factor.iterations,
        "converged": res.factor.converged,
        "solver": "default" if config is None else f"max_iters={config.max_iters} tol_conv={config.tol_conv}",
        "seconds": round(time.perf_counter() - t0, 1),
    }


def main():
    doc = {}
    for size, workloads in SIZES.items():
        table = doc.setdefault(size, {})
        for wl in workloads.values():
            for data_seed, sigma in wl.cases():
                key = case_key(data_seed, sigma)
                if key in table:
                    continue
                points = dataio.gen_three_clusters(wl.n_per_cluster, N_OUTLIERS, data_seed).points
                table[key] = reference_case(points, sigma, None if wl.strict else LONG)
                print(size, key, table[key], flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
