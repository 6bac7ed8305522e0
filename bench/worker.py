"""Worker processes of the benchmark: ``setup`` builds a run's inputs, ``load``
runs its operations.

    python3 bench/worker.py setup WORKLOAD SEED DIR [--size tiny] [--trace]
    python3 bench/worker.py load  WORKLOAD SEED DIR --seconds S [--size tiny] [--trace]

Both are started by ``bench/run.py`` with ``src`` on ``PYTHONPATH``; each is a
fresh process, so a set-up pays the package import and the load process's
peak resident memory is that of the workload alone.  ``load`` calls only the
package's public entry points (``pipeline.embed_points`` and
``cli.main``) inside its timed regions and writes what it observed to
``DIR/ops.json`` and ``DIR/op*/``, which ``run.py`` checks afterwards.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sdpembed  # noqa: E402
from sdpembed import cli, dataio, pipeline, solver  # noqa: E402

import tracer  # noqa: E402
from workloads import N_COPIES, N_OUTLIERS, SIZES, MIN_OPS, new_point_seed  # noqa: E402


def _write_new_points(path, fresh, train, rng):
    """Write the fresh points followed by ``N_COPIES`` copied training points;
    return {row: training index} for the copies."""
    picks = rng.choice(train.shape[0], size=N_COPIES, replace=False)
    dataio.save_csv(dataio.Dataset(np.vstack([fresh, train[picks]])), path)
    return {str(fresh.shape[0] + i): int(j) for i, j in enumerate(picks)}


def setup(wl, seed, out):
    """Generate the run's training set and new points; for a serving
    workload also train and store the model with ``sdpembed embed``."""
    out.mkdir(parents=True, exist_ok=True)
    n_fresh = wl.n_new - N_COPIES
    per_cluster = -(-max(n_fresh - N_OUTLIERS, 0) // 3)
    rng = np.random.default_rng(new_point_seed(seed))
    fresh = dataio.gen_three_clusters(per_cluster, N_OUTLIERS, new_point_seed(seed)).points[:n_fresh]
    s = wl.data_seed_for(seed)
    train = dataio.gen_three_clusters(wl.n_per_cluster, N_OUTLIERS, s).points
    np.save(out / f"train_{s}.npy", train)
    cases = {str(s): {"copies": _write_new_points(out / f"new_{s}.csv", fresh, train, rng)}}
    if not wl.trains:
        dataio.save_csv(dataio.Dataset(train), out / "train.csv")
        code = cli.main(
            ["embed", str(out / "train.csv"), "--sigma", repr(wl.sigmas[0]), "--out", str(out / "model")]
        )
        if code != 0:
            raise SystemExit(f"set-up: sdpembed embed exited {code}")
    with open(out / "inputs.json", "w") as fh:
        json.dump({"cases": cases, "sdpembed": sdpembed.__file__}, fh)


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def _serve(model, new_csv, opdir):
    """Extend the stored model to the new points, then re-certify it."""
    code_extend, t_extend = _timed(
        cli.main, ["extend", str(model), str(new_csv), "--out", str(opdir / "extend")]
    )
    code_certify, t_certify = _timed(
        cli.main, ["certify", str(model), "--out", str(opdir / "certify")]
    )
    return {
        "extend_code": code_extend,
        "extend_s": t_extend,
        "certify_code": code_certify,
        "certify_s": t_certify,
    }


def _store(result, points, sigma, path):
    """Save a training result in the file format of ``sdpembed embed``."""
    emb = result.embedding
    cfg = solver.SolverConfig()
    dataio.save_embedding(
        dataio.EmbeddingFile(
            ids=[str(i) for i in range(points.shape[0])],
            coordinates=emb.Xi,
            singular_values=emb.singular_values[: emb.rank],
            metadata={
                "sigma": sigma,
                "seed": cfg.seed,
                "tol_conv": cfg.tol_conv,
                "max_iters": cfg.max_iters,
                "r0": cfg.r0,
                "training_points": points,
            },
        ),
        path,
    )


def run_op(wl, seed, work, opdir):
    """One operation.  Only the calls into the package are timed."""
    opdir.mkdir(parents=True)
    s = wl.data_seed_for(seed)
    new_csv = work / f"new_{s}.csv"
    if not wl.trains:
        serve = _serve(work / "model" / "embedding.json", new_csv, opdir)
        op_s = serve["extend_s"] + serve["certify_s"]
        return {"data_seed": s, "op_s": op_s, "timed_s": op_s, "results": [serve]}
    points = np.load(work / f"train_{s}.npy")
    results, embed_s = [], 0.0
    for i, sigma in enumerate(wl.sigmas):
        res, t = _timed(pipeline.embed_points, points, sigma)
        embed_s += t
        rdir = opdir / f"r{i}"
        rdir.mkdir()
        np.save(rdir / "H_Xi.npy", res.embedding.H_Xi)
        _store(res, points, sigma, rdir / "embedding.json")
        record = {
            "sigma": sigma,
            "embed_s": t,
            "rank": res.embedding.rank,
            "iterations": res.factor.iterations,
            "converged": res.factor.converged,
            "certified": res.certificate.is_certified,
            "objective": res.certificate.objective,
        }
        # free the N x N arrays before serving, so peak memory is that of
        # the larger of the two steps, not of both at once
        del res
        results.append({**record, **_serve(rdir / "embedding.json", new_csv, rdir)})
    timed_s = embed_s + sum(r["extend_s"] + r["certify_s"] for r in results)
    return {"data_seed": s, "op_s": embed_s, "timed_s": timed_s, "results": results}


def load(wl, seed, work, seconds, trace):
    """Closed loop, one operation at a time, until ``seconds`` have passed
    and at least ``MIN_OPS`` operations ran.  With ``trace``, operations
    alternate untraced and traced, the first one untraced."""
    ops = []
    tr = tracer.Tracer() if trace else None
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        k = len(ops)
        traced = tr is not None and k % 2 == 1
        if traced:
            tr.begin_phase(f"op{k}")
            tr.install()
        try:
            record = run_op(wl, seed, work, work / f"op{k}")
        except Exception:  # a failed operation is counted, not fatal
            record = {"error": traceback.format_exc(limit=-4)}
        finally:
            if traced:
                tr.uninstall()
        record["traced"] = traced
        ops.append(record)
    doc = {"ops": ops, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tr is not None:
        doc["trace"] = tr.summary()
    with open(work / "ops.json", "w") as fh:
        json.dump(doc, fh)


def main(argv=None):
    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("role", choices=("setup", "load"))
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("dir", type=Path)
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    wl = SIZES[args.size][args.workload]
    if args.role == "setup":
        tr = tracer.Tracer() if args.trace else None
        if tr is not None:
            tr.begin_phase("setup")
            tr.install()
        try:
            setup(wl, args.seed, args.dir)
        finally:
            if tr is not None:
                tr.uninstall()
                with open(args.dir / "setup_trace.json", "w") as fh:
                    json.dump(tr.summary(), fh)
    else:
        load(wl, args.seed, args.dir, args.seconds, args.trace)


if __name__ == "__main__":
    main()
