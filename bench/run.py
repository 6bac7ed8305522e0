"""Benchmark of sdpembed: time to a certified embedding, out-of-sample
throughput, and the cost of each module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ``./src``.
The workloads and metrics are declared in ``BENCHMARK.json`` and described
in ``bench/README.md``.  Set-up runs several times, each in a fresh
``bench/worker.py setup`` process; the operations run in one
``bench/worker.py load`` process; then this process checks every output with
``check.py``, which does not use the library.  The last line printed is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(from spans recorded around the package's public functions) with
``--trace 1``.  Scratch files go to ``.bench_work/`` and are removed on exit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from workloads import GATE_RTOL, SIZES, case_key, load_reference  # noqa: E402

WORKER = Path(__file__).resolve().with_name("worker.py")
# every child must end well inside the 180 s a run may take
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The run could not be carried out (as opposed to an operation failing)."""


def _child(role, args, work, env, trace, seconds=None):
    cmd = [sys.executable, str(WORKER), role, args.workload, str(args.seed), str(work), "--size", args.size]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {role} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return elapsed


def _read_extended(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rows.append((np.array([float(c) for c in cells[1:-2]]), float(cells[-2]), cells[-1] == "1"))
    return rows


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Checks one run's outputs against ``check.py`` and the references."""

    def __init__(self, wl, work, reference):
        self.wl = wl
        self.work = work
        self.reference = reference
        self.copies = {s: {int(r): j for r, j in c["copies"].items()}
                       for s, c in _read_json(work / "inputs.json")["cases"].items()}
        self.ratios = []
        self.verdicts = []
        self.degenerate = 0
        self.extended = 0

    def _ref(self, data_seed, sigma):
        return self.reference[case_key(data_seed, sigma)]

    def _gate(self, bench, ref, rank):
        """Problems of a result whose independent check is ``bench``."""
        problems = []
        if not bench["feasible"]:
            problems.append(f"row feasibility off by {bench['feasibility']:.2e} of lambda_max(K)")
        if bench["objective"] > ref["dual_bound"] + GATE_RTOL * abs(ref["dual_bound"]):
            problems.append(f"objective {bench['objective']!r} above the dual bound {ref['dual_bound']!r}")
        if self.wl.strict:
            if not bench["certified"]:
                problems.append("not certified by the benchmark's check")
            if rank != ref["rank"]:
                problems.append(f"rank {rank}, reference {ref['rank']}")
            if abs(bench["objective"] - ref["objective"]) > GATE_RTOL * abs(ref["objective"]):
                problems.append(f"objective {bench['objective']!r}, reference {ref['objective']!r}")
        self.ratios.append(bench["objective"] / ref["objective"])
        return problems

    def _served(self, served, model, certified, data_seed, radius):
        """Problems of one `sdpembed extend` + `sdpembed certify` pair;
        ``radius`` is sqrt(diag K) of the model's training points."""
        problems = []
        expected = 0 if certified else 2
        if served["certify_code"] != expected:
            problems.append(f"sdpembed certify exited {served['certify_code']}, expected {expected}")
        if served["extend_code"] != 0:
            return problems + [f"sdpembed extend exited {served['extend_code']}"]
        rows = _read_extended(served["dir"] / "extend" / "extended.csv")
        if len(rows) != self.wl.n_new:
            return problems + [f"sdpembed extend wrote {len(rows)} rows for {self.wl.n_new} points"]
        self.extended += len(rows)
        self.degenerate += sum(r[2] for r in rows)
        stored = np.asarray(_read_json(model)["coordinates"]) if certified else None
        problems += check.extension_errors(rows, stored, self.copies[str(data_seed)], radius)
        return problems[:5]

    def op_problems(self, op, k):
        if "error" in op:
            return [op["error"]]
        s = op["data_seed"]
        opdir = self.work / f"op{k}"
        problems = []
        if not self.wl.trains:
            served = {**op["results"][0], "dir": opdir}
            return self._served(served, self.work / "model" / "embedding.json", True, s, self.model_radius)
        points = np.load(self.work / f"train_{s}.npy")
        for i, r in enumerate(op["results"]):
            rdir = opdir / f"r{i}"
            K = check.centered_kernel(points, r["sigma"])
            bench = check.certify(K, np.load(rdir / "H_Xi.npy"))
            self.verdicts.append(bench["certified"])
            if bench["certified"] != r["certified"]:
                problems.append(f"sigma={r['sigma']}: library certified={r['certified']}, "
                                f"benchmark certified={bench['certified']}")
            if abs(r["objective"] - bench["objective"]) > GATE_RTOL * abs(bench["objective"]):
                problems.append(f"sigma={r['sigma']}: library objective {r['objective']!r}, "
                                f"benchmark {bench['objective']!r}")
            problems += [f"sigma={r['sigma']}: {p}" for p in self._gate(bench, self._ref(s, r["sigma"]), r["rank"])]
            problems += self._served({**r, "dir": rdir}, rdir / "embedding.json",
                                     bench["certified"] and r["certified"], s, np.sqrt(np.diag(K)))
        return problems

    def model_problems(self, data_seed):
        """Independent check of the model that a serving workload's set-up
        stored; it is the same for every operation."""
        sigma = self.wl.sigmas[0]
        Xi = np.asarray(_read_json(self.work / "model" / "embedding.json")["coordinates"])
        points = np.load(self.work / f"train_{data_seed}.npy")
        K = check.centered_kernel(points, sigma)
        self.model_radius = np.sqrt(np.diag(K))
        bench = check.certify(K, Xi)
        self.verdicts.append(bench["certified"])
        return self._gate(bench, self._ref(data_seed, sigma), Xi.shape[1])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(wl, setup_times, doc, ok_ops, checker):
    served = [r for op in ok_ops for r in op["results"]]
    return {
        "setup_s": (_median(setup_times), "s"),
        "embed_s": (_median([op["op_s"] for op in ok_ops]), "s"),
        "certify_s": (_median([r["certify_s"] for r in served]), "s"),
        "extend_points_per_s": (_median([wl.n_new / r["extend_s"] for r in served]), "1/s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "objective_ratio": (min(checker.ratios) if checker.ratios else 0.0, "ratio"),
    }


def per_layer(doc, setup_trace):
    """Layer times are seconds per operation, the median over traced
    operations; a function that no operation calls (the solver on a serving
    workload) is taken from the traced set-up instead."""
    op_phases = list(doc["trace"].values())

    def phases_with(names):
        ops = [ph for ph in op_phases if any(n in ph["calls"] for n in names)]
        if ops:
            return ops
        return [setup_trace] if any(n in setup_trace["calls"] for n in names) else []

    def seconds(name, kind="incl"):
        return _median([ph[kind].get(name, 0.0) for ph in phases_with([name])])

    def info(name, key):
        return [v for ph in phases_with([name]) for v in ph["info"].get(name, {}).get(key, [])]

    def cli_self():
        names = {n for ph in op_phases + [setup_trace] for n in ph["calls"] if n.startswith("cli.")}
        return _median([sum(v for n, v in ph["self"].items() if n.startswith("cli."))
                        for ph in phases_with(names)])

    def fraction(values):
        return sum(values) / len(values) if values else 0.0

    solve_s = sum(ph["incl"].get("solver.solve", 0.0) for ph in phases_with(["solver.solve"]))
    iterations = info("solver.solve", "iterations")
    calls = [ph["calls"].get("extension.extend_point", 0) for ph in phases_with(["extension.extend_point"])]
    ok = [(k, op) for k, op in enumerate(doc["ops"]) if "error" not in op]
    traced = [op["timed_s"] for k, op in ok if op["traced"]]
    untraced = [op["timed_s"] for k, op in ok if not op["traced"]]
    # time inside the timed regions that no traced call covers
    unaccounted = [
        op["timed_s"] - sum(doc["trace"][f"op{k}"]["top"].get(n, 0.0) for n in ("pipeline.embed_points", "cli.main"))
        for k, op in ok if op["traced"]
    ]
    return {
        "kernels.gaussian_gram_s": (seconds("kernels.gaussian_gram"), "s"),
        "kernels.diffusion_kernel_s": (seconds("kernels.diffusion_kernel"), "s"),
        "solver.build_coupling_s": (seconds("solver.build_coupling"), "s"),
        "solver.solve_s": (seconds("solver.solve"), "s"),
        "solver.iterations": (_median(iterations), "count"),
        "solver.s_per_iteration": (solve_s / sum(iterations) if iterations else 0.0, "s"),
        "solver.converged_fraction": (fraction(info("solver.solve", "converged")), "fraction"),
        "embedding.factor_to_embedding_s": (seconds("embedding.factor_to_embedding"), "s"),
        "embedding.rank": (_median(info("embedding.factor_to_embedding", "rank")), "count"),
        "certificate.check_optimality_s": (seconds("certificate.check_optimality"), "s"),
        "certificate.slackness_residual": (max(info("certificate.check_optimality", "slackness"), default=0.0), "abs"),
        "certificate.least_eigenvalue": (min(info("certificate.check_optimality", "least_eigenvalue"), default=0.0), "abs"),
        "certificate.certified_fraction": (fraction(info("certificate.check_optimality", "certified")), "fraction"),
        "extension.extend_point_s": (seconds("extension.extend_point"), "s"),
        "extension.calls": (_median(calls), "count"),
        "extension.degenerate_fraction": (fraction(info("extension.extend_point", "degenerate")), "fraction"),
        "dataio.load_csv_s": (seconds("dataio.load_csv"), "s"),
        "dataio.load_embedding_s": (seconds("dataio.load_embedding"), "s"),
        "dataio.save_embedding_s": (seconds("dataio.save_embedding"), "s"),
        "cli.self_s": (cli_self(), "s"),
        "pipeline.embed_points_self_s": (seconds("pipeline.embed_points", "self"), "s"),
        "trace.overhead_s": (_median(traced) - _median(untraced), "s"),
        "trace.unaccounted_s": (_median(unaccounted), "s"),
    }


def _src_lines(src):
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def run(args, root):
    wl = SIZES[args.size][args.workload]
    src = root / "src"
    if not (src / "sdpembed" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {src}/sdpembed; run from the root of a checkout")
    threads = min(2, len(os.sched_getaffinity(0)))
    # a fixed glibc mmap threshold returns every freed N x N array to the
    # system, so peak_rss_mb counts arrays alive at once rather than heap
    # fragmentation, which varied by 26 MB with the inputs
    env = dict(os.environ, PYTHONPATH=str(src), MALLOC_MMAP_THRESHOLD_=str(1 << 20))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        trace = bool(args.trace)
        setup_times = [_child("setup", args, work, env, trace) for _ in range(wl.setups)]
        imported = Path(_read_json(work / "inputs.json")["sdpembed"]).resolve()
        if src.resolve() not in imported.parents:
            raise BenchError(f"workers imported sdpembed from {imported}, not from {src}")
        _child("load", args, work, env, trace, seconds=args.seconds)
        doc = _read_json(work / "ops.json")
        checker = Checker(wl, work, load_reference(args.size))
        shared = [] if wl.trains else checker.model_problems(wl.data_seed_for(args.seed))
        failed = 0
        for k, op in enumerate(doc["ops"]):
            problems = shared + checker.op_problems(op, k)
            if problems:
                failed += 1
                print(f"op {k} FAILED: " + "; ".join(problems), file=sys.stderr)
        ok_ops = [op for op in doc["ops"] if "error" not in op]
        if trace:
            metrics = per_layer(doc, _read_json(work / "setup_trace.json")["setup"])
        else:
            metrics = end_to_end(wl, setup_times, doc, ok_ops, checker)
        context = {
            "workload": wl.name,
            "seed": args.seed,
            "data_seeds": sorted({op["data_seed"] for op in ok_ops}),
            "N": wl.n_train,
            "M": wl.n_new,
            "sigmas": list(wl.sigmas),
            "operations": len(doc["ops"]),
            "certified_fraction": sum(checker.verdicts) / max(1, len(checker.verdicts)),
            "objective_gap": 1.0 - min(checker.ratios, default=1.0),
            "degenerate_extensions": checker.degenerate,
            "extended_points": checker.extended,
            "blas_threads": threads,
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "src_lines": _src_lines(src),
        }
        return context, metrics, len(doc["ops"]), failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv=None):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=sorted(SIZES), help="tiny: smoke-test sizes")
    args = p.parse_args(argv)
    try:
        context, metrics, attempted, failed = run(args, Path.cwd())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("context " + json.dumps(context))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
