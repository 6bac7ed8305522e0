"""Command-line front end.

Commands: ``embed``, ``extend``, ``certify``, ``compare``, ``toy``.  Exit
codes are stable across commands: 0 for a certified (and converged) result,
2 for a valid run that is unconverged or uncertified (one stderr line then
names each failed test with its value and bound), 1 for errors.  All
artifacts are deterministic functions of the inputs and flags (no
timestamps), so identical invocations produce byte-identical files.
"""

import argparse
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import certificate, dataio, diffmaps, interval, kernels, pipeline
from .certificate import PrimalInfeasibilityError, certify_points
from .dataio import CsvFormatError, EmbeddingSchemaError, _write_csv, _write_json
from .extension import extend_points
from .solver import SolverConfig


class _Failed(Exception):
    """A stage failed and has said so on stderr; the command exits 1."""


@contextmanager
def _stage(name, *errors):
    """Turn ``errors`` raised in the block into one stderr line,
    ``sdpembed: {name}: {exc}``, and an exit code of 1."""
    try:
        yield
    except errors as exc:
        print(f"sdpembed: {name}: {exc}", file=sys.stderr)
        raise _Failed from None


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solver_config(args):
    """The run's settings from the flags, each named after its field."""
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


def _train(args):
    """The training path of ``embed`` and ``compare``: load the CSV, embed
    its points and write ``embedding.json`` and ``certificate.json``.
    Returns the data set, the pipeline result and the output directory."""
    with _stage("input parsing", CsvFormatError, OSError):
        ds = dataio.load_csv(args.input)
    with _stage("solve", ValueError, RuntimeError):
        cfg = _solver_config(args)
        result = pipeline.embed_points(ds.points, args.sigma, config=cfg)
    emb = result.embedding
    model = dataio.EmbeddingFile(
        ids=[str(i) for i in range(ds.n_points)],
        coordinates=emb.Xi,
        singular_values=emb.singular_values[: emb.rank],
        metadata={
            "sigma": args.sigma,
            **asdict(cfg),
            "converged": result.factor.converged,
            "iterations": result.factor.iterations,
            "training_points": ds.points,
        },
    )
    out = _out_dir(args)
    dataio.save_embedding(model, out / "embedding.json")
    _write_json(out / "certificate.json", asdict(result.certificate))
    return ds, result, out


def _load_model(path):
    """A stored embedding's coordinates, training points and sigma."""
    ef = dataio.load_embedding(path)
    meta = ef.metadata
    if "training_points" not in meta:
        raise EmbeddingSchemaError("embedding file has no inlined training points")
    points = dataio._numbers(path, "training_points", meta["training_points"])
    if points.ndim != 2 or len(points) != len(ef.coordinates):
        raise EmbeddingSchemaError(
            f"embedding file has {len(ef.coordinates)} coordinate rows "
            f"but training points of shape {points.shape}"
        )
    sigma = dataio._numbers(path, "sigma", meta["sigma"])
    if sigma.ndim != 0 or not np.isfinite(sigma):
        raise EmbeddingSchemaError(f"{path}: sigma {meta['sigma']!r} is not a finite number")
    return ef.coordinates, points, float(sigma)


def _exit_code(report, factor=None, tol=None):
    """0 for a certified (and converged) run; otherwise 2, after one stderr
    line naming each failed test with its value and bound."""
    if report.is_certified and (factor is None or factor.converged):
        return 0
    scale = report.scale
    failed = []
    if factor is not None and not factor.converged:
        failed.append(
            f"not converged at iteration {factor.iterations}: slackness residual "
            f"{factor.slackness_residual:.3e} > {tol:g} * max K(i,i) = {tol * scale:.3e}"
        )
    tests = []
    if not certificate._slackness_holds(report.slackness_residual, scale):
        tests.append(
            f"slackness residual {report.slackness_residual:.3e} > "
            f"{report.tol_slack:g} * max K(i,i) = {report.tol_slack * scale:.3e}"
        )
    least = certificate._least_bound(report.least_eigenvalues, report.kernel_error_bound)
    if not certificate._eigenvalue_holds(least, scale):
        tests.append(
            f"least eigenvalue of L {least:.3e} < "
            f"-{report.tol_eig:g} * max K(i,i) = {-report.tol_eig * scale:.3e}"
        )
    if tests:
        failed.append("not certified: " + ", ".join(tests))
    print("sdpembed: " + "; ".join(failed), file=sys.stderr)
    return 2


def cmd_embed(args):
    _, result, _ = _train(args)
    return _exit_code(result.certificate, result.factor, args.tol_conv)


def cmd_extend(args):
    with _stage("embedding loading", EmbeddingSchemaError, OSError, ValueError):
        Xi, points, sigma = _load_model(args.embedding)
        kernel = kernels.gaussian_gram(points, sigma)
    with _stage("new-points parsing", CsvFormatError, OSError):
        new = dataio.load_csv(args.points)
    with _stage("extension", ValueError, RuntimeError):
        ext = extend_points(kernel, Xi, new.points)
    columns = [np.arange(new.n_points), *ext.coords.T, ext.kappa, ext.degenerate.astype(int)]
    _write_csv(_out_dir(args) / "extended.csv", columns)
    return 0


def cmd_certify(args):
    with _stage("embedding loading", EmbeddingSchemaError, OSError, ValueError):
        Xi, points, sigma = _load_model(args.embedding)
        points = kernels._checked_points(points, sigma)
    out = _out_dir(args)
    try:
        report = certify_points(points, sigma, Xi)
    except PrimalInfeasibilityError as exc:
        print(f"sdpembed: primal feasibility violated: {exc}", file=sys.stderr)
        return 2
    _write_json(out / "certificate.json", asdict(report))
    return _exit_code(report)


def cmd_compare(args):
    ds, result, out = _train(args)
    with _stage("solve", ValueError, RuntimeError):
        basis = diffmaps.spectral_basis(result.kernel)
        dm_coords = diffmaps.diffusion_map(basis, t=1.0, m=min(2, ds.n_points - 1))
    _write_csv(out / "dm_embedding.csv", [np.arange(ds.n_points), *dm_coords.T])
    _write_json(out / "dm_eigenvalues.json", {"eigenvalues": basis.eigenvalues[:6]})
    return _exit_code(result.certificate, result.factor, args.tol_conv)


def cmd_toy(args):
    with _stage("toy experiment", ValueError, RuntimeError):
        cfg = _solver_config(args)
        report, result = interval.run_interval_experiment(args.n, args.sigma, cfg=cfg)
    _write_json(_out_dir(args) / "toy_report.json", asdict(report))
    return _exit_code(result.certificate, result.factor, args.tol_conv)


def _add_solver_flags(p):
    p.add_argument("--sigma", type=float, required=True, help="Gaussian kernel bandwidth")
    defaults = SolverConfig()
    p.add_argument("--r0", type=int, default=defaults.r0, help="rank cap (default %(default)s)")
    p.add_argument("--tol", dest="tol_conv", metavar="TOL", type=float, default=defaults.tol_conv,
                   help="stop at slackness residual <= TOL * max K(i,i) (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters, help="step cap")
    p.add_argument("--rank-tol", type=float, default=defaults.rank_tol,
                   help="relative singular-value cutoff")
    p.add_argument("--seed", type=int, default=defaults.seed, help="seed for the random start")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdpembed",
        description="Low-dimensional embeddings from a fixed-diagonal kernel SDP, "
        "with optimality certificates and out-of-sample extension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a CSV point cloud")
    p.add_argument("input", help="CSV of points (optional header row)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extend", help="extend a stored embedding to new points")
    p.add_argument("embedding", help="embedding.json produced by embed/compare")
    p.add_argument("points", help="CSV of new points")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("certify", help="re-run the certificate on a stored embedding")
    p.add_argument("embedding", help="embedding.json produced by embed/compare")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("compare", help="embed with both the SDP and diffusion maps")
    p.add_argument("input", help="CSV of points (optional header row)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("toy", help="discretized-interval experiment")
    p.add_argument("n", type=int, help="number of grid points on [-1, 1]")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_toy)

    for p in sub.choices.values():
        p.add_argument("--out", default=".", help="output directory")
    return parser


@kernels._one_blas_thread()
def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failed:
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
