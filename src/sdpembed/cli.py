"""Command-line front end.

Commands: ``embed``, ``extend``, ``certify``, ``compare``, ``toy``.  Exit
codes are stable across commands: 0 for a certified (and converged) result,
2 for a valid run that is unconverged or uncertified, 1 for errors.  All
artifacts are deterministic functions of the inputs and flags (no
timestamps), so identical invocations produce byte-identical files.
"""

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import dataio, diffmaps, interval, kernels, pipeline, solver
from .certificate import PrimalInfeasibilityError, check_optimality
from .dataio import CsvFormatError, EmbeddingSchemaError
from .embedding import EmbeddingResult
from .extension import extend_points


def _fail(stage, exc):
    print(f"sdpembed: {stage}: {exc}", file=sys.stderr)
    return 1


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(dataio._jsonable(payload), fh, indent=2)
        fh.write("\n")


def _load_points(path):
    """Load a CSV of points, skipping a single leading header row if its
    cells do not parse as numbers."""
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), None)
    if first is None:
        raise CsvFormatError(f"{path}: empty file")

    def _numeric(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    has_header = not all(_numeric(c) for c in first)
    return dataio.load_csv(path, has_header=has_header)


def _solver_config(args):
    return solver.SolverConfig(
        r0=args.r0, max_iters=args.max_iters, tol_conv=args.tol, seed=args.seed
    )


def _embedding_file(result, args, ds):
    emb = result.embedding
    return dataio.EmbeddingFile(
        ids=list(ds.ids),
        coordinates=emb.Xi,
        singular_values=emb.singular_values[: emb.rank],
        metadata={
            "sigma": args.sigma,
            "seed": args.seed,
            "tol_conv": args.tol,
            "max_iters": args.max_iters,
            "r0": args.r0,
            "rank_tol": args.rank_tol,
            "converged": result.factor.converged,
            "iterations": result.factor.iterations,
            "training_points": ds.points,
        },
    )


def _rebuild_from_file(ef):
    meta = ef.metadata
    if "training_points" not in meta:
        raise EmbeddingSchemaError("embedding file has no inlined training points")
    base = kernels.gaussian_gram(
        dataio.Dataset(meta["training_points"]), float(meta["sigma"])
    )
    dk = kernels.diffusion_kernel(base)
    emb = EmbeddingResult(
        Xi=ef.coordinates,
        singular_values=ef.singular_values,
        rank=ef.coordinates.shape[1],
        H_Xi=ef.coordinates,
    )
    return dk, emb


def _certificate_payload(report):
    doc = asdict(report)
    doc["least_eigenvalues"] = list(report.least_eigenvalues)
    return doc


def _exit_code(result):
    return 0 if (result.certificate.is_certified and result.factor.converged) else 2


def cmd_embed(args):
    try:
        ds = _load_points(args.input)
    except (CsvFormatError, OSError) as exc:
        return _fail("input parsing", exc)
    try:
        result = pipeline.embed_points(
            ds.points, args.sigma, config=_solver_config(args), rank_tol=args.rank_tol
        )
    except (ValueError, RuntimeError) as exc:
        return _fail("solve", exc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_embedding(_embedding_file(result, args, ds), out / "embedding.json")
    _write_json(out / "certificate.json", _certificate_payload(result.certificate))
    return _exit_code(result)


def cmd_extend(args):
    try:
        ef = dataio.load_embedding(args.embedding)
        dk, emb = _rebuild_from_file(ef)
    except (EmbeddingSchemaError, OSError, ValueError) as exc:
        return _fail("embedding loading", exc)
    try:
        new = _load_points(args.points)
    except (CsvFormatError, OSError) as exc:
        return _fail("new-points parsing", exc)
    try:
        ext = extend_points(dk, emb, new.points)
    except (ValueError, RuntimeError) as exc:
        return _fail("extension", exc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = zip(new.ids, ext.coords.tolist(), ext.kappa.tolist(), ext.degenerate.tolist())
    with open(out / "extended.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for pid, coords, kappa, flag in rows:
            writer.writerow([pid, *map(repr, coords), repr(kappa), int(flag)])
    return 0


def cmd_certify(args):
    try:
        ef = dataio.load_embedding(args.embedding)
        dk, emb = _rebuild_from_file(ef)
    except (EmbeddingSchemaError, OSError, ValueError) as exc:
        return _fail("embedding loading", exc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = check_optimality(dk.K, emb.H_Xi)
    except PrimalInfeasibilityError as exc:
        print(f"sdpembed: primal feasibility violated: {exc}", file=sys.stderr)
        return 2
    _write_json(out / "certificate.json", _certificate_payload(report))
    return 0 if report.is_certified else 2


def cmd_compare(args):
    try:
        ds = _load_points(args.input)
    except (CsvFormatError, OSError) as exc:
        return _fail("input parsing", exc)
    try:
        result = pipeline.embed_points(
            ds.points, args.sigma, config=_solver_config(args), rank_tol=args.rank_tol
        )
        basis = diffmaps.spectral_basis(result.kernel.base)
        m = min(2, ds.n_points - 1)
        dm_coords = diffmaps.diffusion_map(basis, t=1.0, m=m)
    except (ValueError, RuntimeError) as exc:
        return _fail("solve", exc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_embedding(_embedding_file(result, args, ds), out / "embedding.json")
    _write_json(out / "certificate.json", _certificate_payload(result.certificate))
    with open(out / "dm_embedding.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for pid, row in zip(ds.ids, dm_coords):
            writer.writerow([pid, *[repr(float(c)) for c in row]])
    _write_json(
        out / "dm_eigenvalues.json",
        {"eigenvalues": list(basis.eigenvalues[: min(6, ds.n_points)])},
    )
    return _exit_code(result)


def cmd_toy(args):
    try:
        problem = interval.build_interval_problem(args.n, args.sigma)
        report = interval.run_interval_experiment(
            problem, cfg=_solver_config(args), rank_tol=args.rank_tol
        )
    except (ValueError, RuntimeError) as exc:
        return _fail("toy experiment", exc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "toy_report.json", asdict(report))
    return 0 if (report.certified and report.converged) else 2


def _add_solver_flags(p, needs_sigma):
    if needs_sigma:
        p.add_argument("--sigma", type=float, required=True, help="Gaussian kernel bandwidth")
    defaults = solver.SolverConfig()
    p.add_argument("--r0", type=int, default=defaults.r0, help="factor width (default %(default)s)")
    p.add_argument("--tol", type=float, default=defaults.tol_conv,
                   help="stop at slackness residual <= TOL * max K(i,i) (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters, help="iteration cap")
    p.add_argument("--rank-tol", type=float, default=1e-6, help="relative singular-value cutoff")
    p.add_argument("--seed", type=int, default=0, help="seed for the random start")
    p.add_argument("--out", default=".", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdpembed",
        description="Low-dimensional embeddings from a fixed-diagonal kernel SDP, "
        "with optimality certificates and out-of-sample extension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a CSV point cloud")
    p.add_argument("input", help="CSV of points (optional header row)")
    _add_solver_flags(p, needs_sigma=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extend", help="extend a stored embedding to new points")
    p.add_argument("embedding", help="embedding.json produced by embed/compare")
    p.add_argument("points", help="CSV of new points")
    _add_solver_flags(p, needs_sigma=False)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("certify", help="re-run the certificate on a stored embedding")
    p.add_argument("embedding", help="embedding.json produced by embed/compare")
    _add_solver_flags(p, needs_sigma=False)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("compare", help="embed with both the SDP and diffusion maps")
    p.add_argument("input", help="CSV of points (optional header row)")
    _add_solver_flags(p, needs_sigma=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("toy", help="discretized-interval experiment")
    p.add_argument("n", type=int, help="number of grid points on [-1, 1]")
    _add_solver_flags(p, needs_sigma=True)
    p.set_defaults(func=cmd_toy)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
