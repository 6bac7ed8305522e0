import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdpembed import (
    extend_points,
    gaussian_gram,
    gen_three_clusters,
    load_csv,
    load_embedding,
    save_csv,
)
from sdpembed import PrimalInfeasibilityError, kernels
from sdpembed.certificate import certify_points
from sdpembed.cli import _load_model, main

from conftest import C


@pytest.fixture(scope="module")
def cluster_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "clusters.csv"
    save_csv(gen_three_clusters(100, 8, 12345), path)
    return str(path)


@pytest.fixture(scope="module")
def two_point_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "two.csv"
    path.write_text("0\n1\n")
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_embed_clusters_certified(cluster_csv, tmp_path):
    out = tmp_path / "run"
    code = main(["embed", cluster_csv, "--sigma", "5", "--out", str(out)])
    assert code == 0
    ef = load_embedding(out / "embedding.json")
    assert ef.coordinates.shape == (308, 2)
    cert = _read_json(out / "certificate.json")
    assert cert["is_certified"] is True
    assert len(cert["least_eigenvalues"]) == 6
    assert cert["least_eigenvalues"] == sorted(cert["least_eigenvalues"])


def test_embed_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\n1,oops\n")
    code = main(["embed", str(bad), "--sigma", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "row 2" in err and "column 2" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sigma", "nan"], "solve: sigma must be finite, got nan"),
        (["--sigma", "inf"], "solve: sigma must be finite, got inf"),
        (["--sigma", "1", "--tol", "nan"], "solve: tol_conv must be positive and finite, got nan"),
        (["--sigma", "1", "--rank-tol", "1.5"], "solve: rank_tol must be in [0, 1), got 1.5"),
        (["--sigma", "1", "--rank-tol", "nan"], "solve: rank_tol must be in [0, 1), got nan"),
        (["--sigma", "1", "--seed", "-1"], "solve: seed must be a non-negative integer, got -1"),
        (["--sigma", "1", "--max-iters", "0"], "solve: max_iters must be at least 1"),
    ],
)
def test_embed_rejects_settings_out_of_range(flags, message, two_point_csv, tmp_path, capsys):
    # a setting out of range is one stderr line and exit 1, not a traceback
    # or a run to the step cap
    out = tmp_path / "run"
    assert main(["embed", two_point_csv, *flags, "--r0", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"sdpembed: {message}\n"
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("a kernel was built")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rank-tol", "1.5"], "rank_tol must be in [0, 1), got 1.5"),
        (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ],
    ids=["rank-tol", "seed"],
)
def test_embed_rejects_rank_tol_before_any_kernel(
    flags, message, two_point_csv, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("sdpembed.kernels.gaussian_gram", _refuse)
    monkeypatch.setattr("sdpembed.kernels.build_kernel", _refuse)
    out = tmp_path / "run"
    argv = ["embed", two_point_csv, "--sigma", "1", *flags, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"sdpembed: solve: {message}\n"
    assert not out.exists()


def test_embedding_json_records_every_setting(two_point_csv, tmp_path):
    # the metadata holds sigma, then every field of SolverConfig in its order
    out = tmp_path / "run"
    flags = ["--sigma", "2", "--seed", "3", "--tol", "1e-11", "--max-iters", "9000",
             "--r0", "4", "--rank-tol", "1e-5"]
    assert main(["embed", two_point_csv, *flags, "--out", str(out)]) == 0
    meta = _read_json(out / "embedding.json")["metadata"]
    assert list(meta) == ["sigma", "seed", "tol_conv", "max_iters", "r0", "rank_tol",
                          "converged", "iterations", "training_points"]
    assert {k: meta[k] for k in list(meta)[:6]} == {
        "sigma": 2.0, "seed": 3, "tol_conv": 1e-11, "max_iters": 9000, "r0": 4, "rank_tol": 1e-5,
    }
    assert meta["converged"] is True and meta["training_points"] == [[0.0], [1.0]]


def test_toy_rejects_sigma_before_the_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sdpembed.dataio.gen_interval_grid", _refuse)
    out = tmp_path / "toy"
    assert main(["toy", "21", "--sigma", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "sdpembed: toy experiment: sigma must be finite, got nan\n"
    assert not out.exists()


def test_extend_and_certify_take_only_out(tmp_path, capsys):
    for argv in (
        ["extend", "model.json", "new.csv", "--r0", "5"],
        ["certify", "model.json", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_embed_unconverged_exit_two(cluster_csv, tmp_path):
    out = tmp_path / "run"
    code = main(
        ["embed", cluster_csv, "--sigma", "1", "--r0", "2",
         "--max-iters", "1", "--tol", "1e-13", "--out", str(out)]
    )
    assert code == 2
    ef = load_embedding(out / "embedding.json")
    assert ef.metadata["converged"] is False


def test_embed_exit_two_names_the_failed_tests(cluster_csv, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["embed", cluster_csv, "--sigma", "5", "--max-iters", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("sdpembed: not converged at iteration 1: slackness residual ")
    assert err.count("\n") == 1
    cert = _read_json(out / "certificate.json")
    residual = f"slackness residual {cert['slackness_residual']:.3e} > "
    assert f"{residual}1e-12 * max K(i,i) = " in err
    assert f"not certified: {residual}1e-08 * max K(i,i) = " in err
    assert f"least eigenvalue of L {cert['least_eigenvalues'][0]:.3e} < -1e-08 *" in err


def test_certify_sign_flip_names_the_least_eigenvalue(two_point_csv, tmp_path, capsys):
    # flipping one point's coordinates keeps the row norms but gives
    # rho = c ones, where K rho = 0: the slackness holds and L = -K is indefinite
    out = tmp_path / "run"
    assert main(
        ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]
    ) == 0
    doc = _read_json(out / "embedding.json")
    doc["coordinates"][0] = [-v for v in doc["coordinates"][0]]
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", str(flipped), "--out", str(out)]) == 2
    cert = _read_json(out / "certificate.json")
    assert cert["is_certified"] is False
    assert capsys.readouterr().err == (
        f"sdpembed: not certified: least eigenvalue of L {-2 * C:.3e} "
        f"< -1e-08 * max K(i,i) = {-1e-8 * C:.3e}\n"
    )


def test_embed_byte_identical_artifacts(two_point_csv, tmp_path):
    args = ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--seed", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("embedding.json", "certificate.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_embed_and_certify_write_the_same_bytes_at_one_and_two_blas_threads(tmp_path, capsys):
    # N = 1508, where the products with K are dealt in blocks and Lanczos
    # decides the certificate; the caller's OpenBLAS count is restored after
    # every command, also after a failed stage
    blas = kernels._openblas()
    if blas is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, set_ = blas
    save_csv(gen_three_clusters(500, 8, 3), tmp_path / "train.csv")
    before = get()
    try:
        for threads in (1, 2):
            set_(threads)
            count, out = get(), tmp_path / str(threads)
            assert main(["embed", str(tmp_path / "train.csv"), "--sigma", "5", "--out", str(out)]) == 0
            assert main(["certify", str(out / "embedding.json"), "--out", str(out / "certify")]) == 0
            assert get() == count
            assert main(["certify", str(tmp_path / "missing.json"), "--out", str(out)]) == 1
            assert "embedding loading" in capsys.readouterr().err
            assert get() == count
    finally:
        set_(before)
    for name in ("embedding.json", "certificate.json", "certify/certificate.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_extend_training_points_roundtrip(cluster_csv, tmp_path):
    out = tmp_path / "run"
    assert main(["embed", cluster_csv, "--sigma", "5", "--out", str(out)]) == 0
    code = main(["extend", str(out / "embedding.json"), cluster_csv, "--out", str(out)])
    assert code == 0
    ef = load_embedding(out / "embedding.json")
    with open(out / "extended.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 308
    for row, stored in zip(rows, ef.coordinates):
        coords = np.array([float(v) for v in row[1:-2]])
        assert np.max(np.abs(coords - stored)) < 1e-8
        assert row[-1] == "0"


def test_extend_two_point_fixture(two_point_csv, tmp_path):
    out = tmp_path / "run"
    assert main(
        ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]
    ) == 0
    new = tmp_path / "new.csv"
    new.write_text("-0.5\n0.5\n")
    assert main(["extend", str(out / "embedding.json"), str(new), "--out", str(out)]) == 0
    with open(out / "extended.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[0][1]) == pytest.approx(0.8988, abs=5e-5)
    assert rows[0][-1] == "0"
    # the symmetry midpoint is flagged degenerate
    assert rows[1][-1] == "1"


def test_extend_byte_identical_artifacts(cluster_csv, tmp_path):
    out = tmp_path / "run"
    assert main(["embed", cluster_csv, "--sigma", "5", "--out", str(out)]) == 0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for dest in (out_a, out_b):
        assert main(["extend", str(out / "embedding.json"), cluster_csv, "--out", str(dest)]) == 0
    assert (out_a / "extended.csv").read_bytes() == (out_b / "extended.csv").read_bytes()


@pytest.mark.parametrize("model", ["two_point", "clusters"])
def test_extended_csv_matches_csv_writer(model, cluster_csv, two_point_csv, tmp_path):
    # the column-wise writer gives the bytes of csv.writer, flags included
    if model == "clusters":
        train, new, sigma = cluster_csv, cluster_csv, "5"
    else:
        train, new, sigma = two_point_csv, tmp_path / "new.csv", "1"
        new.write_text("-0.5\n0.5\n-0.35\n2.0\n")
    out = tmp_path / "run"
    assert main(["embed", train, "--sigma", sigma, "--r0", "2", "--out", str(out)]) == 0
    assert main(["extend", str(out / "embedding.json"), str(new), "--out", str(out)]) == 0
    Xi, points, sigma = _load_model(out / "embedding.json")
    base = gaussian_gram(points, sigma)
    ds = load_csv(new)
    ext = extend_points(base, Xi, ds.points)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        rows = zip(ext.coords.tolist(), ext.kappa.tolist(), ext.degenerate.tolist())
        for pid, (coords, kappa, flag) in enumerate(rows):
            writer.writerow([pid, *map(repr, coords), repr(kappa), int(flag)])
    assert (out / "extended.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert ext.degenerate.any() == (model == "two_point")


def test_extend_allocates_no_square_array(tmp_path):
    # a stored model of N = 1208 points: extend reads the degrees from row
    # blocks of Gaussian weights and builds no N x N gram or K
    train, new = tmp_path / "train.csv", tmp_path / "new.csv"
    save_csv(gen_three_clusters(400, 8, 3), train)
    save_csv(gen_three_clusters(100, 8, 4), new)
    assert main(["embed", str(train), "--sigma", "5", "--out", str(tmp_path)]) == 0
    tracemalloc.start()
    try:
        code = main(["extend", str(tmp_path / "embedding.json"), str(new), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 0.5 * 1208 * 1208 * 8


@pytest.fixture(scope="module")
def model_2k(tmp_path_factory):
    """The clusters at N = 2000 (seed 3) stored by ``sdpembed embed`` at
    sigma = 5, where ``certify`` takes the factored certificate."""
    out = tmp_path_factory.mktemp("model_2k")
    save_csv(gen_three_clusters(664, 8, 3), out / "train.csv")
    assert main(["embed", str(out / "train.csv"), "--sigma", "5", "--out", str(out)]) == 0
    return out / "embedding.json"


def test_certify_builds_no_square_array(model_2k, tmp_path, monkeypatch):
    # the pivoted Cholesky factor of the gram, its room for N / 20 = 100
    # rows of N beside the 80 rows of A it returns, sets the peak: 0.100 of
    # the K that the dense certificate builds (the weight pass, with two
    # runner threads' 1 MB blocks, 0.085; the inertia count 0.09)
    monkeypatch.setattr(kernels, "_cores", lambda: 2)
    tracemalloc.start()
    try:
        code = main(["certify", str(model_2k), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    cert = _read_json(tmp_path / "certificate.json")
    assert cert["is_certified"] and cert["kernel_error_bound"] > 0
    assert peak < 0.11 * 2000 * 2000 * 8


def test_extend_and_certify_leave_numpy_random_unloaded(model_2k, tmp_path):
    # numpy loads numpy.random on first use, at 5.7 MB of RSS: a fresh
    # process that extends and certifies the 2k model draws no random number
    save_csv(gen_three_clusters(100, 8, 4), tmp_path / "new.csv")
    model, new, out = str(model_2k), str(tmp_path / "new.csv"), str(tmp_path)
    script = (
        "import sys\n"
        "from sdpembed.cli import main\n"
        f"assert main(['extend', {model!r}, {new!r}, '--out', {out!r}]) == 0\n"
        f"assert main(['certify', {model!r}, '--out', {out!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n"


def test_certify_factored_evaluates_each_weight_once(model_2k, tmp_path, monkeypatch):
    # one weight pass gives the degrees and K @ H_Xi; the factor adds one row
    # of weights per pivot, at most N / 20 of them
    counts = []
    evaluate = kernels._gaussian_weights

    def spy(X, operands, sigma, out, scratch):
        counts.append(out.size)
        return evaluate(X, operands, sigma, out, scratch)

    monkeypatch.setattr(kernels, "_gaussian_weights", spy)
    assert main(["certify", str(model_2k), "--out", str(tmp_path)]) == 0
    assert 2000**2 < sum(counts) <= 2000**2 + 100 * 2000


def test_certify_factored_names_the_failed_tests(model_2k, tmp_path, capsys):
    # negating one point's coordinates keeps every row norm, so the model
    # stays feasible, but it is no longer stationary
    doc = _read_json(model_2k)
    doc["coordinates"][0] = [-v for v in doc["coordinates"][0]]
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", str(perturbed), "--out", str(tmp_path)]) == 2
    cert = _read_json(tmp_path / "certificate.json")
    assert not cert["is_certified"] and cert["kernel_error_bound"] > 0
    # the eigenvalue test takes lambda_min(L~) - delta, and the line names it
    scale, least = cert["scale"], cert["least_eigenvalues"][0] - cert["kernel_error_bound"]
    assert capsys.readouterr().err == (
        f"sdpembed: not certified: slackness residual {cert['slackness_residual']:.3e} > "
        f"1e-08 * max K(i,i) = {1e-8 * scale:.3e}, least eigenvalue of L "
        f"{least:.3e} < -1e-08 * max K(i,i) = {-1e-8 * scale:.3e}\n"
    )


def test_certify_factored_refuses_an_infeasible_model(model_2k, tmp_path, capsys, monkeypatch):
    # a scaled coordinate row misses its diagonal constraint: the factored
    # certificate names it after its one weight pass, without building K
    doc = _read_json(model_2k)
    doc["coordinates"][7] = [2.0 * v for v in doc["coordinates"][7]]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    Xi, points, sigma = _load_model(corrupted)
    monkeypatch.setattr(kernels, "build_kernel", lambda *args: pytest.fail("K was built"))
    with pytest.raises(PrimalInfeasibilityError, match=r"^row 7 has squared norm"):
        certify_points(points, sigma, Xi)
    capsys.readouterr()
    assert main(["certify", str(corrupted), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sdpembed: primal feasibility violated: row 7 ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "certificate.json").exists()


def test_extend_point_without_kernel_weight(two_point_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(
        ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]
    ) == 0
    new = tmp_path / "new.csv"
    new.write_text("-0.5\n100\n")
    code = main(["extend", str(out / "embedding.json"), str(new), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("sdpembed: extension:") and "index 1" in err
    assert not (out / "extended.csv").exists()


def test_extend_dimension_mismatch(cluster_csv, two_point_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["embed", cluster_csv, "--sigma", "5", "--out", str(out)]) == 0
    code = main(["extend", str(out / "embedding.json"), two_point_csv, "--out", str(out)])
    assert code == 1

    # new points that do not parse as a CSV of numbers
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\n1,oops\n")
    capsys.readouterr()
    code = main(["extend", str(out / "embedding.json"), str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("sdpembed: new-points parsing: ") and "row 2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["embed", "extend"])
def test_undecodable_or_huge_csv_is_one_line(command, two_point_csv, tmp_path, capsys):
    # bytes that do not decode and a cell beyond the csv module's field limit
    # are parsing errors of one stderr line, not tracebacks
    out = tmp_path / "run"
    assert main(["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]) == 0
    bad, huge = tmp_path / "bad.csv", tmp_path / "huge.csv"
    bad.write_bytes(b"0\n\xff\n")
    huge.write_text("0." + "0" * 140000 + "1\n")
    stage = {"embed": "input parsing", "extend": "new-points parsing"}[command]
    for path in (bad, huge):
        capsys.readouterr()
        if command == "embed":
            args = [str(path), "--sigma", "1"]
        else:
            args = [str(out / "embedding.json"), str(path)]
        assert main([command, *args, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sdpembed: {stage}: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_certify_stored_embedding(two_point_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(
        ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]
    ) == 0
    assert main(["certify", str(out / "embedding.json"), "--out", str(out)]) == 0

    # corrupt the stored coordinates: scaled rows break primal feasibility
    doc = _read_json(out / "embedding.json")
    doc["coordinates"] = [[2.0 * v for v in row] for row in doc["coordinates"]]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    code = main(["certify", str(corrupted), "--out", str(out)])
    assert code == 2
    assert "feasibility" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extend", "certify"])
def test_model_with_mismatched_training_points(command, two_point_csv, tmp_path, capsys):
    # a model whose coordinate rows and inlined training points disagree on N
    out = tmp_path / "run"
    assert main(
        ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]
    ) == 0
    doc = _read_json(out / "embedding.json")
    doc["metadata"]["training_points"] = doc["metadata"]["training_points"][:1]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    args = [str(model), two_point_csv] if command == "extend" else [str(model)]
    assert main([command, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sdpembed: embedding loading: ")
    assert "2 coordinate rows" in err and "(1, 1)" in err


def _scalar_rows(doc):
    doc["coordinates"] = [1.0, 2.0, 3.0]
    return doc


def _scalar_ids(doc):
    doc["ids"] = 5
    return doc


def _null_sigma(doc):
    doc["metadata"]["sigma"] = None
    return doc


def _scalar_metadata(doc):
    doc["metadata"] = 5
    return doc


def _object_training_points(doc):
    doc["metadata"]["training_points"] = {"x": 0.0}
    return doc


def _scalar_file(doc):
    return 5


def _null_singular_values(doc):
    doc["singular_values"] = None
    return doc


def _matrix_singular_values(doc):
    doc["singular_values"] = [[1.0, 2.0]]
    return doc


def _long_singular_values(doc):
    # more entries than the model has coordinate columns
    doc["singular_values"] = [1.0, 2.0, 3.0]
    return doc


def _no_training_points(doc):
    del doc["metadata"]["training_points"]
    return doc


@pytest.mark.parametrize(
    "corrupt",
    [
        _scalar_rows,
        _scalar_ids,
        _null_sigma,
        _scalar_metadata,
        _object_training_points,
        _scalar_file,
        _null_singular_values,
        _matrix_singular_values,
        _long_singular_values,
        _no_training_points,
    ],
)
@pytest.mark.parametrize("command", ["extend", "certify"])
def test_malformed_model_is_a_loading_error(command, corrupt, two_point_csv, tmp_path, capsys):
    # a model file of the wrong types gives the one-line loading error, not a
    # traceback
    out = tmp_path / "run"
    assert main(
        ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]
    ) == 0
    doc = corrupt(_read_json(out / "embedding.json"))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    args = [str(model), two_point_csv] if command == "extend" else [str(model)]
    assert main([command, *args, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sdpembed: embedding loading: ")
    assert err.count("\n") == 1


def test_compare_artifacts(cluster_csv, tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", cluster_csv, "--sigma", "5", "--out", str(out)])
    assert code == 0
    load_embedding(out / "embedding.json")
    # compare trains on the path of embed: the same input and flags give the
    # same embedding and certificate files
    assert main(["embed", cluster_csv, "--sigma", "5", "--out", str(tmp_path / "emb")]) == 0
    for name in ("embedding.json", "certificate.json"):
        assert (out / name).read_bytes() == (tmp_path / "emb" / name).read_bytes()
    eigs = _read_json(out / "dm_eigenvalues.json")["eigenvalues"]
    assert len(eigs) == 6
    with open(out / "dm_embedding.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 308 and len(rows[0]) == 3


def test_compare_favorable_spectrum(tmp_path):
    # three clusters without outliers: two eigenvalues near one, then a gap
    path = tmp_path / "favorable.csv"
    save_csv(gen_three_clusters(100, 0, 12345), path)
    out = tmp_path / "cmp"
    assert main(["compare", str(path), "--sigma", "1.5", "--out", str(out)]) == 0
    eigs = _read_json(out / "dm_eigenvalues.json")["eigenvalues"]
    assert eigs[0] == pytest.approx(1.0, abs=1e-10)
    assert eigs[1] > 0.9 and eigs[2] > 0.9
    assert eigs[3] < 0.5


def test_compare_two_points(two_point_csv, tmp_path):
    out = tmp_path / "cmp"
    code = main(
        ["compare", two_point_csv, "--sigma", "1", "--r0", "2", "--out", str(out)]
    )
    assert code == 0
    ef = load_embedding(out / "embedding.json")
    assert ef.coordinates.shape == (2, 1)
    with open(out / "dm_embedding.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and len(rows[0]) == 2


def test_toy_even_grid(tmp_path):
    out = tmp_path / "toy"
    code = main(["toy", "200", "--sigma", "1", "--tol", "1e-13", "--out", str(out)])
    assert code == 0
    report = _read_json(out / "toy_report.json")
    assert report["rank"] == 1
    assert report["certified"] is True
    assert report["sign_residual"] <= 1e-6


def test_toy_sigma_point_one(tmp_path):
    out = tmp_path / "toy"
    code = main(["toy", "101", "--sigma", "0.1", "--tol", "1e-13", "--out", str(out)])
    assert code == 0
    report = _read_json(out / "toy_report.json")
    assert report["rank"] == 2
    assert report["sign_residual"] is None
    assert report["parity_residuals"]["chi1_odd"] <= 1e-6


def test_header_autodetection(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("x,y\n0,0\n1,0\n0,1\n4,4\n")
    out = tmp_path / "run"
    code = main(["embed", str(path), "--sigma", "1", "--r0", "4", "--out", str(out)])
    assert code in (0, 2)
    ef = load_embedding(out / "embedding.json")
    assert ef.coordinates.shape[0] == 4
