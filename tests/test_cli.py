import csv
import json

import numpy as np
import pytest

from sdpembed import gen_three_clusters, load_embedding, save_csv
from sdpembed.cli import main


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


def test_embed_unconverged_exit_two(cluster_csv, tmp_path):
    out = tmp_path / "run"
    code = main(
        ["embed", cluster_csv, "--sigma", "1", "--r0", "2",
         "--max-iters", "1", "--tol", "1e-15", "--out", str(out)]
    )
    assert code == 2
    ef = load_embedding(out / "embedding.json")
    assert ef.metadata["converged"] is False


def test_embed_byte_identical_artifacts(two_point_csv, tmp_path):
    args = ["embed", two_point_csv, "--sigma", "1", "--r0", "2", "--seed", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("embedding.json", "certificate.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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


def test_extend_dimension_mismatch(cluster_csv, two_point_csv, tmp_path):
    out = tmp_path / "run"
    assert main(["embed", cluster_csv, "--sigma", "5", "--out", str(out)]) == 0
    code = main(["extend", str(out / "embedding.json"), two_point_csv, "--out", str(out)])
    assert code == 1


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


def test_compare_artifacts(cluster_csv, tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", cluster_csv, "--sigma", "5", "--out", str(out)])
    assert code == 0
    load_embedding(out / "embedding.json")
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
    code = main(["toy", "101", "--sigma", "0.1", "--tol", "1e-15", "--out", str(out)])
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
