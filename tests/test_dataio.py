import csv
import json

import numpy as np
import pytest

from sdpembed import (
    CsvFormatError,
    Dataset,
    EmbeddingFile,
    EmbeddingSchemaError,
    gen_interval_grid,
    gen_swiss_roll,
    gen_three_clusters,
    load_csv,
    load_embedding,
    save_csv,
    save_embedding,
    standardize,
)


def test_load_csv_basic(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,0\n0,1\n")
    ds = load_csv(path)
    assert ds.n_points == 3 and ds.dim == 2
    assert np.array_equal(ds.points, [[0, 0], [1, 0], [0, 1]])


def test_load_csv_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n0,0\n1,0\n0,1\n")
    ds = load_csv(path)
    assert ds.n_points == 3 and ds.dim == 2


def test_load_csv_nan_cell_reports_location(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,NaN\n0,1\n")
    with pytest.raises(CsvFormatError, match=r"row 2, column 2"):
        load_csv(path)


def test_load_csv_ragged_and_empty(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,0\n1\n")
    with pytest.raises(CsvFormatError, match=r"row 2"):
        load_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvFormatError, match="no data"):
        load_csv(empty)


def test_load_csv_reports_file_lines_after_blank_lines(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n\n3.0,4.0\n5.0,x\n")
    with pytest.raises(CsvFormatError, match=r"row 4, column 2"):
        load_csv(path)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,y\n\n1,2\n\n3\n")
    with pytest.raises(CsvFormatError, match=r"row 5 has 1 cells"):
        load_csv(ragged)


def test_load_csv_names_a_bad_cell_deep_in_a_long_file(tmp_path):
    # the whole file parses in one call; the cell-by-cell pass names the
    # first offending cell in file order
    lines = [f"{i * 0.25!r},{-i * 0.5!r}" for i in range(20000)]
    for row, column, cell, message in [
        (17345, 2, "0.5x", "cannot parse '0.5x' as a real number"),
        (19999, 1, "1e400", "non-finite value '1e400'"),
    ]:
        bad = list(lines)
        cells = bad[row - 1].split(",")
        cells[column - 1] = cell
        bad[row - 1] = ",".join(cells)
        path = tmp_path / "pts.csv"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(CsvFormatError, match=rf"row {row}, column {column}: {message}"):
            load_csv(path)
    bad = list(lines)
    bad[12000 - 1] = "1e400,0"
    bad[15000 - 1] = "0,x"
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(CsvFormatError, match=r"row 12000, column 1: non-finite"):
        load_csv(path)
    path.write_text("x,y\n" + "\n".join(lines) + "\n")
    ds = load_csv(path)
    assert np.array_equal(ds.points, [[i * 0.25, -i * 0.5] for i in range(20000)])


def test_save_csv_matches_csv_writer(tmp_path):
    ds = gen_swiss_roll(50, 3)
    ds.points[0, 0] = -0.0
    ds.points[1, 1] = 1e-300
    save_csv(ds, tmp_path / "pts.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in ds.points:
            writer.writerow([repr(float(v)) for v in row])
    assert (tmp_path / "pts.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert np.array_equal(load_csv(tmp_path / "pts.csv").points, ds.points)


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[0.0], [np.inf]]))


def test_standardize_two_values():
    # hand evaluation of (x - mean) / std with sample std sqrt(2)
    ds = standardize(Dataset(np.array([[0.0], [2.0]])))
    expected = 1.0 / np.sqrt(2.0)
    assert np.allclose(ds.points.ravel(), [-expected, expected], atol=1e-15)


def test_standardize_constant_column():
    ds = standardize(Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])))
    assert np.array_equal(ds.points[:, 0], [0.0, 0.0, 0.0])


def test_standardize_idempotent():
    rng = np.random.default_rng(3)
    ds = standardize(Dataset(rng.standard_normal((40, 3)) * 7 + 2))
    again = standardize(ds)
    assert np.max(np.abs(again.points - ds.points)) < 1e-12


def test_three_clusters_counts_and_labels():
    ds = gen_three_clusters(100, 8, seed=5)
    assert ds.n_points == 308 and ds.dim == 2
    assert np.sum(ds.labels == 3) == 8
    assert all(np.sum(ds.labels == c) == 100 for c in (0, 1, 2))


def test_three_clusters_minimal():
    ds = gen_three_clusters(1, 0, seed=5)
    assert ds.n_points == 3
    assert sorted(ds.labels) == [0, 1, 2]


def test_three_clusters_deterministic():
    a = gen_three_clusters(50, 4, seed=11)
    b = gen_three_clusters(50, 4, seed=11)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_three_clusters_outliers_in_inflated_box():
    ds = gen_three_clusters(100, 8, seed=7)
    cluster_pts = ds.points[ds.labels < 3]
    outliers = ds.points[ds.labels == 3]
    lo, hi = cluster_pts.min(axis=0), cluster_pts.max(axis=0)
    center, half = (lo + hi) / 2, 1.5 * (hi - lo) / 2
    assert np.all(outliers >= center - half) and np.all(outliers <= center + half)


def test_interval_grid():
    assert np.array_equal(gen_interval_grid(3).points.ravel(), [-1.0, 0.0, 1.0])
    grid = gen_interval_grid(201).points.ravel()
    assert np.allclose(np.diff(grid), 0.01, atol=1e-15)
    big = gen_interval_grid(2001).points.ravel()
    assert big.shape == (2001,) and big[0] == -1.0 and big[-1] == 1.0


def test_swiss_roll():
    ds = gen_swiss_roll(4000, seed=2)
    assert ds.points.shape == (4000, 3)
    radius = np.hypot(ds.points[:, 0], ds.points[:, 2])
    assert np.all(radius >= 1.5 * np.pi - 1e-9)
    assert np.all(radius <= 4.5 * np.pi + 1e-9)
    single = gen_swiss_roll(1, seed=2)
    assert single.points.shape == (1, 3)
    assert np.array_equal(gen_swiss_roll(10, 4).points, gen_swiss_roll(10, 4).points)


def _sample_embedding_file():
    return EmbeddingFile(
        ids=["0", "1", "2"],
        coordinates=np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]) / 3.0,
        singular_values=np.array([1.7, 0.3]),
        metadata={
            "sigma": 1.5,
            "seed": 0,
            "tol_conv": 1e-10,
            "max_iters": 10000,
            "r0": 10,
            "training_points": [[0.0], [1.0], [2.0]],
        },
    )


def test_embedding_round_trip(tmp_path):
    path = tmp_path / "emb.json"
    original = _sample_embedding_file()
    save_embedding(original, path)
    loaded = load_embedding(path)
    assert loaded.ids == original.ids
    assert np.array_equal(loaded.coordinates, original.coordinates)
    assert np.array_equal(loaded.singular_values, original.singular_values)
    assert loaded.metadata["sigma"] == 1.5
    assert loaded.metadata["training_points"] == [[0.0], [1.0], [2.0]]


def test_embedding_truncated_file(tmp_path):
    path = tmp_path / "emb.json"
    save_embedding(_sample_embedding_file(), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(EmbeddingSchemaError):
        load_embedding(path)


def test_embedding_missing_field(tmp_path):
    path = tmp_path / "emb.json"
    save_embedding(_sample_embedding_file(), path)
    doc = json.loads(path.read_text())
    del doc["singular_values"]
    path.write_text(json.dumps(doc))
    with pytest.raises(EmbeddingSchemaError, match="singular_values"):
        load_embedding(path)


def test_embedding_metadata_keys_required(tmp_path):
    ef = _sample_embedding_file()
    del ef.metadata["r0"]
    with pytest.raises(EmbeddingSchemaError, match="r0"):
        EmbeddingFile(ef.ids, ef.coordinates, ef.singular_values, ef.metadata)
