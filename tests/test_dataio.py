import csv
import json
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sdpembed import dataio
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


@pytest.mark.parametrize(
    "text, column",
    [("1,\n3,4\n", 2), ("0x10,2\n3,4\n", 1), ("\u22121,2\n3,4\n", 1)],
    ids=["empty-cell", "hex", "unicode-minus"],
)
def test_load_csv_first_row_with_a_number_is_data(tmp_path, text, column):
    # a first row is a header only when none of its cells is a number, so a
    # malformed first data row is named, not dropped
    path = tmp_path / "pts.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CsvFormatError, match=rf"row 1, column {column}: cannot parse"):
        load_csv(path)


def _reference_load_csv(path):
    """The cell-by-cell ``csv``-module reader that ``load_csv`` must agree
    with: every cell parsed by ``float``, errors in file order.  It is the
    reader the package had before numpy's C reader, except for the header
    rule (a first row is a header only when none of its cells is a number)
    and for bytes that do not decode and cells beyond the ``csv`` module's
    field limit, which are format errors."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader if row]
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: row {reader.line_num}: {exc}") from None
    if rows and not any(_parses(cell) for cell in rows[0][1]):
        rows = rows[1:]
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    arity = len(rows[0][1])
    points = []
    for line, row in rows:
        if len(row) != arity:
            raise CsvFormatError(f"{path}: row {line} has {len(row)} cells, expected {arity}")
        values = []
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {line}, column {j + 1}: cannot parse {cell!r} as a real number"
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(f"{path}: row {line}, column {j + 1}: non-finite value {cell!r}")
            values.append(value)
        points.append(values)
    return np.array(points, dtype=float)


def _parses(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _outcome(read, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(path)
        except Exception as exc:  # the outcome compared may be the error itself
            return exc


# (case, file text, whether numpy's reader serves it without the csv pass)
_READER_CASES = [
    ("crlf", "1,2\r\n3,4\r\n", True),
    ("cr-only", "1,2\r3,4", True),
    ("blank-lines", "1,2\n\n3,4\n\n", True),
    ("blank-crlf-lines", "\r\n1,2\r\n\r\n3,4", True),
    ("whitespace-line", "1,2\n  \n3,4\n", False),
    ("tab-line-at-end", "1,2\n\t\n", False),
    ("whitespace-first-line", "  \n1,2\n", False),
    ("whitespace-line-one-column", "1\n \n2\n", False),
    ("spaces-and-tabs", " 1 ,\t2\t\n  3,4  \r\n", True),
    ("unicode-spaces", "\xa01,2\u3000\n", True),
    ("file-separator-after", "1,2\x1c\n", False),
    ("unit-separator-before", "\x1f1,2\n", False),
    ("signs-and-points", "+1.5,.5\n5.,-0\n", True),
    ("subnormal-and-minus-zero", "5e-324,-0.0\n", True),
    ("underflow", "1e-400,1\n", True),
    ("overflow", "1e400,1\n", False),
    ("nan", "1,2\nnan,1\n", False),
    ("infinity", "Infinity,1\n", False),
    ("minus-inf", "1,-inf\n", False),
    ("hard-to-round", "9007199254740993,2.2250738585072011e-308\n", True),
    (
        "40-digit-mantissas",
        "1.234567890123456789012345678901234567891,4.940656458412465441765687928682213723651e-324\n",
        True,
    ),
    ("quoted-cell", '"1.5",2\n', False),
    ("quoted-header-and-cell", '"x","y"\n"1",2\n', False),
    ("underscores", "1_000,2\n", False),
    ("full-width-digits", "\uff11,\uff12.\uff15\n", False),
    ("header", "x,y\n1,2\n3,4\n", False),
    ("header-then-bad-cell", "x,y\n1,2\n3,x\n", False),
    ("one-column-header", "x\n1\n", False),
    ("short-row", "1,2\n3\n", False),
    ("long-row", "1,2\n3,4,5\n", False),
    ("trailing-commas", "1,2,\n3,4,\n", False),
    ("trailing-comma-later", "1,2\n3,4,\n", False),
    ("empty", "", False),
    ("blank-only", "\n\r\n\n", False),
    ("header-only", "x,y\n", False),
    ("header-and-blank-lines", "x,y\n\n\n", False),
    ("semicolons", "1;2\n", False),
    ("comment-line", "0,0\n#1,2\n", False),
    ("two-numbers-in-a-cell", "1.5 2.5,3\n", False),
    ("nul", "1,2\x00\n", False),
    # longer than the csv module's field limit, which it refuses
    ("huge-cell", "0." + "0" * 140000 + "1,2\n", False),
]


@pytest.mark.parametrize("text, fast", [c[1:] for c in _READER_CASES], ids=[c[0] for c in _READER_CASES])
def test_load_csv_agrees_with_the_cell_by_cell_reader(tmp_path, text, fast):
    path = tmp_path / "pts.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _outcome(_reference_load_csv, path)
    got = _outcome(lambda p: load_csv(p).points, path)
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        # bit for bit, so -0.0 and the last bit of hard decimals count
        assert isinstance(got, np.ndarray) and got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    with open(path, newline="") as fh:
        assert (dataio._load_csv_fast(fh) is not None) == fast


def test_load_csv_undecodable_bytes_are_a_format_error(tmp_path):
    # under a locale whose encoding decodes every byte, the cell fails to parse
    path = tmp_path / "pts.csv"
    path.write_bytes(b"1,2\n\xff,3\n")
    with pytest.raises(CsvFormatError) as exc:
        load_csv(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_load_csv_names_the_row_of_a_huge_cell(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,2\n3,4\n0." + "0" * 140000 + "1,2\n5,6\n")
    with pytest.raises(CsvFormatError, match=r"row 3: field larger than field limit \(131072\)"):
        load_csv(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_csv_reads_a_pipe_once(tmp_path):
    # a pipe cannot be read twice, so it goes to the csv pass from the start
    fifo = tmp_path / "pts.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("x,y\n1,2\n3,4\n",), daemon=True)
    writer.start()
    try:
        ds = load_csv(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(ds.points, [[1, 2], [3, 4]])


def test_save_csv_matches_csv_writer(tmp_path):
    chunk = dataio._CSV_CHUNK_ROWS
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        ds = gen_swiss_roll(n, 3)
        ds.points[0, 0] = -0.0
        ds.points[-1, 1] = 1e-300
        save_csv(ds, tmp_path / "pts.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in ds.points:
                writer.writerow([repr(float(v)) for v in row])
        assert (tmp_path / "pts.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert np.array_equal(load_csv(tmp_path / "pts.csv").points, ds.points)


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_csv_read_and_write_hold_no_object_per_cell(tmp_path):
    # 20000 rows as `sdpembed extend` reads and writes them: a list of
    # strings per row (or of every line) would take several MB
    rng = np.random.default_rng(0)
    path = tmp_path / "pts.csv"
    save_csv(Dataset(rng.standard_normal((20000, 2))), path)
    assert _traced_peak_mb(load_csv, path) < 0.5
    columns = [np.arange(20000), *rng.standard_normal((3, 20000)), np.zeros(20000, int)]
    assert _traced_peak_mb(dataio._write_csv, tmp_path / "out.csv", columns) < 1.0


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
