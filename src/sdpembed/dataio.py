"""Dataset loading, synthetic generators, and embedding persistence."""

import csv
import json
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np


class CsvFormatError(ValueError):
    """Input CSV cannot be parsed into a point cloud."""


class EmbeddingSchemaError(ValueError):
    """Stored embedding file does not match the expected schema."""


# rank_tol is left out: models stored before it was recorded do not have it
REQUIRED_METADATA = ("sigma", "seed", "tol_conv", "max_iters", "r0")

# cluster geometry shared by the synthetic generators below: an equilateral
# triangle of side 4 with isotropic spread 0.5
_CLUSTER_CENTERS = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 2.0 * np.sqrt(3.0)]])
_CLUSTER_SPREAD = 0.5


@dataclass
class Dataset:
    """A point cloud with optional integer labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (N, d)")
        n, d = self.points.shape
        if n < 1 or d < 1:
            raise ValueError(f"need N >= 1 and d >= 1, got shape {(n, d)}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (n,):
                raise ValueError("labels must have one entry per point")

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


# rows formatted per write of _write_csv
_CSV_CHUNK_ROWS = 1024
# characters per read when load_csv scans a file numpy's reader accepted (the
# scan holds about 5 times this; a line over twice as long takes the csv pass)
_SCAN_CHARS = 1 << 14
# ASCII information separators: whitespace around a number to numpy's reader,
# not to float()
_INFO_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path):
    """Load a comma-separated point cloud.

    A first row none of whose cells is a number is a header and is skipped.
    Other cells must parse as finite reals; rows must all have the same
    number of cells.  Blank lines are skipped and row order is preserved.
    Errors name the file's 1-based line (as "row") and column of the
    offending cell; bytes that do not decode and over-long cells are errors.

    A file is first parsed by numpy's C reader (``np.loadtxt``), which makes
    no Python object per cell.  A file it refuses (a header, quoted cells,
    float syntax only Python reads such as ``1_000``, a ragged or malformed
    row), or that holds a non-finite value, is read again row by row with
    the ``csv`` module, which applies the rules above and names the
    offending cell; so is a file that cannot be read twice, such as a pipe.
    Both readers decode the file as ``open`` does and parse a cell as
    ``float`` does, so they give the same bits.
    """
    with open(path, newline="") as fh:
        if fh.seekable():
            points = _load_csv_fast(fh)
            if points is not None:
                return Dataset(points=points)
            fh.seek(0)
        return _load_csv_rows(path, fh)


def _load_csv_fast(fh):
    """The points of ``fh`` by numpy's reader, or None where that reader
    refuses the file or might accept one :func:`_load_csv_rows` refuses."""
    with warnings.catch_warnings():
        # an empty file is load_csv's "no data rows" error, not a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            points = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if not points.size or not np.isfinite(points).all():
        return None
    fh.seek(0)
    for chunk in iter(partial(fh.read, _SCAN_CHARS), ""):
        # a whole chunk without a line break may hold a cell longer than the
        # csv module's field limit (131,072 characters), which it refuses
        if any(sep in chunk for sep in _INFO_SEPARATORS) or (
            len(chunk) == _SCAN_CHARS and "\n" not in chunk and "\r" not in chunk
        ):
            return None
    return points


def _load_csv_rows(path, fh):
    """:func:`load_csv` of the open file ``fh`` through the ``csv`` module:
    every rule checked, and the first offending cell in file order named."""
    reader = csv.reader(fh)
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: row {reader.line_num}: {exc}") from None
    if rows and not any(_is_number(cell) for cell in rows[0][1]):
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
                    f"{path}: row {line}, column {j + 1}: "
                    f"cannot parse {cell!r} as a real number"
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"{path}: row {line}, column {j + 1}: non-finite value {cell!r}"
                )
            values.append(value)
        points.append(values)
    return Dataset(points=np.asarray(points, dtype=float))


def _write_csv(path, columns):
    """Write a CSV file from ``columns``, 1-d arrays of ints or floats.
    Every cell is written by ``str``, which gives a float's shortest exact
    decimal, its ``repr``; each line ends in CR LF, as with ``csv.writer``.
    Rows are formatted and written ``_CSV_CHUNK_ROWS`` at a time, so the
    text of the whole file is never held at once."""
    n = min(map(len, columns), default=0)
    with open(path, "w", newline="") as fh:
        for start in range(0, n, _CSV_CHUNK_ROWS):
            chunk = [c[start : start + _CSV_CHUNK_ROWS] for c in columns]
            cells = (map(str, c.tolist()) for c in chunk)
            fh.write("".join(f"{line}\r\n" for line in map(",".join, zip(*cells))))


def save_csv(ds, path):
    """Write the points of ``ds`` (no labels, no header) as CSV."""
    _write_csv(path, ds.points.T)


def standardize(ds):
    """Center each column and scale it to unit sample standard deviation.

    Columns with zero variance are centered only.  Requires N >= 2.
    """
    if ds.n_points < 2:
        raise ValueError("standardize needs at least two points")
    mean = ds.points.mean(axis=0)
    std = ds.points.std(axis=0, ddof=1)
    scale = np.where(std > 0, std, 1.0)
    return Dataset((ds.points - mean) / scale, labels=ds.labels)


def gen_three_clusters(n_per_cluster, n_outliers, seed):
    """Three isotropic Gaussian blobs in the plane plus uniform outliers.

    Cluster points get labels 0/1/2, outliers label 3.  Outliers are drawn
    uniformly from the bounding box of the cluster points inflated by 50%
    (box of the centers when there are no cluster points).  Deterministic
    given ``seed``.
    """
    if n_per_cluster < 0 or n_outliers < 0 or 3 * n_per_cluster + n_outliers < 1:
        raise ValueError("need nonnegative counts with at least one point in total")
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for c, center in enumerate(_CLUSTER_CENTERS):
        blocks.append(center + _CLUSTER_SPREAD * rng.standard_normal((n_per_cluster, 2)))
        labels.extend([c] * n_per_cluster)
    cluster_points = np.vstack(blocks) if n_per_cluster else _CLUSTER_CENTERS
    if n_outliers:
        lo, hi = cluster_points.min(axis=0), cluster_points.max(axis=0)
        center, half = (lo + hi) / 2.0, 1.5 * (hi - lo) / 2.0
        blocks.append(rng.uniform(center - half, center + half, (n_outliers, 2)))
        labels.extend([3] * n_outliers)
    return Dataset(np.vstack(blocks), labels=np.asarray(labels, dtype=int))


def gen_interval_grid(n):
    """``n`` equally spaced points on [-1, 1], endpoints included (d = 1)."""
    if n < 2:
        raise ValueError("need n >= 2 grid points")
    return Dataset(np.linspace(-1.0, 1.0, n)[:, None])


def gen_swiss_roll(n, seed):
    """Sample ``n`` points from a 3-d swiss roll, uniform in the unrolled
    parameters (angle t in [1.5pi, 4.5pi), height in [0, 21))."""
    if n < 1:
        raise ValueError("need n >= 1 points")
    rng = np.random.default_rng(seed)
    t = 1.5 * np.pi * (1.0 + 2.0 * rng.uniform(size=n))
    height = 21.0 * rng.uniform(size=n)
    points = np.column_stack([t * np.cos(t), height, t * np.sin(t)])
    return Dataset(points)


@dataclass
class EmbeddingFile:
    """On-disk form of an embedding: ids, coordinates, kept singular values,
    and the run metadata needed to reproduce and extend it."""

    ids: list
    coordinates: np.ndarray
    singular_values: np.ndarray
    metadata: dict

    def __post_init__(self):
        self.coordinates = np.asarray(self.coordinates, dtype=float)
        self.singular_values = np.asarray(self.singular_values, dtype=float)
        if self.coordinates.ndim != 2 or self.coordinates.shape[1] < 1:
            raise EmbeddingSchemaError("coordinates must be a 2-d array with r >= 1")
        if len(self.ids) != self.coordinates.shape[0]:
            raise EmbeddingSchemaError("ids and coordinates disagree on N")
        if not np.all(np.isfinite(self.coordinates)):
            raise EmbeddingSchemaError("coordinates contain non-finite entries")
        sv = self.singular_values
        if sv.ndim != 1 or sv.size > self.coordinates.shape[1] or not np.all(np.isfinite(sv)):
            raise EmbeddingSchemaError("singular_values must be 1-d, finite and at most r long")
        missing = [k for k in REQUIRED_METADATA if k not in self.metadata]
        if missing:
            raise EmbeddingSchemaError(f"metadata is missing keys {missing}")


def save_embedding(embedding_file, path):
    """Write an :class:`EmbeddingFile` as JSON.

    Floats are serialized via ``repr`` (shortest exact decimal), so a
    save/load round trip is bit-exact.
    """
    doc = {
        "ids": [str(i) for i in embedding_file.ids],
        "coordinates": embedding_file.coordinates,
        "singular_values": embedding_file.singular_values,
        "metadata": embedding_file.metadata,
    }
    _write_json(path, doc)


def load_embedding(path):
    """Read an :class:`EmbeddingFile` written by :func:`save_embedding`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise EmbeddingSchemaError(f"{path}: not a valid embedding file ({exc})") from None
    if not isinstance(doc, dict):
        raise EmbeddingSchemaError(f"{path}: not a JSON object")
    for key in ("ids", "coordinates", "singular_values", "metadata"):
        if key not in doc:
            raise EmbeddingSchemaError(f"{path}: missing field {key!r}")
    if not isinstance(doc["ids"], list) or not isinstance(doc["metadata"], dict):
        raise EmbeddingSchemaError(f"{path}: ids must be a list and metadata an object")
    return EmbeddingFile(
        ids=[str(i) for i in doc["ids"]],
        coordinates=_numbers(path, "coordinates", doc["coordinates"]),
        singular_values=_numbers(path, "singular_values", doc["singular_values"]),
        metadata=doc["metadata"],
    )


def _numbers(path, name, value):
    """``value`` of the embedding file at ``path`` as a float array."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise EmbeddingSchemaError(f"{path}: {name} is not an array of numbers") from None


def _write_json(path, payload):
    """Write ``payload`` as JSON indented by 2, with a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_plain)
        fh.write("\n")


def _plain(value):
    """``default`` hook of ``json.dump``: numpy arrays and scalars as plain values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
