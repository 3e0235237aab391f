"""Persistence for matrices and clusterings.

Two formats:

* **NPZ** -- lossless binary round-trip of a :class:`DataMatrix`
  (values + optional labels) and of cluster index sets.
* **CSV** -- human-readable matrices where an empty cell means "missing";
  the natural interchange format for ratings tables and expression data.

Plus one durability primitive shared by everything that checkpoints:
:func:`write_json_atomic` (write-temp, fsync, ``os.replace``), the
writer behind the runtime's resumable manifests
(:mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

import csv
import io as _stdlib_io
import json
import os
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.cluster import DeltaCluster
from ..core.matrix import DataMatrix

__all__ = [
    "save_matrix_npz",
    "load_matrix_npz",
    "save_matrix_csv",
    "load_matrix_csv",
    "load_ratings_triples",
    "save_clusters",
    "load_clusters",
    "write_json_atomic",
]

PathLike = Union[str, Path]


def save_matrix_npz(path: PathLike, matrix: DataMatrix) -> None:
    """Write a matrix (and its labels, when present) to ``path``."""
    payload = {"values": matrix.values}
    if matrix.row_labels is not None:
        payload["row_labels"] = np.array(matrix.row_labels)
    if matrix.col_labels is not None:
        payload["col_labels"] = np.array(matrix.col_labels)
    np.savez_compressed(str(path), **payload)


def load_matrix_npz(path: PathLike) -> DataMatrix:
    """Load a matrix written by :func:`save_matrix_npz`."""
    with np.load(str(path), allow_pickle=False) as archive:
        values = archive["values"]
        row_labels = (
            [str(s) for s in archive["row_labels"]]
            if "row_labels" in archive
            else None
        )
        col_labels = (
            [str(s) for s in archive["col_labels"]]
            if "col_labels" in archive
            else None
        )
    return DataMatrix(values, row_labels, col_labels)


def save_matrix_csv(
    path: PathLike, matrix: DataMatrix, header: bool = True
) -> None:
    """Write a matrix as CSV; missing entries become empty cells.

    When ``header`` is true and the matrix has column labels, they form
    the first row (with a leading empty cell when row labels exist).
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        has_row_labels = matrix.row_labels is not None
        if header and matrix.col_labels is not None:
            prefix: List[str] = [""] if has_row_labels else []
            writer.writerow(prefix + list(matrix.col_labels))
        for i in range(matrix.n_rows):
            cells: List[str] = []
            if has_row_labels:
                cells.append(matrix.row_labels[i])
            for j in range(matrix.n_cols):
                value = matrix.values[i, j]
                cells.append("" if np.isnan(value) else repr(float(value)))
            writer.writerow(cells)


def load_matrix_csv(
    path: PathLike,
    header: bool = True,
    row_labels: bool = False,
) -> DataMatrix:
    """Load a CSV matrix; empty cells (and ``NA``/``NaN`` tokens) are missing.

    Parameters
    ----------
    header:
        First row holds column labels.
    row_labels:
        First column holds row labels.

    Raises
    ------
    ValueError
        ``"<path>:<line>: <reason>"`` for a data row whose cell count
        differs from the first data row's, or a cell that is neither a
        number nor a missing-value token.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty CSV file")
    col_names: Optional[List[str]] = None
    if header:
        _, head = rows.pop(0)
        col_names = head[1:] if row_labels else head
    if not rows:
        raise ValueError(f"{path}: CSV has a header but no data rows")
    row_names: Optional[List[str]] = [] if row_labels else None
    data: List[List[float]] = []
    width = len(rows[0][1])
    for line, row in rows:
        if len(row) != width:
            raise ValueError(
                f"{path}:{line}: expected {width} cells, got {len(row)}"
            )
        if row_labels:
            row_names.append(row[0])
            cells = row[1:]
        else:
            cells = row
        try:
            data.append([_parse_cell(cell) for cell in cells])
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
    return DataMatrix(data, row_names, col_names)


def _parse_cell(cell: str) -> float:
    text = cell.strip()
    if text == "" or text.upper() in ("NA", "NAN", "NULL"):
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {cell!r}") from None


def load_ratings_triples(
    path: PathLike,
    delimiter: Optional[str] = None,
    one_indexed: bool = True,
) -> DataMatrix:
    """Load a sparse ratings file of ``user item rating [extra...]`` rows.

    This is the format of the real MovieLens ``u.data`` dump the paper
    uses (tab-separated, 1-indexed ids, a trailing timestamp column that
    is ignored).  The matrix is sized by the largest user/item id; cells
    never rated are missing.

    Parameters
    ----------
    delimiter:
        Field separator; ``None`` splits on arbitrary whitespace.
    one_indexed:
        MovieLens ids start at 1; pass ``False`` for 0-indexed files.
    """
    triples = []
    max_user = -1
    max_item = -1
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(delimiter)
            if len(fields) < 3:
                raise ValueError(
                    f"{path}:{line_number}: expected 'user item rating', "
                    f"got {line!r}"
                )
            user = int(fields[0]) - (1 if one_indexed else 0)
            item = int(fields[1]) - (1 if one_indexed else 0)
            rating = float(fields[2])
            if user < 0 or item < 0:
                raise ValueError(
                    f"{path}:{line_number}: negative id after indexing "
                    f"adjustment; is the file really "
                    f"{'1' if one_indexed else '0'}-indexed?"
                )
            triples.append((user, item, rating))
            max_user = max(max_user, user)
            max_item = max(max_item, item)
    if not triples:
        raise ValueError(f"{path}: no ratings found")
    values = np.full((max_user + 1, max_item + 1), np.nan)
    for user, item, rating in triples:
        values[user, item] = rating
    return DataMatrix(values)


def write_json_atomic(
    path: PathLike,
    obj: object,
    *,
    sort_keys: bool = True,
    indent: Optional[int] = None,
) -> Path:
    """Durably write ``obj`` as JSON to ``path``: all of it or none of it.

    A reader (or a resumed run) never observes a half-written file: the
    document goes to a temporary file in the same directory, is flushed
    and fsynced, and only then renamed over ``path`` with the atomic
    ``os.replace``.  The directory entry is fsynced too where the
    platform allows, so the rename itself survives a crash.  A run
    killed mid-checkpoint therefore leaves either the previous complete
    manifest or the new complete manifest -- never a truncated one.

    Returns the final path.  ``sort_keys=True`` (default) keeps the
    bytes deterministic for a given ``obj``, which checkpoint digests
    rely on.
    """
    path = Path(path)
    text = json.dumps(obj, sort_keys=sort_keys, indent=indent)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return path  # platform cannot open directories (e.g. Windows)
    try:
        os.fsync(dir_fd)
    except OSError:
        pass  # directory fsync is best-effort durability hardening
    finally:
        os.close(dir_fd)
    return path


def save_clusters(path: PathLike, clusters: Sequence[DeltaCluster]) -> None:
    """Write cluster index sets to a compact text format.

    One cluster per two lines: ``rows: i1 i2 ...`` then ``cols: j1 j2 ...``.
    """
    buffer = _stdlib_io.StringIO()
    for cluster in clusters:
        buffer.write("rows: " + " ".join(map(str, cluster.rows)) + "\n")
        buffer.write("cols: " + " ".join(map(str, cluster.cols)) + "\n")
    Path(path).write_text(buffer.getvalue())


def load_clusters(path: PathLike) -> List[DeltaCluster]:
    """Load clusters written by :func:`save_clusters`."""
    lines = [
        line.strip()
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    if len(lines) % 2 != 0:
        raise ValueError(f"{path}: expected rows/cols line pairs")
    clusters = []
    for row_line, col_line in zip(lines[::2], lines[1::2]):
        if not row_line.startswith("rows:") or not col_line.startswith("cols:"):
            raise ValueError(f"{path}: malformed cluster file")
        rows = [int(tok) for tok in row_line[len("rows:"):].split()]
        cols = [int(tok) for tok in col_line[len("cols:"):].split()]
        clusters.append(DeltaCluster(rows, cols))
    return clusters
