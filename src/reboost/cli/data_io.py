"""CSV interchange: reads datasets (header + numeric rows, target last) and
feature matrices; ``write_csv`` writes every CSV the CLI produces."""

from __future__ import annotations

import csv
import logging
import math

import numpy as np

from reboost.core import Dataset, InvalidInputError, Task

log = logging.getLogger(__name__)


class CsvParseError(ValueError):
    """Malformed dataset CSV; message carries the row/column location."""


def _read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a header row and a rectangular table of finite numbers.

    Every data row must have as many cells as the header; blank lines are
    skipped. Errors carry the line and column of the first bad cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as err:
            raise CsvParseError(f"{path}: not UTF-8 text: {err}") from None
    if not rows:
        raise CsvParseError(f"{path}: empty file")
    header, width = rows[0], len(rows[0])
    cells, linenos = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise CsvParseError(
                f"{path}:{lineno}: expected {width} columns, found {len(row)}"
            )
        cells.append(row)
        linenos.append(lineno)
    if not cells:
        raise CsvParseError(f"{path}: no data rows")
    try:
        table = np.array(cells, dtype=float)  # parses each cell as float() does
    except ValueError:
        table = None
    if table is None or not np.isfinite(table).all():
        i, col = next((i, c) for i, row in enumerate(cells)
                      for c, cell in enumerate(row) if not _is_finite_number(cell))
        raise CsvParseError(
            f"{path}:{linenos[i]}: column {col + 1} ({header[col]!r}) is not a finite "
            f"number: {cells[i][col]!r}"
        )
    return header, table


def load_dataset_csv(path, task: Task) -> Dataset:
    """Read a rectangular numeric CSV: header row, target in the last column.

    Classification targets may be {-1, +1} or {0, 1}; a 0/1 column is
    remapped to -1/+1 and the remap logged as a warning.
    """
    header, table = _read_numeric_csv(path)
    if len(header) < 2:
        raise CsvParseError(f"{path}: need at least one feature and a target column")
    features, targets = table[:, :-1], table[:, -1]
    if task is Task.CLASSIFICATION and set(np.unique(targets)) <= {0.0, 1.0}:
        log.warning("%s: remapping {0,1} labels to {-1,+1}", path)
        targets = 2.0 * targets - 1.0
    return Dataset(features, targets, task)


def load_feature_matrix(path, n_features: int) -> np.ndarray:
    """Read a features-only CSV, or a dataset CSV whose last column is the
    target (dropped when the width is one more than ``n_features``)."""
    _, X = _read_numeric_csv(path)
    if X.shape[1] == n_features + 1:
        return X[:, :-1]
    if X.shape[1] != n_features:
        raise InvalidInputError(
            f"model expects {n_features} features, file has {X.shape[1]} columns"
        )
    return X


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def write_csv(path, header, rows) -> None:
    """Write a header and rows of cells, floats with 17 significant digits
    (so they parse back exactly), every line ending in a newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def _cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)
