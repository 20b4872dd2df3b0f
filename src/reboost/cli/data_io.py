"""CSV interchange: reads datasets (header + numeric rows, target last) and
feature matrices; ``write_csv`` writes every CSV the CLI produces.

A numeric CSV is UTF-8 text: a header row, then rows with as many cells
as the header. Cells are comma-separated and may be quoted with ``"``;
lines end in LF, CRLF or CR, and empty lines are skipped. A cell holds
one finite decimal number in ASCII (a sign, digits with at most one
point, an exponent: ``-1.5e-3``, ``.5``, ``7.``), with optional
whitespace (``str.isspace``) around it. ``nan``, ``inf`` and numbers
that overflow are rejected as not finite.

One parse decides what is accepted: once ``csv`` has read the header
row, one ``np.loadtxt`` call parses every data row from the open file (a
path would go through numpy's ``DataSource``, which decompresses by file
extension and downloads URLs). Only a file that this parse rejects, or
whose table is empty, of the wrong width or not finite, is read again
with ``csv``, to name its first bad line and column.

Against the ``float()`` per cell that this module used before, the parse
rejects ``1_000`` and non-ASCII digits such as ``١٢``, and accepts a
number padded with the ASCII separators U+001C-U+001F.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings

import numpy as np

from reboost.core import Dataset, InvalidInputError, Task

log = logging.getLogger(__name__)


class CsvParseError(ValueError):
    """Malformed dataset CSV; message carries the row/column location."""


def _read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a header row and a rectangular table of finite numbers.

    Errors carry the line and column of the first bad cell; see the module
    docstring for the cells accepted.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)  # leaves fh at the first data line
            with warnings.catch_warnings():  # a file with no data rows is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:  # not UTF-8, a ragged row, a cell that is no number
        raise _located_error(path) from None
    if (header is None or not table.size or table.shape[1] != len(header)
            or not np.isfinite(table).all()):
        raise _located_error(path)
    return header, table


def _located_error(path) -> CsvParseError:
    """The error for a file the parse rejected: a second pass with ``csv``
    names its first ragged row, or else its first cell that is not a finite
    number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as err:
            return CsvParseError(f"{path}: not UTF-8 text: {err}")
    if not rows:
        return CsvParseError(f"{path}: empty file")
    header, width = rows[0], len(rows[0])
    data = []  # (line number, row) of the non-empty rows
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            return CsvParseError(f"{path}:{lineno}: expected {width} columns, found {len(row)}")
        data.append((lineno, row))
    if not data:
        return CsvParseError(f"{path}: no data rows")
    for lineno, row in data:
        for col, cell in enumerate(row):
            if not _is_finite_number(cell):
                return CsvParseError(f"{path}:{lineno}: column {col + 1} ({header[col]!r}) "
                                     f"is not a finite number: {cell!r}")
    return CsvParseError(f"{path}: not a table of finite numbers under one header row")


def _is_finite_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a finite float: whitespace,
    an ASCII number with no ``_``, whitespace."""
    number = cell.strip()
    try:
        return number.isascii() and "_" not in number and math.isfinite(float(number))
    except ValueError:
        return False


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


def write_csv(path, header, columns) -> None:
    """Write a header row and a table given as its columns, of equal length.

    Floats are written with 17 significant digits (so they parse back
    exactly), other values with ``str``, and every line ends in a newline.
    A table of float arrays alone needs no quoting, and is formatted in one
    call; any other goes through ``csv.writer``, which quotes the cells that
    need it.
    """
    columns = list(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if columns and all(isinstance(c, np.ndarray) and c.dtype == float for c in columns):
            line = ",".join(["%.17g"] * len(columns)) + "\n"  # as f"{value:.17g}", bit for bit
            fh.write(line * len(columns[0]) % tuple(np.column_stack(columns).ravel().tolist()))
        else:
            writer.writerows(zip(*(map(_cell, values) for values in columns)))


def _cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)
