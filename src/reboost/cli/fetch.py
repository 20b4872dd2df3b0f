"""Benchmark dataset fetching: download over HTTP(S), verify a pinned
SHA-256, convert to the canonical dataset CSV layout (header row, numeric
columns, target last).

Sources and checksums live in ``datasets.cfg`` next to this package so
they can be repointed without code changes. Entries whose checksum is
``unpinned`` are accepted on first fetch with a warning that logs the
computed digest (for later pinning). Raw downloads are cached under
$REBOOST_CACHE_DIR (default ~/.cache/reboost); a warm cache needs no
network.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import logging
import os
import urllib.error
import urllib.request
from importlib import resources
from pathlib import Path

from reboost.cli.data_io import write_csv

log = logging.getLogger(__name__)

CACHE_ENV = "REBOOST_CACHE_DIR"


class NetworkError(RuntimeError):
    pass


class ChecksumError(RuntimeError):
    pass


class RawDataError(ValueError):
    """A raw download whose rows do not have the layout of its format."""


class TableError(ValueError):
    """A source table that cannot be parsed, or an entry of it that names
    no url or no known format."""


class UnknownDatasetError(ValueError):
    """A dataset name that the source table has no entry for."""


def cache_dir() -> Path:
    root = os.environ.get(CACHE_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "reboost"


def load_source_table(path=None) -> configparser.ConfigParser:
    """The packaged source table, or the table file at ``path``; a missing
    file raises FileNotFoundError and one that is not UTF-8 INI text
    raises TableError, each naming the file. Values are read verbatim (no
    %-interpolation), so a percent-encoded url stays as written."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as err:
            raise TableError(f"{path}: not a source table: {str(err).splitlines()[0]}") from None
    else:
        text = resources.files("reboost").joinpath("datasets.cfg").read_text("utf-8")
        parser.read_string(text)
    return parser


def _download(url: str, dest: Path) -> None:
    dest.parent.mkdir(parents=True, exist_ok=True)
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            payload = response.read()
    except (urllib.error.URLError, OSError, ValueError) as err:
        raise NetworkError(f"download failed for {url}: {err}") from err
    dest.write_bytes(payload)


def _verify(path: Path, pinned: str, name: str) -> None:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if pinned.lower() == "unpinned":
        log.warning("dataset %s has no pinned checksum; computed sha256=%s", name, digest)
        return
    if digest != pinned.lower():
        path.unlink(missing_ok=True)
        raise ChecksumError(
            f"{name}: sha256 mismatch (expected {pinned}, got {digest}); file removed"
        )


def fetch_dataset(name: str, out_dir, url_override: str | None = None,
                  table_path=None) -> Path:
    """Obtain one named dataset and write ``<out_dir>/<name>.csv``.

    Raises UnknownDatasetError for a name the table has no entry for;
    TableError, before any download, when the table or its entry is
    malformed; NetworkError / ChecksumError; RawDataError when the
    download does not have the layout of its format.
    """
    table = load_source_table(table_path)
    if not table.has_section(name):  # DEFAULT is "in" every table, but no section
        raise UnknownDatasetError(f"unknown dataset {name!r}; known: {table.sections()}")
    entry = table[name]
    where = f"{table_path or 'packaged datasets.cfg'}: entry [{name}]"
    url = url_override or entry.get("url")
    if not url:
        raise TableError(f"{where} has no url")
    fmt = entry.get("format")
    if fmt not in _CONVERTERS:
        raise TableError(f"{where}: unknown format {fmt!r}; known: {sorted(_CONVERTERS)}")
    raw = cache_dir() / "raw" / f"{name}.data"

    if not raw.exists():
        _download(url, raw)
    _verify(raw, entry.get("sha256", "unpinned"), name)

    try:
        rows, header = _CONVERTERS[fmt](raw.read_text("utf-8", errors="replace"))
    except RawDataError as err:
        raise RawDataError(f"{raw}: {err}") from None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{name}.csv"
    write_csv(out_path, header, rows)
    return out_path


def _split_rows(text: str, delim: str | None):
    """(line number, fields) of the non-blank lines, split on ``delim``, or
    on runs of whitespace for None."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            yield lineno, line.split(delim)


def _checked_rows(rows, width: int):
    """The (line number, fields) rows, each of which must have ``width``
    fields."""
    for lineno, row in rows:
        if len(row) != width:
            raise RawDataError(f"line {lineno}: {len(row)} fields, expected {width}")
        yield lineno, row


def _under_header(rows, extra: int = 0):
    """(data rows, header) of (line number, fields) rows whose first names
    the columns; each data row has ``extra`` fields more than the header."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise RawDataError("no header line")
    header = first[1]
    return [row for _, row in _checked_rows(rows, len(header) + extra)], header


def _code(codes: dict[str, str], value: str, lineno: int) -> str:
    if value not in codes:
        raise RawDataError(
            f"line {lineno}: unknown code {value!r}; expected one of {sorted(codes)}"
        )
    return codes[value]


def _generic_header(n_features: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n_features)] + ["target"]


def _convert_csv_passthrough(text: str):
    """Already header + numeric columns with the target last."""
    rows = enumerate(csv.reader(text.splitlines()), start=1)
    return _under_header((lineno, row) for lineno, row in rows if row)


def _convert_whitespace_header(text: str):
    """Whitespace-separated with a header line; target already last."""
    return _under_header(_split_rows(text, None))


def _convert_prostate(text: str):
    """Stanford prostate file: drop the row-index and train/test columns,
    keep the eight clinical predictors with log-PSA as the target."""
    # lcavol ... lpsa train; the index column is unnamed
    data, header = _under_header(_split_rows(text, None), extra=1)
    return [row[1:-1] for row in data], header[:-1]


def _convert_abalone(text: str):
    """Sex M/F/I encoded as +1/-1/0 in a single column; rings is the target."""
    code = {"M": "1", "F": "-1", "I": "0"}
    out = []
    for lineno, row in _checked_rows(_split_rows(text, ","), 9):
        out.append([_code(code, row[0], lineno)] + row[1:])
    return out, ["sex"] + _generic_header(7)


def _class_last(text: str, n_features: int, codes: dict[str, str]):
    """Comma-separated features with a class code last, mapped by ``codes``."""
    out = []
    for lineno, row in _checked_rows(_split_rows(text, ","), n_features + 1):
        out.append(row[:-1] + [_code(codes, row[-1], lineno)])
    return out, _generic_header(n_features)


def _convert_spam(text: str):
    """57 numeric features; {0,1} spam flag remapped to -1/+1."""
    return _class_last(text, 57, {"1": "1", "0": "-1"})


def _convert_ionosphere(text: str):
    """34 numeric features; 'g'/'b' class mapped to +1/-1."""
    return _class_last(text, 34, {"g": "1", "b": "-1"})


def _convert_wdbc(text: str):
    """Drop the patient id; diagnosis M/B mapped to +1/-1, moved last."""
    code = {"M": "1", "B": "-1"}
    out = []
    for lineno, row in _checked_rows(_split_rows(text, ","), 32):
        out.append(row[2:] + [_code(code, row[1], lineno)])
    return out, _generic_header(30)


_CONVERTERS = {
    "csv-target-last": _convert_csv_passthrough,
    "whitespace-target-last": _convert_whitespace_header,
    "prostate": _convert_prostate,
    "abalone": _convert_abalone,
    "spam": _convert_spam,
    "ionosphere": _convert_ionosphere,
    "wdbc": _convert_wdbc,
}
