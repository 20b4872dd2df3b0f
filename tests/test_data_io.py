"""The CSV reader against the reader it replaced, and the CSV writer.

``float_reader`` is the reader ``data_io`` had before one ``np.loadtxt``
call parsed the data rows: ``csv`` rows, each cell read by ``float()``.
It is the oracle of the differential test below. The two differ on the
cells named in the ``data_io`` docstring, which the grammar leaves out
and ``TestChangedCells`` checks one by one.
"""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reboost.cli import EXIT_CODES, EXIT_DATA, data_io, main
from reboost.cli.data_io import CsvParseError


def float_reader(path):
    """A header row and a rectangular table of finite numbers, every cell
    read by ``float()``; errors name the first bad line and column."""
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
                      for c, cell in enumerate(row) if not _float_is_finite(cell))
        raise CsvParseError(
            f"{path}:{linenos[i]}: column {col + 1} ({header[col]!r}) is not a finite "
            f"number: {cells[i][col]!r}"
        )
    return header, table


def _float_is_finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def outcome(read, path):
    """(header, table) of an accepted file; (exit code, message) of a rejected one."""
    try:
        return read(path)
    except CsvParseError as err:
        return next(code for types, code in EXIT_CODES if isinstance(err, types)), str(err)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([".5", "7.", "-0", "+3", "1e5", "-2.5E-3", "+.5e+2", "1e400", "-1e400",
                     "4.9e-324", "1e-400", "007", "0.0"]),
)
NOT_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "INF"])
NOT_NUMBERS = st.sampled_from(["", "abc", "1.2.3", "1e", "e5", "0x10", "1d5", "--1", "1 2",
                               "1,5", '1"2', "#1", "\ufeff1", "1-", "."])
SPACE = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u2003"])
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def cells(draw, numbers_only: bool):
    text = draw(NUMBERS if numbers_only else st.one_of(NUMBERS, NOT_FINITE, NOT_NUMBERS))
    text = draw(SPACE) + text + draw(SPACE)
    if draw(st.integers(0, 4)) == 0:  # quoted, any quote inside doubled, a line end inside
        inside = text.replace('"', '""') + draw(st.sampled_from(["", "", "\n", "\r\n"]))
        text = '"' + inside + '"' + draw(st.sampled_from(["", " "]))
    return text


@st.composite
def csv_files(draw):
    """A header row and lines: data rows of the header's width, blank lines,
    and in half the files also space-only lines, ragged rows, rows with a
    trailing comma and cells that are not finite numbers or no numbers at
    all; a BOM, line ends and the final newline drawn per file or per line."""
    well_formed = draw(st.booleans())
    kinds = ["row"] * 4 + ["blank"] + ([] if well_formed else
                                       ["spaces", "ragged", "trailing-comma"])
    width = draw(st.integers(1, 4))
    header = [draw(st.sampled_from(["x", "y", "col 1", '"a,b"', "target"]))
              for _ in range(width)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1 if well_formed else 0, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "spaces"):
            lines.append("" if kind == "blank" else " ")
            continue
        n = width + draw(st.sampled_from([-1, 1])) if kind == "ragged" else width
        row = [draw(cells(well_formed)) for _ in range(n)]
        lines.append(",".join(row) + ("," if kind == "trailing-comma" else ""))
    text = "".join(line + draw(LINE_END) for line in lines)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + text


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


class TestReaderAgainstFloatReader:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_files())
    def test_same_table_or_same_error(self, csv_path, text):
        csv_path.write_bytes(text.encode("utf-8"))
        expected = outcome(float_reader, csv_path)
        got = outcome(data_io._read_numeric_csv, csv_path)
        if isinstance(expected[1], str):  # rejected: same exit code and message
            assert got == expected
        else:
            assert got[0] == expected[0]
            assert got[1].shape == expected[1].shape
            assert got[1].tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("data", [
        b"x1,x2\n0.5,\xff1.0\n",
        b"x1,\xfex2\n0.5,1.0\n",
        b"x1,x2\n" + b"0.5,1.0\n" * 5000 + b"\xc3\n",  # past the first read buffer
    ], ids=["data-row", "header", "late"])
    def test_not_utf8(self, tmp_path, data):
        path = tmp_path / "x.csv"
        path.write_bytes(data)
        expected = outcome(float_reader, path)
        assert "not UTF-8 text" in expected[1]
        assert outcome(data_io._read_numeric_csv, path) == expected

    @pytest.mark.parametrize("name", ["x.csv.gz", "x.bz2", "x.xz"])
    def test_read_as_text_whatever_the_file_name(self, tmp_path, name):
        # np.loadtxt given a path would decompress by extension
        path = tmp_path / name
        path.write_text("x1,x2\n0.5,1.0\n", encoding="utf-8")
        assert data_io._read_numeric_csv(path)[1].tolist() == [[0.5, 1.0]]

    @pytest.mark.parametrize("text", ["", "x1,x2\n", "x1,x2\r\n\r\n\n"],
                             ids=["empty", "header-only", "header-and-blank-lines"])
    def test_no_data_rows_is_an_error_with_no_warning(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(data_io._read_numeric_csv, path)
        assert got == outcome(float_reader, path)
        assert got[0] == EXIT_DATA


class TestChangedCells:
    """Cells that ``float()`` took and the C parser rejects, and the one
    padding it rejected and the C parser takes."""

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "1\u0662", "\u0663.5"])
    def test_rejected_with_location(self, tmp_path, capsys, cell):
        data = tmp_path / "x.csv"
        data.write_text(f"x1,x2\n0.5,1.0\n{cell},2.0\n", encoding="utf-8")
        assert float_reader(data)[1].shape == (2, 2)  # the old reader took it
        with pytest.raises(CsvParseError) as err:
            data_io._read_numeric_csv(data)
        assert str(err.value) == f"{data}:3: column 1 ('x1') is not a finite number: {cell!r}"
        code = main(["train", "--data", str(data), "--model-out", str(tmp_path / "m.txt")])
        assert code == EXIT_DATA
        assert f":3: column 1 ('x1') is not a finite number: {cell!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_information_separator_padding_accepted(self, tmp_path, pad):
        data = tmp_path / "x.csv"
        data.write_text(f"x1,x2\n{pad}0.5,1.0{pad}\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            float_reader(data)
        assert data_io._read_numeric_csv(data)[1].tolist() == [[0.5, 1.0]]


class TestWriteCsv:
    VALUES = np.array([0.1, -0.0, 1 / 3, 5e-324, 1e17, 123456789012345678.0, -2.5,
                       float("nan"), float("inf"), -float("inf")])

    def write(self, tmp_path, header, columns):
        path = tmp_path / "out.csv"
        data_io.write_csv(path, header, columns)
        return path.read_bytes()

    def test_float_arrays_as_per_cell_formatting(self, tmp_path):
        cols = [self.VALUES, self.VALUES[::-1].copy()]
        bulk = self.write(tmp_path, ("a", "b"), cols)
        assert bulk == self.write(tmp_path, ("a", "b"), [c.tolist() for c in cols])
        assert bulk.splitlines()[1:3] == [b"0.10000000000000001,-inf", b"-0,inf"]

    def test_text_cells_quoted(self, tmp_path):
        got = self.write(tmp_path, ("k", "learner", "beta"),
                         [(1, 2), ("tree[J2:f0@1,f1@2]", 'a"b'), (0.5, np.float64(0.25))])
        assert got == b'k,learner,beta\n1,"tree[J2:f0@1,f1@2]",0.5\n2,"a""b",0.25\n'

    @pytest.mark.parametrize("columns", [[], [np.empty(0)], [()]], ids=["none", "array", "tuple"])
    def test_no_rows_writes_the_header(self, tmp_path, columns):
        assert self.write(tmp_path, ("prediction",), columns) == b"prediction\n"

    def test_predictions_read_back_exactly(self, tmp_path):
        preds = np.random.default_rng(0).normal(size=50) * 1e3
        data_io.write_csv(tmp_path / "p.csv", ("prediction",), [preds])
        assert data_io._read_numeric_csv(tmp_path / "p.csv")[1][:, 0].tobytes() == preds.tobytes()

