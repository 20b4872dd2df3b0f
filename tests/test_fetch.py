"""The dataset converters of ``reboost fetch``, on inline text fixtures."""

from hashlib import sha256

import pytest

from reboost.cli import EXIT_DATA, EXIT_OK, fetch, main


def numbers(count, start=1):
    return [f"{0.5 * i:g}" for i in range(start, start + count)]


def test_csv_passthrough_keeps_header_and_skips_blank_rows():
    rows, header = fetch._convert_csv_passthrough("a,b,target\n1,2,3\n\n4,5,6\n")
    assert header == ["a", "b", "target"]
    assert rows == [["1", "2", "3"], ["4", "5", "6"]]


def test_whitespace_header_splits_on_runs_of_blanks():
    rows, header = fetch._convert_whitespace_header("AGE SEX\tY\n59  2 151\n\n48 1\t75\n")
    assert header == ["AGE", "SEX", "Y"]
    assert rows == [["59", "2", "151"], ["48", "1", "75"]]


def test_prostate_drops_index_and_split_columns():
    text = ("\tlcavol\tlweight\tage\tlbph\tsvi\tlcp\tgleason\tpgg45\tlpsa\ttrain\n"
            "1\t-0.58\t2.77\t50\t-1.39\t0\t-1.39\t6\t0\t-0.43\tT\n"
            "2\t-0.99\t3.32\t58\t-1.39\t0\t-1.39\t6\t0\t-0.16\tF\n")
    rows, header = fetch._convert_prostate(text)
    assert header == ["lcavol", "lweight", "age", "lbph", "svi", "lcp", "gleason",
                      "pgg45", "lpsa"]
    assert rows == [["-0.58", "2.77", "50", "-1.39", "0", "-1.39", "6", "0", "-0.43"],
                    ["-0.99", "3.32", "58", "-1.39", "0", "-1.39", "6", "0", "-0.16"]]


def test_abalone_encodes_sex_in_one_column():
    values = numbers(8)
    text = "\n".join(f"{sex},{','.join(values)}" for sex in "MFI") + "\n"
    rows, header = fetch._convert_abalone(text)
    assert header == ["sex", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "target"]
    assert [row[0] for row in rows] == ["1", "-1", "0"]
    assert all(row[1:] == values for row in rows)


@pytest.mark.parametrize("convert, n_features, positive, negative", [
    (fetch._convert_spam, 57, "1", "0"),
    (fetch._convert_ionosphere, 34, "g", "b"),
], ids=["spam", "ionosphere"])
def test_class_flag_last_becomes_plus_minus_one(convert, n_features, positive, negative):
    values = numbers(n_features)
    text = f"{','.join(values)},{positive}\n{','.join(values)},{negative}\n"
    rows, header = convert(text)
    assert header == [f"x{i + 1}" for i in range(n_features)] + ["target"]
    assert rows == [values + ["1"], values + ["-1"]]


def test_wdbc_drops_id_and_moves_diagnosis_last():
    values = numbers(30)
    text = f"842302,M,{','.join(values)}\n842517,B,{','.join(values)}\n"
    rows, header = fetch._convert_wdbc(text)
    assert len(header) == 31 and header[-1] == "target"
    assert rows == [values + ["1"], values + ["-1"]]


def test_every_table_format_has_a_converter():
    table = fetch.load_source_table()
    assert {table[name]["format"] for name in table.sections()} <= set(fetch._CONVERTERS)


@pytest.mark.parametrize("convert, text, message", [
    (fetch._convert_spam, "1,2,1\n", "line 1: 3 fields, expected 58"),
    (fetch._convert_spam, ",".join(numbers(57)) + ",2\n", "line 1: unknown code '2'"),
    (fetch._convert_abalone, "\n".join(f"{sex},{','.join(numbers(8))}" for sex in "MX"),
     "line 2: unknown code 'X'"),
    (fetch._convert_abalone, "M,1,2\n", "line 1: 3 fields, expected 9"),
    (fetch._convert_wdbc, f"842302,M,{','.join(numbers(30))}\n\n842517\n",
     "line 3: 1 fields, expected 32"),
    (fetch._convert_wdbc, f"842302,X,{','.join(numbers(30))}\n", "line 1: unknown code 'X'"),
    (fetch._convert_ionosphere, ",".join(numbers(34)) + ",x\n", "line 1: unknown code 'x'"),
    (fetch._convert_ionosphere, "1,g\n", "line 1: 2 fields, expected 35"),
    (fetch._convert_csv_passthrough, "a,b,target\n1,2,3\n4,5\n", "line 3: 2 fields, expected 3"),
    (fetch._convert_csv_passthrough, "\n", "no header line"),
    (fetch._convert_whitespace_header, "AGE SEX Y\n59 2 151 7\n", "line 2: 4 fields, expected 3"),
    (fetch._convert_whitespace_header, "", "no header line"),
    (fetch._convert_prostate, "\tlcavol\tlpsa\ttrain\n1\t-0.58\t-0.43\n",
     "line 2: 3 fields, expected 4"),
], ids=["spam-width", "spam-code", "abalone-sex", "abalone-width", "wdbc-width",
        "wdbc-code", "ionosphere-code", "ionosphere-width", "csv-width", "csv-empty",
        "whitespace-width", "whitespace-empty", "prostate-width"])
def test_malformed_rows_raise_raw_data_error(convert, text, message):
    with pytest.raises(fetch.RawDataError, match=message):
        convert(text)


def test_malformed_download_exits_3_naming_the_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(fetch.CACHE_ENV, str(tmp_path / "cache"))
    raw = tmp_path / "spam.data"
    raw.write_text("1,2,1\n", encoding="utf-8")
    table = tmp_path / "table.cfg"
    table.write_text(f"[spam]\nurl = {raw.as_uri()}\nsha256 = unpinned\nformat = spam\n",
                     encoding="utf-8")
    code = main(["fetch", "--name", "spam", "--table", str(table),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_DATA
    raw_copy = tmp_path / "cache" / "raw" / f"{sha256(raw.as_uri().encode()).hexdigest()}.data"
    assert capsys.readouterr().err == f"error: {raw_copy}: line 1: 3 fields, expected 58\n"
    assert not (tmp_path / "out" / "spam.csv").exists()


def test_percent_encoded_url_is_read_verbatim(tmp_path, monkeypatch):
    monkeypatch.setenv(fetch.CACHE_ENV, str(tmp_path / "cache"))
    raw = tmp_path / "toy data.data"
    raw.write_text("a,b,target\n1,2,3\n", encoding="utf-8")
    assert "%20" in raw.as_uri()
    table = tmp_path / "table.cfg"
    table.write_text(f"[toy]\nurl = {raw.as_uri()}\nformat = csv-target-last\n",
                     encoding="utf-8")
    code = main(["fetch", "--name", "toy", "--table", str(table),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "toy.csv").read_text(encoding="utf-8") == "a,b,target\n1,2,3\n"


@pytest.mark.parametrize("table_bytes, message", [
    (b"url = x\n", "not a source table: File contains no section headers."),
    (b"[toy]\nurl = \xff\n", "not a source table: 'utf-8' codec can't decode"),
    (b"[toy]\nformat = csv-target-last\n", "entry [toy] has no url"),
    (b"[toy]\nurl = RAW\nformat = nosuch\n", "entry [toy]: unknown format 'nosuch'"),
], ids=["not-ini", "not-utf8", "no-url", "unknown-format"])
def test_malformed_table_exits_3_before_download(tmp_path, monkeypatch, capsys,
                                                 table_bytes, message):
    monkeypatch.setenv(fetch.CACHE_ENV, str(tmp_path / "cache"))
    raw = tmp_path / "toy.data"
    raw.write_text("a,b,target\n1,2,3\n", encoding="utf-8")
    table = tmp_path / "table.cfg"
    table.write_bytes(table_bytes.replace(b"RAW", raw.as_uri().encode()))
    code = main(["fetch", "--name", "toy", "--table", str(table),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "cache").exists()  # nothing was downloaded
    assert not (tmp_path / "out").exists()


def toy_table(tmp_path, tag, rows):
    """A table at ``<tag>.cfg`` whose [toy] entry reads ``<tag>.data``."""
    raw = tmp_path / f"{tag}.data"
    raw.write_text(f"a,b,target\n{rows}", encoding="utf-8")
    table = tmp_path / f"{tag}.cfg"
    table.write_text(f"[toy]\nurl = {raw.as_uri()}\nformat = csv-target-last\n",
                     encoding="utf-8")
    return raw, table


def test_cache_is_keyed_by_url(tmp_path, monkeypatch):
    # one cache, one dataset name, three sources: each fetch writes its own rows
    monkeypatch.setenv(fetch.CACHE_ENV, str(tmp_path / "cache"))
    _, first = toy_table(tmp_path, "first", "1,2,3\n")
    _, second = toy_table(tmp_path, "second", "4,5,6\n")
    override, _ = toy_table(tmp_path, "override", "7,8,9\n")
    out = tmp_path / "out" / "toy.csv"
    for argv, rows in [(["--table", str(first)], "1,2,3\n"),
                       (["--table", str(second)], "4,5,6\n"),
                       (["--table", str(first), "--url", override.as_uri()], "7,8,9\n"),
                       (["--table", str(first)], "1,2,3\n")]:
        assert main(["fetch", "--name", "toy", "--out-dir", str(out.parent), *argv]) == EXIT_OK
        assert out.read_text(encoding="utf-8") == "a,b,target\n" + rows
    assert len(list((tmp_path / "cache" / "raw").iterdir())) == 3


def test_failed_cache_write_leaves_no_cached_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(fetch.CACHE_ENV, str(tmp_path / "cache"))
    _, table = toy_table(tmp_path, "toy", "1,2,3\n")
    argv = ["fetch", "--name", "toy", "--table", str(table), "--out-dir", str(tmp_path / "out")]

    def replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(fetch.os, "replace", replace)
    assert main(argv) == EXIT_DATA
    assert "No space left on device" in capsys.readouterr().err
    assert list((tmp_path / "cache" / "raw").iterdir()) == []
    monkeypatch.undo()
    monkeypatch.setenv(fetch.CACHE_ENV, str(tmp_path / "cache"))
    assert main(argv) == EXIT_OK
    assert (tmp_path / "out" / "toy.csv").read_text(encoding="utf-8") == "a,b,target\n1,2,3\n"
