"""The dataset converters of ``reboost fetch``, on inline text fixtures."""

import pytest

from reboost.cli import fetch


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
