import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from reboost import harness
from reboost.boosters import (
    DictionaryLearner,
    Plain,
    Rescale,
    ShrinkageSchedule,
    StumpLearner,
    TrainConfig,
    excess_risk_trace,
    train,
)
from reboost.cli import (
    EXIT_CHECKSUM,
    EXIT_DATA,
    EXIT_FLAGS,
    EXIT_NETWORK,
    EXIT_OK,
    EXIT_TRAIN,
    build_parser,
    fetch,
    main,
)
from reboost.cli.model_io import model_from_text, model_to_text
from reboost.core import Dataset, InvalidInputError, Task
from reboost.losses import LossKind
from reboost.synthdata import SparseDictionarySpec, gen_sparse_dictionary_instance


def with_checksum(body_lines):
    body = "\n".join(body_lines) + "\n"
    return body + f"checksum={zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}\n"


@pytest.fixture
def model_lines():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30), Task.REGRESSION)
    config = TrainConfig(3, LossKind.SQUARED, StumpLearner(),
                         Rescale(ShrinkageSchedule.theorem()))
    model, _ = train(data, config, 0)
    return model_to_text(model, LossKind.SQUARED, Task.REGRESSION, 0).splitlines()[:-1]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def predict(tmp_path, model_text, data_text="x1,x2\n0.5,-1.0\n2.0,0.25\n"):
    return main(["predict", "--model", write(tmp_path / "model.txt", model_text),
                 "--data", write(tmp_path / "x.csv", data_text),
                 "--out", str(tmp_path / "out.csv")])


class TestPredictModelErrors:
    def test_valid_model_predicts(self, tmp_path, model_lines):
        assert predict(tmp_path, with_checksum(model_lines)) == EXIT_OK

    def test_missing_features_line(self, tmp_path, model_lines, capsys):
        lines = [ln for ln in model_lines if not ln.startswith("features=")]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert "features=" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_feature_count_below_one(self, tmp_path, model_lines, count, capsys):
        lines = [f"features={count}" if ln.startswith("features=") else ln
                 for ln in model_lines]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        expected = {"-1": "features= must be ASCII digits, got '-1'",  # a sign is not a digit
                    "0": "features= must be >= 1, got 0"}[count]
        assert expected in capsys.readouterr().err

    def test_bad_term_json(self, tmp_path, model_lines):
        lines = [ln + "}" if ln.startswith("term ") else ln for ln in model_lines]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA

    def test_non_integer_version(self, tmp_path, model_lines):
        lines = ["reboost-model one"] + model_lines[1:]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA

    def test_nan_coefficient(self, tmp_path, model_lines, capsys):
        i = next(i for i, ln in enumerate(model_lines) if ln.startswith("term "))
        _, _, payload = model_lines[i].split(" ", 2)
        lines = model_lines[:i] + [f"term nan {payload}"] + model_lines[i + 1:]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.7", "-1", "nan", "1e-300"])
    def test_intercept_other_than_zero(self, tmp_path, model_lines, value, capsys):
        lines = [f"intercept={value}" if ln.startswith("intercept=") else ln
                 for ln in model_lines]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert capsys.readouterr().err == f"error: model intercept must be 0, got {value}\n"

    def test_intercept_zero_is_written(self, model_lines):
        assert model_lines.count("intercept=0") == 1

    @pytest.mark.parametrize("payload, message", [
        ('{"kind":"stump","feature":0,"threshold":0.0,"left":-2.0,"right":2.0,"scale":0.5}',
         "stump record keys ['feature', 'kind', 'left', 'right', 'scale', 'threshold'] "
         "are not exactly ['feature', 'kind', 'left', 'right', 'threshold']"),
        ('{"kind":"atom","feature":0,"low":0.0,"high":1.0,"value":1.0,"note":"x"}',
         "atom record keys ['feature', 'high', 'kind', 'low', 'note', 'value'] "
         "are not exactly ['feature', 'high', 'kind', 'low', 'value']"),
    ], ids=["legacy-scale", "unknown-key"])
    def test_term_with_a_key_outside_its_kind(self, tmp_path, model_lines, payload,
                                              message, capsys):
        i = next(i for i, ln in enumerate(model_lines) if ln.startswith("term "))
        lines = model_lines[:i] + [f"term 1 {payload}"] + model_lines[i + 1:]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, keys", [
        (lambda ls: ls[:2] + ["loss=logistic"] + ls[2:], ["loss=", "loss="]),
        (lambda ls: ls + ["seed=1"], ["terms=", "seed="]),
        (lambda ls: ls + ["featurez=7"], ["terms=", "featurez="]),
        (lambda ls: ls + ["garbage"], ["terms=", "garbage"]),
        (lambda ls: ls + [""], ["terms=", ""]),
        (lambda ls: [ln for ln in ls if not ln.startswith("intercept=")], ["seed=", "terms="]),
    ], ids=["repeated-loss", "repeated-seed", "unknown-field", "bare-line", "blank-line",
            "no-intercept"])
    def test_each_header_field_once_and_nothing_else(self, tmp_path, model_lines, edit, keys,
                                                     capsys):
        # ``keys`` is a run of the header keys that the error lists, in file order
        assert predict(tmp_path, with_checksum(edit(model_lines))) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: model file header lines [") and err.count("\n") == 1
        assert str(keys)[1:-1] in err
        assert err.endswith(" are not each of ['loss=', 'task=', 'features=', 'seed=', "
                            "'intercept=', 'terms='] once\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: [ln.replace("features=2", "features=1_0") for ln in ls],
         "features= must be ASCII digits, got '1_0'"),
        (lambda ls: [ln.replace("seed=0", "seed=\u0661\u0662") for ln in ls],
         "seed= must be ASCII digits, got '\u0661\u0662'"),
        (lambda ls: [ln.replace("terms=3", "terms= 3 ") for ln in ls],
         "terms= must be ASCII digits, got ' 3 '"),
        (lambda ls: [ln.replace("seed=0", "seed=-7") for ln in ls],
         "seed= must be ASCII digits, got '-7'"),
        (lambda ls: ["reboost-model +1"] + ls[1:],
         "format version must be ASCII digits, got '+1'"),
    ], ids=["underscore", "arabic-indic-digits", "spaces", "negative-seed", "signed-version"])
    def test_integer_fields_are_ascii_digits(self, tmp_path, model_lines, edit, message,
                                             capsys):
        # int() takes each of these; the writer writes none of them
        lines = edit(model_lines)
        assert lines != model_lines
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert capsys.readouterr().err == f"error: model {message}\n"

    @pytest.mark.parametrize("edit", [
        lambda crc: f" {crc} ", lambda crc: f"0x{crc}", lambda crc: f"{crc[:4]}_{crc[4:]}",
        str.upper, lambda crc: f"+{crc}", lambda crc: f"{int(crc, 16) ^ 1:08x}",
    ], ids=["spaces", "0x-prefix", "underscore", "uppercase", "plus-sign", "other-content"])
    def test_checksum_footer_is_the_written_checksum(self, tmp_path, model_lines, edit, capsys):
        # int(footer, 16) read all but the last as the right checksum; the
        # writer writes 8 lowercase hex digits alone
        body, _, crc = with_checksum(model_lines).rstrip("\n").rpartition("checksum=")
        footer = edit(crc)
        assert footer != crc
        assert predict(tmp_path, f"{body}checksum={footer}\n") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: model checksum mismatch: file says {footer!r}, content is {crc}\n")

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3", np.int64(3)],
                             ids=["negative", "bool", "float", "str", "numpy-int"])
    def test_writer_takes_only_a_seed_the_reader_loads(self, model_lines, seed):
        model = model_from_text(with_checksum(model_lines))[0]
        with pytest.raises(InvalidInputError, match=r"model seed must be an int >= 0, got "):
            model_to_text(model, LossKind.SQUARED, Task.REGRESSION, seed)
        assert model_from_text(model_to_text(model, LossKind.SQUARED, Task.REGRESSION,
                                             2 ** 70))[3] == 2 ** 70

    @pytest.mark.parametrize("loss", ["logistic", "exponential"])
    def test_margin_loss_needs_a_classification_task(self, tmp_path, model_lines, loss, capsys):
        lines = [f"loss={loss}" if ln.startswith("loss=") else ln for ln in model_lines]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert capsys.readouterr().err == (f"error: model loss={loss} needs "
                                           "task=binary-classification, got task=regression\n")

    def test_hand_checksummed_mixed_header(self, tmp_path, model_lines, capsys):
        # a second loss= line, a misspelt field and a bare line, with the
        # checksum recomputed by hand: not a logistic model on a regression task
        lines = []
        for ln in model_lines:
            lines.append(ln)
            if ln == "loss=squared":
                lines += ["loss=logistic", "featurez=7", "garbage"]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: model file header lines ['loss=', 'loss=', 'featurez=', 'garbage', "
            "'task=', 'features=', 'seed=', 'intercept=', 'terms='] are not each of "
            "['loss=', 'task=', 'features=', 'seed=', 'intercept=', 'terms='] once\n")

    def test_infinite_intercept(self, tmp_path, model_lines):
        lines = ["intercept=inf" if ln.startswith("intercept=") else ln
                 for ln in model_lines]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "1e999", "1" + "0" * 400],
                             ids=["nan", "-inf", "float-overflow", "int-overflow"])
    def test_non_finite_term_value(self, tmp_path, model_lines, value):
        i = next(i for i, ln in enumerate(model_lines) if ln.startswith("term "))
        coef, payload = model_lines[i].split(" ", 2)[1:]
        payload = payload.replace('"left":', f'"left":{value},"was":', 1)
        lines = model_lines[:i] + [f"term {coef} {payload}"] + model_lines[i + 1:]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA


    @pytest.mark.parametrize("payload", [
        '{"kind":"tree","splits":1,"nodes":[[0,0.5,0,1,0],[-1,0,-1,-1,2]]}',
        '{"kind":"stump","feature":-1,"threshold":0.0,"left":1.0,"right":2.0}',
        '{"kind":"stump","feature":1.9,"threshold":0.0,"left":1.0,"right":2.0}',
        '{"kind":"tree","splits":7,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
        '{"kind":"stump","feature":0,"threshold":"0.5","left":true,"right":"nan"}',
        '{"kind":"tree","splits":3,"nodes":[[0,0.5,1,2,0],[0,0.5,3,4,0],[1,0.5,3,4,0],'
        '[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
        '{"kind":"stump","feature":0,"threshold":0.0,"left":1.0,"right":2.0,"left":-5.0}',
        '[1,2]',
        '"stump"',
        '{"kind":["stump"]}',
    ], ids=["cyclic-tree", "negative-feature", "float-feature", "splits-not-its-node-count",
            "string-and-bool-floats", "tree-child-of-two-splits", "repeated-key",
            "list-record", "string-record", "list-kind"])
    def test_malformed_learner(self, tmp_path, model_lines, payload, capsys):
        i = next(i for i, ln in enumerate(model_lines) if ln.startswith("term "))
        lines = model_lines[:i] + [f"term 1 {payload}"] + model_lines[i + 1:]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        err = capsys.readouterr().err
        # one plain error line, with no Python exception name in it
        assert err.startswith("error:") and err.count("\n") == 1
        assert not re.search(r"[A-Z][a-z]+Error", err)

    def test_feature_beyond_the_declared_count_exits_3_at_load(self, tmp_path, model_lines,
                                                              capsys):
        i = next(i for i, ln in enumerate(model_lines) if ln.startswith("term "))
        payload = '{"kind":"stump","feature":2,"threshold":0.0,"left":1.0,"right":2.0}'
        lines = model_lines[:i + 1] + [f"term 1 {payload}"] + model_lines[i + 2:]
        assert predict(tmp_path, with_checksum(lines)) == EXIT_DATA
        assert capsys.readouterr().err == ("error: model term 2 (stump) uses feature 2, "
                                           "but the model declares features=2\n")

    def test_non_utf8_model(self, tmp_path, model_lines):
        text = with_checksum(model_lines).encode("utf-8")
        (tmp_path / "model.bin").write_bytes(text.replace(b"seed=", b"\xffseed=", 1))
        code = main(["predict", "--model", str(tmp_path / "model.bin"),
                     "--data", write(tmp_path / "x.csv", "x1,x2\n0.5,1.0\n"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_DATA


class TestPredictDataErrors:
    def test_ragged_row(self, tmp_path, model_lines, capsys):
        code = predict(tmp_path, with_checksum(model_lines), "x1,x2\n0.5,1.0\n2.0\n")
        assert code == EXIT_DATA
        assert ":3: expected 2 columns" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature(self, tmp_path, model_lines, cell, capsys):
        code = predict(tmp_path, with_checksum(model_lines), f"x1,x2\n0.5,1.0\n{cell},2.0\n")
        assert code == EXIT_DATA
        assert ":3: column 1 ('x1') is not a finite number" in capsys.readouterr().err

    def test_non_numeric_feature(self, tmp_path, model_lines, capsys):
        code = predict(tmp_path, with_checksum(model_lines), "x1,x2\n\n0.5,1.0\n2.0,abc\n")
        assert code == EXIT_DATA
        assert ":4: column 2 ('x2')" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, model_lines, capsys):
        (tmp_path / "x.bin").write_bytes(b"x1,x2\n0.5,\xff1.0\n")
        code = main(["predict", "--model", write(tmp_path / "model.txt",
                                                  with_checksum(model_lines)),
                     "--data", str(tmp_path / "x.bin"), "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_DATA
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_dataset_csv_target_column_dropped(self, tmp_path, model_lines):
        code = predict(tmp_path, with_checksum(model_lines), "x1,x2,y\n0.5,1.0,3.0\n")
        assert code == EXIT_OK


class TestTrainTraceCsv:
    def test_every_trace_field_written(self, tmp_path):
        # separable labels with exponential loss: the first step is capped
        data = write(tmp_path / "d.csv", "x,y\n-2,-1\n-1,-1\n1,1\n2,1\n")
        trace_out = tmp_path / "trace.csv"
        code = main(["train", "--data", data, "--task", "classification",
                     "--loss", "exponential", "--variant", "plain",
                     "--iterations", "2", "--model-out", str(tmp_path / "m.txt"),
                     "--trace-out", str(trace_out)])
        assert code == EXIT_OK
        with open(trace_out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["k", "learner", "beta", "alpha", "risk", "note"]
        assert rows[0]["note"] == "capped-beta"
        assert rows[0]["learner"].startswith("stump[")
        assert abs(float(rows[0]["beta"])) == 2.0 ** 60

    def test_non_finite_training_target_rejected(self, tmp_path):
        data = write(tmp_path / "d.csv", "x,y\n1,0.5\n2,nan\n")
        code = main(["train", "--data", data, "--model-out", str(tmp_path / "m.txt")])
        assert code == EXIT_DATA


class TestTrainUnderflowingDirection:
    @pytest.mark.parametrize("flags", [
        ["--variant", "plain"],
        ["--variant", "rescale"],
        ["--variant", "shrunk", "--nu", "0.5"],
        ["--variant", "truncated", "--t0", "1"],
    ], ids=["plain", "rescale", "shrunk", "truncated"])
    def test_stops_early_with_note(self, tmp_path, capsys, flags):
        # targets near 1e-170: the squared line search finds g.g = 0
        rows = "".join(f"{i},{1e-170 * (1 + i % 3)!r}\n" for i in range(20))
        data = write(tmp_path / "d.csv", "x,y\n" + rows)
        code = main(["train", "--data", data, "--model-out", str(tmp_path / "m.txt"), *flags])
        assert code == EXIT_OK
        assert "note: degenerate direction at iteration 1" in capsys.readouterr().err
        assert (tmp_path / "m.txt").exists()


class TestTrainRescaleUOne:
    def test_alpha_one_first_step_trains(self, tmp_path):
        # u = 1 gives alpha_1 = 2/(1+1) = 1, which rescales the zero model
        data = write(tmp_path / "d.csv", "x,y\n0,1.0\n1,2.5\n2,-0.5\n3,0.75\n")
        code = main(["train", "--data", data, "--variant", "rescale", "--u", "1",
                     "--iterations", "5", "--model-out", str(tmp_path / "m.txt")])
        assert code == EXIT_OK


class TestTrainZeroOneLabels:
    def test_remap_is_logged_not_warned(self, tmp_path, caplog, recwarn):
        data = write(tmp_path / "c.csv", "x,y\n0,0\n1,1\n2,0\n3,1\n")
        code = main(["train", "--data", data, "--task", "classification",
                     "--loss", "logistic", "--iterations", "2",
                     "--model-out", str(tmp_path / "m.txt")])
        assert code == EXIT_OK
        remaps = [r for r in caplog.records if "remapping" in r.getMessage()]
        assert [(r.levelname, r.getMessage()) for r in remaps] == [
            ("WARNING", f"{data}: remapping {{0,1}} labels to {{-1,+1}}")]
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


class TestUnwritableOutput:
    def test_train_model_out_in_missing_directory(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "x,y\n0,1.0\n1,2.5\n2,-0.5\n")
        code = main(["train", "--data", data, "--iterations", "2",
                     "--model-out", str(tmp_path / "missing" / "m.txt")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")

    def test_train_trace_out_in_missing_directory(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "x,y\n0,1.0\n1,2.5\n2,-0.5\n")
        code = main(["train", "--data", data, "--iterations", "2",
                     "--model-out", str(tmp_path / "m.txt"),
                     "--trace-out", str(tmp_path / "missing" / "t.csv")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")

    def test_predict_out_in_missing_directory(self, tmp_path, model_lines, capsys):
        code = main(["predict", "--model", write(tmp_path / "model.txt",
                                                  with_checksum(model_lines)),
                     "--data", write(tmp_path / "x.csv", "x1,x2\n0.5,1.0\n"),
                     "--out", str(tmp_path / "missing" / "out.csv")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh raw-download cache, so every fetch below reads only local files."""
    monkeypatch.setenv(fetch.CACHE_ENV, str(tmp_path / "cache"))
    return tmp_path / "cache"


def toy_table(tmp_path, sha256):
    raw = tmp_path / "toy.data"
    raw.write_text("a,b,target\n1,2,3\n4,5,6\n", encoding="utf-8")
    if sha256 is None:
        sha256 = hashlib.sha256(raw.read_bytes()).hexdigest()
    return write(tmp_path / "table.cfg",
                 f"[toy]\nurl = {raw.as_uri()}\nsha256 = {sha256}\nformat = csv-target-last\n")


# (sub-command with its required flags, integer flag), for every integer flag
INTEGER_FLAGS = [
    pytest.param(command, flag, id=f"{command[0]}{flag}")
    for command, flags in [
        (["train", "--data", "d.csv", "--model-out", "m.txt"], ["--splits", "--iterations"]),
        (["simulate", "--experiment", "m1"], ["--q", "--runs", "--k-max"]),
        (["bench", "--data", "d.csv", "--task", "regression"], ["--runs", "--k-max"]),
        (["convergence"], ["--samples", "--atoms", "--sparsity", "--k-max"]),
    ]
    for flag in [*flags, "--seed"]
]


class TestExitCodes:
    def test_default_section_is_an_unknown_dataset(self, tmp_path, cache, capsys):
        code = main(["fetch", "--name", "DEFAULT", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_FLAGS
        assert "unknown dataset 'DEFAULT'" in capsys.readouterr().err

    def test_unknown_dataset_exits_2(self, tmp_path, cache, capsys):
        code = main(["fetch", "--name", "nosuch", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_FLAGS
        assert "unknown dataset 'nosuch'" in capsys.readouterr().err

    def test_first_degree_above_one_exits_2_before_reading_data(self, tmp_path, capsys):
        # u = 0.5 gives alpha_1 = 2 / (1 + 0.5) > 1: the schedule is a flag
        # error, raised before the (missing) data file is opened
        code = main(["train", "--data", str(tmp_path / "missing.csv"), "--variant", "rescale",
                     "--u", "0.5", "--iterations", "3", "--model-out", str(tmp_path / "m.txt")])
        assert code == EXIT_FLAGS
        err = capsys.readouterr().err
        assert err == ("error: schedule requires a finite c >= 0, a finite u > -1 and "
                       "c <= 1 + u in c/(k+u), got c = 2.0, u = 0.5\n")
        assert not (tmp_path / "m.txt").exists()

    def test_repeated_method_exits_2(self, capsys):
        code = main(["simulate", "--experiment", "orange", "--runs", "1", "--k-max", "3",
                     "--methods", "plain", "plain"])
        assert code == EXIT_FLAGS
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a method is named more than once in ['plain', 'plain']\n"

    @pytest.mark.parametrize("flags, message", [
        (["--variant", "shrunk"], "--nu is required"),
        (["--variant", "truncated"], "--t0 is required"),
        (["--variant", "epsilon"], "--eps is required"),
        (["--iterations", "0"], "max_iterations must be >= 1"),
        (["--learner", "tree", "--splits", "0"], "splits must be >= 1"),
        (["--learner", "tree", "--splits", "-1"], "splits must be >= 1"),
        (["--splits", "-1"], "splits must be >= 1"),
        (["--learner", "stump", "--splits", "0"], "splits must be >= 1"),
        (["--loss", "logistic"], "logistic loss needs --task classification"),
        (["--loss", "exponential"], "exponential loss needs --task classification"),
        (["--variant", "truncated", "--t0", "inf"], "finite t0 > 0"),
        (["--variant", "truncated", "--t0", "1", "--t-exponent", "nan"], "exponent = nan"),
        (["--variant", "truncated", "--t0", "1", "--t-exponent", "inf"], "exponent = inf"),
        (["--variant", "truncated", "--t0", "1", "--t-exponent=-inf"], "exponent = -inf"),
        (["--variant", "truncated", "--t0", "1", "--t-exponent=-0.5"], "exponent = -0.5"),
        (["--variant", "truncated", "--t0", "1", "--t-exponent", "1000", "-k", "5"],
         "truncated bound t_5 = 0.0 must be > 0"),
        (["--variant", "epsilon", "--eps", "inf"], "eps must be positive and finite"),
        (["--variant", "rescale", "--u", "nan"], "schedule requires"),
        (["--variant", "rescale", "--u", "inf"], "a finite u > -1"),
    ], ids=["shrunk-no-nu", "truncated-no-t0", "epsilon-no-eps", "iterations-0", "splits-0",
            "tree-splits-minus-1", "default-stump-splits-minus-1", "stump-splits-0",
            "logistic-regression-task", "exponential-regression-task", "t0-inf",
            "t-exponent-nan", "t-exponent-inf", "t-exponent-minus-inf", "t-exponent-negative",
            "t-bound-underflows", "eps-inf", "u-nan", "u-inf"])
    def test_train_flag_errors_exit_2(self, tmp_path, capsys, flags, message):
        data = write(tmp_path / "d.csv", "x,y\n0,1.0\n1,2.5\n2,-0.5\n")
        code = main(["train", "--data", data, "--model-out", str(tmp_path / "m.txt"), *flags])
        assert code == EXIT_FLAGS
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_loss_task_mismatch_exits_2_before_reading_data(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "missing.csv"), "--loss", "logistic",
                     "--model-out", str(tmp_path / "m.txt")])
        assert code == EXIT_FLAGS
        assert "needs --task classification" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--samples", "16", "--atoms", "32"], "need n_atoms <= n_samples"),
        (["--sparsity", "0"], "sparsity must be in [1, n_atoms]"),
        (["--coef-norm", "0"], "coef_norm must be positive"),
        (["--coef-norm", "inf"], "coef_norm must be positive and finite"),
    ], ids=["atoms-above-samples", "sparsity-0", "coef-norm-0", "coef-norm-inf"])
    def test_convergence_flag_errors_exit_2(self, capsys, flags, message):
        assert main(["convergence", "--k-max", "4", *flags]) == EXIT_FLAGS
        assert message in capsys.readouterr().err

    def test_every_run_failed_exits_4(self, monkeypatch, capsys):
        def tune(*args):
            raise harness.TuningError("every grid cell failed")

        monkeypatch.setattr(harness, "tune", tune)
        code = main(["simulate", "--experiment", "m2", "--runs", "1", "--k-max", "3",
                     "--methods", "plain", "shrunk"])
        assert code == EXIT_TRAIN
        assert "every run failed for methods: ['plain', 'shrunk']" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_simulate_sigma_not_finite_and_non_negative_exits_2(self, capsys, sigma):
        code = main(["simulate", "--experiment", "m2", f"--sigma={sigma}", "--runs", "1",
                     "--k-max", "3", "--methods", "plain"])
        assert code == EXIT_FLAGS
        assert "sigma must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--experiment", "m2"],
        ["simulate", "--experiment", "orange"],
        ["bench", "--task", "regression"],
    ], ids=["simulate-m2", "simulate-orange", "bench"])
    def test_k_max_below_one_exits_2(self, tmp_path, capsys, command, k_max):
        data = ["--data", write(tmp_path / "d.csv", "x,y\n0,1.0\n1,2.5\n")]
        argv = command + (data if command[0] == "bench" else []) + ["--k-max", k_max]
        assert main(argv + ["--runs", "1", "--methods", "plain"]) == EXIT_FLAGS
        assert f"k_max must be >= 1, got {k_max}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train"],
        ["simulate", "--experiment", "m2", "--runs", "1", "--k-max", "3"],
        ["bench", "--task", "regression", "--runs", "1", "--k-max", "3"],
        ["convergence", "--k-max", "4"],
    ], ids=["train", "simulate", "bench", "convergence"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        # numpy's seeding rejects negative seeds with a ValueError, which
        # escaped main with exit 1; train exited 0, only recording the seed
        argv = [*command, "--seed", "-1"]
        if command[0] in ("train", "bench"):
            argv += ["--data", write(tmp_path / "d.csv", "x,y\n0,1.0\n1,2.5\n")]
        if command[0] == "train":
            argv += ["--model-out", str(tmp_path / "m.txt")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_FLAGS
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
    def test_integer_flags_take_only_a_sign_and_ascii_digits(self, capsys, command, flag):
        # int() takes the first five, and train --seed 1_0 wrote seed=10
        for text in ("1_0", "\u0661\u0662", "+3", " 3", "3 ", "3.0", "0x10", "", "-", "--3"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*command, f"{flag}={text}"])
            assert exc.value.code == EXIT_FLAGS
            err = capsys.readouterr().err  # --iterations is named --iterations/-k
            assert re.search(f"error: argument {flag}(/-k)?: must be an integer of ASCII "
                             f"digits, got {re.escape(repr(text))}\n$", err), err

    @pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
    def test_integer_flags_parse_ascii_digits(self, command, flag):
        dest = flag[2:].replace("-", "_")
        assert getattr(build_parser().parse_args([*command, f"{flag}=0012"]), dest) == 12
        if flag != "--seed":  # a range check after parsing rejects -3, not the type
            assert getattr(build_parser().parse_args([*command, f"{flag}=-3"]), dest) == -3

    @pytest.mark.parametrize("level", ["-1", "0", "nan"])
    def test_bad_truncation_level_exits_2_before_reading_files(self, tmp_path, capsys, level):
        # the model and data files are missing, which would exit 3
        code = main(["predict", "--model", str(tmp_path / "missing.txt"),
                     "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "p.csv"),
                     f"--truncate={level}"])
        assert code == EXIT_FLAGS
        assert capsys.readouterr().err == (
            f"error: truncation level must be positive, got {float(level)}\n")
        assert not (tmp_path / "p.csv").exists()

    def test_truncation_level_clamps_predictions(self, tmp_path):
        data = write(tmp_path / "d.csv", "x,y\n0,5.0\n1,-4.0\n2,0.5\n3,3.0\n4,-0.25\n")
        model = str(tmp_path / "m.txt")
        assert main(["train", "--data", data, "--iterations", "5", "--model-out", model]) == 0
        outs = {}
        for name, flags in (("plain", []), ("clamped", ["--truncate", "1"])):
            out = tmp_path / f"{name}.csv"
            assert main(["predict", "--model", model, "--data", data, "--out", str(out),
                         *flags]) == EXIT_OK
            outs[name] = np.array([float(row[0]) for row in read_rows(out)[1:]])
        assert np.abs(outs["plain"]).max() > 1.0  # the clamp has something to do
        assert outs["clamped"].tolist() == np.clip(outs["plain"], -1.0, 1.0).tolist()

    def test_bench_data_too_small_to_split_exits_3(self, tmp_path, capsys):
        # 3 rows leave the test part empty; the split used to run only inside
        # the experiment, where the error exited 2 as a flag error
        data = write(tmp_path / "d.csv", "x,y\n0,1.0\n1,2.5\n2,-0.5\n")
        code = main(["bench", "--data", data, "--task", "regression", "--runs", "1",
                     "--k-max", "3", "--report-out", str(tmp_path / "r.csv")])
        assert code == EXIT_DATA
        assert "error: a split part would be empty for m=3" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_missing_download_exits_5(self, tmp_path, cache, capsys):
        url = (tmp_path / "missing.data").as_uri()
        code = main(["fetch", "--name", "diabetes", "--url", url,
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NETWORK
        assert "download failed" in capsys.readouterr().err

    def test_checksum_mismatch_exits_6(self, tmp_path, cache, capsys):
        table = toy_table(tmp_path, "0" * 64)
        code = main(["fetch", "--name", "toy", "--table", table,
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CHECKSUM
        assert "sha256 mismatch" in capsys.readouterr().err
        assert not (cache / "raw" / "toy.data").exists()  # the bad download is removed
        assert not (tmp_path / "out" / "toy.csv").exists()

    def test_missing_table_file_exits_3(self, tmp_path, cache, capsys):
        table = tmp_path / "missing.cfg"
        code = main(["fetch", "--name", "toy", "--table", str(table),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(table) in err

    def test_pinned_checksum_fetch_converts(self, tmp_path, cache):
        table = toy_table(tmp_path, None)
        code = main(["fetch", "--name", "toy", "--table", table,
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        text = (tmp_path / "out" / "toy.csv").read_text(encoding="utf-8")
        assert text.splitlines() == ["a,b,target", "1,2,3", "4,5,6"]


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def same_float(cell, value):
    """A written cell parses back to exactly ``value`` (NaN matches NaN)."""
    parsed = float(cell)
    return parsed == value or (math.isnan(parsed) and math.isnan(value))


REPORT_HEADER = ["method", "mean_metric", "stderr", "chosen_params", "chosen_k", "runs"]


def check_report(path, methods, stdout):
    rows = read_rows(path)
    assert rows[0] == REPORT_HEADER
    assert all(len(row) == len(REPORT_HEADER) for row in rows[1:])
    assert [row[0] for row in rows[1:]] == methods
    for row, line in zip(rows[1:], stdout.splitlines()):
        # the printed summary shows the written mean to 6 significant digits
        assert f"mean={float(row[1]):.6g} " in line
        assert row[5] == "1" and int(row[4]) >= 1


class TestWrittenCsv:
    def test_predictions_parse_back_to_model_predict(self, tmp_path, model_lines):
        text = with_checksum(model_lines)
        X = np.array([[0.5, -1.0], [2.0, 0.25], [-0.3, 0.7], [1e-3, -2.5]])
        data = "x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in X.tolist())
        assert predict(tmp_path, text, data) == EXIT_OK
        rows = read_rows(tmp_path / "out.csv")
        assert rows[0] == ["prediction"]
        assert len(rows) == 1 + len(X) and all(len(row) == 1 for row in rows[1:])
        expected = model_from_text(text)[0].predict(X)
        assert all(same_float(row[0], p) for row, p in zip(rows[1:], expected))

    def test_simulate_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["simulate", "--experiment", "m2", "--runs", "1", "--k-max", "3",
                     "--methods", "plain", "shrunk", "--report-out", str(out)])
        assert code == EXIT_OK
        check_report(out, ["plain", "shrunk"], capsys.readouterr().out)

    def test_bench_report(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        lines = "".join(f"{x!r},{2 * x + 0.1 * e!r}\n"
                        for x, e in zip(rng.uniform(-1, 1, 40).tolist(),
                                        rng.standard_normal(40).tolist()))
        data = write(tmp_path / "d.csv", "x,y\n" + lines)
        out = tmp_path / "report.csv"
        code = main(["bench", "--data", data, "--task", "regression", "--runs", "1",
                     "--k-max", "3", "--methods", "rescale", "epsilon",
                     "--report-out", str(out)])
        assert code == EXIT_OK
        check_report(out, ["rescale", "epsilon"], capsys.readouterr().out)

    def test_convergence_curve_parses_back_to_train(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["convergence", "--k-max", "8", "--report-out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["method", "k", "excess_risk", "slope"]
        assert all(len(row) == 4 for row in rows[1:])
        data, atoms, h_risk, _ = gen_sparse_dictionary_instance(SparseDictionarySpec(), 0)
        for name, variant in [("rescale", Rescale(ShrinkageSchedule.theorem())),
                              ("plain", Plain())]:
            config = TrainConfig(8, LossKind.SQUARED, DictionaryLearner(atoms), variant)
            excess = excess_risk_trace(train(data, config, 0)[1], h_risk)
            mine = [row for row in rows[1:] if row[0] == name]
            assert [int(row[1]) for row in mine] == list(range(1, len(excess) + 1))
            assert all(same_float(row[2], e) for row, e in zip(mine, excess))
            assert len({row[3] for row in mine}) == 1

    @pytest.mark.parametrize("k_max", [64, 256])
    def test_convergence_prints_no_slope_through_an_exact_fit(self, tmp_path, capsys, k_max):
        # plain boosting is exact at k = 4 on the orthonormal dictionary: at
        # k_max 64 the slope window ends on a zero excess risk, at 256 it
        # starts past k = 4
        out = tmp_path / "curve.csv"
        assert main(["convergence", "--k-max", str(k_max), "--report-out", str(out)]) == EXIT_OK
        rescale, plain = capsys.readouterr().out.splitlines()
        assert plain == ("plain: iterations=4 slope=n/a (exact at k=4; "
                         "stopped early: degenerate direction at iteration 5)")
        rows = read_rows(out)[1:]
        assert [row[3] for row in rows if row[0] == "plain"] == ["nan"] * 4
        slopes = {float(row[3]) for row in rows if row[0] == "rescale"}
        assert len(slopes) == 1 and slopes.pop() < 0.0
        assert rescale.startswith(f"rescale: iterations={k_max} slope=-")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_convergence_risk_overflow_exits_4(self, capsys):
        # coefficients near the float maximum: the squared-loss risk overflows
        assert main(["convergence", "--coef-norm", "1e308", "--k-max", "4"]) == EXIT_TRAIN
        assert "non-finite risk" in capsys.readouterr().err


class TestRunAsModule:
    """``python -m reboost.cli`` with only the checkout's ``src/`` on the path."""

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["nosuch"], 2)],
                             ids=["help", "unknown-subcommand"])
    def test_exit_code(self, argv, code):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run([sys.executable, "-m", "reboost.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert "usage: reboost" in (done.stdout if code == 0 else done.stderr)


class TestNoScipyLoaded:
    """The library is numpy alone: squared-loss ``train`` and ``predict``,
    logistic ``train`` and the orange ``simulate`` load no scipy module. Nor
    do squared-loss ``train`` and ``predict`` load the network modules that
    only ``fetch`` uses."""

    SCRIPT = """
import sys
from reboost.cli import main
d = sys.argv[1]
with open(d + "/d.csv", "w") as fh:
    fh.write("x,y\\n0,1\\n1,-1\\n2,1\\n3,-1\\n")
assert main(["train", "--data", d + "/d.csv", "--iterations", "3",
             "--model-out", d + "/m.txt"]) == 0
assert main(["predict", "--model", d + "/m.txt", "--data", d + "/d.csv",
             "--out", d + "/p.csv"]) == 0
loaded = [name in sys.modules for name in ("urllib.request", "ssl")]
assert main(["train", "--data", d + "/d.csv", "--task", "classification",
             "--loss", "logistic", "--iterations", "3", "--model-out", d + "/c.txt"]) == 0
assert main(["simulate", "--experiment", "orange", "--runs", "1", "--k-max", "3",
             "--report-out", d + "/s.csv"]) == 0
loaded.append(any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
print(*loaded)
"""

    def test_runs_without_scipy(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False False False"
