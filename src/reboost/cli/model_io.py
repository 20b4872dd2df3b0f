"""Versioned text format for trained models.

Models are persisted as their effective per-term coefficients, one term
record per line, floats printed with 17 significant digits so coefficients
and predictions round-trip exactly. A CRC-32 footer of 8 lowercase hex
digits over all preceding lines guards against truncation and corruption.

Every line between the format line and the footer is a term or one of
the six header fields, each present once. The format version,
``features=``, ``terms=`` and ``seed=`` are ASCII digits alone. A margin
loss needs ``task=binary-classification``; ``features=`` must be >= 1.
The model has no intercept: ``intercept=0`` is written so that files load
across versions, and no other value loads. A term record is a JSON object
with a string ``kind``, and holds exactly the keys of its kind in
``_RECORD_KEYS``, each once: a record with another key, such as the
``scale`` of old files, or with a key repeated is rejected. Its JSON
numbers are finite; stump, atom and node ``feature``, tree child indices
and ``splits`` are JSON integers (not bools); thresholds, leaf and atom
values, ``low`` and ``high`` are JSON numbers (not strings or bools); a
stump or atom feature is >= 0; each tree node is a leaf or a split whose
children follow it, and each node but the root is the child of exactly
one split; ``splits`` is the count of split nodes; and no stump, atom or
tree node uses a feature index >= ``features=``. Violations raise
``InvalidInputError``.
"""

from __future__ import annotations

import json
import math
import zlib

from reboost.core import EnsembleModel, InvalidInputError, Task
from reboost.learners import DecisionStump, IntervalAtom, RegressionTree, TreeNode
from reboost.losses import LossKind

FORMAT_NAME = "reboost-model"
FORMAT_VERSION = 1
_HEADER = ("loss=", "task=", "features=", "seed=", "intercept=", "terms=")


def _term_line(coef: float, learner) -> str:
    if isinstance(learner, DecisionStump):
        payload = {
            "kind": "stump", "feature": learner.feature,
            "threshold": learner.threshold, "left": learner.left_value,
            "right": learner.right_value,
        }
    elif isinstance(learner, RegressionTree):
        payload = {
            "kind": "tree", "splits": learner.splits,
            "nodes": [[n.feature, n.threshold, n.left, n.right, n.value]
                      for n in learner.nodes],
        }
    elif isinstance(learner, IntervalAtom):
        payload = {
            "kind": "atom", "feature": learner.feature, "low": learner.low,
            "high": learner.high, "value": learner.value,
        }
    else:
        raise InvalidInputError(f"cannot serialize learner type {type(learner).__name__}")
    return f"term {float(coef):.17g} {json.dumps(payload, separators=(',', ':'))}"


def _int(value, what: str) -> int:
    """A record field that must be a JSON integer: not a float, not a bool."""
    if type(value) is not int:
        raise InvalidInputError(f"model record {what} must be an integer, got {value!r}")
    return value


def _float(value, what: str) -> float:
    """A record field that must be a JSON number: not a string, not a bool.
    The decoder has already rejected non-finite float literals, and float()
    rejects an int too large for a float."""
    if type(value) not in (int, float):
        raise InvalidInputError(f"model record {what} must be a number, got {value!r}")
    return float(value)


_RECORD_KEYS = {  # kind -> the keys of its term records
    "stump": {"kind", "feature", "threshold", "left", "right"},
    "tree": {"kind", "splits", "nodes"},
    "atom": {"kind", "feature", "low", "high", "value"},
}


def _parse_learner(payload, term: int, n_features: int):
    """The learner of term record ``payload``, the ``term``-th of a file that
    declares ``n_features`` features."""
    if type(payload) is not dict:
        raise InvalidInputError(f"model term {term} is not a JSON object: {payload!r}")
    kind = payload.get("kind")
    if type(kind) is not str or kind not in _RECORD_KEYS:
        raise InvalidInputError(f"model term {term} has unknown learner kind {kind!r}")
    if payload.keys() != _RECORD_KEYS[kind]:
        raise InvalidInputError(f"{kind} record keys {sorted(payload)} are not exactly "
                                f"{sorted(_RECORD_KEYS[kind])}")
    if kind == "stump":
        learner = DecisionStump(_int(payload["feature"], "feature"),
                                _float(payload["threshold"], "threshold"),
                                _float(payload["left"], "left"),
                                _float(payload["right"], "right"))
    elif kind == "tree":
        learner = RegressionTree(tuple(
            TreeNode(_int(f, "node feature"), _float(t, "node threshold"),
                     _int(l, "node child"), _int(r, "node child"), _float(v, "node value"))
            for f, t, l, r, v in payload["nodes"]
        ))
        if _int(payload["splits"], "splits") != learner.splits:
            raise InvalidInputError(f"tree record says {payload['splits']} splits, "
                                    f"its nodes hold {learner.splits}")
    else:
        learner = IntervalAtom(_float(payload["low"], "low"), _float(payload["high"], "high"),
                               _float(payload["value"], "value"),
                               feature=_int(payload["feature"], "feature"))
    feature = max(n.feature for n in learner.nodes) if kind == "tree" else learner.feature
    if feature >= n_features:
        raise InvalidInputError(f"model term {term} ({kind}) uses feature {feature}, "
                                f"but the model declares features={n_features}")
    return learner


def model_to_text(model: EnsembleModel, loss: LossKind, task: Task, seed: int) -> str:
    """The model file text; ``seed`` must be an int >= 0, as the reader
    takes only ASCII digits there."""
    if type(seed) is not int or seed < 0:
        raise InvalidInputError(f"model seed must be an int >= 0, got {seed!r}")
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"loss={loss.value}",
        f"task={task.value}",
        f"features={model.n_features}",
        f"seed={seed}",
        "intercept=0",
        f"terms={len(model)}",
    ]
    lines.extend(_term_line(c, g) for c, g in zip(model.coefs, model.learners))
    body = "\n".join(lines) + "\n"
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return body + f"checksum={crc:08x}\n"


def save_model(path, model: EnsembleModel, loss: LossKind, task: Task, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_text(model, loss, task, seed))


def model_from_text(text: str) -> tuple[EnsembleModel, LossKind, Task, int]:
    """Parse a model file; any malformed content raises ``InvalidInputError``."""
    try:
        return _parse_model(text)
    except InvalidInputError:
        raise
    # json.JSONDecodeError is a ValueError
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as err:
        raise InvalidInputError(
            f"malformed model file: {type(err).__name__}: {err}"
        ) from None


def _finite(text: str) -> float:
    """A term coefficient or a JSON number of a term record: NaN, infinities
    and overflowing literals such as 1e999 are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise InvalidInputError(f"model term value is not finite: {text}")
    return value


def _object(pairs) -> dict:
    """A JSON object of a term record, none of whose keys may repeat."""
    record = {}
    for key, value in pairs:
        if key in record:
            raise InvalidInputError(f"model record repeats the key {key!r}")
        record[key] = value
    return record


_TERM_DECODER = json.JSONDecoder(object_pairs_hook=_object, parse_float=_finite,
                                 parse_constant=_finite)


def _digits(text: str, field: str) -> int:
    """A header count as the writer writes it: ASCII digits alone, with no
    sign, space, underscore or digit of another script, all of which int()
    would take."""
    if not (text.isascii() and text.isdigit()):
        raise InvalidInputError(f"model {field} must be ASCII digits, got {text!r}")
    return int(text)


def _parse_model(text: str) -> tuple[EnsembleModel, LossKind, Task, int]:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("checksum="):
        raise InvalidInputError("model file has no checksum footer")
    body = "\n".join(lines[:-1]) + "\n"
    footer = lines[-1].removeprefix("checksum=")
    actual = f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"
    if footer != actual:  # the writer's text alone: int(footer, 16) takes " 1f", 0x1f, 1_f, 1F
        raise InvalidInputError(
            f"model checksum mismatch: file says {footer!r}, content is {actual}")

    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise InvalidInputError("not a model file")
    if _digits(header[1], "format version") != FORMAT_VERSION:
        raise InvalidInputError(f"unsupported model format version {header[1]}")

    term_lines = [line for line in lines[1:-1] if line.startswith("term ")]
    parts = [line.partition("=") for line in lines[1:-1] if not line.startswith("term ")]
    keys = [key + eq for key, eq, _ in parts]
    if sorted(keys) != sorted(_HEADER):
        raise InvalidInputError(f"model file header lines {keys} are not each of "
                                f"{list(_HEADER)} once")
    fields = {key: value for key, _, value in parts}

    loss = LossKind(fields["loss"])
    task = Task(fields["task"])
    if loss.is_classification and task is not Task.CLASSIFICATION:
        raise InvalidInputError(f"model loss={loss.value} needs "
                                f"task={Task.CLASSIFICATION.value}, got task={task.value}")
    if float(fields["intercept"]) != 0.0:
        raise InvalidInputError(f"model intercept must be 0, got {fields['intercept']}")
    n_features = _digits(fields["features"], "features=")
    if n_features < 1:
        raise InvalidInputError(f"model features= must be >= 1, got {n_features}")
    declared = _digits(fields["terms"], "terms=")
    if declared != len(term_lines):
        raise InvalidInputError(
            f"model declares {declared} terms but has {len(term_lines)}"
        )
    terms = [line.split(" ", 2)[1:] for line in term_lines]  # (coef, payload) texts
    model = EnsembleModel(n_features, [_finite(coef) for coef, _ in terms],
                          [_parse_learner(_TERM_DECODER.decode(p), i, n_features)
                           for i, (_, p) in enumerate(terms, start=1)])
    return model, loss, task, _digits(fields["seed"], "seed=")


def load_model(path) -> tuple[EnsembleModel, LossKind, Task, int]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise InvalidInputError(f"{path}: not UTF-8 text: {err}") from None
    return model_from_text(text)
