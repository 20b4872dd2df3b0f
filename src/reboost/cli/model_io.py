"""Versioned text format for trained models.

Models are persisted as their effective per-term coefficients, one term
record per line, floats printed with 17 significant digits so coefficients
and predictions round-trip exactly. A CRC-32 footer over all preceding
lines guards against truncation and corruption. A stump or tree record
may carry a legacy ``scale`` field, which the loader folds into the leaf
values.

The loader checks every term record: its JSON numbers are finite; stump,
atom and node ``feature``, tree child indices and ``splits`` are JSON
integers (not bools); thresholds, leaf and atom values, ``low``,
``high`` and ``scale`` are finite JSON numbers (not strings or bools),
and so is each leaf value times ``scale``; a stump or atom feature is
>= 0; each tree node is a leaf or a split whose children follow it, and
each node but the root is the child of exactly one split; and
``splits`` is the count of split nodes. It also needs ``features=``
>= 1. Violations raise ``InvalidInputError``.
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


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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
    return f"term {_fmt(coef)} {json.dumps(payload, separators=(',', ':'))}"


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


def _parse_learner(payload: dict):
    kind = payload.get("kind")
    scale = _float(payload.get("scale", 1.0), "scale")

    def scaled(value, what: str) -> float:
        value = scale * _float(value, what)
        if math.isinf(value):
            raise InvalidInputError(f"model record {what} times scale {scale!r} is not finite")
        return value

    if kind == "stump":
        return DecisionStump(_int(payload["feature"], "feature"),
                             _float(payload["threshold"], "threshold"),
                             scaled(payload["left"], "left"), scaled(payload["right"], "right"))
    if kind == "tree":
        tree = RegressionTree(tuple(
            TreeNode(_int(f, "node feature"), _float(t, "node threshold"),
                     _int(l, "node child"), _int(r, "node child"), scaled(v, "node value"))
            for f, t, l, r, v in payload["nodes"]
        ))
        if _int(payload["splits"], "splits") != tree.splits:
            raise InvalidInputError(f"tree record says {payload['splits']} splits, "
                                    f"its nodes hold {tree.splits}")
        return tree
    if kind == "atom":
        return IntervalAtom(_float(payload["low"], "low"), _float(payload["high"], "high"),
                            _float(payload["value"], "value"),
                            feature=_int(payload["feature"], "feature"))
    raise InvalidInputError(f"unknown learner kind {kind!r}")


def model_to_text(model: EnsembleModel, loss: LossKind, task: Task, seed: int) -> str:
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"loss={loss.value}",
        f"task={task.value}",
        f"features={model.n_features}",
        f"seed={seed}",
        f"intercept={_fmt(model.intercept)}",
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


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise InvalidInputError(f"model {what} is not finite: {text}")
    return value


def _finite_term_value(text: str) -> float:
    return _finite(text, "term value")


# NaN, Infinity and overflowing literals such as 1e999 are all rejected
_TERM_DECODER = json.JSONDecoder(parse_float=_finite_term_value,
                                 parse_constant=_finite_term_value)


def _parse_model(text: str) -> tuple[EnsembleModel, LossKind, Task, int]:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("checksum="):
        raise InvalidInputError("model file has no checksum footer")
    body = "\n".join(lines[:-1]) + "\n"
    expected = int(lines[-1].split("=", 1)[1], 16)
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise InvalidInputError(
            f"model checksum mismatch: file says {expected:08x}, content is {actual:08x}"
        )

    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise InvalidInputError("not a model file")
    if int(header[1]) != FORMAT_VERSION:
        raise InvalidInputError(f"unsupported model format version {header[1]}")

    fields = {}
    term_lines = []
    for line in lines[1:-1]:
        if line.startswith("term "):
            term_lines.append(line)
        else:
            key, _, value = line.partition("=")
            fields[key] = value
    for key in ("loss", "task", "features", "seed", "intercept", "terms"):
        if key not in fields:
            raise InvalidInputError(f"model file has no {key}= line")

    n_features = int(fields["features"])
    if n_features < 1:
        raise InvalidInputError(f"model features= must be >= 1, got {n_features}")
    declared = int(fields["terms"])
    if declared != len(term_lines):
        raise InvalidInputError(
            f"model declares {declared} terms but has {len(term_lines)}"
        )
    terms = [line.split(" ", 2)[1:] for line in term_lines]  # (coef, payload) texts
    model = EnsembleModel(n_features, _finite(fields["intercept"], "intercept"),
                          [_finite(coef, "coefficient") for coef, _ in terms],
                          [_parse_learner(_TERM_DECODER.decode(p)) for _, p in terms])

    loss = LossKind(fields["loss"])
    task = Task(fields["task"])
    return model, loss, task, int(fields["seed"])


def load_model(path) -> tuple[EnsembleModel, LossKind, Task, int]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise InvalidInputError(f"{path}: not UTF-8 text: {err}") from None
    return model_from_text(text)
