"""Every case of the golden trace corpus, rerun and compared with the
stored outputs in tests/golden/traces.json (see tests/golden/regenerate.py)."""

import json

import numpy as np
import pytest

from golden import regenerate as golden

CORPUS = json.loads(golden.CORPUS.read_text())
BIT_FOR_BIT = CORPUS["environment"] == golden.environment()


def assert_matches(now, then):
    """Fields compare exactly, floats bit for bit in the recorded
    environment and elsewhere within rtol of the field's largest magnitude."""
    assert sorted(now) == sorted(then)
    for field, stored in then.items():
        if field not in golden.FLOAT_FIELDS or BIT_FOR_BIT:
            assert now[field] == stored, field
            continue
        a = np.array([float.fromhex(h) for h in now[field]])
        b = np.array([float.fromhex(h) for h in stored])
        assert a.shape == b.shape, field
        scale = np.max(np.abs(b), initial=0.0)
        assert np.all(np.abs(a - b) <= CORPUS["rtol"] * scale), field


RUNS = golden.run_cases()
SWEEPS = golden.sweep_cases()


def test_corpus_holds_every_case():
    assert sorted(CORPUS["runs"]) == sorted(RUNS)
    assert sorted(CORPUS["sweeps"]) == sorted(SWEEPS)
    assert sorted(CORPUS["line_searches"]) == sorted(golden.line_search_cases())
    assert CORPUS["rtol"] == golden.RTOL


@pytest.mark.parametrize("name", list(RUNS))
def test_run(name):
    assert_matches(golden.capture_run(*RUNS[name]), CORPUS["runs"][name])


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep(name):
    assert_matches(golden.capture_sweep(*SWEEPS[name]), CORPUS["sweeps"][name])


@pytest.mark.parametrize("name", list(golden.line_search_cases()))
def test_line_search(name):
    case = golden.line_search_cases()[name]
    assert_matches(golden.capture_line_search(*case), CORPUS["line_searches"][name])
