"""The committed report corpus: each case, run now, equals its record in ``tests/data/corpus.json``.

A report that moves on purpose is re-recorded with ``python
tests/data/regenerate.py``; the diff of the corpus is then the change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "data" / "regenerate.py"
_SPEC = importlib.util.spec_from_file_location("corpus_regenerate", _PATH)
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)

CORPUS = json.loads(regenerate.CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert list(CORPUS["cli"]) == list(regenerate.CLI_CASES)
    assert list(CORPUS["validation"]) == list(regenerate.VALIDATION_CASES)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return regenerate.make_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("name", regenerate.CLI_CASES)
def test_cli_case(name, inputs, tmp_path):
    assert regenerate.run_cli_case(name, tmp_path, inputs) == CORPUS["cli"][name]


@pytest.mark.parametrize("name", regenerate.VALIDATION_CASES)
def test_validation_case(name):
    assert regenerate.run_validation_case(name) == CORPUS["validation"][name]
