"""The committed report corpus: each case, run now, equals its record in ``tests/data/corpus.json``.

A report that moves on purpose is re-recorded with ``python
tests/data/regenerate.py``; the diff of the corpus is then the change.
"""

import copy
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


def test_byte_order_mark_leaves_the_report_unchanged():
    assert CORPUS["cli"]["fit-byte-order-mark"]["report"] == CORPUS["cli"]["fit"]["report"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return regenerate.make_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("name", regenerate.CLI_CASES)
def test_cli_case(name, inputs, tmp_path):
    assert regenerate.run_cli_case(name, tmp_path, inputs) == CORPUS["cli"][name]


@pytest.mark.parametrize("name", regenerate.VALIDATION_CASES)
def test_validation_case(name):
    assert regenerate.run_validation_case(name) == CORPUS["validation"][name]


@pytest.mark.parametrize(
    "group, case, path, field",
    [
        ("validation", "free", ("report", "stage2_gamma_mean"), "report.stage2_gamma_mean"),
        ("cli", "volvol-pin-beta5-rho", ("report", 15), "report [stage2] beta6"),
    ],
    ids=["validation-hex-float", "cli-report-line"],
)
def test_check_names_the_relative_change_of_a_perturbed_float(monkeypatch, capsys, group, case, path, field):
    # A corpus with one float moved by about 2**-30 relative: --check prints
    # the diff, then that case and field with the change decoded from the text.
    moved = copy.deepcopy(CORPUS)
    *parents, last = path
    holder = moved[group][case]
    for key in parents:
        holder = holder[key]
    old = holder[last]
    if group == "validation":
        value = float.fromhex(old)
        holder[last] = (value * (1.0 + 2.0**-30)).hex()
    else:
        key, text = old.split(" = ")
        value = float(text)
        holder[last] = f"{key} = {value * (1.0 + 2.0**-30)!r}"
    monkeypatch.setattr(regenerate, "build", lambda: moved)
    assert regenerate.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert out.endswith(f"moved: {group}/{case}\n  {field}: 9.3e-10\n"), out
    assert out.count("moved: ") == 1
