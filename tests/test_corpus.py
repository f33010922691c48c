"""The committed report corpus: each case, run now, equals its record in ``tests/data/corpus.json``.

A report that moves on purpose is re-recorded with ``python
tests/data/regenerate.py``; the diff of the corpus is then the change.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
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


# A child process that prints, as JSON, the OpenBLAS core and thread count
# it got (read as the CI log reads them; None without numpy's OpenBLAS) and
# the records of the corpus cases named on its command line.
_CHILD = r"""
import ctypes, glob, importlib.util, json, os, sys
from pathlib import Path

import numpy

spec = importlib.util.spec_from_file_location("corpus_regenerate", sys.argv[1])
regenerate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regenerate)
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
core = threads = None
for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[:1]:
    blas = ctypes.CDLL(path)
    blas.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    core, threads = blas.scipy_openblas_get_corename64_().decode(), blas.scipy_openblas_get_num_threads64_()
root = Path(sys.argv[2])
(root / "inputs").mkdir()
inputs = regenerate.make_inputs(root / "inputs")
records = {}
for name in sys.argv[3:]:
    group, case = name.split("/")
    if group == "cli":
        (root / "cases" / case).mkdir(parents=True)
        records[name] = regenerate.run_cli_case(case, root / "cases" / case, inputs)
    else:
        records[name] = regenerate.run_validation_case(case)
print(json.dumps({"core": core, "threads": threads, "records": records}))
"""

# Cases whose bits moved with the BLAS kernel while the fits' row sums ran
# through it: a validation, the 200k-row fit (which also moved under one
# thread), a refusal that prints where the search stopped, and a noisy
# pipeline.
_BLAS_CASES = [
    "validation/benchmark-1901", "cli/volvol-200k-rows", "cli/fit-flat-seed-8", "cli/pipeline-n-30-noise-0.05",
]


@pytest.mark.parametrize(
    "variable, value, got",
    [("OPENBLAS_CORETYPE", "Haswell", "core"), ("OPENBLAS_NUM_THREADS", "1", "threads")],
    ids=["haswell-core", "one-thread"],
)
def test_cases_match_under_another_blas_setting(variable, value, got, tmp_path):
    env = dict(os.environ, **{variable: value})
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(_PATH), str(tmp_path), *_BLAS_CASES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout)
    if str(child[got]).lower() != value.lower():
        pytest.skip(f"{variable}={value} is not honoured here: the child's OpenBLAS {got} is {child[got]}")
    for name in _BLAS_CASES:
        group, case = name.split("/")
        assert child["records"][name] == CORPUS[group][case], name


def _number(holder, key):
    """The float at ``holder[key]``: a hex float, or the number of a ``key = value`` line."""
    value = holder[key]
    return float(value.split(" = ")[1]) if " = " in value else float.fromhex(value)


@pytest.mark.parametrize(
    "group, case, path, field, scale",
    [
        ("validation", "free", ("report", "stage2_gamma_mean"), "report.stage2_gamma_mean", None),
        ("validation", "free", ("report", "bias", 1), "report.bias [1]", (("report", "rmse", 1), "rmse [1]")),
        ("cli", "volvol-pin-beta5-rho", ("report", 15), "report [stage2] beta6", (("report", 18), "se_beta6")),
    ],
    ids=["validation-hex-float", "validation-bias-in-rmse", "cli-report-line"],
)
def test_check_names_the_relative_change_of_a_perturbed_float(monkeypatch, capsys, group, case, path, field, scale):
    # A corpus with one float moved by about 2**-30 relative: --check prints
    # the diff, then that case and field with the change decoded from the
    # text, and for a parameter or a validation error also the move in units
    # of its committed standard error or rmse.
    moved = copy.deepcopy(CORPUS)

    def entry(corpus, keys):
        holder = corpus[group][case]
        for key in keys[:-1]:
            holder = holder[key]
        return holder, keys[-1]

    holder, last = entry(moved, path)
    old = _number(holder, last)
    if group == "validation":
        holder[last] = (old * (1.0 + 2.0**-30)).hex()
    else:
        holder[last] = f"{holder[last].split(' = ')[0]} = {old * (1.0 + 2.0**-30)!r}"
    suffix = ""
    if scale is not None:
        suffix = f" ({abs(_number(holder, last) - old) / _number(*entry(CORPUS, scale[0])):.2g} {scale[1]})"
    monkeypatch.setattr(regenerate, "build", lambda: moved)
    assert regenerate.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert out.endswith(f"moved: {group}/{case}\n  {field}: 9.3e-10{suffix}\n"), out
    assert out.count("moved: ") == 1


def test_passing_check_counts_the_cases(monkeypatch, capsys):
    monkeypatch.setattr(regenerate, "build", lambda: copy.deepcopy(CORPUS))
    assert regenerate.main(["--check"]) == 0
    n_cli, n_validation = len(regenerate.CLI_CASES), len(regenerate.VALIDATION_CASES)
    assert capsys.readouterr().out == f"corpus.json matches: {n_cli} CLI and {n_validation} validation cases\n"
