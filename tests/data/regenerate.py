"""Rebuild, or check, the committed report corpus ``tests/data/corpus.json``.

    python tests/data/regenerate.py           # rewrite the corpus from the current source
    python tests/data/regenerate.py --check   # print a unified diff and exit 1 if a case moved

A passing ``--check`` prints one line with the number of CLI and
validation cases that matched.

``--check`` ends its diff with one block per moved case: the largest
relative change of each numeric field that moved (validation floats are
decoded from hex), or ``text changed`` when more than numbers moved, so a
move at rounding level reads at a glance.  A moved ``[stage1]`` or
``[stage2]`` parameter also gets its move in units of the committed
``se_*`` of its section, and a moved validation ``bias``, ``rmse`` or
``beta3_mean`` in units of the committed ``rmse`` of its parameter: the
scales the oracle tests and the corpus bounds are stated in.

The corpus pins what the program gives back for a fixed set of cases:

* ``cli``: one in-process ``portvol`` run per case, with its config,
  flags, exit code, stdout, stderr, report text and the sha256 of the
  dataset it wrote;
* ``validation``: every field of a ``ValidationReport``, floats in hex.

Every case also records the warnings it raised.  Inputs are generated
from seeds into a temporary directory and are not committed; in the
corpus, a case's own directory reads ``{tmp}`` and the shared inputs
directory ``{inputs}``.  ``tests/test_corpus.py`` runs each case and
compares it with the corpus exactly; no case has a tolerance.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import dataclasses
import difflib
import hashlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
sys.path.insert(0, str(HERE.parents[1] / "src"))

from portvol import (  # noqa: E402
    GenerationSpec,
    Stage1Params,
    generate_synthetic_dataset,
    monte_carlo_validation,
    write_dataset,
)
from portvol.cli import run_cli  # noqa: E402

TRUTH = Stage1Params(2.0, 0.5, 0.04)

# Input files, shared by the CLI cases: (truth, n, noise, seed) of a
# model-implied dataset, or the file's text.
INPUTS = {
    "csv50": (TRUTH, 50, 0.01, 42),
    "noisy200": (TRUTH, 200, 0.01, 3),
    "equal": (Stage1Params(1.0, 1.0, 0.04), 50, 0.0, 42),
    "short": (TRUTH, 3, 0.0, 42),
    "flat8": (Stage1Params(1.0, 1.0, 0.04), 50, 0.01, 8),
    "cross": (Stage1Params(-1.0, 3.0, 0.02), 200, 0.01, 5),
    "large": (TRUTH, 200_000, 0.01, 1),  # the fit-csv-large benchmark file at seed 1
    "zero": "pi_star,mu,r\n1.0,0.05,0.02\n0.0,0.06,0.02\n1.2,0.07,0.02\n1.3,0.08,0.02\n",
    "two": "pi_star,mu,r\n1.0,0.05,0.02\n1.2,0.07,0.02\n",
    # The curve (2.0, 0.5, 0.04) at e = -0.03999 (1e-5 from its pole), -0.035, ..., -0.012.
    "near_pole": (
        "pi_star,mu,r\n-5997.999999998163,0.010010000000000005,0.05\n-10.000000000000005,0.015,0.05\n"
        "-3.9999999999999987,0.020000000000000004,0.05\n-2.0000000000000004,0.025,0.05\n-1.0,0.030000000000000002,0.05\n"
        "-0.3999999999999999,0.035,0.05\n-0.14285714285714285,0.038000000000000006,0.05\n"
    ),
}


# Input files that are another input's bytes after a UTF-8 byte-order mark,
# as spreadsheet exports write them.
MARKED_INPUTS = {"csv50_bom": "csv50"}


def _run(mode: str, *keys: str) -> str:
    """A ``[run]`` section: ``mode``, then ``key = value`` lines; ``{tmp}`` is the case's directory."""
    return "".join(f"{line}\n" for line in ("[run]", f"mode = {mode}", *keys))


def _gen(*extra: str, n=50, noise=0.01, b1=2.0, b2=0.5, b3=0.04) -> str:
    """A model-implied ``[generation]`` section, then the ``extra`` lines."""
    lines = ["[generation]", f"n = {n}", f"noise = {noise}", f"beta1 = {b1}", f"beta2 = {b2}", f"beta3 = {b3}", *extra]
    return "".join(f"{line}\n" for line in lines)


def _structural(*extra: str) -> str:
    """A structural ``[generation]`` section with the ``extra`` lines, then its market and path sections."""
    return "".join(f"{line}\n" for line in ("[generation]", "kind = structural", *extra)) + (
        "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = 0.3\nrho = -0.5\nsigma_bar = 0.04\n"
        "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
        "[path]\nhorizon = 1.0\ndt = 0.004\nx0 = 1.0\n"
    )


STRUCTURAL = _structural()
OUT = "output = {tmp}/r.txt"
DATA = "dataset_output = {tmp}/d.csv"

# name: (subcommand, config, flags).  The first 32 run each fitting mode,
# its write failures and the config refusals; the rest add truths, seeds,
# sizes and file forms.
CLI_CASES = {
    "fit": ("fit", _run("fit", "input = {csv50}", OUT), []),
    "fit-verbose": ("fit", _run("fit", "input = {csv50}", OUT), ["--verbose"]),
    "fit-equal-betas": ("fit", _run("fit", "input = {equal}", OUT), ["--verbose"]),
    "fit-3-rows": ("fit", _run("fit", "input = {short}", OUT), []),
    "fit-beta3-hat": ("fit", _run("fit", "input = {csv50}", OUT, "gauge = free", "beta3_hat = 0.04"), []),
    "volvol-pin-beta5-rho": ("volvol", _run("volvol", "input = {csv50}", OUT, "alpha_ratio = -0.25"), []),
    "volvol-pin-beta6-verbose": ("volvol", _run("volvol", "input = {csv50}", OUT, "gauge = pin-beta6"), ["--verbose"]),
    "volvol-free-beta3-hat": ("volvol", _run("volvol", "input = {csv50}", OUT, "gauge = free", "beta3_hat = 0.04"), []),
    "volvol-free": ("volvol", _run("volvol", "input = {csv50}", OUT, "gauge = free"), ["--verbose"]),
    "volvol-zero-position": (
        "volvol", _run("volvol", "input = {zero}", OUT, "gauge = free", "beta3_hat = 0.04"), [],
    ),
    "volvol-crossing-positions": ("volvol", _run("volvol", "input = {cross}", OUT), ["--verbose"]),
    "volvol-unwritable-report": ("volvol", _run("volvol", "input = {csv50}", "output = {tmp}/missing/r.txt"), []),
    "pipeline-seed-11": ("pipeline", _run("pipeline", OUT, DATA, "seed = 11") + _gen(), []),
    "pipeline-pin-beta6-rho-verbose": (
        "pipeline", _run("pipeline", OUT, DATA, "gauge = pin-beta6", "alpha_ratio = -0.25") + _gen(), ["--verbose"],
    ),
    "pipeline-structural-seed-7": ("pipeline", _run("pipeline", OUT, DATA, "seed = 7") + STRUCTURAL, ["--verbose"]),
    "pipeline-free-beta3-hat": (
        "pipeline", _run("pipeline", OUT, DATA, "gauge = free", "beta3_hat = 0.04") + _gen(), [],
    ),
    "pipeline-unwritable-dataset": (
        "pipeline", _run("pipeline", OUT, "dataset_output = {tmp}/missing/d.csv") + _gen(), [],
    ),
    "pipeline-n-3": ("pipeline", _run("pipeline", OUT, DATA) + _gen(n=3), []),
    "simulate-structural-seed-9": ("simulate", _run("simulate", "output = {tmp}/d.csv") + STRUCTURAL, ["--seed", "9"]),
    "simulate-model-implied-seed-9": ("simulate", _run("simulate", "output = {tmp}/d.csv") + _gen(), ["--seed", "9"]),
    "validate": (
        "validate", _run("validate", OUT, "seed = 2024") + _gen("replications = 20", n=200), [],
    ),
    "validate-one-replication": ("validate", _run("validate", OUT) + _gen("replications = 1"), []),
    "mode-mismatch": ("volvol", _run("fit", "input = {csv50}", OUT), []),
    "fit-no-input": ("fit", _run("fit", OUT), []),
    "pipeline-base-rate": ("pipeline", _run("pipeline", OUT, DATA) + _gen("base_rate = 0.03"), []),
    "fit-alpha-ratio": ("fit", _run("fit", "input = {csv50}", OUT, "alpha_ratio = -0.25"), []),
    "fit-gauge": ("fit", _run("fit", "input = {csv50}", OUT, "gauge = free"), []),
    "fit-dataset-output-generation": ("fit", _run("fit", "input = {csv50}", OUT, DATA) + _gen(), []),
    "pipeline-input": ("pipeline", _run("pipeline", OUT, DATA, "input = {csv50}") + _gen(), []),
    "pipeline-replications": ("pipeline", _run("pipeline", OUT, DATA) + _gen("replications = 5"), []),
    "simulate-replications": (
        "simulate", _run("simulate", "output = {tmp}/d.csv") + _gen("replications = 5"), [],
    ),
    "validate-gauge": (
        "validate", _run("validate", OUT, "gauge = free") + _gen("replications = 5"), [],
    ),
    "pipeline-seed-11-rho": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 11", "alpha_ratio = -0.25") + _gen(n=200), ["--verbose"],
    ),
    "pipeline-seed-12": ("pipeline", _run("pipeline", OUT, DATA, "seed = 12") + _gen(n=200), ["--verbose"]),
    "pipeline-seed-13": ("pipeline", _run("pipeline", OUT, DATA, "seed = 13") + _gen(n=200), ["--verbose"]),
    "pipeline-free": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 11", "gauge = free") + _gen(n=200), ["--verbose"],
    ),
    "pipeline-n-30-noise-0.05": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 11") + _gen(n=30, noise=0.05), ["--verbose"],
    ),
    "pipeline-noiseless-equal-betas": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 11") + _gen(noise=0.0, b1=1.5, b2=1.5), ["--verbose"],
    ),
    "pipeline-sign-change": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 5") + _gen(n=200, b1=-1.0, b2=3.0, b3=0.02), ["--verbose"],
    ),
    "pipeline-negative-beta2": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 3") + _gen(n=200, b1=5.0, b2=-0.3, b3=0.1), ["--verbose"],
    ),
    "fit-flat-seed-8": ("fit", _run("fit", "input = {flat8}", OUT), ["--verbose"]),
    "fit-second-file": ("fit", _run("fit", "input = {noisy200}", OUT), ["--verbose"]),
    "volvol-200k-rows": ("volvol", _run("volvol", "input = {large}", OUT, "alpha_ratio = -0.25"), ["--verbose"]),
    "validate-seed-1": (
        "validate", _run("validate", OUT, "seed = 1") + _gen("replications = 50", n=200), ["--verbose"],
    ),
    "validate-seed-2": (
        "validate", _run("validate", OUT, "seed = 2") + _gen("replications = 50", n=200), ["--verbose"],
    ),
    # Diagnostics near their thresholds: stage 1's cond(J) is 4.6e7 and
    # 1.8e8 on the two narrow intervals (ILL_CONDITIONED above 1e8), and
    # POLE_PROXIMITY is set within 1e-3*beta3 of the pole and not 1e-3 away.
    "pipeline-narrow-e": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 11") + _gen("e_min = 0.05", "e_max = 0.0502", n=200, noise=0.0),
        ["--verbose"],
    ),
    "pipeline-narrower-e": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 11") + _gen("e_min = 0.05", "e_max = 0.0501", n=200, noise=0.0),
        ["--verbose"],
    ),
    "volvol-near-pole": ("volvol", _run("volvol", "input = {near_pole}", OUT), ["--verbose"]),
    "pipeline-close-to-pole": (
        "pipeline", _run("pipeline", OUT, DATA, "seed = 11") + _gen("e_min = -0.039", "e_max = -0.012", noise=0.0),
        ["--verbose"],
    ),
    "validate-n-30": (
        "validate", _run("validate", OUT, "seed = 1") + _gen("replications = 50", n=30, noise=0.05), ["--verbose"],
    ),
    "validate-structural": ("validate", _run("validate", OUT, "seed = 17") + _structural("replications = 5"), []),
    "volvol-2-rows": ("volvol", _run("volvol", "input = {two}", OUT, "gauge = free", "beta3_hat = 0.04"), []),
    "fit-byte-order-mark": ("fit", _run("fit", "input = {csv50_bom}", OUT), []),
    "simulate-n-0": ("simulate", _run("simulate", "output = {tmp}/d.csv") + _gen(n=0), []),
}

_BENCHMARK = GenerationSpec(stage1=TRUTH, n=200, noise=0.01)

# name: (spec, replications, master_seed, run_stage2, gauge_variant).
VALIDATION_CASES = {
    **{
        f"benchmark-{seed}": (_BENCHMARK, 500, seed, True, "pin-beta5")
        for seed in (1901, *range(2001, 2011))
    },
    "refused": (GenerationSpec(stage1=Stage1Params(1.0, 1.0, 0.04), n=50, noise=0.01), 20, 3, True, "pin-beta5"),
    "sign-change": (GenerationSpec(stage1=Stage1Params(-1.0, 3.0, 0.02), n=200, noise=0.01), 20, 5, True, "pin-beta5"),
    "noiseless": (GenerationSpec(stage1=TRUTH, n=50), 20, 1, True, "pin-beta5"),
    "free": (_BENCHMARK, 100, 2024, True, "free"),
    "pin-beta6": (_BENCHMARK, 100, 2024, True, "pin-beta6"),
    "overflowing-sum-of-squares": (
        GenerationSpec(stage1=Stage1Params(1e308, 0.0, 1.0), n=50, e_interval=(1.0, 1.81)), 20, 3, True, "pin-beta5",
    ),
    "overflowing-draws": (
        GenerationSpec(stage1=Stage1Params(1e308, 0.0, 1.0), n=4, e_interval=(1.0, 2.0)), 60, 11, True, "pin-beta5",
    ),
    "n-3": (GenerationSpec(stage1=TRUTH, n=3, noise=0.01), 5, 1, True, "pin-beta5"),
}


def make_inputs(directory: Path) -> dict[str, str]:
    """Write every input file into ``directory``; returns the config placeholders: each file's path, and ``inputs``."""
    paths = {"inputs": str(directory)}
    for name, source in INPUTS.items():
        path = directory / f"{name}.csv"
        if isinstance(source, str):
            path.write_text(source, encoding="utf-8")
        else:
            truth, n, noise, seed = source
            spec = GenerationSpec(stage1=truth, n=n, noise=noise)
            write_dataset(generate_synthetic_dataset("model-implied", spec, seed), path)
        paths[name] = str(path)
    for name, source in MARKED_INPUTS.items():
        path = directory / f"{name}.csv"
        path.write_bytes(codecs.BOM_UTF8 + Path(paths[source]).read_bytes())
        paths[name] = str(path)
    return paths


def _lines(text: str) -> list[str]:
    return text.split("\n")


def _warned(caught) -> list[str]:
    return sorted({f"{w.category.__name__}: {w.message}" for w in caught})


def run_cli_case(name: str, case_dir: Path, inputs: dict[str, str]) -> dict:
    """Run CLI case ``name`` in the empty directory ``case_dir``: its record, paths normalised."""
    command, config, flags = CLI_CASES[name]
    cfg = case_dir / "c.cfg"
    cfg.write_text(config.format(tmp=case_dir, **inputs), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([command, "--config", str(cfg), *flags])

    def normal(text: str) -> str:
        return text.replace(inputs["inputs"], "{inputs}").replace(str(case_dir), "{tmp}")

    report, dataset = case_dir / "r.txt", case_dir / "d.csv"
    return {
        "command": command,
        "config": _lines(config),
        "flags": flags,
        "exit": code,
        "stdout": _lines(normal(out.getvalue())),
        "stderr": _lines(normal(err.getvalue())),
        "report": _lines(normal(report.read_text(encoding="utf-8"))) if report.exists() else None,
        "dataset_sha256": hashlib.sha256(dataset.read_bytes()).hexdigest() if dataset.exists() else None,
        "warnings": _warned(caught),
    }


def _hexed(value):
    """``value`` with every float in hex: dataclasses become dicts of their fields, tuples lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def run_validation_case(name: str) -> dict:
    """Every field of validation case ``name``'s report, floats in hex, and its warnings."""
    spec, replications, master_seed, run_stage2, gauge = VALIDATION_CASES[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = monte_carlo_validation(
            spec, replications, master_seed=master_seed, run_stage2=run_stage2, gauge_variant=gauge
        )
    return {"report": _hexed(report), "warnings": _warned(caught)}


def build() -> dict:
    """The whole corpus, from the current source."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "inputs").mkdir()
        inputs = make_inputs(root / "inputs")
        cli = {}
        for name in CLI_CASES:
            case_dir = root / "cases" / name
            case_dir.mkdir(parents=True)
            cli[name] = run_cli_case(name, case_dir, inputs)
    return {"cli": cli, "validation": {name: run_validation_case(name) for name in VALIDATION_CASES}}


def dump(corpus: dict) -> str:
    return json.dumps(corpus, indent=1) + "\n"


# A number in a corpus string: a hex float, or a decimal one as the reports print it.
_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:e[-+]?\d+)?)(?![\w.])"
)


def _number(token: str) -> float:
    return float.fromhex(token) if "x" in token else float(token)


def _fields(value, name: str, out: dict) -> dict:
    """Fill ``out`` with ``{field: (text with each number as #, its numbers)}`` for every leaf of ``value``.

    A list of lines names a ``key = value`` line by its ``[section]`` and key.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            _fields(item, f"{name}.{key}" if name else key, out)
    elif isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        section = ""
        for i, line in enumerate(value):
            if re.fullmatch(r"\[\w+\]", line):
                section = f" {line}"
            key = line.split(" = ", 1)[0] if " = " in line else f"[{i}]"
            field = f"{name}{section} {key}"
            _fields(line, field if field not in out else f"{field} [{i}]", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _fields(item, f"{name}[{i}]", out)
    elif isinstance(value, str):
        out[name] = (_NUMBER.sub("#", value), [_number(t) for t in _NUMBER.findall(value)])
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[name] = ("#", [float(value)])
    else:
        out[name] = (repr(value), [])
    return out


# (pattern of a field, template of the field that is its scale).
_SCALES = (
    (r"(report \[stage[12]\]) (beta\d)", r"\1 se_\2"),
    (r"(report \[validation\]) (?:bias|rmse)_(beta\d)", r"\1 rmse_\2"),
    (r"(report \[validation\]) beta3_mean", r"\1 rmse_beta3"),
    (r"report\.(?:bias|rmse) (\[\d\])", r"report.rmse \1"),
    (r"report\.beta3_mean", r"report.rmse [2]"),
)


def _scale(field: str, fields: dict) -> tuple[str, float] | None:
    """``(name, value)`` of the scale of ``field`` among ``fields``, if it has one that is finite and nonzero."""
    for pattern, template in _SCALES:
        if re.fullmatch(pattern, field):
            scale = re.sub(pattern, template, field)
            values = fields.get(scale, ("", []))[1]
            if len(values) == 1 and 0.0 < abs(values[0]) < float("inf"):
                return re.sub(r"^report(?: \[\w+\] |\.)", "", scale), abs(values[0])
    return None


def _relative(old: float, new: float) -> float:
    if old == new or (old != old and new != new):
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def moved_fields(old: dict, new: dict) -> dict[str, dict[str, str]]:
    """``{case: {field: change}}`` of every case that moved between two corpora.

    A change is the largest relative change of the field's numbers, then,
    for a field with a scale (``_SCALES``), the largest move in units of
    the old scale; or ``text changed`` when its text moved, or it was added
    or removed.
    """
    moved = {}
    for group in ("cli", "validation"):
        for case in sorted(set(old.get(group, {})) | set(new.get(group, {}))):
            a = _fields(old.get(group, {}).get(case), "", {})
            b = _fields(new.get(group, {}).get(case), "", {})
            changes = {}
            for field in [*a, *(f for f in b if f not in a)]:
                if a.get(field) == b.get(field):
                    continue
                if field in a and field in b and a[field][0] == b[field][0]:
                    changes[field] = f"{max(map(_relative, a[field][1], b[field][1])):.2g}"
                    scale = _scale(field, a)
                    if scale is not None:
                        move = max(abs(y - x) for x, y in zip(a[field][1], b[field][1])) / scale[1]
                        changes[field] += f" ({move:.2g} {scale[0]})"
                else:
                    changes[field] = "text changed"
            if changes:
                moved[f"{group}/{case}"] = changes
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed corpus; write nothing")
    args = parser.parse_args(argv)
    text = dump(build())
    if not args.check:
        CORPUS.write_text(text, encoding="utf-8")
        print(f"wrote {len(CLI_CASES)} CLI and {len(VALIDATION_CASES)} validation cases to {CORPUS}")
        return 0
    old = CORPUS.read_text(encoding="utf-8") if CORPUS.exists() else ""
    diff = list(difflib.unified_diff(
        old.splitlines(keepends=True), text.splitlines(keepends=True), "corpus.json (committed)", "corpus.json (now)"
    ))
    sys.stdout.writelines(diff)
    for case, changes in moved_fields(json.loads(old) if old else {}, json.loads(text)).items():
        print(f"moved: {case}")
        for field, change in changes.items():
            print(f"  {field}: {change}")
    if diff:
        return 1
    print(f"{CORPUS.name} matches: {len(CLI_CASES)} CLI and {len(VALIDATION_CASES)} validation cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
