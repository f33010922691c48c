"""Serialization: observation CSVs, run configs, and result reports.

All formats are strict: unknown CSV columns and unknown config keys are
errors, never silently ignored.  Numbers are written with 17 significant
digits so every finite double round-trips exactly; absent values render
as the literal token ``null``.

A dataset CSV is the bytes of ``csv.writer``'s default dialect: a header
``[label,]pi_star,mu,r``, one row per observation, every line ending in
CRLF.  Numbers are ``.17g`` and never quoted; a label is quoted only when
it holds ``,``, ``"``, CR or LF (``QUOTE_MINIMAL``), with ``"`` doubled,
and a None label is an empty cell.  The writer joins pre-formatted cells
and writes a block of rows per call, so it never holds the whole file;
the reader parses lines as it reads them from the file, so neither does it.

Config sections ``[heston]`` and ``[policy]`` take exactly the fields of
``HestonParams`` and ``PolicyCoefficients``, each a required number.
"""

from __future__ import annotations

import configparser
import csv
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import chain, islice, repeat

import numpy as np

from .estimate import _GAUGE_VARIANTS, GaugeRule, RhoEstimate, ValidationReport
from .model import Dataset, FitResult, HestonParams, PolicyCoefficients, Stage1Params
from .simulate import SEED_LIMIT, GenerationSpec, PathConfig, StructuralSpec

__all__ = [
    "RunConfig",
    "read_dataset",
    "write_dataset",
    "write_report",
    "parse_config",
]

_CSV_COLUMNS = ("pi_star", "mu", "r")


def _fmt(value) -> str:
    """Render one report value: 17-significant-digit floats, bare ints/strings, null."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}" if math.isfinite(value) else "null"
    return str(value)


def _parse_fast(lines: Iterator[str], n_fields: int) -> np.ndarray | None:
    """Parse the lines of a label-free CSV body with numpy's C reader.

    Returns an ``(n, n_fields)`` array, or None whenever the body is not
    plain finite numbers in ``n_fields`` columns (blank body, quoting,
    short rows, ``1_0``, non-finite values, ...); the row loop then reads
    it and raises the error the file deserves.  The C reader converts
    with CPython's string-to-double, so accepted values are bit-identical
    to ``float(cell.strip())``.  ``lines`` may be left part-read.
    """
    first = next((line for line in lines if line.strip()), None)
    if first is None:  # loadtxt warns on input with no rows
        return None
    try:
        values = np.loadtxt(chain((first,), lines), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if values.shape[1] != n_fields or not np.all(np.isfinite(values)):
        return None
    return values


def _parse_rows(rows: Iterable[list[str]], header: list[str]) -> tuple[dict[str, list[float]], list[str | None] | None]:
    """Reference reader: the CSV records after the header, with the row named in every error.

    Row numbers count CSV records, the header being row 1.  Rows whose
    cells are all blank are skipped.
    """
    col = {name: header.index(name) for name in header}
    has_label = "label" in col
    columns: dict[str, list[float]] = {name: [] for name in _CSV_COLUMNS}
    labels: list[str | None] | None = [] if has_label else None
    for line, row in enumerate(rows, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"row parse error at row {line}: expected {len(header)} fields, got {len(row)}")
        values = {}
        for name in _CSV_COLUMNS:
            cell = row[col[name]].strip()
            try:
                values[name] = float(cell)
            except ValueError:
                raise ValueError(f"row parse error at row {line}: field {name} is not a number: {cell!r}") from None
        for name in _CSV_COLUMNS:
            if not math.isfinite(values[name]):
                raise ValueError(f"row parse error at row {line}: invalid Dataset: {name} must be finite")
            columns[name].append(values[name])
        if labels is not None:
            raw = row[col["label"]].strip()
            labels.append(raw if raw else None)
    return columns, labels


def read_dataset(path) -> Dataset:
    """Parse an observation CSV.

    Schema: UTF-8 (a leading byte-order mark is skipped), comma-delimited,
    header line with columns ``pi_star``, ``mu``, ``r`` and optionally
    ``label`` in any order; nothing else.  A present label column gives
    the dataset labels, which tag it as a time series; without one
    ``labels`` is None.  Error messages reference file
    rows (the header is row 1).  A label-free body of plain numbers is
    parsed in C; any other body, and every malformed one, goes through the
    row loop, from the top of the file again if the C parse gave up.  Both
    read lines from the open file and never hold its body as one string.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = csv.reader(handle)
            header_row = next(rows, None)
            if header_row is None:
                raise ValueError(f"empty dataset: {path} has no header")
            header = [h.strip() for h in header_row]
            for name in header:
                if name not in _CSV_COLUMNS and name != "label":
                    raise ValueError(f"unknown column: {name}")
            for name in _CSV_COLUMNS:
                if name not in header:
                    raise ValueError(f"missing column: {name}")
            if len(set(header)) != len(header):
                raise ValueError(f"duplicate column in header of {path}")
            values = None if "label" in header else _parse_fast(handle, len(header))
            if values is not None:
                columns = {name: values[:, header.index(name)] for name in _CSV_COLUMNS}
                labels = None
            else:
                handle.seek(0)
                columns, labels = _parse_rows(islice(csv.reader(handle), 1, None), header)
    except OSError as exc:
        raise OSError(f"cannot read dataset {path}: {exc}") from exc
    if not len(columns["pi_star"]):
        raise ValueError(f"empty dataset: {path} has no data rows")
    return Dataset(**columns, labels=labels, source=str(path))


# Rows per write call: large enough that the per-call cost vanishes, small
# enough that a block's text stays well under a megabyte.
_WRITE_BLOCK = 1024


def _format_column(column: np.ndarray):
    """``format(v, ".17g")`` of each value, formatted lazily; once when every value has the same bits.

    Dataset columns are finite, so this is _fmt's float rendering.  The
    test is on bit patterns, so a column mixing -0.0 and 0.0 takes the
    general path.
    """
    bits = column.view(np.int64)
    if len(bits) and np.all(bits == bits[0]):
        return repeat(format(column[0].item(), ".17g"), len(column))
    # One block of Python floats at a time, not the whole column.
    return chain.from_iterable(
        map(format, column[i : i + _WRITE_BLOCK].tolist(), repeat(".17g")) for i in range(0, len(column), _WRITE_BLOCK)
    )


def _csv_label(label: str | None) -> str:
    """One label cell as ``csv.writer`` writes it under ``QUOTE_MINIMAL``."""
    if label is None:
        return ""
    if "," in label or '"' in label or "\r" in label or "\n" in label:
        return '"' + label.replace('"', '""') + '"'
    return label


def _label_cells(labels: tuple) -> Iterable[str]:
    """The label column as ``csv.writer`` writes it: the labels themselves unless one is None or needs quoting."""
    try:
        joined = "".join(labels)
    except TypeError:  # a None label
        return map(_csv_label, labels)
    if "," in joined or '"' in joined or "\r" in joined or "\n" in joined:
        return map(_csv_label, labels)
    return labels


def write_dataset(data: Dataset, path) -> None:
    """Write a Dataset as CSV, byte for byte what ``csv.writer`` would write.

    The header is ``pi_star,mu,r``, led by ``label`` exactly when
    ``data.labels`` is not None; every line ends in CRLF.  Values are
    ``.17g``, so :func:`read_dataset` gives back the same bits.  A label
    comes back unchanged when it is non-empty and has no leading or
    trailing whitespace: the reader strips each cell and reads an empty
    one as None, so None, ``""`` and an all-blank label all come back as
    None.  Rows are joined and written ``_WRITE_BLOCK`` at a time.
    """
    with_label = data.labels is not None
    columns = [_format_column(column) for column in (data.pi_star, data.mu, data.r)]
    if with_label:
        columns.insert(0, _label_cells(data.labels))
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join((["label"] if with_label else []) + list(_CSV_COLUMNS)) + "\r\n")
        while block := list(islice(rows, _WRITE_BLOCK)):
            block.append("")
            handle.write("\r\n".join(block))


def _fit_lines(section: str, fit: FitResult, param_names: tuple[str, ...]) -> list[str]:
    lines = [f"[{section}]"]
    values = fit.params.as_array() if hasattr(fit.params, "as_array") else fit.params
    for name, value in zip(param_names, values):
        lines.append(f"{name} = {_fmt(float(value))}")
    for i, name in enumerate(param_names):
        se = None if fit.standard_errors is None else fit.standard_errors[i]
        lines.append(f"se_{name} = {_fmt(se)}")
    lines.append(f"residual_norm = {_fmt(fit.residual_norm)}")
    lines.append(f"iterations = {_fmt(fit.iterations)}")
    lines.append(f"converged = {_fmt(fit.converged)}")
    lines.append(f"message = {fit.message if fit.message else 'null'}")
    return lines


def _diag_value(diags: frozenset[str]) -> str:
    return ",".join(sorted(diags)) if diags else "none"


def write_report(
    path,
    *,
    stage1: FitResult | None = None,
    stage2: FitResult | None = None,
    gauge: GaugeRule | None = None,
    rho: RhoEstimate | None = None,
    validation: ValidationReport | None = None,
) -> None:
    """Emit the line-oriented result report.

    Sections appear in a fixed order (stage1, stage2, rho, diagnostics,
    validation), each with a fixed key order, so identical inputs produce
    byte-identical files.
    """
    lines: list[str] = []
    if stage1 is not None:
        lines += _fit_lines("stage1", stage1, ("beta1", "beta2", "beta3"))
        lines.append("")
    if stage2 is not None:
        lines += _fit_lines("stage2", stage2, ("beta4", "beta5", "beta6"))
        lines.append(f"gamma_hat = {_fmt(float(stage2.params.beta4))}")
        lines.append(f"gauge = {gauge.variant if gauge is not None else 'null'}")
        pin = None if gauge is None else gauge.pin_value
        lines.append(f"gauge_pin_value = {_fmt(pin)}")
        lines.append("")
    if rho is not None:
        lines.append("[rho]")
        lines.append(f"rho_hat = {_fmt(rho.rho_hat)}")
        lines.append(f"in_range = {_fmt(rho.in_range)}")
        lines.append("")
    if stage1 is not None or stage2 is not None or rho is not None:
        lines.append("[diagnostics]")
        if stage1 is not None:
            lines.append(f"stage1 = {_diag_value(stage1.diagnostics)}")
        if stage2 is not None:
            lines.append(f"stage2 = {_diag_value(stage2.diagnostics)}")
        if rho is not None:
            lines.append(f"rho = {_diag_value(rho.diagnostics)}")
        lines.append("")
    if validation is not None:
        v = validation
        lines.append("[validation]")
        lines.append(f"replications = {_fmt(v.replications)}")
        lines.append(f"converged = {_fmt(v.n_converged)}")
        lines.append(f"failed = {_fmt(v.n_failed)}")
        lines.append(f"convergence_rate = {_fmt(v.convergence_rate)}")
        for i, name in enumerate(v.param_names):
            lines.append(f"truth_{name} = {_fmt(float(v.truth.as_array()[i]))}")
            lines.append(f"bias_{name} = {_fmt(None if v.bias is None else v.bias[i])}")
            lines.append(f"rmse_{name} = {_fmt(None if v.rmse is None else v.rmse[i])}")
            lines.append(f"coverage_{name} = {_fmt(None if v.coverage is None else v.coverage[i])}")
        lines.append(f"coverage_evaluated = {_fmt(v.coverage_evaluated)}")
        lines.append(f"beta3_mean = {_fmt(v.beta3_mean)}")
        lines.append(f"stage2_gamma_mean = {_fmt(v.stage2_gamma_mean)}")
        lines.append(f"stage2_converged = {_fmt(v.stage2_n_converged)}")
        lines.append("")
    text = "\n".join(lines)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc


# Sections that are exactly the fields of one type.
_SECTION_TYPES = {"heston": HestonParams, "policy": PolicyCoefficients}
_SECTION_KEYS = {
    "run": {"mode", "input", "output", "dataset_output", "seed", "gauge", "beta3_hat", "alpha_ratio"},
    "generation": {"kind", "n", "noise", "e_min", "e_max", "beta1", "beta2", "beta3", "replications"},
    "path": {"horizon", "dt", "x0"},
    **{section: {f.name for f in fields(cls)} for section, cls in _SECTION_TYPES.items()},
}
_MODES = ("simulate", "fit", "volvol", "validate", "pipeline")
# The modes that read each other [run] key (every mode reads mode,
# output and seed), checked in this order; each requires the keys it reads
# but gauge, beta3_hat and alpha_ratio.  Only the generating modes read
# [generation], only validate its replications, and only structural
# generation reads [heston], [policy] and [path] and not the curve keys.
# Structural generation is for simulate and pipeline: every row of a wealth
# path has one excess return, which stage 1 refuses, so validate would
# tally nothing but refusals.
_RUN_KEY_MODES = {
    "beta3_hat": ("volvol",),
    "alpha_ratio": ("volvol", "pipeline"),
    "gauge": ("volvol", "pipeline"),
    "input": ("fit", "volvol"),
    "dataset_output": ("pipeline",),
}
_GENERATING_MODES = ("simulate", "validate", "pipeline")
_STRUCTURAL_SECTIONS = ("heston", "policy", "path")
_MODEL_IMPLIED_KEYS = ("n", "noise", "e_min", "e_max", "beta1", "beta2", "beta3")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description, ready for the CLI dispatcher."""

    mode: str
    output: str
    input: str | None = None
    dataset_output: str | None = None
    seed: int = 0
    gauge_variant: str = "pin-beta5"
    beta3_hat: float | None = None
    alpha_ratio: float | None = None
    generation: GenerationSpec | StructuralSpec | None = None
    replications: int | None = None


def _number(parser: configparser.ConfigParser, section: str, key: str, default=None, required=False, kind=float):
    """``[section] key`` as a ``kind``; ``default`` when absent, an error when also ``required``."""
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        if required:
            raise ValueError(f"missing required key: [{section}] {key}")
        return default
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(
            f"type error: [{section}] {key} expects {'an integer' if kind is int else 'a number'}, got {raw!r}"
        ) from None


def _check_known_keys(parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ValueError(f"unknown section: {section}")
        for key in parser.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ValueError(f"unknown key: {key}")


def _not_read(name: str, what: str, readers: tuple[str, ...], actual: str) -> ValueError:
    listed = readers[0] if len(readers) == 1 else f"{', '.join(readers[:-1])} and {readers[-1]}"
    plural = "s" if len(readers) > 1 else ""
    return ValueError(f"{name} is for {what}{plural} {listed} only, not {actual}")


def _check_read_keys(parser: configparser.ConfigParser, mode: str, kind: str | None) -> None:
    """Refuse a key or section that ``mode``, or its generation ``kind``, never reads."""
    for key, modes in _RUN_KEY_MODES.items():
        if parser.has_option("run", key) and mode not in modes:
            raise _not_read(f"[run] {key}", "mode", modes, mode)
    if mode not in _GENERATING_MODES:
        for section in ("generation", *_STRUCTURAL_SECTIONS):
            if parser.has_section(section):
                raise _not_read(f"[{section}]", "mode", _GENERATING_MODES, mode)
        return
    if mode != "validate" and parser.has_option("generation", "replications"):
        raise _not_read("[generation] replications", "mode", ("validate",), mode)
    if kind == "structural":
        if mode == "validate":
            raise _not_read("[generation] kind = structural", "mode", ("simulate", "pipeline"), mode)
        for key in _MODEL_IMPLIED_KEYS:
            if parser.has_option("generation", key):
                raise _not_read(f"[generation] {key}", "kind", ("model-implied",), kind)
    else:
        for section in _STRUCTURAL_SECTIONS:
            if parser.has_section(section):
                raise _not_read(f"[{section}]", "kind", ("structural",), kind)


def _from_fields(parser: configparser.ConfigParser, section: str, cls):
    """``cls`` built from ``[section]``, one required number per field, read in field order."""
    values = {}
    for f in fields(cls):
        values[f.name] = _number(parser, section, f.name, required=True)
    return cls(**values)


def _generation_spec(parser: configparser.ConfigParser, mode: str):
    if not parser.has_section("generation"):
        raise ValueError(f"missing required section for mode {mode}: [generation]")
    kind = parser.get("generation", "kind", fallback="model-implied")
    if kind not in ("model-implied", "structural"):
        raise ValueError(f"type error: [generation] kind must be model-implied or structural, got {kind!r}")
    replications = _number(parser, "generation", "replications", None, kind=int)
    if kind == "model-implied":
        spec = GenerationSpec(
            stage1=_from_fields(parser, "generation", Stage1Params),
            n=_number(parser, "generation", "n", required=True, kind=int),
            noise=_number(parser, "generation", "noise", 0.0),
            e_interval=(
                _number(parser, "generation", "e_min", 0.01),
                _number(parser, "generation", "e_max", 0.10),
            ),
        )
        return spec, replications
    for section in _STRUCTURAL_SECTIONS:
        if not parser.has_section(section):
            raise ValueError(f"missing required section for structural generation: [{section}]")
    heston = _from_fields(parser, "heston", HestonParams)
    policy = _from_fields(parser, "policy", PolicyCoefficients)
    path_cfg = PathConfig(
        horizon=_number(parser, "path", "horizon", required=True),
        dt=_number(parser, "path", "dt", required=True),
        seed=0,
    )
    x0 = _number(parser, "path", "x0", required=True)
    spec = StructuralSpec(heston=heston, policy=policy, path=path_cfg, x0=x0)
    return spec, replications


def parse_config(path) -> RunConfig:
    """Parse and validate a run config.

    Format: UTF-8 ``key = value`` lines under ``[section]`` headers, after
    an optional byte-order mark.  Unknown sections and keys are errors, as
    are missing keys required by the declared mode and keys it never reads,
    such as ``[run] alpha_ratio`` in ``fit`` or ``[generation] replications``
    outside ``validate``, and structural generation in ``validate``; ``#``
    starts a comment line.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ValueError(f"config syntax error in {path}: {exc}") from None
    _check_known_keys(parser)

    mode = parser.get("run", "mode", fallback=None)
    if mode is None:
        raise ValueError("missing required key: [run] mode")
    if mode not in _MODES:
        raise ValueError(f"type error: [run] mode must be one of {', '.join(_MODES)}; got {mode!r}")

    output = parser.get("run", "output", fallback=None)
    if output is None:
        raise ValueError(f"missing required key for mode {mode}: [run] output")
    seed = _number(parser, "run", "seed", 0, kind=int)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"type error: [run] seed must be in [0, 2**64), got {seed}")
    gauge_variant = parser.get("run", "gauge", fallback="pin-beta5")
    if gauge_variant not in _GAUGE_VARIANTS:
        raise ValueError(f"type error: [run] gauge must be free, pin-beta5 or pin-beta6; got {gauge_variant!r}")
    beta3_hat = _number(parser, "run", "beta3_hat", None)
    alpha_ratio = _number(parser, "run", "alpha_ratio", None)
    input_path = parser.get("run", "input", fallback=None)
    dataset_output = parser.get("run", "dataset_output", fallback=None)

    generation = None
    replications = None
    if mode in _GENERATING_MODES:
        generation, replications = _generation_spec(parser, mode)
    if mode == "validate":
        if replications is None:
            raise ValueError("missing required key for mode validate: [generation] replications")
        if replications < 2:
            raise ValueError("type error: [generation] replications must be >= 2")
    for key, modes in _RUN_KEY_MODES.items():
        if mode in modes and key not in ("gauge", "beta3_hat", "alpha_ratio") and not parser.has_option("run", key):
            raise ValueError(f"missing required key for mode {mode}: [run] {key}")
    _check_read_keys(parser, mode, None if generation is None else generation.kind)
    for key, value in (("beta3_hat", beta3_hat), ("alpha_ratio", alpha_ratio)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"type error: [run] {key} must be finite, got {value!r}")
    if beta3_hat is not None and beta3_hat <= 0.0:
        raise ValueError("type error: [run] beta3_hat must be > 0")
    if beta3_hat is not None and gauge_variant != "free":
        raise ValueError("pin gauges take their pin value from a stage-1 fit; with beta3_hat given, use gauge = free")
    if beta3_hat is not None and alpha_ratio is not None:
        raise ValueError("rho estimation needs the stage-1 beta2; drop beta3_hat or alpha_ratio")
    if alpha_ratio is not None and alpha_ratio == 0.0:
        raise ValueError("type error: [run] alpha_ratio must be nonzero")

    return RunConfig(
        mode=mode,
        output=output,
        input=input_path,
        dataset_output=dataset_output,
        seed=seed,
        gauge_variant=gauge_variant,
        beta3_hat=beta3_hat,
        alpha_ratio=alpha_ratio,
        generation=generation,
        replications=replications,
    )
