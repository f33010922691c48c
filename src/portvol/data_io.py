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
and writes a block of rows per call, so it never holds the whole file.
Neither does the reader: numpy's C reader opens a label-free regular file
itself and reads it in chunks, and the row loop parses each record as it
reads it.

Config sections ``[heston]`` and ``[policy]`` take exactly the fields of
``HestonParams`` and ``PolicyCoefficients``, each a required number.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import stat
from collections.abc import Iterable
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


# numpy opens a name with one of these suffixes through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _parse_fast(path: str, skiprows: int, n_fields: int) -> np.ndarray | None:
    """Parse a label-free CSV body with numpy's C reader, which opens ``path`` and reads it in chunks.

    The first ``skiprows`` lines are skipped.  Returns an ``(n, n_fields)``
    array, or None whenever the body is not plain finite numbers in
    ``n_fields`` columns (quoting, blank-cell or short rows, ``1_0``,
    non-finite values, bytes that are not UTF-8, ...); the row loop then
    reads it and raises the error the file deserves.  The C reader converts
    with CPython's string-to-double, so accepted values are bit-identical
    to ``float(cell.strip())``.  The body must hold a non-blank line:
    ``loadtxt`` warns on input with no rows.
    """
    try:
        values = np.loadtxt(
            path, skiprows=skiprows, encoding="utf-8-sig", delimiter=",", comments=None, ndmin=2, dtype=float
        )
    except ValueError:
        return None
    if values.shape[1] != n_fields or not np.all(np.isfinite(values)):
        return None
    return values


def _reopenable(handle) -> str | None:
    """The absolute name by which numpy may open ``handle``'s file again, or None.

    Only a regular file can be read twice: a second reader of a pipe would
    take its data, and opening a FIFO again blocks.  A name that numpy
    would read through a decompressor is not opened either.
    """
    if isinstance(handle.name, int) or not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
        return None
    name = os.path.abspath(os.fsdecode(handle.name))  # absolute: numpy reads a "scheme://" name as a URL
    return None if os.path.splitext(name)[1] in _COMPRESSED_SUFFIXES else name


def _names(name: str, handle) -> bool:
    """Whether ``name`` still leads to the file open in ``handle``."""
    try:
        return os.path.samestat(os.stat(name), os.fstat(handle.fileno()))
    except OSError:
        return False


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
    rows (the header is row 1).  A label-free regular file whose body is
    plain numbers is parsed by numpy's C reader, which opens the file again
    by name and starts at the first non-blank record.  Any other input
    (a labelled or malformed body, a pipe) goes through the row loop, which
    continues on the records after the header.  Neither holds the body as
    one string.
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
            c_path = None if "label" in header else _reopenable(handle)
            values, head = None, []  # head: the records read past, replayed to the row loop
            if c_path is not None:
                skip = rows.line_num  # numpy starts at the first non-blank record: it warns on a body with none
                for row in rows:
                    head.append(row)
                    if any(cell.strip() for cell in row):
                        values = _parse_fast(c_path, skip, len(header))
                        break
                    skip = rows.line_num
            if values is not None and _names(c_path, handle):  # and numpy read the file this handle holds
                columns = {name: values[:, header.index(name)] for name in _CSV_COLUMNS}
                labels = None
            else:
                columns, labels = _parse_rows(chain(head, rows), header)
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


def _needs_quotes(text: str) -> bool:
    """Whether ``csv.writer`` quotes a cell holding ``text`` under ``QUOTE_MINIMAL``."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_label(label: str | None) -> str:
    """One label cell as ``csv.writer`` writes it under ``QUOTE_MINIMAL``."""
    if label is None:
        return ""
    return '"' + label.replace('"', '""') + '"' if _needs_quotes(label) else label


def _label_cells(labels: tuple) -> Iterable[str]:
    """The label column as ``csv.writer`` writes it: the labels themselves unless one is None or needs quoting."""
    try:
        joined = "".join(labels)
    except TypeError:  # a None label
        return map(_csv_label, labels)
    if _needs_quotes(joined):
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
    byte-identical files.  Each section is built as ``(key, value)`` pairs,
    and every value is rendered by :func:`_fmt`.
    """
    sections: list[tuple[str, list[tuple[str, object]]]] = []
    fits = {"stage1": (stage1, ("beta1", "beta2", "beta3")), "stage2": (stage2, ("beta4", "beta5", "beta6"))}
    for name, (fit, params) in fits.items():
        if fit is None:
            continue
        values = fit.params.as_array() if hasattr(fit.params, "as_array") else fit.params
        se = repeat(None) if fit.standard_errors is None else fit.standard_errors
        pairs = [*zip(params, map(float, values)), *zip([f"se_{p}" for p in params], se)]
        pairs += [("residual_norm", fit.residual_norm), ("iterations", fit.iterations), ("converged", fit.converged)]
        pairs.append(("message", fit.message or None))
        if name == "stage2":
            pairs.append(("gamma_hat", float(fit.params.beta4)))
            pairs.append(("gauge", None if gauge is None else gauge.variant))
            pairs.append(("gauge_pin_value", None if gauge is None else gauge.pin_value))
        sections.append((name, pairs))
    if rho is not None:
        sections.append(("rho", [("rho_hat", rho.rho_hat), ("in_range", rho.in_range)]))
    diagnostics = [
        (name, ",".join(sorted(part.diagnostics)) if part.diagnostics else "none")
        for name, part in (("stage1", stage1), ("stage2", stage2), ("rho", rho))
        if part is not None
    ]
    if diagnostics:
        sections.append(("diagnostics", diagnostics))
    if validation is not None:
        v = validation
        pairs = [("replications", v.replications), ("converged", v.n_converged), ("failed", v.n_failed)]
        pairs.append(("convergence_rate", v.convergence_rate))
        for i, name in enumerate(v.param_names):
            pairs.append((f"truth_{name}", float(v.truth.as_array()[i])))
            for stat, column in (("bias", v.bias), ("rmse", v.rmse), ("coverage", v.coverage)):
                pairs.append((f"{stat}_{name}", None if column is None else column[i]))
        pairs += [("coverage_evaluated", v.coverage_evaluated), ("beta3_mean", v.beta3_mean)]
        pairs += [("stage2_gamma_mean", v.stage2_gamma_mean), ("stage2_converged", v.stage2_n_converged)]
        sections.append(("validation", pairs))
    text = "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs) for name, pairs in sections
    )
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc


_MODES = ("simulate", "fit", "volvol", "validate", "pipeline")
_GENERATING_MODES = ("simulate", "validate", "pipeline")
# The keys of each config section; any other key or section is an error.
_KEYS = {
    "run": {"mode", "input", "output", "dataset_output", "seed", "gauge", "beta3_hat", "alpha_ratio"},
    "generation": {"kind", "n", "noise", "e_min", "e_max", "beta1", "beta2", "beta3", "replications"},
    "heston": {f.name for f in fields(HestonParams)},
    "policy": {f.name for f in fields(PolicyCoefficients)},
    "path": {"horizon", "dt", "x0"},
}
# Who reads each part of a config, in check order: (part, "mode" or "kind")
# -> (the modes or generation kinds that read it, whether a mode that reads
# the key must give it; a required section is checked where it is parsed).
# A part given where nothing reads it is refused.  Every mode reads [run]
# mode, output and seed, and every generation kind reads [generation] kind.
# Structural generation is for simulate and pipeline: every row of a wealth
# path has one excess return, which stage 1 refuses, so validate would tally
# nothing but refusals.
_READERS = {
    ("[run] beta3_hat", "mode"): (("volvol",), False),
    ("[run] alpha_ratio", "mode"): (("volvol", "pipeline"), False),
    ("[run] gauge", "mode"): (("volvol", "pipeline"), False),
    ("[run] input", "mode"): (("fit", "volvol"), True),
    ("[run] dataset_output", "mode"): (("pipeline",), True),
    **{(f"[{section}]", "mode"): (_GENERATING_MODES, False) for section in ("generation", "heston", "policy", "path")},
    ("[generation] replications", "mode"): (("validate",), True),
    ("[generation] kind = structural", "mode"): (("simulate", "pipeline"), False),
    **{
        (f"[generation] {key}", "kind"): (("model-implied",), False)
        for key in ("n", "noise", "e_min", "e_max", "beta1", "beta2", "beta3")
    },
    **{(f"[{section}]", "kind"): (("structural",), False) for section in ("heston", "policy", "path")},
}


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


def _check_read_keys(given: set[str], mode: str, kind: str | None) -> None:
    """Refuse a part of ``given`` that ``mode``, or its generation ``kind``, never reads (``_READERS``)."""
    for (part, what), (readers, _) in _READERS.items():
        actual = mode if what == "mode" else kind
        if part in given and actual not in readers:
            listed = readers[0] if len(readers) == 1 else f"{', '.join(readers[:-1])} and {readers[-1]}"
            raise ValueError(f"{part} is for {what}{'s' if len(readers) > 1 else ''} {listed} only, not {actual}")


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
    for section in ("heston", "policy", "path"):
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
    an optional byte-order mark; ``#`` starts a comment line.  A section or
    key not in ``_KEYS`` is an error.  ``_READERS`` names the modes and
    generation kinds that read each part of a config: a part none of them
    reads is an error, such as ``[run] alpha_ratio`` in ``fit`` or
    structural generation in ``validate``, and so is a key missing from a
    mode that requires it.  The checks run in one fixed order, so a config
    with several faults always reports the same one.
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
    given = set()  # "[section]" and "[section] key" of every section and key in the file
    for section in parser.sections():
        if section not in _KEYS:
            raise ValueError(f"unknown section: {section}")
        given.add(f"[{section}]")
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ValueError(f"unknown key: {key}")
            given.add(f"[{section}] {key}")

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
        given.add(f"[generation] kind = {generation.kind}")
    for (part, _), (readers, required) in _READERS.items():
        if required and mode in readers and part not in given:
            raise ValueError(f"missing required key for mode {mode}: {part}")
    if mode == "validate" and replications < 2:
        raise ValueError("type error: [generation] replications must be >= 2")
    _check_read_keys(given, mode, None if generation is None else generation.kind)
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
