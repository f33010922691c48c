"""CSV, report, and config serialization: strictness and round-trips."""

import csv
import io
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portvol import (
    Dataset,
    GaugeRule,
    GenerationSpec,
    HestonParams,
    PathConfig,
    PolicyCoefficients,
    RhoEstimate,
    Stage1Params,
    StructuralSpec,
    data_io,
    fit_vol_of_vol,
    fit_volatility,
    generate_synthetic_dataset,
    monte_carlo_validation,
    parse_config,
    read_dataset,
    write_dataset,
    write_report,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


_MODEL_GEN = "[generation]\nn = 10\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n"
_STRUCTURAL_GEN = (
    "[generation]\nkind = structural\n"
    "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = 0.3\nrho = -0.5\nsigma_bar = 0.04\n"
    "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
    "[path]\nhorizon = 1.0\ndt = 0.01\nx0 = 1.0\n"
)


class TestReadDataset:
    def test_basic_file_with_labels(self, tmp_path):
        p = write(
            tmp_path / "d.csv",
            "label,pi_star,mu,r\nt0,1.5,0.07,0.02\nt1,-0.5,0.03,0.02\nt2,2.0,0.08,0.02\n",
        )
        data = read_dataset(p)
        assert data.n_rows == 3
        assert data.labels == ("t0", "t1", "t2")
        assert data.pi_star[1] == -0.5

    def test_label_column_optional(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.0,0.05,0.02\n")
        data = read_dataset(p)
        assert data.labels is None

    @pytest.mark.parametrize(
        "text",
        ["pi_star,mu,r\n1.0,0.05,0.02\n1.5,0.07,0.02\n", "label,pi_star,mu,r\nt0,1.0,0.05,0.02\nt1,1.5,0.07,0.02\n"],
        ids=["c-parse", "labelled"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # Spreadsheet exports lead with a UTF-8 byte-order mark.  The labelled
        # file is read again from the top by the row loop, which skips it too.
        path = write(tmp_path / "d.csv", text)
        plain = read_dataset(path)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_dataset(path) == plain

    def test_column_order_free(self, tmp_path):
        p = write(tmp_path / "d.csv", "r,mu,pi_star\n0.02,0.05,1.25\n")
        assert read_dataset(p).pi_star[0] == 1.25

    def test_missing_column_named(self, tmp_path):
        p = write(tmp_path / "d.csv", "label,mu,r\na,0.05,0.02\n")
        with pytest.raises(ValueError, match="missing column: pi_star"):
            read_dataset(p)

    def test_unknown_column_named(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r,vol\n1.0,0.05,0.02,0.2\n")
        with pytest.raises(ValueError, match="unknown column: vol"):
            read_dataset(p)

    def test_row_parse_error_names_row_and_field(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\nabc,0.05,0.02\n1.0,0.05,0.02\n")
        with pytest.raises(ValueError, match=r"row 2.*pi_star"):
            read_dataset(p)

    def test_non_finite_value_is_a_row_error(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.0,0.05,0.02\nnan,0.05,0.02\n")
        with pytest.raises(ValueError, match="row 3"):
            read_dataset(p)

    def test_short_row_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.0,0.05\n")
        with pytest.raises(ValueError, match="row 2"):
            read_dataset(p)

    @pytest.mark.parametrize("content", ["", "pi_star,mu,r\n", "pi_star,mu,r\n\r\n\n"])
    def test_empty_dataset(self, tmp_path, content):
        p = write(tmp_path / "d.csv", content)
        with pytest.raises(ValueError, match="empty dataset"):
            read_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_dataset(tmp_path / "absent.csv")

    @pytest.mark.parametrize(("labelled", "factor"), [(False, 2), (True, 6)])
    def test_reader_does_not_hold_the_file(self, tmp_path, labelled, factor):
        rng = np.random.default_rng(50_000)
        n = 50_000
        labels = [f"t{i}" for i in range(n)] if labelled else None
        data = Dataset(
            pi_star=rng.standard_normal(n), mu=0.05 * rng.standard_normal(n), r=np.full(n, 0.02), labels=labels
        )
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        tracemalloc.start()
        try:
            back = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.pi_star.tobytes() == data.pi_star.tobytes()
        # Lines are read from the file as they are parsed: the peak was 3.3 MB
        # label-free and 11.1 MB labelled (13.2 and 21.7 MB when the body was
        # read into one string and copied into a StringIO).
        assert peak < factor * path.stat().st_size

    # 5000 clean rows put the byte past the first 64 KB: the file is decoded a
    # chunk at a time, so the byte sits past what the header read decoded.
    @pytest.mark.parametrize("clean_rows", [0, 5000])
    def test_bytes_that_are_not_utf8_are_an_error(self, tmp_path, clean_rows):
        row = b"1.0,0.05,0.02\n"
        p = tmp_path / "d.csv"
        p.write_bytes(b"pi_star,mu,r\n" + row * clean_rows + b"\xff" + row * 3)
        with pytest.raises(UnicodeDecodeError):
            read_dataset(p)


def _read_outcome(path):
    try:
        data = read_dataset(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("data", data.pi_star.tobytes(), data.mu.tobytes(), data.r.tobytes(), data.labels)


def _reference_outcome(path):
    """Read through the row loop alone, the reference for the C parse."""
    with mock.patch.object(data_io, "_parse_fast", return_value=None):
        return _read_outcome(path)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(
    _finite.map(repr),
    _finite.map(lambda x: f"{x:.17g}"),
    _finite.map(lambda x: f"{x:.3e}"),
    st.integers(-(10**6), 10**6).map(str),
)
_padding = st.sampled_from(["", " ", "\t", "  "])
_clean_cell = st.tuples(_padding, _number, _padding).map("".join)
_dirty_cell = st.one_of(
    _number.map(lambda v: f'"{v}"'),
    st.integers(10, 99).map(lambda k: f"{k // 10}_{k % 10}"),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "", "abc"]),
)
_label = st.one_of(st.text(alphabet="ab z", max_size=4), st.just('"x,y"'))
_CLEAN_ROWS = ("row", "row", "blank")
# A file mixes clean rows with at most one kind of bad row, so the bad row is
# often the only thing between the body and the C parse.  All-short and
# all-long files have a consistent width the C parse accepts.
_ROW_KINDS = (
    _CLEAN_ROWS,
    *(_CLEAN_ROWS + (bad,) for bad in ("dirty", "commas", "comment", "short", "long")),
    ("short",),
    ("long",),
)


@st.composite
def _csv_text(draw):
    """A CSV text whose body may be clean numbers or carry any of the cases the
    C parse must hand to the row loop."""
    labelled = draw(st.sampled_from([False, False, False, True]))
    header = draw(st.permutations(["pi_star", "mu", "r"] + (["label"] if labelled else [])))
    lines = [",".join(header)]
    for kind in draw(st.lists(st.sampled_from(draw(st.sampled_from(_ROW_KINDS))), max_size=8)):
        cells = [draw(_label) if name == "label" else draw(_clean_cell) for name in header]
        if kind == "blank":
            cells = []
        elif kind == "dirty":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_dirty_cell)
        elif kind == "commas":
            cells = [""] * len(header)
        elif kind == "comment":
            cells[0] = "#" + cells[0]
        elif kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append("0")
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


class TestFastReadMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(text=_csv_text())
    def test_same_arrays_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fast_vs_reference.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(path) == _reference_outcome(path)

    @pytest.mark.parametrize(
        "body",
        [
            "1.5,0.07,0.02\n-0.5,0.03,0.02\n",
            "1.5,0.07,0.02\r\n-0.5,0.03,0.02\r\n",
            " 1.5 ,\t0.07, 0.02\n\n-0.5,0.03,0.02",
        ],
    )
    def test_plain_numbers_take_the_c_parse(self, tmp_path, body):
        assert data_io._parse_fast(io.StringIO(body), 3) is not None
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n" + body)
        assert read_dataset(p).pi_star.tolist() == [1.5, -0.5]

    def test_underscore_digits_fall_back_to_the_row_loop(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1_0,0.05,0.02\n")
        assert data_io._parse_fast(io.StringIO("1_0,0.05,0.02\n"), 3) is None
        assert read_dataset(p).pi_star.tolist() == [10.0]

    def test_non_finite_cell_names_its_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.0,0.05,0.02\n\n1.0,inf,0.02\n")
        with pytest.raises(ValueError, match="row 4: invalid Dataset: mu must be finite"):
            read_dataset(p)

    def test_overflowing_excess_return_fails_alike(self, tmp_path):
        # Finite cells whose difference mu - r overflows: both readers give
        # the Dataset error (warnings fail this suite, so none is emitted).
        p = write(tmp_path / "d.csv", "mu,r,pi_star\n1.7976931348623157e+308,-9.9792015476736e+291,0.0")
        error = "invalid Dataset: e = mu - r must be finite (first bad row 0)"
        assert _read_outcome(p) == _reference_outcome(p) == ("error", error)

    @pytest.mark.parametrize("bad", ["abc,0.05,0.02", "1.0,inf,0.02"])
    @pytest.mark.parametrize("at_end", [True, False])
    def test_long_file_falls_back_from_the_top(self, tmp_path, bad, at_end):
        # 20,000 rows span many reads of the file, so the C parse has consumed
        # part or all of the body before the row loop starts again from the top.
        rng = np.random.default_rng(20_000)
        rows = [f"{x:.17g},{y:.17g},0.02" for x, y in rng.standard_normal((20_000, 2))]
        rows.insert(len(rows) if at_end else 0, bad)
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n" + "\n".join(rows) + "\n")
        outcome = _read_outcome(p)
        assert outcome == _reference_outcome(p)
        assert outcome[0] == "error"
        assert outcome[1].startswith(f"row parse error at row {20_002 if at_end else 2}: ")


class TestRoundTrip:
    def test_awkward_floats_survive(self, tmp_path):
        values = [0.1 + 0.2, 1.0 / 3.0, 1e-300, 1e300, -7.25, 2**-52]
        v = np.array(values)
        labels = [f"row{i}" for i in range(len(values))]
        original = Dataset(pi_star=v, mu=v / 2.0, r=v / 4.0, labels=labels)
        p = tmp_path / "rt.csv"
        write_dataset(original, p)
        back = read_dataset(p)
        # bit-exact through 17 significant digits
        assert back.pi_star.tobytes() == original.pi_star.tobytes()
        assert back.mu.tobytes() == original.mu.tobytes()
        assert back.r.tobytes() == original.r.tobytes()
        assert back.labels == original.labels

    def test_labels_alone_write_the_label_column(self, tmp_path):
        original = Dataset(pi_star=[1.5, 2.5], mu=[0.05, 0.07], r=[0.02, 0.02], labels=("a", "b"))
        p = tmp_path / "rt.csv"
        write_dataset(original, p)
        assert p.read_bytes().startswith(b"label,pi_star,mu,r\r\na,")
        assert read_dataset(p).labels == ("a", "b")

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = [
            (
                float(rng.standard_normal() * 10.0 ** float(rng.integers(-8, 8))),
                float(rng.standard_normal()),
                float(rng.standard_normal()),
            )
            for _ in range(100)
        ]
        pi_star, mu, r = zip(*rows)
        original = Dataset(pi_star=pi_star, mu=mu, r=r)
        p = tmp_path / "rt.csv"
        write_dataset(original, p)
        back = read_dataset(p)
        assert back.pi_star.tolist() == original.pi_star.tolist()
        assert back.labels is None

    def test_constant_and_signed_zero_columns(self, tmp_path):
        # mu and r are constant, so each is formatted once; pi_star mixes
        # 0.0 and -0.0, which compare equal but print differently.
        data = Dataset(pi_star=[0.0, -0.0, 0.0], mu=[0.07] * 3, r=[-0.0] * 3)
        write_dataset(data, tmp_path / "d.csv")
        rows = ["0,0.070000000000000007,-0", "-0,0.070000000000000007,-0", "0,0.070000000000000007,-0"]
        assert (tmp_path / "d.csv").read_bytes() == "\r\n".join(["pi_star,mu,r", *rows, ""]).encode()

    def test_write_read_write_is_stable(self, tmp_path):
        data = generate_synthetic_dataset(
            "model-implied", GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=20, noise=0.01), seed=4
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(data, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def _reference_write(data, path):
    """The dataset CSV as ``csv.writer`` writes it, the reference for write_dataset's bytes."""
    with_label = data.labels is not None
    columns = [[format(v, ".17g") for v in column.tolist()] for column in (data.pi_star, data.mu, data.r)]
    if with_label:
        columns.insert(0, ["" if label is None else label for label in data.labels])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow((["label"] if with_label else []) + ["pi_star", "mu", "r"])
        writer.writerows(zip(*columns))


def _assert_writes_reference_bytes(data, directory):
    path, reference = directory / "written.csv", directory / "reference.csv"
    write_dataset(data, path)
    _reference_write(data, reference)
    assert path.read_bytes() == reference.read_bytes()


_awkward_float = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 0.1, -1.5])
_label_cell = st.one_of(
    st.none(),
    st.sampled_from(["", " ", ",", '"', "\r", "\n", "\r\n", '""', ' a,"b" ']),
    st.text(alphabet=st.sampled_from(',"\r\n ab'), max_size=6),
    st.text(max_size=6),
)


@st.composite
def _datasets(draw):
    """A Dataset with awkward floats, constant columns and, maybe, awkward labels."""
    n = draw(st.integers(0, 12))
    columns = {}
    # mu and r stay below 1e300 in magnitude, so e = mu - r is finite.
    for name, bound in (("pi_star", math.inf), ("mu", 1e300), ("r", 1e300)):
        value = st.one_of(_awkward_float, st.floats(-bound, bound, allow_nan=False, allow_infinity=False))
        columns[name] = [draw(value)] * n if draw(st.booleans()) else draw(st.lists(value, min_size=n, max_size=n))
    # A column of plain labels is written as it is, without a per-label check.
    plain = st.text(alphabet=st.characters(codec="utf-8", exclude_characters=',"\r\n'), max_size=6)
    labels = draw(st.one_of(st.none(), *(st.lists(cell, min_size=n, max_size=n) for cell in (_label_cell, plain))))
    return Dataset(**columns, labels=labels)


_BLOCK = data_io._WRITE_BLOCK


class TestWriteMatchesCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(data=_datasets())
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, data):
        _assert_writes_reference_bytes(data, tmp_path_factory.getbasetemp())

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_row_counts_around_block_boundaries(self, tmp_path, labelled, n):
        rng = np.random.default_rng(n)
        labels = [f"row {i}" if i % 7 else None for i in range(n)] if labelled else None
        data = Dataset(pi_star=rng.standard_normal(n), mu=rng.standard_normal(n), r=np.full(n, 0.02), labels=labels)
        _assert_writes_reference_bytes(data, tmp_path)
        assert len((tmp_path / "written.csv").read_bytes().split(b"\r\n")) == n + 2

    @pytest.mark.parametrize("odd", [None, "", ",", '"', "\r", "\n"])
    def test_one_label_needing_care_in_a_plain_column(self, tmp_path, odd):
        # The column is checked as a whole; one None or quoted label, last in
        # it, puts every label through the per-label path.
        n = 2 * _BLOCK + 3
        labels = [str(i) for i in range(n - 1)] + [odd]
        data = Dataset(pi_star=np.arange(n, dtype=float), mu=np.full(n, 0.05), r=np.full(n, 0.02), labels=labels)
        _assert_writes_reference_bytes(data, tmp_path)

    def test_quoted_labels_round_trip(self, tmp_path):
        labels = ("a,b", 'q"x', "two\nlines")
        original = Dataset(pi_star=[1.0, 2.0, 3.0], mu=[0.05] * 3, r=[0.02] * 3, labels=labels)
        write_dataset(original, tmp_path / "d.csv")
        assert b'"a,b",' in (tmp_path / "d.csv").read_bytes()
        assert read_dataset(tmp_path / "d.csv").labels == labels

    def test_writer_does_not_hold_the_file(self, tmp_path):
        # The 50,001-row structural dataset of the sim-structural benchmark.
        heston = HestonParams(mu=0.08, r=0.02, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=-0.5, sigma_bar=0.04)
        spec = StructuralSpec(
            heston=heston,
            policy=PolicyCoefficients(alpha0=1.0, alpha1=-2.0, alpha2=0.5),
            path=PathConfig(horizon=5.0, dt=1e-4, seed=0),
            x0=1.0,
        )
        data = generate_synthetic_dataset("structural", spec, seed=620)
        assert data.n_rows == 50_001
        path = tmp_path / "structural.csv"
        tracemalloc.start()
        try:
            write_dataset(data, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        # Columns are formatted a block at a time: the peak was 0.27 MB (1.83 MB
        # when the whole pi_star column was turned into Python floats first).
        assert peak < 512 * 1024


def _fitted_pair():
    data = generate_synthetic_dataset(
        "model-implied", GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=50), seed=42
    )
    stage1 = fit_volatility(data)
    gauge = GaugeRule.pin_beta5(stage1.params.beta2)
    stage2 = fit_vol_of_vol(data, stage1.params.beta3, gauge)
    return data, stage1, stage2, gauge


class TestWriteReport:
    def test_stage1_only_schema(self, tmp_path):
        _, stage1, _, _ = _fitted_pair()
        p = tmp_path / "r.txt"
        write_report(p, stage1=stage1)
        text = p.read_text()
        assert "[stage1]" in text
        for key in ("beta1 =", "beta2 =", "beta3 =", "se_beta1 =", "converged = true"):
            assert key in text
        assert "[stage2]" not in text

    def test_identical_inputs_identical_bytes(self, tmp_path):
        _, stage1, stage2, gauge = _fitted_pair()
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        write_report(p1, stage1=stage1, stage2=stage2, gauge=gauge)
        write_report(p2, stage1=stage1, stage2=stage2, gauge=gauge)
        assert p1.read_bytes() == p2.read_bytes()

    def test_gauge_warning_rendered_verbatim(self, tmp_path):
        data, stage1, _, _ = _fitted_pair()
        free = fit_vol_of_vol(data, stage1.params.beta3, GaugeRule.free())
        p = tmp_path / "r.txt"
        write_report(p, stage2=free, gauge=GaugeRule.free())
        assert "GAUGE_UNIDENTIFIED" in p.read_text()

    def test_absent_values_render_null(self, tmp_path):
        data = generate_synthetic_dataset(
            "model-implied", GenerationSpec(stage1=Stage1Params(1.5, 1.5, 0.04), n=50), seed=3
        )
        degenerate = fit_volatility(data)  # no standard errors
        p = tmp_path / "r.txt"
        write_report(p, stage1=degenerate)
        assert "se_beta3 = null" in p.read_text()

    def test_non_finite_numbers_never_appear(self, tmp_path):
        p = tmp_path / "r.txt"
        write_report(p, rho=RhoEstimate(rho_hat=math.inf))
        text = p.read_text()
        assert "inf" not in text
        assert "rho_hat = null" in text

    def test_validation_block(self, tmp_path):
        spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=50, noise=0.01)
        report = monte_carlo_validation(spec, 5, master_seed=0)
        p = tmp_path / "r.txt"
        write_report(p, validation=report)
        text = p.read_text()
        assert "[validation]" in text
        assert "replications = 5" in text
        assert "bias_beta3 =" in text
        assert "truth_beta1 = 2" in text

        # Stage 1 needs 4 rows, so every replication is refused: the truth stays, the statistics are null.
        report = monte_carlo_validation(GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=3), 2, master_seed=0)
        assert report.failures == (("stage1 insufficient data", 2),)
        write_report(p, validation=report)
        lines = p.read_text().splitlines()
        assert ["converged = 0", "failed = 2"] == lines[2:4]
        assert "truth_beta1 = 2" in lines
        assert {"bias_beta1 = null", "bias_beta2 = null", "bias_beta3 = null", "beta3_mean = null"} <= set(lines)
        assert lines[-1] == "stage2_converged = null"


class TestParseConfig:
    def test_minimal_fit_config_applies_defaults(self, tmp_path):
        p = write(tmp_path / "c.cfg", "[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n")
        cfg = parse_config(p)
        assert cfg.mode == "fit"
        assert cfg.input == "d.csv"
        assert cfg.seed == 0
        assert cfg.gauge_variant == "pin-beta5"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n"
        path = write(tmp_path / "c.cfg", text)
        plain = parse_config(path)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert parse_config(path) == plain

    def test_unknown_key_rejected(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = pipeline\noutput = r.txt\ndataset_output = d.csv\n"
            "[generation]\nn = 10\nbeta1 = 2.0\nbeta2 = 0.5\nbetta3 = 0.04\n",
        )
        with pytest.raises(ValueError, match="unknown key: betta3"):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = write(tmp_path / "c.cfg", "[run]\nmode = fit\ninput = a\noutput = b\n[extra]\nx = 1\n")
        with pytest.raises(ValueError, match="unknown section: extra"):
            parse_config(p)

    def test_negative_gamma_is_a_range_error(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = simulate\noutput = d.csv\n"
            "[generation]\nkind = structural\n"
            "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = -0.1\nrho = -0.5\nsigma_bar = 0.04\n"
            "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
            "[path]\nhorizon = 1.0\ndt = 0.01\nx0 = 1.0\n",
        )
        with pytest.raises(ValueError, match="gamma"):
            parse_config(p)

    def test_type_error_names_key(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = simulate\noutput = d.csv\n"
            "[generation]\nn = ten\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n",
        )
        with pytest.raises(ValueError, match=r"type error: \[generation\] n"):
            parse_config(p)

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_unsigned_64_bits_is_a_type_error(self, tmp_path, seed):
        p = write(tmp_path / "c.cfg", f"[run]\nmode = fit\ninput = d.csv\noutput = r.txt\nseed = {seed}\n")
        with pytest.raises(ValueError, match=r"type error: \[run\] seed"):
            parse_config(p)

    def test_largest_seed_accepted(self, tmp_path):
        p = write(tmp_path / "c.cfg", f"[run]\nmode = fit\ninput = d.csv\noutput = r.txt\nseed = {2**64 - 1}\n")
        assert parse_config(p).seed == 2**64 - 1

    def test_missing_required_key_for_mode(self, tmp_path):
        p = write(tmp_path / "c.cfg", "[run]\nmode = fit\noutput = r.txt\n")
        with pytest.raises(ValueError, match="missing required key for mode fit"):
            parse_config(p)

    def test_pipeline_requires_dataset_output(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = pipeline\noutput = r.txt\n"
            "[generation]\nn = 10\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n",
        )
        with pytest.raises(ValueError, match="dataset_output"):
            parse_config(p)

    def test_validate_requires_replications(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = validate\noutput = r.txt\n"
            "[generation]\nn = 10\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n",
        )
        with pytest.raises(ValueError, match="replications"):
            parse_config(p)

    def test_unknown_mode(self, tmp_path):
        p = write(tmp_path / "c.cfg", "[run]\nmode = backtest\noutput = r.txt\n")
        with pytest.raises(ValueError, match="mode"):
            parse_config(p)

    def test_beta3_hat_with_pin_gauge_rejected(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = volvol\ninput = d.csv\noutput = r.txt\nbeta3_hat = 0.04\n",
        )
        with pytest.raises(ValueError, match="gauge"):
            parse_config(p)

    @pytest.mark.parametrize("mode", ["fit", "pipeline"])
    def test_beta3_hat_outside_volvol_rejected(self, tmp_path, mode):
        # fit and pipeline always fit stage 1, so a given beta3_hat would be ignored.
        p = write(
            tmp_path / "c.cfg",
            f"[run]\nmode = {mode}\ninput = d.csv\noutput = r.txt\ndataset_output = d.csv\ngauge = free\n"
            "beta3_hat = 0.04\n[generation]\nn = 10\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n",
        )
        with pytest.raises(ValueError, match=rf"^\[run\] beta3_hat is for mode volvol only, not {mode}$"):
            parse_config(p)

    @pytest.mark.parametrize(
        "config, message",
        [
            ("[run]\nmode = fit\ninput = d.csv\noutput = r.txt\nalpha_ratio = -0.25\n",
             "[run] alpha_ratio is for modes volvol and pipeline only, not fit"),
            ("[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n" + _MODEL_GEN,
             "[generation] is for modes simulate, validate and pipeline only, not fit"),
            ("[run]\nmode = volvol\ninput = d.csv\noutput = r.txt\ndataset_output = o.csv\n",
             "[run] dataset_output is for mode pipeline only, not volvol"),
            ("[run]\nmode = simulate\noutput = d.csv\n" + _MODEL_GEN + "replications = 5\n",
             "[generation] replications is for mode validate only, not simulate"),
            ("[run]\nmode = validate\noutput = r.txt\ngauge = free\n" + _MODEL_GEN + "replications = 5\n",
             "[run] gauge is for modes volvol and pipeline only, not validate"),
            ("[run]\nmode = pipeline\ninput = d.csv\noutput = r.txt\ndataset_output = o.csv\n" + _MODEL_GEN,
             "[run] input is for modes fit and volvol only, not pipeline"),
            ("[run]\nmode = simulate\noutput = d.csv\n" + _STRUCTURAL_GEN.replace("structural\n", "structural\nn = 10\n"),
             "[generation] n is for kind model-implied only, not structural"),
            ("[run]\nmode = simulate\noutput = d.csv\n" + _MODEL_GEN + "[path]\nhorizon = 1.0\ndt = 0.01\nx0 = 1.0\n",
             "[path] is for kind structural only, not model-implied"),
            # Every structural row has one excess return, which stage 1 refuses.
            ("[run]\nmode = validate\noutput = r.txt\n"
             + _STRUCTURAL_GEN.replace("structural\n", "structural\nreplications = 5\n"),
             "[generation] kind = structural is for modes simulate and pipeline only, not validate"),
        ],
        ids=[
            "fit", "fit-generation", "volvol", "simulate", "validate", "pipeline", "structural", "model-implied",
            "validate-structural",
        ],
    )
    def test_key_the_mode_does_not_read_rejected(self, tmp_path, config, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            parse_config(write(tmp_path / "c.cfg", config))

    def test_documented_configs_parse(self, tmp_path):
        # The README's example config and the one demo 06 writes.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(\[run\]\n.*?)```", readme, re.S).group(1)
        cfg = parse_config(write(tmp_path / "readme.cfg", example))
        assert (cfg.mode, cfg.seed, cfg.gauge_variant, cfg.generation.n) == ("pipeline", 11, "pin-beta5", 200)
        demo = (Path(__file__).parents[1] / "demos" / "06_file_pipeline.py").read_text(encoding="utf-8")
        text = re.search(r'f"""\\\n(.*?)"""', demo, re.S).group(1).replace("{workdir / 'report.txt'}", "r.txt")
        text = text.replace("{workdir / 'observations.csv'}", "d.csv")
        assert parse_config(write(tmp_path / "demo.cfg", text)).dataset_output == "d.csv"

    def test_base_rate_key_removed(self, tmp_path):
        # Both fits regress on e = mu - r, so the generated risk-free rate is not settable.
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = simulate\noutput = d.csv\n"
            "[generation]\nn = 10\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\nbase_rate = 0.03\n",
        )
        with pytest.raises(ValueError, match="^unknown key: base_rate$"):
            parse_config(p)

    def test_structural_generation_parsed(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = simulate\noutput = d.csv\nseed = 9\n"
            "[generation]\nkind = structural\n"
            "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = 0.3\nrho = -0.5\nsigma_bar = 0.04\n"
            "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
            "[path]\nhorizon = 1.0\ndt = 0.004\nx0 = 1.0\n",
        )
        cfg = parse_config(p)
        assert isinstance(cfg.generation, StructuralSpec)
        assert cfg.generation.heston.sigma_bar == 0.04
        assert cfg.seed == 9

    @pytest.mark.parametrize("key", ["g_tol", "lambda0", "lambda_factor", "lambda_max", "max_iterations", "x_tol"])
    def test_removed_solver_keys_are_unknown(self, tmp_path, key):
        # The solvers' iteration controls are constants: no [solver] key is settable.
        p = write(tmp_path / "c.cfg", f"[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n[solver]\n{key} = 1e-8\n")
        with pytest.raises(ValueError, match="^unknown section: solver$"):
            parse_config(p)

    def test_comments_allowed(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "# experiment 12\n[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n",
        )
        assert parse_config(p).mode == "fit"


_VOLVOL = "[run]\nmode = volvol\ninput = d.csv\noutput = r.txt\n"


class TestRarelyTakenRefusals:
    """Refusals of ``parse_config`` and ``read_dataset`` that no other test takes, with their exact messages.

    ``{path}`` in a message is the file read.
    """

    CASES = {
        "run-mode-missing": ("c.cfg", "[run]\noutput = r.txt\n", "missing required key: [run] mode"),
        "run-output-missing": (
            "c.cfg", "[run]\nmode = fit\ninput = d.csv\n", "missing required key for mode fit: [run] output",
        ),
        "gauge-unknown": (
            "c.cfg", _VOLVOL + "gauge = pin\n",
            "type error: [run] gauge must be free, pin-beta5 or pin-beta6; got 'pin'",
        ),
        "kind-unknown": (
            "c.cfg", "[run]\nmode = simulate\noutput = d.csv\n[generation]\nkind = bootstrap\n",
            "type error: [generation] kind must be model-implied or structural, got 'bootstrap'",
        ),
        "generation-missing": (
            "c.cfg", "[run]\nmode = simulate\noutput = d.csv\n",
            "missing required section for mode simulate: [generation]",
        ),
        "heston-missing": (
            "c.cfg", "[run]\nmode = simulate\noutput = d.csv\n" + re.sub(r"\[heston\][^[]*", "", _STRUCTURAL_GEN),
            "missing required section for structural generation: [heston]",
        ),
        "n-missing": (
            "c.cfg", "[run]\nmode = simulate\noutput = d.csv\n" + _MODEL_GEN.replace("n = 10\n", ""),
            "missing required key: [generation] n",
        ),
        "one-replication": (
            "c.cfg", "[run]\nmode = validate\noutput = r.txt\n" + _MODEL_GEN + "replications = 1\n",
            "type error: [generation] replications must be >= 2",
        ),
        "beta3-hat-zero": (
            "c.cfg", _VOLVOL + "gauge = free\nbeta3_hat = 0\n", "type error: [run] beta3_hat must be > 0",
        ),
        "alpha-ratio-zero": ("c.cfg", _VOLVOL + "alpha_ratio = 0\n", "type error: [run] alpha_ratio must be nonzero"),
        "beta3-hat-and-alpha-ratio": (
            "c.cfg", _VOLVOL + "gauge = free\nbeta3_hat = 0.04\nalpha_ratio = -0.25\n",
            "rho estimation needs the stage-1 beta2; drop beta3_hat or alpha_ratio",
        ),
        "syntax-error": (
            "c.cfg", "[run]\nmode = fit\nmode = volvol\n",
            "config syntax error in {path}: While reading from '{path}' [line  3]: "
            "option 'mode' in section 'run' already exists",
        ),
        "csv-duplicate-column": ("d.csv", "pi_star,mu,r,mu\n1,2,3,4\n", "duplicate column in header of {path}"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exact_message(self, tmp_path, case):
        name, text, message = self.CASES[case]
        path = write(tmp_path / name, text)
        with pytest.raises(ValueError) as raised:
            (read_dataset if name.endswith(".csv") else parse_config)(path)
        assert str(raised.value) == message.format(path=path)
