"""CSV, report, and config serialization: strictness and round-trips."""

import contextlib
import csv
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portvol import (
    Dataset,
    FitResult,
    GaugeRule,
    GenerationSpec,
    HestonParams,
    PolicyCoefficients,
    RhoEstimate,
    Stage1Params,
    Stage2Params,
    StructuralSpec,
    ValidationReport,
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
        # Spreadsheet exports lead with a UTF-8 byte-order mark.  numpy's C
        # reader opens the label-free file again by name, decoding it as
        # the header was, and skips it too.
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

    @pytest.mark.parametrize("content", ["", "pi_star,mu,r\n", "pi_star,mu,r\n\r\n\n", 'pi_star,mu,r\n \n"\n",,\t\n'])
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
        # The body is read in chunks or record by record: the peak was 3.3 MB
        # label-free and 11.1 MB labelled (13.2 and 21.7 MB when the body was
        # read into one string and copied into a StringIO).
        assert peak < factor * path.stat().st_size

    # A cell past the csv module's field size limit (131072 characters) is
    # an error naming the line the reader reached, wherever the cell is.
    @pytest.mark.parametrize(
        ("text", "line"),
        [
            ("pi_star,mu,{long}\n1.0,0.05,0.02\n", 1),
            ("pi_star,mu,r\n{long},0.05,0.02\n", 2),
            ("pi_star,mu,r\n1.0,0.05,0.02\n{long},0.06,0.02\n", 3),
            ("label,pi_star,mu,r\na,1.0,0.05,0.02\n{long},1.0,0.06,0.02\n", 3),
        ],
        ids=["header", "label-free-first-row", "label-free-later-row", "labelled"],
    )
    def test_cell_past_the_field_limit_is_an_error(self, tmp_path, text, line):
        p = write(tmp_path / "d.csv", text.format(long="1" * 131_073))
        with pytest.raises(ValueError) as raised:
            read_dataset(p)
        assert str(raised.value) == f"CSV error at line {line}: field larger than field limit (131072)"

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
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n" + body)
        assert data_io._parse_fast(str(p), 1, 3) is not None
        assert read_dataset(p).pi_star.tolist() == [1.5, -0.5]

    def test_underscore_digits_fall_back_to_the_row_loop(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1_0,0.05,0.02\n")
        assert data_io._parse_fast(str(p), 1, 3) is None
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
        # part or all of the body, through its own handle, before the row loop
        # starts on the first record after the header.
        rng = np.random.default_rng(20_000)
        rows = [f"{x:.17g},{y:.17g},0.02" for x, y in rng.standard_normal((20_000, 2))]
        rows.insert(len(rows) if at_end else 0, bad)
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n" + "\n".join(rows) + "\n")
        outcome = _read_outcome(p)
        assert outcome == _reference_outcome(p)
        assert outcome[0] == "error"
        assert outcome[1].startswith(f"row parse error at row {20_002 if at_end else 2}: ")

    @pytest.mark.parametrize(
        "text",
        [
            "pi_star,mu,r\n1.5,0.07,0.02\n-0.5,0.03,0.02\n",
            "\ufeffr,mu,pi_star\r\n\r\n \r\n0.02,0.07,1.5\r\n0.02,0.03,-0.5\r\n",
            '"pi_star\n",mu,r\r1.5,0.07,0.02\r\r-0.5,0.03,0.02',
        ],
        ids=["lf", "bom-crlf-blank-lead", "two-line-header-cr"],
    )
    def test_plain_regular_file_never_enters_the_row_loop(self, tmp_path, text):
        # numpy skips the header's lines and any blank records before the first
        # number, counting lines as the csv reader does, so a header cell
        # spanning two lines costs nothing.
        p = write(tmp_path / "d.csv", text)
        with mock.patch.object(data_io, "_parse_rows", side_effect=AssertionError("row loop entered")):
            outcome = _read_outcome(p)
        assert outcome == _reference_outcome(p)
        assert np.frombuffer(outcome[1]).tolist() == [1.5, -0.5]

    @pytest.mark.parametrize(
        ("text", "error"),
        [
            ('"pi_star\n",mu,r\n\n1.0,x,0.02\n', "row parse error at row 3: field mu is not a number: 'x'"),
            ('"pi_star\n",mu,"label\r\n",r\n\n1.0,x,a,0.02\n', "row parse error at row 3: field mu is not a number: 'x'"),
            ('pi_star,"m\nu",r\n1.0,0.05,0.02\n', "unknown column: m\nu"),
        ],
        ids=["c-parse-gives-up", "labelled", "unknown-column"],
    )
    def test_header_spanning_lines_matches_the_row_loop(self, tmp_path, text, error):
        # Rows count records, not lines, after the records the C route read past.
        p = write(tmp_path / "d.csv", text)
        assert _read_outcome(p) == _reference_outcome(p) == ("error", error)

    def test_file_descriptor_is_read_by_the_row_loop(self, tmp_path):
        # A descriptor has no name for numpy to open.
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.5,0.07,0.02\n")
        assert read_dataset(os.open(p, os.O_RDONLY)).pi_star.tolist() == [1.5]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_looking_name_is_read_as_text(self, tmp_path, suffix):
        # numpy opens these names through a decompressor, so the C parse leaves them alone.
        text = "pi_star,mu,r\n1.5,0.07,0.02\n-0.5,0.03,0.02\n"
        p = write(tmp_path / f"d.csv{suffix}", text)
        assert _read_outcome(p) == _reference_outcome(p) == _read_outcome(write(tmp_path / "d.csv", text))

    def test_file_replaced_under_its_name_is_read_from_the_open_one(self, tmp_path, monkeypatch):
        # numpy opens the file again by name; if that name now leads to another
        # file, the row loop reads the one whose header was read.
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.5,0.07,0.02\n")
        other = write(tmp_path / "other.csv", "pi_star,mu,r\n9.0,0.07,0.02\n")
        parse_fast = data_io._parse_fast

        def replace_then_parse(path, *args):
            os.replace(other, p)
            return parse_fast(path, *args)

        monkeypatch.setattr(data_io, "_parse_fast", replace_then_parse)
        assert read_dataset(p).pi_star.tolist() == [1.5]


def _fifo_outcome(path, text):
    """``_read_outcome`` of a FIFO at ``path`` that a thread feeds ``text``; None if the read blocks."""
    os.mkfifo(path)
    outcome = []

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as pipe:
            pipe.write(text.encode("utf-8"))

    def read():
        try:
            outcome.append(_read_outcome(path))
        except Exception as exc:  # an error that is not the outcome of a bad file, e.g. a seek on the pipe
            outcome.append(("raised", repr(exc)))

    threads = [threading.Thread(target=feed, daemon=True), threading.Thread(target=read, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    if any(thread.is_alive() for thread in threads):
        # A read-write descriptor is a reader and a writer, so a thread blocked
        # opening the FIFO, at either end, gets its partner and finishes.
        os.close(os.open(path, os.O_RDWR | os.O_NONBLOCK))
        return None
    return outcome[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
class TestPipes:
    """A pipe is read once, through the row loop: the C parse would open it again, and it cannot seek."""

    @pytest.mark.parametrize("kind", ["plain", "labelled", "malformed"])
    def test_fifo_reads_as_the_regular_file(self, tmp_path, kind):
        rng = np.random.default_rng(20)
        labels = [f"t{i}" for i in range(20)] if kind == "labelled" else None
        data = Dataset(pi_star=rng.standard_normal(20), mu=np.full(20, 0.05), r=np.full(20, 0.02), labels=labels)
        regular = tmp_path / "d.csv"
        write_dataset(data, regular)
        text = regular.read_bytes().decode("utf-8")
        if kind == "malformed":
            lines = text.split("\r\n")
            lines[5] = "abc" + lines[5][lines[5].index(","):]
            text = "\r\n".join(lines)
            regular.write_bytes(text.encode("utf-8"))
        outcome = _fifo_outcome(tmp_path / "fifo.csv", text)
        assert outcome is not None, "the read blocked"
        assert outcome == _read_outcome(regular)
        if kind == "malformed":
            assert outcome == ("error", "row parse error at row 6: field pi_star is not a number: 'abc'")


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
            horizon=5.0,
            dt=1e-4,
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
    gauge = GaugeRule.from_stage1("pin-beta5", stage1)
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
        free = fit_vol_of_vol(data, stage1.params.beta3, GaugeRule("free"))
        p = tmp_path / "r.txt"
        write_report(p, stage2=free, gauge=GaugeRule("free"))
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


_NULL_REPORTS = {
    # No gauge, a stage 1 with no message and no standard errors, and a rho at infinity:
    # each is flagged, from its standard errors and from rho_hat.
    "fits": (
        lambda: {
            "stage1": FitResult(Stage1Params(2.0, 0.5, 0.04), 0.25, 0, False),
            "stage2": FitResult(
                Stage2Params(1.5, 1.0, -2.0), 0.0, 7, True, (0.125, 0.0, 3.0),
                {"ILL_CONDITIONED", "GAUGE_UNIDENTIFIED"}, "gradient tolerance reached",
            ),
            "rho": RhoEstimate(math.inf),
        },
        "[stage1]\nbeta1 = 2\nbeta2 = 0.5\nbeta3 = 0.040000000000000001\n"
        "se_beta1 = null\nse_beta2 = null\nse_beta3 = null\n"
        "residual_norm = 0.25\niterations = 0\nconverged = false\nmessage = null\n\n"
        "[stage2]\nbeta4 = 1.5\nbeta5 = 1\nbeta6 = -2\nse_beta4 = 0.125\nse_beta5 = 0\nse_beta6 = 3\n"
        "residual_norm = 0\niterations = 7\nconverged = true\nmessage = gradient tolerance reached\n"
        "gamma_hat = 1.5\ngauge = null\ngauge_pin_value = null\n\n"
        "[rho]\nrho_hat = null\nin_range = false\n\n"
        "[diagnostics]\nstage1 = DEGENERATE_COVARIANCE\nstage2 = GAUGE_UNIDENTIFIED,ILL_CONDITIONED\n"
        "rho = RHO_OUT_OF_RANGE\n",
    ),
    # Every replication refused: the truth stays, the statistics are null.
    "validation": (
        lambda: {
            "validation": ValidationReport(2, Stage1Params(2.0, 0.5, 0.04), 0, None, None, None, 0, None),
        },
        "[validation]\nreplications = 2\nconverged = 0\nfailed = 2\nconvergence_rate = 0\n"
        "truth_beta1 = 2\nbias_beta1 = null\nrmse_beta1 = null\ncoverage_beta1 = null\n"
        "truth_beta2 = 0.5\nbias_beta2 = null\nrmse_beta2 = null\ncoverage_beta2 = null\n"
        "truth_beta3 = 0.040000000000000001\nbias_beta3 = null\nrmse_beta3 = null\ncoverage_beta3 = null\n"
        "coverage_evaluated = 0\nbeta3_mean = null\nstage2_gamma_mean = null\nstage2_converged = null\n",
    ),
    "no-sections": (dict, ""),
    # A rho_hat from numpy arithmetic: in_range is written as a bool all the same.
    "numpy-rho": (
        lambda: {"rho": RhoEstimate(np.float64(0.5))},
        "[rho]\nrho_hat = 0.5\nin_range = true\n\n[diagnostics]\nrho = none\n",
    ),
}


class TestReportBytes:
    """Reports that take every ``null`` branch, and a numpy ``rho_hat``, in exact bytes."""

    @pytest.mark.parametrize("case", _NULL_REPORTS)
    def test_exact_bytes(self, tmp_path, case):
        sections, text = _NULL_REPORTS[case]
        path = tmp_path / "r.txt"
        write_report(path, **sections())
        assert path.read_bytes() == text.encode("utf-8")


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


_MODEL = {"n": "10", "beta1": "2.0", "beta2": "0.5", "beta3": "0.04"}
_HESTON = {
    "mu": "0.08", "r": "0.02", "alpha": "0.08", "beta_rev": "2.0", "gamma": "0.3", "rho": "-0.5", "sigma_bar": "0.04",
}
_POLICY = {"alpha0": "1.0", "alpha1": "-2.0", "alpha2": "0.5"}
_PATH = {"horizon": "1.0", "dt": "0.01", "x0": "1.0"}
_STRUCTURAL = {"generation": {"kind": "structural"}, "heston": _HESTON, "policy": _POLICY, "path": _PATH}

# The smallest valid config of each mode, and of each generation kind a mode takes.
_BASES = {
    "simulate": {"run": {"mode": "simulate", "output": "d.csv"}, "generation": _MODEL},
    "simulate-structural": {"run": {"mode": "simulate", "output": "d.csv"}, **_STRUCTURAL},
    "fit": {"run": {"mode": "fit", "input": "d.csv", "output": "r.txt"}},
    "volvol": {"run": {"mode": "volvol", "input": "d.csv", "output": "r.txt"}},
    "validate": {"run": {"mode": "validate", "output": "r.txt"}, "generation": {**_MODEL, "replications": "5"}},
    "pipeline": {"run": {"mode": "pipeline", "output": "r.txt", "dataset_output": "o.csv"}, "generation": _MODEL},
    "pipeline-structural": {"run": {"mode": "pipeline", "output": "r.txt", "dataset_output": "o.csv"}, **_STRUCTURAL},
}
_NOT_GENERATING = "[generation] is for modes simulate, validate and pipeline only, not {mode}"
_NOT_STRUCTURAL = "missing required section for structural generation: [heston]"

# Each part of a config: what it adds to a base, and the outcome at each
# base that refuses it ("{mode}" is the base's mode); the other bases accept it.
_PARTS = {
    "[run] beta3_hat": ({"run": {"beta3_hat": "0.04"}}, {
        **dict.fromkeys(_BASES, "[run] beta3_hat is for mode volvol only, not {mode}"),
        "volvol": "pin gauges take their pin value from a stage-1 fit; with beta3_hat given, use gauge = free",
    }),
    "[run] alpha_ratio": ({"run": {"alpha_ratio": "-0.25"}}, dict.fromkeys(
        ("simulate", "simulate-structural", "fit", "validate"),
        "[run] alpha_ratio is for modes volvol and pipeline only, not {mode}",
    )),
    "[run] gauge": ({"run": {"gauge": "free"}}, dict.fromkeys(
        ("simulate", "simulate-structural", "fit", "validate"),
        "[run] gauge is for modes volvol and pipeline only, not {mode}",
    )),
    "[run] input": ({"run": {"input": "d.csv"}}, dict.fromkeys(
        ("simulate", "simulate-structural", "validate", "pipeline", "pipeline-structural"),
        "[run] input is for modes fit and volvol only, not {mode}",
    )),
    "[run] dataset_output": ({"run": {"dataset_output": "o.csv"}}, dict.fromkeys(
        ("simulate", "simulate-structural", "fit", "volvol", "validate"),
        "[run] dataset_output is for mode pipeline only, not {mode}",
    )),
    "[generation]": ({"generation": _MODEL}, {
        **dict.fromkeys(("fit", "volvol"), _NOT_GENERATING),
        **dict.fromkeys(
            ("simulate-structural", "pipeline-structural"),
            "[generation] n is for kind model-implied only, not structural",
        ),
    }),
    **{
        f"[{section}]": ({section: keys}, {
            **dict.fromkeys(
                ("fit", "volvol"), f"[{section}] is for modes simulate, validate and pipeline only, not {{mode}}"
            ),
            **dict.fromkeys(
                ("simulate", "validate", "pipeline"), f"[{section}] is for kind structural only, not model-implied"
            ),
        })
        for section, keys in (("heston", _HESTON), ("policy", _POLICY), ("path", _PATH))
    },
    "[generation] replications": ({"generation": {"replications": "5"}}, {
        **dict.fromkeys(("fit", "volvol"), _NOT_GENERATING),
        **dict.fromkeys(
            ("simulate", "simulate-structural", "pipeline", "pipeline-structural"),
            "[generation] replications is for mode validate only, not {mode}",
        ),
    }),
    "[generation] kind = structural": ({"generation": {"kind": "structural"}}, {
        **dict.fromkeys(("fit", "volvol"), _NOT_GENERATING),
        **dict.fromkeys(("simulate", "validate", "pipeline"), _NOT_STRUCTURAL),
    }),
    **{
        f"[generation] {key}": ({"generation": {key: value}}, {
            **dict.fromkeys(("fit", "volvol"), _NOT_GENERATING),
            **dict.fromkeys(
                ("simulate-structural", "pipeline-structural"),
                f"[generation] {key} is for kind model-implied only, not structural",
            ),
        })
        for key, value in (
            ("n", "10"), ("noise", "0.01"), ("e_min", "0.01"), ("e_max", "0.1"),
            ("beta1", "2.0"), ("beta2", "0.5"), ("beta3", "0.04"),
        )
    },
}

def _config_text(base: dict, part: dict) -> str:
    """A config's text: ``base`` with the keys of ``part`` added, section by section."""
    sections = {section: dict(keys) for section, keys in base.items()}
    for section, keys in part.items():
        sections.setdefault(section, {}).update(keys)
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for s, keys in sections.items())


# Configs with more than one fault, each with the fault reported first.
_FIRST_FAULT = {
    # kind is read before replications, and replications before the spec's keys.
    "bad-kind-bad-replications": (
        "[run]\nmode = validate\noutput = r.txt\n[generation]\nkind = bootstrap\nreplications = x\n",
        "type error: [generation] kind must be model-implied or structural, got 'bootstrap'",
    ),
    "bad-replications-missing-n": (
        "[run]\nmode = validate\noutput = r.txt\n[generation]\nbeta1 = 2.0\nreplications = x\n",
        "type error: [generation] replications expects an integer, got 'x'",
    ),
    "one-replication-structural": (
        "[run]\nmode = validate\noutput = r.txt\n"
        + _STRUCTURAL_GEN.replace("structural\n", "structural\nreplications = 1\n"),
        "type error: [generation] replications must be >= 2",
    ),
    # A missing required key comes before a key the mode does not read.
    "unread-key-missing-input": (
        "[run]\nmode = fit\noutput = r.txt\nalpha_ratio = -0.25\n", "missing required key for mode fit: [run] input",
    ),
    "unread-section-missing-dataset-output": (
        "[run]\nmode = pipeline\noutput = r.txt\n" + _MODEL_GEN + "[heston]\nmu = 0.08\n",
        "missing required key for mode pipeline: [run] dataset_output",
    ),
    "unread-section-missing-n": (
        "[run]\nmode = simulate\noutput = d.csv\n" + _MODEL_GEN.replace("n = 10\n", "") + "[path]\nx0 = 1.0\n",
        "missing required key: [generation] n",
    ),
    # Unknown keys and sections come before everything else, a missing mode included.
    "unknown-key-no-mode": ("[run]\noutput = r.txt\nfoo = 1\n", "unknown key: foo"),
    "unknown-section-no-mode": ("[run]\noutput = r.txt\n[extra]\n", "unknown section: extra"),
    # A key the mode does not read comes before a bad value of it.
    "unread-key-bad-value": (
        "[run]\nmode = fit\ninput = d.csv\noutput = r.txt\nbeta3_hat = 0\n",
        "[run] beta3_hat is for mode volvol only, not fit",
    ),
    # The seed is checked before the mode's required keys.
    "bad-seed-missing-input": (
        "[run]\nmode = fit\noutput = r.txt\nseed = -1\n", "type error: [run] seed must be in [0, 2**64), got -1",
    ),
    "missing-output-missing-input": ("[run]\nmode = volvol\n", "missing required key for mode volvol: [run] output"),
    # Every [path] number is read before the structural spec checks the grid, as in [heston] and [policy].
    "bad-horizon-missing-x0": (
        "[run]\nmode = simulate\noutput = d.csv\n"
        + _STRUCTURAL_GEN.replace("horizon = 1.0", "horizon = -1.0").replace("x0 = 1.0\n", ""),
        "missing required key: [path] x0",
    ),
    "bad-horizon": (
        "[run]\nmode = simulate\noutput = d.csv\n" + _STRUCTURAL_GEN.replace("horizon = 1.0", "horizon = -1.0"),
        "horizon must be finite and > 0",
    ),
    "overflowing-step-count-missing-x0": (
        "[run]\nmode = simulate\noutput = d.csv\n"
        + _STRUCTURAL_GEN.replace("horizon = 1.0\ndt = 0.01", "horizon = 1e300\ndt = 1e-300").replace("x0 = 1.0\n", ""),
        "missing required key: [path] x0",
    ),
    "overflowing-step-count": (
        "[run]\nmode = simulate\noutput = d.csv\n"
        + _STRUCTURAL_GEN.replace("horizon = 1.0\ndt = 0.01", "horizon = 1e300\ndt = 1e-300"),
        "dt is too small: the step count horizon / dt overflows",
    ),
    # Each base without the key its mode requires.
    **{
        f"{mode}-missing-{key}": (
            _config_text({**_BASES[mode], section: {k: v for k, v in _BASES[mode][section].items() if k != key}}, {}),
            f"missing required key for mode {mode}: [{section}] {key}",
        )
        for mode, section, key in (
            ("fit", "run", "input"), ("volvol", "run", "input"),
            ("pipeline", "run", "dataset_output"), ("validate", "generation", "replications"),
        )
    },
}


_READER_CASES = {
    **{
        f"{base}+{part}": (
            _config_text(_BASES[base], added),
            refusals[base].format(mode=_BASES[base]["run"]["mode"]) if base in refusals else None,
        )
        for part, (added, refusals) in _PARTS.items()
        for base in _BASES
    },
    **_FIRST_FAULT,
}


class TestReaders:
    """Which mode and generation kind read each part of a config, and which fault of several is reported."""

    @pytest.mark.parametrize("case", _READER_CASES)
    def test_exact_outcome(self, tmp_path, case):
        text, message = _READER_CASES[case]
        path = write(tmp_path / "c.cfg", text)
        if message is None:
            parse_config(path)
            return
        with pytest.raises(ValueError) as raised:
            parse_config(path)
        assert str(raised.value) == message
