"""CSV, report, and config serialization: strictness and round-trips."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portvol import (
    Dataset,
    GaugeRule,
    GenerationSpec,
    MarketObservation,
    RhoEstimate,
    SolverOptions,
    Stage1Params,
    StructuralSpec,
    data_io,
    fit_vol_of_vol,
    fit_volatility,
    generate_synthetic_dataset,
    monte_carlo_validation,
    parse_config,
    read_dataset,
    volatility_scale_comparison,
    write_dataset,
    write_report,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestReadDataset:
    def test_basic_file_with_labels(self, tmp_path):
        p = write(
            tmp_path / "d.csv",
            "label,pi_star,mu,r\nt0,1.5,0.07,0.02\nt1,-0.5,0.03,0.02\nt2,2.0,0.08,0.02\n",
        )
        data = read_dataset(p)
        assert data.n_rows == 3
        assert data.mode == "time-series"
        assert data.observations[0].label == "t0"
        assert data.observations[1].pi_star == -0.5

    def test_label_column_optional(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.0,0.05,0.02\n")
        data = read_dataset(p)
        assert data.mode == "cross-section"
        assert data.observations[0].label is None

    def test_column_order_free(self, tmp_path):
        p = write(tmp_path / "d.csv", "r,mu,pi_star\n0.02,0.05,1.25\n")
        assert read_dataset(p).observations[0].pi_star == 1.25

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


def _read_outcome(path):
    try:
        data = read_dataset(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("data", data.pi_star.tobytes(), data.mu.tobytes(), data.r.tobytes(), data.labels, data.mode)


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
    newline = draw(st.sampled_from(["\n", "\r\n"]))
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
        assert data_io._parse_fast(body, 3) is not None
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n" + body)
        assert read_dataset(p).pi_star.tolist() == [1.5, -0.5]

    def test_underscore_digits_fall_back_to_the_row_loop(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1_0,0.05,0.02\n")
        assert data_io._parse_fast("1_0,0.05,0.02\n", 3) is None
        assert read_dataset(p).pi_star.tolist() == [10.0]

    def test_non_finite_cell_names_its_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "pi_star,mu,r\n1.0,0.05,0.02\n\n1.0,inf,0.02\n")
        with pytest.raises(ValueError, match="row 4: invalid MarketObservation: mu must be finite"):
            read_dataset(p)


class TestRoundTrip:
    def test_awkward_floats_survive(self, tmp_path):
        values = [0.1 + 0.2, 1.0 / 3.0, 1e-300, 1e300, -7.25, 2**-52]
        obs = tuple(
            MarketObservation(pi_star=v, mu=v / 2.0, r=v / 4.0, label=f"row{i}")
            for i, v in enumerate(values)
        )
        original = Dataset(observations=obs, mode="time-series")
        p = tmp_path / "rt.csv"
        write_dataset(original, p)
        back = read_dataset(p)
        for a, b in zip(original.observations, back.observations):
            assert a.pi_star == b.pi_star  # bit-exact through 17 significant digits
            assert a.mu == b.mu
            assert a.r == b.r
            assert a.label == b.label

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(12)
        obs = tuple(
            MarketObservation(
                pi_star=float(rng.standard_normal() * 10.0 ** float(rng.integers(-8, 8))),
                mu=float(rng.standard_normal()),
                r=float(rng.standard_normal()),
            )
            for _ in range(100)
        )
        original = Dataset(observations=obs)
        p = tmp_path / "rt.csv"
        write_dataset(original, p)
        back = read_dataset(p)
        assert [o.pi_star for o in back.observations] == [o.pi_star for o in original.observations]
        assert back.mode == original.mode

    def test_write_read_write_is_stable(self, tmp_path):
        data = generate_synthetic_dataset(
            "model-implied", GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=20, noise=0.01), seed=4
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(data, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


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

    def test_volatility_scale_block(self, tmp_path):
        p = tmp_path / "r.txt"
        write_report(p, scale=volatility_scale_comparison(0.05, 0.04))
        text = p.read_text()
        assert "[volatility_scale]" in text
        assert "sqrt_sigma_bar =" in text
        assert "closer_to = variance" in text

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


class TestParseConfig:
    def test_minimal_fit_config_applies_solver_defaults(self, tmp_path):
        p = write(tmp_path / "c.cfg", "[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n")
        cfg = parse_config(p)
        assert cfg.mode == "fit"
        assert cfg.input == "d.csv"
        assert cfg.solver == SolverOptions()
        assert cfg.seed == 0
        assert cfg.gauge_variant == "pin-beta5"

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

    def test_solver_overrides(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n[solver]\nmax_iterations = 50\ng_tol = 1e-8\n",
        )
        cfg = parse_config(p)
        assert cfg.solver.max_iterations == 50
        assert cfg.solver.g_tol == 1e-8
        assert cfg.solver.x_tol == SolverOptions().x_tol

    def test_comments_allowed(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            "# experiment 12\n[run]\nmode = fit\ninput = d.csv\noutput = r.txt\n",
        )
        assert parse_config(p).mode == "fit"
