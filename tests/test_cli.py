"""Exit-code contract, summaries, and file outputs of the command line."""

import hashlib
import re

import pytest

from portvol.cli import _build_parser, run_cli
from portvol import GenerationSpec, Stage1Params, generate_synthetic_dataset, write_dataset

NOISELESS_GEN = "[generation]\nn = 50\nnoise = 0.0\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n"


def make_dataset_csv(path, n=50, noise=0.0, seed=42, truth=Stage1Params(2.0, 0.5, 0.04)):
    data = generate_synthetic_dataset(
        "model-implied", GenerationSpec(stage1=truth, n=n, noise=noise), seed=seed
    )
    write_dataset(data, path)
    return path


def fit_config(tmp_path, **extra):
    data = make_dataset_csv(tmp_path / "d.csv")
    lines = [
        "[run]",
        "mode = fit",
        f"input = {data}",
        f"output = {tmp_path / 'report.txt'}",
    ] + [f"{k} = {v}" for k, v in extra.items()]
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg


class TestUsageErrors:
    def test_unknown_subcommand_exits_1_with_help_on_stderr(self, capsys):
        assert run_cli(["fitt", "--config", "x.cfg"]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert captured.out == ""

    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli(["fit", "--confg", "x.cfg"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_flag_exits_1(self, capsys):
        assert run_cli(["fit"]) == 1
        assert "--config is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--confg", "x.cfg"], "unrecognized arguments: --confg x.cfg"),
            ([], "a subcommand is required"),
            (["fit"], "--config is required"),
            (["fit", "--config", "{config}", "--seed", str(2**64)], "--seed must be in [0, 2**64)"),
        ],
        ids=["bad-argument", "no-subcommand", "no-config", "seed-out-of-range"],
    )
    def test_exact_stderr(self, argv, message, tmp_path, capsys):
        # Every usage error prints its message and then the help on stderr, nothing on stdout, and exits 1.
        argv = [str(fit_config(tmp_path)) if a == "{config}" else a for a in argv]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n" + _build_parser().format_help()
        assert captured.out == ""

    def test_help_exits_0_on_stdout(self, capsys):
        assert run_cli(["help"]) == 0
        captured = capsys.readouterr()
        assert "usage" in captured.out
        assert captured.err == ""


class TestDataErrors:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run_cli(["fit", "--config", str(tmp_path / "none.cfg")]) == 2
        assert "config stage" in capsys.readouterr().err

    def test_missing_input_csv_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"[run]\nmode = fit\ninput = {tmp_path/'nope.csv'}\noutput = {tmp_path/'r.txt'}\n"
        )
        assert run_cli(["fit", "--config", str(cfg)]) == 2
        assert "read stage" in capsys.readouterr().err

    def test_mode_subcommand_mismatch_exits_2(self, tmp_path, capsys):
        cfg = fit_config(tmp_path)
        assert run_cli(["volvol", "--config", str(cfg)]) == 2
        assert "config stage" in capsys.readouterr().err

    def test_zero_position_volvol_exits_2_naming_stage(self, tmp_path, capsys):
        csv = tmp_path / "z.csv"
        csv.write_text("pi_star,mu,r\n1.0,0.05,0.02\n0.0,0.06,0.02\n1.2,0.07,0.02\n1.3,0.08,0.02\n")
        cfg = tmp_path / "c.cfg"
        # Stage 1 refuses these four rows (log(beta3/max|e|) ends near 8), so stage 2
        # gets a given beta3_hat under the free gauge.
        cfg.write_text(
            f"[run]\nmode = volvol\ninput = {csv}\noutput = {tmp_path/'r.txt'}\nbeta3_hat = 0.04\ngauge = free\n"
        )
        assert run_cli(["volvol", "--config", str(cfg)]) == 2
        assert "stage2 fit stage" in capsys.readouterr().err

    @pytest.mark.parametrize("clean_rows", [0, 5000])
    def test_bytes_that_are_not_utf8_are_a_read_error(self, tmp_path, capsys, clean_rows):
        row = b"1.0,0.05,0.02\n"
        csv = tmp_path / "b.csv"
        csv.write_bytes(b"pi_star,mu,r\n" + row * clean_rows + b"\xff" + row * 3)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[run]\nmode = fit\ninput = {csv}\noutput = {tmp_path/'r.txt'}\n")
        assert run_cli(["fit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error in read stage: 'utf-8' codec can't decode byte 0xff")

    def test_overflowing_excess_return_is_a_read_error(self, tmp_path, capsys):
        csv = tmp_path / "o.csv"
        csv.write_text("pi_star,mu,r\n1.0,0.05,0.02\n0.0,1.7976931348623157e+308,-1e300\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[run]\nmode = fit\ninput = {csv}\noutput = {tmp_path/'r.txt'}\n")
        assert run_cli(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error in read stage: invalid Dataset: e = mu - r must be finite (first bad row 1)\n"


class TestFit:
    def test_happy_path(self, tmp_path, capsys):
        cfg = fit_config(tmp_path)
        assert run_cli(["fit", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "report.txt").exists()
        match = re.search(r"stage1 beta3_hat = ([0-9.eE+-]+)", out)
        assert match is not None
        assert float(match.group(1)) == pytest.approx(0.04, rel=1e-6)

    def test_output_override_wins(self, tmp_path):
        cfg = fit_config(tmp_path)
        override = tmp_path / "other.txt"
        assert run_cli(["fit", "--config", str(cfg), "--output", str(override)]) == 0
        assert override.exists()
        assert not (tmp_path / "report.txt").exists()


class TestPipeline:
    def _config(self, tmp_path, seed=11, noise="0.0"):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[run]\nmode = pipeline\n"
            f"output = {tmp_path / 'report.txt'}\n"
            f"dataset_output = {tmp_path / 'data.csv'}\n"
            f"seed = {seed}\n"
            + NOISELESS_GEN.replace("noise = 0.0", f"noise = {noise}")
        )
        return cfg

    def test_noiseless_recovery_end_to_end(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert run_cli(["pipeline", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        beta3 = float(re.search(r"stage1 beta3_hat = ([0-9.eE+-]+)", out).group(1))
        assert abs(beta3 / 0.04 - 1.0) < 1e-6
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "data.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = self._config(tmp_path, noise="0.01")
        assert run_cli(["pipeline", "--config", str(cfg)]) == 0
        first_report = (tmp_path / "report.txt").read_bytes()
        first_data = (tmp_path / "data.csv").read_bytes()
        assert run_cli(["pipeline", "--config", str(cfg)]) == 0
        assert (tmp_path / "report.txt").read_bytes() == first_report
        assert (tmp_path / "data.csv").read_bytes() == first_data

    def test_seed_override_changes_data_not_schema(self, tmp_path, capsys):
        cfg = self._config(tmp_path, noise="0.01")
        assert run_cli(["pipeline", "--config", str(cfg)]) == 0
        base_report = (tmp_path / "report.txt").read_text()
        base_data = (tmp_path / "data.csv").read_bytes()
        assert run_cli(["pipeline", "--config", str(cfg), "--seed", "99"]) == 0
        new_report = (tmp_path / "report.txt").read_text()
        assert (tmp_path / "data.csv").read_bytes() != base_data

        def keys(text):
            return [line.split(" = ")[0] for line in text.splitlines() if " = " in line or line.startswith("[")]

        assert keys(new_report) == keys(base_report)

    def test_structural_pipeline_reports_scale_block(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\nmode = pipeline\n"
            f"output = {tmp_path / 'r.txt'}\ndataset_output = {tmp_path / 'd.csv'}\nseed = 7\n"
            "[generation]\nkind = structural\n"
            "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = 0.3\nrho = -0.5\nsigma_bar = 0.04\n"
            "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
            "[path]\nhorizon = 1.0\ndt = 0.004\nx0 = 1.0\n"
        )
        # Every structural row has one e, so stage 1 refuses and no report is written.
        assert run_cli(["pipeline", "--config", str(cfg)]) == 2
        assert "insufficient regressor variation" in capsys.readouterr().err
        assert (tmp_path / "d.csv").exists()
        assert not (tmp_path / "r.txt").exists()


class TestSimulateAndValidate:
    def test_simulate_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            f"[run]\nmode = simulate\noutput = {tmp_path / 'd.csv'}\nseed = 4\n" + NOISELESS_GEN
        )
        assert run_cli(["simulate", "--config", str(cfg)]) == 0
        assert "wrote 50 rows" in capsys.readouterr().out
        assert (tmp_path / "d.csv").read_text().startswith("pi_star,mu,r")

    def test_validate_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(
            f"[run]\nmode = validate\noutput = {tmp_path / 'r.txt'}\nseed = 2024\n"
            "[generation]\nn = 100\nnoise = 0.01\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\nreplications = 5\n"
        )
        assert run_cli(["validate", "--config", str(cfg)]) == 0
        text = (tmp_path / "r.txt").read_text()
        assert "replications = 5" in text
        assert "convergence_rate = 1" in text


class TestVolvol:
    def test_full_two_stage_with_rho(self, tmp_path, capsys):
        data = make_dataset_csv(tmp_path / "d.csv")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"[run]\nmode = volvol\ninput = {data}\noutput = {tmp_path / 'r.txt'}\n"
            "gauge = pin-beta5\nalpha_ratio = -0.25\n"
        )
        assert run_cli(["volvol", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "gamma_hat" in out
        text = (tmp_path / "r.txt").read_text()
        assert "[stage1]" in text and "[stage2]" in text and "[rho]" in text

    def test_given_beta3_hat_free_gauge(self, tmp_path, capsys):
        data = make_dataset_csv(tmp_path / "d.csv")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"[run]\nmode = volvol\ninput = {data}\noutput = {tmp_path / 'r.txt'}\n"
            "gauge = free\nbeta3_hat = 0.04\n"
        )
        assert run_cli(["volvol", "--config", str(cfg)]) == 0
        text = (tmp_path / "r.txt").read_text()
        assert "[stage1]" not in text
        assert "GAUGE_UNIDENTIFIED" in text


STRUCTURAL_GEN = (
    "[generation]\nkind = structural\n"
    "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = 0.3\nrho = -0.5\nsigma_bar = 0.04\n"
    "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
    "[path]\nhorizon = 0.5\ndt = 1e-3\nx0 = 1.0\n"
)


def simulate_config(tmp_path, generation, seed=0):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[run]\nmode = simulate\noutput = {tmp_path / 'd.csv'}\nseed = {seed}\n" + generation)
    return cfg


class TestSeedRange:
    @pytest.mark.parametrize("generation", [NOISELESS_GEN, STRUCTURAL_GEN], ids=["model-implied", "structural"])
    def test_seed_flag_at_2_64_is_a_usage_error(self, tmp_path, capsys, generation):
        cfg = simulate_config(tmp_path, generation)
        assert run_cli(["simulate", "--config", str(cfg), "--seed", str(2**64)]) == 1
        assert "usage error: --seed" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("generation", [NOISELESS_GEN, STRUCTURAL_GEN], ids=["model-implied", "structural"])
    def test_largest_seed_flag_runs(self, tmp_path, capsys, generation):
        cfg = simulate_config(tmp_path, generation)
        assert run_cli(["simulate", "--config", str(cfg), "--seed", str(2**64 - 1)]) == 0

    def test_config_seed_at_2_64_is_a_config_error(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, STRUCTURAL_GEN, seed=2**64)
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        assert "error in config stage: type error: [run] seed" in capsys.readouterr().err


class TestGoldenBytes:
    """Pinned sha256 of simulate outputs: the simulate-to-CSV path keeps its bits."""

    @pytest.mark.parametrize(
        "generation, digest",
        [
            (STRUCTURAL_GEN, "40c160555362e69eb5bdb4cbf2840dbc0653b36721e7fdfde7976ebe1a984bbe"),
            (
                "[generation]\nn = 2000\nnoise = 0.01\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n",
                "2bc1aa9d764c3a524e1faea9ae93700b3adb7dc8f7f5e8bafe43a6f5e5028ddf",
            ),
        ],
        ids=["structural", "model-implied"],
    )
    def test_simulate_csv_digest(self, tmp_path, capsys, generation, digest):
        cfg = simulate_config(tmp_path, generation)
        assert run_cli(["simulate", "--config", str(cfg), "--seed", "7"]) == 0
        assert hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest() == digest


# Feller-violating structural parameters: the wealth path overflows at dt = 1e-3.
FELLER_VIOLATING_GEN = (
    "[generation]\nkind = structural\n"
    "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.01\nbeta_rev = 1.0\ngamma = 0.9\nrho = 0.3\nsigma_bar = 0.04\n"
    "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
    "[path]\nhorizon = 2.0\ndt = 1e-3\nx0 = 1.0\n"
)


class TestStageFailures:
    """Each stage's error exit: exit code and the stage named on stderr.

    ``{csv}`` is a 50-row noisy dataset, ``{short}`` a 3-row one and
    ``{tmp}`` the test directory; ``{tmp}/missing`` does not exist.
    ``capped`` names an iteration cap the case lowers to 1 step.
    """

    @pytest.mark.parametrize(
        "command, config, capped, code, prefix",
        [
            ("fit", "[run]\nmode = fit\ninput = {short}\noutput = {tmp}/r.txt\n", None,
             2, "error in stage1 fit stage: insufficient data"),
            ("fit", "[run]\nmode = fit\ninput = {csv}\noutput = {tmp}/missing/r.txt\n", None,
             2, "error in report stage: cannot write report"),
            ("fit", "[run]\nmode = fit\ninput = {csv}\noutput = {tmp}/r.txt\n",
             "portvol.estimate._MAX_ITERATIONS",
             2, "error in stage1 fit stage: did not converge: max iterations"),
            ("fit", "[run]\nmode = fit\ninput = {csv}\noutput = {tmp}/r.txt\n[solver]\nmax_iterations = 200\n", None,
             2, "error in config stage: unknown section: solver"),
            ("pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\n"
             + FELLER_VIOLATING_GEN, None,
             2, "error in generate stage: wealth path became non-finite"),
            ("pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/missing/d.csv\n"
             + NOISELESS_GEN, None,
             2, "error in write stage: "),
            ("pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\n"
             + NOISELESS_GEN.replace("n = 50", "n = 3"), None,
             2, "error in stage1 fit stage: insufficient data"),
            ("pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\n"
             "alpha_ratio = inf\n" + NOISELESS_GEN, None,
             2, "error in config stage: type error: [run] alpha_ratio must be finite"),
            ("fit", "[run]\nmode = fit\ninput = {csv}\noutput = {tmp}/r.txt\ngauge = free\nbeta3_hat = 0.04\n", None,
             2, "error in config stage: [run] beta3_hat is for mode volvol only, not fit"),
            ("pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\n"
             "gauge = free\nbeta3_hat = 0.04\n" + NOISELESS_GEN, None,
             2, "error in config stage: [run] beta3_hat is for mode volvol only, not pipeline"),
            ("volvol", "[run]\nmode = volvol\ninput = {csv}\noutput = {tmp}/r.txt\ngauge = free\nbeta3_hat = 0.05\n",
             "portvol.estimate._MAX_ITERATIONS",
             2, "error in stage2 fit stage: did not converge: max iterations"),
            ("volvol", "[run]\nmode = volvol\ninput = {csv}\noutput = {tmp}/r.txt\ngauge = free\nbeta3_hat = nan\n",
             None,
             2, "error in config stage: type error: [run] beta3_hat must be finite"),
            ("validate", "[run]\nmode = validate\noutput = {tmp}/missing/r.txt\n"
             + NOISELESS_GEN + "replications = 2\n", None,
             2, "error in report stage: cannot write report"),
        ],
        ids=[
            "fit-stage1-error", "fit-report-error", "fit-not-converged", "fit-removed-solver-key",
            "pipeline-generate-error", "pipeline-write-error", "pipeline-stage1-error", "pipeline-infinite-alpha-ratio",
            "fit-beta3-hat", "pipeline-beta3-hat",
            "volvol-stage2-not-converged", "volvol-nan-beta3-hat", "validate-report-error",
        ],
    )
    def test_exit_code_and_stage(self, tmp_path, capsys, monkeypatch, command, config, capped, code, prefix):
        if capped is not None:
            monkeypatch.setattr(capped, 1)
        csv = make_dataset_csv(tmp_path / "d50.csv", noise=0.01)
        short = make_dataset_csv(tmp_path / "d3.csv", n=3)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config.format(tmp=tmp_path, csv=csv, short=short))
        assert run_cli([command, "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert err.count("\n") == 1

    def test_pipeline_verbose_names_the_dataset(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[run]\nmode = pipeline\noutput = {tmp_path / 'r.txt'}\ndataset_output = {tmp_path / 'd.csv'}\n"
            + NOISELESS_GEN
        )
        assert run_cli(["pipeline", "--config", str(cfg), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert f"dataset written to {tmp_path / 'd.csv'} (50 rows)\n" in out
        assert "stage1 converged = True" in out


# Every number in an output, so a template does not depend on float bits.
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?(?![\w.])")
# Whether a converged fit stopped on its gradient or its step also rests on float bits.
_STOP = re.compile(r"^message = (gradient|step) tolerance reached$", re.MULTILINE)


def _template(text, tmp_path):
    text = text.replace(str(tmp_path), "{tmp}")
    return _STOP.sub("message = #", _NUMBER.sub("#", text))


_STAGE1_SUMMARY = "".join(f"stage1 beta{i}_hat = #\n" for i in (1, 2, 3))
_STAGE2_SUMMARY = "".join(f"stage2 beta{i}_hat = #\n" for i in (4, 5, 6))
_STAGE1_REPORT = (
    "[stage1]\nbeta1 = #\nbeta2 = #\nbeta3 = #\nse_beta1 = #\nse_beta2 = #\nse_beta3 = #\n"
    "residual_norm = #\niterations = #\nconverged = true\nmessage = #\n\n"
)


def _stage2_report(gauge, pin="#"):
    return (
        "[stage2]\nbeta4 = #\nbeta5 = #\nbeta6 = #\nse_beta4 = #\nse_beta5 = #\nse_beta6 = #\n"
        "residual_norm = #\niterations = #\nconverged = true\nmessage = #\n"
        f"gamma_hat = #\ngauge = {gauge}\ngauge_pin_value = {pin}\n\n"
    )


_RHO_REPORT = "[rho]\nrho_hat = #\nin_range = false\n\n"
_VERBOSE1 = "stage1 converged = True after # accepted steps\nstage1 residual_norm = #\n"
_VERBOSE2 = "stage2 converged = True after # accepted steps\nstage2 residual_norm = #\n"
_WRITTEN = "report written to {tmp}/r.txt\n"
_STRUCTURAL_RUN = "seed = 7\n" + STRUCTURAL_GEN.replace("horizon = 0.5\ndt = 1e-3", "horizon = 1.0\ndt = 0.004")
_WRITE_ERROR = "[Errno 2] No such file or directory: '{tmp}/missing/"


class TestOutputOrder:
    """Exit status, stderr, stdout and report of the fitting modes, line by line.

    ``{csv}`` is a 50-row noisy dataset, ``{short}`` a 3-row one, ``{zero}``
    a 4-row one with a zero position, and ``{tmp}`` the test directory.
    Stdout and report are compared as templates: each number and each
    converged stop reason reads ``#``.  A report of None means none is
    written.
    """

    CASES = {
        "fit": (
            "fit", "[run]\nmode = fit\ninput = {csv}\noutput = {tmp}/r.txt\n", [], 0, "",
            _STAGE1_SUMMARY + _WRITTEN,
            _STAGE1_REPORT + "[diagnostics]\nstage1 = none\n",
        ),
        "fit-verbose": (
            "fit", "[run]\nmode = fit\ninput = {csv}\noutput = {tmp}/r.txt\n", ["--verbose"], 0, "",
            _STAGE1_SUMMARY + _VERBOSE1 + _WRITTEN,
            _STAGE1_REPORT + "[diagnostics]\nstage1 = none\n",
        ),
        "fit-refused": (
            "fit", "[run]\nmode = fit\ninput = {short}\noutput = {tmp}/r.txt\n", [], 2,
            "error in stage1 fit stage: insufficient data: stage-1 fit needs at least 4 rows, got 3\n", "", None,
        ),
        "fit-unwritable-report": (
            "fit", "[run]\nmode = fit\ninput = {csv}\noutput = {tmp}/missing/r.txt\n", [], 2,
            "error in report stage: cannot write report {tmp}/missing/r.txt: " + _WRITE_ERROR + "r.txt'\n", "", None,
        ),
        "volvol-rho": (
            "volvol", "[run]\nmode = volvol\ninput = {csv}\noutput = {tmp}/r.txt\nalpha_ratio = -0.25\n", [], 0, "",
            _STAGE1_SUMMARY + _STAGE2_SUMMARY + "stage2 gamma_hat = # (gauge pin-beta5)\nrho_hat = #\n" + _WRITTEN,
            _STAGE1_REPORT + _stage2_report("pin-beta5") + _RHO_REPORT
            + "[diagnostics]\nstage1 = none\nstage2 = none\nrho = RHO_OUT_OF_RANGE\n",
        ),
        "volvol-verbose": (
            "volvol", "[run]\nmode = volvol\ninput = {csv}\noutput = {tmp}/r.txt\ngauge = pin-beta6\n", ["--verbose"],
            0, "",
            _STAGE1_SUMMARY + _VERBOSE1 + _STAGE2_SUMMARY + _VERBOSE2 + "stage2 gamma_hat = # (gauge pin-beta6)\n"
            + _WRITTEN,
            _STAGE1_REPORT + _stage2_report("pin-beta6") + "[diagnostics]\nstage1 = none\nstage2 = none\n",
        ),
        "volvol-given-beta3-hat": (
            "volvol", "[run]\nmode = volvol\ninput = {csv}\noutput = {tmp}/r.txt\ngauge = free\nbeta3_hat = 0.04\n",
            [], 0, "",
            _STAGE2_SUMMARY + "stage2 gamma_hat = # (gauge free)\n" + _WRITTEN,
            _stage2_report("free", "null") + "[diagnostics]\nstage2 = GAUGE_UNIDENTIFIED\n",
        ),
        "volvol-refused": (
            "volvol", "[run]\nmode = volvol\ninput = {zero}\noutput = {tmp}/r.txt\ngauge = free\nbeta3_hat = 0.04\n",
            [], 2, "error in stage2 fit stage: zero position at row 1: inverse positions are undefined\n", "", None,
        ),
        "volvol-unwritable-report": (
            "volvol", "[run]\nmode = volvol\ninput = {csv}\noutput = {tmp}/missing/r.txt\n", [], 2,
            "error in report stage: cannot write report {tmp}/missing/r.txt: " + _WRITE_ERROR + "r.txt'\n", "", None,
        ),
        "pipeline": (
            "pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\nseed = 11\n"
            + NOISELESS_GEN.replace("noise = 0.0", "noise = 0.01"), [], 0, "",
            _STAGE1_SUMMARY + _STAGE2_SUMMARY + "stage2 gamma_hat = # (gauge pin-beta5)\n" + _WRITTEN,
            _STAGE1_REPORT + _stage2_report("pin-beta5") + "[diagnostics]\nstage1 = none\nstage2 = none\n",
        ),
        "pipeline-verbose": (
            "pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\n"
            "gauge = pin-beta6\nalpha_ratio = -0.25\n" + NOISELESS_GEN.replace("noise = 0.0", "noise = 0.01"),
            ["--verbose"], 0, "",
            "dataset written to {tmp}/d.csv (# rows)\n" + _STAGE1_SUMMARY + _VERBOSE1 + _STAGE2_SUMMARY + _VERBOSE2
            + "stage2 gamma_hat = # (gauge pin-beta6)\nrho_hat = #\n" + _WRITTEN,
            _STAGE1_REPORT + _stage2_report("pin-beta6") + _RHO_REPORT
            + "[diagnostics]\nstage1 = none\nstage2 = none\nrho = RHO_OUT_OF_RANGE\n",
        ),
        "pipeline-structural-verbose": (
            "pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\n" + _STRUCTURAL_RUN,
            ["--verbose"], 2,
            "error in stage1 fit stage: insufficient regressor variation: stage-1 fit needs at least 3 distinct e, "
            "got 1\n",
            "dataset written to {tmp}/d.csv (# rows)\n", None,
        ),
        "pipeline-refused": (
            "pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/d.csv\n"
            + NOISELESS_GEN.replace("n = 50", "n = 3"), [], 2,
            "error in stage1 fit stage: insufficient data: stage-1 fit needs at least 4 rows, got 3\n", "", None,
        ),
        "pipeline-unwritable-dataset": (
            "pipeline", "[run]\nmode = pipeline\noutput = {tmp}/r.txt\ndataset_output = {tmp}/missing/d.csv\n"
            + NOISELESS_GEN, [], 2, "error in write stage: " + _WRITE_ERROR + "d.csv'\n", "", None,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_status_and_output(self, tmp_path, capsys, case):
        command, config, flags, code, stderr, stdout, report = self.CASES[case]
        csv = make_dataset_csv(tmp_path / "d50.csv", noise=0.01)
        short = make_dataset_csv(tmp_path / "d3.csv", n=3)
        zero = tmp_path / "z.csv"
        zero.write_text("pi_star,mu,r\n1.0,0.05,0.02\n0.0,0.06,0.02\n1.2,0.07,0.02\n1.3,0.08,0.02\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config.format(tmp=tmp_path, csv=csv, short=short, zero=zero))
        assert run_cli([command, "--config", str(cfg), *flags]) == code
        captured = capsys.readouterr()
        assert captured.err.replace(str(tmp_path), "{tmp}") == stderr
        assert _template(captured.out, tmp_path) == stdout
        written = tmp_path / "r.txt"
        assert (_template(written.read_text(), tmp_path) if written.exists() else None) == report


class TestSimulateFailures:
    """``portvol simulate``'s error exits, with their exact stderr; ``{tmp}`` is the test directory."""

    CASES = {
        "generation-error": (
            "output = {tmp}/d.csv\n" + FELLER_VIOLATING_GEN,
            "error in generate stage: wealth path became non-finite at grid point 400: the variance was truncated "
            "to 0 at 49 grid points up to it, where the rule divides by POLICY_VARIANCE_FLOOR; the Feller condition "
            "2*alpha >= gamma**2 fails\n",
        ),
        "unwritable-output": (
            "output = {tmp}/missing/d.csv\n" + NOISELESS_GEN, "error in write stage: " + _WRITE_ERROR + "d.csv'\n",
        ),
        # Finite ends whose width overflows, the pole outside them.
        "overflowing-e-interval": (
            "output = {tmp}/d.csv\n[generation]\nn = 10\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 1.7e308\n"
            "e_min = -1.6e308\ne_max = 1.7e308\n",
            "error in config stage: e_interval is too wide: its width high - low overflows\n",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_and_stderr(self, tmp_path, capsys, case):
        config, stderr = self.CASES[case]
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[run]\nmode = simulate\n" + config.format(tmp=tmp_path))
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.replace(str(tmp_path), "{tmp}")) == ("", stderr)
        assert not (tmp_path / "d.csv").exists()
