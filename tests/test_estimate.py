"""Two-stage fits, diagnostics, standard errors, and the validation harness."""

import importlib.util
import math
import pathlib
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import portvol.estimate
from portvol import (
    Dataset,
    GaugeRule,
    GenerationSpec,
    HestonParams,
    PolicyCoefficients,
    RhoEstimate,
    Stage1Params,
    Stage2Params,
    StructuralSpec,
    ValidationReport,
    estimate_rho,
    fit_vol_of_vol,
    fit_volatility,
    generate_synthetic_dataset,
    identifiability_diagnostics,
    monte_carlo_validation,
    stage1_jacobian,
    stage1_model,
    stage2_jacobian,
    stage2_model,
    standard_errors,
)
from portvol.estimate import (
    DIAG_B1_EQ_B2,
    DIAG_DEGENERATE_COV,
    DIAG_GAUGE,
    DIAG_ILL_CONDITIONED,
    DIAG_POLE,
    DIAG_RHO_RANGE,
)
from portvol.estimate import _Rows, _stage1_checks, _stage2_checks
from portvol.model import FitResult

TRUTH = Stage1Params(2.0, 0.5, 0.04)
_TOO_FEW_E_STAGE1 = "insufficient regressor variation: stage-1 fit needs at least 3 distinct e, got 1"
_TOO_FEW_E_STAGE2 = "insufficient regressor variation: stage-2 fit needs at least 2 distinct e, got 1"


def model_data(truth=TRUTH, n=50, noise=0.0, seed=42):
    spec = GenerationSpec(stage1=truth, n=n, noise=noise)
    return generate_synthetic_dataset("model-implied", spec, seed=seed)


def _corpus_inputs() -> dict:
    """The input files of the report corpus: ``(truth, n, noise, seed)`` of a generated file, or its text."""
    path = pathlib.Path(__file__).parent / "data" / "regenerate.py"
    spec = importlib.util.spec_from_file_location("corpus_regenerate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INPUTS


class TestFitVolatility:
    def test_noiseless_recovery(self):
        fit = fit_volatility(model_data())
        assert fit.converged
        assert np.max(np.abs(fit.params.as_array() / TRUTH.as_array() - 1.0)) < 1e-6
        assert fit.residual_norm < 1e-20
        assert fit.diagnostics == frozenset()
        assert fit.standard_errors is not None

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            fit_volatility(Dataset(pi_star=[1.0] * 3, mu=[0.05] * 3, r=[0.02] * 3))

    def test_degenerate_equal_betas_flagged(self):
        data = model_data(truth=Stage1Params(1.5, 1.5, 0.04), seed=3)
        fit = fit_volatility(data)
        assert fit.converged
        assert fit.residual_norm < 1e-16
        assert DIAG_B1_EQ_B2 in fit.diagnostics
        assert DIAG_DEGENERATE_COV in fit.diagnostics
        assert fit.standard_errors is None  # beta3 error bar is meaningless here

    def test_noisy_median_beta3_close_to_truth(self):
        medians = []
        for rep in range(100):
            data = model_data(n=500, noise=0.01, seed=10_000 + rep)
            fit = fit_volatility(data)
            if fit.converged:
                medians.append(fit.params.beta3)
        assert len(medians) >= 95
        assert abs(np.median(medians) - 0.04) < 0.004  # within 10% of 0.04

    def test_random_truths_recovered_exactly(self):
        # Noiseless identification property over the admissible region.
        rng = np.random.default_rng(314)
        checked = 0
        while checked < 100:
            b1, b2 = rng.uniform(-2.0, 2.0, 2)
            if abs(b1 - b2) <= 0.1:
                continue
            truth = Stage1Params(b1, b2, rng.uniform(0.02, 0.3))
            data = model_data(truth=truth, n=50, seed=int(rng.integers(2**32)))
            fit = fit_volatility(data)
            assert fit.converged
            assert np.max(np.abs(fit.params.as_array() / truth.as_array() - 1.0)) < 1e-9
            checked += 1

    def test_beta3_underflow_names_the_cause(self):
        # With beta1 = beta2 the curve is flat in e; on this draw the sum of
        # squares keeps falling as beta3 grows, and the fit walks up until it
        # is flat to rounding, far past the bound k = 6.  Where it stops is
        # rounding: 29.7985 from the earlier grid start, 30.1471 from the
        # linear start with row sums by the BLAS, whose kernel and thread
        # count moved it, and 30.1516 with row sums that do not use it.
        data = model_data(truth=Stage1Params(1.0, 1.0, 0.04), noise=0.01, seed=8)
        with pytest.raises(
            ValueError, match=r"beta3 is not identified: log\(beta3/max\|e\|\) ends at 30\.1516, outside \[-8, 6\]"
        ):
            fit_volatility(data)

    @pytest.mark.parametrize("case", ["singular", "negative-beta3", "pole-among-e"])
    def test_start_falls_back_to_k_1(self, case, monkeypatch):
        # The linearized curve gives no start on these, and the search starts
        # at k = 1, whose pole lies below every e: flat positions make its
        # system singular, a curve with its pole above the e (beta3 = -0.2)
        # gives beta3_lin < 0, and a pole among e of both signs puts
        # -beta3_lin among them.  Each converges or is refused for its own
        # reason, never as an unevaluable start or a non-finite fit.
        starts = []
        search = portvol.estimate._search

        def spy(profile, data, x, live, y):
            starts.append(x.tolist())
            return search(profile, data, x, live, y)

        monkeypatch.setattr(portvol.estimate, "_search", spy)
        e = np.linspace(-0.05, 0.05, 40) + 0.0013 if case == "pole-among-e" else np.linspace(0.01, 0.1, 30)
        b3 = -0.2 if case == "negative-beta3" else 0.01
        pi = np.full(len(e), 0.7) if case == "singular" else (0.5 * b3 + 2.0 * e) / (b3 + e)
        data = Dataset(pi_star=pi, mu=e + 0.02, r=np.full(len(e), 0.02))
        if case == "singular":
            fit = fit_volatility(data)
            assert (fit.converged, fit.iterations, fit.params.beta3) == (True, 0, data.e.max() * math.exp(1.0))
            assert DIAG_B1_EQ_B2 in fit.diagnostics
        else:
            with pytest.raises(ValueError, match=r"^beta3 is not identified: log\(beta3/max\|e\|\) ends at 3"):
                fit_volatility(data)
        assert starts == [[1.0]]

    def test_slow_valley_converges(self):
        # A curved, weakly identified valley where a three-parameter
        # Levenberg-Marquardt polish ran out of its 200 iterations short of
        # the optimum (sum of squares 0.09252914557393985).
        truth = Stage1Params(0.8354617716091437, 1.4927529832126476, 0.4659460377359871)
        fit = fit_volatility(model_data(truth=truth, n=30, noise=0.05, seed=2994697974))
        assert fit.converged
        # scipy.optimize.least_squares (MINPACK, tolerances 1e-15) reaches this.
        assert fit.residual_norm == pytest.approx(0.09252914552214536, rel=1e-12)

    @pytest.mark.parametrize("truth", [TRUTH, Stage1Params(-1.0, 1.5, 0.2)])
    @pytest.mark.parametrize("scale", [1e-4, 1e4])
    def test_units_of_the_returns_only_scale_beta3(self, truth, scale):
        # The curve depends on beta3 only through beta3/e: returns given in
        # other units (basis points, per-minute) give the same beta1, beta2
        # and beta3 in those units.
        data = model_data(truth=truth, n=200, noise=0.01, seed=4)
        scaled = Dataset(pi_star=data.pi_star, mu=data.mu * scale, r=data.r * scale)
        fit, fit_scaled = fit_volatility(data), fit_volatility(scaled)
        assert fit.converged and fit_scaled.converged
        assert fit_scaled.params.beta3 == pytest.approx(fit.params.beta3 * scale, rel=1e-6)
        assert (fit_scaled.params.beta1, fit_scaled.params.beta2) == pytest.approx(
            (fit.params.beta1, fit.params.beta2), rel=1e-6
        )
        assert fit_scaled.residual_norm == pytest.approx(fit.residual_norm, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        b1=st.floats(-3.0, 3.0),
        b2=st.floats(-3.0, 3.0),
        log_b3=st.floats(math.log(0.005), 0.0),
        noise=st.sampled_from([0.0, 0.01, 0.05]),
        n=st.sampled_from([30, 200]),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-60, 60),
    )
    def test_binary_units_of_the_positions_scale_the_fit_exactly(self, b1, b2, log_b3, noise, n, seed, j):
        # Scaling the positions by 2**j is exact in floating point, so every
        # stop test must see the same numbers in other units: beta1, beta2
        # and the sum of squares scale, and the search takes the same steps.
        # Betas both near 0 give subnormal positions, which do not scale
        # exactly.
        assume(abs(b1 - b2) > 0.1)
        data = model_data(truth=Stage1Params(b1, b2, math.exp(log_b3)), n=n, noise=noise, seed=seed)
        scaled = Dataset(pi_star=data.pi_star * 2.0**j, mu=data.mu, r=data.r)
        try:
            fit = fit_volatility(data)
        except ValueError as exc:  # refused: the same refusal
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                fit_volatility(scaled)
            return
        fit_scaled = fit_volatility(scaled)
        b = fit.params
        assert fit_scaled.params == Stage1Params(2.0**j * b.beta1, 2.0**j * b.beta2, b.beta3)
        assert fit_scaled.residual_norm == 4.0**j * fit.residual_norm
        assert (fit_scaled.iterations, fit_scaled.message, fit_scaled.converged) == (
            fit.iterations, fit.message, fit.converged
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_noisy_fits_stop_once_the_decrease_is_rounding(self, seed):
        # On noisy data the sum of squares is far above flat = (eps*|pi|)**2,
        # and a predicted decrease below its rounding, eps*sum|y|*|r|, cannot
        # show in it: the search stops there rather than halving its last
        # step down to 1e-12.
        fit = fit_volatility(model_data(n=200, noise=0.01, seed=seed))
        assert fit.converged
        assert fit.message == "gradient tolerance reached"

    @settings(max_examples=60, deadline=None)
    @given(
        b1=st.floats(-3.0, 3.0),
        b2=st.floats(-3.0, 3.0),
        b3=st.floats(0.005, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # Noiseless truths the moment-based start of earlier versions lost, by
    # "max iterations", "damping exhausted", a non-finite evaluation, or a
    # step-tolerance stop short of the truth.
    @example(b1=-1.66, b2=-1.798, b3=0.6123, seed=128)
    @example(b1=-2.249, b2=-2.895, b3=0.6165, seed=849)
    @example(b1=-0.233, b2=-0.452, b3=0.314, seed=543)
    @example(b1=-1.911, b2=0.554, b3=0.0105, seed=5)
    @example(b1=-1.45, b2=1.273, b3=0.0092, seed=685)
    # A truth 1e-4 from the earlier start grid's point max(e)*exp(2), where a
    # start on the grid point itself passed the gradient test with no step taken.
    @example(b1=0.763, b2=0.646, b3=0.729557, seed=0)
    def test_noiseless_identified_truths_recovered(self, b1, b2, b3, seed):
        assume(abs(b1 - b2) > 0.1)
        truth = Stage1Params(b1, b2, b3)
        data = model_data(truth=truth, n=50, seed=seed)
        fit = fit_volatility(data)
        assert fit.converged
        # The linearized curve is exact on noiseless data, so the search
        # starts at the truth to rounding (a 15-point grid start took 5.3
        # steps on average on the noiseless sweep of tests/data/sweeps.py).
        assert fit.iterations <= 1
        assert np.max(np.abs(stage1_model(data.e, fit.params) - data.pi_star)) < 1e-6
        assert fit.params.beta3 == pytest.approx(b3, rel=1e-9)
        assert (fit.params.beta1, fit.params.beta2) == pytest.approx((b1, b2), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("truth", [TRUTH, Stage1Params(-1.0, 1.5, 0.2), Stage1Params(0.7, -2.0, 0.01)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_oracle(self, truth, seed):
        # Oracle: MINPACK's Levenberg-Marquardt on the public stage-1 model
        # in (beta1, beta2, log beta3), started at the truth.
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        data = model_data(truth=truth, n=200, noise=0.01, seed=seed)
        fit = fit_volatility(data)

        def params(q):
            return Stage1Params(q[0], q[1], math.exp(q[2]))

        def jacobian(q):
            j = -stage1_jacobian(data.e, params(q))
            j[:, 2] *= math.exp(q[2])
            return j

        oracle = least_squares(
            lambda q: data.pi_star - stage1_model(data.e, params(q)),
            x0=[truth.beta1, truth.beta2, math.log(truth.beta3)],
            jac=jacobian,
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        assert oracle.success
        assert fit.converged
        assert fit.residual_norm == pytest.approx(2.0 * oracle.cost, rel=1e-12)
        # Both fits stop where the sum of squares is flat to rounding, and
        # along the weakly identified direction that flat stretch spans a
        # sliver of a standard error, so the two optima may differ there.
        diff = np.abs(fit.params.as_array() - params(oracle.x).as_array())
        assert np.all(diff <= 1e-6 * np.array(fit.standard_errors))
        assert fit.params.as_array() == pytest.approx(params(oracle.x).as_array(), rel=1e-6)

    @pytest.mark.parametrize(
        "pi_star, mu",
        [
            ([1.25] * 5, [0.03, 0.05, 0.07, 0.09, 0.11]),  # flat positions
        ],
        ids=["flat-positions"],
    )
    def test_level_only_data_converge_at_the_level(self, pi_star, mu):
        fit = fit_volatility(Dataset(pi_star=pi_star, mu=mu, r=[0.02] * 5))
        assert fit.converged
        assert fit.iterations == 0
        assert fit.params.beta1 == fit.params.beta2 == pytest.approx(np.mean(pi_star), rel=1e-15)
        assert DIAG_B1_EQ_B2 in fit.diagnostics
        assert DIAG_DEGENERATE_COV in fit.diagnostics


class TestFitVolOfVol:
    def test_noiseless_pin_beta5(self):
        stage1 = fit_volatility(model_data())
        gauge = GaugeRule.from_stage1("pin-beta5", stage1)
        fit = fit_vol_of_vol(model_data(), stage1.params.beta3, gauge)
        assert fit.converged
        assert fit.residual_norm < 1e-10
        # the fitted slope-to-scale ratio reproduces the stage-1 beta1
        assert fit.params.beta6 / fit.params.beta4 == pytest.approx(stage1.params.beta1, rel=1e-6)
        assert fit.params.beta5 == stage1.params.beta2  # pinned exactly
        assert fit.standard_errors is not None
        assert fit.standard_errors[1] == 0.0  # pinned parameter has no sampling error

    def test_noiseless_pin_beta6(self):
        stage1 = fit_volatility(model_data())
        gauge = GaugeRule.from_stage1("pin-beta6", stage1)
        fit = fit_vol_of_vol(model_data(), stage1.params.beta3, gauge)
        assert fit.converged
        assert fit.residual_norm < 1e-10
        assert fit.params.beta6 == stage1.params.beta1
        assert fit.params.beta5 / fit.params.beta4 == pytest.approx(stage1.params.beta2, rel=1e-6)

    def test_free_gauge_carries_warning_and_scale_invariance(self):
        data = model_data()
        fit = fit_vol_of_vol(data, 0.04, GaugeRule("free"))
        assert DIAG_GAUGE in fit.diagnostics
        e = data.e
        pib = 1.0 / data.pi_star
        scaled = Stage2Params(fit.params.beta4 * 7, fit.params.beta5 * 7, fit.params.beta6 * 7)
        r = pib - stage2_model(e, scaled, 0.04)
        assert abs(float(r @ r) - fit.residual_norm) < 1e-12

    def test_free_gauge_reports_ratios_with_errors(self):
        data = model_data(n=200, noise=0.01, seed=8)
        fit = fit_vol_of_vol(data, 0.04, GaugeRule("free"))
        assert fit.converged
        assert fit.params.beta4 == 1.0  # the scale the free gauge fixes
        assert fit.standard_errors is not None
        assert fit.standard_errors[0] == 0.0
        assert min(fit.standard_errors[1:]) > 0.0
        assert fit.diagnostics == frozenset({DIAG_GAUGE})

    def test_gauge_sign_conflict_raises(self):
        data = model_data(n=200, noise=0.01, seed=8)
        stage1 = fit_volatility(data)
        gauge = GaugeRule("pin-beta5", -stage1.params.beta2)
        with pytest.raises(ValueError, match=r"gauge sign conflict: pin-beta5 pins beta5 at -.*= \+"):
            fit_vol_of_vol(data, stage1.params.beta3, gauge)

    def test_gauge_sign_test_survives_a_subnormal_pin(self):
        # The free fit gives beta5/beta4 = +0.490372, so pin*ratio underflows to 0 at the smallest
        # subnormal pin; the signs agree, so the pin is taken.
        data = model_data(truth=TRUTH, n=40, noise=0.02, seed=3)
        b3h = fit_volatility(data).params.beta3
        fit = fit_vol_of_vol(data, b3h, GaugeRule("pin-beta5", 5e-324))
        assert fit.params.beta5 == 5e-324 and fit.params.beta4 > 0.0
        with pytest.raises(ValueError, match=r"pins beta5 at -4.94066e-324 but the data give beta5/beta4 = \+0.49037"):
            fit_vol_of_vol(data, b3h, GaugeRule("pin-beta5", -5e-324))

    def test_gauge_sign_test_survives_a_huge_pin(self):
        # pin*ratio overflows near 2**1080, a warning the suite turns into an error.
        data = model_data(truth=TRUTH, n=40, noise=0.02, seed=3)
        b3h = fit_volatility(data).params.beta3
        scaled = Dataset(pi_star=data.pi_star * 2.0**540, mu=data.mu, r=data.r)
        fit = fit_vol_of_vol(scaled, b3h, GaugeRule("pin-beta5", 0.5 * 2.0**540))
        assert fit.params.beta5 == 0.5 * 2.0**540 and 0.0 < fit.params.beta4 < math.inf

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_pin_beta5_with_negative_beta2_converges(self, noise):
        # beta2 < 0 < beta1: the fit must keep beta4 positive without
        # running log(beta4) off to -inf.
        data = model_data(truth=Stage1Params(5.0, -0.3, 0.1), n=200, noise=noise, seed=3)
        stage1 = fit_volatility(data)
        fit = fit_vol_of_vol(data, stage1.params.beta3, GaugeRule.from_stage1("pin-beta5", stage1))
        assert fit.converged
        assert fit.params.beta4 == pytest.approx(1.0, abs=0.05)
        if noise == 0.0:
            assert fit.params.beta4 == pytest.approx(1.0, rel=1e-6)
            assert fit.residual_norm < 1e-18

    def test_positions_crossing_zero_rejected_with_row(self):
        data = model_data(truth=Stage1Params(-1.0, 3.0, 0.02), n=200, seed=3)
        pi = data.pi_star
        first = int(np.argmax(np.sign(pi) != np.sign(pi[0])))
        assert first > 0
        stage1 = fit_volatility(data)
        with pytest.raises(ValueError, match=rf"position sign change at row {first}:"):
            fit_vol_of_vol(data, stage1.params.beta3, GaugeRule.from_stage1("pin-beta5", stage1))

    def test_position_sign_change_names_label(self):
        data = Dataset(
            pi_star=[1.0, 1.1, -0.2, 1.3],
            mu=[0.05, 0.06, 0.07, 0.08],
            r=[0.02] * 4,
            labels=("a", "b", "c", "d"),
        )
        with pytest.raises(ValueError, match=r"position sign change at row 2 \(label 'c'\)"):
            fit_vol_of_vol(data, 0.04, GaugeRule("free"))

    @pytest.mark.parametrize("source", ["benchmark", "corpus"])
    def test_start_is_the_stage1_linear_part_bit_for_bit(self, source):
        # Stage 2 starts at the closed-form fit of the positions on
        # u = e/(beta3_hat + e), and at stage 1's beta3 that is the
        # regression stage 1 itself ends on: the same (beta1, beta2) bits.
        if source == "benchmark":
            inputs = [(TRUTH, 200, 0.01, seed) for seed in range(8)]
        else:
            inputs = [v for v in _corpus_inputs().values() if not isinstance(v, str)]
        checked = 0
        for truth, n, noise, seed in inputs:
            data = model_data(truth=truth, n=n, noise=noise, seed=seed)
            try:
                b = fit_volatility(data).params
            except ValueError:  # refused: no stage 2 follows
                continue
            E, PI = data.e[None], data.pi_star[None]
            work, b3 = np.empty((3,) + E.shape), np.array([b.beta3])
            c6, c5 = portvol.estimate._stage1_profile(E, *portvol.estimate._centred(PI), b3, work)[1][0, :2]
            assert (float(c6).hex(), float(c5).hex()) == (b.beta1.hex(), b.beta2.hex())
            checked += 1
        assert checked == (8 if source == "benchmark" else 5)

    @staticmethod
    def _check_against_scipy_oracle(variant, seed):
        # Oracle: the natural problem in the two betas the gauge leaves
        # free, solved by MINPACK's Levenberg-Marquardt on the public
        # stage-2 model, started at stage 1's ratios under the gauge.
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        data = model_data(n=200, noise=0.01, seed=seed)
        stage1 = fit_volatility(data)
        b3h, gauge = stage1.params.beta3, GaugeRule.from_stage1(variant, stage1)
        fit = fit_vol_of_vol(data, b3h, gauge)
        k, pin = gauge.fixed
        free = [i for i in range(3) if i != k]
        start = np.array([1.0, stage1.params.beta2, stage1.params.beta1])
        start *= pin / start[k]

        def params(v):
            beta = np.insert(v, k, pin)
            return Stage2Params(*beta.tolist())

        e, pib = data.e, 1.0 / data.pi_star
        oracle = least_squares(
            lambda v: pib - stage2_model(e, params(v), b3h),
            x0=start[free],
            jac=lambda v: -stage2_jacobian(e, params(v), b3h)[:, free],
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        assert oracle.success
        assert fit.converged
        beta = fit.params.as_array()
        assert beta[k] == pin
        assert beta == pytest.approx(params(oracle.x).as_array(), rel=1e-8)
        assert fit.residual_norm == pytest.approx(2.0 * oracle.cost, rel=1e-12)
        diff = np.abs(beta[free] - oracle.x)
        assert np.all(diff <= 1e-6 * np.array(fit.standard_errors)[free])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_oracle_pin_beta6(self, seed):
        self._check_against_scipy_oracle("pin-beta6", seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_oracle_pin_beta5(self, seed):
        self._check_against_scipy_oracle("pin-beta5", seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_oracle_free(self, seed):
        self._check_against_scipy_oracle("free", seed)

    @pytest.mark.parametrize("scale", [1e-30, 1e-12, 1e-6, 1e6, 1e12, 1e30])
    def test_units_of_the_positions_only_scale_the_ratios(self, scale):
        # The search in the angle of (c6, c5) depends only on their
        # direction, so positions in other units give the same fit with
        # (beta5, beta6) in those units; it must not stop at its start.
        data = model_data(truth=TRUTH, n=40, noise=0.02, seed=3)
        b3h = fit_volatility(data).params.beta3
        fit = fit_vol_of_vol(data, b3h, GaugeRule("free"))
        scaled = Dataset(pi_star=data.pi_star * scale, mu=data.mu, r=data.r)
        fit_scaled = fit_vol_of_vol(scaled, b3h, GaugeRule("free"))
        assert fit_scaled.converged
        assert fit_scaled.iterations >= 1
        assert fit_scaled.params.beta4 == 1.0
        assert (fit_scaled.params.beta5, fit_scaled.params.beta6) == pytest.approx(
            (scale * fit.params.beta5, scale * fit.params.beta6), rel=1e-8
        )

    def test_standard_errors_of_huge_positions_do_not_overflow(self):
        # Entries of inv(R) near 1e200 would overflow as squares in their
        # row norm, a warning the suite turns into an error.  Scaling the
        # positions by 2**j is exact, so the errors are those of scale 1
        # times 2**j, bit for bit.
        data = model_data(truth=TRUTH, n=40, noise=0.02, seed=3)
        b3h = fit_volatility(data).params.beta3
        se = fit_vol_of_vol(data, b3h, GaugeRule("free")).standard_errors
        assert se[0] == 0.0 and min(se[1:]) > 0.0
        for j in (332, 498):
            scaled = Dataset(pi_star=data.pi_star * 2.0**j, mu=data.mu, r=data.r)
            se_scaled = fit_vol_of_vol(scaled, b3h, GaugeRule("free")).standard_errors
            assert [s / 2.0**j for s in se_scaled] == list(se)
        # Past 2**530 the fit is that of underflowing sums of squares (ROADMAP item 6), but it raises no warning:
        # the Jacobian's entries near 2**-1070 are kept as a row factor times representable ones.
        fit_vol_of_vol(Dataset(pi_star=data.pi_star * 2.0**535, mu=data.mu, r=data.r), b3h, GaugeRule("free"))

    @pytest.mark.parametrize("j", [-480, -400, -332, 332, 400, 480])
    def test_binary_units_far_from_one_scale_both_stages_exactly(self, j):
        # Scaling the positions by 2**j is exact, and neither stop test
        # squares a position, so far from unit scale both stages take the
        # steps of scale 1 and do not stop at their start.  Stage 2 runs on
        # TRUTH only: the other truth's positions cross zero.
        for truth in (Stage1Params(0.8, -0.3, 0.05), TRUTH):
            data = model_data(truth=truth, n=40, noise=0.02, seed=3)
            both = (data, Dataset(pi_star=data.pi_star * 2.0**j, mu=data.mu, r=data.r))
            stage1 = [fit_volatility(d) for d in both]
            b = stage1[0].params
            assert stage1[1].params == Stage1Params(2.0**j * b.beta1, 2.0**j * b.beta2, b.beta3)
            pairs = [stage1]
            for variant in ("free", "pin-beta5") if truth == TRUTH else ():
                stage2 = [
                    fit_vol_of_vol(d, s.params.beta3, GaugeRule.from_stage1(variant, s)) for d, s in zip(both, stage1)
                ]
                b = stage2[0].params
                assert stage2[1].params == Stage2Params(b.beta4, 2.0**j * b.beta5, 2.0**j * b.beta6)
                pairs.append(stage2)
            for fit, fit_scaled in pairs:
                assert fit.iterations >= 1
                assert (fit_scaled.iterations, fit_scaled.message, fit_scaled.converged) == (
                    fit.iterations, fit.message, fit.converged
                )

    @settings(max_examples=40, deadline=None)
    @given(
        b3=st.floats(0.02, 0.3),
        sign=st.sampled_from([-1.0, 1.0]),
        near=st.floats(0.06, 2.0),
        gap=st.floats(0.06, 1.0),
        rising=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_default_gauge_gamma_is_one_by_construction(self, b3, sign, near, gap, rising, seed):
        # gamma_hat = pin / (pinned ratio) compares two estimates of the same
        # stage-1 coefficient, so on noiseless data it is 1 under both pins.
        # The curve is b2 + (b1 - b2)*u with u = e/(b3 + e), monotone on the
        # sampled e range [0.01, 0.10], so positions keep one sign and stay
        # away from zero when both ends do.  The ends are drawn with one sign,
        # magnitudes near and near + gap (> 0.05), and b1, b2 solved from them;
        # |b1 - b2| = gap/(u1 - u0) > 0.1 since u1 - u0 <= 0.5 for b3 >= 0.02.
        ends = sign * np.array([near, near + gap] if rising else [near + gap, near])
        u = np.array([0.01, 0.10]) / (b3 + np.array([0.01, 0.10]))
        slope = (ends[1] - ends[0]) / (u[1] - u[0])
        b2 = ends[0] - slope * u[0]
        b1 = b2 + slope
        # Both pins must stay away from zero; the extrapolated coefficient
        # lands within 0.1 of zero for few draws.
        assume(abs(b1) > 0.1 and abs(b2) > 0.1)
        data = model_data(truth=Stage1Params(b1, b2, b3), n=50, seed=seed)
        stage1 = fit_volatility(data)
        assert stage1.converged
        b3h = stage1.params.beta3
        for gauge in (GaugeRule.from_stage1("pin-beta5", stage1), GaugeRule.from_stage1("pin-beta6", stage1)):
            fit = fit_vol_of_vol(data, b3h, gauge)
            assert fit.converged
            assert fit.params.beta4 == pytest.approx(1.0, abs=1e-6)

    def test_single_excess_return_takes_unit_scale(self):
        # One distinct e identifies only the curve's level, not two ratios,
        # so it is refused whatever the gauge and the sign of the pin.
        data = Dataset(pi_star=[-0.8, -0.9, -1.0, -1.1], mu=[0.08] * 4, r=[0.02] * 4)
        for gauge in (
            GaugeRule("pin-beta5", -5.0), GaugeRule("pin-beta5", 5.0), GaugeRule("pin-beta6", 0.4), GaugeRule("free")
        ):
            with pytest.raises(ValueError) as raised:
                fit_vol_of_vol(data, 0.02, gauge)
            assert str(raised.value) == _TOO_FEW_E_STAGE2

    def test_zero_position_rejected_with_row(self):
        data = Dataset(pi_star=[1.0, 0.0, 1.2, 1.3], mu=[0.05, 0.06, 0.07, 0.08], r=[0.02] * 4)
        with pytest.raises(ValueError, match="zero position at row 1"):
            fit_vol_of_vol(data, 0.04, GaugeRule("free"))

    def test_beta3_hat_must_be_positive(self):
        with pytest.raises(ValueError):
            fit_vol_of_vol(model_data(), 0.0, GaugeRule("free"))

    def test_pin_gauge_requires_nonzero_value(self):
        with pytest.raises(ValueError):
            GaugeRule("pin-beta5", 0.0)
        with pytest.raises(ValueError):
            GaugeRule("pin-beta6", None)
        with pytest.raises(ValueError):
            GaugeRule("free", 1.0)


# Excess returns for the designs below: -0.05 and -0.02 put the stage-2
# curve on its pole at two of the drawn beta3_hat.
_E_POOL = (-0.05, -0.02, 0.0, 0.01, 0.03, 0.06, 0.1)


@st.composite
def _design(draw):
    """``(e, pi)`` of 4 to 12 rows whose ``e`` take 1 to 4 distinct values; the positions share a sign half the time."""
    values = draw(st.lists(st.sampled_from(_E_POOL), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(4, 12))
    extra = draw(st.lists(st.integers(0, len(values) - 1), min_size=n - len(values), max_size=n - len(values)))
    rows = draw(st.permutations(list(range(len(values))) + extra))  # every value appears
    pi = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        pi = draw(st.sampled_from([1.0, -1.0])) * np.abs(pi)
    return np.array(values)[rows], pi


def _outcome(fit, *args):
    """The message of the ValueError ``fit(*args)`` raises, or None."""
    try:
        fit(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestRegressorVariation:
    """Stage 1 refuses data with fewer than 3 distinct e and stage 2 with 1, each with its exact message."""

    @settings(max_examples=80, deadline=None)
    @given(design=_design())
    @example(design=(np.full(5, 0.04), np.array([1.0, 1.3, 0.9, 1.1, 1.2])))
    @example(design=(np.array([0.01, 0.03, 0.01, 0.03]), np.array([1.0, 1.3, 0.9, 1.1])))
    @example(design=(np.array([0.01, 0.03, 0.06, 0.01]), np.array([1.0, 1.3, 0.9, 1.1])))
    def test_stage1_needs_three_distinct_e(self, design):
        e, pi = design
        distinct = len(set(e.tolist()))
        outcome = _outcome(fit_volatility, Dataset(pi_star=pi, mu=e, r=np.zeros(len(e))))
        if distinct < 3:
            assert outcome == f"insufficient regressor variation: stage-1 fit needs at least 3 distinct e, got {distinct}"
        else:
            assert not str(outcome).startswith("insufficient regressor variation")

    @settings(max_examples=120, deadline=None)
    @given(
        design=_design(),
        b3h=st.sampled_from([0.02, 0.05, 0.3]),
        variant=st.sampled_from(["free", "pin-beta5", "pin-beta6"]),
        pin=st.sampled_from([-2.0, 0.5]),
    )
    @example(design=(np.full(4, 0.06), np.array([-0.8, -0.9, -1.0, -1.1])), b3h=0.02, variant="pin-beta5", pin=0.5)
    @example(design=(np.full(4, -0.02), np.array([0.8, 0.9, 1.0, 1.1])), b3h=0.02, variant="free", pin=0.5)
    @example(design=(np.array([0.01, 0.03, 0.01, 0.03]), np.array([0.8, 0.9, 1.0, 1.1])), b3h=0.3, variant="free", pin=0.5)
    # A subnormal position: its inverse overflows, so the start is unevaluable.
    @example(
        design=(np.array([-0.05, 0.0, -0.05, -0.05]), np.array([1.0, 1.0, 1.0, 2.22507386e-313])),
        b3h=0.02, variant="pin-beta5", pin=-2.0,
    )
    def test_stage2_needs_two_distinct_e(self, design, b3h, variant, pin):
        e, pi = design
        gauge = GaugeRule("free") if variant == "free" else GaugeRule(variant, pin)
        outcome = _outcome(fit_vol_of_vol, Dataset(pi_star=pi, mu=e, r=np.zeros(len(e))), b3h, gauge)
        # The refusals that come first: a zero position, a sign change, and
        # the pole, which the pool reaches only exactly.
        earlier = (pi == 0.0).any() or (np.signbit(pi) != np.signbit(pi[0])).any() or (b3h + e == 0.0).any()
        one = len(set(e.tolist())) == 1
        assert (outcome == _TOO_FEW_E_STAGE2) == (one and not earlier)
        if one:
            assert outcome is not None


class TestEstimateRho:
    def test_zero_numerator(self):
        assert estimate_rho(0.0, 0.3, -0.25).rho_hat == 0.0

    def test_worked_inversion(self):
        # beta2 = -rho*gamma*(alpha2/alpha1) with rho=-0.5, gamma=0.3, ratio=-0.25
        est = estimate_rho(-0.0375, 0.3, -0.25)
        assert est.rho_hat == pytest.approx(-0.5, rel=1e-14)
        assert est.diagnostics == frozenset()
        assert est.in_range

    def test_out_of_range_reported_not_clamped(self):
        est = estimate_rho(1.0, 0.1, 0.1)
        assert est.rho_hat == pytest.approx(-100.0, rel=1e-12)
        assert DIAG_RHO_RANGE in est.diagnostics
        assert not est.in_range

    def test_preconditions(self):
        with pytest.raises(ValueError):
            estimate_rho(0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            estimate_rho(0.1, 0.3, 0.0)

    def test_underflowing_denominator_raises_value_error(self):
        # 1e-200 * 1e-200 is 0 in doubles; the division would raise ZeroDivisionError.
        with pytest.raises(ValueError, match=r"^gamma_hat \* alpha_ratio underflows to 0 \(1e-200 \* 1e-200\)$"):
            estimate_rho(1.0, 1e-200, 1e-200)

    @pytest.mark.parametrize("rho_hat", [math.inf, -math.inf, math.nan, 1.5])
    def test_out_of_range_flag_follows_rho_hat(self, rho_hat):
        # inf and nan are out of range too: the flag is in_range's negation.
        est = RhoEstimate(rho_hat)
        assert not est.in_range and est.diagnostics == {DIAG_RHO_RANGE}

    def test_diagnostics_are_not_an_argument(self):
        with pytest.raises(TypeError, match="diagnostics"):
            RhoEstimate(0.5, diagnostics=frozenset())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_input_raises(self, bad, position):
        args = [0.5, 1.0, 0.25]
        args[position] = bad
        name = ("beta2_hat", "gamma_hat", "alpha_ratio")[position]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            estimate_rho(*args)

    def test_roundtrip_property(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = rng.uniform(-0.99, 0.99)
            gamma = rng.uniform(0.05, 1.0)
            ratio = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
            est = estimate_rho(-rho * gamma * ratio, gamma, ratio)
            assert abs(est.rho_hat - rho) <= 1e-12 * max(abs(rho), 1.0)


class TestIdentifiabilityDiagnostics:
    def test_equal_betas_threshold(self):
        data = model_data()
        fit = _fit_result(Stage1Params(1.5, 1.5, 0.04))
        assert DIAG_B1_EQ_B2 in identifiability_diagnostics(fit, data)

    def test_well_separated_fit_is_clean(self):
        data = model_data()
        fit = _fit_result(TRUTH)
        assert identifiability_diagnostics(fit, data) == frozenset()

    def test_pole_proximity_threshold(self):
        # the second e lies within 1e-3*beta3 of -beta3
        data = Dataset(pi_star=[1.0, 1.0, 1.1, 1.2], mu=[0.05, 0.02 - 0.039999, 0.07, 0.08], r=[0.02] * 4)
        fit = _fit_result(Stage1Params(2.0, 0.5, 0.04))
        assert DIAG_POLE in identifiability_diagnostics(fit, data)

    def test_stage2_requires_beta3_hat(self):
        fit = _fit_result(Stage2Params(1.0, 0.5, 2.0))
        with pytest.raises(ValueError):
            identifiability_diagnostics(fit, model_data())


def _fit_result(params) -> FitResult:
    return FitResult(params=params, residual_norm=0.0, iterations=0, converged=True)


class TestStandardErrors:
    def _linear_problem(self, seed=0, n=30, k=3):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, k))
        y = rng.standard_normal(n)
        return a, y

    def test_matches_ols_closed_form(self):
        a, y = self._linear_problem()
        beta = np.linalg.solve(a.T @ a, a.T @ y)
        resid = a @ beta - y
        s2 = float(resid @ resid) / (len(y) - 3)
        expected = np.sqrt(np.diag(s2 * np.linalg.inv(a.T @ a)))
        fit = FitResult(params=beta, residual_norm=float(resid @ resid), iterations=1, converged=True)
        got = standard_errors(fit, a)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_residuals_give_zero_errors(self):
        a, y = self._linear_problem()
        fit = FitResult(params=np.ones(3), residual_norm=0.0, iterations=1, converged=True)
        assert standard_errors(fit, a) == pytest.approx((0.0, 0.0, 0.0))

    def test_degenerate_covariance_is_absent_not_numeric(self):
        # third column identically zero
        a = np.column_stack([np.ones(10), np.arange(10.0), np.zeros(10)])
        fit = FitResult(params=np.zeros(3), residual_norm=1.0, iterations=0, converged=True)
        assert standard_errors(fit, a) is None

    @staticmethod
    def _conditioned(cond):
        # J = U diag(1, 1/cond) V' with orthonormal U (n x 2) and rotation V.
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(rng.standard_normal((20, 2)))
        c, s = np.cos(0.3), np.sin(0.3)
        v = np.array([[c, -s], [s, c]])
        a = u @ np.diag([1.0, 1.0 / cond]) @ v.T
        expected = np.sqrt((v**2) @ np.array([1.0, cond**2]) / 18.0)  # residual_norm 1
        fit = FitResult(params=np.zeros(2), residual_norm=1.0, iterations=0, converged=True)
        return fit, a, expected

    def test_ill_conditioned_jacobian_keeps_accuracy(self):
        # cond(J) = 1e7 squares to 1e14 in J'J; the R factor keeps it at 1e7.
        fit, a, expected = self._conditioned(1e7)
        assert standard_errors(fit, a) == pytest.approx(expected, rel=1e-6)

    def test_singular_threshold_is_on_cond_r(self):
        # 1/sqrt(eps) is about 6.7e7
        fit, a, _ = self._conditioned(1e8)
        assert standard_errors(fit, a) is None

    def test_requires_degrees_of_freedom(self):
        fit = FitResult(params=np.zeros(3), residual_norm=1.0, iterations=0, converged=True)
        with pytest.raises(ValueError, match="require n_obs > n_params"):
            standard_errors(fit, np.ones((3, 3)))

    @pytest.mark.parametrize("shape", [(10,), (1, 10, 3), (10, 0)])
    def test_requires_a_matrix_of_at_least_one_column(self, shape):
        fit = FitResult(params=np.zeros(3), residual_norm=1.0, iterations=0, converged=True)
        with pytest.raises(ValueError, match=r"jacobian must be 2-D, \(n_obs, n_params >= 1\)"):
            standard_errors(fit, np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_jacobian_is_absent(self, bad):
        a, _ = self._linear_problem()
        a[4, 1] = bad
        fit = FitResult(params=np.ones(3), residual_norm=1.0, iterations=1, converged=True)
        assert standard_errors(fit, a) is None


class TestOneJacobian:
    """The reported standard errors and condition numbers are those of the public Jacobians' QR."""

    @pytest.mark.parametrize("noise", [0.01, 0.05])
    @pytest.mark.parametrize("n", [30, 200, 8193, 2 * 8192 + 2])
    def test_standard_errors_match_the_public_jacobians(self, monkeypatch, noise, n):
        # The fits take both from the R of their profile's projections; the oracle is one LAPACK QR of
        # stage1_jacobian's, or stage2_jacobian's in the two betas the gauge leaves free.
        factored = []
        se_and_cond = portvol.estimate._se_and_cond

        def spy(*args):
            factored.append(se_and_cond(*args))
            return factored[-1]

        monkeypatch.setattr(portvol.estimate, "_se_and_cond", spy)
        spec = GenerationSpec(stage1=TRUTH, n=n, noise=noise)
        compared = Counter()
        for seed in range(20 if n <= 200 else 2):
            data = generate_synthetic_dataset("model-implied", spec, seed)
            fits = [(fit_volatility(data), None)]
            b3h = fits[0][0].params.beta3
            fits += [(fit_vol_of_vol(data, b3h, gauge), gauge) for gauge in (
                GaugeRule.from_stage1(variant, fits[0][0]) for variant in ("free", "pin-beta5", "pin-beta6")
            )]
            for fit, gauge in fits:
                factored.clear()
                got = fit.standard_errors
                if gauge is None:
                    jac, k = stage1_jacobian(data.e, fit.params), None
                else:
                    k = gauge.fixed[0]
                    jac = stage2_jacobian(data.e, fit.params, b3h)[:, [i for i in range(3) if i != k]]
                    got = got[:k] + got[k + 1:]
                want = standard_errors(fit, jac)
                cond = np.linalg.cond(np.linalg.qr(jac, mode="r"))
                assert want is not None and np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.abs(want))
                assert abs(factored[0][1][0] - cond) <= 1e-12 * cond
                others = fit.diagnostics - {DIAG_ILL_CONDITIONED, DIAG_DEGENERATE_COV}
                assert fit.diagnostics == others | ({DIAG_ILL_CONDITIONED} if cond > 1e8 else set())
                assert others == (identifiability_diagnostics(fit, data, beta3_hat=b3h, gauge=gauge)
                                  if gauge else identifiability_diagnostics(fit, data)) - {DIAG_ILL_CONDITIONED}
                compared["stage1" if gauge is None else gauge.variant] += 1
        assert set(compared) == {"stage1", "free", "pin-beta5", "pin-beta6"}


def test_lm_fit_is_a_name_that_solves_nothing():
    # portvol.estimate keeps lm_fit only as a name the benchmark's tracer patches; no fit calls it.
    with pytest.raises(NotImplementedError, match="variable-projection"):
        portvol.estimate.lm_fit()


class TestMonteCarloValidation:
    def test_noiseless_bias_and_rmse_vanish(self):
        spec = GenerationSpec(stage1=TRUTH, n=50, noise=0.0)
        report = monte_carlo_validation(spec, 10, master_seed=1)
        assert report.convergence_rate == 1.0
        assert all(abs(b) < 1e-6 for b in report.bias)
        assert all(r < 1e-6 for r in report.rmse)

    def test_requires_at_least_two_replications(self):
        spec = GenerationSpec(stage1=TRUTH, n=50)
        with pytest.raises(ValueError):
            monte_carlo_validation(spec, 1)

    def test_failed_count_and_names_are_derived(self):
        report = ValidationReport(5, TRUTH, 3, None, None, None, 0, None)
        assert (report.n_failed, report.param_names) == (2, ("beta1", "beta2", "beta3"))
        for name, value in (("n_failed", 2), ("param_names", ("beta1", "beta2", "beta3"))):
            with pytest.raises(TypeError, match=name):
                ValidationReport(5, TRUTH, 3, None, None, None, 0, None, **{name: value})

    def test_bit_identical_reports(self):
        spec = GenerationSpec(stage1=TRUTH, n=100, noise=0.02)
        a = monte_carlo_validation(spec, 8, master_seed=99, run_stage2=True)
        b = monte_carlo_validation(spec, 8, master_seed=99, run_stage2=True)
        assert a == b

    def test_closed_form_fits_per_run(self, monkeypatch):
        # The benchmark's validation setting at 64 replications, one chunk:
        # calls of the one profile and the rows they fit, by the stage
        # curve's evaluator that makes them.  The stage-1 curve's: one per
        # evaluation of the search (its start and each round of trial
        # steps); the search starts from the linearized curve in closed
        # form, with no evaluation.  A 15-point start grid took 21 calls on
        # 1281 rows, a gradient that made its own projection 26 on 1538,
        # and a search that chased rounding in the sum of squares 65 on
        # 1899; evaluating stage 2's start, which stage 1's fit already
        # holds, took one more call on 64 rows.  The stage-2 curve's: one
        # per evaluation of its search.
        calls_and_rows = {"_stage1_profile": [0, 0], "_stage2_profile": [0, 0]}
        caller = []
        profile = portvol.estimate._profile

        def counted(y, b, d, work):
            calls_and_rows[caller[-1]][0] += 1
            calls_and_rows[caller[-1]][1] += len(y)
            return profile(y, b, d, work)

        def spy(name):
            def evaluate(*args):
                caller.append(name)
                return evaluator(*args)

            evaluator = getattr(portvol.estimate, name)
            return evaluate

        monkeypatch.setattr(portvol.estimate, "_profile", counted)
        for name in calls_and_rows:
            monkeypatch.setattr(portvol.estimate, name, spy(name))
        spec = GenerationSpec(stage1=TRUTH, n=200, noise=0.01)
        report = monte_carlo_validation(spec, 64, master_seed=7, run_stage2=True, gauge_variant="pin-beta5")
        assert (report.n_converged, report.stage2_n_converged) == (64, 64)
        assert calls_and_rows == {"_stage1_profile": [4, 256], "_stage2_profile": [4, 198]}

    @pytest.mark.parametrize("variant", ["free", "pin-beta5", "pin-beta6"])
    def test_stage2_starts_from_the_stage1_fit(self, monkeypatch, variant):
        # Stage 2's default start is the stage-1 curve's (beta1, beta2) at
        # beta3_hat; each converged row's stage-1 fit ended there, so the
        # harness passes its (beta1, beta2) and no bit moves.
        stage2_rows, starts = portvol.estimate._stage2_rows, []

        def both(E, PI, b3h, k, pins, labels=None, start=None):
            given = stage2_rows(E, PI, b3h, k, pins, labels, start)
            assert _row_outcomes(given) == _row_outcomes(stage2_rows(E, PI, b3h, k, pins, labels))
            starts.append(start)
            return given

        monkeypatch.setattr(portvol.estimate, "_stage2_rows", both)
        spec = GenerationSpec(stage1=TRUTH, n=30, noise=0.3)  # some rows fail stage 1, and under pin-beta5 stage 2
        report = monte_carlo_validation(spec, 100, master_seed=1, run_stage2=True, gauge_variant=variant)
        assert len(starts) == 1 and starts[0] is not None
        assert 0 < report.n_converged < report.replications

    def test_rmse_dominates_bias(self):
        spec = GenerationSpec(stage1=TRUTH, n=200, noise=0.02)
        report = monte_carlo_validation(spec, 20, master_seed=7)
        for bias, rmse in zip(report.bias, report.rmse):
            assert rmse >= abs(bias)

    def test_stage2_aggregation(self):
        spec = GenerationSpec(stage1=TRUTH, n=100, noise=0.0)
        report = monte_carlo_validation(spec, 4, master_seed=3, run_stage2=True)
        assert report.stage2_n_converged == 4
        # noiseless pin-beta5 fits land on beta4 = beta3_hat/beta3_true = 1
        assert report.stage2_gamma_mean == pytest.approx(1.0, rel=1e-6)

    def test_stage2_exceptions_are_counted(self, monkeypatch):
        # Every row of the stacked stage-2 fit reports a pole at its start.
        def pole_everywhere(value, *scale_terms):
            return np.ones(np.shape(value)[:-1], dtype=bool)

        spec = GenerationSpec(stage1=TRUTH, n=100, noise=0.0)
        assert monte_carlo_validation(spec, 4, master_seed=3).stage2_n_failed is None
        assert monte_carlo_validation(spec, 4, master_seed=3, run_stage2=True).stage2_n_failed == 0
        monkeypatch.setattr(portvol.estimate, "_pole_rows", pole_everywhere)
        report = monte_carlo_validation(spec, 4, master_seed=3, run_stage2=True)
        assert report.n_converged == 4
        assert report.stage2_n_converged == 0
        assert report.stage2_n_failed == 4
        assert report.failures == (("stage2 pole guard", 4),)

    def test_beta3_underflow_counted_as_failed(self):
        spec = GenerationSpec(stage1=Stage1Params(1.0, 1.0, 0.04), n=50, noise=0.01)
        seed = int(np.random.SeedSequence(entropy=3, spawn_key=(1,)).generate_state(1, np.uint64)[0])
        data = generate_synthetic_dataset("model-implied", spec, seed)
        with pytest.raises(ValueError, match="beta3 is not identified"):
            fit_volatility(data)
        report = monte_carlo_validation(spec, 2, master_seed=3)
        assert report.n_failed >= 1
        assert report.n_converged + report.n_failed == 2

    def test_unidentified_beta3_counted_as_failed(self, monkeypatch):
        # Every replication draws the seed-8 data, whose fit ends past k = 6.
        monkeypatch.setattr(
            portvol.estimate, "_stream_keys", lambda master_seed, reps: np.full((len(reps), 2), 8, dtype=np.uint64)
        )
        spec = GenerationSpec(stage1=Stage1Params(1.0, 1.0, 0.04), n=50, noise=0.01)
        report = monte_carlo_validation(spec, 3)
        assert (report.n_converged, report.n_failed) == (0, 3)
        assert report.failures == (("stage1 beta3 not identified", 3),)

    def test_stage2_position_sign_change_counted_as_failed(self):
        spec = GenerationSpec(stage1=Stage1Params(-1.0, 3.0, 0.02), n=200, noise=0.01)
        report = monte_carlo_validation(spec, 4, master_seed=5, run_stage2=True)
        assert report.n_converged == 4
        assert report.stage2_n_converged == 0
        assert report.stage2_n_failed == 4
        assert report.failures == (("stage2 position sign change", 4),)

    @staticmethod
    def _reports_by_chunk_budget(monkeypatch, spec) -> list:
        # Budgets of 7 and 14 replications end their last chunk partway
        # through the 20; 12800 (the earlier default), the default and
        # 10**6 take the run in one chunk.
        reports = []
        for budget in (1, 7 * 50, 13 * 50 + 1, 12800, portvol.estimate._CHUNK_OBSERVATIONS, 10**6):
            monkeypatch.setattr(portvol.estimate, "_CHUNK_OBSERVATIONS", budget)
            reports.append(monte_carlo_validation(spec, 20, master_seed=3, run_stage2=True))
        return reports

    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch):
        spec = GenerationSpec(stage1=Stage1Params(1.0, 1.0, 0.04), n=50, noise=0.01)
        reports = self._reports_by_chunk_budget(monkeypatch, spec)
        assert reports[0].failures  # some replications are refused
        assert all(report == reports[0] for report in reports[1:])

    def test_generation_errors_do_not_depend_on_the_chunk_size(self, monkeypatch):
        spec = GenerationSpec(stage1=Stage1Params(1e308, 0.0, 1.0), n=50, e_interval=(1.0, 1.81))
        reports = self._reports_by_chunk_budget(monkeypatch, spec)
        assert dict(reports[0].failures)["generation error"] == 13
        assert all(report == reports[0] for report in reports[1:])

    def test_peak_memory_stays_within_a_few_chunks(self):
        # Two chunks of the benchmark's fits, in chunk-sized float arrays
        # above the baseline.  Measured: 6.89, in either stage the positions,
        # the excess returns, the centred (stage 1) or inverse (stage 2)
        # positions, three work arrays and small per-row objects; the earlier
        # kernels reached 14.  One more chunk-sized array left alive in
        # either stage crosses the bound.
        spec = GenerationSpec(stage1=TRUTH, n=200, noise=0.01)
        chunk = portvol.estimate._CHUNK_OBSERVATIONS
        replications = 2 * -(-chunk // spec.n)
        monte_carlo_validation(spec, replications, master_seed=1, run_stage2=True)  # one-off costs first
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            report = monte_carlo_validation(spec, replications, master_seed=2, run_stage2=True)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert report.stage2_n_converged == replications
        assert peak <= 7.5 * 8 * chunk

    def test_stage2_checks_are_never_run(self, monkeypatch):
        # The harness reads stage 2's estimates and convergence only, so it never runs the stage-2 checks.
        spec = GenerationSpec(stage1=TRUTH, n=200, noise=0.01)
        expected = monte_carlo_validation(spec, 20, master_seed=4, run_stage2=True)

        def refuse(*args, **kwargs):
            raise AssertionError("stage-2 checks run")

        monkeypatch.setattr(portvol.estimate, "_stage2_checks", refuse)
        report = monte_carlo_validation(spec, 20, master_seed=4, run_stage2=True)
        assert report == expected and report.stage2_n_converged == 20
        with pytest.raises(AssertionError, match="stage-2 checks run"):
            fit_vol_of_vol(model_data(), TRUTH.beta3, GaugeRule("free"))

    def test_overflowing_sum_of_squares_is_a_named_failure(self):
        # Positions near the float limit overflow stage 1's sum of squares:
        # the replications that generate are failures, not nan estimates.
        spec = GenerationSpec(stage1=Stage1Params(1e308, 0.0, 1.0), n=50, e_interval=(1.0, 1.81))
        report = monte_carlo_validation(spec, 20, master_seed=3)
        assert report.failures == (("generation error", 13), ("stage1 non-finite fit", 7))
        assert (report.n_converged, report.n_failed) == (0, 20)
        assert report.bias is report.rmse is report.beta3_mean is None
        assert "nan" not in repr(report)
        fitted = 0
        for rep in range(20):
            seed = int(np.random.SeedSequence(entropy=3, spawn_key=(rep,)).generate_state(1, np.uint64)[0])
            try:
                data = generate_synthetic_dataset("model-implied", spec, seed)
            except ValueError:
                continue
            with pytest.raises(ValueError, match="stage-1 fit is not finite: positions too large"):
                fit_volatility(data)
            fitted += 1
        assert fitted == 7

    def test_overflowing_draws_are_generation_errors(self):
        # b1*e overflows for e above 1.797, so a dataset of four draws on
        # [1, 2] generates only when all four fall below it.  Each
        # replication is counted the way generate_synthetic_dataset fails.
        spec = GenerationSpec(stage1=Stage1Params(1e308, 0.0, 1.0), n=4, e_interval=(1.0, 2.0))
        expected = 0
        for rep in range(60):
            seed = int(np.random.SeedSequence(entropy=11, spawn_key=(rep,)).generate_state(1, np.uint64)[0])
            try:
                generate_synthetic_dataset("model-implied", spec, seed)
            except ValueError as exc:
                assert "pi_star must be finite" in str(exc)
                expected += 1
        report = monte_carlo_validation(spec, 60, master_seed=11)
        assert expected == 29  # as counted one replication at a time before the draws were stacked
        # The 31 that generate overflow stage 1's sum of squares.
        assert report.failures == (("generation error", 29), ("stage1 non-finite fit", 31))
        assert (report.n_converged, report.n_failed) == (0, 60)

    @pytest.mark.parametrize("master_seed", [-1, 2**64, 1.0, True])
    def test_invalid_master_seed_raises(self, master_seed):
        spec = GenerationSpec(stage1=TRUTH, n=50)
        with pytest.raises(ValueError, match=rf"master_seed must be an integer in \[0, 2\*\*64\), got {master_seed!r}"):
            monte_carlo_validation(spec, 3, master_seed=master_seed)

    def test_largest_master_seed_runs(self):
        report = monte_carlo_validation(GenerationSpec(stage1=TRUTH, n=50), 3, master_seed=2**64 - 1)
        assert report.n_converged == 3

    def test_unknown_gauge_variant_raises(self):
        with pytest.raises(ValueError, match="unknown gauge variant"):
            monte_carlo_validation(GenerationSpec(stage1=TRUTH, n=50), 2, run_stage2=True, gauge_variant="pin")

    def test_structural_spec_is_refused(self):
        # Every row of a wealth path has e = mu - r, so no structural replication could converge.
        with pytest.raises(ValueError) as raised:
            monte_carlo_validation(_structural_spec(), 5, master_seed=17, run_stage2=True)
        assert str(raised.value) == (
            "monte_carlo_validation needs a GenerationSpec: every structural row has one excess return, "
            "which stage 1 refuses"
        )


def _fit_key(fit: FitResult) -> tuple:
    """Every field of a fit, floats as hex, so equal keys mean bit-identical fits."""

    def hexes(values):
        return None if values is None else tuple(float(v).hex() for v in values)

    return (
        hexes(fit.params.as_array()),
        fit.residual_norm.hex(),
        fit.iterations,
        fit.converged,
        hexes(fit.standard_errors),
        tuple(sorted(fit.diagnostics)),
        fit.message,
    )


def _row_outcomes(rows) -> list:
    """``(failure reason or None, fit key or error text)`` for each row of a stacked fit."""
    out = []
    for i in range(len(rows.converged)):
        try:
            out.append((None, _fit_key(rows.result(i))))
        except ValueError as exc:
            out.append((rows.failures[i][0], f"{type(exc).__name__}: {exc}"))
    return out


def _single_outcome(fit, *args):
    try:
        return _fit_key(fit(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestStackedRows:
    """The Monte Carlo harness fits chunks of datasets as stacked rows; a row must not see its chunk."""

    @settings(max_examples=20, deadline=None)
    @given(
        b1=st.floats(-3.0, 3.0),
        b2=st.floats(-3.0, 3.0),
        log_b3=st.floats(math.log(0.005), 0.0),
        noise=st.sampled_from([0.0, 0.01, 0.05]),
        n=st.sampled_from([30, 200]),
        seed=st.integers(0, 2**32),
        n_rows=st.integers(8, 16),
        variant=st.sampled_from(["free", "pin-beta5", "pin-beta6"]),
    )
    def test_rows_do_not_depend_on_their_chunk(self, b1, b2, log_b3, noise, n, seed, n_rows, variant):
        spec = GenerationSpec(stage1=Stage1Params(b1, b2, math.exp(log_b3)), n=n, noise=noise)
        datasets = [generate_synthetic_dataset("model-implied", spec, seed + i) for i in range(n_rows)]
        E, PI = np.stack([d.e for d in datasets]), np.stack([d.pi_star for d in datasets])

        def stage1(size):
            return [
                o for lo in range(0, n_rows, size)
                for o in _row_outcomes(portvol.estimate._stage1_rows(E[lo:lo + size], PI[lo:lo + size]))
            ]

        first = stage1(1)
        assert stage1(7) == first and stage1(n_rows) == first
        assert [o[1] for o in first] == [_single_outcome(fit_volatility, d) for d in datasets]

        fitted = [i for i, (reason, _) in enumerate(first) if reason is None]
        stage1_fits = [fit_volatility(datasets[i]) for i in fitted]
        k = ("free", "pin-beta5", "pin-beta6").index(variant)
        b3h = np.array([f.params.beta3 for f in stage1_fits])
        pins = np.array([(1.0, f.params.beta2, f.params.beta1)[k] for f in stage1_fits])
        assume(np.all(pins != 0.0))

        def stage2(size):
            return [
                o for lo in range(0, len(fitted), size)
                for o in _row_outcomes(portvol.estimate._stage2_rows(
                    E[fitted][lo:lo + size], PI[fitted][lo:lo + size], b3h[lo:lo + size], k,
                    pins[lo:lo + size],
                ))
            ]

        second = stage2(1)
        assert stage2(7) == second and stage2(max(len(fitted), 1)) == second
        assert [o[1] for o in second] == [
            _single_outcome(fit_vol_of_vol, datasets[i], f.params.beta3, GaugeRule.from_stage1(variant, f))
            for i, f in zip(fitted, stage1_fits)
        ]


class TestSearchPaths:
    """Rows that are nearly the whole stack are evaluated in place, fewer are gathered; neither shows in a fit."""

    def test_stacked_rows_match_one_row_fits(self, monkeypatch):
        # Row 5 of 16 is refused, so the first evaluations cover 15 rows and
        # run on the whole stack; once rows stop, the live ones are gathered.
        # Rows 8-15 are noisier and take more steps in both stages, so their
        # last evaluations run without the first rows.
        noise = [0.05] * 8 + [0.2] * 8
        datasets = [
            generate_synthetic_dataset("model-implied", GenerationSpec(TRUTH, n=30, noise=noise[i]), 100 + i)
            for i in range(16)
        ]
        two_e = np.where(np.arange(30) % 2, 0.05, 0.07)  # stage 1 needs 3 distinct e
        datasets[5] = Dataset(pi_star=datasets[5].pi_star, mu=two_e, r=np.full(30, 0.02))
        E, PI = np.stack([d.e for d in datasets]), np.stack([d.pi_star for d in datasets])
        evaluations = []
        evaluate = portvol.estimate._evaluate

        def spy(profile, data, x, rows, x_rows=None):
            evaluations.append((len(rows), len(x)))
            return evaluate(profile, data, x, rows, x_rows)

        monkeypatch.setattr(portvol.estimate, "_evaluate", spy)
        first = _row_outcomes(portvol.estimate._stage1_rows(E, PI))
        assert (15, 16) in evaluations and min(evaluations)[0] <= 8
        assert [o[1] for o in first] == [_single_outcome(fit_volatility, d) for d in datasets]

        fits = [fit_volatility(d) if i != 5 else None for i, d in enumerate(datasets)]
        b3h = np.array([0.04 if f is None else f.params.beta3 for f in fits])
        pins = np.array([1.0 if f is None else f.params.beta2 for f in fits])
        datasets[5] = Dataset(pi_star=np.where(np.arange(30) == 3, 0.0, PI[5]), mu=two_e, r=np.full(30, 0.02))
        PI[5] = datasets[5].pi_star  # stage 2 refuses a zero position
        evaluations.clear()
        second = _row_outcomes(portvol.estimate._stage2_rows(E, PI, b3h, 1, pins))
        assert (15, 16) in evaluations and min(evaluations)[0] <= 8
        assert [o[1] for o in second] == [
            _single_outcome(fit_vol_of_vol, d, b, GaugeRule("pin-beta5", pin)) for d, b, pin in zip(datasets, b3h, pins)
        ]


class TestStopRule:
    """A row stops once its predicted decrease is below the rounding of its own sum of squares."""

    def test_benchmark_rows_stop_on_the_gradient_test(self, monkeypatch):
        # The mc-model-implied op.  A stop test at eps*ssr, below the rounding
        # of sums of y - fit with |fit| >> |y - fit|, left 3 stage-1 and 24
        # stage-2 rows halving rounding-rejected steps to "step tolerance reached".
        messages = Counter()
        for name in ("_stage1_rows", "_stage2_rows"):
            def spy(*args, _fit=getattr(portvol.estimate, name), _stage=name[1:7], **kwargs):
                rows = _fit(*args, **kwargs)
                messages.update((_stage, m) for m in rows.messages)
                return rows

            monkeypatch.setattr(portvol.estimate, name, spy)
        spec = GenerationSpec(stage1=TRUTH, n=200, noise=0.01)
        monte_carlo_validation(spec, 500, master_seed=1, run_stage2=True, gauge_variant="pin-beta5")
        assert messages == {("stage1", "gradient tolerance reached"): 500, ("stage2", "gradient tolerance reached"): 500}


class TestLongRows:
    """A long row's standard errors come from its profile's projections, with no Jacobian held."""

    def test_pole_guard_in_the_last_block_degenerates_the_covariance(self):
        # The row's last e is on the pole at the fit's parameters: b3 + e = 0 in stage 1,
        # b5*b3h + b6*e = 0 in stage 2.  The checks evaluate the profile there, without a warning.
        n = 2 * 8192 + 2
        b3h, stage1, stage2 = np.array([0.04]), np.array([[2.0, 0.5, 0.04]]), np.array([[1.0, 0.5, 2.0]])
        cases = (
            (Stage1Params, stage1, -0.04, lambda E: _stage1_checks(E, stage1, np.ones(1))),
            (Stage2Params, stage2, -0.01, lambda E: _stage2_checks(E, stage2, b3h, 1, np.ones(1))),
        )
        for kind, params, pole, checks in cases:
            E = np.linspace(0.01, 0.1, n)[None]
            assert not np.isnan(checks(E)[0]).any()
            E[0, -1] = pole
            fit = _Rows(kind, params, np.ones(1), np.ones(1, dtype=int), [""], {}, lambda: checks(E)).result(0)
            assert fit.standard_errors is None and DIAG_DEGENERATE_COV in fit.diagnostics

    @pytest.mark.parametrize("stage", [1, 2])
    def test_peak_memory_of_a_long_row(self, stage):
        # Above its inputs, in arrays of n doubles.  Measured: 4.03 in either
        # stage, the centred (stage 1) or inverse (stage 2) positions and
        # three work arrays; the checks hold no Jacobian.
        n = 50_000
        data = model_data(n=n, noise=0.01, seed=1)
        stage1 = fit_volatility(model_data(n=100, noise=0.01, seed=1))  # one-off costs first
        fit_vol_of_vol(model_data(n=100, noise=0.01, seed=1), stage1.params.beta3, GaugeRule("free"))
        stage1 = fit_volatility(data) if stage == 2 else None
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            fit = fit_volatility(data) if stage == 1 else fit_vol_of_vol(data, stage1.params.beta3, GaugeRule("free"))
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert fit.converged and fit.standard_errors is not None
        assert peak <= 5 * 8 * n


def _structural_spec():
    heston = HestonParams(mu=0.08, r=0.02, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=-0.5, sigma_bar=0.04)
    return StructuralSpec(heston=heston, policy=PolicyCoefficients(1.0, -2.0, 0.5), horizon=1.0, dt=0.004, x0=1.0)


def _stage2_diagnostics(data, variant):
    """A stage-2 fit's own diagnostics less DEGENERATE_COVARIANCE, and identifiability_diagnostics of it."""
    stage1 = fit_volatility(data)
    gauge = GaugeRule.from_stage1(variant, stage1)
    fit = fit_vol_of_vol(data, stage1.params.beta3, gauge)
    return fit.diagnostics - {DIAG_DEGENERATE_COV}, identifiability_diagnostics(
        fit, data, beta3_hat=stage1.params.beta3, gauge=gauge
    )


def _structural(variant):
    data = generate_synthetic_dataset("structural", _structural_spec(), 7)
    return _stage2_diagnostics(data, variant)


def _narrow_e(variant):
    # Noiseless, e on a width of 3e-9: cond(J) passes 1e8 in both stages.
    spec = GenerationSpec(stage1=TRUTH, n=200, e_interval=(0.05, 0.050000003))
    return _stage2_diagnostics(generate_synthetic_dataset("model-implied", spec, 11), variant)


def _model(variant):
    return _stage2_diagnostics(model_data(noise=0.01), variant)


def _short_data_refusals(n):
    """Each stage's refusal of the first ``n`` rows of a noiseless dataset, or None; stacked rows refuse alike.

    Then each stage's refusal by ``identifiability_diagnostics``, which applies the fits' row rule.
    """
    full = model_data(n=4)
    data = Dataset(pi_star=full.pi_star[:n], mu=full.mu[:n], r=full.r[:n])
    E, PI = np.stack([data.e] * 2), np.stack([data.pi_star] * 2)
    refusals = []
    for single, stacked in (
        (lambda: fit_volatility(data), portvol.estimate._stage1_rows(E, PI)),
        (lambda: fit_vol_of_vol(data, 0.04, GaugeRule("free")),
         portvol.estimate._stage2_rows(E, PI, np.full(2, 0.04), 0, np.ones(2))),
    ):
        refusal = _outcome(single)
        assert [str(stacked.failures[i][1]) if i in stacked.failures else None for i in range(2)] == [refusal] * 2
        refusals.append(refusal)
    refusals.append(_outcome(identifiability_diagnostics, _fit_result(TRUTH), data))
    refusals.append(_outcome(lambda: identifiability_diagnostics(
        _fit_result(Stage2Params(1.0, 0.5, 0.25)), data, beta3_hat=0.04, gauge=GaugeRule("free")
    )))
    return tuple(refusals)


def _max_iterations_report(monkeypatch):
    monkeypatch.setattr(portvol.estimate, "_MAX_ITERATIONS", 1)
    report = monte_carlo_validation(GenerationSpec(stage1=TRUTH, n=200, noise=0.01), 4, master_seed=1, run_stage2=True)
    return report.n_converged, report.failures


class TestRarelyTakenBranches:
    """Refusals and branches of ``estimate`` that no other test takes, with their exact outcomes."""

    ILL, GAUGE = frozenset({DIAG_ILL_CONDITIONED}), frozenset({DIAG_GAUGE, DIAG_ILL_CONDITIONED})
    CASES = {
        # Structural rows share one e: stage 1 refuses them before any diagnostics.
        "diagnostics-structural-free": (lambda mp: _structural("free"), f"ValueError: {_TOO_FEW_E_STAGE1}"),
        "diagnostics-structural-pin-beta5": (lambda mp: _structural("pin-beta5"), f"ValueError: {_TOO_FEW_E_STAGE1}"),
        "diagnostics-structural-pin-beta6": (lambda mp: _structural("pin-beta6"), f"ValueError: {_TOO_FEW_E_STAGE1}"),
        "diagnostics-narrow-e-free": (lambda mp: _narrow_e("free"), (GAUGE, GAUGE)),
        "diagnostics-narrow-e-pin-beta5": (lambda mp: _narrow_e("pin-beta5"), (ILL, ILL)),
        "diagnostics-narrow-e-pin-beta6": (lambda mp: _narrow_e("pin-beta6"), (ILL, ILL)),
        "diagnostics-free": (lambda mp: _model("free"), (frozenset({DIAG_GAUGE}),) * 2),
        "diagnostics-pin-beta5": (lambda mp: _model("pin-beta5"), (frozenset(),) * 2),
        "diagnostics-pin-beta6": (lambda mp: _model("pin-beta6"), (frozenset(),) * 2),
        "stage2-two-rows": (
            lambda mp: fit_vol_of_vol(
                Dataset(pi_star=[1.0, 1.2], mu=[0.05, 0.07], r=[0.02, 0.02]), 0.04, GaugeRule("free")
            ),
            "ValueError: insufficient data: stage-2 fit needs at least 3 rows, got 2",
        ),
        # A fit needs more rows than free parameters: 4 in stage 1, 3 in stage 2.  The diagnostics of
        # either stage refuse alike, after no other refusal.
        **{
            f"rows-{n}": (lambda mp, n=n: _short_data_refusals(n), (
                f"insufficient data: stage-1 fit needs at least 4 rows, got {n}" if n < 4 else None,
                stage2,
                f"insufficient data: stage-1 fit needs at least 4 rows, got {n}" if n < 4 else None,
                f"insufficient data: stage-2 fit needs at least 3 rows, got {n}" if n < 3 else None,
            ))
            for n, stage2 in enumerate([
                "insufficient data: stage-2 fit needs at least 3 rows, got 0",
                _TOO_FEW_E_STAGE2,
                "insufficient data: stage-2 fit needs at least 3 rows, got 2",
                None,
                None,
            ])
        },
        "replications-float": (
            lambda mp: monte_carlo_validation(GenerationSpec(stage1=TRUTH, n=50), 3.0),
            "ValueError: replications must be an integer >= 2, got 3.0",
        ),
        "replications-bool": (
            lambda mp: monte_carlo_validation(GenerationSpec(stage1=TRUTH, n=50), True),
            "ValueError: replications must be an integer >= 2, got True",
        ),
        "replications-numpy-integer": (
            lambda mp: monte_carlo_validation(GenerationSpec(stage1=TRUTH, n=50), np.int64(2)).replications, 2
        ),
        "beta3-hat-bool": (
            lambda mp: fit_vol_of_vol(model_data(), True, GaugeRule("free")),
            "ValueError: beta3_hat must be finite and > 0",
        ),
        "diagnostics-beta3-hat-nan": (
            lambda mp: identifiability_diagnostics(
                _fit_result(Stage2Params(1.0, 0.5, 0.25)), model_data(), beta3_hat=math.nan
            ),
            "ValueError: beta3_hat must be finite and > 0",
        ),
        "gauge-pin-bool": (
            lambda mp: GaugeRule("pin-beta5", True), "ValueError: pin-beta5 gauge requires a nonzero finite pin value"
        ),
        "stage1-max-iterations": (_max_iterations_report, (0, (("stage1 not converged: max iterations", 4),))),
        "gauge-unknown-variant": (lambda mp: GaugeRule("bogus"), "ValueError: unknown gauge variant 'bogus'"),
        "gauge-pin-without-stage1": (
            lambda mp: GaugeRule.from_stage1("pin-beta5", None), "ValueError: pin-beta5 gauge requires a stage-1 fit"
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_outcome(self, monkeypatch, case):
        call, expected = self.CASES[case]
        try:
            outcome = call(monkeypatch)
        except ValueError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        assert outcome == expected
