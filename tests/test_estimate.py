"""Two-stage fits, diagnostics, standard errors, and the validation harness."""

import numpy as np
import pytest

import portvol.estimate
from portvol import (
    Dataset,
    GaugeRule,
    GenerationSpec,
    HestonParams,
    MarketObservation,
    PathConfig,
    PoleError,
    PolicyCoefficients,
    ResidualProblem,
    Stage1Params,
    Stage2Params,
    StructuralSpec,
    estimate_rho,
    fit_vol_of_vol,
    fit_volatility,
    generate_synthetic_dataset,
    identifiability_diagnostics,
    monte_carlo_validation,
    stage2_model,
    standard_errors,
    volatility_scale_comparison,
)
from portvol.estimate import (
    DIAG_B1_EQ_B2,
    DIAG_DEGENERATE_COV,
    DIAG_GAUGE,
    DIAG_POLE,
    DIAG_RHO_RANGE,
)
from portvol.model import FitResult

TRUTH = Stage1Params(2.0, 0.5, 0.04)


def model_data(truth=TRUTH, n=50, noise=0.0, seed=42):
    spec = GenerationSpec(stage1=truth, n=n, noise=noise)
    return generate_synthetic_dataset("model-implied", spec, seed=seed)


class TestFitVolatility:
    def test_noiseless_recovery(self):
        fit = fit_volatility(model_data())
        assert fit.converged
        assert np.max(np.abs(fit.params.as_array() / TRUTH.as_array() - 1.0)) < 1e-6
        assert fit.residual_norm < 1e-20
        assert fit.diagnostics == frozenset()
        assert fit.standard_errors is not None

    def test_insufficient_data(self):
        obs = tuple(MarketObservation(1.0, 0.05, 0.02) for _ in range(3))
        with pytest.raises(ValueError, match="insufficient data"):
            fit_volatility(Dataset(observations=obs))

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

    def test_trace_is_reported_in_natural_space(self):
        fit = fit_volatility(model_data())
        for (b1, b2, b3), _ in fit.trace:
            assert b3 > 0.0
        final_params, final_norm = fit.trace[-1]
        assert final_params == pytest.approx(tuple(fit.params.as_array()))
        assert final_norm == fit.residual_norm

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
            assert np.max(np.abs(fit.params.as_array() / truth.as_array() - 1.0)) < 1e-6
            checked += 1

    def test_explicit_init_is_honored(self):
        fit = fit_volatility(model_data(), init=Stage1Params(1.0, 1.0, 0.1))
        assert fit.converged
        assert np.max(np.abs(fit.params.as_array() / TRUTH.as_array() - 1.0)) < 1e-6


class TestFitVolOfVol:
    def test_noiseless_pin_beta5(self):
        stage1 = fit_volatility(model_data())
        gauge = GaugeRule.pin_beta5(stage1.params.beta2)
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
        gauge = GaugeRule.pin_beta6(stage1.params.beta1)
        fit = fit_vol_of_vol(model_data(), stage1.params.beta3, gauge)
        assert fit.converged
        assert fit.residual_norm < 1e-10
        assert fit.params.beta6 == stage1.params.beta1
        assert fit.params.beta5 / fit.params.beta4 == pytest.approx(stage1.params.beta2, rel=1e-6)

    def test_free_gauge_carries_warning_and_scale_invariance(self):
        data = model_data()
        fit = fit_vol_of_vol(data, 0.04, GaugeRule.free())
        assert DIAG_GAUGE in fit.diagnostics
        e = np.array(data.excess_returns())
        pib = 1.0 / np.array(data.positions())
        scaled = Stage2Params(fit.params.beta4 * 7, fit.params.beta5 * 7, fit.params.beta6 * 7)
        r = pib - stage2_model(e, scaled, 0.04)
        assert abs(float(r @ r) - fit.residual_norm) < 1e-12

    def test_zero_position_rejected_with_row(self):
        obs = (
            MarketObservation(1.0, 0.05, 0.02),
            MarketObservation(0.0, 0.06, 0.02),
            MarketObservation(1.2, 0.07, 0.02),
            MarketObservation(1.3, 0.08, 0.02),
        )
        with pytest.raises(ValueError, match="zero position at row 1"):
            fit_vol_of_vol(Dataset(observations=obs), 0.04, GaugeRule.free())

    def test_beta3_hat_must_be_positive(self):
        with pytest.raises(ValueError):
            fit_vol_of_vol(model_data(), 0.0, GaugeRule.free())

    def test_pin_gauge_requires_nonzero_value(self):
        with pytest.raises(ValueError):
            GaugeRule.pin_beta5(0.0)
        with pytest.raises(ValueError):
            GaugeRule("pin-beta6", None)
        with pytest.raises(ValueError):
            GaugeRule("free", 1.0)


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
        obs = (
            MarketObservation(1.0, 0.05, 0.02),
            MarketObservation(1.0, 0.02 - 0.039999, 0.02),  # e within 1e-3*beta3 of -beta3
            MarketObservation(1.1, 0.07, 0.02),
            MarketObservation(1.2, 0.08, 0.02),
        )
        data = Dataset(observations=obs)
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
        return a, y, ResidualProblem(lambda p: a @ p - y, lambda p: a, k, n)

    def test_matches_ols_closed_form(self):
        a, y, prob = self._linear_problem()
        beta = np.linalg.solve(a.T @ a, a.T @ y)
        resid = a @ beta - y
        s2 = float(resid @ resid) / (len(y) - 3)
        expected = np.sqrt(np.diag(s2 * np.linalg.inv(a.T @ a)))
        fit = FitResult(params=beta, residual_norm=float(resid @ resid), iterations=1, converged=True)
        got = standard_errors(fit, prob)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_residuals_give_zero_errors(self):
        a, y, _ = self._linear_problem()
        prob = ResidualProblem(lambda p: a @ p - a @ np.ones(3), lambda p: a, 3, 30)
        fit = FitResult(params=np.ones(3), residual_norm=0.0, iterations=1, converged=True)
        assert standard_errors(fit, prob) == pytest.approx((0.0, 0.0, 0.0))

    def test_degenerate_covariance_is_absent_not_numeric(self):
        # third column identically zero
        a = np.column_stack([np.ones(10), np.arange(10.0), np.zeros(10)])
        prob = ResidualProblem(lambda p: a @ p, lambda p: a, 3, 10)
        fit = FitResult(params=np.zeros(3), residual_norm=1.0, iterations=0, converged=True)
        assert standard_errors(fit, prob) is None

    def test_requires_degrees_of_freedom(self):
        a = np.ones((3, 3))
        prob = ResidualProblem(lambda p: a @ p, lambda p: a, 3, 3)
        fit = FitResult(params=np.zeros(3), residual_norm=1.0, iterations=0, converged=True)
        with pytest.raises(ValueError):
            standard_errors(fit, prob)


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

    def test_bit_identical_reports(self):
        spec = GenerationSpec(stage1=TRUTH, n=100, noise=0.02)
        a = monte_carlo_validation(spec, 8, master_seed=99, run_stage2=True)
        b = monte_carlo_validation(spec, 8, master_seed=99, run_stage2=True)
        assert a == b

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
        def pole(*args, **kwargs):
            raise PoleError("forced")

        spec = GenerationSpec(stage1=TRUTH, n=100, noise=0.0)
        assert monte_carlo_validation(spec, 4, master_seed=3).stage2_n_failed is None
        assert monte_carlo_validation(spec, 4, master_seed=3, run_stage2=True).stage2_n_failed == 0
        monkeypatch.setattr(portvol.estimate, "fit_vol_of_vol", pole)
        report = monte_carlo_validation(spec, 4, master_seed=3, run_stage2=True)
        assert report.n_converged == 4
        assert report.stage2_n_converged == 0
        assert report.stage2_n_failed == 4

    def test_structural_reports_scale_comparison(self):
        heston = HestonParams(mu=0.08, r=0.02, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=-0.5, sigma_bar=0.04)
        spec = StructuralSpec(
            heston=heston,
            policy=PolicyCoefficients(1.0, -2.0, 0.5),
            path=PathConfig(horizon=1.0, dt=0.01, seed=0),
            x0=1.0,
        )
        report = monte_carlo_validation(spec, 5, master_seed=17)
        assert report.truth is None
        assert report.bias is None
        assert report.scale is not None
        assert report.scale.sigma_bar == 0.04
        assert report.beta3_mean is not None and report.beta3_mean > 0.0


class TestVolatilityScale:
    def test_comparison_fields(self):
        scale = volatility_scale_comparison(0.05, 0.04)
        assert scale.sqrt_sigma_bar == pytest.approx(0.2)
        assert scale.abs_err_vs_variance == pytest.approx(0.01)
        assert scale.abs_err_vs_volatility == pytest.approx(0.15)
        assert scale.closer_to == "variance"

    def test_volatility_reading(self):
        scale = volatility_scale_comparison(0.19, 0.04)
        assert scale.closer_to == "volatility"
