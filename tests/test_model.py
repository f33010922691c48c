"""Constructor invariants and validation reporting for the domain types."""

import math

import numpy as np
import pytest

from portvol import (
    Dataset,
    FitResult,
    HestonParams,
    MarketObservation,
    PolicyCoefficients,
    Stage1Params,
    Stage2Params,
    validate_heston_params,
)


def valid_heston(**overrides):
    kw = dict(mu=0.08, r=0.02, alpha=0.04, beta_rev=2.0, gamma=0.3, rho=-0.5, sigma_bar=0.04)
    kw.update(overrides)
    return HestonParams(**kw)


class TestHestonValidation:
    def test_valid_set_reports_no_violations_and_feller_false(self):
        # 2*0.04 = 0.08 < 0.3**2 = 0.09, so the Feller flag is off.
        report = validate_heston_params(0.08, 0.02, 0.04, 2.0, 0.3, -0.5, 0.04)
        assert report.ok()
        assert report.violations == ()
        assert report.feller_ok is False

    def test_rho_at_boundary_is_a_violation(self):
        report = validate_heston_params(0.08, 0.02, 0.04, 2.0, 0.3, 1.0, 0.04)
        assert "|rho| must be < 1" in report.violations

    def test_zero_gamma_gives_feller_true(self):
        report = validate_heston_params(0.08, 0.02, 0.04, 2.0, 0.0, -0.5, 0.04)
        assert report.ok()
        assert report.feller_ok is True

    def test_constructor_matches_report(self):
        p = valid_heston()
        assert p.validation().ok()
        assert p.feller_ok is False
        assert p.mean_reversion_level == pytest.approx(0.02)

    def test_feller_is_diagnostic_not_rejection(self):
        # 2*alpha < gamma**2 must still construct.
        p = valid_heston(alpha=0.01, gamma=0.5)
        assert not p.feller_ok


class TestConstructorRejections:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"rho": 1.0},
            {"rho": -1.0},
            {"rho": 1.5},
            {"gamma": -0.1},
            {"beta_rev": 0.0},
            {"beta_rev": -2.0},
            {"sigma_bar": -1e-9},
            {"alpha": -0.01},
            {"mu": math.nan},
            {"sigma_bar": math.inf},
        ],
    )
    def test_heston_invalid_fields(self, overrides):
        with pytest.raises(ValueError):
            valid_heston(**overrides)

    @pytest.mark.parametrize("alpha1", [0.0, 1.0, 2.5, math.nan])
    def test_policy_alpha1_must_be_negative(self, alpha1):
        with pytest.raises(ValueError):
            PolicyCoefficients(1.0, alpha1, 0.5)

    @pytest.mark.parametrize("field", ["pi_star", "mu", "r"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_observation_fields_must_be_finite(self, field, bad):
        kw = dict(pi_star=1.0, mu=0.05, r=0.02)
        kw[field] = bad
        with pytest.raises(ValueError):
            MarketObservation(**kw)

    def test_observation_allows_zero_position(self):
        # Zero positions are legal rows; only the inverse-position fit rejects them.
        obs = MarketObservation(pi_star=0.0, mu=0.05, r=0.02)
        assert obs.excess_return == pytest.approx(0.03)

    @pytest.mark.parametrize("beta3", [0.0, -0.04, math.nan])
    def test_stage1_beta3_positive(self, beta3):
        with pytest.raises(ValueError):
            Stage1Params(2.0, 0.5, beta3)

    @pytest.mark.parametrize("beta4", [-1e-12, -1.0, math.nan])
    def test_stage2_beta4_nonnegative(self, beta4):
        with pytest.raises(ValueError):
            Stage2Params(beta4, 0.5, 2.0)

    def test_stage2_zero_beta4_allowed(self):
        assert Stage2Params(0.0, 0.5, 2.0).beta4 == 0.0

    def test_random_invalid_draws_all_rejected(self):
        # Property sweep: corrupt one field of an otherwise valid draw.
        rng = np.random.default_rng(7)
        corruptions = [
            ("rho", lambda r: r.choice([-1.0, 1.0]) * r.uniform(1.0, 3.0)),
            ("gamma", lambda r: -r.uniform(1e-6, 2.0)),
            ("beta_rev", lambda r: -r.uniform(0.0, 2.0)),
            ("sigma_bar", lambda r: -r.uniform(1e-9, 1.0)),
            ("alpha", lambda r: -r.uniform(1e-9, 1.0)),
        ]
        for _ in range(200):
            name, make_bad = corruptions[rng.integers(len(corruptions))]
            with pytest.raises(ValueError):
                valid_heston(**{name: float(make_bad(rng))})


class TestDataset:
    def test_modes_are_restricted(self):
        obs = (MarketObservation(1.0, 0.05, 0.02),)
        with pytest.raises(ValueError):
            Dataset(observations=obs, mode="panel")

    def test_small_datasets_construct(self):
        # The 4-row minimum applies to fitting, not construction.
        obs = tuple(MarketObservation(1.0, 0.05, 0.02) for _ in range(3))
        data = Dataset(observations=obs)
        assert data.n_rows == 3

    def test_accessors(self):
        obs = (
            MarketObservation(1.5, 0.07, 0.02, label="a"),
            MarketObservation(-0.5, 0.03, 0.02, label="b"),
        )
        data = Dataset(observations=obs, mode="time-series")
        assert data.excess_returns() == pytest.approx([0.05, 0.01])
        assert data.positions() == pytest.approx([1.5, -0.5])

    def test_frozen(self):
        data = Dataset(observations=(MarketObservation(1.0, 0.05, 0.02),))
        with pytest.raises(AttributeError):
            data.mode = "time-series"

    def test_columns_are_read_only_copies(self):
        pi = np.array([1.0, 2.0])
        data = Dataset(pi_star=pi, mu=[0.05, 0.06], r=[0.02, 0.02])
        pi[0] = 9.0
        assert data.pi_star.tolist() == [1.0, 2.0]
        for column in (data.pi_star, data.mu, data.r, data.e):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.0
        with pytest.raises(AttributeError):
            data.pi_star = np.zeros(2)

    def test_excess_return_is_mu_minus_r(self):
        data = Dataset(pi_star=[1.0, 2.0], mu=[0.07, 0.03], r=[0.02, 0.01])
        assert data.e.tolist() == [0.07 - 0.02, 0.03 - 0.01]

    @pytest.mark.parametrize(
        "columns",
        [
            {"pi_star": [1.0, 2.0], "mu": [0.05], "r": [0.02, 0.02]},
            {"pi_star": [1.0], "mu": [0.05], "r": [0.02], "labels": ("a", "b")},
        ],
    )
    def test_unequal_lengths_rejected(self, columns):
        with pytest.raises(ValueError, match="differ in length"):
            Dataset(**columns)

    @pytest.mark.parametrize("name", ["pi_star", "mu", "r"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_column_and_row(self, name, bad):
        columns = {"pi_star": [1.0, 1.1, 1.2], "mu": [0.05, 0.06, 0.07], "r": [0.02, 0.02, 0.02]}
        columns[name][1] = bad
        columns[name][2] = bad
        with pytest.raises(ValueError, match=rf"{name} must be finite \(first bad row 1\)"):
            Dataset(**columns)

    @pytest.mark.parametrize("pi_star", [["1.0"], [None], [[1.0]]])
    def test_non_numeric_column_rejected(self, pi_star):
        with pytest.raises(ValueError, match="pi_star must be a one-dimensional numeric column"):
            Dataset(pi_star=pi_star, mu=[0.05], r=[0.02])

    def test_equality_compares_values(self):
        kw = dict(pi_star=[1.0, 2.0], mu=[0.05, 0.06], r=[0.02, 0.02])
        a = Dataset(**kw)
        assert a == Dataset(**{k: np.array(v) for k, v in kw.items()})
        assert a != Dataset(**{**kw, "pi_star": [1.0, 2.5]})
        assert a != Dataset(**kw, labels=("x", "y"))
        assert a != Dataset(**kw, source="file.csv")
        assert a != Dataset(**kw, mode="time-series")
        assert a != kw

    def test_observations_and_columns_agree(self):
        rows = (
            MarketObservation(1.5, 0.07, 0.02, label="a"),
            MarketObservation(-0.5, 0.03, 0.02),
        )
        from_rows = Dataset(observations=rows, mode="time-series")
        from_columns = Dataset(
            pi_star=[1.5, -0.5], mu=[0.07, 0.03], r=[0.02, 0.02], labels=("a", None), mode="time-series"
        )
        assert from_rows == from_columns
        assert from_rows.observations == rows
        assert from_columns.observations == rows
        assert Dataset(observations=rows[1:]).labels is None

    def test_observations_exclude_columns(self):
        with pytest.raises(TypeError):
            Dataset(observations=(MarketObservation(1.0, 0.05, 0.02),), pi_star=[1.0])
        with pytest.raises(TypeError):
            Dataset(pi_star=[1.0], mu=[0.05])


class TestFitResult:
    def test_rejects_negative_residual_norm(self):
        with pytest.raises(ValueError):
            FitResult(params=np.zeros(3), residual_norm=-1.0, iterations=0, converged=True)

    def test_rejects_non_decreasing_trace(self):
        with pytest.raises(ValueError):
            FitResult(
                params=np.zeros(2),
                residual_norm=1.0,
                iterations=2,
                converged=False,
                trace=(((0.0, 0.0), 1.0), ((0.1, 0.1), 1.0)),
            )

    def test_rejects_negative_standard_errors(self):
        with pytest.raises(ValueError):
            FitResult(
                params=np.zeros(2),
                residual_norm=0.0,
                iterations=0,
                converged=True,
                standard_errors=(0.1, -0.1),
            )

    def test_diagnostics_normalized_to_frozenset(self):
        fr = FitResult(params=np.zeros(2), residual_norm=0.0, iterations=0, converged=True,
                       diagnostics={"A", "B"})
        assert isinstance(fr.diagnostics, frozenset)
