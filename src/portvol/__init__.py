"""Portfolio volatility and volatility-of-volatility estimation.

The library estimates a portfolio's volatility and its volatility of
volatility from observed risky positions and rates of return, using two
nonlinear regressions implied by an HJB-optimal position rule under
square-root stochastic variance.  A path simulator for the same dynamics
generates synthetic data for validating the estimators.

Typical flow::

    from portvol import (
        GenerationSpec, Stage1Params, GaugeRule,
        generate_synthetic_dataset, fit_volatility, fit_vol_of_vol,
    )

    spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=200, noise=0.01)
    data = generate_synthetic_dataset("model-implied", spec, seed=7)
    stage1 = fit_volatility(data)
    gauge = GaugeRule.from_stage1("pin-beta5", stage1)
    stage2 = fit_vol_of_vol(data, stage1.params.beta3, gauge)
"""

from .model import (
    Dataset,
    FitResult,
    HestonParams,
    MarketObservation,
    PolicyCoefficients,
    Stage1Params,
    Stage2Params,
)
from .nls import (
    PoleError,
    ResidualProblem,
    lm_fit,
    stage1_jacobian,
    stage1_model,
    stage2_jacobian,
    stage2_model,
)
from .simulate import (
    GenerationSpec,
    PathConfig,
    SimPath,
    StructuralSpec,
    cir_mean,
    generate_synthetic_dataset,
    market_path_from_normals,
    optimal_policy,
    simulate_market_path,
    simulate_variance_batch,
    simulate_variance_path,
    simulate_wealth_path,
    variance_path_from_normals,
)
from .estimate import (
    GaugeRule,
    RhoEstimate,
    ValidationReport,
    estimate_rho,
    fit_vol_of_vol,
    fit_volatility,
    identifiability_diagnostics,
    monte_carlo_validation,
    standard_errors,
)
from .data_io import RunConfig, parse_config, read_dataset, write_dataset, write_report

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FitResult",
    "GaugeRule",
    "GenerationSpec",
    "HestonParams",
    "MarketObservation",
    "PathConfig",
    "PoleError",
    "PolicyCoefficients",
    "ResidualProblem",
    "RhoEstimate",
    "RunConfig",
    "SimPath",
    "Stage1Params",
    "Stage2Params",
    "StructuralSpec",
    "ValidationReport",
    "cir_mean",
    "estimate_rho",
    "fit_vol_of_vol",
    "fit_volatility",
    "generate_synthetic_dataset",
    "identifiability_diagnostics",
    "lm_fit",
    "market_path_from_normals",
    "monte_carlo_validation",
    "optimal_policy",
    "parse_config",
    "read_dataset",
    "simulate_market_path",
    "simulate_variance_batch",
    "simulate_variance_path",
    "simulate_wealth_path",
    "stage1_jacobian",
    "stage1_model",
    "stage2_jacobian",
    "stage2_model",
    "standard_errors",
    "variance_path_from_normals",
    "write_dataset",
    "write_report",
]
