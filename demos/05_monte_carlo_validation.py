"""Monte Carlo validation of the estimators on synthetic data.

Model-implied replications measure bias, RMSE and interval coverage
against the known generator.  Structural replications (data read off a
simulated wealth path) have no true beta vector; there the harness
reports the fitted beta3 against both readings of the initial variance.
On this design that comparison is not a finding yet: every structural
row has the same excess return e = mu - r, which identifies only the
level of the stage-1 curve, so each fit "converges" to the bottom of
its start grid, beta3 = 0.06*exp(-8) ~ 2.0e-05, whatever the variance.
Structural beta3 is not identified until ROADMAP item 3 (structural
data the estimator can identify) lands.
"""

from portvol import (
    GenerationSpec,
    HestonParams,
    PathConfig,
    PolicyCoefficients,
    Stage1Params,
    StructuralSpec,
    monte_carlo_validation,
)

truth = Stage1Params(2.0, 0.5, 0.04)
spec = GenerationSpec(stage1=truth, n=500, noise=0.01)
report = monte_carlo_validation(spec, replications=100, master_seed=2024, run_stage2=True)

print(f"model-implied validation, {report.replications} replications:")
print(f"  convergence rate = {report.convergence_rate:.2f}")
for i, name in enumerate(report.param_names):
    print(
        f"  {name}: bias = {report.bias[i]:+.2e}, rmse = {report.rmse[i]:.2e}, "
        f"95% coverage = {report.coverage[i]}/{report.coverage_evaluated}"
    )
print(f"  stage-2 gamma_hat mean (pin-beta5 gauge) = {report.stage2_gamma_mean:.4f}")
print("  (on model-implied data the pinned gamma_hat has no link to a true gamma;")
print("   the scale is a convention, which is the point of the gauge machinery)")

heston = HestonParams(mu=0.08, r=0.02, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=-0.5, sigma_bar=0.04)
structural = StructuralSpec(
    heston=heston,
    policy=PolicyCoefficients(1.0, -2.0, 0.5),
    path=PathConfig(horizon=1.0, dt=1 / 250, seed=0),
    x0=1.0,
)
sreport = monte_carlo_validation(structural, replications=20, master_seed=5)
print(f"\nstructural validation, {sreport.replications} replications:")
print(f"  convergence rate = {sreport.convergence_rate:.2f}")
print(f"  mean beta3 = {sreport.beta3_mean:.6f}")
scale = sreport.scale
print(f"  |beta3 - sigma_bar|       = {scale.abs_err_vs_variance:.6f}   (sigma_bar = {scale.sigma_bar})")
print(f"  |beta3 - sqrt(sigma_bar)| = {scale.abs_err_vs_volatility:.6f}   (sqrt = {scale.sqrt_sigma_bar})")
print(f"  closer_to = {scale.closer_to}, but this is not a finding: every structural row has one")
print("  e = mu - r, so stage 1 fits only the level and beta3 is the bottom of its start grid,")
print("  0.06*exp(-8); structural beta3 is not identified until ROADMAP item 3 lands")
