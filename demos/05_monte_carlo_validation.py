"""Monte Carlo validation of the estimators on synthetic data.

Model-implied replications measure bias, RMSE and interval coverage
against the known generator.  Structural replications (data read off a
simulated wealth path) are refused: every structural row has the same
excess return e = mu - r, which fixes only the level of the stage-1
curve, and stage 1 needs at least 3 distinct e to identify beta3.  The
harness tallies each refusal; structural beta3 stays unidentified until
ROADMAP item 3 (structural data the estimator can identify) lands.
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
for reason, count in sreport.failures:
    print(f"  {count} x {reason}")
print(f"  every structural row has e = mu - r = {heston.mu - heston.r:g}: one distinct e fixes only the")
print("  level of the stage-1 curve, and beta3 needs at least 3, so every replication is refused")
