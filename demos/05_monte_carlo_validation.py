"""Monte Carlo validation of the estimators on synthetic data.

Model-implied replications measure bias, RMSE and interval coverage
against the known generator.  The harness takes model-implied data only:
every row of a structural dataset (data read off a simulated wealth path)
has the same excess return e = mu - r, which fixes only the level of the
stage-1 curve, and stage 1 needs at least 3 distinct e to identify beta3.
So a structural spec is refused before any replication runs; structural
beta3 stays unidentified until ROADMAP item 3 (structural data the
estimator can identify) lands.
"""

from portvol import GenerationSpec, Stage1Params, monte_carlo_validation

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
