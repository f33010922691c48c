"""Simulate square-root variance and log-Euler price paths.

Shows the Euler scheme absorbed at 0 staying nonnegative even when the
Feller condition fails, and checks the Monte Carlo mean of the terminal
variance against the closed-form expectation.
"""

import numpy as np

from portvol import HestonParams, PathConfig, cir_mean, simulate_market_path, simulate_variance_batch

params = HestonParams(mu=0.08, r=0.02, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=-0.5, sigma_bar=0.02)
config = PathConfig(horizon=1.0, dt=1e-3, seed=42, n_paths=20_000)

print(f"Feller condition (2*alpha >= gamma^2): {params.feller_ok}")
print(f"long-run variance level alpha/beta_rev = {params.mean_reversion_level}")

# One correlated market path: variance and price on the same grid.
path = simulate_market_path(params, config, path_index=0)
print(f"\nsingle path: {len(path.times)} grid points")
print(f"  terminal variance = {path.variance[-1]:.6f}")
print(f"  terminal price    = {path.price[-1]:.6f}  (started at 1)")
print(f"  min variance along the path = {path.variance.min():.6f}")

# Ensemble check: the sample mean of v_T converges to the closed form.
terminal = simulate_variance_batch(params, config)[:, -1]
expected = cir_mean(params, config.horizon)
se = terminal.std(ddof=1) / np.sqrt(config.n_paths)
print(f"\nmean of v_T over {config.n_paths} paths = {terminal.mean():.6f}")
print(f"closed-form expectation             = {expected:.6f}")
print(f"difference in MC standard errors    = {(terminal.mean() - expected) / se:+.2f}")

# Absorption at 0 keeps every grid value nonnegative even without Feller.
rough = HestonParams(mu=0.0, r=0.0, alpha=0.01, beta_rev=1.0, gamma=0.5, rho=0.0, sigma_bar=0.04)
block = simulate_variance_batch(rough, PathConfig(horizon=1.0, dt=1e-3, seed=7, n_paths=2_000))
print(f"\nFeller-violating set: Feller={rough.feller_ok}, "
      f"min grid value = {block.min()}, zero-floored steps = {(block == 0).sum()}")
