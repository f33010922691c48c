"""Stage-2 estimation: vol-of-vol from inverse positions, plus the gauge caveat.

The stage-2 curve beta4*(b3+e)/(beta5*b3 + beta6*e) is unchanged when
(beta4, beta5, beta6) are scaled together, so beta4 alone means nothing
until a gauge pins the scale.  The default convention freezes beta5 at
the stage-1 beta2.  Then gamma_hat = beta2_hat / c5_hat, where
c5 = beta5/beta4 is the ratio the data identify: two estimates of the same
beta2, so gamma_hat is about 1 by construction, not a vol-of-vol finding.
The correlation factor then follows by inverting
beta2 = -rho * gamma * (alpha2/alpha1) with a user-supplied alpha ratio.
"""

import numpy as np

from portvol import (
    GaugeRule,
    GenerationSpec,
    Stage1Params,
    Stage2Params,
    estimate_rho,
    fit_vol_of_vol,
    fit_volatility,
    generate_synthetic_dataset,
    stage2_model,
)

truth = Stage1Params(2.0, 0.5, 0.04)
data = generate_synthetic_dataset("model-implied", GenerationSpec(stage1=truth, n=200), seed=42)

stage1 = fit_volatility(data)
beta3_hat = stage1.params.beta3
print(f"stage-1 volatility estimate beta3 = {beta3_hat:.6f}")

# Pinned gauge: beta5 frozen at the fitted beta2.
pinned = fit_vol_of_vol(data, beta3_hat, GaugeRule.from_stage1("pin-beta5", stage1))
print("\npin-beta5 gauge:")
print(f"  (beta4, beta5, beta6) = {pinned.params.as_array()}")
print(f"  gamma_hat = beta4 = {pinned.params.beta4:.6f}")
print("  (= beta2_hat / c5_hat, about 1 by construction under this gauge)")
print(f"  beta6/beta4 = {pinned.params.beta6 / pinned.params.beta4:.6f} (matches stage-1 beta1)")
print(f"  diagnostics: {sorted(pinned.diagnostics) or 'none'}")

# Free gauge: the identified ratios (1, c5, c6), flagged as unidentified in scale.
free = fit_vol_of_vol(data, beta3_hat, GaugeRule("free"))
print("\nfree gauge:")
print(f"  (beta4, beta5, beta6) = {free.params.as_array()}")
print(f"  diagnostics: {sorted(free.diagnostics)}")
e = data.e
pib = 1.0 / data.pi_star
scaled = Stage2Params(free.params.beta4 * 7, free.params.beta5 * 7, free.params.beta6 * 7)
ssr_scaled = float(np.sum((pib - stage2_model(e, scaled, beta3_hat)) ** 2))
print(f"  residual norm, fitted vs scaled x7: {free.residual_norm:.3e} vs {ssr_scaled:.3e}")

# Correlation factor, given the marginal-value ratio alpha2/alpha1.
alpha_ratio = -0.25
rho = estimate_rho(stage1.params.beta2, pinned.params.beta4, alpha_ratio)
print(f"\nrho_hat = {rho.rho_hat:+.4f} (alpha2/alpha1 = {alpha_ratio})")
print(f"diagnostics: {sorted(rho.diagnostics) or 'none'}")
print("note: out-of-range values are reported with RHO_OUT_OF_RANGE, never clamped")
