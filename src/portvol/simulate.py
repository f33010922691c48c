"""Path simulation for the wealth model and synthetic data generation.

Dynamics simulated here:

* variance: ``dv = (alpha - beta_rev*v) ds + gamma*sqrt(v) dW2``,
  discretized by full-truncation Euler (drift and diffusion evaluate at
  ``max(v, 0)`` and the stored value is floored at 0, so every grid
  value is nonnegative regardless of the Feller condition);
* price: ``dS = S (mu ds + sqrt(v) dW1)``, discretized in log space so
  prices stay positive;
* wealth: ``dX = (r X + (mu - r) pi) ds + pi sqrt(v) dW1`` under the
  linearized optimal-position rule.

Correlation convention: the variance path is driven by ``Z2`` directly
and the price path by ``rho*Z2 + sqrt(1 - rho**2)*Z1``, so ``rho``
correlates price and variance shocks.

Randomness is counter-based and splittable: draw streams are keyed by
``(seed, path_index, role)`` through ``SeedSequence`` spawn keys on a
Philox generator (role 0 = variance, role 1 = price).  A path therefore
never depends on how many other paths are simulated, or in what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, HestonParams, PolicyCoefficients, Stage1Params
from .nls import _stage1_value

__all__ = [
    "PathConfig",
    "SimPath",
    "GenerationSpec",
    "StructuralSpec",
    "cir_mean",
    "optimal_policy",
    "simulate_variance_path",
    "simulate_variance_batch",
    "simulate_market_path",
    "simulate_wealth_path",
    "variance_path_from_normals",
    "market_path_from_normals",
    "generate_synthetic_dataset",
]

# Variance floor used only when the policy is evaluated at a truncated
# (exactly zero) grid value; keeps the division by sigma_bar total.
POLICY_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class PathConfig:
    """Time grid and stream addressing for one simulation run.

    The grid has ``ceil(horizon / dt)`` steps of size ``dt``; when
    ``horizon`` is not an exact multiple the final step is shortened so
    the grid ends exactly at ``horizon``.
    """

    horizon: float
    dt: float
    seed: int
    n_paths: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be finite and > 0")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and > 0")
        if not self.dt < self.horizon:
            raise ValueError("dt must be < horizon")
        if not (isinstance(self.n_paths, int) and self.n_paths >= 1):
            raise ValueError("n_paths must be an integer >= 1")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def n_steps(self) -> int:
        # The 1e-12 fuzz keeps float noise in horizon/dt from adding a
        # spurious final step when the ratio is an exact integer.
        return max(1, math.ceil(self.horizon / self.dt - 1e-12))

    def times(self) -> np.ndarray:
        n = self.n_steps
        t = np.empty(n + 1)
        t[:n] = self.dt * np.arange(n)
        t[n] = self.horizon
        return t


@dataclass(frozen=True)
class SimPath:
    """One simulated path on a common time grid.

    ``wealth`` and ``policy`` are filled only when a position rule was
    applied (see :func:`simulate_wealth_path`).
    """

    times: np.ndarray
    variance: np.ndarray
    price: np.ndarray
    wealth: np.ndarray | None = None
    policy: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.times)
        for name in ("variance", "price", "wealth", "policy"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise ValueError(f"SimPath field {name} has length {len(arr)}, expected {n}")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("SimPath times must be strictly increasing")
        if np.any(self.variance < 0.0):
            raise ValueError("SimPath variance must be nonnegative")
        if np.any(self.price <= 0.0):
            raise ValueError("SimPath price must be positive")
        for name in ("times", "variance", "price", "wealth", "policy"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"SimPath field {name} contains non-finite values")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def risk_free_holding(self) -> np.ndarray:
        """Cash allocation ``X - pi`` per grid point (requires wealth and policy)."""
        if self.wealth is None or self.policy is None:
            raise ValueError("risk_free_holding requires wealth and policy")
        return self.wealth - self.policy


def _stream(seed: int, path_index: int, role: int) -> np.random.Generator:
    """Deterministic normal stream for (seed, path_index, role)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index, role))
    return np.random.Generator(np.random.Philox(ss))


def _step_sizes(cfg: PathConfig) -> np.ndarray:
    return np.diff(cfg.times())


def cir_mean(p: HestonParams, s: float) -> float:
    """Expected variance after elapsed time ``s``.

    Closed form of the mean of the square-root variance process:
    ``alpha/beta_rev + (sigma_bar - alpha/beta_rev) * exp(-beta_rev*s)``.
    Used as an independent check on the Euler scheme.
    """
    if s < 0.0:
        raise ValueError("elapsed time must be >= 0")
    level = p.alpha / p.beta_rev
    return level + (p.sigma_bar - level) * math.exp(-p.beta_rev * s)


def variance_path_from_normals(p: HestonParams, dts: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Full-truncation Euler variance path driven by explicit normals.

    ``z2`` has one standard normal per step (last axis); leading axes
    batch independent paths.  Returns an array with one more grid point
    than steps, starting at ``sigma_bar``.
    """
    z2 = np.asarray(z2, dtype=float)
    dts = np.asarray(dts, dtype=float)
    n = dts.shape[0]
    if z2.shape[-1] != n:
        raise ValueError(f"z2 last axis has length {z2.shape[-1]}, expected {n}")
    out = np.empty(z2.shape[:-1] + (n + 1,))
    v = np.full(z2.shape[:-1], float(p.sigma_bar))
    out[..., 0] = v
    sqrt_dts = np.sqrt(dts)
    for k in range(n):
        vp = np.maximum(v, 0.0)
        raw = v + (p.alpha - p.beta_rev * vp) * dts[k] + p.gamma * np.sqrt(vp) * sqrt_dts[k] * z2[..., k]
        v = np.maximum(raw, 0.0)
        out[..., k + 1] = v
    if not np.all(np.isfinite(out)):
        raise ValueError("variance path became non-finite; dt is too large for the parameter scale")
    return out


def market_path_from_normals(
    p: HestonParams, times: np.ndarray, z1: np.ndarray, z2: np.ndarray
) -> SimPath:
    """Joint variance and log-Euler price path from explicit normal draws.

    ``z1`` drives the price-specific shock and ``z2`` the variance; the
    price Brownian increment is ``sqrt(dt) * (rho*z2 + sqrt(1-rho**2)*z1)``.
    Exposed so experiments can share or aggregate increments across grid
    resolutions.
    """
    times = np.asarray(times, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    dts = np.diff(times)
    n = dts.shape[0]
    if z1.shape != (n,) or z2.shape != (n,):
        raise ValueError(f"z1 and z2 must have shape ({n},)")
    variance = variance_path_from_normals(p, dts, z2)
    dw1 = np.sqrt(dts) * (p.rho * z2 + math.sqrt(1.0 - p.rho**2) * z1)
    v_left = variance[:-1]
    dlog = (p.mu - 0.5 * v_left) * dts + np.sqrt(v_left) * dw1
    log_price = np.concatenate([[0.0], np.cumsum(dlog)])
    with np.errstate(over="ignore"):
        price = np.exp(log_price)
    if not (np.all(np.isfinite(log_price)) and np.all(np.isfinite(price))):
        raise ValueError("price path became non-finite; dt is too large for the parameter scale")
    return SimPath(times=times, variance=variance, price=price)


def simulate_variance_path(p: HestonParams, c: PathConfig, path_index: int = 0) -> np.ndarray:
    """Variance path for one stream index, one value per grid point."""
    if not 0 <= path_index < c.n_paths:
        raise ValueError(f"path_index {path_index} out of range for n_paths={c.n_paths}")
    z2 = _stream(c.seed, path_index, 0).standard_normal(c.n_steps)
    return variance_path_from_normals(p, _step_sizes(c), z2)


def simulate_variance_batch(p: HestonParams, c: PathConfig, path_indices=None) -> np.ndarray:
    """Variance paths for several stream indices, stacked row-wise.

    Each row is bit-identical to ``simulate_variance_path`` for the same
    index, so ensembles can be processed in chunks of any size.  Memory
    is ``len(path_indices) * (n_steps + 1)`` floats; chunk accordingly.
    """
    if path_indices is None:
        path_indices = range(c.n_paths)
    idx = list(path_indices)
    for i in idx:
        if not 0 <= i < c.n_paths:
            raise ValueError(f"path_index {i} out of range for n_paths={c.n_paths}")
    n = c.n_steps
    z2 = np.empty((len(idx), n))
    for row, i in enumerate(idx):
        z2[row] = _stream(c.seed, i, 0).standard_normal(n)
    return variance_path_from_normals(p, _step_sizes(c), z2)


def simulate_market_path(p: HestonParams, c: PathConfig, path_index: int = 0) -> SimPath:
    """Correlated variance and price path for one stream index.

    The variance values equal ``simulate_variance_path`` for the same
    ``(seed, path_index)`` because the two roles draw from separate
    streams.  The price starts at 1.
    """
    if not 0 <= path_index < c.n_paths:
        raise ValueError(f"path_index {path_index} out of range for n_paths={c.n_paths}")
    n = c.n_steps
    z2 = _stream(c.seed, path_index, 0).standard_normal(n)
    z1 = _stream(c.seed, path_index, 1).standard_normal(n)
    return market_path_from_normals(p, c.times(), z1, z2)


def optimal_policy(
    x: float, sigma_bar: float, coeffs: PolicyCoefficients, p: HestonParams
) -> float:
    """Risky position under the linearized marginal-value rule.

    Evaluates
    ``-(mu - r) * (alpha0 + alpha1*x + alpha2*sigma_bar) / (sigma_bar * alpha1)
    - rho * gamma * alpha2 / alpha1``
    at instantaneous variance ``sigma_bar``.
    """
    if not sigma_bar > 0.0:
        raise ValueError("sigma_bar must be > 0")
    if coeffs.alpha1 == 0.0:
        raise ValueError("alpha1 must be nonzero")
    v_x = coeffs.alpha0 + coeffs.alpha1 * x + coeffs.alpha2 * sigma_bar
    hedging = p.rho * p.gamma * coeffs.alpha2 / coeffs.alpha1
    return -(p.mu - p.r) * v_x / (sigma_bar * coeffs.alpha1) - hedging


def simulate_wealth_path(
    market: SimPath, coeffs: PolicyCoefficients, p: HestonParams, x0: float
) -> SimPath:
    """Euler wealth path under the linearized rule, on a given market path.

    The wealth diffusion reuses the market path's own price shocks: with
    the log-Euler price scheme, ``sqrt(v_k)*dW1_k`` equals
    ``dlog(S_k) - (mu - v_k/2)*dt_k`` identically, so no separate draws
    are needed and the coupling is exact.  The policy at a truncated
    (zero-variance) grid point is evaluated at ``POLICY_VARIANCE_FLOOR``.
    """
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    times = market.times
    v = market.variance
    dts = np.diff(times)
    dlog = np.diff(np.log(market.price))
    n = len(dts)
    wealth = np.empty(n + 1)
    policy = np.empty(n + 1)
    x = float(x0)
    wealth[0] = x
    for k in range(n):
        vk = v[k]
        pi_k = optimal_policy(x, max(vk, POLICY_VARIANCE_FLOOR), coeffs, p)
        policy[k] = pi_k
        diffusion = dlog[k] - (p.mu - 0.5 * vk) * dts[k]
        x = x + (p.r * x + (p.mu - p.r) * pi_k) * dts[k] + pi_k * diffusion
        wealth[k + 1] = x
    policy[n] = optimal_policy(x, max(v[n], POLICY_VARIANCE_FLOOR), coeffs, p)
    if not (np.all(np.isfinite(wealth)) and np.all(np.isfinite(policy))):
        raise ValueError("wealth path became non-finite; dt is too large for the parameter scale")
    return SimPath(
        times=times, variance=market.variance, price=market.price, wealth=wealth, policy=policy
    )


@dataclass(frozen=True)
class GenerationSpec:
    """Model-implied synthetic data: positions drawn from the stage-1 curve.

    Rows get excess returns uniform on ``e_interval``, positions equal to
    the stage-1 model value plus centered Gaussian noise, and a common
    risk-free rate ``base_rate`` (so ``mu = base_rate + e``).  The
    interval must exclude the model pole at ``-beta3``.
    """

    stage1: Stage1Params
    n: int
    noise: float = 0.0
    e_interval: tuple[float, float] = (0.01, 0.10)
    base_rate: float = 0.02

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be an integer >= 1")
        if not (math.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError("noise must be finite and >= 0")
        lo, hi = self.e_interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("e_interval must be a finite (low, high) pair with low < high")
        if lo <= -self.stage1.beta3 <= hi:
            raise ValueError("e_interval contains the model pole at -beta3")
        if not math.isfinite(self.base_rate):
            raise ValueError("base_rate must be finite")


@dataclass(frozen=True)
class StructuralSpec:
    """Structural synthetic data: one row per grid point of a wealth path."""

    heston: HestonParams
    policy: PolicyCoefficients
    path: PathConfig
    x0: float

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")


def generate_synthetic_dataset(mode: str, spec, seed: int) -> Dataset:
    """Build a synthetic observation set for estimator validation.

    ``mode`` is ``"model-implied"`` (rows sampled from the stage-1 curve,
    cross-section) or ``"structural"`` (rows read off a simulated wealth
    path, time series).  Identical ``(mode, spec, seed)`` always yields
    an identical dataset.
    """
    if mode == "model-implied":
        if not isinstance(spec, GenerationSpec):
            raise TypeError("model-implied generation requires a GenerationSpec")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
        lo, hi = spec.e_interval
        e = rng.uniform(lo, hi, spec.n)
        b = spec.stage1
        pi = _stage1_value(e, b.beta1, b.beta2, b.beta3)
        if spec.noise > 0.0:
            pi = pi + spec.noise * rng.standard_normal(spec.n)
        return Dataset(
            pi_star=pi,
            mu=spec.base_rate + e,
            r=np.full(spec.n, spec.base_rate),
            source="synthetic:model-implied",
            mode="cross-section",
        )
    if mode == "structural":
        if not isinstance(spec, StructuralSpec):
            raise TypeError("structural generation requires a StructuralSpec")
        cfg = replace(spec.path, seed=seed)
        market = simulate_market_path(spec.heston, cfg, path_index=0)
        path = simulate_wealth_path(market, spec.policy, spec.heston, spec.x0)
        n = len(path.times)
        return Dataset(
            pi_star=path.policy,
            mu=np.full(n, spec.heston.mu),
            r=np.full(n, spec.heston.r),
            labels=tuple(map(str, range(n))),
            source="synthetic:structural",
            mode="time-series",
        )
    raise ValueError(f"unknown generation mode {mode!r}")
