"""Domain types shared across the library.

Every container is immutable and validates its invariants on
construction, so a held instance is always safe to share between threads.
Parameter sets and results are frozen dataclasses; a :class:`Dataset`
holds its rows as read-only float64 columns.
Quantities follow the wealth-model conventions used throughout:

* ``sigma_bar`` is the instantaneous *variance* of the risky asset
  (the quadratic wealth term in the optimality condition carries
  ``pi**2 * sigma_bar``); take ``sqrt(sigma_bar)`` for a volatility.
* ``pi_star`` is a position in currency units, not a weight.
* The excess return ``e = mu - r`` is the regressor of both fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class HestonValidation:
    """Outcome of validating a Heston-type parameter set.

    ``violations`` is empty iff the parameters are constructible;
    ``feller_ok`` reports whether ``2*alpha >= gamma**2`` holds, which
    keeps the continuous-time variance strictly positive.  The flag is
    diagnostic only: the full-truncation scheme is well defined without it.
    """

    violations: tuple[str, ...]
    feller_ok: bool

    def ok(self) -> bool:
        return not self.violations


def validate_heston_params(
    mu: float,
    r: float,
    alpha: float,
    beta_rev: float,
    gamma: float,
    rho: float,
    sigma_bar: float,
) -> HestonValidation:
    """Check a candidate Heston parameter set without constructing it.

    Returns a report rather than raising, so callers can surface every
    violation at once (the ``HestonParams`` constructor rejects on any).
    """
    violations: list[str] = []
    for name, value in (
        ("mu", mu),
        ("r", r),
        ("alpha", alpha),
        ("beta_rev", beta_rev),
        ("gamma", gamma),
        ("rho", rho),
        ("sigma_bar", sigma_bar),
    ):
        if not _finite(value):
            violations.append(f"{name} must be finite")
    if _finite(rho) and not abs(rho) < 1.0:
        violations.append("|rho| must be < 1")
    if _finite(gamma) and gamma < 0.0:
        violations.append("gamma must be >= 0")
    if _finite(beta_rev) and beta_rev <= 0.0:
        violations.append("beta_rev must be > 0")
    if _finite(sigma_bar) and sigma_bar < 0.0:
        violations.append("sigma_bar must be >= 0")
    if _finite(alpha) and alpha < 0.0:
        violations.append("alpha must be >= 0")
    feller_ok = _finite(alpha) and _finite(gamma) and 2.0 * alpha >= gamma * gamma
    return HestonValidation(tuple(violations), feller_ok)


@dataclass(frozen=True)
class HestonParams:
    """Market and variance-process constants.

    Parameters
    ----------
    mu : float
        Drift rate of the risky asset per unit time.
    r : float
        Risk-free rate per unit time.
    alpha : float
        Mean-reversion level scale of the variance drift ``alpha - beta_rev*v``.
    beta_rev : float
        Mean-reversion speed (> 0).
    gamma : float
        Volatility of volatility (>= 0), per unit time**0.5.
    rho : float
        Correlation between the price and variance Brownian drivers, |rho| < 1.
    sigma_bar : float
        Initial instantaneous variance (>= 0).
    """

    mu: float
    r: float
    alpha: float
    beta_rev: float
    gamma: float
    rho: float
    sigma_bar: float

    def __post_init__(self):
        report = self.validation()
        if report.violations:
            raise ValueError("invalid HestonParams: " + "; ".join(report.violations))

    def validation(self) -> HestonValidation:
        return validate_heston_params(
            self.mu, self.r, self.alpha, self.beta_rev, self.gamma, self.rho, self.sigma_bar
        )

    @property
    def feller_ok(self) -> bool:
        """True when ``2*alpha >= gamma**2`` (variance never hits zero in continuous time)."""
        return 2.0 * self.alpha >= self.gamma * self.gamma

    @property
    def mean_reversion_level(self) -> float:
        """Long-run variance level ``alpha / beta_rev``."""
        return self.alpha / self.beta_rev


@dataclass(frozen=True)
class PolicyCoefficients:
    """Linearization coefficients of the marginal value of wealth.

    The optimal-position rule uses the expansion
    ``V_x(t, x, sigma_bar) ~= alpha0 + alpha1*x + alpha2*sigma_bar``,
    so ``alpha1`` plays the role of V_xx and ``alpha2`` of the mixed
    wealth-variance derivative.  Strict concavity of the utility forces
    ``alpha1 < 0``; every downstream formula divides by it.
    """

    alpha0: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("alpha0", "alpha1", "alpha2"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"invalid PolicyCoefficients: {name} must be finite")
        if not self.alpha1 < 0.0:
            raise ValueError("invalid PolicyCoefficients: alpha1 must be < 0")


@dataclass(frozen=True)
class MarketObservation:
    """One observed row: risky position plus the rates behind it.

    ``pi_star`` may be zero here; the inverse-position fit rejects such
    rows at call time because its regressand is ``1 / pi_star``.
    """

    pi_star: float
    mu: float
    r: float
    label: str | None = None

    def __post_init__(self):
        for name in ("pi_star", "mu", "r"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"invalid MarketObservation: {name} must be finite")

    @property
    def excess_return(self) -> float:
        return self.mu - self.r


def _column(name: str, values) -> np.ndarray:
    """Validated read-only float64 copy of one dataset column."""
    raw = np.asarray(values)
    if raw.ndim != 1 or raw.dtype.kind not in "biuf":
        raise ValueError(f"invalid Dataset: {name} must be a one-dimensional numeric column")
    column = raw.astype(float)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        raise ValueError(f"invalid Dataset: {name} must be finite (first bad row {bad[0]})")
    column.setflags(write=False)
    return column


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Observed rows as four read-only float64 columns, with provenance.

    ``pi_star``, ``mu`` and ``r`` are the observed columns, finite and of
    equal length, and ``e = mu - r`` is the excess return both fits
    regress on; all four are read-only.  ``labels`` is None or one label
    (a string or None) per row.  ``mode`` tags whether rows are a time
    series of one portfolio or a cross-section of assets at one time;
    both feed the same fits.  The minimum row count for fitting (4) is
    enforced by the fitting routines, not here, so small files still
    load and round-trip.

    ``Dataset(observations=rows)`` builds the columns from
    :class:`MarketObservation` rows, and :attr:`observations` rebuilds
    them on demand; datasets compare equal when their values are equal.
    """

    pi_star: np.ndarray
    mu: np.ndarray
    r: np.ndarray
    e: np.ndarray = field(init=False)
    labels: tuple[str | None, ...] | None
    source: str | None
    mode: str

    def __init__(
        self,
        *,
        pi_star=None,
        mu=None,
        r=None,
        labels=None,
        source: str | None = None,
        mode: str = "cross-section",
        observations=None,
    ):
        if observations is not None:
            if pi_star is not None or mu is not None or r is not None or labels is not None:
                raise TypeError("Dataset takes either observations or columns, not both")
            rows = tuple(observations)
            pi_star = [o.pi_star for o in rows]
            mu = [o.mu for o in rows]
            r = [o.r for o in rows]
            labels = tuple(o.label for o in rows)
            if all(label is None for label in labels):
                labels = None
        elif pi_star is None or mu is None or r is None:
            raise TypeError("Dataset requires pi_star, mu and r (or observations)")
        if mode not in ("cross-section", "time-series"):
            raise ValueError(f"invalid Dataset: unknown mode {mode!r}")
        columns = {name: _column(name, values) for name, values in (("pi_star", pi_star), ("mu", mu), ("r", r))}
        lengths = {name: len(column) for name, column in columns.items()}
        if labels is not None:
            labels = tuple(labels)
            lengths["labels"] = len(labels)
        if len(set(lengths.values())) > 1:
            sizes = ", ".join(f"{name} {n}" for name, n in lengths.items())
            raise ValueError(f"invalid Dataset: columns differ in length ({sizes})")
        e = columns["mu"] - columns["r"]
        e.setflags(write=False)
        for name, value in (*columns.items(), ("e", e), ("labels", labels), ("source", source), ("mode", mode)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.labels, self.source, self.mode) == (other.labels, other.source, other.mode)
            and np.array_equal(self.pi_star, other.pi_star)
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.r, other.r)
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi_star)

    @property
    def observations(self) -> tuple[MarketObservation, ...]:
        """The rows as :class:`MarketObservation` objects, built on each access."""
        labels = self.labels if self.labels is not None else (None,) * self.n_rows
        return tuple(
            MarketObservation(pi_star=p, mu=m, r=r, label=label)
            for p, m, r, label in zip(self.pi_star.tolist(), self.mu.tolist(), self.r.tolist(), labels)
        )

    def excess_returns(self) -> list[float]:
        return self.e.tolist()

    def positions(self) -> list[float]:
        return self.pi_star.tolist()


@dataclass(frozen=True)
class Stage1Params:
    """Parameters of the position-on-excess-return fit.

    ``beta3`` is the portfolio-volatility estimate and must be strictly
    positive; the fitting routine guarantees this by optimizing
    ``log(beta3)`` internally.
    """

    beta1: float
    beta2: float
    beta3: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"invalid Stage1Params: {name} must be finite")
        if not self.beta3 > 0.0:
            raise ValueError("invalid Stage1Params: beta3 must be > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta2, self.beta3], dtype=float)


@dataclass(frozen=True)
class Stage2Params:
    """Parameters of the inverse-position fit.

    ``beta4`` is the vol-of-vol estimate and is kept nonnegative (it
    scales a diffusion coefficient).  The model value is invariant under
    a common rescaling of all three parameters, so ``beta4`` is only
    interpretable under an explicit gauge convention.
    """

    beta4: float
    beta5: float
    beta6: float

    def __post_init__(self):
        for name in ("beta4", "beta5", "beta6"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"invalid Stage2Params: {name} must be finite")
        if self.beta4 < 0.0:
            raise ValueError("invalid Stage2Params: beta4 must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.beta4, self.beta5, self.beta6], dtype=float)


FitParams = Union["Stage1Params", "Stage2Params"]


@dataclass(frozen=True)
class FitResult:
    """Converged (or terminated) state of one damped least-squares run.

    ``trace`` lists accepted steps only, as ``(params, residual_norm)``
    pairs with strictly decreasing norms.  ``standard_errors`` is None
    when the Gauss-Newton covariance is degenerate.  ``message`` holds
    the termination reason when ``converged`` is False.
    """

    params: object
    residual_norm: float
    iterations: int
    converged: bool
    standard_errors: tuple[float, ...] | None = None
    diagnostics: frozenset[str] = field(default_factory=frozenset)
    trace: tuple[tuple[tuple[float, ...], float], ...] | None = None
    message: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.residual_norm) and self.residual_norm >= 0.0):
            raise ValueError("invalid FitResult: residual_norm must be finite and >= 0")
        if self.standard_errors is not None and any(s < 0.0 for s in self.standard_errors):
            raise ValueError("invalid FitResult: standard errors must be >= 0")
        if self.trace is not None:
            norms = [t[1] for t in self.trace]
            if any(b >= a for a, b in zip(norms, norms[1:])):
                raise ValueError("invalid FitResult: trace norms must be strictly decreasing")
        object.__setattr__(self, "diagnostics", frozenset(self.diagnostics))
