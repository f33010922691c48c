"""Domain types shared across the library, and the two regression curves with their analytic Jacobians.

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

The two model functions are rational in ``e``:

* stage 1 predicts the risky position,
      ``f(e) = (beta2*beta3 + beta1*e) / (beta3 + e)``,
  which equals the two-term display
  ``beta2 / (1 + e/beta3) + beta1*e / (beta3 + e)`` wherever both are
  defined but carries a single pole at ``e = -beta3``.
* stage 2 predicts the inverse position,
      ``g(e) = beta4*(b3h + e) / (beta5*b3h + beta6*e)``,
  with ``b3h`` the fixed stage-1 volatility estimate.  ``g`` is invariant
  under a common rescaling of ``(beta4, beta5, beta6)``, so those
  parameters are only identified up to a gauge.

The public curves and Jacobians evaluate ``e`` of any shape elementwise, a
Jacobian adding a last axis for the three parameters.  The fits of
``portvol.estimate`` work from their own projections instead, and the
generator of ``portvol.simulate`` draws its positions from
:func:`_stage1_curve`, one dataset per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np


def _finite(x) -> bool:
    """True for a finite Python or numpy int or float; never for a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) and math.isfinite(x)


def _integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int if it is a Python or numpy integer, not a bool, in ``[lo, hi)``; else ValueError.

    ``hi`` is None (no upper bound) or a power of two, which the message writes ``2**k``.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and lo <= value and (hi is None or value < hi):
        return int(value)
    bounds = f">= {lo}" if hi is None else f"in [{lo}, 2**{hi.bit_length() - 1})"
    raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _float_fields(params) -> None:
    """Store every field of the frozen ``params`` as a Python float; ``invalid <Type>: <field> must be finite`` else."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not _finite(value):
            raise ValueError(f"invalid {type(params).__name__}: {f.name} must be finite")
        object.__setattr__(params, f.name, float(value))


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
        # Collect every violation, so one error names them all.
        violations = [f"{f.name} must be finite" for f in fields(self) if not _finite(getattr(self, f.name))]
        if _finite(self.rho) and not abs(self.rho) < 1.0:
            violations.append("|rho| must be < 1")
        if _finite(self.gamma) and self.gamma < 0.0:
            violations.append("gamma must be >= 0")
        if _finite(self.beta_rev) and self.beta_rev <= 0.0:
            violations.append("beta_rev must be > 0")
        if _finite(self.sigma_bar) and self.sigma_bar < 0.0:
            violations.append("sigma_bar must be >= 0")
        if _finite(self.alpha) and self.alpha < 0.0:
            violations.append("alpha must be >= 0")
        if violations:
            raise ValueError("invalid HestonParams: " + "; ".join(violations))
        _float_fields(self)  # every field is finite here

    @property
    def feller_ok(self) -> bool:
        """True when ``2*alpha >= gamma**2`` (variance never hits zero in continuous time).

        The flag is diagnostic only: the simulator's Euler scheme, absorbed
        at 0, is well defined without it.
        """
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
        _float_fields(self)
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


def _column(owner: str, name: str, values) -> np.ndarray:
    """Validated read-only float64 copy of column ``name`` of the record ``owner``; a bool column is not numeric."""
    raw = np.asarray(values)
    if raw.ndim != 1 or raw.dtype.kind not in "iuf":
        raise ValueError(f"invalid {owner}: {name} must be a one-dimensional numeric column")
    column = raw.astype(float)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        raise ValueError(f"invalid {owner}: {name} must be finite (first bad row {bad[0]})")
    column.setflags(write=False)
    return column


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Observed rows as four read-only float64 columns, with provenance.

    ``pi_star``, ``mu`` and ``r`` are the observed columns, finite and of
    equal length, and ``e = mu - r`` is the excess return both fits
    regress on; all four are read-only.  ``labels`` is None or one label
    per row, each a string or None; anything else is refused, since a CSV
    would read it back as a string.  Labels tag the rows as a time series
    of one portfolio; without them the rows are a cross-section of assets
    at one time.  Both feed the same fits.  ``e`` must be finite too: finite
    ``mu`` and ``r`` whose difference overflows are rejected.  The minimum
    row count for fitting (4) is enforced by the fitting routines, not
    here, so small files still load and round-trip.  Datasets compare
    equal when their columns hold the same values and their labels and
    source are equal.
    """

    pi_star: np.ndarray
    mu: np.ndarray
    r: np.ndarray
    e: np.ndarray = field(init=False)
    labels: tuple[str | None, ...] | None
    source: str | None

    def __init__(
        self,
        *,
        pi_star,
        mu,
        r,
        labels=None,
        source: str | None = None,
    ):
        observed = (("pi_star", pi_star), ("mu", mu), ("r", r))
        columns = {name: _column("Dataset", name, values) for name, values in observed}
        lengths = {name: len(column) for name, column in columns.items()}
        if labels is not None:
            labels = tuple(labels)
            lengths["labels"] = len(labels)
            valid = list(map(isinstance, labels, repeat((str, type(None)))))
            if False in valid:
                bad = valid.index(False)
                raise ValueError(f"invalid Dataset: labels must be strings or None (first bad row {bad})")
        if len(set(lengths.values())) > 1:
            sizes = ", ".join(f"{name} {n}" for name, n in lengths.items())
            raise ValueError(f"invalid Dataset: columns differ in length ({sizes})")
        with np.errstate(over="ignore"):
            e = _column("Dataset", "e = mu - r", columns["mu"] - columns["r"])
        for name, value in (*columns.items(), ("e", e), ("labels", labels), ("source", source)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.labels, self.source) == (other.labels, other.source)
            and np.array_equal(self.pi_star, other.pi_star)
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.r, other.r)
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi_star)


@dataclass(frozen=True)
class Stage1Params:
    """Parameters of the position-on-excess-return fit.

    ``beta3`` is the portfolio-volatility estimate and must be strictly
    positive; the fit refuses data that leave ``log(beta3/max|e|)`` off [-8, 6].
    """

    beta1: float
    beta2: float
    beta3: float

    def __post_init__(self):
        _float_fields(self)
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
        _float_fields(self)
        if self.beta4 < 0.0:
            raise ValueError("invalid Stage2Params: beta4 must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.beta4, self.beta5, self.beta6], dtype=float)


# Relative threshold below which a denominator counts as sitting on a pole.
_POLE_RTOL = 1e-12


class PoleError(ValueError):
    """Raised when a model is evaluated too close to a pole of its rational form."""

    def __init__(self, message: str = "model evaluated within the pole guard of a vanishing denominator"):
        super().__init__(message)


def _pole_rows(value, scale_a, scale_b) -> np.ndarray:
    """Rows of ``value`` (its last axis) with an entry relatively tiny against its scale.

    The guard compares |value| against ``_POLE_RTOL * max(|scale_a|,
    |scale_b|, 1)`` elementwise.
    """
    scale = np.maximum(np.maximum(1.0, np.abs(scale_a)), np.abs(scale_b))
    scale *= _POLE_RTOL  # in place: one array of value's size besides |value|
    tiny = np.abs(value) < scale
    return tiny.any(axis=-1) if tiny.ndim else tiny


def _pole_between(b3, lo, hi):
    """Whether the stage-1 pole ``-b3`` lies in ``[lo, hi]``, elementwise."""
    return (lo <= -b3) & (-b3 <= hi)


def _stage1_curve(E: np.ndarray, b1, b2, b3) -> tuple[np.ndarray, np.ndarray]:
    """``(value, pole)``: the stage-1 curve ``(b1*e + b2*b3)/(b3 + e)`` at ``E``.

    ``pole`` marks the rows of ``E`` with an ``e`` on the pole guard of
    :func:`_pole_rows`; their values mean nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = b3 + E
        pole = _pole_rows(denom, b3, E)
        value = b1 * E
        value += b2 * b3
        value /= denom
    return value, pole


def _stage2_terms(E: np.ndarray, b5, b6, bh) -> tuple[np.ndarray, np.ndarray]:
    """``(num, den)``: the stage-2 ``bh + e`` and ``b5*bh + b6*e``; PoleError if either is on the pole guard."""
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = bh + E, b5 * bh + b6 * E
        if (_pole_rows(num, bh, E) | _pole_rows(den, b5 * bh, b6 * E)).any():
            raise PoleError()
    return num, den


def stage1_model(e, b: Stage1Params):
    """Predicted risky position for excess return(s) ``e``.

    Parameters
    ----------
    e : float or array_like
        Excess return ``mu - r``.
    b : Stage1Params

    Raises
    ------
    PoleError
        If any ``|b.beta3 + e|`` falls below ``1e-12 * max(|beta3|, |e|, 1)``.
    """
    value, pole = _stage1_curve(np.asarray(e, dtype=float), b.beta1, b.beta2, b.beta3)
    if pole.any():
        raise PoleError()
    return float(value) if np.isscalar(e) else value


def stage1_jacobian(e, b: Stage1Params):
    """Partial derivatives of :func:`stage1_model` w.r.t. (beta1, beta2, beta3).

    Returns shape ``(3,)`` for scalar ``e`` and ``e.shape + (3,)`` for an array.
    These are the derivatives behind the stage-1 standard errors.
    """
    E, (b1, b2, b3) = np.asarray(e, dtype=float), b.as_array()
    jac = np.empty(E.shape + (3,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = b3 + E
        if _pole_rows(denom, b3, E).any():
            raise PoleError()
        np.divide(E, denom, out=jac[..., 0])
        np.divide(b3, denom, out=jac[..., 1])
        np.multiply(b2 - b1, jac[..., 0], out=jac[..., 2])
        jac[..., 2] /= denom
    return jac


def _beta3_hat(beta3_hat) -> float:
    """The stage-1 ``beta3_hat`` stage 2 is evaluated at, as a float; ValueError unless finite and > 0."""
    if not (_finite(beta3_hat) and beta3_hat > 0.0):
        raise ValueError("beta3_hat must be finite and > 0")
    return float(beta3_hat)


def stage2_model(e, b: Stage2Params, beta3_hat: float):
    """Predicted inverse position for excess return(s) ``e``.

    ``beta3_hat`` is the stage-1 volatility estimate, entering as a fixed
    constant (it is data to this model, not a parameter).  Either
    denominator on the pole guard raises :class:`PoleError`.
    """
    bh = _beta3_hat(beta3_hat)
    num, den = _stage2_terms(np.asarray(e, dtype=float), b.beta5, b.beta6, bh)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = b.beta4 * num / den
    return float(value) if np.isscalar(e) else value


def stage2_jacobian(e, b: Stage2Params, beta3_hat: float):
    """Partial derivatives of :func:`stage2_model` w.r.t. (beta4, beta5, beta6).

    The stage-2 standard errors use the two columns the gauge leaves free.
    """
    E, (b4, b5, b6), bh = np.asarray(e, dtype=float), b.as_array(), _beta3_hat(beta3_hat)
    num, den = _stage2_terms(E, b5, b6, bh)
    jac = np.empty(E.shape + (3,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g4 = np.divide(num, den, out=jac[..., 0])
        t = -b4 * g4 / den  # the derivatives in beta5 and beta6 are t*b3h and t*e
        np.multiply(t, bh, out=jac[..., 1])
        np.multiply(t, E, out=jac[..., 2])
    return jac


DIAG_DEGENERATE_COV = "DEGENERATE_COVARIANCE"


@dataclass(frozen=True)
class FitResult:
    """Converged (or terminated) state of one fit.

    ``iterations`` counts accepted steps.  ``standard_errors`` is None
    when the Gauss-Newton covariance is degenerate, and ``diagnostics``
    holds ``DEGENERATE_COVARIANCE`` exactly then, whatever was passed.
    ``message`` holds the termination reason when ``converged`` is False.
    """

    params: object
    residual_norm: float
    iterations: int
    converged: bool
    standard_errors: tuple[float, ...] | None = None
    diagnostics: frozenset[str] = field(default_factory=frozenset)
    message: str = ""

    def __post_init__(self):
        if not (_finite(self.residual_norm) and self.residual_norm >= 0.0):
            raise ValueError("invalid FitResult: residual_norm must be finite and >= 0")
        if self.standard_errors is not None and not all(_finite(s) and s >= 0.0 for s in self.standard_errors):
            raise ValueError("invalid FitResult: standard errors must be finite and >= 0")
        degenerate = {DIAG_DEGENERATE_COV} if self.standard_errors is None else set()
        object.__setattr__(self, "diagnostics", frozenset(self.diagnostics) - {DIAG_DEGENERATE_COV} | degenerate)
