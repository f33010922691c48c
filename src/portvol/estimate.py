"""Two-stage estimation pipeline and its validation harness.

Stage 1 fits the observed positions against the excess return and reads
the portfolio volatility off ``beta3``.  Stage 2 fits the inverse
positions and reads the volatility of volatility off ``beta4`` — but the
stage-2 model is invariant under a common rescaling of
``(beta4, beta5, beta6)``, so ``beta4`` is reported under an explicit
gauge convention (default: pin ``beta5`` at the stage-1 ``beta2``).  The
correlation factor is recovered separately by inverting the defining
relation ``beta2 = -rho * gamma * (alpha2/alpha1)``.

Both fits run in a log parameterization of their positive parameter
(``beta3`` resp. ``beta4``), which enforces positivity without
constraints machinery; all reported quantities are in natural space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, FitResult, Stage1Params, Stage2Params
from .nls import (
    ResidualProblem,
    SolverOptions,
    _stage1_grad,
    _stage1_value,
    _stage2_grad,
    _stage2_value,
    lm_fit,
)
from .simulate import GenerationSpec, StructuralSpec, generate_synthetic_dataset

__all__ = [
    "GaugeRule",
    "RhoEstimate",
    "ValidationReport",
    "VolatilityScale",
    "estimate_rho",
    "fit_volatility",
    "fit_vol_of_vol",
    "identifiability_diagnostics",
    "standard_errors",
    "monte_carlo_validation",
    "volatility_scale_comparison",
    "DIAG_B1_EQ_B2",
    "DIAG_POLE",
    "DIAG_ILL_CONDITIONED",
    "DIAG_GAUGE",
    "DIAG_DEGENERATE_COV",
    "DIAG_RHO_RANGE",
]

DIAG_B1_EQ_B2 = "IDENTIFIABILITY_B1_EQ_B2"
DIAG_POLE = "POLE_PROXIMITY"
DIAG_ILL_CONDITIONED = "ILL_CONDITIONED"
DIAG_GAUGE = "GAUGE_UNIDENTIFIED"
DIAG_DEGENERATE_COV = "DEGENERATE_COVARIANCE"
DIAG_RHO_RANGE = "RHO_OUT_OF_RANGE"

_MIN_ROWS_STAGE1 = 4
_COND_LIMIT = 1e8
_SINGULAR_COND = 1.0 / np.finfo(float).eps


@dataclass(frozen=True)
class GaugeRule:
    """Identification convention for the stage-2 scale freedom.

    ``pin-beta5`` freezes ``beta5`` (typically at the stage-1 ``beta2``),
    ``pin-beta6`` freezes ``beta6`` (at the stage-1 ``beta1``), and
    ``free`` optimizes all three parameters, in which case the result
    always carries the ``GAUGE_UNIDENTIFIED`` diagnostic.
    """

    variant: str
    pin_value: float | None = None

    def __post_init__(self):
        if self.variant not in ("free", "pin-beta5", "pin-beta6"):
            raise ValueError(f"unknown gauge variant {self.variant!r}")
        if self.variant == "free":
            if self.pin_value is not None:
                raise ValueError("free gauge takes no pin value")
        else:
            if self.pin_value is None or not math.isfinite(self.pin_value) or self.pin_value == 0.0:
                raise ValueError(f"{self.variant} gauge requires a nonzero finite pin value")

    @classmethod
    def free(cls) -> "GaugeRule":
        return cls("free")

    @classmethod
    def pin_beta5(cls, beta2_hat: float) -> "GaugeRule":
        return cls("pin-beta5", beta2_hat)

    @classmethod
    def pin_beta6(cls, beta1_hat: float) -> "GaugeRule":
        return cls("pin-beta6", beta1_hat)


@dataclass(frozen=True)
class RhoEstimate:
    """Correlation-factor estimate; out-of-range values are reported, never clamped."""

    rho_hat: float
    diagnostics: frozenset[str] = frozenset()

    @property
    def in_range(self) -> bool:
        return abs(self.rho_hat) <= 1.0


@dataclass(frozen=True)
class VolatilityScale:
    """Comparison of ``beta3`` against both readings of the initial variance.

    Whether the fitted ``beta3`` tracks the variance ``sigma_bar`` or the
    volatility ``sqrt(sigma_bar)`` is ambiguous in the model statement,
    so both distances are reported side by side.
    """

    beta3_hat: float
    sigma_bar: float
    sqrt_sigma_bar: float
    abs_err_vs_variance: float
    abs_err_vs_volatility: float
    closer_to: str


def volatility_scale_comparison(beta3_hat: float, sigma_bar: float) -> VolatilityScale:
    if not sigma_bar >= 0.0:
        raise ValueError("sigma_bar must be >= 0")
    root = math.sqrt(sigma_bar)
    err_var = abs(beta3_hat - sigma_bar)
    err_vol = abs(beta3_hat - root)
    return VolatilityScale(
        beta3_hat=beta3_hat,
        sigma_bar=sigma_bar,
        sqrt_sigma_bar=root,
        abs_err_vs_variance=err_var,
        abs_err_vs_volatility=err_vol,
        closer_to="variance" if err_var <= err_vol else "volatility",
    )


def _smallest_e_decile(e: np.ndarray) -> np.ndarray:
    k = max(1, len(e) // 10)
    return np.argsort(np.abs(e), kind="stable")[:k]


def _stage1_init(e: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Moment-based start: level from the small-|e| rows, scale from spread of e."""
    b2 = float(np.mean(pi[_smallest_e_decile(e)]))
    b3 = max(float(np.std(e)), 1e-4)
    b1 = b2 + 1.0
    return np.array([b1, b2, b3])


def _stage1_problem(e: np.ndarray, pi: np.ndarray) -> ResidualProblem:
    """Natural-space residual problem; used for standard errors and diagnostics."""

    def residual(b):
        return pi - _stage1_value(e, b[0], b[1], b[2])

    def jacobian(b):
        return -_stage1_grad(e, b[0], b[1], b[2])

    return ResidualProblem(residual, jacobian, 3, len(e))


def _stage1_problem_log(e: np.ndarray, pi: np.ndarray) -> ResidualProblem:
    """Same problem over (beta1, beta2, log beta3); keeps beta3 > 0 by construction."""

    def residual(q):
        return pi - _stage1_value(e, q[0], q[1], math.exp(q[2]))

    def jacobian(q):
        b3 = math.exp(q[2])
        j = -_stage1_grad(e, q[0], q[1], b3)
        j[:, 2] *= b3
        return j

    return ResidualProblem(residual, jacobian, 3, len(e))


def standard_errors(fit: FitResult, problem: ResidualProblem) -> tuple[float, ...] | None:
    """Gauss-Newton standard errors ``sqrt(diag(s2 * inv(J'J)))``.

    ``s2`` is ``residual_norm / (n_obs - n_params)``.  Returns None when
    ``J'J`` is numerically singular (degenerate covariance) — absent, not
    zero.  Requires more observations than parameters.
    """
    if problem.n_obs <= problem.n_params:
        raise ValueError("standard errors require n_obs > n_params")
    p = fit.params.as_array() if hasattr(fit.params, "as_array") else np.asarray(fit.params, float)
    try:
        jac = np.asarray(problem.jacobian(p), dtype=float)
    except (ValueError, ArithmeticError):
        return None
    if not np.all(np.isfinite(jac)):
        return None
    jtj = jac.T @ jac
    cond = np.linalg.cond(jtj)
    if not np.isfinite(cond) or cond >= _SINGULAR_COND:
        return None
    s2 = fit.residual_norm / (problem.n_obs - problem.n_params)
    try:
        cov = s2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return None
    return tuple(math.sqrt(max(v, 0.0)) for v in np.diag(cov))


def _cond_or_flag(matrix_fn) -> float:
    try:
        j = np.asarray(matrix_fn(), dtype=float)
    except (ValueError, ArithmeticError):
        return math.inf
    if not np.all(np.isfinite(j)):
        return math.inf
    return float(np.linalg.cond(j))


def identifiability_diagnostics(
    fit: FitResult,
    data: Dataset,
    *,
    beta3_hat: float | None = None,
    gauge: GaugeRule | None = None,
) -> frozenset[str]:
    """Named warnings about weakly identified or near-singular fits.

    For stage-1 results: ``IDENTIFIABILITY_B1_EQ_B2`` when beta1 and
    beta2 coincide to within 1e-6 relative (the model is then constant in
    e and beta3 is arbitrary), ``POLE_PROXIMITY`` when some observed e
    comes within ``1e-3 * beta3`` of the pole, and ``ILL_CONDITIONED``
    when the Jacobian condition number at the solution exceeds 1e8.

    For stage-2 results the same pole and conditioning checks run against
    ``beta3_hat`` and the gauge-reduced Jacobian, and free-gauge fits
    always carry ``GAUGE_UNIDENTIFIED``.
    """
    flags: set[str] = set()
    e = data.e
    if isinstance(fit.params, Stage1Params):
        b1, b2, b3 = fit.params.beta1, fit.params.beta2, fit.params.beta3
        if abs(b1 - b2) < 1e-6 * max(abs(b1), abs(b2), 1.0):
            flags.add(DIAG_B1_EQ_B2)
        if np.min(np.abs(b3 + e)) < 1e-3 * b3:
            flags.add(DIAG_POLE)
        if _cond_or_flag(lambda: _stage1_grad(e, b1, b2, b3)) > _COND_LIMIT:
            flags.add(DIAG_ILL_CONDITIONED)
        return frozenset(flags)
    if isinstance(fit.params, Stage2Params):
        if beta3_hat is None:
            raise ValueError("stage-2 diagnostics require beta3_hat")
        gauge = gauge if gauge is not None else GaugeRule.free()
        b = fit.params
        if np.min(np.abs(beta3_hat + e)) < 1e-3 * beta3_hat:
            flags.add(DIAG_POLE)
        cols = {"free": (0, 1, 2), "pin-beta5": (0, 2), "pin-beta6": (0, 1)}[gauge.variant]
        if (
            _cond_or_flag(
                lambda: _stage2_grad(e, b.beta4, b.beta5, b.beta6, beta3_hat)[:, cols]
            )
            > _COND_LIMIT
        ):
            flags.add(DIAG_ILL_CONDITIONED)
        if gauge.variant == "free":
            flags.add(DIAG_GAUGE)
        return frozenset(flags)
    raise TypeError("fit.params must be Stage1Params or Stage2Params")


def fit_volatility(
    data: Dataset, opts: SolverOptions = SolverOptions(), init: Stage1Params | None = None
) -> FitResult:
    """Stage-1 fit: positions against excess returns.

    Returns the damped least-squares solution with natural-space
    parameters, standard errors (None and ``DEGENERATE_COVARIANCE``
    flagged when the covariance is singular) and identifiability
    diagnostics attached.  Needs at least 4 rows.
    """
    if data.n_rows < _MIN_ROWS_STAGE1:
        raise ValueError(
            f"insufficient data: stage-1 fit needs at least {_MIN_ROWS_STAGE1} rows, got {data.n_rows}"
        )
    e, pi = data.e, data.pi_star
    start = init.as_array() if init is not None else _stage1_init(e, pi)
    q0 = np.array([start[0], start[1], math.log(start[2])])
    raw = lm_fit(_stage1_problem_log(e, pi), q0, opts)
    q = raw.params
    params = Stage1Params(beta1=float(q[0]), beta2=float(q[1]), beta3=math.exp(float(q[2])))
    trace = tuple(((b1, b2, math.exp(lb3)), ssr) for (b1, b2, lb3), ssr in raw.trace)
    fit = replace(raw, params=params, trace=trace)
    se = standard_errors(fit, _stage1_problem(e, pi))
    flags = set(identifiability_diagnostics(fit, data))
    if se is None:
        flags.add(DIAG_DEGENERATE_COV)
    return replace(fit, standard_errors=se, diagnostics=frozenset(flags))


def _stage2_init(e: np.ndarray, pi: np.ndarray, gauge: GaugeRule) -> np.ndarray:
    """Start values from the position curve implied by the inverse data.

    ``1/pib`` follows the stage-1 shape with parameters
    ``(beta6/beta4, beta5/beta4, beta3_hat)``, so the stage-1 moment
    start for those ratios converts into each gauge's free parameters.
    """
    idx = _smallest_e_decile(e)
    ratio52 = float(np.mean(pi[idx]))  # estimate of beta5/beta4
    ratio61 = ratio52 + 1.0  # estimate of beta6/beta4, kept off the degenerate ray
    if gauge.variant == "pin-beta5":
        b4 = abs(gauge.pin_value / ratio52) if ratio52 != 0.0 else 1.0
        if not (math.isfinite(b4) and b4 > 0.0):
            b4 = 1.0
        return np.array([b4, gauge.pin_value, ratio61 * b4])
    if gauge.variant == "pin-beta6":
        b4 = abs(gauge.pin_value / ratio61) if ratio61 != 0.0 else 1.0
        if not (math.isfinite(b4) and b4 > 0.0):
            b4 = 1.0
        return np.array([b4, ratio52 * b4, gauge.pin_value])
    return np.array([1.0, ratio52, ratio61])


def _stage2_problems(
    e: np.ndarray, pib: np.ndarray, beta3_hat: float, gauge: GaugeRule
) -> tuple[ResidualProblem, ResidualProblem, object, object]:
    """Log-space solve problem and natural reduced problem for one gauge.

    Returns ``(log_problem, natural_problem, encode, decode)`` where
    ``encode`` maps a full (beta4, beta5, beta6) start to the optimized
    vector and ``decode`` maps an optimized vector back to full space.
    """
    n = len(e)
    variant = gauge.variant
    pin = gauge.pin_value

    def full(q):
        if variant == "pin-beta5":
            return math.exp(q[0]), pin, q[1]
        if variant == "pin-beta6":
            return math.exp(q[0]), q[1], pin
        return math.exp(q[0]), q[1], q[2]

    def full_natural(v):
        if variant == "pin-beta5":
            return v[0], pin, v[1]
        if variant == "pin-beta6":
            return v[0], v[1], pin
        return v[0], v[1], v[2]

    cols = {"free": [0, 1, 2], "pin-beta5": [0, 2], "pin-beta6": [0, 1]}[variant]

    def residual_log(q):
        b4, b5, b6 = full(q)
        return pib - _stage2_value(e, b4, b5, b6, beta3_hat)

    def jacobian_log(q):
        b4, b5, b6 = full(q)
        g = _stage2_grad(e, b4, b5, b6, beta3_hat)
        j = -g[:, cols]
        j[:, 0] *= b4
        return j

    def residual_nat(v):
        b4, b5, b6 = full_natural(v)
        return pib - _stage2_value(e, b4, b5, b6, beta3_hat)

    def jacobian_nat(v):
        b4, b5, b6 = full_natural(v)
        return -_stage2_grad(e, b4, b5, b6, beta3_hat)[:, cols]

    k = len(cols)
    log_problem = ResidualProblem(residual_log, jacobian_log, k, n)
    nat_problem = ResidualProblem(residual_nat, jacobian_nat, k, n)

    def encode(b):
        q = [math.log(b[0])]
        if variant == "pin-beta5":
            q.append(b[2])
        elif variant == "pin-beta6":
            q.append(b[1])
        else:
            q.extend([b[1], b[2]])
        return np.array(q)

    def decode(q):
        return full(q)

    return log_problem, nat_problem, encode, decode


def fit_vol_of_vol(
    data: Dataset,
    beta3_hat: float,
    gauge: GaugeRule,
    opts: SolverOptions = SolverOptions(),
) -> FitResult:
    """Stage-2 fit: inverse positions against excess returns.

    ``gamma_hat`` is the fitted ``beta4`` under the declared gauge.  The
    regressand is ``1/pi_star``, so any zero position is rejected with
    the offending row named.  Standard errors cover the optimized
    parameters (a pinned parameter reports 0.0).
    """
    if not (math.isfinite(beta3_hat) and beta3_hat > 0.0):
        raise ValueError("beta3_hat must be finite and > 0")
    zeros = np.flatnonzero(data.pi_star == 0.0)
    if zeros.size:
        i = int(zeros[0])
        label = None if data.labels is None else data.labels[i]
        where = f"row {i}" if label is None else f"row {i} (label {label!r})"
        raise ValueError(f"zero position at {where}: inverse positions are undefined")
    e, pi = data.e, data.pi_star
    pib = 1.0 / pi
    b0 = _stage2_init(e, pi, gauge)
    log_problem, nat_problem, encode, decode = _stage2_problems(e, pib, beta3_hat, gauge)
    raw = lm_fit(log_problem, encode(b0), opts)
    b4, b5, b6 = decode(raw.params)
    params = Stage2Params(beta4=float(b4), beta5=float(b5), beta6=float(b6))
    trace = tuple((tuple(float(x) for x in decode(np.asarray(q))), ssr) for q, ssr in raw.trace)
    fit = replace(raw, params=params, trace=trace)

    reduced = {"free": [0, 1, 2], "pin-beta5": [0, 2], "pin-beta6": [0, 1]}[gauge.variant]
    se_fit = replace(raw, params=params.as_array()[reduced])
    se_reduced = standard_errors(se_fit, nat_problem)
    if se_reduced is None:
        se = None
    else:
        se_full = [0.0, 0.0, 0.0]
        for pos, value in zip(reduced, se_reduced):
            se_full[pos] = value
        se = tuple(se_full)
    flags = set(identifiability_diagnostics(fit, data, beta3_hat=beta3_hat, gauge=gauge))
    if se is None:
        flags.add(DIAG_DEGENERATE_COV)
    return replace(fit, standard_errors=se, diagnostics=frozenset(flags))


def estimate_rho(beta2_hat: float, gamma_hat: float, alpha_ratio: float) -> RhoEstimate:
    """Correlation factor from the fitted intercept coefficient.

    Inverts ``beta2 = -rho * gamma * alpha_ratio`` where ``alpha_ratio``
    is the user-supplied ``alpha2 / alpha1`` of the marginal-value
    expansion.  Values outside [-1, 1] are returned as-is with the
    ``RHO_OUT_OF_RANGE`` diagnostic.
    """
    if not gamma_hat > 0.0:
        raise ValueError("gamma_hat must be > 0")
    if alpha_ratio == 0.0:
        raise ValueError("alpha_ratio must be nonzero")
    raw = -beta2_hat / (gamma_hat * alpha_ratio)
    diags = frozenset([DIAG_RHO_RANGE]) if abs(raw) > 1.0 else frozenset()
    return RhoEstimate(rho_hat=raw, diagnostics=diags)


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate accuracy of the pipeline over Monte Carlo replications.

    ``bias``, ``rmse`` and ``coverage`` are per parameter (stage-1 order
    beta1, beta2, beta3) and are computed over converged replications;
    ``coverage`` counts nominal-95% Gauss-Newton intervals containing the
    truth among the ``coverage_evaluated`` replications that produced
    standard errors.  For structural data there is no true parameter
    vector, so those fields are None and ``scale`` compares the mean
    ``beta3`` against both readings of the initial variance.
    ``stage2_n_failed`` counts stage-2 fits that raised (None when stage 2
    was not run); it is not written to the report.
    """

    replications: int
    truth: Stage1Params | None
    param_names: tuple[str, ...]
    n_converged: int
    n_failed: int
    bias: tuple[float, ...] | None
    rmse: tuple[float, ...] | None
    coverage: tuple[int, ...] | None
    coverage_evaluated: int
    beta3_mean: float | None
    scale: VolatilityScale | None
    stage2_gamma_mean: float | None = None
    stage2_n_converged: int | None = None
    stage2_n_failed: int | None = None
    fits: tuple[FitResult, ...] | None = None

    def __post_init__(self):
        if self.bias is not None and self.rmse is not None:
            for b, r in zip(self.bias, self.rmse):
                if r + 1e-12 * (1.0 + r) < abs(b):
                    raise ValueError("invalid ValidationReport: rmse must be >= |bias|")

    @property
    def convergence_rate(self) -> float:
        return self.n_converged / self.replications


def _replication_seed(master_seed: int, rep: int) -> int:
    state = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,)).generate_state(1, np.uint64)
    return int(state[0])


def monte_carlo_validation(
    spec: GenerationSpec | StructuralSpec,
    replications: int,
    opts: SolverOptions = SolverOptions(),
    *,
    master_seed: int = 0,
    run_stage2: bool = False,
    gauge_variant: str = "pin-beta5",
    keep_fits: bool = False,
) -> ValidationReport:
    """Repeated generate-and-fit experiment with deterministic seeding.

    Replication ``i`` generates data with a seed derived from
    ``(master_seed, i)``, so the report is bit-identical across runs and
    scheduling.  Per-replication failures (solver errors, degenerate
    data) are counted, not fatal.  ``run_stage2`` additionally fits the
    inverse-position model under ``gauge_variant`` and aggregates the
    resulting ``gamma_hat``.
    """
    if replications < 2:
        raise ValueError("replications must be >= 2")
    structural = isinstance(spec, StructuralSpec)
    mode = "structural" if structural else "model-implied"
    truth = None if structural else spec.stage1

    estimates: list[np.ndarray] = []
    ses: list[tuple[float, ...] | None] = []
    kept: list[FitResult] = []
    gamma_hats: list[float] = []
    stage2_converged = 0
    stage2_failed = 0
    n_converged = 0
    n_failed = 0

    for rep in range(replications):
        seed = _replication_seed(master_seed, rep)
        try:
            data = generate_synthetic_dataset(mode, spec, seed)
            fit = fit_volatility(data, opts)
        except ValueError:
            n_failed += 1
            continue
        if keep_fits:
            kept.append(fit)
        if not fit.converged:
            n_failed += 1
            continue
        n_converged += 1
        estimates.append(fit.params.as_array())
        ses.append(fit.standard_errors)
        if run_stage2:
            try:
                pin = fit.params.beta2 if gauge_variant == "pin-beta5" else fit.params.beta1
                gauge = (
                    GaugeRule.free()
                    if gauge_variant == "free"
                    else GaugeRule(gauge_variant, pin)
                )
                fit2 = fit_vol_of_vol(data, fit.params.beta3, gauge, opts)
            except ValueError:
                stage2_failed += 1
                continue
            if fit2.converged:
                stage2_converged += 1
                gamma_hats.append(fit2.params.beta4)

    names = ("beta1", "beta2", "beta3")
    bias = rmse = coverage = None
    beta3_mean = None
    scale = None
    coverage_evaluated = 0
    if estimates:
        est = np.vstack(estimates)
        beta3_mean = float(np.mean(est[:, 2]))
        if truth is not None:
            errors = est - truth.as_array()
            bias = tuple(float(v) for v in errors.mean(axis=0))
            rmse = tuple(float(v) for v in np.sqrt((errors**2).mean(axis=0)))
            cov = [0, 0, 0]
            for row, se in zip(est, ses):
                if se is None:
                    continue
                coverage_evaluated += 1
                for j in range(3):
                    if abs(row[j] - truth.as_array()[j]) <= 1.96 * se[j]:
                        cov[j] += 1
            coverage = tuple(cov)
        else:
            scale = volatility_scale_comparison(beta3_mean, spec.heston.sigma_bar)

    return ValidationReport(
        replications=replications,
        truth=truth,
        param_names=names,
        n_converged=n_converged,
        n_failed=n_failed,
        bias=bias,
        rmse=rmse,
        coverage=coverage,
        coverage_evaluated=coverage_evaluated,
        beta3_mean=beta3_mean,
        scale=scale,
        stage2_gamma_mean=(float(np.mean(gamma_hats)) if gamma_hats else None),
        stage2_n_converged=(stage2_converged if run_stage2 else None),
        stage2_n_failed=(stage2_failed if run_stage2 else None),
        fits=tuple(kept) if keep_fits else None,
    )
