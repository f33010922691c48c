"""Two-stage estimation pipeline and its validation harness.

Stage 1 fits the observed positions against the excess return and reads
the portfolio volatility off ``beta3``.  At a fixed ``beta3`` its curve is
linear in ``(beta1, beta2)``, so the fit is a search in ``log beta3`` alone
(variable projection); a fit ending off its start grid is refused.

Stage 2 fits the inverse positions and reads the volatility of
volatility off ``beta4``.  Its curve ``beta4*(b3h+e)/(beta5*b3h+beta6*e)``
identifies only the ratios ``c5 = beta5/beta4`` and ``c6 = beta6/beta4``:
its reciprocal is the stage-1 curve with ``(beta1, beta2, beta3) =
(c6, c5, b3h)``.  So stage 2 is one fit in ``(c6, c5)``, and the gauge
convention is a map applied afterwards, ``beta = s*(1, c5, c6)``, with
``s`` chosen so the pinned parameter takes its pin value.

Under the default gauge (pin ``beta5`` at the stage-1 ``beta2_hat``),
``gamma_hat = beta2_hat / c5_hat``.  Both are estimates of the same
``beta2``, one from the positions and one from their inverses, so
``gamma_hat`` is about 1 by construction and is not a vol-of-vol finding.

The correlation factor is recovered separately by inverting the defining
relation ``beta2 = -rho * gamma * (alpha2/alpha1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, FitResult, Stage1Params, Stage2Params
from .nls import (
    ResidualProblem,
    SolverOptions,
    _guarded_denominator,
    _stage1_grad,
    _stage1_value,
    _stage2_grad,
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
# Stage 1 starts near the best of these log(beta3/max|e|), refusing fits ending outside.
_LOG_BETA3_GRID = tuple(range(-8, 7))
_COND_LIMIT = 1e8
_SINGULAR_COND = 1.0 / math.sqrt(np.finfo(float).eps)
# A variant's index is the parameter of (beta4, beta5, beta6) it holds
# fixed; free fixes the scale, beta4 = 1.
_GAUGE_VARIANTS = ("free", "pin-beta5", "pin-beta6")


@dataclass(frozen=True)
class GaugeRule:
    """Identification convention for the stage-2 scale freedom.

    ``pin-beta5`` freezes ``beta5`` and ``pin-beta6`` freezes ``beta6``
    (:meth:`from_stage1` takes the pin values from a stage-1 fit), and
    ``free`` reports the ratios themselves, ``(1, c5, c6)``, in which
    case the result always carries the ``GAUGE_UNIDENTIFIED`` diagnostic.
    """

    variant: str
    pin_value: float | None = None

    def __post_init__(self):
        if self.variant not in _GAUGE_VARIANTS:
            raise ValueError(f"unknown gauge variant {self.variant!r}")
        if self.variant == "free":
            if self.pin_value is not None:
                raise ValueError("free gauge takes no pin value")
        else:
            if self.pin_value is None or not math.isfinite(self.pin_value) or self.pin_value == 0.0:
                raise ValueError(f"{self.variant} gauge requires a nonzero finite pin value")

    @property
    def fixed(self) -> tuple[int, float]:
        """``(k, value)``: the gauge holds ``(beta4, beta5, beta6)[k]`` at ``value``.

        ``free`` fixes the scale at ``beta4 = 1``.
        """
        return _GAUGE_VARIANTS.index(self.variant), (
            1.0 if self.pin_value is None else float(self.pin_value)
        )

    @classmethod
    def free(cls) -> "GaugeRule":
        return cls("free")

    @classmethod
    def pin_beta5(cls, beta2_hat: float) -> "GaugeRule":
        return cls("pin-beta5", beta2_hat)

    @classmethod
    def pin_beta6(cls, beta1_hat: float) -> "GaugeRule":
        return cls("pin-beta6", beta1_hat)

    @classmethod
    def from_stage1(cls, variant: str, stage1: FitResult | None) -> "GaugeRule":
        """The paper's pins: ``beta5`` at the stage-1 ``beta2``, ``beta6`` at its ``beta1``."""
        if variant == "free":
            return cls.free()
        if stage1 is None:
            raise ValueError(f"{variant} gauge requires a stage-1 fit")
        b = stage1.params
        return cls(variant, b.beta2 if variant == "pin-beta5" else b.beta1)


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


def _linear_part(pi: np.ndarray, u: np.ndarray) -> tuple[float, float, np.ndarray]:
    """``(beta1, beta2, residual)``, the stage-1 fit at a fixed ``beta3`` in closed form.

    The curve is then ``beta2 + (beta1 - beta2)*u`` with ``u = e/(beta3 + e)``,
    a simple linear regression of ``pi`` on ``u`` (Golub and Pereyra 1973),
    whose residual is ``pi`` projected off ``[1, u]``.  A ``u`` that does not
    vary fits the level, ``beta1 = beta2 = mean(pi)``.
    """
    n = len(pi)
    pbar = float(pi.sum()) / n
    pc = pi - pbar
    du = u - u[0]  # exact zeros when every u is the same
    ubar = float(du.sum()) / n
    du -= ubar
    sxx, sxy = float(du @ du), float(du @ pc)
    slope = sxy / sxx if sxx else 0.0
    b2 = pbar - slope * (float(u[0]) + ubar)
    return b2 + slope, b2, pc - slope * du  # centred, so no cancellation in b2 + slope*u


def _stage2_problem(e: np.ndarray, pib: np.ndarray, beta3_hat: float) -> ResidualProblem:
    """Stage 2 over the ratios it identifies, ``q = (c6, c5)``.

    The predicted position is the stage-1 curve
    ``h = _stage1_value(e, c6, c5, beta3_hat)`` and the model for the
    inverse position ``pib`` is ``1/h``.
    """

    def position(q):
        return _guarded_denominator(_stage1_value(e, q[0], q[1], beta3_hat))

    def residual(q):
        return pib - 1.0 / position(q)

    def jacobian(q):
        return _stage1_grad(e, q[0], q[1], beta3_hat)[:, :2] / position(q)[:, None] ** 2

    return ResidualProblem(residual, jacobian, 2, len(e))


def standard_errors(fit: FitResult, problem: ResidualProblem) -> tuple[float, ...] | None:
    """Gauss-Newton standard errors ``sqrt(diag(s2 * inv(J'J)))``.

    ``s2`` is ``residual_norm / (n_obs - n_params)``.  With ``J = QR``,
    ``inv(J'J) = inv(R) inv(R)'``, so the condition number of ``J`` is
    never squared.  Returns None when ``cond(R) >= 1/sqrt(eps)``
    (degenerate covariance) — absent, not zero.  Requires more
    observations than parameters.
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
    r = np.linalg.qr(jac, mode="r")
    cond = np.linalg.cond(r)
    if not np.isfinite(cond) or cond >= _SINGULAR_COND:
        return None
    s = math.sqrt(fit.residual_norm / (problem.n_obs - problem.n_params))
    return tuple(s * float(v) for v in np.linalg.norm(np.linalg.inv(r), axis=1))


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
    ``beta3_hat`` and the Jacobian in the two parameters the gauge leaves
    free, and free-gauge fits always carry ``GAUGE_UNIDENTIFIED``.
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
        k, _ = gauge.fixed
        cond = _cond_or_flag(lambda: np.delete(_stage2_grad(e, b.beta4, b.beta5, b.beta6, beta3_hat), k, 1))
        if cond > _COND_LIMIT:
            flags.add(DIAG_ILL_CONDITIONED)
        if gauge.variant == "free":
            flags.add(DIAG_GAUGE)
        return frozenset(flags)
    raise TypeError("fit.params must be Stage1Params or Stage2Params")


def fit_volatility(data: Dataset, opts: SolverOptions = SolverOptions()) -> FitResult:
    """Stage-1 fit: positions against excess returns, by variable projection.

    At a fixed ``k = log(beta3/max|e|)`` the closed-form ``(beta1, beta2)``
    leave a one-parameter fit in ``k``.  It starts at the best of ``k = -8,
    ..., 6`` (skipping poles ``-beta3`` among the observed ``e``) and takes
    projected Gauss-Newton steps in ``k`` (``opts.max_iterations``,
    ``opts.x_tol``).  Standard errors are None, with ``DEGENERATE_COVARIANCE``,
    when singular.  Level-only data (one distinct ``e``, or flat positions)
    converge at the level fit with ``IDENTIFIABILITY_B1_EQ_B2``.  Needs at
    least 4 rows.  Raises ValueError("beta3 is not identified: ...") when
    ``k`` ends off the grid.
    """
    if data.n_rows < _MIN_ROWS_STAGE1:
        raise ValueError(
            f"insufficient data: stage-1 fit needs at least {_MIN_ROWS_STAGE1} rows, got {data.n_rows}"
        )
    e, pi = data.e, data.pi_star
    lo, hi = e.min(), e.max()
    scale = float(max(-lo, hi)) or 1.0
    flat = (np.finfo(float).eps * float(np.linalg.norm(pi))) ** 2

    def profile(k: float) -> tuple:
        """``(ssr, k, beta1, beta2, u, residual)`` at ``beta3 = max|e|*exp(k)``; inf ssr: pole among the e."""
        b3 = scale * math.exp(min(k, 700.0))  # the cap only flattens fits refused anyway
        if lo <= -b3 <= hi:
            return (math.inf,)
        u = e / (b3 + e)
        b1, b2, res = _linear_part(pi, u)
        return float(res @ res), k, b1, b2, u, res

    # Finite: for k >= 1 the pole lies below -max|e|.
    best = min((profile(k) for k in _LOG_BETA3_GRID), key=lambda p: p[0])
    trace, k0, g0 = [], math.nan, math.nan
    while True:
        ssr, k, b1, b2, u, res = best
        # d(residual)/dk, from w = -du/dk = u(1 - u) projected off [1, u]: exact gradient (Kaufman 1975)
        jac = (b1 - b2) * _linear_part(u * (1.0 - u), u)[2]
        g, h = float(jac @ res), float(jac @ jac)
        secant = (g - g0) / (k - k0)  # nan before the first step
        h = secant if secant > 0.0 else h  # h lacks the residual's own curvature; the secant has it
        if g * g <= flat * h:  # the predicted decrease, g*g/h, is rounding
            message = "gradient tolerance reached"
            break
        if len(trace) >= opts.max_iterations:
            message = "max iterations"
            break
        step = max(-1.0, min(1.0, -g / h))  # at most one grid cell
        while abs(step) > opts.x_tol and not (trial := profile(k + step))[0] < ssr:
            step *= 0.5
        if abs(step) <= opts.x_tol:
            message = "step tolerance reached"
            break
        best, k0, g0 = trial, k, g
        trace.append(((trial[2], trial[3], scale * math.exp(trial[1])), trial[0]))
    if not _LOG_BETA3_GRID[0] <= k <= _LOG_BETA3_GRID[-1]:
        raise ValueError(f"beta3 is not identified: log(beta3/max|e|) ends at {k:.6g}, outside [-8, 6]")
    params = Stage1Params(b1, b2, scale * math.exp(k))
    fit = FitResult(params, ssr, len(trace), message != "max iterations", trace=tuple(trace), message=message)
    problem = ResidualProblem(lambda p: pi - _stage1_value(e, *p), lambda p: -_stage1_grad(e, *p), 3, len(e))
    se = standard_errors(fit, problem)
    flags = set(identifiability_diagnostics(fit, data))
    if se is None:
        flags.add(DIAG_DEGENERATE_COV)
    return replace(fit, standard_errors=se, diagnostics=frozenset(flags))


def _row_name(data: Dataset, i: int) -> str:
    label = None if data.labels is None else data.labels[i]
    return f"row {i}" if label is None else f"row {i} (label {label!r})"


def _apply_gauge(q, k: int, pin: float) -> np.ndarray:
    """``(beta4, beta5, beta6) = s*(1, c5, c6)`` with ``s = pin/(1, c5, c6)[k]``."""
    v = np.array([1.0, q[1], q[0]])
    beta = pin / v[k] * v
    beta[k] = pin
    return beta


def fit_vol_of_vol(
    data: Dataset,
    beta3_hat: float,
    gauge: GaugeRule,
    opts: SolverOptions = SolverOptions(),
) -> FitResult:
    """Stage-2 fit: inverse positions against excess returns.

    Fits the identified ratios ``(c6, c5)``, starting from the stage-1
    linear fit of the positions at ``beta3_hat``, then applies the gauge.
    ``gamma_hat`` is the resulting ``beta4``.  The regressand is
    ``1/pi_star``, so a zero position, or positions that do not share one
    sign, are rejected with the offending row named; so is a gauge pin
    whose sign would make ``beta4 <= 0``.  Standard errors cover the two
    free parameters (the fixed one reports 0.0).
    """
    if not (math.isfinite(beta3_hat) and beta3_hat > 0.0):
        raise ValueError("beta3_hat must be finite and > 0")
    e, pi = data.e, data.pi_star
    zeros = np.flatnonzero(pi == 0.0)
    if zeros.size:
        where = _row_name(data, int(zeros[0]))
        raise ValueError(f"zero position at {where}: inverse positions are undefined")
    flips = np.flatnonzero(np.signbit(pi) != np.signbit(pi[:1]))
    if flips.size:
        where = _row_name(data, int(flips[0]))
        raise ValueError(
            f"position sign change at {where}: positions cross zero, so their inverses pass a pole"
        )
    problem = _stage2_problem(e, 1.0 / pi, beta3_hat)
    c6, c5, _ = _linear_part(pi, _stage1_value(e, 1.0, 0.0, beta3_hat))  # u = e/(b3h + e)
    raw = lm_fit(problem, np.array([c6, c5]), opts)

    k, pin = gauge.fixed
    q = raw.params
    if k and e.min() == e.max():
        # One distinct e identifies only the level of the curve: every
        # q + t*null fits alike, so take the one where the pinned ratio
        # q[j] equals the pin (s = 1).
        null, j = np.array([beta3_hat, -e[0]]), 2 - k
        if null[j]:
            q = q + (pin - q[j]) / null[j] * null
    c6, c5 = (float(x) for x in q)
    ratio = (1.0, c5, c6)[k]
    if not pin * ratio > 0.0:
        name = ("beta4", "beta5", "beta6")[k]
        raise ValueError(
            f"gauge sign conflict: {gauge.variant} pins {name} at {pin:+.6g} but the data give "
            f"{name}/beta4 = {ratio:+.6g}; opposite signs would make beta4 <= 0"
        )
    beta = _apply_gauge(q, k, pin)
    params = Stage2Params(*beta.tolist())
    trace = tuple((tuple(_apply_gauge(t, k, pin).tolist()), ssr) for t, ssr in raw.trace)
    fit = replace(raw, params=params, trace=trace)

    # Delta method through beta = s*(1, c5, c6): the covariance of the two
    # free betas is G C G', with C the (c6, c5) covariance and G their
    # derivative in (c6, c5).  That is the Gauss-Newton covariance of
    # J inv(G), and inv(G) is the derivative of (c6, c5) = (beta6, beta5)/beta4
    # in the free betas.
    free = [i for i in range(3) if i != k]
    dq = (np.array([[-c6, 0.0, 1.0], [-c5, 1.0, 0.0]]) / beta[0])[:, free]
    se_free = standard_errors(
        replace(raw, params=beta[free]),
        replace(problem, jacobian=lambda _: problem.jacobian(q) @ dq),
    )
    se = None if se_free is None else se_free[:k] + (0.0,) + se_free[k:]
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
    truth = None if isinstance(spec, StructuralSpec) else spec.stage1

    estimates: list[np.ndarray] = []
    ses: list[tuple[float, ...] | None] = []
    gamma_hats: list[float] = []
    stage2_converged = 0
    stage2_failed = 0
    n_converged = 0
    n_failed = 0

    for rep in range(replications):
        seed = _replication_seed(master_seed, rep)
        try:
            data = generate_synthetic_dataset(spec.kind, spec, seed)
            fit = fit_volatility(data, opts)
        except ValueError:
            n_failed += 1
            continue
        if not fit.converged:
            n_failed += 1
            continue
        n_converged += 1
        estimates.append(fit.params.as_array())
        ses.append(fit.standard_errors)
        if run_stage2:
            try:
                gauge = GaugeRule.from_stage1(gauge_variant, fit)
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
            hits = [np.abs(err) <= 1.96 * np.array(se) for err, se in zip(errors, ses) if se is not None]
            coverage_evaluated = len(hits)
            coverage = tuple(sum(int(hit[j]) for hit in hits) for j in range(3))
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
    )
