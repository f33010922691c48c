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

Both stages run on stacked datasets, ``(R, n)`` arrays with one dataset
per row: every row keeps its own steps, stop and failure, and every sum
runs along a row, so a row's result does not depend on the others.  The
Monte Carlo harness fits chunks of replications this way, and
``fit_volatility`` and ``fit_vol_of_vol`` are the case ``R = 1``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import Dataset, FitResult, Stage1Params, Stage2Params
from .nls import (
    UNEVALUABLE_START,
    PoleError,
    ResidualProblem,
    _pole_rows,
    _rowdot,
    _select,
    _stage1_grad,
    _stage2_grad,
    lm_fit,
)
from .simulate import (
    BASE_RATE,
    GenerationSpec,
    StructuralSpec,
    _check_seed,
    _model_implied_rows,
    _stream_keys,
    generate_synthetic_dataset,
)

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
# Its search stops unconverged after this many accepted steps, and converged
# once the predicted decrease is lost in the rounding of the sum of squares
# or a step in log(beta3/max|e|) no longer than _K_TOL brings no decrease.
_STAGE1_MAX_ITERATIONS = 200
_K_TOL = 1e-12
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


def _linear_part(y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(beta1, beta2, residual)`` per row, the stage-1 fit at a fixed ``beta3`` in closed form.

    The curve is then ``beta2 + (beta1 - beta2)*u`` with ``u = e/(beta3 + e)``,
    a simple linear regression of ``y`` on ``u`` (Golub and Pereyra 1973),
    whose residual is ``y`` projected off ``[1, u]``.  A ``u`` that does not
    vary fits the level, ``beta1 = beta2 = mean(y)``.  ``y`` and ``u`` are
    ``(R, n)``; every sum runs along a row.
    """
    n = y.shape[-1]
    ybar = y.sum(axis=-1) / n
    yc = y - ybar[:, None]
    du = u - u[:, :1]  # exact zeros when every u is the same
    ubar = du.sum(axis=-1) / n
    du -= ubar[:, None]
    sxx, sxy = _rowdot(du, du), _rowdot(du, yc)
    slope = np.divide(sxy, sxx, out=np.zeros_like(sxy), where=sxx != 0.0)
    b2 = ybar - slope * (u[:, 0] + ubar)
    return b2 + slope, b2, yc - slope[:, None] * du  # centred, so no cancellation in b2 + slope*u


def _qr_rows(jac: np.ndarray, ssr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard errors and ``cond(J)`` per row, from one stacked QR of the Jacobians ``jac``, ``(R, n, p)``.

    Gauss-Newton standard errors ``sqrt(diag(s2 * inv(J'J)))`` with ``s2 =
    ssr/(n - p)``: with ``J = QR``, ``inv(J'J) = inv(R) inv(R)'``, so the
    condition number of ``J`` is never squared.  ``cond(R) = cond(J)``, so
    this one condition number serves both the standard errors and the
    ``ILL_CONDITIONED`` diagnostic; it is inf for a singular or non-finite
    Jacobian.  A row's standard errors are nan (degenerate covariance) when
    ``cond(R) >= 1/sqrt(eps)`` or ``n <= p``.
    """
    n_rows, n, p = jac.shape
    finite = np.all(np.isfinite(jac), axis=(1, 2))
    if not finite.all():
        jac = np.where(finite[:, None, None], jac, 0.0)
    r = np.linalg.qr(jac, mode="r")
    cond = np.linalg.cond(r)
    cond = np.where(finite & np.isfinite(cond), cond, np.inf)
    ok = cond < _SINGULAR_COND
    if n <= p:
        return np.full((n_rows, p), np.nan), cond
    rinv = np.linalg.inv(np.where(ok[:, None, None], r, np.eye(p)))
    se = np.sqrt(ssr / (n - p))[:, None] * np.linalg.norm(rinv, axis=-1)
    se[~ok] = np.nan
    return se, cond


def standard_errors(fit: FitResult, problem: ResidualProblem) -> tuple[float, ...] | None:
    """Gauss-Newton standard errors ``sqrt(diag(s2 * inv(J'J)))``.

    ``s2`` is ``residual_norm / (n_obs - n_params)``.  With ``J = QR``,
    ``inv(J'J) = inv(R) inv(R)'``, so the condition number of ``J`` is
    never squared.  Returns None when ``cond(R) >= 1/sqrt(eps)``
    (degenerate covariance) — absent, not zero.  Requires more
    observations than parameters.  ``problem`` is evaluated as a stack of
    one row, at ``fit.params``.
    """
    if problem.n_obs <= problem.n_params:
        raise ValueError("standard errors require n_obs > n_params")
    p = fit.params.as_array() if hasattr(fit.params, "as_array") else np.asarray(fit.params, float)
    try:
        jac = np.asarray(problem.jacobian(p[None], slice(None)), dtype=float)
    except (ValueError, ArithmeticError):
        return None
    se = _qr_rows(jac, np.array([fit.residual_norm]))[0][0]
    return None if np.isnan(se).any() else tuple(se.tolist())


def _stage1_checks(E, b1, b2, b3, ssr) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors and diagnostics of stage-1 fits, per row, from :func:`stage1_jacobian`'s derivatives."""
    near = np.min(np.abs(b3[:, None] + E), axis=-1) < 1e-3 * b3
    se, cond = _qr_rows(_stage1_grad(E, b1, b2, b3)[0], ssr)
    return se, {
        DIAG_B1_EQ_B2: np.abs(b1 - b2) < 1e-6 * np.maximum(np.maximum(np.abs(b1), np.abs(b2)), 1.0),
        DIAG_POLE: near,
        DIAG_ILL_CONDITIONED: cond > _COND_LIMIT,
        DIAG_DEGENERATE_COV: np.isnan(se).any(axis=-1),
    }


def _stage2_checks(E, beta, b3h, k: int, ssr) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors of the two betas the gauge leaves free and the diagnostics of stage-2 fits, per row.

    The Jacobian is :func:`stage2_jacobian`'s in those two betas: the
    residual Jacobian of the gauge-fixed problem, up to sign.
    """
    near = np.min(np.abs(b3h[:, None] + E), axis=-1) < 1e-3 * b3h
    se, cond = _qr_rows(_stage2_grad(E, beta, b3h, tuple(i for i in range(3) if i != k))[0], ssr)
    return se, {
        DIAG_POLE: near,
        DIAG_ILL_CONDITIONED: cond > _COND_LIMIT,
        DIAG_GAUGE: np.full(len(E), k == 0),
        DIAG_DEGENERATE_COV: np.isnan(se).any(axis=-1),
    }


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
    free, and free-gauge fits always carry ``GAUGE_UNIDENTIFIED``.  The
    condition number is ``cond(R)`` of the Jacobian's QR factor, the one
    the fits' standard errors use.
    """
    E, ssr = data.e[None], np.zeros(1)
    if isinstance(fit.params, Stage1Params):
        flags = _stage1_checks(E, *(np.array([v]) for v in fit.params.as_array()), ssr)[1]
    elif isinstance(fit.params, Stage2Params):
        if beta3_hat is None:
            raise ValueError("stage-2 diagnostics require beta3_hat")
        b, k = fit.params, (gauge if gauge is not None else GaugeRule.free()).fixed[0]
        flags = _stage2_checks(E, np.array([[b.beta4, b.beta5, b.beta6]]), np.array([float(beta3_hat)]), k, ssr)[1]
    else:
        raise TypeError("fit.params must be Stage1Params or Stage2Params")
    return frozenset(name for name, rows in flags.items() if rows[0] and name != DIAG_DEGENERATE_COV)


@dataclass(frozen=True)
class _Rows:
    """One stage fitted on stacked rows; entry ``i`` of each field is row ``i``'s.

    ``flags`` maps each diagnostic to its rows.  ``failures`` maps a row
    that yields no fit to ``(reason, error)``: its Monte Carlo tally key and
    the error the single-dataset fit raises.
    """

    kind: type
    params: np.ndarray
    residual_norm: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    messages: list[str]
    standard_errors: np.ndarray
    flags: dict[str, np.ndarray]
    failures: dict[int, tuple[str, ValueError]]

    def result(self, i: int) -> FitResult:
        """Row ``i`` as a :class:`FitResult`; raises its failure, if any."""
        if i in self.failures:
            raise self.failures[i][1]
        se = self.standard_errors[i]
        return FitResult(
            self.kind(*self.params[i].tolist()),
            float(self.residual_norm[i]),
            int(self.iterations[i]),
            bool(self.converged[i]),
            standard_errors=None if np.isnan(se).any() else tuple(se.tolist()),
            diagnostics=frozenset(name for name, rows in self.flags.items() if rows[i]),
            message=self.messages[i],
        )


def _exp(x: np.ndarray) -> np.ndarray:
    """``exp`` from the C library, one value at a time: numpy's vectorised ``exp`` can differ from it in the last bit, and by CPU."""
    return np.array([math.exp(v) for v in x.tolist()])


def _stage1_rows(E: np.ndarray, PI: np.ndarray) -> _Rows:
    """Stage 1 on stacked datasets: excess returns ``E`` and positions ``PI``, ``(R, n)``.

    Each row runs the search of :func:`fit_volatility` with its own grid
    start, steps, halvings, stop and refusal.
    """
    n_rows, n = E.shape
    if n < _MIN_ROWS_STAGE1:
        raise ValueError(f"insufficient data: stage-1 fit needs at least {_MIN_ROWS_STAGE1} rows, got {n}")
    lo, hi = E.min(axis=-1), E.max(axis=-1)
    scale = np.maximum(-lo, hi)
    scale[scale == 0.0] = 1.0

    def fit(k, sel):
        """``(ssr, beta1, beta2, u, residual)`` of rows ``sel`` at ``beta3 = max|e|*exp(k)``; inf ssr: pole among the e."""
        b3 = scale[sel] * _exp(k)
        u = E[sel] / (b3[:, None] + E[sel])
        b1, b2, res = _linear_part(PI[sel], u)
        ssr = _rowdot(res, res)
        ssr[(lo[sel] <= -b3) & (-b3 <= hi[sel])] = np.inf
        return ssr, b1, b2, u, res

    def profile(k, sel):
        """``(ssr, beta1, beta2, g, h)``: the fit at ``k``, with the gradient and Gauss-Newton curvature of ssr/2."""
        ssr, b1, b2, u, res = fit(k, sel)
        # d(residual)/dk, from w = -du/dk = u(1 - u) projected off [1, u]: exact gradient (Kaufman 1975)
        jac = (b1 - b2)[:, None] * _linear_part(u * (1.0 - u), u)[2]
        return ssr, b1, b2, _rowdot(jac, res), _rowdot(jac, jac)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eps = np.finfo(float).eps
        flat = (eps * np.sqrt(_rowdot(PI, PI))) ** 2
        # Finite: for k >= 1 the pole lies below -max|e|.
        k, best = np.full(n_rows, math.nan), np.full(n_rows, np.inf)
        for grid_k in _LOG_BETA3_GRID:
            ssr = fit(np.full(n_rows, float(grid_k)), slice(None))[0]
            better = ssr < best
            k[better], best[better] = grid_k, ssr[better]
        ssr, b1, b2, G, H = profile(k, slice(None))
        k0, g0 = np.full(n_rows, math.nan), np.full(n_rows, math.nan)
        iterations = np.zeros(n_rows, dtype=int)
        messages = [""] * n_rows
        live = np.ones(n_rows, dtype=bool)

        def stop(rows, message):
            live[rows] = False
            for i in rows.tolist():
                messages[i] = message

        while live.any():
            rows = np.flatnonzero(live)
            g, h = G[rows], H[rows]
            secant = (g - g0[rows]) / (k[rows] - k0[rows])  # nan before the first step
            h = np.where(secant > 0.0, secant, h)  # h lacks the residual's own curvature; the secant has it
            done = g * g <= np.fmax(flat[rows], eps * ssr[rows]) * h  # the predicted decrease, g*g/h, is rounding
            stop(rows[done], "gradient tolerance reached")
            out_of_steps = ~done & (iterations[rows] >= _STAGE1_MAX_ITERATIONS)
            stop(rows[out_of_steps], "max iterations")
            go = ~done & ~out_of_steps
            rows, g = rows[go], g[go]
            step = np.clip(-g / h[go], -1.0, 1.0)  # at most one grid cell
            search = np.abs(step) > _K_TOL
            stop(rows[~search], "step tolerance reached")
            while search.any():
                at = np.flatnonzero(search)
                sub = rows[at]
                k_trial = k[sub] + step[at]
                t_ssr, t_b1, t_b2, t_g, t_h = profile(k_trial, _select(sub, n_rows))
                won = t_ssr < ssr[sub]
                kept = sub[won]
                k0[kept], g0[kept], k[kept] = k[kept], g[at[won]], k_trial[won]
                ssr[kept], b1[kept], b2[kept] = t_ssr[won], t_b1[won], t_b2[won]
                G[kept], H[kept] = t_g[won], t_h[won]
                iterations[kept] += 1
                search[at[won]] = False
                lost = at[~won]
                step[lost] *= 0.5
                short = lost[np.abs(step[lost]) <= _K_TOL]
                stop(rows[short], "step tolerance reached")
                search[short] = False

    failures = {
        i: ("stage1 beta3 not identified", ValueError(
            f"beta3 is not identified: log(beta3/max|e|) ends at {float(k[i]):.6g}, outside [-8, 6]"
        ))
        for i in np.flatnonzero((k < _LOG_BETA3_GRID[0]) | (k > _LOG_BETA3_GRID[-1])).tolist()
    }
    b3 = scale * _exp(k)
    params = np.stack([b1, b2, b3], axis=1)
    # Inputs are finite, so a non-finite fit is one whose sums overflowed.
    for i in np.flatnonzero(~(np.isfinite(ssr) & np.isfinite(params).all(axis=1))).tolist():
        failures.setdefault(i, ("stage1 non-finite fit", ValueError(
            "stage-1 fit is not finite: positions too large, the sum of squares overflows"
        )))
    se, flags = _stage1_checks(E, b1, b2, b3, ssr)
    converged = np.array([m != "max iterations" for m in messages])
    converged[list(failures)] = False
    return _Rows(Stage1Params, params, ssr, iterations, converged, messages, se, flags, failures)


def fit_volatility(data: Dataset) -> FitResult:
    """Stage-1 fit: positions against excess returns, by variable projection.

    At a fixed ``k = log(beta3/max|e|)`` the closed-form ``(beta1, beta2)``
    leave a one-parameter fit in ``k``.  It starts at the best of ``k = -8,
    ..., 6`` (skipping poles ``-beta3`` among the observed ``e``) and takes
    projected Gauss-Newton steps in ``k``: at most 200 accepted steps,
    stopping early once the predicted decrease is below the rounding of
    the sum of squares, ``eps*ssr``, or of the positions, ``(eps*|pi|)**2``
    (message "gradient tolerance reached"), or once a step of at most
    1e-12 brings no decrease ("step tolerance reached").  Standard
    errors are None, with ``DEGENERATE_COVARIANCE``, when singular.
    Level-only data (one distinct ``e``, or flat positions) converge at
    the level fit with ``IDENTIFIABILITY_B1_EQ_B2``.  Needs at least 4
    rows.  Raises ValueError("beta3 is not identified: ...") when ``k``
    ends off the grid, and ValueError("stage-1 fit is not finite: ...")
    when positions are so large that the sum of squares overflows.  This
    is the one-row case of the stacked fit the Monte Carlo harness runs.
    """
    return _stage1_rows(data.e[None], data.pi_star[None]).result(0)


def _row_name(labels, i: int) -> str:
    label = None if labels is None else labels[i]
    return f"row {i}" if label is None else f"row {i} (label {label!r})"


def _apply_gauge(q: np.ndarray, k: int, pins: np.ndarray) -> np.ndarray:
    """Rows of ``(beta4, beta5, beta6) = s*(1, c5, c6)`` with ``s = pin/(1, c5, c6)[k]``, ``q = (c6, c5)``."""
    v = np.stack([np.ones(len(q)), q[:, 1], q[:, 0]], axis=1)
    beta = (pins / v[:, k])[:, None] * v
    beta[:, k] = pins
    return beta


def _stage2_rows(
    E: np.ndarray,
    PI: np.ndarray,
    b3h: np.ndarray,
    k: int,
    pins: np.ndarray,
    labels=None,
) -> _Rows:
    """Stage 2 on stacked datasets, ``(R, n)``, each row with its own ``beta3_hat`` and pin.

    ``k`` indexes the parameter of ``(beta4, beta5, beta6)`` the gauge
    holds at ``pins`` (``free`` holds ``beta4 = 1``); ``labels`` name the
    observations in the errors of :func:`fit_vol_of_vol`.
    """
    n_rows, n = E.shape
    failures: dict[int, tuple[str, ValueError]] = {}

    def fail(rows, reason, error):  # the first failure of a row is the one it reports
        for i in rows.tolist():
            failures.setdefault(i, (reason, error(i)))

    zero = PI == 0.0
    fail(np.flatnonzero(zero.any(axis=-1)), "stage2 zero position", lambda i: ValueError(
        f"zero position at {_row_name(labels, int(np.argmax(zero[i])))}: inverse positions are undefined"
    ))
    flips = np.signbit(PI) != np.signbit(PI[:, :1])
    fail(np.flatnonzero(flips.any(axis=-1)), "stage2 position sign change",
         lambda i: ValueError(
             f"position sign change at {_row_name(labels, int(np.argmax(flips[i])))}: "
             "positions cross zero, so their inverses pass a pole"
         ))
    bh = b3h[:, None]
    denom = bh + E
    fail(np.flatnonzero(_pole_rows(denom, bh, E)), "stage2 pole guard",
         lambda i: PoleError("model evaluated within the pole guard of a vanishing denominator"))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        U, V = E / denom, bh / denom  # the curve's derivatives in c6 and c5
        PIB = 1.0 / PI
        c6, c5, _ = _linear_part(PI, U)
        start = np.stack([c6, c5], axis=1)
        start[list(failures)] = np.nan  # a row that already failed stops at its start

        def position(q, rows):
            h = q[:, 0, None] * E[rows]
            h += q[:, 1, None] * bh[rows]
            h /= denom[rows]
            return h, _pole_rows(h)

        def residual(q, rows):
            res, pole = position(q, rows)
            np.subtract(PIB[rows], np.divide(1.0, res, out=res), out=res)
            res[pole] = np.nan
            return res

        def jacobian(q, rows):
            hh, pole = position(q, rows)
            hh *= hh
            jac = np.empty(hh.shape + (2,))
            np.divide(U[rows], hh, out=jac[..., 0])
            np.divide(V[rows], hh, out=jac[..., 1])
            jac[pole] = np.nan
            return jac

        raw = lm_fit(ResidualProblem(residual, jacobian, 2, n), start)
        del U, V, PIB, denom
    fail(np.flatnonzero([m == UNEVALUABLE_START for m in raw.messages]),
         "stage2 initial residuals unevaluable", lambda i: ValueError(UNEVALUABLE_START))

    q = raw.params.copy()
    if k:
        # One distinct e identifies only the level of the curve: every
        # q + t*null fits alike, so take the one where the pinned ratio
        # q[j] equals the pin (s = 1).
        null, j = np.stack([b3h, -E[:, 0]], axis=1), 2 - k
        one = (E.min(axis=-1) == E.max(axis=-1)) & (null[:, j] != 0.0)
        q[one] += ((pins[one] - q[one, j]) / null[one, j])[:, None] * null[one]
    ratio = np.stack([np.ones(n_rows), q[:, 1], q[:, 0]], axis=1)[:, k]
    name = ("beta4", "beta5", "beta6")[k]
    fail(np.flatnonzero(~(pins * ratio > 0.0)), "stage2 gauge sign conflict", lambda i: ValueError(
        f"gauge sign conflict: {_GAUGE_VARIANTS[k]} pins {name} at {pins[i]:+.6g} but the data give "
        f"{name}/beta4 = {ratio[i]:+.6g}; opposite signs would make beta4 <= 0"
    ))
    if n <= 2:
        fail(np.arange(n_rows), "stage2 insufficient data",
             lambda i: ValueError("standard errors require n_obs > n_params"))
    converged = raw.converged.copy()
    converged[list(failures)] = False

    params = _apply_gauge(q, k, pins)
    se_free, flags = _stage2_checks(E, params, b3h, k, raw.residual_norm)
    return _Rows(
        Stage2Params, params, raw.residual_norm, raw.row_iterations, converged, raw.messages,
        np.insert(se_free, k, 0.0, axis=1), flags, failures,
    )


def fit_vol_of_vol(
    data: Dataset,
    beta3_hat: float,
    gauge: GaugeRule,
) -> FitResult:
    """Stage-2 fit: inverse positions against excess returns.

    Fits the identified ratios ``(c6, c5)``, starting from the stage-1
    linear fit of the positions at ``beta3_hat``, then applies the gauge.
    ``gamma_hat`` is the resulting ``beta4``.  The regressand is
    ``1/pi_star``, so a zero position, or positions that do not share one
    sign, are rejected with the offending row named; so is a gauge pin
    whose sign would make ``beta4 <= 0``.  Standard errors cover the two
    free parameters (the fixed one reports 0.0).  This is the one-row case
    of the stacked fit the Monte Carlo harness runs.
    """
    if not (math.isfinite(beta3_hat) and beta3_hat > 0.0):
        raise ValueError("beta3_hat must be finite and > 0")
    k, pin = gauge.fixed
    rows = _stage2_rows(
        data.e[None], data.pi_star[None], np.array([float(beta3_hat)]), k, np.array([pin]), data.labels
    )
    return rows.result(0)


def estimate_rho(beta2_hat: float, gamma_hat: float, alpha_ratio: float) -> RhoEstimate:
    """Correlation factor from the fitted intercept coefficient.

    Inverts ``beta2 = -rho * gamma * alpha_ratio`` where ``alpha_ratio``
    is the user-supplied ``alpha2 / alpha1`` of the marginal-value
    expansion.  Values outside [-1, 1] are returned as-is with the
    ``RHO_OUT_OF_RANGE`` diagnostic.  A non-finite input raises ValueError.
    """
    for name, value in (("beta2_hat", beta2_hat), ("gamma_hat", gamma_hat), ("alpha_ratio", alpha_ratio)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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
    was not run).  ``failures`` tallies, as sorted ``(reason, count)``
    pairs, every replication that gave no converged fit in a stage it ran:
    ``"stage1 beta3 not identified"``, ``"stage1 non-finite fit"``,
    ``"stage1 not converged: max iterations"``, ``"stage2 position sign
    change"``, ``"stage2 pole guard"`` and so on.  Neither is written to
    the report.
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
    failures: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.bias is not None and self.rmse is not None:
            for b, r in zip(self.bias, self.rmse):
                if r + 1e-12 * (1.0 + r) < abs(b):
                    raise ValueError("invalid ValidationReport: rmse must be >= |bias|")

    @property
    def convergence_rate(self) -> float:
        return self.n_converged / self.replications


def _tally(failures: Counter, stage: str, rows: _Rows) -> None:
    """Count each row without a converged fit under its failure reason or solver message."""
    for i in np.flatnonzero(~rows.converged).tolist():
        if i in rows.failures:
            failures[rows.failures[i][0]] += 1
        else:
            failures[f"{stage} not converged: {rows.messages[i].split(' at iteration')[0]}"] += 1


def _generate_chunk(spec: GenerationSpec | StructuralSpec, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Excess returns and positions, ``(R, n)``, of the replications at ``seeds`` that generate.

    A replication is dropped exactly when ``generate_synthetic_dataset`` at
    its seed raises ValueError.  Model-implied rows are drawn as one stack,
    and the checks that can fail there run on it: the pole guard and
    finite positions (``mu`` and ``e`` are finite by construction).
    Structural rows are generated one at a time.
    """
    if isinstance(spec, StructuralSpec):
        E, PI = [], []
        for seed in seeds.tolist():
            try:
                data = generate_synthetic_dataset(spec.kind, spec, seed)
            except ValueError:
                continue
            E.append(data.e)
            PI.append(data.pi_star)
        n = spec.path.n_steps + 1
        return (np.stack(E), np.stack(PI)) if E else (np.empty((0, n)), np.empty((0, n)))
    mu, PI, pole = _model_implied_rows(spec, seeds)
    ok = ~pole & np.isfinite(PI).all(axis=-1)
    E = np.subtract(mu, BASE_RATE, out=mu)  # Dataset.e = mu - r
    keep = _select(np.flatnonzero(ok), len(ok))
    return E[keep], PI[keep]


# Replications are generated and fitted in chunks of this many rows times
# observations, rounded up to whole replications: large enough that
# numpy's per-call cost is shared, small enough that the stacked
# temporaries stay a few MB.  Medians of 2 to 5 perfbench mc-model-implied
# runs (500 replications of n = 200, probe-scaled, 2-vCPU host) with the
# replications drawn into stacked arrays; drawing one Dataset per
# replication with a 6400 budget took 0.160 s and 43.47 MB:
#
#   budget   replications/chunk   op_s_p50   peak_rss_mb
#    6400           32             0.124 s     43.38 MB
#   12800           64             0.091 s     44.10 MB
#   16000           80             0.083 s     44.62 MB
#   19200           96             0.080 s     45.10 MB
#   25600          128             0.074 s     45.73 MB
#
# 12800 is the largest of these whose peak RSS stays within 1 MB of that.
_CHUNK_OBSERVATIONS = 12800


def monte_carlo_validation(
    spec: GenerationSpec | StructuralSpec,
    replications: int,
    *,
    master_seed: int = 0,
    run_stage2: bool = False,
    gauge_variant: str = "pin-beta5",
) -> ValidationReport:
    """Repeated generate-and-fit experiment with deterministic seeding.

    Replication ``i`` generates data with the seed
    ``SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(1, uint64)``;
    ``master_seed`` must be an integer in ``[0, 2**64)``.  Replications are
    generated and fitted in chunks, each stage fitting a chunk as one
    ``(rows, n)`` problem, every row with its own steps, stop and failure; a
    row's result does not depend on the chunk it is in, so the report is
    bit-identical across runs, chunking and scheduling.  Per-replication
    failures (data that do not generate, refusals, non-convergence,
    degenerate data) are counted by reason, not fatal.  ``run_stage2``
    additionally fits the inverse-position model under ``gauge_variant``
    (pinned at each replication's own stage-1 fit) and aggregates the
    resulting ``gamma_hat``.
    """
    if replications < 2:
        raise ValueError("replications must be >= 2")
    if gauge_variant not in _GAUGE_VARIANTS:
        raise ValueError(f"unknown gauge variant {gauge_variant!r}")
    master_seed = _check_seed("master_seed", master_seed)
    truth = None if isinstance(spec, StructuralSpec) else spec.stage1
    k = _GAUGE_VARIANTS.index(gauge_variant)
    failures: Counter[str] = Counter()
    estimates: list[np.ndarray] = []
    ses: list[np.ndarray] = []
    gamma_hats: list[np.ndarray] = []
    stage2_converged = stage2_failed = 0

    n_obs = spec.path.n_steps + 1 if isinstance(spec, StructuralSpec) else spec.n
    per_chunk = -(-_CHUNK_OBSERVATIONS // n_obs)
    for start in range(0, replications, per_chunk):
        reps = np.arange(start, min(start + per_chunk, replications), dtype=np.uint64)
        seeds = _stream_keys(master_seed, reps)[:, 0]
        E, PI = _generate_chunk(spec, seeds)
        if len(E) < len(seeds):
            failures["generation error"] += len(seeds) - len(E)
        if not len(E):
            continue
        try:
            stage1 = _stage1_rows(E, PI)
        except ValueError:
            failures["stage1 insufficient data"] += len(E)
            continue
        _tally(failures, "stage1", stage1)
        ok = np.flatnonzero(stage1.converged)
        estimates.append(stage1.params[ok])
        ses.append(stage1.standard_errors[ok])
        if not run_stage2 or not len(ok):
            continue
        b1, b2, b3 = stage1.params[ok].T
        pins = (np.ones(len(ok)), b2, b1)[k]
        keep = _select(ok, len(E))  # every row converged: no copy of the chunk
        stage2 = _stage2_rows(E[keep], PI[keep], b3, k, pins)
        _tally(failures, "stage2", stage2)
        stage2_failed += len(stage2.failures)
        stage2_converged += int(stage2.converged.sum())
        gamma_hats.append(stage2.params[stage2.converged, 0])

    names = ("beta1", "beta2", "beta3")
    bias = rmse = coverage = None
    beta3_mean = None
    scale = None
    coverage_evaluated = 0
    est = np.concatenate(estimates) if estimates else np.empty((0, 3))
    if len(est):
        beta3_mean = float(np.mean(est[:, 2]))
        if truth is not None:
            errors = est - truth.as_array()
            bias = tuple(float(v) for v in errors.mean(axis=0))
            rmse = tuple(float(v) for v in np.sqrt((errors**2).mean(axis=0)))
            se = np.concatenate(ses)
            evaluated = ~np.isnan(se).any(axis=1)
            coverage_evaluated = int(evaluated.sum())
            hits = np.abs(errors[evaluated]) <= 1.96 * se[evaluated]
            coverage = tuple(int(v) for v in hits.sum(axis=0))
        else:
            scale = volatility_scale_comparison(beta3_mean, spec.heston.sigma_bar)
    gammas = np.concatenate(gamma_hats) if gamma_hats else np.empty(0)

    return ValidationReport(
        replications=replications,
        truth=truth,
        param_names=names,
        n_converged=len(est),
        n_failed=replications - len(est),
        bias=bias,
        rmse=rmse,
        coverage=coverage,
        coverage_evaluated=coverage_evaluated,
        beta3_mean=beta3_mean,
        scale=scale,
        stage2_gamma_mean=(float(np.mean(gammas)) if len(gammas) else None),
        stage2_n_converged=(stage2_converged if run_stage2 else None),
        stage2_n_failed=(stage2_failed if run_stage2 else None),
        failures=tuple(sorted(failures.items())),
    )
