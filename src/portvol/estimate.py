"""Two-stage estimation pipeline and its validation harness.

Stage 1 fits the observed positions against the excess return and reads
the portfolio volatility off ``beta3``.  At a fixed ``beta3`` its curve is
linear in ``(beta1, beta2)``, so the fit is a search in ``log beta3`` alone
(variable projection).  It needs at least 3 distinct excess returns: with
two, every ``beta3`` fits the two group means exactly.  Data with fewer,
and a fit ending off its start grid, are refused.

Stage 2 fits the inverse positions and reads the volatility of
volatility off ``beta4``.  Its curve ``beta4*(b3h+e)/(beta5*b3h+beta6*e)``
identifies only the ratios ``c5 = beta5/beta4`` and ``c6 = beta6/beta4``:
its reciprocal is the stage-1 curve with ``(beta1, beta2, beta3) =
(c6, c5, b3h)``.  So stage 2 is one fit in ``(c6, c5)``, and the gauge
convention is a map applied afterwards, ``beta = s*(1, c5, c6)``, with
``s`` chosen so the pinned parameter takes its pin value.  Writing
``(c6, c5) = (cos(theta), sin(theta))/a``, the fit of ``1/pi`` at a fixed
``theta`` is a regression through the origin with ``a`` in closed form,
so stage 2 too is a search in one coordinate, ``theta``.  Both stages run
on one search loop, :func:`_search`, and neither uses Levenberg-Marquardt.
Stage 2 needs at least 2 distinct excess returns, one per ratio, and
refuses data with one.  Each fit needs more rows than free parameters,
4 in stage 1 and 3 in stage 2.  The rules around the search have one
owner each: :func:`_refuse` keeps a row's first refusal, :func:`_search`
its stop test and step cap, ``_Rows`` its convergence, and
:func:`_checks` the diagnostics both stages share.

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
from functools import cached_property

import numpy as np

from .model import Dataset, FitResult, Stage1Params, Stage2Params
from .nls import (
    _POLE_RTOL,
    UNEVALUABLE_START,
    PoleError,
    ResidualProblem,
    _pole_rows,
    _rowdot,
    _select,
    _stage1_grad,
    _stage2_grad,
)

# No fit here runs Levenberg-Marquardt.  The name stays importable from this
# module because the benchmark's tracer (perfbench/tracing.py) patches
# portvol.estimate.lm_fit; it goes when that tracer reads a run record.
from .nls import lm_fit  # noqa: F401
from .simulate import BASE_RATE, GenerationSpec, _check_seed, _model_implied_rows, _stream_keys

# The harness draws its replications as stacks and never calls
# generate_synthetic_dataset.  The name stays importable from this module
# because the benchmark's tracer (perfbench/tracing.py) patches
# portvol.estimate.generate_synthetic_dataset.
from .simulate import generate_synthetic_dataset  # noqa: F401

__all__ = [
    "GaugeRule",
    "RhoEstimate",
    "ValidationReport",
    "estimate_rho",
    "fit_volatility",
    "fit_vol_of_vol",
    "identifiability_diagnostics",
    "standard_errors",
    "monte_carlo_validation",
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

# Stage 1 starts near the best of these log(beta3/max|e|), refusing fits ending outside.
_LOG_BETA3_GRID = tuple(range(-8, 7))
# Both stages' searches stop unconverged after this many accepted steps (see _search).
_MAX_ITERATIONS = 200
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
    # Each row's norm is taken on the row scaled by the power of two that brings its largest entry
    # into [0.5, 1), so no square overflows; scaling by a power of two is exact.
    scale = np.ldexp(1.0, -np.frexp(np.abs(rinv).max(axis=-1))[1])
    se = np.sqrt(ssr / (n - p))[:, None] * (np.linalg.norm(rinv * scale[..., None], axis=-1) / scale)
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


def _checks(E, b3, jac, ssr) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors and the diagnostics both stages share, per row, with the pole at ``-b3``."""
    near = np.min(np.abs(b3[:, None] + E), axis=-1) < 1e-3 * b3
    se, cond = _qr_rows(jac, ssr)
    return se, {
        DIAG_POLE: near,
        DIAG_ILL_CONDITIONED: cond > _COND_LIMIT,
        DIAG_DEGENERATE_COV: np.isnan(se).any(axis=-1),
    }


def _stage1_checks(E, b1, b2, b3, ssr) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors and diagnostics of stage-1 fits, per row, from :func:`stage1_jacobian`'s derivatives."""
    se, flags = _checks(E, b3, _stage1_grad(E, b1, b2, b3)[0], ssr)
    flags[DIAG_B1_EQ_B2] = np.abs(b1 - b2) < 1e-6 * np.maximum(np.maximum(np.abs(b1), np.abs(b2)), 1.0)
    return se, flags


def _stage2_checks(E, beta, b3h, k: int, ssr) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors of the two betas the gauge leaves free and the diagnostics of stage-2 fits, per row.

    The Jacobian is :func:`stage2_jacobian`'s in those two betas: the gauge-fixed problem's, up to sign.
    """
    se, flags = _checks(E, b3h, _stage2_grad(E, beta, b3h, tuple(i for i in range(3) if i != k))[0], ssr)
    flags[DIAG_GAUGE] = np.full(len(E), k == 0)
    return se, flags


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
    messages: list[str]
    standard_errors: np.ndarray
    flags: dict[str, np.ndarray]
    failures: dict[int, tuple[str, ValueError]]

    @cached_property
    def converged(self) -> np.ndarray:
        """Rows with a fit whose search stopped before its step cap."""
        converged = np.array([m != "max iterations" for m in self.messages], dtype=bool)
        converged[list(self.failures)] = False
        return converged

    @classmethod
    def refused(cls, kind: type, failures: dict[int, tuple[str, ValueError]]) -> _Rows:
        """A stack whose every row is refused before any evaluation."""
        nan = np.full((len(failures), 3), math.nan)
        return cls(kind, nan, nan[:, 0], np.zeros(len(failures), dtype=int), [""] * len(failures), nan, {}, failures)

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


def _refuse(failures: dict, rows, reason: str, error) -> None:
    """Refuse each row of the mask ``rows`` with ``(reason, error(i))``; a row keeps its first refusal."""
    for i in np.flatnonzero(rows).tolist():
        failures.setdefault(i, (reason, error(i)))


def _refuse_too_few(failures: dict, shape: tuple[int, int], stage: int, n_params: int) -> None:
    """Refuse every row of an ``(R, n)`` stack unless ``n`` exceeds the ``n_params`` free parameters of the fit."""
    n_rows, n = shape
    message = f"insufficient data: stage-{stage} fit needs at least {n_params + 1} rows, got {n}"
    _refuse(failures, np.full(n_rows, n <= n_params), f"stage{stage} insufficient data", lambda i: ValueError(message))


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` of ``math`` (the C library), one value at a time.

    numpy's vectorised ``exp``, ``cos`` and ``sin`` can differ from it in the
    last bit, and by CPU.
    """
    return np.array([f(v) for v in x.tolist()])


def _search(profile, x: np.ndarray, live: np.ndarray, y: np.ndarray):
    """Minimize a sum of squares along one coordinate per row, rows ``live`` starting at ``x``.

    ``y`` is the regressand, ``(R, n)``.  ``profile(x, rows)`` gives ``(ssr,
    coef, g, h)`` of the selected rows (an index, or a slice for every row)
    at ``x``: the sum of squares of the fit of ``y``, inf where ``x`` is on
    a pole; the coefficients solved in closed form there, one row each;
    and the gradient and Gauss-Newton curvature of ``ssr/2`` in ``x``.
    Each step is ``-g/h``, at most one unit, where ``h`` is the secant of
    successive gradients once it is positive, and is halved until the sum
    of squares strictly falls; a row whose step failed tries several
    halvings in one evaluation, as many as ``_CHUNK_OBSERVATIONS`` rows of
    ``n`` observations allow.  A row stops with "gradient tolerance
    reached" once the predicted decrease ``g*g/h`` is below the rounding of
    the sum of squares, ``eps*ssr``, or of the regressand, ``(eps*|y|)**2``;
    with "step tolerance reached" when no step longer than ``_K_TOL``
    brings a decrease; and with "max iterations" after ``_MAX_ITERATIONS``
    accepted steps.  A row whose start is not finite stops there with
    ``UNEVALUABLE_START``.  Returns ``(x, ssr, coef, iterations,
    messages)``; rows not ``live`` are nan and never evaluated.
    """
    n_rows, n_obs = y.shape
    eps = np.finfo(float).eps
    x, x0, g0 = x.copy(), np.full(n_rows, math.nan), np.full(n_rows, math.nan)
    ssr, G, H = np.full(n_rows, math.nan), np.full(n_rows, math.nan), np.full(n_rows, math.nan)
    iterations = np.zeros(n_rows, dtype=int)
    messages = [""] * n_rows
    live = live.copy()

    def stop(rows, message):
        live[rows] = False
        for i in rows.tolist():
            messages[i] = message

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flat = (eps * np.sqrt(_rowdot(y, y))) ** 2
        rows = np.flatnonzero(live)
        sel = _select(rows, n_rows)
        ssr[sel], start, G[sel], H[sel] = profile(x[sel], sel)
        coef = np.full((n_rows, start.shape[1]), math.nan)
        coef[sel] = start
        stop(rows[~np.isfinite(ssr[rows])], UNEVALUABLE_START)
        while live.any():
            rows = np.flatnonzero(live)
            g, h = G[rows], H[rows]
            secant = (g - g0[rows]) / (x[rows] - x0[rows])  # nan before the first step
            h = np.where(secant > 0.0, secant, h)  # h lacks the residual's own curvature; the secant has it
            done = g * g <= np.fmax(flat[rows], eps * ssr[rows]) * h  # the predicted decrease, g*g/h, is rounding
            stop(rows[done], "gradient tolerance reached")
            out_of_steps = ~done & (iterations[rows] >= _MAX_ITERATIONS)
            stop(rows[out_of_steps], "max iterations")
            go = ~done & ~out_of_steps
            rows, g = rows[go], g[go]
            step = np.clip(-g / h[go], -1.0, 1.0)
            search = np.abs(step) > _K_TOL
            stop(rows[~search], "step tolerance reached")
            depth = 1
            while search.any():
                # Each row tries step, step/2, ..., at most depth of them, those longer than _K_TOL, in one
                # evaluation: the first that lowers ssr is the one halving one at a time would accept.  The
                # depth grows fourfold while rows fail, within the chunk budget of stacked observations.
                at = np.flatnonzero(search)
                ladder = step[at, None] * 0.5 ** np.arange(depth)
                trial, rung = np.nonzero(np.abs(ladder) > _K_TOL)
                sub = rows[at[trial]]
                x_trial = x[sub] + ladder[trial, rung]
                t_ssr, t_coef, t_g, t_h = profile(x_trial, _select(sub, n_rows) if depth == 1 else sub)
                better = np.zeros(ladder.shape, dtype=bool)
                better[trial, rung] = t_ssr < ssr[sub]
                won = better.any(axis=1)
                pick = np.flatnonzero(better[trial, rung] & (rung == better.argmax(axis=1)[trial]))
                kept = rows[at[won]]
                x0[kept], g0[kept], x[kept] = x[kept], g[at[won]], x_trial[pick]
                ssr[kept], coef[kept], G[kept], H[kept] = t_ssr[pick], t_coef[pick], t_g[pick], t_h[pick]
                iterations[kept] += 1
                search[at[won]] = False
                lost = at[~won]
                step[lost] = ladder[~won, -1] * 0.5
                short = lost[np.abs(step[lost]) <= _K_TOL]
                stop(rows[short], "step tolerance reached")
                search[short] = False
                depth = max(1, min(4 * depth, _CHUNK_OBSERVATIONS // (n_obs * max(len(lost) - len(short), 1))))
    return x, ssr, coef, iterations, messages


def _stage1_rows(E: np.ndarray, PI: np.ndarray) -> _Rows:
    """Stage 1 on stacked datasets: excess returns ``E`` and positions ``PI``, ``(R, n)``.

    Each row runs the search of :func:`fit_volatility` with its own grid
    start, steps, halvings, stop and refusal; a row with fewer than 4
    observations or 3 distinct ``e`` is refused first and never evaluated.
    """
    n_rows = len(E)
    failures: dict[int, tuple[str, ValueError]] = {}
    _refuse_too_few(failures, E.shape, 1, 3)
    lo, hi = E.min(axis=-1, initial=np.inf), E.max(axis=-1, initial=-np.inf)
    distinct = np.where(lo == hi, 1, np.where(((lo[:, None] < E) & (E < hi[:, None])).any(axis=-1), 3, 2))
    _refuse(failures, distinct < 3, "stage1 insufficient regressor variation", lambda i: ValueError(
        f"insufficient regressor variation: stage-1 fit needs at least 3 distinct e, got {distinct[i]}"
    ))
    if len(failures) == n_rows:
        return _Rows.refused(Stage1Params, failures)
    scale = np.maximum(-lo, hi)
    scale[scale == 0.0] = 1.0

    def fit(k, sel):
        """``(ssr, beta1, beta2, u, residual)`` of rows ``sel`` at ``beta3 = max|e|*exp(k)``; inf ssr: pole among the e."""
        b3 = scale[sel] * _libm(math.exp, k)
        u = E[sel] / (b3[:, None] + E[sel])
        b1, b2, res = _linear_part(PI[sel], u)
        ssr = _rowdot(res, res)
        ssr[(lo[sel] <= -b3) & (-b3 <= hi[sel])] = np.inf
        return ssr, b1, b2, u, res

    def profile(k, sel):
        """The fit at ``k``, with the gradient and Gauss-Newton curvature of ssr/2 in ``k``."""
        ssr, b1, b2, u, res = fit(k, sel)
        # d(residual)/dk, from w = -du/dk = u(1 - u) projected off [1, u]: exact gradient (Kaufman 1975)
        jac = (b1 - b2)[:, None] * _linear_part(u * (1.0 - u), u)[2]
        return ssr, np.stack([b1, b2], axis=1), _rowdot(jac, res), _rowdot(jac, jac)

    live = ~np.isin(np.arange(n_rows), list(failures))
    rows = np.flatnonzero(live)
    sel = _select(rows, n_rows)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Finite: for k >= 1 the pole lies below -max|e|.
        k, best = np.full(n_rows, math.nan), np.full(n_rows, np.inf)
        for grid_k in _LOG_BETA3_GRID:
            ssr = fit(np.full(len(rows), float(grid_k)), sel)[0]
            better = ssr < best[rows]
            k[rows[better]], best[rows[better]] = grid_k, ssr[better]
    k, ssr, coef, iterations, messages = _search(profile, k, live, PI)
    b1, b2 = coef.T

    _refuse(failures, (k < _LOG_BETA3_GRID[0]) | (k > _LOG_BETA3_GRID[-1]), "stage1 beta3 not identified", lambda i:
            ValueError(f"beta3 is not identified: log(beta3/max|e|) ends at {float(k[i]):.6g}, outside [-8, 6]"))
    b3 = scale * _libm(math.exp, k)
    params = np.stack([b1, b2, b3], axis=1)
    # Inputs are finite, so a non-finite fit is one whose sums overflowed.
    _refuse(failures, ~(np.isfinite(ssr) & np.isfinite(params).all(axis=1)), "stage1 non-finite fit",
            lambda i: ValueError("stage-1 fit is not finite: positions too large, the sum of squares overflows"))
    se, flags = _stage1_checks(E, b1, b2, b3, ssr)
    return _Rows(Stage1Params, params, ssr, iterations, messages, se, flags, failures)


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
    Flat positions converge at the level fit with
    ``IDENTIFIABILITY_B1_EQ_B2``.  Needs at least 4 rows and at least 3
    distinct ``e`` (with two, every ``beta3`` fits the two group means
    exactly); fewer raise ValueError("insufficient data: ...") or
    ValueError("insufficient regressor variation: ...") before any search.
    Raises ValueError("beta3 is not identified: ...") when ``k`` ends off
    the grid, and ValueError("stage-1 fit is not finite: ...") when
    positions are so large that the sum of squares overflows.  This is the
    one-row case of the stacked fit the Monte Carlo harness runs.
    """
    return _stage1_rows(data.e[None], data.pi_star[None]).result(0)


def _row_name(labels, i: int) -> str:
    label = None if labels is None else labels[i]
    return f"row {i}" if label is None else f"row {i} (label {label!r})"


def _apply_gauge(q: np.ndarray, k: int, pins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``(beta4, beta5, beta6) = s*(1, c5, c6)``, ``q = (c6, c5)``, and ``(1, c5, c6)[k] = pin/s``."""
    v = np.stack([np.ones(len(q)), q[:, 1], q[:, 0]], axis=1)
    beta = (pins / v[:, k])[:, None] * v
    beta[:, k] = pins
    return beta, v[:, k]


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
    n_rows = len(E)
    failures: dict[int, tuple[str, ValueError]] = {}
    zero = PI == 0.0
    _refuse(failures, zero.any(axis=-1), "stage2 zero position", lambda i: ValueError(
        f"zero position at {_row_name(labels, int(np.argmax(zero[i])))}: inverse positions are undefined"
    ))
    flips = np.signbit(PI) != np.signbit(PI[:, :1])
    _refuse(failures, flips.any(axis=-1), "stage2 position sign change", lambda i: ValueError(
        f"position sign change at {_row_name(labels, int(np.argmax(flips[i])))}: "
        "positions cross zero, so their inverses pass a pole"
    ))
    bh = b3h[:, None]
    denom = bh + E
    _refuse(failures, _pole_rows(denom, bh, E), "stage2 pole guard",
            lambda i: PoleError("model evaluated within the pole guard of a vanishing denominator"))
    _refuse(failures, E.min(axis=-1, initial=np.inf) == E.max(axis=-1, initial=-np.inf),
            "stage2 insufficient regressor variation",
            lambda i: ValueError("insufficient regressor variation: stage-2 fit needs at least 2 distinct e, got 1"))
    _refuse_too_few(failures, E.shape, 2, 2)
    if len(failures) == n_rows:
        return _Rows.refused(Stage2Params, failures)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        U, V = E / denom, bh / denom  # the curve's derivatives in c6 and c5
        del denom
        Y = 1.0 / PI
        live = ~np.isin(np.arange(n_rows), list(failures))
        rows = np.flatnonzero(live)
        c6, c5, _ = _linear_part(PI[rows], U[rows])
    theta = np.full(n_rows, math.nan)
    theta[rows] = [math.atan2(s, c) for c, s in zip(c6.tolist(), c5.tolist())]

    def profile(theta, sel):
        """The fit of ``1/pi`` by ``a*w``, ``w = 1/(cos(theta)*U + sin(theta)*V)``, and the derivatives of ssr/2.

        ``a = <y, w>/<w, w>`` in closed form, and the coefficients are
        ``(c6, c5) = (cos(theta), sin(theta))/a``.  The derivative of the
        residual in ``theta`` is ``a*q``, ``q = w**2*(cos(theta)*V -
        sin(theta)*U)``, projected off ``w`` (Kaufman 1975); inf ssr: the
        denominator is on the pole guard or changes sign on the row.
        """
        cos, sin = _libm(math.cos, theta)[:, None], _libm(math.sin, theta)[:, None]
        u, v, y = U[sel], V[sel], Y[sel]
        d = cos * u
        d += sin * v
        # One sign and no entry on the pole guard: every d times the first one's sign is above it.
        pole = np.min(d * np.sign(d[:, :1]), axis=-1) < _POLE_RTOL
        w = np.divide(1.0, d, out=d)
        ww = _rowdot(w, w)
        a = _rowdot(y, w) / ww
        res = a[:, None] * w
        np.subtract(y, res, out=res)
        q = cos * v
        q -= sin * u
        q *= w * w
        q -= (_rowdot(q, w) / ww)[:, None] * w
        ssr = _rowdot(res, res)
        ssr[pole] = np.inf
        return ssr, np.hstack([cos, sin]) / a[:, None], a * _rowdot(q, res), a * a * _rowdot(q, q)

    theta, ssr, q, iterations, messages = _search(profile, theta, live, Y)
    del U, V, Y
    _refuse(failures, [m == UNEVALUABLE_START for m in messages], "stage2 initial residuals unevaluable",
            lambda i: ValueError(UNEVALUABLE_START))

    with np.errstate(divide="ignore", invalid="ignore"):  # a row that failed may have c5 or c6 = 0
        params, ratio = _apply_gauge(q, k, pins)
    name = ("beta4", "beta5", "beta6")[k]
    _refuse(failures, ~(pins * ratio > 0.0), "stage2 gauge sign conflict", lambda i: ValueError(
        f"gauge sign conflict: {_GAUGE_VARIANTS[k]} pins {name} at {pins[i]:+.6g} but the data give "
        f"{name}/beta4 = {ratio[i]:+.6g}; opposite signs would make beta4 <= 0"
    ))
    se_free, flags = _stage2_checks(E, params, b3h, k, ssr)
    return _Rows(
        Stage2Params, params, ssr, iterations, messages, np.insert(se_free, k, 0.0, axis=1), flags, failures
    )


def fit_vol_of_vol(
    data: Dataset,
    beta3_hat: float,
    gauge: GaugeRule,
) -> FitResult:
    """Stage-2 fit: inverse positions against excess returns.

    Fits the identified ratios ``(c6, c5) = (cos(theta), sin(theta))/a``:
    at a fixed ``theta`` the fit of ``1/pi`` is linear in ``a``, so
    ``theta`` is searched as stage 1 searches ``log beta3``, with the same
    stops and messages, from the direction of the stage-1 linear fit of
    the positions at ``beta3_hat``.  A ``theta`` whose denominator changes
    sign on the data or comes within 1e-12 of 0 is skipped, and a start
    there raises ValueError("initial residuals are non-finite or
    unevaluable").  The search sees only the direction of ``(c6, c5)``, so
    positions in other units give the ratios in those units.  Then the
    gauge is applied, and ``gamma_hat`` is the resulting ``beta4``.  A zero
    position, or positions that do not share one sign, are rejected with
    the offending row named; so is a gauge pin whose sign would make
    ``beta4 <= 0``.  One distinct ``e`` cannot fix two ratios, so such data
    raise ValueError("insufficient regressor variation: ...") unless one of
    those refusals comes first; then fewer than 3 rows raise
    ValueError("insufficient data: ..."), all before the search.  Standard
    errors cover the two free parameters (the fixed one reports 0.0).  This is the one-row case of
    the stacked fit the Monte Carlo harness runs.
    """
    if not (math.isfinite(beta3_hat) and beta3_hat > 0.0):
        raise ValueError("beta3_hat must be finite and > 0")
    k, pin = gauge.fixed
    return _stage2_rows(
        data.e[None], data.pi_star[None], np.array([float(beta3_hat)]), k, np.array([pin]), data.labels
    ).result(0)


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
    standard errors; the three are None when no replication converged.
    ``stage2_n_failed`` counts stage-2 fits that raised (None when stage 2
    was not run).  ``failures`` tallies, as sorted ``(reason, count)``
    pairs, every replication that gave no converged fit in a stage it ran:
    ``"stage1 insufficient regressor variation"``, ``"stage1 beta3 not
    identified"``, ``"stage1 non-finite fit"``,
    ``"stage1 not converged: max iterations"``, ``"stage2 position sign
    change"``, ``"stage2 pole guard"`` and so on.  Neither is written to
    the report.
    """

    replications: int
    truth: Stage1Params
    param_names: tuple[str, ...]
    n_converged: int
    n_failed: int
    bias: tuple[float, ...] | None
    rmse: tuple[float, ...] | None
    coverage: tuple[int, ...] | None
    coverage_evaluated: int
    beta3_mean: float | None
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
            failures[f"{stage} not converged: {rows.messages[i]}"] += 1


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
    spec: GenerationSpec,
    replications: int,
    *,
    master_seed: int = 0,
    run_stage2: bool = False,
    gauge_variant: str = "pin-beta5",
) -> ValidationReport:
    """Repeated generate-and-fit experiment with deterministic seeding.

    ``spec`` must be a :class:`GenerationSpec`; any other raises
    ValueError, since a structural dataset has the one excess return
    ``mu - r`` in every row and stage 1 refuses it.  ``replications`` must
    be an integer >= 2, not a bool.  Replication ``i`` generates data with the seed
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
    if not isinstance(spec, GenerationSpec):
        raise ValueError(
            "monte_carlo_validation needs a GenerationSpec: every structural row has one excess return, "
            "which stage 1 refuses"
        )
    if isinstance(replications, bool) or not isinstance(replications, (int, np.integer)):
        raise ValueError(f"replications must be an integer, got {replications!r}")
    replications = int(replications)
    if replications < 2:
        raise ValueError("replications must be >= 2")
    if gauge_variant not in _GAUGE_VARIANTS:
        raise ValueError(f"unknown gauge variant {gauge_variant!r}")
    master_seed = _check_seed("master_seed", master_seed)
    k = _GAUGE_VARIANTS.index(gauge_variant)
    failures: Counter[str] = Counter()
    estimates: list[np.ndarray] = []
    ses: list[np.ndarray] = []
    gamma_hats: list[np.ndarray] = []
    stage2_converged = stage2_failed = 0

    per_chunk = -(-_CHUNK_OBSERVATIONS // spec.n)
    for start in range(0, replications, per_chunk):
        reps = np.arange(start, min(start + per_chunk, replications), dtype=np.uint64)
        seeds = _stream_keys(master_seed, reps)[:, 0]
        # A replication is dropped exactly when generate_synthetic_dataset at its seed raises ValueError:
        # on the pole guard, or with a non-finite position (mu and e are finite by construction).
        mu, PI, pole = _model_implied_rows(spec, seeds)
        ok = ~pole & np.isfinite(PI).all(axis=-1)
        keep = _select(np.flatnonzero(ok), len(ok))
        E, PI = np.subtract(mu, BASE_RATE, out=mu)[keep], PI[keep]  # Dataset.e = mu - r
        if len(E) < len(seeds):
            failures["generation error"] += len(seeds) - len(E)
        stage1 = _stage1_rows(E, PI)
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
    coverage_evaluated = 0
    est = np.concatenate(estimates)
    if len(est):
        beta3_mean = float(np.mean(est[:, 2]))
        errors = est - spec.stage1.as_array()
        bias = tuple(float(v) for v in errors.mean(axis=0))
        rmse = tuple(float(v) for v in np.sqrt((errors**2).mean(axis=0)))
        se = np.concatenate(ses)
        evaluated = ~np.isnan(se).any(axis=1)
        coverage_evaluated = int(evaluated.sum())
        hits = np.abs(errors[evaluated]) <= 1.96 * se[evaluated]
        coverage = tuple(int(v) for v in hits.sum(axis=0))
    gammas = np.concatenate(gamma_hats) if gamma_hats else np.empty(0)

    return ValidationReport(
        replications=replications,
        truth=spec.stage1,
        param_names=names,
        n_converged=len(est),
        n_failed=replications - len(est),
        bias=bias,
        rmse=rmse,
        coverage=coverage,
        coverage_evaluated=coverage_evaluated,
        beta3_mean=beta3_mean,
        stage2_gamma_mean=(float(np.mean(gammas)) if len(gammas) else None),
        stage2_n_converged=(stage2_converged if run_stage2 else None),
        stage2_n_failed=(stage2_failed if run_stage2 else None),
        failures=tuple(sorted(failures.items())),
    )
