"""Two-stage estimation pipeline and its validation harness.

Stage 1 fits the observed positions against the excess return and reads
the portfolio volatility off ``beta3``.  At a fixed ``beta3`` its curve is
linear in ``(beta1, beta2)``, so the fit is a search in ``log beta3`` alone
(variable projection), started from the curve's linearization in closed
form.  It needs at least 3 distinct excess returns: with two, every
``beta3`` fits the two group means exactly.  Data with fewer, and a fit
whose ``log(beta3/max|e|)`` ends outside ``[-8, 6]``, are refused.

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
:func:`_checks` the standard errors and diagnostics both stages share,
from the ``R`` of each fit's own projections (:func:`_profile`).

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
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .model import (
    _POLE_RTOL,
    DIAG_DEGENERATE_COV,
    Dataset,
    FitResult,
    PoleError,
    Stage1Params,
    Stage2Params,
    _beta3_hat,
    _finite,
    _integer,
    _pole_between,
    _pole_rows,
)
from .simulate import BASE_RATE, SEED_LIMIT, GenerationSpec, _model_implied_rows, _stream_keys

# The harness draws its replications as stacks and never calls
# generate_synthetic_dataset.  The name stays importable from this module
# because the benchmark's tracer (perfbench/tracing.py) patches
# portvol.estimate.generate_synthetic_dataset.
from .simulate import generate_synthetic_dataset  # noqa: F401


def lm_fit(*args, **kwargs):
    """Not a solver: both stages fit by the variable-projection search, :func:`_search`."""
    # Exists only because the benchmark's tracer (perfbench/tracing.py) patches portvol.estimate.lm_fit;
    # it goes with that patch.
    raise NotImplementedError("no Levenberg-Marquardt solver: both stages fit by the variable-projection _search")


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
DIAG_RHO_RANGE = "RHO_OUT_OF_RANGE"

# Stage 1 refuses a fit whose log(beta3/max|e|) ends outside these bounds.
_K_BOUNDS = (-8, 6)
# Both stages' searches stop unconverged after this many accepted steps (see _search).
_MAX_ITERATIONS = 200
_K_TOL = 1e-12
_COND_LIMIT = 1e8
# A Jacobian whose condition number reaches this has a degenerate covariance (see _se_and_cond).
_SINGULAR_COND = 1.0 / np.sqrt(np.finfo(float).eps)
# A variant's index is the parameter of (beta4, beta5, beta6) it holds
# fixed; free fixes the scale, beta4 = 1.
_GAUGE_VARIANTS = ("free", "pin-beta5", "pin-beta6")
# The paper's pins: beta5 at the stage-1 beta2 and beta6 at its beta1, by index into (beta1, beta2, beta3).
_STAGE1_PIN = {"pin-beta5": 1, "pin-beta6": 0}


@dataclass(frozen=True)
class GaugeRule:
    """Identification convention for the stage-2 scale freedom.

    ``GaugeRule("pin-beta5", v)`` freezes ``beta5`` at ``v`` and
    ``GaugeRule("pin-beta6", v)`` freezes ``beta6`` (:meth:`from_stage1`
    takes the pin values from a stage-1 fit), and ``GaugeRule("free")``
    reports the ratios themselves, ``(1, c5, c6)``, in which case the
    result always carries the ``GAUGE_UNIDENTIFIED`` diagnostic.
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
            if not _finite(self.pin_value) or self.pin_value == 0.0:
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
    def from_stage1(cls, variant: str, stage1: FitResult | None) -> "GaugeRule":
        """The rule with the paper's pin (``_STAGE1_PIN``) taken from a stage-1 fit."""
        if variant not in _STAGE1_PIN:
            return cls(variant)  # free takes no pin; an unknown variant raises
        if stage1 is None:
            raise ValueError(f"{variant} gauge requires a stage-1 fit")
        return cls(variant, float(stage1.params.as_array()[_STAGE1_PIN[variant]]))


@dataclass(frozen=True)
class RhoEstimate:
    """Correlation-factor estimate; out-of-range values, inf and nan included, are flagged, never clamped."""

    rho_hat: float

    @property
    def in_range(self) -> bool:
        return bool(abs(self.rho_hat) <= 1.0)

    @property
    def diagnostics(self) -> frozenset[str]:
        return frozenset() if self.in_range else frozenset([DIAG_RHO_RANGE])


def _se_and_cond(r: np.ndarray, ssr: np.ndarray, dof: int, unit=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Standard errors and ``cond(J)`` per row from ``r``, ``(R, p, p)``, with ``J = Q r/unit`` and orthonormal ``Q``.

    Gauss-Newton standard errors ``sqrt(diag(s2 * inv(J'J)))``, ``s2 =
    ssr/dof``, from ``inv(J'J) = inv(r) inv(r)'``: ``cond(J) = cond(r)`` is
    never squared.  It is inf for a singular or non-finite ``r``, and the
    standard errors are nan (degenerate covariance) from ``1/sqrt(eps)``.
    """
    p = r.shape[-1]
    finite = np.isfinite(r).all(axis=(1, 2))
    cond = np.linalg.cond(np.where(finite[:, None, None], r, np.eye(p)))
    cond = np.where(finite & np.isfinite(cond), cond, np.inf)
    ok = cond < _SINGULAR_COND
    rinv = np.linalg.inv(np.where(ok[:, None, None], r, np.eye(p)))
    # Each row's norm is taken on the row scaled by the power of two that brings its largest entry
    # into [0.5, 1), so no square overflows; scaling by a power of two is exact.
    scale = np.ldexp(1.0, -np.frexp(np.abs(rinv).max(axis=-1))[1])
    se = (np.sqrt(ssr / dof) * np.abs(unit))[:, None] * (np.linalg.norm(rinv * scale[..., None], axis=-1) / scale)
    se[~ok] = np.nan
    return se, cond


def standard_errors(fit: FitResult, jacobian) -> tuple[float, ...] | None:
    """Gauss-Newton standard errors ``sqrt(diag(s2 * inv(J'J)))`` from ``J = jacobian``, ``(n_obs, n_params)``.

    ``J`` holds the derivatives of the fitted curve (or of the residuals)
    at ``fit.params``, one row per observation.  ``s2`` is ``residual_norm /
    (n_obs - n_params)``.  With ``J = QR``, ``inv(J'J) = inv(R) inv(R)'``,
    so the condition number of ``J`` is never squared.  Returns None when
    ``cond(R) >= 1/sqrt(eps)`` or an entry of ``J`` is not finite
    (degenerate covariance) — absent, not zero.  Requires a 2-D ``J`` with
    more observations than parameters, and at least one parameter.  The
    fits take theirs from their own projections instead (:func:`_checks`).
    """
    jac = np.asarray(jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape[1] == 0:
        raise ValueError(f"jacobian must be 2-D, (n_obs, n_params >= 1), got shape {jac.shape}")
    if jac.shape[0] <= jac.shape[1]:
        raise ValueError("standard errors require n_obs > n_params")
    if not np.isfinite(jac).all():
        return None
    r = np.linalg.qr(jac, mode="r")
    se = _se_and_cond(r[None], np.array([fit.residual_norm]), jac.shape[0] - jac.shape[1])[0][0]
    return None if np.isnan(se).any() else tuple(se.tolist())


def _checks(E, b3, r, ssr, unit=1.0) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors and the diagnostics both stages share, per row, from ``R`` factors (:func:`_se_and_cond`)."""
    se, cond = _se_and_cond(r, ssr, E.shape[1] - r.shape[-1], unit)
    pole = np.min(np.abs(b3[:, None] + E), axis=-1) < 1e-3 * b3
    return se, {DIAG_POLE: pole, DIAG_ILL_CONDITIONED: cond > _COND_LIMIT}


def _stage1_checks(E, params, ssr, r=None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors and diagnostics of stage-1 fits, per row, from :func:`_stage1_profile`'s ``R`` entries ``r``.

    ``r``, each row's means of ``u`` and ``u(1 - u)`` and profile's ``R``
    entries, is evaluated at ``beta3`` when None.  With ``sqrt(n)*(1, mean
    u, mean u(1 - u))`` on top they make the ``R_B`` of ``B = [1, u, u(1 -
    u)]``, and :func:`stage1_jacobian` is ``B T``, ``T = [[0, 1, 0], [1, -1,
    0], [0, 0, (beta2 - beta1)/beta3]]``.
    """
    b1, b2, b3 = params.T
    n, rb = E.shape[1], np.zeros((len(E), 3, 3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # nan at a pole among the e
        if r is None:
            r = _stage1_profile(E, np.zeros(len(E)), np.zeros_like(E), b3, np.empty((3,) + E.shape))[1][:, 2:]
        rb.reshape(-1, 9)[:, [0, 1, 2, 4, 5, 8]] = np.column_stack([np.ones(len(E)), r]) * np.sqrt([n] * 3 + [1] * 3)
        rb = np.stack([rb[..., 1], rb[..., 0] - rb[..., 1], rb[..., 2] * ((b2 - b1) / b3)[:, None]], axis=-1)
    se, flags = _checks(E, b3, rb, ssr)
    flags[DIAG_B1_EQ_B2] = np.abs(b1 - b2) < 1e-6 * np.maximum(np.maximum(np.abs(b1), np.abs(b2)), 1.0)
    return se, flags


def _stage2_checks(E, beta, b3h, k: int, ssr, r=None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Standard errors (0.0 for the beta the gauge fixes) and diagnostics of stage-2 fits, per row.

    ``r`` holds each row's ``a`` and its profile's ``R`` of ``[w, q]``
    (:func:`_stage2_profile`), evaluated at ``a = 1/|(c6, c5)|`` when None.
    With ``(cos, sin) = a*(c6, c5)``, :func:`stage2_jacobian` is ``a/beta4
    * [w, q] [[1, -a*sin, -a*cos], [0, -a*cos, a*sin]]``, of which the
    gauge leaves two columns free.
    """
    b4, c5, c6 = beta[:, 0], beta[:, 1] / beta[:, 0], beta[:, 2] / beta[:, 0]
    one, zero = np.ones(len(E)), np.zeros(len(E))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # nan at a pole among the e
        a = 1.0 / np.hypot(c6, c5) if r is None else r[:, 0]
        cos, sin = a * c6, a * c5
        if r is None:
            r = _stage2_profile(E, np.zeros_like(E), b3h[:, None], cos[:, None], sin[:, None],
                                np.empty((3,) + E.shape))[1][:, 2:]
        rwq = np.column_stack([r[:, 1:3], zero, r[:, 3]]).reshape(-1, 2, 2)
        m = np.column_stack([one, -a * sin, -a * cos, zero, -a * cos, a * sin]).reshape(-1, 2, 3)
        # a/b4 stays out of the R factor: times a*sin it underflows for huge positions.
        rwq, unit = rwq @ m[..., [i for i in range(3) if i != k]], b4 / a
    se, flags = _checks(E, b3h, rwq, ssr, unit)
    flags[DIAG_GAUGE] = np.full(len(E), k == 0)
    return np.insert(se, k, 0.0, axis=1), flags


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
    condition number is the Jacobian's, from the ``R`` factor the fits'
    standard errors use (:func:`_checks`).  ``beta3_hat`` must be finite and > 0,
    as in :func:`fit_vol_of_vol`, and data with too few rows for the fit's
    stage raise its ValueError("insufficient data: ...").
    """
    if not isinstance(fit.params, (Stage1Params, Stage2Params)):
        raise TypeError("fit.params must be Stage1Params or Stage2Params")
    stage1 = isinstance(fit.params, Stage1Params)
    b3h = None if stage1 else np.array([_beta3_hat(beta3_hat)])
    E, ssr, failures = data.e[None], np.zeros(1), {}
    _refuse_too_few(failures, E.shape, *((1, 3) if stage1 else (2, 2)))  # the stage, its free parameters
    if failures:
        raise failures[0][1]
    if stage1:
        flags = _stage1_checks(E, fit.params.as_array()[None], ssr)[1]
    else:
        k = (gauge if gauge is not None else GaugeRule("free")).fixed[0]
        flags = _stage2_checks(E, fit.params.as_array()[None], b3h, k, ssr)[1]
    return frozenset(name for name, rows in flags.items() if rows[0])


@dataclass(frozen=True)
class _Rows:
    """One stage fitted on stacked rows; entry ``i`` of each field is row ``i``'s.

    ``failures`` maps a row that yields no fit to ``(reason, error)``: its
    Monte Carlo tally key and the error the single-dataset fit raises.
    ``checks()`` gives ``(standard_errors, flags)``, each diagnostic's rows
    in ``flags``, when either is first read: the harness never reads stage 2's.
    """

    kind: type
    params: np.ndarray
    residual_norm: np.ndarray
    iterations: np.ndarray
    messages: list[str]
    failures: dict[int, tuple[str, ValueError]]
    checks: Callable[[], tuple[np.ndarray, dict[str, np.ndarray]]]

    @cached_property
    def _checked(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return self.checks()

    @property
    def standard_errors(self) -> np.ndarray:
        return self._checked[0]

    @property
    def flags(self) -> dict[str, np.ndarray]:
        return self._checked[1]

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
        return cls(kind, nan, nan[:, 0], np.zeros(len(failures), dtype=int), [""] * len(failures), failures,
                   lambda: (nan, {}))

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
            standard_errors=tuple(se.tolist()) if np.isfinite(se).all() else None,
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


def _centred(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ybar, yc)``: the mean of each row of ``y`` and ``y`` less it."""
    ybar = y.sum(axis=-1) / y.shape[-1]
    return ybar, y - ybar[:, None]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows over the last axis, in numpy's own loop: a BLAS's bits vary by host."""
    return np.einsum("...i,...i->...", a, b)


def _select(rows: np.ndarray, n_rows: int):
    """``rows`` as an index, a slice when it is every row (no copy of the data)."""
    return slice(None) if len(rows) == n_rows else rows


def _evaluate(profile, data: tuple, x: np.ndarray, rows: np.ndarray, x_rows=None):
    """``profile(x, *arrays)`` of the distinct, sorted ``rows`` at ``x_rows``, by default ``x[rows]``.

    ``arrays`` are those rows of the per-row arrays ``data``.  Rows that are
    nearly the whole stack are evaluated as the whole stack, on views of
    ``data``, the others at ``x``, keeping only their results: that is
    cheaper than gathering copies of their data, and holds no such copy.
    """
    x_rows = x[rows] if x_rows is None else x_rows
    if 8 * len(rows) < 7 * len(x):
        return profile(x_rows, *(a[rows] for a in data))
    x = x.copy()
    x[rows] = x_rows
    return tuple(out[rows] for out in profile(x, *data))


def _profile(y: np.ndarray, b: np.ndarray, d, work: np.ndarray):
    """Variable projection per row: ``y`` fitted by ``c*b``, the fit's derivative in the search coordinate ``-c*d``.

    Arrays are ``(R, n)``.  Returns ``(ssr, c, g, h, f, r)``: the sum of
    squares of the residual ``y - c*b`` (left in ``work``), ``c = <y,
    b>/<b, b>`` (0 where ``b`` is 0), the gradient and Gauss-Newton
    curvature of ``ssr/2`` from ``d`` projected off ``b`` in place (Golub
    and Pereyra 1973; Kaufman 1975), the rounding scale ``f = sum|y_i|*|r_i|``
    of ``ssr``, and the modified Gram-Schmidt ``R`` of ``[b, d]``, ``(|b|,
    <d, b>/|b|, |Pd|)`` per row (Bjorck 1967).  ``b`` is overwritten.
    """
    bb = _rowdot(b, b)
    c = np.divide(_rowdot(b, y), bb, out=np.zeros_like(bb), where=bb != 0.0)
    db = _rowdot(b, d)
    d -= np.multiply(np.divide(db, bb, out=np.zeros_like(bb), where=bb != 0.0)[:, None], b, out=work)
    res = np.subtract(y, np.multiply(c[:, None], b, out=work), out=work)
    ssr = _rowdot(res, res)
    dd = _rowdot(d, d)
    g, h = c * _rowdot(d, res), c * c * dd
    f = _rowdot(np.abs(y, out=b), np.abs(res, out=res))
    nb = np.sqrt(bb)
    return ssr, c, g, h, f, np.stack([nb, db / nb, np.sqrt(dd)], axis=1)


# The message of a row whose starting sum of squares is not finite (see _search).
UNEVALUABLE_START = "initial residuals are non-finite or unevaluable"


def _search(profile, data: tuple, x: np.ndarray, live: np.ndarray, y: np.ndarray):
    """Minimize a sum of squares along one coordinate per row, rows ``live`` starting at ``x``.

    ``y`` is the regressand, ``(R, n)``.  ``profile(x, *arrays)`` gives
    ``(ssr, coef, g, h, f)`` at ``x`` of the rows of ``data`` that
    :func:`_evaluate` hands it as ``arrays``, as :func:`_profile` does, with
    ssr inf where ``x`` is on a pole and ``coef`` the row's values to keep
    from its last accepted evaluation.  Each step is ``-g/h``, at most one
    unit, where ``h`` is the secant of successive gradients once it is
    positive; a step that does not strictly lower the sum of squares is
    halved, once per evaluation.  A row stops with "gradient tolerance reached" once the predicted decrease
    ``g*g/h`` is below the rounding of the sum of squares, ``eps*f`` (Gill,
    Murray and Wright 1981, section 8.2.3), or of the regressand,
    ``(eps*|y|)**2``, tested unsquared: ``|g| <= max(eps*|y|,
    sqrt(eps*f))*sqrt(h)``; with "step tolerance reached" when no step
    longer than ``_K_TOL`` brings a decrease; and with "max iterations"
    after ``_MAX_ITERATIONS`` accepted steps.  A row whose start is not
    finite stops there with ``UNEVALUABLE_START``.  Returns ``(x, ssr, coef,
    iterations, messages)``; rows not ``live`` are nan.  A selection of
    nearly every row is evaluated on the whole stack, so ``profile`` must
    accept any row at its current ``x``, nan included; only the selected
    rows' results are read.
    """
    n_rows = len(y)
    eps = np.finfo(float).eps
    x = x.copy()
    x0, g0, step, ssr, G, H, F = (np.full(n_rows, math.nan) for _ in range(7))
    iterations = np.zeros(n_rows, dtype=int)
    messages = [""] * n_rows
    live, halved = live.copy(), np.zeros(n_rows, dtype=bool)

    def stop(rows, message):
        live[rows] = False
        for i in rows.tolist():
            messages[i] = message

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flat = eps * np.sqrt(_rowdot(y, y))
        rows = np.flatnonzero(live)
        ssr[rows], start, G[rows], H[rows], F[rows] = _evaluate(profile, data, x, rows)
        coef = np.full((n_rows, start.shape[1]), math.nan)
        coef[rows] = start
        stop(rows[~np.isfinite(ssr[rows])], UNEVALUABLE_START)
        while live.any():
            # Rows whose last trial was accepted test their stop and take a new step; the others retry half theirs.
            rows = np.flatnonzero(live & ~halved)
            g, h = G[rows], H[rows]
            secant = (g - g0[rows]) / (x[rows] - x0[rows])  # nan before the first step
            h = np.where(secant > 0.0, secant, h)  # h lacks the residual's own curvature; the secant has it
            done = np.abs(g) <= np.fmax(flat[rows], np.sqrt(eps * F[rows])) * np.sqrt(h)
            stop(rows[done], "gradient tolerance reached")
            stop(rows[~done & (iterations[rows] >= _MAX_ITERATIONS)], "max iterations")
            step[rows] = np.clip(-g / h, -1.0, 1.0)
            rows = np.flatnonzero(live)
            short = ~(np.abs(step[rows]) > _K_TOL)  # a nan step too
            stop(rows[short], "step tolerance reached")
            rows = rows[~short]
            if not len(rows):
                break
            x_trial = x[rows] + step[rows]
            t_ssr, t_coef, t_g, t_h, t_f = _evaluate(profile, data, x, rows, x_trial)
            won = t_ssr < ssr[rows]
            kept = rows[won]
            x0[kept], g0[kept], x[kept] = x[kept], G[kept], x_trial[won]
            ssr[kept], coef[kept], G[kept], H[kept], F[kept] = t_ssr[won], t_coef[won], t_g[won], t_h[won], t_f[won]
            iterations[kept] += 1
            halved[rows] = ~won
            step[rows[~won]] *= 0.5
    return x, ssr, coef, iterations, messages


def _stage1_profile(e, ybar, y, b3, work: np.ndarray):
    """The stage-1 fit of each row at a fixed ``beta3``, in closed form, and the derivatives of its ssr/2 in ``k``.

    The curve is then ``beta2 + (beta1 - beta2)*u`` with ``u = e/(beta3 +
    e)``: :func:`_profile` fits the centred positions ``y`` (row means
    ``ybar``, :func:`_centred`) on ``u`` centred, with ``u(1 - u) =
    -du/dk``, ``k = log beta3``, centred as the derivative column.  A ``u``
    that does not vary fits the level, ``beta1 = beta2 = mean(y)``.
    Returns ``(ssr, coef, g, h, f)``, ``coef`` being ``(beta1, beta2)``,
    the means of ``u`` and ``u(1 - u)`` and the profile's ``R`` entries.
    Arrays are ``(R, n)``, with the three of an evaluation in ``work``.
    """
    n = e.shape[-1]
    u, du, d = work[:, : len(b3)]
    np.divide(e, np.add(b3[:, None], e, out=u), out=u)
    np.subtract(u, u[:, :1], out=du)  # exact zeros when every u is the same
    ubar = du.sum(axis=-1) / n
    du -= ubar[:, None]
    ubar += u[:, 0]
    d = np.multiply(u, np.subtract(1.0, u, out=d), out=d)
    dbar = d.sum(axis=-1) / n
    d -= dbar[:, None]
    ssr, slope, g, h, f, r = _profile(y, du, d, u)
    b2 = ybar - slope * ubar  # centred, so no cancellation in b2 + slope*u
    return ssr, np.column_stack([b2 + slope, b2, ubar, dbar, r]), g, h, f


def _stage1_rows(E: np.ndarray, PI: np.ndarray) -> _Rows:
    """Stage 1 on stacked datasets: excess returns ``E`` and positions ``PI``, ``(R, n)``.

    Each row runs the search of :func:`fit_volatility` with its own start,
    steps, halvings, stop and refusal; a row with fewer than 4 observations
    or 3 distinct ``e`` is refused first and never evaluated.
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

    work = np.empty((3,) + E.shape)  # every evaluation's arrays, reused

    def fit(k, e, ybar, yc, scale, lo, hi):
        b3 = scale * _libm(math.exp, k)
        out = _stage1_profile(e, ybar, yc, b3, work)
        out[0][_pole_between(b3, lo, hi)] = np.inf
        return out

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ybar, YC = _centred(PI)  # once per stack, not per evaluation
        # The start: pi*e = beta2*beta3 + beta1*e - beta3*pi is linear (Levy 1959); its beta3 by Cramer's rule,
        # regressing centred (pi - mean pi)*e on centred e and pi, else k = 1, whose pole lies below every e.
        ec = np.subtract(E, (E.sum(axis=-1) / E.shape[1])[:, None], out=work[0])
        y = np.multiply(YC, E, out=work[1])
        y -= (y.sum(axis=-1) / E.shape[1])[:, None]
        ee, ep, pp = _rowdot(ec, ec), _rowdot(ec, YC), _rowdot(YC, YC)
        ratio = (ep * _rowdot(ec, y) - ee * _rowdot(YC, y)) / (ee * pp - ep * ep) / scale
        k, ok = np.ones(n_rows), (ratio > 0.0) & (ratio < np.inf)
        k[ok] = _libm(math.log, ratio[ok])
        k[_pole_between(scale * _libm(math.exp, k), lo, hi)] = 1.0
    live = ~np.isin(np.arange(n_rows), list(failures))
    k, ssr, coef, iterations, messages = _search(fit, (E, ybar, YC, scale, lo, hi), k, live, PI)

    _refuse(failures, (k < _K_BOUNDS[0]) | (k > _K_BOUNDS[1]), "stage1 beta3 not identified", lambda i: ValueError(
        f"beta3 is not identified: log(beta3/max|e|) ends at {float(k[i]):.6g}, outside {list(_K_BOUNDS)}"
    ))
    b3 = scale * _libm(math.exp, k)
    params = np.column_stack([coef[:, :2], b3])
    # Inputs are finite, so a non-finite fit is one whose sums overflowed.
    _refuse(failures, ~(np.isfinite(ssr) & np.isfinite(params).all(axis=1)), "stage1 non-finite fit",
            lambda i: ValueError("stage-1 fit is not finite: positions too large, the sum of squares overflows"))
    checks = partial(_stage1_checks, E, params, ssr, coef[:, 2:])
    return _Rows(Stage1Params, params, ssr, iterations, messages, failures, checks)


def fit_volatility(data: Dataset) -> FitResult:
    """Stage-1 fit: positions against excess returns, by variable projection.

    At a fixed ``k = log(beta3/max|e|)`` the closed-form ``(beta1, beta2)``
    leave a one-parameter fit in ``k``.  Multiplied out, the curve is ``pi*e
    = beta2*beta3 + beta1*e - beta3*pi``, linear in ``(e, pi)``, and the
    search starts at the ``beta3`` of that regression, or at ``k = 1``
    (whose pole lies below every ``e``) when it is not positive and finite
    or puts its pole among the observed ``e``.  It takes projected
    Gauss-Newton steps in ``k``: at most 200 accepted steps, stopping early
    once the predicted decrease is below the rounding of the sum of
    squares, ``eps*sum|pi_i - mean(pi)|*|r_i|`` over the residuals ``r``,
    or of the positions, ``(eps*|pi|)**2``, tested unsquared (message
    "gradient tolerance reached"), or once a step of at most 1e-12 brings
    no decrease ("step tolerance reached").  Standard errors are None, with
    ``DEGENERATE_COVARIANCE``, when singular.  Flat positions converge at
    the level fit with ``IDENTIFIABILITY_B1_EQ_B2``, at the ``k = 1``
    start.  Needs at least 4 rows and at least 3 distinct ``e`` (with two,
    every ``beta3`` fits the two group means exactly); fewer raise
    ValueError("insufficient data: ...") or ValueError("insufficient
    regressor variation: ...") before any search.  Raises ValueError("beta3
    is not identified: ...") when ``k`` ends outside ``[-8, 6]``, and
    ValueError("stage-1 fit is not finite: ...") when positions are so
    large that the sum of squares overflows.  This is the one-row case of
    the stacked fit the Monte Carlo harness runs.
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


def _stage2_profile(e, y, b, cos, sin, work: np.ndarray):
    """The fit of each row of ``y = 1/pi`` by ``a*w``, ``w = 1/(cos*u + sin*v)``, and the derivatives of ssr/2.

    ``u = e/(b + e)`` and ``v = b/(b + e)`` are the curve's derivatives in
    ``c6`` and ``c5``; ``b`` (each row's ``beta3_hat``), ``cos`` and ``sin``
    are columns.  :func:`_profile` solves ``a``, with ``q = w**2*(cos*v -
    sin*u) = -dw/dtheta`` as the derivative column.  Returns ``(ssr, coef,
    g, h, f)``, ``coef`` being ``(c6, c5) = (cos, sin)/a``, ``a`` and the
    profile's ``R`` entries; inf ssr: the denominator is on the pole guard
    or changes sign on the row.  The arrays are rows of ``work``.
    """
    w, q, s = work[:, : len(cos)]
    np.divide(e, np.add(b, e, out=q), out=s)  # u
    d = np.multiply(cos, s, out=w)
    d += np.multiply(sin, np.divide(b, q, out=q), out=q)
    # One sign and no entry on the pole guard: every d times the first one's sign is above it.
    pole = np.min(np.multiply(d, np.sign(d[:, :1]), out=q), axis=-1) < _POLE_RTOL
    w = np.divide(1.0, d, out=d)
    q = np.multiply(cos, np.divide(b, np.add(b, e, out=q), out=q), out=q)  # v again
    q -= np.multiply(sin, s, out=s)
    q *= np.multiply(w, w, out=s)
    ssr, a, g, h, f, r = _profile(y, w, q, s)
    ssr[pole] = np.inf
    return ssr, np.column_stack([np.hstack([cos, sin]) / a[:, None], a, r]), g, h, f


def _stage2_rows(
    E: np.ndarray,
    PI: np.ndarray,
    b3h: np.ndarray,
    k: int,
    pins: np.ndarray,
    labels=None,
    start: np.ndarray | None = None,
) -> _Rows:
    """Stage 2 on stacked datasets, ``(R, n)``, each row with its own ``beta3_hat`` and pin.

    ``k`` indexes the parameter of ``(beta4, beta5, beta6)`` the gauge
    holds at ``pins`` (``free`` holds ``beta4 = 1``); ``labels`` name the
    observations in the errors of :func:`fit_vol_of_vol`.  The search
    starts from the direction of each row's ``start``, ``(c6, c5)``, by
    default the stage-1 curve's linear part at ``beta3_hat``: the
    ``(beta1, beta2)`` of a stage-1 fit that ended at ``beta3_hat``.
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
    _refuse(failures, _pole_rows(bh + E, bh, E), "stage2 pole guard", lambda i: PoleError())
    _refuse(failures, E.min(axis=-1, initial=np.inf) == E.max(axis=-1, initial=-np.inf),
            "stage2 insufficient regressor variation",
            lambda i: ValueError("insufficient regressor variation: stage-2 fit needs at least 2 distinct e, got 1"))
    _refuse_too_few(failures, E.shape, 2, 2)
    if len(failures) == n_rows:
        return _Rows.refused(Stage2Params, failures)

    del zero, flips
    live = ~np.isin(np.arange(n_rows), list(failures))
    rows = np.flatnonzero(live)
    work = np.empty((3,) + E.shape)  # every evaluation's arrays, reused
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if start is None:
            # The stage-1 curve's linear part at beta3_hat, whose reciprocal is stage 2's at (c6, c5).
            start = _evaluate(lambda b, e, pi: _stage1_profile(e, *_centred(pi), b, work), (E, PI), b3h, rows)[1]
        else:
            start = start[rows]
        c6, c5 = start[:, :2].T
        Y = 1.0 / PI
    theta = np.full(n_rows, math.nan)
    theta[rows] = [math.atan2(s, c) for c, s in zip(c6.tolist(), c5.tolist())]

    def profile(theta, e, y, b):
        return _stage2_profile(e, y, b, _libm(math.cos, theta)[:, None], _libm(math.sin, theta)[:, None], work)

    theta, ssr, coef, iterations, messages = _search(profile, (E, Y, bh), theta, live, Y)
    _refuse(failures, [m == UNEVALUABLE_START for m in messages], "stage2 initial residuals unevaluable",
            lambda i: ValueError(UNEVALUABLE_START))

    with np.errstate(divide="ignore", invalid="ignore"):  # a row that failed may have c5 or c6 = 0
        params, ratio = _apply_gauge(coef[:, :2], k, pins)
    name = ("beta4", "beta5", "beta6")[k]
    _refuse(failures, ~(np.sign(pins) * np.sign(ratio) > 0.0), "stage2 gauge sign conflict", lambda i: ValueError(
        f"gauge sign conflict: {_GAUGE_VARIANTS[k]} pins {name} at {pins[i]:+.6g} but the data give "
        f"{name}/beta4 = {ratio[i]:+.6g}; opposite signs would make beta4 <= 0"
    ))
    checks = partial(_stage2_checks, E, params, b3h, k, ssr, coef[:, 2:])
    return _Rows(Stage2Params, params, ssr, iterations, messages, failures, checks)


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
    the positions at ``beta3_hat``; the rounding of its sum of squares is
    ``eps*sum|1/pi_i|*|r_i|``, and that of its regressand
    ``(eps*|1/pi|)**2``.  A ``theta`` whose denominator changes
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
    errors cover the two free parameters (the fixed one reports 0.0).
    This is the one-row case of the stacked fit the Monte Carlo harness
    runs.
    """
    b3h, (k, pin) = np.array([_beta3_hat(beta3_hat)]), gauge.fixed
    return _stage2_rows(data.e[None], data.pi_star[None], b3h, k, np.array([pin]), data.labels).result(0)


def estimate_rho(beta2_hat: float, gamma_hat: float, alpha_ratio: float) -> RhoEstimate:
    """Correlation factor from the fitted intercept coefficient.

    Inverts ``beta2 = -rho * gamma * alpha_ratio`` where ``alpha_ratio``
    is the user-supplied ``alpha2 / alpha1`` of the marginal-value
    expansion.  Values outside [-1, 1] are returned as-is with the
    ``RHO_OUT_OF_RANGE`` diagnostic.  A non-finite input, and a product
    ``gamma_hat * alpha_ratio`` that underflows to 0, raise ValueError.
    """
    for name, value in (("beta2_hat", beta2_hat), ("gamma_hat", gamma_hat), ("alpha_ratio", alpha_ratio)):
        if not _finite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not gamma_hat > 0.0:
        raise ValueError("gamma_hat must be > 0")
    if alpha_ratio == 0.0:
        raise ValueError("alpha_ratio must be nonzero")
    if gamma_hat * alpha_ratio == 0.0:
        raise ValueError(f"gamma_hat * alpha_ratio underflows to 0 ({gamma_hat!r} * {alpha_ratio!r})")
    return RhoEstimate(-beta2_hat / (gamma_hat * alpha_ratio))


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate accuracy of the pipeline over Monte Carlo replications.

    ``bias``, ``rmse`` and ``coverage`` are per parameter of ``param_names``,
    ``("beta1", "beta2", "beta3")``, over converged replications;
    ``coverage`` counts nominal-95% Gauss-Newton intervals containing the
    truth among the ``coverage_evaluated`` replications that produced
    standard errors; the three are None when no replication converged.
    ``n_failed`` is ``replications - n_converged``.  ``stage2_n_failed``
    counts stage-2 fits that raised (None when stage 2 was not run).
    ``failures`` tallies, as sorted ``(reason, count)`` pairs, every
    replication that gave no converged fit in a stage it ran: ``"stage1
    insufficient regressor variation"``, ``"stage1 beta3 not identified"``,
    ``"stage1 non-finite fit"``, ``"stage1 not converged: max
    iterations"``, ``"stage2 position sign change"``, ``"stage2 pole
    guard"`` and so on.  Neither of these two is written to the report.
    """

    replications: int
    truth: Stage1Params
    param_names: tuple[str, ...] = field(init=False)
    n_converged: int
    n_failed: int = field(init=False)
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
        object.__setattr__(self, "param_names", ("beta1", "beta2", "beta3"))
        object.__setattr__(self, "n_failed", self.replications - self.n_converged)
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
# observations, rounded up to whole replications: large enough that numpy's
# per-call cost is shared, small enough that the op's peak, about seven
# chunk-sized float arrays (1.4 MB; a test guards it), stays small.  Medians
# of 3 perfbench mc-model-implied runs per budget (500 replications of
# n = 200, probe-scaled, 2-vCPU host); the earlier kernels, which centred
# the positions in every evaluation and held twice the arrays, took 0.063 s
# and 44.47 MB at 12800 (medians of 10 runs):
#
#   budget   replications/chunk   op_s_p50   peak_rss_mb
#   12800           64             0.058 s     44.13 MB
#   19200           96             0.052 s     44.35 MB
#   25600          128             0.045 s     44.67 MB
#
# 25600 keeps peak RSS within 0.5 MB of the earlier kernels.
_CHUNK_OBSERVATIONS = 25600


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
    replications = _integer("replications", replications, 2)
    if gauge_variant not in _GAUGE_VARIANTS:
        raise ValueError(f"unknown gauge variant {gauge_variant!r}")
    master_seed = _integer("master_seed", master_seed, 0, SEED_LIMIT)
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
        if run_stage2 and len(ok):
            b = stage1.params[ok]
            pins = b[:, _STAGE1_PIN[gauge_variant]] if k else np.ones(len(ok))
            keep = _select(ok, len(E))  # every row converged: no copy of the chunk
            stage2 = _stage2_rows(E[keep], PI[keep], b[:, 2], k, pins, start=b)
            _tally(failures, "stage2", stage2)
            stage2_failed += len(stage2.failures)
            stage2_converged += int(stage2.converged.sum())
            gamma_hats.append(stage2.params[stage2.converged, 0])
            del stage2
        del mu, E, PI, stage1  # before the next chunk is drawn

    bias = rmse = coverage = beta3_mean = None
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
        n_converged=len(est),
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
