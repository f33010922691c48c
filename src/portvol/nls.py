"""Regression models, their analytic Jacobians, and the helpers of the stacked fits.

The two model functions are rational in the excess return ``e = mu - r``:

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

Both fits of ``portvol.estimate`` search one coordinate by variable
projection (``_profile``), on stacked rows with one independent dataset
per row, and take their standard errors from its ``R`` (``_se_and_cond``).
The curves and Jacobians here are stacked the same way, the public ones
being one row.  The row helpers of the stacked fits are here too.
"""

from __future__ import annotations

import numpy as np

from .model import Stage1Params, Stage2Params, _finite

__all__ = [
    "PoleError",
    "stage1_model",
    "stage1_jacobian",
    "stage2_model",
    "stage2_jacobian",
]

# Relative threshold below which a denominator counts as sitting on a pole.
_POLE_RTOL = 1e-12
# A Jacobian whose condition number reaches this has a degenerate covariance (see _se_and_cond).
_SINGULAR_COND = 1.0 / np.sqrt(np.finfo(float).eps)


class PoleError(ValueError):
    """Raised when a model is evaluated too close to a pole of its rational form."""

    def __init__(self, message: str = "model evaluated within the pole guard of a vanishing denominator"):
        super().__init__(message)


def _pole_rows(value, *scale_terms) -> np.ndarray:
    """Rows of ``value`` (its last axis) with an entry relatively tiny against its scale.

    The guard compares |value| against ``_POLE_RTOL * max(scale_terms, 1)``
    elementwise.
    """
    scale = 1.0
    for term in scale_terms:
        scale = np.maximum(scale, np.abs(term))
    scale *= _POLE_RTOL  # in place: one array of value's size besides |value|
    tiny = np.abs(value) < scale
    return tiny.any(axis=-1) if tiny.ndim else tiny


def _stage1_curve(E: np.ndarray, b1, b2, b3) -> tuple[np.ndarray, np.ndarray]:
    """``(value, pole)``: the stage-1 curve ``(b1*e + b2*b3)/(b3 + e)`` at ``E``, ``(R, n)``.

    Each parameter is a scalar or an ``(R, 1)`` column, one curve per row.
    ``pole`` marks the rows with an ``e`` on the pole guard of
    :func:`_pole_rows`; their values mean nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = b3 + E
        pole = _pole_rows(denom, b3, E)
        value = b1 * E
        value += b2 * b3
        value /= denom
    return value, pole


def _stage1_grad(E: np.ndarray, b1, b2, b3):
    """``(jac, pole)``: derivatives of the stage-1 curve in (beta1, beta2, beta3) at ``E``, ``(R, n, 3)``.

    Each parameter is a scalar or an ``(R, 1)`` column, one curve per row.
    A row on the pole guard of :func:`_pole_rows` is nan, and ``pole`` marks it.
    """
    denom = b3 + E
    jac = np.empty(E.shape + (3,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(E, denom, out=jac[..., 0])
        np.divide(b3, denom, out=jac[..., 1])
        np.multiply(b2 - b1, jac[..., 0], out=jac[..., 2])
        jac[..., 2] /= denom
    pole = _pole_rows(denom, b3, E)
    jac[pole] = np.nan
    return jac, pole


def _centred(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ybar, yc)``: the mean of each row of ``y`` and ``y`` less it."""
    ybar = y.sum(axis=-1) / y.shape[-1]
    return ybar, y - ybar[:, None]


def _stage2_terms(E: np.ndarray, b5, b6, bh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(num, den, pole)``: the stage-2 ``bh + e`` and ``b5*bh + b6*e``, and the rows with either on the pole guard."""
    num, den = bh + E, b5 * bh + b6 * E
    return num, den, _pole_rows(num, bh, E) | _pole_rows(den, b5 * bh, b6 * E)


def _stage2_grad(E: np.ndarray, b4, b5, b6, bh):
    """``(jac, pole)``: derivatives of the stage-2 curve in (beta4, beta5, beta6) at ``E``, ``(R, n, 3)``.

    The parameters and ``bh = b3h`` are scalars or ``(R, 1)`` columns, one
    curve per row.  A row on the pole guard of either denominator is nan,
    and ``pole`` marks it.
    """
    num, den, pole = _stage2_terms(E, b5, b6, bh)
    jac = np.empty(E.shape + (3,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g4 = np.divide(num, den, out=jac[..., 0])
        t = -b4 * g4 / den  # the derivatives in beta5 and beta6 are t*b3h and t*e
        np.multiply(t, bh, out=jac[..., 1])
        np.multiply(t, E, out=jac[..., 2])
    jac[pole] = np.nan
    return jac, pole


def _one_curve(e, out: np.ndarray, pole: np.ndarray):
    """A public curve or Jacobian: row 0 of ``out`` shaped like ``e`` plus any axis, a float at a scalar ``e``."""
    if pole[0]:
        raise PoleError()
    out = out[0].reshape(np.shape(e) + out.shape[2:])[()]
    return float(out) if np.isscalar(e) and out.ndim == 0 else out


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
    return _one_curve(e, *_stage1_curve(np.asarray(e, dtype=float).reshape(1, -1), b.beta1, b.beta2, b.beta3))


def stage1_jacobian(e, b: Stage1Params):
    """Partial derivatives of :func:`stage1_model` w.r.t. (beta1, beta2, beta3).

    Returns shape ``(3,)`` for scalar ``e`` and ``(n, 3)`` for a vector.
    These are the derivatives behind the stage-1 standard errors.
    """
    e = np.asarray(e, dtype=float)
    return _one_curve(e, *_stage1_grad(e.reshape(1, -1), *b.as_array()))


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
    num, den, pole = _stage2_terms(np.asarray(e, dtype=float).reshape(1, -1), b.beta5, b.beta6, bh)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _one_curve(e, b.beta4 * num / den, pole)


def stage2_jacobian(e, b: Stage2Params, beta3_hat: float):
    """Partial derivatives of :func:`stage2_model` w.r.t. (beta4, beta5, beta6).

    The stage-2 standard errors use the two columns the gauge leaves free.
    """
    e = np.asarray(e, dtype=float)
    return _one_curve(e, *_stage2_grad(e.reshape(1, -1), *b.as_array(), _beta3_hat(beta3_hat)))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, reduced over the last axis only."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _select(rows: np.ndarray, n_rows: int):
    """``rows`` as an index, a slice when it is every row (no copy of the data)."""
    return slice(None) if len(rows) == n_rows else rows


def _take(x: np.ndarray, sel, out: np.ndarray) -> np.ndarray:
    """Rows ``sel`` of ``x``: a view for a slice, else gathered into ``out``."""
    return x[sel] if isinstance(sel, slice) else np.take(x, sel, axis=0, out=out, mode="clip")


def _evaluate(profile, x: np.ndarray, rows: np.ndarray, x_rows=None):
    """``profile`` of the distinct, sorted ``rows`` at ``x_rows``, by default ``x[rows]``.

    Rows that are nearly the whole stack are evaluated as the whole stack,
    the others at ``x``, keeping only their results: that is cheaper than
    gathering copies of their data, and holds no such copy.
    """
    x_rows = x[rows] if x_rows is None else x_rows
    if 8 * len(rows) < 7 * len(x):
        return profile(x_rows, rows)
    x = x.copy()
    x[rows] = x_rows
    return tuple(out[rows] for out in profile(x, slice(None)))


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
