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
projection, on stacked rows with one independent dataset per row.  The
curves and Jacobians here are stacked the same way, the public ones being
one row, and the Jacobians' stacked QR (``_qr_rows``) gives the reported
standard errors.  The stage-1 fit at a fixed ``beta3`` in closed form
(``_linear_part``) and the row helpers of the stacked fits are here too.
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
# A Jacobian whose condition number reaches this has a degenerate covariance (see _qr_rows).
_SINGULAR_COND = 1.0 / np.sqrt(np.finfo(float).eps)
# _qr_rows factors a row of more observations than this in blocks of this many: a constant, not a share of
# a chunk, so a row's standard errors do not depend on the rows stacked with it.
_QR_BLOCK = 8192


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


def _stage1_grad(E: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray):
    """``(jac, pole)``: derivatives of the stage-1 curve in (beta1, beta2, beta3), ``(R, n, 3)``.

    ``E`` is ``(R, n)`` and each parameter ``(R,)``, one curve per row.  A
    row on the pole guard of :func:`_pole_rows` is nan, and ``pole`` marks it.
    """
    b3c = b3[:, None]
    denom = b3c + E
    jac = np.empty(E.shape + (3,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(E, denom, out=jac[..., 0])
        np.divide(b3c, denom, out=jac[..., 1])
        np.multiply((b2 - b1)[:, None], jac[..., 0], out=jac[..., 2])
        jac[..., 2] /= denom
    pole = _pole_rows(denom, b3c, E)
    jac[pole] = np.nan
    return jac, pole


def _centred(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ybar, yc)``: the mean of each row of ``y`` and ``y`` less it."""
    ybar = y.sum(axis=-1) / y.shape[-1]
    return ybar, y - ybar[:, None]


def _slope(du: np.ndarray, yc: np.ndarray, sxx: np.ndarray) -> np.ndarray:
    """Per row, the slope of centred ``yc`` on centred ``du`` with ``sxx = <du, du>``; 0 where ``du`` is 0."""
    return np.divide(_rowdot(du, yc), sxx, out=np.zeros_like(sxx), where=sxx != 0.0)


def _linear_part(ybar, yc, u: np.ndarray, du: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(beta1, beta2, slope, sxx)`` per row, the stage-1 fit at a fixed ``beta3`` in closed form.

    The curve is then ``beta2 + (beta1 - beta2)*u`` with ``u = e/(beta3 + e)``,
    a simple linear regression of ``y`` on ``u`` (Golub and Pereyra 1973):
    ``ybar`` and ``yc`` are ``y``'s row means and centred rows (:func:`_centred`),
    ``du`` receives ``u`` centred, and the residual, ``y`` projected off ``[1,
    u]``, is ``yc - slope*du``.  A ``u`` that does not vary fits the level,
    ``beta1 = beta2 = mean(y)``.  Arrays are ``(R, n)``; every sum runs along a row.
    """
    np.subtract(u, u[:, :1], out=du)  # exact zeros when every u is the same
    ubar = du.sum(axis=-1) / u.shape[-1]
    du -= ubar[:, None]
    sxx = _rowdot(du, du)
    slope = _slope(du, yc, sxx)
    b2 = ybar - slope * (u[:, 0] + ubar)
    return b2 + slope, b2, slope, sxx  # centred, so no cancellation in b2 + slope*u


def _stage2_terms(E: np.ndarray, b5, b6, bh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(num, den, pole)``: the stage-2 ``bh + e`` and ``b5*bh + b6*e``, and the rows with either on the pole guard."""
    num, den = bh + E, b5 * bh + b6 * E
    return num, den, _pole_rows(num, bh, E) | _pole_rows(den, b5 * bh, b6 * E)


def _stage2_grad(E: np.ndarray, beta: np.ndarray, b3h: np.ndarray, columns=(0, 1, 2)):
    """``(jac, pole)``: derivatives of the stage-2 curve in the ``columns`` of (beta4, beta5, beta6).

    ``E`` is ``(R, n)``, ``beta`` ``(R, 3)`` and ``b3h`` ``(R,)``, one curve
    per row; ``jac`` is ``(R, n, len(columns))``.  A row on the pole guard
    of either denominator is nan, and ``pole`` marks it.
    """
    b4, b5, b6 = (beta[:, i, None] for i in range(3))
    bh = b3h[:, None]
    num, den, pole = _stage2_terms(E, b5, b6, bh)
    jac = np.empty(E.shape + (len(columns),))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g4 = np.divide(num, den, out=num)
        t = -b4 * g4 / den  # the derivatives in beta5 and beta6 are t*b3h and t*e
        del den
        factors = ((g4, 1.0), (t, bh), (t, E))
        for col, i in enumerate(columns):
            np.multiply(*factors[i], out=jac[..., col])
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
    return _one_curve(e, *_stage1_grad(e.reshape(1, -1), *(np.array([v]) for v in b.as_array())))


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
    return _one_curve(e, *_stage2_grad(e.reshape(1, -1), b.as_array()[None], np.array([_beta3_hat(beta3_hat)])))


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


def _qr_rows(jacobian, n: int, ssr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard errors and ``cond(J)`` per row, from a stacked QR of the Jacobians, ``(R, n, p)``.

    ``jacobian(obs)`` gives the Jacobians' observations in the slice ``obs``.
    Gauss-Newton standard errors ``sqrt(diag(s2 * inv(J'J)))`` with ``s2 =
    ssr/(n - p)``: with ``J = QR``, ``inv(J'J) = inv(R) inv(R)'``, so the
    condition number of ``J`` is never squared.  ``cond(R) = cond(J)``, so
    this one condition number serves both the standard errors and the
    ``ILL_CONDITIONED`` diagnostic; it is inf for a singular or non-finite
    Jacobian.  A row's standard errors are nan (degenerate covariance) when
    ``cond(R) >= 1/sqrt(eps)``.  Requires ``n > p``: every caller refuses
    fewer observations first.  Rows of more than ``_QR_BLOCK``
    observations are factored block by block, ``R`` being that of the
    stacked blocks' ``R``s (tall-skinny QR), so no whole Jacobian is held;
    shorter rows get one QR.
    """
    rs, finite, width = [], True, _QR_BLOCK if n > _QR_BLOCK else n
    for i in range(0, n, width):
        jac = jacobian(slice(i, i + width))
        ok = np.all(np.isfinite(jac), axis=(1, 2))
        finite = finite & ok
        rs.append(np.linalg.qr(jac if ok.all() else np.where(ok[:, None, None], jac, 0.0), mode="r"))
    r = rs[0] if len(rs) == 1 else np.linalg.qr(np.concatenate(rs, axis=1), mode="r")
    p = r.shape[-1]
    cond = np.linalg.cond(r)
    cond = np.where(finite & np.isfinite(cond), cond, np.inf)
    ok = cond < _SINGULAR_COND
    rinv = np.linalg.inv(np.where(ok[:, None, None], r, np.eye(p)))
    # Each row's norm is taken on the row scaled by the power of two that brings its largest entry
    # into [0.5, 1), so no square overflows; scaling by a power of two is exact.
    scale = np.ldexp(1.0, -np.frexp(np.abs(rinv).max(axis=-1))[1])
    se = np.sqrt(ssr / (n - p))[:, None] * (np.linalg.norm(rinv * scale[..., None], axis=-1) / scale)
    se[~ok] = np.nan
    return se, cond
