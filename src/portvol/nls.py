"""Regression models, analytic Jacobians, and a damped least-squares solver.

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

``lm_fit`` is a deterministic Levenberg-Marquardt iteration with
Marquardt (diagonal) scaling.  It runs on stacked rows, one independent
problem per row, and a single problem is the case of one row.  No fit of
``portvol.estimate`` uses it: both stages search one coordinate by
variable projection there.  It stays public, with ``ResidualProblem`` and
``RowFits``, until the benchmark's tracer, which patches
``portvol.estimate.lm_fit``, no longer needs the name.  The analytic
Jacobians are stacked the same way, and they are the ones behind the
reported standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Stage1Params, Stage2Params

__all__ = [
    "PoleError",
    "ResidualProblem",
    "stage1_model",
    "stage1_jacobian",
    "stage2_model",
    "stage2_jacobian",
    "lm_fit",
    "RowFits",
]

# Relative threshold below which a denominator counts as sitting on a pole.
_POLE_RTOL = 1e-12


class PoleError(ValueError):
    """Raised when a model is evaluated too close to a pole of its rational form."""


def _pole_rows(value, *scale_terms) -> np.ndarray:
    """Rows of ``value`` (its last axis) with an entry relatively tiny against its scale.

    The guard compares |value| against ``_POLE_RTOL * max(scale_terms, 1)``
    elementwise.
    """
    scale = 1.0
    for term in scale_terms:
        scale = np.maximum(scale, np.abs(term))
    tiny = np.abs(value) < _POLE_RTOL * scale
    return tiny.any(axis=-1) if tiny.ndim else tiny


def _guarded_denominator(value, *scale_terms):
    """Return ``value`` after checking it is not relatively tiny.

    A violation anywhere (see :func:`_pole_rows`) raises :class:`PoleError`.
    """
    if np.any(_pole_rows(value, *scale_terms)):
        raise PoleError("model evaluated within the pole guard of a vanishing denominator")
    return value


def _stage1_value(e, b1: float, b2: float, b3: float):
    e = np.asarray(e, dtype=float)
    denom = _guarded_denominator(b3 + e, b3, e)
    return (b2 * b3 + b1 * e) / denom


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


def _stage2_value(e, b4: float, b5: float, b6: float, b3h: float):
    e = np.asarray(e, dtype=float)
    n = _guarded_denominator(b3h + e, b3h, e)
    d = _guarded_denominator(b5 * b3h + b6 * e, b5 * b3h, b6 * e)
    return b4 * n / d


def _stage2_grad(E: np.ndarray, beta: np.ndarray, b3h: np.ndarray, columns=(0, 1, 2)):
    """``(jac, pole)``: derivatives of the stage-2 curve in the ``columns`` of (beta4, beta5, beta6).

    ``E`` is ``(R, n)``, ``beta`` ``(R, 3)`` and ``b3h`` ``(R,)``, one curve
    per row; ``jac`` is ``(R, n, len(columns))``.  A row on the pole guard
    of either denominator is nan, and ``pole`` marks it.
    """
    b4, b5, b6 = (beta[:, i, None] for i in range(3))
    bh = b3h[:, None]
    num, den = bh + E, b5 * bh + b6 * E
    pole = _pole_rows(num, bh, E) | _pole_rows(den, b5 * bh, b6 * E)
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


def _one_curve(e, jac: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """A public Jacobian: the single row of ``jac``, shaped like ``e`` plus the parameter axis."""
    if pole[0]:
        raise PoleError("model evaluated within the pole guard of a vanishing denominator")
    return jac[0].reshape(np.shape(e) + jac.shape[-1:])


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
    out = _stage1_value(e, b.beta1, b.beta2, b.beta3)
    return float(out) if np.isscalar(e) else out


def stage1_jacobian(e, b: Stage1Params):
    """Partial derivatives of :func:`stage1_model` w.r.t. (beta1, beta2, beta3).

    Returns shape ``(3,)`` for scalar ``e`` and ``(n, 3)`` for a vector.
    These are the derivatives behind the stage-1 standard errors.
    """
    e = np.asarray(e, dtype=float)
    return _one_curve(e, *_stage1_grad(e.reshape(1, -1), *(np.array([v]) for v in b.as_array())))


def stage2_model(e, b: Stage2Params, beta3_hat: float):
    """Predicted inverse position for excess return(s) ``e``.

    ``beta3_hat`` is the stage-1 volatility estimate, entering as a fixed
    constant (it is data to this model, not a parameter).
    """
    if not beta3_hat > 0.0:
        raise ValueError("beta3_hat must be > 0")
    out = _stage2_value(e, b.beta4, b.beta5, b.beta6, beta3_hat)
    return float(out) if np.isscalar(e) else out


def stage2_jacobian(e, b: Stage2Params, beta3_hat: float):
    """Partial derivatives of :func:`stage2_model` w.r.t. (beta4, beta5, beta6).

    The stage-2 standard errors use the two columns the gauge leaves free.
    """
    if not beta3_hat > 0.0:
        raise ValueError("beta3_hat must be > 0")
    e = np.asarray(e, dtype=float)
    return _one_curve(e, *_stage2_grad(e.reshape(1, -1), b.as_array()[None], np.array([float(beta3_hat)])))


@dataclass(frozen=True)
class ResidualProblem:
    """Stacked least-squares problems in evaluator form, one independent problem per row.

    ``residual(P, rows)`` maps the ``(len(rows), n_params)`` parameters of
    the selected rows (an index array, or a slice for every row) to
    ``(len(rows), n_obs)`` residuals, and ``jacobian(P, rows)`` to
    ``(len(rows), n_obs, n_params)`` residual derivatives; a row that
    cannot be evaluated comes back non-finite.  Both must be pure.
    """

    residual: Callable[[np.ndarray, object], np.ndarray]
    jacobian: Callable[[np.ndarray, object], np.ndarray]
    n_params: int
    n_obs: int

    def __post_init__(self):
        if self.n_params < 1 or self.n_obs < 1:
            raise ValueError("ResidualProblem dimensions must be >= 1")


# Levenberg-Marquardt: a row converges when max|J'r| falls below _GRAD_TOL,
# or when a step is shorter than _X_TOL relative to the parameters, and
# stops unconverged after _MAX_ITERATIONS accepted steps.  Damping starts
# at _DAMPING_START, shrinks by _DAMPING_FACTOR on an accepted step, grows
# by it on a rejected one, and gives up past _DAMPING_MAX.
_GRAD_TOL = 1e-10
_X_TOL = 1e-12
_MAX_ITERATIONS = 200
_DAMPING_START = 1e-3
_DAMPING_FACTOR = 10.0
_DAMPING_MAX = 1e12

# The message of a row whose starting residuals cannot be evaluated.
UNEVALUABLE_START = "initial residuals are non-finite or unevaluable"


@dataclass(frozen=True)
class RowFits:
    """:func:`lm_fit` over stacked rows: entry ``i`` of each field is row ``i``'s fit.

    ``iterations`` is the total of the rows' accepted steps;
    ``row_iterations`` holds the counts per row.
    """

    params: np.ndarray
    residual_norm: np.ndarray
    row_iterations: np.ndarray
    converged: np.ndarray
    messages: tuple[str, ...]

    @property
    def iterations(self) -> int:
        return int(self.row_iterations.sum())


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, reduced over the last axis only."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _select(rows: np.ndarray, n_rows: int):
    """``rows`` as an index, a slice when it is every row (no copy of the data)."""
    return slice(None) if len(rows) == n_rows else rows


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each ``a[i] x = b[i]``; a singular row comes back as nan."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def lm_fit(problem: ResidualProblem, init: np.ndarray) -> RowFits:
    """Minimize each row's ``sum(residual**2)`` by Levenberg-Marquardt iteration.

    ``init`` is ``(R, n_params)``, one start per stacked problem.  Each
    step solves ``(J^T J + lam * diag(J^T J)) delta = -J^T r`` and is
    accepted only if the row's residual norm strictly decreases; the
    iteration counts cover accepted steps only.  Every row keeps its own
    damping, accept test and stop, and arithmetic reduces only along a row,
    so a row's fit does not depend on the others.  Only a malformed
    ``init`` raises.

    Failures are reported per row, not raised: the row has
    ``converged=False`` and a message of ``UNEVALUABLE_START``, ``"max
    iterations"``, ``"damping exhausted"``, ``"singular normal equations at
    iteration k"`` or ``"non-finite evaluation at iteration k"``.

    Deterministic: identical problem and init give an identical result.
    """
    p = np.array(init, dtype=float)
    if p.ndim != 2 or p.shape[1] != problem.n_params:
        raise ValueError(f"init has shape {p.shape}, expected (R, {problem.n_params})")

    n_rows = len(p)
    res = problem.residual(p, slice(None))
    ssr = _rowdot(res, res)
    lam = np.full(n_rows, _DAMPING_START)
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    messages = [UNEVALUABLE_START] * n_rows
    live = np.all(np.isfinite(res), axis=-1)

    def stop(rows, ok: bool, message: str) -> None:
        live[rows] = False
        converged[rows] = ok
        for i in rows.tolist():
            messages[i] = message.format(iterations[i])

    while live.any():
        rows = np.flatnonzero(live)
        sel = _select(rows, n_rows)
        jac = problem.jacobian(p[sel], sel)
        finite = np.all(np.isfinite(jac), axis=(1, 2))
        # Overflow here is tolerated: a non-finite normal matrix surfaces as
        # an unsolvable damped system below.
        with np.errstate(over="ignore", invalid="ignore"):
            grad = (jac.transpose(0, 2, 1) @ res[sel][..., None])[..., 0]
            jtj = jac.transpose(0, 2, 1) @ jac
        del jac
        # A zero diagonal entry means that Jacobian column is identically
        # zero; its gradient component is then zero as well, so the
        # coordinate decouples: keep it fixed and solve the reduced system.
        diag = np.diagonal(jtj, axis1=1, axis2=2)
        active = diag > 0.0
        small_grad = np.max(np.abs(grad), axis=-1) < _GRAD_TOL
        stop(rows[~finite], False, "non-finite evaluation at iteration {}")
        stop(rows[finite & small_grad], True, "gradient tolerance reached")
        out_of_steps = finite & ~small_grad & (iterations[rows] >= _MAX_ITERATIONS)
        stop(rows[out_of_steps], False, "max iterations")
        flat = finite & ~small_grad & ~out_of_steps & ~active.any(axis=-1)
        stop(rows[flat], True, "gradient tolerance reached")
        keep = live[rows]
        rows, grad, jtj, diag, active = rows[keep], grad[keep], jtj[keep], diag[keep], active[keep]
        pair = active[:, :, None] & active[:, None, :]
        eye = np.broadcast_to(np.eye(problem.n_params), jtj.shape)
        rhs = np.where(active, -grad, 0.0)
        failure = np.array(["damping exhausted"] * len(rows), dtype=object)

        # Inner loop: escalate each row's damping until a strictly
        # decreasing step is found, or the proposed step shrinks below the
        # x tolerance (the iterate then cannot move and counts as converged
        # in x).
        search = np.ones(len(rows), dtype=bool)
        while True:
            exhausted = search & (lam[rows] > _DAMPING_MAX)
            for message in set(failure[exhausted]):
                stop(rows[exhausted & (failure == message)], False, message)
            search &= ~exhausted
            if not search.any():
                break
            at = np.flatnonzero(search)
            sub = rows[at]
            with np.errstate(over="ignore", invalid="ignore"):
                damped = jtj[at] + lam[sub][:, None, None] * (eye[at] * diag[at][:, None, :])
                delta = _solve_rows(np.where(pair[at], damped, eye[at]), rhs[at])
            # An exactly zero step against a gradient above tolerance can
            # only come from a numerically broken (e.g. overflowed) system.
            solvable = np.all(np.isfinite(delta), axis=-1) & np.any(delta != 0.0, axis=-1)
            stop(sub[~solvable], False, "singular normal equations at iteration {}")
            search[at[~solvable]] = False
            at, sub, delta = at[solvable], sub[solvable], delta[solvable]
            if not len(at):
                continue
            norm_p = np.sqrt(_rowdot(p[sub], p[sub]))
            small = np.sqrt(_rowdot(delta, delta)) < _X_TOL * (_X_TOL + norm_p)
            trial = p[sub] + delta
            sel = _select(sub, n_rows)
            r_trial = problem.residual(trial, sel)
            ok = np.all(np.isfinite(r_trial), axis=-1)
            ssr_trial = _rowdot(r_trial, r_trial)
            better = ok & (ssr_trial < ssr[sub])
            # A step already below the tolerance that brings no decrease:
            # the current point is the answer.
            stop(sub[~better & small], True, "step tolerance reached")
            retry = ~better & ~small
            failure[at[retry & ok]] = "damping exhausted"
            failure[at[retry & ~ok]] = "non-finite evaluation at iteration {}"
            lam[sub[retry]] *= _DAMPING_FACTOR
            search[at] = retry

            won = sub[better]
            p[won], res[won], ssr[won] = trial[better], r_trial[better], ssr_trial[better]
            lam[won] /= _DAMPING_FACTOR
            iterations[won] += 1
            stop(won[small[better]], True, "step tolerance reached")

    return RowFits(p, ssr, iterations, converged, tuple(messages))
