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
Marquardt (diagonal) scaling; it is the stage-2 solver.  It runs on stacked
rows, one independent problem per row, and a single problem is the case of
one row, so the Monte Carlo harness fits a chunk of replications per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import FitResult, Stage1Params, Stage2Params

__all__ = [
    "PoleError",
    "ResidualProblem",
    "SolverOptions",
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


def _stage1_grad(e, b1: float, b2: float, b3: float):
    e = np.asarray(e, dtype=float)
    denom = _guarded_denominator(b3 + e, b3, e)
    d1 = e / denom
    d2 = b3 / denom
    d3 = (b2 - b1) * e / denom**2
    return np.stack([d1, d2, np.broadcast_to(d3, d1.shape)], axis=-1)


def _stage2_value(e, b4: float, b5: float, b6: float, b3h: float):
    e = np.asarray(e, dtype=float)
    n = _guarded_denominator(b3h + e, b3h, e)
    d = _guarded_denominator(b5 * b3h + b6 * e, b5 * b3h, b6 * e)
    return b4 * n / d


def _stage2_grad(e, b4: float, b5: float, b6: float, b3h: float):
    e = np.asarray(e, dtype=float)
    n = _guarded_denominator(b3h + e, b3h, e)
    d = _guarded_denominator(b5 * b3h + b6 * e, b5 * b3h, b6 * e)
    g4 = n / d
    g5 = -b4 * n * b3h / d**2
    g6 = -b4 * n * e / d**2
    return np.stack([np.broadcast_to(g4, e.shape), g5, g6], axis=-1)


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
    """
    return _stage1_grad(e, b.beta1, b.beta2, b.beta3)


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
    """Partial derivatives of :func:`stage2_model` w.r.t. (beta4, beta5, beta6)."""
    if not beta3_hat > 0.0:
        raise ValueError("beta3_hat must be > 0")
    return _stage2_grad(e, b.beta4, b.beta5, b.beta6, beta3_hat)


@dataclass(frozen=True)
class ResidualProblem:
    """A least-squares problem in evaluator form.

    ``residual(p)`` maps a length-``n_params`` vector to ``n_obs``
    residuals; ``jacobian(p)`` returns the ``(n_obs, n_params)`` matrix of
    residual derivatives.  Both must be pure functions of ``p``.  A stacked
    problem's evaluators take ``(P, rows)`` instead (see :func:`lm_fit`).
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    n_params: int
    n_obs: int

    def __post_init__(self):
        if self.n_params < 1 or self.n_obs < 1:
            raise ValueError("ResidualProblem dimensions must be >= 1")


@dataclass(frozen=True)
class SolverOptions:
    """Termination and damping controls for :func:`lm_fit`.

    ``g_tol`` bounds the max-norm of J^T r at convergence, ``x_tol`` the
    relative parameter change of an accepted step.  Damping starts at
    ``lambda0``, shrinks by ``lambda_factor`` on acceptance, grows by it
    on rejection, and aborts past ``lambda_max``.  The stage-1 search reads
    only ``max_iterations`` and ``x_tol`` (its shortest ``log beta3`` step).
    """

    max_iterations: int = 200
    g_tol: float = 1e-10
    x_tol: float = 1e-12
    lambda0: float = 1e-3
    lambda_factor: float = 10.0
    lambda_max: float = 1e12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("g_tol", "x_tol", "lambda0", "lambda_factor", "lambda_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


# The message of a row whose starting residuals cannot be evaluated.
UNEVALUABLE_START = "initial residuals are non-finite or unevaluable"


@dataclass(frozen=True)
class RowFits:
    """:func:`lm_fit` over stacked rows: entry ``i`` of each field is row ``i``'s fit.

    ``iterations`` is the total of the rows' accepted steps, so a single
    row reads like :class:`FitResult`; ``row_iterations`` holds the counts
    per row.  ``steps`` records each batch of accepted steps as ``(rows,
    params, residual_norms)``; :meth:`trace` reassembles one row's trace.
    """

    params: np.ndarray
    residual_norm: np.ndarray
    row_iterations: np.ndarray
    converged: np.ndarray
    messages: tuple[str, ...]
    steps: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def iterations(self) -> int:
        return int(self.row_iterations.sum())

    def trace(self, i: int) -> tuple[tuple[tuple[float, ...], float], ...]:
        return _trace(self.steps, i)


def _trace(steps, i: int) -> tuple[tuple[tuple[float, ...], float], ...]:
    """Row ``i``'s ``(params, residual_norm)`` pairs from batches of accepted steps ``(rows, params, norms)``."""
    return tuple((tuple(p[j].tolist()), float(ssr[j])) for rows, p, ssr in steps for j in np.flatnonzero(rows == i))


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


def _one_row(problem: ResidualProblem) -> ResidualProblem:
    """A single-row problem as a stack of one row; a failed evaluation is a nan row."""
    n_obs, n_params = problem.n_obs, problem.n_params

    def evaluate(fn, shape, p):
        try:
            out = np.asarray(fn(p[0]), dtype=float)
        except (ValueError, ArithmeticError):
            out = None
        return (out if out is not None and out.shape == shape else np.full(shape, np.nan))[None]

    return ResidualProblem(
        lambda p, rows: evaluate(problem.residual, (n_obs,), p),
        lambda p, rows: evaluate(problem.jacobian, (n_obs, n_params), p),
        n_params,
        n_obs,
    )


def lm_fit(problem: ResidualProblem, init: np.ndarray, opts: SolverOptions = SolverOptions()):
    """Minimize ``sum(residual(p)**2)`` by Levenberg-Marquardt iteration.

    Each step solves ``(J^T J + lam * diag(J^T J)) delta = -J^T r`` and is
    accepted only if the residual norm strictly decreases.  The iteration
    count and trace cover accepted steps only.

    A 1-D ``init`` fits one problem in evaluator form and returns a
    :class:`FitResult`; only malformed inputs (dimension mismatch,
    non-finite initial residuals) raise.  A 2-D ``init`` of shape ``(R,
    n_params)`` fits ``R`` stacked problems at once and returns
    :class:`RowFits`: ``residual(P, rows)`` maps the ``(len(rows),
    n_params)`` parameters of the selected rows (an index array, or a
    slice for every row) to ``(len(rows), n_obs)`` residuals and
    ``jacobian(P, rows)`` to ``(len(rows), n_obs, n_params)`` derivatives,
    with a row that cannot be evaluated coming back non-finite.  Every row
    keeps its own damping, accept test and stop, and arithmetic reduces
    only along a row, so a row's fit does not depend on the others; a row
    whose start cannot be evaluated stops with ``UNEVALUABLE_START``.

    Solver failures are reported, not raised: the row has
    ``converged=False`` and a message of ``"max iterations"``, ``"damping
    exhausted"``, ``"singular normal equations at iteration k"`` or
    ``"non-finite evaluation at iteration k"``.

    Deterministic: identical problem, init and options give an identical
    result.
    """
    p = np.array(init, dtype=float)
    if p.ndim == 1:
        if p.shape != (problem.n_params,):
            raise ValueError(f"init has shape {p.shape}, expected ({problem.n_params},)")
        fits = lm_fit(_one_row(problem), p[None], opts)
        if fits.messages[0] == UNEVALUABLE_START:
            raise ValueError(UNEVALUABLE_START)
        final = fits.params[0]
        final.setflags(write=False)
        return FitResult(
            final, float(fits.residual_norm[0]), fits.iterations, bool(fits.converged[0]),
            trace=fits.trace(0), message=fits.messages[0],
        )
    if p.ndim != 2 or p.shape[1] != problem.n_params:
        raise ValueError(f"init has shape {p.shape}, expected (R, {problem.n_params})")

    n_rows = len(p)
    res = problem.residual(p, slice(None))
    ssr = _rowdot(res, res)
    lam = np.full(n_rows, opts.lambda0)
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    messages = [UNEVALUABLE_START] * n_rows
    live = np.all(np.isfinite(res), axis=-1)
    steps = []

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
        small_grad = np.max(np.abs(grad), axis=-1) < opts.g_tol
        stop(rows[~finite], False, "non-finite evaluation at iteration {}")
        stop(rows[finite & small_grad], True, "gradient tolerance reached")
        out_of_steps = finite & ~small_grad & (iterations[rows] >= opts.max_iterations)
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
            exhausted = search & (lam[rows] > opts.lambda_max)
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
            small = np.sqrt(_rowdot(delta, delta)) < opts.x_tol * (opts.x_tol + norm_p)
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
            lam[sub[retry]] *= opts.lambda_factor
            search[at] = retry

            won = sub[better]
            p[won], res[won], ssr[won] = trial[better], r_trial[better], ssr_trial[better]
            lam[won] /= opts.lambda_factor
            iterations[won] += 1
            steps.append((won, trial[better], ssr_trial[better]))
            stop(won[small[better]], True, "step tolerance reached")

    return RowFits(p, ssr, iterations, converged, tuple(messages), tuple(steps))
