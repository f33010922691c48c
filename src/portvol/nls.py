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
Marquardt (diagonal) scaling; it is the stage-2 solver.
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
]

# Relative threshold below which a denominator counts as sitting on a pole.
_POLE_RTOL = 1e-12


class PoleError(ValueError):
    """Raised when a model is evaluated too close to a pole of its rational form."""


def _guarded_denominator(value, *scale_terms):
    """Return ``value`` after checking it is not relatively tiny.

    The guard compares |value| against ``_POLE_RTOL * max(scale_terms, 1)``
    elementwise; a violation anywhere raises :class:`PoleError`.
    """
    scale = np.ones_like(np.asarray(value, dtype=float))
    for term in scale_terms:
        scale = np.maximum(scale, np.abs(term))
    if np.any(np.abs(value) < _POLE_RTOL * scale):
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
    residual derivatives.  Both must be pure functions of ``p``.
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


def _eval_residual(problem: ResidualProblem, p: np.ndarray):
    """Evaluate residuals at a trial point; None signals a rejected evaluation."""
    try:
        r = np.asarray(problem.residual(p), dtype=float)
    except (ValueError, ArithmeticError):
        return None
    if r.shape != (problem.n_obs,) or not np.all(np.isfinite(r)):
        return None
    return r


def lm_fit(
    problem: ResidualProblem, init: np.ndarray, opts: SolverOptions = SolverOptions()
) -> FitResult:
    """Minimize ``sum(residual(p)**2)`` by Levenberg-Marquardt iteration.

    Each step solves ``(J^T J + lam * diag(J^T J)) delta = -J^T r`` and is
    accepted only if the residual norm strictly decreases.  The iteration
    count and trace cover accepted steps only.

    Solver failures are reported, not raised: the returned ``FitResult``
    has ``converged=False`` and a ``message`` of ``"max iterations"``,
    ``"damping exhausted"``, ``"singular normal equations at iteration k"``
    or ``"non-finite evaluation at iteration k"``.  Only malformed inputs
    (dimension mismatch, non-finite initial residuals) raise.

    Deterministic: identical problem, init and options give an identical
    result.
    """
    p = np.asarray(init, dtype=float).copy()
    if p.shape != (problem.n_params,):
        raise ValueError(
            f"init has shape {p.shape}, expected ({problem.n_params},)"
        )
    res = _eval_residual(problem, p)
    if res is None:
        raise ValueError("initial residuals are non-finite or unevaluable")
    ssr = float(res @ res)

    def result(converged: bool, message: str, se_trace: list) -> FitResult:
        final = p.copy()
        final.setflags(write=False)
        return FitResult(
            params=final,
            residual_norm=ssr,
            iterations=len(se_trace),
            converged=converged,
            trace=tuple(se_trace),
            message=message,
        )

    trace: list[tuple[tuple[float, ...], float]] = []
    lam = opts.lambda0

    while True:
        try:
            jac = np.asarray(problem.jacobian(p), dtype=float)
        except (ValueError, ArithmeticError):
            jac = None
        if jac is None or jac.shape != (problem.n_obs, problem.n_params) or not np.all(
            np.isfinite(jac)
        ):
            return result(False, f"non-finite evaluation at iteration {len(trace)}", trace)

        grad = jac.T @ res
        if np.max(np.abs(grad)) < opts.g_tol:
            return result(True, "gradient tolerance reached", trace)
        if len(trace) >= opts.max_iterations:
            return result(False, "max iterations", trace)

        # Overflow here is tolerated: a non-finite normal matrix surfaces as
        # an unsolvable damped system below.
        with np.errstate(over="ignore", invalid="ignore"):
            jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        # A zero diagonal entry means that Jacobian column is identically
        # zero; its gradient component is then zero as well, so the
        # coordinate decouples: keep it fixed and solve the reduced system.
        active = diag > 0.0
        if not np.any(active):
            return result(True, "gradient tolerance reached", trace)

        # Inner loop: escalate damping until a strictly decreasing step is
        # found, or the proposed step shrinks below the x tolerance (the
        # iterate then cannot move and counts as converged in x).
        accepted = False
        step_small = False
        last_failure = "damping exhausted"
        while lam <= opts.lambda_max:
            a = (jtj + lam * np.diag(diag))[np.ix_(active, active)]
            delta = np.zeros(problem.n_params)
            try:
                delta[active] = np.linalg.solve(a, -grad[active])
                # An exactly zero step against a gradient above tolerance can
                # only come from a numerically broken (e.g. overflowed) system.
                solvable = np.all(np.isfinite(delta)) and np.any(delta != 0.0)
            except np.linalg.LinAlgError:
                solvable = False
            if not solvable:
                return result(
                    False, f"singular normal equations at iteration {len(trace)}", trace
                )
            step_small = np.linalg.norm(delta) < opts.x_tol * (opts.x_tol + np.linalg.norm(p))
            trial = p + delta
            r_trial = _eval_residual(problem, trial)
            if r_trial is None:
                if step_small:
                    return result(True, "step tolerance reached", trace)
                last_failure = f"non-finite evaluation at iteration {len(trace)}"
                lam *= opts.lambda_factor
                continue
            ssr_trial = float(r_trial @ r_trial)
            if ssr_trial < ssr:
                accepted = True
                break
            if step_small:
                # The damped proposal is already below the step tolerance and
                # still brings no decrease: the current point is the answer.
                return result(True, "step tolerance reached", trace)
            last_failure = "damping exhausted"
            lam *= opts.lambda_factor
        if not accepted:
            return result(False, last_failure, trace)

        p, res, ssr = trial, r_trial, ssr_trial
        lam /= opts.lambda_factor
        trace.append((tuple(float(v) for v in p), ssr))
        if step_small:
            return result(True, "step tolerance reached", trace)
