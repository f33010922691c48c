"""Model functions, analytic Jacobians, and the damped least-squares solver."""

import math

import numpy as np
import pytest

import portvol.nls
from portvol import (
    Dataset,
    GaugeRule,
    PoleError,
    ResidualProblem,
    Stage1Params,
    Stage2Params,
    fit_vol_of_vol,
    lm_fit,
    stage1_jacobian,
    stage1_model,
    stage2_jacobian,
    stage2_model,
)
from portvol.nls import UNEVALUABLE_START, _rowdot, _stage1_curve, _stage1_grad


def stage1_log_problem(E, Y):
    """Stage 1 over (beta1, beta2, log beta3), one dataset per row of ``E`` and ``Y``: a test problem for lm_fit."""

    def residual(Q, rows):
        b3 = np.exp(Q[:, 2, None])
        return Y[rows] - (Q[:, 1, None] * b3 + Q[:, 0, None] * E[rows]) / (b3 + E[rows])

    def jacobian(Q, rows):
        b3 = np.exp(Q[:, 2])
        jac = -_stage1_grad(E[rows], Q[:, 0], Q[:, 1], b3)[0]
        jac[..., 2] *= b3[:, None]
        return jac

    return ResidualProblem(residual, jacobian, 3, E.shape[1])


def one_row_problem(residual, jacobian, n_params, n_obs):
    """Stacked rows that each run ``residual(p)`` and ``jacobian(p)``; a row whose evaluation raises is nan."""

    def evaluate(fn, shape, P):
        out = np.full((len(P),) + shape, np.nan)
        for i, p in enumerate(P):
            try:
                out[i] = fn(p)
            except (ValueError, ArithmeticError):
                pass
        return out

    return ResidualProblem(
        lambda P, rows: evaluate(residual, (n_obs,), P),
        lambda P, rows: evaluate(jacobian, (n_obs, n_params), P),
        n_params,
        n_obs,
    )


def linear_problem(a, y):
    return one_row_problem(lambda p: a @ p - y, lambda p: a, a.shape[1], len(y))


def noiseless_stage1(seed, truth=(2.0, 0.5, 0.04), rows=1):
    rng = np.random.default_rng(seed)
    E = rng.uniform(0.01, 0.10, (rows, 50))
    return stage1_log_problem(E, _stage1_curve(E, *truth)[0])


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-10)


class TestStage1Model:
    def test_at_zero_excess_return_returns_beta2(self):
        b = Stage1Params(2.0, 0.5, 0.04)
        assert stage1_model(0.0, b) == pytest.approx(0.5, rel=1e-15)

    def test_equal_betas_make_the_model_constant(self):
        b = Stage1Params(1.7, 1.7, 0.05)
        e = np.linspace(-0.02, 0.3, 200)
        values = stage1_model(e, b)
        assert values.max() - values.min() < 1e-14 * abs(b.beta1)

    def test_worked_value(self):
        # (1.0*0.04 + 2.0*0.06) / (0.04 + 0.06) = 0.16/0.10
        b = Stage1Params(2.0, 1.0, 0.04)
        assert stage1_model(0.06, b) == pytest.approx(1.6, rel=1e-14)

    def test_combined_form_equals_two_term_display(self):
        # beta2/(1 + e/beta3) + beta1*e/(beta3 + e), wherever both are defined
        rng = np.random.default_rng(1)
        for _ in range(300):
            b = Stage1Params(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.01, 0.5))
            e = rng.uniform(0.001, 0.2)
            two_term = b.beta2 / (1.0 + e / b.beta3) + b.beta1 * e / (b.beta3 + e)
            assert stage1_model(e, b) == pytest.approx(two_term, rel=1e-12)

    def test_pole_guard(self):
        b = Stage1Params(2.0, 0.5, 0.04)
        with pytest.raises(PoleError):
            stage1_model(-0.04 + 1e-15, b)
        # vector input with one bad entry rejects the whole call
        with pytest.raises(PoleError):
            stage1_model(np.array([0.05, -0.04]), b)


class TestStage1Jacobian:
    def test_at_zero_excess_return(self):
        b = Stage1Params(2.0, 0.5, 0.04)
        assert stage1_jacobian(0.0, b) == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_equal_betas_zero_third_component(self):
        b = Stage1Params(1.2, 1.2, 0.04)
        jac = stage1_jacobian(np.linspace(0.01, 0.1, 7), b)
        assert np.all(jac[:, 2] == 0.0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            params = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.01, 0.5)])
            e = rng.uniform(0.005, 0.15)
            jac = stage1_jacobian(e, Stage1Params(*params))
            for j in range(3):
                h = 1e-6 * max(1.0, abs(params[j]))

                def f(v, j=j):
                    q = params.copy()
                    q[j] = v
                    return stage1_model(e, Stage1Params(*q))

                assert rel_diff(central_diff(f, params[j], h), jac[j]) < 1e-6


class TestStage2Model:
    def test_at_zero_excess_return(self):
        b = Stage2Params(0.3, 0.15, 0.6)
        assert stage2_model(0.0, b, 0.04) == pytest.approx(2.0, rel=1e-14)  # beta4/beta5

    def test_worked_value(self):
        # 0.3*0.10 / (0.15*0.04 + 0.6*0.06) = 0.03/0.042
        b = Stage2Params(0.3, 0.15, 0.6)
        assert stage2_model(0.06, b, 0.04) == pytest.approx(0.03 / 0.042, rel=1e-14)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_gauge_invariance(self, c):
        b = Stage2Params(0.3, 0.15, 0.6)
        scaled = Stage2Params(0.3 * c, 0.15 * c, 0.6 * c)
        e = np.linspace(0.005, 0.12, 50)
        diff = np.abs(stage2_model(e, scaled, 0.04) - stage2_model(e, b, 0.04))
        assert diff.max() < 1e-12

    def test_pole_guards(self):
        b = Stage2Params(0.3, 0.15, 0.6)
        with pytest.raises(PoleError):
            stage2_model(-0.04, b, 0.04)  # outer factor
        # inner denominator: beta5*b3h + beta6*e = 0 at e = -beta5*b3h/beta6
        e_pole = -0.15 * 0.04 / 0.6
        with pytest.raises(PoleError):
            stage2_model(e_pole, b, 0.04)

    def test_requires_positive_beta3_hat(self):
        with pytest.raises(ValueError):
            stage2_model(0.05, Stage2Params(0.3, 0.15, 0.6), 0.0)


class TestStage2Jacobian:
    def test_at_zero_excess_return(self):
        b = Stage2Params(0.3, 0.15, 0.6)
        expected = [1.0 / 0.15, -0.3 / 0.15**2, 0.0]
        assert stage2_jacobian(0.0, b, 0.04) == pytest.approx(expected, rel=1e-13)

    def test_zero_beta4_kills_last_two_components(self):
        b = Stage2Params(0.0, 0.15, 0.6)
        jac = stage2_jacobian(np.array([0.02, 0.07]), b, 0.04)
        assert np.all(jac[:, 1:] == 0.0)
        n = 0.04 + np.array([0.02, 0.07])
        d = 0.15 * 0.04 + 0.6 * np.array([0.02, 0.07])
        assert jac[:, 0] == pytest.approx(n / d, rel=1e-14)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 200:
            params = np.array([rng.uniform(0.01, 2.0), rng.uniform(-2, 2), rng.uniform(-2, 2)])
            b3h = rng.uniform(0.01, 0.5)
            e = rng.uniform(0.005, 0.15)
            if abs(params[1] * b3h + params[2] * e) < 1e-3:
                continue
            jac = stage2_jacobian(e, Stage2Params(*params), b3h)
            for j in range(3):
                h = 1e-6 * max(1.0, abs(params[j]))

                def g(v, j=j):
                    q = params.copy()
                    q[j] = v
                    return stage2_model(e, Stage2Params(*q), b3h)  # beta4 - h stays >= 0.01 - 2e-6

                assert rel_diff(central_diff(g, params[j], h), jac[j]) < 1e-6
            checked += 1


class TestLmFit:
    def test_zero_residuals_at_init(self):
        prob = one_row_problem(lambda p: np.zeros(5), lambda p: np.ones((5, 2)), 2, 5)
        res = lm_fit(prob, np.array([[1.0, 2.0]]))
        assert res.converged[0]
        assert res.row_iterations[0] == 0 and res.iterations == 0
        assert res.messages == ("gradient tolerance reached",)
        assert np.array_equal(res.params, [[1.0, 2.0]])

    def test_linear_problem_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        res = lm_fit(linear_problem(a, y), np.zeros((1, 3)))
        expected, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert res.converged[0]
        assert res.row_iterations[0] <= 3
        assert np.max(np.abs(res.params[0] - expected)) < 1e-10

    def test_noiseless_stage1_recovery_from_fixed_init(self):
        # Canonical start (1, 1, 0.1): beta1 == beta2 zeroes the third
        # Jacobian column at the first iterate, which must decouple that
        # coordinate rather than abort the solve.
        truth = np.array([2.0, 0.5, 0.04])
        res = lm_fit(noiseless_stage1(50, truth), np.array([[1.0, 1.0, np.log(0.1)]]))
        decoded = np.array([res.params[0, 0], res.params[0, 1], np.exp(res.params[0, 2])])
        assert res.converged[0]
        assert np.max(np.abs(decoded / truth - 1.0)) < 1e-6

    def test_accepted_norms_strictly_decrease(self):
        # Every residual evaluation of a row is its start or a trial step.
        # A trial is accepted exactly when its sum of squares is a strict
        # new minimum, so the final norm is the least finite one seen and
        # the accepted steps are the strict new minima after the start.
        rng = np.random.default_rng(3)
        E = rng.uniform(0.01, 0.10, (6, 40))
        truths = [(2.0, 0.5, 0.04), (-1.0, 1.5, 0.2), (0.3, 2.0, 0.01)] * 2
        Y = _stage1_curve(E, *np.transpose(truths)[..., None])[0] + 0.01 * rng.standard_normal(E.shape)
        prob = stage1_log_problem(E, Y)
        seen = [[] for _ in range(len(E))]

        def residual(Q, rows):
            res = prob.residual(Q, rows)
            for i, ssr in zip(np.arange(len(E))[rows].tolist(), _rowdot(res, res).tolist()):
                seen[i].append(ssr)
            return res

        start = np.column_stack([np.full(6, 5.0), np.full(6, -3.0), np.log(np.linspace(0.5, 3.0, 6))])
        fits = lm_fit(ResidualProblem(residual, prob.jacobian, 3, E.shape[1]), start)
        for i, ssrs in enumerate(seen):
            minima = [s for j, s in enumerate(ssrs[1:], 1) if s < min(ssrs[:j])]
            assert fits.residual_norm[i] == min(s for s in ssrs if np.isfinite(s))
            assert fits.row_iterations[i] == len(minima) > 0
        assert sum(len(ssrs) - 1 for ssrs in seen) > fits.iterations  # some trials were rejected

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        r1 = lm_fit(linear_problem(a, y), np.zeros((1, 2)))
        r2 = lm_fit(linear_problem(a, y), np.zeros((1, 2)))
        assert np.array_equal(r1.params, r2.params)
        assert np.array_equal(r1.residual_norm, r2.residual_norm)
        assert np.array_equal(r1.row_iterations, r2.row_iterations)
        assert r1.messages == r2.messages

    def test_max_iterations_reported(self, monkeypatch):
        monkeypatch.setattr(portvol.nls, "_MAX_ITERATIONS", 1)
        prob = noiseless_stage1(5)
        res = lm_fit(prob, np.array([[1.0, 1.0, np.log(0.1)]]))
        assert not res.converged[0]
        assert res.messages == ("max iterations",)
        assert res.row_iterations[0] == 1

    def test_zero_jacobian_column_decouples(self):
        # The second parameter never enters the residual: its column is
        # identically zero and the solver must fit the first one anyway.
        def residual(p):
            return np.array([p[0] - 1.0, 2.0 * (p[0] - 1.0), 0.0])

        def jacobian(p):
            return np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])

        res = lm_fit(one_row_problem(residual, jacobian, 2, 3), np.array([[10.0, 5.0]]))
        assert res.converged[0]
        assert res.params[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert res.params[0, 1] == 5.0  # untouched

    def test_singular_normal_equations_reported_with_iteration(self):
        # A Jacobian that overflows J'J produces an unsolvable damped system.
        def residual(p):
            return np.array([p[0] - 1.0, p[0] + 1.0])

        def jacobian(p):
            return np.array([[1e300], [1e300]])

        res = lm_fit(one_row_problem(residual, jacobian, 1, 2), np.array([[0.5]]))
        assert not res.converged[0]
        assert res.messages == ("singular normal equations at iteration 0",)

    def test_non_finite_start_stops_its_row_only(self):
        # Row 0 starts where its residual is nan; row 1 is the same problem
        # started where it can be evaluated, and is fitted as usual.
        prob = one_row_problem(
            lambda p: np.array([np.sqrt(p[0]) - 1.0]) if p[0] >= 0.0 else np.array([np.nan]),
            lambda p: np.array([[0.5 / np.sqrt(p[0])]]),
            1, 1,
        )
        res = lm_fit(prob, np.array([[-1.0], [4.0]]))
        assert res.messages[0] == UNEVALUABLE_START
        assert not res.converged[0] and res.row_iterations[0] == 0
        assert res.params[0, 0] == -1.0
        assert res.converged[1]
        assert res.params[1, 0] == pytest.approx(1.0, rel=1e-8)

    def test_init_must_be_stacked(self):
        prob = one_row_problem(lambda p: p - 1.0, lambda p: np.eye(2), 2, 2)
        for init in (np.zeros(2), np.zeros((1, 3)), np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match=r"expected \(R, 2\)"):
                lm_fit(prob, init)

    def test_raising_trials_are_rejected_not_fatal(self):
        # sqrt(p - 2) has a hard domain edge at p = 2; the first undamped
        # step from p = 10 jumps past it, so the solver must treat the
        # raising trial (a nan row) as a rejection, escalate the damping
        # and recover.
        raised = [0]

        def residual(p):
            if p[0] <= 2.0:
                raised[0] += 1
                raise PoleError("outside the model domain")
            return np.array([np.sqrt(p[0] - 2.0) - np.sqrt(0.5)])

        def jacobian(p):
            return np.array([[0.5 / np.sqrt(p[0] - 2.0)]])

        res = lm_fit(one_row_problem(residual, jacobian, 1, 1), np.array([[10.0]]))
        assert raised[0] >= 1
        assert res.converged[0]
        assert res.params[0, 0] == pytest.approx(2.5, rel=1e-8)



def _no_rows(P, rows):
    return np.zeros((len(P), 1))


_POLE = "PoleError: model evaluated within the pole guard of a vanishing denominator"
# Both curves refuse what fit_vol_of_vol refuses: a beta3_hat that is not a finite number > 0, or a bool.
_BETA3_HAT = "ValueError: beta3_hat must be finite and > 0"


class TestGuards:
    """The refusals of the curves, their Jacobians and the solver, with their exact messages."""

    CASES = {
        "stage1-jacobian-at-pole": (
            lambda: stage1_jacobian(np.array([0.01, -0.04]), Stage1Params(2.0, 0.5, 0.04)), _POLE,
        ),
        "stage1-model-at-pole": (lambda: stage1_model(-0.04, Stage1Params(2.0, 0.5, 0.04)), _POLE),
        "stage2-model-at-pole": (lambda: stage2_model(0.02, Stage2Params(1.0, 0.5, -1.0), 0.04), _POLE),
        "stage2-model-at-numerator-pole": (lambda: stage2_model(-0.04, Stage2Params(1.0, 0.5, 2.0), 0.04), _POLE),
        "stage2-jacobian-at-pole": (
            lambda: stage2_jacobian(np.array([0.05, 0.02]), Stage2Params(1.0, 0.5, -1.0), 0.04), _POLE,
        ),
        "stage2-fit-pole-guard": (
            lambda: fit_vol_of_vol(
                Dataset(pi_star=[1.0, 1.1, 1.2, 1.3], mu=[-0.04, 0.01, 0.02, 0.03], r=[0.0] * 4),
                0.04,
                GaugeRule("free"),
            ),
            _POLE,
        ),
        "stage2-jacobian-beta3-hat-zero": (
            lambda: stage2_jacobian(0.05, Stage2Params(1.0, 0.5, 2.0), 0.0), _BETA3_HAT,
        ),
        "stage2-model-beta3-hat-negative": (
            lambda: stage2_model(0.05, Stage2Params(1.0, 0.5, 2.0), -0.04), _BETA3_HAT,
        ),
        **{
            f"stage2-{name}-beta3-hat-{value!r}": (
                lambda f=f, value=value: f(0.05, Stage2Params(1.0, 0.5, 2.0), value), _BETA3_HAT,
            )
            for name, f in (("model", stage2_model), ("jacobian", stage2_jacobian))
            for value in (math.inf, math.nan, True)
        },
        "problem-no-params": (
            lambda: ResidualProblem(_no_rows, _no_rows, 0, 1), "ValueError: ResidualProblem dimensions must be >= 1",
        ),
        "problem-no-observations": (
            lambda: ResidualProblem(_no_rows, _no_rows, 1, 0), "ValueError: ResidualProblem dimensions must be >= 1",
        ),
        "init-shape": (
            lambda: lm_fit(ResidualProblem(_no_rows, _no_rows, 2, 1), np.zeros(2)),
            "ValueError: init has shape (2,), expected (R, 2)",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exact_message(self, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError) as raised:
            call()
        assert f"{type(raised.value).__name__}: {raised.value}" == message


@pytest.mark.parametrize(
    "e, model_type, shape",
    [(0.05, float, ()), (np.array(0.05), np.float64, ()), (np.array([0.01, 0.05]), np.ndarray, (2,))],
    ids=["float", "0-d", "1-d"],
)
def test_return_types(e, model_type, shape):
    # A curve gives a float at a float, a numpy float at a 0-d array and an
    # array at an array; a Jacobian is an array with the parameter axis last.
    b1, b2 = Stage1Params(2.0, 0.5, 0.04), Stage2Params(1.0, 0.5, 2.0)
    for value in (stage1_model(e, b1), stage2_model(e, b2, 0.04)):
        assert type(value) is model_type and np.shape(value) == shape
    for jac in (stage1_jacobian(e, b1), stage2_jacobian(e, b2, 0.04)):
        assert type(jac) is np.ndarray and jac.shape == shape + (3,)
