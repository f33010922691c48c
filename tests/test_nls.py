"""Model functions, analytic Jacobians, and the damped least-squares solver."""

import numpy as np
import pytest

from portvol import (
    PoleError,
    ResidualProblem,
    SolverOptions,
    Stage1Params,
    Stage2Params,
    lm_fit,
    stage1_jacobian,
    stage1_model,
    stage2_jacobian,
    stage2_model,
)
from portvol.nls import _stage1_grad, _stage1_value


def stage1_log_problem(e, y):
    """Stage 1 over (beta1, beta2, log beta3), a three-parameter test problem for lm_fit."""

    def residual(q):
        return y - _stage1_value(e, q[0], q[1], np.exp(q[2]))

    def jacobian(q):
        j = -_stage1_grad(e, q[0], q[1], np.exp(q[2]))
        j[:, 2] *= np.exp(q[2])
        return j

    return ResidualProblem(residual, jacobian, 3, len(e))


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
                    return _stage1_value(e, q[0], q[1], q[2])

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

                # evaluate through the raw core so the perturbation can take
                # beta4 slightly negative without tripping the dataclass guard
                def g(v, j=j):
                    from portvol.nls import _stage2_value

                    q = params.copy()
                    q[j] = v
                    return _stage2_value(e, q[0], q[1], q[2], b3h)

                assert rel_diff(central_diff(g, params[j], h), jac[j]) < 1e-6
            checked += 1


class TestLmFit:
    def test_zero_residuals_at_init(self):
        prob = ResidualProblem(lambda p: np.zeros(5), lambda p: np.ones((5, 2)), 2, 5)
        res = lm_fit(prob, np.array([1.0, 2.0]))
        assert res.converged
        assert res.iterations == 0
        assert res.trace == ()
        assert np.array_equal(res.params, [1.0, 2.0])

    def test_linear_problem_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        prob = ResidualProblem(lambda p: a @ p - y, lambda p: a, 3, 10)
        res = lm_fit(prob, np.zeros(3))
        expected, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert res.converged
        assert res.iterations <= 3
        assert np.max(np.abs(res.params - expected)) < 1e-10

    def test_noiseless_stage1_recovery_from_fixed_init(self):
        # Canonical start (1, 1, 0.1): beta1 == beta2 zeroes the third
        # Jacobian column at the first iterate, which must decouple that
        # coordinate rather than abort the solve.
        truth = np.array([2.0, 0.5, 0.04])
        rng = np.random.default_rng(50)
        e = rng.uniform(0.01, 0.10, 50)
        y = _stage1_value(e, *truth)
        prob = stage1_log_problem(e, y)
        res = lm_fit(prob, np.array([1.0, 1.0, np.log(0.1)]))
        decoded = np.array([res.params[0], res.params[1], np.exp(res.params[2])])
        assert res.converged
        assert np.max(np.abs(decoded / truth - 1.0)) < 1e-6

    def test_accepted_norms_strictly_decrease(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        prob = ResidualProblem(lambda p: a @ p - y, lambda p: a, 3, 20)
        res = lm_fit(prob, np.full(3, 10.0))
        norms = [t[1] for t in res.trace]
        assert all(b < x for x, b in zip(norms, norms[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        prob = ResidualProblem(lambda p: a @ p - y, lambda p: a, 2, 12)
        r1 = lm_fit(prob, np.zeros(2))
        r2 = lm_fit(prob, np.zeros(2))
        assert np.array_equal(r1.params, r2.params)
        assert r1.trace == r2.trace
        assert r1.residual_norm == r2.residual_norm
        assert r1.iterations == r2.iterations

    def test_max_iterations_reported(self):
        rng = np.random.default_rng(5)
        e = rng.uniform(0.01, 0.10, 50)
        y = _stage1_value(e, 2.0, 0.5, 0.04)
        prob = stage1_log_problem(e, y)
        res = lm_fit(prob, np.array([1.0, 1.0, np.log(0.1)]), SolverOptions(max_iterations=1))
        assert not res.converged
        assert res.message == "max iterations"
        assert res.iterations == 1

    def test_zero_jacobian_column_decouples(self):
        # The second parameter never enters the residual: its column is
        # identically zero and the solver must fit the first one anyway.
        def residual(p):
            return np.array([p[0] - 1.0, 2.0 * (p[0] - 1.0), 0.0])

        def jacobian(p):
            return np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])

        prob = ResidualProblem(residual, jacobian, 2, 3)
        res = lm_fit(prob, np.array([10.0, 5.0]))
        assert res.converged
        assert res.params[0] == pytest.approx(1.0, abs=1e-10)
        assert res.params[1] == 5.0  # untouched

    def test_singular_normal_equations_reported_with_iteration(self):
        # A Jacobian that overflows J'J produces an unsolvable damped system.
        def residual(p):
            return np.array([p[0] - 1.0, p[0] + 1.0])

        def jacobian(p):
            return np.array([[1e300], [1e300]])

        prob = ResidualProblem(residual, jacobian, 1, 2)
        res = lm_fit(prob, np.array([0.5]))
        assert not res.converged
        assert "singular normal equations at iteration 0" in res.message

    def test_non_finite_initial_residuals_raise(self):
        prob = ResidualProblem(lambda p: np.array([np.nan]), lambda p: np.ones((1, 1)), 1, 1)
        with pytest.raises(ValueError):
            lm_fit(prob, np.zeros(1))

    def test_raising_trials_are_rejected_not_fatal(self):
        # sqrt(p - 2) has a hard domain edge at p = 2; the first undamped
        # step from p = 10 jumps past it, so the solver must treat the
        # raising trial as a rejection, escalate the damping and recover.
        raised = [0]

        def residual(p):
            if p[0] <= 2.0:
                raised[0] += 1
                raise PoleError("outside the model domain")
            return np.array([np.sqrt(p[0] - 2.0) - np.sqrt(0.5)])

        def jacobian(p):
            return np.array([[0.5 / np.sqrt(p[0] - 2.0)]])

        prob = ResidualProblem(residual, jacobian, 1, 1)
        res = lm_fit(prob, np.array([10.0]))
        assert raised[0] >= 1
        assert res.converged
        assert res.params[0] == pytest.approx(2.5, rel=1e-8)


class TestSolverOptions:
    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iterations": 0},
            {"g_tol": 0.0},
            {"x_tol": -1.0},
            {"lambda0": 0.0},
        ],
    )
    def test_invalid_options_rejected(self, kw):
        with pytest.raises(ValueError):
            SolverOptions(**kw)
