"""The model curves and their analytic Jacobians: values, pole guards, derivatives and return types."""

import importlib.util
import math
import pkgutil

import numpy as np
import pytest

import portvol
import portvol.model
from portvol import (
    Dataset,
    GaugeRule,
    PoleError,
    Stage1Params,
    Stage2Params,
    fit_vol_of_vol,
    stage1_jacobian,
    stage1_model,
    stage2_jacobian,
    stage2_model,
)


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


_POLE = "PoleError: model evaluated within the pole guard of a vanishing denominator"
# Both curves refuse what fit_vol_of_vol refuses: a beta3_hat that is not a finite number > 0, or a bool.
_BETA3_HAT = "ValueError: beta3_hat must be finite and > 0"


class TestGuards:
    """The refusals of the curves, their Jacobians and the stage-2 fit, with their exact messages."""

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
        # A pole in any row of a 2-D e refuses the whole call.
        "stage1-model-at-pole-2d": (
            lambda: stage1_model(np.array([[0.01, 0.02], [0.03, -0.04]]), Stage1Params(2.0, 0.5, 0.04)), _POLE,
        ),
        "stage1-jacobian-at-pole-2d": (
            lambda: stage1_jacobian(np.array([[0.01, 0.02], [-0.04, 0.03]]), Stage1Params(2.0, 0.5, 0.04)), _POLE,
        ),
        "stage2-model-at-pole-2d": (
            lambda: stage2_model(np.array([[0.05, 0.03], [0.01, 0.02]]), Stage2Params(1.0, 0.5, -1.0), 0.04), _POLE,
        ),
        "stage2-jacobian-at-numerator-pole-2d": (
            lambda: stage2_jacobian(np.array([[0.05, 0.03], [-0.04, 0.01]]), Stage2Params(1.0, 0.5, 2.0), 0.04),
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
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exact_message(self, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError) as raised:
            call()
        assert f"{type(raised.value).__name__}: {raised.value}" == message

    # An overflowing e or parameter gives the IEEE value with no warning, as stage1_model does.
    OVERFLOW_CASES = {
        "stage1-jacobian": (lambda: stage1_jacobian(1e308, Stage1Params(1, 1, 1e308)), "[0.0, 0.0, 0.0]"),
        "stage2-model-e-1e308": (lambda: stage2_model(1e308, Stage2Params(1, 1, 1), 1e308), "nan"),
        "stage2-model-beta6-1e200": (lambda: stage2_model(1e200, Stage2Params(1, 1, 1e200), 0.04), "0.0"),
        "stage2-jacobian-beta6-1e200": (
            lambda: stage2_jacobian(1e200, Stage2Params(1, 1, 1e200), 0.04), "[0.0, -0.0, -0.0]",
        ),
    }

    @pytest.mark.parametrize("case", OVERFLOW_CASES)
    def test_overflow_is_silent(self, case):
        call, value = self.OVERFLOW_CASES[case]
        assert repr(np.asarray(call()).tolist()) == value


@pytest.mark.parametrize(
    "e, model_type, shape",
    [
        (0.05, float, ()),
        (np.array(0.05), np.float64, ()),
        (np.array([0.01, 0.05]), np.ndarray, (2,)),
        (np.array([[0.01, 0.05, 0.1], [0.02, 0.03, 0.04]]), np.ndarray, (2, 3)),
    ],
    ids=["float", "0-d", "1-d", "2-d"],
)
def test_return_types(e, model_type, shape):
    # A curve gives a float at a float, a numpy float at a 0-d array and an
    # array of e's shape at an array; a Jacobian is an array with the
    # parameter axis last.  Every entry is the one of the flattened e.
    b1, b2 = Stage1Params(2.0, 0.5, 0.04), Stage2Params(1.0, 0.5, 2.0)
    curves = (lambda x: stage1_model(x, b1), lambda x: stage2_model(x, b2, 0.04))
    for curve in curves:
        value = curve(e)
        assert type(value) is model_type and np.shape(value) == shape
        assert np.array_equal(value, curve(np.ravel(e)).reshape(shape))
    for jacobian in (lambda x: stage1_jacobian(x, b1), lambda x: stage2_jacobian(x, b2, 0.04)):
        jac = jacobian(e)
        assert type(jac) is np.ndarray and jac.shape == shape + (3,)
        assert np.array_equal(jac, jacobian(np.ravel(e)).reshape(shape + (3,)))


def test_no_levenberg_marquardt_solver():
    # Both stages fit by variable projection: the unused solver is gone, and with it its problem, result and
    # option types.  The curves and PoleError live in model beside their parameter types, and no nls module
    # is left.
    assert not hasattr(portvol, "lm_fit")
    for info in pkgutil.iter_modules(portvol.__path__):
        module = importlib.import_module(f"portvol.{info.name}")
        defined = {n for n, v in vars(module).items() if isinstance(v, type) and v.__module__ == module.__name__}
        assert not defined & {"ResidualProblem", "RowFits", "SolverOptions"}, info.name
    for name in ("PoleError", "stage1_model", "stage1_jacobian", "stage2_model", "stage2_jacobian"):
        assert name in portvol.__all__ and getattr(portvol, name) is getattr(portvol.model, name)
        assert getattr(portvol, name).__module__ == portvol.model.__name__
    assert importlib.util.find_spec("portvol.nls") is None
