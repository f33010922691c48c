"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; thresholds that required an oracle run to freeze carry the
measured value in a comment.
"""

import math
from contextlib import contextmanager

import numpy as np

from portvol import (
    GaugeRule,
    GenerationSpec,
    HestonParams,
    PathConfig,
    Stage1Params,
    Stage2Params,
    cir_mean,
    estimate_rho,
    fit_vol_of_vol,
    fit_volatility,
    generate_synthetic_dataset,
    monte_carlo_validation,
    simulate_variance_batch,
    stage1_jacobian,
    stage2_jacobian,
    stage2_model,
)
from portvol.cli import run_cli
from portvol.estimate import DIAG_B1_EQ_B2, DIAG_DEGENERATE_COV, DIAG_GAUGE
from portvol.nls import _stage1_value, _stage2_value


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


TRUTH = Stage1Params(2.0, 0.5, 0.04)


def test_01_noiseless_stage1_recovery():
    with criterion(1, "noiseless stage-1 fit recovers (2.0, 0.5, 0.04) within 1e-6 relative"):
        spec = GenerationSpec(stage1=TRUTH, n=50, noise=0.0, e_interval=(0.01, 0.10))
        data = generate_synthetic_dataset("model-implied", spec, seed=42)
        fit = fit_volatility(data)
        assert fit.converged
        rel = np.abs(fit.params.as_array() / TRUTH.as_array() - 1.0)
        assert np.max(rel) <= 1e-6


def test_02_noisy_stage1_recovery():
    with criterion(2, "noisy stage-1 fit: |bias(beta3)| <= 0.004, convergence rate >= 0.95"):
        spec = GenerationSpec(stage1=TRUTH, n=500, noise=0.01)
        report = monte_carlo_validation(spec, 100, master_seed=2024)
        # oracle run measured bias(beta3) = 4.7e-5 and rate = 1.0 for this seed
        assert abs(report.bias[2]) <= 0.004
        assert report.convergence_rate >= 0.95


def test_03_jacobians_match_finite_differences():
    with criterion(3, "analytic Jacobians match central differences within 1e-6 relative (1000 each)"):
        rng = np.random.default_rng(99)

        def check(value_fn, grad_fn, params, step_scales):
            jac = grad_fn(params)
            for j, scale in enumerate(step_scales):
                h = 1e-6 * max(1.0, abs(params[j]))
                hi, lo = params.copy(), params.copy()
                hi[j] += h
                lo[j] -= h
                fd = (value_fn(hi) - value_fn(lo)) / (2.0 * h)
                assert abs(fd - jac[j]) / max(abs(fd), abs(jac[j]), 1e-10) <= 1e-6

        done = 0
        while done < 1000:
            b = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.01, 0.5)])
            e = rng.uniform(0.005, 0.15)
            check(
                lambda q: _stage1_value(e, *q),
                lambda q: stage1_jacobian(e, Stage1Params(*q)),
                b,
                range(3),
            )
            done += 1
        done = 0
        while done < 1000:
            b = np.array([rng.uniform(0.01, 2.0), rng.uniform(-2, 2), rng.uniform(-2, 2)])
            b3h = rng.uniform(0.01, 0.5)
            e = rng.uniform(0.005, 0.15)
            if abs(b[1] * b3h + b[2] * e) < 1e-3:
                continue
            check(
                lambda q: _stage2_value(e, q[0], q[1], q[2], b3h),
                lambda q: stage2_jacobian(e, Stage2Params(*q), b3h),
                b,
                range(3),
            )
            done += 1


def test_04_simulator_moment_check():
    with criterion(4, "full-truncation mean variance at T=1 within 3 MC standard errors of the closed form"):
        p = HestonParams(mu=0.0, r=0.0, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=0.0, sigma_bar=0.02)
        c = PathConfig(horizon=1.0, dt=1e-3, seed=20240811, n_paths=100_000)
        terminal = np.empty(c.n_paths)
        chunk = 5000
        for lo in range(0, c.n_paths, chunk):
            hi = min(lo + chunk, c.n_paths)
            terminal[lo:hi] = simulate_variance_batch(p, c, range(lo, hi))[:, -1]
        se = terminal.std(ddof=1) / math.sqrt(c.n_paths)
        assert abs(terminal.mean() - cir_mean(p, 1.0)) <= 3.0 * se


def test_05_variance_positivity_under_feller_violation():
    with criterion(5, "zero negative variance values across 1e7 steps with 2*alpha < gamma**2"):
        p = HestonParams(mu=0.0, r=0.0, alpha=0.01, beta_rev=1.0, gamma=0.5, rho=0.0, sigma_bar=0.04)
        assert not p.feller_ok
        c = PathConfig(horizon=1.0, dt=1e-3, seed=5, n_paths=10_000)
        assert c.n_paths * c.n_steps == 10_000_000
        negatives = 0
        truncated = 0
        for lo in range(0, c.n_paths, 2000):
            block = simulate_variance_batch(p, c, range(lo, lo + 2000))
            negatives += int((block[:, 1:] < 0.0).sum())
            truncated += int((block[:, 1:] == 0.0).sum())
        assert negatives == 0
        assert truncated > 0  # the floor is genuinely exercised


def test_06_stage2_gauge_invariance():
    with criterion(6, "stage-2 residuals invariant under 1e-3/1e3 rescaling; free-gauge fits flag GAUGE_UNIDENTIFIED"):
        spec = GenerationSpec(stage1=TRUTH, n=50, noise=0.0)
        data = generate_synthetic_dataset("model-implied", spec, seed=42)
        e = data.e
        pib = 1.0 / data.pi_star
        free = fit_vol_of_vol(data, 0.04, GaugeRule.free())
        assert DIAG_GAUGE in free.diagnostics

        vectors = [free.params, Stage2Params(0.3, 0.15, 0.6), Stage2Params(1.0, 0.5, 2.0)]
        rng = np.random.default_rng(6)
        while len(vectors) < 53:
            b = Stage2Params(rng.uniform(0.01, 2.0), rng.uniform(-2, 2), rng.uniform(-2, 2))
            # keep the inner denominator bounded away from zero on the data:
            # near-pole vectors have unbounded model values, where an absolute
            # 1e-12 bound is meaningless (and no fit can sit there anyway)
            if np.min(np.abs(b.beta5 * 0.04 + b.beta6 * e)) < 5e-3:
                continue
            vectors.append(b)
        for b in vectors:
            base = pib - stage2_model(e, b, 0.04)
            for c in (1e-3, 1e3):
                scaled = Stage2Params(b.beta4 * c, b.beta5 * c, b.beta6 * c)
                diff = np.abs((pib - stage2_model(e, scaled, 0.04)) - base)
                assert diff.max() <= 1e-12


def test_07_rho_round_trip():
    with criterion(7, "correlation estimate inverts its defining relation within 1e-12 relative (100 draws)"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = rng.uniform(-0.999, 0.999)
            gamma = rng.uniform(0.02, 2.0)
            ratio = rng.uniform(0.02, 3.0) * rng.choice([-1.0, 1.0])
            beta2 = -rho * gamma * ratio
            est = estimate_rho(beta2, gamma, ratio)
            assert abs(est.rho_hat - rho) <= 1e-12 * max(abs(rho), 1.0)


def test_08_degeneracy_detection():
    with criterion(8, "beta1 == beta2 data always triggers the identifiability flag and degenerate covariance"):
        for seed in (3, 17, 255, 9001):
            spec = GenerationSpec(stage1=Stage1Params(1.5, 1.5, 0.04), n=50, noise=0.0)
            data = generate_synthetic_dataset("model-implied", spec, seed=seed)
            fit = fit_volatility(data)
            assert DIAG_B1_EQ_B2 in fit.diagnostics
            assert DIAG_DEGENERATE_COV in fit.diagnostics
            assert fit.standard_errors is None


def test_09_pipeline_determinism(tmp_path, capsys):
    with criterion(9, "pipeline reruns with one config and seed produce byte-identical dataset and report"):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[run]\nmode = pipeline\n"
            f"output = {tmp_path / 'report.txt'}\ndataset_output = {tmp_path / 'data.csv'}\nseed = 11\n"
            "[generation]\nn = 200\nnoise = 0.01\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n"
        )
        assert run_cli(["pipeline", "--config", str(cfg)]) == 0
        report1 = (tmp_path / "report.txt").read_bytes()
        data1 = (tmp_path / "data.csv").read_bytes()
        assert run_cli(["pipeline", "--config", str(cfg)]) == 0
        assert (tmp_path / "report.txt").read_bytes() == report1
        assert (tmp_path / "data.csv").read_bytes() == data1
        capsys.readouterr()


def test_10_structural_end_to_end(tmp_path, capsys):
    with criterion(10, "structural pipeline writes its dataset, then refuses stage 1 and writes no report"):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\nmode = pipeline\n"
            f"output = {tmp_path / 'r.txt'}\ndataset_output = {tmp_path / 'd.csv'}\nseed = 7\n"
            "[generation]\nkind = structural\n"
            "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = 0.3\nrho = -0.5\nsigma_bar = 0.04\n"
            "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
            "[path]\nhorizon = 1.0\ndt = 0.004\nx0 = 1.0\n"
        )
        # Every structural row has e = mu - r = 0.06, which cannot identify beta3.
        assert run_cli(["pipeline", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error in stage1 fit stage: insufficient regressor variation: "
            "stage-1 fit needs at least 3 distinct e, got 1\n"
        )
        assert captured.out == ""
        assert len((tmp_path / "d.csv").read_text().splitlines()) == 1 + 251
        assert not (tmp_path / "r.txt").exists()
