"""Path simulation: schemes, seeding contract, and synthetic data generation."""

import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import portvol.estimate
import portvol.simulate
from portvol import (
    Dataset,
    GenerationSpec,
    HestonParams,
    PathConfig,
    PolicyCoefficients,
    SimPath,
    Stage1Params,
    StructuralSpec,
    cir_mean,
    generate_synthetic_dataset,
    market_path_from_normals,
    optimal_policy,
    simulate_market_path,
    simulate_variance_batch,
    simulate_variance_path,
    simulate_wealth_path,
    stage1_model,
    variance_path_from_normals,
)
from portvol.nls import _guarded_denominator
from portvol.simulate import (
    _BLOCK_PATHS,
    _TILE,
    _TILE_PATHS,
    BASE_RATE,
    POLICY_VARIANCE_FLOOR,
    _in_threads,
    _model_implied_rows,
    _seed_keys,
    _stream_keys,
)


def heston(**overrides):
    kw = dict(mu=0.08, r=0.02, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=-0.5, sigma_bar=0.04)
    kw.update(overrides)
    return HestonParams(**kw)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPathConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PathConfig(horizon=1.0, dt=1.0, seed=0)  # dt must be < horizon
        with pytest.raises(ValueError):
            PathConfig(horizon=0.0, dt=0.1, seed=0)
        with pytest.raises(ValueError):
            PathConfig(horizon=1.0, dt=0.1, seed=-1)
        with pytest.raises(ValueError):
            PathConfig(horizon=1.0, dt=0.1, seed=0, n_paths=0)
        with pytest.raises(ValueError, match="n_paths"):
            PathConfig(horizon=1.0, dt=0.1, seed=0, n_paths=2**64 + 1)  # path indices are 64-bit
        PathConfig(horizon=1.0, dt=0.1, seed=0, n_paths=2**64)

    def test_grid(self):
        c = PathConfig(horizon=1.0, dt=1e-3, seed=0)
        assert c.n_steps == 1000
        t = c.times()
        assert len(t) == 1001
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.all(np.diff(t) > 0)

    def test_ragged_final_step(self):
        c = PathConfig(horizon=1.0, dt=0.3, seed=0)
        assert c.n_steps == 4
        assert c.times()[-1] == 1.0
        assert c.times()[-2] == pytest.approx(0.9)


class TestCirMean:
    def test_initial_condition(self):
        p = heston(sigma_bar=0.07)
        assert cir_mean(p, 0.0) == pytest.approx(0.07, rel=1e-15)

    def test_stationary_level(self):
        p = heston(alpha=0.08, beta_rev=2.0)
        assert cir_mean(p, 1e6) == pytest.approx(0.04, rel=1e-12)

    def test_worked_value(self):
        p = heston(alpha=0.08, beta_rev=2.0, sigma_bar=0.02)
        assert cir_mean(p, 1.0) == pytest.approx(0.04 - 0.02 * math.exp(-2.0), rel=1e-15)
        assert cir_mean(p, 1.0) == pytest.approx(0.037293, abs=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            cir_mean(heston(), -0.1)


class TestVariancePath:
    def test_deterministic_limit_matches_ode(self):
        # gamma = 0 turns the scheme into Euler on the mean-reversion ODE.
        p = heston(alpha=0.08, beta_rev=2.0, gamma=0.0, sigma_bar=0.02)
        c = PathConfig(horizon=1.0, dt=1e-4, seed=1)
        v = simulate_variance_path(p, c, 0)
        assert abs(v[-1] - cir_mean(p, 1.0)) < 1e-3
        assert abs(v[-1] - cir_mean(p, 1.0)) < 1e-5  # actual Euler error is ~5e-7

    def test_zero_is_a_fixed_point(self):
        p = heston(alpha=0.0, gamma=0.0, sigma_bar=0.0)
        c = PathConfig(horizon=1.0, dt=1e-3, seed=1)
        assert simulate_variance_path(p, c, 0).max() == 0.0

    def test_pure_decay_first_order(self):
        p = heston(alpha=0.0, gamma=0.0, sigma_bar=0.05, beta_rev=1.5)
        c = PathConfig(horizon=1.0, dt=1e-4, seed=1)
        v = simulate_variance_path(p, c, 0)
        assert v[-1] == pytest.approx(0.05 * math.exp(-1.5), rel=1e-3)

    def test_monte_carlo_mean_matches_cir_mean(self):
        p = heston(mu=0.0, r=0.0, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=0.0, sigma_bar=0.02)
        c = PathConfig(horizon=1.0, dt=1e-3, seed=7, n_paths=10_000)
        term = simulate_variance_batch(p, c)[:, -1]
        se = term.std(ddof=1) / math.sqrt(c.n_paths)
        assert abs(term.mean() - cir_mean(p, 1.0)) < 3.0 * se

    def test_nonnegative_under_feller_violation(self):
        p = heston(alpha=0.01, beta_rev=1.0, gamma=0.5, sigma_bar=0.04)
        assert not p.feller_ok
        c = PathConfig(horizon=1.0, dt=1e-3, seed=5, n_paths=200)
        block = simulate_variance_batch(p, c)
        assert block.min() >= 0.0
        assert (block == 0.0).sum() > 0  # truncation is actually active here

    def test_path_index_stream_independence(self):
        p = heston()
        c = PathConfig(horizon=1.0, dt=1e-2, seed=42, n_paths=64)
        single = simulate_variance_path(p, c, 17)
        for chunk in ([17], range(10, 20), range(64)):
            block = simulate_variance_batch(p, c, chunk)
            row = list(chunk).index(17)
            assert np.array_equal(block[row], single)

    def test_same_seed_same_path_different_index_differs(self):
        p = heston()
        c = PathConfig(horizon=1.0, dt=1e-2, seed=42, n_paths=4)
        a = simulate_variance_path(p, c, 0)
        b = simulate_variance_path(p, c, 0)
        other = simulate_variance_path(p, c, 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_out_of_range_path_index(self):
        c = PathConfig(horizon=1.0, dt=1e-2, seed=42, n_paths=4)
        with pytest.raises(ValueError):
            simulate_variance_path(heston(), c, 4)


class TestSinglePathKernel:
    """A 1-D path is stepped on Python floats; a batch on arrays.  The bits must agree."""

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.0, 2.0),
        beta_rev=st.floats(0.01, 10.0),
        gamma=st.floats(0.0, 3.0),
        sigma_bar=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        max_dt=st.floats(1e-4, 0.5),
        n_steps=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_path_equals_batch_row(self, alpha, beta_rev, gamma, sigma_bar, max_dt, n_steps, seed):
        # gamma up to 3 against alpha up to 2 puts many draws past the Feller
        # bound, where truncation is active.
        p = heston(alpha=alpha, beta_rev=beta_rev, gamma=gamma, sigma_bar=sigma_bar)
        rng = np.random.default_rng(seed)
        dts = rng.uniform(1e-5, max_dt, n_steps)
        z2 = rng.standard_normal((3, n_steps))
        batch = variance_path_from_normals(p, dts, z2)
        for row in range(3):
            assert same_bits(variance_path_from_normals(p, dts, z2[row]), batch[row])

    def test_truncation_active_paths_match_batch(self):
        p = heston(alpha=0.01, beta_rev=1.0, gamma=0.9, sigma_bar=0.0)
        assert not p.feller_ok
        c = PathConfig(horizon=2.0, dt=1e-3, seed=5, n_paths=8)
        batch = simulate_variance_batch(p, c)
        assert (batch == 0.0).sum() > 100
        for i in range(c.n_paths):
            assert same_bits(simulate_variance_path(p, c, i), batch[i])

    def test_negative_zero_step_is_truncated_to_positive_zero(self):
        # alpha = sigma_bar = -0.0 and a negative shock make every term of the
        # first step -0.0.  np.maximum(-0.0, 0.0) is +0.0 (max() would keep -0.0).
        p = heston(alpha=-0.0, sigma_bar=-0.0)
        dts = np.full(4, 0.01)
        z2 = -np.ones(4)
        single = variance_path_from_normals(p, dts, z2)
        assert np.signbit(single[0])
        assert not np.signbit(single[1:]).any()
        assert same_bits(single, variance_path_from_normals(p, dts, z2[None, :])[0])

    def test_overflowing_path_raises(self):
        p = heston(alpha=1e308, beta_rev=1.0)
        with pytest.raises(ValueError, match="variance path became non-finite"):
            variance_path_from_normals(p, np.array([10.0, 10.0]), np.zeros(2))

    def test_overflowing_batch_raises(self):
        p = heston(alpha=1e308, beta_rev=1.0)
        with pytest.raises(ValueError, match="variance path became non-finite"):
            variance_path_from_normals(p, np.array([10.0, 10.0]), np.zeros((2, 2)))

    def test_nan_step_is_kept_and_raises(self):
        # The drift overflows to +inf and the shock to -inf: the step is NaN,
        # which truncation must keep rather than turn into 0.
        p = heston(alpha=1e308, beta_rev=1.0, gamma=1e10, sigma_bar=1.0)
        with pytest.raises(ValueError, match="variance path became non-finite"):
            variance_path_from_normals(p, np.array([10.0]), np.array([-1e300]))


class TestBatchKernel:
    """The tiled batch kernel: pinned bits, any leading axes, edge-sized batches."""

    # sha256 of simulate_variance_batch(...).tobytes() (little-endian float64),
    # computed before the batch kernel was tiled and its streams re-keyed.
    @pytest.mark.parametrize(
        "params, config, path_indices, n_steps, digest",
        [
            # Test 5's Feller-violating parameters (truncation active), a seed
            # past 2**32.
            (
                dict(mu=0.0, r=0.0, alpha=0.01, beta_rev=1.0, gamma=0.5, rho=0.0, sigma_bar=0.04),
                PathConfig(horizon=0.5, dt=1e-3, seed=2**32 + 5, n_paths=300),
                None,
                500,
                "7d44cffa5afca5e3639703d7ed6061606d657bb7d5ac53a0e53913d2ced12f5f",
            ),
            # A ragged final step, and a step count that is no multiple of a tile.
            (
                dict(),
                PathConfig(horizon=0.1234, dt=1e-3, seed=7, n_paths=40),
                range(3, 40, 2),
                124,
                "7348ade8edd8d709fc5ab01d80ac8a252b4d80cab1bc6cffc9e5b3fde947410b",
            ),
        ],
        ids=["feller-violating", "ragged-grid"],
    )
    def test_pinned_batch_digest(self, params, config, path_indices, n_steps, digest):
        assert config.n_steps == n_steps
        batch = simulate_variance_batch(heston(**params), config, path_indices)
        assert batch.flags.c_contiguous
        assert hashlib.sha256(batch.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n_steps", [1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 6])
    @pytest.mark.parametrize("lead", [(2, 3), (_TILE_PATHS + 7,)], ids=["2x3", "path-blocks"])
    def test_leading_axes_rows_equal_single_paths(self, n_steps, lead):
        # n_steps = 1 is shorter than one tile, and some counts end in a
        # partial tile; _TILE_PATHS + 7 paths end in a partial block of paths.
        p = heston(alpha=0.01, beta_rev=1.0, gamma=0.9, sigma_bar=0.0)
        rng = np.random.default_rng(n_steps)
        dts = rng.uniform(1e-4, 1e-2, n_steps)
        z2 = rng.standard_normal(lead + (n_steps,))
        batch = variance_path_from_normals(p, dts, z2)
        assert batch.shape == lead + (n_steps + 1,) and batch.flags.c_contiguous
        for i in np.ndindex(lead):
            assert same_bits(variance_path_from_normals(p, dts, z2[i]), batch[i])

    def test_non_contiguous_normals(self):
        p = heston()
        rng = np.random.default_rng(3)
        dts = np.full(40, 1e-2)
        z2 = rng.standard_normal((80, 5)).T[:, ::2]  # (5, 40), strided both ways
        batch = variance_path_from_normals(p, dts, z2)
        for row in range(5):
            assert same_bits(variance_path_from_normals(p, dts, np.array(z2[row])), batch[row])

    @pytest.mark.parametrize("path_indices", [[], (), range(0), np.array([], dtype=np.int64)])
    def test_empty_batch(self, path_indices):
        c = PathConfig(horizon=1.0, dt=0.1, seed=1, n_paths=4)
        batch = simulate_variance_batch(heston(), c, path_indices)
        assert batch.shape == (0, c.n_steps + 1)

    def test_duplicate_indices_give_identical_rows(self):
        c = PathConfig(horizon=1.0, dt=1e-2, seed=9, n_paths=8)
        batch = simulate_variance_batch(heston(), c, [5, 2, 5, 5, 2])
        assert same_bits(batch[0], batch[2]) and same_bits(batch[0], batch[3])
        assert same_bits(batch[1], batch[4])
        assert same_bits(batch[0], simulate_variance_path(heston(), c, 5))

    def test_single_step_grid(self):
        c = PathConfig(horizon=1.0, dt=0.9999999999999, seed=4, n_paths=3)
        assert c.n_steps == 1
        batch = simulate_variance_batch(heston(), c)
        assert batch.shape == (3, 2)
        for i in range(3):
            assert same_bits(simulate_variance_path(heston(), c, i), batch[i])

    @pytest.mark.parametrize("path_indices", [[0, 4], [-1], np.array([7], dtype=np.uint64)])
    def test_out_of_range_index_is_named(self, path_indices):
        c = PathConfig(horizon=1.0, dt=0.1, seed=1, n_paths=4)
        bad = [i for i in path_indices if not 0 <= i < 4][0]
        with pytest.raises(ValueError, match=rf"path_index {bad} out of range for n_paths=4"):
            simulate_variance_batch(heston(), c, path_indices)

    @pytest.mark.parametrize("path_indices", [[0.0, 1.0], [True], [[0, 1]]])
    def test_non_integer_indices_rejected(self, path_indices):
        c = PathConfig(horizon=1.0, dt=0.1, seed=1, n_paths=4)
        with pytest.raises(TypeError, match="path_indices"):
            simulate_variance_batch(heston(), c, path_indices)

    def test_indices_past_2_32_match_single_paths(self):
        # Indices below and at or above 2**32 are hashed as one and two
        # uint32 words; both groups in one batch keep their order.
        c = PathConfig(horizon=0.05, dt=1e-3, seed=2**40 + 3, n_paths=2**33)
        indices = [0, 2**32 - 1, 2**32, 2**33 - 1]
        batch = simulate_variance_batch(heston(), c, indices[::-1] + indices)
        for row, i in enumerate(indices[::-1] + indices):
            assert same_bits(simulate_variance_path(heston(), c, i), batch[row])

    @staticmethod
    def normals_and_fresh(lead, n_steps):
        p = heston(alpha=0.01, beta_rev=1.0, gamma=0.9, sigma_bar=0.0)
        rng = np.random.default_rng(n_steps)
        dts = rng.uniform(1e-4, 1e-2, n_steps)
        z2 = rng.standard_normal(lead + (n_steps,))
        return p, dts, z2, variance_path_from_normals(p, dts, z2)

    @pytest.mark.parametrize("n_steps", [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 6])
    @pytest.mark.parametrize(
        "lead, strided",
        [((), False), ((1,), False), ((_TILE_PATHS + 7,), False), ((2, 3), False), ((2, 3), True)],
        ids=["1-D", "one-path", "path-blocks", "2x3", "2x3-strided"],
    )
    def test_normals_stepped_in_place_keep_their_bits(self, n_steps, lead, strided):
        p, dts, z2, fresh = self.normals_and_fresh(lead, n_steps)
        # A strided ``out`` takes three of four rows of a larger buffer, so its
        # leading axes (and those of out[..., 1:]) cannot be reshaped without a copy.
        out = np.empty((2, 4, n_steps + 1))[:, :3] if strided else np.empty(lead + (n_steps + 1,))
        out[..., 1:] = z2
        assert variance_path_from_normals(p, dts, out[..., 1:], out=out) is out
        assert same_bits(fresh, out)

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_separate_out(self, strided):
        p, dts, z2, fresh = self.normals_and_fresh((2, 3), 70)
        out = np.full((2, 4, 71), np.nan)[:, :3] if strided else np.full((2, 3, 71), np.nan)
        normals = z2.copy()
        assert variance_path_from_normals(p, dts, z2, out=out) is out
        assert same_bits(fresh, out) and same_bits(normals, z2)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("shifted-overlap", "overlap"),
            ("reversed-overlap", "overlap"),
            ("wrong-shape", "shape"),
            ("float32", "float64"),
            ("read-only", "writable"),
        ],
    )
    def test_refused_out(self, case, message):
        # A shifted alias would overwrite normals that later steps still read.
        p, dts, z2, _ = self.normals_and_fresh((3,), 70)
        out = np.empty((3, 71), dtype=np.float32 if case == "float32" else float)
        if case == "shifted-overlap":
            z2 = out[..., :-1]
        elif case == "reversed-overlap":
            z2 = out[::-1, 1:]
        elif case == "wrong-shape":
            out = np.empty((3, 72))
        elif case == "read-only":
            out.setflags(write=False)
        with pytest.raises(ValueError, match=message):
            variance_path_from_normals(p, dts, z2, out=out)

    def test_batch_memory_is_one_result_and_one_tile(self):
        # Bound: the result, m*(n+1) floats, plus the kernel's (_TILE, m)
        # tile, 64/501 = 0.13 of the result at n = 500.  1.2 results leaves
        # 0.07 (560 kB) for the tile's finiteness mask (1/8 of the tile),
        # three (m,) step buffers and Python objects; the stream keys (0.04)
        # are freed before the kernel runs.  Normals held apart from the
        # result would add a whole result more: about 2.15.
        m, n = 2000, 500
        c = PathConfig(horizon=n * 1e-3, dt=1e-3, seed=1901, n_paths=m)
        simulate_variance_batch(heston(), PathConfig(horizon=0.1, dt=1e-3, seed=1, n_paths=2))  # first-call set-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            batch = simulate_variance_batch(heston(), c)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert batch.nbytes == m * (n + 1) * 8
        assert peak <= 1.2 * batch.nbytes


def force_threads(monkeypatch, cpus, block_paths=1):
    """Make the batch see ``cpus`` CPUs, and split blocks down to ``block_paths`` rows."""
    monkeypatch.setattr(portvol.simulate, "_cpus", lambda: cpus)
    monkeypatch.setattr(portvol.simulate, "_BLOCK_PATHS", block_paths)


def spy_on_blocks(monkeypatch) -> list:
    """Record ``(kind, a, b, thread ident)`` for every block the batch draws or steps."""
    calls = []
    for kind in ("_draw_rows", "_euler_rows"):
        fn = getattr(portvol.simulate, kind)

        def recorded(*args, fn=fn, kind=kind):
            calls.append((kind, args[-2], args[-1], threading.get_ident()))
            return fn(*args)

        monkeypatch.setattr(portvol.simulate, kind, recorded)
    return calls


class TestThreadedBatch:
    """A batch split into row blocks, one thread each, gives the bits of one thread."""

    FELLER_VIOLATING = dict(alpha=0.01, beta_rev=1.0, gamma=0.9, sigma_bar=0.0)  # truncation active

    @pytest.mark.parametrize("m", [1, 2, 7, 4 * _BLOCK_PATHS + 5])
    def test_rows_equal_single_paths_for_any_worker_count(self, monkeypatch, m):
        # The large batch splits at the real block size; the small ones only
        # once blocks may be a single row.
        p = heston(**self.FELLER_VIOLATING)
        c = PathConfig(horizon=0.07, dt=1e-3, seed=2**33 + 1, n_paths=m)
        block_paths = _BLOCK_PATHS if m > _BLOCK_PATHS else 1
        before = set(threading.enumerate())
        batches = []
        for cpus in (1, 2, 3, 4):
            force_threads(monkeypatch, cpus, block_paths)
            calls = spy_on_blocks(monkeypatch)
            batches.append(simulate_variance_batch(p, c))
            monkeypatch.undo()
            workers = min(cpus, m // block_paths)
            bounds = [m * i // workers for i in range(workers + 1)]
            for kind in ("_draw_rows", "_euler_rows"):
                blocks = [(a, b) for name, a, b, _ in calls if name == kind]
                assert sorted(blocks) == list(zip(bounds[:-1], bounds[1:])), (kind, cpus)
            # Block 0 runs on the caller's thread, the others in the pool.
            assert all((ident == threading.get_ident()) == (a == 0) for _, a, _, ident in calls)
            assert set(threading.enumerate()) == before
        for batch in batches[1:]:
            assert batch.tobytes() == batches[0].tobytes()
        # Every block's first and last row, for 1 to 4 workers.
        edges = {m * a // k + d for k in range(1, 5) for a in range(k + 1) for d in (-1, 0)}
        for i in sorted(edges & set(range(m))):
            assert same_bits(simulate_variance_path(p, c, i), batches[0][i])

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize(
        "path_indices",
        [[5, 2, 5, 5, 2, 0, 6], [6, 5, 4, 3, 2, 1, 0], [3] * 9],
        ids=["repeated", "reversed", "one-index"],
    )
    def test_uneven_splits_and_repeated_indices(self, monkeypatch, cpus, path_indices):
        # Seven or nine rows never split evenly across 2, 3 or 4 blocks.
        p = heston(**self.FELLER_VIOLATING)
        c = PathConfig(horizon=0.15, dt=1e-3, seed=11, n_paths=7)
        single = simulate_variance_batch(p, c, path_indices)
        force_threads(monkeypatch, cpus)
        batch = simulate_variance_batch(p, c, path_indices)
        assert batch.tobytes() == single.tobytes()
        for row, i in enumerate(path_indices):
            assert same_bits(simulate_variance_path(p, c, i), batch[row])

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_non_finite_path_in_the_last_block_raises(self, monkeypatch, cpus):
        # Only the last row overflows: 1e300 normals blow it up within a few steps.
        p = heston()
        dts = np.full(20, 1e-2)
        z2 = np.random.default_rng(4).standard_normal((9, 20))
        z2[-1] = 1e300
        force_threads(monkeypatch, cpus)
        calls = spy_on_blocks(monkeypatch)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="variance path became non-finite; dt is too large"):
            variance_path_from_normals(p, dts, z2)
        last = [ident for _, a, b, ident in calls if b == 9]
        assert len(last) == 1 and (last[0] == threading.get_ident()) == (cpus == 1)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("in_place", [False, True], ids=["separate-normals", "normals-in-out"])
    def test_out_whose_reshape_copies_is_filled(self, monkeypatch, in_place):
        # out takes three of four rows of a larger buffer, so its leading axes
        # reshape only by a copy, which the blocks fill and the kernel copies back.
        p = heston(**self.FELLER_VIOLATING)
        rng = np.random.default_rng(8)
        dts = rng.uniform(1e-4, 1e-2, _TILE + 3)
        z2 = rng.standard_normal((2, 3, _TILE + 3))
        fresh = variance_path_from_normals(p, dts, z2)
        force_threads(monkeypatch, 4)
        out = np.full((2, 4, _TILE + 4), np.nan)[:, :3]
        if in_place:
            out[..., 1:] = z2
            z2 = out[..., 1:]
        assert variance_path_from_normals(p, dts, z2, out=out) is out
        assert same_bits(fresh, out)

    def test_first_error_in_block_order_is_raised(self, monkeypatch):
        monkeypatch.setattr(portvol.simulate, "_cpus", lambda: 4)
        m = 4 * _BLOCK_PATHS
        ran = []

        def fn(a, b):
            ran.append(a)
            if a > 0:
                raise RuntimeError(f"block at {a}")
            return a

        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"block at {_BLOCK_PATHS}$"):
            _in_threads(fn, m)
        assert sorted(ran) == [0, _BLOCK_PATHS, 2 * _BLOCK_PATHS, 3 * _BLOCK_PATHS]
        assert set(threading.enumerate()) == before

        def fails_first(a, b):
            if a in (0, 2 * _BLOCK_PATHS):
                raise RuntimeError(f"block at {a}")
            return b - a

        with pytest.raises(RuntimeError, match="block at 0$"):
            _in_threads(fails_first, m)
        assert set(threading.enumerate()) == before
        assert _in_threads(lambda a, b: (a, b), m) == [(i * _BLOCK_PATHS, (i + 1) * _BLOCK_PATHS) for i in range(4)]

    @pytest.mark.parametrize(
        "cpus, m, workers",
        [(1, 10**6, 1), (2, _BLOCK_PATHS - 1, 1), (2, 2 * _BLOCK_PATHS, 2), (8, 3 * _BLOCK_PATHS + 1, 3), (4, 0, 1)],
    )
    def test_one_worker_per_cpu_and_block(self, monkeypatch, cpus, m, workers):
        monkeypatch.setattr(portvol.simulate, "_cpus", lambda: cpus)
        blocks = _in_threads(lambda a, b: (a, b), m)
        assert len(blocks) == workers
        assert blocks[0][0] == 0 and blocks[-1][1] == m
        assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))

    def test_memory_with_two_workers_is_one_result_and_one_tile(self, monkeypatch):
        # The bound of test_batch_memory_is_one_result_and_one_tile: the two
        # blocks' tiles and step buffers add up to the one-thread kernel's.
        m, n = 2000, 500
        c = PathConfig(horizon=n * 1e-3, dt=1e-3, seed=1901, n_paths=m)
        force_threads(monkeypatch, 2)
        calls = spy_on_blocks(monkeypatch)
        simulate_variance_batch(heston(), PathConfig(horizon=0.1, dt=1e-3, seed=1, n_paths=2))  # first-call set-up
        calls.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            batch = simulate_variance_batch(heston(), c)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert {(a, b) for _, a, b, _ in calls} == {(0, m // 2), (m // 2, m)}
        assert peak <= 1.2 * batch.nbytes


class TestStreamKeys:
    """``_stream_keys`` is numpy's SeedSequence hash, vectorised over path indices."""

    @staticmethod
    def reference(seed, i, role):
        return np.random.SeedSequence(entropy=seed, spawn_key=(i, role)).generate_state(2, np.uint64)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        indices=st.lists(
            st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40, 2**64 - 1]), st.integers(0, 2**64 - 1)),
            max_size=8,
        ),
        role=st.sampled_from([0, 1]),
    )
    def test_equals_seed_sequence(self, seed, indices, role):
        keys = _stream_keys(seed, np.array(indices, dtype=np.uint64), role)
        assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
        for row, i in enumerate(indices):
            assert np.array_equal(keys[row], self.reference(seed, i, role)), (seed, i, role)

    def test_philox_runs_from_the_seed_sequence_key(self):
        # Philox(SeedSequence) starts at counter 0 with an empty buffer, so
        # its state is fixed by the key alone.
        ss = np.random.SeedSequence(entropy=2**33 + 1, spawn_key=(2**32, 1))
        key = _stream_keys(2**33 + 1, np.array([2**32], dtype=np.uint64), 1)[0]
        fresh = np.random.Philox(ss).state
        assert np.array_equal(fresh["state"]["key"], key)
        assert not fresh["state"]["counter"].any() and fresh["buffer_pos"] == 4
        assert same_bits(
            np.random.Generator(np.random.Philox(ss)).standard_normal(9),
            np.random.Generator(np.random.Philox(key=key)).standard_normal(9),
        )

    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_replication_seeds_and_keys_equal_seed_sequence(self, master_seed):
        # A replication's seed is the first word of its spawned state, and
        # its stream is Philox(SeedSequence(seed)).
        reps = [0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**63, 2**64 - 1]
        seeds = _stream_keys(master_seed, np.array(reps, dtype=np.uint64))[:, 0]
        keys = _seed_keys(seeds)
        assert keys.shape == (len(reps), 2) and keys.dtype == np.uint64
        for row, rep in enumerate(reps):
            seed = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,)).generate_state(1, np.uint64)[0]
            assert seeds[row] == seed, (master_seed, rep)
            key = np.random.Philox(np.random.SeedSequence(entropy=int(seed))).state["state"]["key"]
            assert np.array_equal(keys[row], key), (master_seed, rep)

    def test_seed_keys_of_one_and_two_word_seeds(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        keys = _seed_keys(np.array(seeds, dtype=np.uint64))
        for row, seed in enumerate(seeds):
            assert np.array_equal(keys[row], np.random.Philox(np.random.SeedSequence(seed)).state["state"]["key"])


class TestMarketPath:
    def test_zero_volatility_price_is_deterministic(self):
        p = heston(mu=0.05, alpha=0.0, gamma=0.0, sigma_bar=0.0)
        c = PathConfig(horizon=2.0, dt=1e-3, seed=1)
        path = simulate_market_path(p, c, 0)
        assert path.price[0] == 1.0
        assert path.price[-1] == pytest.approx(math.exp(0.1), rel=1e-12)

    def test_variance_equals_variance_path(self):
        # Separate draw streams per role keep the variance path identical
        # whether or not the price is simulated alongside it.
        p = heston()
        c = PathConfig(horizon=1.0, dt=1e-2, seed=9, n_paths=3)
        assert np.array_equal(simulate_market_path(p, c, 2).variance,
                              simulate_variance_path(p, c, 2))

    @pytest.mark.parametrize("rho", [0.0, -0.9])
    def test_correlation_convention(self, rho):
        # Recover both Brownian increments from the stored path and check
        # their sample correlation; steps where truncation was active are
        # excluded (the inversion needs v > 0 on both ends).
        p = heston(mu=0.05, r=0.02, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=rho, sigma_bar=0.04)
        c = PathConfig(horizon=100.0, dt=1e-3, seed=5)
        m = simulate_market_path(p, c, 0)
        v, dts = m.variance, np.diff(m.times)
        vl, vr = v[:-1], v[1:]
        ok = (vl > 1e-10) & (vr > 0.0)
        assert ok.mean() > 0.99
        dw2 = (vr[ok] - vl[ok] - (p.alpha - p.beta_rev * vl[ok]) * dts[ok]) / (p.gamma * np.sqrt(vl[ok]))
        dlog = np.diff(np.log(m.price))[ok]
        dw1 = (dlog - (p.mu - 0.5 * vl[ok]) * dts[ok]) / np.sqrt(vl[ok])
        n = ok.sum()
        sample = np.corrcoef(dw1, dw2)[0, 1]
        tol = 3.0 * max((1.0 - rho**2), 1.0 / math.sqrt(n)) / math.sqrt(n)
        assert abs(sample - rho) < tol

    def test_non_finite_price_rejected(self):
        p = heston(mu=1e6, alpha=0.0, gamma=0.0, sigma_bar=0.0)
        c = PathConfig(horizon=2.0, dt=0.5, seed=1)
        with pytest.raises(ValueError):
            simulate_market_path(p, c, 0)


class TestOptimalPolicy:
    def test_vanishes_when_no_excess_return_and_no_hedge(self):
        p = heston(mu=0.05, r=0.05, rho=0.0)
        c = PolicyCoefficients(1.0, -2.0, 0.0)
        assert optimal_policy(3.0, 0.04, c, p) == 0.0

    def test_pure_hedging_term(self):
        p = heston(mu=0.05, r=0.05, rho=-0.5, gamma=0.3)
        c = PolicyCoefficients(0.3, -2.0, 0.1)
        assert optimal_policy(1.0, 0.04, c, p) == pytest.approx(-0.0075, rel=1e-14)

    def test_worked_value(self):
        p = heston(mu=0.08, r=0.02, rho=0.0, gamma=0.3)
        c = PolicyCoefficients(1.0, -2.0, 0.5)
        assert optimal_policy(1.0, 0.04, c, p) == pytest.approx(-0.735, rel=1e-14)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            optimal_policy(1.0, 0.0, PolicyCoefficients(1.0, -2.0, 0.5), heston())


def reference_wealth_path(market, coeffs, p, x0):
    """The wealth recursion with optimal_policy called at every grid point."""
    v = market.variance
    dts = np.diff(market.times)
    dlog = np.diff(np.log(market.price))
    n = len(dts)
    wealth = np.empty(n + 1)
    policy = np.empty(n + 1)
    x = float(x0)
    wealth[0] = x
    for k in range(n):
        pi_k = optimal_policy(x, max(v[k], POLICY_VARIANCE_FLOOR), coeffs, p)
        policy[k] = pi_k
        diffusion = dlog[k] - (p.mu - 0.5 * v[k]) * dts[k]
        x = x + (p.r * x + (p.mu - p.r) * pi_k) * dts[k] + pi_k * diffusion
        wealth[k + 1] = x
    policy[n] = optimal_policy(x, max(v[n], POLICY_VARIANCE_FLOOR), coeffs, p)
    return wealth, policy


class TestWealthPath:
    @pytest.mark.parametrize(
        "overrides, coeffs, x0, seed",
        [
            ({}, (1.0, -2.0, 0.5), 1.0, 3),
            ({"gamma": 0.1, "rho": 0.7}, (-3.0, -0.7, 4.0), 2.5, 4),
            # mu = r and rho = 0: every term of the rule is a signed zero.
            ({"mu": 0.03, "r": 0.03, "rho": 0.0}, (1.0, -2.0, 0.5), 1.0, 5),
            ({"alpha": 0.0, "gamma": 0.0, "sigma_bar": 0.0, "mu": 0.05, "r": 0.05, "rho": 0.0}, (0.0, -2.0, 0.0), 100.0, 6),
        ],
    )
    def test_matches_reference_loop(self, overrides, coeffs, x0, seed):
        p = heston(**overrides)
        policy = PolicyCoefficients(*coeffs)
        market = simulate_market_path(p, PathConfig(horizon=1.0, dt=1e-3, seed=seed), 0)
        w = simulate_wealth_path(market, policy, p, x0)
        wealth, pi = reference_wealth_path(market, policy, p, x0)
        assert same_bits(w.wealth, wealth)
        assert same_bits(w.policy, pi)

    def test_matches_reference_loop_at_zero_variance(self):
        # Feller violated: the variance path is truncated to exactly 0 at some
        # grid points, where the rule is evaluated at POLICY_VARIANCE_FLOOR.
        p = heston(mu=0.0200001, r=0.02, alpha=0.01, beta_rev=1.0, gamma=0.9, sigma_bar=0.04)
        policy = PolicyCoefficients(1.0, -2.0, 0.5)
        market = simulate_market_path(p, PathConfig(horizon=1.0, dt=1e-2, seed=8), 0)
        assert (market.variance == 0.0).sum() >= 3
        w = simulate_wealth_path(market, policy, p, 1.0)
        wealth, pi = reference_wealth_path(market, policy, p, 1.0)
        assert same_bits(w.wealth, wealth)
        assert same_bits(w.policy, pi)

    def test_overflow_after_truncation_names_the_feller_condition(self):
        # Feller violated: where the variance is truncated to 0 the rule
        # divides by POLICY_VARIANCE_FLOOR, and the path overflows at both dt.
        p = heston(alpha=0.01, beta_rev=1.0, gamma=0.9, rho=0.3)
        for dt in (1e-2, 1e-3):
            market = simulate_market_path(p, PathConfig(horizon=2.0, dt=dt, seed=0), 0)
            with pytest.raises(
                ValueError,
                match=r"^wealth path became non-finite at grid point \d+: the variance was truncated to 0 at \d+ "
                r"grid points up to it, where the rule divides by POLICY_VARIANCE_FLOOR; "
                r"the Feller condition 2\*alpha >= gamma\*\*2 fails$",
            ):
                simulate_wealth_path(market, PolicyCoefficients(1.0, -2.0, 0.5), p, 1.0)

    def test_overflow_without_truncation_blames_dt(self):
        p = heston()
        market = simulate_market_path(p, PathConfig(horizon=1.0, dt=1e-2, seed=0), 0)
        assert np.all(market.variance > POLICY_VARIANCE_FLOOR)
        with pytest.raises(ValueError, match="^wealth path became non-finite at grid point 0: dt is too large"):
            simulate_wealth_path(market, PolicyCoefficients(1e300, -1e-300, 0.0), p, 1.0)

    def test_zero_position_grows_risk_free(self):
        p = heston(mu=0.03, r=0.03, alpha=0.0, gamma=0.0, rho=0.0, sigma_bar=0.0)
        coeffs = PolicyCoefficients(0.0, -2.0, 0.0)
        c = PathConfig(horizon=1.0, dt=1e-3, seed=1)
        w = simulate_wealth_path(simulate_market_path(p, c, 0), coeffs, p, 100.0)
        assert np.all(w.policy == 0.0)
        assert w.wealth[-1] == pytest.approx(100.0 * math.exp(0.03), abs=1e-2)

    def test_zero_wealth_is_a_fixed_point(self):
        # alpha0 = alpha2 = 0 makes the position proportional to wealth.
        p = heston()
        coeffs = PolicyCoefficients(0.0, -2.0, 0.0)
        c = PathConfig(horizon=1.0, dt=1e-3, seed=2)
        w = simulate_wealth_path(simulate_market_path(p, c, 0), coeffs, p, 0.0)
        assert np.all(w.wealth == 0.0)
        assert np.all(w.policy == 0.0)

    def test_refinement_shrinks_coupling_error(self):
        # Shared Brownian increments across grid resolutions: the ensemble
        # mean |X_T(dt) - X_T(dt/16)| must drop under refinement, at a rate
        # consistent with strong convergence (measured ratio ~2 per 4x).
        p = heston(gamma=0.1)
        coeffs = PolicyCoefficients(1.0, -2.0, 0.5)

        def coarsen(z, k):
            return z.reshape(-1, k).sum(axis=1) / math.sqrt(k)

        n_fine = 2048
        d_coarse, d_mid = [], []
        for i in range(48):
            rng = np.random.default_rng(900 + i)
            z1f = rng.standard_normal(n_fine)
            z2f = rng.standard_normal(n_fine)
            terminal = {}
            for k in (16, 4, 1):
                n = n_fine // k
                times = np.linspace(0.0, 1.0, n + 1)
                m = market_path_from_normals(p, times, coarsen(z1f, k), coarsen(z2f, k))
                terminal[k] = simulate_wealth_path(m, coeffs, p, 1.0).wealth[-1]
            d_coarse.append(abs(terminal[16] - terminal[1]))
            d_mid.append(abs(terminal[4] - terminal[1]))
        dc, dm = np.mean(d_coarse), np.mean(d_mid)
        assert dc < 5e-3  # frozen: measured 1.63e-3 at dt = 1/128
        assert dm < dc
        assert dc / dm > 1.4  # frozen: measured ratio 2.05

    def test_rejects_non_finite_x0(self):
        p = heston()
        c = PathConfig(horizon=1.0, dt=1e-2, seed=1)
        m = simulate_market_path(p, c, 0)
        with pytest.raises(ValueError):
            simulate_wealth_path(m, PolicyCoefficients(1.0, -2.0, 0.5), p, math.inf)

    def test_risk_free_holding(self):
        p = heston()
        coeffs = PolicyCoefficients(1.0, -2.0, 0.5)
        c = PathConfig(horizon=0.5, dt=1e-2, seed=3)
        w = simulate_wealth_path(simulate_market_path(p, c, 0), coeffs, p, 1.0)
        assert w.risk_free_holding == pytest.approx(w.wealth - w.policy)


class TestGenerateSyntheticDataset:
    def test_noiseless_rows_lie_on_the_curve(self):
        truth = Stage1Params(2.0, 0.5, 0.04)
        spec = GenerationSpec(stage1=truth, n=50, noise=0.0)
        data = generate_synthetic_dataset("model-implied", spec, seed=3)
        assert data.n_rows == 50
        assert data.labels is None
        assert np.all(data.r == BASE_RATE)
        assert data.pi_star == pytest.approx(stage1_model(data.e, truth), rel=1e-15)
        assert np.all((spec.e_interval[0] <= data.e) & (data.e <= spec.e_interval[1]))

    def test_fixed_seed_is_reproducible(self):
        spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=20, noise=0.05)
        a = generate_synthetic_dataset("model-implied", spec, seed=11)
        b = generate_synthetic_dataset("model-implied", spec, seed=11)
        assert a == b
        c = generate_synthetic_dataset("model-implied", spec, seed=12)
        assert a != c

    def test_noise_scale_recovered(self):
        truth = Stage1Params(2.0, 0.5, 0.04)
        spec = GenerationSpec(stage1=truth, n=10_000, noise=0.01)
        data = generate_synthetic_dataset("model-implied", spec, seed=8)
        resid = data.pi_star - stage1_model(data.e, truth)
        assert np.std(resid) == pytest.approx(0.01, rel=0.05)

    def test_interval_containing_pole_rejected(self):
        with pytest.raises(ValueError):
            GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=10, e_interval=(-0.1, 0.1))

    def test_structural_rows_follow_the_policy_path(self):
        p = heston()
        coeffs = PolicyCoefficients(1.0, -2.0, 0.5)
        cfg = PathConfig(horizon=1.0, dt=0.01, seed=0)
        spec = StructuralSpec(heston=p, policy=coeffs, path=cfg, x0=1.0)
        data = generate_synthetic_dataset("structural", spec, seed=21)
        assert data.labels == tuple(map(str, range(data.n_rows)))
        assert data.n_rows == cfg.n_steps + 1
        market = simulate_market_path(p, PathConfig(horizon=1.0, dt=0.01, seed=21), 0)
        path = simulate_wealth_path(market, coeffs, p, 1.0)
        assert data.pi_star == pytest.approx(path.policy)
        assert np.all(data.mu == p.mu) and np.all(data.r == p.r)
        assert data.labels[0] == "0"

    def test_unknown_mode(self):
        spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=10)
        with pytest.raises(ValueError):
            generate_synthetic_dataset("bootstrap", spec, seed=0)

    def test_spec_mode_mismatch(self):
        spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=10)
        with pytest.raises(TypeError):
            generate_synthetic_dataset("structural", spec, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0])
    def test_seed_outside_64_bits_rejected(self, seed):
        spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=10)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            generate_synthetic_dataset("model-implied", spec, seed=seed)

    def test_memory_is_the_dataset_and_its_draws(self):
        # The drawn mu and pi_star, r, the Dataset's four columns and its
        # temporary mu - r are 8 columns of n doubles (measured: 8.25).
        n = 200_000
        spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=n, noise=0.01)
        generate_synthetic_dataset("model-implied", spec, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            data = generate_synthetic_dataset("model-implied", spec, seed=2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert data.n_rows == n
        assert peak <= 8.5 * n * 8


def reference_model_implied(spec: GenerationSpec, seed: int) -> Dataset:
    """The model-implied generator one stream per dataset: Generator.uniform, the curve, then normals."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    lo, hi = spec.e_interval
    e = rng.uniform(lo, hi, spec.n)
    b = spec.stage1
    with np.errstate(over="ignore", invalid="ignore"):
        pi = (b.beta2 * b.beta3 + b.beta1 * e) / _guarded_denominator(b.beta3 + e, b.beta3, e)
        if spec.noise > 0.0:
            pi = pi + spec.noise * rng.standard_normal(spec.n)
        mu = BASE_RATE + e
    return Dataset(pi_star=pi, mu=mu, r=np.full(spec.n, BASE_RATE), source="synthetic:model-implied")


def _outcome(generate, *args):
    try:
        data = generate(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return tuple(column.tobytes() for column in (data.pi_star, data.mu, data.r, data.e)), data.source


class TestStackedGeneration:
    """Model-implied replications are drawn as stacked rows, each the dataset of its own seed."""

    @settings(max_examples=150, deadline=None)
    @given(
        b1=st.one_of(st.floats(-5.0, 5.0), st.sampled_from([1e308, -1e308])),
        b2=st.floats(-5.0, 5.0),
        b3=st.floats(1e-3, 2.0),
        e_interval=st.one_of(
            st.tuples(st.floats(-0.5, 0.5), st.floats(1e-3, 2.0)).map(lambda t: (t[0], t[0] + t[1])),
            st.just((0.0, 1.2e307)),  # e near the float limit: b1*e overflows at b1 = 1e308
        ),
        noise=st.sampled_from([0.0, 0.01, 1.0, 1e308]),
        n=st.integers(1, 30),
        seeds=st.lists(
            st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)),
            min_size=1, max_size=5,
        ),
    )
    def test_rows_equal_one_dataset_each(self, b1, b2, b3, e_interval, noise, n, seeds):
        lo, hi = e_interval
        assume(not lo <= -b3 <= hi)
        spec = GenerationSpec(Stage1Params(b1, b2, b3), n, noise, e_interval)
        mu, pi, pole = _model_implied_rows(spec, np.array(seeds, dtype=np.uint64))
        # The Monte Carlo harness keeps the rows off the pole guard with finite positions: exactly
        # the replications whose dataset generates.
        kept = ~pole & np.isfinite(pi).all(axis=-1)
        for row, seed in enumerate(seeds):
            want = _outcome(reference_model_implied, spec, seed)
            assert _outcome(generate_synthetic_dataset, "model-implied", spec, seed) == want
            assert kept[row] == (not isinstance(want, str))
            if kept[row]:
                ref = reference_model_implied(spec, seed)
                assert same_bits(mu[row], ref.mu) and same_bits(pi[row], ref.pi_star)

    def test_draws_on_the_pole_guard_are_refused(self):
        # Every e lies within 2e-13 of the pole at -1, outside the interval.
        spec = GenerationSpec(Stage1Params(2.0, 0.5, 1.0), n=5, e_interval=(-1.0 - 2e-13, -1.0 - 1e-13))
        pole = _model_implied_rows(spec, np.arange(3, dtype=np.uint64))[2]
        assert pole.tolist() == [True, True, True]
        for seed in range(3):
            message = "PoleError: model evaluated within the pole guard of a vanishing denominator"
            assert _outcome(reference_model_implied, spec, seed) == message
            assert _outcome(generate_synthetic_dataset, "model-implied", spec, seed) == message
        report = portvol.estimate.monte_carlo_validation(spec, 3)
        assert report.failures == (("generation error", 3),)


_PATH = PathConfig(horizon=1.0, dt=0.5, seed=0)
_CURVE = Stage1Params(2.0, 0.5, 0.04)
_INF = math.inf


class TestValidators:
    """Every refusal of the spec and path types, with its exact message."""

    CASES = {
        "horizon-nan": (lambda: PathConfig(horizon=math.nan, dt=0.1, seed=0), "horizon must be finite and > 0"),
        "horizon-zero": (lambda: PathConfig(horizon=0.0, dt=0.1, seed=0), "horizon must be finite and > 0"),
        "dt-infinite": (lambda: PathConfig(horizon=1.0, dt=_INF, seed=0), "dt must be finite and > 0"),
        "dt-zero": (lambda: PathConfig(horizon=1.0, dt=0.0, seed=0), "dt must be finite and > 0"),
        "dt-not-below-horizon": (lambda: PathConfig(horizon=1.0, dt=1.0, seed=0), "dt must be < horizon"),
        "n-paths-zero": (
            lambda: PathConfig(horizon=1.0, dt=0.1, seed=0, n_paths=0),
            "n_paths must be an integer in [1, 2**64]: path indices are unsigned 64-bit",
        ),
        "n-paths-float": (
            lambda: PathConfig(horizon=1.0, dt=0.1, seed=0, n_paths=2.0),
            "n_paths must be an integer in [1, 2**64]: path indices are unsigned 64-bit",
        ),
        "seed-negative": (lambda: PathConfig(horizon=1.0, dt=0.1, seed=-1), "seed must be an unsigned 64-bit integer"),
        "n-zero": (lambda: GenerationSpec(stage1=_CURVE, n=0), "n must be an integer >= 1"),
        "n-float": (lambda: GenerationSpec(stage1=_CURVE, n=10.0), "n must be an integer >= 1"),
        "noise-negative": (lambda: GenerationSpec(stage1=_CURVE, n=10, noise=-0.1), "noise must be finite and >= 0"),
        "noise-infinite": (lambda: GenerationSpec(stage1=_CURVE, n=10, noise=_INF), "noise must be finite and >= 0"),
        "interval-reversed": (
            lambda: GenerationSpec(stage1=_CURVE, n=10, e_interval=(0.1, 0.01)),
            "e_interval must be a finite (low, high) pair with low < high",
        ),
        "interval-infinite": (
            lambda: GenerationSpec(stage1=_CURVE, n=10, e_interval=(-_INF, 0.1)),
            "e_interval must be a finite (low, high) pair with low < high",
        ),
        "interval-holds-pole": (
            lambda: GenerationSpec(stage1=_CURVE, n=10, e_interval=(-0.04, 0.1)),
            "e_interval contains the model pole at -beta3",
        ),
        "interval-width-overflows": (
            lambda: GenerationSpec(stage1=Stage1Params(2.0, 0.5, 1.7e308), n=10, e_interval=(-1.6e308, 1.7e308)),
            "e_interval is too wide: its width high - low overflows",
        ),
        "x0-infinite": (
            lambda: StructuralSpec(heston=heston(), policy=PolicyCoefficients(1.0, -2.0, 0.5), path=_PATH, x0=_INF),
            "x0 must be finite",
        ),
        "path-length": (
            lambda: SimPath(times=np.array([0.0, 1.0]), variance=np.array([0.1]), price=np.ones(2)),
            "SimPath field variance has length 1, expected 2",
        ),
        "path-times": (
            lambda: SimPath(times=np.array([0.0, 0.0]), variance=np.zeros(2), price=np.ones(2)),
            "SimPath times must be strictly increasing",
        ),
        "path-variance": (
            lambda: SimPath(times=np.array([0.0, 1.0]), variance=np.array([0.1, -0.1]), price=np.ones(2)),
            "SimPath variance must be nonnegative",
        ),
        "path-price": (
            lambda: SimPath(times=np.array([0.0, 1.0]), variance=np.zeros(2), price=np.array([1.0, 0.0])),
            "SimPath price must be positive",
        ),
        "path-non-finite": (
            lambda: SimPath(times=np.array([0.0, 1.0]), variance=np.array([0.0, _INF]), price=np.ones(2)),
            "SimPath field variance contains non-finite values",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exact_message(self, case):
        build, message = self.CASES[case]
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message
