"""Path simulation for the wealth model and synthetic data generation.

Dynamics simulated here:

* variance: ``dv = (alpha - beta_rev*v) ds + gamma*sqrt(v) dW2``,
  discretized by full-truncation Euler (drift and diffusion evaluate at
  ``max(v, 0)`` and the stored value is floored at 0, so every grid
  value is nonnegative regardless of the Feller condition);
* price: ``dS = S (mu ds + sqrt(v) dW1)``, discretized in log space so
  prices stay positive;
* wealth: ``dX = (r X + (mu - r) pi) ds + pi sqrt(v) dW1`` under the
  linearized optimal-position rule.

Correlation convention: the variance path is driven by ``Z2`` directly
and the price path by ``rho*Z2 + sqrt(1 - rho**2)*Z1``, so ``rho``
correlates price and variance shocks.

Randomness is counter-based and splittable: each draw stream is a Philox
stream (counter 0) whose 128-bit key is
``SeedSequence(entropy=seed, spawn_key=(path_index, role)).generate_state(2, uint64)``
(role 0 = variance, role 1 = price).  A path therefore never depends on
how many other paths are simulated, or in what order.  ``_stream_keys``
computes the keys of many paths at once with numpy's ``SeedSequence``
hash on uint32 arrays, and ``_streams`` re-keys one generator per path
instead of building a ``SeedSequence`` and a ``Philox`` for each; a
single path is the case of one key.

A model-implied dataset draws from ``Philox(SeedSequence(entropy=seed))``.
The Monte Carlo harness gives replication ``i`` the seed
``SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(1, uint64)``.
Both are hashed for a chunk of replications at once (``_stream_keys``
with no role, then ``_seed_keys``), and the chunk's datasets are drawn
into the rows of stacked arrays by one re-keyed generator, each row with
the bits of its own dataset.

Stepping: the recursions are sequential in time.  A batch of variance
paths is stepped on arrays, a few ufunc calls per step across all paths,
writing into preallocated buffers.  It walks the grid in tiles of
``_TILE`` steps: a tile's normals are copied into a time-major buffer, so
each step reads one contiguous row, and the tile's values go back to the
path-major result in one transposed copy.  A tile's values land where
its normals were, so ``simulate_variance_batch`` draws each path's
normals into its own result row and the batch is stepped in place.  A
single path (1-D normals, and every wealth path) is stepped on Python
floats, since numpy calls on single values cost more than the arithmetic
they do.  Both apply the same IEEE double operations in the same order,
so a path is bit-identical whether stepped alone or as a row of a batch.

Threads: a batch is drawn and stepped in contiguous blocks of rows, one
thread per CPU the process may run on, but never a block of fewer than
``_BLOCK_PATHS`` paths (below that, waiting for the GIL costs more than
the second CPU gives).  numpy releases the GIL inside a
``standard_normal`` call and inside a ufunc call on a long array.  A
row's draws and steps do not depend on the other rows, so the bits do
not depend on the number of threads.  Each block has its own tile and
step buffers, so the tiles of all blocks add up to the one tile of a
single thread.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .model import Dataset, HestonParams, PolicyCoefficients, Stage1Params
from .nls import PoleError, _pole_rows

__all__ = [
    "PathConfig",
    "SimPath",
    "GenerationSpec",
    "StructuralSpec",
    "cir_mean",
    "optimal_policy",
    "simulate_variance_path",
    "simulate_variance_batch",
    "simulate_market_path",
    "simulate_wealth_path",
    "variance_path_from_normals",
    "market_path_from_normals",
    "generate_synthetic_dataset",
]

# Variance floor used only when the policy is evaluated at a truncated
# (exactly zero) grid value; keeps the division by sigma_bar total.
POLICY_VARIANCE_FLOOR = 1e-12

# Seeds are unsigned 64-bit integers: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**64

# The risk-free rate of every model-implied row; the fits read only e = mu - r.
BASE_RATE = 0.02

# The batch Euler kernel walks the grid in tiles of _TILE steps (5 MB of
# normals for 10k paths) and transposes a tile's normals in blocks of
# _TILE_PATHS paths, whose 256 kB of source rows stay in cache.
_TILE = 64
_TILE_PATHS = 512

# A batch runs in blocks of paths, one thread per CPU, and threads pay only
# while the GIL is free most of the time.  Each Euler step makes ten ufunc
# calls across a block, holding the GIL for about a microsecond each, and
# each path's draw re-keys its generator under the GIL before one long
# standard_normal call.  Measured on a 2-vCPU Xeon, two threads against one
# (medians of 11-15 alternated runs): the Euler kernel was 0.74x as fast on
# blocks of 2000 paths, 0.88x on 3000, 0.96x on 4000, 1.08x on 5000 and
# 1.33x on 8000; the draws of 10k paths were 0.60x as fast at 100 steps,
# 0.89x at 500, 1.23x at 700 and 1.49x at 1000.  So a block keeps at least
# _BLOCK_PATHS paths.  The draws of paths shorter than about 700 steps split
# too, at a loss; no batch in the package or its benchmark has that shape.
_BLOCK_PATHS = 4096

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# uint32 words, hashmix multipliers for mixing in (A) and drawing out (B).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class PathConfig:
    """Time grid and stream addressing for one simulation run.

    The grid has ``ceil(horizon / dt)`` steps of size ``dt``; when
    ``horizon`` is not an exact multiple the final step is shortened so
    the grid ends exactly at ``horizon``.
    """

    horizon: float
    dt: float
    seed: int
    n_paths: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be finite and > 0")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and > 0")
        if not self.dt < self.horizon:
            raise ValueError("dt must be < horizon")
        if not (isinstance(self.n_paths, int) and 1 <= self.n_paths <= SEED_LIMIT):
            raise ValueError("n_paths must be an integer in [1, 2**64]: path indices are unsigned 64-bit")
        if not (isinstance(self.seed, int) and 0 <= self.seed < SEED_LIMIT):
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def n_steps(self) -> int:
        # The 1e-12 fuzz keeps float noise in horizon/dt from adding a
        # spurious final step when the ratio is an exact integer.
        return max(1, math.ceil(self.horizon / self.dt - 1e-12))

    def times(self) -> np.ndarray:
        n = self.n_steps
        t = np.empty(n + 1)
        t[:n] = self.dt * np.arange(n)
        t[n] = self.horizon
        return t


@dataclass(frozen=True)
class SimPath:
    """One simulated path on a common time grid.

    ``wealth`` and ``policy`` are filled only when a position rule was
    applied (see :func:`simulate_wealth_path`).
    """

    times: np.ndarray
    variance: np.ndarray
    price: np.ndarray
    wealth: np.ndarray | None = None
    policy: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.times)
        for name in ("variance", "price", "wealth", "policy"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise ValueError(f"SimPath field {name} has length {len(arr)}, expected {n}")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("SimPath times must be strictly increasing")
        if np.any(self.variance < 0.0):
            raise ValueError("SimPath variance must be nonnegative")
        if np.any(self.price <= 0.0):
            raise ValueError("SimPath price must be positive")
        for name in ("times", "variance", "price", "wealth", "policy"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"SimPath field {name} contains non-finite values")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def risk_free_holding(self) -> np.ndarray:
        """Cash allocation ``X - pi`` per grid point (requires wealth and policy)."""
        if self.wealth is None or self.policy is None:
            raise ValueError("risk_free_holding requires wealth and policy")
        return self.wealth - self.policy


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix on a Python int or a uint32 array; returns (value, next const)."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two pool words (Python ints or uint32 arrays alike)."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's coercion of a nonnegative int: little-endian uint32 words, ``[0]`` for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_pool(words: list) -> tuple[list, int]:
    """The hash pool and hash constant once an entropy of at most four uint32 words is mixed in.

    ``words`` are Python ints, or uint32 arrays with one entry per seed
    (then all four words are given).  They are zero-padded to the pool
    size, as ``SeedSequence`` pads a seed that a spawn key follows; a
    seed alone hashes the same zeros in place of the missing words.
    Every stream of one seed shares this state.
    """
    const = _INIT_A
    pool = []
    for word in words + [0] * (_POOL_SIZE - len(words)):
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    return pool, const


def _spawn_state(pool: list, const: int, words: list) -> np.ndarray:
    """Mix the spawn-key words (uint32 arrays, one entry per stream) into the pool.

    Returns ``generate_state(2, uint64)``, one ``(2,)`` uint64 row per stream.
    """
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    state = []
    const = _INIT_B
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        state.append(word.astype(np.uint64))
    # generate_state(2, uint64) pairs the four words little-endian.
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _stream_keys(seed: int, indices: np.ndarray, *tail: int) -> np.ndarray:
    """``SeedSequence`` states of the spawn keys ``(i, *tail)``, one ``(2,)`` uint64 row per index ``i``.

    Row ``j`` equals
    ``SeedSequence(entropy=seed, spawn_key=(indices[j], *tail)).generate_state(2, np.uint64)``:
    for path indices and the tail ``(role,)``, the key ``Philox(SeedSequence)``
    runs from; for replication indices and no tail, its first word is the
    replication's seed.  The seed is mixed once; each index and the tail
    are then mixed in on uint32 arrays.  An index below 2**32 (0 included)
    is one uint32 word and a larger one two, so the two groups are hashed
    in separate passes.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    pool, const = _seed_pool(_uint32_words(seed))
    keys = np.empty((idx.shape[0], 2), dtype=np.uint64)
    wide = idx > _MASK32
    for rows in (np.flatnonzero(~wide), np.flatnonzero(wide)):
        if rows.size == 0:
            continue
        group = idx[rows]
        words = [(group & _MASK32).astype(np.uint32)]
        if group[0] > _MASK32:
            words.append((group >> 32).astype(np.uint32))
        words += [np.full(rows.size, word, dtype=np.uint32) for word in tail]
        mixer = [np.full(rows.size, word, dtype=np.uint32) for word in pool]
        keys[rows] = _spawn_state(mixer, const, words)
    return keys


def _seed_keys(seeds: np.ndarray) -> np.ndarray:
    """Philox keys of ``Philox(SeedSequence(entropy=s))`` for uint64 seeds ``s``, one ``(2,)`` row each.

    A seed is at most two uint32 words and hashes as four, the others zero.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    return _spawn_state(*_seed_pool(words), [])


def _streams(keys: np.ndarray):
    """A fresh Philox stream (counter 0) for each key in turn: one generator, re-keyed.

    Yields the same ``Generator`` each time; draw from it before the next.
    """
    gen = np.random.Generator(np.random.Philox(key=0))
    state = gen.bit_generator.state  # counter 0, empty buffer: a fresh stream
    # The setter indexes the counter and buffer entry by entry, which is
    # cheaper on lists than on the arrays the getter gives.
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for key in keys.tolist():
        state["state"]["key"] = key
        gen.bit_generator.state = state
        yield gen


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_threads(fn, m: int) -> list:
    """``fn(a, b)`` over contiguous blocks ``[a, b)`` of ``range(m)``, one per worker; their results in block order.

    There is a worker per CPU, but no more than one per ``_BLOCK_PATHS``
    rows, so a small batch or a 1-CPU host runs ``fn(0, m)`` alone.  Block
    0 runs on the caller's thread and the others in a pool that is shut
    down before this returns; the first error, in block order, is raised.
    """
    workers = max(1, min(_cpus(), m // _BLOCK_PATHS))
    if workers == 1:
        return [fn(0, m)]
    from concurrent.futures import ThreadPoolExecutor

    bounds = [m * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        rest = [pool.submit(fn, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
        first = fn(bounds[0], bounds[1])
        return [first] + [future.result() for future in rest]


def _step_sizes(cfg: PathConfig) -> np.ndarray:
    return np.diff(cfg.times())


def cir_mean(p: HestonParams, s: float) -> float:
    """Expected variance after elapsed time ``s``.

    Closed form of the mean of the square-root variance process:
    ``alpha/beta_rev + (sigma_bar - alpha/beta_rev) * exp(-beta_rev*s)``.
    Used as an independent check on the Euler scheme.
    """
    if s < 0.0:
        raise ValueError("elapsed time must be >= 0")
    level = p.alpha / p.beta_rev
    return level + (p.sigma_bar - level) * math.exp(-p.beta_rev * s)


def _euler_rows(
    p: HestonParams, dts: np.ndarray, sqrt_dts: np.ndarray, normals: np.ndarray, paths: np.ndarray, a: int, b: int
) -> bool:
    """Step batch rows ``[a, b)`` from ``normals`` into ``paths``; False if one went non-finite.

    ``normals`` is ``(m, n)`` and ``paths`` ``(m, n + 1)``; ``normals`` may
    be ``paths[:, 1:]``.  The rows get their own tile and step buffers, so
    blocks of rows can be stepped in separate threads.
    """
    n = dts.shape[0]
    v = np.full(b - a, float(p.sigma_bar))
    paths[a:b, 0] = v
    # Only the start can need the floor (sigma_bar = -0.0): every stored
    # value after it is np.maximum(raw, 0.0), which is >= +0.0 or NaN and
    # which the floor leaves unchanged.
    vp = np.maximum(v, 0.0)
    tile = np.empty((min(_TILE, n), b - a))
    drift = np.empty(b - a)
    shock = np.empty(b - a)
    alpha, beta_rev, gamma = p.alpha, p.beta_rev, p.gamma
    finite = True
    # errstate is per thread, so it is entered here, in the thread that steps.
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is reported
        for k0 in range(0, n, _TILE):
            steps = tile[: min(_TILE, n - k0)]
            # Copied in blocks of paths, so the rows read stay in cache.
            for j0 in range(a, b, _TILE_PATHS):
                j1 = min(j0 + _TILE_PATHS, b)
                steps[:, j0 - a : j1 - a] = normals[j0:j1, k0 : k0 + len(steps)].T
            for k, z in enumerate(steps, start=k0):
                # raw = v + (alpha - beta_rev*vp)*dt + gamma*sqrt(vp)*sqrt_dt*z
                np.multiply(vp, beta_rev, out=drift)
                np.subtract(alpha, drift, out=drift)
                np.multiply(drift, dts[k], out=drift)
                np.add(v, drift, out=drift)
                np.sqrt(vp, out=shock)
                np.multiply(shock, gamma, out=shock)
                np.multiply(shock, sqrt_dts[k], out=shock)
                np.multiply(shock, z, out=shock)
                np.add(drift, shock, out=drift)
                # The step's value takes the place of its spent normals.
                v = vp = np.maximum(drift, 0.0, out=z)
            finite = finite and bool(np.isfinite(steps).all())
            paths[a:b, k0 + 1 : k0 + 1 + len(steps)] = steps.T
            v = vp = v.copy()  # the next tile overwrites this row
    return finite


def _draw_rows(keys: np.ndarray, out: np.ndarray, a: int, b: int) -> None:
    """Fill ``out[i, 1:]`` with the normals of the stream keyed ``keys[i]``, for rows ``i`` in ``[a, b)``."""
    for normals, gen in zip(out[a:b, 1:], _streams(keys[a:b])):
        gen.standard_normal(out=normals)


def variance_path_from_normals(
    p: HestonParams, dts: np.ndarray, z2: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Full-truncation Euler variance path driven by explicit normals.

    ``z2`` has one standard normal per step (last axis); leading axes
    batch independent paths.  Returns an array with one more grid point
    than steps, starting at ``sigma_bar``.  A 1-D ``z2`` is stepped on
    Python floats and gives the same bits as the same row of a batch.

    ``out``, as in numpy, is a writable float64 array of the result's
    shape that receives the paths and is returned.  The normals may live
    in it as exactly ``z2 = out[..., 1:]``, and are then stepped in place
    with the same bits; any other overlap of ``z2`` and ``out`` raises
    ``ValueError``.

    A batch is stepped in blocks of rows on the host's CPUs (see the
    module docstring), with the same bits as in one thread; the call
    returns, or raises, once every block is done.
    """
    z2 = np.asarray(z2, dtype=float)
    dts = np.asarray(dts, dtype=float)
    n = dts.shape[0]
    if z2.shape[-1] != n:
        raise ValueError(f"z2 last axis has length {z2.shape[-1]}, expected {n}")
    shape = z2.shape[:-1] + (n + 1,)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64 and out.flags.writeable):
        raise ValueError(f"out must be a writable float64 array of shape {shape}")
    else:
        tail = out[..., 1:]
        if (z2.ctypes.data, z2.strides) != (tail.ctypes.data, tail.strides) and np.shares_memory(z2, out):
            raise ValueError("z2 may overlap out only as out[..., 1:]")
    sqrt_dts = np.sqrt(dts)
    if z2.ndim == 1:
        # One path: numpy calls on 0-d arrays cost microseconds per step,
        # so step on Python floats.  ``x if x > 0.0 or x != x else 0.0`` is
        # np.maximum(x, 0.0) exactly: -0.0 becomes 0.0 and NaN is kept.
        alpha, beta_rev, gamma = p.alpha, p.beta_rev, p.gamma
        v = float(p.sigma_bar)
        path = [v]
        for dt, sqrt_dt, z in zip(dts.tolist(), sqrt_dts.tolist(), z2.tolist()):
            vp = v if v > 0.0 or v != v else 0.0
            raw = v + (alpha - beta_rev * vp) * dt + gamma * math.sqrt(vp) * sqrt_dt * z
            v = raw if raw > 0.0 or raw != raw else 0.0
            path.append(v)
        out[:] = path
        finite = bool(np.isfinite(out).all())
    else:
        m = math.prod(z2.shape[:-1])
        normals = z2.reshape(m, n)
        paths = out.reshape(m, n + 1)
        finite = all(_in_threads(functools.partial(_euler_rows, p, dts, sqrt_dts, normals, paths), m))
        if not np.may_share_memory(paths, out):  # an ``out`` whose leading axes reshape copies
            out[...] = paths.reshape(shape)
    if not finite:
        raise ValueError("variance path became non-finite; dt is too large for the parameter scale")
    return out


def market_path_from_normals(
    p: HestonParams, times: np.ndarray, z1: np.ndarray, z2: np.ndarray
) -> SimPath:
    """Joint variance and log-Euler price path from explicit normal draws.

    ``z1`` drives the price-specific shock and ``z2`` the variance; the
    price Brownian increment is ``sqrt(dt) * (rho*z2 + sqrt(1-rho**2)*z1)``.
    Exposed so experiments can share or aggregate increments across grid
    resolutions.
    """
    times = np.asarray(times, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    dts = np.diff(times)
    n = dts.shape[0]
    if z1.shape != (n,) or z2.shape != (n,):
        raise ValueError(f"z1 and z2 must have shape ({n},)")
    variance = variance_path_from_normals(p, dts, z2)
    dw1 = np.sqrt(dts) * (p.rho * z2 + math.sqrt(1.0 - p.rho**2) * z1)
    v_left = variance[:-1]
    dlog = (p.mu - 0.5 * v_left) * dts + np.sqrt(v_left) * dw1
    log_price = np.concatenate([[0.0], np.cumsum(dlog)])
    with np.errstate(over="ignore"):
        price = np.exp(log_price)
    if not (np.all(np.isfinite(log_price)) and np.all(np.isfinite(price))):
        raise ValueError("price path became non-finite; dt is too large for the parameter scale")
    return SimPath(times=times, variance=variance, price=price)


def simulate_variance_path(p: HestonParams, c: PathConfig, path_index: int = 0) -> np.ndarray:
    """Variance path for one stream index, one value per grid point."""
    if not 0 <= path_index < c.n_paths:
        raise ValueError(f"path_index {path_index} out of range for n_paths={c.n_paths}")
    z2 = next(_streams(_stream_keys(c.seed, [path_index], 0))).standard_normal(c.n_steps)
    return variance_path_from_normals(p, _step_sizes(c), z2)


def simulate_variance_batch(p: HestonParams, c: PathConfig, path_indices=None) -> np.ndarray:
    """Variance paths for several stream indices, stacked row-wise.

    ``path_indices`` is a 1-D sequence of integers (default: every
    index).  Each row is bit-identical to ``simulate_variance_path`` for
    the same index, so ensembles can be processed in chunks of any size.
    Each path's normals are drawn into its own result row and stepped in
    place, so memory peaks at about the result plus one tile of
    ``_TILE`` steps (85 MB for 10k paths of 1000 steps); chunk
    accordingly.  Rows are drawn and stepped in blocks, one thread per
    CPU (see the module docstring); the tiles of the blocks add up to
    one tile, and the bits are those of one thread.
    """
    if path_indices is None:
        idx = np.arange(c.n_paths, dtype=np.uint64)
    else:
        idx = np.asarray(path_indices)
        if idx.size == 0:
            idx = idx.astype(np.uint64)  # [] comes out as float64
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise TypeError("path_indices must be a 1-D sequence of integers")
        bad = np.flatnonzero((idx < 0) | (idx >= c.n_paths))
        if bad.size:
            raise ValueError(f"path_index {idx[bad[0]]} out of range for n_paths={c.n_paths}")
    n = c.n_steps
    out = np.empty((idx.size, n + 1))
    _in_threads(functools.partial(_draw_rows, _stream_keys(c.seed, idx, 0), out), idx.size)
    return variance_path_from_normals(p, _step_sizes(c), out[:, 1:], out=out)


def simulate_market_path(p: HestonParams, c: PathConfig, path_index: int = 0) -> SimPath:
    """Correlated variance and price path for one stream index.

    The variance values equal ``simulate_variance_path`` for the same
    ``(seed, path_index)`` because the two roles draw from separate
    streams.  The price starts at 1.
    """
    if not 0 <= path_index < c.n_paths:
        raise ValueError(f"path_index {path_index} out of range for n_paths={c.n_paths}")
    keys = np.concatenate([_stream_keys(c.seed, [path_index], role) for role in (0, 1)])
    z2, z1 = (gen.standard_normal(c.n_steps) for gen in _streams(keys))
    return market_path_from_normals(p, c.times(), z1, z2)


def optimal_policy(
    x: float, sigma_bar: float, coeffs: PolicyCoefficients, p: HestonParams
) -> float:
    """Risky position under the linearized marginal-value rule.

    Evaluates
    ``-(mu - r) * (alpha0 + alpha1*x + alpha2*sigma_bar) / (sigma_bar * alpha1)
    - rho * gamma * alpha2 / alpha1``
    at instantaneous variance ``sigma_bar``.
    """
    if not sigma_bar > 0.0:
        raise ValueError("sigma_bar must be > 0")
    v_x = coeffs.alpha0 + coeffs.alpha1 * x + coeffs.alpha2 * sigma_bar
    hedging = p.rho * p.gamma * coeffs.alpha2 / coeffs.alpha1
    return -(p.mu - p.r) * v_x / (sigma_bar * coeffs.alpha1) - hedging


def simulate_wealth_path(
    market: SimPath, coeffs: PolicyCoefficients, p: HestonParams, x0: float
) -> SimPath:
    """Euler wealth path under the linearized rule, on a given market path.

    The wealth diffusion reuses the market path's own price shocks: with
    the log-Euler price scheme, ``sqrt(v_k)*dW1_k`` equals
    ``dlog(S_k) - (mu - v_k/2)*dt_k`` identically, so no separate draws
    are needed and the coupling is exact.  The policy at a truncated
    (zero-variance) grid point is evaluated at ``POLICY_VARIANCE_FLOOR``,
    and an overflow after such points names them and the Feller condition.
    """
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    times = market.times
    v = market.variance.tolist()
    dts = np.diff(times).tolist()
    dlog = np.diff(np.log(market.price)).tolist()
    mu, r, floor = p.mu, p.r, POLICY_VARIANCE_FLOOR
    alpha0, alpha1, alpha2 = coeffs.alpha0, coeffs.alpha1, coeffs.alpha2
    # optimal_policy inlined, with its step-invariant terms computed once.
    excess = mu - r
    neg_excess = -excess
    hedging = p.rho * p.gamma * alpha2 / alpha1
    x = float(x0)
    wealth = [x]
    policy = []
    for vk, dt, dl in zip(v, dts, dlog):
        sigma_bar = floor if floor > vk else vk  # max(vk, floor)
        pi_k = neg_excess * (alpha0 + alpha1 * x + alpha2 * sigma_bar) / (sigma_bar * alpha1) - hedging
        policy.append(pi_k)
        x = x + (r * x + excess * pi_k) * dt + pi_k * (dl - (mu - 0.5 * vk) * dt)
        wealth.append(x)
    policy.append(optimal_policy(x, max(v[-1], floor), coeffs, p))
    wealth = np.array(wealth)
    policy = np.array(policy)
    bad = np.flatnonzero(~(np.isfinite(wealth) & np.isfinite(policy)))
    if bad.size:
        truncated = int(np.count_nonzero(market.variance[: bad[0] + 1] < floor))
        cause = "dt is too large for the parameter scale" if not truncated else (
            f"the variance was truncated to 0 at {truncated} grid points up to it, where the rule divides by "
            f"POLICY_VARIANCE_FLOOR; the Feller condition 2*alpha >= gamma**2 {'holds' if p.feller_ok else 'fails'}"
        )
        raise ValueError(f"wealth path became non-finite at grid point {bad[0]}: {cause}")
    return SimPath(
        times=times, variance=market.variance, price=market.price, wealth=wealth, policy=policy
    )


@dataclass(frozen=True)
class GenerationSpec:
    """Model-implied synthetic data: positions drawn from the stage-1 curve.

    Rows get excess returns uniform on ``e_interval``, positions equal to
    the stage-1 model value plus centered Gaussian noise, and the
    risk-free rate ``BASE_RATE`` (so ``mu = BASE_RATE + e``).  The
    interval must have a finite width and exclude the model pole at
    ``-beta3``.
    """

    kind: ClassVar[str] = "model-implied"
    stage1: Stage1Params
    n: int
    noise: float = 0.0
    e_interval: tuple[float, float] = (0.01, 0.10)

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be an integer >= 1")
        if not (math.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError("noise must be finite and >= 0")
        lo, hi = self.e_interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("e_interval must be a finite (low, high) pair with low < high")
        if not math.isfinite(hi - lo):
            raise ValueError("e_interval is too wide: its width high - low overflows")
        if lo <= -self.stage1.beta3 <= hi:
            raise ValueError("e_interval contains the model pole at -beta3")


@dataclass(frozen=True)
class StructuralSpec:
    """Structural synthetic data: one row per grid point of a wealth path."""

    kind: ClassVar[str] = "structural"
    heston: HestonParams
    policy: PolicyCoefficients
    path: PathConfig
    x0: float

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")


def _model_implied_rows(spec: GenerationSpec, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model-implied datasets for many seeds at once: ``(mu, pi_star, pole)``.

    Row ``j`` of the ``(R, n)`` arrays ``mu`` and ``pi_star`` holds, bit
    for bit, the columns :func:`generate_synthetic_dataset` gives at the
    uint64 seed ``seeds[j]``: its Philox stream draws ``n`` uniforms,
    ``e = lo + (hi - lo)*u`` as ``Generator.uniform`` computes them, then,
    with noise, ``n`` normals, and ``mu = BASE_RATE + e``.  ``pole`` marks
    the rows with an ``e`` on the pole guard of the stage-1 curve; their
    values mean nothing.  ``e`` lies in ``e_interval``, whose width is
    finite, so ``mu`` is finite; ``pi_star`` is not checked: a row with a
    non-finite position is one that ``Dataset`` refuses.
    """
    lo, hi = spec.e_interval
    mu = np.empty((len(seeds), spec.n))
    pi = np.empty_like(mu) if spec.noise > 0.0 else None
    for row, gen in enumerate(_streams(_seed_keys(seeds))):
        gen.random(out=mu[row])
        if pi is not None:
            gen.standard_normal(out=pi[row])
    e = mu
    e *= hi - lo
    e += lo
    b1, b2, b3 = spec.stage1.beta1, spec.stage1.beta2, spec.stage1.beta3
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = b3 + e
        pole = _pole_rows(denom, b3, e)
        curve = b1 * e
        curve += b2 * b3
        curve /= denom
        if pi is None:
            pi = curve
        else:
            pi *= spec.noise
            pi += curve
        mu += BASE_RATE  # e is spent: mu = BASE_RATE + e
    return mu, pi, pole


def _check_seed(name: str, seed) -> int:
    """``seed`` as an int, or ValueError naming it unless ``0 <= seed < 2**64``."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def generate_synthetic_dataset(mode: str, spec, seed: int) -> Dataset:
    """Build a synthetic observation set for estimator validation.

    ``mode`` is ``"model-implied"`` (rows sampled from the stage-1 curve,
    cross-section) or ``"structural"`` (rows read off a simulated wealth
    path, time series); it must be ``spec.kind``.  ``seed`` is an integer
    in ``[0, 2**64)``.  Identical ``(mode, spec, seed)`` always yields an
    identical dataset.  A model-implied dataset is the one-seed case of
    the stacked generator the Monte Carlo harness runs.
    """
    if mode == "model-implied":
        if not isinstance(spec, GenerationSpec):
            raise TypeError("model-implied generation requires a GenerationSpec")
        seeds = np.array([_check_seed("seed", seed)], dtype=np.uint64)
        mu, pi, pole = _model_implied_rows(spec, seeds)
        if pole[0]:
            raise PoleError("model evaluated within the pole guard of a vanishing denominator")
        return Dataset(
            pi_star=pi[0],
            mu=mu[0],
            r=np.full(spec.n, BASE_RATE),
            source="synthetic:model-implied",
        )
    if mode == "structural":
        if not isinstance(spec, StructuralSpec):
            raise TypeError("structural generation requires a StructuralSpec")
        cfg = replace(spec.path, seed=seed)
        market = simulate_market_path(spec.heston, cfg, path_index=0)
        path = simulate_wealth_path(market, spec.policy, spec.heston, spec.x0)
        n = len(path.times)
        return Dataset(
            pi_star=path.policy,
            mu=np.full(n, spec.heston.mu),
            r=np.full(n, spec.heston.r),
            labels=tuple(map(str, range(n))),
            source="synthetic:structural",
        )
    raise ValueError(f"unknown generation mode {mode!r}")
