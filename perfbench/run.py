"""Run one portvol benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fit-csv-large --seed 1 --seconds 16 --trace 0

Each workload runs in a fresh interpreter (``worker.py``).  With
``--trace 0`` three fresh interpreters in turn each set up and measure
for a third of ``--seconds``, and the end-to-end metrics are printed;
with ``--trace 1`` one interpreter alternates untraced and traced ops,
and the per-layer metrics are printed.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics by
name, the checks, and the environment.  A full record of the run, and
the spans of a traced run, go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, ITEM_RATE_NAMES, PER_LAYER, UNITS  # noqa: E402

WORKLOADS = tuple(ITEM_RATE_NAMES)
# Set-up is timed once per worker, so three workers give its median; they
# also spread the op samples over the whole run.
WORKERS = 3
# Every worker of a run is killed once the run has taken this long.
RUN_TIMEOUT_S = 170.0

# Times are reported at a fixed machine speed: a measured interval t is
# scaled to t * PROBE_REF_S / probe, where probe is the time the worker's
# probe task took next to it and PROBE_REF_S is the probe's time on the
# 2-vCPU Xeon (300 MiB L3) the benchmark was written on, undisturbed.  On
# that shared host raw op times drift by up to 2x; over ten-run sets the
# spread of op_s_p50 fell from 0.25-0.5 of its median raw to about 0.1
# scaled.
PROBE_REF_S = 0.0034

# The working set of sim-ensemble (about 160 MB of normals plus paths) is
# below four times the 300 MiB L3 of the reference machine, so no
# bandwidth figure is derived; simulate.bytes_computed is computed from
# array sizes.
BANDWIDTH_NOTE = "bytes are computed from array sizes; no bandwidth ratio (working set < 4x L3)"


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread keeps the measurement steady on a shared machine and
    # within nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, seconds: float, deadline: float, *extra: str) -> tuple[float, dict]:
    """Run one worker to the end; return its set-up seconds and its result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--size", args.size, "--trace", str(args.trace), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=_worker_env())
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if status != 0 or ready.strip() != "ready":
        raise WorkerError(f"worker for {args.workload} exited with status {status}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def merge(results: list[dict]) -> dict:
    """One result from several workers of a run."""
    merged = dict(results[0])
    merged["ops"] = [op for r in results for op in r["ops"]]
    merged["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    merged["errors"] = [e for r in results for e in r["errors"]]
    checks: dict[str, list[int]] = {}
    for r in results:
        for name, (ran, passed) in r["checks"].items():
            tally = checks.setdefault(name, [0, 0])
            tally[0] += ran
            tally[1] += passed
    if merged["digest"] is not None:
        # The warm-up output depends only on the seed: every worker must
        # have written the same bytes.
        name = merged["digest"][0]
        same = len({tuple(r["digest"]) for r in results}) == 1
        checks[name][0] += 1
        checks[name][1] += same
        merged["attempted"] += 1
        merged["failed"] += not same
    merged["checks"] = checks
    return merged


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _command_output(cmd: list[str]) -> str | None:
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(worker_env: dict) -> dict:
    l3 = _command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "git_sha": _command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": _source_digest(),
        **worker_env,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "bandwidth": BANDWIDTH_NOTE,
    }


def end_to_end(ops: list, setups: list, items_per_op: int, peak_rss_mb: float) -> dict[str, float]:
    """Metrics from (seconds, probe seconds) pairs of ops and set-ups."""
    op_s_p50 = statistics.median(t for t, _ in ops)
    return {
        "setup_s": statistics.median(s for s, _ in setups),
        "op_s_p50": op_s_p50,
        # One client in a closed loop: the rate is the work of one op over
        # its time, taken at the median op.
        "items_per_s": items_per_op / op_s_p50,
        "peak_rss_mb": peak_rss_mb,
    }


def at_reference_speed(samples: list) -> list:
    return [(t * PROBE_REF_S / p, p) for t, p in samples]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every workload small, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "portvol", "__init__.py")):
        print(f"no portvol sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{stem}.csv")
            _, result = run_worker(args, args.seconds, deadline, "--spans", spans)
            metrics = result["layers"]
            names = PER_LAYER
        else:
            runs = [run_worker(args, args.seconds / WORKERS, deadline) for _ in range(WORKERS)]
            result = merge([r for _, r in runs])
            setups = [(s, r["setup_probe"]) for s, r in runs]
            measured = (result["items_per_op"], result["peak_rss_mb"])
            metrics = end_to_end(at_reference_speed(result["ops"]), at_reference_speed(setups), *measured)
            raw = end_to_end(result["ops"], setups, *measured)
            result["raw_metrics"] = raw
            names = END_TO_END
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = environment(result["env"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}  size = {args.size}")
    print(f"env = {json.dumps(env)}")
    print(f"checks = {json.dumps(result['checks'])}")
    for error in result["errors"]:
        print(f"error = {error}")
    n = len(result["ops"])
    for name, *_ in names:
        print(f"{name} = {metrics[name]:.6g} {UNITS[name]}")
    if not args.trace:
        print(f"{ITEM_RATE_NAMES[args.workload]} = {metrics['items_per_s']:.6g} 1/s "
              f"({result['item']}s per second; {result['items_per_op']} per op)")
        print(f"op samples = {n}  setup samples = {WORKERS}")
        print("unscaled: " + "  ".join(f"{name} = {value:.6g}" for name, value in raw.items())
              + f"  probe_s_p50 = {statistics.median(p for _, p in result['ops']):.6g}")
    else:
        print(f"op samples = {n} traced, {len(result['untraced_ops'])} untraced")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} ops)")

    with open(os.path.join(out_dir, f"run-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "env": env, "metrics": metrics, **result}, handle, indent=1)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name, *_ in names},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
