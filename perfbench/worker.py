"""One workload in one fresh interpreter: set up, warm up, measure, check.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
the line ``ready`` once set-up and the checked warm-up op are done
(``run.py`` times set-up up to it), then one JSON object with the raw
measurements.
Output the library prints goes elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import portvol  # noqa: E402
import portvol.cli  # noqa: E402
import portvol.estimate  # noqa: E402
import portvol.simulate  # noqa: E402
from portvol import data_io  # noqa: E402
from portvol.model import HestonParams, Stage1Params  # noqa: E402
from portvol.simulate import GenerationSpec, PathConfig, cir_mean  # noqa: E402

# Ops run back to back for --seconds, but never fewer than this.
MIN_OPS = 2

_PROBE_FLOATS = [i * 0.37 + 0.001 for i in range(5000)]
_PROBE_ARRAY = np.linspace(0.0, 1.0, 1000)


def probe() -> float:
    """Seconds taken by a fixed task that does not touch portvol.

    The machine's speed drifts by up to a factor of two over seconds on a
    shared host; the probe, run next to each timed interval, measures it.
    It formats floats, builds tuples and a dict, and runs small numpy
    ufuncs, like the workloads, with the garbage collector paused so the
    library's heap does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    rows = [(f"{x:.17g}", x * 2.0) for x in _PROBE_FLOATS]
    table = dict(rows)
    total = 0.0
    for _ in range(200):
        total += float(np.maximum(_PROBE_ARRAY * 1.5 - 0.2, 0.0).sum())
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    del table
    return elapsed

# Sizes are part of each workload's definition; "toy" exists only so the
# smoke test can run every workload in a few seconds.
SIZES = {
    "full": {
        "fit-csv-large": {"n_rows": 200_000},
        "mc-model-implied": {"replications": 500},
        "sim-ensemble": {"n_paths": 10_000, "horizon": 1.0},
        "sim-structural": {"horizon": 5.0, "dt": 1e-4},
    },
    "toy": {
        "fit-csv-large": {"n_rows": 2_000},
        "mc-model-implied": {"replications": 40},
        "sim-ensemble": {"n_paths": 200, "horizon": 0.1},
        "sim-structural": {"horizon": 0.5, "dt": 1e-3},
    },
}

# Model-implied truth the stage-1 fit identifies: the pin-beta5 sign agrees
# with the data and positions stay away from zero on e in [0.01, 0.10].
TRUTH = Stage1Params(beta1=2.0, beta2=0.5, beta3=0.04)
NOISE = 0.01


class Workload:
    """Inputs built in ``setup``; ``op`` is the timed call, ``check_op`` is not timed.

    ``digest`` names a check and holds a hash of the warm-up op's output,
    which must be the same in every worker of a run.
    """

    item = ""
    digest: tuple[str, str] | None = None

    def __init__(self, seed: int, size: dict, workdir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.checks: dict[str, list[int]] = {}  # name -> [ran, passed]

    def check(self, name: str, passed: bool) -> bool:
        tally = self.checks.setdefault(name, [0, 0])
        tally[0] += 1
        tally[1] += bool(passed)
        return bool(passed)

    def same_as_warm_up(self, name: str, output: bytes) -> bool:
        """Check that an op's output is the warm-up op's, byte for byte."""
        digest = hashlib.sha256(output).hexdigest()
        if self.digest is None:
            self.digest = (name, digest)
        return self.check(name, digest == self.digest[1])

    def setup(self) -> None:
        pass

    def finish(self) -> bool | None:
        """Checks that need the whole run: None when there are none, else all passed."""
        return None


def _run_cli_quietly(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return portvol.cli.run_cli(argv)


def _report_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in text.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            current = sections.setdefault(header.group(1), {})
        elif " = " in line and current is not None:
            key, value = line.split(" = ", 1)
            current[key] = value
    return sections


class FitCsvLarge(Workload):
    """``portvol volvol`` on a large cross-section CSV, file to report."""

    item = "row"

    def setup(self):
        self.items_per_op = self.size["n_rows"]
        spec = GenerationSpec(stage1=TRUTH, n=self.items_per_op, noise=NOISE)
        data = portvol.generate_synthetic_dataset("model-implied", spec, self.seed)
        csv_path = os.path.join(self.workdir, "observations.csv")
        data_io.write_dataset(data, csv_path)
        self.report = os.path.join(self.workdir, "report.txt")
        self.config = os.path.join(self.workdir, "volvol.cfg")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(
                f"[run]\nmode = volvol\ninput = {csv_path}\noutput = {self.report}\n"
                "gauge = pin-beta5\nalpha_ratio = -0.25\n"
            )

    def op(self, k):
        return _run_cli_quietly(["volvol", "--config", self.config])

    def check_op(self, k, status):
        ok = self.check("exit_status_0", status == 0)
        with open(self.report, "rb") as handle:
            raw = handle.read()
        ok &= self.same_as_warm_up("report_bytes_identical", raw)
        sections = _report_sections(raw.decode("utf-8"))
        stage1, stage2 = sections.get("stage1", {}), sections.get("stage2", {})
        ok &= self.check(
            "both_stages_converged",
            stage1.get("converged") == "true" and stage2.get("converged") == "true",
        )
        # Tolerance: six of the fit's own standard errors around the truth.
        within = True
        for name, truth in zip(("beta1", "beta2", "beta3"), TRUTH.as_array()):
            try:
                value, se = float(stage1[name]), float(stage1["se_" + name])
            except (KeyError, ValueError):
                within = False
                continue
            within &= abs(value - truth) <= 6.0 * se
        return self.check("beta1_3_within_6_se_of_truth", within) and ok


class McModelImplied(Workload):
    """Monte Carlo validation of both stages on many small model-implied fits."""

    item = "replication"
    # The measured rmse of beta3 at n=200, noise=0.01 is about 0.00097.
    RMSE_BETA3_BOUND = 0.0015

    def setup(self):
        self.items_per_op = self.size["replications"]
        self.spec = GenerationSpec(stage1=TRUTH, n=200, noise=NOISE)

    def op(self, k):
        return portvol.estimate.monte_carlo_validation(
            self.spec, self.items_per_op, master_seed=self.seed, run_stage2=True, gauge_variant="pin-beta5"
        )

    def check_op(self, k, report):
        reps = self.items_per_op
        summary = (report.n_converged, report.stage2_n_converged, report.bias, report.rmse,
                   report.coverage, report.beta3_mean, report.stage2_gamma_mean)
        ok = self.same_as_warm_up("report_identical_across_ops", repr(summary).encode())
        ok &= self.check("stage1_all_converged", report.n_converged == reps)
        ok &= self.check("stage2_all_converged", report.stage2_n_converged == reps)
        ok &= self.check(
            "rmse_beta3_below_bound", report.rmse is not None and report.rmse[2] < self.RMSE_BETA3_BOUND
        )
        # Nominal 95% intervals: the hit count must lie within four binomial
        # standard deviations of 0.95 times the replications evaluated.
        n = report.coverage_evaluated
        in_band = (
            report.coverage is not None
            and n > 0
            and abs(report.coverage[2] / n - 0.95) <= 4.0 * math.sqrt(0.95 * 0.05 / n)
        )
        return self.check("coverage_beta3_in_binomial_band", in_band) and ok


class SimEnsemble(Workload):
    """A wide batch of variance paths: many paths, one shared time grid."""

    item = "path-step"
    # Parameters of the simulator moment check in the acceptance tests.
    PARAMS = HestonParams(mu=0.0, r=0.0, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=0.0, sigma_bar=0.02)

    def setup(self):
        self.config = PathConfig(
            horizon=self.size["horizon"], dt=1e-3, seed=self.seed, n_paths=self.size["n_paths"]
        )
        self.items_per_op = self.config.n_paths * self.config.n_steps

    def op(self, k):
        return portvol.simulate.simulate_variance_batch(self.PARAMS, self.config)

    def check_op(self, k, paths):
        shape = (self.config.n_paths, self.config.n_steps + 1)
        ok = self.check("no_negative_variance", paths.shape == shape and float(paths.min()) >= 0.0)
        terminal = paths[:, -1]
        ok &= self.same_as_warm_up("terminal_values_identical_across_ops", terminal.tobytes())
        se = float(terminal.std(ddof=1)) / math.sqrt(len(terminal))
        gap = abs(float(terminal.mean()) - cir_mean(self.PARAMS, self.config.horizon))
        return self.check("terminal_mean_within_4_se_of_cir_mean", gap <= 4.0 * se) and ok


class SimStructural(Workload):
    """``portvol simulate`` on a long structural path, simulation to file."""

    item = "row"

    def setup(self):
        horizon, dt = self.size["horizon"], self.size["dt"]
        self.n_rows = PathConfig(horizon=horizon, dt=dt, seed=0).n_steps + 1
        self.items_per_op = self.n_rows
        self.output = os.path.join(self.workdir, "structural.csv")
        self.config = os.path.join(self.workdir, "simulate.cfg")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(
                f"[run]\nmode = simulate\noutput = {self.output}\n"
                "[generation]\nkind = structural\n"
                "[heston]\nmu = 0.08\nr = 0.02\nalpha = 0.08\nbeta_rev = 2.0\ngamma = 0.3\n"
                "rho = -0.5\nsigma_bar = 0.04\n"
                "[policy]\nalpha0 = 1.0\nalpha1 = -2.0\nalpha2 = 0.5\n"
                f"[path]\nhorizon = {horizon!r}\ndt = {dt!r}\nx0 = 1.0\n"
            )

    def _op_seed(self, k: int) -> int:
        return (self.seed * 1_000_003 + k) % 2**63

    def op(self, k):
        return _run_cli_quietly(
            ["simulate", "--config", self.config, "--seed", str(self._op_seed(k)), "--output", self.output]
        )

    def check_op(self, k, status):
        ok = self.check("exit_status_0", status == 0)
        with open(self.output, "rb") as handle:
            raw = handle.read()
        if k == 0:
            self.digest = ("same_seed_identical_bytes", hashlib.sha256(raw).hexdigest())
        lines = raw.decode("utf-8").splitlines()
        rows = [line.split(",")[1:] for line in lines[1:]]
        finite = len(rows) == self.n_rows and all(
            len(row) == 3 and all(math.isfinite(float(cell)) for cell in row) for row in rows
        )
        return self.check("csv_has_n_steps_plus_1_finite_rows", finite) and ok

    def finish(self):
        # Re-run the warm-up op's seed, untimed: the same seed must give the
        # same bytes.
        status = _run_cli_quietly(
            ["simulate", "--config", self.config, "--seed", str(self._op_seed(0)), "--output", self.output]
        )
        if status != 0 or self.digest is None:
            return self.check("same_seed_identical_bytes", False)
        with open(self.output, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return self.check("same_seed_identical_bytes", digest == self.digest[1])


WORKLOADS = {
    "fit-csv-large": FitCsvLarge,
    "mc-model-implied": McModelImplied,
    "sim-ensemble": SimEnsemble,
    "sim-structural": SimStructural,
}


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class Runner:
    """Closed loop with one client: each op starts after the previous returns."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_op(self, k: int, tracer=None) -> tuple[float, float]:
        """Seconds the op took, and the mean probe time just before and after it."""
        self.attempted += 1
        before = probe()
        if tracer is not None:
            tracer.begin_op(k)
        start = time.perf_counter()
        try:
            out = self.workload.op(k)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self.failed += 1
            return elapsed, (before + probe()) / 2
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        after = probe()
        try:
            passed = self.workload.check_op(k, out)
        except Exception as exc:  # output the check cannot read fails the op
            traceback.print_exc()
            self.errors.append(f"check: {type(exc).__name__}: {exc}")
            passed = False
        self.failed += not passed
        return elapsed, (before + after) / 2

    def measure(self, seconds: float, tracer=None) -> tuple[list, list]:
        """Untraced and traced ``(op seconds, probe seconds)`` pairs.  With a
        tracer, ops alternate untraced and traced, so both see the same
        machine state."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced if tracer else untraced) < MIN_OPS or time.perf_counter() < deadline:
            k = len(untraced) + len(traced) + 1
            if tracer is None or k % 2:
                untraced.append(self.run_op(k))
                continue
            tracer.install()
            try:
                traced.append(self.run_op(k, tracer))
            finally:
                tracer.end_op()
                tracer.uninstall()
        return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the traced spans (trace runs)")
    args = parser.parse_args(argv)
    protocol = sys.stdout

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(portvol.__file__), src]) != src:
        print(f"portvol was imported from {portvol.__file__}, not from {src}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench", "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, SIZES[args.size][args.workload], workdir)
        runner = Runner(workload)
        probe()  # the first call pays one-off costs
        setup_probes = [probe()]
        workload.setup()
        runner.run_op(0)  # warm-up, checked like every op
        setup_probes.append(probe())
        print("ready", file=protocol, flush=True)

        result = {
            "items_per_op": workload.items_per_op,
            "item": workload.item,
            "setup_probe": statistics.mean(setup_probes),
        }
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            untraced, traced = runner.measure(args.seconds, tracer)
            layers = tracer.layer_metrics()
            layers["trace.overhead_ratio"] = (
                statistics.median(t / p for t, p in traced) / statistics.median(t / p for t, p in untraced)
            )
            if args.spans:
                tracer.write_spans(args.spans)
            result.update(ops=traced, untraced_ops=untraced, layers=layers)
        else:
            result["ops"] = runner.measure(args.seconds)[0]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        finished = workload.finish()
        if finished is not None:
            runner.attempted += 1
            runner.failed += not finished
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            checks=workload.checks,
            digest=workload.digest,
            errors=runner.errors,
            env=environment(),
        )
        print(json.dumps(result), file=protocol, flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
