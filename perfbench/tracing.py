"""Span tracing around the public functions of the portvol modules.

Each wrapper is installed at the name its caller looks up (``estimate``
does ``from .nls import lm_fit``, so ``portvol.estimate.lm_fit`` is the
name patched), which leaves the library source untouched.  A span
records its name, start, end, parent span and op id; spans stay in memory
until :meth:`Tracer.write_spans` writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import portvol.cli
import portvol.data_io
import portvol.estimate
import portvol.model
import portvol.simulate

from metrics import COUNTS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts: dict[int, dict[str, int]] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts[op_id] = defaultdict(int)

    def end_op(self) -> None:
        self.op_id = None

    def _count(self, name: str, n: int = 1) -> None:
        if self.op_id is not None:
            self.counts[self.op_id][name] += n

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters filled from arguments and results ----------------------

    def _after_read(self, args, data):
        self._count("data_io.read_rows", data.n_rows)
        self._count("data_io.read_bytes", os.path.getsize(args[0]))

    def _after_write(self, args, _):
        self._count("data_io.write_rows", args[0].n_rows)
        self._count("data_io.write_bytes", os.path.getsize(args[1]))

    def _after_euler(self, args, path):
        z2 = np.asarray(args[2])
        self._count("simulate.euler_path_steps", z2.size)
        # Computed, not measured: one read of the normals, one write of the path.
        self._count("simulate.bytes_computed", z2.nbytes + path.nbytes)

    def _after_wealth(self, args, _):
        self._count("simulate.wealth_steps", len(args[0].times) - 1)

    def _converged_counter(self, name: str):
        return lambda args, fit: self._count(name, int(fit.converged))

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        cli, io, est, sim = portvol.cli, portvol.data_io, portvol.estimate, portvol.simulate
        plan = (
            ("cli.run_cli", [(cli, "run_cli")], None),
            ("data_io.parse_config", [(io, "parse_config")], None),
            ("data_io.read_dataset", [(io, "read_dataset")], self._after_read),
            ("data_io.write_dataset", [(io, "write_dataset")], self._after_write),
            ("data_io.write_report", [(io, "write_report")], None),
            ("estimate.monte_carlo_validation", [(cli, "monte_carlo_validation"), (est, "monte_carlo_validation")], None),
            ("estimate.fit_volatility", [(cli, "fit_volatility"), (est, "fit_volatility")],
             self._converged_counter("estimate.stage1_converged")),
            ("estimate.fit_vol_of_vol", [(cli, "fit_vol_of_vol"), (est, "fit_vol_of_vol")],
             self._converged_counter("estimate.stage2_converged")),
            ("estimate.estimate_rho", [(cli, "estimate_rho")], None),
            ("estimate.standard_errors", [(est, "standard_errors")], None),
            ("estimate.diagnostics", [(est, "identifiability_diagnostics")], None),
            ("simulate.generate", [(cli, "generate_synthetic_dataset"), (est, "generate_synthetic_dataset")], None),
            ("simulate.batch", [(sim, "simulate_variance_batch")], None),
            ("simulate.euler", [(sim, "variance_path_from_normals")], self._after_euler),
            ("simulate.market_path", [(sim, "simulate_market_path")], None),
            ("simulate.wealth", [(sim, "simulate_wealth_path")], self._after_wealth),
        )
        for name, sites, after in plan:
            wrapper = self._wrap(getattr(*sites[0]), name, after)
            for owner, attr in sites:
                self._patch(owner, attr, wrapper)

        # The residual and Jacobian evaluations are counted by wrapping the
        # ResidualProblem handed to lm_fit.
        traced_lm_fit = self._wrap(
            est.lm_fit, "nls.lm_fit",
            lambda args, fit: self._count("nls.accepted_steps", fit.iterations),
        )

        def lm_fit(problem, *args, **kwargs):
            if self.op_id is not None:
                problem = dataclasses.replace(
                    problem,
                    residual=self._wrap(problem.residual, "nls.residual"),
                    jacobian=self._wrap(problem.jacobian, "nls.jacobian"),
                )
            return traced_lm_fit(problem, *args, **kwargs)

        self._patch(est, "lm_fit", lm_fit)

        # Every MarketObservation construction runs __post_init__.
        obs = portvol.model.MarketObservation
        post_init = obs.__post_init__

        def counted_post_init(instance):
            self._count("model.observations_built")
            post_init(instance)

        self._patch(obs, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def _per_op_spans(self) -> dict[int, dict[str, float]]:
        """Per op and span name: number of spans, total and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_op: dict[int, dict[str, float]] = {op: defaultdict(float) for op in self.counts}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            acc = per_op[op]
            acc[name + ":n"] += 1
            acc[name + ":s"] += (end - start) / 1e9
            acc[name + ":self"] += (end - start - child_ns[i]) / 1e9
        return per_op

    @staticmethod
    def _op_metrics(span: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
        def ratio(num, den):
            return num / den if den else 0.0

        m = {name: float(counts[name]) for name, *_ in COUNTS}
        m["nls.lm_fit_calls"] = span["nls.lm_fit:n"]
        m["nls.residual_evals"] = span["nls.residual:n"]
        m["nls.jacobian_evals"] = span["nls.jacobian:n"]
        # Each lm_fit call evaluates the residual once at its start; every
        # further evaluation is a trial step, accepted or rejected.
        trials = m["nls.residual_evals"] - m["nls.lm_fit_calls"]
        m["nls.rejected_steps"] = trials - m["nls.accepted_steps"]
        m.update({
            "cli.run_cli_s": span["cli.run_cli:s"],
            "cli.self_s": span["cli.run_cli:self"],
            "data_io.read_dataset_s": span["data_io.read_dataset:s"],
            "data_io.read_ns_per_row": 1e9 * ratio(span["data_io.read_dataset:s"], counts["data_io.read_rows"]),
            "data_io.write_dataset_s": span["data_io.write_dataset:s"],
            "data_io.write_report_s": span["data_io.write_report:s"],
            "data_io.parse_config_s": span["data_io.parse_config:s"],
            "nls.lm_fit_s": span["nls.lm_fit:s"],
            "nls.lm_self_s": span["nls.lm_fit:self"],
            "nls.residual_s": span["nls.residual:s"],
            "nls.jacobian_s": span["nls.jacobian:s"],
            "nls.accept_ratio": ratio(m["nls.accepted_steps"], trials),
            "nls.lm_iter_s": ratio(span["nls.lm_fit:s"], m["nls.jacobian_evals"]),
            "estimate.fit_volatility_s": span["estimate.fit_volatility:s"],
            "estimate.fit_volatility_self_s": span["estimate.fit_volatility:self"],
            "estimate.fit_vol_of_vol_s": span["estimate.fit_vol_of_vol:s"],
            "estimate.fit_vol_of_vol_self_s": span["estimate.fit_vol_of_vol:self"],
            "estimate.standard_errors_s": span["estimate.standard_errors:s"],
            "estimate.diagnostics_s": span["estimate.diagnostics:s"],
            "simulate.generate_s": span["simulate.generate:s"],
            "simulate.generate_self_s": span["simulate.generate:self"],
            "simulate.batch_s": span["simulate.batch:s"],
            # The self time of simulate_variance_batch is its per-path stream
            # set-up and draws; the Euler loop is its child span.
            "simulate.stream_setup_s": span["simulate.batch:self"],
            "simulate.euler_s": span["simulate.euler:s"],
            "simulate.euler_ns_per_path_step": 1e9 * ratio(span["simulate.euler:s"], counts["simulate.euler_path_steps"]),
            "simulate.market_path_s": span["simulate.market_path:s"],
            "simulate.wealth_s": span["simulate.wealth:s"],
            "simulate.wealth_ns_per_step": 1e9 * ratio(span["simulate.wealth:s"], counts["simulate.wealth_steps"]),
        })
        return m

    def layer_metrics(self) -> dict[str, float]:
        """Per-op layer metrics: counts of the first traced op, median of timings.

        A layer the workload never enters reports 0.
        """
        per_op_spans = self._per_op_spans()
        per_op = [self._op_metrics(per_op_spans[op], self.counts[op]) for op in sorted(self.counts)]
        counts = {name for name, *_ in COUNTS}
        return {
            name: value if name in counts else statistics.median(m[name] for m in per_op)
            for name, value in per_op[0].items()
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i},{parent},{op},{name},{start},{end}\n")
