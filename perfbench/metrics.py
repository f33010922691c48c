"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
smoke test keeps the two in step.
"""

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# The workload-specific name under which ``items_per_s`` is also printed.
ITEM_RATE_NAMES = {
    "fit-csv-large": "rows_per_s",
    "mc-model-implied": "reps_per_s",
    "sim-ensemble": "path_steps_per_s",
    "sim-structural": "rows_per_s",
}

# Counts repeat exactly for a given seed and size; a change may cite them
# as counts.  Every other per-layer metric is a time or a ratio of times.
COUNTS = (
    ("data_io.read_rows", "count", "lower"),
    ("data_io.read_bytes", "B", "lower"),
    ("data_io.write_rows", "count", "lower"),
    ("data_io.write_bytes", "B", "lower"),
    ("model.observations_built", "count", "lower"),
    ("nls.lm_fit_calls", "count", "lower"),
    ("nls.residual_evals", "count", "lower"),
    ("nls.jacobian_evals", "count", "lower"),
    ("nls.accepted_steps", "count", "lower"),
    ("nls.rejected_steps", "count", "lower"),
    ("estimate.stage1_converged", "count", "higher"),
    ("estimate.stage2_converged", "count", "higher"),
    ("simulate.euler_path_steps", "count", "lower"),
    ("simulate.bytes_computed", "B", "lower"),
)

TIMINGS = (
    ("cli.run_cli_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("data_io.read_dataset_s", "s", "lower"),
    ("data_io.read_ns_per_row", "ns", "lower"),
    ("data_io.write_dataset_s", "s", "lower"),
    ("data_io.write_report_s", "s", "lower"),
    ("data_io.parse_config_s", "s", "lower"),
    ("nls.lm_fit_s", "s", "lower"),
    ("nls.lm_self_s", "s", "lower"),
    ("nls.residual_s", "s", "lower"),
    ("nls.jacobian_s", "s", "lower"),
    ("nls.accept_ratio", "ratio", "higher"),
    ("nls.lm_iter_s", "s", "lower"),
    ("estimate.fit_volatility_s", "s", "lower"),
    ("estimate.fit_volatility_self_s", "s", "lower"),
    ("estimate.fit_vol_of_vol_s", "s", "lower"),
    ("estimate.fit_vol_of_vol_self_s", "s", "lower"),
    ("estimate.standard_errors_s", "s", "lower"),
    ("estimate.diagnostics_s", "s", "lower"),
    ("simulate.generate_s", "s", "lower"),
    ("simulate.generate_self_s", "s", "lower"),
    ("simulate.batch_s", "s", "lower"),
    ("simulate.stream_setup_s", "s", "lower"),
    ("simulate.euler_s", "s", "lower"),
    ("simulate.euler_ns_per_path_step", "ns", "lower"),
    ("simulate.market_path_s", "s", "lower"),
    ("simulate.wealth_s", "s", "lower"),
    ("simulate.wealth_ns_per_step", "ns", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER = COUNTS + TIMINGS
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
