"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches functions at the names their callers
look up; a renamed or deleted name would otherwise surface only in a
traced benchmark run.
"""

import importlib
import math
import pathlib

import portvol
import portvol.cli
import portvol.estimate
import portvol.simulate
from portvol import GaugeRule, GenerationSpec, HestonParams, PathConfig, Stage1Params, generate_synthetic_dataset

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_patched_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()  # raises AttributeError on a missing name
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    sites = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert ("portvol.cli", "run_cli") in sites
    # estimate calls neither lm_fit nor generate_synthetic_dataset; it keeps both names for these patches.
    assert ("portvol.estimate", "lm_fit") in sites
    assert ("portvol.estimate", "generate_synthetic_dataset") in sites
    assert ("MarketObservation", "__post_init__") in sites
    for owner, attr, original in patched:
        assert callable(original), (owner, attr)
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_fits_give_finite_layer_metrics(monkeypatch):
    # The tracer counts solver work through the lm_fit name it patches.
    # Both stages now search in one coordinate without Levenberg-Marquardt,
    # so no fit calls lm_fit and its counts are exactly 0.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=50, noise=0.01)
    data = generate_synthetic_dataset("model-implied", spec, 3)
    stage1 = portvol.estimate.fit_volatility(data)
    tracer.install()
    try:
        tracer.begin_op(0)
        portvol.estimate.monte_carlo_validation(spec, 4, run_stage2=True)
        portvol.estimate.fit_vol_of_vol(data, stage1.params.beta3, GaugeRule.from_stage1("pin-beta5", stage1))
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics and all(isinstance(v, float) and math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["nls.lm_fit_calls"] == 0
    assert metrics["nls.accepted_steps"] == 0


def test_traced_batch_splits_stream_setup_from_euler(monkeypatch):
    # The tracer times the Euler kernel as the child span of
    # simulate_variance_batch; the batch's self time is its stream set-up.
    # Both are measured only while the batch calls the module-level kernel.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    p = HestonParams(mu=0.0, r=0.0, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=0.0, sigma_bar=0.02)
    c = PathConfig(horizon=0.2, dt=1e-3, seed=3, n_paths=50)
    tracer.install()
    try:
        tracer.begin_op(0)
        portvol.simulate.simulate_variance_batch(p, c)
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["simulate.euler_path_steps"] == c.n_paths * c.n_steps
    # The batch hands the kernel its normals as a view of the result, which
    # the tracer still reads as one normals array and one path array.
    m, n = c.n_paths, c.n_steps
    assert metrics["simulate.bytes_computed"] == 8 * (m * n + m * (n + 1))
    assert metrics["simulate.euler_s"] > 0.0
    assert metrics["simulate.stream_setup_s"] > 0.0


def test_threaded_batch_keeps_one_euler_span_under_the_batch(monkeypatch):
    # The batch draws and steps its rows in two threads, but calls the
    # patched kernel once, from the caller's thread: the single-threaded
    # tracer still sees one batch span and one Euler span inside it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(portvol.simulate, "_cpus", lambda: 2)
    blocks = []
    for name in ("_draw_rows", "_euler_rows"):
        fn = getattr(portvol.simulate, name)
        monkeypatch.setattr(
            portvol.simulate, name, lambda *args, fn=fn, name=name: blocks.append((name, args[-2])) or fn(*args)
        )
    tracer = importlib.import_module("tracing").Tracer()
    p = HestonParams(mu=0.0, r=0.0, alpha=0.08, beta_rev=2.0, gamma=0.3, rho=0.0, sigma_bar=0.02)
    c = PathConfig(horizon=0.02, dt=1e-3, seed=3, n_paths=2 * portvol.simulate._BLOCK_PATHS + 1)
    tracer.install()
    try:
        tracer.begin_op(0)
        portvol.simulate.simulate_variance_batch(p, c)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert sorted(blocks) == [(name, a) for name in ("_draw_rows", "_euler_rows") for a in (0, c.n_paths // 2)]
    metrics = tracer.layer_metrics()
    assert metrics["simulate.euler_path_steps"] == c.n_paths * c.n_steps
    assert metrics["simulate.stream_setup_s"] >= 0.0
    assert metrics["simulate.euler_s"] <= metrics["simulate.batch_s"]
    euler = [span for span in tracer.spans if span[0] == "simulate.euler"]
    assert len(euler) == 1
    assert tracer.spans[euler[0][3]][0] == "simulate.batch"


def test_cli_fits_call_through_the_patched_names(monkeypatch, tmp_path, capsys):
    # The CLI runner must look up each library call at the name the tracer
    # patches; a call bound another way would leave its layer metrics at 0.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    spec = GenerationSpec(stage1=Stage1Params(2.0, 0.5, 0.04), n=50, noise=0.01)
    portvol.write_dataset(generate_synthetic_dataset("model-implied", spec, 42), tmp_path / "d.csv")
    generation = "[generation]\nn = 50\nnoise = 0.01\nbeta1 = 2.0\nbeta2 = 0.5\nbeta3 = 0.04\n"
    runs = {
        "volvol": (
            f"[run]\nmode = volvol\ninput = {tmp_path / 'd.csv'}\noutput = {tmp_path / 'r.txt'}\nalpha_ratio = -0.25\n",
            {"data_io.read_dataset"},
        ),
        "pipeline": (
            f"[run]\nmode = pipeline\noutput = {tmp_path / 'r.txt'}\ndataset_output = {tmp_path / 'p.csv'}\n"
            "alpha_ratio = -0.25\n" + generation,
            {"simulate.generate", "data_io.write_dataset"},
        ),
    }
    tracer.install()
    try:
        for op, (command, (config, _)) in enumerate(runs.items()):
            (tmp_path / "c.cfg").write_text(config)
            tracer.begin_op(op)
            assert portvol.cli.run_cli([command, "--config", str(tmp_path / "c.cfg")]) == 0
            tracer.end_op()
    finally:
        tracer.uninstall()
    common = {
        "cli.run_cli", "estimate.fit_volatility", "estimate.fit_vol_of_vol", "estimate.estimate_rho",
        "data_io.write_report",
    }
    for op, (command, (_, own)) in enumerate(runs.items()):
        names = {span[0] for span in tracer.spans if span[4] == op}
        assert common | own <= names, (command, names)
        counts = tracer.counts[op]
        assert counts["estimate.stage1_converged"] == counts["estimate.stage2_converged"] == 1, command
