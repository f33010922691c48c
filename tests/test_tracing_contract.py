"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches functions at the names their callers
look up; a renamed or deleted name would otherwise surface only in a
traced benchmark run.
"""

import importlib
import math
import pathlib

import portvol.cli
import portvol.estimate
from portvol import GaugeRule, GenerationSpec, Stage1Params, generate_synthetic_dataset

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
    assert ("portvol.estimate", "lm_fit") in sites
    assert ("MarketObservation", "__post_init__") in sites
    for owner, attr, original in patched:
        assert callable(original), (owner, attr)
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_fits_give_finite_layer_metrics(monkeypatch):
    # The tracer adds the ``iterations`` of each lm_fit result to its
    # accepted-step count, for the stacked Monte Carlo fits as well.
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
    assert metrics["nls.lm_fit_calls"] == 2
    assert metrics["nls.accepted_steps"] > 0
