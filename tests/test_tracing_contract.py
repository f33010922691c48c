"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches functions at the names their callers
look up; a renamed or deleted name would otherwise surface only in a
traced benchmark run.
"""

import importlib
import pathlib

import portvol.cli

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
