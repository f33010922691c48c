"""The sweep tool ``tests/data/sweeps.py``: its records, tallies and digest on a few draws."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parent / "data" / "sweeps.py"
_SPEC = importlib.util.spec_from_file_location("sweeps", _PATH)
sweeps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweeps)


def test_a_few_draws_are_tallied_and_digested_the_same_twice():
    noise, n, seed = sweeps.SWEEPS["noise-0.05-n-30"]
    records = sweeps.run(noise, n, seed, draws=12)
    assert sweeps.digest(sweeps.run(noise, n, seed, draws=12)) == sweeps.digest(records)
    tallies = sweeps.summary(records)
    stops, refusals = tallies["stage1"]
    assert sum(stops.values()) + sum(refusals.values()) == 12
    fitted = sum(stops.values())
    for variant in sweeps.GAUGES:
        assert sum(map(sum, (c.values() for c in tallies[variant]))) == fitted
