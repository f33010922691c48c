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
    stops, flags, refusals, steps = tallies["stage1"]
    assert sum(stops.values()) + sum(refusals.values()) == 12
    fitted = sum(stops.values())
    for variant in sweeps.GAUGES:
        stops, flags, refusals, steps = tallies[variant]
        assert sum(stops.values()) + sum(refusals.values()) == fitted


def test_the_flag_tally_covers_every_fit():
    # Each fit counts once, under all its flags; every free-gauge fit carries GAUGE_UNIDENTIFIED.
    noise, n, seed = sweeps.SWEEPS["noise-0.05-n-30"]
    records = sweeps.run(noise, n, seed, draws=12)
    for key, (stops, flags, refusals, steps) in sweeps.summary(records).items():
        fits = sum(key in record and "refused" not in record[key] for record in records)
        assert sum(flags.values()) == sum(stops.values()) == fits > 0
        assert all(("GAUGE_UNIDENTIFIED" in name) == (key == "free") for name in flags)


def test_the_step_figures_are_those_of_the_records():
    noise, n, seed = sweeps.SWEEPS["noise-0.05-n-30"]
    records = sweeps.run(noise, n, seed, draws=12)
    for key, (stops, flags, refusals, steps) in sweeps.summary(records).items():
        iterations = [record[key]["iterations"] for record in records if key in record and "refused" not in record[key]]
        assert len(iterations) == sum(stops.values()) > 0
        assert steps == (sum(iterations) / len(iterations), max(iterations))
    assert sweeps.summary([{"stage1": {"refused": "beta3 is not identified: ..."}}])["stage1"][3] is None
