"""Fit both stages on three 1000-draw sweeps of random truths: stop messages, refusals and a digest.

    python tests/data/sweeps.py                     # every sweep
    python tests/data/sweeps.py noise-0.05-n-30     # the named sweeps only
    python tests/data/sweeps.py --records out.json  # also write every draw's record

A sweep is a noise level, a row count ``n`` and the seed of the
generator that draws its truths.  Draw ``i`` takes, in this order,
``beta1`` and ``beta2`` uniform on (-3, 3), both redrawn until
``|beta1 - beta2| > 0.1``, ``beta3`` log-uniform on [0.005, 1] and a
dataset seed from ``integers(2**32)``; its dataset is
``generate_synthetic_dataset`` of ``n`` model-implied rows with ``e``
uniform on (0.01, 0.1).  Stage 1 fits every draw, and stage 2 fits every
draw stage 1 did not refuse, under ``pin-beta5`` and under ``free``.

For each sweep and fit the output tallies the stop messages of the fits,
gives the mean and maximum of their accepted steps, tallies their
diagnostics (each fit once, under the names of all its flags, or ``no
flags``) and the refusals by their message up to its first colon or row
name.  The digest is
the sha256 of every draw's record: each fit's parameters, residual norm
and standard errors (in hex), iterations, convergence, message and
diagnostics, or its full refusal message.  Two trees that give the same
digest gave the same fits, bit for bit; ``--records`` writes the records
themselves, one list per sweep, to compare draw by draw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from portvol import (  # noqa: E402
    GaugeRule,
    GenerationSpec,
    Stage1Params,
    fit_vol_of_vol,
    fit_volatility,
    generate_synthetic_dataset,
)

# name: (noise, n, seed of the truths' generator).
SWEEPS = {
    "noise-0.05-n-30": (0.05, 30, 8),
    "noise-0.01-n-200": (0.01, 200, 7),
    "noiseless-n-50": (0.0, 50, 2024),
}
DRAWS = 1000
GAUGES = ("pin-beta5", "free")


def datasets(noise: float, n: int, seed: int, draws: int = DRAWS):
    """The sweep's datasets, one per draw, in draw order."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        b1, b2 = rng.uniform(-3.0, 3.0, 2)
        while abs(b1 - b2) <= 0.1:
            b1, b2 = rng.uniform(-3.0, 3.0, 2)
        b3 = math.exp(rng.uniform(math.log(0.005), 0.0))
        spec = GenerationSpec(Stage1Params(float(b1), float(b2), b3), n=n, noise=noise, e_interval=(0.01, 0.1))
        yield generate_synthetic_dataset("model-implied", spec, int(rng.integers(2**32)))


def _record(fit) -> dict:
    """Every field of a fit, floats in hex."""
    se = fit.standard_errors
    return {
        "params": [v.hex() for v in fit.params.as_array().tolist()],
        "residual_norm": fit.residual_norm.hex(),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "message": fit.message,
        "standard_errors": None if se is None else [v.hex() for v in se],
        "diagnostics": sorted(fit.diagnostics),
    }


def _outcome(fit, *args) -> tuple[dict, object]:
    """``fit(*args)`` as ``(record, result)``: a refusal is ``{"refused": message}`` and no result."""
    try:
        result = fit(*args)
    except ValueError as error:
        return {"refused": str(error)}, None
    return _record(result), result


def run(noise: float, n: int, seed: int, draws: int = DRAWS) -> list[dict]:
    """Each draw's record: ``{"stage1": ..., "pin-beta5": ..., "free": ...}``, stage 2 only after a stage-1 fit."""
    records = []
    for data in datasets(noise, n, seed, draws):
        stage1, fit = _outcome(fit_volatility, data)
        record = {"stage1": stage1}
        if fit is not None:
            for variant in GAUGES:
                record[variant] = _outcome(fit_vol_of_vol, data, fit.params.beta3, GaugeRule.from_stage1(variant, fit))[0]
        records.append(record)
    return records


def summary(records: list[dict]) -> dict[str, tuple[Counter, Counter, Counter, tuple[float, int] | None]]:
    """Per fit, the tallies of its stop messages, its diagnostics and its refusals, and its steps.

    Each fit counts once among the diagnostics, under its flags' names joined by ``&``, or ``no flags``; a
    refusal counts under its message up to a colon or row name.  The steps are the mean and maximum of the
    fits' accepted steps (``iterations``), None without a fit.
    """
    out = {}
    for key in ("stage1", *GAUGES):
        stops, flags, refusals, steps = Counter(), Counter(), Counter(), []
        for record in records:
            if key in record:
                outcome = record[key]
                if "refused" in outcome:
                    refusals[re.split(r":| at row ", outcome["refused"])[0]] += 1
                else:
                    stops[outcome["message"]] += 1
                    flags[" & ".join(outcome["diagnostics"]) or "no flags"] += 1
                    steps.append(outcome["iterations"])
        out[key] = stops, flags, refusals, (sum(steps) / len(steps), max(steps)) if steps else None
    return out


def digest(records: list[dict]) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweeps", nargs="*", help=f"sweeps to run, of {', '.join(SWEEPS)} (default: all)")
    parser.add_argument("--records", type=Path, help="write {sweep: [record per draw]} to this JSON file")
    args = parser.parse_args(argv)
    unknown = [name for name in args.sweeps if name not in SWEEPS]
    if unknown:
        parser.error(f"unknown sweeps: {', '.join(unknown)}")
    every = {}
    for name in args.sweeps or SWEEPS:
        noise, n, seed = SWEEPS[name]
        records = every[name] = run(noise, n, seed)
        print(f"{name} (noise {noise}, n {n}, seed {seed}, {DRAWS} draws): digest {digest(records)}")
        for key, (stops, flags, refusals, steps) in summary(records).items():
            fits, flagged, refused = (", ".join(f"{m} {c}" for m, c in sorted(t.items()))
                                      for t in (stops, flags, refusals))
            stepped = "none" if steps is None else f"mean {steps[0]:.1f}, max {steps[1]}"
            print(f"  {key}: {sum(stops.values())} fits ({fits}); accepted steps ({stepped}); flags ({flagged}); "
                  f"{sum(refusals.values())} refused ({refused})")
    if args.records:
        args.records.write_text(json.dumps(every, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
