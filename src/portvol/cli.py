"""Command-line entry point.

Subcommands: ``simulate``, ``fit``, ``volvol``, ``validate``,
``pipeline``, ``help``.  Runs are defined by a config file; the only
flags are ``--config``, ``--seed``, ``--output`` and ``--verbose``
(flag overrides win over config values).  Exit status: 0 success,
1 usage error, 2 data or convergence error.  Every stage's
``ValueError`` or ``OSError``, and a fit that did not converge, exits 2
with the one stderr line ``error in <stage> stage: <error>``.  With
``--verbose``, ``validate`` also prints why replications failed.  The
stdout summary is informational; machine consumers should read the
report file.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

from . import data_io
from .estimate import (
    GaugeRule,
    estimate_rho,
    fit_vol_of_vol,
    fit_volatility,
    monte_carlo_validation,
)
from .model import FitResult
from .simulate import SEED_LIMIT, generate_synthetic_dataset

_SUBCOMMANDS = (*data_io._MODES, "help")


class _UsageError(Exception):
    pass


class _StageError(Exception):
    """A data or convergence error; its text is the stderr line ``error in <stage> stage: <error>``."""


@contextlib.contextmanager
def _stage(name: str):
    """Raise a ``ValueError`` or ``OSError`` from the block as the ``_StageError`` of stage ``name``."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _StageError(f"error in {name} stage: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the contract here
    # reserves 2 for data errors, so route usage failures through an
    # exception handled in run_cli.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="portvol", description=__doc__, add_help=False)
    parser.add_argument("command", nargs="?", choices=_SUBCOMMANDS)
    parser.add_argument("--config", help="path to the run config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--output", help="override the config output path")
    parser.add_argument("--verbose", action="store_true", help="print per-stage detail")
    return parser


def _print_fit(tag: str, fit: FitResult, names, verbose: bool) -> None:
    values = fit.params.as_array()
    for name, value in zip(names, values):
        print(f"{tag} {name}_hat = {value:.17g}")
    if verbose:
        print(f"{tag} converged = {fit.converged} after {fit.iterations} accepted steps")
        print(f"{tag} residual_norm = {fit.residual_norm:.17g}")
        if fit.diagnostics:
            print(f"{tag} diagnostics = {','.join(sorted(fit.diagnostics))}")


def _generate_and_write(cfg, path):
    """The configured dataset, generated and written to ``path``."""
    with _stage("generate"):
        data = generate_synthetic_dataset(cfg.generation.kind, cfg.generation, cfg.seed)
    with _stage("write"):
        data_io.write_dataset(data, path)
    return data


def _run_simulate(cfg, verbose: bool) -> None:
    data = _generate_and_write(cfg, cfg.output)
    print(f"wrote {data.n_rows} rows to {cfg.output}")


def _run_fits(cfg, verbose: bool) -> None:
    """``fit``, ``volvol`` and ``pipeline``: data in, the fits, one report and summary.

    Stage 1 runs unless ``volvol`` is given ``beta3_hat``; every mode but
    ``fit`` goes on to stage 2 and, with ``alpha_ratio``, to rho.
    """
    if cfg.mode == "pipeline":
        data = _generate_and_write(cfg, cfg.dataset_output)
        if verbose:
            print(f"dataset written to {cfg.dataset_output} ({data.n_rows} rows)")
    else:
        with _stage("read"):
            data = data_io.read_dataset(cfg.input)
    stage1 = None
    beta3_hat = cfg.beta3_hat
    if beta3_hat is None:
        with _stage("stage1 fit"):
            stage1 = fit_volatility(data)
        beta3_hat = stage1.params.beta3
    stage2 = gauge = rho = None
    if cfg.mode != "fit":
        with _stage("stage2 fit"):
            gauge = GaugeRule.from_stage1(cfg.gauge_variant, stage1)
            stage2 = fit_vol_of_vol(data, beta3_hat, gauge)
        if cfg.alpha_ratio is not None:
            # Config validation guarantees stage1 is present whenever
            # alpha_ratio is set (the inversion needs the fitted beta2).
            with _stage("rho"):
                rho = estimate_rho(stage1.params.beta2, stage2.params.beta4, cfg.alpha_ratio)
    with _stage("report"):
        data_io.write_report(cfg.output, stage1=stage1, stage2=stage2, gauge=gauge, rho=rho)
    if stage1 is not None:
        _print_fit("stage1", stage1, ("beta1", "beta2", "beta3"), verbose)
    if stage2 is not None:
        _print_fit("stage2", stage2, ("beta4", "beta5", "beta6"), verbose)
        print(f"stage2 gamma_hat = {stage2.params.beta4:.17g} (gauge {gauge.variant})")
    if rho is not None:
        print(f"rho_hat = {rho.rho_hat:.17g}")
    print(f"report written to {cfg.output}")
    for stage, fit in (("stage1 fit", stage1), ("stage2 fit", stage2)):
        if fit is not None and not fit.converged:
            with _stage(stage):
                raise ValueError(f"did not converge: {fit.message}")


def _run_validate(cfg, verbose: bool) -> None:
    with _stage("validate"):
        report = monte_carlo_validation(cfg.generation, cfg.replications, master_seed=cfg.seed)
    with _stage("report"):
        data_io.write_report(cfg.output, validation=report)
    print(f"validation: {report.n_converged}/{report.replications} converged")
    if verbose:
        failures = ", ".join(f"{reason} {count}" for reason, count in report.failures)
        print(f"validation failures = {failures or 'none'}")
    if report.bias is not None:
        print(f"validation bias_beta3 = {report.bias[2]:.17g}")
        print(f"validation rmse_beta3 = {report.rmse[2]:.17g}")
    print(f"report written to {cfg.output}")


# Every other mode runs the fits.
_RUNNERS = {"simulate": _run_simulate, "validate": _run_validate}


def run_cli(argv=None) -> int:
    """Parse arguments, run the requested subcommand, return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if args.command == "help":
            parser.print_help(sys.stdout)
            return 0
        if args.config is None:
            raise _UsageError("--config is required")
        with _stage("config"):
            cfg = data_io.parse_config(args.config)
            if cfg.mode != args.command:
                raise ValueError(f"config declares mode {cfg.mode!r} but subcommand is {args.command!r}")
        if args.seed is not None:
            if not 0 <= args.seed < SEED_LIMIT:
                raise _UsageError("--seed must be in [0, 2**64)")
            cfg = replace(cfg, seed=args.seed)
        if args.output is not None:
            cfg = replace(cfg, output=args.output)
        _RUNNERS.get(cfg.mode, _run_fits)(cfg, args.verbose)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_help(sys.stderr)
        return 1
    except _StageError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
