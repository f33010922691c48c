"""Command-line entry point.

Subcommands: ``simulate``, ``fit``, ``volvol``, ``validate``,
``pipeline``, ``help``.  Runs are defined by a config file; the only
flags are ``--config``, ``--seed``, ``--output`` and ``--verbose``
(flag overrides win over config values).  Exit status: 0 success,
1 usage error, 2 data or convergence error.  The stdout summary is
informational; machine consumers should read the report file.
"""

from __future__ import annotations

import argparse
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


def _stage_error(stage: str, exc: Exception) -> int:
    print(f"error in {stage} stage: {exc}", file=sys.stderr)
    return 2


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
    """``(dataset, 0)`` once the configured dataset is generated and written to ``path``, else ``(None, status)``."""
    try:
        data = generate_synthetic_dataset(cfg.generation.kind, cfg.generation, cfg.seed)
    except ValueError as exc:
        return None, _stage_error("generate", exc)
    try:
        data_io.write_dataset(data, path)
    except OSError as exc:
        return None, _stage_error("write", exc)
    return data, 0


def _run_simulate(cfg, verbose: bool) -> int:
    data, status = _generate_and_write(cfg, cfg.output)
    if data is not None:
        print(f"wrote {data.n_rows} rows to {cfg.output}")
    return status


def _run_fits(cfg, verbose: bool) -> int:
    """``fit``, ``volvol`` and ``pipeline``: data in, the fits, one report and summary.

    Stage 1 runs unless ``volvol`` is given ``beta3_hat``; every mode but
    ``fit`` goes on to stage 2 and, with ``alpha_ratio``, to rho.
    """
    if cfg.mode == "pipeline":
        data, status = _generate_and_write(cfg, cfg.dataset_output)
        if data is None:
            return status
        if verbose:
            print(f"dataset written to {cfg.dataset_output} ({data.n_rows} rows)")
    else:
        try:
            data = data_io.read_dataset(cfg.input)
        except (ValueError, OSError) as exc:
            return _stage_error("read", exc)
    stage1 = None
    beta3_hat = cfg.beta3_hat
    if beta3_hat is None:
        try:
            stage1 = fit_volatility(data)
        except ValueError as exc:
            return _stage_error("stage1 fit", exc)
        beta3_hat = stage1.params.beta3
    stage2 = gauge = rho = None
    if cfg.mode != "fit":
        try:
            gauge = GaugeRule.from_stage1(cfg.gauge_variant, stage1)
            stage2 = fit_vol_of_vol(data, beta3_hat, gauge)
        except ValueError as exc:
            return _stage_error("stage2 fit", exc)
        if cfg.alpha_ratio is not None:
            # Config validation guarantees stage1 is present whenever
            # alpha_ratio is set (the inversion needs the fitted beta2).
            try:
                rho = estimate_rho(stage1.params.beta2, stage2.params.beta4, cfg.alpha_ratio)
            except ValueError as exc:
                return _stage_error("rho", exc)
    try:
        data_io.write_report(cfg.output, stage1=stage1, stage2=stage2, gauge=gauge, rho=rho)
    except OSError as exc:
        return _stage_error("report", exc)
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
            return _stage_error(stage, ValueError(f"did not converge: {fit.message}"))
    return 0


def _run_validate(cfg, verbose: bool) -> int:
    try:
        report = monte_carlo_validation(
            cfg.generation, cfg.replications, master_seed=cfg.seed
        )
    except ValueError as exc:
        return _stage_error("validate", exc)
    try:
        data_io.write_report(cfg.output, validation=report)
    except OSError as exc:
        return _stage_error("report", exc)
    print(f"validation: {report.n_converged}/{report.replications} converged")
    if report.bias is not None:
        print(f"validation bias_beta3 = {report.bias[2]:.17g}")
        print(f"validation rmse_beta3 = {report.rmse[2]:.17g}")
    print(f"report written to {cfg.output}")
    return 0


# Every other mode runs the fits.
_RUNNERS = {"simulate": _run_simulate, "validate": _run_validate}


def run_cli(argv=None) -> int:
    """Parse arguments, run the requested subcommand, return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_help(sys.stderr)
        return 1
    if args.command is None:
        print("usage error: a subcommand is required", file=sys.stderr)
        parser.print_help(sys.stderr)
        return 1
    if args.command == "help":
        parser.print_help(sys.stdout)
        return 0
    if args.config is None:
        print("usage error: --config is required", file=sys.stderr)
        parser.print_help(sys.stderr)
        return 1
    try:
        cfg = data_io.parse_config(args.config)
    except (ValueError, OSError) as exc:
        return _stage_error("config", exc)
    if cfg.mode != args.command:
        return _stage_error(
            "config",
            ValueError(f"config declares mode {cfg.mode!r} but subcommand is {args.command!r}"),
        )
    if args.seed is not None:
        if not 0 <= args.seed < SEED_LIMIT:
            print("usage error: --seed must be in [0, 2**64)", file=sys.stderr)
            parser.print_help(sys.stderr)
            return 1
        cfg = replace(cfg, seed=args.seed)
    if args.output is not None:
        cfg = replace(cfg, output=args.output)
    return _RUNNERS.get(cfg.mode, _run_fits)(cfg, args.verbose)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
