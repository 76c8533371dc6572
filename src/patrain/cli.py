"""Command-line front end writing experiment results as CSV files.

Exit codes: 0 success, 2 usage error, 3 numerical error (rank or conditioning,
noise variance, invalid prior), 4 I/O or CSV format error.
"""

import argparse
import math
import sys

from . import experiments
from .errors import (
    CsvFormatError,
    DimensionMismatchError,
    IllConditionedBasisError,
    InvalidNoiseError,
    InvalidPriorError,
    NonFiniteInputError,
    PilotAllocationError,
    RankDeficiencyError,
)
from .prior import MAX_FIT_GRID_POINTS, default_fit_grid, load_prior

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _parse_snr_list(text: str):
    try:
        values = [float(item) for item in text.split(",") if item.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid SNR list: {text!r}")
    if not all(math.isfinite(value) for value in values):
        raise argparse.ArgumentTypeError(f"SNR points must be finite: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrain",
        description="Pilot training design and PA model estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order, pilots=None):
        p.add_argument("--order", type=int, default=order, help="polynomial model order")
        if pilots is not None:
            p.add_argument("--pilots", type=int, default=pilots, help="number of training pilots")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    p_fig1 = sub.add_parser("fig1", help="reconstruction MSE curves, uniform vs optimal")
    add_common(p_fig1, order=5, pilots=5)
    p_fig1.add_argument("--sigma2", type=float, default=1.0, help="noise variance")
    p_fig1.set_defaults(func=_cmd_fig1)

    p_fig2 = sub.add_parser("fig2", help="maximal-MSE gain ratio per model order")
    add_common(p_fig2, order=8)
    p_fig2.set_defaults(func=_cmd_fig2)

    p_fig3 = sub.add_parser("fig3", help="random Rapp response statistics and fit")
    add_common(p_fig3, order=7)
    p_fig3.add_argument("--realizations", type=int, default=100)
    p_fig3.add_argument("--seed", type=int, default=0)
    _add_grid_flags(p_fig3)
    p_fig3.set_defaults(func=_cmd_fig3)

    p_fig4 = sub.add_parser("fig4", help="maximal MSE against SNR for all estimators")
    add_common(p_fig4, order=7, pilots=7)
    p_fig4.add_argument(
        "--snr-db-list",
        type=_parse_snr_list,
        default=list(experiments.DEFAULT_SNR_SWEEP_DB),
        help="comma-separated SNR points in dB",
    )
    p_fig4.add_argument(
        "--snr-convention",
        choices=[experiments.PER_SYMBOL, experiments.TOTAL],
        default=experiments.PER_SYMBOL,
    )
    p_fig4.add_argument("--realizations", type=int, default=100)
    p_fig4.add_argument("--seed", type=int, default=0)
    _add_grid_flags(p_fig4)
    p_fig4.set_defaults(func=_cmd_fig4)

    p_design = sub.add_parser("design", help="emit a pilot sequence")
    add_common(p_design, order=5, pilots=5)
    p_design.add_argument("--max-amplitude", type=float, default=1.0)
    p_design.add_argument(
        "--allocation", choices=["uniform", "optimal"], default="optimal",
        help="pilot allocation to emit",
    )
    p_design.set_defaults(func=_cmd_design)

    p_est = sub.add_parser("estimate", help="estimate coefficients from CSV data")
    p_est.add_argument("pilot_csv", help="pilot file with header index,amp,phase")
    p_est.add_argument("observation_csv", help="observation file with header index,re,im")
    p_est.add_argument("--order", type=int, required=True)
    p_est.add_argument("--sigma2", type=float, required=True)
    p_est.add_argument(
        "--estimator", choices=["ls", "lmmse"], default=None,
        help="estimator to run (default: ls, or lmmse when a prior is given)",
    )
    p_est.add_argument("--prior-mean", default=None, help="prior mean CSV (with --prior-cov)")
    p_est.add_argument("--prior-cov", default=None, help="prior covariance CSV")
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=_cmd_estimate)

    return parser


def _add_grid_flags(p) -> None:
    p.add_argument("--fit-grid-max", type=float, default=1.5, help="fit grid upper end")
    p.add_argument("--fit-grid-step", type=float, default=0.0625, help="fit grid spacing")


def _fit_grid(args):
    if not (0 < args.fit_grid_max < math.inf and 0 < args.fit_grid_step < math.inf):
        raise _UsageError("fit grid bounds must be positive and finite")
    # Count the points the way default_fit_grid does, before it allocates them.
    ratio = args.fit_grid_max / args.fit_grid_step
    points = round(ratio) + 1 if math.isfinite(ratio) else math.inf
    if points > MAX_FIT_GRID_POINTS:
        raise _UsageError(f"fit grid would have {points} points; at most {MAX_FIT_GRID_POINTS} are allowed")
    return default_fit_grid(args.fit_grid_max, args.fit_grid_step)


class _UsageError(Exception):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _emit(table: experiments.CsvTable, out_path) -> int:
    if out_path is None:
        sys.stdout.write(table.to_csv())
    else:
        table.write(out_path)
    return 0


def _cmd_fig1(args) -> int:
    _check(args.order >= 1 and args.pilots >= 1, "order and pilots must be positive")
    _check(args.sigma2 > 0, "sigma2 must be positive")
    return _emit(experiments.run_fig1(args.order, args.pilots, args.sigma2), args.out)


def _cmd_fig2(args) -> int:
    _check(args.order >= 1, "order must be positive")
    return _emit(experiments.run_fig2(args.order), args.out)


def _cmd_fig3(args) -> int:
    _check(args.order >= 1 and args.realizations >= 1, "order and realizations must be positive")
    table = experiments.run_fig3(args.realizations, args.order, args.seed, _fit_grid(args))
    return _emit(table, args.out)


def _cmd_fig4(args) -> int:
    _check(args.order >= 1 and args.pilots >= 1, "order and pilots must be positive")
    _check(args.realizations >= 1, "realizations must be positive")
    _check(len(args.snr_db_list) >= 1, "need at least one SNR point")
    table = experiments.run_fig4(
        args.order,
        args.pilots,
        args.snr_db_list,
        args.snr_convention,
        args.realizations,
        args.seed,
        _fit_grid(args),
    )
    return _emit(table, args.out)


def _cmd_design(args) -> int:
    _check(args.order >= 1 and args.pilots >= 1, "order and pilots must be positive")
    _check(0 < args.max_amplitude < math.inf, "max amplitude must be positive and finite")
    table = experiments.design_table(
        args.order, args.pilots, args.max_amplitude, args.allocation
    )
    return _emit(table, args.out)


def _cmd_estimate(args) -> int:
    _check(args.order >= 1, "order must be positive")
    _check(args.sigma2 > 0, "sigma2 must be positive")
    _check(
        (args.prior_mean is None) == (args.prior_cov is None),
        "--prior-mean and --prior-cov must be given together",
    )
    has_prior = args.prior_mean is not None
    if args.estimator is not None:
        _check(
            (args.estimator == "ls") != has_prior,
            "ls takes no prior files; lmmse requires them",
        )
    pilots = experiments.read_pilot_csv(args.pilot_csv)
    observations = experiments.read_observation_csv(args.observation_csv)
    prior = load_prior(args.prior_mean, args.prior_cov) if has_prior else None
    result = experiments.estimate_from_files(pilots, observations, args.order, args.sigma2, prior)
    return _emit(experiments.estimation_table(result), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, PilotAllocationError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        RankDeficiencyError, IllConditionedBasisError, InvalidNoiseError, InvalidPriorError, NonFiniteInputError
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CsvFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
