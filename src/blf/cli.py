"""Command-line front end.

Subcommands: ``simulate`` (reference processes to CSV), ``fit`` (model a
single-column CSV series), ``benchmark`` (replicated simulation study) and
``version``.  All outputs are plot-ready CSV matrices or key-value text;
nothing is read from the environment.

File layouts are those of :mod:`blf.io`; posterior_sd.csv is the one
spectrogram written with linear cells (the standard deviation of the log
density).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import GENERATORS, run_benchmark, summarize
from .dlm import DiscountPair, NIGPrior, default_prior
from .io import (
    read_series_csv,
    write_fit_csv,
    write_replicates_csv,
    write_report,
    write_scree_csv,
    write_series_csv,
    write_spectrogram_csv,
    write_summary,
    write_truth_csv,
)
from .selection import SearchGrid, _check_tau, fit_blfdyn, fit_blffix, fit_fixed
from .simulate import true_spectrum
from .spectrum import default_freq_grid, spectrum_posterior, tvar_spectrum
from .tvar import path_sampler


def _grid_from_args(args) -> SearchGrid:
    lo, hi, step = args.grid_min, args.grid_max, args.grid_step
    if not (0 < lo <= hi <= 1 and 0 < step < np.inf):
        raise ValueError("grid bounds must satisfy 0 < min <= max <= 1 with step > 0")
    vals = np.round(np.arange(lo, hi + step / 2, step), 10)
    vals = tuple(vals[vals <= hi])  # the half step of slack can overshoot max
    return SearchGrid(gammas=vals, deltas=vals, p_max=args.p_max)


def _generator(seed: int) -> np.random.Generator:
    """The random generator of ``--seed``; a seed numpy refuses is named."""
    try:
        return np.random.default_rng(seed)
    except ValueError as exc:
        raise ValueError(f"--seed {seed}: {exc}") from None


def _prior_flags(args) -> dict:
    """The prior hyperparameters set on the command line, by field name."""
    given = {k: getattr(args, f"prior_{k}") for k in ("mu0", "c0", "v0", "kappa0")}
    return {k: v for k, v in given.items() if v is not None}


def _add_grid_args(p) -> None:
    p.add_argument("--grid-min", type=float, default=0.80,
                   help="smallest discount value in the search grid")
    p.add_argument("--grid-max", type=float, default=1.00,
                   help="largest discount value in the search grid")
    p.add_argument("--grid-step", type=float, default=0.02,
                   help="spacing of the discount grid")
    p.add_argument("--p-max", type=int, default=15,
                   help="maximum lattice order considered")
    p.add_argument("--tau", type=float, default=0.5,
                   help="percent-change threshold for the order rule")


def _add_prior_args(p) -> None:
    p.add_argument("--prior-mu0", type=float, default=None,
                   help="prior coefficient mean")
    p.add_argument("--prior-c0", type=float, default=None,
                   help="prior coefficient scale")
    p.add_argument("--prior-v0", type=float, default=None,
                   help="prior degrees of freedom")
    p.add_argument("--prior-kappa0", type=float, default=None,
                   help="prior precision scale (default: sample variance of "
                        "the initial signal segment)")


def cmd_simulate(args) -> int:
    _generator(args.seed)  # refuses a seed numpy refuses, naming --seed
    freqs = default_freq_grid(args.freq_step)
    proc = GENERATORS[args.process](args.T, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(out / "series.csv", proc.x)
    write_truth_csv(out / "truth.csv", proc.true_coeffs, proc.true_sigma2)
    write_spectrogram_csv(out / "truth_spectrogram.csv", true_spectrum(proc, freqs))
    print(f"wrote series.csv, truth.csv, truth_spectrogram.csv to {out}")
    return 0


def cmd_fit(args) -> int:
    if args.draws != 0 and args.draws < 2:
        raise ValueError(f"--draws must be 0 or >= 2, got {args.draws}")
    _check_tau(args.tau)
    given = [f for f in ("order", "gamma", "delta") if getattr(args, f) is not None]
    if args.method != "fixed" and given:
        raise ValueError(f"--{given[0]} applies only to --method fixed; --method "
                         f"{args.method} selects the order and discounts itself")
    freqs = default_freq_grid(args.freq_step)
    rng = _generator(args.seed)
    x = read_series_csv(args.input)
    grid = _grid_from_args(args)
    prior = replace(default_prior(x), **_prior_flags(args))

    if args.method == "blfdyn":
        report = fit_blfdyn(x, grid=grid, prior=prior, tau=args.tau)
    elif args.method == "blffix":
        report = fit_blffix(x, grid=grid, prior=prior, tau=args.tau)
    else:
        if args.order is None:
            raise ValueError("--method fixed requires --order")
        d = DiscountPair(*(1.0 if v is None else v for v in (args.gamma, args.delta)))
        report = fit_fixed(x, d, args.order, prior=prior)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "report.txt", report, args.tau)
    write_fit_csv(out / "coefficients.csv", out / "variance.csv", report.fit)
    write_scree_csv(out / "scree.csv", report)
    write_spectrogram_csv(out / "spectrogram.csv", tvar_spectrum(report.fit, freqs))

    if args.draws > 0:
        draw = path_sampler(report.run, report.chosen_order)
        mean, sd = spectrum_posterior(draw, args.draws, freqs, rng)
        write_spectrogram_csv(out / "posterior_mean.csv", mean)
        write_spectrogram_csv(out / "posterior_sd.csv", sd, log_cells=False)

    print(f"method={report.method} chosen_order={report.chosen_order} "
          f"saturated={report.saturated}")
    print(f"wrote fit outputs to {out}")
    return 0


def cmd_benchmark(args) -> int:
    _generator(args.seed)  # replicate r uses seed + r, so the base seed decides
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    grid = _grid_from_args(args)
    given = _prior_flags(args)
    if given and "kappa0" not in given:
        flags = ", ".join(f"--prior-{k}" for k in given)
        raise ValueError(f"{flags} set without --prior-kappa0; blf benchmark "
                         "takes each replicate's default prior from its own series")
    prior = NIGPrior(**given) if given else None
    records = run_benchmark(
        args.process, args.n, methods, T=args.T, base_seed=args.seed,
        grid=grid, prior=prior, tau=args.tau, freq_step=args.freq_step,
        workers=args.workers,
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_replicates_csv(out / "replicates.csv", records)
    print(write_summary(out / "summary.txt", summarize(records)), end="")

    if not any(r.ok for r in records):
        print("all replicates failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blf",
        description="Bayesian lattice filter for time-varying autoregression "
                    "and time-frequency analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a reference process")
    p_sim.add_argument("process", choices=sorted(GENERATORS))
    p_sim.add_argument("--T", type=int, default=1024, help="series length")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--freq-step", type=float, default=0.005)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a time-varying AR model to a CSV series")
    p_fit.add_argument("input", help="single-column CSV (optional header)")
    p_fit.add_argument("--method", choices=("blfdyn", "blffix", "fixed"),
                       default="blfdyn")
    p_fit.add_argument("--gamma", type=float, default=None,
                       help="coefficient discount (fixed method, default 1)")
    p_fit.add_argument("--delta", type=float, default=None,
                       help="variance discount (fixed method, default 1)")
    p_fit.add_argument("--order", type=int, default=None,
                       help="model order (fixed method)")
    _add_grid_args(p_fit)
    _add_prior_args(p_fit)
    p_fit.add_argument("--freq-step", type=float, default=0.005)
    p_fit.add_argument("--draws", type=int, default=0,
                       help="posterior draws for mean/sd spectral surfaces "
                            "(0 for none, else >= 2)")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out-dir", default=".")
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("benchmark", help="replicated simulation study")
    p_bench.add_argument("process", choices=sorted(GENERATORS))
    p_bench.add_argument("--n", type=int, default=20, help="replicate count")
    p_bench.add_argument("--methods", default="blfdyn,blffix",
                         help="comma-separated: blfdyn, blffix")
    p_bench.add_argument("--T", type=int, default=1024)
    p_bench.add_argument("--seed", type=int, default=0,
                         help="base seed; replicate r uses seed+r")
    _add_grid_args(p_bench)
    _add_prior_args(p_bench)
    p_bench.add_argument("--freq-step", type=float, default=0.005)
    p_bench.add_argument("--workers", type=int, default=1,
                         help="process pool size for replicates")
    p_bench.add_argument("--out-dir", default=".")
    p_bench.set_defaults(func=cmd_benchmark)

    p_ver = sub.add_parser("version", help="print version")
    p_ver.set_defaults(func=lambda args: print(__version__) or 0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
