"""Replicated simulation benchmark: generate, fit, score against truth.

Replicate r uses seed ``base_seed + r`` so every run is reproducible and
individual replicates can be re-run in isolation.  Replicates are
independent and can be spread over a process pool; one record per
(replicate, method) is returned either way, with failures captured in the
record rather than aborting the run.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dlm import NIGPrior
from .selection import SearchGrid, _check_tau, fit_blfdyn, fit_blffix
from .simulate import gen_piecewise, gen_tvar2, gen_tvar6, gen_tvvar, true_spectrum
from .spectrum import ase, default_freq_grid, tvar_spectrum

__all__ = ["BenchmarkRecord", "run_benchmark", "summarize"]


def _gen_tvvar_demo(T: int, seed: int | None = None):
    """AR(1) at 0.9 with innovation variance exp(sin(2 pi t / T))."""
    t = np.arange(1, T + 1)
    return gen_tvvar(T, seed, np.exp(np.sin(2.0 * np.pi * t / T)),
                     np.full((T, 1), 0.9))


# Every process ``blf simulate`` and ``blf benchmark`` know, by name.
GENERATORS = {
    "tvar2": gen_tvar2,
    "tvar6": gen_tvar6,
    "piecewise": gen_piecewise,
    "tvvar": _gen_tvvar_demo,
}

FITTERS = {
    "blfdyn": fit_blfdyn,
    "blffix": fit_blffix,
}


@dataclass
class BenchmarkRecord:
    replicate: int
    seed: int
    method: str
    chosen_order: int | None
    ase: float | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _one_replicate(args) -> list[BenchmarkRecord]:
    process, replicate, seed, methods, T, grid, prior, tau, freq_step = args
    proc = GENERATORS[process](T, seed=seed)
    freqs = default_freq_grid(freq_step)
    truth = true_spectrum(proc, freqs)
    records = []
    for method in methods:
        try:
            report = FITTERS[method](proc.x, grid=grid, prior=prior, tau=tau)
            score = ase(tvar_spectrum(report.fit, freqs), truth)
            records.append(BenchmarkRecord(replicate, seed, method,
                                           report.chosen_order, score))
        except Exception as exc:  # recorded per replicate, run continues
            records.append(BenchmarkRecord(replicate, seed, method,
                                           None, None, error=str(exc)))
    return records


def run_benchmark(process: str, n: int, methods, T: int = 1024,
                  base_seed: int = 0, grid: SearchGrid | None = None,
                  prior: NIGPrior | None = None, tau: float = 0.5,
                  freq_step: float = 0.005, workers: int = 1,
                  ) -> list[BenchmarkRecord]:
    if process not in GENERATORS:
        raise ValueError(f"unknown process {process!r}; choose from {sorted(GENERATORS)}")
    methods = list(methods)
    if n < 1 or not methods:
        raise ValueError(f"need n >= 1 replicates and at least one method, "
                         f"got n={n} and methods={methods}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_tau(tau)
    for i, method in enumerate(methods):
        if method not in FITTERS:
            raise ValueError(f"unknown method {method!r}; choose from {sorted(FITTERS)}")
        if method in methods[:i]:
            raise ValueError(f"method {method!r} is listed more than once; "
                             "each method fits each replicate once")

    jobs = [
        (process, r, base_seed + r, methods, T, grid, prior, tau, freq_step)
        for r in range(n)
    ]
    records: list[BenchmarkRecord] = []
    if workers > 1:
        # spawn, not fork: forking a process whose BLAS pool holds threads
        # can leave a child waiting on a lock no thread will release.
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            for batch in pool.map(_one_replicate, jobs):
                records.extend(batch)
    else:
        for job in jobs:
            records.extend(_one_replicate(job))
    return records


def summarize(records) -> dict[str, dict]:
    """Per-method mean/sd of ASE over successful replicates plus the order
    histogram, shaped for side-by-side comparison with published tables."""
    out: dict[str, dict] = {}
    for method in sorted({r.method for r in records}):
        ok = [r for r in records if r.method == method and r.ok]
        bad = [r for r in records if r.method == method and not r.ok]
        scores = np.array([r.ase for r in ok])
        orders: dict[int, int] = {}
        for r in ok:
            orders[r.chosen_order] = orders.get(r.chosen_order, 0) + 1
        out[method] = {
            "n_ok": len(ok),
            "n_failed": len(bad),
            "mean_ase": float(scores.mean()) if len(ok) else None,
            "sd_ase": float(scores.std(ddof=1)) if len(ok) > 1 else None,
            "orders": dict(sorted(orders.items())),
        }
    return out
