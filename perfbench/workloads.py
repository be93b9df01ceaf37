"""The blf benchmark's workloads and their output checks.

Each workload drives the package only through public functions and the
CLI.  ``setup`` makes the inputs (and the references the checks need)
from the seed, untimed; ``op`` runs one timed operation; ``check`` records
whether its outputs are right.  Every call into the package goes through a
module attribute looked up at call time, so a traced run sees it.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import SPAN_NAMES, Tracer, aggregate, descendants, ratio

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
DEFAULT_SEED = 0

CLI_OUTPUTS = ("report.txt", "coefficients.csv", "variance.csv", "scree.csv",
               "spectrogram.csv", "posterior_mean.csv", "posterior_sd.csv")


class Checks:
    """Attempted and failed operations and checks, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


class Workload:
    name = ""
    in_process = True  # False: untraced operations run in a child process

    def __init__(self, blf, seed: int, work_dir: Path):
        self.blf = blf
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        pass

    def op(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict, first: dict | None, checks: Checks) -> None:
        raise NotImplementedError

    def details(self, outs: list[dict]) -> dict:
        return {}


class CliFitTvar2(Workload):
    """``blf fit series.csv --method blfdyn --draws 2000`` on a TVAR2 series."""

    name = "cli_fit_tvar2"
    in_process = False

    def __init__(self, blf, seed, work_dir, T=1024, draws=2000):
        super().__init__(blf, seed, work_dir)
        self.T, self.draws = T, draws
        self.series = work_dir / "series.csv"
        self.out_dir = work_dir / "cli_out"

    def argv(self) -> list[str]:
        return (["fit", str(self.series), "--method", "blfdyn",
                 "--draws", str(self.draws), "--seed", str(self.seed),
                 "--out-dir", str(self.out_dir)])

    def setup(self):
        blf = self.blf
        x = blf.simulate.gen_tvar2(self.T, seed=self.seed).x
        blf.io.write_series_csv(self.series, x)
        # in-process plug-in surface of the same fit, for the bitwise check;
        # the CLI's default grid, prior, tau and frequency step are the
        # library defaults
        report = blf.selection.fit_blfdyn(blf.io.read_series_csv(self.series))
        freqs = blf.spectrum.default_freq_grid()
        self.ref_order = report.chosen_order
        self.ref_log = np.log(blf.spectrum.tvar_spectrum(report.fit, freqs).values)

    def _clear(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for name in CLI_OUTPUTS:
            (self.out_dir / name).unlink(missing_ok=True)

    def op(self) -> dict:
        self._clear()
        if self.in_process:
            sink = _io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.blf.cli.main(self.argv())
            wall = time.perf_counter() - t0
            return {"wall_s": wall, "exit": code, "log": sink.getvalue()}
        src = Path(self.blf.__file__).resolve().parents[1]
        log = self.work_dir / "cli_log.txt"
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "blf.cli"] + self.argv(),
                                    stdout=fh, stderr=subprocess.STDOUT,
                                    env=dict(os.environ, PYTHONPATH=str(src)))
            # wait4, not wait: the child's own peak RSS comes with it
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        return {"wall_s": wall, "exit": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024.0, "log": log.read_text()}

    def check(self, out, first, checks):
        if not checks.expect(out["exit"] == 0,
                             f"blf fit exited {out['exit']}: {out['log'][-400:]}"):
            return
        missing = [n for n in CLI_OUTPUTS if not (self.out_dir / n).is_file()]
        if not checks.expect(not missing, f"missing CLI outputs {missing}"):
            return
        spg = self.blf.io.read_spectrogram_csv(self.out_dir / "spectrogram.csv",
                                               log_cells=False)
        checks.expect(spg.values.shape == self.ref_log.shape
                      and np.array_equal(spg.values, self.ref_log),
                      "spectrogram.csv differs from the in-process plug-in surface")
        checks.expect(f"chosen_order={self.ref_order}" in out["log"],
                      f"CLI order differs from in-process order {self.ref_order}")

    def details(self, outs):
        walls = [o["wall_s"] for o in outs]
        return {"draws_per_s": (self.draws / float(np.median(walls)), "1/s")}


class SearchSweep(Workload):
    """``bench.run_benchmark`` serially over three processes and two methods."""

    name = "search_sweep"
    PROCESSES = ("tvar2", "tvar6", "piecewise")
    METHODS = ("blfdyn", "blffix")

    def __init__(self, blf, seed, work_dir, T=1024):
        super().__init__(blf, seed, work_dir)
        self.T = T

    def op(self) -> dict:
        fits = []
        t0 = time.perf_counter()
        for process in self.PROCESSES:
            for method in self.METHODS:
                t = time.perf_counter()
                records = self.blf.bench.run_benchmark(
                    process, 1, [method], T=self.T, base_seed=self.seed, workers=1)
                fits.append((process, method, time.perf_counter() - t, records[0]))
        return {"wall_s": time.perf_counter() - t0, "fits": fits}

    def check(self, out, first, checks):
        p_max = self.blf.selection.SearchGrid().p_max
        for process, method, _, rec in out["fits"]:
            tag = f"{process}/{method}"
            if not checks.expect(rec.ok, f"{tag} failed: {rec.error}"):
                continue
            checks.expect(1 <= rec.chosen_order <= p_max and math.isfinite(rec.ase)
                          and rec.ase > 0, f"{tag}: order {rec.chosen_order}, ase {rec.ase}")
        if first is not None:
            checks.expect(_fit_key(out) == _fit_key(first),
                          "repeated sweep gave different orders or ASE")
        if self.seed == DEFAULT_SEED and self.T == 1024:
            ref = REFERENCE["search_sweep"]
            orders = {f"{p}/{m}": r.chosen_order for p, m, _, r in out["fits"]}
            checks.expect(orders == ref["orders"],
                          f"orders {orders} differ from the reference {ref['orders']}")
            got = _ase_mean(out)
            checks.expect(got is not None
                          and abs(got / ref["ase_mean"] - 1.0) <= ref["ase_rel_tol"],
                          f"ase_mean {got} differs from the reference {ref['ase_mean']}")

    def details(self, outs):
        times = {m: [f[2] for o in outs for f in o["fits"] if f[1] == m]
                 for m in self.METHODS}
        n_fits = sum(len(o["fits"]) for o in outs)
        wall = sum(o["wall_s"] for o in outs)
        out = {"fits_per_s": (n_fits / wall, "1/s"),
               "fit_s": (float(np.median(times["blfdyn"] + times["blffix"])), "s"),
               "ase_mean": (_ase_mean(outs[0]), "log^2")}
        for m in self.METHODS:
            out[f"fit_s.{m}"] = (float(np.median(times[m])), "s")
        return out


def _fit_key(out):
    return [(p, m, r.chosen_order, r.ase) for p, m, _, r in out["fits"]]


def _ase_mean(out):
    scores = [r.ase for _, _, _, r in out["fits"] if r.ok]
    return float(np.mean(scores)) if scores else None


class PosteriorLong(Workload):
    """Fixed-pair order-6 fit of a long TVAR6 series, then posterior surfaces."""

    name = "posterior_long"
    GAMMA = DELTA = 0.98
    ORDER = 6

    def __init__(self, blf, seed, work_dir, T=4096, draws=256):
        super().__init__(blf, seed, work_dir)
        self.T, self.draws = T, draws

    def setup(self):
        blf = self.blf
        proc = blf.simulate.gen_tvar6(self.T, seed=self.seed)
        self.x = proc.x
        self.freqs = blf.spectrum.default_freq_grid()
        self.truth = blf.simulate.true_spectrum(proc, self.freqs)

    def op(self) -> dict:
        blf = self.blf
        t0 = time.perf_counter()
        report = blf.selection.fit_fixed(
            self.x, blf.dlm.DiscountPair(self.GAMMA, self.DELTA), self.ORDER)
        t1 = time.perf_counter()
        draw = blf.tvar.path_sampler(report.run, self.ORDER)
        mean, sd = blf.spectrum.spectrum_posterior(
            draw, self.draws, self.freqs, np.random.default_rng(self.seed))
        t2 = time.perf_counter()
        post_ase = blf.spectrum.ase(mean, self.truth)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "fit_s": t1 - t0, "posterior_s": t2 - t1,
                "post_ase": post_ase, "mean": mean.values, "sd": sd.values}

    def check(self, out, first, checks):
        sd, mean = out["sd"], out["mean"]
        checks.expect(bool(np.all(np.isfinite(sd)) and np.all(sd >= 0)),
                      "posterior sd surface not finite and >= 0")
        checks.expect(bool(np.all(np.isfinite(mean)) and np.all(mean > 0)),
                      "posterior mean surface not finite and > 0")
        checks.expect(math.isfinite(out["post_ase"]), f"post_ase {out['post_ase']}")
        if first is not None:
            checks.expect(out["post_ase"] == first["post_ase"]
                          and np.array_equal(sd, first["sd"]),
                          "repeated posterior with the same seed differs")
        if self.seed == DEFAULT_SEED and self.T == 4096 and self.draws == 256:
            ref = REFERENCE["posterior_long"]
            checks.expect(abs(out["post_ase"] / ref["post_ase"] - 1.0) <= ref["band"],
                          f"post_ase {out['post_ase']} outside the band "
                          f"{ref['band']} of the reference {ref['post_ase']}")

    def details(self, outs):
        post = float(np.median([o["posterior_s"] for o in outs]))
        return {"draws_per_s": (self.draws / post, "1/s"),
                "fit_s": (float(np.median([o["fit_s"] for o in outs])), "s"),
                "post_ase": (outs[0]["post_ase"], "log^2")}


WORKLOADS = {w.name: w for w in (CliFitTvar2, SearchSweep, PosteriorLong)}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced operation

LAYER_CALLS = ["dlm.forward_filter", "dlm.backward_smooth", "dlm.backward_sample",
               "lattice.run_stage", "lattice.run_lattice", "tvar.parcor_to_tvar"]
LAYER_CELLS = ["dlm.forward_filter", "dlm.backward_smooth", "dlm.backward_sample"]
ROOT_SPAN = "perfbench.op"


def selection_ratios(spans) -> dict:
    """Smoothed-column and stage use over every fit span.

    A fit needs one forward and one backward smoothed column per lattice
    stage that its output or its search reads: stages 1..order for the
    final model, and for the greedy blfdyn search also stages
    1..p_max-1, whose smoothed residuals feed the next stage's score.
    Computed columns are every ``backward_smooth`` column under the fit.
    """
    needed = computed = chosen = stages = 0
    for i, sp in enumerate(spans):
        if not sp.name.startswith("selection.fit_") or "order" not in sp.counts:
            continue
        order, scree_len = sp.counts["order"], sp.counts["scree_len"]
        span_stages = max(order, scree_len - 1) if sp.name.endswith("blfdyn") else order
        needed += 2 * span_stages
        computed += sum(spans[j].counts.get("columns", 0)
                        for j in descendants(spans, i)
                        if spans[j].name == "dlm.backward_smooth")
        chosen += order
        stages += sp.counts["stages"]
    return {
        "selection.smoothed_use_ratio": (ratio(needed, computed), "ratio"),
        "selection.smoothed_columns_computed": (computed, "count"),
        "selection.stage_use_ratio": (ratio(chosen, stages), "ratio"),
        "selection.final_lattice_stages": (stages, "count"),
    }


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(self times, exact counts) of one traced op whose root is ROOT_SPAN."""
    agg = aggregate(tracer.spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    times = {f"{n}.self_s": (float(get(n, "self_s")), "s") for n in SPAN_NAMES}
    root = tracer.spans[0]
    times["trace.wall_s"] = (root.duration, "s")
    times["trace.harness_self_s"] = (float(get(ROOT_SPAN, "self_s")), "s")
    layer_self = sum(v for k, (v, _) in times.items()
                     if k.endswith(".self_s") and k != "trace.harness_self_s")
    times["trace.attributed_frac"] = (ratio(layer_self, root.duration), "ratio")

    counts = {f"{n}.calls": (get(n, "calls"), "count") for n in LAYER_CALLS}
    counts.update({f"{n}.cells": (get(n, "cells"), "count") for n in LAYER_CELLS})
    counts["spectrum.cells"] = (get("spectrum.spectrum_posterior", "cells"), "count")
    counts["spectrum.tvar_spectrum.cells"] = (get("spectrum.tvar_spectrum", "cells"), "count")
    counts["spectrum.bytes_computed"] = (get("spectrum.spectrum_posterior", "bytes_computed"), "B")
    chunk = [sp.counts["chunk_bytes"] for sp in tracer.spans if "chunk_bytes" in sp.counts]
    counts["spectrum.chunk_bytes_max"] = (max(chunk, default=0), "B")
    counts["io.bytes_written"] = (sum(get(n, "bytes_written") for n in
                                      ("io.write_spectrogram_csv", "io.write_other")), "B")
    counts.update(selection_ratios(tracer.spans))
    return times, counts
