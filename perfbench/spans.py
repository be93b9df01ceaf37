"""Spans, self time and summary statistics for the blf benchmark.

A traced run replaces names inside the ``blf`` modules with wrappers that
record a span per call (name, start, end, parent) plus integer counts
taken from the call's arguments and result.  Nothing here is imported by
the package; untraced runs never call :func:`instrumented`.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Percentiles considered for the tail figure; the highest one with at
# least ten samples beyond it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process, single-threaded use."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, self.clock(), parent=parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = self.clock()

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` recording a span per call.

        ``counter(bound_arguments, result)`` returns a dict of counts to
        attach to the span; it runs after the call, inside the span.
        """
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sp.counts.update(counter(bound.arguments, result))
                return result

        return traced


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        kids = [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(i, [])]
        out.append(sp.duration - covered([k for k in kids if k[1] > k[0]]))
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of every span below ``root`` (spans are in start order)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self time, call count and summed counts."""
    out: dict[str, dict] = {}
    for sp, st in zip(spans, self_times(spans)):
        agg = out.setdefault(sp.name, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += st
        agg["calls"] += 1
        for key, val in sp.counts.items():
            agg[key] = agg.get(key, 0) + val
    return out


def tail_percentile(n: int):
    """Highest of TAIL_PERCENTILES with at least ten of n samples above it.

    The p-th percentile of n sorted samples sits at rank ceil(p/100 * n);
    the samples beyond it number n minus that rank.  None when no
    percentile qualifies.
    """
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            return p
    return None


def _rank(p: float, n: int) -> int:
    """ceil(p/100 * n) in exact integer arithmetic (p has one decimal)."""
    return -(-round(p * 10) * n // 1000)


def timing_summary(samples) -> dict:
    """Median, tail percentile (if one qualifies) and sample count."""
    vals = np.asarray(samples, dtype=float)
    out = {"median": float(np.median(vals)) if vals.size else None,
           "n": int(vals.size), "tail_pct": None, "tail": None,
           "samples": vals.tolist()}
    p = tail_percentile(vals.size)
    if p is not None:
        out["tail_pct"] = p
        out["tail"] = float(np.sort(vals)[_rank(p, vals.size) - 1])
    return out


def ratio(num: float, base: float) -> float:
    """num / base, 0 for an empty base (the base is reported beside it)."""
    return float(num) / float(base) if base else 0.0


# ---------------------------------------------------------------------------
# Where each layer is called from.  The package binds names at import
# (``from .dlm import forward_filter``), so every binding a caller looks up
# is wrapped, not only the defining module's attribute.

def _cells(args, result):
    return {"cells": int(result.mu.size)}


def _smooth_counts(args, result):
    return {"cells": int(result.mu.size),
            "columns": int(np.prod(result.mu.shape[1:], dtype=int))}


def _sample_cells(args, result):
    return {"cells": int(result[0].size)}


def _fit_counts(args, result):
    return {"order": int(result.chosen_order),
            "stages": int(result.run.order),
            "scree_len": int(len(result.scree))}


def _tvar_spectrum_cells(args, result):
    return {"cells": int(result.values.size)}


COMPLEX_BYTES = 16  # one complex128 transfer value per (draw, t, freq) cell


def _posterior_counts(args, result):
    n_draws = int(args["n_draws"])
    TL = int(result[0].values.size)
    return {"cells": n_draws * TL,
            "bytes_computed": n_draws * TL * COMPLEX_BYTES,
            "chunk_bytes": min(int(args["chunk"]), n_draws) * TL * COMPLEX_BYTES}


def _written(*names):
    def count(args, result):
        return {"bytes_written": sum(os.path.getsize(args[n]) for n in names)}
    return count


# (module, attribute, span name, counter)
SITES = [
    ("lattice", "forward_filter", "dlm.forward_filter", _cells),
    ("selection", "forward_filter", "dlm.forward_filter", _cells),
    ("lattice", "backward_smooth", "dlm.backward_smooth", _smooth_counts),
    ("lattice", "predictive_loglik", "dlm.predictive_loglik", None),
    ("selection", "predictive_loglik", "dlm.predictive_loglik", None),
    ("tvar", "backward_sample", "dlm.backward_sample", _sample_cells),
    ("lattice", "run_stage", "lattice.run_stage", None),
    ("selection", "run_stage", "lattice.run_stage", None),
    ("selection", "run_lattice", "lattice.run_lattice", None),
    ("selection", "fit_fixed", "selection.fit_fixed", _fit_counts),
    ("cli", "fit_blfdyn", "selection.fit_blfdyn", _fit_counts),
    ("cli", "fit_blffix", "selection.fit_blffix", _fit_counts),
    ("cli", "fit_fixed", "selection.fit_fixed", _fit_counts),
    ("selection", "assemble_fit", "tvar.assemble_fit", None),
    ("tvar", "parcor_to_tvar", "tvar.parcor_to_tvar", None),
    ("spectrum", "spectrum_posterior", "spectrum.spectrum_posterior", _posterior_counts),
    ("cli", "spectrum_posterior", "spectrum.spectrum_posterior", _posterior_counts),
    ("spectrum", "tvar_spectrum", "spectrum.tvar_spectrum", _tvar_spectrum_cells),
    ("cli", "tvar_spectrum", "spectrum.tvar_spectrum", _tvar_spectrum_cells),
    ("bench", "tvar_spectrum", "spectrum.tvar_spectrum", _tvar_spectrum_cells),
    ("simulate", "tvar_spectrum", "spectrum.tvar_spectrum", _tvar_spectrum_cells),
    ("spectrum", "ase", "spectrum.ase", None),
    ("bench", "ase", "spectrum.ase", None),
    ("cli", "read_series_csv", "io.read_series_csv", None),
    ("cli", "write_spectrogram_csv", "io.write_spectrogram_csv", _written("path")),
    ("cli", "write_report", "io.write_other", _written("path")),
    ("cli", "write_fit_csv", "io.write_other", _written("coeffs_path", "variance_path")),
    ("cli", "write_scree_csv", "io.write_other", _written("path")),
    ("bench", "true_spectrum", "simulate.true_spectrum", None),
    ("cli", "true_spectrum", "simulate.true_spectrum", None),
    ("bench", "run_benchmark", "bench.run_benchmark", None),
    ("cli", "main", "cli.main", None),
]

# Registries read at call time: patching the module attribute misses them.
DICT_SITES = [
    ("bench", "FITTERS", {"blfdyn": "selection.fit_blfdyn",
                          "blffix": "selection.fit_blffix"}, _fit_counts),
    ("bench", "GENERATORS", {"tvar2": "simulate.gen", "tvar6": "simulate.gen",
                             "piecewise": "simulate.gen"}, None),
]

# path_sampler returns the draw callable; the wrapper wraps what it returns
SAMPLER_SITES = [("tvar", "path_sampler"), ("cli", "path_sampler")]
DRAW_SPAN = "tvar.draw"

SPAN_NAMES = list(dict.fromkeys(
    [name for _, _, name, _ in SITES]
    + [name for _, _, names, _ in DICT_SITES for name in names.values()]
    + [DRAW_SPAN]))


@contextmanager
def instrumented(blf, tracer: Tracer):
    """Wrap every site in SITES, DICT_SITES and SAMPLER_SITES; undo on exit."""
    undo = []

    def patch(obj, key, value, is_dict):
        old = obj[key] if is_dict else getattr(obj, key)
        undo.append((obj, key, old, is_dict))
        if is_dict:
            obj[key] = value
        else:
            setattr(obj, key, value)
        return old

    def sampler(fn):
        @functools.wraps(fn)
        def traced_path_sampler(*args, **kwargs):
            return tracer.wrap(DRAW_SPAN, fn(*args, **kwargs))
        return traced_path_sampler

    try:
        for mod, attr, name, counter in SITES:
            m = getattr(blf, mod)
            patch(m, attr, tracer.wrap(name, getattr(m, attr), counter), False)
        for mod, attr, names, counter in DICT_SITES:
            table = getattr(getattr(blf, mod), attr)
            for key, name in names.items():
                patch(table, key, tracer.wrap(name, table[key], counter), True)
        for mod, attr in SAMPLER_SITES:
            m = getattr(blf, mod)
            patch(m, attr, sampler(getattr(m, attr)), False)
        yield tracer
    finally:
        for obj, key, old, is_dict in reversed(undo):
            if is_dict:
                obj[key] = old
            else:
                setattr(obj, key, old)
