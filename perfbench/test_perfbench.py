"""Tests of the benchmark's own arithmetic and of its traced counts.

Run from the repository root with ``python -m pytest -q perfbench``.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Span, Tracer, aggregate, instrumented, self_times, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    ROOT_SPAN, Checks, CliFitTvar2, PosteriorLong, SearchSweep, layer_metrics,
    selection_ratios,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_nested_and_sibling_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("root"):
        clock.now = 1.0
        with tr.span("a"):
            clock.now = 2.0
            with tr.span("a.inner"):
                clock.now = 2.5
            clock.now = 4.0
        with tr.span("b"):
            clock.now = 7.0
        clock.now = 10.0
    # root 10 s, children a (3 s) and b (3 s); a holds a 0.5 s child
    assert self_times(tr.spans) == [4.0, 2.5, 0.5, 3.0]
    agg = aggregate(tr.spans)
    assert sum(v["self_s"] for v in agg.values()) == 10.0
    assert [sp.parent for sp in tr.spans] == [-1, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0), Span("c1", 1.0, 5.0, parent=0),
             Span("c2", 3.0, 6.0, parent=0), Span("c3", 9.0, 12.0, parent=0)]
    # union of children inside the parent: [1, 6] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_aggregate_sums_calls_and_counts():
    spans = [Span("f", 0.0, 1.0, counts={"cells": 3}),
             Span("f", 1.0, 3.0, counts={"cells": 4}), Span("g", 3.0, 4.0)]
    agg = aggregate(spans)
    assert agg["f"] == {"self_s": 3.0, "calls": 2, "cells": 7}
    assert agg["g"] == {"self_s": 1.0, "calls": 1}


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert tail_percentile(n) == expected


def _fit_span(name, order, scree_len, stages, smooth_columns):
    spans = [Span(name, 0.0, 1.0, counts={"order": order, "scree_len": scree_len,
                                           "stages": stages})]
    spans += [Span("dlm.backward_smooth", 0.0, 0.1, parent=0,
                   counts={"columns": c}) for c in smooth_columns]
    return spans


def test_selection_ratio_bases():
    # blfdyn, p_max 3, G 4: search smooths 2x4 columns per stage, the final
    # lattice 2 per stage; the search needs stages 1..2, the model 1..1
    spans = _fit_span("selection.fit_blfdyn", 1, 3, 3, [4] * 6 + [1] * 6)
    got = selection_ratios(spans)
    assert got["selection.smoothed_columns_computed"] == (30, "count")
    assert got["selection.smoothed_use_ratio"] == (4 / 30, "ratio")
    assert got["selection.final_lattice_stages"] == (3, "count")
    assert got["selection.stage_use_ratio"] == (1 / 3, "ratio")

    # blffix scores without smoothing: only the order-2 model's stages count
    fix = _fit_span("selection.fit_blffix", 2, 3, 3, [1] * 6)
    offset = len(spans)
    for sp in fix[1:]:
        sp.parent = offset
    got = selection_ratios(spans + fix)
    assert got["selection.smoothed_columns_computed"] == (36, "count")
    assert got["selection.smoothed_use_ratio"] == ((4 + 4) / 36, "ratio")
    assert got["selection.stage_use_ratio"] == (3 / 6, "ratio")


def test_selection_ratio_without_fits_reports_empty_base():
    got = selection_ratios([Span("other", 0.0, 1.0)])
    assert got["selection.smoothed_use_ratio"] == (0.0, "ratio")
    assert got["selection.smoothed_columns_computed"] == (0, "count")


@pytest.fixture(scope="module")
def blf():
    import blf
    import blf.bench
    import blf.cli
    import blf.io
    return blf


def test_instrumented_restores_every_binding(blf):
    before = (blf.lattice.forward_filter, blf.bench.FITTERS["blfdyn"],
              blf.cli.main, blf.tvar.path_sampler)
    with instrumented(blf, Tracer()):
        assert blf.lattice.forward_filter is not before[0]
        assert blf.bench.FITTERS["blfdyn"] is not before[1]
    after = (blf.lattice.forward_filter, blf.bench.FITTERS["blfdyn"],
             blf.cli.main, blf.tvar.path_sampler)
    assert after == before


SMALL = [
    (CliFitTvar2, {"T": 160, "draws": 8}),
    (SearchSweep, {"T": 96}),
    (PosteriorLong, {"T": 192, "draws": 12}),
]


@pytest.mark.parametrize("cls, sizes", SMALL, ids=[c.name for c, _ in SMALL])
def test_two_traced_runs_give_identical_counts(blf, tmp_path, cls, sizes):
    workload = cls(blf, 3, tmp_path, **sizes)
    workload.in_process = True
    workload.setup()
    checks = Checks()
    results, first = [], None
    for _ in range(2):
        tracer = Tracer()
        with instrumented(blf, tracer), tracer.span(ROOT_SPAN):
            out = workload.op()
        workload.check(out, first, checks)
        first = first or out
        results.append(layer_metrics(tracer))
    assert checks.failed == 0, checks.messages
    (times, counts0), (_, counts1) = results
    assert counts0 == counts1
    assert any(v for k, (v, _) in counts0.items() if k.endswith(".calls"))
    # self times of the layers and the harness cover the traced op
    layer_self = sum(v for k, (v, _) in times.items()
                     if k.endswith(".self_s") and k != "trace.harness_self_s")
    assert layer_self + times["trace.harness_self_s"][0] == pytest.approx(
        times["trace.wall_s"][0], rel=1e-9)
