"""Run one blf benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload search_sweep --seed 0 --seconds 36 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy.  Untraced runs (``--trace 0``) time whole operations of the
workload and report the end-to-end metrics; traced runs (``--trace 1``)
alternate untraced and traced operations and report per-layer self times
and counts.  The next-to-last line of standard output is a JSON record
with the environment, every metric and any failed check; the last line is
the result record ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every operation and check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer, instrumented, timing_summary
from workloads import ROOT_SPAN, WORKLOADS, Checks, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_out"
IMPORT_REPEATS = 5
MIN_UNTRACED_OPS = 3
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def load_blf():
    """Import blf from this checkout's src/, or exit non-zero."""
    if not (SRC / "blf" / "__init__.py").is_file():
        raise SystemExit(f"no blf package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import blf
    import blf.bench
    import blf.cli
    import blf.io

    if Path(blf.__file__).resolve().parent != (SRC / "blf").resolve():
        raise SystemExit(f"imported blf from {blf.__file__}, not from {SRC}")
    return blf


def cold_import_s(n: int) -> list[float]:
    """Seconds to ``import blf`` in n fresh interpreters, after one warm-up
    import that leaves the bytecode cache filled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import time; t = time.perf_counter(); import blf; "
            "print(repr(time.perf_counter() - t))")
    subprocess.run([sys.executable, "-c", "import blf"], env=env, cwd=ROOT,
                   check=True, capture_output=True)
    out = []
    for _ in range(n):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True)
        out.append(float(res.stdout))
    return out


def environment() -> dict:
    cpu = llc = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu is None:
                    cpu = val.strip()
                elif key == "cache size" and llc is None:
                    llc = val.strip()
    except OSError:
        pass
    try:  # the checkout may not be a git repository; never look above it
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = res.stdout.strip() if res.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "blf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "last_level_cache": llc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "note": "bytes are computed from array sizes; no roofline ratio",
    }


def run_op(workload, checks, first):
    """One operation: its output, or None after recording the failure."""
    try:
        out = workload.op()
    except Exception:  # the run goes on; the failure is counted and shown
        checks.expect(False, f"{workload.name} operation raised:\n{traceback.format_exc()}")
        return None
    workload.check(out, first, checks)
    return out


def untraced(workload, seconds, checks) -> list[dict]:
    """At least MIN_UNTRACED_OPS operations, then more while the next one
    is expected to end within ``seconds``."""
    outs = []
    t0 = time.perf_counter()
    while True:
        out = run_op(workload, checks, outs[0] if outs else None)
        if out is not None:
            outs.append(out)
        elapsed = time.perf_counter() - t0
        if not outs:
            if elapsed > seconds:
                return outs
            continue
        est = float(np.median([o["wall_s"] for o in outs]))
        if len(outs) >= MIN_UNTRACED_OPS and elapsed + est > seconds:
            return outs


def traced(blf, workload, seconds, checks):
    """Alternate untraced and traced operations, at least one pair."""
    workload.in_process = True  # a traced CLI run is an in-process main()
    plain, traced_outs, layers, tracers = [], [], [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            first = plain[0] if plain else None
            if not is_traced:
                out = run_op(workload, checks, first)
                if out is not None:
                    plain.append(out)
                continue
            tracer = Tracer()
            with instrumented(blf, tracer), tracer.span(ROOT_SPAN):
                out = run_op(workload, checks, first)
            if out is not None:
                traced_outs.append(out)
                tracers.append(tracer)
                layers.append(layer_metrics(tracer))
        k += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / k > seconds or not (plain and traced_outs):
            break

    metrics = {}
    if layers:
        times0, counts0 = layers[0]
        for _, counts in layers[1:]:
            checks.expect(counts == counts0, "counts differ between traced runs")
        for key, (_, unit) in times0.items():
            metrics[key] = (float(np.median([t[key][0] for t, _ in layers])), unit)
        metrics.update(counts0)
        if plain:
            overhead = (np.median([o["wall_s"] for o in traced_outs])
                        - np.median([o["wall_s"] for o in plain]))
            metrics["trace.overhead_s"] = (float(overhead), "s")
    return metrics, tracers, {"untraced": len(plain), "traced": len(traced_outs)}


def write_spans(path: Path, tracers) -> None:
    rows = [{"op": i, "name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "counts": sp.counts}
            for i, tr in enumerate(tracers) for sp in tr.spans]
    path.write_text(json.dumps(rows) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blf = load_blf()
    work_dir = WORK / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](blf, args.seed, work_dir)
    checks = Checks()

    imports = cold_import_s(IMPORT_REPEATS)
    workload.setup()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment(),
              "setup_s": timing_summary(imports)}
    metrics = {}
    if args.trace:
        metrics, tracers, detail["ops"] = traced(blf, workload, args.seconds, checks)
        write_spans(work_dir / "spans.json", tracers)
    else:
        outs = untraced(workload, args.seconds, checks)
        if outs:
            walls = [o["wall_s"] for o in outs]
            rss = [o["rss_mb"] for o in outs if "rss_mb" in o]
            self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (float(np.median(imports)), "s"),
                "wall_s": (float(np.median(walls)), "s"),
                "peak_rss_mb": (max(rss) if rss else self_rss, "MB"),
            }
            detail["wall_s"] = timing_summary(walls)
            detail["workload_metrics"] = {k: {"value": v, "unit": u}
                                          for k, (v, u) in workload.details(outs).items()}
    result_keys = list(metrics) if args.trace else END_TO_END
    checks.expect(bool(metrics) and all(k in metrics for k in result_keys),
                  "metrics missing: no operation of the workload succeeded")
    detail["failed_frac"] = checks.failed / checks.attempted
    detail["failures"] = checks.messages
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(detail))

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in result_keys if k in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
