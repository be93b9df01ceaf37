"""CSV and report serialization.

Every CSV file goes through one row writer, which gives each float cell 17
significant digits so float64 values survive a write/read round trip
bit-exactly.  Spectrogram cells hold the natural log of the density
(plot-ready; the base choice stays downstream); every other file stores
raw values.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path

import numpy as np

from .selection import SelectionReport, scree_table
from .spectrum import Spectrogram, _check_grid
from .tvar import TvarFit

__all__ = [
    "fmt",
    "write_series_csv",
    "read_series_csv",
    "write_truth_csv",
    "write_fit_csv",
    "read_coeffs_csv",
    "write_spectrogram_csv",
    "read_spectrogram_csv",
    "write_scree_csv",
    "write_replicates_csv",
    "write_summary",
    "write_report",
    "read_report",
]


def fmt(value: float) -> str:
    return format(float(value), ".17g")


# The % conversion of each cell type a row template writes; "%.0s" writes
# None as an empty cell.
_CELLS = {float: "%.17g", int: "%d", type(None): "%.0s"}


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: ``header``, then ``rows``.  Float cells get
    ``fmt``'s 17 digits; int and str cells pass through, and None is an
    empty cell.  A row of Python floats, ints and Nones is written by one
    ``%`` template per row shape (its cell types), made once per file; any
    other row goes through ``csv.writer``, which quotes string cells.  Rows
    are fastest as Python floats, one ``tolist()`` per row, which keeps
    only one row's Python floats alive."""
    templates = {}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in chain([header], rows):
            shape = tuple(map(type, row))
            if shape not in templates:
                cells = [_CELLS.get(kind) for kind in shape]
                templates[shape] = None if None in cells else ",".join(cells) + "\r\n"
            template = templates[shape]
            if template is None:
                w.writerow([fmt(c) if isinstance(c, float) else c for c in row])
            else:
                fh.write(template % tuple(row))


def _numbered(table):
    """Rows t, then the floats of row t of a (T, k) table, for t = 1..T."""
    return ([t, *row.tolist()] for t, row in
            enumerate(np.asarray(table, dtype=float), start=1))


def write_series_csv(path, x) -> None:
    _write_csv(path, ["x"], ([v] for v in np.asarray(x, dtype=float).tolist()))


def _csv_rows(path) -> list[tuple[int, list[str]]]:
    """The nonblank rows of a CSV file, each with its 1-based row number."""
    with open(path, newline="") as fh:
        return [(i, row) for i, row in enumerate(csv.reader(fh), start=1)
                if any(c.strip() for c in row)]


def _parse_rows(path, rows, width: int | None = None) -> np.ndarray:
    """Rows of ``width`` numbers (default: the first row's width) as an
    (n, width) array.  A ValueError names the file and the first row of
    another width or with a cell that is not a number, or says there are
    no rows."""
    if not rows:
        raise ValueError(f"{path}: no numeric data")
    width = len(rows[0][1]) if width is None else width
    out = []
    for i, row in rows:
        if len(row) != width:
            cols = "one column" if width == 1 else f"{width} columns"
            raise ValueError(f"{path}: row {i}: expected {cols}, got {len(row)}")
        try:
            out.append([float(c) for c in row])
        except ValueError as err:
            raise ValueError(f"{path}: row {i}: {err}") from None
    return np.array(out)


def read_series_csv(path) -> np.ndarray:
    """Single column of finite numbers; a non-numeric first line is a
    header."""
    rows = _csv_rows(path)
    if rows and rows[0][0] == 1 and len(rows[0][1]) == 1:
        try:
            float(rows[0][1][0])
        except ValueError:
            rows = rows[1:]
    x = _parse_rows(path, rows, 1)[:, 0]
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i, row = rows[bad[0]]
        raise ValueError(f"{path}: row {i}: non-finite value {row[0]!r}")
    return x


def write_truth_csv(path, coeffs, sigma2) -> None:
    coeffs = np.asarray(coeffs, dtype=float)
    header = ["t"] + [f"a{m}" for m in range(1, coeffs.shape[1] + 1)] + ["sigma2"]
    _write_csv(path, header, _numbered(np.column_stack([coeffs, sigma2])))


def write_fit_csv(coeffs_path, variance_path, fit: TvarFit) -> None:
    _write_csv(coeffs_path, ["t"] + [f"a{m}" for m in range(1, fit.P + 1)],
               _numbered(fit.coeffs))
    _write_csv(variance_path, ["t", "sigma2"],
               _numbered(np.asarray(fit.sigma2, dtype=float)[:, None]))


def read_coeffs_csv(path) -> np.ndarray:
    """Coefficients of a ``write_fit_csv`` file: a header row, then rows of
    t, a1..aP."""
    rows = _csv_rows(path)
    return _parse_rows(path, rows[1:], len(rows[0][1]) if rows else 0)[:, 1:]


def write_spectrogram_csv(path, spg: Spectrogram, log_cells: bool = True) -> None:
    """First row: the frequency grid.  Then one row per time point: the
    time index followed by the cells (natural-log density by default).
    The log is taken one row at a time, so no surface-sized array is made."""
    rows = (np.log(row) if log_cells else row for row in spg.values)
    _write_csv(path, spg.freqs.tolist(),
               ([t, *row.tolist()] for t, row in
                zip(spg.times.astype(int).tolist(), rows)))


def read_spectrogram_csv(path, log_cells: bool = True) -> Spectrogram:
    """Inverse of ``write_spectrogram_csv``."""
    rows = _csv_rows(path)
    freqs = _parse_rows(path, rows[:1])[0]
    try:
        freqs = _check_grid(freqs)
    except ValueError as err:
        raise ValueError(f"{path}: row {rows[0][0]}: {err}") from None
    table = _parse_rows(path, rows[1:], len(freqs) + 1)
    times = table[:, 0]
    # NaN fails the comparison, so it is refused with inf and int64 overflow.
    bad = np.flatnonzero(~(np.abs(times) < 2.0**63) | (times != np.round(times)))
    if bad.size:
        i, row = rows[1 + bad[0]]
        raise ValueError(f"{path}: row {i}: time must be an integer, got {row[0]!r}")
    cells = table[:, 1:]
    values = np.exp(cells) if log_cells else cells
    return Spectrogram(times=times.astype(int), freqs=freqs, values=values)


def write_scree_csv(path, report: SelectionReport) -> None:
    _write_csv(path, ["m", "loglik", "pct_change"], scree_table(report))


def write_replicates_csv(path, records) -> None:
    """One row per ``bench.BenchmarkRecord``; a failed fit has empty order
    and ASE cells and its error in the status cell."""
    _write_csv(path, ["replicate", "seed", "method", "chosen_order", "ase", "status"],
               ([r.replicate, r.seed, r.method, r.chosen_order, r.ase,
                 "ok" if r.ok else f"failed: {r.error}"] for r in records))


def write_summary(path, summary: dict) -> str:
    """Write ``bench.summarize``'s per-method statistics as key-value text
    and return that text.  A method with too few successful replicates has
    empty ``mean_ase``/``sd_ase`` values."""
    lines = []
    for method, stats in summary.items():
        mean, sd = stats["mean_ase"], stats["sd_ase"]
        lines += [
            f"method: {method}",
            f"  n_ok: {stats['n_ok']}",
            f"  n_failed: {stats['n_failed']}",
            f"  mean_ase: {'' if mean is None else fmt(mean)}",
            f"  sd_ase: {'' if sd is None else fmt(sd)}",
            "  orders: " + ",".join(f"{k}:{v}" for k, v in stats["orders"].items()),
        ]
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text)
    return text


def write_report(path, report: SelectionReport, tau: float) -> None:
    lines = [
        f"method: {report.method}",
        f"chosen_order: {report.chosen_order}",
        f"saturated: {report.saturated}",
        f"tau: {fmt(tau)}",
        "gammas: " + ",".join(fmt(d.gamma) for d in report.per_stage_discounts),
        "deltas: " + ",".join(fmt(d.delta) for d in report.per_stage_discounts),
        "scree: " + ",".join(fmt(v) for v in report.scree),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_report(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, _, raw = line.partition(":")
        key, raw = key.strip(), raw.strip()
        if key in ("gammas", "deltas", "scree"):
            out[key] = [float(v) for v in raw.split(",")]
        elif key == "chosen_order":
            out[key] = int(raw)
        elif key == "saturated":
            out[key] = raw == "True"
        elif key == "tau":
            out[key] = float(raw)
        else:
            out[key] = raw
    return out
