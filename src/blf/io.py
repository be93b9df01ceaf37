"""CSV and report serialization.

All numeric cells are written with 17 significant digits so float64 values
survive a write/read round trip bit-exactly.  Spectrogram cells hold the
natural log of the density (plot-ready; the base choice stays downstream);
every other file stores raw values.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .selection import SelectionReport, scree_table
from .spectrum import Spectrogram
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
    "write_report",
    "read_report",
]


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_series_csv(path, x) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x"])
        for v in np.asarray(x, dtype=float):
            w.writerow([fmt(v)])


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
    """Single numeric column; a non-numeric first line is a header."""
    rows = _csv_rows(path)
    if rows and rows[0][0] == 1 and len(rows[0][1]) == 1:
        try:
            float(rows[0][1][0])
        except ValueError:
            rows = rows[1:]
    return _parse_rows(path, rows, 1)[:, 0]


def write_truth_csv(path, coeffs, sigma2) -> None:
    coeffs = np.asarray(coeffs, dtype=float)
    P = coeffs.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"a{m}" for m in range(1, P + 1)] + ["sigma2"])
        for t in range(coeffs.shape[0]):
            w.writerow([t + 1] + [fmt(v) for v in coeffs[t]] + [fmt(sigma2[t])])


def write_fit_csv(coeffs_path, variance_path, fit: TvarFit) -> None:
    with open(coeffs_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"a{m}" for m in range(1, fit.P + 1)])
        for t in range(fit.coeffs.shape[0]):
            w.writerow([t + 1] + [fmt(v) for v in fit.coeffs[t]])
    with open(variance_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "sigma2"])
        for t, v in enumerate(np.asarray(fit.sigma2, dtype=float), start=1):
            w.writerow([t, fmt(v)])


def read_coeffs_csv(path) -> np.ndarray:
    """Coefficients of a ``write_fit_csv`` file: a header row, then rows of
    t, a1..aP."""
    rows = _csv_rows(path)
    return _parse_rows(path, rows[1:], len(rows[0][1]) if rows else 0)[:, 1:]


def write_spectrogram_csv(path, spg: Spectrogram, log_cells: bool = True) -> None:
    """First row: the frequency grid.  Then one row per time point: the
    time index followed by the cells (natural-log density by default)."""
    values = np.log(spg.values) if log_cells else spg.values
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([fmt(f) for f in spg.freqs])
        for i, t in enumerate(spg.times):
            w.writerow([int(t)] + [fmt(v) for v in values[i]])


def read_spectrogram_csv(path, log_cells: bool = True) -> Spectrogram:
    """Inverse of ``write_spectrogram_csv``."""
    rows = _csv_rows(path)
    freqs = _parse_rows(path, rows[:1])[0]
    table = _parse_rows(path, rows[1:], len(freqs) + 1)
    cells = table[:, 1:]
    values = np.exp(cells) if log_cells else cells
    return Spectrogram(times=table[:, 0].astype(int), freqs=freqs, values=values)


def write_scree_csv(path, report: SelectionReport) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "loglik", "pct_change"])
        for m, ll, pct in scree_table(report):
            w.writerow([m, fmt(ll), "" if pct is None else fmt(pct)])


def write_report(path, report: SelectionReport, tau: float) -> None:
    lines = [
        f"method: {report.method}",
        f"chosen_order: {report.chosen_order}",
        f"saturated: {report.saturated}",
        f"p_max: {len(report.scree)}",
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
        elif key in ("chosen_order", "p_max"):
            out[key] = int(raw)
        elif key == "saturated":
            out[key] = raw == "True"
        elif key == "tau":
            out[key] = float(raw)
        else:
            out[key] = raw
    return out
