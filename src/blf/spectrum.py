"""Time-varying AR spectral density, squared-error scoring, posterior surfaces.

The instantaneous spectrum of a TVAR(P) fit at frequency w is

    S(t, w) = sigma_t^2 / |1 - sum_m a_{t,m} exp(-2 pi i m w)|^2

evaluated on a grid of frequencies in [0, 1/2] (the density is symmetric in
w, so the negative half adds nothing).  Surfaces are kept in linear power;
logs are taken at scoring and serialization time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .lattice import _is_count
from .tvar import TvarFit

__all__ = [
    "Spectrogram",
    "default_freq_grid",
    "tvar_spectrum",
    "ase",
    "spectrum_posterior",
]


def default_freq_grid(step: float = 0.005) -> np.ndarray:
    """Evenly spaced frequencies 0, step, ..., 0.5 (101 points by default).

    ``step`` must lie in (0, 0.5] and divide 0.5 into a whole number of
    intervals (to 1e-9 relative).
    """
    n = round(0.5 / step) if 0.0 < step <= 0.5 else 0
    if n == 0 or abs(0.5 / step - n) > 1e-9 * n:
        raise ValueError(f"frequency step must lie in (0, 0.5] and divide 0.5 "
                         f"evenly, got {step}")
    return np.linspace(0.0, 0.5, n + 1)


def _check_grid(freqs) -> np.ndarray:
    """``freqs`` as a float array, if it is a frequency grid.

    A grid is non-empty, 1-D, finite, strictly increasing and inside
    [0, 1/2].  Finiteness is tested first because NaN fails every ordered
    comparison, so the later tests would pass it.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError(f"frequency grid must be a non-empty 1-D array, "
                         f"got shape {freqs.shape}")
    if not np.all(np.isfinite(freqs)):
        bad = np.flatnonzero(~np.isfinite(freqs))[0]
        raise ValueError(f"frequency grid must be finite, got {freqs[bad]} "
                         f"at index {bad}")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequency grid must be strictly increasing")
    if freqs[0] < 0 or freqs[-1] > 0.5:
        raise ValueError("frequencies must lie in [0, 1/2]")
    return freqs


@dataclass
class Spectrogram:
    """Time x frequency grid of values on [0, 1/2].

    ``values[i, l]`` belongs to time ``times[i]`` and frequency ``freqs[l]``.
    Spectral density surfaces are strictly positive (infinite at an exact
    unit root); posterior-sd surfaces reuse the container with nonnegative
    values.
    """

    times: np.ndarray
    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times)
        self.freqs = _check_grid(self.freqs)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.times), len(self.freqs)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"(T={len(self.times)}, L={len(self.freqs)})"
            )

    def same_grid(self, other: "Spectrogram") -> bool:
        return (
            self.values.shape == other.values.shape
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.freqs, other.freqs)
        )


# Bytes of cos and sin parts per piece of rows of a surface pass, 16 per
# cell: at most 10 steps at 64 draws x 101 frequencies in the posterior,
# 648 time steps at 101 frequencies in the plug-in spectrum.
_BLOCK_BYTES = 1 << 20


def _pieces(n: int, cells: int) -> list[slice]:
    """The n rows of a surface pass as equal pieces of consecutive rows, as
    few as keep the cos and sin parts of each piece, 16 bytes per cell at
    ``cells`` cells per row, within ``_BLOCK_BYTES``, and each at least two
    rows long when n >= 2.  numpy multiplies a one-row piece by another
    BLAS routine (gemv, not gemm), whose sums can differ in the last bit;
    pieces of two rows or more give the bits of the whole pass, since
    ``_transfer_power`` multiplies in column blocks whose bits do not
    depend on the number of rows.  The longest piece has
    ceil(n / len(pieces)) rows."""
    step = max(1, _BLOCK_BYTES // (16 * cells))
    k = max(1, min(-(-n // step), n // 2))
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _tables(P: int, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos 2 pi m w and sin 2 pi m w for lags m = 1..P (rows) on the grid."""
    angle = 2.0 * np.pi * np.outer(np.arange(1, P + 1), freqs)
    return np.cos(angle), np.sin(angle)


def _transfer_power(coeffs: np.ndarray, freqs: np.ndarray, work=None,
                    tables=None) -> np.ndarray:
    """|1 - sum_m a_m e^{-2 pi i m w}|^2 for coeffs (..., T, P), in real
    arithmetic: (1 - sum_m a_m cos 2 pi m w)^2 + (sum_m a_m sin 2 pi m w)^2.
    The sums are products over column blocks of at most 128 frequencies,
    each written into its own columns.  OpenBLAS rounds the last columns of
    a wider product by its number of rows, which would make a cell depend
    on T, on the piece of rows and on the BLAS thread count.
    The cos and sin parts go to the front of the flat array ``work`` if
    given; ``tables`` are ``_tables(P, freqs)`` if the caller has them.
    """
    cos, sin = _tables(coeffs.shape[-1], freqs) if tables is None else tables
    shape = (2, *coeffs.shape[:-1], cos.shape[1])
    out = np.empty(shape) if work is None else work[:math.prod(shape)].reshape(shape)
    re, im = out
    for j in range(0, shape[-1], 128):
        cols = slice(j, j + 128)
        np.matmul(coeffs, cos[:, cols], out=re[..., cols])
        np.matmul(coeffs, sin[:, cols], out=im[..., cols])
    np.square(np.subtract(1.0, re, out=re), out=re)
    re += np.square(im, out=im)
    return re


def tvar_spectrum(fit: TvarFit, freqs=None) -> Spectrogram:
    """Evaluate the time-varying spectral density of a fit on a grid.

    An exact unit root at some (t, w) yields +inf in that cell rather than
    an error; ``ase`` refuses such surfaces downstream.  The fit's
    ``coeffs`` must be 2-D (T, P) and its ``sigma2`` of shape (T,); any
    other shapes raise a ValueError that names both, before any work.

    The surface is evaluated over pieces of time steps (``_pieces``: at
    least two steps, cos and sin parts within ``_BLOCK_BYTES``) into one
    reused work array, and each piece is divided into its own output rows,
    so nothing beyond the surface grows with T; the bits are those of the
    whole surface at once (see ``_pieces``).
    """
    freqs = default_freq_grid() if freqs is None else _check_grid(freqs)
    coeffs = np.asarray(fit.coeffs, dtype=float)
    sigma2 = np.asarray(fit.sigma2, dtype=float)
    if coeffs.ndim != 2 or sigma2.shape != coeffs.shape[:1]:
        raise ValueError(f"a fit needs coeffs of shape (T, P) and sigma2 of "
                         f"shape (T,), got {coeffs.shape} and {sigma2.shape}")
    T, L = len(coeffs), len(freqs)
    values = np.empty((T, L))
    pieces = _pieces(T, L)
    work = np.empty(2 * -(-T // len(pieces)) * L)
    tables = _tables(coeffs.shape[1], freqs)
    with np.errstate(divide="ignore"):
        for rows in pieces:
            np.divide(sigma2[rows, None],
                      _transfer_power(coeffs[rows], None, work, tables),
                      out=values[rows])
    return Spectrogram(times=np.arange(1, T + 1), freqs=freqs, values=values)


def ase(est: Spectrogram, truth: Spectrogram) -> float:
    """Average squared error between log spectra over the shared grid.

    (T L)^{-1} sum_t sum_l (log est - log truth)^2, natural logarithm.

    Each surface's log is taken once, piece by piece (``_pieces``), est's
    into one (T, L) buffer and truth's into a piece of scratch, and a cell
    whose log is not finite (a cell that is 0, negative, NaN or infinite)
    is refused, est first.  The squared log ratio is written into the
    buffer, whose mean is taken at once, so the value has the bits of the
    whole-array formula.

    Raises
    ------
    ValueError
        If the grids differ, if the grid has no time point, or if a cell is
        not finite and positive: the message names the surface and the
        first such (t, w).
    """
    if not est.same_grid(truth):
        raise ValueError("spectrogram grids do not match")
    T, L = est.values.shape
    if T == 0:
        raise ValueError("spectrogram grid is empty: no time points")
    pieces = _pieces(T, L)

    def log(name: str, spg: Spectrogram, rows: slice, out: np.ndarray) -> np.ndarray:
        """The log of ``spg``'s ``rows`` into ``out``, if every one is finite."""
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(spg.values[rows], out=out)
        finite = np.isfinite(out)
        if not finite.all():
            i, l = np.argwhere(~finite)[0]
            raise ValueError(f"{name} surface not finite/positive at "
                             f"t={spg.times[rows.start + i]}, freq={spg.freqs[l]}")
        return out

    sq = np.empty((T, L))
    for rows in pieces:
        log("est", est, rows, sq[rows])
    work = np.empty(-(-T // len(pieces)) * L)
    for rows in pieces:
        diff = sq[rows]
        diff -= log("truth", truth, rows, work[:diff.size].reshape(diff.shape))
        np.square(diff, out=diff)
    return float(np.mean(sq))


_BLOCK_ORDER = "draw_paths must yield time blocks from the last back to the first"


def _workers() -> int:
    """Threads for the log density: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _merge_pieces(coeffs, sigma2, pieces, start, tables, work, mean_log, m2,
                  weight, spread):
    """Log density moments of the time pieces ``pieces`` of one block of a
    chunk of draws, merged into rows ``start + piece`` of the running
    moments.  Returns the (t, w) indices of the first non-finite density
    and merges nothing from there on, or None."""
    size = len(coeffs)
    for piece in pieces:
        logs = _transfer_power(coeffs[:, piece], None, work, tables)
        # A unit root gives log S = +inf, and its moments inf - inf = NaN:
        # any non-finite draw leaves cm2 non-finite, which is refused below.
        # numpy keeps the error state per thread.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(logs, out=logs)
            np.subtract(np.log(sigma2[:, piece])[..., None], logs, out=logs)
            shift = logs[0].copy()
            logs -= shift
            cmean = np.add.reduce(logs, axis=0)
            cmean /= size  # the mean, as logs.mean(axis=0) takes it
            logs -= cmean
            cm2 = np.add.reduce(np.square(logs, out=logs), axis=0)
        bad = ~np.isfinite(cm2)
        if bad.any():
            i, l = np.argwhere(bad)[0]
            return start + piece.start + i, l
        cmean += shift
        rows = slice(start + piece.start, start + piece.stop)
        delta = cmean - mean_log[rows]
        mean_log[rows] += delta * weight
        m2[rows] += cm2  # two adds: (m2 + cm2) + spread term, in that order
        m2[rows] += delta**2 * spread
    return None


def spectrum_posterior(draw_paths, n_draws: int, freqs=None,
                       rng: np.random.Generator | None = None,
                       chunk: int = 64):
    """Pointwise posterior mean and sd of the log spectral density.

    Parameters
    ----------
    draw_paths : callable
        ``draw_paths(rng, size)`` yields a chunk of ``size`` joint draws as
        time blocks ``(start, coeffs, sigma2)`` with shapes ``(size, B, P)``
        and ``(size, B)`` for times start + 1 .. start + B, from the last
        block back to the first; see :func:`blf.tvar.path_sampler`.  Each
        block is used before the next is asked for, so a sampler may reuse
        its buffers.
    n_draws : int
        Number of joint posterior draws (>= 2).
    freqs : array_like, optional
        Frequency grid; defaults to 0..0.5 step 0.005.
    rng : numpy.random.Generator, optional
    chunk : int
        Draws per ``draw_paths`` call (>= 1).
        :func:`blf.tvar.path_sampler` draws a chunk in time blocks whose
        two stage-major buffers hold at most 2 MiB, so its memory does not
        grow with T; at T = 1024 and P = 2 a 64-draw chunk is one block.
        Each block's log density, log sigma^2 - log |A(w)|^2 in real
        arithmetic, and its moments are evaluated over pieces of time steps
        whose cos and sin parts hold about ``_BLOCK_BYTES`` (1 MiB), and at
        least two steps.  The pieces are shared out in runs of consecutive
        pieces over one thread per CPU the process may use, each with its
        own work array, and each piece is merged into its own rows of the
        running moments before the next block is drawn.  A cell's
        arithmetic does not depend on the piece or the thread, so the
        result does not depend on the number of threads.

    Returns
    -------
    (mean, sd) : Spectrogram pair
        ``mean`` holds exp(mean of log S), i.e. the pointwise geometric
        mean in linear power; ``sd`` holds the standard deviation of log S.

    Raises
    ------
    ValueError
        If ``n_draws`` or ``chunk`` is not an integer (a bool is not) or is
        too small, or ``freqs`` is not a frequency grid, all before any
        draw; if the blocks do not run back from T to 1; or if a draw's log
        density is not finite, as at an exact unit root: the message names
        the first such (t, w) of the first chunk that has one.
    """
    for name, count in (("n_draws", n_draws), ("chunk", chunk)):
        if not _is_count(count):
            raise ValueError(f"{name}={count!r} must be an integer")
    if n_draws < 2:
        raise ValueError("n_draws must be >= 2")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    freqs = default_freq_grid() if freqs is None else _check_grid(freqs)
    rng = np.random.default_rng() if rng is None else rng

    from concurrent.futures import ThreadPoolExecutor

    # Chan/Welford merge from zero draws of piece moments taken about the
    # chunk's first draw: exact zeros for degenerate posteriors.  Every
    # (t, w) cell is merged on its own, so pieces of any length, in any
    # thread, give the same bits as the whole chunk at once.
    works = [np.empty(0)] * _workers()
    total = 0
    mean_log = m2 = tables = None
    with ThreadPoolExecutor(len(works)) as pool:
        while total < n_draws:
            size = min(chunk, n_draws - total)
            weight, spread = size / (total + size), total * size / (total + size)
            edge = bad = None
            for start, coeffs, sigma2 in draw_paths(rng, size):
                if mean_log is None:
                    T = start + coeffs.shape[1]
                    mean_log, m2 = np.zeros((2, T, len(freqs)))
                    tables = _tables(coeffs.shape[-1], freqs)
                if start + coeffs.shape[1] != (T if edge is None else edge):
                    raise ValueError(_BLOCK_ORDER)
                edge = start
                # The block's pieces go out in runs of consecutive pieces,
                # one run and one work array works[k] per thread.  Work
                # arrays live across blocks: a fresh one per piece faults anew.
                B, L = coeffs.shape[1], len(freqs)
                pieces = _pieces(B, len(coeffs) * L)
                n = len(pieces)
                lanes = min(len(works), n)
                need = 2 * len(coeffs) * -(-B // n) * L
                futures = []
                for k in range(lanes):
                    if works[k].size < need:
                        works[k] = np.empty(need)
                    futures.append(pool.submit(
                        _merge_pieces, coeffs, sigma2, pieces[n * k // lanes:n * (k + 1) // lanes],
                        start, tables, works[k], mean_log, m2, weight, spread))
                hits = [h for h in [f.result() for f in futures] if h is not None]
                # Blocks run back in time, so a later find is an earlier t.
                bad = hits[0] if hits else bad
                del coeffs, sigma2  # free this block's paths before the next
            if edge != 0:
                raise ValueError(_BLOCK_ORDER)
            if bad is not None:
                raise ValueError(f"non-finite log spectral density at "
                                 f"t={bad[0] + 1}, freq={freqs[bad[1]]}")
            total += size

    m2 /= total - 1
    times = np.arange(1, T + 1)
    return (
        Spectrogram(times=times, freqs=freqs, values=np.exp(mean_log, out=mean_log)),
        Spectrogram(times=times, freqs=freqs, values=np.sqrt(m2, out=m2)),
    )
