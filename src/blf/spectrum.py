"""Time-varying AR spectral density, squared-error scoring, posterior surfaces.

The instantaneous spectrum of a TVAR(P) fit at frequency w is

    S(t, w) = sigma_t^2 / |1 - sum_m a_{t,m} exp(-2 pi i m w)|^2

evaluated on a grid of frequencies in [0, 1/2] (the density is symmetric in
w, so the negative half adds nothing).  Surfaces are kept in linear power;
logs are taken at scoring and serialization time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


# Bytes of cos and sin parts per time block of spectrum_posterior, 16 per
# (draw, t, freq) cell: at most 10 steps at 64 draws x 101 frequencies.
_BLOCK_BYTES = 1 << 20


def _transfer_power(coeffs: np.ndarray, freqs: np.ndarray, work=None) -> np.ndarray:
    """|1 - sum_m a_m e^{-2 pi i m w}|^2 for coeffs (..., T, P), in real
    arithmetic: (1 - sum_m a_m cos 2 pi m w)^2 + (sum_m a_m sin 2 pi m w)^2.
    The cos and sin parts go to the front of the flat array ``work`` if given.
    """
    angle = 2.0 * np.pi * np.outer(np.arange(1, coeffs.shape[-1] + 1), freqs)
    shape = (2, *coeffs.shape[:-1], len(freqs))
    out = np.empty(shape) if work is None else work[:np.prod(shape)].reshape(shape)
    re = np.matmul(coeffs, np.cos(angle), out=out[0])
    im = np.matmul(coeffs, np.sin(angle), out=out[1])
    np.square(np.subtract(1.0, re, out=re), out=re)
    re += np.square(im, out=im)
    return re


def tvar_spectrum(fit: TvarFit, freqs=None) -> Spectrogram:
    """Evaluate the time-varying spectral density of a fit on a grid.

    An exact unit root at some (t, w) yields +inf in that cell rather than
    an error; ``ase`` refuses such surfaces downstream.
    """
    freqs = default_freq_grid() if freqs is None else _check_grid(freqs)
    sigma2 = np.asarray(fit.sigma2, dtype=float)
    with np.errstate(divide="ignore"):
        values = sigma2[:, None] / _transfer_power(fit.coeffs, freqs)
    T = fit.coeffs.shape[0]
    return Spectrogram(times=np.arange(1, T + 1), freqs=freqs, values=values)


def ase(est: Spectrogram, truth: Spectrogram) -> float:
    """Average squared error between log spectra over the shared grid.

    (T L)^{-1} sum_t sum_l (log est - log truth)^2, natural logarithm.
    """
    if not est.same_grid(truth):
        raise ValueError("spectrogram grids do not match")
    for name, spg in (("est", est), ("truth", truth)):
        bad = ~np.isfinite(spg.values) | (spg.values <= 0)
        if np.any(bad):
            i, l = np.argwhere(bad)[0]
            raise ValueError(
                f"{name} surface not finite/positive at t={spg.times[i]}, "
                f"freq={spg.freqs[l]}"
            )
    diff = np.log(est.values) - np.log(truth.values)
    return float(np.mean(diff * diff))


def spectrum_posterior(draw_paths, n_draws: int, freqs=None,
                       rng: np.random.Generator | None = None,
                       chunk: int = 64):
    """Pointwise posterior mean and sd of the log spectral density.

    Parameters
    ----------
    draw_paths : callable
        ``draw_paths(rng, size) -> (coeffs, sigma2)`` with shapes
        ``(size, T, P)`` and ``(size, T)``; see :func:`blf.tvar.path_sampler`.
    n_draws : int
        Number of joint posterior draws (>= 2).
    freqs : array_like, optional
        Frequency grid; defaults to 0..0.5 step 0.005.
    rng : numpy.random.Generator, optional
    chunk : int
        Draws per ``draw_paths`` call (>= 1).  The sampler's arrays scale
        with chunk x T x P: :func:`blf.tvar.path_sampler` holds two
        stage-major (P, T, chunk) buffers and one stage's (T + 1, chunk)
        sampler rows at a time, and returns the coefficients as a
        transposed view of its forward buffer.  Each chunk's log density,
        log sigma^2 - log |A(w)|^2 in real arithmetic, and its moments are
        evaluated over blocks of time steps whose cos and sin parts hold
        about ``_BLOCK_BYTES`` (1 MiB), and at least two steps, so their
        memory does not grow with T.

    Returns
    -------
    (mean, sd) : Spectrogram pair
        ``mean`` holds exp(mean of log S), i.e. the pointwise geometric
        mean in linear power; ``sd`` holds the standard deviation of log S.

    Raises
    ------
    ValueError
        If a draw's log density is not finite, as at an exact unit root;
        the message names the first such (t, w) of the first chunk that has
        one.
    """
    if n_draws < 2:
        raise ValueError("n_draws must be >= 2")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    freqs = default_freq_grid() if freqs is None else _check_grid(freqs)
    rng = np.random.default_rng() if rng is None else rng

    # Chan/Welford merge from zero draws of chunk moments taken about the
    # chunk's first draw: exact zeros for degenerate posteriors.  Every
    # (t, w) cell is merged on its own, so a time block at a time gives the
    # same bits as the whole chunk at once.
    total = 0
    mean_log = m2 = None
    while total < n_draws:
        size = min(chunk, n_draws - total)
        coeffs, sigma2 = draw_paths(rng, size)
        T = coeffs.shape[1]
        if mean_log is None:
            mean_log, m2 = np.zeros((2, T, len(freqs)))
        weight, spread = size / (total + size), total * size / (total + size)
        # Equal blocks of at least two steps where T allows: numpy multiplies
        # a one-row block by another BLAS routine (gemv, not gemm), whose
        # sums can differ from the whole chunk's in the last bit.
        step = max(1, _BLOCK_BYTES // (16 * size * len(freqs)))
        n_blocks = max(1, min(-(-T // step), T // 2))
        edges = [T * i // n_blocks for i in range(n_blocks + 1)]
        # One work array for all blocks: a fresh one per block faults anew.
        work = np.empty(2 * size * -(-T // n_blocks) * len(freqs))
        for block in map(slice, edges[:-1], edges[1:]):
            logs = _transfer_power(coeffs[:, block], freqs, work)
            # A unit root gives log S = +inf, and its moments inf - inf = NaN:
            # any non-finite draw leaves cm2 non-finite, which is refused below.
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(logs, out=logs)
                np.subtract(np.log(sigma2[:, block])[..., None], logs, out=logs)
                shift = logs[0].copy()
                logs -= shift
                cmean = logs.mean(axis=0)
                logs -= cmean
                cm2 = np.square(logs, out=logs).sum(axis=0)
            bad = ~np.isfinite(cm2)
            if bad.any():
                i, l = np.argwhere(bad)[0]
                raise ValueError(f"non-finite log spectral density at "
                                 f"t={block.start + i + 1}, freq={freqs[l]}")
            cmean += shift
            delta = cmean - mean_log[block]
            mean_log[block] += delta * weight
            m2[block] += cm2  # two adds: (m2 + cm2) + spread term, in that order
            m2[block] += delta**2 * spread
        total += size
        del coeffs, sigma2  # free this chunk's paths before the next draw

    m2 /= total - 1
    times = np.arange(1, T + 1)
    return (
        Spectrogram(times=times, freqs=freqs, values=np.exp(mean_log, out=mean_log)),
        Spectrogram(times=times, freqs=freqs, values=np.sqrt(m2, out=m2)),
    )
