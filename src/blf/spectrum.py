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
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(self.freqs < 0) or np.any(self.freqs > 0.5):
            raise ValueError("frequencies must lie in [0, 1/2]")
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


def _ar_density(coeffs: np.ndarray, sigma2: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """sigma2 / |1 - sum_m a_m e^{-2 pi i m w}|^2 for coeffs (..., T, P)."""
    P = coeffs.shape[-1]
    lags = np.arange(1, P + 1)
    basis = np.exp(-2j * np.pi * np.outer(lags, freqs))  # (P, L)
    transfer = 1.0 - coeffs @ basis  # (..., T, L)
    denom = transfer.real**2 + transfer.imag**2
    with np.errstate(divide="ignore"):
        return sigma2[..., None] / denom


def tvar_spectrum(fit: TvarFit, freqs=None) -> Spectrogram:
    """Evaluate the time-varying spectral density of a fit on a grid.

    An exact unit root at some (t, w) yields +inf in that cell rather than
    an error; ``ase`` refuses such surfaces downstream.
    """
    freqs = default_freq_grid() if freqs is None else np.asarray(freqs, dtype=float)
    values = _ar_density(fit.coeffs, np.asarray(fit.sigma2, dtype=float), freqs)
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
        Draws evaluated per batch to bound memory (>= 1).

    Returns
    -------
    (mean, sd) : Spectrogram pair
        ``mean`` holds exp(mean of log S), i.e. the pointwise geometric
        mean in linear power; ``sd`` holds the standard deviation of log S.
    """
    if n_draws < 2:
        raise ValueError("n_draws must be >= 2")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    freqs = default_freq_grid() if freqs is None else np.asarray(freqs, dtype=float)
    rng = np.random.default_rng() if rng is None else rng

    # Chan/Welford merge from zero draws: exact zeros for degenerate posteriors
    total = 0
    mean_log = m2 = 0.0
    while total < n_draws:
        size = min(chunk, n_draws - total)
        coeffs, sigma2 = draw_paths(rng, size)
        logs = np.log(_ar_density(coeffs, sigma2, freqs))
        cmean = logs.mean(axis=0)
        cm2 = ((logs - cmean) ** 2).sum(axis=0)
        delta = cmean - mean_log
        mean_log = mean_log + delta * (size / (total + size))
        m2 = m2 + cm2 + delta**2 * (total * size / (total + size))
        total += size

    var_log = m2 / (total - 1)
    T = mean_log.shape[0]
    times = np.arange(1, T + 1)
    return (
        Spectrogram(times=times, freqs=freqs, values=np.exp(mean_log)),
        Spectrogram(times=times, freqs=freqs, values=np.sqrt(var_log)),
    )
