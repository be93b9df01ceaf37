"""Reference nonstationary process generators and their true spectra.

Each generator returns the realized series together with the generating
coefficient grid and innovation-variance path, so estimated time-frequency
surfaces can be scored against the exact ones.  Generators discard 200
warm-up steps (simulated with the t=1 parameters, started at zero) so the
retained series begins near its local stationary distribution.  Every
generator rejects a trajectory that explodes (|x_t| > 1e12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import Spectrogram, tvar_spectrum
from .tvar import TvarFit

__all__ = [
    "SimulatedProcess",
    "gen_tvar2",
    "gen_tvar6",
    "gen_piecewise",
    "gen_tvvar",
    "roots_to_coeffs",
    "true_spectrum",
]

BURN_IN = 200
EXPLOSION_LIMIT = 1e12


@dataclass
class SimulatedProcess:
    """A realized series plus the exact generating parameters."""

    x: np.ndarray
    true_coeffs: np.ndarray
    true_sigma2: np.ndarray
    label: str

    @property
    def T(self) -> int:
        return len(self.x)


def _simulate(coeffs: np.ndarray, sigma2: np.ndarray, rng: np.random.Generator,
              label: str) -> SimulatedProcess:
    """Drive x_t = sum_m coeffs[t, m] x_{t-m} + N(0, sigma2[t]) with warm-up."""
    T, P = coeffs.shape
    eps = rng.standard_normal(BURN_IN + T)
    buf = np.zeros(BURN_IN + T)
    full_coeffs = np.vstack([np.tile(coeffs[0], (BURN_IN, 1)), coeffs])
    full_sd = np.sqrt(np.concatenate([np.full(BURN_IN, sigma2[0]), sigma2]))
    for i in range(BURN_IN + T):
        past = 0.0
        for m in range(1, P + 1):
            if i - m >= 0:
                past += full_coeffs[i, m - 1] * buf[i - m]
        buf[i] = past + full_sd[i] * eps[i]
        if abs(buf[i]) > EXPLOSION_LIMIT:
            t_bad = i - BURN_IN + 1
            raise ValueError(f"simulated series exploded at t={t_bad}")
    return SimulatedProcess(
        x=buf[BURN_IN:], true_coeffs=coeffs, true_sigma2=np.asarray(sigma2, float),
        label=label,
    )


def gen_tvar2(T: int = 1024, seed: int | None = None) -> SimulatedProcess:
    """Order-2 process with a slowly varying lag-1 coefficient.

    x_t = a_t x_{t-1} - 0.81 x_{t-2} + N(0, 1) with
    a_t = 0.8 (1 - 0.5 cos(pi t / 1024)); the 1024 inside the cosine is part
    of the process definition and does not scale with T.
    """
    if T < 3:
        raise ValueError("T must be >= 3")
    t = np.arange(1, T + 1)
    a1 = 0.8 * (1.0 - 0.5 * np.cos(np.pi * t / 1024.0))
    coeffs = np.column_stack([a1, np.full(T, -0.81)])
    return _simulate(coeffs, np.ones(T), np.random.default_rng(seed), "TVAR2")


def roots_to_coeffs(moduli, thetas) -> np.ndarray:
    """AR coefficients of conjugate complex reciprocal-root pairs.

    Pair j contributes the factor (1 - a_j B)(1 - a_j* B) with
    a_j = exp(2 pi i theta_j) / A_j, i.e. 1 - 2 cos(2 pi theta_j)/A_j B
    + B^2/A_j^2.  The expanded polynomial 1 - sum_m c_m B^m gives the
    coefficients c_m of an AR(2p) model.
    """
    moduli = np.asarray(moduli, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if moduli.shape != thetas.shape or moduli.ndim != 1:
        raise ValueError("moduli and thetas must be equal-length 1-D sequences")
    if not (np.all(np.isfinite(moduli)) and np.all(np.isfinite(thetas))):
        raise ValueError("moduli and thetas must be finite")
    poly = np.array([1.0])
    for A, th in zip(moduli, thetas):
        factor = np.array([1.0, -2.0 * np.cos(2.0 * np.pi * th) / A, 1.0 / A**2])
        poly = np.convolve(poly, factor)
    return -poly[1:]


def gen_tvar6(T: int = 1024, seed: int | None = None) -> SimulatedProcess:
    """Order-6 process from three pairs of drifting complex roots.

    Root amplitudes are (1.1, 1.12, 1.1); the root angles are
    theta_1 = 0.05 + (0.1/(T-1)) t, theta_2 = 0.25 and
    theta_3 = 0.45 - (0.1/(T-1)) t for t = 1..T.  Unit innovation variance.
    """
    if T < 7:
        raise ValueError("T must be >= 7")
    t = np.arange(1, T + 1)
    drift = (0.1 / (T - 1)) * t
    thetas = np.column_stack([0.05 + drift, np.full(T, 0.25), 0.45 - drift])
    moduli = np.array([1.1, 1.12, 1.1])
    coeffs = np.empty((T, 6))
    for i in range(T):
        coeffs[i] = roots_to_coeffs(moduli, thetas[i])
    return _simulate(coeffs, np.ones(T), np.random.default_rng(seed), "TVAR6")


def gen_piecewise(T: int = 1024, seed: int | None = None) -> SimulatedProcess:
    """Piecewise stationary AR with three segments and unit variance.

    AR(1) 0.9 on the first half, AR(2) (1.69, -0.81) on the next quarter,
    AR(2) (1.32, -0.81) on the rest; for T = 1024 the boundaries fall at
    t = 512/513 and 768/769.  Coefficients are zero-padded to order 2.
    """
    if T < 8:
        raise ValueError("T must be >= 8")
    b1 = T // 2
    b2 = (3 * T) // 4
    coeffs = np.zeros((T, 2))
    coeffs[:b1] = (0.9, 0.0)
    coeffs[b1:b2] = (1.69, -0.81)
    coeffs[b2:] = (1.32, -0.81)
    return _simulate(coeffs, np.ones(T), np.random.default_rng(seed), "PieceAR")


def gen_tvvar(T: int, seed: int | None, variance_profile, coeff_profile) -> SimulatedProcess:
    """Simulate with caller-supplied time-varying coefficients and variances.

    Stands in for signals whose innovation variance is itself time
    dependent.
    """
    sigma2 = np.asarray(variance_profile, dtype=float)
    coeffs = np.asarray(coeff_profile, dtype=float)
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    if sigma2.shape[0] != T or coeffs.shape[0] != T:
        raise ValueError("profiles must have length T")
    if np.any(~np.isfinite(sigma2)) or np.any(sigma2 <= 0):
        raise ValueError("variance profile must be finite and positive")
    if np.any(~np.isfinite(coeffs)):
        raise ValueError("coefficient profile must be finite")
    return _simulate(coeffs, sigma2, np.random.default_rng(seed), "TVVAR")


def true_spectrum(p: SimulatedProcess, freqs=None) -> Spectrogram:
    """Exact time-varying spectrum of the generating parameters."""
    return tvar_spectrum(TvarFit(coeffs=p.true_coeffs, sigma2=p.true_sigma2), freqs)
