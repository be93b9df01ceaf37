"""Reference nonstationary process generators and their true spectra.

Each generator returns the realized series together with the generating
coefficient grid and innovation-variance path, so estimated time-frequency
surfaces can be scored against the exact ones.  Generators discard 200
warm-up steps (simulated with the t=1 parameters, started at zero) so the
retained series begins near its local stationary distribution.  Every
generator rejects a trajectory that explodes (|x_t| > 1e12).
"""

from __future__ import annotations

from collections import deque
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


def _simulate(coeffs: np.ndarray, sigma2: np.ndarray,
              rng: np.random.Generator) -> SimulatedProcess:
    """Drive x_t = sum_m coeffs[t, m] x_{t-m} + N(0, sigma2[t]) with warm-up.

    The recursion runs on Python floats, whose arithmetic is the same IEEE
    double arithmetic as numpy's scalars: each step adds c_m x_{t-m} for
    m = 1, 2, ... (lags before the start are absent) to 0.0 and then the
    shock sd_t eps_t.
    """
    T, P = coeffs.shape
    eps = rng.standard_normal(BURN_IN + T)
    full_coeffs = np.vstack([np.tile(coeffs[0], (BURN_IN, 1)), coeffs])
    full_sd = np.sqrt(np.concatenate([np.full(BURN_IN, sigma2[0]), sigma2]))
    shocks = (full_sd * eps).tolist()
    xs = []
    lags = deque(maxlen=P)  # x_{t-1}, x_{t-2}, ...: at most P, newest first
    for i, (row, shock) in enumerate(zip(full_coeffs.tolist(), shocks)):
        past = 0.0
        for c, lag in zip(row, lags):
            past += c * lag
        x = past + shock
        if abs(x) > EXPLOSION_LIMIT:
            if i < BURN_IN:
                raise ValueError(f"simulated series exploded during warm-up step "
                                 f"{i + 1} of {BURN_IN} (before t=1)")
            raise ValueError(f"simulated series exploded at t={i - BURN_IN + 1}")
        xs.append(x)
        lags.appendleft(x)
    return SimulatedProcess(
        x=np.array(xs[BURN_IN:]), true_coeffs=coeffs,
        true_sigma2=np.asarray(sigma2, float))


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
    return _simulate(coeffs, np.ones(T), np.random.default_rng(seed))


def roots_to_coeffs(moduli, thetas) -> np.ndarray:
    """AR coefficients of conjugate complex reciprocal-root pairs.

    Pair j contributes the factor (1 - a_j B)(1 - a_j* B) with
    a_j = exp(2 pi i theta_j) / A_j, i.e. 1 - 2 cos(2 pi theta_j)/A_j B
    + B^2/A_j^2.  The expanded polynomial 1 - sum_m c_m B^m gives the
    coefficients c_m of an AR(2p) model.

    ``thetas`` may carry leading axes: angles of shape (..., p) with p
    moduli give coefficients of shape (..., 2p), every polynomial expanded
    at once by three shifted multiply-adds per factor.
    """
    moduli = np.asarray(moduli, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if moduli.ndim != 1 or thetas.ndim < 1 or thetas.shape[-1] != len(moduli):
        raise ValueError("moduli and thetas must be equal-length 1-D sequences")
    if not (np.all(np.isfinite(moduli)) and np.all(np.isfinite(thetas))):
        raise ValueError("moduli and thetas must be finite")
    poly = np.ones(thetas.shape[:-1] + (1,))
    for j, A in enumerate(moduli.tolist()):
        lag1 = (-2.0 * np.cos(2.0 * np.pi * thetas[..., j]) / A)[..., None]
        nxt = np.zeros(poly.shape[:-1] + (poly.shape[-1] + 2,))
        # Each new coefficient sums B^2, B and 1 times the old ones in that
        # order, the order of np.convolve(poly, factor).
        nxt[..., 2:] = (1.0 / A**2) * poly
        nxt[..., 1:-1] += lag1 * poly
        nxt[..., :-2] += poly
        poly = nxt
    return -poly[..., 1:]


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
    coeffs = roots_to_coeffs([1.1, 1.12, 1.1], thetas)
    return _simulate(coeffs, np.ones(T), np.random.default_rng(seed))


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
    return _simulate(coeffs, np.ones(T), np.random.default_rng(seed))


def gen_tvvar(T: int, seed: int | None, variance_profile, coeff_profile) -> SimulatedProcess:
    """Simulate with caller-supplied time-varying coefficients and variances.

    Stands in for signals whose innovation variance is itself time
    dependent.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
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
    return _simulate(coeffs, sigma2, np.random.default_rng(seed))


def true_spectrum(p: SimulatedProcess, freqs=None) -> Spectrogram:
    """Exact time-varying spectrum of the generating parameters."""
    return tvar_spectrum(TvarFit(coeffs=p.true_coeffs, sigma2=p.true_sigma2), freqs)
