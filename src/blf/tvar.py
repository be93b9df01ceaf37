"""Time-varying Levinson recursion and assembly of TVAR fits.

Converts per-stage partial-autocorrelation trajectories into the
coefficients of a time-varying AR model, one time point at a time (the
recursion has no coupling across t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dlm import backward_sample
from .lattice import LatticeRun, filter_rows

__all__ = ["TvarFit", "parcor_to_tvar", "assemble_fit", "path_sampler"]


@dataclass
class TvarFit:
    """Fitted TVAR model of order P.

    ``coeffs`` is the T x P grid of lag coefficients and ``sigma2`` the
    innovation-variance path (the stage-P smoothed forward variance).  The
    order P is the width of ``coeffs``.
    """

    coeffs: np.ndarray
    sigma2: np.ndarray

    @property
    def P(self) -> int:
        return self.coeffs.shape[1]


def parcor_to_tvar(alpha, beta):
    """Map forward/backward PARCOR grids to TVAR coefficient grids.

    For every time slice the recursion over stage m = 2..P is::

        a_k^(m) = a_k^(m-1) - a_m^(m) d_{m-k}^(m-1)
        d_k^(m) = d_k^(m-1) - d_m^(m) a_{m-k}^(m-1),   k = 1..m-1

    seeded with a_m^(m) = alpha[..., m-1] and d_m^(m) = beta[..., m-1].
    With time-constant, equal alpha and beta this is the classical
    Levinson-Durbin coefficient recursion.

    Parameters
    ----------
    alpha, beta : array_like, shape (..., P)
        PARCOR values; leading axes (time, posterior draws, ...) are
        processed independently.

    Returns
    -------
    (a, d) : ndarray, shape (..., P)
        Final-stage forward and backward coefficient grids.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape:
        raise ValueError("alpha and beta grids must have equal shape")
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        raise ValueError("PARCOR grids must be finite")
    P = alpha.shape[-1]

    a = alpha.copy()
    d = beta.copy()
    for m in range(2, P + 1):
        am = alpha[..., m - 1 : m]
        dm = beta[..., m - 1 : m]
        head_a = a[..., : m - 1]
        head_d = d[..., : m - 1]
        new_a = head_a - am * head_d[..., ::-1]
        new_d = head_d - dm * head_a[..., ::-1]
        a[..., : m - 1] = new_a
        d[..., : m - 1] = new_d
    return a, d


def assemble_fit(run: LatticeRun, P: int) -> TvarFit:
    """Build the order-P TVAR fit from the first P stages of a lattice run."""
    if P < 1 or P > run.order:
        raise ValueError(f"P={P} exceeds available stages ({run.order})")
    alpha = np.stack([run.stages[m].alpha for m in range(P)], axis=-1)
    beta = np.stack([run.stages[m].beta for m in range(P)], axis=-1)
    coeffs, _ = parcor_to_tvar(alpha, beta)
    return TvarFit(coeffs=coeffs, sigma2=run.stages[P - 1].sf2.copy())


def path_sampler(run: LatticeRun, P: int):
    """Joint posterior path sampler over the first P stages of a run.

    Returns a callable ``draw(rng, size)`` producing ``(coeffs, sigma2)``
    with shapes ``(size, T, P)`` and ``(size, T)``: per draw, one joint
    PARCOR path per stage (plus the stage-P forward variance path) mapped
    through the Levinson recursion.  Each filter's rows are placed on the
    times 1..T as the smoothed stage paths are, by
    :func:`blf.lattice.filter_rows`.  Used for posterior spectral surfaces.
    """
    if P < 1 or P > run.order:
        raise ValueError(f"P={P} exceeds available stages ({run.order})")
    T = len(run.x)
    stages = run.stages[:P]

    def draw(rng: np.random.Generator, size: int):
        alpha = np.empty((size, T, P))
        beta = np.empty((size, T, P))
        for j, st in enumerate(stages):
            rows_f, rows_b = filter_rows(T, st.m)
            th_f, s2_f = backward_sample(st.filter_f, rng, size=size)
            th_b, _ = backward_sample(st.filter_b, rng, size=size)
            alpha[:, :, j] = th_f[rows_f].T
            beta[:, :, j] = th_b[rows_b].T
        coeffs, _ = parcor_to_tvar(alpha, beta)
        return coeffs, s2_f[rows_f].T  # the stage-P forward variance path

    return draw
