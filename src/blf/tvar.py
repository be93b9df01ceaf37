"""Time-varying Levinson recursion and assembly of TVAR fits.

Converts per-stage partial-autocorrelation trajectories into the
coefficients of a time-varying AR model, one time point at a time (the
recursion has no coupling across t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dlm import backward_sample
from .lattice import LatticeRun, _is_count, filter_rows

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


def _levinson(a: np.ndarray, d: np.ndarray) -> None:
    """The Levinson recursion of :func:`parcor_to_tvar`, in place on grids
    whose stage axis comes first.

    On entry row m-1 of ``a`` and ``d`` holds alpha_m and beta_m; on return
    ``a`` and ``d`` hold the final-stage coefficients.  Stage m reads row
    m-1, which no earlier stage has written, and rewrites rows 0..m-2 a
    mirror pair (k, m-2-k) at a time, each new value from the old ones by
    one multiply and one subtract, as the recursion reads.  Two work rows
    hold the products.
    """
    t = np.empty((2,) + a.shape[1:])
    for m in range(2, len(a) + 1):
        am, dm = a[m - 1], d[m - 1]
        for k in range(m // 2):
            j = m - 2 - k
            np.multiply(am, d[j], out=t[0])
            np.multiply(dm, a[k], out=t[1])
            a[k] -= t[0]
            d[j] -= t[1]
            if j > k:
                np.multiply(am, d[k], out=t[0])
                np.multiply(dm, a[j], out=t[1])
                a[j] -= t[0]
                d[k] -= t[1]


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
    a, d = alpha.copy(), beta.copy()
    _levinson(np.moveaxis(a, -1, 0), np.moveaxis(d, -1, 0))
    return a, d


def _check_order(run: LatticeRun, P) -> None:
    if not _is_count(P):
        raise ValueError(f"order P={P!r} must be an integer")
    if P < 1 or P > run.order:
        raise ValueError(f"P={P} exceeds available stages ({run.order})")


def assemble_fit(run: LatticeRun, P: int) -> TvarFit:
    """Build the order-P TVAR fit from the first P stages of a lattice run."""
    _check_order(run, P)
    alpha = np.stack([run.stages[m].alpha for m in range(P)], axis=-1)
    beta = np.stack([run.stages[m].beta for m in range(P)], axis=-1)
    coeffs, _ = parcor_to_tvar(alpha, beta)
    return TvarFit(coeffs=coeffs, sigma2=run.stages[P - 1].sf2.copy())


# Bytes of forward and backward stage rows per time block of a draw's
# Levinson pass, 16 P per (draw, t): 170 steps at 64 draws and P = 6.
_BLOCK_BYTES = 1 << 20


def path_sampler(run: LatticeRun, P: int):
    """Joint posterior path sampler over the first P stages of a run.

    Returns a callable ``draw(rng, size)`` producing ``(coeffs, sigma2)``
    with shapes ``(size, T, P)`` and ``(size, T)``: per draw, one joint
    PARCOR path per stage (plus the stage-P forward variance path) mapped
    through the Levinson recursion.  Each filter's rows are placed on the
    times 1..T as the smoothed stage paths are, by
    :func:`blf.lattice.filter_rows`.  Used for posterior spectral surfaces.

    A draw gathers the stage paths into two stage-major buffers of shape
    (P, T, size), forward and backward, and runs the recursion in place
    over blocks of time steps whose rows in both hold about
    ``_BLOCK_BYTES`` (1 MiB).  ``coeffs`` is the forward buffer seen as
    (size, T, P), a transposed view, not a contiguous copy; ``sigma2`` is
    a transposed (T, size) array.  A stage's paths are freed once they are
    in the buffers, so beside the two buffers a draw holds at most six
    (T + 1, size) rows of sampler output and temporaries.
    """
    _check_order(run, P)
    T = len(run.x)
    stages = run.stages[:P]

    def draw(rng: np.random.Generator, size: int):
        a = np.empty((P, T, size))
        d = np.empty((P, T, size))
        for j, st in enumerate(stages):
            rows_f, rows_b = filter_rows(T, st.m)
            th, s2 = backward_sample(st.filter_f, rng, size=size)
            np.take(th, rows_f, axis=0, out=a[j])
            del th
            np.take(backward_sample(st.filter_b, rng, size=size)[0], rows_b,
                    axis=0, out=d[j])
        sigma2 = s2[rows_f].T  # the stage-P forward variance path
        step = max(1, _BLOCK_BYTES // (16 * P * max(size, 1)))
        for t in range(0, T, step):
            _levinson(a[:, t:t + step], d[:, t:t + step])
        return a.transpose(2, 1, 0), sigma2

    return draw
