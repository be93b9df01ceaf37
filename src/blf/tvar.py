"""Time-varying Levinson recursion and assembly of TVAR fits.

Converts per-stage partial-autocorrelation trajectories into the
coefficients of a time-varying AR model.  ``_levinson`` runs the recursion
at every time point at once, since it has no coupling across t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# backward_sample stays bound here: perfbench/spans.py wraps
# tvar.backward_sample by name.
from .dlm import _block_sampler, backward_sample  # noqa: F401
from .lattice import LatticeRun, _is_count, filter_rows, stage_filters, stage_variance

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
    """Build the order-P TVAR fit from the first P stages of a lattice run.

    The coefficients map the stored PARCOR paths through the Levinson
    recursion; ``sigma2`` is :func:`blf.lattice.stage_variance` of stage P,
    read from its recomputed forward pass before the PARCOR grids are
    stacked, so that the pass and the grids are never alive together.
    """
    _check_order(run, P)
    sigma2 = stage_variance(run, P)
    alpha = np.stack([run.stages[m].alpha for m in range(P)], axis=-1)
    beta = np.stack([run.stages[m].beta for m in range(P)], axis=-1)
    coeffs, _ = parcor_to_tvar(alpha, beta)
    return TvarFit(coeffs=coeffs, sigma2=sigma2)


# Bytes of a draw's two stage-major buffers, 16 P per (draw, t) of a time
# block: one block of 1024 steps at 64 draws and P = 2, blocks of 315 or
# 316 steps at P = 6.
_BLOCK_BYTES = 2 << 20


def path_sampler(run: LatticeRun, P: int):
    """Joint posterior path sampler over the first P stages of a run.

    Returns a generator function ``draw(rng, size)`` that yields time
    blocks ``(start, coeffs, sigma2)`` from the last block back to the first:
    ``coeffs`` of shape (size, B, P) and ``sigma2`` of shape (size, B) hold
    times start + 1 .. start + B of ``size`` joint draws, each one joint
    PARCOR path per stage (plus the stage-P forward variance path) mapped
    through the Levinson recursion.  The 2P filter passes are recomputed
    from the run's inputs by :func:`blf.lattice.stage_filters` when
    ``path_sampler`` is called, once for all draws, and live as long as the
    sampler does.  Each filter's rows are placed on the times 1..T as the
    smoothed stage paths are, by :func:`blf.lattice.filter_rows`.  Used for
    posterior spectral surfaces.

    The T steps are split into equal blocks, as few as keep a block's two
    stage-major (P, B, size) buffers, forward and backward, within
    ``_BLOCK_BYTES`` (2 MiB).  For each block every one of the 2P
    regressions, in stage order and forward before backward, draws the
    rows the block needs and carries one row of each recursion to the next,
    earlier block; then the Levinson recursion runs in place on the
    buffers.  ``coeffs`` is the forward buffer seen as (size, B, P), a
    transposed view that the next block overwrites, so a caller uses each
    block before it asks for the next; ``sigma2`` is a transposed (B, size)
    array.  Memory is the two buffers and a few (B + 1, size) rows of
    sampler output and temporaries, whatever T is.

    Each call of ``draw`` takes four integers from ``rng`` as the entropy
    of a :class:`numpy.random.SeedSequence` and spawns from it two
    generators per regression (:func:`blf.dlm._block_sampler`), so the
    draws do not depend on the block layout: every split of the T steps
    gives the same random numbers and paths equal to rounding.
    """
    _check_order(run, P)
    T = len(run.x)
    # The 2P regressions in draw order, each with its filter row per time.
    regressions = [(fs, rows) for m in range(1, P + 1)
                   for fs, rows in zip(stage_filters(run, m), filter_rows(T, m))]

    def draw(rng: np.random.Generator, size: int):
        n = -(-T // max(1, _BLOCK_BYTES // (16 * P * max(size, 1))))
        edges = [T * i // n for i in range(n + 1)]
        seeds = np.random.SeedSequence(rng.integers(0, 2**63, size=4)).spawn(4 * P)
        gens = [np.random.default_rng(s) for s in seeds]
        samplers = [(_block_sampler(fs, gens[2 * k], gens[2 * k + 1], size), rows)
                    for k, (fs, rows) in enumerate(regressions)]
        # buf[0] holds the forward paths and buf[1] the backward, stage-major.
        buf = np.empty((2, P, -(-T // n), size))
        for i in range(n - 1, -1, -1):
            times = slice(edges[i], edges[i + 1])
            a, d = buf[:, :, :times.stop - times.start]
            for k, (sampler, rows) in enumerate(samplers):
                lo = rows[times.start]
                path, s2 = sampler(lo)
                np.take(path, rows[times] - lo, axis=0, out=(a, d)[k % 2][k // 2])
                if k == 2 * P - 2:  # the stage-P forward variance path
                    sigma2 = s2[rows[times] - lo].T
            del path, s2
            _levinson(a, d)
            yield times.start, a.transpose(2, 1, 0), sigma2

    return draw
