"""Stage-wise Bayesian lattice filter.

Stage m regresses the forward prediction errors of order m-1 on the
m-lagged backward errors (and the backward errors on the m-led forward
errors), each through the conjugate discount DLM of :mod:`blf.dlm`.  The
smoothed regression coefficients are the stage-m partial autocorrelation
trajectories, and subtracting their fitted contribution produces the
order-m prediction-error series that feed the next stage.

Each regression filters only the steps that have a regressor: the forward
one t = m+1..T, the backward one t = 1..T-m.  The times without one take
the nearest filter row (see :func:`filter_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dlm import (
    DiscountPair,
    FilterState,
    NIGPrior,
    _forecasts,
    _smooth_mean,
    backward_smooth,
    forward_filter,
    predictive_loglik,
)

__all__ = ["StageResult", "LatticeRun", "filter_rows", "run_stage", "run_lattice"]


def _is_count(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class StageResult:
    """Smoothed output of one lattice stage.

    All arrays have length T (trailing batch axes allowed).  ``alpha`` /
    ``beta`` are the smoothed forward/backward partial-autocorrelation
    paths, ``alpha_var`` / ``beta_var`` the scales of their marginal
    t-posteriors, ``sf2`` / ``sb2`` the smoothed innovation-variance paths,
    and ``f_next`` / ``b_next`` the prediction-error series for the next
    stage.  ``loglik`` is the one-step predictive log likelihood of the
    forward regression.  ``filter_f`` / ``filter_b`` are the two forward
    passes, which carry the stage's discounts; each has T-m+1 rows, mapped
    to the times 1..T by :func:`filter_rows`.
    """

    m: int
    alpha: np.ndarray
    beta: np.ndarray
    alpha_var: np.ndarray
    beta_var: np.ndarray
    sf2: np.ndarray
    sb2: np.ndarray
    f_next: np.ndarray
    b_next: np.ndarray
    loglik: float | np.ndarray
    filter_f: FilterState = field(repr=False)
    filter_b: FilterState = field(repr=False)


@dataclass
class LatticeRun:
    """Chained stage results for m = 1..P over one input series."""

    stages: list[StageResult]
    x: np.ndarray

    @property
    def order(self) -> int:
        return len(self.stages)

    @property
    def scree(self) -> np.ndarray:
        return np.array([st.loglik for st in self.stages])


def filter_rows(T: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of the stage-m forward and backward filters for each time 1..T.

    The forward filter's row j is time m+j and the backward filter's row j
    is time j (j = 0..T-m, row 0 the prior).  A time without a regressor
    takes the nearest row: t <= m the forward row 0 (time m, before its
    first update), t > T-m the backward row T-m.  No time maps to the
    backward row 0.
    """
    times = np.arange(1, T + 1)
    return np.maximum(times - m, 0), np.minimum(times, T - m)


def run_stage(f_prev, b_prev, m: int, d: DiscountPair,
              prior: NIGPrior) -> StageResult:
    """Run lattice stage m on the order-(m-1) prediction-error series.

    Parameters
    ----------
    f_prev, b_prev : array_like, shape (T,) or (T, G)
        Forward and backward prediction errors from the previous stage
        (the raw series itself for m = 1).  The batch axis lives on the
        series: G columns are G independent stages.
    m : int
        Stage index, 1 <= m < T.
    d : DiscountPair
        The stage's discounts, shared by the forward and backward
        regressions: scalars, or length-G arrays (one value per column) for
        a (T, G) batch.
    prior : NIGPrior
        Shared by both regressions.

    Returns
    -------
    StageResult
    """
    f_prev = np.asarray(f_prev, dtype=float)
    b_prev = np.asarray(b_prev, dtype=float)
    if f_prev.shape != b_prev.shape:
        raise ValueError("f_prev and b_prev must have equal shape")
    T = f_prev.shape[0]
    if not (_is_count(m) and 1 <= m < T):
        raise ValueError(f"stage index m={m!r} must be an integer with "
                         f"1 <= m < T={T}")

    # The forward regression runs over t = m+1..T, the backward over 1..T-m.
    f_obs, b_obs = f_prev[m:], b_prev[:T - m]
    fs_f = forward_filter(f_obs, b_obs, prior, d)
    fs_b = forward_filter(b_obs, f_obs, prior, d)
    if fs_f.kappa.shape[1:] != f_prev.shape[1:]:
        raise ValueError("batched discounts need a (T, G) series, one column each")
    sm_f = backward_smooth(fs_f)
    sm_b = backward_smooth(fs_b)

    f_next, b_next = _next_errors(f_prev, b_prev, m, sm_f.mu, sm_b.mu)
    rows_f, rows_b = filter_rows(T, m)
    return StageResult(
        m=m,
        alpha=sm_f.mu[rows_f], beta=sm_b.mu[rows_b],
        alpha_var=sm_f.c[rows_f], beta_var=sm_b.c[rows_b],
        sf2=sm_f.s[rows_f], sb2=sm_b.s[rows_b],
        f_next=f_next, b_next=b_next,
        loglik=predictive_loglik(fs_f),
        filter_f=fs_f, filter_b=fs_b,
    )


def _next_errors(f_prev, b_prev, m: int, mu_f, mu_b):
    """The stage-m prediction errors ``(f_next, b_next)``: each input less
    its regressor times the smoothed coefficient means ``mu_f``/``mu_b`` of
    the stage's forward and backward regressions (rows 0..T-m)."""
    T = f_prev.shape[0]
    f_next = f_prev.copy()
    f_next[m:] -= mu_f[1:] * b_prev[:T - m]
    b_next = b_prev.copy()
    b_next[:T - m] -= mu_b[1:] * f_prev[m:]
    if not (np.all(np.isfinite(f_next)) and np.all(np.isfinite(b_next))):
        raise ValueError(f"non-finite residuals produced at stage m={m}")
    return f_next, b_next


def _stage_errors(f_prev, b_prev, m: int, d: DiscountPair, prior: NIGPrior):
    """``(f_next, b_next)`` of ``run_stage(f_prev, b_prev, m, d, prior)``
    bit for bit, from the two regressions' filtered and smoothed means
    alone: no variance, degrees of freedom or score is computed or kept.
    A search that only chains stages runs this."""
    T = f_prev.shape[0]
    f_obs, b_obs = f_prev[m:], b_prev[:T - m]
    mu_f, gamma = _forecasts(f_obs, b_obs, prior, d)[4:]
    mu_b = _forecasts(b_obs, f_obs, prior, d)[4]
    return _next_errors(f_prev, b_prev, m, _smooth_mean(mu_f, gamma),
                        _smooth_mean(mu_b, gamma))


def run_lattice(x, P: int, per_stage, prior: NIGPrior) -> LatticeRun:
    """Chain lattice stages m = 1..P starting from f0 = b0 = x.

    ``per_stage`` is one DiscountPair, used at every stage, or a sequence
    of P of them, one per stage.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    if not (_is_count(P) and 1 <= P < T):
        raise ValueError(f"order P={P!r} must be an integer with 1 <= P < T={T}")
    pairs = [per_stage] * P if isinstance(per_stage, DiscountPair) else list(per_stage)
    if len(pairs) != P:
        raise ValueError(f"per_stage must have {P} entries, got {len(pairs)}")

    stages: list[StageResult] = []
    f_prev, b_prev = x, x
    for m, d in enumerate(pairs, start=1):
        stage = run_stage(f_prev, b_prev, m, d, prior)
        stages.append(stage)
        f_prev, b_prev = stage.f_next, stage.b_next
    return LatticeRun(stages=stages, x=x)
