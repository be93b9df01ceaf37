"""Stage-wise Bayesian lattice filter.

Stage m regresses the forward prediction errors of order m-1 on the
m-lagged backward errors (and the backward errors on the m-led forward
errors), each through the conjugate discount DLM of :mod:`blf.dlm`.  The
smoothed regression coefficients are the stage-m partial autocorrelation
trajectories, and subtracting their fitted contribution produces the
order-m prediction-error series that feed the next stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dlm import (
    DiscountPair,
    FilterState,
    NIGPrior,
    backward_smooth,
    forward_filter,
    predictive_loglik,
)

__all__ = ["StageResult", "LatticeRun", "run_stage", "run_lattice"]


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
    passes, which carry the stage's discounts.
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


def stage_regressors(f_prev: np.ndarray, b_prev: np.ndarray, m: int):
    """Regressor series and update masks for the two stage-m regressions.

    The forward regression has no regressor for the first m times (the
    lagged backward error does not exist there); the backward regression
    has none for the last m.  Those steps are masked out of the DLM update.
    """
    T = f_prev.shape[0]
    x_f = np.zeros_like(f_prev)
    x_f[m:] = b_prev[: T - m]
    mask_f = np.zeros(T, dtype=bool)
    mask_f[m:] = True

    x_b = np.zeros_like(b_prev)
    x_b[: T - m] = f_prev[m:]
    mask_b = np.zeros(T, dtype=bool)
    mask_b[: T - m] = True
    return x_f, mask_f, x_b, mask_b


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
    if not 1 <= m < T:
        raise ValueError(f"stage index m={m} must satisfy 1 <= m < T={T}")

    x_f, mask_f, x_b, mask_b = stage_regressors(f_prev, b_prev, m)

    fs_f = forward_filter(f_prev, x_f, prior, d, updated=mask_f)
    sm_f = backward_smooth(fs_f)
    fs_b = forward_filter(b_prev, x_b, prior, d, updated=mask_b)
    sm_b = backward_smooth(fs_b)
    if sm_f.mu.shape != f_prev.shape or sm_b.mu.shape != b_prev.shape:
        raise ValueError("batched discounts need a (T, G) series, one column each")

    f_next = f_prev - sm_f.mu * x_f
    b_next = b_prev - sm_b.mu * x_b

    if not (np.all(np.isfinite(f_next)) and np.all(np.isfinite(b_next))):
        raise ValueError(f"non-finite residuals produced at stage m={m}")

    return StageResult(
        m=m,
        alpha=sm_f.mu, beta=sm_b.mu,
        alpha_var=sm_f.c, beta_var=sm_b.c,
        sf2=sm_f.s, sb2=sm_b.s,
        f_next=f_next, b_next=b_next,
        loglik=predictive_loglik(fs_f),
        filter_f=fs_f, filter_b=fs_b,
    )


def run_lattice(x, P: int, per_stage, prior: NIGPrior) -> LatticeRun:
    """Chain lattice stages m = 1..P starting from f0 = b0 = x.

    ``per_stage`` is one DiscountPair, used at every stage, or a sequence
    of P of them, one per stage.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    if not 1 <= P < T:
        raise ValueError(f"order P={P} must satisfy 1 <= P < T={T}")
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
