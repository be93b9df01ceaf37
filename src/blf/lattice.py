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

from dataclasses import dataclass

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

__all__ = ["StageResult", "LatticeRun", "filter_rows", "run_stage", "run_lattice",
           "stage_filters", "stage_variance"]


def _is_count(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class StageResult:
    """Smoothed output of one lattice stage.

    All arrays have length T (trailing batch axes allowed).  ``alpha`` /
    ``beta`` are the smoothed forward/backward partial-autocorrelation
    paths and ``f_next`` / ``b_next`` the prediction-error series for the
    next stage.  All four come from the two regressions' smoothed means,
    which depend on gamma alone.  The variance side of the stage is not
    kept: it is a read-out of the stage's filter passes, which are a
    function of the stage's inputs, discounts and prior and are recomputed
    from a run where they are read.  The TVAR fit reads only the forward
    regression's pass, through :func:`stage_variance` and
    ``LatticeRun.scree``; the scales of the PARCOR paths and the backward
    variance path need both passes, ``fs_f, fs_b = stage_filters(run,
    st.m)``.  Each pass has T-m+1 rows, mapped to the times 1..T by
    ``rows_f, rows_b = filter_rows(T, st.m)``::

        sf2       = backward_smooth(fs_f).s[rows_f]   # stage_variance(run, st.m)
        loglik    = predictive_loglik(fs_f)           # run.scree[st.m - 1]
        alpha_var = backward_smooth(fs_f).c[rows_f]
        beta_var  = backward_smooth(fs_b).c[rows_b]
        sb2       = backward_smooth(fs_b).s[rows_b]
    """

    m: int
    alpha: np.ndarray
    beta: np.ndarray
    f_next: np.ndarray
    b_next: np.ndarray


@dataclass
class LatticeRun:
    """Chained stage results for m = 1..P over one input series.

    A run is its inputs, the series ``x``, the P stage ``discounts`` and the
    ``prior``, plus each stage's outputs, from which a stage's filter
    passes are recomputed: :func:`stage_variance` and ``scree`` filter the
    stage's forward regression alone, and :func:`stage_filters` both its
    regressions.
    """

    stages: list[StageResult]
    x: np.ndarray
    discounts: list[DiscountPair]
    prior: NIGPrior

    @property
    def order(self) -> int:
        return len(self.stages)

    @property
    def scree(self) -> np.ndarray:
        """The forward regressions' predictive log likelihoods, stages
        1..order, from each stage's forward pass, which is recomputed at
        every read and is the only pass filtered."""
        return np.array([predictive_loglik(forward_filter(*_pass_inputs(self, m)))
                         for m in range(1, self.order + 1)])


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
        Each regression runs only the recurrences of its filtered means
        (:func:`blf.dlm._forecasts`) and smooths only its mean, so no
        variance, degrees of freedom or score is computed, and ``d.delta``
        enters no array.  The variance side is a read-out of the stage's
        filter passes (see :class:`StageResult`).
    """
    f_prev = np.asarray(f_prev, dtype=float)
    b_prev = np.asarray(b_prev, dtype=float)
    if f_prev.shape != b_prev.shape:
        raise ValueError("f_prev and b_prev must have equal shape")
    T = f_prev.shape[0]
    if not (_is_count(m) and 1 <= m < T):
        raise ValueError(f"stage index m={m!r} must be an integer with "
                         f"1 <= m < T={T}")
    batch = f_prev.shape[1:]
    if np.broadcast_shapes(batch, np.shape(d.gamma), np.shape(d.delta)) != batch:
        raise ValueError("batched discounts need a (T, G) series, one column each")

    f_obs, b_obs = _regression(f_prev, b_prev, m)
    mu_f, gamma = _forecasts(f_obs, b_obs, prior, d)[4:]
    mu_f = _smooth_mean(mu_f, gamma)
    mu_b = _smooth_mean(_forecasts(b_obs, f_obs, prior, d)[4], gamma)

    f_next, b_next = _next_errors(f_prev, b_prev, m, mu_f, mu_b)
    rows_f, rows_b = filter_rows(T, m)
    return StageResult(m=m, alpha=mu_f[rows_f], beta=mu_b[rows_b],
                       f_next=f_next, b_next=b_next)


def _regression(f_prev, b_prev, m: int):
    """The response and regressor ``(f_prev[m:], b_prev[:T-m])`` of stage
    m's forward regression, over t = m+1..T; the backward regression is
    the same pair swapped, over t = 1..T-m."""
    return f_prev[m:], b_prev[:f_prev.shape[0] - m]


def _pass_inputs(run: LatticeRun, m: int):
    """``(y, x, prior, d)`` of stage m's forward filter pass in ``run``: the
    regression of stage m-1's ``f_next``/``b_next`` (``x`` at m = 1) at
    ``run.prior`` and ``run.discounts[m-1]``."""
    if not (_is_count(m) and 1 <= m <= run.order):
        raise ValueError(f"stage m={m!r} must be an integer with 1 <= m <= {run.order}")
    prev = run.stages[m - 2]
    f_prev, b_prev = (prev.f_next, prev.b_next) if m > 1 else (run.x, run.x)
    return (*_regression(f_prev, b_prev, m), run.prior, run.discounts[m - 1])


def stage_filters(run: LatticeRun, m: int) -> tuple[FilterState, FilterState]:
    """The forward and backward filter passes ``(fs_f, fs_b)`` of stage m of
    ``run``, recomputed from stage m-1's ``f_next``/``b_next`` (``x`` at
    m = 1), ``run.discounts[m-1]`` and ``run.prior``: their filtered means
    are bit for bit the ones :func:`run_stage` smoothed, and the passes
    carry the stage's discounts.  The joint posterior sampler reads both
    (see :func:`blf.tvar.path_sampler`); :func:`stage_variance` and
    ``LatticeRun.scree`` filter only the forward regression."""
    y, x, prior, d = _pass_inputs(run, m)
    return forward_filter(y, x, prior, d), forward_filter(x, y, prior, d)


def stage_variance(run: LatticeRun, m: int) -> np.ndarray:
    """The smoothed innovation-variance path of stage m's forward
    regression over the times 1..T, the last stage's being the TVAR fit's
    ``sigma2``: :func:`blf.dlm.backward_smooth` of the stage's forward
    pass, recomputed from the run, at the pass's rows of
    :func:`filter_rows`."""
    fs = forward_filter(*_pass_inputs(run, m))
    return backward_smooth(fs).s[filter_rows(len(run.x), m)[0]]


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


def run_lattice(x, P: int, per_stage, prior: NIGPrior) -> LatticeRun:
    """Chain lattice stages m = 1..P starting from f0 = b0 = x.

    ``per_stage`` is one DiscountPair, used at every stage, or a sequence
    of P of them, one per stage.  The run keeps ``x``, the P pairs as
    ``discounts`` and ``prior`` with the stages, so that any stage's filter
    passes can be recomputed.  A stage computes only its means
    (:func:`run_stage`); the variance paths and the scree are read from the
    recomputed forward passes where they are read.
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
    return LatticeRun(stages=stages, x=x, discounts=pairs, prior=prior)
