"""Hyperparameter and order selection for the lattice fit.

Two search strategies over a discount grid:

* ``fit_blffix`` holds one (gamma, delta) pair fixed across all stages;
  each pair gets an order from the percent-change rule on its causal scree
  and candidates compete on the joint predictive density of the data at
  their own order.
* ``fit_blfdyn`` chooses the pair greedily stage by stage, maximizing the
  stage predictive log likelihood given the residuals fixed by the stages
  already selected.

Order selection applies the percent-change rule to a "scree" of per-stage
log likelihoods.  Each method applies the rule to the scree its own search
produces: the greedy search's stage maxima for ``fit_blfdyn``, and for
``fit_blffix`` the likelihoods of a causal pass in which each stage's
outputs are its one-step forecast errors.  The causal scree is what makes
fixed-pair totals comparable across the grid: chaining smoothed residuals
instead lets every extra stage shrink the series a little using future
data, which rewards small discounts without bound.  Scores need only the
forward recurrences; each grid is scored through ``dlm._score``, whose
full-width work runs as one chunked sweep over the series.  ``fit_blfdyn``
chains its stages through ``lattice.run_stage``, which computes only their
means, and keeps only their prediction errors.  The final model
of both is the smoothed lattice at the selected discounts up to the
selected order, built once after the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dlm import (
    DiscountPair,
    NIGPrior,
    _forecasts,
    _score,
    default_prior,
)
from .lattice import LatticeRun, _is_count, _regression, run_lattice, run_stage
# forward_filter and predictive_loglik stay bound here, unused: perfbench's
# spans.py wraps selection.forward_filter and selection.predictive_loglik
# by name.
from .dlm import forward_filter, predictive_loglik  # noqa: F401
from .tvar import TvarFit, assemble_fit

__all__ = [
    "SearchGrid",
    "SelectionReport",
    "select_order",
    "fit_blfdyn",
    "fit_blffix",
    "fit_fixed",
    "scree_table",
]


@dataclass(frozen=True)
class SearchGrid:
    """Candidate discount values (both factors) and the maximum order."""

    gammas: tuple = tuple(np.round(np.arange(0.80, 1.0001, 0.02), 10))
    deltas: tuple = tuple(np.round(np.arange(0.80, 1.0001, 0.02), 10))
    p_max: int = 15

    def __post_init__(self):
        for name in ("gammas", "deltas"):
            vals = np.asarray(getattr(self, name), dtype=float)
            # NaN fails both comparisons, so it is rejected too.
            if vals.size == 0 or not np.all((vals > 0) & (vals <= 1)):
                raise ValueError(f"{name} must be nonempty with values in (0, 1], "
                                 f"got {getattr(self, name)}")
        if not (_is_count(self.p_max) and self.p_max >= 1):
            raise ValueError(f"p_max must be an integer >= 1, got {self.p_max!r}")

    def pairs(self) -> list[DiscountPair]:
        """All (gamma, delta) combinations, gamma ascending then delta."""
        return [
            DiscountPair(g, dl)
            for g in sorted(self.gammas)
            for dl in sorted(self.deltas)
        ]


@dataclass
class SelectionReport:
    """Outcome of a selection run: scree, discounts, order and final fit.

    ``run`` holds the stages of the final model, so ``chosen_order`` is
    ``run.order``; for the searches ``per_stage_discounts`` and ``scree``
    stay ``p_max`` long.
    """

    method: str
    per_stage_discounts: list[DiscountPair]
    scree: np.ndarray
    fit: TvarFit
    run: LatticeRun = field(repr=False)
    saturated: bool = False

    @property
    def chosen_order(self) -> int:
        return self.run.order


def _pct_change(scree: np.ndarray) -> np.ndarray:
    """|(L_m - L_{m-1}) / L_{m-1}| * 100 for m = 2..len(scree), down each
    column of a (p,) or (p, n) scree."""
    return np.abs(np.diff(scree, axis=0) / scree[:-1]) * 100.0


def _first_hit(mask: np.ndarray, none: int) -> np.ndarray:
    """1 + the row of the first True down each column of ``mask``, or
    ``none`` where a column has no True (always so when ``mask`` has no
    rows)."""
    stop = np.concatenate([mask, np.ones((1,) + mask.shape[1:], dtype=bool)])
    first = np.argmax(stop, axis=0)
    return np.where(first < len(mask), first + 1, none)


def _check_tau(tau: float) -> None:
    """Raise unless the order rule's threshold is finite and > 0."""
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")


def _order_rule(scree: np.ndarray, tau: float) -> np.ndarray:
    """:func:`select_order` of every column of a (p,) or (p, n) scree."""
    _check_tau(tau)
    if scree.size == 0:
        raise ValueError("need at least one scree value")
    if np.any(~np.isfinite(scree)) or np.any(scree == 0.0):
        raise ValueError("scree values must be finite and nonzero")
    return _first_hit(_pct_change(scree) < tau, len(scree))


def select_order(scree, tau: float = 0.5) -> int:
    """Order from the percent-change rule on stage log likelihoods.

    Returns the smallest m-1 such that |(L_m - L_{m-1}) / L_{m-1}| * 100
    falls below ``tau``; if no m qualifies (always so for a one-value
    scree) the rule saturates and the full scree length is returned
    (callers flag this case).  ``tau`` must be finite and > 0: at NaN or
    tau <= 0 the rule would never fire, at +inf it would always fire.
    """
    return int(_order_rule(np.asarray(scree, dtype=float), tau))


def _search_inputs(x, grid: SearchGrid | None,
                   prior: NIGPrior | None) -> tuple[SearchGrid, np.ndarray, NIGPrior]:
    """Defaults and the series-length rule shared by both searches."""
    grid = SearchGrid() if grid is None else grid
    x = np.asarray(x, dtype=float)
    if grid.p_max >= len(x):
        raise ValueError(f"series of length T={len(x)} is too short for "
                         f"p_max={grid.p_max}; the searches need p_max < T")
    return grid, x, default_prior(x) if prior is None else prior


def _batched_pairs(grid: SearchGrid):
    """The grid's pairs as grid-shaped discounts, gamma on the first batch
    axis and delta on the second, and ``pair(k)``, the pair at index k of a
    batched score ``.ravel()``-ed, which is ``grid.pairs()[k]``.  A search
    reads only a few pairs, so it builds only those."""
    gammas, deltas = sorted(grid.gammas), sorted(grid.deltas)

    def pair(k: int) -> DiscountPair:
        g, d = divmod(k, len(deltas))
        return DiscountPair(gammas[g], deltas[d])

    return pair, DiscountPair(np.array(gammas, dtype=float)[:, None],
                              np.array(deltas, dtype=float)[None, :])


def _require_finite(ll: np.ndarray, pair, m: int) -> None:
    """Raise naming the first grid pair whose stage-m score is not finite."""
    bad = np.flatnonzero(~np.isfinite(ll))
    if bad.size:
        first = pair(int(bad[0]))
        raise ValueError(f"non-finite predictive log likelihood at stage m={m} for "
                         f"(gamma, delta)=({first.gamma}, {first.delta})")


def _causal_scree(x: np.ndarray, pair, batch: DiscountPair,
                  p_max: int, prior: NIGPrior) -> np.ndarray:
    """Per-stage predictive log likelihoods of a causal lattice pass.

    Stage outputs are the filters' one-step forecast errors: the stage-m
    forward errors cover t = m+1..T and the backward ones t = 1..T-m, so
    stage m+1 regresses ``f[1:]`` on ``b[:-1]``.  ``batch`` holds the grid-
    shaped discounts and ``pair`` names a pair by index, as
    :func:`_batched_pairs` returns them; the result has shape
    (p_max, number of pairs).
    Each stage is scored by :func:`blf.dlm._score`, which also returns the
    forward errors.  The errors depend on gamma alone, so the series stay
    one column per gamma, and the backward regression, whose only output
    is its errors, runs only the recurrences that produce them.
    """
    scree = np.empty((p_max, batch.gamma.size * batch.delta.size))
    f = b = x
    for m in range(1, p_max + 1):
        ll, f_next = _score(f[1:], b[:-1], prior, batch)
        scree[m - 1] = ll.ravel()
        _require_finite(scree[m - 1], pair, m)
        b = _forecasts(b[:-1], f[1:], prior, batch)[0]
        f = f_next
    return scree


def _first_flattening(scree: np.ndarray) -> np.ndarray:
    """Order at the first local minimum of the percent-change sequence,
    down each column of a (p,) or (p, n) scree.

    Fallback scree reading for when no change clears the threshold: the
    first stage where the relative gain stops shrinking marks the elbow.
    """
    pct = _pct_change(scree)
    return _first_hit(pct[:-1] <= pct[1:], len(scree))


def _blffix_orders(scree: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Each column's order and saturation flag in ``fit_blffix``: the
    percent-change rule, or the first flattening where the rule saturates."""
    rule = _order_rule(scree, tau)
    saturated = rule == len(scree)
    return np.where(saturated, _first_flattening(scree), rule), saturated


def _report(method: str, run: LatticeRun, discounts: list[DiscountPair],
            scree: np.ndarray, saturated: bool) -> SelectionReport:
    """Report whose final model is every stage of ``run``."""
    return SelectionReport(
        method=method,
        per_stage_discounts=discounts,
        scree=scree,
        fit=assemble_fit(run, run.order),
        run=run,
        saturated=saturated,
    )


def fit_blfdyn(x, grid: SearchGrid | None = None, prior: NIGPrior | None = None,
               tau: float = 0.5) -> SelectionReport:
    """Stage-wise greedy discount selection, then the order rule.

    At each stage every grid pair is scored on the residuals fixed by the
    previously selected stages; the stage keeps the pair with the highest
    forward predictive log likelihood (ties to the earliest pair in gamma-
    then-delta order).  The search chains its stages through
    :func:`blf.lattice.run_stage` at the chosen pair and keeps only the
    prediction errors it feeds the next stage; the final model is the
    lattice at the chosen pairs up to the selected order, built once at the
    end, as ``fit_blffix`` does.
    """
    grid, x, prior = _search_inputs(x, grid, prior)
    pair, batch = _batched_pairs(grid)

    discounts = []
    scree = np.empty(grid.p_max)
    f_prev, b_prev = x, x
    for m in range(1, grid.p_max + 1):
        ll = _score(*_regression(f_prev, b_prev, m), prior, batch)[0].ravel()
        _require_finite(ll, pair, m)
        best = int(np.argmax(ll))
        scree[m - 1] = ll[best]
        discounts.append(pair(best))
        if m < grid.p_max:
            stage = run_stage(f_prev, b_prev, m, discounts[-1], prior)
            f_prev, b_prev = stage.f_next, stage.b_next
            del stage  # its PARCOR paths are not held through the next score

    order = select_order(scree, tau)
    run = run_lattice(x, order, discounts[:order], prior)
    return _report("blfdyn", run, discounts, scree, order == grid.p_max)


def fit_blffix(x, grid: SearchGrid | None = None, prior: NIGPrior | None = None,
               tau: float = 0.5) -> SelectionReport:
    """One discount pair shared by all stages.

    Each grid pair gets an order from the percent-change rule on its causal
    scree (falling back to the first flattening of the scree when the rule
    never triggers, since chained one-step scores drift upward slightly at
    every extra stage).  Candidate (pair, order) models are then compared
    by the causal log likelihood at the selected stage, which is the joint
    one-step predictive log density of the data under that model: the
    causal lattice maps the data to stage inputs through a unit-Jacobian
    lower-triangular transform, so the final selected stage's predictive
    density is the model's data density.
    """
    grid, x, prior = _search_inputs(x, grid, prior)
    pair, batch = _batched_pairs(grid)

    scree = _causal_scree(x, pair, batch, grid.p_max, prior)
    orders, sats = _blffix_orders(scree, tau)
    joint = scree[orders - 1, np.arange(scree.shape[1])]
    best = int(np.argmax(joint))
    chosen = pair(best)
    run = run_lattice(x, int(orders[best]), chosen, prior)
    return _report("blffix", run, [chosen] * grid.p_max, scree[:, best],
                   bool(sats[best]))


def fit_fixed(x, d: DiscountPair, order: int,
              prior: NIGPrior | None = None) -> SelectionReport:
    """No search: fit the lattice at the given discounts and order."""
    x = np.asarray(x, dtype=float)
    prior = default_prior(x) if prior is None else prior
    run = run_lattice(x, order, d, prior)
    return _report("fixed", run, run.discounts, run.scree, False)


def scree_table(report: SelectionReport) -> list[tuple[int, float, float | None]]:
    """Rows (stage, log likelihood, percent change) for the scree diagnostic.

    The percent-change column is None at the first stage.
    """
    scree = np.asarray(report.scree, dtype=float)
    pct = [None] + [float(p) for p in _pct_change(scree)]
    return [(m, float(v), p) for m, (v, p) in enumerate(zip(scree, pct), start=1)]
