"""Order rule and discount-search tests."""

import tracemalloc

import numpy as np
import pytest

import blf.dlm
import blf.selection
from blf.dlm import DiscountPair, NIGPrior, default_prior, forward_filter, predictive_loglik
from blf.lattice import _regression, run_lattice
from blf.selection import (
    SearchGrid,
    fit_blfdyn,
    fit_blffix,
    fit_fixed,
    scree_table,
    select_order,
)
from blf.simulate import gen_tvar2, gen_tvar6
from helpers import static_nig_posterior

SMALL_GRID = SearchGrid(gammas=(0.9, 0.95, 1.0), deltas=(0.9, 0.95, 1.0), p_max=4)


class TestSelectOrder:
    def test_formula_example(self):
        """Change from -50 to -50.1 is 0.2% < 0.5%, so order 2."""
        assert select_order([-100.0, -50.0, -50.1, -50.05], 0.5) == 2

    def test_constant_scree_gives_one(self):
        assert select_order([-10.0, -10.0, -10.0], 0.5) == 1

    def test_saturation_returns_full_length(self):
        assert select_order([-100.0, -50.0, -25.0, -12.0], 0.5) == 4

    def test_monotone_in_threshold(self):
        """Raising tau never increases the selected order."""
        rng = np.random.default_rng(30)
        for _ in range(50):
            scree = -np.abs(rng.normal(50, 20, size=8)).cumsum()[::-1] - 1.0
            taus = np.sort(rng.uniform(0.01, 20.0, size=4))
            orders = [select_order(scree, t) for t in taus]
            assert all(a >= b for a, b in zip(orders, orders[1:]))

    def test_rejects_zero_and_short(self):
        with pytest.raises(ValueError, match="nonzero"):
            select_order([-10.0, 0.0, -5.0], 0.5)
        assert select_order([-10.0], 0.5) == 1

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_tau_that_cannot_fire(self, tau):
        """A NaN or non-positive threshold would never fire, an infinite one
        would always fire."""
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            select_order([-100.0, -50.0, -50.1], tau)


class TestSearchGrid:
    def test_defaults_match_reference_setup(self):
        grid = SearchGrid()
        assert grid.p_max == 15
        expect = np.round(np.arange(0.80, 1.0001, 0.02), 10)
        np.testing.assert_array_equal(np.array(grid.gammas), expect)
        assert len(grid.pairs()) == 121

    def test_pair_iteration_order(self):
        grid = SearchGrid(gammas=(0.9, 0.8), deltas=(1.0, 0.9), p_max=2)
        got = [(p.gamma, p.delta) for p in grid.pairs()]
        assert got == [(0.8, 0.9), (0.8, 1.0), (0.9, 0.9), (0.9, 1.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(gammas=(0.0, 0.9), deltas=(0.9,), p_max=3)
        with pytest.raises(ValueError):
            SearchGrid(p_max=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="gammas"):
                SearchGrid(gammas=(bad,))
            with pytest.raises(ValueError, match="deltas"):
                SearchGrid(deltas=(0.9, bad))
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="p_max must be an integer"):
                SearchGrid(p_max=bad)


class TestFitters:
    def test_singleton_grid_dyn_equals_fix_on_white_noise(self):
        """Degenerate grid: both searches land on the same configuration and
        order, so the fits are bit-identical."""
        rng = np.random.default_rng(31)
        x = rng.normal(size=400)
        grid = SearchGrid(gammas=(1.0,), deltas=(1.0,), p_max=4)
        rd = fit_blfdyn(x, grid=grid)
        rf = fit_blffix(x, grid=grid)
        assert rd.chosen_order == rf.chosen_order == 1
        assert [(d.gamma, d.delta) for d in rd.per_stage_discounts] == \
               [(d.gamma, d.delta) for d in rf.per_stage_discounts]
        assert np.array_equal(rd.fit.coeffs, rf.fit.coeffs)
        assert np.array_equal(rd.fit.sigma2, rf.fit.sigma2)

    def test_blfdyn_stage_choice_is_argmax(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=250)
        x[1:] += 0.7 * x[:-1]
        rep = fit_blfdyn(x, grid=SMALL_GRID)
        chosen = rep.per_stage_discounts[0]
        prior = default_prior(x)
        best = predictive_loglik(forward_filter(*_regression(x, x, 1), prior, chosen))
        for pair in SMALL_GRID.pairs():
            assert best >= predictive_loglik(forward_filter(*_regression(x, x, 1), prior, pair))

    def test_white_noise_blffix_order_one(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=800)
        rep = fit_blffix(x, grid=SMALL_GRID)
        assert rep.chosen_order == 1
        assert np.mean(np.abs(rep.fit.coeffs[:, 0])) < 0.1

    def test_static_singleton_matches_conjugate_regression(self):
        """Grid pinned at (1, 1): the stage-1 PARCOR path is the constant
        static posterior mean of the lag-1 regression."""
        rng = np.random.default_rng(34)
        x = np.zeros(300)
        for t in range(1, 300):
            x[t] = 0.6 * x[t - 1] - 0.2 * (x[t - 2] if t > 1 else 0.0) \
                + rng.standard_normal()
        grid = SearchGrid(gammas=(1.0,), deltas=(1.0,), p_max=2)
        prior = NIGPrior()
        rep = fit_fixed(x, DiscountPair(1.0, 1.0), 2, prior=prior)
        alpha1 = rep.run.stages[0].alpha
        assert np.ptp(alpha1) == 0.0
        mu_T, _, _, _ = static_nig_posterior(x[1:], x[:-1], prior)
        np.testing.assert_allclose(alpha1[0], mu_T, rtol=1e-10)

    def test_tvar2_selects_order_two(self):
        proc = gen_tvar2(1024, seed=12)
        rep = fit_blfdyn(proc.x)
        assert rep.chosen_order == 2
        assert not rep.saturated

    def test_deterministic_pipeline(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=300)
        a = fit_blfdyn(x, grid=SMALL_GRID)
        b = fit_blfdyn(x, grid=SMALL_GRID)
        assert np.array_equal(a.fit.coeffs, b.fit.coeffs)
        assert np.array_equal(a.scree, b.scree)
        assert a.chosen_order == b.chosen_order

    @pytest.mark.parametrize("fitter", [fit_blfdyn, fit_blffix])
    def test_run_is_lattice_at_chosen_order(self, fitter):
        """The report's run holds exactly the chosen stages, and they are the
        smoothed lattice at the selected per-stage discounts, bit for bit.
        The TVAR6 case saturates, so blfdyn's run keeps stage p_max too; a
        p_max=1 grid always saturates at order 1."""
        sat_grid = SearchGrid(SMALL_GRID.gammas, SMALL_GRID.deltas, p_max=3)
        one_grid = SearchGrid(SMALL_GRID.gammas, SMALL_GRID.deltas, p_max=1)
        for proc, grid in ((gen_tvar2(400, seed=37), SMALL_GRID),
                           (gen_tvar6(400, seed=37), sat_grid),
                           (gen_tvar2(400, seed=37), one_grid)):
            rep = fitter(proc.x, grid=grid)
            order = rep.chosen_order
            assert rep.run.order == order
            assert len(rep.per_stage_discounts) == len(rep.scree) == grid.p_max
            assert rep.saturated or grid is SMALL_GRID
            ref = run_lattice(proc.x, order, rep.per_stage_discounts[:order],
                              default_prior(proc.x))
            for got, want in zip(rep.run.stages, ref.stages):
                for name in ("alpha", "beta", "f_next", "b_next"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), \
                        f"stage {got.m} {name}"

    @pytest.mark.parametrize("fitter", [fit_blfdyn, fit_blffix])
    def test_nonfinite_score_is_named(self, fitter, monkeypatch):
        """A NaN in one grid column never wins the argmax: the search stops
        and names the stage and the (gamma, delta) pair."""
        real = blf.selection._score

        def nan_in_column_3(*args):
            ll, e = real(*args)
            ll = ll.copy()
            ll.reshape(-1)[3] = np.nan
            return ll, e

        monkeypatch.setattr(blf.selection, "_score", nan_in_column_3)
        x = np.random.default_rng(38).normal(size=200)
        pair = SMALL_GRID.pairs()[3]
        with pytest.raises(ValueError, match=rf"m=1 .*\(gamma, delta\)="
                           rf"\({pair.gamma}, {pair.delta}\)"):
            fitter(x, grid=SMALL_GRID)


    @pytest.mark.parametrize("fitter", [fit_blfdyn, fit_blffix])
    def test_t_normalizer_taken_once_per_delta(self, fitter, monkeypatch):
        """The Student-t normalizer depends on (v0, delta, n) alone: a whole
        search at T = 1024, final fit included, takes at most two lgamma
        calls per distinct delta and time step."""
        calls = []
        real = blf.dlm.math.lgamma

        def counted(v):
            calls.append(v)
            return real(v)

        blf.dlm._t_tables.cache_clear()
        monkeypatch.setattr(blf.dlm.math, "lgamma", counted)
        T = 1024
        fitter(gen_tvar2(T, seed=40).x)
        assert 0 < len(calls) <= 2 * len(SearchGrid().deltas) * T

    @pytest.mark.parametrize("fitter", [fit_blfdyn, fit_blffix])
    def test_series_length_rule(self, fitter):
        """Both searches need p_max < T and name T and p_max otherwise."""
        x = np.random.default_rng(39).normal(size=12)
        with pytest.raises(ValueError, match=r"T=12 .*p_max=15"):
            fitter(x)
        grid = SearchGrid(SMALL_GRID.gammas, SMALL_GRID.deltas, p_max=11)
        assert 1 <= fitter(x, grid=grid).chosen_order <= 11

    def test_empty_series_rejected_by_the_default_prior(self):
        """An empty series has no variance to match: a ValueError, not
        numpy's degrees-of-freedom RuntimeWarning from np.var."""
        with pytest.raises(ValueError, match="non-empty series"):
            default_prior([])
        with pytest.raises(ValueError, match="non-empty series"):
            fit_fixed([], DiscountPair(1.0, 1.0), 1)


def test_blffix_memory_is_bounded_by_its_narrow_arrays():
    """At T=16384 on the default 11 x 11 grid, a blffix fit's traced peak
    stays within what its causal pass keeps: at most three error series
    (a stage's forward and backward errors and the next forward errors)
    and six working arrays of one regression's recurrences (x^2, P, g and
    the mean's scan input, output and scratch), each T x 11 one column per
    gamma; v and the cached normalizers, T x 11 one column per delta; and
    two blocks of the scorer's byte budget for the full-width work.  That
    is 15.4 MiB; with kappa and the density at full width over the whole
    series the peak was 56.5 MiB.  The final lattice, at order 4, peaks
    lower."""
    T, grid = 16384, SearchGrid()
    x = gen_tvar6(T, seed=0).x
    bound = 8 * T * (9 * len(grid.gammas) + 2 * len(grid.deltas)) \
        + 2 * blf.dlm._BLOCK_BYTES
    tracemalloc.start()
    try:
        rep = fit_blffix(x, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.chosen_order == 4
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB over {bound / 2**20:.2f} MiB"



def test_blfdyn_memory_is_bounded_by_what_it_keeps():
    """At T=16384 on the default 11 x 11 grid, a blfdyn fit's traced peak
    exceeds what it leaves allocated (its report, whose order-6 lattice
    keeps four T-long paths per stage, 3 MiB, and the normalizer cache) by
    less than three T x 11 arrays: the search chains its stages through
    ``run_stage`` keeping only their prediction errors, and builds the
    lattice once, after the order rule.  Keeping every stage's lattice
    output until the order rule ran peaked 26 MiB above it."""
    T, grid = 16384, SearchGrid()
    x = gen_tvar6(T, seed=0).x
    tracemalloc.start()
    try:
        rep = fit_blfdyn(x, grid=grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.chosen_order == 6
    bound = kept + 8 * T * 3 * len(grid.gammas)
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB over {bound / 2**20:.2f} MiB"

class TestScreeTable:
    def test_rows_and_first_pct_undefined(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=300)
        rep = fit_blfdyn(x, grid=SMALL_GRID)
        rows = scree_table(rep)
        assert len(rows) == SMALL_GRID.p_max
        assert rows[0][2] is None
        assert all(pct is not None for _, _, pct in rows[1:])
        assert [m for m, _, _ in rows] == [1, 2, 3, 4]

    def test_tvar2_pct_below_threshold_at_three(self):
        proc = gen_tvar2(1024, seed=12)
        rep = fit_blfdyn(proc.x)
        rows = scree_table(rep)
        assert rows[2][2] < 0.5  # consequence of order-2 selection
