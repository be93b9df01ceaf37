"""Levinson recursion tests against the classical constant-coefficient
oracle, and posterior path sampler tests against whole-grid draws."""

import tracemalloc

import numpy as np
import pytest

from blf import tvar
from blf.dlm import DiscountPair, _block_sampler, default_prior
from blf.lattice import filter_rows, run_lattice, stage_filters, stage_variance
from blf.simulate import gen_tvar2, gen_tvar6
from blf.tvar import assemble_fit, parcor_to_tvar, path_sampler
from helpers import classical_levinson, levinson_out_of_place, whole_paths


class TestParcorToTvar:
    def test_order_one_identity(self):
        alpha = np.array([[0.3], [0.5], [-0.2]])
        beta = np.array([[0.1], [0.4], [-0.6]])
        a, d = parcor_to_tvar(alpha, beta)
        assert np.array_equal(a, alpha)
        assert np.array_equal(d, beta)

    def test_worked_order_two_example(self):
        """Order 2 with equal forward/backward PARCOR: the lag-1 coefficient
        is alpha1 - alpha2*beta1 and the lag-2 coefficient is alpha2."""
        a1, a2 = 0.6, -0.3
        alpha = np.tile([a1, a2], (5, 1))
        a, d = parcor_to_tvar(alpha, alpha)
        np.testing.assert_allclose(a[:, 0], a1 - a2 * a1, rtol=1e-15)
        np.testing.assert_allclose(a[:, 1], a2, rtol=0)

    def test_matches_classical_levinson(self):
        """Time-constant grids reduce to the classical recursion (1e-12)."""
        rng = np.random.default_rng(15)
        for _ in range(100):
            P = int(rng.integers(1, 11))
            ks = rng.uniform(-0.95, 0.95, size=P)
            grid = np.tile(ks, (4, 1))
            a, d = parcor_to_tvar(grid, grid)
            expected = classical_levinson(ks)
            for t in range(4):
                np.testing.assert_allclose(a[t], expected, rtol=0, atol=1e-12)
                np.testing.assert_allclose(d[t], expected, rtol=0, atol=1e-12)

    def test_symmetric_grids_give_equal_outputs(self):
        rng = np.random.default_rng(16)
        alpha = rng.uniform(-0.8, 0.8, size=(20, 5))
        a, d = parcor_to_tvar(alpha, alpha)
        np.testing.assert_array_equal(a, d)

    def test_time_slices_independent(self):
        rng = np.random.default_rng(17)
        alpha = rng.uniform(-0.8, 0.8, size=(10, 4))
        beta = rng.uniform(-0.8, 0.8, size=(10, 4))
        perm = rng.permutation(10)
        a, d = parcor_to_tvar(alpha, beta)
        ap, dp = parcor_to_tvar(alpha[perm], beta[perm])
        assert np.array_equal(ap, a[perm])
        assert np.array_equal(dp, d[perm])

    @pytest.mark.parametrize("shape", [(7, 1), (7, 2), (5, 6), (3, 4, 9)])
    def test_equals_out_of_place_recursion_bitwise(self, shape):
        rng = np.random.default_rng(shape[-1])
        alpha = rng.uniform(-0.9, 0.9, size=shape)
        beta = rng.uniform(-0.9, 0.9, size=shape)
        a, d = parcor_to_tvar(alpha, beta)
        ref_a, ref_d = levinson_out_of_place(alpha, beta)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(d, ref_d)

    def test_rejects_shape_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError, match="equal shape"):
            parcor_to_tvar(np.zeros((3, 2)), np.zeros((3, 3)))
        bad = np.zeros((3, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            parcor_to_tvar(bad, np.zeros((3, 2)))


class TestAssembleFit:
    def test_last_lag_equals_stage_parcor_bitwise(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=300)
        run = run_lattice(x, 3, DiscountPair(0.95, 0.95), default_prior(x))
        fit = assemble_fit(run, 3)
        assert np.array_equal(fit.coeffs[:, 2], run.stages[2].alpha)
        assert np.array_equal(fit.sigma2, stage_variance(run, 3))

    def test_ar1_coefficient_recovery(self):
        rng = np.random.default_rng(19)
        T, burn = 2000, 200
        x = np.zeros(T + burn)
        for t in range(1, T + burn):
            x[t] = 0.9 * x[t - 1] + rng.standard_normal()
        x = x[burn:]
        run = run_lattice(x, 1, DiscountPair(0.999, 0.999), default_prior(x))
        fit = assemble_fit(run, 1)
        assert abs(fit.coeffs[:, 0].mean() - 0.9) < 0.05

    def test_tvar2_lag2_coefficient(self):
        """Fitted lag-2 coefficient tracks the generating value -0.81."""
        proc = gen_tvar2(1024, seed=6)
        run = run_lattice(proc.x, 2, DiscountPair(0.98, 0.98),
                          default_prior(proc.x))
        fit = assemble_fit(run, 2)
        assert abs(fit.coeffs[:, 1].mean() - (-0.81)) < 0.1

    def test_rejects_excess_order(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=100)
        run = run_lattice(x, 2, DiscountPair(0.9, 0.9), default_prior(x))
        with pytest.raises(ValueError, match="exceeds"):
            assemble_fit(run, 3)

    def test_rejects_non_integer_order(self):
        x = np.random.default_rng(20).normal(size=100)
        run = run_lattice(x, 2, DiscountPair(0.9, 0.9), default_prior(x))
        with pytest.raises(ValueError, match=r"order P=2\.5 must be an integer"):
            assemble_fit(run, 2.5)
        assert assemble_fit(run, np.int64(2)).P == 2


def regression_generators(rng, P):
    """The two generators of each of the 2P regressions, in draw order, as
    one call of ``path_sampler``'s draw derives them from ``rng``."""
    seeds = np.random.SeedSequence(rng.integers(0, 2**63, size=4)).spawn(4 * P)
    gens = [np.random.default_rng(s) for s in seeds]
    return list(zip(gens[0::2], gens[1::2]))


def stacked_draw(run, P, rng, size):
    """Posterior paths through whole grids: each regression's sampler
    draws, from its own two generators, all the rows a time takes in one
    call; the rows are placed by ``filter_rows`` into (size, T, P) grids,
    then ``parcor_to_tvar`` runs on those grids."""
    T = len(run.x)
    gens = iter(regression_generators(rng, P))
    alpha, beta = np.empty((2, size, T, P))
    for j in range(P):
        rows_f, rows_b = filter_rows(T, j + 1)
        fs_f, fs_b = stage_filters(run, j + 1)
        th_f, s2_f = _block_sampler(fs_f, *next(gens), size)(rows_f[0])
        th_b, _ = _block_sampler(fs_b, *next(gens), size)(rows_b[0])
        alpha[:, :, j] = th_f[rows_f - rows_f[0]].T
        beta[:, :, j] = th_b[rows_b - rows_b[0]].T
    coeffs, _ = parcor_to_tvar(alpha, beta)
    return coeffs, s2_f[rows_f - rows_f[0]].T


def block_stacked_draw(run, P, rng, size, n_blocks):
    """The same through the block stream: for each of ``n_blocks`` equal
    time blocks, last first, each regression (stage order, forward before
    backward) draws the rows the block needs from its own two generators;
    the rows are gathered into whole per-regression paths, placed by
    ``filter_rows`` and mapped by ``parcor_to_tvar`` on whole grids."""
    T = len(run.x)
    edges = [T * i // n_blocks for i in range(n_blocks + 1)]
    regs = [(fs, rows) for m in range(1, P + 1)
            for fs, rows in zip(stage_filters(run, m), filter_rows(T, m))]
    samplers = [_block_sampler(fs, *gens, size)
                for (fs, _), gens in zip(regs, regression_generators(rng, P))]
    paths = [(np.empty((len(fs.mu), size)), np.empty((len(fs.mu), size)))
             for fs, _ in regs]
    for i in range(n_blocks - 1, -1, -1):
        for (_, rows), sampler, (th, s2) in zip(regs, samplers, paths):
            lo = rows[edges[i]]
            th_blk, s2_blk = sampler(lo)
            th[lo:lo + len(th_blk)], s2[lo:lo + len(s2_blk)] = th_blk, s2_blk
    grids = [th[rows].T for (_, rows), (th, _) in zip(regs, paths)]
    coeffs, _ = parcor_to_tvar(np.stack(grids[0::2], axis=-1),
                               np.stack(grids[1::2], axis=-1))
    (_, rows_f), (_, s2_f) = regs[-2], paths[-2]  # stage P's forward regression
    return coeffs, s2_f[rows_f].T


class TestPathSampler:
    @pytest.mark.parametrize("P, T, size, budget", [
        (1, 301, 5, 1000),   # 26 blocks of 11 or 12 steps
        (2, 301, 5, 1000),   # 51 blocks of 5 or 6
        (6, 301, 5, 1000),   # 151 blocks of 1 or 2
        (6, 8, 3, None),     # one block; stage 6 has T - m = 2 regression steps
        (6, 1000, 64, None),  # the default budget: 3 blocks of 333 or 334
    ])
    def test_equals_stacked_levinson_bitwise(self, monkeypatch, P, T, size, budget):
        """Stage-major block buffers run in place give the bits and the
        generator stream of the block sampler's rows gathered into whole
        (size, T, P) grids."""
        if budget is not None:
            monkeypatch.setattr(tvar, "_BLOCK_BYTES", budget)
        n_blocks = -(-T // max(1, tvar._BLOCK_BYTES // (16 * P * size)))
        x = np.random.default_rng(T + P).normal(size=T)
        run = run_lattice(x, P, DiscountPair(0.95, 0.9), default_prior(x))
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2):
            coeffs, sigma2 = whole_paths(path_sampler(run, P), rng, size)
            ref_coeffs, ref_sigma2 = block_stacked_draw(run, P, ref_rng, size, n_blocks)
            assert coeffs.shape == (size, T, P) and sigma2.shape == (size, T)
            assert np.array_equal(coeffs, ref_coeffs)
            assert np.array_equal(sigma2, ref_sigma2)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("P, T, size", [
        (1, 301, 5), (6, 8, 3),
        (2, 1024, 64),  # blf fit --draws on a T=1024 series: exactly the budget
    ])
    def test_one_block_is_whole_path_draws(self, P, T, size):
        """A draw within one block is a single block, and it gives the bits
        and the caller's generator state of each regression's whole-path
        draw from its own two generators."""
        x = np.random.default_rng(T + P).normal(size=T)
        run = run_lattice(x, P, DiscountPair(0.95, 0.9), default_prior(x))
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2):
            blocks = list(path_sampler(run, P)(rng, size))
            ref_coeffs, ref_sigma2 = stacked_draw(run, P, ref_rng, size)
            assert len(blocks) == 1 and blocks[0][0] == 0
            assert np.array_equal(blocks[0][1], ref_coeffs)
            assert np.array_equal(blocks[0][2], ref_sigma2)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("budget", [16 * 6 * 5, 16 * 6 * 5 * 2, 1000, 16 * 6 * 5 * 77])
    def test_block_layout_moves_paths_by_rounding_only(self, monkeypatch, budget):
        """Blocks of 1, 1-2, 3-4 and 76-77 steps give one block's paths to
        rounding and leave the caller's generator in one state."""
        x = np.random.default_rng(23).normal(size=301)
        run = run_lattice(x, 6, DiscountPair(0.95, 0.9), default_prior(x))
        draw = path_sampler(run, 6)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        ref_coeffs, ref_sigma2 = whole_paths(draw, ref_rng, 5)
        monkeypatch.setattr(tvar, "_BLOCK_BYTES", budget)
        coeffs, sigma2 = whole_paths(draw, rng, 5)
        np.testing.assert_allclose(coeffs, ref_coeffs, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(sigma2, ref_sigma2, rtol=1e-12)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_draws_give_empty_paths(self):
        x = np.random.default_rng(22).normal(size=50)
        run = run_lattice(x, 2, DiscountPair(0.9, 0.9), default_prior(x))
        coeffs, sigma2 = whole_paths(path_sampler(run, 2), np.random.default_rng(0), 0)
        assert coeffs.shape == (0, 50, 2) and sigma2.shape == (0, 50)

    @pytest.mark.parametrize("P", [2.5, True, "2"])
    def test_rejects_non_integer_order(self, P):
        x = np.random.default_rng(21).normal(size=100)
        run = run_lattice(x, 2, DiscountPair(0.9, 0.9), default_prior(x))
        with pytest.raises(ValueError, match=f"order P={P!r} must be an integer"):
            path_sampler(run, P)

    def test_draw_memory_is_bounded(self):
        """The traced peak of one 64-draw call at T=4096, P=6, run through
        all of its 13 blocks, stays within two block budgets: the two
        stage-major buffers (2 MiB) and a few rows of one block.  A call
        that held whole (P, T, size) buffers and one stage's sampler rows
        took 36.1 MiB, and whole (size, T, P) grids 94.1 MiB."""
        T, P, size = 4096, 6, 64
        x = gen_tvar6(T, seed=0).x
        run = run_lattice(x, P, DiscountPair(0.98, 0.98), default_prior(x))
        draw = path_sampler(run, P)
        tracemalloc.start()
        try:
            blocks = sum(1 for _ in draw(np.random.default_rng(0), size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == 13
        assert peak < 2 * tvar._BLOCK_BYTES
