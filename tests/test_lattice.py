"""Lattice stage tests: PARCOR recovery, residual identities, truncation."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import blf.lattice
from blf.dlm import (
    DiscountPair,
    NIGPrior,
    backward_smooth,
    default_prior,
    forward_filter,
    predictive_loglik,
)
from blf.lattice import run_lattice, run_stage, stage_filters, stage_variance
from blf.selection import fit_blfdyn
from blf.simulate import gen_tvar2, gen_tvar6
from blf.tvar import path_sampler
from helpers import readouts, stage_readouts, whole_paths


def ar1_series(phi, T, seed, burn=200):
    rng = np.random.default_rng(seed)
    x = np.zeros(T + burn)
    for t in range(1, T + burn):
        x[t] = phi * x[t - 1] + rng.standard_normal()
    return x[burn:]


class TestRunStage:
    def test_zero_series_gives_prior_path_and_zero_residuals(self):
        x = np.zeros(64)
        d = DiscountPair(0.95, 0.95)
        st = run_stage(x, x, 1, d, NIGPrior())
        assert np.all(st.alpha == 0.0)
        assert np.all(st.f_next == 0.0)
        assert np.all(st.b_next == 0.0)

    def test_ar1_parcor_recovery(self):
        """Lag-1 PARCOR of a stationary AR(1) equals its coefficient."""
        x = ar1_series(0.9, 2000, seed=5)
        d = DiscountPair(0.999, 0.999)
        st = run_stage(x, x, 1, d, default_prior(x))
        assert abs(st.alpha.mean() - 0.9) < 0.05
        # stationary case: forward and backward PARCOR paths agree
        assert np.max(np.abs(st.alpha - st.beta)) < 0.1

    def test_residual_recursion_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=300)
        d = DiscountPair(0.95, 0.95)
        m = 2
        st = run_stage(x, x, m, d, NIGPrior())
        recon = st.f_next[m:] + st.alpha[m:] * x[:-m]
        np.testing.assert_allclose(recon, x[m:], rtol=1e-12, atol=1e-12)
        # boundary times pass the input through untouched
        assert np.array_equal(st.f_next[:m], x[:m])
        assert np.array_equal(st.b_next[-m:], x[-m:])

    def test_boundary_times_take_nearest_filter_row(self):
        """The forward regression has a regressor only at t = m+1..T and
        the backward one only at t = 1..T-m, so each filters T-m steps from
        a row 0 that is the prior.  alpha and its scale and variance at
        t <= m equal their t = m row, the smoothed row 0, and beta's at
        t > T-m equal their t = T-m row."""
        rng = np.random.default_rng(12)
        T, m = 12, 3
        prior = NIGPrior(0.5, 1.0, 2.0, 3.0)
        d = DiscountPair(0.9, 0.95)
        run = run_lattice(rng.normal(size=T), m, d, prior)
        prev, st = run.stages[m - 2], run.stages[m - 1]
        f_prev, b_prev = prev.f_next, prev.b_next
        fs_f, fs_b = stage_filters(run, m)
        for fs in (fs_f, fs_b):
            assert len(fs.mu) == T - m + 1 and len(fs.e) == T - m
            s, c, _ = readouts(fs)
            got = {"mu": fs.mu, "c": c, "v": fs.v, "kappa": fs.kappa, "s": s}
            for name, value in (("mu", prior.mu0), ("c", prior.c0), ("v", prior.v0),
                                ("kappa", prior.kappa0), ("s", prior.kappa0 / prior.v0)):
                assert got[name][0] == value, name
        assert fs_f.e[0] == f_prev[m] - prior.mu0 * b_prev[0]
        assert fs_b.e[0] == b_prev[0] - prior.mu0 * f_prev[m]
        sm_f, sm_b = backward_smooth(fs_f), backward_smooth(fs_b)
        alpha_var, beta_var, sb2 = stage_readouts((fs_f, fs_b), T, m)
        for name, path, row in (("alpha", st.alpha, sm_f.mu), ("alpha_var", alpha_var, sm_f.c),
                                ("sf2", stage_variance(run, m), sm_f.s)):
            assert np.all(path[:m] == path[m - 1]), name
            assert np.array_equal(path[m - 1:], row), name
        for name, path, row in (("beta", st.beta, sm_b.mu), ("beta_var", beta_var, sm_b.c),
                                ("sb2", sb2, sm_b.s)):
            assert np.all(path[T - m:] == path[T - m - 1]), name
            assert np.array_equal(path[:T - m], row[1:]), name
        assert st.alpha[m] != st.alpha[m - 1] and st.beta[T - m - 1] != st.beta[T - m - 2]

    def test_batched_discounts_need_batched_series(self):
        """Length-G discounts pair with the columns of a (T, G) series; a
        1-D series against them is rejected rather than broadcast."""
        x = np.random.default_rng(10).normal(size=40)
        batch = DiscountPair(np.array([0.9, 0.95]), np.array([0.9, 0.95]))
        with pytest.raises(ValueError, match=r"\(T, G\) series"):
            run_stage(x, x, 1, batch, NIGPrior())
        cols = np.column_stack([x, x])
        st = run_stage(cols, cols, 1, batch, NIGPrior())
        one = run_stage(x, x, 1, DiscountPair(0.95, 0.95), NIGPrior())
        assert np.array_equal(st.f_next[:, 1], one.f_next)

    def test_rejects_bad_stage_index(self):
        x = np.zeros(10)
        d = DiscountPair(0.9, 0.9)
        with pytest.raises(ValueError, match="1 <= m < T"):
            run_stage(x, x, 10, d, NIGPrior())
        with pytest.raises(ValueError, match="1 <= m < T"):
            run_stage(x, x, 0, d, NIGPrior())
        with pytest.raises(ValueError, match="must be an integer"):
            run_stage(x, x, 2.5, d, NIGPrior())


class TestRunLattice:
    def test_single_stage(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=50)
        run = run_lattice(x, 1, DiscountPair(0.9, 0.9), NIGPrior())
        assert run.order == 1
        assert np.array_equal(run.x, x)

    def test_order_truncation_on_tvar2(self):
        """True order-2 process: stages 3..6 have near-zero PARCOR paths."""
        proc = gen_tvar2(1024, seed=3)
        run = run_lattice(proc.x, 6, DiscountPair(0.98, 0.98),
                          default_prior(proc.x))
        for st in run.stages[2:]:
            assert np.mean(np.abs(st.alpha)) < 0.1, f"stage {st.m}"

    def test_innovation_variance_recovery_tvar2(self):
        """Stage-2 smoothed forward variance tracks the unit truth."""
        proc = gen_tvar2(1024, seed=4)
        run = run_lattice(proc.x, 2, DiscountPair(0.98, 0.98),
                          default_prior(proc.x))
        ratio = np.mean(stage_variance(run, 2)) / 1.0
        assert abs(ratio - 1.0) < 0.25

    def test_white_noise_stages(self):
        rng = np.random.default_rng(8)
        sigma2 = 2.5
        x = rng.normal(scale=np.sqrt(sigma2), size=1000)
        run = run_lattice(x, 3, DiscountPair(0.99, 0.99), default_prior(x))
        for st in run.stages:
            assert np.mean(np.abs(st.alpha)) < 0.1
        assert abs(np.mean(stage_variance(run, 3)) / sigma2 - 1.0) < 0.2

    def test_boundary_draws_take_nearest_row(self):
        """Posterior draws are placed as the smoothed paths are: the stage-P
        forward PARCOR draw (coefficient P of the order-P fit) and the
        variance draw at t <= P equal the t = P draw, and differ after it."""
        x = np.random.default_rng(13).normal(size=40)
        P = 3
        run = run_lattice(x, P, DiscountPair(0.9, 0.9), NIGPrior())
        coeffs, sigma2 = whole_paths(path_sampler(run, P), np.random.default_rng(1), 5)
        for path in (coeffs[:, :, P - 1], sigma2):
            assert np.all(path[:, :P] == path[:, [P - 1]])
            assert np.all(path[:, P] != path[:, P - 1])

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=200)
        d = DiscountPair(0.94, 0.9)
        a = run_lattice(x, 3, d, NIGPrior())
        b = run_lattice(x, 3, d, NIGPrior())
        for sa, sb in zip(a.stages, b.stages):
            assert np.array_equal(sa.alpha, sb.alpha)
            assert np.array_equal(sa.f_next, sb.f_next)
        assert np.array_equal(a.scree, b.scree)
        # prefix consistency: a lower order is the first stages of a higher one
        longer = run_lattice(x, 5, d, NIGPrior())
        for m, (sa, sl) in enumerate(zip(a.stages, longer.stages[:3]), start=1):
            for name in ("alpha", "beta", "f_next", "b_next"):
                assert np.array_equal(getattr(sa, name), getattr(sl, name))
            assert np.array_equal(stage_variance(a, m), stage_variance(longer, m))
        assert np.array_equal(a.scree, longer.scree[:3])

    def test_stage_filters_rerun_each_stage_from_its_inputs(self):
        """``stage_filters(run, m)`` is the forward filter of stage m-1's
        stored errors (x at m = 1) at the stage's chosen pair and the fit's
        prior, bit for bit: on a blfdyn fit whose stages chose different
        pairs, under a prior other than the default.  A stage index outside
        1..order is refused."""
        x = gen_tvar6(1024, seed=0).x
        prior = replace(default_prior(x), c0=0.5, v0=2.0)
        report = fit_blfdyn(x, prior=prior)
        run, T = report.run, len(x)
        assert len({(d.gamma, d.delta) for d in report.per_stage_discounts[:run.order]}) > 1
        f_prev = b_prev = x
        for m, st in enumerate(run.stages, start=1):
            d = report.per_stage_discounts[m - 1]
            want = (forward_filter(f_prev[m:], b_prev[:T - m], prior, d),
                    forward_filter(b_prev[:T - m], f_prev[m:], prior, d))
            for got, ref in zip(stage_filters(run, m), want):
                assert (got.gamma, got.delta) == (d.gamma, d.delta)
                for f in fields(ref):
                    assert np.array_equal(getattr(got, f.name), getattr(ref, f.name)), (m, f.name)
            f_prev, b_prev = st.f_next, st.b_next
        for bad in (0, run.order + 1, 1.0, True):
            with pytest.raises(ValueError, match=r"stage m=.* must be an integer"):
                stage_filters(run, bad)

    def test_variance_and_scree_are_readouts_of_the_forward_pass(self):
        """``stage_variance(run, m)`` is the smoothed variance of
        ``forward_filter`` over stage m's stored inputs, the t = m row at
        every t <= m and the row t-m after it, and ``run.scree[m-1]`` is
        ``predictive_loglik`` of that pass, bit for bit: at a different pair
        per stage (gamma = 1 and delta = 1 among them) and under a prior
        other than the default."""
        x = gen_tvar2(300, seed=7).x
        T = len(x)
        prior = replace(default_prior(x), mu0=0.1, c0=0.5, v0=2.0)
        pairs = [DiscountPair(0.9, 0.95), DiscountPair(1.0, 0.9), DiscountPair(0.95, 1.0)]
        run = run_lattice(x, len(pairs), pairs, prior)
        scree = run.scree
        assert scree.shape == (len(pairs),)
        f_prev = b_prev = x
        for m, (st, d) in enumerate(zip(run.stages, pairs), start=1):
            fs = forward_filter(f_prev[m:], b_prev[:T - m], prior, d)
            s = backward_smooth(fs).s
            want = np.concatenate([np.full(m, s[0]), s[1:]])
            assert np.array_equal(stage_variance(run, m), want), m
            assert scree[m - 1] == predictive_loglik(fs), m
            f_prev, b_prev = st.f_next, st.b_next

    def test_readouts_filter_only_the_forward_regression(self, monkeypatch):
        """``run.scree`` runs one filter pass per stage and ``stage_variance``
        one, the forward regression's; only ``stage_filters`` runs both."""
        x = gen_tvar2(300, seed=8).x
        run = run_lattice(x, 3, DiscountPair(0.95, 0.98), default_prior(x))
        calls = []
        real = blf.lattice.forward_filter

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(blf.lattice, "forward_filter", counted)
        for read, want in ((lambda: run.scree, run.order),
                           (lambda: stage_variance(run, 2), 1),
                           (lambda: stage_filters(run, 2), 2)):
            calls.clear()
            read()
            assert len(calls) == want

    def test_memory_is_four_paths_per_stage(self):
        """At T=16384, an order-6 lattice keeps four T-long paths per stage
        (alpha, beta, f_next, b_next), within 256 KiB of slack (one cached
        normalizer row is 128 KiB): 3.25 MiB in all.  Keeping each stage's
        smoothed variance path as well took 3.75 MiB, and each stage's two
        filter passes on top of that 12.90 MiB."""
        T = 16384
        x = gen_tvar6(T, seed=0).x
        prior = default_prior(x)
        tracemalloc.start()
        try:
            run = run_lattice(x, 6, DiscountPair(0.98, 0.98), prior)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        bound = 4 * 8 * T * run.order + (256 << 10)
        assert kept <= bound, f"kept {kept / 2**20:.2f} MiB over {bound / 2**20:.2f} MiB"

    def test_rejects_bad_order_and_stage_list(self):
        x = np.zeros(20)
        with pytest.raises(ValueError, match="1 <= P < T"):
            run_lattice(x, 20, DiscountPair(0.9, 0.9), NIGPrior())
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                run_lattice(x, bad, DiscountPair(0.9, 0.9), NIGPrior())
        with pytest.raises(ValueError, match="entries"):
            run_lattice(x, 3, [DiscountPair(0.9, 0.9)] * 2, NIGPrior())
