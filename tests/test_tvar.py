"""Levinson recursion tests against the classical constant-coefficient oracle."""

import numpy as np
import pytest

from blf.dlm import DiscountPair, default_prior
from blf.lattice import run_lattice
from blf.simulate import gen_tvar2
from blf.tvar import assemble_fit, parcor_to_tvar
from helpers import classical_levinson


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
        assert np.array_equal(fit.sigma2, run.stages[2].sf2)

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
