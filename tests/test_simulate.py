"""Generator tests: formulas, root algebra, segment boundaries, determinism."""

import numpy as np
import pytest

from blf.bench import GENERATORS
from blf.simulate import (
    _simulate,
    gen_piecewise,
    gen_tvar2,
    gen_tvar6,
    gen_tvvar,
    roots_to_coeffs,
    true_spectrum,
)
from blf.spectrum import default_freq_grid
from blf.tvar import TvarFit
from blf.spectrum import tvar_spectrum
from helpers import scalar_simulate


class TestTvar2:
    def test_lag1_coefficient_formula(self):
        proc = gen_tvar2(1024, seed=0)
        # 0.8 (1 - 0.5 cos(pi t / 1024)): 0.4 at t=0, 1.2 at t=1024
        assert 0.8 * (1.0 - 0.5 * np.cos(0.0)) == pytest.approx(0.4)
        assert proc.true_coeffs[1023, 0] == pytest.approx(1.2, abs=1e-12)
        t = np.arange(1, 1025)
        np.testing.assert_allclose(
            proc.true_coeffs[:, 0], 0.8 * (1.0 - 0.5 * np.cos(np.pi * t / 1024.0))
        )

    def test_lag2_and_unit_variance(self):
        proc = gen_tvar2(512, seed=1)
        assert np.all(proc.true_coeffs[:, 1] == -0.81)
        assert np.all(proc.true_sigma2 == 1.0)

    def test_cosine_argument_does_not_scale_with_T(self):
        proc = gen_tvar2(512, seed=1)
        assert proc.true_coeffs[511, 0] == pytest.approx(
            0.8 * (1.0 - 0.5 * np.cos(np.pi * 512 / 1024.0))
        )

    def test_seed_determinism(self):
        a = gen_tvar2(256, seed=7)
        b = gen_tvar2(256, seed=7)
        c = gen_tvar2(256, seed=8)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)


class TestRootsToCoeffs:
    def test_quarter_frequency_pair(self):
        """A = 1.1, theta = 0.25: the lag-1 term vanishes, lag-2 is -1/1.21."""
        coeffs = roots_to_coeffs([1.1], [0.25])
        assert abs(coeffs[0]) < 1e-15
        assert coeffs[1] == pytest.approx(-1.0 / 1.21, rel=1e-14)

    def test_root_membership(self):
        """The characteristic polynomial vanishes at A exp(2 pi i theta)."""
        moduli = [1.1, 1.12, 1.1]
        thetas = [0.08, 0.25, 0.42]
        coeffs = roots_to_coeffs(moduli, thetas)
        for A, th in zip(moduli, thetas):
            B = A * np.exp(2j * np.pi * th)
            powers = B ** np.arange(1, len(coeffs) + 1)
            value = 1.0 - np.sum(coeffs * powers)
            assert abs(value) < 1e-10

    def test_roundtrip_recovers_amplitudes_and_angles(self):
        moduli = np.array([1.1, 1.12, 1.1])
        thetas = np.array([0.07, 0.25, 0.43])
        coeffs = roots_to_coeffs(moduli, thetas)
        poly = np.concatenate([[1.0], -coeffs])
        roots = np.roots(poly[::-1])  # descending powers of the lag operator
        upper = roots[roots.imag > 0]
        got_A = np.sort(np.abs(upper))
        got_th = np.sort(np.abs(np.angle(upper)) / (2 * np.pi))
        np.testing.assert_allclose(got_A, np.sort(moduli), atol=1e-8)
        np.testing.assert_allclose(got_th, np.sort(thetas), atol=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            roots_to_coeffs([np.inf], [0.2])

    @staticmethod
    def _tvar6_angles(T):
        drift = (0.1 / (T - 1)) * np.arange(1, T + 1)
        return np.column_stack([0.05 + drift, np.full(T, 0.25), 0.45 - drift])

    @pytest.mark.parametrize("T", [7, 100, 1024])
    def test_grid_equals_row_calls(self, T):
        """A (T, 3) angle grid expands in one call to the rows' 1-D
        expansions within 2 ulp of each row's largest coefficient: only
        the rounding of a sum may differ, where np.convolve fuses one."""
        moduli = [1.1, 1.12, 1.1]
        rng = np.random.default_rng(T)
        for thetas in (self._tvar6_angles(T), rng.uniform(-1.0, 1.0, (T, 3))):
            grid = roots_to_coeffs(moduli, thetas)
            rows = np.array([roots_to_coeffs(moduli, th) for th in thetas])
            assert grid.shape == (T, 6)
            ulp = np.spacing(np.abs(rows).max(axis=1, keepdims=True))
            assert np.all(np.abs(grid - rows) <= 2.0 * ulp)

    def test_leading_axes(self):
        thetas = np.random.default_rng(0).uniform(0.0, 0.5, (4, 5, 2))
        grid = roots_to_coeffs([1.2, 1.5], thetas)
        assert grid.shape == (4, 5, 4)
        np.testing.assert_allclose(grid[2, 3], roots_to_coeffs([1.2, 1.5], thetas[2, 3]),
                                   rtol=0, atol=1e-15)

    def test_grid_rejects_unequal_lengths_and_nonfinite(self):
        thetas = self._tvar6_angles(16)
        for moduli, th in (([1.1, 1.12], thetas), ([1.1, 1.12, 1.1], thetas[:, :2]),
                           ([[1.1, 1.12, 1.1]], thetas), ([1.1], 0.2)):
            with pytest.raises(ValueError, match="equal-length"):
                roots_to_coeffs(moduli, th)
        for bad in (np.nan, np.inf):
            th = thetas.copy()
            th[9, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                roots_to_coeffs([1.1, 1.12, 1.1], th)


class TestRecursion:
    """The AR recursion on Python floats gives the numpy-scalar loop's bits."""

    @pytest.mark.parametrize("name", ["tvar2", "piecewise", "tvvar"])
    @pytest.mark.parametrize("T", [8, 257, 1024])
    def test_generators_equal_scalar_loop(self, name, T):
        for seed in (0, 5, 91):
            proc = GENERATORS[name](T, seed=seed)
            oracle = scalar_simulate(proc.true_coeffs, proc.true_sigma2,
                                     np.random.default_rng(seed))
            assert np.array_equal(proc.x, oracle)

    @pytest.mark.parametrize("T", [7, 300, 2048])
    def test_tvar6_coefficients_equal_scalar_loop(self, T):
        coeffs = gen_tvar6(T, seed=0).true_coeffs
        for seed in (1, 2, 3):
            got = _simulate(coeffs, np.ones(T), np.random.default_rng(seed))
            oracle = scalar_simulate(coeffs, np.ones(T), np.random.default_rng(seed))
            assert np.array_equal(got.x, oracle)
            assert got.true_coeffs is coeffs

    def test_zero_order_is_the_shocks(self):
        T = 50
        sigma2 = np.linspace(0.5, 2.0, T)
        got = _simulate(np.zeros((T, 0)), sigma2, np.random.default_rng(4))
        eps = np.random.default_rng(4).standard_normal(200 + T)[200:]
        assert np.array_equal(got.x, np.sqrt(sigma2) * eps)


class TestTvar6:
    def test_angle_profiles(self):
        """theta1 + theta3 = 0.5 at every t; endpoints span ~(0.05, 0.15)."""
        T = 512
        t = np.arange(1, T + 1)
        th1 = 0.05 + (0.1 / (T - 1)) * t
        th3 = 0.45 - (0.1 / (T - 1)) * t
        np.testing.assert_allclose(th1 + th3, 0.5, rtol=1e-15)
        assert th1[0] == pytest.approx(0.05, abs=2e-4 * T / (T - 1))
        assert th1[-1] == pytest.approx(0.15, abs=2e-4 * T / (T - 1))

    def test_coefficient_grid_matches_polynomial_oracle(self):
        """Each row equals the brute-force expansion of the root product."""
        proc = gen_tvar6(64, seed=2)
        T = 64
        for row in (0, 31, 63):
            t = row + 1
            drift = (0.1 / (T - 1)) * t
            thetas = [0.05 + drift, 0.25, 0.45 - drift]
            roots = []
            for A, th in zip([1.1, 1.12, 1.1], thetas):
                a = np.exp(2j * np.pi * th) / A
                roots.extend([a, np.conj(a)])
            poly = np.real(np.poly(roots))  # 1, c1, ..., c6 with roots a_j
            np.testing.assert_allclose(proc.true_coeffs[row], -poly[1:],
                                       atol=1e-12)

    def test_true_spectrum_has_three_peaks(self):
        proc = gen_tvar6(128, seed=3)
        spg = true_spectrum(proc, np.linspace(0.0, 0.5, 501))
        row = spg.values[64]
        interior = (row[1:-1] > row[:-2]) & (row[1:-1] > row[2:])
        assert interior.sum() == 3


class TestPiecewise:
    def test_segment_boundaries_exact(self):
        proc = gen_piecewise(1024, seed=4)
        assert np.all(proc.true_coeffs[99] == (0.9, 0.0))
        assert np.all(proc.true_coeffs[511] == (0.9, 0.0))
        assert np.all(proc.true_coeffs[512] == (1.69, -0.81))
        assert np.all(proc.true_coeffs[599] == (1.69, -0.81))
        assert np.all(proc.true_coeffs[767] == (1.69, -0.81))
        assert np.all(proc.true_coeffs[768] == (1.32, -0.81))
        assert np.all(proc.true_sigma2 == 1.0)

    def test_first_segment_lag1_autocorrelation(self):
        proc = gen_piecewise(1024, seed=5)
        seg = proc.x[:512]
        r1 = np.corrcoef(seg[:-1], seg[1:])[0, 1]
        assert abs(r1 - 0.9) < 0.05

    def test_truth_spectrum_piecewise_constant(self):
        proc = gen_piecewise(1024, seed=6)
        spg = true_spectrum(proc, default_freq_grid(0.01))
        assert np.array_equal(spg.values[0], spg.values[511])
        assert np.array_equal(spg.values[512], spg.values[767])
        assert not np.array_equal(spg.values[511], spg.values[512])


class TestTvvar:
    def test_constant_profiles_reduce_to_stationary_ar(self):
        T = 600
        proc = gen_tvvar(T, 7, np.ones(T), np.full((T, 1), 0.8))
        r1 = np.corrcoef(proc.x[:-1], proc.x[1:])[0, 1]
        assert abs(r1 - 0.8) < 0.06

    def test_variance_profile_shapes_innovations(self):
        T = 2000
        t = np.arange(1, T + 1)
        var = np.exp(np.sin(2.0 * np.pi * t / T))
        proc = gen_tvvar(T, 8, var, np.zeros((T, 1)))
        hi = proc.x[var > np.median(var)]
        lo = proc.x[var <= np.median(var)]
        assert hi.var() > lo.var()

    def test_zero_coefficients_give_independent_noise(self):
        T = 2000
        proc = gen_tvvar(T, 9, np.full(T, 2.0), np.zeros((T, 1)))
        r1 = np.corrcoef(proc.x[:-1], proc.x[1:])[0, 1]
        assert abs(r1) < 0.08
        assert abs(proc.x.var() / 2.0 - 1.0) < 0.15

    def test_explosion_rejected_with_time_index(self):
        T = 300
        with pytest.raises(ValueError, match="t="):
            gen_tvvar(T, 10, np.ones(T), np.full((T, 1), 1.5))

    def test_explosion_names_warmup_step_or_time(self):
        T = 300
        with pytest.raises(ValueError, match=r"during warm-up step 68 of 200 "):
            gen_tvvar(T, 10, np.ones(T), np.full((T, 1), 1.5))
        coeffs = np.where(np.arange(T)[:, None] < 150, 0.5, 1.5)
        with pytest.raises(ValueError, match=r"exploded at t=(\d+)$") as err:
            gen_tvvar(T, 10, np.ones(T), coeffs)
        assert int(err.value.args[0].rsplit("=", 1)[1]) > 150

    def test_validates_profiles(self):
        with pytest.raises(ValueError, match="positive"):
            gen_tvvar(5, 0, np.zeros(5), np.zeros((5, 1)))
        with pytest.raises(ValueError, match="length"):
            gen_tvvar(5, 0, np.ones(4), np.zeros((5, 1)))


class TestTrueSpectrum:
    def test_white_noise_flat(self):
        T = 16
        proc = gen_tvvar(T, 11, np.ones(T), np.zeros((T, 1)))
        spg = true_spectrum(proc, default_freq_grid())
        assert np.all(spg.values == 1.0)

    def test_tvar2_peak_moves_down_as_a1_grows(self):
        """cos(angle) = a1/1.8 grows with t, so the peak frequency falls."""
        proc = gen_tvar2(1024, seed=12)
        spg = true_spectrum(proc, np.linspace(0.0, 0.5, 1001))
        early = spg.freqs[np.argmax(spg.values[0])]
        late = spg.freqs[np.argmax(spg.values[-1])]
        assert late < early
