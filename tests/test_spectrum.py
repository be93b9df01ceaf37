"""Spectral density, ASE scoring, and posterior surface tests."""

import numpy as np
import pytest

from blf.dlm import DiscountPair, default_prior
from blf.lattice import run_lattice
from blf.spectrum import (
    Spectrogram,
    _ar_density,
    ase,
    default_freq_grid,
    spectrum_posterior,
    tvar_spectrum,
)
from blf.tvar import TvarFit, path_sampler


def const_fit(coeffs_row, sigma2=1.0, T=4):
    coeffs_row = np.atleast_1d(coeffs_row)
    return TvarFit(coeffs=np.tile(coeffs_row, (T, 1)), sigma2=np.full(T, sigma2))


class TestTvarSpectrum:
    def test_white_noise_flat_unit_surface(self):
        spg = tvar_spectrum(const_fit([0.0, 0.0]), default_freq_grid())
        assert np.all(spg.values == 1.0)

    def test_ar1_at_zero_frequency(self):
        """S(0) = 1/(1-0.9)^2 = 100 for a unit-variance AR(1) at 0.9."""
        spg = tvar_spectrum(const_fit([0.9]), np.array([0.0, 0.25]))
        np.testing.assert_allclose(spg.values[:, 0], 100.0, rtol=1e-12)

    def test_ar2_peak_at_root_angle(self):
        """AR(2) (a1, -0.81): spectral peak at arccos(a1/1.8)/(2 pi),
        located by grid argmax to within one default grid step."""
        freqs = default_freq_grid()
        for a1 in (0.4, 0.8, 1.2):
            spg = tvar_spectrum(const_fit([a1, -0.81], T=1), freqs)
            peak = freqs[np.argmax(spg.values[0])]
            expected = np.arccos(a1 / 1.8) / (2.0 * np.pi)
            assert abs(peak - expected) <= freqs[1] - freqs[0]

    def test_frequency_symmetry(self):
        rng = np.random.default_rng(23)
        coeffs = rng.uniform(-0.4, 0.4, size=(3, 4))
        sigma2 = rng.uniform(0.5, 2.0, size=3)
        w = np.linspace(0.01, 0.49, 17)
        pos = _ar_density(coeffs, sigma2, w)
        neg = _ar_density(coeffs, sigma2, -w)
        np.testing.assert_allclose(pos, neg, rtol=1e-13)

    def test_scaling_equivariance(self):
        fit = const_fit([0.5, -0.3], sigma2=1.0)
        scaled = const_fit([0.5, -0.3], sigma2=7.0)
        a = tvar_spectrum(fit, default_freq_grid()).values
        b = tvar_spectrum(scaled, default_freq_grid()).values
        np.testing.assert_allclose(b, 7.0 * a, rtol=1e-15)

    def test_unit_root_flags_infinity(self):
        spg = tvar_spectrum(const_fit([1.0]), np.array([0.0, 0.1]))
        assert np.all(np.isinf(spg.values[:, 0]))
        assert np.all(np.isfinite(spg.values[:, 1]))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Spectrogram(times=[1], freqs=[0.2, 0.1], values=[[1.0, 1.0]])
        with pytest.raises(ValueError, match="0, 1/2"):
            Spectrogram(times=[1], freqs=[0.2, 0.7], values=[[1.0, 1.0]])

    def test_freq_step_must_divide_half(self):
        """A step outside (0, 0.5] or one that does not divide 0.5 evenly is
        rejected instead of dividing by zero or rounding the grid."""
        np.testing.assert_array_equal(default_freq_grid(0.25), [0.0, 0.25, 0.5])
        assert len(default_freq_grid(0.0025)) == 201
        for bad in (0.0, -0.01, 0.3, 0.6, 0.0051, np.nan):
            with pytest.raises(ValueError, match="frequency step"):
                default_freq_grid(bad)


class TestAse:
    def test_identical_surfaces_give_zero(self):
        spg = tvar_spectrum(const_fit([0.5]), default_freq_grid())
        assert ase(spg, spg) == 0.0

    def test_one_log_unit_offset_gives_one(self):
        spg = tvar_spectrum(const_fit([0.5]), default_freq_grid())
        scaled = Spectrogram(spg.times, spg.freqs, np.e * spg.values)
        assert ase(scaled, spg) == pytest.approx(1.0, rel=1e-13)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(24)
        a = tvar_spectrum(const_fit([0.5, 0.1]), default_freq_grid())
        b = tvar_spectrum(const_fit([0.2, -0.4], sigma2=2.0), default_freq_grid())
        assert ase(a, b) == ase(b, a) > 0.0

    def test_grid_refinement_stability(self):
        fit_a = const_fit([0.6, -0.2], T=8)
        fit_b = const_fit([0.3, 0.1], sigma2=1.5, T=8)
        coarse = ase(tvar_spectrum(fit_a, default_freq_grid(0.005)),
                     tvar_spectrum(fit_b, default_freq_grid(0.005)))
        fine = ase(tvar_spectrum(fit_a, default_freq_grid(0.0025)),
                   tvar_spectrum(fit_b, default_freq_grid(0.0025)))
        assert abs(fine - coarse) / coarse < 0.01

    def test_rejects_grid_mismatch(self):
        a = tvar_spectrum(const_fit([0.5]), default_freq_grid(0.005))
        b = tvar_spectrum(const_fit([0.5]), default_freq_grid(0.0025))
        with pytest.raises(ValueError, match="grids"):
            ase(a, b)

    def test_rejects_infinite_cell_with_coordinates(self):
        good = tvar_spectrum(const_fit([0.5], T=3), np.array([0.0, 0.1]))
        bad = tvar_spectrum(const_fit([1.0], T=3), np.array([0.0, 0.1]))
        with pytest.raises(ValueError, match=r"t=1.*freq=0"):
            ase(bad, good)


class TestSpectrumPosterior:
    def test_degenerate_draws_give_zero_sd(self):
        coeffs = np.tile([0.5, -0.2], (20, 1))
        sigma2 = np.ones(20)

        def draw(rng, size):
            return (np.repeat(coeffs[None], size, axis=0),
                    np.repeat(sigma2[None], size, axis=0))

        mean, sd = spectrum_posterior(draw, 64, default_freq_grid(),
                                      np.random.default_rng(0))
        assert np.all(sd.values < 1e-12)
        expect = tvar_spectrum(const_fit([0.5, -0.2], T=20), default_freq_grid())
        np.testing.assert_allclose(mean.values, expect.values, rtol=1e-12)

    def test_white_noise_fit_sd_flat_over_frequency(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=400)
        run = run_lattice(x, 1, DiscountPair(0.97, 0.97), default_prior(x))
        draw = path_sampler(run, 1)
        _, sd = spectrum_posterior(draw, 400, default_freq_grid(0.01),
                                   np.random.default_rng(1))
        t_mid = len(x) // 2
        row = sd.values[t_mid]
        assert row.max() / row.min() < 5.0

    def test_doubling_draws_is_mc_stable(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=60)
        run = run_lattice(x, 2, DiscountPair(0.95, 0.95), default_prior(x))
        draw = path_sampler(run, 2)
        freqs = default_freq_grid(0.02)
        m1, s1 = spectrum_posterior(draw, 1000, freqs, np.random.default_rng(2))
        m2, s2 = spectrum_posterior(draw, 2000, freqs, np.random.default_rng(3))
        diff = np.abs(np.log(m1.values) - np.log(m2.values))
        se = np.sqrt(s1.values**2 / 1000 + s2.values**2 / 2000)
        assert np.max(diff / se) < 3.0 * np.sqrt(np.log(diff.size))  # union bound slack

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_chunk_below_one_before_drawing(self, chunk):
        def draw(rng, size):
            raise AssertionError("no draw may be made")

        with pytest.raises(ValueError, match=f"chunk must be >= 1, got {chunk}"):
            spectrum_posterior(draw, 10, chunk=chunk)

    def test_requires_two_draws(self):
        with pytest.raises(ValueError, match="n_draws"):
            spectrum_posterior(lambda rng, size: None, 1)
