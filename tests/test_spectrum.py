"""Spectral density, ASE scoring, and posterior surface tests."""

import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from blf import spectrum, tvar
from blf.dlm import DiscountPair, default_prior
from blf.lattice import run_lattice
from blf.simulate import gen_tvar6
from blf.spectrum import (
    Spectrogram,
    _transfer_power,
    ase,
    default_freq_grid,
    spectrum_posterior,
    tvar_spectrum,
)
from blf.tvar import TvarFit, path_sampler
from helpers import classical_levinson, time_blocks, unblocked_posterior

BAD_GRIDS = [
    ([0.0, np.nan, 0.3], "finite, got nan at index 1"),
    ([0.0, np.inf], "finite, got inf at index 1"),
    ([], "non-empty 1-D"),
    ([[0.1, 0.2]], "non-empty 1-D"),
    ([0.2, 0.1], "increasing"),
    ([0.1, 0.1], "increasing"),
    ([0.1, 0.7], "0, 1/2"),
    ([-0.1, 0.2], "0, 1/2"),
]


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
        w = np.linspace(0.01, 0.49, 17)
        pos = _transfer_power(coeffs, w)
        neg = _transfer_power(coeffs, -w)
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
        with pytest.raises(ValueError, match="finite"):
            Spectrogram(times=[1], freqs=[0.2, np.nan], values=[[1.0, 1.0]])

    @pytest.mark.parametrize("freqs, match", BAD_GRIDS)
    def test_rejects_bad_grid(self, freqs, match):
        """NaN fails every ordered comparison, so it needs its own check."""
        with pytest.raises(ValueError, match=match):
            tvar_spectrum(const_fit([0.5]), freqs)

    def test_freq_step_must_divide_half(self):
        """A step outside (0, 0.5] or one that does not divide 0.5 evenly is
        rejected instead of dividing by zero or rounding the grid."""
        np.testing.assert_array_equal(default_freq_grid(0.25), [0.0, 0.25, 0.5])
        assert len(default_freq_grid(0.0025)) == 201
        for bad in (0.0, -0.01, 0.3, 0.6, 0.0051, np.nan):
            with pytest.raises(ValueError, match="frequency step"):
                default_freq_grid(bad)


def definition_density(coeffs, sigma2, freqs):
    """sigma2 / |1 - sum_m a_m e^{-2 pi i m w}|^2 in complex arithmetic."""
    lags = np.arange(1, coeffs.shape[-1] + 1)
    transfer = 1.0 - coeffs @ np.exp(-2j * np.pi * np.outer(lags, freqs))
    return sigma2[..., None] / np.abs(transfer) ** 2


def ar_with_roots(*pairs):
    """AR coefficients whose characteristic roots are r e^{+-2 pi i w} for
    each (r, w) in ``pairs``."""
    roots = [r * np.exp(sign * 2j * np.pi * w) for r, w in pairs for sign in (1, -1)]
    return -np.poly(roots)[1:].real


class TestRealKernel:
    """The real-arithmetic density against its complex definition."""

    @pytest.mark.parametrize("P", [1, 2, 6, 10])
    def test_matches_definition(self, P):
        rng = np.random.default_rng(40 + P)
        coeffs = np.array([classical_levinson(rng.uniform(-0.95, 0.95, P))
                           for _ in range(12)])
        sigma2 = rng.uniform(0.5, 2.0, 12)
        freqs = default_freq_grid()
        values = tvar_spectrum(TvarFit(coeffs, sigma2), freqs).values
        np.testing.assert_allclose(values, definition_density(coeffs, sigma2, freqs),
                                   rtol=1e-12)
        signs = (-1.0) ** np.arange(1, P + 1)  # e^{-i pi m} at w = 1/2
        np.testing.assert_allclose(values[:, 0], sigma2 / (1 - coeffs.sum(1)) ** 2,
                                   rtol=1e-12)
        np.testing.assert_allclose(values[:, -1], sigma2 / (1 - coeffs @ signs) ** 2,
                                   rtol=1e-12)

    def test_real_roots_near_unit_circle(self):
        """Roots +-(1 - 1e-6) peak at 1e12 at w = 0 and w = 1/2."""
        r = 1.0 - 1e-6
        spg = tvar_spectrum(TvarFit(np.array([[r], [-r]]), np.ones(2)),
                            np.array([0.0, 0.5]))
        np.testing.assert_allclose(np.diag(spg.values), 1.0 / (1.0 - r) ** 2,
                                   rtol=1e-12)

    @pytest.mark.parametrize("w", [0.1, 0.25, 0.37])
    def test_complex_roots_near_unit_circle(self, w):
        """|A| falls to about 1e-6 at the peak, so a rounding of eps in A
        moves the density by about 1e-10 relative in either arithmetic.
        A cosine polynomial for |A|^2 squares that: up to 8e-5 here."""
        r = 1.0 - 1e-6
        coeffs = np.array([[*ar_with_roots((r, w)), 0.0, 0.0],
                           ar_with_roots((r, w), (0.9, 0.3))])
        freqs = np.linspace(0.0, 0.5, 201)
        values = tvar_spectrum(TvarFit(coeffs, np.ones(2)), freqs).values
        np.testing.assert_allclose(values, definition_density(coeffs, np.ones(2), freqs),
                                   rtol=1e-9)
        assert values[0].max() > 1e11

    def test_exact_unit_root_is_infinite_without_warning(self):
        """(1 - z)(1 - z/2) has a root at z = 1: S(0) = +inf, no warning."""
        fit = TvarFit(np.array([[1.0, 0.0], [1.5, -0.5]]), np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = tvar_spectrum(fit, np.array([0.0, 0.2, 0.5])).values
        assert np.all(values[:, 0] == np.inf)
        assert np.all(np.isfinite(values[:, 1:]))


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
            return time_blocks(np.repeat(coeffs[None], size, axis=0),
                               np.repeat(sigma2[None], size, axis=0))

        mean, sd = spectrum_posterior(draw, 64, default_freq_grid(),
                                      np.random.default_rng(0))
        assert np.all(sd.values == 0.0)
        expect = tvar_spectrum(const_fit([0.5, -0.2], T=20), default_freq_grid())
        np.testing.assert_allclose(mean.values, expect.values, rtol=1e-14)

    def test_unit_root_paths_are_refused(self):
        """Constant paths a = [1.0] have log S = +inf at w = 0 at every t.
        130 draws in 64-draw chunks are refused at the first such cell, with
        no RuntimeWarning (the suite turns one into an error)."""
        coeffs, sigma2 = np.ones((64, 20, 1)), np.ones((64, 20))

        def draw(rng, size):
            return time_blocks(coeffs[:size], sigma2[:size])

        with pytest.raises(ValueError, match=r"density at t=1, freq=0\.0$"):
            spectrum_posterior(draw, 130, default_freq_grid(), np.random.default_rng(0))

    def test_one_unit_root_draw_among_finite_ones_is_refused(self):
        """Draw 100 of 130 (in the second chunk) has a unit root at t=5 only."""
        coeffs = np.random.default_rng(3).uniform(-0.3, 0.3, size=(130, 20, 2))
        coeffs[100, 4] = [1.0, 0.0]
        sigma2 = np.ones((130, 20))
        made = [0]

        def draw(rng, size):
            lo = made[0]
            made[0] += size
            return time_blocks(coeffs[lo:lo + size], sigma2[lo:lo + size])

        with pytest.raises(ValueError, match=r"density at t=5, freq=0\.0$"):
            spectrum_posterior(draw, 130, default_freq_grid(), np.random.default_rng(0))
        assert made[0] == 128  # refused in the second chunk, before the third

    @pytest.mark.parametrize("bad_t, named", [((15,), 15), ((15, 5), 5), ((5, 15), 5)])
    def test_unit_root_in_a_late_block_names_the_earliest_cell(self, bad_t, named):
        """Blocks arrive last first, so a unit root at t=15 (second block,
        drawn first) is seen before one at t=5; the earliest is named."""
        coeffs = np.random.default_rng(4).uniform(-0.3, 0.3, size=(64, 20, 2))
        for i, t in enumerate(bad_t):
            coeffs[10 * i + 3, t - 1] = [1.0, 0.0]
        sigma2 = np.ones((64, 20))

        def draw(rng, size):
            return time_blocks(coeffs[:size], sigma2[:size], 2)

        with pytest.raises(ValueError, match=rf"density at t={named}, freq=0\.0$"):
            spectrum_posterior(draw, 64, default_freq_grid(), np.random.default_rng(0))

    def test_rejects_blocks_out_of_time_order(self):
        coeffs, sigma2 = np.zeros((4, 20, 2)), np.ones((4, 20))

        def draw(rng, size):
            return reversed(list(time_blocks(coeffs[:size], sigma2[:size], 2)))

        with pytest.raises(ValueError, match="from the last back to the first"):
            spectrum_posterior(draw, 4, default_freq_grid())

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

    @pytest.mark.parametrize("counts, name", [
        ({"n_draws": 2.5}, "n_draws=2.5"), ({"n_draws": True}, "n_draws=True"),
        ({"chunk": 2.5}, "chunk=2.5"), ({"chunk": True}, "chunk=True"),
    ])
    def test_rejects_non_integer_counts_before_drawing(self, counts, name):
        def draw(rng, size):
            raise AssertionError("no draw may be made")

        args = {"n_draws": 10, **counts}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            spectrum_posterior(draw, freqs=default_freq_grid(), **args)

    @pytest.mark.parametrize("freqs, match", BAD_GRIDS)
    def test_rejects_bad_grid_before_drawing(self, freqs, match):
        def draw(rng, size):
            raise AssertionError("no draw may be made")

        with pytest.raises(ValueError, match=match):
            spectrum_posterior(draw, 256, freqs)

    def test_requires_two_draws(self):
        with pytest.raises(ValueError, match="n_draws"):
            spectrum_posterior(lambda rng, size: None, 1)


def random_draws(T, P=3):
    """Uniform paths drawn whole, yielded as one time block."""
    def draw(rng, size):
        return time_blocks(rng.uniform(-0.3, 0.3, size=(size, T, P)),
                           rng.uniform(0.5, 2.0, size=(size, T)))
    return draw


def constant_draws(T, draws=64):
    """Constant coefficient paths, made once; each call yields views."""
    coeffs = np.tile([0.5, -0.3], (draws, T, 1))
    sigma2 = np.ones((draws, T))
    return lambda rng, size: time_blocks(coeffs[:size], sigma2[:size])


class TestTimeBlocks:
    """``spectrum_posterior`` evaluates each chunk over equal blocks of time
    steps, each within ``_BLOCK_BYTES`` of cos and sin parts (10 steps at 64
    draws x 101 frequencies) or else two steps long."""

    @pytest.mark.parametrize("draw, T, L, n_draws, chunk", [
        (random_draws, 100, 101, 130, 64),   # ten blocks of 10; last chunk 2
        (random_draws, 103, 101, 130, 64),   # eleven blocks of 9 or 10
        (random_draws, 7, 5000, 70, 64),     # one step over budget: 2, 2, 3
        (random_draws, 100, 101, 30, 100),   # chunk > n_draws: five blocks of 20
        (constant_draws, 100, 101, 130, 64),
    ])
    def test_blocked_equals_unblocked_bitwise(self, draw, T, L, n_draws, chunk):
        freqs = np.linspace(0.0, 0.5, L)
        mean, sd = spectrum_posterior(draw(T), n_draws, freqs,
                                      np.random.default_rng(7), chunk=chunk)
        ref_mean, ref_sd = unblocked_posterior(draw(T), n_draws, freqs,
                                               np.random.default_rng(7), chunk)
        assert np.array_equal(mean.values, ref_mean)
        assert np.array_equal(sd.values, ref_sd)

    def test_one_step_exceeds_budget(self):
        """The over-budget case above needs one step of a 64-draw chunk over
        5000 frequencies to exceed the block budget."""
        assert 16 * 64 * 5000 > spectrum._BLOCK_BYTES

    def test_frees_each_chunk_of_paths_before_the_next_draw(self):
        """Two blocks of sampler paths, of one chunk or of two, are never
        alive at once."""
        drawn = []

        def draw(rng, size):
            for start in (4, 0):
                assert all(ref() is None for ref in drawn)
                coeffs = np.full((size, 4, 2), 0.1)
                drawn.append(weakref.ref(coeffs))
                yield start, coeffs, np.ones((size, 4))
                del coeffs

        spectrum_posterior(draw, 200, default_freq_grid(0.05), np.random.default_rng(0))
        assert len(drawn) == 8

    @pytest.mark.parametrize("T", [512, 4096])
    def test_density_memory_is_bounded(self, T):
        """The traced peak beyond the two (T, L) outputs stays within four
        block budgets whatever T is; whole 64-draw chunks need about 27 MiB
        at T=512 and 212 MiB at T=4096 on 21 frequencies."""
        freqs = default_freq_grid(0.025)
        draw = constant_draws(T)
        tracemalloc.start()
        try:
            spectrum_posterior(draw, 128, freqs, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * T * len(freqs) * 8 < 4 * spectrum._BLOCK_BYTES

    @pytest.mark.parametrize("budget", [None, 100_000])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, budget):
        """One thread, two, and more threads than pieces per block give the
        bits of the unblocked oracle over the same draws, with one block per
        chunk (the default budget at T=300, P=3) and with blocks of 30
        steps, three pieces each.  A short switch interval makes the threads
        interleave often, so a lost update to the moments would show."""
        if budget is not None:
            monkeypatch.setattr(tvar, "_BLOCK_BYTES", budget)
        x = np.random.default_rng(27).normal(size=300)
        run = run_lattice(x, 3, DiscountPair(0.95, 0.9), default_prior(x))
        draw = path_sampler(run, 3)
        freqs = default_freq_grid()
        ref_mean, ref_sd = unblocked_posterior(draw, 130, freqs, np.random.default_rng(8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(spectrum, "_workers", lambda: workers)
                mean, sd = spectrum_posterior(draw, 130, freqs, np.random.default_rng(8))
                assert np.array_equal(mean.values, ref_mean)
                assert np.array_equal(sd.values, ref_sd)
        finally:
            sys.setswitchinterval(interval)

    def test_block_stream_agrees_with_one_block_stream(self, monkeypatch):
        """Draws in 12 blocks of 10 steps and in one block are two streams
        from one posterior: the mean and sd of log S agree within Monte
        Carlo error, measured in sd/sqrt(n).  The sd's own error is larger
        than sd/sqrt(2n) here, because log S has heavy tails."""
        x = np.random.default_rng(28).normal(size=120)
        run = run_lattice(x, 2, DiscountPair(0.95, 0.95), default_prior(x))
        draw = path_sampler(run, 2)
        freqs, n = default_freq_grid(0.02), 2000
        m1, s1 = spectrum_posterior(draw, n, freqs, np.random.default_rng(2))
        monkeypatch.setattr(tvar, "_BLOCK_BYTES", 16 * 2 * 64 * 10)
        m2, s2 = spectrum_posterior(draw, n, freqs, np.random.default_rng(3))
        slack = 3.0 * np.sqrt(np.log(m1.values.size))  # union bound
        var = s1.values**2 + s2.values**2
        z_mean = (np.log(m1.values) - np.log(m2.values)) / np.sqrt(var / n)
        z_sd = (s1.values - s2.values) / np.sqrt(var / n)
        assert np.max(np.abs(z_mean)) < slack
        assert np.max(np.abs(z_sd)) < slack

    @pytest.mark.parametrize("T", [4096, 16384])
    def test_posterior_memory_is_bounded(self, T):
        """256 draws of an order-6 fit: the traced peak beyond the two (T, L)
        outputs stays within twice the block budgets, the sampler's two
        buffers and one density work array per thread, whatever T is.
        Whole (P, T, chunk) sampler buffers took 43.5 MiB at T=4096."""
        x = gen_tvar6(T, seed=0).x
        run = run_lattice(x, 6, DiscountPair(0.98, 0.98), default_prior(x))
        draw = path_sampler(run, 6)
        freqs = default_freq_grid(0.025)
        tracemalloc.start()
        try:
            spectrum_posterior(draw, 256, freqs, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = tvar._BLOCK_BYTES + spectrum._workers() * spectrum._BLOCK_BYTES
        assert peak - 2 * T * len(freqs) * 8 < 2 * budget
