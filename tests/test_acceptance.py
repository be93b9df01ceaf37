"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its assertions hold (run with -s to see
them); a failed assertion marks the criterion FAIL.  The benchmark criteria
use the seeded replicate scheme of blf.bench (replicate r = base seed + r).
"""

import time

import numpy as np
import pytest

from blf.bench import run_benchmark, summarize
from blf.dlm import (
    DiscountPair,
    NIGPrior,
    backward_sample,
    backward_smooth,
    forward_filter,
)
from blf.simulate import roots_to_coeffs
from blf.spectrum import Spectrogram, ase, default_freq_grid, tvar_spectrum
from blf.tvar import TvarFit, parcor_to_tvar
from helpers import classical_levinson, static_nig_posterior


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_conjugacy_oracle():
    """Static filter matches the closed-form conjugate posterior, 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        T = int(rng.integers(1, 51))
        y = rng.normal(size=T)
        x = rng.normal(size=T)
        prior = NIGPrior(mu0=rng.normal(), c0=rng.uniform(0.1, 3.0),
                         v0=rng.uniform(0.5, 5.0), kappa0=rng.uniform(0.1, 4.0))
        fs = forward_filter(y, x, prior, DiscountPair(1.0, 1.0))
        expected = static_nig_posterior(y, x, prior)
        got = (fs.mu[-1], fs.c[-1], fs.v[-1], fs.kappa[-1])
        np.testing.assert_allclose(got, expected, rtol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"conjugacy oracle, 100 instances in {elapsed:.2f}s")


def test_criterion_2_levinson_equivalence():
    """Constant PARCOR grids match classical Levinson-Durbin, 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        P = int(rng.integers(1, 11))
        ks = rng.uniform(-0.95, 0.95, size=P)
        grid = np.tile(ks, (3, 1))
        a, d = parcor_to_tvar(grid, grid)
        expected = classical_levinson(ks)
        np.testing.assert_allclose(a, np.tile(expected, (3, 1)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(d, np.tile(expected, (3, 1)),
                                   rtol=0, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(2, f"Levinson equivalence, 100 instances in {elapsed:.2f}s")


def test_criterion_3_tvar2_benchmark():
    """20 replicates, T=1024, default grid: ASE bands, ordering, order rule."""
    start = time.perf_counter()
    records = run_benchmark("tvar2", 20, ["blfdyn", "blffix"], T=1024,
                            base_seed=0)
    stats = summarize(records)
    dyn, fix = stats["blfdyn"], stats["blffix"]
    assert dyn["n_failed"] == fix["n_failed"] == 0
    assert 0.005 <= dyn["mean_ase"] <= 0.040, dyn
    assert 0.012 <= fix["mean_ase"] <= 0.050, fix
    assert dyn["mean_ase"] < fix["mean_ase"]
    assert dyn["orders"].get(2, 0) >= 18
    assert fix["orders"].get(2, 0) >= 18
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _report(3, f"TVAR2: dyn {dyn['mean_ase']:.4f} in [0.005,0.040], "
               f"fix {fix['mean_ase']:.4f} in [0.012,0.050], "
               f"order 2 in {dyn['orders'].get(2, 0)}/20 (dyn) and "
               f"{fix['orders'].get(2, 0)}/20 (fix), {elapsed:.0f}s")


def test_criterion_4_tvar6_benchmark():
    """10 replicates: BLFDyn ASE band and order-6 rule."""
    start = time.perf_counter()
    records = run_benchmark("tvar6", 10, ["blfdyn"], T=1024, base_seed=0)
    stats = summarize(records)["blfdyn"]
    assert stats["n_failed"] == 0
    assert 0.02 <= stats["mean_ase"] <= 0.12, stats
    assert stats["orders"].get(6, 0) >= 8
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    _report(4, f"TVAR6: dyn {stats['mean_ase']:.4f} in [0.02,0.12], "
               f"order 6 in {stats['orders'].get(6, 0)}/10, {elapsed:.0f}s")


def test_criterion_5_piecear_benchmark():
    """10 replicates: BLFFix ASE band with orders confined to {2, 3}."""
    start = time.perf_counter()
    records = run_benchmark("piecewise", 10, ["blffix"], T=1024, base_seed=0)
    stats = summarize(records)["blffix"]
    assert stats["n_failed"] == 0
    assert 0.05 <= stats["mean_ase"] <= 0.16, stats
    assert set(stats["orders"]) <= {2, 3}, stats
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _report(5, f"PieceAR: fix {stats['mean_ase']:.4f} in [0.05,0.16], "
               f"orders {stats['orders']}, {elapsed:.0f}s")


def test_criterion_6_spectrum_correctness():
    """Flat spectrum exact; AR(1) S(0)=100 to 1e-12; ASE identities exact."""
    T = 5
    flat = TvarFit(coeffs=np.zeros((T, 1)), sigma2=np.ones(T))
    spg = tvar_spectrum(flat, default_freq_grid())
    assert np.all(spg.values == 1.0)

    ar1 = TvarFit(coeffs=np.full((T, 1), 0.9), sigma2=np.ones(T))
    s0 = tvar_spectrum(ar1, np.array([0.0, 0.25])).values[:, 0]
    np.testing.assert_allclose(s0, 100.0, rtol=1e-12)

    surf = tvar_spectrum(ar1, default_freq_grid())
    assert ase(surf, surf) == 0.0
    offset = Spectrogram(surf.times, surf.freqs, np.e * surf.values)
    assert ase(offset, surf) == pytest.approx(1.0, rel=1e-12)
    _report(6, "spectrum identities (flat, S(0)=100, ASE(X,X)=0, "
               "one-log-unit offset = 1)")


def test_criterion_7_sampler_consistency():
    """10,000 draws on a T=30 fit: smoothed moments within 3 MC SE."""
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    T = 30
    d = DiscountPair(0.95, 0.95)
    fs = forward_filter(rng.normal(size=T), rng.normal(size=T), NIGPrior(), d)
    sm = backward_smooth(fs)
    theta, sigma2 = backward_sample(fs, np.random.default_rng(99), size=10000)
    n = theta.shape[1]

    z_mean = (theta.mean(axis=1) - sm.mu) / (theta.std(axis=1) / np.sqrt(n))
    assert np.max(np.abs(z_mean)) < 3.0

    prec = 1.0 / sigma2
    z_prec = (prec.mean(axis=1) - 1.0 / sm.s) / (prec.std(axis=1) / np.sqrt(n))
    assert np.max(np.abs(z_prec)) < 3.0

    # smoothed coefficient spread: sampled variance within the scale band
    ratio = theta.var(axis=1) / (sm.c * sm.v / (sm.v - 2.0))
    assert np.all(ratio > 0.7) and np.all(ratio < 1.4)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(7, f"sampler moments vs smoothing at every t "
               f"(max |z| mean {np.max(np.abs(z_mean)):.2f}, "
               f"precision {np.max(np.abs(z_prec)):.2f}), {elapsed:.1f}s")


def test_criterion_8_root_oracle():
    """Root round trip recovers (A, theta) within 1e-8 for (1.1, 1.12, 1.1)."""
    moduli = np.array([1.1, 1.12, 1.1])
    thetas = np.array([0.06, 0.25, 0.44])
    coeffs = roots_to_coeffs(moduli, thetas)
    poly = np.concatenate([[1.0], -coeffs])
    roots = np.roots(poly[::-1])
    upper = roots[roots.imag > 0]
    got_A = np.sort(np.abs(upper))
    got_th = np.sort(np.abs(np.angle(upper)) / (2.0 * np.pi))
    np.testing.assert_allclose(got_A, np.sort(moduli), atol=1e-8)
    np.testing.assert_allclose(got_th, np.sort(thetas), atol=1e-8)
    _report(8, "root round trip recovers amplitudes and angles to 1e-8")
