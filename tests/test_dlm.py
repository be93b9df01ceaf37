"""Core DLM tests: conjugacy oracle, smoothing identities, sampler moments."""

import math

import numpy as np
import pytest

from blf import dlm
from blf.dlm import (
    DiscountPair,
    NIGPrior,
    _backward,
    _block_sampler,
    _scan,
    _score,
    backward_sample,
    backward_smooth,
    default_prior,
    forward_filter,
    predictive_loglik,
)

from helpers import (
    covariance_filter,
    readouts,
    sequential_block_draw,
    static_nig_posterior,
)

STATIC = DiscountPair(1.0, 1.0)


def static_problems():
    """100 random (y, x, prior) regressions, T in 1..50, non-integer v0."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        T = int(rng.integers(1, 51))
        y = rng.normal(size=T)
        x = rng.normal(size=T)
        prior = NIGPrior(
            mu0=rng.normal(),
            c0=rng.uniform(0.1, 3.0),
            v0=rng.uniform(0.5, 5.0),
            kappa0=rng.uniform(0.1, 4.0),
        )
        yield y, x, prior


class TestForwardFilter:
    def test_conjugacy_oracle(self):
        """Static limit reproduces the batch conjugate posterior."""
        for y, x, prior in static_problems():
            fs = forward_filter(y, x, prior, STATIC)
            expected = static_nig_posterior(y, x, prior)
            got = (fs.mu[-1], readouts(fs)[1][-1], fs.v[-1], fs.kappa[-1])
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_discounted_filter_matches_covariance_form(self):
        """Discounts in [0.8, 1], x and y scaled 1e-3 to 1e3, varied priors,
        scalar and batch inputs: every field agrees with the step-by-step
        covariance form to 1e-10 relative, and row 0 of the state is the
        prior.  mu is compared on the scale |mu| + sqrt(c) of its posterior,
        since it may cross zero, and e on the scale |y| + |x mu_{t-1}| of the
        terms it differences.  The prior is drawn on the coefficient's own
        scale y/x: one many orders off it makes the problem ill-conditioned,
        and either form can then stray about 1e-10 from exact arithmetic.
        The last six problems are long (T = 1024 and 4096) and have exact
        zeros in x, steps where g_t = 1 and the numerator h = P mu and P
        are only discounted, so mu is carried within rounding."""
        rng = np.random.default_rng(15)
        for i in range(246):
            T = int(rng.integers(1, 60)) if i < 240 else (1024, 4096)[i % 2]
            form = i % 3  # scalar, (T, G) series, 1-D series with (G,) discounts
            size = (T, 4) if form == 1 else T
            y_scale, x_scale = 10 ** rng.uniform(-3, 3, size=2)
            y = rng.normal(size=size) * y_scale
            x = rng.normal(size=size) * x_scale
            if i >= 240:
                x[rng.random(size) < 0.2] = 0.0
            gamma, delta = rng.uniform(0.8, 1.0, size=(2, 4) if form else 2)
            theta_scale = y_scale / x_scale
            prior = NIGPrior(mu0=rng.normal() * theta_scale,
                             c0=rng.uniform(0.1, 3.0) * theta_scale**2,
                             v0=rng.uniform(0.5, 5.0),
                             kappa0=rng.uniform(0.1, 4.0) * y_scale**2)
            fs = forward_filter(y, x, prior, DiscountPair(gamma, delta))
            ref = covariance_filter(y, x, prior, gamma, delta)
            s, c, q = readouts(fs)
            got = {"mu": fs.mu, "c": c, "v": fs.v, "kappa": fs.kappa, "s": s}
            for name, first in (("mu", prior.mu0), ("c", prior.c0), ("v", prior.v0),
                                ("kappa", prior.kappa0)):
                np.testing.assert_allclose(got[name][0], first, rtol=1e-15,
                                           err_msg=name)
            for name in ("c", "v", "kappa", "s"):
                np.testing.assert_allclose(got[name][1:], ref[name],
                                           rtol=1e-10, err_msg=name)
            np.testing.assert_allclose(q, ref["q"], rtol=1e-10, err_msg="q")
            mu_scale = np.abs(ref["mu"]) + np.sqrt(ref["c"])
            assert np.all(np.abs(fs.mu[1:] - ref["mu"]) <= 1e-10 * mu_scale)
            mu_lag = np.concatenate([np.full((1,) + ref["mu"].shape[1:], prior.mu0),
                                     ref["mu"][:-1]])
            yb, xb = (a[:, None] if form == 2 else a for a in (y, x))
            scale = np.abs(yb) + np.abs(xb * mu_lag)
            assert np.all(np.abs(fs.e - ref["e"]) <= 1e-10 * scale)

    def test_zero_regressor_step(self):
        """x_t = 0 forces z = 0, mu carried, g = 1 (so q = s_{t-1}), e = y_t
        (state row t is time t, forecast row t-1 is step t)."""
        prior = NIGPrior(0.5, 1.0, 2.0, 3.0)
        d = DiscountPair(0.9, 0.95)
        y = np.array([1.0, -2.0, 0.7])
        x = np.array([1.3, 0.0, -0.4])
        fs = forward_filter(y, x, prior, d)
        assert fs.mu[2] == fs.mu[1]
        assert fs.g[1] == 1.0
        assert fs.e[1] == y[1]

    def test_reduction_identity(self):
        """c_{t-1}/gamma equals c_{t-1} + c_{t-1}(1-gamma)/gamma."""
        rng = np.random.default_rng(2)
        c = rng.uniform(0.01, 5.0, size=200)
        for gamma in (0.8, 0.9, 0.97, 1.0):
            np.testing.assert_allclose(c / gamma, c + c * (1 - gamma) / gamma,
                                       rtol=1e-14)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            T = int(rng.integers(2, 80))
            y = rng.normal(scale=rng.uniform(0.1, 10), size=T)
            x = rng.normal(size=T)
            d = DiscountPair(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
            prior = NIGPrior(0.0, rng.uniform(0.1, 2), rng.uniform(0.5, 3),
                             rng.uniform(0.1, 2))
            fs = forward_filter(y, x, prior, d)
            sm = backward_smooth(fs)
            for arr in (*readouts(fs), fs.v, sm.c, sm.s, sm.v):
                assert np.all(arr > 0)

    def test_rejects_nonfinite_with_index(self):
        y = [0.0, np.nan, 1.0]
        with pytest.raises(ValueError, match="t=2"):
            forward_filter(y, [1.0, 1.0, 1.0], NIGPrior(), STATIC)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            forward_filter([1.0, 2.0], [1.0], NIGPrior(), STATIC)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            NIGPrior(c0=-1.0)
        with pytest.raises(ValueError):
            NIGPrior(v0=0.0)
        with pytest.raises(ValueError):
            DiscountPair(0.0, 0.9)
        with pytest.raises(ValueError):
            DiscountPair(0.9, 1.1)

    def test_default_prior_uses_initial_segment(self):
        x = np.concatenate([np.full(100, 2.0) + np.arange(100) % 2,
                            np.zeros(900)])
        prior = default_prior(x)
        assert prior.kappa0 == pytest.approx(np.var(x[:100]))
        assert (prior.mu0, prior.c0, prior.v0) == (0.0, 1.0, 1.0)


class TestBackwardSmooth:
    def test_single_step_equals_filter(self):
        fs = forward_filter([1.5], [0.7], NIGPrior(), DiscountPair(0.9, 0.9))
        sm = backward_smooth(fs)
        s, c, _ = readouts(fs)
        assert sm.mu[1] == fs.mu[1]
        assert sm.c[1] == c[1]
        assert sm.v[1] == fs.v[1]
        assert sm.s[1] == s[1]

    def test_static_limit_copies_final_value(self):
        rng = np.random.default_rng(4)
        fs = forward_filter(rng.normal(size=25), rng.normal(size=25),
                            NIGPrior(), STATIC)
        sm = backward_smooth(fs)
        assert np.all(sm.mu == fs.mu[-1])
        assert np.all(sm.s == readouts(fs)[0][-1])
        assert np.all(sm.v == fs.v[-1])

    def test_boundary_identity_bitwise(self):
        rng = np.random.default_rng(5)
        d = DiscountPair(0.93, 0.9)
        fs = forward_filter(rng.normal(size=40), rng.normal(size=40),
                            NIGPrior(), d)
        sm = backward_smooth(fs)
        s, c, _ = readouts(fs)
        assert sm.mu[-1] == fs.mu[-1]
        assert sm.c[-1] == c[-1]
        assert sm.v[-1] == fs.v[-1]
        assert sm.s[-1] == s[-1]

    def test_smoothed_scale_consistent_with_sampler(self):
        """Smoothed coefficient scale bounded by the filtered one and
        consistent with a Monte Carlo estimate from backward_sample."""
        rng = np.random.default_rng(7)
        T = 50
        d = DiscountPair(0.95, 0.95)
        fs = forward_filter(rng.normal(size=T), rng.normal(size=T),
                            NIGPrior(), d)
        sm = backward_smooth(fs)
        c = readouts(fs)[1]
        assert np.all(sm.c <= 10.0 * c)
        interior = slice(5, T - 5)
        assert np.mean(sm.c[interior] < c[interior]) > 0.6

        theta, _ = backward_sample(fs, np.random.default_rng(21), size=20000)
        mc_var = theta.var(axis=1)
        implied = sm.c * sm.v / (sm.v - 2.0)
        ratio = mc_var / implied
        assert np.all(ratio > 0.7) and np.all(ratio < 1.4)


class TestPredictiveLoglik:
    def test_cauchy_at_mode(self):
        """T=1 with e=0, q=1, v0=1 is the standard Cauchy density at 0."""
        prior = NIGPrior(0.0, 1.0, 1.0, 1.0)
        fs = forward_filter([0.0], [0.0], prior, STATIC)
        assert fs.e[0] == 0.0 and readouts(fs)[2][0] == 1.0
        assert predictive_loglik(fs) == pytest.approx(np.log(1.0 / np.pi), rel=1e-14)

    def test_static_limit_is_marginal_likelihood(self):
        """At gamma = delta = 1 the one-step densities chain to the closed-form
        marginal likelihood of the static conjugate regression:
        -T/2 log pi + lgamma(v_T/2) - lgamma(v0/2) + v0/2 log kappa0
        - v_T/2 log kappa_T + 1/2 log(C*_T / C*_0)."""
        for y, x, prior in static_problems():
            _, c_T, v_T, kappa_T = static_nig_posterior(y, x, prior)
            cstar0 = prior.c0 * prior.v0 / prior.kappa0
            cstar_T = c_T * v_T / kappa_T
            expected = (-len(y) / 2 * math.log(math.pi)
                        + math.lgamma(v_T / 2) - math.lgamma(prior.v0 / 2)
                        + prior.v0 / 2 * math.log(prior.kappa0)
                        - v_T / 2 * math.log(kappa_T)
                        + 0.5 * math.log(cstar_T / cstar0))
            got = predictive_loglik(forward_filter(y, x, prior, STATIC))
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1023, 1024, 1025])
    def test_matches_term_by_term_density(self, n):
        """The cached normalizer sums agree with the Student-t log density
        summed step by step from the filter's own df, at lengths on both
        sides of a power of two."""
        rng = np.random.default_rng(n)
        y, x = rng.normal(size=(2, n))
        for d in (DiscountPair(0.9, 0.8), DiscountPair(0.95, 0.95),
                  DiscountPair(1.0, 1.0)):
            fs = forward_filter(y, x, NIGPrior(v0=2.5), d)
            want = math.fsum(
                math.lgamma((v + 1) / 2) - math.lgamma(v / 2)
                - 0.5 * math.log(v * math.pi * q) - (v + 1) / 2 * math.log1p(e * e / (v * q))
                for v, e, q in zip(fs.v[:-1].tolist(), fs.e.tolist(),
                                   readouts(fs)[2].tolist()))
            assert predictive_loglik(fs) == pytest.approx(want, rel=1e-13)

    def test_matches_student_t_reference(self):
        """On random regressions, priors and discounts the score equals a
        Python-float loop of the Student-t log density with v_{t-1} degrees
        of freedom and squared scale q_t = s_{t-1} g_t, s = kappa / v, at
        the filter's own error e_t, with the normalizer from math.lgamma."""
        rng = np.random.default_rng(19)
        for n in (1, 7, 200, 1000, 1500):
            y, x = rng.normal(size=(2, n)) * rng.uniform(0.1, 10.0)
            prior = NIGPrior(mu0=rng.normal(), c0=rng.uniform(0.1, 3.0),
                             v0=rng.uniform(0.5, 5.0), kappa0=rng.uniform(0.1, 4.0))
            d = DiscountPair(*rng.uniform(0.8, 1.0, size=2))
            fs = forward_filter(y, x, prior, d)
            want = 0.0
            for v, kappa, e, g in zip(fs.v[:-1].tolist(), fs.kappa[:-1].tolist(),
                                      fs.e.tolist(), fs.g.tolist()):
                q = kappa / v * g
                want += (math.lgamma((v + 1) / 2) - math.lgamma(v / 2)
                         - 0.5 * math.log(v * math.pi * q)
                         - (v + 1) / 2 * math.log1p(e * e / (v * q)))
            assert predictive_loglik(fs) == pytest.approx(want, rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        y, x = rng.normal(size=30), rng.normal(size=30)
        d = DiscountPair(0.9, 0.92)
        a = predictive_loglik(forward_filter(y, x, NIGPrior(), d))
        b = predictive_loglik(forward_filter(y, x, NIGPrior(), d))
        assert a == b

    def test_true_lag_beats_zero_regressor(self):
        rng = np.random.default_rng(9)
        T = 200
        x = np.zeros(T + 1)
        for t in range(1, T + 1):
            x[t] = 0.9 * x[t - 1] + rng.standard_normal()
        y, lag = x[1:], x[:-1]
        d = DiscountPair(0.98, 0.98)
        ll_true = predictive_loglik(forward_filter(y, lag, NIGPrior(), d))
        ll_null = predictive_loglik(forward_filter(y, np.zeros(T), NIGPrior(), d))
        assert ll_true > ll_null

    def test_rejects_nonpositive_dof(self):
        fs = forward_filter([1.0, 2.0], [1.0, 1.0], NIGPrior(), STATIC)
        fs.v[0] = -1.0
        with pytest.raises(ValueError, match="degrees of freedom"):
            predictive_loglik(fs)


GRID = DiscountPair(np.array([0.8, 0.9, 1.0])[:, None], np.array([0.85, 0.95, 1.0]))


def score_problems():
    """A scalar regression, a (T, G) batch with one pair per column and an
    3 x 3 grid over one series, at T = 1023."""
    rng = np.random.default_rng(17)
    y, x = rng.normal(size=(2, 1023))
    yb, xb = rng.normal(size=(2, 1023, 4))
    yield y, x, DiscountPair(0.95, 0.9)
    yield yb, xb, DiscountPair(np.array([0.8, 0.9, 1.0, 0.97]),
                               np.array([1.0, 0.85, 0.9, 0.97]))
    yield y, x, GRID


class TestScore:
    """``_score`` runs kappa and the density terms as one chunked sweep."""

    def test_one_block_equals_filter_bitwise(self):
        for y, x, d in score_problems():
            fs = forward_filter(y, x, NIGPrior(v0=2.5), d)
            ll, e = _score(y, x, NIGPrior(v0=2.5), d)
            assert np.array_equal(ll, predictive_loglik(fs))
            assert np.array_equal(e, fs.e)

    @pytest.mark.parametrize("K", [1, 2, 7, 1023])
    def test_blocks_agree_with_filter(self, K, monkeypatch):
        """Chunks of K = 1, 2, 7 and n steps, the last one ragged at K = 2
        and 7 (1023 = 511 * 2 + 1 = 146 * 7 + 1), give the filter's score to
        rounding and its errors bit for bit.  Pass 2 adds the density terms
        of step k of every chunk that has one, so the ragged chunk drops out
        after its first step."""
        nc = -(-1023 // K)
        last = 1023 - (nc - 1) * K
        rows = []
        real = dlm._density

        def density(kappa, *args):
            rows.append(len(kappa))
            real(kappa, *args)

        monkeypatch.setattr(dlm, "_density", density)
        for y, x, d in score_problems():
            fs = forward_filter(y, x, NIGPrior(), d)
            want = predictive_loglik(fs)
            monkeypatch.setattr(dlm, "_BLOCK_BYTES", 8 * nc * np.size(want))
            assert dlm._chunks(1023, np.size(want)) == (nc, K)
            rows.clear()
            ll, e = _score(y, x, NIGPrior(), d)
            assert rows == [nc] * last + [nc - 1] * (K - last)
            np.testing.assert_allclose(ll, want, rtol=1e-13)
            assert np.array_equal(e, fs.e)

    def test_nan_in_one_column_reaches_its_score(self, monkeypatch):
        """A step that overflows one column of a batch in its ninth 7-row
        block turns kappa to NaN from there on; the carried row takes it
        into the later blocks and the sum into that column's score alone."""
        y, x = np.random.default_rng(18).normal(size=(2, 100, 3))
        y[60, 1] = x[60, 1] = 1e200
        d = DiscountPair(np.array([0.9, 0.95, 1.0]), np.array([0.9, 0.95, 0.99]))
        monkeypatch.setattr(dlm, "_BLOCK_BYTES", 8 * 7 * 3)
        with np.errstate(all="ignore"):
            ll, _ = _score(y, x, NIGPrior(), d)
        assert np.isnan(ll[1]) and np.all(np.isfinite(ll[[0, 2]]))
        for g in (0, 2):
            fs = forward_filter(y[:, g], x[:, g], NIGPrior(),
                                DiscountPair(d.gamma[g], d.delta[g]))
            np.testing.assert_allclose(ll[g], predictive_loglik(fs), rtol=1e-13)


class TestBackwardSample:
    def test_static_limit_constant_paths(self):
        rng = np.random.default_rng(10)
        fs = forward_filter(rng.normal(size=15), rng.normal(size=15),
                            NIGPrior(), STATIC)
        theta, sigma2 = backward_sample(fs, np.random.default_rng(0), size=1)
        assert np.ptp(theta) == 0.0
        assert np.ptp(sigma2) == 0.0

    def test_moments_match_smoothing(self):
        """10k draws: theta means and precision means within 3 MC standard
        errors of the smoothing recursions at every t."""
        rng = np.random.default_rng(12)
        T = 30
        d = DiscountPair(0.95, 0.95)
        fs = forward_filter(rng.normal(size=T), rng.normal(size=T),
                            NIGPrior(), d)
        sm = backward_smooth(fs)
        theta, sigma2 = backward_sample(fs, np.random.default_rng(99),
                                        size=10000)
        n = theta.shape[1]
        z_mean = (theta.mean(axis=1) - sm.mu) / (theta.std(axis=1) / np.sqrt(n))
        assert np.max(np.abs(z_mean)) < 3.0
        prec = 1.0 / sigma2
        z_prec = (prec.mean(axis=1) - 1.0 / sm.s) / (prec.std(axis=1) / np.sqrt(n))
        assert np.max(np.abs(z_prec)) < 3.0


    @pytest.mark.parametrize("d, lows", [
        (DiscountPair(0.95, 0.9), [0]),
        (DiscountPair(0.95, 0.9), [37, 36, 10, 0]),
        (DiscountPair(0.8, 1.0), [50, 25, 0]),      # delta = 1: no shocks drawn
        (DiscountPair(1.0, 0.95), [40, 40, 5, 0]),  # gamma = 1; an empty block
    ])
    def test_blocks_carry_one_row(self, d, lows):
        """Blocks of rows drawn back from row n, each recursion starting from
        the row the previous block ended on, follow a step-by-step loop in the
        same generator order (to rounding) and leave the generator where it
        does, with one generator passed as both; one block is
        backward_sample."""
        rng = np.random.default_rng(14)
        fs = forward_filter(rng.normal(size=60), rng.normal(size=60), NIGPrior(), d)
        gen, ref_gen = np.random.default_rng(5), np.random.default_rng(5)
        rows = _block_sampler(fs, gen, gen, 7)
        hi, theta, sigma2 = 60, np.empty((61, 7)), np.empty((61, 7))
        for lo in lows:
            th, s2 = rows(lo)
            assert th.shape == s2.shape == (hi - lo + 1, 7)
            if hi < 60:  # the carried row is returned unchanged
                assert np.array_equal(th[-1], theta[hi]) and np.array_equal(s2[-1], sigma2[hi])
            theta[lo:hi + 1], sigma2[lo:hi + 1] = th, s2
            hi = lo
        ref_theta, ref_sigma2 = sequential_block_draw(fs, ref_gen, 7, lows)
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(sigma2, ref_sigma2, rtol=1e-12)
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        if lows == [0]:
            whole = backward_sample(fs, np.random.default_rng(5), 7)
            assert np.array_equal(whole[0], theta) and np.array_equal(whole[1], sigma2)

    @pytest.mark.parametrize("d", [DiscountPair(0.95, 0.9), DiscountPair(0.8, 1.0),
                                   DiscountPair(1.0, 0.95)])
    @pytest.mark.parametrize("lows", [[37, 36, 10, 0], [59, 30, 30, 1, 0], [40, 1]])
    def test_two_generators_make_the_split_draw_one_draw(self, d, lows):
        """With its own generator for the precisions and one for the
        normals, a split draw uses the numbers of one call down to the same
        last row: paths equal to rounding (the doubling scans run over
        other lengths) and both generators end in one state."""
        rng = np.random.default_rng(15)
        fs = forward_filter(rng.normal(size=60), rng.normal(size=60), NIGPrior(), d)
        gens = [np.random.default_rng(s) for s in (6, 7, 6, 7)]
        rows = _block_sampler(fs, gens[0], gens[1], 7)
        parts = [rows(lo) for lo in lows][::-1]
        theta = np.concatenate([parts[0][0]] + [th[1:] for th, _ in parts[1:]])
        sigma2 = np.concatenate([parts[0][1]] + [s2[1:] for _, s2 in parts[1:]])
        ref_theta, ref_sigma2 = _block_sampler(fs, gens[2], gens[3], 7)(lows[-1])
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(sigma2, ref_sigma2, rtol=1e-12)
        assert gens[0].bit_generator.state == gens[2].bit_generator.state
        assert gens[1].bit_generator.state == gens[3].bit_generator.state


def loop_scan(a, b, first):
    """Python-float reference: y[0] = first, y[t+1] = a[t] y[t] + b[t], one
    column and one step at a time."""
    out = []
    for j in range(len(first)):
        y = [first[j]]
        for t in range(len(b)):
            y.append(a[t][j] * y[-1] + b[t][j])
        out.append(y)
    return np.array(out).T.reshape(len(b) + 1, len(first))


class TestScanKernel:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1023, 4095])
    @pytest.mark.parametrize("width", [1, 11, 64, 121])
    def test_doubling_scan_matches_loop(self, n, width):
        """Forward and backward scans equal the step-by-step loop to 1e-13 on
        the scale of the loop over |a| and |b|, for a = 1, for a = 0.8 and
        for a row of gamma^2, where a**k underflows to 0 at the long
        lengths; b has mixed signs, so cancellation is covered too."""
        rng = np.random.default_rng(n * 1000 + width)
        gamma = np.linspace(0.8, 1.0, width)
        b = rng.normal(size=(n, width))
        first = rng.normal(size=width)
        for a in (np.ones(width), np.full(width, 0.8), gamma**2):
            arg = a if width > 1 else a[0]  # a row, or one scalar for all
            steps = np.broadcast_to(a, (n, width))
            want = loop_scan(steps.tolist(), b.tolist(), first.tolist())
            scale = loop_scan(steps.tolist(), np.abs(b).tolist(),
                              np.abs(first).tolist())
            got = _scan(arg, b, first)
            assert got.shape == (n + 1, width)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            want_b = loop_scan(steps[::-1].tolist(), b[::-1].tolist(),
                               first.tolist())[::-1]
            scale_b = loop_scan(steps[::-1].tolist(), np.abs(b[::-1]).tolist(),
                                np.abs(first).tolist())[::-1]
            got_b = _backward(arg, b, first)
            assert np.all(np.abs(got_b - want_b) <= 1e-13 * scale_b)

    def test_unit_variance_discount_counts_exactly(self):
        """At delta = 1 the degrees of freedom v_t = v0 + t are exact
        integers, scalar and batched."""
        n = 4095
        y, x = np.random.default_rng(16).normal(size=(2, n))
        for v0 in (1.0, 3.0):
            prior = NIGPrior(v0=v0)
            want = v0 + np.arange(n + 1)
            assert np.array_equal(forward_filter(y, x, prior, DiscountPair(0.9, 1.0)).v,
                                  want)
            fsb = forward_filter(y, x, prior,
                                 DiscountPair(np.array([0.8, 0.9]), np.ones(2)))
            assert np.array_equal(np.broadcast_to(fsb.v, (n + 1, 2)),
                                  np.stack([want, want], axis=1))


class TestBatchMode:
    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(14)
        T, G = 20, 5
        y = rng.normal(size=(T, G))
        x = rng.normal(size=(T, G))
        gammas = np.array([0.8, 0.9, 0.95, 0.99, 1.0])
        deltas = np.array([0.85, 0.9, 1.0, 0.92, 0.88])
        batch = DiscountPair(gammas, deltas)
        fsb = forward_filter(y, x, NIGPrior(), batch)
        smb = backward_smooth(fsb)
        llb = predictive_loglik(fsb)
        for g in range(G):
            d = DiscountPair(gammas[g], deltas[g])
            fs = forward_filter(y[:, g], x[:, g], NIGPrior(), d)
            sm = backward_smooth(fs)
            assert np.array_equal(fs.mu, fsb.mu[:, g])
            assert np.array_equal(fs.kappa, fsb.kappa[:, g])
            assert np.array_equal(sm.mu, smb.mu[:, g])
            assert np.array_equal(sm.c, smb.c[:, g])
            # summation order along the batch axis differs by design
            np.testing.assert_allclose(predictive_loglik(fs), llb[g], rtol=1e-13)
