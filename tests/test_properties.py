"""Invariants of the model checked as properties over generated inputs.

Negating the series or scaling it by a power of two changes every
intermediate value by an exact sign or power of two, so PARCOR paths,
orders and coefficients must come back bit for bit, and variances must
scale by exactly 4^j.  Batch filtering, smoothing and lattice stages must
equal the scalar runs column by column, and so must the predictive log
likelihood, also for grid-shaped discounts and through the searches'
time-blocked scorer.  A lattice stage's pair step, which scans its two
regressions' shared numerator once, equals two separate forecast runs bit
for bit.  A lower-order lattice is the first stages of a
higher-order one, bit for bit.  blffix's order rule over a whole scree
in one array pass gives each column's order and saturation flag.  The
plug-in spectrum and ASE over pieces of rows equal their whole-surface
formulas bit for bit.  Every CSV writer/reader pair gives back finite
float64 values bit for bit.
"""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from blf import dlm, spectrum  # noqa: E402
from blf.dlm import (  # noqa: E402
    DiscountPair,
    FilterState,
    NIGPrior,
    _forecasts,
    _score,
    _stage_pair,
    backward_smooth,
    forward_filter,
    predictive_loglik,
)
from blf.io import (  # noqa: E402
    read_coeffs_csv,
    read_series_csv,
    read_spectrogram_csv,
    write_fit_csv,
    write_series_csv,
    write_spectrogram_csv,
)
from blf.lattice import StageResult, run_lattice, run_stage, stage_filters  # noqa: E402
from blf.selection import (  # noqa: E402
    SearchGrid,
    _blffix_orders,
    _first_flattening,
    _pct_change,
    fit_blfdyn,
    fit_blffix,
    fit_fixed,
    select_order,
)
from blf.simulate import gen_tvar2, gen_tvar6  # noqa: E402
from blf.spectrum import (  # noqa: E402
    Spectrogram,
    _transfer_power,
    ase,
    default_freq_grid,
    tvar_spectrum,
)
from blf.tvar import TvarFit, path_sampler  # noqa: E402
from helpers import column_orders, whole_paths  # noqa: E402

GRID = SearchGrid(gammas=(0.9, 0.95, 1.0), deltas=(0.9, 0.95, 1.0), p_max=4)
PAIRS = [DiscountPair(0.95, 1.0), DiscountPair(1.0, 1.0), DiscountPair(1.0, 0.9),
         DiscountPair(0.98, 0.97)]

seeds = st.integers(0, 2**16)
discount = st.sampled_from([0.8, 0.9, 0.95, 0.99, 1.0])
# Finite float64 cells, always mixed with the edge cases of the 17-digit rule.
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.225073858507201e-308, 1.7e308, -1.7e308, 1.7976931348623157e308]
cell_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=60).map(lambda v: v + EDGES)
series = st.builds(lambda gen, T, seed: gen(T, seed=seed).x,
                   st.sampled_from([gen_tvar2, gen_tvar6]), st.integers(60, 240), seeds)


def _fixed(x, d, order):
    """PARCOR paths, sigma^2 and 8 joint posterior draws of a fixed fit."""
    rep = fit_fixed(x, d, order)
    coeffs, sigma2 = whole_paths(path_sampler(rep.run, order), np.random.default_rng(0), 8)
    alpha = np.array([stage.alpha for stage in rep.run.stages])
    beta = np.array([stage.beta for stage in rep.run.stages])
    return rep, alpha, beta, coeffs, sigma2


@given(x=series, fitter=st.sampled_from([fit_blfdyn, fit_blffix]))
def test_searches_sign_invariant(x, fitter):
    a, b = fitter(x, grid=GRID), fitter(-x, grid=GRID)
    assert a.chosen_order == b.chosen_order
    assert np.array_equal(a.scree, b.scree)
    assert np.array_equal(a.fit.coeffs, b.fit.coeffs)


@given(x=series, d=st.sampled_from(PAIRS), order=st.integers(1, 4))
def test_fixed_fit_sign_invariant(x, d, order):
    rep, alpha, beta, coeffs, sigma2 = _fixed(x, d, order)
    rep_n, alpha_n, beta_n, coeffs_n, sigma2_n = _fixed(-x, d, order)
    assert np.array_equal(alpha, alpha_n) and np.array_equal(beta, beta_n)
    assert np.array_equal(rep.fit.sigma2, rep_n.fit.sigma2)
    assert np.array_equal(coeffs, coeffs_n) and np.array_equal(sigma2, sigma2_n)


@given(x=series, d=st.sampled_from(PAIRS), order=st.integers(1, 4),
       j=st.integers(-20, 20))
def test_fixed_fit_power_of_two_scale_equivariant(x, d, order, j):
    k = 2.0**j
    rep, alpha, beta, coeffs, sigma2 = _fixed(x, d, order)
    rep_k, alpha_k, beta_k, coeffs_k, sigma2_k = _fixed(k * x, d, order)
    assert np.array_equal(alpha, alpha_k) and np.array_equal(beta, beta_k)
    assert np.array_equal(coeffs, coeffs_k)
    assert np.array_equal(rep.fit.sigma2 * k * k, rep_k.fit.sigma2)
    assert np.array_equal(sigma2 * k * k, sigma2_k)


@given(T=st.integers(1, 40), seed=seeds,
       pairs=st.lists(st.tuples(discount, discount), min_size=1, max_size=5))
def test_batch_smooth_equals_scalar(T, seed, pairs):
    """Discounts include 1.0."""
    G = len(pairs)
    gammas, deltas = (np.array(v) for v in zip(*pairs))
    rng = np.random.default_rng(seed)
    y, x = rng.normal(size=(T, G)), rng.normal(size=(T, G))
    fsb = forward_filter(y, x, NIGPrior(), DiscountPair(gammas, deltas))
    smb, llb = backward_smooth(fsb), predictive_loglik(fsb)
    assert llb.shape == (G,)
    for g in range(G):
        fs = forward_filter(y[:, g], x[:, g], NIGPrior(),
                            DiscountPair(gammas[g], deltas[g]))
        sm = backward_smooth(fs)
        for name in ("mu", "c", "v", "s"):
            assert np.array_equal(getattr(sm, name), getattr(smb, name)[:, g]), name
        np.testing.assert_allclose(predictive_loglik(fs), llb[g], rtol=1e-13)


@given(T=st.integers(1, 40), seed=seeds,
       gammas=st.lists(discount, min_size=1, max_size=4),
       deltas=st.lists(discount, min_size=1, max_size=4))
def test_grid_filter_equals_scalar(T, seed, gammas, deltas):
    """Grid-shaped discounts (Gg, 1) x (Gd,) on one series give every filter
    and smoother field and the predictive log likelihood of each pair bit for
    bit as its scalar filter, each field at the width of its inputs."""
    Gg, Gd = len(gammas), len(deltas)
    rng = np.random.default_rng(seed)
    y, x = rng.normal(size=(2, T))
    fsb = forward_filter(y, x, NIGPrior(), DiscountPair(np.array(gammas)[:, None],
                                                        np.array(deltas)))
    smb, llb = backward_smooth(fsb), predictive_loglik(fsb)
    assert fsb.mu.shape == (T + 1, Gg, 1) and fsb.e.shape == (T, Gg, 1)
    assert fsb.v.shape == (T + 1, 1, Gd) and fsb.kappa.shape == (T + 1, Gg, Gd)
    assert fsb.P.shape == (T + 1, Gg, 1) and fsb.g.shape == (T, Gg, 1)
    # Every stored trajectory is one of these six, so kappa is the only one
    # at the full (Gg, Gd) width.
    assert [f.name for f in fields(FilterState)
            if np.ndim(getattr(fsb, f.name)) == 3] == ["mu", "P", "v", "kappa", "e", "g"]
    assert llb.shape == (Gg, Gd)
    for i, j in np.ndindex(Gg, Gd):
        fs = forward_filter(y, x, NIGPrior(), DiscountPair(gammas[i], deltas[j]))
        sm = backward_smooth(fs)
        for name in ("mu", "P", "v", "kappa", "e", "g"):
            assert _same_bits(getattr(fs, name), _column(getattr(fsb, name), i, j)), name
        for name in ("mu", "c", "v", "s"):
            assert _same_bits(getattr(sm, name), _column(getattr(smb, name), i, j)), name
        assert _same_bits(predictive_loglik(fs), llb[i, j])


@given(T=st.integers(1, 40), seed=seeds, rows=st.integers(1, 40),
       gammas=st.lists(discount, min_size=1, max_size=4),
       deltas=st.lists(discount, min_size=1, max_size=4))
def test_grid_score_equals_scalar(T, seed, rows, gammas, deltas):
    """The time-blocked scorer on a grid gives each pair's score and the
    errors bit for bit as on its scalar regression, when both run blocks of
    the same number of rows."""
    Gg, Gd = len(gammas), len(deltas)
    y, x = np.random.default_rng(seed).normal(size=(2, T))
    with mock.patch.object(dlm, "_BLOCK_BYTES", 8 * rows * Gg * Gd):
        llb, eb = _score(y, x, NIGPrior(), DiscountPair(np.array(gammas)[:, None],
                                                        np.array(deltas)))
    assert llb.shape == (Gg, Gd) and eb.shape == (T, Gg, 1)
    with mock.patch.object(dlm, "_BLOCK_BYTES", 8 * rows):
        for i, j in np.ndindex(Gg, Gd):
            ll, e = _score(y, x, NIGPrior(), DiscountPair(gammas[i], deltas[j]))
            assert _same_bits(ll, llb[i, j]) and _same_bits(e, eb[:, i, 0])


PAIR_LAYOUTS = {
    # series shape, discounts: scalar, per column, or a gamma x delta grid
    "1-D, scalar": (lambda T, G: (T,), lambda g, d: (g[0], d[0])),
    "1-D, grid": (lambda T, G: (T,), lambda g, d: (g[:, None], d[None, :])),
    "(T, G), scalar": (lambda T, G: (T, G), lambda g, d: (g[0], d[0])),
    "(T, G), per column": (lambda T, G: (T, G), lambda g, d: (g, d)),
    "(T, G, 1), grid": (lambda T, G: (T, G, 1), lambda g, d: (g[:, None], d[None, :])),
}


@given(T=st.integers(1, 40), seed=seeds, layout=st.sampled_from(sorted(PAIR_LAYOUTS)),
       pairs=st.lists(st.tuples(discount, discount), min_size=1, max_size=4),
       mu0=st.sampled_from([0.0, 0.3, -2.0]), c0=st.sampled_from([1.0, 0.05, 7.0]))
def test_stage_pair_equals_two_forecasts(T, seed, layout, pairs, mu0, c0):
    """A lattice stage's pair step gives the forward regression's e, g and
    mu and, from its one scan of the shared numerator h, the backward
    regression's e and mu, bit for bit as two separate forecast runs, for
    1-D and batched series and scalar, per-column and grid discounts."""
    series, discounts = PAIR_LAYOUTS[layout]
    gammas, deltas = (np.array(v) for v in zip(*pairs))
    y, x = np.random.default_rng(seed).normal(size=(2,) + series(T, len(pairs)))
    prior = NIGPrior(mu0=mu0, c0=c0, kappa0=1.5)
    d = DiscountPair(*discounts(gammas, deltas))
    e, g, _, _, mu, _, backward = _stage_pair(y, x, prior, d)
    fwd, bwd = _forecasts(y, x, prior, d), _forecasts(x, y, prior, d)
    assert _same_bits(e, fwd[0]) and _same_bits(g, fwd[1]) and _same_bits(mu, fwd[4])
    e_b, mu_b = backward()
    assert _same_bits(e_b, bwd[0]) and _same_bits(mu_b, bwd[4])


def _column(arr, i, j):
    """Pair (i, j) of a grid-shaped field that may broadcast over either axis."""
    return arr[:, min(i, arr.shape[1] - 1), min(j, arr.shape[2] - 1)]


@given(T=st.integers(1, 40), seed=seeds, gamma=discount, delta=discount)
def test_forecast_errors_do_not_depend_on_delta(T, seed, gamma, delta):
    """The errors, which are all the causal scree's backward regression
    keeps, are the same bits at delta = 1 as at any delta."""
    y, x = np.random.default_rng(seed).normal(size=(2, T))
    at_one = forward_filter(y, x, NIGPrior(), DiscountPair(gamma, 1.0))
    assert _same_bits(at_one.e, forward_filter(y, x, NIGPrior(),
                                               DiscountPair(gamma, delta)).e)


@given(T=st.integers(2, 40), seed=seeds, cut=st.integers(1, 39),
       pairs=st.lists(st.tuples(discount, discount), min_size=1, max_size=5))
def test_batch_stage_equals_scalar(T, seed, cut, pairs):
    """A batched lattice stage equals the scalar stages column by column,
    boundary times included, at every m up to T-1 (one step per
    regression); discounts include 1.0.  The stage's variance read-outs
    are those of its filter passes, whose batch columns
    ``test_batch_smooth_equals_scalar`` checks."""
    m = min(cut, T - 1)
    G = len(pairs)
    gammas, deltas = (np.array(v) for v in zip(*pairs))
    rng = np.random.default_rng(seed)
    f_prev, b_prev = rng.normal(size=(2, T, G))
    stb = run_stage(f_prev, b_prev, m, DiscountPair(gammas, deltas), NIGPrior())
    for g in range(G):
        sts = run_stage(f_prev[:, g], b_prev[:, g], m,
                        DiscountPair(gammas[g], deltas[g]), NIGPrior())
        for name in ("alpha", "beta", "f_next", "b_next"):
            assert np.array_equal(getattr(sts, name), getattr(stb, name)[:, g]), name


@given(T=st.integers(2, 40), seed=seeds, cut=st.integers(1, 39), gamma=discount,
       deltas=st.lists(discount, min_size=1, max_size=4))
def test_stage_does_not_depend_on_delta(T, seed, cut, gamma, deltas):
    """A stage stores its smoothed means and the errors they give, which
    depend on gamma alone: every stored field is the same bits at any delta
    as at delta = 1, for a scalar stage and for a batch whose columns share
    gamma."""
    m = min(cut, T - 1)
    G = len(deltas)
    f_prev, b_prev = np.random.default_rng(seed).normal(size=(2, T, G))
    at_one = run_stage(f_prev[:, 0], b_prev[:, 0], m, DiscountPair(gamma, 1.0), NIGPrior())
    batch_at_one = run_stage(f_prev, b_prev, m, DiscountPair(np.full(G, gamma), np.ones(G)),
                             NIGPrior())
    for delta in deltas:
        got = run_stage(f_prev[:, 0], b_prev[:, 0], m, DiscountPair(gamma, delta), NIGPrior())
        for f in fields(StageResult):
            assert _same_bits(getattr(got, f.name), getattr(at_one, f.name)), f.name
    batch = run_stage(f_prev, b_prev, m, DiscountPair(np.full(G, gamma), np.array(deltas)),
                      NIGPrior())
    for f in fields(StageResult):
        assert _same_bits(getattr(batch, f.name), getattr(batch_at_one, f.name)), f.name


@given(T=st.integers(6, 80), seed=seeds, cut=st.integers(1, 4),
       pairs=st.lists(st.tuples(discount, discount), min_size=2, max_size=5))
def test_lattice_prefix_consistent(T, seed, cut, pairs):
    """An order-P lattice is the first P stages of an order-P' one (P < P'),
    bit for bit in every StageResult field and in the filter passes that
    ``stage_filters`` recomputes; discounts include 1.0."""
    x = np.random.default_rng(seed).normal(size=T)
    per_stage = [DiscountPair(g, d) for g, d in pairs]
    P = min(cut, len(per_stage) - 1)
    short = run_lattice(x, P, per_stage[:P], NIGPrior())
    longer = run_lattice(x, len(per_stage), per_stage, NIGPrior())
    for m, (a, b) in enumerate(zip(short.stages, longer.stages), start=1):
        for f in fields(StageResult):
            assert _same_bits(getattr(a, f.name), getattr(b, f.name)), f.name
        for fa, fb in zip(stage_filters(short, m), stage_filters(longer, m)):
            for g in fields(FilterState):
                assert _same_bits(getattr(fa, g.name), getattr(fb, g.name)), (m, g.name)


def _same_bits(a, b) -> bool:
    """Equal shapes and bytes, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Scree cells: dyadic values, whose percent changes tie exactly (-64 ->
# -32 -> -16 changes by 50% twice), mixed with arbitrary nonzero floats.
DYADIC = st.sampled_from([-64.0, -48.0, -32.0, -24.0, -16.0, -12.0, -8.0, -6.0,
                          -4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 4.0])
scree_cells = st.one_of(DYADIC, st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))


@st.composite
def screes(draw):
    """A (p, n) scree and a tau, drawn from a few fixed values and the
    scree's own nonzero percent changes, so some changes sit exactly at
    tau and, at the smallest change, every column may saturate."""
    p, n = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    scree = np.array(draw(st.lists(scree_cells, min_size=p * n, max_size=p * n)))
    scree = scree.reshape(p, n)
    pct = _pct_change(scree)
    taus = [0.5, 25.0, 50.0] + sorted(set(pct[pct > 0].tolist()))
    return scree, draw(st.sampled_from(taus))


@given(case=screes())
@example(case=(np.array([[-64.0, -64.0, -64.0], [-32.0, -32.0, -32.0],
                         [-16.0, -8.0, -24.0], [-8.0, -4.0, -21.0]]), 12.5))
@example(case=(np.array([[-64.0, -64.0], [-32.0, -48.0], [-16.0, -36.0]]), 25.0))
@example(case=(np.array([[-3.0, 2.0, -1.0]]), 0.5))
@example(case=(np.array([[-4.0, -4.0], [-2.0, -4.0]]), 50.0))
def test_blffix_orders_equal_column_rules(case):
    """Per column, the one-pass orders and saturation flags are the loop
    oracle's and those of select_order and _first_flattening on the column
    alone; the examples cover ties, changes exactly at tau, every column
    saturated, and screes of one and two stages."""
    scree, tau = case
    orders, saturated = _blffix_orders(scree, tau)
    assert orders.shape == saturated.shape == scree.shape[1:]
    for j in range(scree.shape[1]):
        col = scree[:, j]
        assert (int(orders[j]), bool(saturated[j])) == column_orders(col, tau)
        rule = select_order(col, tau)
        assert bool(saturated[j]) == (rule == len(col))
        assert orders[j] == (int(_first_flattening(col)) if saturated[j] else rule)


@given(T=st.integers(1, 300), P=st.integers(1, 15), seed=seeds,
       rows=st.integers(1, 300),
       step=st.sampled_from([0.5, 0.05, 0.01, 0.005, 0.0025, 0.0005]))
def test_pieces_give_whole_surface_bits(T, P, seed, rows, step):
    """With the block budget patched to 1..T rows, so that pieces hold 2..T
    rows (a budget of one row still gives pieces of two), the plug-in
    spectrum equals sigma^2 / |A|^2 of the whole surface and ASE
    the mean squared log ratio of the whole arrays, bit for bit, and no
    piece has one row.  The grids run from 2 to 1001 frequencies, so
    that products cross several of ``_transfer_power``'s column blocks."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-0.5, 0.5, size=(2, T, P)) / P
    sigma2 = rng.uniform(0.5, 2.0, size=(2, T))
    freqs = default_freq_grid(step)
    rows = min(rows, T)
    with mock.patch.object(spectrum, "_BLOCK_BYTES", 16 * len(freqs) * rows):
        pieces = spectrum._pieces(T, len(freqs))
        a, b = (tvar_spectrum(TvarFit(c, s), freqs) for c, s in zip(coeffs, sigma2))
        score = ase(a, b)
    assert T < 2 or min(p.stop - p.start for p in pieces) >= 2
    whole = [s[:, None] / _transfer_power(c, freqs) for c, s in zip(coeffs, sigma2)]
    assert _same_bits(a.values, whole[0]) and _same_bits(b.values, whole[1])
    assert _same_bits(score, np.mean((np.log(whole[0]) - np.log(whole[1])) ** 2))


@given(values=cell_lists, width=st.integers(1, 4))
def test_csv_roundtrip_bit_exact(tmp_path_factory, values, width):
    """Series, fit-coefficient (with its variance file) and linear-cell
    spectrogram files read back what was written, bit for bit."""
    out = tmp_path_factory.mktemp("csv")
    x = np.array(values)
    write_series_csv(out / "x.csv", x)
    assert _same_bits(read_series_csv(out / "x.csv"), x)

    table = np.resize(x, (len(x), width))
    write_fit_csv(out / "c.csv", out / "v.csv", TvarFit(coeffs=table, sigma2=x))
    assert _same_bits(read_coeffs_csv(out / "c.csv"), table)
    assert _same_bits(read_coeffs_csv(out / "v.csv")[:, 0], x)

    freqs = default_freq_grid(0.5 / width)
    spg = Spectrogram(np.arange(1, len(x) + 1), freqs,
                      np.resize(x, (len(x), len(freqs))))
    write_spectrogram_csv(out / "s.csv", spg, log_cells=False)
    back = read_spectrogram_csv(out / "s.csv", log_cells=False)
    assert _same_bits(back.freqs, freqs) and _same_bits(back.values, spg.values)
    assert np.array_equal(back.times, spg.times)
