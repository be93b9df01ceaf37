"""Scalar conjugate dynamic linear model with discount-factor evolution.

The model is a single time-varying regression

    y_t = theta_t * x_t + eps_t,    eps_t ~ N(0, sigma_t^2),

where theta_t follows a random walk whose innovation variance is set
implicitly by a coefficient discount factor ``gamma`` and sigma_t^2 evolves
through a multiplicative (beta-gamma) random walk controlled by a variance
discount factor ``delta``.  The conjugate normal/gamma form is preserved at
every step, so filtering, smoothing, marginal likelihood evaluation and
joint posterior path sampling are all available in closed form.

All routines accept ``y``/``x`` of shape ``(T,)`` or ``(T, *B)``, where
each column of the trailing batch axes is an independent regression
problem, and ``gamma``/``delta`` may be arrays that broadcast against the
batch shape.  Every recurrence runs at the width of the inputs it depends
on, so grid-shaped discounts such as ``gamma[:, None]`` and
``delta[None, :]`` make a discount-grid search cheap: the coefficient
recurrences run once per gamma, the degrees of freedom once per delta.

Every recurrence has a coefficient that is constant in time (gamma, delta
or gamma^2) and runs through one doubling kernel, ``_scan``: the forward
filter's P, h = P mu, v and kappa forwards in time, the smoother's and the
sampler's backwards on time-reversed views.  Every step learns: a
regression observes only the steps it has.

A grid search reads only each pair's predictive log likelihood and the
forecast errors, so it scores through ``_score``: the recurrences at the
width of the series and gamma run over the whole series as in the filter,
the degrees of freedom and the Student-t normalizers are read from one
cache of tables per (v0, deltas, size), ``_t_tables``, and kappa and the
density run as one chunked sweep.  The series is split into chunks of K
consecutive steps, with one row per chunk at the full batch width within
a fixed byte budget: a first pass gives each chunk's local kappa,
``_scan`` carries the chunk ends, and a second pass adds up the
density.  ``predictive_loglik`` and ``_score`` evaluate one density
formula, its full-width terms in ``_density`` and the rest at the width
of g.  Only ``forward_filter``, which the lattice runs, stores kappa at the
full batch width.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NIGPrior",
    "DiscountPair",
    "FilterState",
    "SmoothState",
    "default_prior",
    "forward_filter",
    "backward_smooth",
    "predictive_loglik",
    "backward_sample",
]


@dataclass(frozen=True)
class NIGPrior:
    """Conjugate normal/gamma prior for the coefficient and precision.

    theta_0 ~ N(mu0, c0) marginally and 1/sigma_0^2 ~ Gamma(v0/2, rate=kappa0/2),
    so the implied prior variance point estimate is ``kappa0 / v0``.
    """

    mu0: float = 0.0
    c0: float = 1.0
    v0: float = 1.0
    kappa0: float = 1.0

    def __post_init__(self):
        for name in ("c0", "v0", "kappa0"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0.0:
                raise ValueError(f"prior {name} must be finite and > 0, got {val}")
        if not np.isfinite(self.mu0):
            raise ValueError(f"prior mu0 must be finite, got {self.mu0}")


@dataclass(frozen=True)
class DiscountPair:
    """Discount factors in (0, 1]: ``gamma`` for the coefficient random walk,
    ``delta`` for the innovation-variance walk.  The value 1 is the static
    (no-forgetting) limit."""

    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("gamma", "delta"):
            val = np.asarray(getattr(self, name), dtype=float)
            if np.any(~np.isfinite(val)) or np.any(val <= 0.0) or np.any(val > 1.0):
                raise ValueError(f"discount {name} must lie in (0, 1], got {val}")


@dataclass
class FilterState:
    """Sequential-update trajectories over n steps, as the recurrences
    produce them.

    Row t of ``mu``, ``P``, ``v`` and ``kappa`` is time t = 0..n, row 0 the
    prior: ``mu`` is the location of the coefficient's marginal t-posterior,
    ``P`` its scale-free precision, ``v``/``kappa`` the gamma parameters of
    the precision posterior (shape v/2, rate kappa/2).  Row t-1 of ``e`` and
    ``g`` is the one-step forecast error at step t = 1..n and its scale
    factor 1 + x_t^2 / (gamma P_{t-1}).  The covariance-form read-outs are

        s = kappa / v,    c = s / P,    q_t = s_{t-1} g_t,

    the variance point estimate, the coefficient's squared scale and the
    forecast's squared scale.  ``gamma`` and ``delta`` are the discounts the
    pass ran at, with one axis per batch axis (0-d for a scalar pass);
    smoothing and sampling read them from here.

    Each field has the broadcast shape of the inputs it depends on, over
    one axis per batch axis: ``mu``, ``P``, ``e`` and ``g`` that of the
    series and ``gamma``, ``v`` that of ``delta``, ``kappa`` all three.
    """

    mu: np.ndarray
    P: np.ndarray
    v: np.ndarray
    kappa: np.ndarray
    e: np.ndarray
    g: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


@dataclass
class SmoothState:
    """Retrospective (smoothed) trajectories given all n observations.

    ``mu``/``c`` are the location and squared scale of the coefficient's
    marginal t-posterior, ``v`` the degrees of freedom and ``s`` the
    variance point estimate; the precision's rate is kappa_{t|n} =
    v_{t|n} s_{t|n}.
    """

    mu: np.ndarray
    c: np.ndarray
    v: np.ndarray
    s: np.ndarray


def default_prior(x) -> NIGPrior:
    """Reference prior for a series: mean 0, unit coefficient scale, one
    degree of freedom, and the precision scale matched to the sample
    variance of the initial stretch of the signal (first 10%, at least 10
    points) so that E[1/sigma^2] = 1/var(initial segment)."""
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        raise ValueError("default_prior needs a non-empty series")
    n0 = min(len(x), max(10, len(x) // 10))
    seg_var = float(np.var(x[:n0]))
    if not np.isfinite(seg_var) or seg_var <= 0.0:
        seg_var = 1.0
    return NIGPrior(mu0=0.0, c0=1.0, v0=1.0, kappa0=seg_var)


def _validate_series(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim < 1:
        raise ValueError(f"{name} must have a time axis, got shape {arr.shape}")
    bad = ~np.isfinite(arr)
    if np.any(bad):
        t_bad = int(np.argwhere(bad)[0][0]) + 1
        raise ValueError(f"non-finite value in {name} at t={t_bad}")
    return arr


def forward_filter(y, x, prior: NIGPrior, d: DiscountPair) -> FilterState:
    """Run the sequential conjugate updates over steps t = 1..n.

    The filter runs in information form on the scale-free precision
    P = s/c (discount-weighted regression; Ameen & Harrison 1984, West &
    Harrison 1997 ch. 10).  Every step forecasts with the first three
    lines and learns with the four recurrences below them::

        g_t     = 1 + x_t^2 / (gamma P_{t-1})
        e_t     = y_t - mu_{t-1} x_t
        q_t     = s_{t-1} g_t
        P_t     = gamma P_{t-1} + x_t^2
        h_t     = gamma h_{t-1} + x_t y_t,    mu_t = h_t / P_t
        v_t     = delta v_{t-1} + 1
        kappa_t = delta kappa_{t-1} + e_t^2 / g_t

    from P_0 = s_0/c_0 and h_0 = mu_0 P_0: the covariance form
    (r = c_{t-1}/gamma, q_t = r x_t^2 + s_{t-1} = s_{t-1} g_t) rewritten on
    P = s/c with s = kappa/v.  Its mean update
    mu_t = mu_{t-1} / g_t + x_t y_t / P_t, with 1/g_t = gamma P_{t-1} / P_t,
    is the recurrence of the discount-weighted numerator h = P mu, whose
    coefficient is the constant gamma; row 0 of mu is mu_0 itself.  The
    state keeps mu and none of h or the read-outs s, c and q.  All four
    recurrences run through the doubling kernel ``_scan``.  Each runs at
    the broadcast width of what it depends on: P, g, h, mu and e at that of
    the series and ``gamma``, v at that of ``delta``, and only kappa at the
    full batch width.

    Parameters
    ----------
    y, x : array_like, shape (n,) or (n, *B)
        Response and regressor series.
    prior : NIGPrior
    d : DiscountPair
        ``gamma``/``delta`` may be scalars or arrays that broadcast against
        the batch shape B, e.g. ``gammas[:, None]`` and ``deltas[None, :]``
        for a grid.

    Returns
    -------
    FilterState
    """
    e, g, delta, P, mu, gamma = _forecasts(y, x, prior, d)
    v = _scan(delta, np.ones((len(e),) + (1,) * delta.ndim), prior.v0)
    kappa = _scan(delta, e * e / g, prior.kappa0)
    return FilterState(mu=mu, P=P, v=v, kappa=kappa, e=e, g=g, gamma=gamma,
                       delta=delta)


def _forecasts(y, x, prior: NIGPrior, d: DiscountPair):
    """The recurrences of :func:`forward_filter` that run at the width of
    the series and ``gamma``: returns ``(e, g, delta, P, mu, gamma)``, the
    discounts with one axis per batch axis.  The forecast errors ``e`` are
    the same bits at any ``delta``."""
    y = _validate_series(y, "y")
    x = _validate_series(x, "x")
    if y.shape != x.shape:
        raise ValueError(f"y and x must have equal shape, got {y.shape} vs {x.shape}")
    if y.shape[0] < 1:
        raise ValueError("need at least one observation")

    gamma = np.asarray(d.gamma, dtype=float)
    delta = np.asarray(d.delta, dtype=float)
    ndim = len(np.broadcast_shapes(y.shape[1:], gamma.shape, delta.shape))
    # One axis per batch axis everywhere: trailing unit axes on the series
    # and leading ones on the discounts, so that each array broadcasts only
    # over the inputs it depends on.
    x = x.reshape(x.shape + (1,) * (ndim + 1 - x.ndim))
    y = y.reshape(x.shape)
    gamma = gamma.reshape((1,) * (ndim - gamma.ndim) + gamma.shape)
    delta = delta.reshape((1,) * (ndim - delta.ndim) + delta.shape)

    xx = x * x
    P = _scan(gamma, xx, prior.kappa0 / prior.v0 / prior.c0)
    g = 1.0 + xx / (gamma * P[:-1])
    del xx  # one array of the series' width fewer alive through the mean's scan
    mu = _scan(gamma, x * y, prior.mu0 * P[0]) / P
    mu[0] = prior.mu0
    e = y - mu[:-1] * x
    return e, g, delta, P, mu, gamma


def _scan(a, b: np.ndarray, first) -> np.ndarray:
    """``y[0] = first``, then ``y[t+1] = a y[t] + b[t]`` for t = 0..len(b)-1,
    with ``a`` the same at every step (a scalar or a row, broadcast against
    the rows of ``b``, as is ``first``).

    A doubling scan (Hillis & Steele 1986; Blelloch 1990): the pass at
    k = 1, 2, 4, ... adds ``a**k`` times row t-k to row t, so after it row t
    holds the weighted sum of the 2k inputs ending at t, and log2(n + 1)
    vectorized passes replace the time loop.  ``a**k`` is taken by repeated
    squaring, and every element goes through the same operations at any row
    width, so a batch column equals its scalar run bit for bit.  Row t is
    final after the passes with k <= t, so the first rows of a longer scan
    are the rows of a shorter one.
    """
    y = np.empty((len(b) + 1,) + np.broadcast_shapes(np.shape(a), b.shape[1:]))
    y[0] = first
    y[1:] = b
    term = np.empty_like(y)
    k = 1
    while k < len(y):
        np.multiply(y[:-k], a, out=term[k:])
        y[k:] += term[k:]
        k, a = 2 * k, a * a
    return y


def _backward(a, b: np.ndarray, last) -> np.ndarray:
    """``y[n] = last``, then ``y[t] = a y[t+1] + b[t]`` for t = n-1..0, with
    ``a`` the same at every step, as in ``_scan``."""
    return _scan(a, b[::-1], last)[::-1]


def backward_smooth(fs: FilterState) -> SmoothState:
    """Retrospective smoothing of a completed forward pass, at the discounts
    ``fs.gamma``/``fs.delta`` the pass ran at.

    Initialised at t = n from the filtered values, then for t = n-1..0::

        mu_{t|n}  = gamma mu_{t+1|n} + (1-gamma) mu_t
        1/s_{t|n} = delta / s_{t+1|n} + (1-delta) / s_t
        v_{t|n}   = delta v_{t+1|n} + (1-delta) v_t
        C*_{t|n}  = gamma^2 C*_{t+1|n} + (1-gamma) / P_t
        c_{t|n}   = C*_{t|n} s_{t|n}

    with s_t = kappa_t / v_t.  The coefficient-scale recursion runs on the
    scale-free variance factor C* = c/s = 1/P, from C*_{n|n} = 1/P_n, and
    re-attaches the smoothed variance estimate once per time point; folding
    the ratio s_{t|n}/s_t into the recursion itself would compound it
    backwards and blow the scale up.  Rows are times 0..n, as in the
    filter; the t = n rows of ``s`` and ``c`` are the filter's own,
    s_n = kappa_n / v_n and c_n = s_n / P_n.  Each field keeps the width of
    the filter fields it smooths.
    """
    gamma, delta = fs.gamma, fs.delta
    s_f = fs.kappa / fs.v
    mu = _smooth_mean(fs.mu, gamma)
    v = _backward(delta, (1.0 - delta) * fs.v[:-1], fs.v[-1])
    prec = _backward(delta, (1.0 - delta) / s_f[:-1], 1.0 / s_f[-1])
    cstar = _backward(gamma * gamma, (1.0 - gamma) / fs.P[:-1], 1.0 / fs.P[-1])
    s = 1.0 / prec
    s[-1] = s_f[-1]
    c = cstar * s
    c[-1] = s_f[-1] / fs.P[-1]
    return SmoothState(mu=mu, c=c, v=v, s=s)


def _smooth_mean(mu: np.ndarray, gamma) -> np.ndarray:
    """The smoothed means mu_{t|n} of :func:`backward_smooth` from the
    filtered means ``mu`` alone."""
    return _backward(gamma, (1.0 - gamma) * mu[:-1], mu[-1])


def _df(v0: float, deltas: tuple, size: int) -> np.ndarray:
    """The degrees of freedom v_t = delta v_{t-1} + 1 from v_0 = v0 for
    t = 0..size-1, one column per delta in ``deltas``.  They come from the
    filter's own kernel, whose first rows do not depend on the scan's
    length and whose columns do not depend on the width, so they are the
    filter's ``v`` bit for bit."""
    return _scan(np.array(deltas), np.ones((size - 1, 1)), v0)


@functools.lru_cache(maxsize=8)
def _t_tables(v0: float, deltas: tuple, size: int):
    """The Student-t tables of steps 1..size for the deltas in ``deltas``:
    ``(df, norm)``, the df of :func:`_df` as (size, G), and as (G, size+1)
    the prefix sums of lgamma((v_t + 1)/2) - lgamma(v_t/2) over each delta's
    column, entry k summing t < k.  ``size`` is n rounded up to a power of
    two, so every stage of a search shares one entry.  ``norm`` is built one
    delta column at a time, so that Python floats of only one column are
    alive at once."""
    df = _df(v0, deltas, size)
    norm = np.zeros((len(deltas), size + 1))
    for j in range(len(deltas)):
        np.cumsum([math.lgamma((u + 1.0) / 2.0) - math.lgamma(u / 2.0)
                   for u in df[:, j].tolist()], out=norm[j, 1:])
    df.flags.writeable = False
    norm.flags.writeable = False
    return df, norm


def _normalizer(v0: float, delta: np.ndarray, n: int):
    """``(df, norm)`` of steps 1..n from :func:`_t_tables`: the df
    v_0..v_{n-1}, a view of shape ``(n,) + delta.shape``, and the summed
    normalizers, of the shape of ``delta``."""
    df, norm = _t_tables(v0, tuple(delta.ravel().tolist()), 1 << (n - 1).bit_length())
    return df[:n].reshape((n,) + delta.shape), norm[:, n].reshape(delta.shape)


# Bytes of one slab of chunk rows at the full batch width in ``_score``: at
# most three such slabs are alive at once.
_BLOCK_BYTES = 128 << 10


def _sum_steps(w: np.ndarray) -> np.ndarray:
    """Sum over the time axis by pairwise halving, in place: every column
    goes through the same additions at any width, so a batch column sums
    exactly as its scalar run."""
    n = len(w)
    while n > 1:
        h = n // 2
        w[:h] += w[n - h:n]
        n -= h
    return w[0]


def predictive_loglik(fs: FilterState) -> float | np.ndarray:
    """Sum of the one-step predictive log densities of steps 1..n.

    Each predictive p(y_t | D_{t-1}) is Student-t with v_{t-1} degrees of
    freedom, location mu_{t-1} x_t and squared scale q_t = s_{t-1} g_t, i.e.
    the t density evaluated at the forecast error e_t with location 0.
    With v_{t-1} q_t = kappa_{t-1} g_t and b_t = e_t^2 / g_t, its log is

        norm_t - 1/2 log kappa_{t-1} - (v_{t-1} + 1)/2 log1p(b_t / kappa_{t-1})
               - 1/2 log(pi g_t),

    norm_t = lgamma((v_{t-1} + 1)/2) - lgamma(v_{t-1}/2): the middle terms
    at the full batch width (:func:`_density`), the last at that of g.  The
    df depend on (v0, delta) only, so the summed normalizers are read from
    the cached tables of :func:`_t_tables`.  Returns a scalar
    for 1-D states, an array of the batch shape otherwise.
    """
    df = fs.v[:-1]
    if np.any(df <= 0.0):
        raise ValueError("degrees of freedom must be positive")
    kappa = fs.kappa[:-1]
    acc = np.zeros(kappa.shape)
    _density(kappa, fs.e * fs.e / fs.g, df + 1.0, acc, np.empty_like(acc))
    norm = _normalizer(float(fs.v.flat[0]), np.asarray(fs.delta), len(acc))[1]
    return _loglik(norm, acc, fs.g)


def _density(kappa, b, v1, acc: np.ndarray, tmp: np.ndarray) -> None:
    """Add log kappa + v1 log1p(b / kappa) to ``acc`` row by row, through the
    scratch ``tmp``: twice the full-width density terms of the steps whose
    kappa_{t-1}, b_t = e_t^2 / g_t and v1 = v_{t-1} + 1 are given."""
    np.divide(b, kappa, out=tmp)
    np.log1p(tmp, out=tmp)
    tmp *= v1
    acc += tmp
    np.log(kappa, out=tmp)
    acc += tmp


def _loglik(norm, acc: np.ndarray, g: np.ndarray) -> float | np.ndarray:
    """The summed normalizers ``norm`` minus the summed density terms: half
    the rows of ``acc`` (:func:`_density`) and half of log(pi g) over the
    steps, each summed by :func:`_sum_steps`; a scalar when 0-d."""
    total = norm - 0.5 * (_sum_steps(acc) + _sum_steps(np.log(np.pi * g)))
    return float(total) if np.ndim(total) == 0 else total


def _chunks(n: int, width: int) -> tuple[int, int]:
    """``(nc, K)``: the n steps of :func:`_score` as nc chunks of K
    consecutive steps, the last one ragged, so that one row per chunk at
    the full batch ``width`` fits ``_BLOCK_BYTES``."""
    K = -(-n // max(1, _BLOCK_BYTES // (8 * width)))
    return -(-n // K), K


def _score(y, x, prior: NIGPrior, d: DiscountPair):
    """``(predictive_loglik(fs), fs.e)`` of ``fs = forward_filter(y, x,
    prior, d)``, with no array at the full batch width that grows with n.

    e and g run over the whole series at the width of their inputs, as in
    the filter, and so does b = e^2/g; the df and the summed normalizers
    are read from the cached tables of the grid's deltas
    (:func:`_t_tables`).  The full-width work, kappa and the density terms,
    runs as one chunked sweep (Blelloch 1990): the n steps are nc chunks of K
    consecutive steps (:func:`_chunks`), and each pass steps through the K
    steps of every chunk at once on (nc, width) slabs.

    1. Pass 1 runs kappa_t = delta kappa_{t-1} + b_t from 0 inside every
       full chunk, which gives each chunk's local end.
    2. ``_scan`` with the coefficient delta^K carries the ends over the
       chunks, from kappa_0, to each chunk's starting kappa.
    3. Pass 2 runs the K steps again from those starts and adds each step's
       density terms (:func:`_density`) into a slab accumulator, whose
       chunk rows :func:`_loglik` sums.

    With K = 1 (n chunks of one step) the starts are the filter's kappa and
    the score is ``predictive_loglik``'s bit for bit; larger K changes only
    the rounding of kappa and of the sum.  Every column goes through the
    same operations at any width, so a batch column equals its scalar run
    at the same number of chunks.
    """
    e, g, delta = _forecasts(y, x, prior, d)[:3]
    n = len(e)
    b = e * e / g
    shape = np.broadcast_shapes(b.shape[1:], delta.shape)
    nc, K = _chunks(n, math.prod(shape))
    df, norm = _normalizer(float(prior.v0), delta, n)

    full = (nc - 1) * K  # steps of the full chunks: the last chunk's end is unused
    ends = np.empty((nc - 1,) + shape)
    ends[...] = b[0:full:K]
    carry = delta
    for k in range(1, K):
        ends *= delta
        ends += b[k:full:K]
        carry = carry * delta
    kappa = _scan(carry, ends, prior.kappa0)
    del ends

    acc = np.zeros_like(kappa)
    tmp = np.empty_like(kappa)
    for k in range(K):
        rows = slice(k, n, K)
        m = len(range(k, n, K))  # the ragged last chunk may lack step k
        _density(kappa[:m], b[rows], df[rows] + 1.0, acc[:m], tmp[:m])
        if k + 1 < K:
            kappa[:m] *= delta
            kappa[:m] += b[rows]
    return _loglik(norm, acc, g), e


def backward_sample(fs: FilterState, rng: np.random.Generator, size: int):
    """Draw joint posterior paths (theta_0..n, sigma^2_0..n) given D_n, at
    the discounts ``fs.gamma``/``fs.delta`` the forward pass ran at.

    The precision path runs backwards through the standard discount-model
    construction: 1/sigma_n^2 ~ Gamma(v_n/2, rate kappa_n/2) and

        1/sigma_t^2 = delta/sigma_{t+1}^2 + Gamma((1-delta) v_t/2, rate kappa_t/2).

    Conditional on the variances, theta_n ~ N(mu_n, sigma_n^2 / P_n) and

        theta_t | theta_{t+1} ~ N((1-gamma) mu_t + gamma theta_{t+1},
                                  (1-gamma) sigma_t^2 / P_t),

    whose marginal moments reproduce the smoothing recursions.  All draws
    are made up front, in four generator calls: 1/sigma_n^2, every
    precision shock in backward-pass order, theta_n's normal, then the
    normals of steps n-1..0 when gamma < 1.  A shock of shape 0 (delta = 1)
    is exactly 0 and uses no generator state.  This is the one-block case
    of :func:`_block_sampler`.

    Parameters
    ----------
    fs : FilterState
        Completed forward pass over a 1-D series.
    rng : numpy.random.Generator
    size : int
        Number of independent paths, the trailing axis of the output.

    Returns
    -------
    (theta_path, sigma2_path) : ndarray pair of shape (n + 1, size)
        Row t is time t = 0..n, as in the filter.
    """
    return _block_sampler(fs, rng, size)(0)


def _block_sampler(fs: FilterState, rng: np.random.Generator, size: int):
    """The joint path draw of :func:`backward_sample`, made a block of rows
    at a time from the last row back.

    Returns ``rows(lo)``.  Each call draws rows lo..hi-1, where hi is the
    previous call's ``lo`` (n at the first call), and returns rows lo..hi
    of (theta, sigma2), shape (hi - lo + 1, size); row hi is the one the
    previous call drew, carried as each recursion's starting value, since
    both recursions have a constant coefficient.  ``lo`` must not increase
    from call to call.  A call makes its generator calls in the order of
    :func:`backward_sample`: at the first call 1/sigma_n^2, the block's
    precision shocks, theta_n's normal and the block's normals; later calls
    the block's shocks and normals.  So one call with ``lo = 0`` is
    :func:`backward_sample`, and a split draw of one regression uses the
    generator's values in another order.  Between calls the sampler holds
    one row of each recursion.
    """
    if fs.mu.ndim != 1:
        raise ValueError("backward_sample expects a filter over a single series")
    gamma, delta = fs.gamma, fs.delta
    hi = len(fs.mu) - 1
    prec = theta = None

    def rows(lo: int):
        nonlocal hi, prec, theta
        first = prec is None
        if first:
            prec = rng.gamma(fs.v[-1] / 2.0, 2.0 / fs.kappa[-1], size=size)
        new = slice(lo, hi)
        shocks = rng.gamma(((1.0 - delta) * fs.v[new] / 2.0)[::-1, None],
                           (2.0 / fs.kappa[new])[::-1, None],
                           size=(hi - lo, size))[::-1]
        z_n = rng.standard_normal(size) if first else None
        z = (rng.standard_normal((hi - lo, size))[::-1] if gamma < 1.0
             else np.zeros((hi - lo, size)))

        # Work in place: every (rows, size) temporary adds to peak memory.
        sigma2 = _backward(delta, shocks, prec)
        prec = sigma2[0].copy()
        np.divide(1.0, sigma2, out=sigma2)
        if first:
            theta = fs.mu[-1] + np.sqrt(sigma2[-1] / fs.P[-1]) * z_n
        var = ((1.0 - gamma) / fs.P[new])[:, None]
        z *= np.sqrt(np.multiply(var, sigma2[:-1], out=shocks), out=shocks)
        z += ((1.0 - gamma) * fs.mu[new])[:, None]  # (1-gamma) mu_t + sd_t z_t
        path = _backward(gamma, z, theta)
        theta, hi = path[0].copy(), lo
        return path, sigma2

    return rows
