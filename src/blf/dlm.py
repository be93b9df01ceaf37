"""Scalar conjugate dynamic linear model with discount-factor evolution.

The model is a single time-varying regression

    y_t = theta_t * x_t + eps_t,    eps_t ~ N(0, sigma_t^2),

where theta_t follows a random walk whose innovation variance is set
implicitly by a coefficient discount factor ``gamma`` and sigma_t^2 evolves
through a multiplicative (beta-gamma) random walk controlled by a variance
discount factor ``delta``.  The conjugate normal/gamma form is preserved at
every step, so filtering, smoothing, marginal likelihood evaluation and
joint posterior path sampling are all available in closed form.

All routines accept ``y``/``x`` of shape ``(T,)`` or ``(T, G)``; in the
latter case column g is an independent regression problem and ``gamma`` or
``delta`` may be arrays of shape ``(G,)``.  This batch form is what makes
discount-grid searches cheap.

Every recurrence is first-order linear and runs through one kernel,
``_scan``: the forward filter (in information form) forwards in time, the
smoother and the sampler backwards on time-reversed views.  Every step
learns: a regression observes only the steps it has.
"""

from __future__ import annotations

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
    """Sequential-update trajectories over n steps.

    Row t of ``mu``, ``c``, ``v``, ``kappa`` and ``s`` is time t = 0..n, row 0
    the prior: ``mu``/``c`` are the location and scale of the coefficient's
    marginal t-posterior, ``v``/``kappa`` the gamma parameters of the
    precision posterior (shape v/2, rate kappa/2) and ``s = kappa/v`` the
    variance point estimate.  Row t-1 of ``e``/``q`` is the one-step forecast
    error and its scale at step t = 1..n.  ``gamma`` and ``delta`` are the
    discounts the pass ran at (scalars, or length-G arrays in batch mode);
    smoothing and sampling read them from here.
    """

    mu: np.ndarray
    c: np.ndarray
    v: np.ndarray
    kappa: np.ndarray
    s: np.ndarray
    e: np.ndarray
    q: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


@dataclass
class SmoothState:
    """Retrospective (smoothed) trajectories given all T observations."""

    mu: np.ndarray
    c: np.ndarray
    v: np.ndarray
    s: np.ndarray
    kappa: np.ndarray


def default_prior(x) -> NIGPrior:
    """Reference prior for a series: mean 0, unit coefficient scale, one
    degree of freedom, and the precision scale matched to the sample
    variance of the initial stretch of the signal (first 10%, at least 10
    points) so that E[1/sigma^2] = 1/var(initial segment)."""
    x = np.asarray(x, dtype=float)
    n0 = min(len(x), max(10, len(x) // 10))
    seg_var = float(np.var(x[:n0]))
    if not np.isfinite(seg_var) or seg_var <= 0.0:
        seg_var = 1.0
    return NIGPrior(mu0=0.0, c0=1.0, v0=1.0, kappa0=seg_var)


def _validate_series(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1- or 2-dimensional, got shape {arr.shape}")
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
        mu_t    = mu_{t-1} / g_t + x_t y_t / P_t
        v_t     = delta v_{t-1} + 1
        kappa_t = delta kappa_{t-1} + e_t^2 / g_t

    from P_0 = s_0/c_0, with s = kappa/v and c = s/P: the covariance form
    (r = c_{t-1}/gamma, q_t = r x_t^2 + s_{t-1}) rewritten on P, where
    1/g_t = gamma P_{t-1} / P_t.  So the filter is four calls of one
    first-order linear scan.

    Parameters
    ----------
    y, x : array_like, shape (n,) or (n, G)
        Response and regressor series.
    prior : NIGPrior
    d : DiscountPair
        ``gamma``/``delta`` may be scalars or length-G arrays in batch mode.

    Returns
    -------
    FilterState
    """
    y = _validate_series(y, "y")
    x = _validate_series(x, "x")
    if y.shape != x.shape:
        raise ValueError(f"y and x must have equal shape, got {y.shape} vs {x.shape}")
    n = y.shape[0]
    if n < 1:
        raise ValueError("need at least one observation")

    gamma = np.asarray(d.gamma, dtype=float)
    delta = np.asarray(d.delta, dtype=float)
    shape = np.broadcast_shapes(y.shape[1:], gamma.shape, delta.shape)
    # Trailing unit axes let a 1-D series broadcast against length-G discounts.
    x = x.reshape(x.shape + (1,) * (len(shape) + 1 - x.ndim))
    y = y.reshape(x.shape)

    # Row t of P, mu, v and kappa is time t = 0..n: row 0 is the prior and
    # the lagged values are views.  Work in place: every (n, G) array alive
    # at once adds to the peak memory of a search.
    zero = np.zeros(shape)
    P = _scan(_steps(gamma, n), x * x, zero + prior.kappa0 / prior.v0 / prior.c0)
    g = np.multiply(gamma, P[:-1])
    np.divide(x * x, g, out=g)
    g += 1.0
    mu = _scan(1.0 / g, x * y / P[1:], zero + prior.mu0)
    v = _scan(_steps(delta, n), _steps(1.0, n), zero + prior.v0)
    e = y - mu[:-1] * x
    kappa = _scan(_steps(delta, n), e * e / g, zero + prior.kappa0)
    s = kappa / v
    q = np.multiply(s[:-1], g, out=g)
    c = np.divide(s, P, out=P)
    return FilterState(mu=mu, c=c, v=v, kappa=kappa, s=s, e=e, q=q,
                       gamma=gamma, delta=delta)


def _steps(a, n: int) -> np.ndarray:
    """``a`` repeated over n steps, as a broadcast view."""
    return np.broadcast_to(a, (n,) + np.shape(a))


def _scan(a: np.ndarray, b: np.ndarray, first) -> np.ndarray:
    """``y[0] = first``, then ``y[t+1] = a[t] y[t] + b[t]`` for t = 0..len(b)-1:
    the one time loop that every recurrence of the module runs through.
    ``first`` has the shape of each row."""
    y = np.empty((len(b) + 1,) + np.shape(first))
    y[0] = first
    for t in range(len(b)):
        y[t + 1] = a[t] * y[t] + b[t]
    return y


def _backward(a, b: np.ndarray, last) -> np.ndarray:
    """``y[n] = last``, then ``y[t] = a y[t+1] + b[t]`` for t = n-1..0, with
    ``a`` the same at every step."""
    return _scan(_steps(a, len(b)), b[::-1], last)[::-1]


def backward_smooth(fs: FilterState) -> SmoothState:
    """Retrospective smoothing of a completed forward pass, at the discounts
    ``fs.gamma``/``fs.delta`` the pass ran at.

    Initialised at t = n from the filtered values, then for t = n-1..0::

        mu_{t|n}  = gamma mu_{t+1|n} + (1-gamma) mu_t
        1/s_{t|n} = delta / s_{t+1|n} + (1-delta) / s_t
        v_{t|n}   = delta v_{t+1|n} + (1-delta) v_t
        C*_{t|n}  = gamma^2 C*_{t+1|n} + (1-gamma) c_t / s_t
        c_{t|n}   = C*_{t|n} s_{t|n}
        kappa_{t|n} = v_{t|n} s_{t|n}

    The coefficient-scale recursion runs on the scale-free variance factor
    C* = c/s and re-attaches the smoothed variance estimate once per time
    point; folding the ratio s_{t|n}/s_t into the recursion itself would
    compound it backwards and blow the scale up.  Rows are times 0..n, as
    in the filter; the t = n rows of ``s`` and ``c`` are the filter's own.
    """
    gamma, delta = fs.gamma, fs.delta
    s_t = fs.s[:-1]
    mu = _backward(gamma, (1.0 - gamma) * fs.mu[:-1], fs.mu[-1])
    v = _backward(delta, (1.0 - delta) * fs.v[:-1], fs.v[-1])
    prec = _backward(delta, (1.0 - delta) / s_t, 1.0 / fs.s[-1])
    cstar = _backward(gamma**2, (1.0 - gamma) * fs.c[:-1] / s_t, fs.c[-1] / fs.s[-1])
    s = 1.0 / prec
    s[-1] = fs.s[-1]
    c = cstar * s
    c[-1] = fs.c[-1]
    return SmoothState(mu=mu, c=c, v=v, s=s, kappa=v * s)


def predictive_loglik(fs: FilterState) -> float | np.ndarray:
    """Sum of the one-step predictive log densities of steps 1..n.

    Each predictive p(y_t | D_{t-1}) is Student-t with v_{t-1} degrees of
    freedom, location mu_{t-1} x_t and squared scale q_t, i.e. the t density
    evaluated at the forecast error e_t with location 0.  Returns a scalar
    for 1-D states, a length-G array in batch mode.
    """
    df, e, q = fs.v[:-1], fs.e, fs.q
    if np.any(df <= 0.0):
        raise ValueError("degrees of freedom must be positive")
    # The df follow v_t = delta v_{t-1} + 1 from v0, so columns with equal
    # delta have equal df: take the lgamma terms once per distinct delta and
    # broadcast.
    delta = np.broadcast_to(fs.delta, df.shape[1:]).ravel()
    _, first, inverse = np.unique(delta, return_index=True, return_inverse=True)
    df_u = df.reshape(len(df), delta.size)[:, first]
    norm = np.array([math.lgamma((v + 1.0) / 2.0) - math.lgamma(v / 2.0)
                     for v in df_u.ravel().tolist()]).reshape(df_u.shape)
    terms = (
        norm[:, inverse].reshape(df.shape)
        - 0.5 * np.log(df * np.pi * q)
        - (df + 1.0) / 2.0 * np.log1p(e * e / (df * q))
    )
    total = terms.sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total


def backward_sample(fs: FilterState, rng: np.random.Generator, size: int):
    """Draw joint posterior paths (theta_0..n, sigma^2_0..n) given D_n, at
    the discounts ``fs.gamma``/``fs.delta`` the forward pass ran at.

    The precision path runs backwards through the standard discount-model
    construction: 1/sigma_n^2 ~ Gamma(v_n/2, rate kappa_n/2) and

        1/sigma_t^2 = delta/sigma_{t+1}^2 + Gamma((1-delta) v_t/2, rate kappa_t/2).

    Conditional on the variances, theta_n ~ N(mu_n, c_n sigma_n^2 / s_n) and

        theta_t | theta_{t+1} ~ N((1-gamma) mu_t + gamma theta_{t+1},
                                  (1-gamma) c_t sigma_t^2 / s_t),

    whose marginal moments reproduce the smoothing recursions.  All draws
    are made up front, in four generator calls: 1/sigma_n^2, every
    precision shock in backward-pass order, theta_n's normal, then the
    normals of steps n-1..0 when gamma < 1.  A shock of shape 0 (delta = 1)
    is exactly 0 and uses no generator state.

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
    if fs.mu.ndim != 1:
        raise ValueError("backward_sample expects a filter over a single series")
    gamma, delta = fs.gamma, fs.delta
    n = len(fs.mu) - 1

    phi_n = rng.gamma(fs.v[-1] / 2.0, 2.0 / fs.kappa[-1], size=size)
    shocks = rng.gamma(((1.0 - delta) * fs.v[:-1] / 2.0)[::-1, None],
                       (2.0 / fs.kappa[:-1])[::-1, None], size=(n, size))[::-1]
    z_n = rng.standard_normal(size)
    z = rng.standard_normal((n, size))[::-1] if gamma < 1.0 else np.zeros((n, size))

    # Work in place: every (n, size) temporary adds to peak memory.
    sigma2 = _backward(delta, shocks, phi_n)
    np.divide(1.0, sigma2, out=sigma2)
    theta_n = fs.mu[-1] + np.sqrt(fs.c[-1] / fs.s[-1] * sigma2[-1]) * z_n
    var = ((1.0 - gamma) * fs.c[:-1] / fs.s[:-1])[:, None]
    z *= np.sqrt(np.multiply(var, sigma2[:-1], out=shocks), out=shocks)
    z += ((1.0 - gamma) * fs.mu[:-1])[:, None]  # offsets (1-gamma) mu_t + sd_t z_t
    return _backward(gamma, z, theta_n), sigma2
