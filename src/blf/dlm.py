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
smoother and the sampler backwards on time-reversed views.  A step that did
not learn is a unit step of the recurrence, y_t = 1 * y_{t-1} + 0.
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
    """Sequential-update trajectories for t = 1..T (row t-1 of each array).

    ``mu``/``c`` are the location and scale of the coefficient's marginal
    t-posterior, ``v``/``kappa`` the gamma parameters of the precision
    posterior (shape v/2, rate kappa/2), ``s = kappa/v`` the variance point
    estimate, and ``e``/``q`` the one-step forecast error and its scale at
    every step.  ``updated`` marks times where the posterior also learned
    from it; elsewhere it was carried forward unchanged.  ``gamma`` and
    ``delta`` are the discounts the pass ran at (scalars, or length-G
    arrays in batch mode); smoothing and sampling read them from here.
    """

    mu: np.ndarray
    c: np.ndarray
    v: np.ndarray
    kappa: np.ndarray
    s: np.ndarray
    e: np.ndarray
    q: np.ndarray
    updated: np.ndarray
    prior: NIGPrior
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


def forward_filter(y, x, prior: NIGPrior, d: DiscountPair, updated=None) -> FilterState:
    """Run the sequential conjugate updates over t = 1..T.

    The filter runs in information form on the scale-free precision
    P = s/c (discount-weighted regression; Ameen & Harrison 1984, West &
    Harrison 1997 ch. 10).  Every step forecasts with the first three
    lines; a step that learns also runs the four recurrences below them::

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
    first-order linear scan, and a step that does not learn is a unit step
    (a_t = 1, b_t = 0) in all four.

    Parameters
    ----------
    y, x : array_like, shape (T,) or (T, G)
        Response and regressor series.
    prior : NIGPrior
    d : DiscountPair
        ``gamma``/``delta`` may be scalars or length-G arrays in batch mode.
    updated : array_like of bool, shape (T,), optional
        Steps where an observation update occurs.  Elsewhere the forecast is
        still recorded but the posterior is carried forward with no
        discounting; the lattice stages mask the boundary times where the
        lagged regressor does not exist (x_t = 0, so e_t = y_t).

    Returns
    -------
    FilterState
    """
    y = _validate_series(y, "y")
    x = _validate_series(x, "x")
    if y.shape != x.shape:
        raise ValueError(f"y and x must have equal shape, got {y.shape} vs {x.shape}")
    T = y.shape[0]
    if T < 1:
        raise ValueError("need at least one observation")
    updated = np.ones(T, dtype=bool) if updated is None else np.asarray(updated, bool)
    if updated.shape != (T,):
        raise ValueError("updated mask must have shape (T,)")

    gamma = np.asarray(d.gamma, dtype=float)
    delta = np.asarray(d.delta, dtype=float)
    shape = np.broadcast_shapes(y.shape[1:], gamma.shape, delta.shape)
    # Trailing unit axes let a 1-D series broadcast against length-G discounts.
    x = x.reshape(x.shape + (1,) * (len(shape) + 1 - x.ndim))
    y = y.reshape(x.shape)
    gamma_t, delta_t = _step_discounts(updated, gamma, delta, x.ndim)

    def learned(b, unit=0.0):
        b[~updated] = unit
        return b

    # Row t of P, mu, v and kappa is time t = 0..T: row 0 is the prior and
    # the lagged values are views.  Work in place and drop gamma_t early:
    # every (T, G) array alive at once adds to the peak memory of a search.
    zero = np.zeros(shape)
    P = _scan(gamma_t, learned(x * x), zero + prior.kappa0 / prior.v0 / prior.c0)
    del gamma_t
    g = np.multiply(gamma, P[:-1])
    np.divide(x * x, g, out=g)
    g += 1.0
    mu = _scan(learned(1.0 / g, 1.0), learned(x * y / P[1:]), zero + prior.mu0)
    v = _scan(delta_t, learned(np.ones_like(x)), zero + prior.v0)
    e = y - mu[:-1] * x
    kappa = _scan(delta_t, learned(e * e / g), zero + prior.kappa0)
    s = kappa / v
    q = np.multiply(s[:-1], g, out=g)
    c = np.divide(s[1:], P[1:], out=P[1:])
    return FilterState(
        mu=mu[1:], c=c, v=v[1:], kappa=kappa[1:], s=s[1:], e=e, q=q,
        updated=updated, prior=prior, gamma=gamma, delta=delta,
    )


def _step_discounts(learned: np.ndarray, gamma, delta, ndim: int):
    """Per-step discounts (gamma_t, delta_t): the given ones where the step
    learned, else 1, a unit step that carries the posterior unchanged."""
    learned = learned.reshape((-1,) + (1,) * (ndim - 1))
    return np.where(learned, gamma, 1.0), np.where(learned, delta, 1.0)


def _scan(a: np.ndarray, b: np.ndarray, first) -> np.ndarray:
    """``y[0] = first``, then ``y[t+1] = a[t] y[t] + b[t]`` for t = 0..len(b)-1:
    the one time loop that every recurrence of the module runs through.
    ``first`` has the shape of each row."""
    y = np.empty((len(b) + 1,) + np.shape(first))
    y[0] = first
    for t in range(len(b)):
        y[t + 1] = a[t] * y[t] + b[t]
    return y


def _backward(a: np.ndarray, b: np.ndarray, last) -> np.ndarray:
    """``y[T-1] = last``, then ``y[t] = a[t] y[t+1] + b[t]`` for t = T-2..0."""
    return _scan(a[::-1], b[::-1], last)[::-1]


def backward_smooth(fs: FilterState) -> SmoothState:
    """Retrospective smoothing of a completed forward pass, at the discounts
    ``fs.gamma``/``fs.delta`` the pass ran at.

    Initialised at t = T from the filtered values, then for t = T-1..1::

        mu_{t|T}  = gamma_t mu_{t+1|T} + (1-gamma_t) mu_t
        1/s_{t|T} = delta_t / s_{t+1|T} + (1-delta_t) / s_t
        v_{t|T}   = delta_t v_{t+1|T} + (1-delta_t) v_t
        C*_{t|T}  = gamma_t^2 C*_{t+1|T} + (1-gamma_t) c_t / s_t
        c_{t|T}   = C*_{t|T} s_{t|T}
        kappa_{t|T} = v_{t|T} s_{t|T}

    The coefficient-scale recursion runs on the scale-free variance factor
    C* = c/s and re-attaches the smoothed variance estimate once per time
    point; folding the ratio s_{t|T}/s_t into the recursion itself would
    compound it backwards and blow the scale up.  Where step t+1 did not
    learn, gamma_t = delta_t = 1 and the smoothed values carry back
    unchanged.  The t = T rows of ``s`` and ``c`` are the filter's own.
    """
    gamma, delta = _step_discounts(fs.updated[1:], fs.gamma, fs.delta, fs.mu.ndim)
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
    """Sum of one-step predictive log densities over the updated steps.

    Each predictive p(y_t | D_{t-1}) is Student-t with v_{t-1} degrees of
    freedom, location mu_{t-1} x_t and squared scale q_t, i.e. the t density
    evaluated at the forecast error e_t with location 0.  Returns a scalar
    for 1-D states, a length-G array in batch mode.
    """
    v_lag = np.concatenate(
        [np.broadcast_to(np.float64(fs.prior.v0), (1,) + fs.v.shape[1:]), fs.v[:-1]],
        axis=0,
    )
    if np.any(v_lag <= 0.0):
        raise ValueError("degrees of freedom must be positive")
    upd = fs.updated
    df = v_lag[upd]
    e = fs.e[upd]
    q = fs.q[upd]
    # The df follow v_t = delta v_{t-1} + 1 from v0 on the shared mask, so
    # columns with equal delta have equal df: take the lgamma terms once per
    # distinct delta and broadcast.
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
    """Draw joint posterior paths (theta_1..T, sigma^2_1..T) given D_T, at
    the discounts ``fs.gamma``/``fs.delta`` the forward pass ran at.

    The precision path runs backwards through the standard discount-model
    construction: 1/sigma_T^2 ~ Gamma(v_T/2, rate kappa_T/2) and

        1/sigma_t^2 = delta_t/sigma_{t+1}^2 + Gamma((1-delta_t) v_t/2, rate kappa_t/2).

    Conditional on the variances, theta_T ~ N(mu_T, c_T sigma_T^2 / s_T) and

        theta_t | theta_{t+1} ~ N((1-gamma_t) mu_t + gamma_t theta_{t+1},
                                  (1-gamma_t) c_t sigma_t^2 / s_t),

    whose marginal moments reproduce the smoothing recursions.  A step that
    did not learn has gamma_t = delta_t = 1 and carries the next sampled
    value back unchanged.  All draws are made up front, in four generator
    calls: 1/sigma_T^2, every precision shock in backward-pass order,
    theta_T's normal, then the normals of the steps with gamma_t < 1.  A
    shock of shape 0 (delta_t = 1) is exactly 0 and uses no generator state.

    Parameters
    ----------
    fs : FilterState
        Completed forward pass over a 1-D series.
    rng : numpy.random.Generator
    size : int
        Number of independent paths, the trailing axis of the output.

    Returns
    -------
    (theta_path, sigma2_path) : ndarray pair of shape (T, size)
    """
    if fs.mu.ndim != 1:
        raise ValueError("backward_sample expects a filter over a single series")
    gamma, delta = _step_discounts(fs.updated[1:], fs.gamma, fs.delta, fs.mu.ndim)

    phi_T = rng.gamma(fs.v[-1] / 2.0, 2.0 / fs.kappa[-1], size=size)
    shocks = rng.gamma(((1.0 - delta) * fs.v[:-1] / 2.0)[::-1, None],
                       (2.0 / fs.kappa[:-1])[::-1, None], size=(len(delta), size))[::-1]
    z_T = rng.standard_normal(size)
    z = np.zeros(shocks.shape)
    learns = np.flatnonzero(gamma < 1.0)[::-1]
    z[learns] = rng.standard_normal((learns.size, size))

    # Work in place: every (T, size) temporary adds to peak memory.
    sigma2 = _backward(delta, shocks, phi_T)
    np.divide(1.0, sigma2, out=sigma2)
    theta_T = fs.mu[-1] + np.sqrt(fs.c[-1] / fs.s[-1] * sigma2[-1]) * z_T
    var = ((1.0 - gamma) * fs.c[:-1] / fs.s[:-1])[:, None]
    z *= np.sqrt(np.multiply(var, sigma2[:-1], out=shocks), out=shocks)
    z += ((1.0 - gamma) * fs.mu[:-1])[:, None]  # offsets (1-gamma_t) mu_t + sd_t z_t
    return _backward(gamma, z, theta_T), sigma2
