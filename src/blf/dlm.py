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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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

    @property
    def s0(self) -> float:
        return self.kappa0 / self.v0


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

    def __len__(self) -> int:
        return self.mu.shape[0]


@dataclass
class SmoothState:
    """Retrospective (smoothed) trajectories given all T observations."""

    mu: np.ndarray
    c: np.ndarray
    v: np.ndarray
    s: np.ndarray
    kappa: np.ndarray

    def __len__(self) -> int:
        return self.mu.shape[0]


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

    Every step forecasts with the first three lines; an updated step then
    learns with the rest::

        r = c_{t-1} / gamma
        q = r x_t^2 + s_{t-1}
        e = y_t - mu_{t-1} x_t
        z = r x_t / q
        mu_t    = mu_{t-1} + z e
        v_t     = delta v_{t-1} + 1
        kappa_t = delta kappa_{t-1} + s_{t-1} e^2 / q
        s_t     = kappa_t / v_t
        c_t     = r s_t / q

    The last line is the factored form of ``(r - z^2 q)(s_t / s_{t-1})``;
    it is algebraically identical and cannot go negative in floating point.

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
    if updated is None:
        updated = np.ones(T, dtype=bool)
    else:
        updated = np.asarray(updated, dtype=bool)
        if updated.shape != (T,):
            raise ValueError("updated mask must have shape (T,)")

    gamma = np.asarray(d.gamma, dtype=float)
    delta = np.asarray(d.delta, dtype=float)

    shape = np.broadcast_shapes(y.shape[1:], gamma.shape, delta.shape)
    out_shape = (T,) + shape

    mu = np.empty(out_shape)
    c = np.empty(out_shape)
    v = np.empty(out_shape)
    kappa = np.empty(out_shape)
    s = np.empty(out_shape)
    e = np.empty(out_shape)
    q = np.empty(out_shape)

    mu_prev = np.broadcast_to(np.float64(prior.mu0), shape).copy()
    c_prev = np.broadcast_to(np.float64(prior.c0), shape).copy()
    v_prev = np.broadcast_to(np.float64(prior.v0), shape).copy()
    kappa_prev = np.broadcast_to(np.float64(prior.kappa0), shape).copy()
    s_prev = kappa_prev / v_prev

    for t in range(T):
        xt = x[t]
        r = c_prev / gamma
        qt = r * xt * xt + s_prev
        et = y[t] - mu_prev * xt
        if updated[t]:
            z = r * xt / qt
            mu_t = mu_prev + z * et
            v_t = delta * v_prev + 1.0
            kappa_t = delta * kappa_prev + s_prev * et * et / qt
            s_t = kappa_t / v_t
            c_t = r * s_t / qt
            mu_prev, c_prev, v_prev, kappa_prev, s_prev = mu_t, c_t, v_t, kappa_t, s_t

        mu[t], c[t], v[t], kappa[t], s[t], e[t], q[t] = (
            mu_prev, c_prev, v_prev, kappa_prev, s_prev, et, qt,
        )

    return FilterState(
        mu=mu, c=c, v=v, kappa=kappa, s=s, e=e, q=q,
        updated=updated, prior=prior, gamma=gamma, delta=delta,
    )


def backward_smooth(fs: FilterState) -> SmoothState:
    """Retrospective smoothing of a completed forward pass, at the discounts
    ``fs.gamma``/``fs.delta`` the pass ran at.

    Initialised at t = T from the filtered values, then for t = T-1..1::

        mu_{t|T}  = (1-gamma) mu_t + gamma mu_{t+1|T}
        1/s_{t|T} = (1-delta)/s_t + delta/s_{t+1|T}
        v_{t|T}   = (1-delta) v_t + delta v_{t+1|T}
        C*_{t|T}  = (1-gamma) c_t/s_t + gamma^2 C*_{t+1|T}
        c_{t|T}   = C*_{t|T} s_{t|T}
        kappa_{t|T} = v_{t|T} s_{t|T}

    The coefficient-scale recursion runs on the scale-free variance factor
    C* = c/s and re-attaches the smoothed variance estimate once per time
    point; folding the ratio s_{t|T}/s_t into the recursion itself would
    compound it backwards and blow the scale up.  Across a step where no
    update occurred the state did not evolve, so the smoothed quantities are
    copied backwards unchanged.
    """
    gamma, delta = fs.gamma, fs.delta
    T = len(fs)

    mu = fs.mu.copy()
    v = fs.v.copy()
    s = fs.s.copy()
    cstar = fs.c / fs.s

    for t in range(T - 2, -1, -1):
        if fs.updated[t + 1]:
            mu[t] = (1.0 - gamma) * fs.mu[t] + gamma * mu[t + 1]
            s[t] = 1.0 / ((1.0 - delta) / fs.s[t] + delta / s[t + 1])
            v[t] = (1.0 - delta) * fs.v[t] + delta * v[t + 1]
            cstar[t] = (1.0 - gamma) * fs.c[t] / fs.s[t] + gamma**2 * cstar[t + 1]
        else:
            mu[t], s[t], v[t], cstar[t] = mu[t + 1], s[t + 1], v[t + 1], cstar[t + 1]

    c = cstar * s
    c[T - 1] = fs.c[T - 1]  # boundary bit-for-bit with the filtered value
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
    terms = (
        gammaln((df + 1.0) / 2.0)
        - gammaln(df / 2.0)
        - 0.5 * np.log(df * np.pi * q)
        - (df + 1.0) / 2.0 * np.log1p(e * e / (df * q))
    )
    total = terms.sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total


def backward_sample(fs: FilterState, rng: np.random.Generator,
                    size: int | None = None):
    """Draw joint posterior paths (theta_1..T, sigma^2_1..T) given D_T, at
    the discounts ``fs.gamma``/``fs.delta`` the forward pass ran at.

    The precision path runs backwards through the standard discount-model
    construction: 1/sigma_T^2 ~ Gamma(v_T/2, rate kappa_T/2) and

        1/sigma_t^2 = delta / sigma_{t+1}^2 + Gamma((1-delta) v_t / 2, rate kappa_t / 2).

    Conditional on the variances, theta_T ~ N(mu_T, c_T sigma_T^2 / s_T) and

        theta_t | theta_{t+1} ~ N((1-gamma) mu_t + gamma theta_{t+1},
                                  (1-gamma) c_t sigma_t^2 / s_t),

    whose marginal moments reproduce the smoothing recursions.  At delta = 1
    the shock is Gamma(0, .), exactly 0 and drawn without touching ``rng``;
    gamma = 1 likewise carries the coefficient back deterministically.  Steps
    with no observation update carry the next sampled value back unchanged.

    Parameters
    ----------
    fs : FilterState
        Completed forward pass over a 1-D series.
    rng : numpy.random.Generator
    size : int, optional
        Number of independent paths; adds a trailing axis of length ``size``.

    Returns
    -------
    (theta_path, sigma2_path) : ndarray pairs of shape (T,) or (T, size)
    """
    if fs.mu.ndim != 1:
        raise ValueError("backward_sample expects a filter over a single series")
    T = len(fs)
    gamma, delta = float(fs.gamma), float(fs.delta)
    shape = (T,) if size is None else (T, int(size))

    phi = np.empty(shape)
    theta = np.empty(shape)

    phi[T - 1] = rng.gamma(fs.v[T - 1] / 2.0, 2.0 / fs.kappa[T - 1], size=shape[1:] or None)
    for t in range(T - 2, -1, -1):
        if not fs.updated[t + 1]:
            phi[t] = phi[t + 1]
        else:
            shock = rng.gamma((1.0 - delta) * fs.v[t] / 2.0, 2.0 / fs.kappa[t],
                              size=shape[1:] or None)
            phi[t] = delta * phi[t + 1] + shock
    sigma2 = 1.0 / phi

    sd_T = np.sqrt(fs.c[T - 1] / fs.s[T - 1] * sigma2[T - 1])
    theta[T - 1] = fs.mu[T - 1] + sd_T * rng.standard_normal(shape[1:] or None)
    for t in range(T - 2, -1, -1):
        if not fs.updated[t + 1]:
            theta[t] = theta[t + 1]
        elif gamma >= 1.0:
            theta[t] = theta[t + 1]
        else:
            mean = (1.0 - gamma) * fs.mu[t] + gamma * theta[t + 1]
            sd = np.sqrt((1.0 - gamma) * fs.c[t] / fs.s[t] * sigma2[t])
            theta[t] = mean + sd * rng.standard_normal(shape[1:] or None)

    return theta, sigma2
