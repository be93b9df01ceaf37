"""Independent oracles shared across test modules.

These deliberately re-derive results through routes the library does not
use: batch conjugate algebra instead of sequential updating, the
covariance-form filter step by step instead of the information-form scan,
the classical constant-coefficient recursion instead of the time-varying
one, the time-varying one out of place instead of in place, and posterior
moments of whole chunks instead of time blocks.
"""

import numpy as np

from blf.spectrum import _transfer_power


def static_nig_posterior(y, x, prior):
    """Closed-form batch posterior of the static conjugate regression.

    theta | sigma2 ~ N(mu0, sigma2 C*0) with C*0 = c0 v0 / kappa0, and
    1/sigma2 ~ Gamma(v0/2, kappa0/2).  Returns (mu_T, c_T, v_T, kappa_T)
    with c_T the scale of the marginal t posterior.
    """
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    s0 = prior.kappa0 / prior.v0
    cstar0 = prior.c0 / s0
    cstar_T = 1.0 / (1.0 / cstar0 + np.sum(x * x))
    mu_T = cstar_T * (prior.mu0 / cstar0 + np.sum(x * y))
    v_T = prior.v0 + len(y)
    kappa_T = prior.kappa0 + prior.mu0**2 / cstar0 + np.sum(y * y) - mu_T**2 / cstar_T
    s_T = kappa_T / v_T
    return mu_T, s_T * cstar_T, v_T, kappa_T


def readouts(fs):
    """The covariance-form read-outs (s, c, q) of a ``FilterState``:
    s = kappa/v, c = s/P and q_t = s_{t-1} g_t, the expressions the
    smoother uses for its final rows."""
    s = fs.kappa / fs.v
    return s, s / fs.P, s[:-1] * fs.g


def covariance_filter(y, x, prior, gamma, delta):
    """The discounted conjugate filter in covariance form, one step at a time.

    Every step forecasts (r, q, e) and learns through the gain z = r x_t / q.
    Returns the seven trajectories of a ``FilterState`` by name, each with
    one row per step (the state rows after the step, without the prior).
    """
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    shape = np.broadcast_shapes(y.shape[1:], np.shape(gamma), np.shape(delta))
    mu, c, v, kappa = (np.full(shape, float(val))
                       for val in (prior.mu0, prior.c0, prior.v0, prior.kappa0))
    s = kappa / v
    rows = []
    for t in range(len(y)):
        r = c / gamma
        q = r * x[t] * x[t] + s
        e = y[t] - mu * x[t]
        z = r * x[t] / q
        mu = mu + z * e
        v = delta * v + 1.0
        kappa = delta * kappa + s * e * e / q
        s = kappa / v
        c = r * s / q
        rows.append((mu, c, v, kappa, s, e, q))
    names = ("mu", "c", "v", "kappa", "s", "e", "q")
    return {name: np.array(col) for name, col in zip(names, zip(*rows))}


def classical_levinson(parcor):
    """Classical Levinson-Durbin coefficient recursion for constant PARCOR:
    a_m^(P) = a_m^(P-1) - a_P^(P) a_{P-m}^(P-1) with a_P^(P) the lag-P value.
    """
    parcor = list(parcor)
    a = [parcor[0]]
    for m in range(2, len(parcor) + 1):
        k = parcor[m - 1]
        a = [a[j] - k * a[m - 2 - j] for j in range(m - 1)] + [k]
    return np.array(a)


def levinson_out_of_place(alpha, beta):
    """The time-varying Levinson recursion over (..., P) grids, each stage
    built from whole copies of the previous one:
    a_k^(m) = a_k^(m-1) - a_m^(m) d_{m-k}^(m-1), and d likewise."""
    a, d = np.array(alpha, dtype=float), np.array(beta, dtype=float)
    for m in range(2, a.shape[-1] + 1):
        head_a, head_d = a[..., :m - 1].copy(), d[..., :m - 1].copy()
        a[..., :m - 1] = head_a - a[..., m - 1:m] * head_d[..., ::-1]
        d[..., :m - 1] = head_d - d[..., m - 1:m] * head_a[..., ::-1]
    return a, d


def unblocked_posterior(draw_paths, n_draws, freqs, rng, chunk=64):
    """Posterior mean and sd of log S with each chunk of draws evaluated
    over all time steps at once, merged by Chan/Welford from zero draws.
    Each cell's log S is log sigma^2 - log |A(w)|^2, and each chunk's
    moments are taken about its first draw, as in the library.

    Returns the ``values`` of ``spectrum_posterior``'s (mean, sd) pair.
    """
    total = 0
    mean_log = m2 = 0.0
    while total < n_draws:
        size = min(chunk, n_draws - total)
        coeffs, sigma2 = whole_paths(draw_paths, rng, size)
        with np.errstate(divide="ignore"):
            logs = np.log(sigma2)[..., None] - np.log(_transfer_power(coeffs, freqs))
        dev = logs - logs[0]
        cmean = dev.mean(axis=0)
        cm2 = ((dev - cmean) ** 2).sum(axis=0)
        cmean = cmean + logs[0]
        delta = cmean - mean_log
        mean_log = mean_log + delta * (size / (total + size))
        m2 = m2 + cm2 + delta**2 * (total * size / (total + size))
        total += size
    return np.exp(mean_log), np.sqrt(m2 / (total - 1))


def whole_paths(draw, rng, size):
    """One chunk of ``draw``'s time blocks, copied (a sampler may reuse its
    buffers) and joined in time order: (size, T, P) coefficient and
    (size, T) variance paths."""
    blocks = [(c.copy(), s.copy()) for _, c, s in draw(rng, size)][::-1]
    return (np.concatenate([c for c, _ in blocks], axis=1),
            np.concatenate([s for _, s in blocks], axis=1))


def time_blocks(coeffs, sigma2, n_blocks=1):
    """Whole (size, T, P) and (size, T) paths in the draw protocol of
    ``spectrum_posterior``: ``n_blocks`` equal time blocks
    (start, coeffs, sigma2), the last block first."""
    T = coeffs.shape[1]
    edges = [T * i // n_blocks for i in range(n_blocks + 1)]
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        yield lo, coeffs[:, lo:hi], sigma2[:, lo:hi]


def sequential_block_draw(fs, rng, size, lows):
    """The split joint path draw of ``dlm._block_sampler`` one step at a
    time: for each ``lo`` of ``lows``, 1/sigma_n^2 first (first block
    only), the block's precision shocks newest row first, theta_n's normal
    (first block only), then the block's normals; each recursion steps back
    from the row the previous block ended on.  Returns whole (n + 1, size)
    theta and sigma^2 paths."""
    gamma, delta = float(fs.gamma), float(fs.delta)
    n = len(fs.mu) - 1
    prec = np.empty((n + 1, size))
    theta = np.empty((n + 1, size))
    hi = n
    for lo in lows:
        if hi == n:
            prec[n] = rng.gamma(fs.v[n] / 2.0, 2.0 / fs.kappa[n], size=size)
        shocks = [rng.gamma((1.0 - delta) * fs.v[t] / 2.0, 2.0 / fs.kappa[t], size=size)
                  for t in range(hi - 1, lo - 1, -1)]
        if hi == n:
            theta[n] = fs.mu[n] + np.sqrt(1.0 / prec[n] / fs.P[n]) * rng.standard_normal(size)
        z = rng.standard_normal((hi - lo, size)) if gamma < 1.0 else np.zeros((hi - lo, size))
        for j, t in enumerate(range(hi - 1, lo - 1, -1)):
            prec[t] = delta * prec[t + 1] + shocks[j]
            sd = np.sqrt((1.0 - gamma) / fs.P[t] / prec[t])
            theta[t] = gamma * theta[t + 1] + (1.0 - gamma) * fs.mu[t] + sd * z[j]
        hi = lo
    return theta, 1.0 / prec
