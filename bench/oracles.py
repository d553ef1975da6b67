"""Expected values computed apart from the program.

Nothing here imports ``evidential_weight``.  Each function restates one
model from its documented definition (README "Model conventions") with
independent code: ``math.lgamma`` Student-t densities, explicit 2x2
algebra, a plain rejection sampler, transition counting for the coin,
and a closed-form-rate, 1-D-shape route to the width density.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

LN10 = math.log(10.0)

# ----------------------------------------------------------------------
# scalar: Normal-Gamma state -> Student-t predictive
# ----------------------------------------------------------------------

#: The CLI's documented default scalar priors, (mu0, n_mu, tau0, n_tau).
DEFAULT_SCALAR_PRIORS = {"H1": (5.0, 1.0, 0.01, 1.0), "H2": (-5.0, 1.0, 0.01, 1.0)}


def normal_gamma_update(prior, values):
    """Conjugate update with n-denominator validation variance."""
    mu0, n_mu, tau0, n_tau = prior
    n = len(values)
    if n == 0:
        return prior
    ybar = math.fsum(values) / n
    s2 = math.fsum((v - ybar) ** 2 for v in values) / n
    inv_rate = n_tau / tau0 + n * s2 + n_mu * n * (ybar - mu0) ** 2 / (n_mu + n)
    return ((n_mu * mu0 + n * ybar) / (n_mu + n), n_mu + n, (n_tau + n) / inv_rate, n_tau + n)


def student_t_logpdf(x, state):
    """Predictive log density: t with df n_tau, location mu0, scale^2 (n_mu+1)/(n_mu tau0)."""
    mu0, n_mu, tau0, n_tau = state
    df = n_tau
    scale2 = (n_mu + 1.0) / (n_mu * tau0)
    z2 = (x - mu0) ** 2 / scale2
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi * scale2)
        - (df + 1.0) / 2.0 * math.log1p(z2 / df)
    )


def scalar_log10_lr(r, h1, h2):
    return (student_t_logpdf(r, h1) - student_t_logpdf(r, h2)) / LN10


# ----------------------------------------------------------------------
# two experts: normal-Wishart, rate reading, df = n0
# ----------------------------------------------------------------------

#: Packaged sweep statistics documented in ``multi_expert``: per-scenario
#: mean pair and per-observation covariance used by ``--sweep``.
SWEEP_MEAN = {"H1": (3.5, 2.5), "H2": (-2.5, -3.5)}
SWEEP_COV = ((5.0, 4.0), (4.0, 5.0))


def pair_update(prior, m, mean, scatter):
    """Rate reading: the stored matrix gains S + k0 m/(k0+m) d d^T."""
    mu0, k0, lam, n0 = prior
    if m == 0:
        return prior
    d = (mean[0] - mu0[0], mean[1] - mu0[1])
    c = k0 * m / (k0 + m)
    lam_new = (
        (lam[0][0] + scatter[0][0] + c * d[0] * d[0], lam[0][1] + scatter[0][1] + c * d[0] * d[1]),
        (lam[1][0] + scatter[1][0] + c * d[1] * d[0], lam[1][1] + scatter[1][1] + c * d[1] * d[1]),
    )
    mu_new = ((k0 * mu0[0] + m * mean[0]) / (k0 + m), (k0 * mu0[1] + m * mean[1]) / (k0 + m))
    return (mu_new, k0 + m, lam_new, n0 + m)


def pair_summary(rows):
    m = len(rows)
    if m == 0:
        return 0, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))
    mb = math.fsum(r[0] for r in rows) / m
    mc = math.fsum(r[1] for r in rows) / m
    sbb = math.fsum((r[0] - mb) ** 2 for r in rows)
    scc = math.fsum((r[1] - mc) ** 2 for r in rows)
    sbc = math.fsum((r[0] - mb) * (r[1] - mc) for r in rows)
    return m, (mb, mc), ((sbb, sbc), (sbc, scc))


def bivariate_t_logpdf(x, state):
    """Marginal t with df n0 and scale lambda0 (k0+1) / (k0 (n0-1))."""
    mu0, k0, lam, n0 = state
    df = n0
    f = (k0 + 1.0) / (k0 * (n0 - 1.0))
    a, b, d = lam[0][0] * f, lam[0][1] * f, lam[1][1] * f
    det = a * d - b * b
    u, v = x[0] - mu0[0], x[1] - mu0[1]
    q = (d * u * u - 2.0 * b * u * v + a * v * v) / det
    return (
        math.lgamma((df + 2.0) / 2.0)
        - math.lgamma(df / 2.0)
        - math.log(df * math.pi)
        - 0.5 * math.log(det)
        - (df + 2.0) / 2.0 * math.log1p(q / df)
    )


def pair_log10_lr(x, h1, h2):
    return (bivariate_t_logpdf(x, h1) - bivariate_t_logpdf(x, h2)) / LN10


def pair_sweep_log10_lr(x, h1, h2, m):
    """LR at ``x`` after ``m`` observations with the packaged sweep statistics."""
    scatter = tuple(tuple(m * v for v in row) for row in SWEEP_COV)
    g1 = pair_update(h1, m, SWEEP_MEAN["H1"], scatter)
    g2 = pair_update(h2, m, SWEEP_MEAN["H2"], scatter)
    return pair_log10_lr(x, g1, g2)


# ----------------------------------------------------------------------
# coin
# ----------------------------------------------------------------------

def coin_b(seq):
    return (seq.count("H") + 1) / (len(seq) + 2)


def coin_c(seq):
    """Observer C: transition counts for each unknown pre-sequence toss.

    Returns (equal-weight mean, likelihood-weighted mean) of the heads
    rate after the last toss under uniform Beta priors.
    """
    means, log_marginals = [], []
    for first in "HT":
        n = {"HH": 0, "HT": 0, "TH": 0, "TT": 0}
        prev = first
        for t in seq:
            n[prev + t] += 1
            prev = t
        last = seq[-1]
        heads, tails = n[last + "H"], n[last + "T"]
        means.append((heads + 1) / (heads + tails + 2))
        log_marginals.append(
            sum(
                math.lgamma(h + 1) + math.lgamma(t + 1) - math.lgamma(h + t + 2)
                for h, t in ((n["HH"], n["HT"]), (n["TH"], n["TT"]))
            )
        )
    top = max(log_marginals)
    w = [math.exp(v - top) for v in log_marginals]
    return 0.5 * (means[0] + means[1]), (w[0] * means[0] + w[1] * means[1]) / (w[0] + w[1])


# ----------------------------------------------------------------------
# categorical: plain rejection sampler and Dirichlet means
# ----------------------------------------------------------------------

def in_region(p, q):
    """Discriminating expert: ID dominates mated, Exc dominates non-mated,
    and the mated/non-mated rate ratio falls from ID to Inc to Exc."""
    ratio = p / q
    return (
        (p[:, 0] > p[:, 2])
        & (q[:, 2] > q[:, 0])
        & (p[:, 0] > q[:, 0])
        & (p[:, 2] < q[:, 2])
        & (ratio[:, 0] > ratio[:, 1])
        & (ratio[:, 1] > ratio[:, 2])
    )


def plain_rejection(alpha_p, alpha_q, n_proposals, gen):
    """Ratio of means of accepted Dirichlet-pair draws, per conclusion.

    Returns ``(lrs, ses, rejected_fraction)``; standard errors by the delta
    method for a ratio of correlated means.
    """
    gp = gen.standard_gamma(np.asarray(alpha_p, float), size=(n_proposals, 3))
    gq = gen.standard_gamma(np.asarray(alpha_q, float), size=(n_proposals, 3))
    p = gp / gp.sum(axis=1, keepdims=True)
    q = gq / gq.sum(axis=1, keepdims=True)
    keep = in_region(p, q)
    p, q = p[keep], q[keep]
    n = p.shape[0]
    lrs, ses = [], []
    for j in range(3):
        a, b = p[:, j], q[:, j]
        ma, mb = a.mean(), b.mean()
        va, vb = a.var(ddof=1) / n, b.var(ddof=1) / n
        cab = ((a - ma) * (b - mb)).sum() / (n - 1) / n
        lr = ma / mb
        lrs.append(float(lr))
        ses.append(float(lr * math.sqrt(max(va / ma**2 + vb / mb**2 - 2 * cab / (ma * mb), 0.0))))
    return lrs, ses, 1.0 - n / n_proposals


def dirichlet_mean_ratio(h1_counts, h2_counts, j):
    """Untruncated posterior-mean rate ratio with counts + 1."""
    a1 = [c + 1 for c in h1_counts]
    a2 = [c + 1 for c in h2_counts]
    return (a1[j] / sum(a1)) / (a2[j] / sum(a2))


def largest_remainder(total, weights):
    quotas = [total * w / sum(weights) for w in weights]
    parts = [math.floor(x) for x in quotas]
    order = sorted(range(len(weights)), key=lambda i: -(quotas[i] - parts[i]))
    for i in order[: total - sum(parts)]:
        parts[i] += 1
    return parts


def rescaled_counts(h1, h2, size):
    """The study table rescaled to ``size`` comparisons (largest remainder)."""
    m1, m2 = largest_remainder(size, [sum(h1), sum(h2)])
    return largest_remainder(m1, h1), largest_remainder(m2, h2)


# ----------------------------------------------------------------------
# interval width: closed-form rate integral, 1-D quadrature in shape
# ----------------------------------------------------------------------

#: The documented hyperprior rectangle (shape, rate) in [1e-3, 60]^2.
BOX = (1e-3, 60.0)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _log_rate_integral(k, c):
    """log of int_{BOX} beta^(k-1) exp(-c beta) d beta (k > 0, c > 0)."""
    lo, hi = BOX
    with np.errstate(divide="ignore"):
        mass = gammainc(k, c * hi) - gammainc(k, c * lo)
        return gammaln(k) - k * math.log(c) + np.log(mass)


def _log_alpha_integral(log_f):
    """log int_{BOX} exp(log_f(alpha)) d alpha, localized around its peak.

    Scans log(alpha), keeps the window within 50 nats of the peak, and
    integrates there with composite Gauss-Legendre, doubling panels until
    two estimates agree to 1e-12.
    """
    u = np.linspace(math.log(BOX[0]), math.log(BOX[1]), 4001)
    scan = log_f(np.exp(u)) + u
    top = int(np.argmax(scan))
    live = np.nonzero(scan >= scan[top] - 50.0)[0]
    lo = u[max(live[0] - 2, 0)]
    hi = u[min(live[-1] + 2, u.size - 1)]
    previous = None
    for panels in (32, 64, 128, 256, 512):
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * _GL_X).ravel()
        weights = (half[:, None] * _GL_W).ravel()
        vals = log_f(np.exp(nodes)) + nodes
        shift = float(np.max(vals))
        estimate = shift + math.log(float(weights @ np.exp(vals - shift)))
        if previous is not None and abs(estimate - previous) < 1e-12:
            return estimate
        previous = estimate
    return estimate


def width_state(prior, widths):
    """Conjugate gamma-width state (log_p, q, r, s) after observing ``widths``."""
    log_p, q, r, s = prior
    if not widths:
        return prior
    return (
        log_p + math.fsum(math.log(w) for w in widths),
        q + math.fsum(widths),
        r + len(widths),
        s + len(widths),
    )


def width_log_density(state, w):
    """Marginal log density of width ``w`` under the rectangle-truncated hyperprior.

    Hyperprior ~ p^(a-1) exp(-q b) b^(s a) / Gamma(a)^r; the rate axis has
    the incomplete-gamma closed form, leaving the shape axis.
    """
    log_p, q, r, s = state

    def log_normalizer(a):
        return (a - 1.0) * log_p - r * gammaln(a) + _log_rate_integral(s * a + 1.0, q)

    def log_numerator(a):
        return (
            (a - 1.0) * (log_p + math.log(w))
            - (r + 1.0) * gammaln(a)
            + _log_rate_integral((s + 1.0) * a + 1.0, q + w)
        )

    return _log_alpha_integral(log_numerator) - _log_alpha_integral(log_normalizer)
