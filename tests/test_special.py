"""Accuracy of the numpy special functions against 40-digit mpmath, with
``scipy.special`` as a second oracle, and the regeneration of their
coefficient tables.
"""

from __future__ import annotations

import math

import mpmath as mp
from mpmath.libmp import NoConvergence
import numpy as np
import pytest
from scipy import special as sp

from evidential_weight import special

DPS = 40


# ----------------------------------------------------------------------
# coefficient tables
# ----------------------------------------------------------------------


def rgamma_taylor_coefficients(n: int) -> list[float]:
    """c_0..c_(n-1) of 1/Gamma(3/2 + z) = sum_j c_j z^j: the exponential of
    -log Gamma(3/2 + z) = -log Gamma(3/2) - sum_{j>=1} psi^(j-1)(3/2) z^j / j!
    (DLMF 5.7.1), by e' = L' e term by term."""
    with mp.workdps(DPS):
        centre = mp.mpf(3) / 2
        log_series = [-mp.loggamma(centre)] + [
            -mp.psi(j - 1, centre) / mp.factorial(j) for j in range(1, n)
        ]
        coeffs = [mp.exp(log_series[0])]
        for m in range(1, n):
            coeffs.append(mp.fsum(j * log_series[j] * coeffs[m - j] for j in range(1, m + 1)) / m)
        return [float(c) for c in coeffs]


def temme_coefficients(n_k: int, n_eta: int, dps: int = 50) -> list[list[float]]:
    """d[k][n] of DLMF 8.12.12, c_k(eta) = sum_n d[k][n] eta^n.

    The same recursion as scipy's ``_precompute/gammainc_asy.py``, with the
    coefficients of mu(eta) (mu = lambda - 1, the inverse of
    eta^2 / 2 = mu - log(1 + mu)) found by series arithmetic and Lagrange
    inversion instead of numerical differentiation.
    """
    with mp.workdps(dps):
        m = n_eta + 2 * n_k + 2
        # eta = mu s(mu), s = sqrt(2 sum_{j>=2} (-1)^j mu^(j-2) / j)
        f = [2 * mp.mpf((-1) ** j) / j for j in range(2, m + 2)]
        s = [mp.mpf(1)]
        for n in range(1, m):
            s.append((f[n] - mp.fsum(s[i] * s[n - i] for i in range(1, n))) / 2)
        # g = mu / eta = 1 / s; alpha_n = [mu^(n-1)] g^n / n
        g = [mp.mpf(1)]
        for n in range(1, m):
            g.append(-mp.fsum(s[i] * g[n - i] for i in range(1, n + 1)))
        alpha = [mp.mpf(0), mp.mpf(1)]
        power = g[:]
        for n in range(2, m + 1):
            power = [mp.fsum(power[i] * g[j - i] for i in range(j + 1)) for j in range(m)]
            alpha.append(power[n - 1] / n)
        # g_k of the Stirling series for Gamma (DLMF 5.11.3, 5.11.5, 5.11.6)
        a = [mp.sqrt(2) / 2]
        for k in range(1, 2 * n_k):
            ak = a[-1] / k
            for j in range(1, len(a)):
                ak -= a[j] * a[-j] / (j + 1)
            a.append(ak / (a[0] * (1 + mp.mpf(1) / (k + 1))))
        gk = [mp.sqrt(2) * mp.rf(0.5, k) * a[2 * k] for k in range(n_k)]
        width = n_eta + 2 * n_k
        d = [[-mp.mpf(1) / 3] + [(n + 2) * alpha[n + 2] for n in range(1, width)]]
        for k in range(1, n_k):
            d.append([(-1) ** k * gk[k] * d[0][n] + (n + 2) * d[k - 1][n + 2]
                      for n in range(width - 2 * k)])
        return [[float(v) for v in row[:n_eta]] for row in d]


def test_rgamma_taylor_table_regenerates():
    table = special._RGAMMA_TAYLOR
    assert list(table) == rgamma_taylor_coefficients(len(table))


def test_temme_table_regenerates():
    table = special._TEMME_D
    assert [list(row) for row in table] == temme_coefficients(len(table), len(table[0]))


# ----------------------------------------------------------------------
# log_gamma
# ----------------------------------------------------------------------

NEAR_ZEROS = [c + d for c in (1.0, 2.0) for d in (
    0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 0.01, -0.01, 0.3, -0.3, 0.5, -0.5
)]
GAMMA_ARGS = np.unique(np.concatenate([
    np.geomspace(1e-3, 1e6, 601), NEAR_ZEROS, np.arange(0.5, 12.0, 0.5),
    # both sides of each integer, where the shift into (1, 2] changes
    np.nextafter(np.arange(1.0, 11.0), 0.0), np.nextafter(np.arange(1.0, 11.0), np.inf),
]))


def mp_log_gamma(x: float) -> float:
    with mp.workdps(DPS):
        return float(mp.loggamma(mp.mpf(x)))


def test_log_gamma_matches_mpmath():
    got = special.log_gamma(GAMMA_ARGS)
    want = np.array([mp_log_gamma(x) for x in GAMMA_ARGS])
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 2e-15, GAMMA_ARGS[np.argmax(err)]


def test_log_gamma_matches_scipy():
    got = special.log_gamma(GAMMA_ARGS)
    want = sp.gammaln(GAMMA_ARGS)
    np.testing.assert_allclose(got, want, rtol=4e-15, atol=4e-15)


def test_log_gamma_keeps_shape_and_zeros():
    assert special.log_gamma(3.0).shape == ()
    assert special.log_gamma(np.ones((2, 3))).shape == (2, 3)
    assert abs(special.log_gamma(1.0)) <= 2e-16 and abs(special.log_gamma(2.0)) <= 2e-16
    np.testing.assert_allclose(special.log_gamma([0.5]), [0.5 * math.log(math.pi)], rtol=1e-16)


# ----------------------------------------------------------------------
# log_gamma_tails
# ----------------------------------------------------------------------


def mp_log_upper(k, x):
    """log Q(k, x) for x > k: mpmath's own, or, where its hypergeometric
    series gives up, the integral of t^(k-1) e^-t over [x, inf) by tanh-sinh
    quadrature, scaled by x^(k-1) e^-x."""
    try:
        return mp.log(mp.gammainc(k, x, mp.inf, regularized=True))
    except NoConvergence:
        scale = 1 / (1 - (k - 1) / x)
        integral = mp.quad(lambda u: mp.exp((k - 1) * mp.log1p(u / x) - u),
                           [0, scale, 10 * scale, 100 * scale, mp.inf])
        return (k - 1) * mp.log(x) - x - mp.loggamma(k) + mp.log(integral)


def mp_log_tails(k: float, x: float) -> tuple[float, float]:
    with mp.workdps(DPS):
        k, x = mp.mpf(k), mp.mpf(x)
        if x > k:
            log_q = mp_log_upper(k, x)
            return float(mp.log1p(-mp.exp(log_q))), float(log_q)
        p = mp.gammainc(k, 0, x, regularized=True)
        return float(mp.log(p)), float(mp.log1p(-p))


RATIOS = (1e-3, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 10.0)
TAIL_KS = np.geomspace(1.0, 2e5, 16)
# x from 1e-300 to past the underflow of the regularized Q (e^-x underflows near 745)
TAIL_XS = (1e-300, 1e-100, 1e-10, 0.1, 0.7, 3.0, 40.0, 745.0, 800.0, 1e4, 1e6, 1e8)
TAIL_POINTS = sorted(
    {(float(k), float(k * r)) for k in TAIL_KS for r in RATIOS}
    | {(float(k), x) for k in TAIL_KS[::3] for x in TAIL_XS}
    # the Temme region's edges, both sides of each
    | {(k, k * (1.0 + d)) for k in (20.5, 21.0, 300.0, 1e5)
       for d in (-0.3001, -0.2999, 0.2999, 0.3001, -1e-9, 1e-9)}
    # the production range: k = s alpha + 1 and x = c b with small k
    | {(k, x) for k in (1.0, 1.001, 1.5, 2.999, 9.999, 10.0, 10.001)
       for x in (1e-3, 0.5, k, 2.0 * k, 60.0)}
    # k below 1, around the series' limit x = k + 1
    | {(k, x) for k in (0.05, 0.3, 0.7)
       for x in (0.5 * k, 1.3 * k, k + 0.5, k + 0.999, k + 1.0, 5.0)}
)


@pytest.fixture(scope="module")
def tails():
    k, x = (np.array(v) for v in zip(*TAIL_POINTS))
    log_p, log_q = special.log_gamma_tails(k, x)
    want = np.array([mp_log_tails(*point) for point in TAIL_POINTS])
    return k, x, log_p, log_q, want[:, 0], want[:, 1]


def test_smaller_tail_matches_mpmath(tails):
    k, x, log_p, log_q, want_p, want_q = tails
    p_smaller = want_p < want_q
    got = np.where(p_smaller, log_p, log_q)
    want = np.where(p_smaller, want_p, want_q)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = int(np.argmax(err))
    assert err[worst] <= 1e-13, (k[worst], x[worst], got[worst], want[worst])


def test_larger_tail_matches_mpmath(tails):
    k, x, log_p, log_q, want_p, want_q = tails
    got = np.where(want_p < want_q, log_q, log_p)
    want = np.maximum(want_p, want_q)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_tails_are_complementary(tails):
    _, _, log_p, log_q, _, _ = tails
    q_small = log_q < math.log(0.5)
    np.testing.assert_allclose(log_p[q_small], np.log1p(-np.exp(log_q[q_small])), atol=1e-16)
    np.testing.assert_allclose(log_q[~q_small], np.log1p(-np.exp(log_p[~q_small])), atol=1e-16)


def test_tails_match_scipy_where_normal(tails):
    k, x, log_p, log_q, _, _ = tails
    p, q = sp.gammainc(k, x), sp.gammaincc(k, x)
    for got, want in ((log_p, p), (log_q, q)):
        normal = want > 1e-300
        np.testing.assert_allclose(got[normal], np.log(want[normal]), rtol=1e-12, atol=1e-14)


def test_tails_broadcast_and_take_log_gamma_k():
    k = np.array([1.5, 30.0, 400.0])
    x = np.array([[0.1], [35.0], [900.0]])
    log_p, log_q = special.log_gamma_tails(k, x)
    assert log_p.shape == log_q.shape == (3, 3)
    again = special.log_gamma_tails(k, x, special.log_gamma(k))
    np.testing.assert_array_equal(again[0], log_p)
    np.testing.assert_array_equal(again[1], log_q)
    scalar = special.log_gamma_tails(2.0, 3.0)
    assert scalar[0].shape == ()


def test_fraction_budget_raises_quadrature_error(monkeypatch):
    from evidential_weight.errors import QuadratureConvergenceError

    monkeypatch.setattr(special, "_MAX_TERMS", 3)
    with pytest.raises(QuadratureConvergenceError):
        special.log_gamma_tails(5.0, 9.0)
    with pytest.raises(QuadratureConvergenceError):
        special.log_gamma_tails(5.0, 4.0)
