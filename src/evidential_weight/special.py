"""Log-gamma and the regularized incomplete gamma tails, vectorized, in numpy.

``log_gamma(x)`` is log Gamma(x) for x > 0.  ``log_gamma_tails(k, x)`` is
(log P(k, x), log Q(k, x)) for k > 0 and x > 0, the regularized lower and
upper incomplete gamma functions.  One tail is computed directly in log
form, so it does not underflow, and the other follows as log1p(-e^direct).
Three methods share the work (Press et al., *Numerical Recipes* section
6.2; DiDonato and Morris 1986, ACM TOMS 12(4); DLMF 8.7, 8.9 and 8.12):

- the power series of P where x < k + 1;
- Legendre's continued fraction for Q where x >= k + 1, by the modified
  Lentz method (nearer k, and for k < 1 at small x, it converges slowly);
- Temme's uniform asymptotic expansion, for the smaller tail, where k > 20
  and |x - k| < 0.3 k.  There both other methods need O(sqrt(k)) terms.

For k < x < k + 1 the series gives the larger tail, P; Q = 1 - P then
keeps its relative accuracy, as Q(k, k + 1) is above 0.1 from k = 1 on.

The series and the fraction iterate over the elements that have not
converged yet, so a slow element does not cost a pass over the whole array
per term.  Each element's value depends on its own arguments only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureConvergenceError

__all__ = ["log_gamma", "log_gamma_tails"]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: log Gamma(x) takes the Stirling series from here up, and the Taylor
#: series of 1/Gamma(3/2 + z) below, after a shift of x into (1, 2].
_STIRLING_MIN = 10.0

#: B_2n / (2n (2n - 1)) for n = 1..8, the coefficients of x^(1 - 2n) in
#: log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2.  The first term left
#: out is below 2e-18 at x = 10.
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)

#: 1 / (2n + 3) for n = 0..16: the series of ``_log1pmx`` in t^2, which for
#: |t| <= 1/3 leaves out terms below 1e-18.
_ATANH_SERIES = tuple(1.0 / (2 * n + 3) for n in range(17))

#: Taylor coefficients c_0..c_20 of 1/Gamma(3/2 + z), an entire function:
#: on |z| <= 1/2 the first term left out is below 1e-19.  Regenerated from
#: mpmath by ``tests/test_special.py``.
_RGAMMA_TAYLOR = (
    1.1283791670955126, -0.0411745264452831, -0.5266544355255445,
    0.17510202604393457, 0.050966860247706074, -0.042155169368535604,
    0.006612897826824127, 0.002120731442572938, -0.0011107302545948906,
    0.00015235762076747688, 2.5355204923814165e-05, -1.3896805717913756e-05,
    2.1562032905141724e-06, 5.7942640540526726e-08, -8.913551118311116e-08,
    1.7103469415915374e-08, -9.313686445241901e-10, -2.6804741033496623e-10,
    7.458932233316326e-11, -8.012807061414718e-12, -8.382343033451855e-14,
)

#: Temme's expansion serves k > _TEMME_MIN_K with |x - k| < _TEMME_MAX_SIGMA k,
#: where |eta| < 0.34.
_TEMME_MIN_K = 20.0
_TEMME_MAX_SIGMA = 0.3

#: d[j][n] of DLMF 8.12.12: c_j(eta) = sum_n d[j][n] eta^n in
#: R = e^(-k eta^2 / 2) / sqrt(2 pi k) sum_j c_j(eta) k^-j.  At k = 20 and
#: |eta| = 0.34 the first terms left out, in j and in n, are below 2e-18.
#: Regenerated from mpmath by ``tests/test_special.py``.
_TEMME_D = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
        9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
        -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
        -2.3024517174528067e-13, -3.9409233028046403e-10, 1.86023389685045e-10,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
        3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08,
        8.649648858010293e-14, 1.6846058979264062e-09, -8.575492823577594e-10,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
        4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
        -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
        -1.4578352908731272e-08, 3.887645959386175e-09, -3.881002251019412e-17,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
        4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
        6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
        3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08,
        6.597703826733e-16, -9.590386497425686e-09, 5.213214492280807e-09,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
        -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
        -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
        8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07,
        8.862466778790695e-08, -2.5184812301826817e-08, -1.0225912098215092e-14,
    ),
    (
        0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636,
        9.9324041226423e-07, -0.0005087450129309319, 0.00042735056665392886,
        -0.00016858853767910798, -8.1301893922785e-09, 4.5284402370562144e-05,
        -3.127053674781734e-05, 1.044986828530338e-05, 4.8435226265680926e-11,
        -2.148256587345626e-06, 1.329369701097492e-06, -4.029569309210103e-07,
        -1.756787766632329e-13, 7.014504316366825e-08, -4.040787734999483e-08,
    ),
    (
        0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276,
        0.00213896861856891, -0.0010108559391263003, -3.99127055299192e-07,
        0.0003623502508476469, -0.00028143901463712157, 0.00010449513336495887,
        2.12114184918303e-09, -2.5779417251947842e-05, 1.7281818956040464e-05,
        -5.641377387290428e-06, -1.1024320105776174e-11, 1.1223224418895174e-06,
        -6.869339637952674e-07, 2.0653236975414888e-07, 4.6714772409838506e-14,
    ),
)
_TEMME_COEFFS = np.array(_TEMME_D)
#: The shifts j of log Gamma's product (x - 1)(x - 2)...(3/2 + z).
_SHIFTS = np.arange(1.0, _STIRLING_MIN - 1.0)[:, None]

#: The series stops when a term falls below _SERIES_EPS times the sum, the
#: fraction when a Lentz factor is within _CF_EPS of 1; both give up after
#: _MAX_TERMS terms.  Outside the Temme region the series takes at most
#: about 100 terms, and the fraction about 90 (about 40 from k = 1 up).
_SERIES_EPS = 2.0**-53
_CF_EPS = 2.0**-52
_MAX_TERMS = 500

_TINY = np.finfo(float).tiny


def _horner(coeffs, z: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] z^j, in place on one array."""
    acc = coeffs[-1] * z
    acc += coeffs[-2]
    for a in coeffs[-3::-1]:
        acc *= z
        acc += a
    return acc


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z, z^2, ..., z^n as the rows of an (n, z.size) array."""
    return np.cumprod(np.broadcast_to(z, (n, z.size)), axis=0)


def _stirling_remainder(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, for x >= 10."""
    r = 1.0 / x
    acc = _horner(_STIRLING, r * r)
    acc *= r
    return acc


def _log_gamma_stirling(x: np.ndarray) -> np.ndarray:
    out = (x - 0.5) * np.log(x)
    out -= x
    out += _HALF_LOG_2PI
    out += _stirling_remainder(x)
    return out


def _log_gamma_shifted(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for 0 < x < 10, from 1/Gamma(3/2 + z).

    With n = ceil(x) - 2 and z = x - n - 3/2 in (-1/2, 1/2],
    Gamma(x) = (x - 1)(x - 2)...(x - n) Gamma(3/2 + z): the factors are
    the x - j above 1, each exact.  For x <= 1 (n = -1) it is
    Gamma(3/2 + z) / x instead.
    """
    z = (x - np.ceil(x)) + 0.5
    factors = np.maximum(x - _SHIFTS, 1.0)
    rgamma = _horner(_RGAMMA_TAYLOR, z)
    rgamma *= np.minimum(x, 1.0)
    return np.log(np.prod(factors, axis=0) / rgamma)


def log_gamma(x) -> np.ndarray:
    """log Gamma(x) for x > 0, elementwise.

    From x = 10 up, the Stirling series.  Below, x is shifted into (1, 2]
    by one product or quotient, 1/Gamma there is its Taylor series about
    3/2, and one log takes both.  The absolute error stays within a few
    1e-16, near the zeros at 1 and 2 too.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    big = flat >= _STIRLING_MIN
    out = np.empty(flat.shape)
    out[big] = _log_gamma_stirling(flat[big])
    out[~big] = _log_gamma_shifted(flat[~big])
    return out.reshape(x.shape)


def _log1pmx(s: np.ndarray) -> np.ndarray:
    """log(1 + s) - s for -1/2 < s < 1/2, to a few ulps.

    With t = s / (2 + s): log(1 + s) = 2 atanh t, and 2 t - s = -s t, so
    log(1 + s) - s = -s t + 2 t^3 sum_n t^(2n) / (2n + 3) with |t| <= 1/3.
    """
    t = s / (2.0 + s)
    u = t * t
    return 2.0 * t * u * _horner(_ATANH_SERIES, u) - s * t


def _log_kernel(k, x, log_gamma_k, log_factor):
    """log(x^k e^-x / Gamma(k)) + log_factor, the factor both tails share
    times the part each method adds, with the terms of size x or k log k
    added last.

    Below k = 10, directly from log Gamma(k).  From there on as
    k (log(x/k) - s) + log(k / (2 pi)) / 2 - (Stirling remainder of k) with
    s = (x - k) / k, and log(x/k) - s = log1p(s) - s by ``_log1pmx`` where
    |s| < 1/2, so that no term of size k log k cancels.
    """

    def large_k(k, x, log_factor):
        s = (x - k) / k
        rest = np.log(x / k) - s
        near = np.abs(s) < 0.5
        if near.any():
            rest[near] = _log1pmx(s[near])
        small = 0.5 * np.log(k / (2.0 * math.pi)) - _stirling_remainder(k) + log_factor
        return small + k * rest

    big = k >= _STIRLING_MIN
    out = (k * np.log(x) - log_gamma_k + log_factor) - x
    if big.any():
        out[big] = large_k(k[big], x[big], log_factor[big])
    return out


def _no_convergence(what: str) -> QuadratureConvergenceError:
    return QuadratureConvergenceError(
        f"incomplete gamma {what} did not converge in {_MAX_TERMS} terms",
        last_two_estimates=(),
    )


def _log_series(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log of sum_n x^n / ((k + 1)...(k + n)) / k, for x < k + 1.

    P(k, x) is x^k e^-x / Gamma(k) times this sum over k (DLMF 8.7.1,
    8.2.7).  A converged element's later terms are zeroed, so its sum stays
    as it converged; converged elements are dropped once they are half the
    active ones.
    """
    k_all = k
    out = np.empty(k.shape)
    idx = np.arange(k.size)
    term = np.ones(k.shape)
    total = np.ones(k.shape)
    for n in range(1, _MAX_TERMS + 1):
        if idx.size == 0:
            break
        term = term * (x / (k + n))
        total = total + term
        settled = term <= _SERIES_EPS * total
        term = np.where(settled, 0.0, term)
        if 2 * np.count_nonzero(settled) >= idx.size:
            out[idx[settled]] = total[settled]
            live = ~settled
            idx, k, x, term, total = idx[live], k[live], x[live], term[live], total[live]
    if idx.size:
        raise _no_convergence("series")
    return np.log(out / k_all)


def _log_fraction(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log h, where Q(k, x) = x^k e^-x / Gamma(k) h, for x >= k.

    Legendre's continued fraction (DLMF 8.9.2)
    h = 1 / (x + 1 - k - 1 (1 - k) / (x + 3 - k - 2 (2 - k) / (x + 5 - k - ...)))
    by the modified Lentz method.  For x >= k both Lentz denominators stay
    at least x - k + i + 1 at step i (by induction on i), so neither needs
    a guard against 0.  A converged element's later factors are set to 1,
    and converged elements are dropped once they are half the active ones.
    """
    out = np.empty(k.shape)
    idx = np.arange(k.size)
    b = x + 1.0 - k
    d = 1.0 / b
    h = d
    c = np.full(k.shape, np.inf)
    settled = np.zeros(k.shape, dtype=bool)
    for i in range(1, _MAX_TERMS + 1):
        if idx.size == 0:
            break
        an = i * (k - i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = np.where(settled, 1.0, c * d)
        h = h * delta
        settled = np.abs(delta - 1.0) <= _CF_EPS
        if 2 * np.count_nonzero(settled) >= idx.size:
            out[idx[settled]] = h[settled]
            live = ~settled
            idx, k, b, c, d, h = idx[live], k[live], b[live], c[live], d[live], h[live]
            settled = settled[live]
    if idx.size:
        raise _no_convergence("continued fraction")
    return np.log(out)


def _log_temme(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log of the smaller tail (P where x < k, else Q) by Temme's expansion.

    DLMF 8.12.3 and 8.12.8: Q = erfc(y)/2 + R and P = erfc(-y)/2 - R, with
    y = eta sqrt(k/2), eta^2 / 2 = x/k - 1 - log(x/k) and eta of the sign of
    x - k.  erfc(|y|)/2 = Q(1/2, y^2)/2 comes from the series or the
    fraction, and the smaller tail is
    log(erfc(|y|)/2) + log1p(-/+ R / (erfc(|y|)/2)).
    """
    s = (x - k) / k
    half_eta2 = -_log1pmx(s)
    eta = np.copysign(np.sqrt(2.0 * half_eta2), s)
    y2 = np.maximum(k * half_eta2, _TINY)
    n_k, n_eta = _TEMME_COEFFS.shape
    c = _TEMME_COEFFS[:, :1] + np.sum(
        (_TEMME_COEFFS[:, 1:, None] * _powers(eta, n_eta - 1))[:, ::-1], axis=1
    )
    total = c[0] + np.sum((c[1:] * _powers(1.0 / k, n_k - 1))[::-1], axis=0)
    half = np.full(k.shape, 0.5)
    log_erfc, is_p = _log_direct_tail(half, y2, np.full(k.shape, 0.5 * math.log(math.pi)), 0.0)
    log_erfc[is_p] = np.log1p(-np.exp(log_erfc[is_p]))
    log_half_erfc = log_erfc - math.log(2.0)
    r = total * np.exp(-y2 - log_half_erfc) / np.sqrt(2.0 * math.pi * k)
    return log_half_erfc + np.log1p(np.where(s < 0.0, -r, r))


def _log_direct_tail(k, x, log_gamma_k, log_scale, temme=None):
    """(log of the directly computed tail plus ``log_scale``, whether it is
    P): by the series where x < k + 1, the fraction elsewhere and, where
    ``temme``, Temme's expansion (P where x < k)."""
    is_p = x < k + 1.0
    series, fraction = is_p, ~is_p
    if temme is not None and temme.any():
        series, fraction = series & ~temme, fraction & ~temme
        is_p = np.where(temme, x < k, is_p)
    else:
        temme = None
    log_factor = np.zeros(k.shape)
    for method, where in ((_log_series, series), (_log_fraction, fraction)):
        log_factor[where] = method(k[where], x[where])
    out = _log_kernel(k, x, log_gamma_k, log_factor + log_scale)
    if temme is not None:
        out[temme] = _log_temme(k[temme], x[temme]) + log_scale[temme]
    return out, is_p


def log_gamma_tails(k, x, log_gamma_k=None, log_scale=0.0) -> tuple[np.ndarray, np.ndarray]:
    """(log P(k, x), log Q(k, x)) plus ``log_scale``: the regularized
    incomplete gamma tails in log form.

    ``k`` and ``x`` broadcast; both must be positive and finite.  Pass
    ``log_gamma_k``, which broadcasts like ``k``, when it is already at
    hand; otherwise it is computed once per element of ``k``, before ``k``
    is broadcast against ``x``.  ``log_scale`` enters the directly computed
    tail before the terms of size x or k log k, so a caller that wants a scaled
    tail, such as Gamma(k) c^-k Q(k, c b) for an integral of
    beta^(k-1) e^(-c beta), rounds once at that size.

    Raises
    ------
    QuadratureConvergenceError
        If the series or the fraction has not converged within
        ``_MAX_TERMS`` terms.
    """
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    if log_gamma_k is None:
        log_gamma_k = log_gamma(k)
    shape = np.broadcast_shapes(k.shape, x.shape)
    k, x, log_gamma_k, log_scale = (
        a.reshape(-1) if a.shape == shape else np.broadcast_to(a, shape).ravel()
        for a in (k, x, np.asarray(log_gamma_k, dtype=float), np.asarray(log_scale, dtype=float))
    )
    temme = (k > _TEMME_MIN_K) & (np.abs(x - k) < _TEMME_MAX_SIGMA * k)
    log_direct, is_p = _log_direct_tail(k, x, log_gamma_k, log_scale, temme)
    with np.errstate(divide="ignore"):
        log_other = np.log1p(-np.exp(log_direct - log_scale)) + log_scale
    log_p = np.where(is_p, log_direct, log_other)
    log_q = np.where(is_p, log_other, log_direct)
    return log_p.reshape(shape), log_q.reshape(shape)
