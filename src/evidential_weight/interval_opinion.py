"""Recipient LR when the expert reports an LR interval.

The interval is split into its log10 midpoint m and width w.  The
midpoint reuses the scalar-opinion machinery unchanged; the width is
modeled as gamma-distributed per scenario with a conjugate hyperprior on
the unknown shape and rate, so the recipient LR factorizes as
lr = lr_m * lr_w.

The width hyperprior density is proportional to

    p^(alpha - 1) * exp(-q * beta) * beta^(s * alpha) / Gamma(alpha)^r

over (alpha, beta), truncated to a working rectangle in (shape, rate)
space.  The marginal width density has no closed form in the shape, but
the rate integral does: for k = s alpha + 1,

    int_{b_lo}^{b_hi} beta^(k-1) exp(-c beta) d beta
        = Gamma(k) c^-k [P(k, c b_hi) - P(k, c b_lo)],

so each density is a 1-D integral over log alpha, evaluated by a
localized, adaptive composite Gauss-Legendre ladder.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mc, scalar_opinion
from .core import LrEstimate
from .errors import DomainError, QuadratureConvergenceError
from .scalar_opinion import NormalGammaParams

__all__ = [
    "LrInterval",
    "GammaConjParams",
    "update_gamma_conj",
    "update_gamma_conj_stats",
    "width_predictive_density",
    "width_normalizer_diagnostics",
    "lr_for_interval",
    "IntervalLr",
    "width_curve",
    "WidthCurve",
    "DEFAULT_WIDTH_QUAD_SPEC",
]

#: Working rectangle in (shape, rate) space for the width hyperprior.
#: Posterior mass after realistic width updates sits far inside; an
#: outermost-cell mass check flags cases where truncation matters.
DEFAULT_WIDTH_QUAD_SPEC = mc.QuadratureSpec(
    a_lo=1e-3, a_hi=60.0, b_lo=1e-3, b_hi=60.0,
    rel_tol=1e-6, max_refinements=7, base_panels=32, gauss_order=4,
)

#: Outermost-cell mass fraction above which truncation is reported.
BOUNDARY_MASS_LIMIT = 1e-6

_SCAN_POINTS = 192
_SCAN_LOG_DROP = 60.0
_SCAN_PAD = 2

#: Modified Lentz method for the upper incomplete gamma continued
#: fraction: floor for vanishing partial denominators, stopping tolerance,
#: and term budget (where it is used, x - k exceeds about 37 sqrt(k) and
#: about ten terms suffice).
_CF_TINY = 1e-300
_CF_EPS = 2.0**-52
_CF_MAX_TERMS = 200

#: Largest upper limit c b_hi of the rate integral: beyond it the
#: fraction's 1 / (x + 1 - k) is no longer a normal float.
_C_B_HI_MAX = 1.0 / np.finfo(float).tiny


@dataclass(frozen=True)
class LrInterval:
    """Linear-scale LR interval endpoints, 0 < lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        for name, v in (("lo", self.lo), ("hi", self.hi)):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got ({self.lo!r}, {self.hi!r})")

    @property
    def midpoint(self) -> float:
        """Midpoint of the endpoints on the log10 scale."""
        return 0.5 * (math.log10(self.lo) + math.log10(self.hi))

    @property
    def width(self) -> float:
        """Width of the interval on the log10 scale."""
        return math.log10(self.hi) - math.log10(self.lo)


@dataclass(frozen=True)
class GammaConjParams:
    """Conjugate hyperprior state for a gamma width model.

    ``log_p`` accumulates the log product of pseudo-observations (stored
    in log space because the product overflows for large samples), ``q``
    their sum, and ``r``/``s`` the observation counts backing the shape
    and rate information respectively.
    """

    log_p: float
    q: float
    r: float
    s: float

    def __post_init__(self):
        if not math.isfinite(self.log_p):
            raise DomainError(f"log_p must be finite, got {self.log_p!r}")
        for name in ("q", "r", "s"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")

    @classmethod
    def from_p(cls, p: float, q: float, r: float, s: float) -> "GammaConjParams":
        if not (math.isfinite(p) and p > 0.0):
            raise DomainError(f"p must be positive and finite, got {p!r}")
        return cls(log_p=math.log(p), q=q, r=r, s=s)

    def to_dict(self) -> dict:
        return {"log_p": self.log_p, "q": self.q, "r": self.r, "s": self.s}

    @classmethod
    def from_dict(cls, obj: dict) -> "GammaConjParams":
        if "p" in obj and "log_p" not in obj:
            return cls.from_p(float(obj["p"]), float(obj["q"]), float(obj["r"]), float(obj["s"]))
        return cls(float(obj["log_p"]), float(obj["q"]), float(obj["r"]), float(obj["s"]))


def update_gamma_conj(
    prior: GammaConjParams, widths: Sequence[float]
) -> GammaConjParams:
    """Conjugate update with observed interval widths.

    The four statistics are additive: log product and sum of the widths
    accumulate into ``log_p`` and ``q``; the counts into ``r`` and ``s``.
    """
    arr = np.asarray(widths, dtype=float)
    if arr.size == 0:
        raise DomainError("widths must be nonempty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("widths must all be positive and finite")
    return update_gamma_conj_stats(
        prior, n=int(arr.size), total=float(arr.sum()), log_product=float(np.log(arr).sum())
    )


def update_gamma_conj_stats(
    prior: GammaConjParams, n: int, total: float, log_product: float
) -> GammaConjParams:
    """Update from summary statistics (count, sum, log product) directly."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if total <= 0.0 or not math.isfinite(total) or not math.isfinite(log_product):
        raise DomainError("total must be positive and both statistics finite")
    return GammaConjParams(
        log_p=prior.log_p + log_product,
        q=prior.q + total,
        r=prior.r + n,
        s=prior.s + n,
    )


def _log_upper_gamma(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log Gamma(k, x), the unregularized upper incomplete gamma, for x > k.

    Legendre's continued fraction
    Gamma(k, x) = e^-x x^k / (x + 1 - k - 1 (1 - k) / (x + 3 - k - 2 (2 - k) / ...))
    is evaluated by the modified Lentz method and kept in log form: e^-x is
    never formed, so the result stays finite where the regularized tail
    underflows.

    Raises
    ------
    QuadratureConvergenceError
        If the fraction has not converged within ``_CF_MAX_TERMS`` terms.
    """
    b = x + 1.0 - k
    c = np.full(b.shape, 1.0 / _CF_TINY)
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_TERMS + 1):
        an = -i * (i - k)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
        delta = c * d
        h = h * delta
        if np.all(np.abs(delta - 1.0) <= _CF_EPS):
            return k * np.log(x) - x + np.log(h)
    raise QuadratureConvergenceError(
        f"upper incomplete gamma continued fraction did not converge in {_CF_MAX_TERMS} terms",
        last_two_estimates=(),
    )


def _log_rate_integral(k, c, b_lo, b_hi) -> np.ndarray:
    """log of the integral of beta^(k-1) exp(-c beta) over [b_lo, b_hi].

    Closed form Gamma(k) c^-k [P(k, c b_hi) - P(k, c b_lo)] with P the
    regularized lower incomplete gamma function.  Where c b_lo > k both
    lower tails are near 1 and their difference cancels (to 0 once both
    round to 1), so the upper tails are differenced instead.  Where that
    difference falls below the normal float range (it underflows once
    c b_lo exceeds about 700), the unregularized upper tails are
    differenced in log space.
    """
    from scipy.special import gammainc, gammaincc, gammaln

    k, c = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(c, dtype=float))
    x_lo, x_hi = c * b_lo, c * b_hi
    upper = x_lo > k
    lower = ~upper
    frac = np.empty(k.shape)
    frac[upper] = gammaincc(k[upper], x_lo[upper]) - gammaincc(k[upper], x_hi[upper])
    frac[lower] = gammainc(k[lower], x_hi[lower]) - gammainc(k[lower], x_lo[lower])
    with np.errstate(divide="ignore"):
        out = np.asarray(gammaln(k) - k * np.log(c) + np.log(np.maximum(frac, 0.0)))
    tails = upper & (frac < np.finfo(float).tiny)
    if np.any(tails):
        kt = k[tails]
        log_lo = _log_upper_gamma(kt, x_lo[tails])
        log_hi = _log_upper_gamma(kt, x_hi[tails])
        out[tails] = log_lo + np.log1p(-np.exp(log_hi - log_lo)) - kt * np.log(c[tails])
    return out


def _log_shape_factor(u: np.ndarray, log_p, r) -> np.ndarray:
    """Shape-only part of the hyperprior in log alpha = u, Jacobian included."""
    from scipy.special import gammaln

    alpha = np.exp(u)
    return (alpha - 1.0) * log_p - r * gammaln(alpha) + u


def _scan_grid(spec: mc.QuadratureSpec) -> np.ndarray:
    return np.linspace(math.log(spec.a_lo), math.log(spec.a_hi), _SCAN_POINTS)


def _log_shape_integrals(log_p, r: float, s: float, c, spec: mc.QuadratureSpec):
    """Log integrals over the shape axis, one per entry of ``log_p`` and ``c``.

    The integrand is p^(alpha-1) Gamma(alpha)^-r times the rate integral
    of beta^(s alpha) e^(-c beta) over the box.  Each row is localized by
    a scan of log alpha to the window within ``_SCAN_LOG_DROP`` nats of
    its peak (plus two scan cells), then integrated by composite
    Gauss-Legendre in log alpha, doubling the panels until two levels
    agree to ``spec.rel_tol`` in the log.  A row stops at its own level,
    so its value does not depend on the other rows.  Returns (log
    integrals, deepest level used, largest final |difference of the last
    two log estimates|).

    Raises
    ------
    DomainError
        If some ``c`` times ``spec.b_hi`` exceeds ``_C_B_HI_MAX``.
    QuadratureConvergenceError
        If a row has not converged within ``spec.max_refinements`` levels
        or ``mc.MAX_NODES_PER_DIM`` nodes.
    """
    log_p = np.asarray(log_p, dtype=float).reshape(-1, 1)
    c = np.asarray(c, dtype=float).reshape(-1, 1)
    c_max = _C_B_HI_MAX / spec.b_hi
    if np.any(c > c_max):
        raise DomainError(
            f"width sum q = {float(np.max(c)):.4g} exceeds {c_max:.4g}, beyond which "
            f"the rate integral leaves the float range"
        )

    def logf(u, rows):
        return _log_shape_factor(u, log_p[rows], r) + _log_rate_integral(
            s * np.exp(u) + 1.0, c[rows], spec.b_lo, spec.b_hi
        )

    rows = np.arange(log_p.shape[0])
    u = _scan_grid(spec)
    scan = logf(u[None, :], rows)
    peak = np.max(scan, axis=1, keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise DomainError("width-model integrand has no finite values on the domain")
    keep = scan >= peak - _SCAN_LOG_DROP
    first = np.argmax(keep, axis=1)
    last = u.size - 1 - np.argmax(keep[:, ::-1], axis=1)
    lo = u[np.maximum(first - _SCAN_PAD, 0)]
    hi = u[np.minimum(last + _SCAN_PAD, u.size - 1)]

    def estimate(active, panels):
        nodes, weights = mc.gauss_nodes(lo[active], hi[active], panels, spec.gauss_order)
        values = logf(nodes, active)
        shift = np.max(values, axis=1, keepdims=True)
        return shift[:, 0] + np.log(np.sum(weights * np.exp(values - shift), axis=1))

    current = estimate(rows, spec.base_panels)
    previous = current.copy()
    delta = np.full(rows.size, np.inf)
    active = rows
    for level in range(1, spec.max_refinements + 1):
        panels = spec.base_panels * (2**level)
        if panels * spec.gauss_order > mc.MAX_NODES_PER_DIM:
            break
        previous[active] = current[active]
        current[active] = estimate(active, panels)
        delta[active] = np.abs(current[active] - previous[active])
        active = active[~(delta[active] <= spec.rel_tol)]
        if active.size == 0:
            return current, level, float(np.max(delta))
    worst = int(active[0])
    raise QuadratureConvergenceError(
        f"no convergence to rel_tol={spec.rel_tol:g} within "
        f"{spec.max_refinements} refinements",
        last_two_estimates=(float(previous[worst]), float(current[worst])),
    )


def _boundary_mass_fraction(params: GammaConjParams, spec: mc.QuadratureSpec) -> float:
    """Share of the hyperprior's scanned mass in the rectangle's outermost cells.

    The cells are those of the ``_SCAN_POINTS``-point log-alpha scan and
    log-beta strips of the same count: the alpha-marginal mass at the first
    and last scan points, plus, at the interior scan points, the closed-form
    rate mass in [b_lo, b_lo e^d] and [b_hi e^-d, b_hi], d the log-beta
    cell width.
    """
    u = _scan_grid(spec)
    shape = _log_shape_factor(u, params.log_p, params.r)
    k = params.s * np.exp(u) + 1.0
    d = (math.log(spec.b_hi) - math.log(spec.b_lo)) / (_SCAN_POINTS - 1)
    full = shape + _log_rate_integral(k, params.q, spec.b_lo, spec.b_hi)
    strips = shape + np.logaddexp(
        _log_rate_integral(k, params.q, spec.b_lo, spec.b_lo * math.exp(d)),
        _log_rate_integral(k, params.q, spec.b_hi * math.exp(-d), spec.b_hi),
    )
    peak = float(np.max(full))
    mass = np.exp(full - peak)
    ring = mass[0] + mass[-1] + float(np.sum(np.exp(strips[1:-1] - peak)))
    return float(ring / np.sum(mass))


_normalizer_cache: dict = {}


def width_normalizer_diagnostics(
    params: GammaConjParams, spec: mc.QuadratureSpec = DEFAULT_WIDTH_QUAD_SPEC
) -> dict:
    """Log normalizer of one hyperprior state over the working rectangle,
    with its quadrature diagnostics.

    Keys: ``log_normalizer``, ``boundary_mass_fraction``, ``levels`` (the
    refinement level that converged) and ``abs_delta_log`` (the final
    difference of successive log estimates).  Cached per (params, spec);
    the truncation warning fires when the value is first computed.
    """
    key = (params, spec)
    hit = _normalizer_cache.get(key)
    if hit is None:
        value, levels, delta = _log_shape_integrals(
            [params.log_p], params.r, params.s, [params.q], spec
        )
        hit = {
            "log_normalizer": float(value[0]),
            "boundary_mass_fraction": _boundary_mass_fraction(params, spec),
            "levels": levels,
            "abs_delta_log": delta,
        }
        if hit["boundary_mass_fraction"] > BOUNDARY_MASS_LIMIT:
            warnings.warn(
                f"width hyperprior places mass fraction {hit['boundary_mass_fraction']:.3g} "
                f"in the outermost cells of the working rectangle; densities are those "
                f"of the rectangle-truncated hyperprior",
                RuntimeWarning,
                stacklevel=4,
            )
        _normalizer_cache[key] = hit
    return dict(hit)


def _log_width_density(params: GammaConjParams, ws, spec: mc.QuadratureSpec):
    """Log marginal width densities at every width in ``ws``.

    The numerator for width w is the normalizer's integral with
    (log_p, r, s, q) advanced to (log_p + log w, r + 1, s + 1, q + w).
    Returns (log densities, levels, abs_delta_log) of the numerators.
    """
    ws = np.asarray(ws, dtype=float)
    bad = ~(np.isfinite(ws) & (ws > 0.0))
    if np.any(bad):
        raise DomainError(f"w must be positive and finite, got {float(ws[bad][0])!r}")
    log_normalizer = width_normalizer_diagnostics(params, spec)["log_normalizer"]
    log_num, levels, delta = _log_shape_integrals(
        params.log_p + np.log(ws), params.r + 1.0, params.s + 1.0, params.q + ws, spec
    )
    return log_num - log_normalizer, levels, delta


def width_predictive_density(
    params: GammaConjParams,
    w: float,
    spec: mc.QuadratureSpec = DEFAULT_WIDTH_QUAD_SPEC,
) -> float:
    """Marginal density of an interval width under the hyperprior state.

    Integrates Gamma(w | alpha, beta) against the normalized,
    rectangle-truncated conjugate hyperprior: the rate in closed form, the
    shape by adaptive Gauss-Legendre in log alpha.  The normalizer is
    cached per parameter value.
    """
    log_density, _, _ = _log_width_density(params, [w], spec)
    return math.exp(log_density[0])


@dataclass(frozen=True)
class IntervalLr:
    """Recipient LR for an interval, with its midpoint and width factors."""

    estimate: LrEstimate
    lr_m: float
    lr_w: float
    midpoint: float
    width: float


def lr_for_interval(
    iv: LrInterval,
    mid_h1: NormalGammaParams,
    mid_h2: NormalGammaParams,
    width_h1: GammaConjParams,
    width_h2: GammaConjParams,
    spec: mc.QuadratureSpec = DEFAULT_WIDTH_QUAD_SPEC,
) -> IntervalLr:
    """Recipient LR for a reported interval: lr_m(midpoint) times lr_w(width).

    The midpoint factor treats m exactly as a reported scalar log10 LR;
    the width factor is the ratio of marginal width densities.
    """
    m, w = iv.midpoint, iv.width
    mid_estimate = scalar_opinion.lr_for_scalar(m, mid_h1, mid_h2)
    log_h1, _, _ = _log_width_density(width_h1, [w], spec)
    log_h2, _, _ = _log_width_density(width_h2, [w], spec)
    log10_lr_w = float(log_h1[0] - log_h2[0]) / math.log(10.0)
    estimate = LrEstimate.from_log10(mid_estimate.log10_lr + log10_lr_w)
    return IntervalLr(
        estimate=estimate,
        lr_m=mid_estimate.lr,
        lr_w=10.0**log10_lr_w,
        midpoint=m,
        width=w,
    )


@dataclass(frozen=True)
class WidthCurve:
    """Width densities and lr_w over a grid of widths.

    ``levels`` and ``abs_delta_log`` hold, per scenario (H1, H2), the
    deepest refinement level and the largest final log-estimate difference
    of the numerator shape quadratures behind the densities (the
    normalizer's are in :func:`width_normalizer_diagnostics`).
    """

    w: np.ndarray
    log_density_h1: np.ndarray
    log_density_h2: np.ndarray
    levels: tuple[int, int]
    abs_delta_log: tuple[float, float]

    @property
    def density_h1(self) -> np.ndarray:
        """Linear density, ``inf`` where it is beyond the float range."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_density_h1)

    @property
    def density_h2(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_density_h2)

    @property
    def lr_w(self) -> np.ndarray:
        """Density ratio from the log densities: exactly 1 where they are equal,
        and ``inf`` or 0.0 beyond the float range, where the linear
        densities would give ``nan``."""
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.log_density_h1 - self.log_density_h2)

    def rows(self):
        for row in zip(self.w, self.density_h1, self.density_h2, self.lr_w):
            yield tuple(float(v) for v in row)


def width_curve(
    width_h1: GammaConjParams,
    width_h2: GammaConjParams,
    grid: Sequence[float],
    spec: mc.QuadratureSpec = DEFAULT_WIDTH_QUAD_SPEC,
) -> WidthCurve:
    """Marginal width densities for both scenarios over a width grid."""
    ws = np.asarray(grid, dtype=float)
    if ws.size == 0:
        raise DomainError("grid must be nonempty")
    log_d1, levels_h1, delta_h1 = _log_width_density(width_h1, ws, spec)
    log_d2, levels_h2, delta_h2 = _log_width_density(width_h2, ws, spec)
    return WidthCurve(
        w=ws,
        log_density_h1=log_d1,
        log_density_h2=log_d2,
        levels=(levels_h1, levels_h2),
        abs_delta_log=(delta_h1, delta_h2),
    )
