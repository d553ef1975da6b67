"""Recipient LR for a pair of expert log10 LRs on the same evidence.

Per scenario, the pair of reported log10 LRs is modeled as bivariate
normal with unknown mean and precision matrix under a conjugate
normal-Wishart state, giving a bivariate Student-t marginal for the
reported pair.  The recipient LR is the ratio of the two scenarios'
marginal densities at the reported pair.

Two documented ambiguities in the source model are exposed as
configuration rather than silently resolved:

* ``df_convention``: the marginal t's degrees of freedom, either ``"n0"``
  (the pseudo-observation count itself) or ``"n0-1"`` (the value standard
  conjugate theory gives in two dimensions).
* ``wishart_matrix``: whether the stored matrix parametrizes the Wishart
  prior over the precision as its scale matrix (``"scale"``, precision
  mean ``n0 * lambda0``) or as its inverse scale (``"rate"``, precision
  mean ``n0 * lambda0^-1``).  The readings imply opposite orientations of
  the marginal t's scale matrix; see the README for which combinations
  reproduce which reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from .core import LrEstimate, require_count, require_positive, student_t_logpdf
from .errors import DomainError

__all__ = [
    "NormalWishartParams",
    "PairedLrSummary",
    "posterior_params",
    "bivariate_t_params",
    "bivariate_t_logdensity",
    "lr_for_pair",
    "pair_lr_sweep",
    "PairSweepResult",
    "PRIOR_PRESETS",
    "DEFAULT_DF_CONVENTION",
    "DEFAULT_WISHART_MATRIX",
]

DfConvention = Literal["n0", "n0-1"]
WishartMatrix = Literal["scale", "rate"]
Matrix22 = tuple[tuple[float, float], tuple[float, float]]

#: Defaults chosen so that the packaged "default" preset yields its
#: reference prior-only pair LR near 4.4 (see README); the alternative
#: readings remain available through the keyword arguments.
DEFAULT_DF_CONVENTION: DfConvention = "n0"
DEFAULT_WISHART_MATRIX: WishartMatrix = "rate"


def _vector2(value, name: str) -> tuple[float, float]:
    """``value``, any sequence of two numbers, as a pair of finite floats."""
    try:
        pair = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        pair = ()
    if len(pair) != 2 or not all(map(math.isfinite, pair)):
        raise DomainError(f"{name} must be a finite 2-vector, got {value!r}")
    return pair


def _symmetric22(value, name: str, smallest_eigenvalue: float) -> Matrix22:
    """``value`` as a finite symmetric 2x2 matrix, each eigenvalue ``>= smallest_eigenvalue``.

    A negative ``smallest_eigenvalue`` is a rounding allowance, relative to
    the matrix's scale: it is multiplied by max(1, the largest eigenvalue).
    """
    try:
        (a, b), (c, d) = rows = tuple(_vector2(row, name) for row in value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a finite 2x2 matrix, got {value!r}") from None
    if abs(b - c) > 1e-12:
        raise DomainError(f"{name} must be symmetric within 1e-12")
    # eigenvalues (a + d)/2 -+ hypot((a - d)/2, c): the smaller as det / larger, not cancelling
    half, radius = a / 2 + d / 2, math.hypot(a / 2 - d / 2, c)
    largest = half + radius
    smallest = a * (d / largest) - c * (c / largest) if largest > 0.0 else half - radius
    if smallest_eigenvalue < 0.0:
        smallest_eigenvalue *= max(1.0, largest)
    if smallest < smallest_eigenvalue:
        kind = "definite" if smallest_eigenvalue > 0.0 else "semidefinite"
        raise DomainError(f"{name} must be positive {kind}")
    return rows


def _inverse22(matrix: Matrix22) -> Matrix22:
    """Inverse of a positive definite 2x2 matrix by Schur complements, which do not overflow."""
    (a, _), (b, c) = matrix
    c_schur = c - b * (b / a)
    off = -(b / a) / c_schur
    return (1.0 / (a - b * (b / c)), off), (off, 1.0 / c_schur)


@dataclass(frozen=True)
class NormalWishartParams:
    """Conjugate state for a bivariate normal with unknown mean and precision."""

    mu0: tuple[float, float]
    k0: float
    lambda0: Matrix22
    n0: float

    def __post_init__(self):
        object.__setattr__(self, "mu0", _vector2(self.mu0, "mu0"))
        # math.ulp(0.0) is the smallest positive float: every eigenvalue > 0
        object.__setattr__(self, "lambda0", _symmetric22(self.lambda0, "lambda0", math.ulp(0.0)))
        object.__setattr__(self, "k0", require_positive("k0", self.k0))
        object.__setattr__(self, "n0", float(self.n0))
        if not (math.isfinite(self.n0) and self.n0 >= 2.0):
            raise DomainError(f"n0 must be >= 2 (the dimension), got {self.n0!r}")

    def to_dict(self) -> dict:
        return {
            "mu0": list(self.mu0),
            "k0": self.k0,
            "lambda0": [*self.lambda0[0], *self.lambda0[1]],
            "n0": self.n0,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "NormalWishartParams":
        lam = obj["lambda0"]
        return cls(mu0=obj["mu0"], k0=obj["k0"], lambda0=(lam[:2], lam[2:]), n0=obj["n0"])


#: Packaged prior presets.  "default" centers the mated-scenario means
#: at (5, 5); "alt" pairs the tighter matrix with a (4, 2) mated mean.
#: Both share the H2 mean (-2, -4) and k0 = n0 = 2.
PRIOR_PRESETS: dict = {
    name: tuple(NormalWishartParams(mu0=mu0, k0=2.0, lambda0=lambda0, n0=2.0)
                for mu0 in (mu0_h1, (-2.0, -4.0)))
    for name, mu0_h1, lambda0 in (
        ("default", (5.0, 5.0), ((0.1, -0.08), (-0.08, 0.1))),
        ("alt", (4.0, 2.0), ((0.2, -0.15), (-0.15, 0.2))),
    )
}


@dataclass(frozen=True)
class PairedLrSummary:
    """Sufficient statistics of paired validation log10 LRs for one scenario.

    ``scatter`` is the sum of outer products about the sample mean (not
    divided by the sample count).
    """

    m: int
    mean: tuple[float, float]
    scatter: Matrix22

    def __post_init__(self):
        if require_count("m", self.m) < 1:
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "mean", _vector2(self.mean, "mean"))
        object.__setattr__(self, "scatter", _symmetric22(self.scatter, "scatter", -1e-9))

    @classmethod
    def from_values(cls, values: Sequence[Sequence[float]]) -> "PairedLrSummary":
        try:
            rows = [(float(b), float(c)) for b, c in values]
        except (TypeError, ValueError):
            rows = []
        if not rows:
            raise DomainError(f"values must be an (m, 2) array of numbers, got {values!r}")
        mean = tuple(math.fsum(column) / len(rows) for column in zip(*rows))  # or OverflowError
        dev = [(b - mean[0], c - mean[1]) for b, c in rows]
        scatter = tuple(tuple(math.fsum(u[i] * u[j] for u in dev) for j in (0, 1)) for i in (0, 1))
        if any(map(math.isinf, mean + scatter[0] + scatter[1])):  # nan: left to __post_init__
            raise OverflowError("the validation pairs' spread is beyond the float range")
        return cls(m=len(rows), mean=mean, scatter=scatter)


def posterior_params(
    prior: NormalWishartParams,
    data: PairedLrSummary,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> NormalWishartParams:
    """Conjugate update under the chosen matrix reading.

    n' = n0 + m,  k' = k0 + m,  mu' = (k0 mu0 + m xbar) / (k0 + m), and,
    with d = xbar - mu0 and T = S + (k0 m / (k0 + m)) d d^T, the stored
    matrix becomes (lambda0^-1 + T)^-1 under the scale reading.  Under the
    rate reading the stored matrix is the inverse scale, so the same
    update adds T to it directly: lambda0 + T.
    """
    if wishart_matrix not in ("scale", "rate"):
        raise DomainError(f"unknown wishart_matrix {wishart_matrix!r}")
    m, k0 = data.m, prior.k0
    weight = k0 * m / (k0 + m)
    d0, d1 = (x - mu for x, mu in zip(data.mean, prior.mu0))
    (s00, _), (s01, s11) = data.scatter
    (a, _), (b, c) = _inverse22(prior.lambda0) if wishart_matrix == "scale" else prior.lambda0
    t01 = b + s01 + weight * (d0 * d1)
    inverse_scale = ((a + s00 + weight * (d0 * d0), t01), (t01, c + s11 + weight * (d1 * d1)))
    lam = _inverse22(inverse_scale) if wishart_matrix == "scale" else inverse_scale
    mu = tuple((k0 * mu + m * x) / (k0 + m) for mu, x in zip(prior.mu0, data.mean))
    if not all(map(math.isfinite, mu + inverse_scale[0] + inverse_scale[1] + lam[0] + lam[1])):
        raise OverflowError("the updated normal-Wishart state is beyond the float range")
    return NormalWishartParams(mu0=mu, k0=k0 + m, lambda0=lam, n0=prior.n0 + m)


def bivariate_t_params(
    params: NormalWishartParams,
    df_convention: DfConvention = DEFAULT_DF_CONVENTION,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> tuple[float, tuple[float, float], Matrix22]:
    """(df, location, scale matrix) of the marginal bivariate Student-t.

    The scale matrix is ((k0 (n0 - 1) / (k0 + 1)) W)^-1 where W is the
    Wishart scale matrix under the chosen reading; the factor uses
    n0 - 1 under both df conventions.  Requires n0 > 1 so the scale is
    positive definite.
    """
    if df_convention == "n0":
        df = params.n0
    elif df_convention == "n0-1":
        df = params.n0 - 1.0
    else:
        raise DomainError(f"unknown df_convention {df_convention!r}")
    if wishart_matrix not in ("scale", "rate"):
        raise DomainError(f"unknown wishart_matrix {wishart_matrix!r}")
    w_inverse = _inverse22(params.lambda0) if wishart_matrix == "scale" else params.lambda0
    factor = (params.n0 - 1.0) * (params.k0 / (params.k0 + 1.0))
    scale = tuple(tuple(v / factor for v in row) for row in w_inverse)
    if any(map(math.isinf, scale[0] + scale[1])):
        raise OverflowError(f"the marginal t's scale matrix overflows for k0 = {params.k0!r}")
    return df, params.mu0, scale


def _t_logpdf(x, df: float, loc, scale: Matrix22) -> float:
    """Log density at the pair ``x`` of the bivariate t with ``df``, ``loc``
    and scale matrix ``scale``, whose closed-form Cholesky factor L whitens
    u = x - loc to z = L^-1 u, so that the quadratic form is z'z."""
    (a, _), (b, c) = scale
    l00 = math.sqrt(a)
    l10 = b / l00
    l11 = math.sqrt(c - l10 * l10)

    def whiten(u0: float, u1: float) -> tuple[float, float]:
        z0 = u0 / l00
        return z0, (u1 - l10 * z0) / l11

    u0, u1 = x[0] - loc[0], x[1] - loc[1]
    if not (math.isfinite(u0) and math.isfinite(u1)):
        raise OverflowError(f"report {tuple(x)!r} is too far from {tuple(loc)!r}")
    z0, z1 = whiten(u0, u1)
    q = z0 * z0 + z1 * z1
    log_q = None
    if not q < math.inf:
        # the whitening may overflow z, to inf or nan, although u is finite:
        # z = length * L^-1 (u / length) for length = max|u|, in log form
        length = max(abs(u0), abs(u1))
        z0, z1 = whiten(u0 / length, u1 / length)
        top = max(abs(z0), abs(z1))
        log_q = 2 * (math.log(length) + math.log(top)) + math.log((z0 / top)**2 + (z1 / top)**2)
    return student_t_logpdf(q, df, 2, math.log(l00) + math.log(l11), log_q)


def bivariate_t_logdensity(
    params: NormalWishartParams,
    x: Sequence[float],
    df_convention: DfConvention = DEFAULT_DF_CONVENTION,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> float:
    """Log marginal density of a reported log10-LR pair under one scenario."""
    x = _vector2(x, "x")
    return _t_logpdf(x, *bivariate_t_params(params, df_convention, wishart_matrix))


def lr_for_pair(
    x: Sequence[float],
    h1: NormalWishartParams,
    h2: NormalWishartParams,
    df_convention: DfConvention = DEFAULT_DF_CONVENTION,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> LrEstimate:
    """Recipient LR for a reported pair of expert log10 LRs (closed form)."""
    log_lr = bivariate_t_logdensity(
        h1, x, df_convention, wishart_matrix
    ) - bivariate_t_logdensity(h2, x, df_convention, wishart_matrix)
    return LrEstimate(log_lr / math.log(10.0))


#: Packaged sweep statistics: per-scenario mean and per-observation
#: covariance of the experts' log10 LR pairs in the validation scenarios.
SWEEP_MEAN_H1 = (3.5, 2.5)
SWEEP_MEAN_H2 = (-2.5, -3.5)
SWEEP_COVARIANCE = ((5.0, 4.0), (4.0, 5.0))


def default_sweep_data(m: int) -> tuple[PairedLrSummary, PairedLrSummary]:
    """Validation summaries of size ``m`` with the packaged sweep statistics."""
    scatter = tuple(tuple(m * v for v in row) for row in SWEEP_COVARIANCE)
    return (
        PairedLrSummary(m=m, mean=SWEEP_MEAN_H1, scatter=scatter),
        PairedLrSummary(m=m, mean=SWEEP_MEAN_H2, scatter=scatter),
    )


@dataclass(frozen=True)
class PairSweepRow:
    m: int
    estimate: LrEstimate


@dataclass(frozen=True)
class PairSweepResult:
    rows: tuple[PairSweepRow, ...]

    def estimate(self, m: int) -> LrEstimate:
        for row in self.rows:
            if row.m == m:
                return row.estimate
        raise KeyError(m)


def pair_lr_sweep(
    x: Sequence[float],
    h1: NormalWishartParams,
    h2: NormalWishartParams,
    sizes: Sequence[int],
    df_convention: DfConvention = DEFAULT_DF_CONVENTION,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> PairSweepResult:
    """Pair LR at ``x`` after validation sweeps of increasing size.

    Size 0 evaluates the priors unchanged; other sizes update both
    scenarios with ``default_sweep_data(m)`` before evaluating.
    """
    if len(sizes) == 0:
        raise DomainError("sizes must be nonempty")
    rows = []
    for m in sizes:
        m = int(m)
        if m < 0:
            raise DomainError(f"sweep sizes must be >= 0, got {m!r}")
        if m == 0:
            g1, g2 = h1, h2
        else:
            d1, d2 = default_sweep_data(m)
            g1 = posterior_params(h1, d1, wishart_matrix)
            g2 = posterior_params(h2, d2, wishart_matrix)
        rows.append(PairSweepRow(m, lr_for_pair(x, g1, g2, df_convention, wishart_matrix)))
    return PairSweepResult(rows=tuple(rows))
