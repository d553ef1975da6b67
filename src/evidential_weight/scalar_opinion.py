"""Recipient LR when the expert reports a scalar weight of evidence.

The expert's log10 LR is modeled as normal per scenario with unknown mean
and precision under a Normal-Gamma conjugate prior, so the recipient's
marginal (predictive) distribution for the reported value is Student-t.
The recipient's LR for hearing a particular value r is the ratio of the
two scenarios' predictive densities at r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LrEstimate
from .errors import DomainError

__all__ = [
    "NormalGammaParams",
    "ScalarValidationSummary",
    "update_normal_gamma",
    "pooled_summary",
    "predictive_params",
    "predictive_density",
    "predictive_logpdf",
    "student_t_logpdf",
    "lr_for_scalar",
    "lr_curve",
    "ScalarCurve",
]


@dataclass(frozen=True)
class NormalGammaParams:
    """Conjugate state for a normal model with unknown mean and precision.

    ``mu0`` is the mean's center, ``n_mu`` the observations' worth of
    information about it; ``tau0`` is the precision's center (E[tau] =
    tau0) and ``n_tau`` the observations' worth about the precision.
    """

    mu0: float
    n_mu: float
    tau0: float
    n_tau: float

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise DomainError(f"mu0 must be finite, got {self.mu0!r}")
        for name in ("n_mu", "tau0", "n_tau"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")

    def to_dict(self) -> dict:
        return {"mu0": self.mu0, "n_mu": self.n_mu, "tau0": self.tau0, "n_tau": self.n_tau}

    @classmethod
    def from_dict(cls, obj: dict) -> "NormalGammaParams":
        return cls(float(obj["mu0"]), float(obj["n_mu"]), float(obj["tau0"]), float(obj["n_tau"]))


@dataclass(frozen=True)
class ScalarValidationSummary:
    """Sufficient statistics of scalar validation results for one scenario.

    ``variance`` is the n-denominator sample variance, matching the
    ``n * s^2`` term in the conjugate update.
    """

    n: int
    mean: float
    variance: float

    def __post_init__(self):
        if isinstance(self.n, bool) or int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not math.isfinite(self.mean):
            raise DomainError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise DomainError(f"variance must be nonnegative, got {self.variance!r}")
        object.__setattr__(self, "n", int(self.n))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ScalarValidationSummary":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise DomainError("at least one validation value is required")
        return cls(n=arr.size, mean=float(arr.mean()), variance=float(arr.var()))


def pooled_summary(
    a: ScalarValidationSummary, b: ScalarValidationSummary
) -> ScalarValidationSummary:
    """Combine two summaries into the summary of the concatenated data."""
    n = a.n + b.n
    mean = (a.n * a.mean + b.n * b.mean) / n
    second_moment = (a.n * (a.variance + a.mean**2) + b.n * (b.variance + b.mean**2)) / n
    return ScalarValidationSummary(n=n, mean=mean, variance=max(second_moment - mean**2, 0.0))


def update_normal_gamma(
    prior: NormalGammaParams, data: ScalarValidationSummary
) -> NormalGammaParams:
    """Conjugate update of the Normal-Gamma state with a validation summary."""
    n, ybar, s2 = data.n, data.mean, data.variance
    n_mu_new = prior.n_mu + n
    mu_new = (prior.n_mu * prior.mu0 + n * ybar) / n_mu_new
    n_tau_new = prior.n_tau + n
    inv_rate = (
        prior.n_tau / prior.tau0
        + n * s2
        + prior.n_mu * n * (ybar - prior.mu0) ** 2 / n_mu_new
    )
    return NormalGammaParams(mu0=mu_new, n_mu=n_mu_new, tau0=n_tau_new / inv_rate, n_tau=n_tau_new)


def predictive_params(params: NormalGammaParams) -> tuple[float, float, float]:
    """(df, location, scale) of the Student-t predictive for one report.

    Marginalizing tau ~ Gamma(n_tau/2, rate n_tau/(2 tau0)) and
    mu | tau ~ Normal(mu0, 1/(n_mu tau)) over a Normal(mu, 1/tau)
    observation gives a t with df = n_tau, location mu0, and squared
    scale (n_mu + 1) / (n_mu tau0).
    """
    df = params.n_tau
    scale = math.sqrt((params.n_mu + 1.0) / (params.n_mu * params.tau0))
    return df, params.mu0, scale


#: Degrees of freedom from which the d = 1 gamma ratio of the t's
#: normalizer comes from its asymptotic series rather than a difference of
#: two large ``lgamma`` values (which loses digits as df grows); the series
#: is accurate to double precision from df = 40 on.
_T_SERIES_MIN_DF = 50.0


def _t_log_gamma_ratio(df: float, d: int) -> float:
    """log Gamma((df + d)/2) - log Gamma(df/2) without cancellation.

    Gamma(b + 1) = b Gamma(b) peels off whole steps as a sum of logs
    (exactly log(df/2) at d = 2); an odd d leaves the half step
    log Gamma(a + 1/2) - log Gamma(a), a = df/2, which comes from ``lgamma``
    below ``_T_SERIES_MIN_DF`` and from its asymptotic series above
    (coefficients (2^(1-n) - 2) B_n / (n (n-1)), B_n the Bernoulli numbers).
    """
    a = 0.5 * df
    if not a > 0.0:
        raise DomainError(f"degrees of freedom {df!r} are too small for a t density")
    out = sum(math.log(a + (d / 2 - 1 - j)) for j in range(d // 2))
    if d % 2:
        if df < _T_SERIES_MIN_DF:
            out += math.lgamma(a + 0.5) - math.lgamma(a)
        else:
            z2 = 1.0 / (a * a)
            out += 0.5 * math.log(a) - (
                1 / 8 - z2 * (1 / 192 - z2 * (1 / 640 - z2 * (17 / 14336 - z2 * 31 / 18432)))
            ) / a
    return out


def student_t_logpdf(x, df: float, loc, scale) -> np.ndarray:
    """Log density of a d-variate Student-t, vectorized over ``x``.

    For d = 1, ``loc`` and ``scale`` are scalars (``scale`` the t's scale,
    as in :func:`predictive_params`) and ``x`` is any array of reports.
    For d >= 2, ``loc`` is a d-vector, ``scale`` the d x d positive
    definite shape matrix, and the last axis of ``x`` holds the d
    coordinates.  Returns an array of x's shape less that last axis.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(scale) == 0:
        d = 1
        z = (x - loc) / scale
        qf = z * z
        half_logdet = math.log(scale)
    else:
        chol = np.linalg.cholesky(scale)
        d = chol.shape[0]
        z = np.linalg.solve(chol, (x - loc)[..., None])[..., 0]
        qf = (z * z).sum(axis=-1)
        half_logdet = float(np.log(chol.diagonal()).sum())
    log_norm = _t_log_gamma_ratio(df, d) - 0.5 * d * math.log(df * math.pi) - half_logdet
    return log_norm - 0.5 * (df + d) * np.log1p(qf / df)


def predictive_density(params: NormalGammaParams, x) -> float | np.ndarray:
    """Marginal (predictive) density of the reported log10 LR at ``x``."""
    out = np.exp(student_t_logpdf(x, *predictive_params(params)))
    return float(out) if np.isscalar(x) else out


def predictive_logpdf(params: NormalGammaParams, x) -> float | np.ndarray:
    out = student_t_logpdf(x, *predictive_params(params))
    return float(out) if np.isscalar(x) else out


def lr_for_scalar(
    r: float, h1: NormalGammaParams, h2: NormalGammaParams
) -> LrEstimate:
    """Recipient LR for the expert reporting log10 LR equal to ``r``.

    Closed form: the ratio of the two scenarios' Student-t predictive
    densities at r, so no Monte Carlo error is attached.
    """
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r!r}")
    log10_lr = (predictive_logpdf(h1, r) - predictive_logpdf(h2, r)) / math.log(10.0)
    return LrEstimate.from_log10(log10_lr)


@dataclass(frozen=True)
class ScalarCurve:
    """LR and both predictive densities over a grid of reported values."""

    r: np.ndarray
    density_h1: np.ndarray
    density_h2: np.ndarray
    log10_lr: np.ndarray

    @property
    def lr(self) -> np.ndarray:
        """Linear LR, ``inf`` or 0.0 where it is beyond the float range."""
        with np.errstate(over="ignore", under="ignore"):
            return 10.0**self.log10_lr

    def rows(self):
        """Yield (r, density_h1, density_h2, lr) rows for CSV emission."""
        for row in zip(self.r, self.density_h1, self.density_h2, self.lr):
            yield tuple(float(v) for v in row)


def lr_curve(
    h1: NormalGammaParams, h2: NormalGammaParams, grid: Sequence[float]
) -> ScalarCurve:
    """Pointwise :func:`lr_for_scalar` over a grid, densities included."""
    r = np.asarray(grid, dtype=float)
    if r.size == 0:
        raise DomainError("grid must be nonempty")
    if not np.all(np.isfinite(r)):
        raise DomainError("grid values must be finite")
    log_d1 = predictive_logpdf(h1, r)
    log_d2 = predictive_logpdf(h2, r)
    return ScalarCurve(
        r=r,
        density_h1=np.exp(log_d1),
        density_h2=np.exp(log_d2),
        log10_lr=(log_d1 - log_d2) / math.log(10.0),
    )
