"""Recipient LR when the expert reports a scalar weight of evidence.

The expert's log10 LR is modeled as normal per scenario with unknown mean
and precision under a Normal-Gamma conjugate prior, so the recipient's
marginal (predictive) distribution for the reported value is Student-t.
The recipient's LR for hearing a particular value r is the ratio of the
two scenarios' predictive densities at r.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

from .core import LrEstimate, linear_lr, require_count, require_positive, student_t_logpdf
from .errors import DomainError

__all__ = [
    "NormalGammaParams",
    "ScalarValidationSummary",
    "update_normal_gamma",
    "predictive_params",
    "predictive_logpdf",
    "lr_for_scalar",
    "lr_curve",
    "ScalarCurve",
    "DEFAULT_PRIORS",
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
        object.__setattr__(self, "mu0", float(self.mu0))
        if not math.isfinite(self.mu0):
            raise DomainError(f"mu0 must be finite, got {self.mu0!r}")
        for name in ("n_mu", "tau0", "n_tau"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))

    def to_dict(self) -> dict:
        return {"mu0": self.mu0, "n_mu": self.n_mu, "tau0": self.tau0, "n_tau": self.n_tau}

    @classmethod
    def from_dict(cls, obj: dict) -> "NormalGammaParams":
        return cls(float(obj["mu0"]), float(obj["n_mu"]), float(obj["tau0"]), float(obj["n_tau"]))


#: The command line's priors (H1, H2) when none are given, for a scalar
#: report and for an interval's midpoint.
DEFAULT_PRIORS = (
    NormalGammaParams(5.0, 1.0, 0.01, 1.0),
    NormalGammaParams(-5.0, 1.0, 0.01, 1.0),
)


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
        if require_count("n", self.n) < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        if not math.isfinite(self.mean):
            raise DomainError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise DomainError(f"variance must be nonnegative, got {self.variance!r}")
        object.__setattr__(self, "n", int(self.n))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ScalarValidationSummary":
        values = [float(v) for v in values]
        if not values:
            raise DomainError("at least one validation value is required")
        mean = math.fsum(values) / len(values)  # fsum raises OverflowError past the float range
        variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
        if math.isinf(mean) or math.isinf(variance):  # nan: left to __post_init__
            raise OverflowError("the validation values' spread is beyond the float range")
        return cls(n=len(values), mean=mean, variance=variance)


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


def _t_logpdf(x: float, df: float, loc: float, scale: float) -> float:
    """Log density at ``x`` of the univariate t with ``df``, ``loc`` and ``scale``."""
    z = (x - loc) / scale
    if not math.isfinite(z):
        raise OverflowError(f"report {x!r} is too far from {loc!r} in units of {scale!r}")
    q = z * z
    return student_t_logpdf(q, df, 1, math.log(scale),
                            2.0 * math.log(abs(z)) if q == math.inf else None)


def predictive_logpdf(params: NormalGammaParams, x: float) -> float:
    """Log marginal (predictive) density of the reported log10 LR at ``x``."""
    return _t_logpdf(x, *predictive_params(params))


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
    return LrEstimate(log10_lr)


@dataclass(frozen=True)
class ScalarCurve:
    """LR and both predictive densities over a grid of reported values."""

    r: array
    density_h1: array
    density_h2: array
    log10_lr: array

    @property
    def lr(self) -> array:
        """Linear LR, ``inf`` or 0.0 where it is beyond the float range."""
        return array("d", map(linear_lr, self.log10_lr))

    def rows(self):
        """Yield (r, density_h1, density_h2, lr) rows for CSV emission."""
        return zip(self.r, self.density_h1, self.density_h2, self.lr)


def lr_curve(
    h1: NormalGammaParams, h2: NormalGammaParams, grid: Sequence[float]
) -> ScalarCurve:
    """Pointwise :func:`lr_for_scalar` over a grid, densities included."""
    r = array("d", grid)
    if not r:
        raise DomainError("grid must be nonempty")
    if not all(map(math.isfinite, r)):
        raise DomainError("grid values must be finite")
    log_d1, log_d2 = (array("d", (_t_logpdf(x, *t) for x in r))
                      for t in map(predictive_params, (h1, h2)))
    return ScalarCurve(
        r=r,
        density_h1=array("d", map(math.exp, log_d1)),
        density_h2=array("d", map(math.exp, log_d2)),
        log10_lr=array("d", ((a - b) / math.log(10.0) for a, b in zip(log_d1, log_d2))),
    )
