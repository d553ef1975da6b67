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
from typing import Callable, Literal, Sequence

import numpy as np

from .core import LrEstimate
from .errors import DomainError
from .scalar_opinion import student_t_logpdf

__all__ = [
    "NormalWishartParams",
    "PairedLrSummary",
    "update_normal_wishart",
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

#: Defaults chosen so that the packaged "default" preset yields its
#: reference prior-only pair LR near 4.4 (see README); the alternative
#: readings remain available through the keyword arguments.
DEFAULT_DF_CONVENTION: DfConvention = "n0"
DEFAULT_WISHART_MATRIX: WishartMatrix = "rate"

SYMMETRY_TOL = 1e-12


def _as_matrix22(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2, 2):
        raise DomainError(f"{name} must be a 2x2 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class NormalWishartParams:
    """Conjugate state for a bivariate normal with unknown mean and precision."""

    mu0: np.ndarray
    k0: float
    lambda0: np.ndarray
    n0: float

    def __post_init__(self):
        mu = np.asarray(self.mu0, dtype=float)
        if mu.shape != (2,) or not np.all(np.isfinite(mu)):
            raise DomainError(f"mu0 must be a finite 2-vector, got {self.mu0!r}")
        lam = _as_matrix22(self.lambda0, "lambda0")
        if np.max(np.abs(lam - lam.T)) > SYMMETRY_TOL:
            raise DomainError("lambda0 must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(lam)) <= 0.0:
            raise DomainError("lambda0 must be positive definite")
        if not (math.isfinite(self.k0) and self.k0 > 0.0):
            raise DomainError(f"k0 must be positive, got {self.k0!r}")
        if not (math.isfinite(self.n0) and self.n0 >= 2.0):
            raise DomainError(f"n0 must be >= 2 (the dimension), got {self.n0!r}")
        mu.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mu0", mu)
        object.__setattr__(self, "lambda0", lam)

    def to_dict(self) -> dict:
        return {
            "mu0": [float(v) for v in self.mu0],
            "k0": float(self.k0),
            "lambda0": [float(v) for v in self.lambda0.ravel()],
            "n0": float(self.n0),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "NormalWishartParams":
        lam = np.asarray(obj["lambda0"], dtype=float).reshape(2, 2)
        return cls(
            mu0=np.asarray(obj["mu0"], dtype=float),
            k0=float(obj["k0"]),
            lambda0=lam,
            n0=float(obj["n0"]),
        )


#: Packaged prior presets.  "default" centers the mated-scenario means
#: at (5, 5); "alt" pairs the tighter matrix with a (4, 2) mated mean.
#: Both share the H2 mean (-2, -4) and k0 = n0 = 2.
PRIOR_PRESETS: dict = {
    "default": (
        NormalWishartParams(
            mu0=np.array([5.0, 5.0]), k0=2.0,
            lambda0=np.array([[0.1, -0.08], [-0.08, 0.1]]), n0=2.0,
        ),
        NormalWishartParams(
            mu0=np.array([-2.0, -4.0]), k0=2.0,
            lambda0=np.array([[0.1, -0.08], [-0.08, 0.1]]), n0=2.0,
        ),
    ),
    "alt": (
        NormalWishartParams(
            mu0=np.array([4.0, 2.0]), k0=2.0,
            lambda0=np.array([[0.2, -0.15], [-0.15, 0.2]]), n0=2.0,
        ),
        NormalWishartParams(
            mu0=np.array([-2.0, -4.0]), k0=2.0,
            lambda0=np.array([[0.2, -0.15], [-0.15, 0.2]]), n0=2.0,
        ),
    ),
}


@dataclass(frozen=True)
class PairedLrSummary:
    """Sufficient statistics of paired validation log10 LRs for one scenario.

    ``scatter`` is the sum of outer products about the sample mean (not
    divided by the sample count).
    """

    m: int
    mean: np.ndarray
    scatter: np.ndarray

    def __post_init__(self):
        if isinstance(self.m, bool) or int(self.m) != self.m or self.m < 1:
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2,) or not np.all(np.isfinite(mean)):
            raise DomainError(f"mean must be a finite 2-vector, got {self.mean!r}")
        scatter = _as_matrix22(self.scatter, "scatter")
        if np.max(np.abs(scatter - scatter.T)) > SYMMETRY_TOL:
            raise DomainError("scatter must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(scatter)) < -1e-9:
            raise DomainError("scatter must be positive semidefinite")
        mean.setflags(write=False)
        scatter.setflags(write=False)
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scatter", scatter)

    @classmethod
    def from_values(cls, values: Sequence[Sequence[float]]) -> "PairedLrSummary":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise DomainError(f"values must be an (m, 2) array, got shape {arr.shape}")
        mean = arr.mean(axis=0)
        centered = arr - mean
        return cls(m=arr.shape[0], mean=mean, scatter=centered.T @ centered)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def update_normal_wishart(
    prior: NormalWishartParams, data: PairedLrSummary
) -> NormalWishartParams:
    """Conjugate update treating the stored matrix as the Wishart scale."""
    return posterior_params(prior, data, "scale")


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
    scale = wishart_matrix == "scale"
    m = data.m
    d = data.mean - prior.mu0
    inverse_scale = (
        (np.linalg.inv(prior.lambda0) if scale else prior.lambda0)
        + data.scatter
        + (prior.k0 * m / (prior.k0 + m)) * np.outer(d, d)
    )
    return NormalWishartParams(
        mu0=(prior.k0 * prior.mu0 + m * data.mean) / (prior.k0 + m),
        k0=prior.k0 + m,
        lambda0=_symmetrize(np.linalg.inv(inverse_scale) if scale else inverse_scale),
        n0=prior.n0 + m,
    )


def bivariate_t_params(
    params: NormalWishartParams,
    df_convention: DfConvention = DEFAULT_DF_CONVENTION,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(df, location, scale matrix) of the marginal bivariate Student-t.

    The scale matrix is ((k0 (n0 - 1) / (k0 + 1)) W)^-1 where W is the
    Wishart scale matrix under the chosen reading; the factor uses
    n0 - 1 under both df conventions.  Requires n0 > 1 so the scale is
    positive definite.
    """
    if params.n0 <= 1.0:
        raise DomainError(f"marginal t requires n0 > 1, got {params.n0!r}")
    if df_convention == "n0":
        df = params.n0
    elif df_convention == "n0-1":
        df = params.n0 - 1.0
    else:
        raise DomainError(f"unknown df_convention {df_convention!r}")
    if wishart_matrix == "scale":
        w = params.lambda0
    elif wishart_matrix == "rate":
        w = np.linalg.inv(params.lambda0)
    else:
        raise DomainError(f"unknown wishart_matrix {wishart_matrix!r}")
    factor = params.k0 * (params.n0 - 1.0) / (params.k0 + 1.0)
    scale = _symmetrize(np.linalg.inv(factor * w))
    return df, params.mu0, scale


def bivariate_t_logdensity(
    params: NormalWishartParams,
    x: Sequence[float],
    df_convention: DfConvention = DEFAULT_DF_CONVENTION,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> float:
    """Log marginal density of a reported log10-LR pair under one scenario."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise DomainError(f"x must be a finite 2-vector, got {x!r}")
    return float(student_t_logpdf(x, *bivariate_t_params(params, df_convention, wishart_matrix)))


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
    return LrEstimate.from_log10(log_lr / math.log(10.0))


#: Packaged sweep statistics: per-scenario mean and per-observation
#: covariance of the experts' log10 LR pairs in the validation scenarios.
SWEEP_MEAN_H1 = np.array([3.5, 2.5])
SWEEP_MEAN_H2 = np.array([-2.5, -3.5])
SWEEP_COVARIANCE = np.array([[5.0, 4.0], [4.0, 5.0]])


def default_sweep_data(m: int) -> tuple[PairedLrSummary, PairedLrSummary]:
    """Validation summaries of size ``m`` with the packaged sweep statistics."""
    return (
        PairedLrSummary(m=m, mean=SWEEP_MEAN_H1, scatter=m * SWEEP_COVARIANCE),
        PairedLrSummary(m=m, mean=SWEEP_MEAN_H2, scatter=m * SWEEP_COVARIANCE),
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
    data_generator: Callable[[int], tuple[PairedLrSummary, PairedLrSummary]] = default_sweep_data,
    df_convention: DfConvention = DEFAULT_DF_CONVENTION,
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> PairSweepResult:
    """Pair LR at ``x`` after validation sweeps of increasing size.

    Size 0 evaluates the priors unchanged; other sizes update both
    scenarios with ``data_generator(m)`` before evaluating.
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
            d1, d2 = data_generator(m)
            g1 = posterior_params(h1, d1, wishart_matrix)
            g2 = posterior_params(h2, d2, wishart_matrix)
        rows.append(PairSweepRow(m, lr_for_pair(x, g1, g2, df_convention, wishart_matrix)))
    return PairSweepResult(rows=tuple(rows))
