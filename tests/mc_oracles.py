"""Monte Carlo oracles for the closed-form predictive densities.

Each draws the conjugate state's parameters and averages the sampling
density of the report, sharing no code with the Student-t closed forms
they check.
"""

import math
from typing import Sequence

import numpy as np

from evidential_weight import mc
from evidential_weight.multi_expert import (
    DEFAULT_WISHART_MATRIX,
    NormalWishartParams,
    WishartMatrix,
)
from evidential_weight.scalar_opinion import NormalGammaParams


def mc_blend_density(
    params: NormalGammaParams,
    x: float,
    n_draws: int = 200_000,
    rng: mc.RngStream = mc.RngStream(0),
) -> tuple[float, float]:
    """Monte Carlo estimate of the scalar predictive density at one point.

    Draws (tau, mu) from the conjugate state and averages the normal
    density of ``x``; returns (estimate, standard error).
    """
    gen = rng.generator()
    tau = gen.gamma(params.n_tau / 2.0, scale=2.0 * params.tau0 / params.n_tau, size=n_draws)
    mu = gen.normal(params.mu0, 1.0 / np.sqrt(params.n_mu * tau))
    dens = np.sqrt(tau / (2.0 * np.pi)) * np.exp(-0.5 * tau * (x - mu) ** 2)
    return float(dens.mean()), float(dens.std(ddof=1) / math.sqrt(n_draws))


def mc_predictive_logdensity(
    params: NormalWishartParams,
    x: Sequence[float],
    n_draws: int = 100_000,
    rng: mc.RngStream = mc.RngStream(0),
    wishart_matrix: WishartMatrix = DEFAULT_WISHART_MATRIX,
) -> tuple[float, float]:
    """Monte Carlo route to the two-expert marginal density at ``x``.

    Samples precision matrices from Wishart(W, n0) under the chosen
    matrix reading, means from Normal(mu0, (k0 Lambda)^-1), and averages
    the bivariate normal density of ``x``.  Returns (log density,
    standard error of the log).  This estimates the exact marginal,
    whose closed form is the ``"n0-1"`` df convention.
    """
    x = np.asarray(x, dtype=float)
    w = params.lambda0 if wishart_matrix == "scale" else np.linalg.inv(params.lambda0)
    lams = mc.sample_wishart(w, params.n0, rng, size=n_draws)
    gen = rng.substream(1).generator()
    # mu | Lambda ~ N(mu0, (k0 Lambda)^-1) via Cholesky of each precision
    chols = np.linalg.cholesky(lams)
    z = gen.standard_normal((n_draws, 2))
    mus = params.mu0 + np.linalg.solve(
        np.transpose(chols, (0, 2, 1)), z[:, :, None]
    )[:, :, 0] / math.sqrt(params.k0)
    diffs = x[None, :] - mus
    # N(x; mu, Lambda^-1) evaluated with the precision directly
    qf = np.einsum("ni,nij,nj->n", diffs, lams, diffs)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    dens = np.exp(-0.5 * qf + 0.5 * logdet) / (2.0 * math.pi)
    mean = float(dens.mean())
    se = float(dens.std(ddof=1) / math.sqrt(n_draws))
    return math.log(mean), se / mean
