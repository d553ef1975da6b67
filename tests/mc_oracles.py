"""Oracles that only the tests use.

The Monte Carlo oracles draw the conjugate state's parameters and average
the sampling density of the report, sharing no code with the Student-t
closed forms they check.  ``plain_rate_pairs`` is rejection sampling of
categorical rate pairs from the untruncated Dirichlet pair, with neither
reflection nor chunked streams.  ``slice_integrals`` clips the rate box
by the six constraints of ``categorical.admissible_mask`` (Sutherland and
Hodgman 1974) and integrates over what is left.  ``integrate_2d`` is a plain
tensor-product Gauss-Legendre rule for checking densities by integration.
"""

import math
from typing import Sequence

import numpy as np

from evidential_weight import categorical, mc
from evidential_weight.errors import DomainError, QuadratureConvergenceError
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
    lams = sample_wishart(w, params.n0, rng, size=n_draws)
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


def plain_rate_pairs(
    counts: categorical.ConclusionCounts | None,
    n_accepted: int,
    rng: mc.RngStream,
) -> tuple[categorical.RatePairSamples, int]:
    """Admissible rate pairs by plain rejection from numpy's Dirichlet sampler.

    Every proposal comes from the untruncated pair, so the acceptance rate
    estimates the prior mass of the region directly.  Returns the first
    ``n_accepted`` accepted pairs and the number of proposals drawn.
    """
    if counts is None:
        counts = categorical.ConclusionCounts((0, 0, 0), (0, 0, 0))
    alpha_p, alpha_q = counts.alphas()
    gen = rng.generator()
    batch = 1 << 16
    kept_p, kept_q = [], []
    n_kept = n_proposed = 0
    while n_kept < n_accepted:
        p = gen.dirichlet(alpha_p, size=batch)
        q = gen.dirichlet(alpha_q, size=batch)
        mask = categorical.admissible_mask(p, q)
        kept_p.append(p[mask])
        kept_q.append(q[mask])
        n_kept += int(mask.sum())
        n_proposed += batch
    samples = categorical.RatePairSamples(
        np.concatenate(kept_p)[:n_accepted],
        np.concatenate(kept_q)[:n_accepted],
        acceptance_rate=n_kept / n_proposed,
    )
    return samples, n_proposed


def _slacks(p, q):
    """The six constraints of ``categorical.admissible_mask``, each as a
    value that is positive where it holds."""
    return (
        p[0] - p[2],
        p[0] - q[0],
        q[2] - q[0],
        q[2] - p[2],
        p[0] * q[1] - p[1] * q[0],
        p[1] * q[2] - p[2] * q[1],
    )


def slice_integrals(p, q, j: int, reflected: tuple[bool, bool]) -> tuple[float, float, float]:
    """Integrals of p_j, of q_j and of 1 over the region's slice at one
    row's other rates, each divided by the area of the proposal's support
    there.

    ``p`` and ``q`` are one row's rates, (ID, Inc, Exc).  For ``j`` = 0 or
    2 the Inc rates stay fixed and (x, y) = (p_j, q_j) range over the box
    [0, 1 - p_Inc] x [0, 1 - q_Inc], with the other rates the remainders;
    for ``j`` = 1 the ID rates stay fixed and (x, y) = (p_Inc, q_Inc), with
    the Exc rates the remainders.  Each
    constraint is affine in (x, y) on a slice, so clipping the box by the
    six, one after another, leaves the slice's polygon, whose area and
    first moments are summed over a fan of triangles from its first
    vertex; an empty slice gives 0.  ``reflected`` says whether the
    mated and the non-mated factor are proposed reflected into p_ID >
    p_Exc and q_Exc > q_ID, which halves the box along that axis: the
    support.
    """
    fixed = 0 if j == 1 else 1
    rest = 3 - j - fixed

    def rates(x, y):
        pp, qq = [0.0] * 3, [0.0] * 3
        pp[fixed], qq[fixed] = p[fixed], q[fixed]
        pp[j], qq[j] = x, y
        pp[rest], qq[rest] = 1.0 - p[fixed] - x, 1.0 - q[fixed] - y
        return pp, qq

    bx, by = 1.0 - p[fixed], 1.0 - q[fixed]
    # the support: the box, less what reflection leaves out, which halves
    # the ID-Exc axes and cuts the Inc ones against the Exc rate
    if j != 1:
        width = 0.5 * bx if reflected[0] else bx
        height = 0.5 * by if reflected[1] else by
    else:
        width = min(bx, p[0]) if reflected[0] else bx
        height = max(by - q[0], 0.0) if reflected[1] else by
    support = width * height
    polygon = [(0.0, 0.0), (bx, 0.0), (bx, by), (0.0, by)]
    for i in range(6):
        values = [_slacks(*rates(x, y))[i] for x, y in polygon]
        clipped = []
        for k, (vertex, value) in enumerate(zip(polygon, values)):
            after, after_value = polygon[(k + 1) % len(polygon)], values[(k + 1) % len(polygon)]
            if value >= 0.0:
                clipped.append(vertex)
            if (value >= 0.0) != (after_value >= 0.0):
                t = value / (value - after_value)
                clipped.append((vertex[0] + t * (after[0] - vertex[0]),
                                vertex[1] + t * (after[1] - vertex[1])))
        polygon = clipped
    (x0, y0), area, mx, my = polygon[0] if polygon else (0.0, 0.0), 0.0, 0.0, 0.0
    for (xa, ya), (xb, yb) in zip(polygon[1:], polygon[2:]):
        xa, ya, xb, yb = xa - x0, ya - y0, xb - x0, yb - y0
        cross = xa * yb - xb * ya
        area += cross
        mx += cross * (xa + xb)
        my += cross * (ya + yb)
    if not area > 0.0:  # clipped away, or to a point or a line
        return 0.0, 0.0, 0.0
    return ((x0 * area + mx / 3.0) / (2.0 * support), (y0 * area + my / 3.0) / (2.0 * support),
            area / (2.0 * support))


def sample_wishart(
    scale: np.ndarray, df: float, rng: mc.RngStream, size: int = 1
) -> np.ndarray:
    """Draw ``size`` Wishart(scale, df) matrices via Bartlett decomposition.

    Uses the scale-matrix convention: the mean of a draw is ``df * scale``.
    Requires ``df >= d`` where ``d`` is the matrix dimension.
    """
    scale = np.asarray(scale, dtype=float)
    d = scale.shape[0]
    if scale.shape != (d, d):
        raise DomainError(f"scale must be square, got shape {scale.shape}")
    if df < d:
        raise DomainError(f"wishart df must be >= dimension {d}, got {df!r}")
    lo = np.linalg.cholesky(scale)
    gen = rng.generator()
    a = np.zeros((size, d, d))
    for i in range(d):
        a[:, i, i] = np.sqrt(gen.chisquare(df - i, size=size))
        if i > 0:
            a[:, i, :i] = gen.standard_normal(size=(size, i))
    m = lo[None, :, :] @ a
    return m @ np.transpose(m, (0, 2, 1))


def _tensor_estimate(f, spec: mc.QuadratureSpec, panels: int) -> float:
    a, wa = mc.gauss_nodes(spec.a_lo, spec.a_hi, panels, spec.gauss_order)
    b, wb = mc.gauss_nodes(spec.b_lo, spec.b_hi, panels, spec.gauss_order)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    try:
        values = np.asarray(f(aa, bb), dtype=float)
    except (TypeError, ValueError):
        values = np.vectorize(f)(aa, bb).astype(float)
    if values.shape != aa.shape:
        values = np.broadcast_to(values, aa.shape)
    return float(wa @ values @ wb)


def integrate_2d(f, spec: mc.QuadratureSpec) -> float:
    """Integrate a nonnegative function over the spec's rectangle.

    Refines a composite Gauss-Legendre tensor rule by doubling the panel
    count per axis until two successive estimates agree to ``rel_tol``
    relatively.  Refinement also stops at ``mc.MAX_NODES_PER_DIM`` nodes
    per axis, which counts as budget exhaustion.

    Raises
    ------
    QuadratureConvergenceError
        Carrying the last two estimates if the budget is exhausted.
    """
    previous = _tensor_estimate(f, spec, spec.base_panels)
    current = previous
    for level in range(1, spec.max_refinements + 1):
        panels = spec.base_panels * (2**level)
        if panels * spec.gauss_order > mc.MAX_NODES_PER_DIM:
            break
        current = _tensor_estimate(f, spec, panels)
        if abs(current - previous) <= spec.rel_tol * max(abs(current), 1e-300):
            return current
        previous = current
    raise QuadratureConvergenceError(
        f"no convergence to rel_tol={spec.rel_tol:g} within "
        f"{spec.max_refinements} refinements",
        last_two_estimates=(previous, current),
    )
