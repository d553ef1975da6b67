"""Deterministic seeded sampling, rejection sampling, and 2-D quadrature.

Every sampler is a pure function of an :class:`RngStream` value, so results
are reproducible bit-for-bit across runs.  Rejection sampling consumes
randomness in fixed-size chunks, one child stream per chunk index, which
makes the output independent of how many worker threads evaluate the
chunks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConstraintIntractableError, DomainError, QuadratureConvergenceError

__all__ = [
    "RngStream",
    "QuadratureSpec",
    "RejectionResult",
    "sample_dirichlet3",
    "rejection_sample",
    "gauss_nodes",
    "integrate_2d",
    "log_integrate_2d",
    "sample_gamma",
    "sample_wishart",
    "resolve_threads",
]

#: Proposals drawn per rejection-sampling chunk.  Part of the determinism
#: contract: chunk ``c`` of a stream always covers the same proposals.
CHUNK_SIZE = 1 << 17

#: Acceptance-rate floor below which a constraint is declared intractable.
INTRACTABLE_FLOOR = 1e-6

#: Number of proposals spent probing before the floor is enforced.
INTRACTABLE_PROBE = 10_000_000

_THREADS_ENV_VAR = "EVIDENTIAL_WEIGHT_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Worker-thread cap: explicit argument, else the environment, else 1."""
    if threads is None:
        raw = os.environ.get(_THREADS_ENV_VAR, "")
        threads = int(raw) if raw.strip() else 1
    if threads < 1:
        raise DomainError(f"thread count must be >= 1, got {threads!r}")
    return threads


@dataclass(frozen=True)
class RngStream:
    """A named position in seed space: (seed, stream_id) fixes all draws."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if not 0 <= int(self.stream_id) < 2**64:
            raise DomainError(f"stream_id must fit in 64 unsigned bits, got {self.stream_id!r}")

    def generator(self) -> np.random.Generator:
        """Generator for direct (unchunked) sampling from this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def chunk_generator(self, chunk_index: int) -> np.random.Generator:
        """Generator for one rejection-sampling chunk of this stream."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, int(chunk_index))
        )
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, offset: int) -> "RngStream":
        """The stream ``offset`` positions after this one (offset >= 1)."""
        return RngStream(self.seed, self.stream_id + int(offset))


@dataclass(frozen=True)
class QuadratureSpec:
    """Rectangle and stopping rule for 2-D quadrature.

    The rectangle lives in the integrand's parameter space.  Refinement
    doubles the panel count per axis until two successive estimates agree
    to ``rel_tol`` relatively.

    For the interval width model the rate bounds ``b_lo``/``b_hi`` are the
    limits of a closed-form rate integral; the panels, Gauss order and
    refinement levels apply to the shape axis alone.
    """

    a_lo: float
    a_hi: float
    b_lo: float
    b_hi: float
    rel_tol: float = 1e-6
    max_refinements: int = 8
    base_panels: int = 16
    gauss_order: int = 4

    def __post_init__(self):
        if not (self.a_lo < self.a_hi and self.b_lo < self.b_hi):
            raise DomainError("quadrature domain must satisfy a_lo < a_hi and b_lo < b_hi")
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.max_refinements < 0 or self.base_panels < 1 or self.gauss_order < 1:
            raise DomainError("max_refinements, base_panels, gauss_order must be positive")


@dataclass(frozen=True)
class RejectionResult:
    """Accepted samples plus the acceptance-rate diagnostic."""

    samples: np.ndarray
    acceptance_rate: float
    n_proposed: int
    n_chunks: int


def sample_dirichlet3(
    alpha: Sequence[float], rng: RngStream, size: int = 1
) -> np.ndarray:
    """Draw ``size`` points on the 3-simplex from Dirichlet(alpha).

    Returns an array of shape ``(size, 3)`` whose rows are nonnegative and
    sum to one.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,):
        raise DomainError(f"alpha must have exactly 3 components, got shape {alpha.shape}")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
        raise DomainError(f"alpha components must be positive and finite, got {alpha!r}")
    if size < 1:
        raise DomainError(f"size must be >= 1, got {size!r}")
    return rng.generator().dirichlet(alpha, size=int(size))


def sample_gamma(
    shape: float, rate: float, rng: RngStream, size: int = 1
) -> np.ndarray:
    """Draw from Gamma(shape, rate) with the rate (inverse-scale) convention."""
    if shape <= 0 or rate <= 0:
        raise DomainError(f"gamma shape and rate must be positive, got {shape!r}, {rate!r}")
    return rng.generator().gamma(shape, scale=1.0 / rate, size=int(size))


def sample_wishart(
    scale: np.ndarray, df: float, rng: RngStream, size: int = 1
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


def rejection_sample(
    proposal: Callable[[np.random.Generator, int], np.ndarray],
    accept: Callable[[np.ndarray], np.ndarray],
    target_accepted: int,
    rng: RngStream,
    *,
    chunk_size: int = CHUNK_SIZE,
    floor: float = INTRACTABLE_FLOOR,
    probe: int = INTRACTABLE_PROBE,
    threads: int | None = None,
) -> RejectionResult:
    """Draw until ``target_accepted`` proposals satisfy the predicate.

    ``proposal(generator, n)`` must return ``n`` draws (rows); ``accept``
    maps those rows to a boolean mask and must be pure.  Chunks are indexed
    from zero and assembled in index order, so the result is identical for
    any ``threads`` value.

    Raises
    ------
    ConstraintIntractableError
        If the empirical acceptance rate is below ``floor`` once ``probe``
        proposals have been spent.
    """
    if target_accepted < 1:
        raise DomainError(f"target_accepted must be >= 1, got {target_accepted!r}")
    threads = resolve_threads(threads)

    def run_chunk(index: int) -> np.ndarray:
        gen = rng.chunk_generator(index)
        draws = proposal(gen, chunk_size)
        mask = np.asarray(accept(draws), dtype=bool)
        return draws[mask]

    kept: list[np.ndarray] = []
    n_accepted = 0
    n_proposed = 0
    n_chunks = 0
    next_index = 0
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while n_accepted < target_accepted:
            wave = list(range(next_index, next_index + threads))
            next_index += threads
            if pool is not None:
                batches = list(pool.map(run_chunk, wave))
            else:
                batches = [run_chunk(i) for i in wave]
            # Consume in chunk order; stop at the same chunk regardless of
            # how many were precomputed in this wave.
            for batch in batches:
                kept.append(batch)
                n_accepted += batch.shape[0]
                n_proposed += chunk_size
                n_chunks += 1
                if n_proposed >= probe and n_accepted < floor * n_proposed:
                    raise ConstraintIntractableError(
                        f"acceptance rate {n_accepted / n_proposed:.3g} below floor "
                        f"{floor:g} after {n_proposed} proposals",
                        acceptance_rate=n_accepted / n_proposed,
                        n_proposed=n_proposed,
                    )
                if n_accepted >= target_accepted:
                    break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    samples = np.concatenate(kept, axis=0)[:target_accepted]
    return RejectionResult(
        samples=samples,
        acceptance_rate=n_accepted / n_proposed,
        n_proposed=n_proposed,
        n_chunks=n_chunks,
    )


#: Per-axis node budget for the refinement ladder; a level that would
#: exceed it counts as budget exhaustion rather than allocating the grid.
MAX_NODES_PER_DIM = 3000


def gauss_nodes(lo, hi, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi].

    Scalar bounds give 1-D arrays; arrays of bounds give one row of
    nodes (last axis) per interval.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = mid.shape[:-1] + (panels * order,)
    nodes = (mid[..., None] + half[..., None] * x).reshape(shape)
    weights = (half[..., None] * w).reshape(shape)
    return nodes, weights


def _tensor_estimate(f, spec: QuadratureSpec, panels: int) -> float:
    a, wa = gauss_nodes(spec.a_lo, spec.a_hi, panels, spec.gauss_order)
    b, wb = gauss_nodes(spec.b_lo, spec.b_hi, panels, spec.gauss_order)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    try:
        values = np.asarray(f(aa, bb), dtype=float)
    except (TypeError, ValueError):
        values = np.vectorize(f)(aa, bb).astype(float)
    if values.shape != aa.shape:
        values = np.broadcast_to(values, aa.shape)
    return float(wa @ values @ wb)


def integrate_2d(f, spec: QuadratureSpec) -> float:
    """Integrate a nonnegative function over the spec's rectangle.

    Refines a composite Gauss-Legendre tensor rule by doubling the panel
    count per axis until two successive estimates agree to ``rel_tol``
    relatively.  Refinement also stops at ``MAX_NODES_PER_DIM`` nodes per
    axis, which counts as budget exhaustion.

    Raises
    ------
    QuadratureConvergenceError
        Carrying the last two estimates if the budget is exhausted.
    """
    previous = _tensor_estimate(f, spec, spec.base_panels)
    current = previous
    for level in range(1, spec.max_refinements + 1):
        panels = spec.base_panels * (2**level)
        if panels * spec.gauss_order > MAX_NODES_PER_DIM:
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


def _tensor_log_estimate(logf, spec: QuadratureSpec, panels: int) -> float:
    a, wa = gauss_nodes(spec.a_lo, spec.a_hi, panels, spec.gauss_order)
    b, wb = gauss_nodes(spec.b_lo, spec.b_hi, panels, spec.gauss_order)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    logv = np.asarray(logf(aa, bb), dtype=float)
    shift = float(np.max(logv))
    if not np.isfinite(shift):
        raise DomainError("log-integrand has no finite values on the domain")
    total = float(wa @ np.exp(logv - shift) @ wb)
    return shift + np.log(total)


def log_integrate_2d(logf, spec: QuadratureSpec) -> float:
    """Like :func:`integrate_2d` for exp(logf), returning the log integral.

    Shifts by the grid maximum before exponentiating, so integrands whose
    scale overflows float64 are handled. Convergence is judged on the log
    values: two successive refinements must agree within ``rel_tol``
    (a relative criterion on the underlying integral).
    """
    previous = _tensor_log_estimate(logf, spec, spec.base_panels)
    current = previous
    for level in range(1, spec.max_refinements + 1):
        panels = spec.base_panels * (2**level)
        if panels * spec.gauss_order > MAX_NODES_PER_DIM:
            break
        current = _tensor_log_estimate(logf, spec, panels)
        if abs(current - previous) <= spec.rel_tol:
            return current
        previous = current
    raise QuadratureConvergenceError(
        f"no convergence to rel_tol={spec.rel_tol:g} within "
        f"{spec.max_refinements} refinements",
        last_two_estimates=(previous, current),
    )
