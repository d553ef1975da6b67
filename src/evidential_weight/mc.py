"""Deterministic seeded sampling, rejection sampling, and 2-D quadrature.

Every sampler is a pure function of an :class:`RngStream` value, so results
are reproducible bit-for-bit across runs.  Each stream and each chunk of a
stream draws from its own SFC64 bit generator, seeded by a
``SeedSequence`` keyed on (seed, stream_id[, chunk index]).  Rejection
sampling consumes randomness in fixed-size chunks, one child stream per
chunk index, which makes the output independent of how many worker threads
evaluate the chunks.  The acceptance rate it reports is that of the
proposal it is given; a caller whose proposal covers only part of the
untruncated distribution (see :func:`categorical.sample_rate_pairs`)
scales the rate, and the floor, by that part's mass.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintIntractableError, DomainError, QuadratureConvergenceError

__all__ = [
    "RngStream",
    "QuadratureSpec",
    "RejectionResult",
    "rejection_sample",
    "gauss_nodes",
    "log_integrate_2d",
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


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads(threads: int | None = None) -> int:
    """Worker-thread cap: explicit argument, else the environment, else the
    number of CPUs this process may run on."""
    if threads is None:
        raw = os.environ.get(_THREADS_ENV_VAR, "")
        try:
            threads = int(raw) if raw.strip() else _available_cpus()
        except ValueError:
            raise DomainError(f"{_THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
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
        return np.random.Generator(np.random.SFC64(ss))

    def chunk_generator(self, chunk_index: int) -> np.random.Generator:
        """Generator for one rejection-sampling chunk of this stream."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, int(chunk_index))
        )
        return np.random.Generator(np.random.SFC64(ss))

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


def rejection_sample(
    proposal: Callable[[np.random.Generator, int], np.ndarray],
    accept: Callable[[np.ndarray], np.ndarray],
    target_accepted: int,
    rng: RngStream,
    *,
    chunk_size: int = CHUNK_SIZE,
    floor: float = INTRACTABLE_FLOOR,
    probe: int | None = None,
    threads: int | None = None,
) -> RejectionResult:
    """Draw until ``target_accepted`` proposals satisfy the predicate.

    ``proposal(generator, n)`` must return ``n`` draws (the rows of a 2-D
    array); ``accept`` maps those rows to a boolean mask and must be pure.
    Worker threads keep up to ``threads`` proposal chunks in flight (fewer
    near the end, where the acceptance rate so far puts the target in
    reach), and none is left running on return.  ``accept`` runs on the
    calling thread, one chunk at a time in chunk-index order, and the
    accepted rows go straight into one buffer of ``target_accepted`` rows
    whose columns are each contiguous (Fortran order).  The result and
    every counter are identical for any ``threads`` value.  A chunk
    whose kept rows are its first ones (every chunk where nearly all
    proposals pass) is copied as one block.

    Raises
    ------
    ConstraintIntractableError
        If the empirical acceptance rate is below ``floor`` once ``probe``
        proposals (``INTRACTABLE_PROBE`` when None) have been spent.
    MemoryError
        If the buffer for ``target_accepted`` rows cannot be allocated.
    """
    if target_accepted < 1:
        raise DomainError(f"target_accepted must be >= 1, got {target_accepted!r}")
    threads = resolve_threads(threads)
    if probe is None:
        probe = INTRACTABLE_PROBE

    def propose(index: int) -> np.ndarray:
        return proposal(rng.chunk_generator(index), chunk_size)

    samples = None
    n_accepted = 0  # every accepted proposal, including the last chunk's surplus
    n_kept = 0
    n_chunks = 0
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    in_flight: deque = deque()
    try:
        while n_kept < target_accepted:
            if pool is None:
                draws = propose(n_chunks)
            else:
                # top up, but skip chunks that those in flight, at the
                # acceptance rate so far, are expected to make unnecessary
                while len(in_flight) < threads and (
                    n_chunks == 0
                    or n_accepted * (n_chunks + len(in_flight)) < target_accepted * n_chunks
                ):
                    in_flight.append(pool.submit(propose, n_chunks + len(in_flight)))
                draws = in_flight.popleft().result()
            mask = np.asarray(accept(draws), dtype=bool)
            n_chunks += 1
            if samples is None:
                samples = _row_buffer(target_accepted, draws)
            rows = np.flatnonzero(mask)
            n_accepted += rows.size
            rows = rows[: target_accepted - n_kept]
            kept = slice(n_kept, n_kept + rows.size)
            if rows.size and rows[-1] == rows.size - 1:
                # the kept rows are the chunk's first ones: one block copy
                samples[kept] = draws[: rows.size]
            else:
                for j in range(draws.shape[1]):
                    # "clip" skips the bounds check, which would copy via a temporary
                    np.take(draws[:, j], rows, out=samples[kept, j], mode="clip")
            n_kept += rows.size
            n_proposed = n_chunks * chunk_size
            if n_proposed >= probe and n_accepted < floor * n_proposed:
                raise ConstraintIntractableError(
                    f"acceptance rate {n_accepted / n_proposed:.3g} below floor "
                    f"{floor:g} after {n_proposed} proposals",
                    acceptance_rate=n_accepted / n_proposed,
                    n_proposed=n_proposed,
                )
    finally:
        if pool is not None:
            # no proposal outlives the call
            pool.shutdown(wait=True, cancel_futures=True)

    return RejectionResult(
        samples=samples,
        acceptance_rate=n_accepted / n_proposed,
        n_proposed=n_proposed,
        n_chunks=n_chunks,
    )


def _row_buffer(n_rows: int, draws: np.ndarray) -> np.ndarray:
    """Uninitialized room for ``n_rows`` rows like those of ``draws``, columns contiguous."""
    try:
        return np.empty((n_rows, draws.shape[1]), dtype=draws.dtype, order="F")
    except MemoryError:
        size = n_rows * draws.shape[1] * draws.dtype.itemsize
        raise MemoryError(f"{n_rows} draws need {size / 2**30:.3g} GiB") from None


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
    """Integrate exp(logf) over the spec's rectangle, returning the log integral.

    Refines a composite Gauss-Legendre tensor rule by doubling the panel
    count per axis, up to ``MAX_NODES_PER_DIM`` nodes per axis.  Shifts
    by the grid maximum before exponentiating, so integrands whose scale
    overflows float64 are handled.  Convergence is judged on the log
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
