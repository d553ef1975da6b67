"""Deterministic seeded sampling, rejection sampling, and 2-D quadrature.

Every sampler is a pure function of an :class:`RngStream` value, so results
are reproducible bit-for-bit across runs.  Each stream and each chunk of a
stream draws from its own SFC64 bit generator, seeded by a
``SeedSequence`` keyed on (seed, stream_id[, chunk index]).  Rejection
sampling consumes randomness in fixed-size chunks, one child stream per
chunk index, which makes the output independent of how many worker threads
evaluate the chunks.  :func:`rejection_stream` draws one rejection target
on its own pool, of one worker or more, and hands each chunk it takes,
as drawn, to a consumer in chunk-index order, with a mask of the
proposals that count: those accepted, up to the target; the pool's
threads draw under the caller's numpy error state, so a float guard set
around the call holds for them too.  Every command folds them into
running estimates (:class:`categorical.DrawSummary`), in the memory of a
few chunks; :func:`rejection_sample` collects the kept rows into one
buffer, for library callers that want the draws, with their proposal
indices, from which :mod:`categorical` tells the two draws of an
antithetic pair.  The acceptance rate reported is the share of
proposals accepted times the proposal's mass, so a caller whose
proposal covers only part of the untruncated distribution (see
:func:`categorical.sample_rate_pairs`) gets that distribution's rate,
held to the floor.  The chunk size and the intractability thresholds
(``CHUNK_SIZE``, ``INTRACTABLE_FLOOR``, ``INTRACTABLE_PROBE``) are
module constants, not parameters; the chunk loop reads them as it runs.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintIntractableError, DomainError, QuadratureConvergenceError

__all__ = [
    "RngStream",
    "QuadratureSpec",
    "RejectionResult",
    "rejection_stream",
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

#: Most worker threads a sampler may use; each holds a chunk in flight.
MAX_THREADS = 64

_THREADS_ENV_VAR = "EVIDENTIAL_WEIGHT_THREADS"


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads(threads: int | None = None) -> int:
    """Worker-thread cap: explicit argument, else the environment, else the
    number of CPUs this process may run on, at most ``MAX_THREADS``."""
    if threads is None:
        raw = os.environ.get(_THREADS_ENV_VAR, "")
        try:
            threads = int(raw) if raw.strip() else min(_available_cpus(), MAX_THREADS)
        except ValueError:
            raise DomainError(f"{_THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 1 <= threads <= MAX_THREADS:
        raise DomainError(f"thread count must be from 1 to {MAX_THREADS}, got {threads!r}")
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
        """The stream ``offset`` positions after this one (itself at offset 0)."""
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
    """Accepted samples plus the acceptance-rate diagnostic.

    ``index`` holds each sample's proposal index: row ``r`` of chunk
    ``c`` is ``c * CHUNK_SIZE + r``.
    """

    samples: np.ndarray
    acceptance_rate: float
    n_proposed: int
    n_chunks: int
    index: np.ndarray


def rejection_stream(
    proposal: Callable[[np.random.Generator, int], np.ndarray],
    accept: Callable[[np.ndarray], np.ndarray],
    target_accepted: int,
    rng: RngStream,
    consume: Callable[[np.ndarray, np.ndarray], None],
    *,
    threads: int | None = None,
    proposal_mass: float = 1.0,
) -> tuple[float, int, int]:
    """Draw until ``target_accepted`` proposals pass ``accept``, handing each chunk on.

    ``proposal(generator, n)`` returns ``n`` draws (the rows of a 2-D
    array); ``accept`` maps them to a boolean mask and must be pure.
    ``consume(chunk, kept)`` receives each chunk taken, whether it keeps
    rows or not: ``chunk``, all ``CHUNK_SIZE`` of its proposals as drawn,
    and ``kept``, the boolean mask of those that count, the accepted ones
    up to the ``target_accepted``-th of the stream and none past it.  Row
    ``r`` of chunk ``c`` is proposal ``c * CHUNK_SIZE + r``.  A pool
    of ``threads`` workers, one at ``threads=1``, draws the chunks, with
    up to ``threads`` in flight, no more than the acceptance rate so far
    says are needed; ``accept`` and ``consume`` run on the calling thread
    in chunk-index order, so the consumed chunks, their masks and every
    counter are identical for any ``threads`` value.  Each worker draws
    its chunk in a copy of the calling thread's context, so under the
    caller's numpy error state too (``np.errstate`` is a context
    variable, and a new thread starts with the default): a float error
    that raises on one thread raises on any number.  No chunk or worker
    outlives the call.

    Returns (acceptance rate, proposals drawn, chunks drawn).  The rate,
    also the one held to the floor, is the share of proposals accepted
    times ``proposal_mass``, the share of the untruncated distribution
    the proposal covers.

    Raises
    ------
    ConstraintIntractableError
        If the acceptance rate is below ``INTRACTABLE_FLOOR`` once
        ``INTRACTABLE_PROBE`` proposals have been spent.
    """
    if target_accepted < 1:
        raise DomainError(f"target_accepted must be >= 1, got {target_accepted!r}")
    threads = resolve_threads(threads)
    # imported here, so that a process that draws nothing, or only wants
    # a QuadratureSpec, loads neither it nor its logging
    from concurrent.futures import ThreadPoolExecutor

    n_chunks = n_accepted = n_kept = 0  # n_accepted counts the last chunk's surplus too

    def propose(index: int) -> np.ndarray:
        return proposal(rng.chunk_generator(index), CHUNK_SIZE)

    pool = ThreadPoolExecutor(max_workers=threads)
    pending: deque = deque()  # futures of the next chunks, in index order
    try:
        while n_kept < target_accepted:
            # the first chunk taken sets the rate; until then, fill the pool
            while len(pending) < threads and (
                n_chunks == 0
                or n_accepted * (n_chunks + len(pending)) < target_accepted * n_chunks
            ):
                # in a copy of the caller's context: its numpy error state
                pending.append(pool.submit(
                    contextvars.copy_context().run, propose, n_chunks + len(pending)))
            draws = pending.popleft().result()
            kept = np.asarray(accept(draws), dtype=bool)
            n_new = int(np.count_nonzero(kept))
            n_accepted += n_new
            if n_kept + n_new > target_accepted:  # none past the target
                kept = kept.copy()
                kept[np.flatnonzero(kept)[target_accepted - n_kept]:] = False
                n_new = target_accepted - n_kept
            consume(draws, kept)
            n_chunks += 1
            n_kept += n_new
            del draws  # freed before the next submission draws another chunk
            n_proposed = n_chunks * CHUNK_SIZE
            rate = n_accepted / n_proposed * proposal_mass
            if (n_proposed >= INTRACTABLE_PROBE
                    and n_accepted * proposal_mass < INTRACTABLE_FLOOR * n_proposed):
                raise ConstraintIntractableError(
                    f"acceptance rate {rate:.3g} below floor {INTRACTABLE_FLOOR:g} "
                    f"after {n_proposed} proposals",
                    acceptance_rate=rate, n_proposed=n_proposed,
                )
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return rate, n_proposed, n_chunks


class _RowBuffer:
    """Consumer that copies the kept rows, and their proposal indices, into
    buffers of ``n_rows`` rows."""

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.samples = self.index = None
        self.n_kept = self.n_chunks = 0

    def __call__(self, chunk: np.ndarray, kept: np.ndarray) -> None:
        if self.samples is None:  # numpy's MemoryError names the size refused
            self.samples = np.empty((self.n_rows, chunk.shape[1]), chunk.dtype, order="F")
            self.index = np.empty(self.n_rows, dtype=np.int64)
        rows = np.flatnonzero(kept)
        stop = self.n_kept + rows.size
        self.samples[self.n_kept:stop] = chunk[rows]
        self.index[self.n_kept:stop] = rows + self.n_chunks * CHUNK_SIZE
        self.n_kept = stop
        self.n_chunks += 1


def rejection_sample(
    proposal: Callable[[np.random.Generator, int], np.ndarray],
    accept: Callable[[np.ndarray], np.ndarray],
    target_accepted: int,
    rng: RngStream,
    *,
    threads: int | None = None,
    proposal_mass: float = 1.0,
) -> RejectionResult:
    """Draw until ``target_accepted`` proposals satisfy the predicate.

    :func:`rejection_stream` into one buffer of ``target_accepted`` rows,
    each column contiguous (Fortran order), with each row's proposal index.

    Raises
    ------
    ConstraintIntractableError
        As :func:`rejection_stream`.
    MemoryError
        If the buffer for ``target_accepted`` rows cannot be allocated.
    """
    buffer = _RowBuffer(target_accepted)
    counters = rejection_stream(
        proposal, accept, target_accepted, rng, buffer,
        threads=threads, proposal_mass=proposal_mass,
    )
    return RejectionResult(buffer.samples, *counters, buffer.index)


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
