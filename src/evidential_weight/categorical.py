"""Recipient LR for a categorical conclusion (ID / Inconclusive / Exclusion).

The recipient models the expert's conclusion rates under each scenario as
a pair of points on the 3-simplex, uniform (or Dirichlet-posterior after
validation counts) but truncated to an ordering region expressing that
the expert discriminates: identifications dominate among mated
comparisons, exclusions dominate among non-mated ones, and the
mated/non-mated rate ratio decreases from ID to Inconclusive to
Exclusion.  Sampling is by rejection from the untruncated Dirichlet pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import mc
from .core import LrEstimate, Scenario, read_scenario_rows
from .errors import DomainError, InputFormatError

__all__ = [
    "Conclusion",
    "ConclusionRates",
    "RatePair",
    "ConclusionCounts",
    "RatePairSamples",
    "sample_rate_pairs",
    "lr_from_samples",
    "lr_for_conclusion",
    "lr_sweep",
    "SweepResult",
    "scaled_counts",
    "density_grid",
]

#: Accepted draws per estimate when the caller does not say otherwise.
DEFAULT_N_ACCEPTED = 1_000_000

SIMPLEX_TOL = 1e-12


class Conclusion(enum.Enum):
    """The three-point conclusion scale, ordered by support for H1."""

    ID = 0
    INC = 1
    EXC = 2

    @classmethod
    def parse(cls, text: str) -> "Conclusion":
        key = text.strip().upper()
        aliases = {"ID": cls.ID, "IDENTIFICATION": cls.ID,
                   "INC": cls.INC, "INCONCLUSIVE": cls.INC,
                   "EXC": cls.EXC, "EXCLUSION": cls.EXC}
        if key not in aliases:
            raise DomainError(f"unknown conclusion {text!r}; expected id, inc, or exc")
        return aliases[key]


@dataclass(frozen=True)
class ConclusionRates:
    """A point on the 3-simplex: rates of ID / Inconclusive / Exclusion."""

    id_rate: float
    inc_rate: float
    exc_rate: float

    def __post_init__(self):
        triple = (self.id_rate, self.inc_rate, self.exc_rate)
        for v in triple:
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"rates must lie in [0, 1], got {triple!r}")
        if abs(sum(triple) - 1.0) > SIMPLEX_TOL:
            raise DomainError(f"rates must sum to 1 within {SIMPLEX_TOL:g}, got {triple!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.id_rate, self.inc_rate, self.exc_rate])


def admissible_mask(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized discriminating-expert constraints on rate pairs.

    ``p`` holds mated-comparison rate rows, ``q`` non-mated rows, each of
    shape (n, 3) ordered (ID, Inc, Exc).  All six inequalities are strict;
    the ratio orderings are cross-multiplied so zero rates never divide.
    """
    return (
        (p[:, 0] > p[:, 2])
        & (p[:, 0] > q[:, 0])
        & (q[:, 2] > q[:, 0])
        & (q[:, 2] > p[:, 2])
        & (p[:, 0] * q[:, 1] > p[:, 1] * q[:, 0])
        & (p[:, 1] * q[:, 2] > p[:, 2] * q[:, 1])
    )


@dataclass(frozen=True)
class RatePair:
    """Mated and non-mated conclusion rates satisfying the ordering region."""

    mated: ConclusionRates
    nonmated: ConclusionRates

    def __post_init__(self):
        p = self.mated.as_array()[None, :]
        q = self.nonmated.as_array()[None, :]
        if not bool(admissible_mask(p, q)[0]):
            raise DomainError("rate pair violates the discriminating-expert constraints")


@dataclass(frozen=True)
class ConclusionCounts:
    """Validation counts (n_ID, n_Inc, n_Exc) per scenario."""

    h1: tuple[int, int, int]
    h2: tuple[int, int, int]

    def __post_init__(self):
        for label, triple in (("h1", self.h1), ("h2", self.h2)):
            if len(triple) != 3:
                raise DomainError(f"{label} needs exactly 3 counts, got {triple!r}")
            for v in triple:
                if isinstance(v, bool) or int(v) != v or v < 0:
                    raise DomainError(f"{label} counts must be nonnegative integers, got {triple!r}")
        object.__setattr__(self, "h1", tuple(int(v) for v in self.h1))
        object.__setattr__(self, "h2", tuple(int(v) for v in self.h2))

    def __add__(self, other: "ConclusionCounts") -> "ConclusionCounts":
        return ConclusionCounts(
            tuple(a + b for a, b in zip(self.h1, other.h1)),
            tuple(a + b for a, b in zip(self.h2, other.h2)),
        )

    def totals(self) -> tuple[int, int]:
        return sum(self.h1), sum(self.h2)

    def alphas(self) -> tuple[np.ndarray, np.ndarray]:
        """Dirichlet concentrations: observed counts plus the flat unit prior."""
        return (
            np.asarray(self.h1, dtype=float) + 1.0,
            np.asarray(self.h2, dtype=float) + 1.0,
        )

    def observed_rate_ratio(self, conclusion: Conclusion) -> float:
        """Plug-in ratio of observed rates for one conclusion (H1 over H2)."""
        n1, n2 = self.totals()
        if n1 == 0 or n2 == 0:
            raise DomainError("both scenarios need observations for a rate ratio")
        k1 = self.h1[conclusion.value]
        k2 = self.h2[conclusion.value]
        if k2 == 0:
            return math.inf
        return (k1 / n1) / (k2 / n2)

    @classmethod
    def from_json_obj(cls, obj: dict, path: str = "") -> "ConclusionCounts":
        """Parse ``{"H1": {"id": ..., "inc": ..., "exc": ...}, "H2": {...}}``."""
        try:
            triples = []
            for scen in ("H1", "H2"):
                entry = obj[scen]
                triples.append((int(entry["id"]), int(entry["inc"]), int(entry["exc"])))
            return cls(triples[0], triples[1])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad conclusion-count JSON: {exc}", path=path) from exc

    @classmethod
    def from_csv_rows(cls, rows: Iterable[str], path: str = "") -> "ConclusionCounts":
        """Parse per-comparison rows ``scenario,conclusion`` into counts.

        The rows follow :func:`core.read_scenario_rows`: an optional header
        ``scenario,conclusion``, blank lines skipped, errors citing the line.
        """
        tallies = {Scenario.H1: [0, 0, 0], Scenario.H2: [0, 0, 0]}
        for scenario, (conclusion,) in read_scenario_rows(
            rows, "scenario,conclusion", Conclusion.parse, path=path
        ):
            tallies[scenario][conclusion.value] += 1
        return cls(tuple(tallies[Scenario.H1]), tuple(tallies[Scenario.H2]))


class RatePairSamples:
    """Accepted rate-pair draws held as two (n, 3) arrays.

    From :func:`sample_rate_pairs` they are read-only views of one sample
    buffer in which each rate column is contiguous.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray, acceptance_rate: float,
                 seed: int | None = None):
        self.p = p
        self.q = q
        self.acceptance_rate = float(acceptance_rate)
        self.seed = seed
        for arr in (self.p, self.q):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.p.shape[0]

    def __getitem__(self, i: int) -> RatePair:
        def rates(row):
            # renormalize away float dust so the simplex invariant holds
            row = row / row.sum()
            return ConclusionRates(*row)

        return RatePair(rates(self.p[i]), rates(self.q[i]))

    def rate_columns(self, conclusion: Conclusion) -> tuple[np.ndarray, np.ndarray]:
        j = conclusion.value
        return self.p[:, j], self.q[:, j]


def sample_rate_pairs(
    counts: ConclusionCounts | None,
    n_accepted: int = DEFAULT_N_ACCEPTED,
    rng: mc.RngStream = mc.RngStream(0),
    *,
    threads: int | None = None,
) -> RatePairSamples:
    """Sample admissible rate pairs from the prior or a count posterior.

    With ``counts`` absent (or all zero) this draws from the truncated
    uniform pair Dir(1,1,1) x Dir(1,1,1); otherwise from the conjugate
    Dirichlet posterior pair with concentrations counts + 1, truncated to
    the same region.
    """
    if n_accepted < 1:
        raise DomainError(f"n_accepted must be >= 1, got {n_accepted!r}")
    if counts is None:
        counts = ConclusionCounts((0, 0, 0), (0, 0, 0))
    alpha_p, alpha_q = counts.alphas()

    def proposal(gen: np.random.Generator, n: int) -> np.ndarray:
        # column-major, so the constraint checks read contiguous columns
        draws = np.empty((n, 6), order="F")
        draws[:, :3] = gen.dirichlet(alpha_p, size=n)
        draws[:, 3:] = gen.dirichlet(alpha_q, size=n)
        return draws

    def accept(draws: np.ndarray) -> np.ndarray:
        return admissible_mask(draws[:, :3], draws[:, 3:])

    result = mc.rejection_sample(
        proposal, accept, n_accepted, rng, threads=threads
    )
    return RatePairSamples(
        p=result.samples[:, :3],
        q=result.samples[:, 3:],
        acceptance_rate=result.acceptance_rate,
        seed=rng.seed,
    )


#: Rows per block of the one-pass reductions over draws, small enough
#: for the block's temporaries to stay in cache.
_BLOCK_ROWS = 1 << 16


def _blocks(n: int):
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def lr_from_samples(samples: RatePairSamples, conclusion: Conclusion) -> LrEstimate:
    """Ratio of posterior-mean conclusion rates, H1 over H2.

    The Monte Carlo standard error comes from the delta method for a ratio
    of two (correlated) sample means.
    """
    pc, qc = samples.rate_columns(conclusion)
    n = len(samples)
    if n < 2:
        raise DomainError(f"a Monte Carlo standard error needs at least 2 draws, got {n}")
    mp = float(pc.mean())
    mq = float(qc.mean())
    log10_lr = math.log10(mp) - math.log10(mq)
    # sample (co)variances of the means, from centered dot products
    spp = sqq = spq = 0.0
    for block in _blocks(n):
        dp = pc[block] - mp
        dq = qc[block] - mq
        spp += float(dp @ dp)
        sqq += float(dq @ dq)
        spq += float(dp @ dq)
    scale = 1.0 / ((n - 1) * n)
    var_mp = spp * scale
    var_mq = sqq * scale
    cov = spq * scale
    lr = mp / mq
    rel_var = var_mp / mp**2 + var_mq / mq**2 - 2.0 * cov / (mp * mq)
    se = lr * math.sqrt(max(rel_var, 0.0))
    return LrEstimate.from_log10(
        log10_lr,
        mc_std_err=se,
        n_samples=n,
        acceptance_rate=samples.acceptance_rate,
        seed=samples.seed,
    )


def lr_for_conclusion(
    conclusion: Conclusion | str,
    counts: ConclusionCounts | None = None,
    n_accepted: int = DEFAULT_N_ACCEPTED,
    rng: mc.RngStream = mc.RngStream(0),
    *,
    threads: int | None = None,
) -> LrEstimate:
    """Recipient LR for hearing one conclusion, given optional validation counts."""
    if isinstance(conclusion, str):
        conclusion = Conclusion.parse(conclusion)
    samples = sample_rate_pairs(counts, n_accepted, rng, threads=threads)
    return lr_from_samples(samples, conclusion)


def _largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    """Apportion ``total`` into integer parts proportional to ``weights``."""
    weights = np.asarray(weights, dtype=float)
    quotas = total * weights / weights.sum()
    floors = np.floor(quotas).astype(int)
    short = total - int(floors.sum())
    order = np.argsort(-(quotas - floors), kind="stable")
    for j in order[:short]:
        floors[j] += 1
    return [int(v) for v in floors]


def scaled_counts(base: ConclusionCounts, size: int) -> ConclusionCounts:
    """Rescale a count table to ``size`` total comparisons.

    The mated/non-mated mix and the within-scenario conclusion rates are
    held at the base table's observed values, with largest-remainder
    rounding per scenario so the counts sum exactly to the target.
    """
    n1, n2 = base.totals()
    if n1 == 0 or n2 == 0:
        raise DomainError("base counts must be nonzero in each scenario")
    m1, m2 = _largest_remainder(size, [n1, n2])
    if m1 < 3 or m2 < 3:
        raise DomainError(
            f"size {size} leaves fewer than 3 comparisons in a scenario ({m1}, {m2})"
        )
    return ConclusionCounts(
        tuple(_largest_remainder(m1, base.h1)),
        tuple(_largest_remainder(m2, base.h2)),
    )


@dataclass(frozen=True)
class SweepRow:
    size: int
    conclusion: Conclusion
    estimate: LrEstimate


@dataclass(frozen=True)
class SweepResult:
    """LR per (study size, conclusion) plus the observed-rate asymptotes."""

    rows: tuple[SweepRow, ...]
    asymptotes: dict

    def estimate(self, size: int, conclusion: Conclusion) -> LrEstimate:
        for row in self.rows:
            if row.size == size and row.conclusion is conclusion:
                return row.estimate
        raise KeyError((size, conclusion))


def lr_sweep(
    base_counts: ConclusionCounts,
    sizes: Sequence[int],
    n_accepted: int = DEFAULT_N_ACCEPTED,
    rng: mc.RngStream = mc.RngStream(0),
    *,
    threads: int | None = None,
) -> SweepResult:
    """LR for each conclusion across rescaled validation-study sizes.

    Study size ``sizes[i]`` consumes the caller's stream offset by
    ``i + 1``, so individual sizes are reproducible in isolation.
    """
    if len(sizes) == 0:
        raise DomainError("sizes must be nonempty")
    rows: list[SweepRow] = []
    for i, size in enumerate(sizes):
        counts = scaled_counts(base_counts, int(size))
        samples = sample_rate_pairs(
            counts, n_accepted, rng.substream(i + 1), threads=threads
        )
        for conclusion in Conclusion:
            rows.append(SweepRow(int(size), conclusion, lr_from_samples(samples, conclusion)))
        del samples  # before the next size draws its own
    asymptotes = {c: base_counts.observed_rate_ratio(c) for c in Conclusion}
    return SweepResult(rows=tuple(rows), asymptotes=asymptotes)


def density_grid(
    samples: RatePairSamples, conclusion: Conclusion, bins: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Joint density of (mated rate, non-mated rate) for one conclusion.

    Histogram density on [0,1]^2: counts / (n * cell area).  Returns the
    bin centers and the (bins, bins) density array with mated rate on the
    first axis.
    """
    pc, qc = samples.rate_columns(conclusion)
    for rates in (pc, qc):
        if not (0.0 <= rates.min() and rates.max() <= 1.0):
            raise DomainError("rates must lie in [0, 1] for the density grid")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros(bins * bins, dtype=np.intp)
    for block in _blocks(len(samples)):
        cells = _bin_index(pc[block], edges) * bins + _bin_index(qc[block], edges)
        counts += np.bincount(cells, minlength=bins * bins)
    grid = counts.reshape(bins, bins).astype(float)
    grid /= len(samples) * (1.0 / bins) ** 2
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, grid


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each rate in [0, 1] on ``edges``, exactly as ``np.histogram`` assigns it.

    Bins are half-open, [e_k, e_k+1), except the last, which also holds
    1.0.  ``floor(x * bins)`` can miss by one next to an edge, because
    the ``linspace`` edges are rounded; one comparison each way against
    the edges themselves corrects it.
    """
    bins = edges.size - 1
    k = np.minimum(x * bins, bins - 1).astype(np.intp)
    k -= x < edges[k]
    upper = edges[1:].copy()
    upper[-1] = np.inf  # the last bin is closed
    k += x >= upper[k]
    return k
