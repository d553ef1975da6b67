"""Recipient LR for a categorical conclusion (ID / Inconclusive / Exclusion).

The recipient models the expert's conclusion rates under each scenario as
a pair of points on the 3-simplex, uniform (or Dirichlet-posterior after
validation counts) but truncated to an ordering region expressing that
the expert discriminates: identifications dominate among mated
comparisons, exclusions dominate among non-mated ones, and the
mated/non-mated rate ratio decreases from ID to Inconclusive to
Exclusion.  Sampling is by rejection from the Dirichlet pair, some
factors reflected into the region's half-space first.  Which layers a
table's LRs take is decided once, by its :class:`_Plan`, which states
each layer's condition; the sections below say what each layer does.

Proposals come in antithetic pairs, rows 2i and 2i + 1 of a chunk, whose
gammas are negatively correlated in each factor that is not reflected:
the partners of a pair take the normals X and -X of Marsaglia and
Tsang's sampler and one accept uniform, or U and 1 - U at concentration
1 (see :func:`_gamma_pairs`).  Every gamma that no such pair couples, a
reflected factor's and each one the pair sampler rejects, comes from
numpy's ``Generator.standard_gamma`` (at concentration 1 from its
``standard_exponential``, the same values).  The LR is the ratio of two
sums over every proposal drawn, of its p_c and q_c where it is kept and
0 where it is not, unless a refinement below replaces them (see
:func:`_contributions`); its Monte Carlo standard error is taken over
units, the contributions of each pair proposed, summed, which are
independent where the draws of a pair are not.  On the study table, at
the same number of draws, the variance of the plain ratio of LR(ID) is
about a fourteenth of what independent draws give, and that of LR(Inc)
and LR(Exc) below a thousandth.

Under q_ID integration (see :class:`_Plan`), :class:`DrawSummary`
also integrates the non-mated ID rate q_ID out of LR(ID) on the kept
rows where that is certified (conditional Monte Carlo, or
Rao-Blackwellization; Asmussen and Glynn, *Stochastic Simulation*,
2007, ch. V).  Given p and w = q_Inc / (q_Inc + q_Exc), q_ID is
Beta(a, b) with a its concentration and b the sum of the other two,
independent of both, and the four constraints that involve q_ID are all
upper bounds on it.  A kept row is certified when it stays admissible
with q_ID moved up to a threshold t, and q_Inc, q_Exc rescaled to
(1 - t) w and (1 - t) (1 - w); t is where the Chernoff bound on the
Beta tail above it falls below 2^-60 times the Beta mean m = a / (a +
b) (see :func:`_q_id_threshold`).  So on a certified row, the mean of
q_ID given the row's p, w and admissibility is m, up to 2^-60
relative, and the ID denominator takes m in place of the sampled q_ID.
Whether a row is certified depends on that row alone, not on its
antithetic partner, whose w carries this row's q_Inc + q_Exc through
the antithetic normals: a rule over whole pairs would be biased.  On
the study table every row is certified, and the variance of LR(ID) is
about 2e-6 of the plain ratio's, an SE near 1e-7 relative.  Where only
some rows are certified (the study table rescaled to about 300 to 1000
comparisons), a certified row can pair with an uncertified partner and
lose the pair's antithetic cancellation: from size 300 to about 620 the
variance of LR(ID) is 1.0 to 1.42 times the plain ratio's, at 900 to
1000 about a hundredth of it, and from 1500 up below 1e-5 of it.

Where a slice is uniform, :class:`DrawSummary` takes the LRs it covers
from the slice integrals of every proposal drawn in place of the kept
rows' rates (Rao-Blackwellized accept-reject draws; Casella and
Robert, *Biometrika* 83(1), 1996).  Fixing the rates of the other
conclusions leaves (p_c, q_c) on a convex polygon of the region, the
slice, on which the truncated law is uniform, and the proposal on a
rectangle around it, its conditional support, on which the proposal is
uniform.  So the integrals of p_c and of q_c over the slice, each
divided by the rectangle's area, are the exact conditional expectations
of p_c 1_A and q_c 1_A under the proposal.  An empty slice gives 0.  The
ID and Exc rates given the Inc rates (:func:`_id_exc_integrals`) and the
Inc rates given the ID rates (:func:`_inc_integrals`) come from one
wedge-and-cap kernel (:func:`_wedge_and_cap_moments`).  Both slices are
uniform on the flat prior, where at the same kept draws the variance of
LR(ID) and LR(Exc) is about a tenth of the plain ratio's, and that of
LR(Inc) about a fifth; no posterior table of the study has either.  Only
the slices of the conclusions a caller reads are integrated.  The
draws, the grids, ``n_samples`` and the acceptance rate do not change.
:func:`lr_from_samples` stays the plain ratio of the sums of the kept
draws, with its standard error over the pairs that hold one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import mc
from .core import LrEstimate, Scenario, lr_from_counts, read_scenario_rows, require_count
from .errors import DegenerateRateError, DomainError, InputFormatError

__all__ = [
    "Conclusion",
    "ConclusionCounts",
    "RatePairSamples",
    "sample_rate_pairs",
    "lr_from_samples",
    "DrawSummary",
    "summarize_draws",
    "lr_for_conclusion",
    "lr_sweep",
    "SweepResult",
    "scaled_counts",
    "density_grid",
]

#: Accepted draws per estimate when the caller does not say otherwise.
DEFAULT_N_ACCEPTED = 1_000_000

#: Largest study size :func:`scaled_counts` takes: the counts become float
#: Dirichlet concentrations, and a float holds every integer up to 2**53.
MAX_STUDY_SIZE = 2**53


class Conclusion(enum.Enum):
    """The three-point conclusion scale, ordered by support for H1."""

    ID = 0
    INC = 1
    EXC = 2

    @classmethod
    def parse(cls, text: str) -> "Conclusion":
        conclusion = _CONCLUSION_NAMES.get(text.strip().upper())
        if conclusion is None:
            raise DomainError(f"unknown conclusion {text!r}; expected id, inc, or exc")
        return conclusion


#: Each name :meth:`Conclusion.parse` takes, upper-cased.
_CONCLUSION_NAMES = {"ID": Conclusion.ID, "IDENTIFICATION": Conclusion.ID,
                     "INC": Conclusion.INC, "INCONCLUSIVE": Conclusion.INC,
                     "EXC": Conclusion.EXC, "EXCLUSION": Conclusion.EXC}


def admissible_mask(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized discriminating-expert constraints on rate pairs.

    ``p`` holds mated-comparison rate rows, ``q`` non-mated rows, each of
    shape (n, 3) ordered (ID, Inc, Exc).  All six inequalities are strict;
    the ratio orderings are cross-multiplied so zero rates never divide.
    Five are tested.  The sixth, q_Exc > p_Exc, follows on the simplex:
    were q_Exc <= p_Exc, then p_Inc q_Exc > p_Exc q_Inc >= q_Exc q_Inc
    would give p_Inc > q_Inc, and so p_ID < q_ID.
    """
    return (
        (p[:, 0] > p[:, 2])
        & (p[:, 0] > q[:, 0])
        & (q[:, 2] > q[:, 0])
        & (p[:, 0] * q[:, 1] > p[:, 1] * q[:, 0])
        & (p[:, 1] * q[:, 2] > p[:, 2] * q[:, 1])
    )


@dataclass(frozen=True)
class ConclusionCounts:
    """Validation counts (n_ID, n_Inc, n_Exc) per scenario."""

    h1: tuple[int, int, int]
    h2: tuple[int, int, int]

    def __post_init__(self):
        for label, triple in (("h1", self.h1), ("h2", self.h2)):
            if len(triple) != 3:
                raise DomainError(f"{label} needs exactly 3 counts, got {triple!r}")
            counts = tuple(require_count(f"{label} count", v) for v in triple)
            object.__setattr__(self, label, counts)

    def totals(self) -> tuple[int, int]:
        return sum(self.h1), sum(self.h2)

    def alphas(self) -> tuple[np.ndarray, np.ndarray]:
        """Dirichlet concentrations: observed counts plus the flat unit prior."""
        return (
            np.asarray(self.h1, dtype=float) + 1.0,
            np.asarray(self.h2, dtype=float) + 1.0,
        )

    @classmethod
    def from_json_obj(cls, obj: dict, path: str = "") -> "ConclusionCounts":
        """Parse ``{"H1": {"id": ..., "inc": ..., "exc": ...}, "H2": {...}}``.

        Each count must be a JSON number holding a nonnegative integer (a
        float such as ``3.0`` is accepted); anything else, a bool included,
        is an input error, not truncated.
        """
        try:
            triples = []
            for scen in ("H1", "H2"):
                entry = obj[scen]
                triples.append(tuple(
                    require_count(f"{scen}.{key}", entry[key]) for key in ("id", "inc", "exc")
                ))
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
    """Accepted rate-pair draws held as two (n, 3) arrays, with each row's unit.

    From :func:`sample_rate_pairs` they are read-only views of one sample
    buffer in which each rate column is contiguous, and
    ``acceptance_rate`` estimates the prior mass of the admissible region
    under the untruncated Dirichlet pair (the share of reflected
    proposals accepted, times the reflected proposals' mass).  ``unit``
    ascends, and rows that share it are the kept rows of one antithetic
    pair; without it each row is its own unit.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray, acceptance_rate: float,
                 seed: int | None = None, unit: np.ndarray | None = None):
        self.p = p
        self.q = q
        self.acceptance_rate = float(acceptance_rate)
        self.seed = seed
        self.unit = np.arange(p.shape[0]) if unit is None else unit
        if self.unit.shape != (p.shape[0],) or np.any(self.unit[1:] < self.unit[:-1]):
            raise DomainError("unit must hold one ascending entry per row")
        for arr in (self.p, self.q, self.unit):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.p.shape[0]

    def rate_columns(self, conclusion: Conclusion) -> tuple[np.ndarray, np.ndarray]:
        j = conclusion.value
        return self.p[:, j], self.q[:, j]


#: Rows per block of the sampler and of the grid cell counts, small
#: enough for the block's temporaries to stay in cache.
_BLOCK_ROWS = 1 << 16


#: Rows per block of the constraint checks and of each chunk's LR
#: contributions, few enough for their temporaries to stay in a core's
#: cache.
_CACHE_ROWS = 1 << 13


def _blocks(n: int, rows: int = _BLOCK_ROWS):
    return (slice(start, start + rows) for start in range(0, n, rows))


#: Coefficients of y^20, y^19, ..., y^4 in the series of log1p(y) - y + y^2/2 - y^3/3.
_LOG_TEST_SERIES = [(-1.0) ** (k + 1) / k for k in range(20, 3, -1)]


def _log_test_exponent(y: np.ndarray, d: float) -> np.ndarray:
    """The exponent of Marsaglia and Tsang's log test, 0.5 x^2 + d (1 - t^3 + 3 log t)
    with t = 1 + y and y = c x, c^2 = 1 / (9 d), for ``y`` > -1.

    It equals 3 d L(y) exactly, L(y) = log1p(y) - y + y^2/2 - y^3/3, in
    which the terms of the test's own form, each near d, no longer cancel:
    at d near 1e20 they lost every digit.  Where |y| < 0.1, L comes from
    its series -y^4/4 + y^5/5 - ..., to as many terms as leave out less
    than 2^-55 of the first at the largest such |y| (at most 17);
    elsewhere, which only small d reach, from the four terms.
    """
    out = np.empty_like(y)
    far = np.abs(y) >= 0.1
    if far.any():
        yf = y[far]
        direct = np.log1p(yf)
        direct -= yf
        direct += 0.5 * yf * yf
        direct -= yf * yf * yf / 3.0
        out[far] = direct
        near = ~far
        ys = y[near]
    else:
        near, ys = slice(None), y
    if ys.size:
        top = float(np.max(np.abs(ys)))
        # the first term left out is below top^terms times the first
        terms = 1 if top == 0.0 else math.ceil(-55.0 * math.log(2.0) / math.log(top))
        coefficients = _LOG_TEST_SERIES[-terms:]
        series = np.full(ys.size, coefficients[0])
        for coefficient in coefficients[1:]:
            series *= ys
            series += coefficient
        ys = ys * ys
        series *= ys * ys
        out[near] = series
    out *= 3.0 * d
    return out


def _squeeze(x: np.ndarray, d: float) -> np.ndarray:
    """The squeeze of Marsaglia and Tsang's test for the normals ``x`` at d =
    alpha - 1/3: a u below it passes the log test, u < exp(3 d L(c x)) (see
    :func:`_log_test_exponent`), for X and -X alike.

    Where c |x| <= 1/2 it is 1 - x^4 / (54 d), certified as follows, with
    y = c x.  For y >= 0, L(y) >= -y^4/4, since the derivative of L(y) +
    y^4/4 is y^4 / (1 + y) >= 0; for -1 < y < 0, L(y) = -sum_{k>=4} |y|^k /
    k >= -y^4 / (4 (1 - |y|)).  So L(y) >= -y^4/2 on |y| <= 1/2, and as
    exp(z) >= 1 + z, exp(3 d L) >= 1 - (3 d / 2) c^4 x^4 = 1 - x^4 / (54 d).
    The coefficient carries a relative margin of 2^-20, far above the
    rounding of the bound, so that on numpy's 2^-53 grid of uniforms no
    u the squeeze passes fails the exact test.  Elsewhere it is Marsaglia
    and Tsang's own 1 - 0.0331 x^4.
    """
    bound = x * x
    far = np.flatnonzero(bound > 2.25 * d)  # c |x| > 1/2, as c^2 = 1 / (9 d)
    bound *= bound
    outer = bound[far]
    bound *= (1.0 + 2.0**-20) / (54.0 * d)
    outer *= 0.0331
    bound[far] = outer
    np.subtract(1.0, bound, out=bound)
    return bound


def _gamma_pairs(gen: np.random.Generator, alpha: float, out: np.ndarray) -> None:
    """Fill ``out`` with Gamma(``alpha``) variates, ``alpha >= 1``, in antithetic pairs 2i, 2i + 1.

    The partners of a pair are negatively correlated (antithetic variates,
    Hammersley and Morton 1956): at ``alpha = 1`` they are -log(1 - U) and
    -log(U) for one U in the open interval (0, 1); above it each is the
    d v of Marsaglia and Tsang (ACM TOMS 26(3), 2000), v = (1 + c X)^3
    with d = alpha - 1/3 and c = 1/sqrt(9 d), where the partners take the
    normals X and -X and one accept uniform u: X is accepted where u <
    h(X), -X where u < h(-X).  (-X, u) has the law of (X, u), so each
    partner alone is an exact Marsaglia-Tsang draw, and the two rejections
    are coupled, so a pair loses its coupling about half as often as with
    a uniform each.  Each row's columns draw independent (X, u); the rows
    of a pair are one unit.  Numpy's sampler cannot couple two variates
    this way; every variate that needs no partner comes from
    ``gen.standard_gamma`` instead (see :meth:`_Plan.proposal`).  Each
    variate the test rejects is redrawn from ``gen.standard_gamma`` once
    all rows are filled, so every variate is an exact Gamma(alpha) draw,
    and only those few pairs lose their coupling.  Rows are filled
    ``_BLOCK_ROWS`` at a time, so the temporaries stay small.  The
    squeeze (:func:`_squeeze`) is symmetric in X, so one comparison with
    u names the rows of both partners that take the log test, which
    draws nothing and runs once over every such variate: at alpha 7 about
    0.8% of them, at the study table's concentrations of 451 and more
    below 0.02%.
    """
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    a = d ** (1.0 / 3.0)  # so that d v = (a + b x)^3
    b = a * c
    # each variate that fails the squeeze: its position, y = c x and uniform
    positions, ys, us = [], [], []
    for start in range(0, out.size, _BLOCK_ROWS):
        block = out[start:start + _BLOCK_ROWS]
        first, second = block[0::2], block[1::2]
        if alpha == 1.0:
            # U = (k + 1/2) 2^-52: never 0 or 1, and U and 1 - U alike
            u = gen.random(first.size)
            u *= 2.0**52
            np.floor(u, out=u)
            u += 0.5
            u *= 2.0**-52
            np.negative(np.log1p(-u), out=first)
            np.negative(np.log(u[:second.size]), out=second)
            continue
        x = gen.standard_normal(first.size)
        u = gen.random(first.size)
        n = second.size
        bx = x * b
        for values, t in ((first, a + bx), (second, a - bx[:n])):
            v = t * t
            np.multiply(v, t, out=values)
        rest = np.flatnonzero(u >= _squeeze(x, d))
        twin = rest[rest < n]
        y, u = c * x[rest], u[rest]
        positions += [start + 2 * rest, start + 1 + 2 * twin]
        ys += [y, -y[:twin.size]]
        us += [u, u[:twin.size]]
    if positions:
        positions, y, u = (np.concatenate(parts) for parts in (positions, ys, us))
        # the log test, read as u < exp(...) so that u = 0 takes no log;
        # 1 + y <= 0 means x^4 >= 81 d^2 >= 36, so it fails the squeeze, and is rejected
        live = np.flatnonzero(y > -1.0)
        passed = np.zeros(positions.size, dtype=bool)
        passed[live] = u[live] < np.exp(_log_test_exponent(y[live], d))
        redraw = positions[~passed]
        out[redraw] = gen.standard_gamma(alpha, size=redraw.size)


#: Bound on the Beta tail above the q_ID threshold, relative to the Beta mean.
Q_ID_TAIL = 2.0**-60


def _q_id_threshold(a: float, b: float) -> float:
    """A t with P(Beta(``a``, ``b``) > t) <= ``Q_ID_TAIL`` * a / (a + b), for integers a, b >= 1.

    For integer concentrations P(Beta(a, b) > t) = P(Bin(n, t) <= a - 1)
    with n = a + b - 1, which for t > x = (a - 1) / n is at most
    exp(-n KL(x || t)) (Hoeffding 1963), KL the Bernoulli relative
    entropy.  The bound falls as t rises above x, so a bisection on
    floats finds where it reaches ``Q_ID_TAIL`` * m / 2, m = a / (a + b);
    the other half of the allowance is a margin for the rounding of the
    computed bound, which at a = 1 is the tail itself.  Where even the
    largest float below 1 leaves the bound above that, the result is 1.
    """
    n = a + b - 1.0
    x = (a - 1.0) / n
    target = -math.log(0.5 * Q_ID_TAIL * a / (a + b))

    def n_kl(t):
        # KL(x || t) = x log(x / t) + (1 - x) log((1 - x) / (1 - t))
        out = -(1.0 - x) * math.log1p(-(t - x) / (1.0 - x))
        if x > 0.0:
            out -= x * math.log1p((t - x) / x)
        return n * out

    lo, hi = x, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if n_kl(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class _Plan:
    """Which estimator layers one count table's LRs take, and its chunk proposal.

    :func:`_plan` sets every field from ``alphas``, the six Dirichlet
    concentrations (p_ID, p_Inc, p_Exc, q_ID, q_Inc, q_Exc), counts + 1.
    Each layer's condition is stated here alone:

    - ``reflected`` (mated, non-mated) holds where the factor's outer
      concentrations are equal.  The region lies inside the half-spaces
      p_ID > p_Exc and q_Exc > q_ID, and reversing such a factor's rates
      leaves its density unchanged, so each of its proposals is reflected
      into its half-space: an exact draw from the factor conditioned on
      the half-space, at half the proposal ``mass``.  Its gammas are
      independent: reflection carries an antithetic partner into the
      same half-space, and on the flat prior such partners raised the
      variance of LR(ID) by half.  Rows 2i and 2i + 1 of a chunk are a
      pair (see :func:`_gamma_pairs`), antithetic in each factor not
      reflected, and ``paired`` unless both are.
    - ``q_id`` is the threshold t of :func:`_q_id_threshold` and the Beta
      mean a / (a + b), a the q_ID concentration and b the sum of the
      other two, where the non-mated factor is not reflected and t < 1
      (at t = 1 no row is certified: p_ID would have to exceed it); else
      None.
    - ``slices`` (ID/Exc, Inc): given p_Inc and q_Inc, the truncated
      pair's density in (p_ID, q_ID) is proportional to p_ID^(a_ID - 1)
      p_Exc^(a_Exc - 1) q_ID^(b_ID - 1) q_Exc^(b_Exc - 1), a and b the
      mated and non-mated concentrations: uniform exactly where those
      four are 1, that is where their counts are 0.  Likewise the Inc
      slice, with the Inc and Exc concentrations.  ``sliced`` names the
      conclusions read whose slice is uniform.

    The README's categorical conventions map these layers over tables.
    """

    alphas: tuple[float, ...]
    reflected: tuple[bool, bool]
    q_id: tuple[float, float] | None
    slices: tuple[bool, bool]

    @property
    def paired(self) -> bool:
        return not all(self.reflected)

    @property
    def mass(self) -> float:
        return 0.5 ** sum(self.reflected)

    def layers(self) -> dict:
        """The layers, as ``manifest.json`` records each table's: ``reflected``
        and ``uniform_slices`` as [mated, non-mated] and [ID/Exc, Inc]."""
        return {"reflected": list(self.reflected), "paired": self.paired,
                "q_id_integration": self.q_id is not None, "uniform_slices": list(self.slices)}

    def sliced(self, conclusions: Sequence[Conclusion]) -> tuple[Conclusion, ...]:
        id_exc, inc = self.slices
        return tuple(c for c in conclusions if (inc if c is Conclusion.INC else id_exc))

    def proposal(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """``n`` proposals, the columns drawn in order from ``gen``."""
        # column-major, so the constraint checks read contiguous columns;
        # every concentration is at least 1, so normalized gammas are exact
        draws = np.empty((n, 6), order="F")
        for j, alpha in enumerate(self.alphas):
            if not self.reflected[j // 3]:
                _gamma_pairs(gen, alpha, draws[:, j])
            elif alpha == 1.0:  # standard_gamma(1.0), bit for bit, and faster
                gen.standard_exponential(out=draws[:, j])
            else:
                gen.standard_gamma(alpha, out=draws[:, j])
        for first in (0, 3):
            total = draws[:, first] + draws[:, first + 1]
            total += draws[:, first + 2]
            for j in range(first, first + 3):
                draws[:, j] /= total
        # (high, low) column of each factor: p_ID over p_Exc, q_Exc over q_ID
        for (hi, lo), reflected in zip(((0, 2), (5, 3)), self.reflected):
            if reflected:
                high = np.maximum(draws[:, hi], draws[:, lo])
                np.minimum(draws[:, hi], draws[:, lo], out=draws[:, lo])
                draws[:, hi] = high
        return draws


def _plan(counts: ConclusionCounts | None) -> _Plan:
    """The :class:`_Plan` of ``counts``, the flat prior where they are None."""
    if counts is None:
        counts = ConclusionCounts((0, 0, 0), (0, 0, 0))
    alphas = tuple(np.concatenate(counts.alphas()).tolist())
    p_id, p_inc, p_exc, q_id, q_inc, q_exc = alphas
    reflected = (p_id == p_exc, q_exc == q_id)
    integration = None
    if not reflected[1]:
        b = q_inc + q_exc
        t = _q_id_threshold(q_id, b)
        if t < 1.0:
            integration = (t, q_id / (q_id + b))
    slices = (p_id == p_exc == q_id == q_exc == 1.0, p_inc == p_exc == q_inc == q_exc == 1.0)
    return _Plan(alphas, reflected, integration, slices)


def _admissible_draws(draws: np.ndarray) -> np.ndarray:
    """:func:`admissible_mask` of each row of a chunk, ``_CACHE_ROWS`` rows at
    a time: on the calling thread, where the sampler waits for it, that
    takes about 40% of the time of one pass over the whole chunk."""
    admissible = np.empty(draws.shape[0], dtype=bool)
    for block in _blocks(draws.shape[0], _CACHE_ROWS):
        admissible[block] = admissible_mask(draws[block, :3], draws[block, 3:])
    return admissible


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

    Factors with equal outer concentrations are proposed reflected into
    the region's half-spaces (see :class:`_Plan`).  The accepted draws
    keep the truncated distribution, and the reported acceptance rate
    (and the intractability floor it is held to) is the prior mass of the
    region under the untruncated pair: the rate among reflected proposals
    times their mass.  Proposals come in antithetic pairs, and each row's
    ``unit`` names its pair.
    """
    plan = _plan(counts)
    result = mc.rejection_sample(plan.proposal, _admissible_draws, n_accepted, rng,
                                 threads=threads, proposal_mass=plan.mass)
    return RatePairSamples(
        p=result.samples[:, :3],
        q=result.samples[:, 3:],
        acceptance_rate=result.acceptance_rate,
        seed=rng.seed,
        # a chunk holds whole pairs: CHUNK_SIZE is even
        unit=result.index >> 1 if plan.paired else result.index,
    )


def _require_units(n: int) -> None:
    if n < 2:
        raise DomainError(
            f"a Monte Carlo standard error needs draws from at least 2 antithetic pairs, got {n}"
        )


class _RatioSums:
    """Running sums for the ratio of the column sums of paired streams.

    Column j of each block's ``num`` pairs with column j of its ``den``,
    one LR each, and each row is one unit: the contributions of an
    antithetic pair, summed (or of one proposal where rows are not
    paired).  Per column it keeps the count n, a reference ratio r0, the
    sums of num and den, and, with the residuals e = num - r0 den, the
    sums of e^2, e den and den^2.  r0 is the ratio of the first block
    whose den sum in that column is positive: every den is nonnegative,
    so every den before it is 0, and the sums before it hold at any r0.
    Blocks merge by adding.  A stream of many units of which most are 0,
    rejected proposals and those past the target, makes the centred
    merges of Chan, Golub and LeVeque cancel; these sums do not.
    """

    def __init__(self, k: int):
        self.n = 0
        self.r0, self.sp, self.sq, self.see, self.seq, self.sqq = (np.zeros(k) for _ in range(6))

    def add(self, num: np.ndarray, den: np.ndarray) -> None:
        """Fold in one block: (n, k) arrays whose columns are each contiguous."""
        sp = num.sum(axis=0)
        sq = den.sum(axis=0)
        np.divide(sp, sq, out=self.r0, where=(self.sq == 0.0) & (sq > 0.0))
        e = num - self.r0 * den
        # element-wise sums rather than ``@``, which would wake BLAS threads
        # that then spin on the cores the sampler's workers draw on
        self.see += np.einsum("ij,ij->j", e, e)
        self.seq += np.einsum("ij,ij->j", e, den)
        self.sqq += np.einsum("ij,ij->j", den, den)
        self.sp += sp
        self.sq += sq
        self.n += num.shape[0]

    def estimate(self, j: int, n_samples: int, acceptance_rate: float,
                 seed: int | None) -> LrEstimate:
        """Ratio of the means of column pair ``j``, with its delta-method SE over units.

        The SE is sqrt(n / (n - 1) sum (num - r den)^2) / sum den at the
        ratio r, the residual sum taken from those about r0.
        """
        _require_units(self.n)
        n = self.n
        mp = float(self.sp[j]) / n
        mq = float(self.sq[j]) / n
        lr = mp / mq
        shift = lr - float(self.r0[j])
        residual = float(self.see[j]) - shift * (2.0 * float(self.seq[j])
                                                 - shift * float(self.sqq[j]))
        return LrEstimate(
            math.log10(mp) - math.log10(mq),
            mc_std_err=math.sqrt(max(residual, 0.0) * n / (n - 1)) / float(self.sq[j]),
            n_samples=n_samples,
            acceptance_rate=acceptance_rate,
            seed=seed,
        )


def lr_from_samples(samples: RatePairSamples, conclusion: Conclusion) -> LrEstimate:
    """Ratio of posterior-mean conclusion rates, H1 over H2: the plain ratio estimator.

    The ratio is that of the column sums.  The Monte Carlo standard error
    comes from the delta method for a ratio of two (correlated) means,
    taken over units: the sums of the kept draws of each antithetic pair
    (``samples.unit``), which are independent, where the draws of a pair
    are not.  Unlike :class:`DrawSummary`, it never integrates q_ID out
    of LR(ID), and its units are the pairs that hold a kept draw, not
    every pair proposed.
    """
    if len(samples) == 0:
        _require_units(0)
    unit = samples.unit
    index = np.cumsum(np.concatenate(([True], unit[1:] != unit[:-1]))) - 1
    sums = _RatioSums(1)
    sums.add(*(np.bincount(index, weights=rates)[:, None]
               for rates in samples.rate_columns(conclusion)))
    return sums.estimate(0, len(samples), samples.acceptance_rate, samples.seed)


def _q_id_certified(rates: np.ndarray, t: float) -> np.ndarray:
    """Which admissible rows of ``rates`` stay admissible with q_ID moved up to ``t``.

    q_Inc and q_Exc move to (1 - t) w and (1 - t) (1 - w), w = q_Inc /
    s with s = q_Inc + q_Exc.  An admissible row already meets the two
    constraints free of q_ID (p_ID > p_Exc, and p_Inc q_Exc > p_Exc
    q_Inc, which the rescaling leaves alone); the other four, each
    multiplied through by s / (1 - t), read p_ID > t, q_Exc > t u, q_Exc
    > p_Exc u and p_ID q_Inc > p_Inc t u, with u = s / (1 - t).
    """
    p_id, p_inc, p_exc, q_inc, q_exc = (rates[:, j] for j in (0, 1, 2, 4, 5))
    u = q_inc + q_exc
    u *= 1.0 / (1.0 - t)
    bound = np.maximum(p_exc, t)
    bound *= u
    certified = q_exc > bound
    certified &= p_id > t
    np.multiply(p_id, q_inc, out=bound)
    u *= t
    u *= p_inc
    certified &= bound > u
    return certified


#: Floor on the rates and support areas the slice integrals divide by.  Where
#: one is 0 the slice is empty, and the floor keeps every quotient finite.
_FLOOR = 1e-300


def _wedge_and_cap_moments(a: np.ndarray, wa: np.ndarray, wc: np.ndarray, lo: np.ndarray | None,
                           g: np.ndarray, cap: np.ndarray, hr: np.ndarray) -> tuple[np.ndarray, ...]:
    """Area, x-moment and y-moment, each times 6, of the region between the
    rays y = lo x and y = (lo + g) x on [a, m], m = a + wa, and between
    y = lo x and y = cap on [m, e], e = m + wc, row by row.

    The upper ray meets the cap at m ((lo + g) m = cap) or the region
    ends there (wc = 0); a, wa, wc and g are >= 0, and hr = cap - lo e is
    the cap's height above the lower ray at e.  ``lo`` None is the ray y
    = 0, which saves two passes.  The caller takes the slopes' difference
    g, the widths and hr in forms that do not cancel where the region is
    thin (see :func:`_inc_integrals`).  Where g = 0 and wc = 0, whatever
    a, the region is empty and all three are 0.  Each piece's area and
    first moments are exact and taken times 6, with no differences of
    cubes, which lose precision on thin pieces.  The wedge: 3 g wa (a +
    m) its area, 2 g wa (a^2 + a m + m^2) its x-moment and (g + 2 lo) / 2
    times that its y-moment.  The cap's trapezoid, of heights hm = g m
    and hr at m and e: 3 wc (hm + hr) its area, wc ((hm + hr) (m + e) +
    hm m + hr e) its x-moment, and 3 cap wc (hm + hr) - wc (hm (hm + hr)
    + hr^2) its y-moment, the integral of (cap^2 - (lo x)^2) / 2 with no
    cancellation beyond 2.  Overwrites ``a`` and ``g``.
    """
    m = a + wa
    hm = g * m
    if lo is None:
        slopes = g  # of the two rays, summed
        g = g * wa
    else:
        slopes = lo * 2.0
        slopes += g
        g *= wa
    am = a + m
    area = g * am
    area *= 3.0
    a *= am
    t = m * m
    a += t
    mx = np.multiply(g, a, out=a)
    my = mx * slopes
    mx *= 2.0
    e = np.add(m, wc, out=slopes)
    h = hm + hr
    wh = h * wc
    u = wh * 3.0
    area += u
    np.add(m, e, out=u)
    u *= wh
    mx += u
    np.multiply(hm, m, out=am)
    np.multiply(hr, e, out=t)
    am += t
    am *= wc
    mx += am
    np.multiply(wh, cap, out=u)
    u *= 3.0
    my += u
    h *= hm
    np.multiply(hr, hr, out=t)
    h += t
    h *= wc
    my -= h
    return area, mx, my


def _id_exc_integrals(rates: np.ndarray, id_out: tuple | None, exc_out: tuple | None) -> None:
    """Integrals of the ID and of the Exc rates over each row's slice at its
    Inc rates, divided by the area of the row's proposal support there.

    ``rates`` holds rows (p_ID, p_Inc, p_Exc, q_ID, q_Inc, q_Exc) of
    proposals; ``id_out`` and ``exc_out`` are (mated, non-mated) columns
    to fill, or None.  With (p1, q1) = (p_Inc, q_Inc) fixed, (x, y) =
    (p_ID, q_ID) ranges over the polygon x in [b / 2, b] with b = 1 - p1
    (p_ID > p_Exc, p_Exc >= 0), 0 <= y <= min(c, r (x - x0)) with c = (1 -
    q1) / 2 (q_Exc > q_ID), r = q1 / p1 and x0 = max(0, q1 - p1) / q1 (the
    two ratio orderings).  p_ID > q_ID and q_Exc > p_Exc hold on all of
    it: their lines meet the upper one at x = b.  Measured from the line's
    foot x0, the right end is d = b - x0 = min(b, 2 c / r), the left end
    max(0, d - b / 2), and the line reaches c at m = min(d, c / r), never
    left of the left end.  So the polygon is
    :func:`_wedge_and_cap_moments`'s region with lo = 0, g = r, cap = hr
    = c, wa = m - a and wc = d - m.  b and 2 c are taken as p_ID + p_Exc
    and q_ID + q_Exc, and every length from them, so each keeps its
    relative precision where the Inc rates are within rounding of 1.  The integral of p_Exc is
    then that of b less p_ID; likewise for q.

    This slice is uniform only where both factors are reflected, so the
    support is the rectangle [b / 2, b] x [0, c].  Where p_Inc or q_Inc
    is 0 the polygon is empty (a ratio ordering fails), and the floors on
    r and on the support keep every quotient finite.
    """
    p_id, p, p_exc, q_id, q, q_exc = (rates[:, j] for j in range(6))
    b = p_id + p_exc
    c2 = q_id + q_exc
    r = np.maximum(p, _FLOOR)
    np.divide(q, r, out=r)
    with np.errstate(divide="ignore"):  # q_Inc = 0: e is inf, and the polygon empty
        e = c2 / r
    d = np.minimum(b, e)  # d, m and a are measured from the foot x0
    e *= 0.5
    m = np.minimum(e, d, out=e)
    a = b * 0.5
    np.subtract(d, a, out=a)
    np.maximum(a, 0.0, out=a)
    wc = d - m
    wa = np.subtract(m, a, out=m)
    c = c2 * 0.5
    area, mx, my = _wedge_and_cap_moments(a, wa, wc, None, r, c, c)
    inverse = b * c2  # 6 times the support's area b c / 2, as the kernel's moments
    inverse *= 1.5
    np.maximum(inverse, _FLOOR, out=inverse)
    np.reciprocal(inverse, out=inverse)
    if exc_out is not None:
        np.multiply(d, area, out=m)
        m -= mx
        np.multiply(m, inverse, out=exc_out[0])
        np.multiply(c2, area, out=m)
        m -= my
        np.multiply(m, inverse, out=exc_out[1])
    if id_out is not None:
        np.subtract(b, d, out=b)  # x0
        b *= area
        b += mx
        np.multiply(b, inverse, out=id_out[0])
        np.multiply(my, inverse, out=id_out[1])


def _inc_integrals(rates: np.ndarray, reflected: tuple[bool, bool], out: tuple) -> None:
    """Integrals of p_Inc and q_Inc over each row's slice at its ID rates,
    into the columns ``out``, each divided by the area of the row's
    proposal support there.

    With (p0, q0) = (p_ID, q_ID) fixed, (x, y) = (p_Inc, q_Inc) ranges over
    the polygon x in [a, b], a = max(0, 1 - 2 p0) and b = 1 - p0 (p_ID >
    p_Exc, p_Exc >= 0), lam x <= y <= min(C, s x), with lam = q0 / p0, C
    = 1 - 2 q0 (q_Exc > q_ID) and s = (1 - q0) / b (the two ratio
    orderings); q_Exc > p_Exc holds on all of it, and p_ID > q_ID does not
    depend on (x, y).  Where the lower line reaches C before b, at C /
    lam, the polygon ends there: at xr.  The upper line reaches C at m = C
    / s, which lies in (a, xr] where p0 > q0.  So the polygon is
    :func:`_wedge_and_cap_moments`'s region with lo = lam, g = s - lam,
    cap = C, wa = m - a, wc = xr - m and hr = C - lam xr.  b, 1 - q0 and C
    are taken from the other rates, as in :func:`_id_exc_integrals`.

    Where p0 is near q0 the polygon is a thin sliver along the ray y = x,
    and the differences g, m - a and xr - m cancel.  On the simplex they
    have forms that do not: g = (p0 - q0) / (p0 b); m - a is m where a =
    0, else (p0 - q0) / (1 - q0), or p0 where m is b; and xr - m is g m
    / lam where xr = C / lam, else b - m, with hr = 0 or C - lam b.  So
    each is the least of its forms, with C - lam b floored at 0.

    The polygon is empty where p0 <= q0 or q0 >= 1/2.  Clamping makes its
    integrals exactly 0 there with no test of either: p0 - q0, floored
    at 0, gives the wedge no height or width and the cap no width, and
    C, floored at 0, the region no height.  The floors on the divisors
    keep every quotient finite.  ``reflected`` says which factors are:
    the support is x in [a, b] where p is, else [0, b], and y in [0, C]
    where q is, else [0, 1 - q0].
    """
    p_reflected, q_reflected = reflected
    p, q = rates[:, 0], rates[:, 3]
    b = rates[:, 1] + rates[:, 2]
    u = rates[:, 4] + rates[:, 5]
    top = u - q
    np.maximum(top, 0.0, out=top)
    inverse = np.minimum(b, p) if p_reflected else b.copy()  # b - a, or b
    inverse *= top if q_reflected else u
    inverse *= 6.0  # as the kernel's moments
    np.maximum(inverse, _FLOOR, out=inverse)
    np.reciprocal(inverse, out=inverse)
    gap = p - q
    np.maximum(gap, 0.0, out=gap)
    floored = np.maximum(p, _FLOOR)
    lam = q / floored
    floored *= np.maximum(b, _FLOOR)
    g = gap / floored
    m = np.add(lam, g, out=floored)
    np.maximum(m, _FLOOR, out=m)
    np.divide(top, m, out=m)
    np.minimum(m, b, out=m)
    np.maximum(u, _FLOOR, out=u)
    wa = np.divide(gap, u, out=gap)
    np.minimum(wa, p, out=wa)
    np.minimum(wa, m, out=wa)
    wc = g * m
    wc /= np.maximum(lam, _FLOOR)
    np.minimum(wc, np.subtract(b, m, out=u), out=wc)
    a = np.subtract(b, p, out=u)
    np.maximum(a, 0.0, out=a)
    hr = np.multiply(lam, b, out=b)
    np.subtract(top, hr, out=hr)
    np.maximum(hr, 0.0, out=hr)
    area, mx, my = _wedge_and_cap_moments(a, wa, wc, lam, g, top, hr)
    np.multiply(mx, inverse, out=out[0])
    np.multiply(my, inverse, out=out[1])


def _contributions(chunk: np.ndarray, kept: np.ndarray, conclusions: Sequence[Conclusion],
                   plan: _Plan) -> tuple[np.ndarray, np.ndarray, int]:
    """Each proposal's contributions to the numerator and the denominator of
    the LR of each of ``conclusions``: two (n, k) arrays, column j for
    ``conclusions[j]``, each column contiguous; and how many kept rows had
    q_ID integrated out.

    ``chunk`` holds the proposals, rows (p_ID, p_Inc, p_Exc, q_ID, q_Inc,
    q_Exc), and ``kept`` marks those that count.  Column j's sums over
    every proposal drawn, divided one by the other, estimate the LR of
    ``conclusions[j]``:

    - for a conclusion c that ``plan`` takes from slice integrals, each
      row's slice integrals of p_c and of q_c over its proposal support's
      area, kept or not, whose means are unbiased for E[p_c 1_A] and
      E[q_c 1_A] under the proposal, A the region;
    - for any other, p_c and q_c on the kept rows and 0 elsewhere, where
      under ``plan.q_id`` LR(ID)'s denominator takes the Beta mean in
      place of q_ID on each certified kept row.

    :class:`_Plan` says where each layer applies.  It writes nothing into
    ``chunk``.
    """
    n = chunk.shape[0]
    num, den = (np.empty((n, len(conclusions)), order="F") for _ in range(2))
    cols = {c: (num[:, j], den[:, j]) for j, c in enumerate(conclusions)}
    integrals = {c: cols.pop(c) for c in plan.sliced(conclusions)}
    if Conclusion.ID in integrals or Conclusion.EXC in integrals:
        _id_exc_integrals(chunk, integrals.get(Conclusion.ID), integrals.get(Conclusion.EXC))
    if Conclusion.INC in integrals:
        _inc_integrals(chunk, plan.reflected, integrals[Conclusion.INC])
    n_integrated = 0
    for c, (p, q) in cols.items():
        np.multiply(chunk[:, c.value], kept, out=p)
        np.multiply(chunk[:, 3 + c.value], kept, out=q)
        if c is Conclusion.ID and plan.q_id is not None:
            t, mean = plan.q_id
            certified = _q_id_certified(chunk, t)
            certified &= kept
            n_integrated = int(np.count_nonzero(certified))
            np.putmask(q, certified, mean)
    return num, den, n_integrated


class DrawSummary:
    """LR sums, and with ``bins`` each conclusion's grid cell counts, of one run's draws.

    ``conclusions`` are the conclusions whose LRs the caller reads
    (:meth:`estimate` refuses any other), and ``plan`` the count table's
    :class:`_Plan`, which says which layers apply.  Each LR is the ratio
    of the sums of :func:`_contributions` over every proposal drawn,
    rejected ones, chunks that keep nothing and the last chunk's
    proposals past the target included, and its SE the delta method's
    over units, every antithetic pair proposed (each proposal alone
    unless the plan is not ``paired``), all in one :class:`_RatioSums`.
    So where the plan integrates neither q_ID nor a slice read, its
    LRs are those of :func:`lr_from_samples` on the same draws, up to
    float rounding, and its SEs those times sqrt(N (n - 1) / (n (N -
    1))), N the units proposed and n those that hold a kept draw.  It
    keeps no draw.  ``n_integrated`` counts the kept rows that had q_ID
    integrated out, which adds a relative bias below ``Q_ID_TAIL``, and
    ``n_sliced`` the proposals that entered as slice integrals, exact
    conditional expectations under the proposal.  On the flat prior, at
    10^6 kept draws, the squared relative error of LR(ID) and LR(Exc) is
    about 5.5e-8, and that of LR(Inc) about 6e-8.

    It is the consumer of :func:`mc.rejection_stream`: each call takes
    one chunk as drawn and the mask of its kept rows, which alone the
    cell counts and ``n_samples`` count.  It folds the chunk in blocks of
    ``_CACHE_ROWS`` rows, whose temporaries stay in cache, the same
    blocks at any thread count.  Where no LR read takes a slice and fewer
    than a quarter of a chunk's units hold a kept row, it folds only
    those units and counts the rest, which add 0 to every sum, as units.  ``n_proposed`` and ``n_chunks`` are the
    sampler's proposals and chunks, which :func:`summarize_draws` sets
    with the acceptance rate.
    """

    def __init__(self, plan: _Plan, seed: int, bins: int = 0,
                 conclusions: Sequence[Conclusion] = tuple(Conclusion)):
        self.plan = plan
        self.seed = seed
        self.conclusions = tuple(conclusions)
        self.sums = _RatioSums(len(self.conclusions))
        self.n_samples = 0
        self.n_integrated = 0
        self.n_sliced = 0
        self.acceptance_rate = math.nan
        self.n_proposed = self.n_chunks = 0
        self.bins = bins
        self.cells = np.zeros((len(Conclusion) if bins else 0, bins * bins), dtype=np.intp)

    def __call__(self, chunk: np.ndarray, kept: np.ndarray) -> None:
        rows = np.flatnonzero(kept)
        for j, cells in enumerate(self.cells):
            _count_cells(cells, chunk[:, j].take(rows), chunk[:, 3 + j].take(rows), self.bins)
        self.n_samples += rows.size
        if self.plan.sliced(self.conclusions):
            self.n_sliced += chunk.shape[0]
        else:
            chunk, kept = self._kept_units(chunk, kept, rows)
        for block in _blocks(chunk.shape[0], _CACHE_ROWS):
            num, den, n_integrated = _contributions(chunk[block], kept[block], self.conclusions,
                                                    self.plan)
            self.n_integrated += n_integrated
            if self.plan.paired:  # rows 2i and 2i + 1 are a pair: blocks are even
                num, den = num[0::2] + num[1::2], den[0::2] + den[1::2]
            self.sums.add(num, den)

    def _kept_units(self, chunk: np.ndarray, kept: np.ndarray,
                    rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the units of ``chunk`` that hold a kept row, and their
        mask, where fewer than a quarter of its units do; else ``chunk`` and
        ``kept``.  The other units, which add 0 to every sum, are counted
        into the sums here, so only the rounding of the sums moves."""
        width = 2 if self.plan.paired else 1
        units = chunk.shape[0] // width
        if 4 * rows.size >= width * units:  # at least a quarter of the units hold one
            return chunk, kept
        held = np.flatnonzero(kept[0::2] | kept[1::2]) if self.plan.paired else rows
        if 4 * held.size >= units:
            return chunk, kept
        if self.plan.paired:  # both rows of each pair, in order
            held = (2 * held[:, None] + np.arange(2)).ravel()
        self.sums.n += units - held.size // width
        return chunk[held], kept[held]

    def estimate(self, conclusion: Conclusion) -> LrEstimate:
        if conclusion not in self.conclusions:
            raise DomainError(f"LR({conclusion.name}) was not summarized from these draws")
        return self.sums.estimate(self.conclusions.index(conclusion), self.n_samples,
                                  self.acceptance_rate, self.seed)

    def density_grid(self, conclusion: Conclusion) -> tuple[np.ndarray, np.ndarray]:
        return _density(self.cells[conclusion.value], self.n_samples, self.bins)

    def counters(self) -> dict:
        """The kept draws, how many had q_ID integrated out, the proposals
        that entered the LRs as slice integrals, the proposals and chunks
        drawn, and the plan's :meth:`_Plan.layers`; none depends on the
        thread count."""
        return {"kept": self.n_samples, "q_id_integrated": self.n_integrated,
                "slice_integrated": self.n_sliced, "proposals": self.n_proposed,
                "chunks": self.n_chunks, "plan": self.plan.layers()}


def summarize_draws(counts: ConclusionCounts | None, n_accepted: int, rng: mc.RngStream,
                    *, bins: int = 0,
                    conclusions: Sequence[Conclusion] = tuple(Conclusion)) -> DrawSummary:
    """Summary of ``n_accepted`` admissible pairs from one count table, drawn on ``rng``.

    The draws are those :func:`sample_rate_pairs` makes on the same stream,
    folded chunk by chunk as they are drawn; with ``bins`` the summary
    also counts each conclusion's grid cells, ``bins`` per axis.  They are
    drawn on a pool of :func:`mc.resolve_threads` workers (the
    ``EVIDENTIAL_WEIGHT_THREADS`` setting, else one per CPU), whose size
    changes no result.  The summary estimates the LRs of ``conclusions``
    alone, by the layers the table's :class:`_Plan` applies; only the
    slices of the conclusions read are integrated.  Any 3 draws span at
    least 2 antithetic pairs, the fewest whose spread a standard error
    can show.
    """
    if n_accepted < 3:
        raise DomainError(f"a Monte Carlo standard error needs at least 3 draws, got {n_accepted}")
    plan = _plan(counts)
    summary = DrawSummary(plan, rng.seed, bins, conclusions)
    summary.acceptance_rate, summary.n_proposed, summary.n_chunks = mc.rejection_stream(
        plan.proposal, _admissible_draws, n_accepted, rng, summary, proposal_mass=plan.mass
    )
    return summary


def lr_for_conclusion(
    conclusion: Conclusion | str,
    counts: ConclusionCounts | None = None,
    n_accepted: int = DEFAULT_N_ACCEPTED,
    rng: mc.RngStream = mc.RngStream(0),
) -> LrEstimate:
    """Recipient LR for hearing one conclusion, given optional validation counts."""
    if isinstance(conclusion, str):
        conclusion = Conclusion.parse(conclusion)
    return summarize_draws(counts, n_accepted, rng, conclusions=(conclusion,)).estimate(conclusion)


def _largest_remainder(total: int, weights: Sequence[int]) -> list[int]:
    """Apportion ``total`` into integer parts proportional to integer ``weights``.

    The parts start as the integer floors of the quotas ``total * w /
    sum(weights)``; the shortfall goes one each to the largest exact
    remainders, equal remainders in the order of the weights.
    """
    whole = sum(weights)
    parts = [total * w // whole for w in weights]
    order = sorted(range(len(weights)), key=lambda j: -(total * weights[j] % whole))
    for j in order[: total - sum(parts)]:
        parts[j] += 1
    return parts


def scaled_counts(base: ConclusionCounts, size: int) -> ConclusionCounts:
    """Rescale a count table to ``size`` total comparisons.

    The mated/non-mated mix and the within-scenario conclusion rates are
    held at the base table's observed values, with largest-remainder
    rounding per scenario so the counts sum exactly to the target.
    """
    if size > MAX_STUDY_SIZE:
        raise DomainError(f"size {size} exceeds the largest study size, 2**53")
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
    """LR per (study size, conclusion) plus the observed-rate asymptotes.

    ``draws`` holds each size's :meth:`DrawSummary.counters`, with its size.
    """

    rows: tuple[SweepRow, ...]
    asymptotes: dict
    draws: tuple[dict, ...]

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
) -> SweepResult:
    """LR for each conclusion across rescaled validation-study sizes.

    Study size ``sizes[i]`` is one :func:`summarize_draws` run, which
    keeps no draw, on the caller's stream offset by ``i + 1``, so
    individual sizes are reproducible in isolation: each row is the
    estimate ``summarize_draws(scaled_counts(base_counts, size),
    n_accepted, rng.substream(i + 1))`` makes.  Its LRs are those
    :func:`lr_from_samples` makes from the draws of
    :func:`sample_rate_pairs` on the same stream, up to float rounding,
    where no row has q_ID integrated out and no slice is integrated (see
    :class:`DrawSummary`).  Every size is checked before the first is
    drawn, and each is drawn on its own pool, as :func:`summarize_draws`
    draws.  The asymptotes are the plug-in rate ratios of
    :func:`core.lr_from_counts` on ``base_counts``, ``inf`` where no H2
    comparison reached the conclusion.
    """
    if len(sizes) == 0:
        raise DomainError("sizes must be nonempty")
    tables = [scaled_counts(base_counts, int(size)) for size in sizes]
    rows, draws = [], []
    for i, (size, counts) in enumerate(zip(sizes, tables)):
        summary = summarize_draws(counts, n_accepted, rng.substream(i + 1))
        rows.extend(SweepRow(int(size), c, summary.estimate(c)) for c in Conclusion)
        draws.append({"size": int(size), **summary.counters()})
    n1, n2 = base_counts.totals()
    asymptotes = {}
    for c in Conclusion:
        try:
            asymptotes[c] = lr_from_counts(
                base_counts.h1[c.value], n1, base_counts.h2[c.value], n2)
        except DegenerateRateError:  # no H2 comparison reached c
            asymptotes[c] = math.inf
    return SweepResult(tuple(rows), asymptotes, tuple(draws))


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
    cells = np.zeros(bins * bins, dtype=np.intp)
    _count_cells(cells, pc, qc, bins)
    return _density(cells, len(samples), bins)


def _count_cells(cells: np.ndarray, pc: np.ndarray, qc: np.ndarray, bins: int) -> None:
    """Add the cell of each (mated, non-mated) rate pair to the flat ``cells`` of a grid."""
    for block in _blocks(pc.size):
        index = _bin_index(pc[block], bins) * bins + _bin_index(qc[block], bins)
        cells += np.bincount(index, minlength=bins * bins)


def _density(cells: np.ndarray, n: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin centers and the (bins, bins) density of the flat cell counts of ``n`` draws."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    grid = cells.reshape(bins, bins).astype(float)
    grid /= n * (1.0 / bins) ** 2
    return 0.5 * (edges[:-1] + edges[1:]), grid


def _bin_index(x: np.ndarray, bins: int) -> np.ndarray:
    """Bin of each rate in [0, 1] on the edges ``np.linspace(0, 1, bins + 1)``,
    exactly as ``np.histogram`` assigns it.

    Bins are half-open, [e_k, e_k+1), except the last, which also holds
    1.0.  ``floor(x * bins)`` can miss by one next to an edge, because
    the edges are rounded; one comparison each way against the edges
    themselves corrects it.  ``linspace`` makes each edge but the last
    (1.0) as k times its step, 1 / bins rounded, so k * step is that edge
    exactly and the comparisons need no table of edges;
    ``test_bins_match_histogram2d_at_every_edge`` holds numpy to that.
    """
    step = 1.0 / bins
    k = x * bins
    np.minimum(k, bins - 1, out=k)
    np.floor(k, out=k)
    edge = k * step
    np.subtract(k, 1.0, out=k, where=x < edge)
    np.add(k, 1.0, out=edge)
    edge *= step
    np.add(k, 1.0, out=k, where=x >= edge)
    np.minimum(k, bins - 1, out=k)  # the last bin is closed: 1.0 stays in it
    return k.astype(np.intp)
