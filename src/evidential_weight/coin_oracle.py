"""Three coherent observers assigning different probabilities to a coin toss.

Observer A fixes the heads probability at one half; observer B models
i.i.d. tosses with a uniform prior on the heads rate; observer C models
first-order serial dependence with separate heads rates after a head and
after a tail, an unknown pre-sequence outcome, and uniform priors.  All
three apply Bayes' rule correctly yet report different numbers for the
same data, which is the point of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "TossSequence",
    "MarkovBranch",
    "MarkovPosterior",
    "prob_next_heads_A",
    "prob_next_heads_B",
    "markov_posterior",
]


@dataclass(frozen=True)
class TossSequence:
    """An ordered record of coin tosses over {H, T}."""

    tosses: tuple[str, ...]

    def __post_init__(self):
        for i, t in enumerate(self.tosses):
            if t not in ("H", "T"):
                raise DomainError(f"toss {i + 1} must be 'H' or 'T', got {t!r}")
        object.__setattr__(self, "tosses", tuple(self.tosses))

    @classmethod
    def from_string(cls, text: str) -> "TossSequence":
        return cls(tuple(text.strip().upper()))

    def __len__(self) -> int:
        return len(self.tosses)

    @property
    def heads(self) -> int:
        return sum(1 for t in self.tosses if t == "H")


def _coerce(seq: TossSequence | str) -> TossSequence:
    return seq if isinstance(seq, TossSequence) else TossSequence.from_string(seq)


def prob_next_heads_A(seq: TossSequence | str) -> float:
    """A degenerate believer in a fair, independent coin: always one half."""
    _coerce(seq)
    return 0.5


def prob_next_heads_B(seq: TossSequence | str) -> float:
    """Uniform-prior i.i.d. model: posterior-mean heads rate (h+1)/(n+2)."""
    seq = _coerce(seq)
    return (seq.heads + 1) / (len(seq) + 2)


@dataclass(frozen=True)
class MarkovBranch:
    """Transition tallies and Beta posteriors for one pre-sequence outcome."""

    first_outcome: str
    heads_after_heads: int
    tails_after_heads: int
    heads_after_tails: int
    tails_after_tails: int

    @property
    def p_beta(self) -> tuple[int, int]:
        """Beta parameters of P(H | previous H) under a uniform prior."""
        return (self.heads_after_heads + 1, self.tails_after_heads + 1)

    @property
    def q_beta(self) -> tuple[int, int]:
        """Beta parameters of P(H | previous T) under a uniform prior."""
        return (self.heads_after_tails + 1, self.tails_after_tails + 1)

    @property
    def log_marginal(self) -> float:
        """Log marginal likelihood of the observed transitions in this branch."""

        def log_beta_fn(a: int, b: int) -> float:
            return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

        return log_beta_fn(*self.p_beta) + log_beta_fn(*self.q_beta)


@dataclass(frozen=True)
class MarkovPosterior:
    """Observer C's full posterior summary for a toss sequence."""

    branches: tuple[MarkovBranch, MarkovBranch]
    last_toss: str
    prob_next_heads: float
    prob_next_heads_likelihood_weighted: float


def markov_posterior(seq: TossSequence | str) -> MarkovPosterior:
    """Observer C's posterior over the serial-dependence model.

    The unknown outcome before the sequence is given probability one half
    for each value; the reported probability averages the two branch
    posterior means with those equal weights.  A likelihood-weighted
    average (weights proportional to each branch's marginal likelihood)
    is carried alongside as a diagnostic.
    """
    seq = _coerce(seq)
    if len(seq) == 0:
        raise DomainError("observer C requires a nonempty toss sequence")

    branches = []
    for first_outcome in ("H", "T"):
        tally = {("H", "H"): 0, ("H", "T"): 0, ("T", "H"): 0, ("T", "T"): 0}
        prev = first_outcome
        for toss in seq.tosses:
            tally[(prev, toss)] += 1
            prev = toss
        branches.append(
            MarkovBranch(
                first_outcome=first_outcome,
                heads_after_heads=tally[("H", "H")],
                tails_after_heads=tally[("H", "T")],
                heads_after_tails=tally[("T", "H")],
                tails_after_tails=tally[("T", "T")],
            )
        )

    last = seq.tosses[-1]

    def branch_mean(branch: MarkovBranch) -> float:
        a, b = branch.p_beta if last == "H" else branch.q_beta
        return a / (a + b)

    means = [branch_mean(br) for br in branches]
    equal_weight = 0.5 * means[0] + 0.5 * means[1]

    log_weights = [br.log_marginal for br in branches]
    shift = max(log_weights)
    weights = [math.exp(lw - shift) for lw in log_weights]
    total = sum(weights)
    likelihood_weighted = sum(w * m for w, m in zip(weights, means)) / total

    return MarkovPosterior(
        branches=(branches[0], branches[1]),
        last_toss=last,
        prob_next_heads=equal_weight,
        prob_next_heads_likelihood_weighted=likelihood_weighted,
    )

