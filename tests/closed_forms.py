"""Closed forms that only the tests call.

Each was public API in the package with no caller there: the pooled
summary of two scalar validation sets, the scalar predictive density on
the linear scale, and observer C's next-toss probability on its own.
"""

import math

from evidential_weight import scalar_opinion as so
from evidential_weight.coin_oracle import TossSequence, markov_posterior
from evidential_weight.scalar_opinion import NormalGammaParams, ScalarValidationSummary


def pooled_summary(
    a: ScalarValidationSummary, b: ScalarValidationSummary
) -> ScalarValidationSummary:
    """Combine two summaries into the summary of the concatenated data."""
    n = a.n + b.n
    mean = (a.n * a.mean + b.n * b.mean) / n
    # sums of squared deviations add, plus the spread of the two means
    # (Chan et al. 1979); unlike E[x^2] - mean^2 nothing cancels
    squares = a.n * a.variance + b.n * b.variance + (b.mean - a.mean) ** 2 * a.n * b.n / n
    return ScalarValidationSummary(n=n, mean=mean, variance=squares / n)


def predictive_density(params: NormalGammaParams, x: float) -> float:
    """Marginal (predictive) density of the reported log10 LR at ``x``."""
    return math.exp(so.predictive_logpdf(params, x))


def prob_next_heads_C(seq: TossSequence | str) -> float:
    """Serial-dependence model: equal-weight mixture over the unknown
    pre-sequence outcome, reporting the posterior-mean transition rate
    from the last observed toss."""
    return markov_posterior(seq).prob_next_heads
