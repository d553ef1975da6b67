"""Three observers, one dataset, three defensible probabilities."""

import math

import pytest
from hypothesis import given, strategies as st

from closed_forms import prob_next_heads_C
from evidential_weight import coin_oracle as co
from evidential_weight.errors import DomainError

SEQUENCE = "HHHHHTTT"

toss_strings = st.text(alphabet="HT", min_size=1, max_size=20)


def brute_force_observer_c(seq: str) -> tuple[float, float]:
    """Enumerate both pre-sequence branches directly from transition counts.

    Returns (equal-weight value, likelihood-weighted value); independent
    of the module's tallying code.
    """
    means = []
    marginals = []
    for y0 in "HT":
        chain = y0 + seq
        after_h = [b for a, b in zip(chain, chain[1:]) if a == "H"]
        after_t = [b for a, b in zip(chain, chain[1:]) if a == "T"]
        hh, th = after_h.count("H"), after_h.count("T")
        ht, tt = after_t.count("H"), after_t.count("T")
        if seq[-1] == "H":
            means.append((hh + 1) / (hh + th + 2))
        else:
            means.append((ht + 1) / (ht + tt + 2))

        def log_beta(a, b):
            return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

        marginals.append(math.exp(log_beta(hh + 1, th + 1) + log_beta(ht + 1, tt + 1)))
    equal = 0.5 * (means[0] + means[1])
    weighted = (marginals[0] * means[0] + marginals[1] * means[1]) / sum(marginals)
    return equal, weighted


class TestObserverA:
    @pytest.mark.parametrize("seq", [SEQUENCE, "", "TTTT", "H"])
    def test_always_half(self, seq):
        assert co.prob_next_heads_A(seq) == 0.5


class TestObserverB:
    def test_reference_sequence(self):
        assert co.prob_next_heads_B(SEQUENCE) == pytest.approx(0.6, abs=1e-15)

    def test_empty_sequence_prior_mean(self):
        assert co.prob_next_heads_B("") == 0.5

    def test_single_head(self):
        assert co.prob_next_heads_B("H") == pytest.approx(2 / 3, abs=1e-15)

    @given(seq=toss_strings)
    def test_exchangeability(self, seq):
        rotated = seq[1:] + seq[0]
        assert co.prob_next_heads_B(seq) == co.prob_next_heads_B(rotated)
        assert co.prob_next_heads_B(seq) == co.prob_next_heads_B(seq[::-1])


class TestObserverC:
    def test_reference_sequence(self):
        # equal-weight mixture of Beta(1,3) and Beta(2,3) means
        assert prob_next_heads_C(SEQUENCE) == pytest.approx(0.325, abs=1e-15)

    def test_reference_branch_parameters(self):
        posterior = co.markov_posterior(SEQUENCE)
        by_first = {b.first_outcome: b for b in posterior.branches}
        assert by_first["H"].p_beta == (6, 2)
        assert by_first["T"].p_beta == (5, 2)
        assert by_first["H"].q_beta == (1, 3)
        assert by_first["T"].q_beta == (2, 3)

    def test_single_head(self):
        assert prob_next_heads_C("H") == pytest.approx(7 / 12, abs=1e-15)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            prob_next_heads_C("")

    def test_all_heads_monotone_to_one(self):
        values = [prob_next_heads_C("H" * n) for n in range(1, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.9

    @given(seq=toss_strings)
    def test_matches_brute_force_enumeration(self, seq):
        equal, weighted = brute_force_observer_c(seq)
        posterior = co.markov_posterior(seq)
        assert posterior.prob_next_heads == pytest.approx(equal, abs=1e-12)
        assert posterior.prob_next_heads_likelihood_weighted == pytest.approx(
            weighted, abs=1e-12
        )

    def test_order_sensitivity(self):
        assert prob_next_heads_C(SEQUENCE) != prob_next_heads_C(SEQUENCE[::-1])

    def test_likelihood_weighting_differs_from_equal(self):
        posterior = co.markov_posterior(SEQUENCE)
        assert posterior.prob_next_heads_likelihood_weighted == pytest.approx(
            0.2888888888888889, abs=1e-12
        )
        assert posterior.prob_next_heads != posterior.prob_next_heads_likelihood_weighted


class TestCoherence:
    @given(seq=toss_strings)
    def test_outputs_in_unit_interval(self, seq):
        for fn in (co.prob_next_heads_A, co.prob_next_heads_B, prob_next_heads_C):
            assert 0.0 < fn(seq) < 1.0

    @given(seq=toss_strings)
    def test_heads_tails_probabilities_sum_to_one(self, seq):
        # P(next T) for each observer is the same model applied to the
        # relabeled sequence, so the pair must sum to one exactly
        flipped = seq.translate(str.maketrans("HT", "TH"))
        assert co.prob_next_heads_A(seq) + co.prob_next_heads_A(flipped) == 1.0
        assert co.prob_next_heads_B(seq) + co.prob_next_heads_B(flipped) == 1.0
        assert prob_next_heads_C(seq) + prob_next_heads_C(flipped) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_invalid_characters_rejected(self):
        with pytest.raises(DomainError, match="toss 3"):
            co.TossSequence.from_string("HHXT")
