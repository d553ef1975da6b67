"""Odds algebra, LrEstimate validation, and count-ratio behavior."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from evidential_weight.core import (
    LrEstimate,
    Odds,
    lr_from_counts,
    odds_to_probability,
    posterior_odds,
)
from evidential_weight.errors import DegenerateRateError, DomainError, LrRangeError
from evidential_weight.interval_opinion import GammaConjParams, LrInterval
from evidential_weight.multi_expert import NormalWishartParams
from evidential_weight.scalar_opinion import NormalGammaParams, ScalarValidationSummary

finite_positive = st.floats(
    min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestPosteriorOdds:
    def test_identity(self):
        assert posterior_odds(Odds(1.0), 1.0).value == 1.0

    def test_if_then_example(self):
        # prior odds 0.1 with LR 100 must give posterior odds 10
        assert posterior_odds(Odds(0.1), 100.0).value == pytest.approx(10.0, rel=1e-12)

    def test_reciprocal_cancellation(self):
        assert posterior_odds(Odds(2.0), 0.5).value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_lr(self, bad):
        with pytest.raises(DomainError, match="lr"):
            posterior_odds(Odds(1.0), bad)

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, math.nan])
    def test_rejects_bad_prior(self, bad):
        with pytest.raises(DomainError, match="odds|prior"):
            posterior_odds(Odds(bad), 2.0)

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_names_prior_when_given_raw_number(self, bad):
        with pytest.raises(DomainError, match="prior"):
            posterior_odds(bad, 2.0)

    @given(o=finite_positive, a=finite_positive, b=finite_positive)
    def test_sequential_update_associativity(self, o, a, b):
        two_step = posterior_odds(posterior_odds(Odds(o), a), b)
        one_step = posterior_odds(Odds(o), a * b)
        assert two_step.value == pytest.approx(one_step.value, rel=1e-12)


class TestOddsToProbability:
    @pytest.mark.parametrize("odds,prob", [(1.0, 0.5), (3.0, 0.75), (0.25, 0.2)])
    def test_known_values(self, odds, prob):
        assert odds_to_probability(Odds(odds)) == pytest.approx(prob, rel=1e-12)

    @given(x=finite_positive)
    def test_complementarity(self, x):
        assert odds_to_probability(Odds(1.0 / x)) == pytest.approx(
            1.0 - odds_to_probability(Odds(x)), abs=1e-12
        )

    @given(
        x=st.floats(min_value=1e-6, max_value=1e6),
        bump=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_strictly_increasing(self, x, bump):
        assert odds_to_probability(Odds(x + bump)) > odds_to_probability(Odds(x))


@pytest.mark.parametrize("cls, args", [
    (Odds, ("2",)),
    (NormalGammaParams, ("5", "1", "0.01", "1")),
    (GammaConjParams, ("0.5", "6", "2", "2")),
    (LrInterval, ("1", "2")),
    (NormalWishartParams, (("0", "1"), "2", (("1", "0"), ("0", "1")), "2")),
    (ScalarValidationSummary, (3, "0.5", "2")),
], ids=["Odds", "NormalGammaParams", "GammaConjParams", "LrInterval", "NormalWishartParams",
        "ScalarValidationSummary"])
def test_numeric_strings_are_stored_as_floats(cls, args):
    value = cls(*args)
    for field, arg in zip(dataclasses.fields(value), args):
        stored = getattr(value, field.name)
        if field.name == "n":  # a count, stored as an int
            assert stored == arg and type(stored) is int
        elif isinstance(arg, tuple):  # a vector or a matrix, stored as tuples of floats
            flat = [v for a in stored for v in (a if isinstance(a, tuple) else (a,))]
            want = [float(v) for a in arg for v in (a if isinstance(a, tuple) else (a,))]
            assert flat == want and all(type(v) is float for v in flat)
        else:
            assert stored == float(arg) and type(stored) is float


class TestLrFromCounts:
    def test_inconclusive_rate_ratio(self):
        value = lr_from_counts(11, 1090, 735, 2180)
        assert value == pytest.approx((11 / 1090) / (735 / 2180), rel=1e-15)
        assert value == pytest.approx(1 / 33, rel=0.02)

    def test_symmetry(self):
        assert lr_from_counts(5, 10, 5, 10) == 1.0

    def test_study_id_ratio(self):
        # arithmetic on the study table totals; observed ratio ~ 418
        value = lr_from_counts(3663, 5969, 6, 4083)
        assert value == pytest.approx((3663 / 5969) / (6 / 4083), rel=1e-15)
        assert value == pytest.approx(417.6, abs=0.05)

    def test_zero_denominator_rate(self):
        with pytest.raises(DegenerateRateError):
            lr_from_counts(5, 10, 0, 10)

    @pytest.mark.parametrize(
        "args", [(5, 0, 1, 10), (5, 10, 1, 0), (11, 10, 1, 10), (-1, 10, 1, 10), (1.5, 10, 1, 10),
                 (math.inf, 1, 1, 1), (math.nan, 1, 1, 1), (True, 1, 1, 1), ("3", 4, 1, 4)]
    )
    def test_rejects_bad_counts(self, args):
        with pytest.raises(DomainError):
            lr_from_counts(*args)

    def test_accepts_numpy_and_integral_float_counts(self):
        import numpy as np

        assert lr_from_counts(np.int64(2), 4.0, np.uint8(1), np.float64(4)) == 2.0

    @given(
        k1=st.integers(min_value=1, max_value=1000),
        n1=st.integers(min_value=1000, max_value=2000),
        k2=st.integers(min_value=1, max_value=1000),
        n2=st.integers(min_value=1000, max_value=2000),
    )
    def test_inversion_product_is_one(self, k1, n1, k2, n2):
        forward = lr_from_counts(k1, n1, k2, n2)
        backward = lr_from_counts(k2, n2, k1, n1)
        assert forward * backward == pytest.approx(1.0, rel=1e-12)


class TestLrEstimate:
    @pytest.mark.parametrize("log10_lr", [math.nan, math.inf, -math.inf])
    def test_nonfinite_log10_rejected(self, log10_lr):
        with pytest.raises(DomainError, match="log10_lr must be finite"):
            LrEstimate(log10_lr)

    def test_lr_is_ten_to_the_log10(self):
        assert LrEstimate(2.0).lr == 100.0
        assert LrEstimate(-1).lr == 0.1 and isinstance(LrEstimate(-1).log10_lr, float)

    def test_log10_roundtrip(self):
        est = LrEstimate(2.5, mc_std_err=0.1, n_samples=100)
        assert est.lr == pytest.approx(10**2.5, rel=1e-15)
        assert est.log10_lr == 2.5
        assert est.mc_std_err == 0.1

    @pytest.mark.parametrize("log10_lr", [308.0, -308.0])
    def test_edge_of_float_range(self, log10_lr):
        est = LrEstimate(log10_lr)
        assert math.isfinite(1.0 / est.lr) and 1.0 / est.lr > 0.0

    @pytest.mark.parametrize("log10_lr", [308.5, -308.5, 1501.5, -1501.5])
    def test_beyond_float_range_raises(self, log10_lr):
        with pytest.raises(LrRangeError, match=f"log10 LR = {log10_lr!r}") as info:
            LrEstimate(log10_lr)
        assert info.value.log10_lr == log10_lr

    def test_closed_form_has_no_mc_error(self):
        est = LrEstimate(0.3)
        assert est.mc_std_err is None

    def test_acceptance_rate_bounds(self):
        with pytest.raises(DomainError):
            LrEstimate(0.0, acceptance_rate=1.5)
