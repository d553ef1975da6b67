"""Likelihood ratios for a recipient of forensic expert opinions.

The package computes a coherent recipient's likelihood ratio for an
expert's reported opinion (categorical conclusion, scalar log10 LR, LR
interval, or a pair of LRs from two experts) and quantifies how
validation-test data moves that likelihood ratio.
"""

from .core import LrEstimate, Odds, Scenario, lr_from_counts, odds_to_probability, posterior_odds
from .errors import (
    ConstraintIntractableError,
    DegenerateRateError,
    DomainError,
    InputFormatError,
    LrRangeError,
    QuadratureConvergenceError,
)
from .mc import QuadratureSpec, RngStream
from .categorical import Conclusion, ConclusionCounts, ConclusionRates, RatePair
from .scalar_opinion import NormalGammaParams, ScalarValidationSummary
from .interval_opinion import GammaConjParams, LrInterval
from .multi_expert import NormalWishartParams, PairedLrSummary
from .coin_oracle import TossSequence

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Scenario",
    "Odds",
    "LrEstimate",
    "posterior_odds",
    "odds_to_probability",
    "lr_from_counts",
    "RngStream",
    "QuadratureSpec",
    "Conclusion",
    "ConclusionCounts",
    "ConclusionRates",
    "RatePair",
    "NormalGammaParams",
    "ScalarValidationSummary",
    "GammaConjParams",
    "LrInterval",
    "NormalWishartParams",
    "PairedLrSummary",
    "TossSequence",
    "DomainError",
    "DegenerateRateError",
    "ConstraintIntractableError",
    "QuadratureConvergenceError",
    "InputFormatError",
    "LrRangeError",
]
