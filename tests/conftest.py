"""Shared fixtures: the expensive million-draw samples are built once.

Every hypothesis property test runs under one derandomized profile with no
example database, so a verdict depends on neither the random search nor
on earlier local runs.  Per-test ``settings`` still set ``max_examples``.
"""

import pytest
from hypothesis import settings

from evidential_weight import categorical, mc

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

#: The black-box study counts used throughout: mated (ID, Inc, Exc) and
#: non-mated (ID, Inc, Exc) conclusion tallies.
STUDY_COUNTS = categorical.ConclusionCounts((3663, 1856, 450), (6, 455, 3622))


@pytest.fixture(scope="session")
def study_counts() -> categorical.ConclusionCounts:
    return STUDY_COUNTS


@pytest.fixture(scope="session")
def prior_samples() -> categorical.RatePairSamples:
    """One million accepted draws from the constrained uniform prior."""
    return categorical.sample_rate_pairs(None, 1_000_000, mc.RngStream(20250809))


@pytest.fixture(scope="session")
def study_samples() -> categorical.RatePairSamples:
    """One million accepted draws from the study-count posterior."""
    return categorical.sample_rate_pairs(STUDY_COUNTS, 1_000_000, mc.RngStream(20250810))
