"""Likelihood ratios for a recipient of forensic expert opinions.

The package computes a coherent recipient's likelihood ratio for an
expert's reported opinion (categorical conclusion, scalar log10 LR, LR
interval, or a pair of LRs from two experts) and quantifies how
validation-test data moves that likelihood ratio.

Importing the package loads none of its modules.  Each name in
``__all__``, and each submodule (``evidential_weight.categorical`` and so
on), is imported on first use through the module ``__getattr__`` of
PEP 562, so a command-line process loads only the modules its
subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: The submodule each exported name is defined in.
_HOMES = {
    "Scenario": "core",
    "Odds": "core",
    "LrEstimate": "core",
    "posterior_odds": "core",
    "odds_to_probability": "core",
    "lr_from_counts": "core",
    "RngStream": "mc",
    "QuadratureSpec": "mc",
    "Conclusion": "categorical",
    "ConclusionCounts": "categorical",
    "NormalGammaParams": "scalar_opinion",
    "ScalarValidationSummary": "scalar_opinion",
    "GammaConjParams": "interval_opinion",
    "LrInterval": "interval_opinion",
    "NormalWishartParams": "multi_expert",
    "PairedLrSummary": "multi_expert",
    "TossSequence": "coin_oracle",
    "DomainError": "errors",
    "DegenerateRateError": "errors",
    "ConstraintIntractableError": "errors",
    "QuadratureConvergenceError": "errors",
    "InputFormatError": "errors",
    "LrRangeError": "errors",
}

__all__ = ["__version__", *_HOMES]

_SUBMODULES = frozenset({
    "categorical", "cli", "coin_oracle", "core", "errors", "interval_opinion",
    "mc", "multi_expert", "scalar_opinion", "special",
})


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
