"""Shared domain types and odds/Bayes-rule algebra.

The central object is the recipient's likelihood ratio for an expert's
reported opinion: the probability of hearing that opinion under H1
divided by the probability under H2.  Likelihood-ratio arithmetic is
carried in log10 space internally; linear values are materialized at the
API surface.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import DegenerateRateError, DomainError, InputFormatError, LrRangeError

__all__ = [
    "Scenario",
    "Odds",
    "LrEstimate",
    "posterior_odds",
    "odds_to_probability",
    "lr_from_counts",
    "read_scenario_rows",
]

#: Relative tolerance tying ``log10_lr`` to ``log10(lr)`` in LrEstimate.
LOG10_CONSISTENCY_RTOL = 1e-12

#: Smallest linear LR whose inverse a float still holds.
_LR_MIN = 1.0 / sys.float_info.max


class Scenario(enum.Enum):
    """Ground-truth scenario of a comparison: same source (H1) or not (H2)."""

    H1 = "H1"
    H2 = "H2"

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise DomainError(f"unknown scenario {text!r}; expected H1 or H2") from None


def read_scenario_rows(
    lines: Iterable[str], header: str, convert: Callable[[str], object], path: str = ""
) -> Iterator[tuple[Scenario, tuple]]:
    """Yield ``(scenario, values)`` for each row ``scenario,<fields>`` of a validation CSV.

    ``header`` names the columns, as in ``"scenario,log10_lr"``.  A first
    line equal to it (case and spaces aside) is skipped, as are blank
    lines.  ``convert`` turns each field after the scenario into a value
    and rejects a bad one with ``ValueError``.

    Raises
    ------
    InputFormatError
        Citing ``path:line``, for a wrong field count, an unknown scenario
        or a rejected field; citing ``path``, for a file with no data rows.
    """
    names = header.split(",")
    parsers = [Scenario.parse] + [convert] * (len(names) - 1)
    saw_row = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or (lineno == 1 and line.lower().replace(" ", "") == header):
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != len(names):
            raise InputFormatError(
                f"expected {len(names)} fields '{header}', got {len(parts)}",
                path=path, line=lineno,
            )
        values = []
        for name, text, parse in zip(names, parts, parsers):
            try:
                values.append(parse(text))
            except ValueError as exc:
                detail = str(exc) if isinstance(exc, DomainError) else f"bad {name} value {text!r}"
                raise InputFormatError(detail, path=path, line=lineno) from exc
        saw_row = True
        yield values[0], tuple(values[1:])
    if not saw_row:
        raise InputFormatError("no data rows found", path=path)


def _require_positive_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {value!r}")
    return value


@dataclass(frozen=True)
class Odds:
    """Odds of H1 versus H2, the ratio of the two scenario probabilities."""

    value: float

    def __post_init__(self):
        _require_positive_finite("odds value", self.value)


@dataclass(frozen=True)
class LrEstimate:
    """A likelihood-ratio value with Monte Carlo diagnostics.

    ``mc_std_err`` is present exactly when the value came from Monte Carlo;
    closed-form results leave it ``None``.  ``log10_lr`` is the primary
    internal representation and must agree with ``log10(lr)``.
    """

    lr: float
    log10_lr: float
    mc_std_err: float | None = None
    n_samples: int = 0
    acceptance_rate: float | None = None
    seed: int | None = None

    def __post_init__(self):
        _require_positive_finite("lr", self.lr)
        got = math.log10(self.lr)
        tol = LOG10_CONSISTENCY_RTOL * max(1.0, abs(self.log10_lr))
        if abs(got - self.log10_lr) > tol:
            raise DomainError(
                f"log10_lr={self.log10_lr!r} inconsistent with lr={self.lr!r}"
            )
        if self.mc_std_err is not None and not (
            math.isfinite(self.mc_std_err) and self.mc_std_err >= 0.0
        ):
            raise DomainError(f"mc_std_err must be nonnegative, got {self.mc_std_err!r}")
        if self.n_samples < 0:
            raise DomainError(f"n_samples must be nonnegative, got {self.n_samples!r}")
        if self.acceptance_rate is not None and not 0.0 <= self.acceptance_rate <= 1.0:
            raise DomainError(
                f"acceptance_rate must lie in [0, 1], got {self.acceptance_rate!r}"
            )
        if self.seed is not None and not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")

    @classmethod
    def from_log10(
        cls,
        log10_lr: float,
        *,
        mc_std_err: float | None = None,
        n_samples: int = 0,
        acceptance_rate: float | None = None,
        seed: int | None = None,
    ) -> "LrEstimate":
        """Build an estimate from a log10 value (the internal currency).

        Raises
        ------
        LrRangeError
            If the linear LR or its inverse overflows a float.
        """
        log10_lr = float(log10_lr)
        if not math.isfinite(log10_lr):
            raise DomainError(f"log10_lr must be finite, got {log10_lr!r}")
        try:
            lr = 10.0**log10_lr
        except OverflowError:
            lr = math.inf
        if not _LR_MIN <= lr < math.inf:
            raise LrRangeError(log10_lr)
        return cls(
            lr=lr,
            log10_lr=log10_lr,
            mc_std_err=mc_std_err,
            n_samples=n_samples,
            acceptance_rate=acceptance_rate,
            seed=seed,
        )

    def inverse(self) -> "LrEstimate":
        """The likelihood ratio with H1 and H2 exchanged."""
        se = None
        if self.mc_std_err is not None:
            # first-order propagation: se(1/x) = se(x) / x^2
            se = self.mc_std_err / (self.lr * self.lr)
        return LrEstimate(
            lr=1.0 / self.lr,
            log10_lr=-self.log10_lr,
            mc_std_err=se,
            n_samples=self.n_samples,
            acceptance_rate=self.acceptance_rate,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "log10_lr": self.log10_lr,
            "mc_std_err": self.mc_std_err,
            "n_samples": self.n_samples,
            "acceptance_rate": self.acceptance_rate,
            "seed": self.seed,
        }


def posterior_odds(prior: Odds, lr: float) -> Odds:
    """Apply Bayes' rule: posterior odds = prior odds times likelihood ratio."""
    if not isinstance(prior, Odds):
        prior = Odds(_require_positive_finite("prior", prior))
    lr = _require_positive_finite("lr", lr)
    value = prior.value * lr
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(
            f"posterior odds {value!r} not representable for prior={prior.value!r}, lr={lr!r}"
        )
    return Odds(value)


def odds_to_probability(o: Odds) -> float:
    """Convert odds of H1 versus H2 into the probability of H1."""
    if not isinstance(o, Odds):
        o = Odds(float(o))
    return o.value / (1.0 + o.value)


def _require_count(name: str, value: int) -> int:
    if isinstance(value, bool) or int(value) != value or value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def lr_from_counts(k1: int, n1: int, k2: int, n2: int) -> float:
    """Relative-frequency ratio (k1/n1) / (k2/n2) from validation counts.

    This is the plug-in, model-free analogue of a likelihood ratio for a
    reported conclusion: the observed rate of that conclusion among H1
    comparisons over its observed rate among H2 comparisons.

    Raises
    ------
    DegenerateRateError
        If ``k2`` is zero, where the ratio is undefined and a model-based
        likelihood ratio must be used instead.
    """
    k1 = _require_count("k1", k1)
    n1 = _require_count("n1", n1)
    k2 = _require_count("k2", k2)
    n2 = _require_count("n2", n2)
    if n1 == 0 or n2 == 0:
        raise DomainError("n1 and n2 must be positive")
    if k1 > n1 or k2 > n2:
        raise DomainError("counts must satisfy k1 <= n1 and k2 <= n2")
    if k2 == 0:
        raise DegenerateRateError(
            "k2 = 0 gives a zero denominator rate; use a model-based LR instead"
        )
    return (k1 / n1) / (k2 / n2)
