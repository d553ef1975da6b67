"""Shared domain types, odds/Bayes-rule algebra and the Student-t density.

The central object is the recipient's likelihood ratio for an expert's
reported opinion: the probability of hearing that opinion under H1
divided by the probability under H2.  Likelihood-ratio arithmetic is
carried in log10 space: an :class:`LrEstimate` stores only ``log10_lr``,
and its linear ``lr`` is derived from it on access.
"""

from __future__ import annotations

import enum
import math
import numbers
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
    "linear_lr",
    "student_t_logpdf",
    "require_count",
    "require_positive",
    "read_scenario_rows",
    "float_rows",
]

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


#: Values per column converted at a time by :func:`float_rows`.
_ROW_BLOCK = 1 << 14


def float_rows(*columns) -> Iterator[tuple]:
    """Rows of Python floats across equal-length 1-D arrays, for CSV emission.

    Each column is converted a block at a time, so a long curve never
    exists as one list of Python floats.
    """
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        yield from zip(*(column[block].tolist() for column in columns))


def require_positive(name: str, value: float) -> float:
    """``value`` as a float, checked to be positive and finite."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {value!r}")
    return value


def require_count(name: str, value) -> int:
    """``value`` as an int: an integer (numpy's included) or a float holding one, not a bool."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not whole or value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Odds:
    """Odds of H1 versus H2, the ratio of the two scenario probabilities."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", require_positive("odds value", self.value))


@dataclass(frozen=True)
class LrEstimate:
    """A likelihood ratio, held as its log10, with Monte Carlo diagnostics.

    ``mc_std_err`` is present exactly when the value came from Monte Carlo;
    closed-form results leave it ``None``.  The linear ``lr`` is derived
    from ``log10_lr``; an LR whose value or inverse overflows a float
    raises :class:`LrRangeError`.
    """

    log10_lr: float
    mc_std_err: float | None = None
    n_samples: int = 0
    acceptance_rate: float | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "log10_lr", float(self.log10_lr))
        if not math.isfinite(self.log10_lr):
            raise DomainError(f"log10_lr must be finite, got {self.log10_lr!r}")
        if not _LR_MIN <= self.lr < math.inf:
            raise LrRangeError(self.log10_lr)
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

    @property
    def lr(self) -> float:
        """The linear likelihood ratio, ``inf`` where it overflows a float."""
        return linear_lr(self.log10_lr)

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "log10_lr": self.log10_lr,
            "mc_std_err": self.mc_std_err,
            "n_samples": self.n_samples,
            "acceptance_rate": self.acceptance_rate,
            "seed": self.seed,
        }


def linear_lr(log10_lr: float) -> float:
    """``10 ** log10_lr``: ``inf`` where it overflows a float, 0.0 where it underflows."""
    try:
        return 10.0**log10_lr
    except OverflowError:
        return math.inf


def posterior_odds(prior: Odds, lr: float) -> Odds:
    """Apply Bayes' rule: posterior odds = prior odds times likelihood ratio."""
    if not isinstance(prior, Odds):
        prior = Odds(require_positive("prior", prior))
    lr = require_positive("lr", lr)
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
    k1 = require_count("k1", k1)
    n1 = require_count("n1", n1)
    k2 = require_count("k2", k2)
    n2 = require_count("n2", n2)
    if n1 == 0 or n2 == 0:
        raise DomainError("n1 and n2 must be positive")
    if k1 > n1 or k2 > n2:
        raise DomainError("counts must satisfy k1 <= n1 and k2 <= n2")
    if k2 == 0:
        raise DegenerateRateError(
            "k2 = 0 gives a zero denominator rate; use a model-based LR instead"
        )
    return (k1 / n1) / (k2 / n2)


#: Degrees of freedom from which the d = 1 gamma ratio of the t's normalizer
#: comes from its asymptotic series, accurate to double precision from df = 40
#: on, rather than from two large ``lgamma`` values, which lose digits.
_T_SERIES_MIN_DF = 50.0


def _t_log_gamma_ratio(df: float, d: int) -> float:
    """log Gamma((df + d)/2) - log Gamma(df/2) without cancellation, for d = 1 or 2:
    log(df/2) at d = 2; at d = 1, ``lgamma`` below ``_T_SERIES_MIN_DF`` and above it the
    asymptotic series, coefficients (2^(1-n) - 2) B_n / (n (n-1)) for Bernoulli numbers B_n."""
    a = 0.5 * df
    if not a > 0.0:
        raise DomainError(f"degrees of freedom {df!r} are too small for a t density")
    if d == 2:
        return math.log(a)
    if df < _T_SERIES_MIN_DF:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z2 = 1.0 / (a * a)
    return 0.5 * math.log(a) - (
        1 / 8 - z2 * (1 / 192 - z2 * (1 / 640 - z2 * (17 / 14336 - z2 * 31 / 18432)))
    ) / a


def student_t_logpdf(
    q: float, df: float, d: int, half_logdet: float, log_q: float | None = None
) -> float:
    """Log density of a d-variate Student-t, d = 1 or 2, shared by the scalar
    and pair opinions: ``q`` is (x - loc)' S^-1 (x - loc) for the scale
    matrix S (z^2 at d = 1) and ``half_logdet`` is log det S / 2.

    Past the overflow of q / df, log1p(q / df) = log q - log df, as df / q
    is below the smallest float; a caller whose q overflowed passes ``log_q``.
    """
    ratio = q / df
    if ratio < math.inf:
        log1p_ratio = math.log1p(ratio)
    else:
        log1p_ratio = (math.log(q) if log_q is None else log_q) - math.log(df)
    tail = 0.5 * (df + d) * log1p_ratio
    if tail == math.inf:
        raise OverflowError(f"the t log density with df = {df!r} is beyond the float range")
    return _t_log_gamma_ratio(df, d) - 0.5 * d * math.log(df * math.pi) - half_logdet - tail
