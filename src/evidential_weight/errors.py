"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateRateError(DomainError):
    """A relative-frequency ratio has a zero denominator rate.

    Raised by :func:`evidential_weight.core.lr_from_counts` when the
    reference count is zero; the caller must fall back to a model-based
    likelihood ratio instead of a plug-in rate ratio.
    """


class ConstraintIntractableError(RuntimeError):
    """Rejection sampling cannot reach the requested acceptance count.

    The empirical acceptance rate stayed below the configured floor after
    the probe budget of proposals was spent.
    """

    def __init__(self, message: str, acceptance_rate: float, n_proposed: int):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate
        self.n_proposed = n_proposed


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature did not converge within the refinement budget."""

    def __init__(self, message: str, last_two_estimates: tuple):
        super().__init__(message)
        self.last_two_estimates = last_two_estimates


class LrRangeError(RuntimeError):
    """A likelihood ratio is exact in log10 but too large or too small for a float.

    Raised where a linear LR must be materialized; ``log10_lr`` carries the
    exact value.
    """

    def __init__(self, log10_lr: float):
        super().__init__(
            f"log10 LR = {log10_lr!r} is outside the range of a float LR "
            f"(|log10 LR| up to about 308)"
        )
        self.log10_lr = log10_lr


class InputFormatError(ValueError):
    """A priors/validation input file failed to parse.

    Carries enough location detail (path and, for row-based formats, the
    1-based line number) for command-line error messages.
    """

    def __init__(self, message: str, path: str = "", line: int | None = None):
        loc = path
        if line is not None:
            loc = f"{path}:{line}" if path else f"line {line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line
