"""Exception types shared across the package."""


class EscortropyError(Exception):
    """Base class for all errors raised by this package."""


class MalformedWeightsError(EscortropyError, ValueError):
    """Weights are not a non-empty, finite numeric array of the expected shape."""


class NegativeWeightError(EscortropyError, ValueError):
    """A probability weight is negative."""


class NotNormalizedError(EscortropyError, ValueError):
    """Weights do not sum to one within tolerance.

    The signed deficit (sum minus one) is kept on the ``deficit`` attribute.
    """

    def __init__(self, deficit: float):
        self.deficit = float(deficit)
        super().__init__(
            f"weights sum to {1.0 + self.deficit!r} (deficit {self.deficit:+.3e}); "
            "outside the accepted normalization tolerance"
        )


class ZeroMarginalColumnError(EscortropyError):
    """Conditioning on an outcome of zero probability."""

    def __init__(self, column: int):
        self.column = int(column)
        super().__init__(
            f"column {self.column} has zero marginal probability; "
            "conditioning on it is undefined"
        )


class DomainCutoffError(EscortropyError, ValueError):
    """Argument fell outside the deformed-logarithm domain 1 + (1-q)x > 0."""


class NonpositiveArgumentError(EscortropyError, ValueError):
    """A logarithm-type argument must be strictly positive."""


class UnreachableFloorError(EscortropyError, ValueError):
    """A sampler's acceptance floor cannot be met, or was not met within its
    attempt cap. The floor is kept on the ``floor`` attribute."""

    def __init__(self, floor: float, reason: str):
        self.floor = float(floor)
        super().__init__(f"mutual-information floor {self.floor!r} {reason}")
