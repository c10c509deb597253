"""Shared exception types."""


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class PrecisionError(ArithmeticError):
    """Not enough p-adic precision to perform or certify an operation."""


class NoRootError(DomainError):
    """No square root exists (quadratic non-residue)."""


class RamifiedError(DomainError):
    """Square root of a p-divisible element is not supported."""


class PoleError(DomainError):
    """Evaluation at a pole (or a degenerate point of the defining formula)."""


class UnsupportedPoleError(PoleError):
    """The p-adic L-function has a pole for this character twist."""


class ConsistencyError(ArithmeticError):
    """Two internal routes disagreed beyond tolerance, or a guaranteed result was not found."""


class IndeterminateOrderError(PrecisionError):
    """Every coefficient vanishes to working precision; a vanishing order cannot be read off."""


class ConstructionError(ValueError):
    """Algebra construction parameters are inconsistent."""


class DegenerateInstanceError(ValueError):
    """An instance-level normalization is impossible (e.g. vanishing constant term)."""

