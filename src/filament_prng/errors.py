"""Exception types shared across the package.

Contract violations derive from ValueError through DomainError, so callers
that only care about "bad input" can catch a single class.  A relation
that holds by theorem but fails at run time is an InvariantViolation.
"""


class DomainError(ValueError):
    """Base class for contract violations raised by this package."""


class NotCoprime(DomainError):
    pass


class EvenModulus(DomainError):
    pass


class RangeError(DomainError):
    pass


class CompositeModulus(DomainError):
    pass


class DegeneratePolygon(DomainError):
    pass


class InvariantViolation(ArithmeticError):
    pass


class BadParameters(DomainError):
    pass


class BadPrimes(DomainError):
    pass


class BadLags(DomainError):
    pass


class TooLarge(DomainError):
    pass


class BadDimension(DomainError):
    pass


class BadT(DomainError):
    pass


class EmptyInput(DomainError):
    pass
