"""Exception hierarchy shared across the package.

Every failure mode that a caller can reasonably branch on gets its own
class; everything derives from QsvError so CLI code can catch one type.
"""


class QsvError(Exception):
    pass


# -- exact backend ----------------------------------------------------------

class ZeroConstantTerm(QsvError):
    """Inversion of a series whose constant coefficient is zero."""


class NegativeQPower(QsvError):
    """A monomial operation produced a negative power of q."""


class NonTruncatable(QsvError):
    """Infinite product whose argument has zero q-valuation: the formal
    series does not stabilise at any finite order."""


class ValuationStall(QsvError):
    """An infinite sum whose terms are not proven to gain q-valuation (its
    valuation bound need not reach the order, or it has none); signals a
    substitution outside the formal domain (e.g. a sum ratio with qpow 0)."""


class TermCapExceeded(QsvError):
    """An exact sum ran past its iteration safety cap (engine.MAX_EXACT_TERMS)
    while its terms were still gaining q-valuation."""


# -- numeric backend --------------------------------------------------------

class ZeroBase(QsvError):
    """cpow with base 0."""


class BaseNotInDisk(QsvError):
    """A Pochhammer base with |base| >= 1."""


class DivisionByZeroProduct(QsvError):
    """A denominator product evaluated to (numerically) zero."""


class NonConvergence(QsvError):
    """A numeric sum failed its tail-bound test within the term cap."""


class NonFiniteValue(QsvError):
    """A NaN or infinity appeared in a numeric intermediate."""


class ConstraintViolation(QsvError):
    """A numeric environment violates a record's magnitude constraints."""


# -- expression layer -------------------------------------------------------

class ParseError(QsvError):
    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(expected) if expected else ()
        loc = f" at line {line}, col {col}" if line is not None else ""
        exp = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{exp}")


class DuplicateId(ParseError):
    pass


class UndeclaredParam(ParseError):
    pass


class UnknownName(QsvError):
    pass


class IndexShadowing(QsvError):
    pass


class NonIntegerExponent(QsvError):
    """An exponent polynomial evaluated to a non-integer (or negative)
    value where the exact backend requires a non-negative integer."""


# -- verifier / CLI ---------------------------------------------------------

class LineageKindUnsupported(QsvError):
    pass


class UnknownId(QsvError):
    pass


class CatalogLoadError(QsvError):
    pass
