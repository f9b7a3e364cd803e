"""Domain exceptions shared across the package."""


class PrimstabError(Exception):
    """Base class for every domain error this package raises."""


class InvalidLetter(PrimstabError):
    """A letter is zero or its generator index exceeds the rank."""


class WordParseError(PrimstabError):
    """A word string contains characters outside a-z / A-Z."""


class RankMismatch(PrimstabError):
    """Two objects that must share a rank do not."""


class ClosedOnNonCyclicallyReduced(PrimstabError):
    """A closed Whitehead graph was requested for a word that is not cyclically reduced."""


class RankTooLarge(PrimstabError):
    """The rank exceeds ``whitehead.RANK_CAP``, the cap of the enumeration of
    primitive classes (and so of the primitive-spectrum scan)."""


class NotCoprime(PrimstabError):
    """Slope coordinates are not coprime, or are both zero."""


class BadSubset(PrimstabError):
    """A generator subset is empty, repeated, out of range, or not proper."""


class DegenerateAction(PrimstabError):
    """The upper-half-space action hit a numerically degenerate denominator."""


class ImageIsLine(PrimstabError):
    """The circle passes through the pole of the map, so its image is a line."""


class DegenerateMatrix(PrimstabError):
    """The matrix has (numerically) zero determinant; no det-1 rescaling exists."""


class ParseError(PrimstabError):
    """A structured input document is syntactically valid JSON but not usable."""


class DeterminantError(PrimstabError):
    """A matrix is too far from determinant one."""


class NonFiniteValue(PrimstabError, ValueError):
    """A value that must be a finite number is infinite or NaN."""


class FrickeMismatch(PrimstabError, ValueError):
    """Traces (x, y, z, kappa) miss the identity x^2 + y^2 + z^2 - xyz - 2 = kappa."""


class CheckFailed(PrimstabError, ArithmeticError):
    """A computed result failed the consistency check that guards it."""
