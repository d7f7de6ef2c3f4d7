"""Exception types shared across the package, and the index-subset check.

Every validation failure raises a named exception so callers can tell
bad input apart from a genuine inequality violation.  Violations of the
inequalities under test are never exceptions: they are reported as data
in the result objects.
"""


class MultsysError(ValueError):
    """Base class for all validation errors raised by this package."""


# ---------------------------------------------------------------- step functions

class NonAscendingBreakpoints(MultsysError):
    """Breakpoints must start at 0 and increase strictly."""


class LengthMismatch(MultsysError):
    """Paired sequences (breakpoints/values, coefficients/functions) disagree in length."""


class EmptyDomain(MultsysError):
    """A step function needs a domain of positive length."""


class DomainMismatch(MultsysError):
    """Operands must live on the same half-open interval."""


class OutOfDomain(MultsysError):
    """Point evaluation outside [0, T)."""


class NonPositiveFactor(MultsysError):
    """Dilation factors must be positive."""


class CapacityExceeded(MultsysError):
    """An operation would exceed a configured size cap."""


class UnsortedSamples(MultsysError):
    """Sample abscissae must be strictly ascending."""


# ---------------------------------------------------------------- systems and families

class BadBounds(MultsysError):
    """Per-function bounds must satisfy A < 0 < B."""


class ValueOutOfBounds(MultsysError):
    """A function value escapes its declared [A, B] range."""


class BadSubset(MultsysError):
    """Index subsets must be nonempty, strictly ascending and within 1..n."""


def _validate_subset(s: object, n: int) -> tuple[int, ...]:
    if not isinstance(s, (list, tuple)):
        raise BadSubset(f"subset {s!r} is not a list of indices")
    t = tuple(s)
    if not t:
        raise BadSubset("subsets must be nonempty")
    for i in t:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= n:
            raise BadSubset(f"index {i} outside 1..{n}")
    if any(not b > a for a, b in zip(t, t[1:])):
        raise BadSubset(f"subset {t} not strictly ascending")
    return t


class CapTooLarge(MultsysError):
    """A cardinality cap must satisfy 1 <= cap <= n."""


class NotTwoValued(MultsysError):
    """The operation needs functions taking exactly the two boundary values."""


class NonZeroMean(MultsysError):
    """The operation needs mean-zero functions."""


class TraceMismatch(MultsysError):
    """A reduction trace was passed with a system or family it was not built from."""


class NotMultiplicative(MultsysError):
    """The operation needs a certified multiplicative system."""


class BoundViolation(MultsysError):
    """Input bounds violate a precondition (for example sup norm above 1)."""


# ---------------------------------------------------------------- inequalities

class OutOfRange(MultsysError):
    """A numeric parameter is outside the supported range."""


class NonPositiveLambda(MultsysError):
    """Tail thresholds must be positive."""


class BadArity(MultsysError):
    """The construction needs at least two functions."""


class TooLarge(MultsysError):
    """Exact enumeration refused: the instance is too big."""


# ---------------------------------------------------------------- lacunary sequences

class NotLacunary(MultsysError):
    """Frequency ratios fall below the claimed growth factor."""


class TauTooSmall(MultsysError):
    """Frequencies must start at 1 or above."""


class LambdaTooSmall(MultsysError):
    """The requested bound needs a growth factor above 2."""


# ---------------------------------------------------------------- selection

class NotOrthogonal(MultsysError):
    """Candidate functions failed the pairwise orthogonality check."""


class EmptyCandidates(MultsysError):
    """Selection from an empty candidate list."""


class WindowExhausted(MultsysError):
    """A selection window contains no candidates."""


# ---------------------------------------------------------------- generators and IO

class WrongDomain(MultsysError):
    """A generator function lives on the wrong interval."""


class UnknownBuiltin(MultsysError):
    """Unrecognized builtin system name."""


class ParseError(MultsysError):
    """Malformed JSON or text input."""
