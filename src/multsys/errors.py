"""Exception types shared across the package, the index-subset and
input-number checks, the frozen record decorator every result and input
type is built with, and the encoder every report is written through.

Every validation failure raises a named exception so callers can tell
bad input apart from a genuine inequality violation.  Violations of the
inequalities under test are never exceptions: they are reported as data
in the result objects.
"""

import math
from fractions import Fraction
from operator import attrgetter

# the two methods records run often, compiled once per class
_RECORD = """
def __init__(self, {params}):
{stores}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
"""


def frozen(cls: type) -> type:
    """Make cls an immutable record of its annotated fields, in order, a
    class value being that field's default: an __init__ (which then calls
    __post_init__, if cls has one), __eq__ and __hash__ on the field tuple,
    a Name(field=value, ...) repr, a __setattr__ and __delattr__ that
    raise dataclasses.FrozenInstanceError, and __match_args__, the field
    names (which report_json reads).  A method cls defines is kept, and so
    is the instance __dict__, for cached_property, pickle and copy."""
    names = tuple(vars(cls).get("__annotations__", ()))
    cls.__match_args__ = names
    key = attrgetter(*names)
    defaults = {f"_{n}": vars(cls)[n] for n in names if n in vars(cls)}
    scope = {"__set": object.__setattr__, **defaults}
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    exec(_RECORD.format(
        params=", ".join(f"{n}=_{n}" if f"_{n}" in defaults else n for n in names),
        # object.__setattr__ keeps the attributes in the fast inline layout
        stores="".join(f"    __set(self, {n!r}, {n})\n" for n in names) + post,
        mine="".join(f"self.{n}, " for n in names),
        theirs="".join(f"other.{n}, " for n in names),
    ), scope)

    def __repr__(self) -> str:
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def refuse(self, name: str, *value: object) -> None:
        from dataclasses import FrozenInstanceError  # loaded on this error path only

        raise FrozenInstanceError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

    scope.update(__hash__=lambda self: hash(key(self)), __repr__=__repr__,
                 __setattr__=refuse, __delattr__=refuse)
    for attr in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        if attr not in vars(cls):
            setattr(cls, attr, scope[attr])
    return cls


def report_value(x: object) -> object:
    """x as a report writes it: a Fraction as "p/q", a float as
    {"value": x, "approx": true}, a tuple or list as a list and a dict key
    by key, each item rendered alike, a record by its to_json(), and any
    other value (a str, an int, a bool, None) as it is."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return {"value": x, "approx": True}
    if isinstance(x, (tuple, list)):
        return [report_value(v) for v in x]
    if isinstance(x, dict):
        return {k: report_value(v) for k, v in x.items()}
    to_json = getattr(x, "to_json", None)
    return x if to_json is None else to_json()


def report_json(record: object) -> dict:
    """A frozen record's report: each field by report_value, in declaration order."""
    return {name: report_value(getattr(record, name)) for name in record.__match_args__}


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


def beyond_cap(what: str, need: object, cap: object, unit: str = "pieces") -> CapacityExceeded:
    """The one refusal at a size cap: the stage, what it needs, and the cap."""
    return CapacityExceeded(f"{what} needs {need} {unit}, beyond the cap of {cap}")


def _guard_subsets(n: int, top: int, cap: int, what: str = "", harmonics: bool = False) -> None:
    """Refuse the subsets of 1..n with 1..top members, or with harmonics
    the 2**(v - 1) terms a v-subset's sine product expands to, past cap:
    sizes v = 1, 2, ... are added only until the sum passes cap, so a
    refusal costs a few terms however large n is, and names a lower bound."""
    count = 0
    for v in range(1, top + 1):
        count += math.comb(n, v) << (v - 1) * harmonics
        if count > cap:
            what = what or f"a family over 1..{n} up to size {top}"
            raise beyond_cap(what, f"at least {count}", cap, "terms" if harmonics else "subsets")


# CPython's default bound on int <-> str conversion: the CLI lifts it so that
# exact results of any size render, and refuses any input number needing more
MAX_DIGITS = 4300


def bounded_number(text: str) -> str:
    """text, unless an int of the number it spells needs more than MAX_DIGITS
    digits: per side of a 'p/q', its mantissa's digits plus |its exponent|."""
    for side in text.split("/"):
        mantissa, _, exp = side.lower().partition("e")
        digits = sum(map(str.isdigit, mantissa))
        try:
            digits += abs(int(exp)) if len(exp) <= MAX_DIGITS else len(exp)
        except ValueError:
            pass  # no exponent, or no number: its parser says so
        if digits > MAX_DIGITS:
            raise OutOfRange(f"{shown(text)!r} needs more than {MAX_DIGITS} digits")
    return text


def shown(text: str) -> str:
    """text as an error message quotes it: cut to 40 characters."""
    return text if len(text) <= 40 else text[:37] + "..."


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
