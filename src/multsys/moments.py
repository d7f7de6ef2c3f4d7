"""Mixed moments and the multiplicative error of bounded step-function systems.

A bounded system is a finite family phi_1..phi_n of step functions on a
shared interval [0, T) together with per-function bounds A_k < 0 < B_k
containing all values.  Expectations are taken under the uniform
probability law on [0, T), so every moment is integral / T.

The multiplicative error of a system over a family of index subsets is

    mu = sum over subsets {n_1 < ... < n_v} of |E[phi_{n_1} * ... * phi_{n_v}]|
         divided by C_{n_1} * ... * C_{n_v},   C_k = min(-A_k, B_k).

mu == 0 is exactly the statement that the system is multiplicative over
the family: every selected mixed moment vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    BadBounds,
    BadSubset,
    CapacityExceeded,
    CapTooLarge,
    DomainMismatch,
    LengthMismatch,
    ParseError,
    ValueOutOfBounds,
)
from .stepfn import (
    Rational,
    StepFunction,
    as_fraction,
    int_grid,
    json_list,
    value_range,
)

FAMILY_CAP = 1 << 22

Subset = tuple[int, ...]


@dataclass(frozen=True)
class BoundedSystem:
    """Step functions phi_1..phi_n with certified bounds A_k <= phi_k <= B_k.

    histogram, when not None, is the value-pattern histogram of functions
    (see pattern_measure), handed on by whoever built both: the xi system
    of reduce_to_independent carries one.  It takes no part in equality
    or JSON, and moment tables and the independence check read it instead
    of building their own.
    """

    functions: tuple[StepFunction, ...]
    lower_bounds: tuple[Fraction, ...]
    upper_bounds: tuple[Fraction, ...]
    histogram: PatternHistogram | None = field(
        default=None, repr=False, compare=False, kw_only=True
    )

    def __post_init__(self) -> None:
        n = len(self.functions)
        if len(self.lower_bounds) != n or len(self.upper_bounds) != n:
            raise LengthMismatch("one lower and one upper bound per function")
        if n == 0:
            return
        T = self.functions[0].domain_length
        for f in self.functions[1:]:
            if f.domain_length != T:
                raise DomainMismatch("system functions must share one domain")
        for k, (f, lo, hi) in enumerate(
            zip(self.functions, self.lower_bounds, self.upper_bounds), start=1
        ):
            if not (lo < 0 < hi):
                raise BadBounds(f"function {k}: bounds must satisfy A < 0 < B, got [{lo}, {hi}]")
            low, high = value_range(f)
            if low < lo or high > hi:
                v = next(v for v in f.values if v < lo or v > hi)
                raise ValueOutOfBounds(f"function {k}: value {v} outside [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.functions)

    @property
    def domain_length(self) -> Fraction:
        if not self.functions:
            raise DomainMismatch("empty system has no domain")
        return self.functions[0].domain_length

    def capacities(self) -> tuple[Fraction, ...]:
        """C_k = min(-A_k, B_k), the symmetric value capacity of each function."""
        return tuple(min(-lo, hi) for lo, hi in zip(self.lower_bounds, self.upper_bounds))

    def to_json(self) -> dict:
        return {
            "functions": [f.to_json() for f in self.functions],
            "lower_bounds": [str(b) for b in self.lower_bounds],
            "upper_bounds": [str(b) for b in self.upper_bounds],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BoundedSystem":
        try:
            fns = tuple(StepFunction.from_json(o) for o in json_list(obj, "functions"))
            lo = tuple(Fraction(s) for s in json_list(obj, "lower_bounds"))
            hi = tuple(Fraction(s) for s in json_list(obj, "upper_bounds"))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad system object: {exc}") from exc
        return cls(fns, lo, hi)


def symmetric_system(functions: Sequence[StepFunction], bound: Rational = 1) -> BoundedSystem:
    """Convenience constructor with shared bounds [-bound, bound]."""
    b = as_fraction(bound)
    n = len(functions)
    return BoundedSystem(tuple(functions), (-b,) * n, (b,) * n)


# ------------------------------------------------------------------ index families

@dataclass(frozen=True)
class IndexFamily:
    """Either all subsets up to a cardinality cap, or an explicit list.

    Enumeration order is always ascending by (cardinality, lexicographic),
    which makes every downstream report deterministic.
    """

    cap: int | None = None
    subsets: tuple[Subset, ...] | None = None

    @classmethod
    def cardinality_cap(cls, l: int) -> "IndexFamily":
        return cls(cap=l, subsets=None)

    @classmethod
    def explicit(cls, subsets: Sequence[Sequence[int]]) -> "IndexFamily":
        # entries that are not index lists stay as given; enumerate_family rejects them
        subsets = tuple(tuple(s) if isinstance(s, (list, tuple)) else s for s in subsets)
        return cls(cap=None, subsets=subsets)

    @classmethod
    def full(cls) -> "IndexFamily":
        """All nonempty subsets; the cap resolves to n at enumeration time."""
        return cls(cap=-1, subsets=None)

    def describe(self) -> str:
        if self.subsets is not None:
            return f"explicit({len(self.subsets)} subsets)"
        if self.cap == -1:
            return "full"
        return f"l={self.cap}"


def _validate_subset(s: Sequence[int], n: int) -> Subset:
    if not isinstance(s, (list, tuple)):
        raise BadSubset(f"subset {s!r} is not a list of indices")
    t = tuple(s)
    if not t:
        raise BadSubset("subsets must be nonempty")
    for i in t:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= n:
            raise BadSubset(f"index {i} outside 1..{n}")
    for a, b in zip(t, t[1:]):
        if not b > a:
            raise BadSubset(f"subset {t} not strictly ascending")
    return t


def enumerate_family(n: int, fam: IndexFamily) -> list[Subset]:
    """Materialize the family for a system of n functions, canonically ordered."""
    if fam.subsets is not None:
        validated = sorted(
            {_validate_subset(s, n) for s in fam.subsets}, key=lambda s: (len(s), s)
        )
        if len(validated) != len(fam.subsets):
            raise BadSubset("explicit family contains duplicate subsets")
        return validated
    l = fam.cap if fam.cap != -1 else n
    if l is None or not 1 <= l <= n:
        raise CapTooLarge(f"cardinality cap must lie in 1..{n}, got {l}")
    count = sum(math.comb(n, v) for v in range(1, l + 1))
    if count > FAMILY_CAP:
        raise CapacityExceeded(f"family would hold {count} subsets, cap is {FAMILY_CAP}")
    out: list[Subset] = []
    for v in range(1, l + 1):
        out.extend(combinations(range(1, n + 1), v))
    return out


# ------------------------------------------------------------------ moments

# (mass, den, dens): each value pattern, as one int per function with
# function k's value key[k] / dens[k], mapped to the length it covers
# as an int over den.
PatternHistogram = tuple[dict[tuple[int, ...], int], int, tuple[int, ...]]


def pattern_measure(functions: Sequence[StepFunction]) -> PatternHistogram:
    """Total length of the points where (phi_1, ..., phi_n) takes each value tuple.

    One pass over the shared integer grid; pieces carrying the same tuple
    collapse into one entry.  Every mixed moment and joint law of the
    functions depends on this histogram alone, and a two-valued system
    has at most 2**n entries however many pieces it has.
    """
    if not functions:
        return {}, 1, ()
    _, lengths, den, rows = int_grid(functions)
    mass: dict[tuple[int, ...], int] = {}
    for key, length in zip(zip(*(row for row, _ in rows)), lengths):
        if key in mass:
            mass[key] += length
        else:
            mass[key] = length
    return mass, den, tuple(q for _, q in rows)


def histogram_of(sys: BoundedSystem) -> PatternHistogram:
    """The histogram sys carries, else one built from its functions."""
    if sys.histogram is not None:
        return sys.histogram
    return pattern_measure(sys.functions)


def subset_moment(hist: PatternHistogram, subset: Subset, T: Fraction) -> tuple[int, int]:
    """E[prod_{k in subset} phi_k] on [0, T), read off the histogram as one
    int sum: an int numerator and denominator, unreduced, for the caller's
    one Fraction."""
    mass, den, dens = hist
    total = 0
    for key, length in mass.items():
        for k in subset:
            length *= key[k - 1]
        total += length
    return total * T.denominator, den * math.prod(dens[k - 1] for k in subset) * T.numerator


def mixed_moment(sys: BoundedSystem, subset: Sequence[int]) -> Fraction:
    """E[prod_{k in subset} phi_k] under the uniform law on [0, T)."""
    s = _validate_subset(subset, sys.n)
    return Fraction(*subset_moment(histogram_of(sys), s, sys.domain_length))


@dataclass(frozen=True)
class MomentTable:
    """Moments E[prod phi] and their capacity-normalized magnitudes per subset."""

    subsets: tuple[Subset, ...]
    moments: tuple[Fraction, ...]
    normalized: tuple[Fraction, ...]

    def moment(self, subset: Sequence[int]) -> Fraction:
        return self.moments[self.subsets.index(tuple(subset))]

    def mu(self) -> Fraction:
        return sum(self.normalized, Fraction(0))

    def to_csv(self) -> str:
        lines = ["subset;moment;normalized"]
        for s, m, d in zip(self.subsets, self.moments, self.normalized):
            lines.append(f"{','.join(map(str, s))};{m};{d}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> list[dict]:
        return [
            {"subset": list(s), "moment": str(m), "normalized": str(d)}
            for s, m, d in zip(self.subsets, self.moments, self.normalized)
        ]


def compute_moment_table(
    sys: BoundedSystem, fam: IndexFamily, hist: PatternHistogram | None = None
) -> MomentTable:
    """All selected mixed moments from one shared value-pattern histogram,
    with one Fraction per reported moment and normalized magnitude.

    hist is the histogram of sys when the caller already holds it; else
    the one sys carries is read, and only a system carrying none has its
    histogram built here.
    """
    subsets = tuple(enumerate_family(sys.n, fam))
    if hist is None:
        hist = histogram_of(sys)
    T = sys.domain_length
    caps = sys.capacities()
    moments: list[Fraction] = []
    normalized: list[Fraction] = []
    for s in subsets:
        num, scale = subset_moment(hist, s, T)
        moments.append(Fraction(num, scale))
        # capacities are positive, so only the sum carries a sign
        normalized.append(Fraction(
            abs(num) * math.prod(caps[i - 1].denominator for i in s),
            scale * math.prod(caps[i - 1].numerator for i in s),
        ))
    return MomentTable(subsets, tuple(moments), tuple(normalized))


def multiplicative_error(
    sys: BoundedSystem, fam: IndexFamily
) -> tuple[Fraction, MomentTable]:
    """mu over the family, plus the per-subset table behind it.  Exact."""
    table = compute_moment_table(sys, fam)
    return table.mu(), table


def is_multiplicative(sys: BoundedSystem, fam: IndexFamily) -> bool:
    """True when every selected mixed moment vanishes exactly."""
    mu, _ = multiplicative_error(sys, fam)
    return mu == 0
