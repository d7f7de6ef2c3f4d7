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
import operator
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    BadBounds,
    BadSubset,
    CapacityExceeded,
    CapTooLarge,
    DomainMismatch,
    LengthMismatch,
    ParseError,
    ValueOutOfBounds,
    _validate_subset,
    frozen,
)
from .stepfn import (
    ConvexSpec,
    Rational,
    StepFunction,
    as_fraction,
    dilate,
    exact_phi_integral,
    int_grid,
    json_list,
    value_range,
)

FAMILY_CAP = 1 << 22

Subset = tuple[int, ...]


@frozen
class BoundedSystem:
    """Step functions phi_1..phi_n with certified bounds A_k <= phi_k <= B_k.

    histogram is the joint law of (phi_1, ..., phi_n) as a value-pattern
    histogram (see pattern_measure).  It is derived from functions alone,
    built on first access and then kept for as long as the system lives,
    so every moment table, independence check and exact combination
    integral on one system reads one histogram, with read-only masses.
    Like the Fraction views of a StepFunction it is a cache, not a field:
    it takes no part in equality, hashing, repr, JSON or pickling.
    """

    functions: tuple[StepFunction, ...]
    lower_bounds: tuple[Fraction, ...]
    upper_bounds: tuple[Fraction, ...]

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

    @classmethod
    def _from_parts(
        cls, functions: tuple[StepFunction, ...], lower: tuple[Fraction, ...],
        upper: tuple[Fraction, ...],
    ) -> BoundedSystem:
        """The system of parts known to form a valid one, such as a reduction
        stage built from a valid system: nothing is checked again."""
        self = object.__new__(cls)
        vars(self).update(functions=functions, lower_bounds=lower, upper_bounds=upper)
        return self

    @cached_property
    def histogram(self) -> PatternHistogram:
        mass, den, dens = pattern_measure(self.functions)
        # read-only: every later reader of this system shares it
        return MappingProxyType(mass), den, dens

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "histogram"}

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


def dilate_system(sys: BoundedSystem, factor: Rational) -> BoundedSystem:
    """Every function dilated by factor == p / r, on [0, T / factor).

    The result is valid because sys is (same values and bounds, every
    domain scaled alike), so it is not validated again.  It is given its
    histogram from the one of sys, with no rebuild: dilate shares the
    value rows and scales every length by r / p, so each mass becomes
    mass * r over den * p while the value patterns and their
    denominators stay.
    """
    factor = as_fraction(factor)
    out = BoundedSystem._from_parts(
        tuple(dilate(f, factor) for f in sys.functions), sys.lower_bounds, sys.upper_bounds
    )
    mass, den, dens = sys.histogram
    r = factor.denominator
    # seeds the cache that BoundedSystem.histogram would otherwise fill
    vars(out)["histogram"] = (
        MappingProxyType({key: w * r for key, w in mass.items()}), den * factor.numerator, dens
    )
    return out


# ------------------------------------------------------------------ index families

@frozen
class IndexFamily:
    """Either all subsets up to a cardinality cap, or an explicit list.

    With neither a cap nor a list the family is full: every nonempty
    subset, the cap resolving to n at enumeration time.  Every int cap is
    checked against 1..n there, so no int stands for "full".
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
        return cls(cap=None, subsets=None)

    def describe(self) -> str:
        if self.subsets is not None:
            return f"explicit({len(self.subsets)} subsets)"
        if self.cap is None:
            return "full"
        return f"l={self.cap}"


def enumerate_family(n: int, fam: IndexFamily) -> list[Subset]:
    """Materialize the family for a system of n functions, canonically ordered."""
    if fam.subsets is not None:
        validated = sorted(
            {_validate_subset(s, n) for s in fam.subsets}, key=lambda s: (len(s), s)
        )
        if len(validated) != len(fam.subsets):
            raise BadSubset("explicit family contains duplicate subsets")
        return validated
    l = n if fam.cap is None else fam.cap
    if not 1 <= l <= n:
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
PatternHistogram = tuple[Mapping[tuple[int, ...], int], int, tuple[int, ...]]


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
    return Fraction(*subset_moment(sys.histogram, s, sys.domain_length))


@frozen
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


def compute_moment_table(sys: BoundedSystem, fam: IndexFamily) -> MomentTable:
    """All selected mixed moments from the histogram of sys, with one
    Fraction per reported moment and normalized magnitude."""
    subsets = tuple(enumerate_family(sys.n, fam))
    hist = sys.histogram
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


def combination_expectation(
    sys: BoundedSystem, cs: Sequence[Fraction], phi: ConvexSpec
) -> Fraction:
    """E[Phi(sum_k cs[k] phi_k)] under the uniform law on [0, T), for an
    exact Phi, read off the histogram of sys with no linear combination
    built: each value pattern gives the combination one int over the lcm
    q of the cs[k] and value denominators, masses with equal combinations
    are summed, and exact_phi_integral does the rest."""
    mass, den, dens = sys.histogram
    q = math.lcm(*(c.denominator * d for c, d in zip(cs, dens)))
    factors = [c.numerator * (q // (c.denominator * d)) for c, d in zip(cs, dens)]
    law: dict[int, int] = {}
    for key, w in mass.items():
        v = sum(map(operator.mul, factors, key))
        law[v] = law.get(v, 0) + w
    return exact_phi_integral(law, q, den, phi) / sys.domain_length
