"""Exact arithmetic for step functions on half-open intervals [0, T).

A step function is stored as strictly ascending rational breakpoints
0 = b_0 < b_1 < ... < b_P = T together with one rational value per piece
[b_i, b_{i+1}).  The fields are fractions.Fraction tuples, and every
result is exact and reproducible byte for byte.

The arithmetic itself runs on an exact integer grid: breakpoints meet on
one shared denominator D (b == n / D) and each row of values on its own
denominator, so validation, refinement, products, linear combinations,
integrals, level-set measures and convex expectations are loops over
Python ints.  Fraction is the API and JSON boundary: a Fraction is built
at most once per distinct output value, and none at all where an input
Fraction object already is the answer.

Floats enter only through convex integrands that have no rational value
(fractional powers, exponentials); those paths are documented on
ConvexSpec.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .errors import (
    CapacityExceeded,
    DomainMismatch,
    EmptyDomain,
    LengthMismatch,
    NonAscendingBreakpoints,
    NonPositiveFactor,
    OutOfDomain,
    OutOfRange,
    ParseError,
    UnsortedSamples,
)

DEFAULT_PIECE_CAP = 1 << 20
POWER_CAP = 1024

Rational = Fraction | int | str


def piece_cap() -> int:
    """Current piece-count cap; MULTSYS_PIECE_CAP overrides the default 2**20."""
    raw = os.environ.get("MULTSYS_PIECE_CAP")
    if raw is None:
        return DEFAULT_PIECE_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise OutOfRange(f"MULTSYS_PIECE_CAP must be a positive integer, got {raw!r}")
    return int(raw)


def json_list(obj: dict, key: str) -> list:
    """obj[key], which must be a JSON list: a string would iterate by characters."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON list, got {type(value).__name__}")
    return value


def as_fraction(x: Rational) -> Fraction:
    """Coerce int, Fraction or a 'p/q' string to Fraction.

    Floats are rejected on purpose: silent binary-float artifacts would
    poison every downstream exact comparison.  Convert explicitly with
    Fraction(float_value) where that is genuinely wanted.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _guard_pieces(count: int) -> None:
    cap = piece_cap()
    if count > cap:
        raise CapacityExceeded(f"{count} pieces exceed the cap of {cap}")


# ------------------------------------------------------------------ integer kernel

def int_row(xs: Sequence[Rational]) -> tuple[list[int], int]:
    """Clear denominators: xs == ints / den elementwise, den the lcm of theirs.

    Sums, products and comparisons over such rows cost no gcd per
    operation; one Fraction at the end restores the exact value.
    """
    dens = [x.denominator for x in xs]
    den = math.lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(xs, dens)], den


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """nums / den elementwise, one Fraction object per distinct numerator."""
    made = {n: Fraction(n, den) for n in set(nums)}
    return tuple(map(made.__getitem__, nums))


def _spread(row: Sequence, at: Sequence[int]) -> list:
    """Row entry j repeated on the merged pieces at[j] .. at[j + 1] - 1."""
    out: list = []
    for v, start, end in zip(row, at, at[1:]):
        out += [v] * (end - start)
    return out


def uniform_grid(pieces: int, length: Rational = 1) -> tuple[Fraction, ...]:
    """Breakpoints i * length / pieces for i = 0..pieces, one Fraction each."""
    length = as_fraction(length)
    num, den = length.numerator, length.denominator * pieces
    return tuple(Fraction(i * num, den) for i in range(pieces + 1))


# The last breakpoint tuple that passed validation.  The strong reference
# keeps its id from being reused, and a tuple of rationals cannot change,
# so the same object passes again without a second walk.  Lists and
# other mutable sequences are walked every time.
_valid_grid: tuple | None = None


def _check_breakpoints(bps: Sequence[Rational]) -> None:
    global _valid_grid
    if bps is _valid_grid:
        return
    if bps[0] != 0:
        raise NonAscendingBreakpoints("breakpoints must start at 0")
    grid, _ = int_row(bps)
    if not all(map(operator.lt, grid, grid[1:])):
        i = next(i for i in range(1, len(grid)) if not grid[i] > grid[i - 1])
        raise NonAscendingBreakpoints(f"breakpoints not strictly ascending at {bps[i]}")
    if type(bps) is tuple:
        _valid_grid = bps


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, breakpoints[-1]).

    breakpoints: strictly ascending Fractions, first one 0.
    values: one Fraction per piece, len(values) == len(breakpoints) - 1.
    Adjacent pieces may carry equal values; merging them is the explicit
    normalize() operation, never a side effect.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values) + 1:
            raise LengthMismatch(
                f"{len(self.breakpoints)} breakpoints need "
                f"{len(self.breakpoints) - 1} values, got {len(self.values)}"
            )
        if len(self.values) == 0:
            raise EmptyDomain("a step function needs at least one piece")
        _check_breakpoints(self.breakpoints)
        _guard_pieces(len(self.values))

    # -- geometry -------------------------------------------------

    @property
    def domain_length(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def piece_count(self) -> int:
        return len(self.values)

    def piece_lengths(self) -> tuple[Fraction, ...]:
        _, lengths, den, _ = int_grid([self])
        return _fractions(lengths, den)

    # -- serialization --------------------------------------------

    def to_json(self) -> dict:
        return {
            "breakpoints": [str(b) for b in self.breakpoints],
            "values": [str(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        try:
            bps = tuple(Fraction(s) for s in json_list(obj, "breakpoints"))
            vals = tuple(Fraction(s) for s in json_list(obj, "values"))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad step function object: {exc}") from exc
        return cls(bps, vals)


def make_step(breakpoints: Sequence[Rational], values: Sequence[Rational]) -> StepFunction:
    """Validated constructor coercing ints and 'p/q' strings to Fraction."""
    return StepFunction(
        tuple(as_fraction(b) for b in breakpoints),
        tuple(as_fraction(v) for v in values),
    )


def constant(value: Rational, length: Rational = 1) -> StepFunction:
    length = as_fraction(length)
    if length <= 0:
        raise EmptyDomain("constant function needs positive length")
    return StepFunction((Fraction(0), length), (as_fraction(value),))


def rademacher(k: int, length: Rational = 1) -> StepFunction:
    """k-th dyadic sign function: +1 then -1 alternating on 2**k equal pieces."""
    if k < 1:
        raise OutOfRange("rademacher index must be >= 1")
    pieces = 1 << k
    _guard_pieces(pieces)
    return StepFunction(uniform_grid(pieces, length), (Fraction(1), Fraction(-1)) * (pieces // 2))


# ------------------------------------------------------------------ refinement

def _check_same_domain(fs: Sequence[StepFunction]) -> Fraction:
    T = fs[0].domain_length
    for f in fs[1:]:
        if f.domain_length != T:
            raise DomainMismatch(
                f"domain lengths differ: {T} vs {f.domain_length}"
            )
    return T


def _align(fs: Sequence[StepFunction]) -> tuple[tuple[Fraction, ...], list[Sequence[int]]]:
    """The union of the breakpoints of fs, and for every function the index
    in that union of each of its own breakpoints.

    The grids meet as ints on one shared denominator; the merged tuple
    reuses the input Fraction objects.
    """
    _check_same_domain(fs)
    first = fs[0].breakpoints
    if all(f.breakpoints is first for f in fs):
        _guard_pieces(len(first) - 1)
        return first, [range(len(first))] * len(fs)
    grids = {id(f.breakpoints): f.breakpoints for f in fs}
    den = math.lcm(*(b.denominator for g in grids.values() for b in g))
    ints = {
        key: [b.numerator * (den // b.denominator) for b in g] for key, g in grids.items()
    }
    merged = sorted(set().union(*ints.values()))
    _guard_pieces(len(merged) - 1)
    owner: dict[int, Fraction] = {}
    for key, g in grids.items():
        owner.update(zip(ints[key], g))
    bps = tuple(map(owner.__getitem__, merged))
    at = {key: [bisect_left(merged, n) for n in row] for key, row in ints.items()}
    return bps, [at[id(f.breakpoints)] for f in fs]


def int_grid(
    fs: Sequence[StepFunction],
) -> tuple[tuple[Fraction, ...], list[int], int, list[tuple[list[int], int]]]:
    """The functions of fs on their merged grid, as ints.

    Returns (breakpoints, lengths, den, rows): the union of the
    breakpoints (the input Fraction objects), the merged piece lengths
    as ints over den, and per function (row, q) with its values on the
    merged pieces as ints over q.  No refined StepFunction is built.
    """
    bps, where = _align(fs)
    grid, den = int_row(bps)
    lengths = list(map(operator.sub, grid[1:], grid))
    rows = []
    for f, at in zip(fs, where):
        row, q = int_row(f.values)
        rows.append((row if len(at) == len(bps) else _spread(row, at), q))
    return bps, lengths, den, rows


def common_refinement(fs: Sequence[StepFunction]) -> list[StepFunction]:
    """Rewrite all functions on the union of their breakpoints.

    Values are untouched, only the partition is refined, so every
    returned function equals its input pointwise.  A function already on
    the union comes back as itself.
    """
    if not fs:
        return []
    bps, where = _align(fs)
    return [
        f if len(at) == len(bps) else StepFunction(bps, tuple(_spread(f.values, at)))
        for f, at in zip(fs, where)
    ]


def product(fs: Sequence[StepFunction]) -> StepFunction:
    """Pointwise product; exact."""
    if not fs:
        raise LengthMismatch("product of an empty list is undefined")
    bps, _, _, rows = int_grid(fs)
    nums, den = rows[0]
    for row, q in rows[1:]:
        nums = list(map(operator.mul, nums, row))
        den *= q
    return StepFunction(bps, _fractions(nums, den))


def linear_combination(
    coeffs: Sequence[Rational], fs: Sequence[StepFunction]
) -> StepFunction:
    """sum_k coeffs[k] * fs[k]; exact.

    A difference array over the merged grid: each function adds the jump
    of its scaled value at the start of each of its pieces, and one
    prefix sum yields every merged value, with no refined row built.
    """
    if len(coeffs) != len(fs):
        raise LengthMismatch(f"{len(coeffs)} coefficients for {len(fs)} functions")
    if not fs:
        raise LengthMismatch("linear combination of an empty list is undefined")
    cs = [as_fraction(c) for c in coeffs]
    bps, where = _align(fs)
    rows = [int_row(f.values) for f in fs]
    den = math.lcm(*(c.denominator * d for c, (_, d) in zip(cs, rows)))
    jumps = [0] * (len(bps) - 1)
    for c, (row, d), at in zip(cs, rows, where):
        if not c:
            continue
        factor = c.numerator * (den // (c.denominator * d))
        prev = 0
        for v, start in zip(row, at):
            v *= factor
            jumps[start] += v - prev
            prev = v
    del rows  # the input rows go before the output values are built
    return StepFunction(bps, _fractions(list(accumulate(jumps)), den))


def scale(f: StepFunction, c: Rational) -> StepFunction:
    c = as_fraction(c)
    return StepFunction(f.breakpoints, tuple(c * v for v in f.values))


# ------------------------------------------------------------------ calculus

def integral(f: StepFunction) -> Fraction:
    """Unnormalized integral over the whole domain [0, T)."""
    _, lengths, d, [(row, q)] = int_grid([f])
    return Fraction(sum(map(operator.mul, row, lengths)), d * q)


def mean(f: StepFunction) -> Fraction:
    """Integral divided by domain length, the expectation under the uniform law."""
    return integral(f) / f.domain_length


def evaluate(f: StepFunction, x: Rational) -> Fraction:
    x = as_fraction(x)
    if x < 0 or x >= f.domain_length:
        raise OutOfDomain(f"{x} outside [0, {f.domain_length})")
    i = bisect_right(f.breakpoints, x) - 1
    return f.values[i]


def dilate(f: StepFunction, factor: Rational) -> StepFunction:
    """Time rescale: result g on [0, T/factor) with g(x) = f(factor * x)."""
    factor = as_fraction(factor)
    if factor <= 0:
        raise NonPositiveFactor(f"dilation factor must be positive, got {factor}")
    return StepFunction(tuple(b / factor for b in f.breakpoints), f.values)


def concat(f: StepFunction | None, g: StepFunction | None) -> StepFunction:
    """Place g after f on [0, T_f + T_g).

    A None operand stands for the zero-length function and returns the
    other operand unchanged; both None is an error.
    """
    if f is None and g is None:
        raise EmptyDomain("concat of two empty functions")
    if f is None:
        return g  # type: ignore[return-value]
    if g is None:
        return f
    return concat_many([f, g])


def concat_many(fs: Sequence[StepFunction]) -> StepFunction:
    """Concatenate several functions in one pass."""
    fs = [f for f in fs if f is not None]
    if not fs:
        raise EmptyDomain("concat of an empty list")
    bps: list[Fraction] = [Fraction(0)]
    vals: list[Fraction] = []
    offset = Fraction(0)
    for f in fs:
        bps.extend(b + offset for b in f.breakpoints[1:])
        vals.extend(f.values)
        offset += f.domain_length
    _guard_pieces(len(vals))
    return StepFunction(tuple(bps), tuple(vals))


def tile(f: StepFunction, copies: int) -> StepFunction:
    """copies shrunk repetitions side by side; used for dyadic dilates mod 1."""
    if copies < 1:
        raise OutOfRange("tile needs at least one copy")
    return concat_many([f] * copies)


def restrict(f: StepFunction, t: Rational) -> StepFunction:
    """Restriction to [0, t), 0 < t <= T.  Bit-identical when t == T."""
    t = as_fraction(t)
    if not 0 < t <= f.domain_length:
        raise OutOfDomain(f"restriction endpoint {t} outside (0, {f.domain_length}]")
    if t == f.domain_length:
        return f
    i = bisect_right(f.breakpoints, t) - 1
    bps = f.breakpoints[: i + 1] + (t,)
    return StepFunction(bps, f.values[: i + 1])


def normalize(f: StepFunction) -> StepFunction:
    """Merge adjacent pieces with equal values.  The only coalescing operation."""
    row, _ = int_row(f.values)
    bps = [f.breakpoints[0]]
    vals: list[Fraction] = []
    last = None
    for v, n, right in zip(f.values, row, f.breakpoints[1:]):
        if n == last:
            bps[-1] = right
        else:
            vals.append(v)
            bps.append(right)
            last = n
    return StepFunction(tuple(bps), tuple(vals))


def _measure_where(f: StepFunction, compare, level: Rational) -> Fraction:
    """Measure of {x : compare(f(x), level)}.  For v == n / q and
    level == a / b, compare(v, level) is compare(n * b, a * q)."""
    level = as_fraction(level)
    _, lengths, d, [(row, q)] = int_grid([f])
    b, bar = level.denominator, level.numerator * q
    return Fraction(sum(ln for n, ln in zip(row, lengths) if compare(n * b, bar)), d)


def measure_above(f: StepFunction, level: Rational) -> Fraction:
    """Lebesgue measure of the strict superlevel set {x : f(x) > level}."""
    return _measure_where(f, operator.gt, level)


def measure_equal(f: StepFunction, value: Rational) -> Fraction:
    return _measure_where(f, operator.eq, value)


def value_range(f: StepFunction) -> tuple[Fraction, Fraction]:
    """Smallest and largest value of f, compared as ints."""
    row, q = int_row(f.values)
    return Fraction(min(row), q), Fraction(max(row), q)


# ------------------------------------------------------------------ convex integrands

@dataclass(frozen=True)
class ConvexSpec:
    """Nonnegative convex integrand t -> Phi(t).

    kind "power":        Phi(t) = |t| ** p, 1 <= p <= POWER_CAP; exact when p is an integer
    kind "exp":          Phi(t) = exp(gamma * t), gamma > 0; float
    kind "hinge_square": Phi(t) = max(t - shift, 0) ** 2; exact for rational shift
    kind "abs":          Phi(t) = |t|; exact
    """

    kind: str
    param: Fraction | float | None = None

    @classmethod
    def power(cls, p: float | int) -> "ConvexSpec":
        if p < 1:
            raise OutOfRange(f"power exponent must be >= 1, got {p}")
        if p > POWER_CAP:
            # an integer exponent is evaluated exactly, and v**p grows with p
            raise OutOfRange(f"power exponent {p} is above the cap of {POWER_CAP}")
        if isinstance(p, float) and p.is_integer():
            p = int(p)
        return cls("power", p)

    @classmethod
    def exp(cls, gamma: float) -> "ConvexSpec":
        if not gamma > 0:
            raise OutOfRange(f"exponential rate must be positive, got {gamma}")
        return cls("exp", float(gamma))

    @classmethod
    def hinge_square(cls, shift: Rational) -> "ConvexSpec":
        return cls("hinge_square", as_fraction(shift))

    @classmethod
    def abs(cls) -> "ConvexSpec":
        return cls("abs", None)

    def describe(self) -> str:
        if self.kind == "power":
            return f"|t|^{self.param}"
        if self.kind == "exp":
            return f"exp({self.param}*t)"
        if self.kind == "hinge_square":
            return f"max(t-{self.param},0)^2"
        return "|t|"

    def exact_value(self, v: Fraction) -> Fraction | None:
        """Exact rational Phi(v), or None when only a float value exists."""
        if self.kind == "power":
            p = self.param
            if isinstance(p, int) and p % 2 == 0:
                return v**p
            if isinstance(p, int):
                return abs(v) ** p
            return None
        if self.kind == "exp":
            return None
        if self.kind == "hinge_square":
            gap = v - self.param  # type: ignore[operator]
            return gap * gap if gap > 0 else Fraction(0)
        return abs(v)

    def float_value(self, t: float) -> float:
        if self.kind == "power":
            return abs(t) ** float(self.param)  # type: ignore[arg-type]
        if self.kind == "exp":
            return math.exp(float(self.param) * t)  # type: ignore[arg-type]
        if self.kind == "hinge_square":
            gap = t - float(self.param)  # type: ignore[arg-type]
            return gap * gap if gap > 0 else 0.0
        return abs(t)


def convex_expectation(f: StepFunction, spec: ConvexSpec) -> Fraction | float:
    """Unnormalized integral of Phi over [0, T).

    Returns an exact Fraction whenever Phi maps rationals to rationals
    (even powers, hinge squares, absolute value), a float otherwise.
    Divide by domain_length for the expectation under the uniform law.
    """
    _, lengths, d, [(row, q)] = int_grid([f])
    if spec.exact_value(f.values[0]) is not None:
        # Phi is evaluated once per distinct value, on the length it covers
        mass: dict[int, int] = {}
        for n, ln in zip(row, lengths):
            mass[n] = mass.get(n, 0) + ln
        return sum(
            (spec.exact_value(Fraction(n, q)) * Fraction(ln, d) for n, ln in mass.items()),
            Fraction(0),
        )
    # piece by piece in domain order: the float sum depends on the order
    phi = {n: spec.float_value(n / q) for n in set(row)}
    total = 0.0
    for n, ln in zip(row, lengths):
        total += phi[n] * (ln / d)
    if not math.isfinite(total):
        raise OutOfRange(f"the integral of {spec.describe()} overflows a float")
    return total


# ------------------------------------------------------------------ sampling

def approx_by_steps(samples: Sequence[tuple[float, float]]) -> StepFunction:
    """Right-continuous step interpolant through float samples on [0, 1).

    Sample abscissae must be strictly ascending inside [0, 1); the value
    before the first sample backfills from it.  Floats are rationalized
    exactly via Fraction(float).  This is a modelling convenience: the
    distance to the sampled function is NOT certified, callers own the
    resolution choice.
    """
    if not samples:
        raise EmptyDomain("no samples")
    xs = [s[0] for s in samples]
    for a, b in zip(xs, xs[1:]):
        if not b > a:
            raise UnsortedSamples(f"sample positions not strictly ascending at {b}")
    if xs[0] < 0 or xs[-1] >= 1:
        raise OutOfDomain("sample positions must lie in [0, 1)")
    bps = [Fraction(0)]
    vals = [Fraction(samples[0][1])]
    for x, y in samples:
        fx = Fraction(x)
        if fx == bps[-1]:
            vals[-1] = Fraction(y)
            continue
        bps.append(fx)
        vals.append(Fraction(y))
    bps.append(Fraction(1))
    return StepFunction(tuple(bps), tuple(vals))
