"""Exact arithmetic for step functions on half-open intervals [0, T).

A step function has strictly ascending rational breakpoints
0 = b_0 < b_1 < ... < b_P = T and one rational value per piece
[b_i, b_{i+1}).  It stores them as ints: the breakpoints as numerators
over one lowest-terms denominator (b_i == grid[i] / den) and the values
as numerators over another (v_i == row[i] / q).  That form is canonical,
so equality and hashing compare the ints, and every result is exact and
reproducible byte for byte.

Validation, refinement, products, linear combinations, dilation,
concatenation, integrals, level-set measures and convex expectations are
loops over those Python ints, and each operation builds its result's
ints directly.  Fraction is the API and JSON boundary: the breakpoints
and values fields are Fraction tuples built on first access, with one
Fraction per distinct numerator, and a public constructor takes
rationals.

Floats enter only through convex integrands that have no rational value
(fractional powers, exponentials); those paths are documented on
ConvexSpec.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat

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
    bounded_number,
    frozen,
    report_value,
)

DEFAULT_PIECE_CAP = 1 << 20
POWER_CAP = 1024
# bits an exact power integrand may reach: P times the bits of its values
POWER_BITS_CAP = 1 << 20
# relative slack of a float comparison of two convex expectations
REL_TOL = 1e-9

Rational = Fraction | int | str


def piece_cap() -> int:
    """Current piece-count cap; MULTSYS_PIECE_CAP overrides the default 2**20."""
    raw = os.environ.get("MULTSYS_PIECE_CAP")
    if raw is None:
        return DEFAULT_PIECE_CAP
    if not raw.strip().isdecimal() or int(bounded_number(raw)) < 1:
        raise OutOfRange(f"MULTSYS_PIECE_CAP must be a positive integer, got {raw!r}")
    return int(raw)


PIECE_CAP = piece_cap()  # read once, when this module is first imported


def json_list(obj: dict, key: str) -> list:
    """obj[key], which must be a JSON list: a string would iterate by characters."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON list, got {type(value).__name__}")
    return value


def as_fraction(x: Rational) -> Fraction:
    """Coerce int, Fraction or a 'p/q' or decimal string to Fraction.

    Floats and bools are rejected on purpose: silent binary-float artifacts
    would poison every downstream exact comparison.  Convert explicitly
    with Fraction(float_value) where that is genuinely wanted.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(bounded_number(x))
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _guard_pieces(count: int) -> None:
    if count > PIECE_CAP:
        raise CapacityExceeded(f"{count} pieces exceed the cap of {PIECE_CAP}")


# ------------------------------------------------------------------ integer kernel

def int_row(xs: Sequence[Rational]) -> tuple[list[int], int]:
    """Clear denominators: xs == ints / den elementwise, den the lcm of theirs,
    in lowest terms when every x is (a prime's top power in den comes with a
    numerator free of that prime).

    Sums, products and comparisons over such rows cost no gcd per
    operation; one Fraction at the end restores the exact value.
    """
    dens = [x.denominator for x in xs]
    den = math.lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(xs, dens)], den


def _lowest(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den with the common factor of all numerators and den removed."""
    if den == 1:
        return nums, den
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple([n // g for n in nums]), den // g


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """nums / den elementwise, one Fraction object per distinct numerator."""
    made = {n: Fraction(n, den) for n in set(nums)}
    return tuple(map(made.__getitem__, nums))


def _spread(row: Sequence, at: Sequence[int]) -> tuple:
    """Row entry j repeated on the merged pieces at[j] .. at[j + 1] - 1."""
    if type(at) is range:
        return tuple(chain.from_iterable(map(repeat, row, repeat(at.step))))
    out: list = []
    for v, start, end in zip(row, at, at[1:]):
        out += [v] * (end - start)
    return tuple(out)


def _law(keys: Iterable, lengths: Iterable[int]) -> dict:
    """The lengths summed by key, with keys in order of first appearance."""
    mass: dict = {}
    for key, ln in zip(keys, lengths):
        if key in mass:
            mass[key] += ln
        else:
            mass[key] = ln
    return mass


def uniform_grid(pieces: int) -> tuple[tuple[int, ...], int]:
    """Breakpoints i / pieces for i = 0..pieces, as (grid, den): valid and in
    lowest terms, so every function built on it keeps this very tuple."""
    return tuple(range(pieces + 1)), pieces


@frozen
class StepFunction:
    """Piecewise-constant function on [0, breakpoints[-1]).

    breakpoints: strictly ascending Fractions, first one 0.
    values: one Fraction per piece, len(values) == len(breakpoints) - 1.
    Adjacent pieces may carry equal values; merging them is the explicit
    normalize() operation, never a side effect.

    Both are stored as ints over a lowest-terms denominator each (see the
    module docstring); the Fraction tuples are built on first access.
    """

    _grid: tuple[int, ...]
    _den: int
    _row: tuple[int, ...]
    _q: int

    def __init__(self, breakpoints: Sequence[Rational], values: Sequence[Rational]) -> None:
        """The one validating constructor; kernels build through _from_ints."""
        grid, den = int_row(breakpoints)
        row, q = int_row(values)
        vars(self).update(_grid=tuple(grid), _den=den, _row=tuple(row), _q=q)
        self.__post_init__()
        _guard_pieces(len(row))

    @classmethod
    def _from_ints(
        cls, grid: tuple[int, ...], den: int, row: tuple[int, ...], q: int
    ) -> "StepFunction":
        """The function with breakpoints grid[i] / den and values row[i] / q,
        ints that form a valid function, brought to lowest terms.

        The piece count is not checked against the cap here: every kernel
        that makes more pieces than an input had guards the count it makes
        (_guard_pieces), so a result no larger than a guarded input reads
        no cap again."""
        return cls._from_parts(*_lowest(grid, den), *_lowest(row, q))

    @classmethod
    def _from_parts(
        cls, grid: tuple[int, ...], den: int, row: tuple[int, ...], q: int
    ) -> "StepFunction":
        """The function of ints known to be valid and in lowest terms, such
        as a dilate of a valid function: nothing is reduced or checked."""
        self = object.__new__(cls)
        vars(self).update(_grid=grid, _den=den, _row=row, _q=q)
        return self

    def __post_init__(self) -> None:
        grid = self._grid
        if len(grid) != len(self._row) + 1:
            raise LengthMismatch(
                f"{len(grid)} breakpoints need {len(grid) - 1} values, got {len(self._row)}"
            )
        if len(self._row) == 0:
            raise EmptyDomain("a step function needs at least one piece")
        if grid[0] != 0:
            raise NonAscendingBreakpoints("breakpoints must start at 0")
        if not all(map(operator.lt, grid, grid[1:])):
            i = next(i for i in range(1, len(grid)) if not grid[i] > grid[i - 1])
            raise NonAscendingBreakpoints(
                f"breakpoints not strictly ascending at {Fraction(grid[i], self._den)}"
            )

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return _fractions(self._grid, self._den)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return _fractions(self._row, self._q)

    def __repr__(self) -> str:
        return f"StepFunction(breakpoints={self.breakpoints!r}, values={self.values!r})"

    # -- geometry -------------------------------------------------

    @property
    def domain_length(self) -> Fraction:
        return Fraction(self._grid[-1], self._den)

    @property
    def piece_count(self) -> int:
        return len(self._row)

    def piece_lengths(self) -> tuple[Fraction, ...]:
        _, lengths, den, _ = int_grid([self])
        return _fractions(lengths, den)

    # -- serialization --------------------------------------------

    def to_json(self) -> dict:
        return {"breakpoints": report_value(self.breakpoints), "values": report_value(self.values)}

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        try:
            bps = tuple(map(as_fraction, json_list(obj, "breakpoints")))
            vals = tuple(map(as_fraction, json_list(obj, "values")))
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
    value = as_fraction(value)
    return StepFunction._from_ints(
        (0, length.numerator), length.denominator, (value.numerator,), value.denominator
    )


def rademacher(k: int) -> StepFunction:
    """k-th dyadic sign function on [0, 1): +1 then -1 alternating on 2**k
    equal pieces.  dilate(rademacher(k), 1 / L) is the one on [0, L)."""
    if k < 1:
        raise OutOfRange("rademacher index must be >= 1")
    # 2**k > cap exactly when k >= cap.bit_length(), with no 2**k built
    if k >= PIECE_CAP.bit_length():
        raise CapacityExceeded(f"2**{k} pieces exceed the cap of {PIECE_CAP}")
    pieces = 1 << k
    return StepFunction._from_parts(*uniform_grid(pieces), (1, -1) * (pieces // 2), 1)


# ------------------------------------------------------------------ refinement

def _check_same_domain(fs: Sequence[StepFunction]) -> None:
    first = fs[0]
    end, den = first._grid[-1], first._den
    for f in fs[1:]:
        if f._grid[-1] * den != end * f._den:
            raise DomainMismatch(
                f"domain lengths differ: {first.domain_length} vs {f.domain_length}"
            )


def _step(grid: tuple[int, ...]) -> int:
    """s when the valid grid is 0, s, 2s, ..., else 0.  With a unit first
    step the end decides alone: len - 1 ascending int steps from 0 to
    len - 1 are all 1."""
    s = grid[1]
    if grid[-1] != s * (len(grid) - 1):
        return 0
    return s if s == 1 or grid == tuple(range(0, grid[-1] + 1, s)) else 0


def _align(fs: Sequence[StepFunction]) -> tuple[tuple[int, ...], int, list[Sequence[int]]]:
    """The union of the breakpoints of fs as ints over one denominator, that
    denominator, and for every function the index in the union of each of
    its own breakpoints.  Functions sharing one grid get that grid back.

    When every grid has equal steps, each a multiple of the finest, the
    finest grid is the union and each function's indices are a range of
    its stride; any other input is merged by a sorted set union.
    """
    first, den = fs[0]._grid, fs[0]._den
    if all(f._grid is first and f._den == den for f in fs):
        return first, den, [range(len(first))] * len(fs)
    _check_same_domain(fs)
    den = math.lcm(*{f._den for f in fs})
    steps = [_step(f._grid) * (den // f._den) for f in fs]
    fine = min(steps)
    finest = fs[steps.index(fine)]
    # a grid in lowest terms with the finest step is over den already; the
    # den test keeps any other grid on the general path
    if fine and finest._den == den and not any(s % fine for s in steps):
        return finest._grid, den, [range(0, len(finest._grid), s // fine) for s in steps]
    scaled = [f._grid if f._den == den else [n * (den // f._den) for n in f._grid] for f in fs]
    merged = tuple(sorted(set().union(*scaled)))
    if len(merged) > max(map(len, scaled)):  # else no larger than a guarded input
        _guard_pieces(len(merged) - 1)
    index = {n: i for i, n in enumerate(merged)}.__getitem__
    return merged, den, [list(map(index, row)) for row in scaled]


def _on_grid(f: StepFunction, at: Sequence[int], grid: tuple[int, ...]) -> Sequence[int]:
    """f's value row on the merged grid, given where its breakpoints sit."""
    return f._row if len(at) == len(grid) else _spread(f._row, at)


# (grid, lengths, den, rows): see int_grid
IntGrid = tuple[tuple[int, ...], tuple[int, ...], int, tuple[tuple[tuple[int, ...], int], ...]]


def int_grid(fs: Sequence[StepFunction]) -> IntGrid:
    """The functions of fs on their merged grid, as ints.

    Returns (grid, lengths, den, rows): the union of the breakpoints and
    the merged piece lengths, both as ints over den, and per function
    (row, q) with its values on the merged pieces as ints over q.  A grid
    shared by every function comes back as that very tuple, and no
    functions give ((0,), (), 1, ()).  No refined StepFunction is built,
    and every part is a tuple, so one result can be shared by its readers.
    """
    if not fs:
        return (0,), (), 1, ()
    grid, den, where = _align(fs)
    lengths = tuple(map(operator.sub, grid[1:], grid))
    return grid, lengths, den, tuple((_on_grid(f, at, grid), f._q) for f, at in zip(fs, where))


def common_refinement(fs: Sequence[StepFunction]) -> list[StepFunction]:
    """Rewrite all functions on the union of their breakpoints: the
    StepFunction view of int_grid.

    Values are untouched, only the partition is refined, so every
    returned function equals its input pointwise.  A function already on
    the union comes back as itself.
    """
    grid, _, den, rows = int_grid(fs)
    return [
        f if row is f._row else StepFunction._from_ints(grid, den, row, q)
        for f, (row, q) in zip(fs, rows)
    ]


def product(fs: Sequence[StepFunction]) -> StepFunction:
    """Pointwise product; exact."""
    if not fs:
        raise LengthMismatch("product of an empty list is undefined")
    grid, _, den, rows = int_grid(fs)
    nums, q = rows[0]
    for row, d in rows[1:]:
        nums = list(map(operator.mul, nums, row))
        q *= d
    return StepFunction._from_ints(grid, den, tuple(nums), q)


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
    grid, den, where = _align(fs)
    q, factors = _scaled(cs, [f._q for f in fs])
    jumps = [0] * (len(grid) - 1)
    for factor, f, at in zip(factors, fs, where):
        if not factor:
            continue
        prev = 0
        for v, start in zip(f._row, at):
            v *= factor
            jumps[start] += v - prev
            prev = v
    return StepFunction._from_ints(grid, den, tuple(accumulate(jumps)), q)


def _scaled(cs: Sequence[Fraction], dens: Sequence[int]) -> tuple[int, list[int]]:
    """The lcm q of the products of cs[k]'s denominator and dens[k], and the
    factor turning an int value over dens[k] into cs[k] times it over q."""
    q = math.lcm(*(c.denominator * d for c, d in zip(cs, dens)))
    return q, [c.numerator * (q // (c.denominator * d)) for c, d in zip(cs, dens)]


def scale(f: StepFunction, c: Rational) -> StepFunction:
    c = as_fraction(c)
    num = c.numerator
    return StepFunction._from_ints(
        f._grid, f._den, tuple(n * num for n in f._row), f._q * c.denominator
    )


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
    # grid[i] <= x * den exactly when grid[i] <= floor(x * den)
    i = bisect_right(f._grid, x.numerator * f._den // x.denominator) - 1
    return Fraction(f._row[i], f._q)


def dilate(f: StepFunction, factor: Rational) -> StepFunction:
    """Time rescale: result g on [0, T/factor) with g(x) = f(factor * x).

    Only the breakpoint denominator changes (and the numerators, by the
    denominator of the factor); the value row is shared.
    """
    factor = as_fraction(factor)
    if factor <= 0:
        raise NonPositiveFactor(f"dilation factor must be positive, got {factor}")
    return _dilated(f, factor.numerator, factor.denominator)


def _dilated(f: StepFunction, p: int, r: int) -> StepFunction:
    """dilate(f, p / r) for p, r > 0 in lowest terms: the grid times r in
    lowest terms over the denominator times p, the row shared.  A positive
    rescale of a valid function is valid, so nothing is checked again."""
    grid, den = _lowest(f._grid if r == 1 else tuple([n * r for n in f._grid]), f._den * p)
    return StepFunction._from_parts(grid, den, f._row, f._q)


def concat(f: StepFunction, g: StepFunction) -> StepFunction:
    """Place g after f on [0, T_f + T_g)."""
    return concat_many([f, g])


def concat_many(fs: Sequence[StepFunction]) -> StepFunction:
    """Concatenate several functions in one pass."""
    if not fs:
        raise EmptyDomain("concat of an empty list")
    _guard_pieces(sum(len(f._row) for f in fs))
    den = math.lcm(*{f._den for f in fs})
    q = math.lcm(*{f._q for f in fs})
    grid = [0]
    row: list[int] = []
    for f in fs:
        m, offset = den // f._den, grid[-1]
        grid.extend(n * m + offset for n in f._grid[1:])
        s = q // f._q
        row.extend(f._row if s == 1 else [v * s for v in f._row])
    return StepFunction._from_ints(tuple(grid), den, tuple(row), q)


def tile(f: StepFunction, copies: int) -> StepFunction:
    """copies unshrunk copies of f side by side, on [0, copies * T).

    A dyadic dilate mod 1 is tile(dilate(f, 2**k), 2**k).
    """
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
    den = math.lcm(f._den, t.denominator)
    m = den // f._den
    cut = t.numerator * (den // t.denominator)
    grid = [n * m for n in f._grid]
    i = bisect_left(grid, cut)  # the pieces before t are 0 .. i - 1
    return StepFunction._from_ints(tuple(grid[:i]) + (cut,), den, f._row[:i], f._q)


def normalize(f: StepFunction) -> StepFunction:
    """Merge adjacent pieces with equal values.  The only coalescing operation.

    A function with no equal neighbours comes back as itself.
    """
    grid = [0]
    row: list[int] = []
    last = None
    for n, right in zip(f._row, f._grid[1:]):
        if n == last:
            grid[-1] = right
        else:
            row.append(n)
            grid.append(right)
            last = n
    if len(row) == len(f._row):
        return f
    return StepFunction._from_ints(tuple(grid), f._den, tuple(row), f._q)


def _mass_where(law: dict[int, int], q: int, d: int, compare, level: Fraction) -> Fraction:
    """The length, over d, that law gives the values n / q comparing with
    level: for level == a / b, compare(n / q, level) is compare(n * b, a * q)."""
    b, bar = level.denominator, level.numerator * q
    return Fraction(sum(ln for n, ln in law.items() if compare(n * b, bar)), d)


def _measure_where(f: StepFunction, compare, level: Rational) -> Fraction:
    """Measure of {x : compare(f(x), level)}, read off the law of f."""
    _, lengths, d, [(row, q)] = int_grid([f])
    return _mass_where(_law(row, lengths), q, d, compare, as_fraction(level))


def measure_above(f: StepFunction, level: Rational) -> Fraction:
    """Lebesgue measure of the strict superlevel set {x : f(x) > level}."""
    return _measure_where(f, operator.gt, level)


def measure_equal(f: StepFunction, value: Rational) -> Fraction:
    return _measure_where(f, operator.eq, value)


def value_range(f: StepFunction) -> tuple[Fraction, Fraction]:
    """Smallest and largest value of f, compared as ints."""
    return Fraction(min(f._row), f._q), Fraction(max(f._row), f._q)


# ------------------------------------------------------------------ convex integrands

@frozen
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

    @property
    def is_exact(self) -> bool:
        """Whether Phi maps rationals to rationals: an integer power, a
        hinge square or abs, by kind and parameter, never by argument."""
        return self.kind != "exp" and (self.kind != "power" or isinstance(self.param, int))

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
    The exact path collects the length each distinct value covers and
    hands that law to exact_phi_integral; the float path evaluates Phi
    once per distinct value and hands the values to float_phi_integral.
    """
    _, lengths, d, [(row, q)] = int_grid([f])
    if spec.is_exact:
        return exact_phi_integral(_law(row, lengths), q, d, spec)
    phi = {n: spec.float_value(n / q) for n in set(row)}
    return float_phi_integral(map(phi.__getitem__, row), lengths, d, spec)


def float_phi_integral(
    phis: Iterable[float], lengths: Sequence[int], d: int, spec: ConvexSpec
) -> float:
    """Integral of Phi(g) as a float, given Phi(g) on each piece in domain
    order and the pieces' lengths as ints over d: a plain loop adding piece
    by piece in that order, since a float sum's bits depend on the order of
    its terms (and sum() compensates float sums from Python 3.12)."""
    total = 0.0
    for phi, ln in zip(phis, lengths):
        total += phi * (ln / d)
    if not math.isfinite(total):
        raise OutOfRange(f"the integral of {spec.describe()} overflows a float")
    return total


def exact_phi_integral(mass: dict[int, int], q: int, d: int, spec: ConvexSpec) -> Fraction:
    """Integral of Phi(g) for an exact spec, given the law of g: value n / q
    covers length mass[n] / d.

    Phi of every value is an int over one denominator, |n|**p over q**p
    for a power (abs is p == 1) and max(n*b - a*q, 0)**2 over (q*b)**2
    for a hinge at a / b, so the integral is one int sum and one Fraction.
    A power whose p times the bits of the largest of q and |n| is above
    POWER_BITS_CAP is refused (CapacityExceeded) before any power is taken.
    """
    if spec.kind == "hinge_square":
        a, b = spec.param.numerator, spec.param.denominator  # type: ignore[union-attr]
        num = sum(max(n * b - a * q, 0) ** 2 * ln for n, ln in mass.items())
        return Fraction(num, (q * b) ** 2 * d)
    p = 1 if spec.kind == "abs" else spec.param
    # |n|**p and q**p carry p times the bits of n and q; refuse before building them
    bits = max(q, max(map(abs, mass))).bit_length()
    if p * bits > POWER_BITS_CAP:  # type: ignore[operator]
        raise CapacityExceeded(
            f"power {p} of values of {bits} bits exceeds the cap of {POWER_BITS_CAP} bits"
        )
    num = sum(abs(n) ** p * ln for n, ln in mass.items())  # type: ignore[operator]
    return Fraction(num, q**p * d)  # type: ignore[operator]


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
