"""Exact arithmetic for step functions on half-open intervals [0, T).

A step function is stored as strictly ascending rational breakpoints
0 = b_0 < b_1 < ... < b_P = T together with one rational value per piece
[b_i, b_{i+1}).  All algebra (products, linear combinations, integrals,
level-set measures) happens in fractions.Fraction, so results are exact
and representations are reproducible byte for byte.

Floats enter only through convex integrands that have no rational value
(fractional powers, exponentials); those paths are documented on
ConvexSpec.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
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
        if self.breakpoints[0] != 0:
            raise NonAscendingBreakpoints("breakpoints must start at 0")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not b > a:
                raise NonAscendingBreakpoints(f"breakpoints not strictly ascending at {b}")
        _guard_pieces(len(self.values))

    # -- geometry -------------------------------------------------

    @property
    def domain_length(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def piece_count(self) -> int:
        return len(self.values)

    def piece_lengths(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

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
    length = as_fraction(length)
    bps = tuple(Fraction(i, pieces) * length for i in range(pieces + 1))
    vals = tuple(Fraction(1 if i % 2 == 0 else -1) for i in range(pieces))
    return StepFunction(bps, vals)


# ------------------------------------------------------------------ refinement

def _check_same_domain(fs: Sequence[StepFunction]) -> Fraction:
    T = fs[0].domain_length
    for f in fs[1:]:
        if f.domain_length != T:
            raise DomainMismatch(
                f"domain lengths differ: {T} vs {f.domain_length}"
            )
    return T


def common_refinement(fs: Sequence[StepFunction]) -> list[StepFunction]:
    """Rewrite all functions on the union of their breakpoints.

    Values are untouched, only the partition is refined, so every
    returned function equals its input pointwise.
    """
    if not fs:
        return []
    _check_same_domain(fs)
    merged: set[Fraction] = set()
    for f in fs:
        merged.update(f.breakpoints)
    bps = tuple(sorted(merged))
    _guard_pieces(len(bps) - 1)
    out = []
    for f in fs:
        vals = []
        src = 0
        for left in bps[:-1]:
            while f.breakpoints[src + 1] <= left:
                src += 1
            vals.append(f.values[src])
        out.append(StepFunction(bps, tuple(vals)))
    return out


def product(fs: Sequence[StepFunction]) -> StepFunction:
    """Pointwise product; exact."""
    if not fs:
        raise LengthMismatch("product of an empty list is undefined")
    refined = common_refinement(fs)
    bps = refined[0].breakpoints
    vals = []
    for i in range(len(bps) - 1):
        p = Fraction(1)
        for f in refined:
            p *= f.values[i]
        vals.append(p)
    return StepFunction(bps, tuple(vals))


def linear_combination(
    coeffs: Sequence[Rational], fs: Sequence[StepFunction]
) -> StepFunction:
    """sum_k coeffs[k] * fs[k]; exact."""
    if len(coeffs) != len(fs):
        raise LengthMismatch(f"{len(coeffs)} coefficients for {len(fs)} functions")
    if not fs:
        raise LengthMismatch("linear combination of an empty list is undefined")
    cs = [as_fraction(c) for c in coeffs]
    refined = common_refinement(fs)
    bps = refined[0].breakpoints
    vals = []
    for i in range(len(bps) - 1):
        s = Fraction(0)
        for c, f in zip(cs, refined):
            s += c * f.values[i]
        vals.append(s)
    return StepFunction(bps, tuple(vals))


def scale(f: StepFunction, c: Rational) -> StepFunction:
    c = as_fraction(c)
    return StepFunction(f.breakpoints, tuple(c * v for v in f.values))


# ------------------------------------------------------------------ calculus

def integral(f: StepFunction) -> Fraction:
    """Unnormalized integral over the whole domain [0, T)."""
    return sum(
        (v * (b - a) for v, a, b in zip(f.values, f.breakpoints, f.breakpoints[1:])),
        Fraction(0),
    )


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
    bps = [f.breakpoints[0]]
    vals: list[Fraction] = []
    for v, right in zip(f.values, f.breakpoints[1:]):
        if vals and vals[-1] == v:
            bps[-1] = right
        else:
            vals.append(v)
            bps.append(right)
    return StepFunction(tuple(bps), tuple(vals))


def measure_above(f: StepFunction, level: Rational) -> Fraction:
    """Lebesgue measure of the strict superlevel set {x : f(x) > level}."""
    level = as_fraction(level)
    return sum(
        (b - a for v, a, b in zip(f.values, f.breakpoints, f.breakpoints[1:]) if v > level),
        Fraction(0),
    )


def measure_equal(f: StepFunction, value: Rational) -> Fraction:
    value = as_fraction(value)
    return sum(
        (b - a for v, a, b in zip(f.values, f.breakpoints, f.breakpoints[1:]) if v == value),
        Fraction(0),
    )


# ------------------------------------------------------------------ convex integrands

@dataclass(frozen=True)
class ConvexSpec:
    """Nonnegative convex integrand t -> Phi(t).

    kind "power":        Phi(t) = |t| ** p, p >= 1; exact when p is an even integer
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
    exact_parts: list[Fraction] = []
    for v, a, b in zip(f.values, f.breakpoints, f.breakpoints[1:]):
        ev = spec.exact_value(v)
        if ev is None:
            break
        exact_parts.append(ev * (b - a))
    else:
        return sum(exact_parts, Fraction(0))
    total = 0.0
    for v, a, b in zip(f.values, f.breakpoints, f.breakpoints[1:]):
        total += spec.float_value(float(v)) * float(b - a)
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
