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
from collections.abc import Collection, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

from .errors import (
    BadBounds,
    BadSubset,
    CapTooLarge,
    DomainMismatch,
    LengthMismatch,
    NonPositiveFactor,
    ParseError,
    ValueOutOfBounds,
    _guard_subsets,
    _validate_subset,
    frozen,
    report_json,
    report_value,
)
from .stepfn import (
    ConvexSpec,
    IntGrid,
    Rational,
    StepFunction,
    _dilated,
    _law,
    _lowest,
    _scaled,
    as_fraction,
    convex_expectation,
    exact_phi_integral,
    float_phi_integral,
    int_grid,
    json_list,
    linear_combination,
    value_range,
)

FAMILY_CAP = 1 << 22

Subset = tuple[int, ...]


@frozen
class BoundedSystem:
    """Step functions phi_1..phi_n with certified bounds A_k <= phi_k <= B_k.

    grid is the functions on their merged grid, stepfn.int_grid of them,
    and histogram is their joint law as a value-pattern histogram (see
    pattern_measure), read off that grid.  Both are derived from functions
    alone, built on first access (or by _stage) and then kept for as long
    as the system lives, so the system's functions are merged once: every
    moment table, independence check, sum and binarization of the system
    reads one grid and one histogram, both read-only.  Like the Fraction
    views of a StepFunction they are caches, not fields: they take no part
    in equality, hashing, repr, JSON or pickling.
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
    def _stage(
        cls, functions: tuple[StepFunction, ...], lower: tuple[Fraction, ...],
        upper: tuple[Fraction, ...], grid: Sequence[int], den: int,
        rows: Iterable[tuple[Sequence[int], int]],
        lengths: tuple[int, ...] | None = None, mass: dict | None = None,
    ) -> BoundedSystem:
        """A reduction stage: parts that form a valid system, since the stage
        is built from one, so nothing is checked again, with the merged grid
        the code building its functions wrote: breakpoints grid / den and
        function k's values on its pieces the k-th (row, q), q a multiple of
        the function's own, brought to the lowest terms of int_grid.  A grid
        rescaled from another stage's (xi's) comes with its lengths and its
        histogram's mass, over a den that is already its lowest."""
        self = object.__new__(cls)
        vars(self).update(functions=functions, lower_bounds=lower, upper_bounds=upper)
        if lengths is None:
            grid, den = _lowest(tuple(grid), den)
            lengths = tuple(map(operator.sub, grid[1:], grid))
        on_grid = []
        for f, (row, q) in zip(functions, rows):
            r = q // f._q
            on_grid.append((tuple(row if r == 1 else [v // r for v in row]), f._q))
        vars(self)["grid"] = (tuple(grid), lengths, den, tuple(on_grid))
        if mass is not None:
            vars(self)["histogram"] = (MappingProxyType(mass), den, tuple(q for _, q in on_grid))
        return self

    @cached_property
    def grid(self) -> IntGrid:
        return int_grid(self.functions)

    @cached_property
    def histogram(self) -> PatternHistogram:
        mass, den, dens = pattern_measure(self.grid)
        # read-only: every later reader of this system shares it
        return MappingProxyType(mass), den, dens

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in ("grid", "histogram")}

    @property
    def n(self) -> int:
        return len(self.functions)

    @property
    def domain_length(self) -> Fraction:
        if not self.functions:
            raise DomainMismatch("empty system has no domain")
        return self.functions[0].domain_length

    def coefficients(self, coeffs: Sequence[Rational]) -> list[Fraction]:
        """coeffs as Fractions, refused unless there is one per function."""
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) != self.n:
            raise LengthMismatch(f"{len(cs)} coefficients for {self.n} functions")
        return cs

    def capacities(self) -> tuple[Fraction, ...]:
        """C_k = min(-A_k, B_k), the symmetric value capacity of each function."""
        return tuple(min(-lo, hi) for lo, hi in zip(self.lower_bounds, self.upper_bounds))

    to_json = report_json

    @classmethod
    def from_json(cls, obj: dict) -> "BoundedSystem":
        try:
            fns = json_list(obj, "functions")
            lo = tuple(map(as_fraction, json_list(obj, "lower_bounds")))
            hi = tuple(map(as_fraction, json_list(obj, "upper_bounds")))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad system object: {exc}") from exc
        # built past the try, so a function's own error keeps its type and message
        return cls(tuple(map(StepFunction.from_json, fns)), lo, hi)


def symmetric_system(functions: Sequence[StepFunction], bound: Rational = 1) -> BoundedSystem:
    """Convenience constructor with shared bounds [-bound, bound]."""
    b = as_fraction(bound)
    n = len(functions)
    return BoundedSystem(tuple(functions), (-b,) * n, (b,) * n)


def dilate_system(sys: BoundedSystem, factor: Rational) -> BoundedSystem:
    """Every function dilated by factor == p / r, on [0, T / factor): the
    functions of stepfn.dilate, built straight from those of sys.

    The result is valid because sys is (same values and bounds, every
    domain scaled alike), so neither it nor its functions are validated
    again, and the factor is checked once as ints, not per function.
    The system is given its merged grid and its histogram from those of
    sys, with no merge and no rebuild: each breakpoint and mass times r
    over the denominator d times p, in lowest terms in the same multiply
    pass, while the rows, the value patterns and their denominators stay.
    """
    factor = as_fraction(factor)
    p, r = factor.numerator, factor.denominator
    if p <= 0:
        raise NonPositiveFactor(f"dilation factor must be positive, got {factor}")
    grid, lengths, d, rows = sys.grid
    # grid / d and p / r are in lowest terms, so g is the gcd of grid * r and d * p;
    # it divides every length and mass times r, each a sum of differences of the grid
    g = math.gcd(r, d) * math.gcd(p, *grid)
    if g != r:
        grid, lengths = [n * r // g for n in grid], tuple([n * r // g for n in lengths])
    mass = {key: w * r // g for key, w in sys.histogram[0].items()}
    return BoundedSystem._stage(
        tuple(_dilated(f, p, r) for f in sys.functions), sys.lower_bounds, sys.upper_bounds,
        grid, d * p // g, rows, lengths, mass,
    )


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


def family_top(n: int, fam: IndexFamily) -> int:
    """The most members a subset of a capped or full family over n
    functions has, its cap or n, once that lies in 1..n and the family's
    subsets fit under FAMILY_CAP.  Needs n alone, so a pool can be sized
    before any function is built."""
    l = n if fam.cap is None else fam.cap
    if not 1 <= l <= n:
        raise CapTooLarge(f"cardinality cap must lie in 1..{n}, got {l}")
    _guard_subsets(n, l, FAMILY_CAP)
    return l


def enumerate_family(n: int, fam: IndexFamily) -> list[Subset]:
    """Materialize the family for a system of n functions, canonically ordered."""
    if fam.subsets is not None:
        validated = sorted(
            {_validate_subset(s, n) for s in fam.subsets}, key=lambda s: (len(s), s)
        )
        if len(validated) != len(fam.subsets):
            raise BadSubset("explicit family contains duplicate subsets")
        return validated
    l = family_top(n, fam)
    out: list[Subset] = []
    for v in range(1, l + 1):
        out.extend(combinations(range(1, n + 1), v))
    return out


# ------------------------------------------------------------------ moments

# (mass, den, dens): each value pattern, as one int per function with
# function k's value key[k] / dens[k], mapped to the length it covers
# as an int over den.
PatternHistogram = tuple[Mapping[tuple[int, ...], int], int, tuple[int, ...]]


def pattern_measure(grid: IntGrid) -> PatternHistogram:
    """Total length of the points where (phi_1, ..., phi_n) takes each value
    tuple, given the functions on their merged grid (stepfn.int_grid).

    One pass over the merged pieces; pieces carrying the same tuple
    collapse into one entry.  Every mixed moment and joint law of the
    functions depends on this histogram alone, and a two-valued system
    has at most 2**n entries however many pieces it has.
    """
    _, lengths, den, rows = grid
    return _law(zip(*(row for row, _ in rows)), lengths), den, tuple(q for _, q in rows)


def mask_of(subset: Subset) -> int:
    """The subset as a bit mask: bit k - 1 stands for function k."""
    return sum(1 << (k - 1) for k in subset)


def lattice_sums(hist: PatternHistogram, members: Collection[int]) -> dict[int, int]:
    """For every member mask S, the int sum over value patterns of
    mass * prod_{k in S} key[k]: the numerator of E[prod_S phi].  Key 0,
    the empty mask, is always there: the total mass.

    One fold over the subset lattice, Yates's algorithm for factorial
    experiments, which is the fast zeta transform of Bjorklund, Husfeldt,
    Kaski and Koivisto: a state maps the unfolded suffix of a pattern to a
    vector of sums, one per mask of the folded coordinates, and folding
    coordinate k doubles each vector, keeping every sum for masks without
    k and multiplying it by the coordinate's value for masks with k.
    States whose suffixes agree are added up, so the cost is about the
    number of distinct suffixes times the vector length per coordinate,
    n * 2**n for the full family where a loop per subset and pattern pays
    4**n.  Only masks that can still grow into a member are carried, the
    restrictions of the members to the folded coordinates, so one large
    member costs one sum beside the empty mask's, not 2**|S|; members
    naming all 2**n - 1 nonempty masks carry every vector whole.
    """
    mass, _, dens = hist
    n = len(dens)
    wanted_all = {0, *members}
    masks: Sequence[int] = [0]
    # per coordinate: the entries kept and the entries multiplied, None for all
    plan: list[tuple[list[int] | None, list[int] | None]] = []
    if len(wanted_all) == 1 << n:
        # every mask: entry i of the final vector is mask i
        plan, masks = [(None, None)] * n, range(1 << n)
    for k in range(len(plan), n):
        bit = 1 << k
        wanted = {m & (2 * bit - 1) for m in wanted_all}
        keep = [i for i, m in enumerate(masks) if m in wanted]
        mult = [i for i, m in enumerate(masks) if m | bit in wanted]
        if len(keep) == len(masks):
            keep = None
        if len(mult) == len(masks):
            mult = None
        plan.append((keep, mult))
        masks = (masks if keep is None else [masks[i] for i in keep]) + [
            masks[i] | bit for i in (range(len(masks)) if mult is None else mult)
        ]
    if not plan:
        return {0: sum(mass.values())}
    # coordinate 0 folds straight off the histogram: the empty mask is kept,
    # so a pattern's vector is [w, w * v], or [w] when no member holds bit 0
    state: dict[tuple[int, ...], list[int]] = {}
    both = plan[0][1] is None
    for key, w in mass.items():
        rest = key[1:]
        old = state.get(rest)
        if old is None:
            state[rest] = [w, w * key[0]] if both else [w]
        else:
            old[0] += w
            if both:
                old[1] += w * key[0]
    for keep, mult in plan[1:]:
        folded: dict[tuple[int, ...], list[int]] = {}
        for suffix, sums in state.items():
            v = suffix[0]
            new = (sums if keep is None else [sums[i] for i in keep]) + (
                [x * v for x in sums] if mult is None else [sums[i] * v for i in mult]
            )
            rest = suffix[1:]
            old = folded.get(rest)
            folded[rest] = new if old is None else list(map(operator.add, old, new))
        state = folded
    return dict(zip(masks, state[()]))


def family_sums(hist: PatternHistogram, subsets: Sequence[Subset]) -> list[int]:
    """lattice_sums of every subset, in the order of subsets."""
    masks = [mask_of(s) for s in subsets]
    return list(map(lattice_sums(hist, masks).__getitem__, masks))


# every vanishing moment and normalized magnitude is this one object
ZERO = Fraction(0)


def _moment(num: int, subset: Subset, den: int, dens: Sequence[int], T: Fraction) -> Fraction:
    """The moment whose lattice sum over the subset is num."""
    if not num:
        return ZERO
    return Fraction(
        num * T.denominator, den * math.prod(dens[k - 1] for k in subset) * T.numerator
    )


def mixed_moment(sys: BoundedSystem, subset: Sequence[int]) -> Fraction:
    """E[prod_{k in subset} phi_k] under the uniform law on [0, T)."""
    s = _validate_subset(subset, sys.n)
    hist = sys.histogram
    mask = mask_of(s)
    return _moment(lattice_sums(hist, (mask,))[mask], s, hist[1], hist[2], sys.domain_length)


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
            {"subset": list(s), "moment": report_value(m), "normalized": report_value(d)}
            for s, m, d in zip(self.subsets, self.moments, self.normalized)
        ]


def compute_moment_table(sys: BoundedSystem, fam: IndexFamily) -> MomentTable:
    """All mixed moments of sys selected by the family (moment_table)."""
    return moment_table(sys, tuple(enumerate_family(sys.n, fam)))


def moment_table(sys: BoundedSystem, subsets: tuple[Subset, ...]) -> MomentTable:
    """The moments of sys over subsets, a family already enumerated (such
    as another table's subsets), from one lattice fold of the histogram of
    sys, with one Fraction per nonzero reported moment and normalized
    magnitude and the shared ZERO for every other."""
    hist = sys.histogram
    _, den, dens = hist
    T = sys.domain_length
    nums = family_sums(hist, subsets)
    caps = sys.capacities() if any(nums) else ()
    moments: list[Fraction] = []
    normalized: list[Fraction] = []
    for s, num in zip(subsets, nums):
        m = _moment(num, s, den, dens, T)
        moments.append(m)
        # capacities are positive, so only the moment carries a sign
        normalized.append(m if not num else Fraction(
            abs(m.numerator) * math.prod(caps[i - 1].denominator for i in s),
            m.denominator * math.prod(caps[i - 1].numerator for i in s),
        ))
    return MomentTable(subsets, tuple(moments), tuple(normalized))


def multiplicative_error(
    sys: BoundedSystem, fam: IndexFamily
) -> tuple[Fraction, MomentTable]:
    """mu over the family, plus the per-subset table behind it.  Exact."""
    table = compute_moment_table(sys, fam)
    return table.mu(), table


def is_multiplicative(sys: BoundedSystem, fam: IndexFamily) -> bool:
    """True when every selected mixed moment vanishes exactly: a lattice sum
    read until the first nonzero one, with no table built."""
    subsets = enumerate_family(sys.n, fam)
    return not any(family_sums(sys.histogram, subsets))


def combination_law(sys: BoundedSystem, cs: Sequence[Fraction]) -> tuple[dict[int, int], int, int]:
    """The law of sum_k cs[k] phi_k: (law, q, den), each value as an int
    over q mapped to the length it covers as an int over den.  It is read
    off the histogram of a system holding its merged grid, as the sum of
    the scaled values in each value pattern; any other system is not
    merged for it: one difference array (linear_combination) costs less."""
    if "grid" in vars(sys):
        mass, den, dens = sys.histogram
        q, factors = _scaled(cs, dens)
        values = [sum(map(operator.mul, factors, key)) for key in mass]
        return _law(values, mass.values()), q, den
    _, lengths, den, [(row, q)] = int_grid([linear_combination(cs, sys.functions)])
    return _law(row, lengths), q, den


def combination_integral(
    sys: BoundedSystem, cs: Sequence[Fraction], phi: ConvexSpec
) -> Fraction | float:
    """The integral of Phi(sum_k cs[k] phi_k) over [0, T), a Fraction for
    an exact Phi and a float otherwise; with combination_law, the one
    reader of a sum of a system's functions.

    A system never merged is not merged for it: the integral is
    convex_expectation of one difference array (linear_combination).  On
    a system holding its merged grid, an exact Phi reads the law of the
    combination (combination_law), and a float Phi is evaluated once per
    value pattern of the histogram and summed over the merged pieces in
    domain order (float_phi_integral), since a float sum's bits depend on
    the order of its terms: those are the pieces and values that
    linear_combination builds, so the bits are those of
    convex_expectation of it.
    """
    if "grid" not in vars(sys):
        return convex_expectation(linear_combination(cs, sys.functions), phi)
    if phi.is_exact:
        return exact_phi_integral(*combination_law(sys, cs), phi)
    _, lengths, d, rows = sys.grid
    q, factors = _scaled(cs, [rq for _, rq in rows])
    phis = {
        key: phi.float_value(sum(map(operator.mul, factors, key)) / q)
        for key in sys.histogram[0]
    }
    patterns = zip(*(row for row, _ in rows))
    return float_phi_integral(map(phis.__getitem__, patterns), lengths, d, phi)
