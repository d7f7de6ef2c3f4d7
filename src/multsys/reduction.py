"""Reduction of a bounded multiplicative system to an independent two-valued one.

The pipeline has three exact stages:

1. extend: append disjoint correction blocks to [0, T) on which carefully
   signed unimodular functions cancel every nonzero selected mixed moment.
   The extension costs exactly mu in relative length: the new domain is
   [0, T * (1 + mu)).
2. binarize: replace each function, in index order, by a {A_k, B_k}-valued
   function matching its conditional mean on every constancy interval of
   the current system.  This preserves all mixed moments and can only
   increase integrals of convex functions of linear combinations.
3. dilate: rescale the domain back to [0, T).  The result xi is a
   two-valued mean-zero system whose selected joint distributions factor,
   that is, an independent system in the family's sense.

The price of independence is the single factor (1 + mu) in front of any
convex functional, which verify_domination checks numerically or exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations, product as iter_product
from typing import Sequence

from .errors import BadArity, LengthMismatch, NonZeroMean, NotTwoValued, TraceMismatch, frozen
from .moments import (
    BoundedSystem,
    IndexFamily,
    MomentTable,
    Subset,
    combination_expectation,
    compute_moment_table,
    dilate_system,
    enumerate_family,
)
from .stepfn import (
    REL_TOL,
    ConvexSpec,
    Rational,
    StepFunction,
    _guard_pieces,
    as_fraction,
    concat_many,
    constant,
    convex_expectation,
    int_grid_row,
    linear_combination,
    scale,
    uniform_grid,
)


# ------------------------------------------------------------------ cancellation blocks

def walsh_cancellation_system(nu: int, length: Rational = 1) -> list[StepFunction]:
    """nu sign functions on [0, length) whose full product is 1 while every
    proper nonempty subproduct integrates to 0.

    Character construction: the first nu - 1 functions are the dyadic sign
    patterns r_1 .. r_{nu-1} on 2**(nu-1) equal pieces and the last is
    their product, so the system multiplies to r**2 == 1 while any proper
    subproduct is a nontrivial character with zero integral.
    """
    if nu < 2:
        raise BadArity(f"need at least two functions, got {nu}")
    pieces = 1 << (nu - 1)
    _guard_pieces(pieces)
    grid, den = uniform_grid(pieces, length)
    rows: list[tuple[int, ...]] = []
    for k in range(1, nu):
        rows.append(tuple(1 if (i >> (nu - 1 - k)) & 1 == 0 else -1 for i in range(pieces)))
    last = (1,) * pieces
    for row in rows:
        last = tuple(map(operator.mul, last, row))
    rows.append(last)
    return [StepFunction._from_ints(grid, den, row, 1) for row in rows]


def flip_cancellation_system(nu: int, length: Rational = 1) -> list[StepFunction]:
    """Same contract as walsh_cancellation_system via recursive sign flips.

    Start from the constant system 1..1 and process every proper nonempty
    subset V in (cardinality, lexicographic) order: halve each constancy
    piece and flip, on the right halves, the lowest index inside V and the
    lowest index outside V.  Each step kills the integral of the V-product
    on every piece without disturbing previously killed subsets or the
    full product.  Pieces double per step, reaching 2**(2**nu - 2); sizes
    above the piece cap (nu >= 5 at the default cap) are refused.
    """
    if nu < 2:
        raise BadArity(f"need at least two functions, got {nu}")
    _guard_pieces(1 << ((1 << nu) - 2))
    length = as_fraction(length)
    rows: list[list[int]] = [[1] for _ in range(nu)]
    proper: list[Subset] = []
    for r in range(1, nu):
        proper.extend(combinations(range(1, nu + 1), r))
    for V in proper:
        inside = min(V)
        outside = min(i for i in range(1, nu + 1) if i not in V)
        doubled: list[list[int]] = []
        for k in range(1, nu + 1):
            row = rows[k - 1]
            if k in (inside, outside):
                new = [s * v for v in row for s in (1, -1)]
            else:
                new = [v for v in row for _ in (0, 1)]
            doubled.append(new)
        rows = doubled
    grid, den = uniform_grid(len(rows[0]), length)
    return [StepFunction._from_ints(grid, den, tuple(row), 1) for row in rows]


# ------------------------------------------------------------------ extension

def extend_system(sys: BoundedSystem, fam: IndexFamily) -> BoundedSystem:
    """Append one cancellation block per nonzero selected moment.

    Block for subset S has relative length |E[prod_S phi]| / prod_S C_k.
    On it, functions outside S vanish and functions inside S take values
    +-C_k arranged so the block product integral is exactly the negative
    of the moment, while every proper subproduct still integrates to 0.
    The extended system is therefore multiplicative over the family, on
    the longer domain [0, T * (1 + mu)).  Zero moments get no block, so a
    multiplicative input comes back unchanged.
    """
    return _extend(sys, compute_moment_table(sys, fam))


def _extend(sys: BoundedSystem, table: MomentTable) -> BoundedSystem:
    """extend_system given the moment table of sys over the family."""
    T = sys.domain_length
    caps = sys.capacities()
    blocks = [
        (s, T * d, Fraction(1 if m > 0 else -1))
        for s, m, d in zip(table.subsets, table.moments, table.normalized)
        if m != 0
    ]
    if not blocks:
        return sys
    extensions: list[list[StepFunction]] = [[] for _ in range(sys.n)]
    for s, block_len, sign in blocks:
        if len(s) == 1:
            members = [constant(-sign * caps[s[0] - 1], block_len)]
        else:
            base = walsh_cancellation_system(len(s), block_len)
            members = [
                scale(g, caps[idx - 1] if j > 0 else -sign * caps[idx - 1])
                for j, (g, idx) in enumerate(zip(base, s))
            ]
        member_of = dict(zip(s, members))
        zero_block = constant(0, block_len)
        for k in range(1, sys.n + 1):
            extensions[k - 1].append(member_of.get(k, zero_block))
    new_functions = tuple(
        concat_many([sys.functions[k]] + extensions[k]) for k in range(sys.n)
    )
    # every block value is 0 or +-C_k, inside [A_k, B_k], and every function grows alike
    return BoundedSystem._from_parts(new_functions, sys.lower_bounds, sys.upper_bounds)


# ------------------------------------------------------------------ binarization

def binarize(sys: BoundedSystem) -> BoundedSystem:
    """Push every value of every function, in index order, to its boundary
    pair {A_k, B_k}.

    On each constancy interval [a, b) of the whole system where phi_k == v,
    the replacement takes B_k on [a, c) and A_k on [c, b) with

        c = (B_k * a - A_k * b + v * (b - a)) / (B_k - A_k),

    the unique split preserving the integral of phi_k over [a, b).  Since
    every other function is constant there, all mixed moments survive
    exactly; integrals of convex functions of linear combinations never
    decrease.  Outputs are normalized (minimal representation), which
    makes the operation idempotent.

    Per index the current system is merged once (stepfn.int_grid_row)
    and only row k is spread onto the merged pieces.  The normalized row
    is written as it goes: a piece whose value equals the last one
    written extends it.  The piece cap applies to the unmerged count,
    two pieces per split interval and one per other, as if the row were
    built first and normalized after; no histogram is built here.
    """
    functions = list(sys.functions)
    for k, (lo, hi) in enumerate(zip(sys.lower_bounds, sys.upper_bounds)):
        merged, d, row, q = int_grid_row(functions, k)
        # with a / d and b / d the ends of a piece and v == n / q its value,
        # c == num / (q * d * width) where width / (h2 * l2) == B_k - A_k;
        # every output breakpoint is an int over that one denominator
        h1, h2, l1, l2 = hi.numerator, hi.denominator, lo.numerator, lo.denominator
        width = h1 * l2 - l1 * h2
        vq = math.lcm(h2, l2)
        hi_num, lo_num = h1 * (vq // h2), l1 * (vq // l2)
        grid: list[int] = [0]
        vals: list[int] = []
        last = None
        splits = 0
        for n, a, b in zip(row, merged, merged[1:]):
            num = h1 * l2 * q * a - l1 * h2 * q * b + n * h2 * l2 * (b - a)
            low, high = a * q * width, b * q * width
            if low < num < high:
                # B_k on [a, c), then A_k on [c, b)
                splits += 1
                if last == hi_num:
                    grid[-1] = num
                else:
                    grid.append(num)
                    vals.append(hi_num)
                grid.append(high)
                vals.append(lo_num)
                last = lo_num
            else:
                v = hi_num if num > low else lo_num
                if v == last:
                    grid[-1] = high
                else:
                    grid.append(high)
                    vals.append(v)
                    last = v
        _guard_pieces(len(row) + splits)
        functions[k] = StepFunction._from_ints(tuple(grid), q * d * width, tuple(vals), vq)
    # every value is A_k or B_k, and every domain stays [0, T)
    return BoundedSystem._from_parts(tuple(functions), sys.lower_bounds, sys.upper_bounds)


# ------------------------------------------------------------------ independence

@frozen
class IndependenceReport:
    """Outcome of the exact product-measure check over a family."""

    independent: bool
    subsets_checked: int
    failures: tuple[dict, ...]
    marginals: tuple[Fraction, ...]  # measure of {phi_k == A_k}, normalized


def check_independence(sys: BoundedSystem, fam: IndexFamily) -> IndependenceReport:
    """Verify that selected joint value distributions factor exactly.

    Requires every function to be {A_k, B_k}-valued with zero mean; then
    the marginal law is pinned (P{phi_k == A_k} = B_k / (B_k - A_k)) and
    the check compares each joint pattern measure with the product of
    marginals, in ints on the system's histogram.  With
    M = T * den the total mass and L_k the mass where phi_k == A_k, both
    ints over the histogram's denominator, a pattern over S of joint mass
    J factors exactly when J * M**(|S| - 1) is the product over k in S of
    L_k (phi_k low) or M - L_k (phi_k high).  Fractions are built only
    for the reported marginals L_k / M and for failures.
    """
    T = sys.domain_length
    mass, den, dens = sys.histogram
    M = T.numerator * den // T.denominator  # T ends the merged grid, so T * den is an int
    # function k is low where its int value is lows[k], that is A_k * dens[k]
    lows: list[int] = []
    low_mass: list[int] = []
    for k, (lo, hi, q) in enumerate(zip(sys.lower_bounds, sys.upper_bounds, dens)):
        seen = {key[k] for key in mass}
        if not seen <= {lo * q, hi * q} or len(seen) != 2:
            values = sorted(Fraction(n, q) for n in seen)
            raise NotTwoValued(f"function {k + 1} takes values {values}, not [{lo}, {hi}]")
        lows.append(int(lo * q))
        L = sum(w for key, w in mass.items() if key[k] == lows[k])
        # the mean times M * A_k.den * B_k.den
        if lo.numerator * hi.denominator * L + hi.numerator * lo.denominator * (M - L):
            raise NonZeroMean(f"function {k + 1} has mean {(lo * L + hi * (M - L)) / M}")
        low_mass.append(L)
    failures: list[dict] = []
    subsets = enumerate_family(sys.n, fam)
    for s in subsets:
        joint: dict[tuple[bool, ...], int] = {}
        for key, w in mass.items():
            pattern = tuple(key[k - 1] == lows[k - 1] for k in s)
            joint[pattern] = joint.get(pattern, 0) + w
        scale = M ** (len(s) - 1)
        for pattern in iter_product((True, False), repeat=len(s)):
            expected = 1
            for flag, k in zip(pattern, s):
                expected *= low_mass[k - 1] if flag else M - low_mass[k - 1]
            got = joint.get(pattern, 0)
            if got * scale != expected:
                failures.append({
                    "subset": s, "pattern": pattern,
                    "measure": Fraction(got, M), "expected": Fraction(expected, scale * M),
                })
    return IndependenceReport(
        independent=not failures,
        subsets_checked=len(subsets),
        failures=tuple(failures),
        marginals=tuple(Fraction(L, M) for L in low_mass),
    )


# ------------------------------------------------------------------ the pipeline

@frozen
class ReductionTrace:
    """Everything the reduction produced, stage by stage.

    moment_tables["xi"] is the binarized table itself: xi is the binarized
    system dilated by 1 + mu, and dilation changes no expectation.
    """

    mu: Fraction
    family: tuple[Subset, ...]
    input_system: BoundedSystem
    extended: BoundedSystem
    binarized: BoundedSystem
    xi: BoundedSystem
    moment_tables: dict[str, MomentTable]

    def to_json(self) -> dict:
        return {
            "mu": str(self.mu),
            "family": [list(s) for s in self.family],
            "input_system": self.input_system.to_json(),
            "extended": self.extended.to_json(),
            "binarized": self.binarized.to_json(),
            "xi": self.xi.to_json(),
            "moment_tables": {k: t.to_json() for k, t in self.moment_tables.items()},
        }


def reduce_to_independent(sys: BoundedSystem, fam: IndexFamily) -> ReductionTrace:
    """Run extend, binarize, dilate; return all stages with moment tables.

    The input, extended and binarized tables are each computed from their
    own system, since they certify the paper's invariants (mu == 0 after
    extension, moments kept by binarization); a multiplicative input is
    its own extension, so its table is the extended table too.  xi's
    table is the binarized table: dilating back to [0, T) scales every
    integral and the domain length alike, so no expectation moves.  Each
    table reads its system's histogram, and xi's histogram is the
    binarized one rescaled (dilate_system), so the reduction builds at
    most three tables and three histograms, two of each when mu == 0.
    """
    input_table = compute_moment_table(sys, fam)
    mu = input_table.mu()
    extended = _extend(sys, input_table)
    binarized = binarize(extended)
    binarized_table = compute_moment_table(binarized, fam)
    tables = {
        "input": input_table,
        "extended": input_table if extended is sys else compute_moment_table(extended, fam),
        "binarized": binarized_table,
        "xi": binarized_table,
    }
    return ReductionTrace(
        mu=mu,
        family=input_table.subsets,
        input_system=sys,
        extended=extended,
        binarized=binarized,
        xi=dilate_system(binarized, 1 + mu),
        moment_tables=tables,
    )


@frozen
class DominationReport:
    """E[Phi(sum a_k phi_k)] against (1 + mu) E[Phi(sum a_k xi_k)]."""

    lhs: Fraction | float
    rhs: Fraction | float
    mu: Fraction
    holds: bool
    exact: bool
    phi: str

    def to_json(self) -> dict:
        def side(x: Fraction | float) -> object:
            if isinstance(x, Fraction):
                return str(x)
            return {"value": x, "approx": True}

        return {
            "phi": self.phi,
            "lhs": side(self.lhs),
            "rhs": side(self.rhs),
            "mu": str(self.mu),
            "holds": self.holds,
            "exact": self.exact,
        }


def verify_domination(
    sys: BoundedSystem,
    fam: IndexFamily,
    coeffs: Sequence[Rational],
    phi: ConvexSpec,
    trace: ReductionTrace | None = None,
) -> DominationReport:
    """Check E[Phi(sum a phi)] <= (1 + mu) E[Phi(sum a xi)].

    Exact comparison when Phi keeps rationals rational, otherwise floats
    with relative tolerance 1e-9.  A reduction trace may be passed in to
    reuse the pipeline output across several integrands; it must come
    from this system and this family, or TraceMismatch is raised.

    An exact Phi reads the joint laws through combination_expectation,
    the lhs on the histogram of sys and the rhs on the one xi carries,
    with no linear combination built.  A float Phi keeps the piece path,
    linear_combination then convex_expectation in domain order, because
    a float sum's bits depend on the order of its terms.
    """
    if trace is None:
        trace = reduce_to_independent(sys, fam)
    elif trace.input_system != sys or trace.family != tuple(enumerate_family(sys.n, fam)):
        # record equality compares field tuples, whose items short-circuit on identity
        raise TraceMismatch("the trace was not reduced from this system and family")
    cs = [as_fraction(c) for c in coeffs]
    if len(cs) != sys.n:
        raise LengthMismatch(f"{len(cs)} coefficients for {sys.n} functions")
    factor = 1 + trace.mu
    exact = phi.is_exact
    if exact:
        lhs_val: Fraction | float = combination_expectation(sys, cs, phi)
        rhs_val: Fraction | float = factor * combination_expectation(trace.xi, cs, phi)
        holds = lhs_val <= rhs_val
    else:
        T = sys.domain_length
        lhs = convex_expectation(linear_combination(cs, sys.functions), phi)
        rhs = convex_expectation(linear_combination(cs, trace.xi.functions), phi)
        lhs_val = float(lhs) / float(T)
        rhs_val = float(factor) * float(rhs) / float(T)
        holds = lhs_val <= rhs_val or (lhs_val - rhs_val) <= REL_TOL * max(
            abs(lhs_val), abs(rhs_val), 1.0
        )
    return DominationReport(
        lhs=lhs_val,
        rhs=rhs_val,
        mu=trace.mu,
        holds=holds,
        exact=exact,
        phi=phi.describe(),
    )
