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
from typing import Collection, Mapping, Sequence

from .errors import BadArity, LengthMismatch, NonZeroMean, NotTwoValued, TraceMismatch, frozen
from .moments import (
    BoundedSystem,
    IndexFamily,
    MomentTable,
    Subset,
    combination_integral,
    compute_moment_table,
    dilate_system,
    enumerate_family,
    lattice_sums,
    mask_of,
)
from .stepfn import (
    REL_TOL,
    ConvexSpec,
    Rational,
    StepFunction,
    _guard_pieces,
    as_fraction,
    int_grid_row,
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
    rows = _walsh_signs(nu)
    grid, den = uniform_grid(len(rows[0]), length)
    return [StepFunction._from_ints(grid, den, row, 1) for row in rows]


def _walsh_signs(nu: int) -> list[tuple[int, ...]]:
    """The sign rows of walsh_cancellation_system(nu) on its 2**(nu - 1)
    equal pieces, the piece count checked against the cap first.  For
    nu == 1 the one row is (1,)."""
    pieces = 1 << (nu - 1)
    _guard_pieces(pieces)
    rows: list[tuple[int, ...]] = []
    for k in range(1, nu):
        rows.append(tuple(1 if (i >> (nu - 1 - k)) & 1 == 0 else -1 for i in range(pieces)))
    last = (1,) * pieces
    for row in rows:
        last = tuple(map(operator.mul, last, row))
    rows.append(last)
    return rows


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
    """extend_system given the moment table of sys over the family.

    Every extended function is written as ints in one pass over the
    blocks, on one denominator that splits each block into its pieces:
    the block of subset s has 2**(|s| - 1) equal pieces on which member
    j of s takes C_k times the j-th sign row of walsh_cancellation_system
    (the first member's row times -sign, so the block product integrates
    to minus the moment), and every function outside s is 0 on one piece.
    A block's piece count is checked against the cap before it is
    written, then each function's total.
    """
    T = sys.domain_length
    caps = sys.capacities()
    blocks = [
        (s, T * d, m > 0)
        for s, m, d in zip(table.subsets, table.moments, table.normalized)
        if m != 0
    ]
    if not blocks:
        return sys
    fs = sys.functions
    den = math.lcm(
        *{f._den for f in fs}, *{L.denominator << (len(s) - 1) for s, L, _ in blocks}
    )
    qs = [math.lcm(f._q, c.denominator) for f, c in zip(fs, caps)]
    grids: list[list[int]] = []
    rows: list[list[int]] = []
    for f, q in zip(fs, qs):
        g, r = den // f._den, q // f._q
        grids.append([n * g for n in f._grid])
        rows.append([v * r for v in f._row])
    # the value C_k as an int over qs[k]
    highs = [c.numerator * (q // c.denominator) for c, q in zip(caps, qs)]
    end = grids[0][-1]
    for s, L, positive in blocks:
        width = L.numerator * (den // L.denominator)
        signs = dict(zip(s, _walsh_signs(len(s))))
        step = width // len(signs[s[0]])
        for k, (grid, row) in enumerate(zip(grids, rows), start=1):
            sign_row = signs.get(k)
            if sign_row is None:
                grid.append(end + width)
                row.append(0)
            else:
                v = -highs[k - 1] if k == s[0] and positive else highs[k - 1]
                grid.extend(range(end + step, end + width + 1, step))
                row.extend([v * sign for sign in sign_row])
        end += width
    for row in rows:
        _guard_pieces(len(row))
    new_functions = tuple(
        StepFunction._from_ints(tuple(grid), den, tuple(row), q)
        for grid, row, q in zip(grids, rows, qs)
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

    Per index the current system is merged once and only row k is spread
    onto the merged pieces; the first index reads the merged grid sys
    keeps, which its histogram reads too.  A piece is classified by its value alone:
    it splits exactly when A_k < v < B_k, and otherwise becomes B_k when
    v > A_k and A_k when not.  The normalized row is written as it goes:
    a piece whose value equals the last one written extends it.  The
    piece cap applies to the unmerged count, two pieces per split
    interval and one per other, as if the row were built first and
    normalized after.
    """
    functions = list(sys.functions)
    for k, (lo, hi) in enumerate(zip(sys.lower_bounds, sys.upper_bounds)):
        if k == 0:
            merged, _, d, rows = sys.grid
            row, q = rows[0]
        else:
            merged, d, row, q = int_grid_row(functions, k)
        # with a / d and b / d the ends of a piece and v == n / q its value,
        # v, A_k and B_k are x, L and H over q * h2 * l2, and
        # c == (W * a + (b - a) * (x - L)) / (W * d) with W == H - L;
        # every output breakpoint is an int over that one denominator
        h1, h2, l1, l2 = hi.numerator, hi.denominator, lo.numerator, lo.denominator
        hl = h2 * l2
        L, H = l1 * h2 * q, h1 * l2 * q
        W = H - L
        vq = math.lcm(h2, l2)
        hi_num, lo_num = h1 * (vq // h2), l1 * (vq // l2)
        grid: list[int] = [0]
        vals: list[int] = []
        last = None
        splits = 0
        for n, a, b in zip(row, merged, merged[1:]):
            x = n * hl
            if L < x < H:
                # B_k on [a, c), then A_k on [c, b)
                splits += 1
                c = W * a + (b - a) * (x - L)
                if last == hi_num:
                    grid[-1] = c
                else:
                    grid.append(c)
                    vals.append(hi_num)
                grid.append(W * b)
                vals.append(lo_num)
                last = lo_num
            else:
                v = hi_num if x > L else lo_num
                if v == last:
                    grid[-1] = W * b
                else:
                    grid.append(W * b)
                    vals.append(v)
                    last = v
        _guard_pieces(len(row) + splits)
        functions[k] = StepFunction._from_ints(tuple(grid), W * d, tuple(vals), vq)
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
    the marginal law is pinned (P{phi_k == A_k} = B_k / (B_k - A_k)).
    With M = T * den the total mass and L_k the mass where phi_k == A_k,
    both ints over the histogram's denominator, these checks and the
    reported marginals L_k / M read the system's histogram.

    The verdict on a subset S is read from moments.  The indicator of
    {phi_k == A_k} is (B_k - phi_k) / (B_k - A_k), affine in phi_k, so
    the joint law over S is a linear image of the moments E[prod_T phi]
    over T within S, and it is the product of the marginals, whose
    moments all vanish with the means, exactly when every such moment
    with |T| >= 2 vanishes.  One lattice fold gives those moments over
    the downward closure of the family, and one OR pass over the closure
    marks each subset containing a nonzero one.  A member S with 2**|S|
    above the histogram's pattern count fails at once, since the product
    law charges all 2**|S| patterns, and its closure is never built.
    Only failing subsets run the joint-pattern comparison that reports
    them (_pattern_failures).
    """
    T = sys.domain_length
    hist = sys.histogram
    mass, den, dens = hist
    M = T.numerator * den // T.denominator  # T ends the merged grid, so T * den is an int
    # function k is low where its int value is lows[k], that is A_k * dens[k]
    lows: list[int] = []
    low_mass: list[int] = []
    for k, (lo, hi, q) in enumerate(zip(sys.lower_bounds, sys.upper_bounds, dens)):
        # the mass of each value of function k, in one walk
        law: dict[int, int] = {}
        for key, w in mass.items():
            law[key[k]] = law.get(key[k], 0) + w
        # A_k and B_k as ints over q; None where q is no multiple of the denominator
        low, high = (
            b.numerator * (q // b.denominator) if q % b.denominator == 0 else None
            for b in (lo, hi)
        )
        if law.keys() != {low, high}:
            values = sorted(Fraction(n, q) for n in law)
            raise NotTwoValued(f"function {k + 1} takes values {values}, not [{lo}, {hi}]")
        lows.append(low)
        L = law[low]
        # the mean times M * A_k.den * B_k.den
        if lo.numerator * hi.denominator * L + hi.numerator * lo.denominator * (M - L):
            message = f"function {k + 1} has mean {(lo * L + hi * (M - L)) / M}"
            if fam.subsets is not None and (k + 1,) not in fam.subsets:
                message += (
                    f"; the family holds no ({k + 1},), and the singletons are what"
                    " cancel the means in the reduction"
                )
            raise NonZeroMean(message)
        low_mass.append(L)
    subsets = enumerate_family(sys.n, fam)
    masks = [mask_of(s) for s in subsets]
    # a full or capped family holds every nonempty submask of its members
    closure: Collection[int] = masks
    if fam.subsets is not None:
        closure = {0}
        for m, s in zip(masks, subsets):
            if 1 << len(s) <= len(mass):
                sub = m
                while sub:  # every nonempty submask of m, in falling order
                    closure.add(sub)
                    sub = (sub - 1) & m
    failing = {m: bool(v) for m, v in lattice_sums(hist, closure).items()}
    # the empty mask sums the total mass; every singleton sum is 0 by the mean check
    failing[0] = False
    for k in range(sys.n):
        bit = 1 << k
        for m in failing:
            if m & bit and failing[m ^ bit]:
                failing[m] = True
    failures: list[dict] = []
    for s, m in zip(subsets, masks):
        if failing.get(m, True):
            failures += _pattern_failures(mass, M, lows, low_mass, s)
    return IndependenceReport(
        independent=not failures,
        subsets_checked=len(subsets),
        failures=tuple(failures),
        marginals=tuple(Fraction(L, M) for L in low_mass),
    )


def _pattern_failures(
    mass: Mapping[tuple[int, ...], int], M: int, lows: Sequence[int], low_mass: Sequence[int],
    s: Subset,
) -> list[dict]:
    """Every pattern over s whose joint mass J is not the product of its
    marginals: J * M**(|s| - 1) against the product over k in s of L_k
    (phi_k low) or M - L_k (phi_k high), all ints."""
    joint: dict[tuple[bool, ...], int] = {}
    for key, w in mass.items():
        pattern = tuple(key[k - 1] == lows[k - 1] for k in s)
        joint[pattern] = joint.get(pattern, 0) + w
    scale = M ** (len(s) - 1)
    failures: list[dict] = []
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
    return failures


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
    table reads its system's histogram, built from the system's merged
    grid, and xi's grid and histogram are the binarized ones rescaled
    (dilate_system), so the reduction builds at most three tables and
    three histograms, two of each when mu == 0.  Each stage's functions
    are merged once: the input, the extended system (whose grid also
    serves binarize's first index), the partly binarized systems of the
    later indices, and the binarized system; xi is never merged.
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

    Each side is one moments.combination_integral: of sys for the lhs,
    of xi for the rhs, and neither builds a linear combination.
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
    T = sys.domain_length
    lhs = combination_integral(sys, cs, phi)
    rhs = combination_integral(trace.xi, cs, phi)
    exact = phi.is_exact
    if exact:
        lhs_val: Fraction | float = lhs / T
        rhs_val: Fraction | float = factor * rhs / T
        holds = lhs_val <= rhs_val
    else:
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
