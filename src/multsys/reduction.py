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
from collections.abc import Collection, Sequence
from fractions import Fraction
from itertools import combinations

from .errors import BadArity, NonZeroMean, NotTwoValued, TraceMismatch, frozen
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
    moment_table,
)
from .stepfn import (
    REL_TOL,
    ConvexSpec,
    Rational,
    StepFunction,
    _guard_pieces,
    _law,
    uniform_grid,
)


# ------------------------------------------------------------------ cancellation blocks

def walsh_cancellation_system(nu: int) -> list[StepFunction]:
    """nu sign functions on [0, 1) whose full product is 1 while every
    proper nonempty subproduct integrates to 0.

    Character construction: the first nu - 1 functions are the dyadic sign
    patterns r_1 .. r_{nu-1} on 2**(nu-1) equal pieces and the last is
    their product, so the system multiplies to r**2 == 1 while any proper
    subproduct is a nontrivial character with zero integral.
    """
    if nu < 2:
        raise BadArity(f"need at least two functions, got {nu}")
    rows = _walsh_signs(nu)
    grid, den = uniform_grid(len(rows[0]))
    return [StepFunction._from_parts(grid, den, row, 1) for row in rows]


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


def flip_cancellation_system(nu: int) -> list[StepFunction]:
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
    grid, den = uniform_grid(len(rows[0]))
    return [StepFunction._from_parts(grid, den, tuple(row), 1) for row in rows]


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

    The extended system's merged grid is written in the same pass, so it
    is never merged: the merged grid of sys on that denominator, then the
    equal steps of each block, with every row on those pieces, handed to
    BoundedSystem._stage.  Its piece count meets the cap in binarize,
    which reads it first.
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
    merged, _, merged_den, merged_rows = sys.grid
    merged = [n * (den // merged_den) for n in merged]
    grids: list[list[int]] = []
    rows: list[list[int]] = []
    spread: list[list[int]] = []  # each row on the merged pieces
    for f, q, (on_merged, _) in zip(fs, qs, merged_rows):
        g, r = den // f._den, q // f._q
        grids.append([n * g for n in f._grid])
        rows.append(list(f._row) if r == 1 else [v * r for v in f._row])
        spread.append(list(on_merged) if r == 1 else [v * r for v in on_merged])
    # the value C_k as an int over qs[k]
    highs = [c.numerator * (q // c.denominator) for c, q in zip(caps, qs)]
    end = grids[0][-1]
    for s, L, positive in blocks:
        width = L.numerator * (den // L.denominator)
        signs = dict(zip(s, _walsh_signs(len(s))))
        pieces = len(signs[s[0]])
        step = width // pieces
        steps = range(end + step, end + width + 1, step)
        merged.extend(steps)
        for k, (grid, row, on_merged) in enumerate(zip(grids, rows, spread), start=1):
            sign_row = signs.get(k)
            if sign_row is None:
                grid.append(end + width)
                row.append(0)
                on_merged.extend([0] * pieces)
            else:
                v = -highs[k - 1] if k == s[0] and positive else highs[k - 1]
                grid.extend(steps)
                values = [v * sign for sign in sign_row]
                row.extend(values)
                on_merged.extend(values)
        end += width
    for row in rows:
        _guard_pieces(len(row))
    new_functions = tuple(
        StepFunction._from_ints(tuple(grid), den, tuple(row), q)
        for grid, row, q in zip(grids, rows, qs)
    )
    # every block value is 0 or +-C_k, inside [A_k, B_k], and every function grows alike
    return BoundedSystem._stage(
        new_functions, sys.lower_bounds, sys.upper_bounds, merged, den, zip(spread, qs)
    )


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

    The constancy intervals at index k are the pieces of the current
    system merged: the breakpoints of functions k..n-1 as given (equal
    neighbours included) and those of the binarized functions 0..k-1,
    which are where their values change.  The loop carries that merged
    grid, every row on its pieces and, per breakpoint, its owner: the
    last function still unbinarized that has it, or "for good" once a
    binarized function changes value there.  Index 0 starts from the grid
    sys keeps, so sys is merged at most once and nothing after it is.  At
    index k a piece is classified by its value alone: it splits exactly
    when A_k < v < B_k, and otherwise becomes B_k when v > A_k and A_k
    when not.  The normalized row is written as it goes (a piece whose
    value equals the last one written extends it), and so is the next
    merged grid: a breakpoint whose last owner is k leaves it unless the
    new value changes there, a split point joins it, and the other rows
    follow by repeating or dropping entries.  The piece cap applies to
    the unmerged count, two pieces per split interval and one per other,
    as if the row were built first and normalized after.  The final
    merged grid seeds the binarized system's.
    """
    n = sys.n
    functions = list(sys.functions)
    merged, _, d, on_merged = sys.grid
    # a grid written by the extension has not met the cap that a merge reads
    if functions and len(merged) > max(len(f._grid) for f in functions):
        _guard_pieces(len(merged) - 1)
    rows: list[Sequence[int]] = [row for row, _ in on_merged]
    # owner[i]: the last function with the left breakpoint of merged piece i
    owner = [0] * (len(merged) - 1)
    at = dict(zip(merged, range(len(merged))))
    for j, f in enumerate(functions):
        if len(f._grid) == len(merged):
            owner = [j] * len(owner)
            continue
        g = d // f._den
        for b in f._grid[1:-1]:
            owner[at[b * g]] = j
    qs: list[int] = []
    for k, (lo, hi) in enumerate(zip(sys.lower_bounds, sys.upper_bounds)):
        row, q = rows[k], on_merged[k][1]
        # with a / d and b / d the ends of a piece and v its value, a row
        # entry over q, v, A_k and B_k are x, L and H over q * h2 * l2, and
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
        # the next merged grid over W * d: its breakpoints, each piece's owner,
        # source piece and value of function k
        next_merged: list[int] = [0]
        next_owner: list[int] = []
        source: list[int] = []
        new_row: list[int] = []
        last = None
        splits = 0
        for i, (x, a, b) in enumerate(zip(row, merged, merged[1:])):
            x *= hl
            v = hi_num if x > L else lo_num
            split = L < x < H
            end = W * a + (b - a) * (x - L) if split else W * b
            if v == last:
                grid[-1] = end
                if owner[i] <= k:  # no function owns the breakpoint any more
                    next_merged[-1] = end
                else:
                    next_merged.append(end)
                    next_owner.append(owner[i])
                    source.append(i)
                    new_row.append(v)
            else:
                grid.append(end)
                vals.append(v)
                next_merged.append(end)
                next_owner.append(n)
                source.append(i)
                new_row.append(v)
            if split:
                # B_k on [a, c), then A_k on [c, b)
                splits += 1
                end = W * b
                grid.append(end)
                vals.append(lo_num)
                next_merged.append(end)
                next_owner.append(n)
                source.append(i)
                new_row.append(lo_num)
                v = lo_num
            last = v
        _guard_pieces(len(row) + splits)
        # valid by construction: every split point lies inside its piece
        functions[k] = StepFunction._from_ints(tuple(grid), W * d, tuple(vals), vq)
        qs.append(vq)
        if len(source) != len(row) or splits:
            rows = [list(map(r.__getitem__, source)) for r in rows]
        rows[k] = new_row
        merged, d, owner = next_merged, W * d, next_owner
    # every value is A_k or B_k, and every domain stays [0, T)
    return BoundedSystem._stage(
        tuple(functions), sys.lower_bounds, sys.upper_bounds, merged, d, zip(rows, qs)
    )


# ------------------------------------------------------------------ independence

@frozen
class IndependenceReport:
    """Outcome of the exact product-measure check over a family."""

    independent: bool
    subsets_checked: int
    failing: tuple[Subset, ...]  # the family's subsets whose joint law does not factor
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
    with |T| >= 2 vanishes (the Walsh, or Bahadur, expansion).  One
    lattice fold gives those moments over the downward closure of the
    family, and one OR pass over the closure marks each subset containing
    a nonzero one; the marked members, in family order, are the failing
    subsets.  A member S with 2**|S| above the histogram's pattern count
    fails at once, since the product law charges all 2**|S| patterns,
    and its closure is never built.
    """
    T = sys.domain_length
    hist = sys.histogram
    mass, den, dens = hist
    M = T.numerator * den // T.denominator  # T ends the merged grid, so T * den is an int
    low_mass: list[int] = []
    for k, (lo, hi, q) in enumerate(zip(sys.lower_bounds, sys.upper_bounds, dens)):
        # the mass of each value of function k, in one walk
        law = _law(map(operator.itemgetter(k), mass), mass.values())
        # A_k and B_k as ints over q; None where q is no multiple of the denominator
        low, high = (
            b.numerator * (q // b.denominator) if q % b.denominator == 0 else None
            for b in (lo, hi)
        )
        if law.keys() != {low, high}:
            values = sorted(Fraction(n, q) for n in law)
            raise NotTwoValued(f"function {k + 1} takes values {values}, not [{lo}, {hi}]")
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
    marked = {m: bool(v) for m, v in lattice_sums(hist, closure).items()}
    # the empty mask sums the total mass; every singleton sum is 0 by the mean check
    marked[0] = False
    for k in range(sys.n):
        bit = 1 << k
        for m in marked:
            if m & bit and marked[m ^ bit]:
                marked[m] = True
    failing = tuple(s for s, m in zip(subsets, masks) if marked.get(m, True))
    return IndependenceReport(
        independent=not failing,
        subsets_checked=len(subsets),
        failing=failing,
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
    extension, moments kept by binarization), over the one family the
    input table enumerated; a multiplicative input is its own extension,
    so its table is the extended table too.  xi's table is the binarized
    table: dilating back to [0, T) scales every integral and the domain
    length alike, so no expectation moves.  Each table reads its system's
    histogram, built from the system's merged grid, and xi's grid and
    histogram are the binarized ones rescaled (dilate_system), so the
    reduction builds at most three tables and three histograms, two of
    each when mu == 0.  The input is the one system merged: the
    extension writes the extended grid, binarize carries it through its
    indices and writes the binarized grid, and xi's is the binarized one.
    """
    input_table = compute_moment_table(sys, fam)
    subsets = input_table.subsets
    mu = input_table.mu()
    extended = _extend(sys, input_table)
    binarized = binarize(extended)
    binarized_table = moment_table(binarized, subsets)
    tables = {
        "input": input_table,
        "extended": input_table if extended is sys else moment_table(extended, subsets),
        "binarized": binarized_table,
        "xi": binarized_table,
    }
    return ReductionTrace(
        mu=mu,
        family=subsets,
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
    cs = sys.coefficients(coeffs)
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
