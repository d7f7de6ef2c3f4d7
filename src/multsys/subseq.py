"""Greedy extraction of quasi-multiplicative subsequences from orthogonal systems.

The selection primitive is an averaging argument: given targets f_1..f_m
and pairwise-orthogonal candidates phi_1..phi_n with L2 norms at most 1,
Bessel plus Cauchy-Schwarz guarantee an index l with

    sum_j |E[f_j phi_l]|  <=  sqrt(m * sum_j ||f_j||_2^2 / n).

The greedy driver starts from the first function and, at step m, selects
from the index window [rho**m, rho**(m+1)) against all 2**m - 1 products
of the functions chosen so far.  Summing the achieved step sums gives an
exact certificate for the multiplicative error of the selected family
over subsets of size two and more (each such subset is counted at the
step that chose its largest index).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .errors import (
    BoundViolation,
    CapacityExceeded,
    EmptyCandidates,
    NotOrthogonal,
    OutOfRange,
    TooLarge,
    WindowExhausted,
    frozen,
)
from .moments import BoundedSystem, IndexFamily, compute_moment_table, symmetric_system
from .stepfn import (
    StepFunction,
    _guard_pieces,
    int_grid,
    integral,
    product,
    rademacher,
    scale,
    uniform_grid,
)

PRODUCT_STEP_CAP = 16
WALSH_CAP = 12
# targets per packed int in parseval_select: a fixed group keeps the cost of
# building and reading the ints linear in the targets
SLOTS = 64


@frozen
class OrthogonalSystem:
    """Candidate pool phi_1..phi_n with a shared sup bound.

    certified_orthogonal records whether pairwise orthogonality was
    checked at construction; selection re-checks unless told to trust it.
    """

    functions: tuple[StepFunction, ...]
    sup_bound: Fraction
    certified_orthogonal: bool

    @property
    def n(self) -> int:
        return len(self.functions)


def _unit_sup(sys: OrthogonalSystem, functions: Sequence[StepFunction]) -> list[StepFunction]:
    """The functions divided by the pool's sup bound, untouched when it is 1."""
    return [
        f if sys.sup_bound == 1 else scale(f, Fraction(1, 1) / sys.sup_bound) for f in functions
    ]


def _l2_sq(f: StepFunction) -> Fraction:
    return integral(product([f, f])) / f.domain_length


def check_orthogonality(functions: Sequence[StepFunction], *, _first: int = 1) -> None:
    """Raise NotOrthogonal on the first nonvanishing pairwise expectation,
    naming the functions by their positions counted from _first."""
    if not functions:
        return
    _, len_ints, _, grid_rows = int_grid(functions)
    rows = [row for row, _ in grid_rows]
    for i in range(len(rows)):
        weighted = list(map(operator.mul, len_ints, rows[i]))
        for j in range(i + 1, len(rows)):
            if sum(map(operator.mul, weighted, rows[j])) != 0:
                raise NotOrthogonal(
                    f"functions {i + _first} and {j + _first} are not orthogonal"
                )


def walsh_system(m: int) -> OrthogonalSystem:
    """The 2**m Walsh functions on the dyadic grid of 2**m pieces.

    Function j is the product of the dyadic sign functions picked by the
    bits of j - 1 (function 1 is the constant 1).  The family is
    orthonormal and closed under products, which makes it the standard
    test bed for the greedy selector.
    """
    if not 0 <= m <= WALSH_CAP:
        raise TooLarge(f"walsh order must lie in 0..{WALSH_CAP}, got {m}")
    pieces = 1 << m
    _guard_pieces(pieces)
    grid, den = uniform_grid(pieces)
    # by doubling: of order m, row 2i is row i of order m - 1 twice (bit 0
    # picks no sign function) and row 2i + 1 is that row then its negation
    # (bit 0 picks the one that flips at the middle)
    rows = [(1,)]
    for _ in range(m):
        rows = [r + s for r in rows for s in (r, tuple(map(operator.neg, r)))]
    return OrthogonalSystem(
        functions=tuple(StepFunction._from_parts(grid, den, row, 1) for row in rows),
        sup_bound=Fraction(1),
        certified_orthogonal=True,
    )


# ------------------------------------------------------------------ selection

def parseval_select(
    candidates: Sequence[StepFunction],
    targets: Sequence[StepFunction],
    assume_orthogonal: bool = False,
    *,
    _first: int = 1,
) -> tuple[int, Fraction]:
    """Pick the candidate minimizing sum_j |E[f_j phi_l]|, ties to the
    smallest index.

    Returns (position in the candidate list, achieved sum).  The achieved
    sum always satisfies the averaging bound
    sqrt(m * sum ||f_j||_2^2 / n) when candidates are orthogonal with
    L2 norm at most 1; both preconditions are validated unless
    assume_orthogonal skips the quadratic pairwise check.  Refusals name
    the candidates by their positions counted from _first.

    Every target's dot product with a candidate comes from one pass over
    the pieces: the targets, weighted by the piece lengths, sit in slots
    of one int per piece, each slot wide enough by Cauchy-Schwarz for any
    dot product, so one sum of products holds them all, read back exactly.
    """
    if not candidates:
        raise EmptyCandidates("no candidates to select from")
    if not targets:
        raise OutOfRange("need at least one target")
    if not assume_orthogonal:
        check_orthogonality(candidates, _first=_first)
    grid, len_ints, _, rows = int_grid(list(candidates) + list(targets))
    end = grid[-1]  # T, over the denominator of the lengths
    cand_rows, targ_rows = rows[: len(candidates)], rows[len(candidates):]
    for i, (cv, cd) in enumerate(cand_rows, start=_first):
        # a function bounded by 1 has norm at most 1; any other sums its norm
        if (max(cv) > cd or min(cv) < -cd) and sum(
            map(operator.mul, map(operator.mul, len_ints, cv), cv)
        ) > end * cd * cd:
            raise BoundViolation(f"candidate {i} has L2 norm above 1")
    q = math.lcm(*(td for _, td in targ_rows))
    scaled = [tv if td == q else [v * (q // td) for v in tv] for tv, td in targ_rows]
    weighted = [list(map(operator.mul, len_ints, tv)) for tv in scaled]
    # |sum len c t| <= sqrt(sum len c^2 * sum len t^2), and a candidate over
    # cd that passed has sum len c^2 <= end * cd^2
    top = max(cd for _, cd in cand_rows)
    target_norm = max(sum(map(operator.mul, w, t)) for w, t in zip(weighted, scaled))
    width = math.isqrt(end * top * top * target_norm).bit_length() + 2
    groups = [_pack(weighted[k : k + SLOTS], width) for k in range(0, len(weighted), SLOTS)]
    mask, half = (1 << width) - 1, 1 << (width - 1)
    best_pos, best = 0, None
    for pos, (cv, cd) in enumerate(cand_rows):
        num = 0
        for packed, bias, count in groups:
            total = sum(map(operator.mul, cv, packed)) + bias
            for _ in range(count):
                num += abs((total & mask) - half)
                total >>= width
        # num / (len_den * cd * q) is the sum; compare it across candidates
        if best is None or num * best[1] < best[0] * cd:
            best_pos, best = pos, (num, cd)
    assert best is not None
    return best_pos, Fraction(best[0], best[1] * q * end)


def _pack(rows: Sequence[Sequence[int]], width: int) -> tuple[list[int], int, int]:
    """The rows packed into one int per piece, row j in the slot of bits
    j * width .. (j + 1) * width - 1; the bias that lifts each slot of a sum
    of products with those ints into [0, 2**width), when every slot's value
    is below 2**(width - 1) in size; and the row count."""
    packed = [0] * len(rows[0])
    for row in reversed(rows):
        packed = [(p << width) + v for p, v in zip(packed, row)]
    bias = sum(1 << (width * j + width - 1) for j in range(len(rows)))
    return packed, bias, len(rows)


@frozen
class SelectionCertificate:
    """Greedy run record; all sums are exact rationals.

    chosen_indices are 1-based positions in the source system.  The bound
    entries are the averaging bounds sqrt(m * sum ||f_j||^2 / n) per step
    (stored squared, exactly, next to a float rendering), and mu_total is
    the certified multiplicative error of the chosen family over subsets
    of size >= 2.
    """

    chosen_indices: tuple[int, ...]
    per_step_sum: tuple[Fraction, ...]
    per_step_bound_sq: tuple[Fraction, ...]
    per_step_bound: tuple[float, ...]
    threshold_ok: tuple[bool, ...]
    windows: tuple[tuple[int, int], ...]
    rho: int
    mu_total: Fraction

    def to_json(self) -> dict:
        return {
            "chosen_indices": list(self.chosen_indices),
            "per_step_sum": [str(s) for s in self.per_step_sum],
            "per_step_bound_sq": [str(b) for b in self.per_step_bound_sq],
            "per_step_bound": [{"value": b, "approx": True} for b in self.per_step_bound],
            "threshold_ok": list(self.threshold_ok),
            "windows": [list(w) for w in self.windows],
            "rho": self.rho,
            "mu_total": str(self.mu_total),
        }


def greedy_subsequence(
    sys: OrthogonalSystem, rho: int = 8, steps: int = 3
) -> SelectionCertificate:
    """Select steps + 1 functions whose product moments are certifiably small.

    Step m (1-based) selects from window [rho**m, rho**(m+1)) against the
    2**m - 1 products of the functions already chosen.  rho >= 2 is
    accepted so both window-base readings can be explored; the classical
    per-step guarantee sum < 2**-m relies on generous windows (rho >= 8).
    Functions are pre-scaled by the sup bound so candidates satisfy the
    L2 precondition.
    """
    if rho < 2:
        raise OutOfRange(f"window base must be at least 2, got {rho}")
    if steps < 1:
        raise OutOfRange(f"need at least one step, got {steps}")
    if steps > PRODUCT_STEP_CAP:
        raise CapacityExceeded(f"2**{steps} products per step is beyond the cap")
    if sys.n < 1:
        raise EmptyCandidates("empty system")
    if sys.sup_bound <= 0:
        raise BoundViolation("sup bound must be positive")
    # windows start at rho**m, so the first step whose window is empty refuses the run
    m = next((m for m in range(1, steps + 1) if rho**m > sys.n), None)
    if m is not None:
        raise WindowExhausted(f"step {m} window starts at {rho**m}, past the last index {sys.n}")
    funcs = _unit_sup(sys, sys.functions)
    chosen = [1]
    # the products of every nonempty subset of the chosen functions, and
    # the sum of their squared norms; each pick extends both
    targets = [funcs[0]]
    norm_mass = _l2_sq(funcs[0])
    sums: list[Fraction] = []
    bounds_sq: list[Fraction] = []
    windows: list[tuple[int, int]] = []
    for m in range(1, steps + 1):
        lo = rho**m
        hi = min(rho ** (m + 1), sys.n + 1)
        candidates = funcs[lo - 1 : hi - 1]
        pos, achieved = parseval_select(
            candidates, targets, assume_orthogonal=sys.certified_orthogonal, _first=lo
        )
        bound_sq = Fraction(len(targets)) * norm_mass / len(candidates)
        chosen.append(lo + pos)
        sums.append(achieved)
        bounds_sq.append(bound_sq)
        windows.append((lo, hi))
        if m < steps:
            pick = candidates[pos]
            new = [pick] + [product([t, pick]) for t in targets]
            targets += new
            norm_mass += sum(map(_l2_sq, new), Fraction(0))
    return SelectionCertificate(
        chosen_indices=tuple(chosen),
        per_step_sum=tuple(sums),
        per_step_bound_sq=tuple(bounds_sq),
        per_step_bound=tuple(math.sqrt(float(b)) for b in bounds_sq),
        threshold_ok=tuple(
            s < Fraction(1, 2 ** (m + 1)) for m, s in enumerate(sums)
        ),
        windows=tuple(windows),
        rho=rho,
        mu_total=sum(sums, Fraction(0)),
    )


def selected_family_mu(sys: OrthogonalSystem, indices: Sequence[int]) -> Fraction:
    """Exact mu of the chosen functions over subsets of size >= 2.

    This is the quantity the greedy certificate bounds: singletons are
    excluded because the selection controls product moments, not means.
    Functions are scaled by the sup bound, matching the selection run, so
    every capacity is 1 and each normalized moment is |E[prod]|; a pool
    whose functions exceed its sup bound is refused (ValueOutOfBounds).
    """
    funcs = _unit_sup(sys, [sys.functions[i - 1] for i in indices])
    table = compute_moment_table(symmetric_system(funcs), IndexFamily.full())
    # the family lists the len(funcs) singletons first
    return sum(table.normalized[len(funcs):], Fraction(0))


def merge_selections(
    sys: OrthogonalSystem,
    first: SelectionCertificate,
    second: SelectionCertificate,
) -> dict:
    """Interleave two selection runs over the same system and re-verify.

    The merged family's mu is recomputed directly rather than summed from
    the certificates, since cross products between the two runs are not
    covered by either one.
    """
    indices = tuple(sorted(set(first.chosen_indices) | set(second.chosen_indices)))
    mu = selected_family_mu(sys, indices)
    return {
        "indices": indices,
        "mu": mu,
        "certified_separately": first.mu_total + second.mu_total,
    }


def rademacher_pool(n: int) -> OrthogonalSystem:
    """The first n dyadic sign functions as an orthonormal candidate pool."""
    if not 1 <= n <= 20:
        raise TooLarge(f"pool size must lie in 1..20, got {n}")
    return OrthogonalSystem(
        functions=tuple(rademacher(k) for k in range(1, n + 1)),
        sup_bound=Fraction(1),
        certified_orthogonal=True,
    )


def as_bounded_system(sys: OrthogonalSystem) -> BoundedSystem:
    """View the pool as a bounded system with symmetric bounds."""
    return symmetric_system(sys.functions, sys.sup_bound)
