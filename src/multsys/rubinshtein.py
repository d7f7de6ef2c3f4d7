"""Reflection generators whose dyadic dilates form a multiplicative system.

Any step function f on [0, 1/4) extends to a generator phi on [0, 1) by

    phi(x) = f(x)           on [0, 1/4)
    phi(x) = f(1/2 - x)     on [1/4, 1/2)
    phi(x) = -f(x - 1/2)    on [1/2, 3/4)
    phi(x) = -f(1 - x)      on [3/4, 1)

so the second half is the negated first half and the function is
antiperiodic: phi(x + 1/2) = -phi(x).  Antiperiodicity is what matters.
For distinct k_1 < ... < k_v, substituting x -> x + 2**(-k_v-1) in the
product integral flips exactly the fastest factor phi(2**k_v x) and fixes
the slower ones, so every mixed moment of the dilates phi(2**k x) equals
its own negative and vanishes.  The dilates therefore form an exactly
multiplicative system, with mu = 0 over every index family.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import OutOfRange, TooLarge, WrongDomain, frozen, report_json
from .moments import BoundedSystem, IndexFamily, MomentTable, symmetric_system
from .stepfn import ConvexSpec, StepFunction, concat_many, dilate, scale, tile, value_range

TYPE_CHECKING = False  # True to a type checker; at run time typing stays unloaded
if TYPE_CHECKING:
    from .inequalities import TailReport
    from .reduction import DominationReport

DILATE_CAP = 12

QUARTER = Fraction(1, 4)


def reflect(f: StepFunction) -> StepFunction:
    """Mirror a step function about the midpoint of its domain.

    The mirror of a right-open piece is left-open; re-encoding it
    right-open moves values at finitely many points only, which no
    integral can see.
    """
    grid = f._grid
    mirrored = tuple(grid[-1] - n for n in reversed(grid))
    return StepFunction._from_ints(mirrored, f._den, f._row[::-1], f._q)


@frozen
class ReflectionGenerator:
    """A seed on [0, 1/4) together with its antiperiodic extension."""

    seed: StepFunction
    phi: StepFunction

    to_json = report_json


def build_phi(seed: StepFunction) -> ReflectionGenerator:
    """Extend a seed on [0, 1/4) to its reflection generator on [0, 1).

    The quarter boundaries 1/4, 1/2, 3/4 always appear as breakpoints,
    even when values happen to agree across them.
    """
    if seed.domain_length != QUARTER:
        raise WrongDomain(
            f"seed must live on [0, 1/4), got domain length {seed.domain_length}"
        )
    mirrored = reflect(seed)
    phi = concat_many([seed, mirrored, scale(seed, -1), scale(mirrored, -1)])
    return ReflectionGenerator(seed=seed, phi=phi)


def sup_abs(f: StepFunction) -> Fraction:
    low, high = value_range(f)
    return max(-low, high)


def dilated_system(gen: ReflectionGenerator, n: int) -> BoundedSystem:
    """The first n dyadic dilates phi(2**k x), k = 0..n-1, on [0, 1).

    Each dilate is compressed by 2**k and tiled back to unit length.
    Bounds are symmetric at the sup of |phi|, or 1 when phi vanishes
    identically so the bound stays two-sided.
    """
    if not 0 <= n <= DILATE_CAP:
        raise TooLarge(f"number of dilates must lie in 0..{DILATE_CAP}, got {n}")
    functions = tuple(
        tile(dilate(gen.phi, 1 << k), 1 << k) for k in range(n)
    )
    bound = sup_abs(gen.phi)
    if bound == 0:
        bound = Fraction(1)
    return symmetric_system(functions, bound)


@frozen
class RubinshteinReport:
    """Bundle of checks for one generator: exact mu, domination, tail."""

    n: int
    mu: Fraction
    multiplicative: bool
    moments: MomentTable
    domination: DominationReport
    tail: TailReport

    to_json = report_json


def verify_rubinshtein(
    seed: StepFunction,
    n: int,
    l: int | None = None,
    coeffs: Sequence[Fraction] | None = None,
    lam: Fraction | int | str = 1,
    phi_spec: ConvexSpec | None = None,
) -> RubinshteinReport:
    """Build the dilate system from a seed and run the full battery.

    Checks that mu vanishes over the requested family, that the convex
    domination inequality holds against the reduced independent system,
    and that the sum obeys the concentration tail at level lam.  One
    reduction serves all three: mu and the moment table are its input
    stage, and verify_domination is handed its trace.
    """
    from .inequalities import hoeffding_tail
    from .reduction import reduce_to_independent, verify_domination

    if n < 1:
        raise OutOfRange(f"need at least one dilate, got {n}")
    gen = build_phi(seed)
    sys = dilated_system(gen, n)
    fam = IndexFamily.full() if l is None else IndexFamily.cardinality_cap(l)
    # a wrong count is refused before any work
    coeffs = [Fraction(1)] * n if coeffs is None else sys.coefficients(coeffs)
    trace = reduce_to_independent(sys, fam)
    spec = phi_spec if phi_spec is not None else ConvexSpec.power(4)
    domination = verify_domination(sys, fam, coeffs, spec, trace=trace)
    tail = hoeffding_tail(sys, lam, fam=fam, mu=trace.mu)
    return RubinshteinReport(
        n=n,
        mu=trace.mu,
        multiplicative=(trace.mu == 0),
        moments=trace.moment_tables["input"],
        domination=domination,
        tail=tail,
    )
