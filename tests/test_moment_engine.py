"""The value-pattern moment engine against the piece-by-piece loops it replaced.

The reference functions below are the original Fraction loops: one product
per refined piece and subset, and a joint law accumulated piece by piece.
Every comparison is exact equality, at every stage of the reduction.
"""

import random
from fractions import Fraction as F
from itertools import combinations, product as iter_product

from hypothesis import assume, given, settings, strategies as st

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    build_phi,
    check_independence,
    common_refinement,
    compute_moment_table,
    convex_expectation,
    dilated_system,
    enumerate_family,
    linear_combination,
    make_step,
    mixed_moment,
    reduce_to_independent,
    selected_family_mu,
    verify_domination,
    walsh_system,
)
from multsys.errors import MultsysError, NonZeroMean, NotTwoValued
from multsys.reduction import IndependenceReport
from multsys.stepfn import StepFunction, dilate, scale
from multsys.subseq import OrthogonalSystem

FULL = IndexFamily.full()
STAGES = ("input", "extended", "binarized", "xi")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ------------------------------------------------------------------ reference loops

def reference_moment_table(sys_obj, fam):
    subsets = enumerate_family(sys_obj.n, fam)
    refined = common_refinement(sys_obj.functions)
    lengths = refined[0].piece_lengths()
    rows = [f.values for f in refined]
    T = sys_obj.domain_length
    caps = sys_obj.capacities()
    moments, normalized = [], []
    for s in subsets:
        total = F(0)
        picked = [rows[i - 1] for i in s]
        for i, ln in enumerate(lengths):
            p = ln
            for row in picked:
                p *= row[i]
            total += p
        m = total / T
        denom = F(1)
        for i in s:
            denom *= caps[i - 1]
        moments.append(m)
        normalized.append(abs(m) / denom)
    return tuple(subsets), tuple(moments), tuple(normalized)


def reference_independence(sys_obj, fam):
    T = sys_obj.domain_length
    refined = common_refinement(sys_obj.functions)
    lengths = refined[0].piece_lengths()
    marginals, is_low = [], []
    for k, f in enumerate(refined, start=1):
        lo = sys_obj.lower_bounds[k - 1]
        hi = sys_obj.upper_bounds[k - 1]
        seen = set(f.values)
        if not seen <= {lo, hi} or len(seen) != 2:
            raise NotTwoValued(f"function {k} takes values {sorted(seen)}, not [{lo}, {hi}]")
        total = sum((ln for v, ln in zip(f.values, lengths) if v == lo), F(0))
        mean = (lo * total + hi * (T - total)) / T
        if mean != 0:
            raise NonZeroMean(f"function {k} has mean {mean}")
        marginals.append(total / T)
        is_low.append([v == lo for v in f.values])
    failures = []
    subsets = enumerate_family(sys_obj.n, fam)
    for s in subsets:
        joint = {}
        for i, ln in enumerate(lengths):
            pattern = tuple(is_low[k - 1][i] for k in s)
            joint[pattern] = joint.get(pattern, F(0)) + ln
        for pattern in iter_product((True, False), repeat=len(s)):
            expected = F(1)
            for flag, k in zip(pattern, s):
                expected *= marginals[k - 1] if flag else 1 - marginals[k - 1]
            got = joint.get(pattern, F(0)) / T
            if got != expected:
                failures.append(
                    {"subset": s, "pattern": pattern, "measure": got, "expected": expected}
                )
    return IndependenceReport(
        independent=not failures,
        subsets_checked=len(subsets),
        failures=tuple(failures),
        marginals=tuple(marginals),
    )


def reference_selected_family_mu(pool, indices):
    funcs = [
        pool.functions[i - 1]
        if pool.sup_bound == 1
        else scale(pool.functions[i - 1], F(1) / pool.sup_bound)
        for i in indices
    ]
    refined = common_refinement(funcs)
    lengths = refined[0].piece_lengths()
    T = refined[0].domain_length
    rows = [f.values for f in refined]
    total = F(0)
    for size in range(2, len(funcs) + 1):
        for sub in combinations(range(len(funcs)), size):
            acc = F(0)
            for i, ln in enumerate(lengths):
                p = ln
                for j in sub:
                    p *= rows[j][i]
                acc += p
            total += abs(acc / T)
    return total


# ------------------------------------------------------------------ helpers

def outcome(check, sys_obj, fam):
    """The report, or the validation error's type and message."""
    try:
        return check(sys_obj, fam)
    except MultsysError as exc:
        return type(exc), str(exc)


def assert_engine_matches(sys_obj, fam, table):
    assert (table.subsets, table.moments, table.normalized) == reference_moment_table(
        sys_obj, fam
    )
    assert outcome(check_independence, sys_obj, fam) == outcome(
        reference_independence, sys_obj, fam
    )


def assert_every_stage_matches(sys_obj, fam):
    trace = reduce_to_independent(sys_obj, fam)
    for stage in STAGES:
        stage_sys = trace.input_system if stage == "input" else getattr(trace, stage)
        assert_engine_matches(stage_sys, fam, trace.moment_tables[stage])
    assert trace.extended.domain_length == sys_obj.domain_length * (1 + trace.mu)
    return trace


def random_bounded_system(rng, max_n, max_pieces):
    """Criterion-2 shape: random steps on a 1/64 grid, bounds straddling zero."""
    functions, los, his = [], [], []
    for _ in range(rng.randint(1, max_n)):
        pieces = rng.randint(1, max_pieces)
        cuts = sorted(rng.sample(range(1, 64), pieces - 1))
        vals = [F(rng.randint(-8, 8), 4) for _ in range(pieces)]
        functions.append(make_step([F(0), *[F(c, 64) for c in cuts], F(1)], vals))
        los.append(min(min(vals), F(-1, 4)))
        his.append(max(max(vals), F(1, 4)))
    return BoundedSystem(tuple(functions), tuple(los), tuple(his))


def random_generator_system(rng, max_n):
    """Criterion-11 shape: dyadic dilates of a reflected seed on [0, 1/4)."""
    pieces = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(1, 16), pieces - 1))
    bps = [F(0), *[F(c, 64) for c in cuts], F(1, 4)]
    vals = [F(rng.randint(-8, 8), 4) for _ in range(pieces)]
    return dilated_system(build_phi(make_step(bps, vals)), rng.randint(1, max_n))


# ------------------------------------------------------------------ differential runs

def test_every_stage_of_criterion_2_systems_matches_the_piece_loops():
    rng = random.Random(2020)
    for _ in range(12):
        assert_every_stage_matches(random_bounded_system(rng, max_n=4, max_pieces=8), FULL)


def test_every_stage_of_criterion_11_systems_matches_the_piece_loops():
    rng = random.Random(1111)
    for _ in range(8):
        trace = assert_every_stage_matches(random_generator_system(rng, max_n=5), FULL)
        assert trace.mu == 0


def test_capped_family_stages_match_the_piece_loops():
    rng = random.Random(7)
    for _ in range(6):
        sys_obj = random_bounded_system(rng, max_n=4, max_pieces=6)
        assert_every_stage_matches(sys_obj, IndexFamily.cardinality_cap(min(2, sys_obj.n)))


def test_selected_family_mu_matches_on_walsh_picks():
    rng = random.Random(1010)
    pool = walsh_system(4)
    # doubled and partly negated, so that some product moments are negative
    signed = OrthogonalSystem(
        functions=tuple(scale(f, 2 if j % 3 else -2) for j, f in enumerate(pool.functions)),
        sup_bound=F(2),
        certified_orthogonal=True,
    )
    # on [0, 5/2), so that every moment divides by a domain length other than 1
    dilated = OrthogonalSystem(
        functions=tuple(dilate(f, F(2, 5)) for f in pool.functions),
        sup_bound=F(1),
        certified_orthogonal=True,
    )
    # values 3 and -1 under the sup bound 3: after scaling the values are 1
    # and -1/3, and the capacities stay those of the bounds [-1, 1]
    lopsided = OrthogonalSystem(
        functions=tuple(
            make_step(f.breakpoints, [3 if v > 0 else -1 for v in f.values])
            for f in pool.functions
        ),
        sup_bound=F(3),
        certified_orthogonal=False,
    )
    for _ in range(20):
        picks = sorted(rng.sample(range(1, pool.n + 1), rng.randint(2, 6)))
        for p in (pool, signed, dilated, lopsided):
            assert selected_family_mu(p, picks) == reference_selected_family_mu(p, picks)


# ------------------------------------------------------------------ properties

DOMAIN_LENGTHS = (F(1), F(3, 7), F(5, 2))


@st.composite
def step_systems(draw):
    """Up to four functions on a 1/16 grid of the domain, quarter-integer values."""
    length = draw(st.sampled_from(DOMAIN_LENGTHS))
    functions, los, his = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        cuts = draw(st.lists(st.integers(1, 15), max_size=5, unique=True))
        bps = [F(0), *[length * F(c, 16) for c in sorted(cuts)], length]
        vals = draw(
            st.lists(st.integers(-6, 6), min_size=len(bps) - 1, max_size=len(bps) - 1)
        )
        vals = [F(v, 4) for v in vals]
        functions.append(make_step(bps, vals))
        los.append(min(min(vals), F(-1, 4)))
        his.append(max(max(vals), F(1, 4)))
    return BoundedSystem(tuple(functions), tuple(los), tuple(his))


@st.composite
def two_valued_systems(draw):
    """Mean-zero {A_k, 1}-valued functions on a shared grid, often dependent."""
    length = draw(st.sampled_from(DOMAIN_LENGTHS))
    pieces = draw(st.sampled_from([2, 3, 4, 6, 8]))
    grid = tuple(length * F(i, pieces) for i in range(pieces + 1))
    functions, los = [], []
    for _ in range(draw(st.integers(1, 4))):
        lows = draw(st.integers(1, pieces - 1))
        lo = F(lows - pieces, lows)  # lo * lows + 1 * (pieces - lows) == 0
        order = draw(st.permutations([lo] * lows + [F(1)] * (pieces - lows)))
        functions.append(StepFunction(grid, tuple(order)))
        los.append(lo)
    return BoundedSystem(tuple(functions), tuple(los), (F(1),) * len(functions))


@PROPERTY
@given(step_systems())
def test_moment_table_matches_the_piece_loop(sys_obj):
    table = compute_moment_table(sys_obj, FULL)
    assert (table.subsets, table.moments, table.normalized) == reference_moment_table(
        sys_obj, FULL
    )
    top = tuple(range(1, sys_obj.n + 1))
    assert mixed_moment(sys_obj, top) == table.moment(top)


@PROPERTY
@given(two_valued_systems(), st.integers(1, 4))
def test_independence_check_matches_the_piece_loop(sys_obj, cap):
    fam = IndexFamily.cardinality_cap(min(cap, sys_obj.n))
    report = check_independence(sys_obj, fam)
    assert report == reference_independence(sys_obj, fam)


EXACT_SPECS = (
    ConvexSpec.power(4),
    ConvexSpec.power(3),
    ConvexSpec.hinge_square(F(1, 3)),
    ConvexSpec.abs(),
)


@PROPERTY
@given(step_systems(), st.sampled_from(EXACT_SPECS), st.data())
def test_histograms_handed_on_off_the_unit_domain_match_fresh_builds(sys_obj, phi, data):
    """xi's histogram is the binarized one rescaled by 1 + mu == p / r, and
    exact domination reads histograms: on domains other than [0, 1) and
    with mu != 0, both must give what the piece path and a fresh build give."""
    trace = reduce_to_independent(sys_obj, FULL)
    assume(trace.mu != 0)
    coeffs = data.draw(st.lists(st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
                                min_size=sys_obj.n, max_size=sys_obj.n))
    report = verify_domination(sys_obj, FULL, coeffs, phi, trace=trace)
    T = sys_obj.domain_length
    assert report.exact
    assert report.lhs == convex_expectation(linear_combination(coeffs, sys_obj.functions), phi) / T
    assert report.rhs == (1 + trace.mu) * convex_expectation(
        linear_combination(coeffs, trace.xi.functions), phi
    ) / T
    xi = trace.xi
    fresh = BoundedSystem(xi.functions, xi.lower_bounds, xi.upper_bounds)
    # xi's histogram is seeded by the dilation; fresh builds its own on first read
    assert "histogram" in vars(xi) and "histogram" not in vars(fresh)
    assert check_independence(xi, FULL) == check_independence(fresh, FULL)
    assert compute_moment_table(xi, FULL) == compute_moment_table(fresh, FULL)
