"""The value-pattern moment engine against the loops it replaced.

The reference functions below are the original loops: one Fraction product
per refined piece and subset, a joint law accumulated piece by piece, and
the int loop per subset and value pattern that the subset-lattice fold
(moments.lattice_sums) replaced.  Every comparison is exact equality, at
every stage of the reduction.
"""

import random
from fractions import Fraction as F
from itertools import combinations, product as iter_product

import pytest
from hypothesis import assume, given, settings, strategies as st

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    build_phi,
    check_independence,
    common_refinement,
    compute_moment_table,
    concat_many,
    constant,
    convex_expectation,
    dilated_system,
    enumerate_family,
    linear_combination,
    make_step,
    mixed_moment,
    reduce_to_independent,
    selected_family_mu,
    verify_domination,
    walsh_cancellation_system,
    walsh_system,
)
from multsys import moments, reduction, stepfn
from multsys.errors import CapacityExceeded, MultsysError, NonZeroMean, NotTwoValued
from multsys.moments import family_sums, lattice_sums, mask_of
from multsys.reduction import IndependenceReport
from multsys.stepfn import StepFunction, dilate, int_grid, product, rademacher, scale
from multsys.subseq import OrthogonalSystem

FULL = IndexFamily.full()
STAGES = ("input", "extended", "binarized", "xi")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# every stage built with no re-validation is rebuilt through the validating constructor
pytestmark = pytest.mark.usefixtures("validated_stages")


# ------------------------------------------------------------------ reference loops

def reference_subset_sum(hist, subset):
    """The int loop the fold replaced: sum over value patterns of
    mass * prod_{k in subset} key[k - 1]."""
    mass, _, _ = hist
    total = 0
    for key, length in mass.items():
        for k in subset:
            length *= key[k - 1]
        total += length
    return total


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
    subsets = enumerate_family(sys_obj.n, fam)
    failing = []
    for s in subsets:
        joint = {}
        for i, ln in enumerate(lengths):
            pattern = tuple(is_low[k - 1][i] for k in s)
            joint[pattern] = joint.get(pattern, F(0)) + ln
        for pattern in iter_product((True, False), repeat=len(s)):
            expected = F(1)
            for flag, k in zip(pattern, s):
                expected *= marginals[k - 1] if flag else 1 - marginals[k - 1]
            if joint.get(pattern, F(0)) / T != expected:
                failing.append(s)
                break
    return IndependenceReport(
        independent=not failing,
        subsets_checked=len(subsets),
        failing=tuple(failing),
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


@st.composite
def families(draw, n):
    """The full family, a cardinality cap, or an explicit list that always
    holds the largest subset."""
    kind = draw(st.sampled_from(["full", "cap", "explicit"]))
    if kind == "full":
        return FULL
    if kind == "cap":
        return IndexFamily.cardinality_cap(draw(st.integers(1, n)))
    every = [s for v in range(1, n + 1) for s in combinations(range(1, n + 1), v)]
    picked = draw(st.lists(st.sampled_from(every), max_size=6, unique=True))
    top = tuple(range(1, n + 1))
    return IndexFamily.explicit([*(s for s in picked if s != top), top])


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
@given(two_valued_systems(), st.data())
def test_independence_check_matches_the_piece_loop(sys_obj, data):
    fam = data.draw(families(sys_obj.n))
    assert outcome(check_independence, sys_obj, fam) == outcome(
        reference_independence, sys_obj, fam
    )


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


# ------------------------------------------------------------------ the lattice fold

@st.composite
def asymmetric_systems(draw):
    """Up to five functions on a 1/12 grid of [0, T), T in DOMAIN_LENGTHS,
    with values thirds in [-4, 4]: no symmetry between the functions, their
    values or their signs for a reversed mask bit to hide behind."""
    length = draw(st.sampled_from(DOMAIN_LENGTHS))
    functions, los, his = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        cuts = draw(st.lists(st.integers(1, 11), max_size=4, unique=True))
        bps = [F(0), *[length * F(c, 12) for c in sorted(cuts)], length]
        vals = draw(
            st.lists(st.integers(-12, 12), min_size=len(bps) - 1, max_size=len(bps) - 1)
        )
        vals = [F(v, 3) for v in vals]
        functions.append(make_step(bps, vals))
        los.append(min(min(vals), F(-1, 3)))
        his.append(max(max(vals), F(1, 3)))
    return BoundedSystem(tuple(functions), tuple(los), tuple(his))


def assert_fold_matches(sys_obj, fam):
    subsets = enumerate_family(sys_obj.n, fam)
    hist = sys_obj.histogram
    assert family_sums(hist, subsets) == [reference_subset_sum(hist, s) for s in subsets]
    table = compute_moment_table(sys_obj, fam)
    assert (table.subsets, table.moments, table.normalized) == reference_moment_table(sys_obj, fam)
    for s, m in zip(table.subsets, table.moments):
        assert mixed_moment(sys_obj, s) == m


@PROPERTY
@given(asymmetric_systems(), st.data())
def test_the_fold_matches_the_subset_loop_and_the_piece_loop(sys_obj, data):
    assert_fold_matches(sys_obj, data.draw(families(sys_obj.n)))


def test_one_explicit_member_above_the_pattern_count_is_summed_exactly():
    # five functions on three shared pieces of [0, 5/2): three value patterns
    grid = (F(0), F(1, 2), F(3, 2), F(5, 2))
    rows = ([3, -1, F(1, 2)], [-4, 2, 1], [F(2, 3), 0, -2], [1, 1, -3], [F(-5, 2), 4, 1])
    sys_obj = BoundedSystem(
        tuple(make_step(grid, row) for row in rows), (F(-5),) * 5, (F(5),) * 5
    )
    assert 1 << 5 > len(sys_obj.histogram[0]) == 3
    for fam in (
        IndexFamily.explicit([[1, 2, 3, 4, 5]]),
        IndexFamily.explicit([[2, 5], [1, 2, 3, 4, 5], [1, 3, 4]]),
        IndexFamily.cardinality_cap(4),
        FULL,
    ):
        assert_fold_matches(sys_obj, fam)


def test_the_fold_sums_the_members_it_is_given_in_any_collection():
    """lattice_sums has one mode: the caller names the masks, as a list, a
    set or a range, and gets each one's sum, with the empty mask's total
    mass beside them.  Members naming every mask are the full family,
    recognised from the masks alone."""
    rng = random.Random(606)
    n, length = 6, F(5, 2)
    functions = []
    for _ in range(n):
        cuts = sorted(rng.sample(range(1, 12), 3))
        bps = [F(0), *(length * F(c, 12) for c in cuts), length]
        functions.append(make_step(bps, [F(rng.randint(-12, 12), 3) for _ in range(4)]))
    hist = BoundedSystem(tuple(functions), (F(-4),) * n, (F(4),) * n).histogram
    subset_of = {mask_of(s): s for s in enumerate_family(n, FULL)}

    def assert_sums(sums, masks):
        assert sums.keys() == {0, *masks}
        assert sums[0] == sum(hist[0].values())
        assert all(sums[m] == reference_subset_sum(hist, subset_of[m]) for m in masks if m)

    for cap in range(1, n + 1):
        masks = [mask_of(s) for s in enumerate_family(n, IndexFamily.cardinality_cap(cap))]
        for members in (masks, masks[::-1], set(masks)):
            assert_sums(lattice_sums(hist, members), masks)
    # every subset of functions 1..3, and the full family in every form
    assert_sums(lattice_sums(hist, range(1, 8)), range(1, 8))
    every = lattice_sums(hist, range(1 << n))
    assert_sums(every, range(1 << n))
    for members in (range(1, 1 << n), range(1 << n), set(subset_of), list(subset_of)):
        assert lattice_sums(hist, members) == every


def test_a_mask_sets_bit_k_minus_1_for_function_k():
    # a reversed bit order passes every symmetric system: pin it on a lopsided one
    assert [mask_of(s) for s in [(1,), (2,), (1, 3), (2, 3, 5)]] == [1, 2, 5, 22]
    f1 = make_step([0, F(1, 2), 1], [2, 0])
    f2 = make_step([0, F(1, 4), 1], [3, 1])
    hist = BoundedSystem((f1, f2), (F(-1), F(-1)), (F(3), F(3))).histogram
    sums = lattice_sums(hist, range(1 << 2))
    den = hist[1]
    assert F(sums[0], den) == 1
    assert F(sums[1], den * hist[2][0]) == 1  # E[f1]
    assert F(sums[2], den * hist[2][1]) == F(3, 2)  # E[f2]
    assert F(sums[3], den * hist[2][0] * hist[2][1]) == F(2)  # E[f1 f2]


def test_every_vanishing_entry_of_a_table_is_one_shared_zero():
    sys_obj = BoundedSystem(
        (rademacher(1), rademacher(2), product([rademacher(1), rademacher(2)])),
        (F(-1),) * 3, (F(1),) * 3,
    )
    table = compute_moment_table(sys_obj, FULL)
    assert table.moment((1, 2, 3)) == 1
    zeros = [m for m in table.moments + table.normalized if m == 0]
    assert len(zeros) == 12 and all(z is moments.ZERO for z in zeros)


# ------------------------------------------------------------------ the verdict from moments

def dependent_system():
    """{r1, r2, r1 r2, r3, r1 r2 r3}: pairwise independent, with dependent triples."""
    r1, r2, r3 = rademacher(1), rademacher(2), rademacher(3)
    functions = (r1, r2, product([r1, r2]), r3, product([r1, r2, r3]))
    return BoundedSystem(functions, (F(-1),) * 5, (F(1),) * 5)


@pytest.mark.parametrize(
    "fam, failing",
    [
        (FULL, [(1, 2, 3), (3, 4, 5), (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5),
                (2, 3, 4, 5), (1, 2, 3, 4, 5)]),
        (IndexFamily.cardinality_cap(2), []),
        (IndexFamily.cardinality_cap(3), [(1, 2, 3), (3, 4, 5)]),
        (IndexFamily.explicit([[1, 2, 3], [4, 5], [1, 2, 3, 4, 5]]), [(1, 2, 3), (1, 2, 3, 4, 5)]),
    ],
    ids=["full", "l=2", "l=3", "explicit"],
)
def test_the_dependent_system_fails_on_the_pinned_subsets(fam, failing):
    report = check_independence(dependent_system(), fam)
    assert report == reference_independence(dependent_system(), fam)
    assert report.failing == tuple(failing)
    assert report.independent == (not failing)


def test_the_verdict_matches_the_joint_pattern_reference_on_reduced_systems():
    """xi reduced over a family is independent over it; checked over a
    larger family it mostly is not, which exercises the failure path."""
    rng = random.Random(4242)
    checked = failed = 0
    for _ in range(10):
        for sys_obj in (
            random_bounded_system(rng, max_n=4, max_pieces=6),
            random_generator_system(rng, max_n=5),
        ):
            for reduce_fam in (FULL, IndexFamily.cardinality_cap(min(2, sys_obj.n))):
                xi = reduce_to_independent(sys_obj, reduce_fam).xi
                for fam in (FULL, IndexFamily.cardinality_cap(min(2, xi.n))):
                    report = check_independence(xi, fam)
                    assert report == outcome(reference_independence, xi, fam)
                    checked += 1
                    failed += not report.independent
    assert checked == 80 and failed > 0


def test_a_family_with_no_singleton_names_it_when_a_mean_survives():
    sys_obj = BoundedSystem((make_step([0, F(1, 3), 1], [1, -1]),), (F(-1),), (F(1),))
    with pytest.raises(NonZeroMean, match=r"^function 1 has mean -1/3$"):
        check_independence(sys_obj, FULL)
    message = (
        r"^function 1 has mean -1/3; the family holds no \(1,\), and the singletons are"
        r" what cancel the means in the reduction$"
    )
    two = BoundedSystem(sys_obj.functions * 2, (F(-1),) * 2, (F(1),) * 2)
    with pytest.raises(NonZeroMean, match=message):
        check_independence(two, IndexFamily.explicit([[1, 2]]))


# ------------------------------------------------------------------ the work, counted

def counting(monkeypatch, module, name):
    """Count the calls of module.name made through the module's namespace."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class CountingMapping(dict):
    """A histogram mass mapping that counts how often its patterns are walked."""

    walks = 0

    def items(self):
        CountingMapping.walks += 1
        return super().items()

    def __iter__(self):
        CountingMapping.walks += 1
        return super().__iter__()


def counted_histogram(sys_obj):
    """Swap the system's histogram mass for a CountingMapping."""
    mass, den, dens = sys_obj.histogram
    vars(sys_obj)["histogram"] = (CountingMapping(mass), den, dens)
    CountingMapping.walks = 0


@pytest.mark.parametrize("n", [3, 6, 9])
def test_a_moment_table_walks_the_histogram_once_whatever_the_family(n):
    sys_obj = BoundedSystem(
        tuple(rademacher(k) for k in range(1, n + 1)), (F(-1),) * n, (F(1),) * n
    )
    counted_histogram(sys_obj)
    for fam in (FULL, IndexFamily.cardinality_cap(2), IndexFamily.explicit([[1, n]])):
        CountingMapping.walks = 0
        table = compute_moment_table(sys_obj, fam)
        assert table.mu() == 0
        assert CountingMapping.walks == 1


def test_is_multiplicative_builds_no_table(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a moment table was built")

    monkeypatch.setattr(moments, "MomentTable", refused)
    monkeypatch.setattr(moments, "compute_moment_table", refused)
    assert moments.is_multiplicative(dependent_system(), IndexFamily.cardinality_cap(2))
    assert not moments.is_multiplicative(dependent_system(), FULL)


@pytest.mark.parametrize(
    "fam",
    [FULL, IndexFamily.cardinality_cap(3), IndexFamily.explicit([[1, 2, 3], [4, 5]])],
    ids=["full", "l=3", "explicit"],
)
def test_a_failing_check_folds_once_and_walks_no_pattern_per_subset(monkeypatch, fam):
    """One walk per function for its law, one by the fold, and no more
    however many subsets fail."""
    sys_obj = dependent_system()
    counted_histogram(sys_obj)
    folds = counting(monkeypatch, reduction, "lattice_sums")
    report = check_independence(sys_obj, fam)
    assert report.failing and len(folds) == 1
    assert CountingMapping.walks == sys_obj.n + 1


def test_a_full_family_check_at_n_11_runs_no_joint_pattern_loop(monkeypatch):
    n = 11
    sys_obj = BoundedSystem(
        tuple(rademacher(k) for k in range(1, n + 1)), (F(-1),) * n, (F(1),) * n
    )
    counted_histogram(sys_obj)
    folds = counting(monkeypatch, reduction, "lattice_sums")
    report = check_independence(sys_obj, FULL)
    assert report.independent and report.subsets_checked == (1 << n) - 1
    assert report.failing == () and len(folds) == 1
    assert CountingMapping.walks == n + 1


def test_a_member_above_the_pattern_count_fails_without_its_closure(monkeypatch):
    sys_obj = dependent_system()
    assert len(sys_obj.histogram[0]) == 8 < 1 << 5
    folds = counting(monkeypatch, reduction, "lattice_sums")
    report = check_independence(sys_obj, IndexFamily.explicit([[4, 5], [1, 2, 3, 4, 5]]))
    assert report.failing == ((1, 2, 3, 4, 5),)
    (args,) = folds
    assert sorted(args[1]) == [0, 8, 16, 24]  # the closure of (4, 5) alone


# ------------------------------------------------------------------ stage kernels

def reference_extend(sys_obj, table):
    """The extension built from step functions, as it was before it was
    written in ints: a constant or scaled cancellation members per block,
    a zero constant for every function outside the block, then one
    concatenation per function."""
    T = sys_obj.domain_length
    caps = sys_obj.capacities()
    blocks = [(s, T * d, F(1 if m > 0 else -1))
              for s, m, d in zip(table.subsets, table.moments, table.normalized) if m != 0]
    if not blocks:
        return sys_obj
    extensions = [[] for _ in range(sys_obj.n)]
    for s, block_len, sign in blocks:
        if len(s) == 1:
            members = [constant(-sign * caps[s[0] - 1], block_len)]
        else:
            base = [dilate(g, 1 / block_len) for g in walsh_cancellation_system(len(s))]
            members = [scale(g, caps[idx - 1] if j > 0 else -sign * caps[idx - 1])
                       for j, (g, idx) in enumerate(zip(base, s))]
        member_of = dict(zip(s, members))
        for k in range(1, sys_obj.n + 1):
            extensions[k - 1].append(member_of.get(k, constant(0, block_len)))
    return BoundedSystem(
        tuple(concat_many([f, *ext]) for f, ext in zip(sys_obj.functions, extensions)),
        sys_obj.lower_bounds, sys_obj.upper_bounds,
    )


@st.composite
def reduction_families(draw, n):
    """The full family, l = 2 (l = 1 for one function), or an explicit list."""
    kind = draw(st.sampled_from(["full", "l=2", "explicit"]))
    if kind == "full":
        return FULL
    if kind == "l=2":
        return IndexFamily.cardinality_cap(min(2, n))
    every = [s for v in range(1, n + 1) for s in combinations(range(1, n + 1), v)]
    return IndexFamily.explicit(draw(st.lists(st.sampled_from(every), min_size=1, unique=True)))


def extension_outcome(extend, sys_obj, table):
    """The extended functions as (function, JSON) pairs, or the capacity error."""
    try:
        return [(f, f.to_json()) for f in extend(sys_obj, table).functions]
    except CapacityExceeded as exc:
        return str(exc)


def extension_sizes(sys_obj, table):
    """The piece counts of the extension, read off the table alone: each
    block's (2**(|s| - 1) equal pieces), each extended function's (its own
    pieces, then its block or one zero piece per block) and the extended
    merged grid's (the input's merged pieces, then every block's)."""
    nonzero = [s for s, m in zip(table.subsets, table.moments) if m]
    blocks = [1 << (len(s) - 1) for s in nonzero]
    functions = [
        f.piece_count + sum(b if k in s else 1 for s, b in zip(nonzero, blocks))
        for k, f in enumerate(sys_obj.functions, start=1)
    ]
    return blocks, functions, len(int_grid(sys_obj.functions)[1]) + sum(blocks)


def extension_refusal(pieces, cap):
    return f"the extension needs {pieces} merged pieces, beyond the cap of {cap}"


def assert_extension_matches(sys_obj, fam, monkeypatch, cap=None):
    """The int extension against the oracle under cap: a refusal exactly
    when the merged count read off the table exceeds the cap, that count
    the merged pieces of the oracle's extension with the cap lifted, and
    otherwise the oracle's functions at zero tolerance, JSON and all."""
    table = compute_moment_table(sys_obj, fam)
    oracle = reference_extend(sys_obj, table)
    blocks, _, pieces = extension_sizes(sys_obj, table)
    if blocks:
        assert pieces == len(oracle.grid[1])
    if cap is not None:
        monkeypatch.setattr(stepfn, "PIECE_CAP", cap)
    got = extension_outcome(reduction._extend, sys_obj, table)
    if blocks and pieces > stepfn.PIECE_CAP:
        assert got == extension_refusal(pieces, stepfn.PIECE_CAP)
    else:
        assert got == extension_outcome(reference_extend, sys_obj, table)
    monkeypatch.undo()
    return table, got


@PROPERTY
@given(step_systems(), st.data())
def test_the_int_extension_builds_the_step_function_extension(sys_obj, data):
    fam = data.draw(reduction_families(sys_obj.n))
    with pytest.MonkeyPatch.context() as patch:
        assert_extension_matches(sys_obj, fam, patch)
        assert_extension_matches(sys_obj, fam, patch, cap=data.draw(st.integers(1, 40)))


def test_the_int_extension_matches_on_blocks_of_one_to_four_functions(monkeypatch):
    # four functions on [0, 5/2) with every moment of the full family
    # nonzero: blocks of |s| = 1..4, 37 pieces per extended function
    grid = (F(0), F(1, 2), F(3, 2), F(5, 2))
    rows = ([3, -1, F(1, 2)], [-4, 2, 1], [F(2, 3), 1, -2], [1, 2, -3])
    sys_obj = BoundedSystem(tuple(make_step(grid, row) for row in rows), (F(-5),) * 4, (F(5),) * 4)
    table, got = assert_extension_matches(sys_obj, FULL, monkeypatch)
    assert {len(s) for s, m in zip(table.subsets, table.moments) if m} == {1, 2, 3, 4}
    assert [f.piece_count for f, _ in got] == [37] * 4
    # the merged grid: the input's 3 pieces, then 4 * 1 + 6 * 2 + 4 * 4 + 8 block pieces,
    # refused below 43 whatever the 4-block's 8 pieces and each function's 37
    for cap in (7, 8, 20, 36, 37, 42, 43):
        assert_extension_matches(sys_obj, FULL, monkeypatch, cap=cap)
    monkeypatch.setattr(stepfn, "PIECE_CAP", 7)
    with pytest.raises(CapacityExceeded, match=f"^{extension_refusal(43, 7)}$"):
        reduction._extend(sys_obj, table)


@PROPERTY
@given(step_systems(), st.data())
def test_the_reduction_refuses_at_the_extension_what_it_refused_before(sys_obj, data):
    """Under a cap fixed before the input is built, the reduction refuses
    at the extension exactly when a block, an extended function or the
    extended merged grid, each counted from the table, exceeds the cap: the
    checks that once ran on the written rows and on binarize's entry.  A
    larger input is refused when it is built or merged; a later refusal is
    binarize's, by the per-index count it always made."""
    fam = data.draw(reduction_families(sys_obj.n))
    cap = data.draw(st.integers(1, 40))
    table = compute_moment_table(sys_obj, fam)
    blocks, functions, pieces = extension_sizes(sys_obj, table)
    inputs = [f.piece_count for f in sys_obj.functions]
    merged = len(sys_obj.grid[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepfn, "PIECE_CAP", cap)
        try:
            fresh = [StepFunction(f.breakpoints, f.values) for f in sys_obj.functions]
            lo, hi = sys_obj.lower_bounds, sys_obj.upper_bounds
            reduce_to_independent(BoundedSystem(tuple(fresh), lo, hi), fam)
            refusal = None
        except CapacityExceeded as exc:
            refusal = str(exc)
    if max(inputs) > cap:
        assert refusal == f"{next(c for c in inputs if c > cap)} pieces exceed the cap of {cap}"
    elif merged > cap:
        assert refusal == f"{merged} pieces exceed the cap of {cap}"
    elif blocks and max(*blocks, *functions, pieces) > cap:
        assert refusal == extension_refusal(pieces, cap)
    elif refusal is not None:
        count = int(refusal.split()[0])
        assert count > cap and refusal == f"{count} pieces exceed the cap of {cap}"


FLOAT_SPECS = (ConvexSpec.exp(1.0), ConvexSpec.exp(2.5), ConvexSpec.power(2.5))


@PROPERTY
@given(step_systems(), st.sampled_from(FLOAT_SPECS), st.data())
def test_float_sides_read_off_merged_grids_match_the_combination_path(sys_obj, phi, data):
    """verify_domination's float sides read the merged grids of sys and xi;
    the bits must be those of convex_expectation of the linear combination."""
    fam = data.draw(reduction_families(sys_obj.n))
    trace = reduce_to_independent(sys_obj, fam)
    coeffs = data.draw(st.lists(st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
                                min_size=sys_obj.n, max_size=sys_obj.n))
    report = verify_domination(sys_obj, fam, coeffs, phi, trace=trace)
    T = float(sys_obj.domain_length)
    lhs = convex_expectation(linear_combination(coeffs, sys_obj.functions), phi)
    rhs = convex_expectation(linear_combination(coeffs, trace.xi.functions), phi)
    assert not report.exact
    assert report.lhs == float(lhs) / T
    assert report.rhs == float(1 + trace.mu) * float(rhs) / T


@PROPERTY
@given(step_systems(), st.data())
def test_the_one_reader_of_a_sum_matches_the_difference_array_at_zero_tolerance(sys_obj, data):
    """combination_law and combination_integral read a system that holds its
    merged grid off its histogram, and any other off one linear combination:
    before and after the histogram is built they must give the Fraction law
    of linear_combination, convex_expectation of it for an exact Phi, and
    its bits for exp."""
    coeffs = data.draw(st.lists(st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
                                min_size=sys_obj.n, max_size=sys_obj.n))
    combined = linear_combination(coeffs, sys_obj.functions)
    oracle = {}
    for v, length in zip(combined.values, combined.piece_lengths()):
        oracle[v] = oracle.get(v, F(0)) + length
    fresh = BoundedSystem(sys_obj.functions, sys_obj.lower_bounds, sys_obj.upper_bounds)
    assert "grid" not in vars(fresh)
    readings = []
    for _ in range(2):
        law, q, den = moments.combination_law(fresh, coeffs)
        law = {F(v, q): F(w, den) for v, w in law.items()}
        assert law == oracle
        exact = [moments.combination_integral(fresh, coeffs, phi) for phi in EXACT_SPECS]
        assert exact == [convex_expectation(combined, phi) for phi in EXACT_SPECS]
        exp = moments.combination_integral(fresh, coeffs, ConvexSpec.exp(1.0))
        assert exp.hex() == convex_expectation(combined, ConvexSpec.exp(1.0)).hex()
        readings.append((law, exact, exp.hex()))
        assert fresh.histogram and "grid" in vars(fresh)  # the second pass reads them
    assert readings[0] == readings[1]


@PROPERTY
@given(step_systems(), st.data())
def test_the_seeded_grid_of_xi_is_its_merged_grid(sys_obj, data):
    trace = reduce_to_independent(sys_obj, data.draw(reduction_families(sys_obj.n)))
    xi = trace.xi
    assert "grid" in vars(xi) and "histogram" in vars(xi)  # seeded by the dilation, no merge
    assert xi.grid == int_grid(xi.functions)
    assert xi.histogram == moments.pattern_measure(xi.grid)


def fraction_law(sys_obj):
    """The joint law piece by piece in Fractions: each value tuple of the
    refined functions mapped to the length it covers."""
    refined = common_refinement(sys_obj.functions)
    law = {}
    for i, length in enumerate(refined[0].piece_lengths()):
        key = tuple(f.values[i] for f in refined)
        law[key] = law.get(key, F(0)) + length
    return law


def pushed_forward(sys_obj):
    """The law of sys_obj pushed through one two-point kernel per coordinate,
    the binarization of laws: a pattern of mass m with value v at k gives
    m (v - A_k) / (B_k - A_k) to B_k and the rest to A_k."""
    law = fraction_law(sys_obj)
    for k, (lo, hi) in enumerate(zip(sys_obj.lower_bounds, sys_obj.upper_bounds)):
        pushed = {}
        for key, m in law.items():
            up = m * (key[k] - lo) / (hi - lo)
            for value, share in ((hi, up), (lo, m - up)):
                if share:
                    moved = key[:k] + (value,) + key[k + 1:]
                    pushed[moved] = pushed.get(moved, F(0)) + share
        law = pushed
    return law


@PROPERTY
@given(step_systems(), st.data())
def test_the_seeded_stage_grids_are_their_merged_grids(sys_obj, data):
    """The extension and binarize write their stage's merged grid, and the
    dilation builds xi's functions, with no merge and no re-validation:
    each must be what a fresh build gives, int for int."""
    trace = reduce_to_independent(sys_obj, data.draw(reduction_families(sys_obj.n)))
    for stage in (trace.extended, trace.binarized):
        assert "grid" in vars(stage)
        assert stage.grid == int_grid(stage.functions)
    assert trace.xi.functions == tuple(
        dilate(f, 1 + trace.mu) for f in trace.binarized.functions
    )
    assert fraction_law(trace.binarized) == pushed_forward(trace.extended)


@pytest.mark.parametrize("n", [2, 5])
def test_the_independence_check_walks_the_histogram_once_per_function(n):
    sys_obj = BoundedSystem(
        tuple(rademacher(k) for k in range(1, n + 1)), (F(-1),) * n, (F(1),) * n
    )
    mass, den, dens = sys_obj.histogram
    vars(sys_obj)["histogram"] = (CountingMapping(mass), den, dens)
    CountingMapping.walks = 0
    assert check_independence(sys_obj, FULL).independent
    assert CountingMapping.walks == n + 1  # one per function, one for the fold
