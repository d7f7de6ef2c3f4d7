"""The integer-grid kernel of multsys.stepfn against the Fraction loops it replaced.

The reference functions below are the original piece-by-piece Fraction
code: refinement by a sorted set of breakpoints and a walk, one Fraction
multiply-add per refined piece for products and linear combinations,
Fraction subtractions for piece lengths, the denominator-clearing row
scaling selection used for its dot products, and the Fraction loops that
dilated, scaled, concatenated, normalized and binarized before step
functions stored ints.  Every comparison is exact equality, floats
included: the float path sums in the same order.
"""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    StepFunction,
    binarize,
    common_refinement,
    concat_many,
    constant,
    convex_expectation,
    dilate,
    evaluate,
    flip_cancellation_system,
    integral,
    linear_combination,
    make_step,
    measure_above,
    measure_equal,
    normalize,
    product,
    rademacher,
    reduce_to_independent,
    restrict,
    scale,
    tile,
    walsh_cancellation_system,
    walsh_system,
)
from multsys.errors import CapacityExceeded, LengthMismatch, NonAscendingBreakpoints
from multsys import stepfn
from multsys.stepfn import int_grid, value_range

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
FULL = IndexFamily.full()


# ------------------------------------------------------------------ reference loops

def reference_refinement(fs):
    merged = set()
    for f in fs:
        merged.update(f.breakpoints)
    bps = tuple(sorted(merged))
    out = []
    for f in fs:
        vals = []
        src = 0
        for left in bps[:-1]:
            while f.breakpoints[src + 1] <= left:
                src += 1
            vals.append(f.values[src])
        out.append((bps, tuple(vals)))
    return out


def reference_product(fs):
    refined = reference_refinement(fs)
    bps = refined[0][0]
    vals = []
    for i in range(len(bps) - 1):
        p = F(1)
        for _, row in refined:
            p *= row[i]
        vals.append(p)
    return bps, tuple(vals)


def reference_linear_combination(coeffs, fs):
    refined = reference_refinement(fs)
    bps = refined[0][0]
    vals = []
    for i in range(len(bps) - 1):
        s = F(0)
        for c, (_, row) in zip(coeffs, refined):
            s += c * row[i]
        vals.append(s)
    return bps, tuple(vals)


def pieces(f):
    return zip(f.values, f.breakpoints, f.breakpoints[1:])


def reference_integral(f):
    return sum((v * (b - a) for v, a, b in pieces(f)), F(0))


def reference_measure_above(f, level):
    return sum((b - a for v, a, b in pieces(f) if v > level), F(0))


def reference_measure_equal(f, value):
    return sum((b - a for v, a, b in pieces(f) if v == value), F(0))


def reference_phi(spec, v):
    """Phi(v) as a Fraction, or None where Phi has only a float value."""
    if spec.kind == "hinge_square":
        return max(v - spec.param, F(0)) ** 2
    if spec.kind == "abs":
        return abs(v)
    if spec.kind == "power" and isinstance(spec.param, int):
        return abs(v) ** spec.param
    return None


def reference_convex_expectation(f, spec):
    exact_parts = []
    for v, a, b in pieces(f):
        ev = reference_phi(spec, v)
        if ev is None:
            break
        exact_parts.append(ev * (b - a))
    else:
        return sum(exact_parts, F(0))
    total = 0.0
    for v, a, b in pieces(f):
        total += spec.float_value(float(v)) * float(b - a)
    return total


def reference_scale_row(row):
    den = math.lcm(*(v.denominator for v in row))
    return [int(v * den) for v in row], den


def reference_dilate(f, factor):
    return tuple(b / factor for b in f.breakpoints), f.values


def reference_scale(f, c):
    return f.breakpoints, tuple(c * v for v in f.values)


def reference_concat(fs):
    bps, vals, offset = [F(0)], [], F(0)
    for f in fs:
        bps.extend(b + offset for b in f.breakpoints[1:])
        vals.extend(f.values)
        offset += f.domain_length
    return tuple(bps), tuple(vals)


def reference_restrict(f, t):
    bps = [b for b in f.breakpoints if b < t]
    return (*bps, t), f.values[:len(bps)]


def reference_normalize(bps, vals):
    out_bps, out_vals = [bps[0]], []
    for v, right in zip(vals, bps[1:]):
        if out_vals and v == out_vals[-1]:
            out_bps[-1] = right
        else:
            out_vals.append(v)
            out_bps.append(right)
    return tuple(out_bps), tuple(out_vals)


def reference_binarize(functions, lows, highs):
    """Each function in turn pushed to {A, B} on every constancy interval of
    the current system, by the integral-preserving split point c."""
    current = [(f.breakpoints, f.values) for f in functions]
    for k, (lo, hi) in enumerate(zip(lows, highs)):
        refined = reference_refinement([StepFunction(*fv) for fv in current])
        grid, row = refined[k]
        bps, vals = [F(0)], []
        for v, a, b in zip(row, grid, grid[1:]):
            c = (hi * a - lo * b + v * (b - a)) / (hi - lo)
            if a < c < b:
                bps += [c, b]
                vals += [hi, lo]
            else:
                bps.append(b)
                vals.append(hi if c > a else lo)
        current[k] = reference_normalize(bps, vals)
    return current


# ------------------------------------------------------------------ strategies

GRID_DENOMINATORS = st.sampled_from([1, 2, 3, 7, 10, 12, 64])
VALUE_DENOMINATORS = st.sampled_from([1, 2, 3, 7, 10])
LENGTHS = st.sampled_from([F(1), F(3, 7), F(10, 3)])
values = st.builds(F, st.integers(-9, 9), VALUE_DENOMINATORS)
coefficients = st.builds(F, st.integers(-6, 6), VALUE_DENOMINATORS)


@st.composite
def grids(draw, length):
    den = draw(GRID_DENOMINATORS)
    cuts = draw(st.sets(st.integers(1, den - 1), max_size=9)) if den > 1 else set()
    return (F(0), *(F(c, den) * length for c in sorted(cuts)), length)


@st.composite
def step_functions(draw, length=None, grid=None):
    if grid is None:
        grid = draw(grids(length if length is not None else draw(LENGTHS)))
    row = draw(st.lists(values, min_size=len(grid) - 1, max_size=len(grid) - 1))
    return StepFunction(grid, tuple(row))


@st.composite
def systems(draw, max_n=5):
    """1..max_n functions on one domain: each on its own grid, or all on one
    shared int grid object."""
    length = draw(LENGTHS)
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        first = draw(step_functions(length=length))
        rows = [draw(step_functions(grid=first.breakpoints)).values for _ in range(n - 1)]
        return [first] + [on_the_grid_of(first, row) for row in rows]
    return [draw(step_functions(length=length)) for _ in range(n)]


def on_the_grid_of(f, values):
    """A function with these values that keeps f's int grid object."""
    row, q = reference_scale_row(values)
    return StepFunction._from_ints(f._grid, f._den, tuple(row), q)


SPECS = [
    ConvexSpec.power(2),
    ConvexSpec.power(3),
    ConvexSpec.power(4),
    ConvexSpec.power(2.5),
    ConvexSpec.exp(0.75),
    ConvexSpec.power(5),
    ConvexSpec.hinge_square(F(1, 3)),
    ConvexSpec.hinge_square(F(-5, 4)),
    ConvexSpec.abs(),
]


def fields(f):
    """f's Fraction fields, once the validating constructor has rebuilt f
    from them into the very ints f stores: kernels build their results
    unchecked, so a bad grid or a row off its lowest terms shows here."""
    bps, vals = f.breakpoints, f.values
    g = StepFunction(bps, vals)
    assert (g._grid, g._den, g._row, g._q) == (f._grid, f._den, f._row, f._q)
    return bps, vals


# ------------------------------------------------------------------ kernel == reference

@PROPERTY
@given(systems())
def test_refinement_matches_the_reference_and_is_idempotent(fs):
    refined = common_refinement(fs)
    assert [fields(g) for g in refined] == reference_refinement(fs)
    assert [fields(g) for g in common_refinement(refined)] == [fields(g) for g in refined]
    for f, g in zip(fs, refined):
        for a, b in zip(g.breakpoints, g.breakpoints[1:]):
            x = (a + b) / 2
            assert evaluate(g, x) == evaluate(f, x)


@PROPERTY
@given(systems(), st.data())
def test_linear_combination_matches_the_reference(fs, data):
    coeffs = data.draw(st.lists(coefficients, min_size=len(fs), max_size=len(fs)))
    assert fields(linear_combination(coeffs, fs)) == reference_linear_combination(coeffs, fs)


@PROPERTY
@given(systems(max_n=4))
def test_product_matches_the_reference(fs):
    assert fields(product(fs)) == reference_product(fs)


@PROPERTY
@given(step_functions(), values)
def test_integrals_and_measures_match_the_reference(f, level):
    assert integral(f) == reference_integral(f)
    assert measure_above(f, level) == reference_measure_above(f, level)
    assert measure_equal(f, level) == reference_measure_equal(f, level)
    assert f.piece_lengths() == tuple(b - a for a, b in zip(f.breakpoints, f.breakpoints[1:]))
    assert value_range(f) == (min(f.values), max(f.values))
    for got in (integral(f), measure_above(f, level), measure_equal(f, level)):
        assert type(got) is F


@PROPERTY
@given(step_functions(), st.sampled_from(SPECS))
def test_convex_expectation_matches_the_reference(f, spec):
    got = convex_expectation(f, spec)
    want = reference_convex_expectation(f, spec)
    assert type(got) is type(want)
    assert got == want


ON_SHARED_GRID = StepFunction((F(0), F(1, 3), F(1, 2), F(1)), (F(1), F(-2, 3), F(3, 10)))


@PROPERTY
@given(systems())
@example([ON_SHARED_GRID, on_the_grid_of(ON_SHARED_GRID, (F(1, 2), F(0), F(-7)))])
@example([StepFunction((F(0), F(2, 7), F(3, 7)), (F(-1), F(3, 10)))])
def test_integer_rows_give_the_fraction_dot_products(fs):
    grid, len_ints, len_den, rows = int_grid(fs)
    refined = reference_refinement(fs)
    bps = refined[0][0]
    assert tuple(F(n, len_den) for n in grid) == bps
    if all(f._grid is fs[0]._grid and f._den == fs[0]._den for f in fs):
        assert grid is fs[0]._grid
    lengths = [b - a for a, b in zip(bps, bps[1:])]
    assert (list(len_ints), len_den) == reference_scale_row(lengths)
    assert [(list(row), q) for row, q in rows] == [
        reference_scale_row(vals) for _, vals in refined
    ]
    for i, (a, da) in enumerate(rows):
        for b, db in rows[i:]:
            got = F(sum(ln * x * y for ln, x, y in zip(len_ints, a, b)), len_den * da * db)
            want = sum(
                (ln * x / da * y / db for ln, x, y in zip(lengths, a, b)), F(0)
            )
            assert got == want


@PROPERTY
@given(step_functions())
def test_normalize_is_idempotent_and_keeps_the_function(f):
    g = normalize(f)
    assert normalize(g) == g
    assert all(a != b for a, b in zip(g.values, g.values[1:]))
    for a, b in zip(f.breakpoints, f.breakpoints[1:]):
        x = (a + b) / 2
        assert evaluate(g, x) == evaluate(f, x)



# ------------------------------------------------------------------ equal-step merges == reference

def uniform(pieces, length, rng):
    """A function on pieces equal pieces of [0, length), random values."""
    grid = [F(i, pieces) * length for i in range(pieces + 1)]
    return StepFunction(grid, [F(rng.randint(-9, 9), rng.choice([1, 2, 5])) for _ in range(pieces)])


def irregular(grid, rng):
    return StepFunction(grid, [F(rng.randint(-9, 9), rng.choice([1, 3])) for _ in grid[1:]])


def assert_merges_match_the_reference(fs):
    refined = reference_refinement(fs)
    bps = refined[0][0]
    grid, len_ints, den, rows = int_grid(fs)
    assert tuple(F(n, den) for n in grid) == bps
    assert (list(len_ints), den) == reference_scale_row([b - a for a, b in zip(bps, bps[1:])])
    assert [(list(row), q) for row, q in rows] == [reference_scale_row(v) for _, v in refined]
    assert [fields(g) for g in common_refinement(fs)] == refined
    coeffs = [F(k + 2, k + 1) * (-1) ** k for k in range(len(fs))]
    assert fields(linear_combination(coeffs, fs)) == reference_linear_combination(coeffs, fs)


HALVES = (F(0), F(1, 3), F(1, 2), F(1))

# (pieces per equal-step function, domain length, irregular grids, whether
# the merge takes the equal-step path)
MERGES = {
    "nested-dyadic": ((1, 2, 4, 8, 16), F(1), (), True),
    "dyadic-unsorted": ((8, 1, 32, 2), F(1), (), True),
    "steps-2-and-3": ((2, 3), F(1), (), False),
    "steps-4-and-6": ((4, 6, 12), F(1), (), True),
    "mixed-irregular": ((4, 8), F(1), (HALVES,), False),
    "irregular-on-the-finest": ((6,), F(1), ((F(0), F(1, 3), F(1)),), False),
    "single-pieces": ((1, 1), F(1), (), True),
    "single-and-five": ((1, 5), F(1), (), True),
    "five-halves-nested": ((1, 2, 4, 20), F(5, 2), (), True),
    "five-halves-4-and-10": ((4, 10), F(5, 2), (), False),
    "five-halves-mixed": ((2, 10), F(5, 2), ((F(0), F(3, 4), F(5, 2)),), False),
}


@pytest.mark.parametrize("name", MERGES)
def test_equal_step_merges_match_the_set_union_reference(name):
    counts, length, grids, by_ranges = MERGES[name]
    rng = random.Random(name)
    fs = [uniform(p, length, rng) for p in counts] + [irregular(g, rng) for g in grids]
    assert_merges_match_the_reference(fs)
    assert_merges_match_the_reference(fs[::-1])
    _, _, where = stepfn._align(fs)
    assert all(type(at) is range for at in where) == by_ranges


def test_the_rademacher_14_grids_merge_by_ranges_without_a_sort(monkeypatch):
    fs = [rademacher(k) for k in range(1, 15)]

    def no_sort(*args, **kwargs):
        raise AssertionError("an equal-step merge sorted its breakpoints")

    monkeypatch.setattr(stepfn, "sorted", no_sort, raising=False)
    grid, den, where = stepfn._align(fs)
    assert grid is fs[-1]._grid and den == 1 << 14
    assert where == [range(0, (1 << 14) + 1, 1 << (14 - k)) for k in range(1, 15)]
    _, _, _, rows = int_grid(fs)
    assert rows[0][0] == (1,) * (1 << 13) + (-1,) * (1 << 13)
    assert linear_combination([1] * 14, fs).piece_count == 1 << 14

# ------------------------------------------------------------------ validation

@PROPERTY
@given(step_functions(), st.data())
def test_repeated_or_swapped_breakpoints_are_rejected(f, data):
    bps = f.breakpoints
    if len(bps) < 3:
        bad = (bps[0], bps[1], bps[1])
    else:
        i = data.draw(st.integers(1, len(bps) - 2))
        if data.draw(st.booleans()):
            bad = bps[:i] + (bps[i],) + bps[i:]
        else:
            bad = bps[:i] + (bps[i + 1], bps[i]) + bps[i + 2:]
    with pytest.raises(NonAscendingBreakpoints):
        StepFunction(bad, (F(1),) * (len(bad) - 1))


def test_a_validated_tuple_is_still_checked_for_shape_and_cap(monkeypatch):
    grid = (F(0), F(1, 3), F(1))
    StepFunction(grid, (F(1), F(2)))
    with pytest.raises(LengthMismatch):
        StepFunction(grid, (F(1),))
    with pytest.raises(NonAscendingBreakpoints):
        StepFunction(grid[:2] + (F(1, 3), F(1)), (F(1),) * 3)
    monkeypatch.setattr(stepfn, "PIECE_CAP", 1)
    with pytest.raises(CapacityExceeded):
        StepFunction(grid, (F(1), F(2)))


def test_a_rejected_tuple_stays_rejected():
    bad = (F(0), F(1, 2), F(1, 2), F(1))
    for _ in range(2):
        with pytest.raises(NonAscendingBreakpoints, match="at 1/2"):
            StepFunction(bad, (F(1),) * 3)


def test_list_breakpoints_are_checked_on_every_construction():
    grid = [F(0), F(1, 2), F(1)]
    StepFunction(grid, (F(1), F(2)))
    grid[1] = F(1)
    with pytest.raises(NonAscendingBreakpoints):
        StepFunction(grid, (F(1), F(2)))
    with pytest.raises(NonAscendingBreakpoints, match="start at 0"):
        StepFunction([F(1, 2), F(1)], (F(1),))


# ------------------------------------------------------------------ int-built producers == reference

factors = st.builds(F, st.integers(1, 9), st.sampled_from([1, 2, 3, 7]))
nonzero_coefficients = coefficients.filter(bool)


@PROPERTY
@given(step_functions(), factors)
def test_dilate_matches_the_reference_and_inverts(f, factor):
    g = dilate(f, factor)
    assert fields(g) == reference_dilate(f, factor)
    back = dilate(g, 1 / factor)
    assert back == f and hash(back) == hash(f)
    assert fields(back) == fields(f)


@PROPERTY
@given(step_functions(), coefficients)
def test_scale_matches_the_reference_and_inverts(f, c):
    g = scale(f, c)
    assert fields(g) == reference_scale(f, c)
    if c:
        back = scale(g, 1 / c)
        assert back == f and hash(back) == hash(f)


@PROPERTY
@given(st.lists(step_functions(), min_size=1, max_size=4), st.integers(1, 4))
def test_concat_and_tile_match_the_reference(fs, copies):
    assert fields(concat_many(fs)) == reference_concat(fs)
    assert fields(tile(fs[0], copies)) == reference_concat([fs[0]] * copies)


@PROPERTY
@given(step_functions(), st.data())
def test_restrict_matches_the_reference(f, data):
    t = data.draw(st.sampled_from(f.breakpoints[1:])
                  | st.integers(1, 7).map(lambda k: f.domain_length * F(k, 7)))
    assert fields(restrict(f, t)) == reference_restrict(f, t)


def test_the_builders_store_what_the_validated_constructor_stores():
    from multsys.rubinshtein import reflect

    f = StepFunction((F(0), F(1, 3), F(1, 2), F(5, 2)), (F(1), F(-2, 3), F(3, 10)))
    built = [constant(F(-3, 4), F(5, 2)), constant(6), constant(0, F(4, 6)), reflect(f)]
    for m in range(6):
        built += walsh_system(m).functions
    for nu in range(2, 6):
        built += walsh_cancellation_system(nu)
    for nu in range(2, 5):
        built += flip_cancellation_system(nu)
    for g in built:
        fields(g)


@PROPERTY
@given(step_functions(), st.data())
def test_normalize_matches_the_reference(f, data):
    # runs of equal values, so that merging has something to do
    runs = data.draw(st.lists(st.sampled_from(f.values[:2]), min_size=f.piece_count,
                              max_size=f.piece_count))
    g = StepFunction(f.breakpoints, tuple(runs))
    assert fields(normalize(g)) == reference_normalize(*fields(g))


@st.composite
def runs_on_one_grid(draw):
    """1..3 functions on one shared int grid, each with values drawn from
    its own bounds and one value between them: adjacent pieces often repeat
    a value, some breakpoints are redundant for every function, and many
    pieces sit on A_k or B_k, where binarize does not split."""
    first = draw(step_functions())
    fs, lows, highs = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        lo = -draw(st.sampled_from([F(1), F(1, 3), F(2)]))
        hi = draw(st.sampled_from([F(1), F(1, 2), F(3, 7)]))
        inside = draw(st.sampled_from([F(0), lo / 2, hi / 3]))
        row = draw(st.lists(st.sampled_from([lo, hi, inside]), min_size=first.piece_count,
                            max_size=first.piece_count))
        fs.append(on_the_grid_of(first, row))
        lows.append(lo)
        highs.append(hi)
    return fs, lows, highs


@st.composite
def bounded_by_offsets(draw):
    """Random systems with bounds the extreme values moved out by 0, 1 or a
    fraction: offset 0 puts values on A_k or B_k."""
    fs = draw(systems(max_n=4))
    lows = [min(min(f.values), F(-1, 3)) - draw(st.sampled_from([0, 1, F(1, 3)])) for f in fs]
    highs = [max(max(f.values), F(1, 2)) + draw(st.sampled_from([0, 1, F(1, 2)])) for f in fs]
    return fs, lows, highs


@st.composite
def runs_on_own_grids(draw):
    """1..4 functions, each on its own grid, with values drawn from its
    bounds and one value between them: a breakpoint where a function
    repeats its value belongs to that function alone, so whether the
    pieces beside it stay apart depends on whose breakpoint it is, not on
    whether every value agrees across it."""
    length = draw(LENGTHS)
    fs, lows, highs = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        grid = draw(grids(length))
        lo = -draw(st.sampled_from([F(1), F(1, 3), F(2)]))
        hi = draw(st.sampled_from([F(1), F(1, 2), F(3, 7)]))
        inside = draw(st.sampled_from([F(0), lo / 2, hi / 3]))
        row = draw(st.lists(st.sampled_from([lo, hi, inside]), min_size=len(grid) - 1,
                            max_size=len(grid) - 1))
        fs.append(StepFunction(grid, tuple(row)))
        lows.append(lo)
        highs.append(hi)
    return fs, lows, highs


def assert_binarize_matches(fs, lows, highs):
    out = binarize(BoundedSystem(tuple(fs), tuple(lows), tuple(highs)))
    assert [fields(g) for g in out.functions] == reference_binarize(fs, lows, highs)
    # the merged grid binarize carries is the one a fresh merge gives
    assert out.grid == int_grid(out.functions)


HALF = F(1, 2)


@PROPERTY
@given(st.one_of(bounded_by_offsets(), runs_on_one_grid(), runs_on_own_grids()))
@example(([StepFunction((0, HALF, 1), (HALF, HALF))], [F(-1)], [F(1)]))
# 1/2 is the second function's breakpoint alone, and every value agrees
# across it; the first function sits on B and does not split, so 1/2 is
# still a breakpoint when the second is binarized: B, A, B, A, not B, A
@example((
    [StepFunction((0, 1), (F(1),)), StepFunction((0, HALF, 1), (HALF, HALF))],
    [F(-1), F(-1)], [F(1), F(1)],
))
def test_binarize_matches_the_reference(case):
    assert_binarize_matches(*case)


@PROPERTY
@given(systems(max_n=4), st.sampled_from([FULL, IndexFamily.cardinality_cap(1)]))
def test_binarize_matches_the_reference_on_extended_stages(fs, fam):
    """The stage the reduction binarizes: cancellation blocks appended, on
    which every function outside a block is 0 on one piece, so that a
    function often repeats its value across a block boundary."""
    lows = [min(min(f.values), F(-1, 3)) for f in fs]
    highs = [max(max(f.values), F(1, 2)) for f in fs]
    trace = reduce_to_independent(BoundedSystem(tuple(fs), tuple(lows), tuple(highs)), fam)
    extended = trace.extended.functions
    assert_binarize_matches(extended, lows, highs)
    assert [fields(g) for g in trace.binarized.functions] == reference_binarize(
        extended, lows, highs
    )


def test_binarize_caps_the_unmerged_piece_count(monkeypatch):
    # pieces 1-3 sit on B and merge; piece 4 splits: 5 pieces before merging, 2 after
    f = StepFunction((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), (F(1), F(1), F(1), F(0)))
    sys_obj = BoundedSystem((f,), (F(-1),), (F(1),))
    assert [g.piece_count for g in binarize(sys_obj).functions] == [2]
    monkeypatch.setattr(stepfn, "PIECE_CAP", 4)
    with pytest.raises(CapacityExceeded, match="^5 pieces exceed the cap of 4$"):
        binarize(sys_obj)
    monkeypatch.setattr(stepfn, "PIECE_CAP", 5)
    assert [g.piece_count for g in binarize(sys_obj).functions] == [2]


# ------------------------------------------------------------------ the piece cap, where pieces grow
# The cap is checked where a piece count can grow past every input's, and
# a result no larger than a guarded input is not checked at all.

def growing_kernels():
    from multsys.moments import IndexFamily, compute_moment_table, symmetric_system
    from multsys.reduction import _extend

    f = StepFunction((F(0), F(1, 3), F(1)), (F(1), F(2)))
    g = StepFunction((F(0), F(1, 2), F(1)), (F(3), F(-1)))
    pair = symmetric_system([f, f], 2)
    table = compute_moment_table(pair, IndexFamily.full())
    # (name, call, pieces it makes)
    return [
        ("constructor", lambda: StepFunction((F(0), F(1, 4), F(1, 2), F(1)), (1, 2, 3)), 3),
        ("common_refinement", lambda: common_refinement([f, g]), 3),
        ("product", lambda: product([f, g]), 3),
        ("linear_combination", lambda: linear_combination([1, 1], [f, g]), 3),
        ("concat_many", lambda: concat_many([f, g]), 4),
        ("tile", lambda: tile(f, 3), 6),
        ("walsh_cancellation_system", lambda: walsh_cancellation_system(3), 4),
        ("flip_cancellation_system", lambda: flip_cancellation_system(2), 4),
        ("walsh_system", lambda: walsh_system(3), 8),
        # three blocks: (1,) and (2,) are constants, (1, 2) a 2-piece Walsh block
        ("extension", lambda: _extend(pair, table), 6),
    ]


GROWING = [name for name, _, _ in growing_kernels()]


@pytest.mark.parametrize("name", GROWING)
def test_each_growing_kernel_is_capped_and_reads_the_cap_on_every_call(monkeypatch, name):
    call, pieces = next((c, p) for n, c, p in growing_kernels() if n == name)
    call()
    monkeypatch.setattr(stepfn, "PIECE_CAP", pieces - 1)
    message = f"{pieces} pieces exceed the cap of {pieces - 1}"
    if name == "extension":  # it counts its merged grid, and says so
        message = f"the extension needs {pieces} merged pieces, beyond the cap of {pieces - 1}"
    with pytest.raises(CapacityExceeded, match=f"^{message}$"):
        call()
    monkeypatch.setattr(stepfn, "PIECE_CAP", pieces)
    call()


def test_a_result_no_larger_than_a_guarded_input_reads_no_cap(monkeypatch):
    from multsys.rubinshtein import reflect

    f = StepFunction((F(0), F(1, 3), F(1, 2), F(1)), (F(1), F(1), F(-2)))
    twin = scale(f, 3)
    reads = []
    monkeypatch.setattr(stepfn, "_guard_pieces", reads.append)
    results = [
        scale(f, 2), dilate(f, 3), restrict(f, F(1, 2)), normalize(f), reflect(f),
        product([f, twin]), linear_combination([1, -1], [f, twin]), *common_refinement([f, twin]),
        *common_refinement([f, StepFunction._from_ints((0, 1, 2), 2, (1, 1), 1)]),
    ]
    integral(f), measure_above(f, 0), convex_expectation(f, ConvexSpec.power(2))
    assert reads == []
    assert max(g.piece_count for g in results) == 3


# ------------------------------------------------------------------ the stored ints

def counting_post_init(monkeypatch):
    calls = []
    original = StepFunction.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(StepFunction, "__post_init__", counted)
    return calls


def test_each_constructor_validates_once_per_object(monkeypatch):
    """Only the public constructor validates, once per object; make_step and
    from_json go through it, and every kernel builds its result unchecked."""
    calls = counting_post_init(monkeypatch)
    f = StepFunction((F(0), F(1, 3), F(1)), (F(2), F(-1, 2)))
    assert calls == [f]
    made = [make_step([0, "1/3", 1], [2, "-1/2"]), StepFunction.from_json(f.to_json())]
    assert made == [f, f] and calls == [f, *made]
    r = rademacher(1)
    g = StepFunction._from_ints((0, 1, 3), 3, (4, -1), 2)
    assert g == f
    sys_obj = BoundedSystem((f, r), (F(-1), F(-1)), (F(2), F(1)))
    kernels = [
        scale(f, 3), dilate(f, 3), restrict(f, F(1, 2)), normalize(f), tile(f, 2),
        concat_many([f, r]), product([f, r]), linear_combination([1, 2], [f, r]),
        *common_refinement([f, r]), *binarize(sys_obj).functions,
        *reduce_to_independent(sys_obj, FULL).xi.functions,
    ]
    assert all(type(g) is StepFunction for g in kernels)
    assert calls == [f, *made]


def test_fields_cannot_be_assigned():
    f = StepFunction((F(0), F(1, 2), F(1)), (F(1), F(-1)))
    for name in ("breakpoints", "values", "_grid", "_den", "_row", "_q"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, ())
    assert f.values == (F(1), F(-1))


@PROPERTY
@given(step_functions())
def test_copy_and_pickle_round_trip(f):
    for back in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert back == f and hash(back) == hash(f)
        assert fields(back) == fields(f)
        assert back.to_json() == f.to_json()


def test_the_stored_ints_are_in_lowest_terms():
    f = StepFunction._from_ints((0, 2, 4), 4, (6, -3), 9)
    assert (f._grid, f._den, f._row, f._q) == ((0, 1, 2), 2, (2, -1), 3)
    assert f == StepFunction((F(0), F(1, 2), F(1)), (F(2, 3), F(-1, 3)))


@pytest.mark.parametrize("length", [1, F(5, 2)])
def test_rademacher_stores_the_ints_the_validated_constructor_stores(length):
    """rademacher builds its functions unchecked on [0, 1), from
    uniform_grid's lowest-terms grid, and dilate by 1 / length moves one to
    [0, length): the same ints as make_step's validated path."""
    for k in range(1, 15):
        pieces = 1 << k
        ref = make_step([F(i) * length / pieces for i in range(pieces + 1)],
                        [(-1) ** i for i in range(pieces)])
        got = dilate(rademacher(k), 1 / F(length))
        assert (got._grid, got._den, got._row, got._q) == (ref._grid, ref._den, ref._row, ref._q)
