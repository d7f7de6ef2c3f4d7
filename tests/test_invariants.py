"""Property tests of the paper's exact invariants on random bounded systems.

Binarization keeps every mixed moment and is idempotent, extension makes
the multiplicative error exactly 0 at a domain cost of exactly (1 + mu),
the reduced system dominates every exact convex functional with the
factor (1 + mu), and a system survives its JSON form unchanged.  Every
comparison is exact.
"""

import json
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    StepFunction,
    binarize,
    check_independence,
    compute_moment_table,
    extend_system,
    make_step,
    multiplicative_error,
    reduce_to_independent,
    verify_domination,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FULL = IndexFamily.full()

GRID_DENOMINATORS = st.sampled_from([2, 3, 8, 12])
VALUE_DENOMINATORS = st.sampled_from([1, 2, 3, 5])
LENGTHS = st.sampled_from([F(1), F(3, 7), F(5, 2)])
values = st.builds(F, st.integers(-6, 6), VALUE_DENOMINATORS)
slack = st.builds(F, st.integers(0, 3), VALUE_DENOMINATORS)
coefficients = st.builds(F, st.integers(-6, 6), VALUE_DENOMINATORS)
exact_specs = st.one_of(
    st.sampled_from([ConvexSpec.power(2), ConvexSpec.power(4), ConvexSpec.abs()]),
    st.builds(ConvexSpec.hinge_square, values),
)


@st.composite
def bounded_systems(draw, max_n=4):
    """1..max_n functions on one domain, each on its own grid, with bounds
    that sometimes touch the extreme values and sometimes leave room."""
    length = draw(LENGTHS)
    functions, los, his = [], [], []
    for _ in range(draw(st.integers(1, max_n))):
        den = draw(GRID_DENOMINATORS)
        cuts = sorted(draw(st.sets(st.integers(1, den - 1), max_size=4)))
        bps = [F(0), *(F(c, den) * length for c in cuts), length]
        vals = draw(st.lists(values, min_size=len(bps) - 1, max_size=len(bps) - 1))
        functions.append(make_step(bps, vals))
        los.append(min(min(vals), F(-1, 3)) - draw(slack))
        his.append(max(max(vals), F(1, 2)) + draw(slack))
    return BoundedSystem(tuple(functions), tuple(los), tuple(his))


def families(n):
    return st.sampled_from([FULL, *(IndexFamily.cardinality_cap(l) for l in range(1, n))])


@PROPERTY
@given(bounded_systems())
def test_binarize_keeps_every_mixed_moment(sys_obj):
    out = binarize(sys_obj)
    assert out.domain_length == sys_obj.domain_length
    for f, lo, hi in zip(out.functions, out.lower_bounds, out.upper_bounds):
        assert set(f.values) <= {lo, hi}
    assert compute_moment_table(out, FULL).moments == compute_moment_table(sys_obj, FULL).moments


@PROPERTY
@given(bounded_systems())
def test_binarize_is_idempotent(sys_obj):
    once = binarize(sys_obj)
    assert binarize(once) == once


@PROPERTY
@given(bounded_systems(), st.data())
def test_extension_makes_mu_zero_at_the_price_of_one_plus_mu(sys_obj, data):
    fam = data.draw(families(sys_obj.n))
    mu, _ = multiplicative_error(sys_obj, fam)
    extended = extend_system(sys_obj, fam)
    assert multiplicative_error(extended, fam)[0] == 0
    assert extended.domain_length == sys_obj.domain_length * (1 + mu)
    assert (extended == sys_obj) == (mu == 0)


@PROPERTY
@given(bounded_systems())
def test_system_json_round_trips_exactly(sys_obj):
    text = json.dumps(sys_obj.to_json())
    back = BoundedSystem.from_json(json.loads(text))
    assert back == sys_obj
    assert json.dumps(back.to_json()) == text


@PROPERTY
@given(bounded_systems(max_n=3), exact_specs, st.data())
def test_reduction_dominates_every_exact_convex_functional(sys_obj, phi, data):
    fam = data.draw(families(sys_obj.n))
    coeffs = data.draw(st.lists(coefficients, min_size=sys_obj.n, max_size=sys_obj.n))
    report = verify_domination(sys_obj, fam, coeffs, phi)
    assert report.exact
    assert type(report.lhs) is F and type(report.rhs) is F
    assert report.lhs <= report.rhs
    assert report.holds


@st.composite
def independent_two_valued_systems(draw, max_n=3):
    """Function k takes -a_k * s_k on a share b_k / (a_k + b_k) of every block
    of its own digit and b_k * s_k on the rest, digit k of a mixed radix
    with bases a_k + b_k: an independent, mean-zero, {A_k, B_k}-valued system."""
    n = draw(st.integers(1, max_n))
    sides = [(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(n)]
    scales = [draw(st.builds(F, st.integers(1, 4), VALUE_DENOMINATORS)) for _ in range(n)]
    pieces = 1
    for a, b in sides:
        pieces *= a + b
    grid = tuple(F(i, pieces) for i in range(pieces + 1))
    functions, los, his = [], [], []
    period = pieces
    for (a, b), s in zip(sides, scales):
        block = period // (a + b)
        lo, hi = -a * s, b * s
        functions.append(StepFunction(
            grid, tuple(lo if (i % period) // block < b else hi for i in range(pieces))
        ))
        los.append(lo)
        his.append(hi)
        period = block
    return BoundedSystem(tuple(functions), tuple(los), tuple(his))


@PROPERTY
@given(independent_two_valued_systems(), exact_specs, st.data())
def test_domination_is_equality_on_an_independent_two_valued_system(sys_obj, phi, data):
    fam = data.draw(families(sys_obj.n))
    coeffs = data.draw(st.lists(coefficients, min_size=sys_obj.n, max_size=sys_obj.n))
    assert check_independence(sys_obj, fam).independent
    trace = reduce_to_independent(sys_obj, fam)
    assert trace.mu == 0
    report = verify_domination(sys_obj, fam, coeffs, phi, trace=trace)
    assert report.exact
    assert report.lhs == report.rhs
