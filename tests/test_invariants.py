"""Property tests of the paper's exact invariants on random bounded systems.

Binarization keeps every mixed moment and is idempotent, extension makes
the multiplicative error exactly 0 at a domain cost of exactly (1 + mu),
and a system survives its JSON form unchanged.  Every comparison is
exact equality.
"""

import json
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from multsys import (
    BoundedSystem,
    IndexFamily,
    binarize,
    compute_moment_table,
    extend_system,
    make_step,
    multiplicative_error,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FULL = IndexFamily.full()

GRID_DENOMINATORS = st.sampled_from([2, 3, 8, 12])
VALUE_DENOMINATORS = st.sampled_from([1, 2, 3, 5])
LENGTHS = st.sampled_from([F(1), F(3, 7), F(5, 2)])
values = st.builds(F, st.integers(-6, 6), VALUE_DENOMINATORS)
slack = st.builds(F, st.integers(0, 3), VALUE_DENOMINATORS)


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
