"""The paper's conclusion in closed form: the law of xi from the bounds alone.

Over the full family the reduction's output xi is independent, mean zero
and two-valued, and xi_k takes the values {A_k, B_k} of the input's
bounds.  So its joint law is the product of the two-point laws with
P(xi_k == A_k) == B_k / (B_k - A_k), whatever the input was.  Here that
product, closed_form_law, is compared at zero tolerance with the masses
of xi's histogram divided by T * den, and the exact power:4 right side of
verify_domination with (1 + mu) times E|S|**4 under the convolution of the
two-point laws of a_k xi_k.  The reference is built from the bounds alone,
so it checks the law of xi independently of the moment fold, the
extension, binarize and the dilation.

Only the full family is tested: a capped or explicit family makes xi
independent only on the family's own subsets, so its joint law over all n
functions need not factor, and the closed form does not apply there.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    build_phi,
    dilated_system,
    make_step,
    rademacher,
    reduce_to_independent,
    symmetric_system,
    verify_domination,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FULL = IndexFamily.full()
DATA = Path(__file__).resolve().parent / "data"


def two_point_law(lo, hi):
    """The mean-zero law on {lo, hi}, value mapped to probability."""
    low = hi / (hi - lo)
    return ((lo, low), (hi, 1 - low))


def closed_form_law(lower, upper):
    """The product over k of the mean-zero two-point laws on {A_k, B_k}: each
    value tuple mapped to its probability."""
    law = {(): F(1)}
    for lo, hi in zip(lower, upper):
        law = {
            key + (v,): p * pv for key, p in law.items() for v, pv in two_point_law(lo, hi)
        }
    return law


def closed_form_sum_law(coeffs, lower, upper):
    """The law of sum_k a_k xi_k: the convolution of the two-point laws of
    the a_k xi_k."""
    law = {F(0): F(1)}
    for c, lo, hi in zip(coeffs, lower, upper):
        out: dict = {}
        for s, p in law.items():
            for v, pv in two_point_law(lo, hi):
                out[s + c * v] = out.get(s + c * v, 0) + p * pv
        law = out
    return law


def xi_law(xi):
    """The masses of xi's histogram divided by T * den, keyed by value tuple."""
    mass, den, dens = xi.histogram
    total = xi.domain_length * den
    return {tuple(F(n, q) for n, q in zip(key, dens)): w / total for key, w in mass.items()}


def assert_xi_has_the_closed_form(sys):
    trace = reduce_to_independent(sys, FULL)
    xi = trace.xi
    assert (xi.lower_bounds, xi.upper_bounds) == (sys.lower_bounds, sys.upper_bounds)
    assert xi_law(xi) == closed_form_law(sys.lower_bounds, sys.upper_bounds)
    return trace


def assert_the_domination_rhs_has_the_closed_form(sys, coeffs, trace):
    report = verify_domination(sys, FULL, coeffs, ConvexSpec.power(4), trace)
    law = closed_form_sum_law(coeffs, sys.lower_bounds, sys.upper_bounds)
    assert report.exact
    assert report.rhs == (1 + trace.mu) * sum(p * s**4 for s, p in law.items())


VALUES = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
SLACK = st.builds(F, st.integers(0, 2), st.sampled_from([1, 2]))


@st.composite
def dependent_systems(draw):
    """1..5 functions on [0, 1) or [0, 5/2), each on its own grid of at most
    four cuts, with bounds that sometimes touch the extreme values: inputs
    whose functions depend on each other, so the reduction has work to do."""
    length = draw(st.sampled_from([F(1), F(5, 2)]))
    functions, los, his = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        den = draw(st.sampled_from([2, 3, 4, 6]))
        cuts = sorted(draw(st.sets(st.integers(1, den - 1), max_size=4)))
        bps = [F(0), *(F(c, den) * length for c in cuts), length]
        vals = draw(st.lists(VALUES, min_size=len(bps) - 1, max_size=len(bps) - 1))
        functions.append(make_step(bps, vals))
        los.append(min(min(vals), F(-1, 2)) - draw(SLACK))
        his.append(max(max(vals), F(1, 3)) + draw(SLACK))
    coeffs = draw(st.lists(VALUES, min_size=len(functions), max_size=len(functions)))
    return BoundedSystem(tuple(functions), tuple(los), tuple(his)), coeffs


@PROPERTY
@given(dependent_systems())
def test_xi_of_a_dependent_system_has_the_closed_form_law(drawn):
    sys, coeffs = drawn
    trace = assert_xi_has_the_closed_form(sys)
    assert_the_domination_rhs_has_the_closed_form(sys, coeffs, trace)


@pytest.mark.parametrize("name", ["off_unit_system.json", "off_unit_multiplicative.json"])
def test_xi_of_an_off_unit_system_has_the_closed_form_law(name):
    sys = BoundedSystem.from_json(json.loads((DATA / name).read_text(encoding="utf-8")))
    assert sys.domain_length == F(5, 2)
    trace = assert_xi_has_the_closed_form(sys)
    coeffs = [F(k, 2) - 1 for k in range(sys.n)]
    assert_the_domination_rhs_has_the_closed_form(sys, coeffs, trace)


SEED = make_step([0, F(1, 16), F(3, 16), F(1, 4)], [1, F(-1, 2), F(1, 3)])


@pytest.mark.parametrize(
    "sys",
    [
        symmetric_system([rademacher(k) for k in range(1, 5)]),
        dilated_system(build_phi(SEED), 3),
    ],
    ids=["rademacher", "dilated_system"],
)
def test_xi_of_a_multiplicative_input_has_the_closed_form_law(sys):
    """A multiplicative input is its own extended stage; xi is its
    binarization, which the dilates need and the sign functions do not."""
    trace = assert_xi_has_the_closed_form(sys)
    assert trace.mu == 0 and trace.extended is sys
    assert_the_domination_rhs_has_the_closed_form(sys, [1, F(-2, 3), F(1, 2), 2][: sys.n], trace)
