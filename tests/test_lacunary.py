"""Lacunary sine products: expansions, closed forms, bounds, quadrature."""

import math

import pytest

from multsys import (
    LacunarySpec,
    analytic_tail_bound,
    collection_bound,
    expand_product,
    explicit_spec,
    frequency_range_check,
    geometric_spec,
    global_mu_bound,
    product_integral,
    quadrature_product_integral,
    signed_sums,
    split_for_growth,
    truncated_mu,
)
from multsys.errors import (
    BadSubset,
    CapacityExceeded,
    LambdaTooSmall,
    NotLacunary,
    OutOfRange,
    TauTooSmall,
)


def test_geometric_spec_certifies_the_ratio():
    spec = geometric_spec(3, 2, 4)
    assert spec.tau == (2.0, 6.0, 18.0, 54.0)
    assert spec.lam == 3.0
    assert spec.n == 4
    with pytest.raises(TauTooSmall):
        geometric_spec(3, 0.5, 4)
    with pytest.raises(NotLacunary):
        geometric_spec(1, 2, 4)
    with pytest.raises(OutOfRange):
        geometric_spec(3, 2, 0)


def test_explicit_spec_certifies_the_smallest_ratio():
    spec = explicit_spec([2.0, 5.0, 11.0], 2)
    assert spec.lam == 2.2
    with pytest.raises(NotLacunary):
        explicit_spec([2.0, 5.0, 11.0], 2.3)
    single = explicit_spec([4.0], 3)
    assert single.lam == 3


def test_subset_validation():
    spec = geometric_spec(3, 2, 4)
    for bad in ((), (0,), (5,), (2, 1), (2, 2)):
        with pytest.raises(BadSubset):
            product_integral(spec, bad)


def test_pair_expansion_is_a_cosine_difference():
    spec = geometric_spec(3, 2, 2)
    exp = expand_product(spec, (1, 2))
    assert [(t.freq, t.kind, t.coef) for t in exp.terms] == [
        (4.0, "cos", 0.5),
        (8.0, "cos", -0.5),
    ]

    def cos_int(w):
        return math.sin(2 * math.pi * w) / (2 * math.pi * w)

    expected = 0.5 * cos_int(4.0) - 0.5 * cos_int(8.0)
    assert math.isclose(product_integral(spec, (1, 2)), expected, rel_tol=1e-15)


def test_expansion_coefficients_have_unit_mass():
    spec = geometric_spec(2.5, 1.3, 5)
    for subset in ((1, 2, 3), (1, 3, 5), (1, 2, 3, 4, 5)):
        exp = expand_product(spec, subset)
        assert len(exp.terms) == 2 ** (len(subset) - 1)
        assert math.isclose(sum(abs(t.coef) for t in exp.terms), 1.0, rel_tol=1e-15)


def test_singleton_integral_closed_form():
    spec = explicit_spec([1.5], 3)
    assert math.isclose(product_integral(spec, (1,)), 2 / (3 * math.pi), rel_tol=1e-15)


def test_integer_frequencies_integrate_to_zero():
    # 3 - 2 - 1 = 0 exercises the removable-singularity branch
    spec = explicit_spec([1.0, 2.0, 3.0], 1.4)
    assert product_integral(spec, (1, 2, 3)) == 0.0
    quad = quadrature_product_integral(spec, (1, 2, 3))
    assert abs(quad) < 1e-9


def test_signed_sums_and_containment():
    spec = geometric_spec(3, 2, 3)
    assert sorted(signed_sums(spec, (1, 2, 3))) == [10.0, 14.0, 22.0, 26.0]
    assert frequency_range_check(spec, (1, 2, 3))
    assert frequency_range_check(spec, (1, 3))
    slow = explicit_spec([2.0, 4.0, 8.0], 1.9)
    with pytest.raises(LambdaTooSmall):
        frequency_range_check(slow, (1, 2))
    with pytest.raises(LambdaTooSmall):
        collection_bound(slow, (1, 2))
    with pytest.raises(LambdaTooSmall):
        global_mu_bound(2)


def test_bound_formulas():
    spec = geometric_spec(3, 2, 3)
    assert math.isclose(
        collection_bound(spec, (1, 3)), 2 / (math.pi * 18), rel_tol=1e-15
    )
    assert math.isclose(global_mu_bound(3), 6 / math.pi, rel_tol=1e-15)
    assert math.isclose(
        analytic_tail_bound(spec), 8 * 2 / (math.pi * 18), rel_tol=1e-15
    )


def test_bounds_refuse_an_overflowing_denominator():
    # pi (lam - 2)^2 is inf at lam = 1e154; dividing by it would read as a 0.0 bound
    spec = LacunarySpec(tau=(1.0, 1e154), lam=1e154)
    with pytest.raises(OutOfRange, match="denominator"):
        global_mu_bound(1e154)
    with pytest.raises(OutOfRange, match="denominator"):
        collection_bound(spec, (2,))
    with pytest.raises(OutOfRange, match="denominator"):
        analytic_tail_bound(spec)
    # a finite denominator keeps the formula's float, bit for bit
    assert collection_bound(spec, (1,)) == (1e154 - 1.0) / (math.pi * (1e154 - 2.0) * 1.0)
    assert global_mu_bound(1e150) == 1e150 * (1e150 - 1.0) / (math.pi * (1e150 - 2.0) ** 2)


@pytest.mark.parametrize("build", [
    lambda: explicit_spec([1, 1e308], 3),
    lambda: explicit_spec([1e308], 3),
    lambda: geometric_spec(1e200, 1e200, 2),
])
def test_frequencies_beyond_float_range_are_refused(build):
    with pytest.raises(OutOfRange, match="frequency"):
        build()


def test_truncated_mu_report():
    spec = geometric_spec(3, 2, 4)
    report = truncated_mu(spec, 2)
    assert len(report.entries) == 4 + 6
    assert report.violations == ()
    assert report.holds
    assert report.mu_truncated <= report.global_bound
    assert math.isclose(report.global_bound, 6 / math.pi, rel_tol=1e-15)
    per_subset = sum(abs(e.integral) for e in report.entries)
    assert math.isclose(report.mu_truncated, per_subset, rel_tol=1e-15)
    for e in report.entries:
        assert e.within
        assert abs(e.integral) <= e.head_bound + 1e-9
    with pytest.raises(OutOfRange):
        truncated_mu(spec, 0)
    with pytest.raises(OutOfRange):
        truncated_mu(spec, 5)
    js = report.to_json()
    assert js["holds"] is True
    assert js["violations"] == []


def test_split_for_growth_interleaves():
    spec = geometric_spec(1.7, 1.5, 12)
    parts = split_for_growth(spec, target=3.0)
    assert len(parts) == 3
    for start, part in enumerate(parts):
        assert part.tau == spec.tau[start::3]
        assert part.n == 4
        assert part.lam >= 3.0
    fast = geometric_spec(3, 2, 4)
    assert split_for_growth(fast, target=3.0) == [fast]
    with pytest.raises(NotLacunary):
        split_for_growth(LacunarySpec(tau=(1.0, 1.0), lam=1.0), target=3.0)


def test_quadrature_matches_closed_form():
    spec = geometric_spec(2.5, 1.3, 6)
    for subset in ((1, 2), (1, 3, 5), (2, 4, 6)):
        closed = product_integral(spec, subset)
        quad = quadrature_product_integral(spec, subset)
        assert abs(closed - quad) < 1e-9


def test_quadrature_respects_the_panel_cap():
    spec = geometric_spec(8, 1.3, 8)
    with pytest.raises(CapacityExceeded):
        quadrature_product_integral(spec, (8,), max_panels=1000)
