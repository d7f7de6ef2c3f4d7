"""Constants, p-norm bounds, tail bounds and the MGF factor."""

import math
from fractions import Fraction as F

import pytest

from multsys import (
    BoundedSystem,
    IndexFamily,
    hoeffding_tail,
    khintchine_constant,
    khintchine_constant_variants,
    khintchine_even_constant,
    linear_combination,
    make_step,
    measure_above,
    mgf_factor_check,
    multiplicative_error,
    rademacher,
    rademacher_pnorm_oracle,
    rademacher_tail_oracle,
    symmetric_system,
    verify_khintchine,
)
from multsys.errors import (
    BoundViolation,
    NonPositiveLambda,
    NotMultiplicative,
    OutOfRange,
    TooLarge,
)
from multsys import stepfn
from multsys.inequalities import double_factorial


def rademacher_system(n):
    return symmetric_system([rademacher(k) for k in range(1, n + 1)])


def test_constant_agrees_with_double_factorial_form():
    assert math.isclose(khintchine_constant(4), 3**0.25, rel_tol=1e-15)
    for p in (4, 6, 8, 10):
        gamma_form = khintchine_constant(p)
        even_form = khintchine_even_constant(p)
        assert abs(gamma_form - even_form) < 1e-12
    with pytest.raises(OutOfRange):
        khintchine_constant(2)
    with pytest.raises(OutOfRange):
        khintchine_even_constant(3)


def test_variant_with_pi_denominator_is_visibly_off():
    v = khintchine_constant_variants(4)
    assert abs(v["corrected"] - v["as_printed"]) > 1e-2


def test_double_factorial_small_values():
    assert [double_factorial(k) for k in (-1, 0, 1, 3, 5, 7)] == [1, 1, 1, 3, 15, 105]


def test_pnorm_oracle_matches_closed_forms():
    # E[(sum r_k)^4] = 3 n^2 - 2 n for unit coefficients
    for n in (1, 2, 3, 6):
        assert rademacher_pnorm_oracle([1] * n, 4) == 3 * n * n - 2 * n
    assert rademacher_pnorm_oracle([1, 1], 4) == 8
    assert rademacher_pnorm_oracle(["1/2"], 2) == F(1, 4)
    with pytest.raises(TooLarge):
        rademacher_pnorm_oracle([1] * 21, 4)
    with pytest.raises(OutOfRange):
        rademacher_pnorm_oracle([1], 3)


def test_even_mode_matches_oracle_and_holds():
    sys_obj = rademacher_system(4)
    coeffs = [F(1), F(1, 2), F(-1, 3), F(2)]
    report = verify_khintchine(sys_obj, coeffs, 4, mode="even_integer")
    assert report.exact and report.holds
    assert report.lhs_pth_power == rademacher_pnorm_oracle(coeffs, 4)
    sum_sq = sum(c * c for c in coeffs)
    assert report.rhs_pth_power == 3 * sum_sq**2


def test_even_mode_requires_multiplicativity():
    r1 = rademacher(1)
    with pytest.raises(NotMultiplicative):
        verify_khintchine(symmetric_system([r1, r1]), [1, 1], 4, mode="even_integer")


def test_khintchine_rejects_oversized_values():
    f = rademacher(1)
    sys_obj = symmetric_system([f], 2)
    with pytest.raises(BoundViolation):
        verify_khintchine(sys_obj, [1], 4)


def test_general_mode_on_rademacher():
    report = verify_khintchine(rademacher_system(5), [1] * 5, 3.5)
    assert not report.exact
    assert report.holds
    with pytest.raises(OutOfRange):
        verify_khintchine(rademacher_system(2), [1, 1], 4, mode="weird")


def test_tail_oracle_counts_sign_patterns():
    assert rademacher_tail_oracle(10, 4) == F(7, 128)
    assert rademacher_tail_oracle(2, 0) == F(1, 4)
    assert rademacher_tail_oracle(3, 3) == 0
    assert rademacher_tail_oracle(1, "1/2") == F(1, 2)


def test_hoeffding_tail_agrees_with_oracle():
    for n in (1, 3, 5):
        sys_obj = rademacher_system(n)
        for num in (1, 2, 2 * n - 1):
            level = F(num, 2)
            report = hoeffding_tail(sys_obj, level, mu=F(0))
            assert report.exact_measure == rademacher_tail_oracle(n, level)
            assert report.holds


def test_hoeffding_tail_computes_mu_when_missing():
    r1 = rademacher(1)
    report = hoeffding_tail(symmetric_system([r1, r1]), F(19, 10))
    assert report.mu == 1
    assert report.exact_measure == F(1, 2)
    # bound is (1 + 1) exp(-2 (19/10)^2 / 8), about 0.81, so the tail fits
    assert report.holds
    with pytest.raises(NonPositiveLambda):
        hoeffding_tail(symmetric_system([r1]), 0)


def counted_merges(monkeypatch):
    """The function lists merged onto one grid (stepfn._align), in call order."""
    original = stepfn._align
    merged = []

    def counted(fs):
        merged.append(tuple(fs))
        return original(fs)

    monkeypatch.setattr(stepfn, "_align", counted)
    return merged


@pytest.mark.parametrize("level", [F(1, 2), F(1), F(7, 4), F(5, 2), F(9)])
def test_a_tail_with_mu_computed_merges_the_system_once(monkeypatch, level):
    # off the unit domain, unequal bounds, a redundant breakpoint and an
    # off-grid level: the sum takes values on both sides of every level
    fs = (
        make_step([0, "1/3", "5/6", "5/2"], [1, "-1/2", "3/4"]),
        make_step([0, "1/2", "5/4", "5/2"], ["-3/2", "-3/2", 2]),
        make_step([0, "5/4", "5/2"], ["1/4", -1]),
    )
    sys_obj = BoundedSystem(fs, (F(-1), F(-2), F(-1)), (F(1), F(2), F(1, 2)))
    oracle = measure_above(linear_combination([1, 1, 1], fs), level) / sys_obj.domain_length
    merges = counted_merges(monkeypatch)
    report = hoeffding_tail(sys_obj, level)
    assert merges == [fs]  # the moment table's; the sum's law is read off its histogram
    assert report.exact_measure == oracle
    assert report.mu == multiplicative_error(sys_obj, IndexFamily.full())[0]
    merges.clear()
    given = hoeffding_tail(sys_obj, level, mu=report.mu)
    assert merges == []  # the system holds its merged grid, and the law is read off it
    assert given.to_json() == report.to_json()
    fresh = BoundedSystem(fs, sys_obj.lower_bounds, sys_obj.upper_bounds)
    given = hoeffding_tail(fresh, level, mu=report.mu)
    # the difference array's merge, then the sum's own grid, read for its law
    assert merges[0] == fs and len(merges) == 2
    assert given.to_json() == report.to_json()


def test_hoeffding_tail_refuses_a_negative_mu():
    sys_obj = rademacher_system(3)
    with pytest.raises(OutOfRange, match="mu must be nonnegative, got -1"):
        hoeffding_tail(sys_obj, 1, mu=F(-1))
    assert hoeffding_tail(sys_obj, 1, mu=F(0)).mu == 0


def test_mgf_factor_is_below_the_envelope():
    report = mgf_factor_check(-2, 1, 0.5)
    expected_lhs = (math.exp(-1.0) + 2 * math.exp(0.5)) / 3
    assert math.isclose(report.lhs, expected_lhs, rel_tol=1e-15)
    assert math.isclose(report.rhs, math.exp(0.25 * 9 / 8), rel_tol=1e-15)
    assert report.holds
    for gamma in (0.1, 1.0, 3.0, 10.0):
        assert mgf_factor_check(-1, "3/2", gamma).holds
