"""Reflection generators and their dyadic dilate systems."""

from fractions import Fraction as F

import pytest

from multsys import (
    ConvexSpec,
    IndexFamily,
    build_phi,
    constant,
    dilated_system,
    evaluate,
    make_step,
    multiplicative_error,
    reflect,
    verify_rubinshtein,
)
from multsys.errors import OutOfRange, TooLarge, WrongDomain

SEED = make_step([0, "1/8", "1/4"], [1, "-1/2"])


def test_reflect_mirrors_about_the_midpoint():
    f = make_step([0, "1/3", 1], [1, 2])
    r = reflect(f)
    assert r.breakpoints == (F(0), F(2, 3), F(1))
    assert r.values == (F(2), F(1))
    assert reflect(r) == f


def test_build_phi_extends_with_signs_plus_plus_minus_minus():
    gen = build_phi(SEED)
    assert gen.phi.breakpoints == tuple(F(k, 8) for k in range(9))
    assert gen.phi.values == (
        F(1), F(-1, 2), F(-1, 2), F(1), F(-1), F(1, 2), F(1, 2), F(-1),
    )
    assert gen.seed == SEED


def test_quarter_boundaries_survive_even_for_constant_seeds():
    gen = build_phi(constant(1, F(1, 4)))
    assert gen.phi.breakpoints == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    assert gen.phi.values == (F(1), F(1), F(-1), F(-1))


def test_build_phi_rejects_wrong_seed_domain():
    with pytest.raises(WrongDomain):
        build_phi(constant(1, F(1, 2)))


def test_phi_is_antiperiodic():
    gen = build_phi(SEED)
    for k in range(8):
        x = F(k, 16)
        assert evaluate(gen.phi, x + F(1, 2)) == -evaluate(gen.phi, x)


def test_dilates_are_exactly_multiplicative():
    gen = build_phi(SEED)
    sys_obj = dilated_system(gen, 4)
    assert sys_obj.n == 4
    assert set(sys_obj.lower_bounds) == {F(-1)}
    assert set(sys_obj.upper_bounds) == {F(1)}
    mu, table = multiplicative_error(sys_obj, IndexFamily.full())
    assert mu == 0
    assert len(table.subsets) == 2**4 - 1
    assert all(m == 0 for m in table.moments)


def test_dilated_system_guards_and_zero_seed():
    gen = build_phi(SEED)
    with pytest.raises(TooLarge):
        dilated_system(gen, 13)
    with pytest.raises(TooLarge):
        dilated_system(gen, -1)
    zero = dilated_system(build_phi(constant(0, F(1, 4))), 2)
    assert set(zero.lower_bounds) == {F(-1)}
    assert set(zero.upper_bounds) == {F(1)}


def test_verify_runs_the_full_battery():
    report = verify_rubinshtein(SEED, 3)
    assert report.n == 3
    assert report.mu == 0
    assert report.multiplicative
    assert report.domination.exact
    assert report.domination.holds
    assert report.domination.lhs == F(285, 32)
    assert report.domination.rhs == 21
    assert report.tail.exact_measure == F(3, 16)
    assert report.tail.mu == 0
    assert report.tail.holds
    js = report.to_json()
    assert js["mu"] == "0"
    assert js["multiplicative"] is True
    assert js["domination"]["lhs"] == "285/32"
    assert js["tail"]["exact_measure"] == "3/16"


def test_verify_merges_its_system_once(monkeypatch):
    from multsys import stepfn

    original, merged = stepfn._align, []

    def counted(fs):
        merged.append(tuple(fs))
        return original(fs)

    monkeypatch.setattr(stepfn, "_align", counted)
    verify_rubinshtein(SEED, 3)
    # the input moment table's merge; the domination sides and the tail read
    # the merged grids the system and xi hold
    assert [len(fs) for fs in merged] == [3]


def test_verify_with_custom_family_coeffs_and_integrand():
    report = verify_rubinshtein(
        SEED, 2, l=2, coeffs=[F(1), F(-1, 2)], lam="1/2",
        phi_spec=ConvexSpec.exp(1.0),
    )
    assert not report.domination.exact
    assert report.domination.holds
    assert report.tail.exact_measure == F(1, 4)
    assert report.tail.holds


def test_verify_rejects_zero_dilates():
    with pytest.raises(OutOfRange):
        verify_rubinshtein(SEED, 0)
