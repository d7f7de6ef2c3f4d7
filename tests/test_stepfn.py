"""Exact step function arithmetic."""

import math
from fractions import Fraction as F

import pytest

from multsys import (
    ConvexSpec,
    StepFunction,
    approx_by_steps,
    common_refinement,
    concat,
    constant,
    convex_expectation,
    dilate,
    evaluate,
    integral,
    linear_combination,
    make_step,
    mean,
    measure_above,
    measure_equal,
    normalize,
    product,
    rademacher,
    restrict,
    scale,
    tile,
)
from multsys.errors import (
    CapacityExceeded,
    EmptyDomain,
    LengthMismatch,
    NonAscendingBreakpoints,
    NonPositiveFactor,
    OutOfDomain,
    OutOfRange,
    ParseError,
    UnsortedSamples,
)
from multsys.errors import MAX_DIGITS
from multsys.stepfn import as_fraction, piece_cap


def test_validation_rejects_bad_shapes():
    with pytest.raises(LengthMismatch):
        StepFunction((F(0), F(1)), (F(1), F(2)))
    with pytest.raises(EmptyDomain):
        StepFunction((F(0),), ())
    with pytest.raises(NonAscendingBreakpoints):
        StepFunction((F(1), F(2)), (F(1),))
    with pytest.raises(NonAscendingBreakpoints):
        make_step([0, "1/2", "1/2", 1], [1, 2, 3])


def test_make_step_rejects_floats():
    with pytest.raises(TypeError):
        make_step([0, 0.5, 1], [1, 2])


def test_geometry_and_evaluation():
    f = make_step([0, "1/3", 1], [2, "-1/2"])
    assert f.domain_length == 1
    assert f.piece_count == 2
    assert f.piece_lengths() == (F(1, 3), F(2, 3))
    assert evaluate(f, 0) == 2
    assert evaluate(f, "1/3") == F(-1, 2)
    assert evaluate(f, "99/100") == F(-1, 2)
    with pytest.raises(OutOfDomain):
        evaluate(f, 1)
    with pytest.raises(OutOfDomain):
        evaluate(f, -1)


def test_rademacher_alternates_starting_positive():
    r2 = rademacher(2)
    assert r2.values == (F(1), F(-1), F(1), F(-1))
    assert r2.breakpoints == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    assert mean(r2) == 0
    with pytest.raises(OutOfRange):
        rademacher(0)


def test_rademacher_compares_exponents_before_building_any_piece(monkeypatch):
    monkeypatch.setenv("MULTSYS_PIECE_CAP", "4")
    assert rademacher(2).piece_count == 4
    with pytest.raises(CapacityExceeded, match=r"^2\*\*3 pieces exceed the cap of 4$"):
        rademacher(3)
    monkeypatch.delenv("MULTSYS_PIECE_CAP")
    with pytest.raises(CapacityExceeded, match=r"^2\*\*100000000000 pieces exceed the cap of 1048576$"):
        rademacher(10**11)


def test_refinement_preserves_values_pointwise():
    f = make_step([0, "1/2", 1], [1, 2])
    g = make_step([0, "1/3", 1], [5, 7])
    rf, rg = common_refinement([f, g])
    assert rf.breakpoints == rg.breakpoints == (F(0), F(1, 3), F(1, 2), F(1))
    for x in (F(0), F(1, 4), F(2, 5), F(3, 4)):
        assert evaluate(rf, x) == evaluate(f, x)
        assert evaluate(rg, x) == evaluate(g, x)


def test_product_and_linear_combination():
    r1, r2 = rademacher(1), rademacher(2)
    assert integral(product([r1, r2])) == 0
    s = linear_combination([1, 1], [r1, r2])
    assert s.values == (F(2), F(0), F(0), F(-2))
    assert measure_above(s, 1) == F(1, 4)
    assert measure_above(s, -3) == 1
    assert measure_equal(s, 0) == F(1, 2)
    with pytest.raises(LengthMismatch):
        linear_combination([1], [r1, r2])


def test_dilate_and_tile_round_trip():
    r1 = rademacher(1)
    half = dilate(r1, 2)
    assert half.domain_length == F(1, 2)
    assert tile(half, 2).values == rademacher(2, 1).values
    with pytest.raises(NonPositiveFactor):
        dilate(r1, 0)


def test_concat_handles_empty_operands():
    f = constant(3, "1/2")
    g = constant(-1, "1/2")
    fg = concat(f, g)
    assert fg.values == (F(3), F(-1))
    assert fg.breakpoints == (F(0), F(1, 2), F(1))
    assert concat(None, f) is f
    assert concat(f, None) is f
    with pytest.raises(EmptyDomain):
        concat(None, None)


def test_restrict_is_identity_at_full_length():
    f = make_step([0, "1/4", 1], [1, 2])
    assert restrict(f, 1) is f
    cut = restrict(f, "1/2")
    assert cut.breakpoints == (F(0), F(1, 4), F(1, 2))
    assert cut.values == (F(1), F(2))


def test_restrict_at_an_interior_breakpoint_keeps_the_pieces_before_it():
    f = make_step([0, "1/2", 1], [1, 2])
    cut = restrict(f, "1/2")
    assert cut.breakpoints == (F(0), F(1, 2))
    assert cut.values == (F(1),)
    g = make_step([0, "1/3", "2/3", 1], [1, 2, 3])
    assert restrict(g, "2/3") == make_step([0, "1/3", "2/3"], [1, 2])
    with pytest.raises(OutOfDomain):
        restrict(f, 0)


def test_normalize_is_the_only_coalescing_step():
    f = make_step([0, "1/4", "1/2", 1], [1, 1, 2])
    assert f.piece_count == 3
    g = normalize(f)
    assert g.breakpoints == (F(0), F(1, 2), F(1))
    assert g.values == (F(1), F(2))
    assert normalize(g) == g


def test_convex_expectation_even_power_is_exact():
    s = linear_combination([1, 1], [rademacher(1), rademacher(2)])
    val = convex_expectation(s, ConvexSpec.power(4))
    assert isinstance(val, F) and val == 8
    assert convex_expectation(s, ConvexSpec.abs()) == 1
    hinge = convex_expectation(s, ConvexSpec.hinge_square(1))
    assert hinge == F(1, 4)


def test_convex_expectation_float_paths():
    f = constant(1)
    got = convex_expectation(f, ConvexSpec.exp(2.0))
    assert isinstance(got, float)
    assert math.isclose(got, math.exp(2.0), rel_tol=1e-12)
    frac_pow = convex_expectation(f, ConvexSpec.power(2.5))
    assert isinstance(frac_pow, float) and math.isclose(frac_pow, 1.0)
    with pytest.raises(OutOfRange):
        ConvexSpec.power(0.5)
    with pytest.raises(OutOfRange):
        ConvexSpec.exp(0.0)


def test_scale_and_mean():
    f = make_step([0, "1/2", 1], [1, 3])
    assert mean(f) == 2
    assert mean(scale(f, "-1/2")) == -1


def test_approx_by_steps_backfills_and_validates():
    f = approx_by_steps([(0.25, 1.0), (0.5, -1.0)])
    assert f.breakpoints[0] == 0 and f.breakpoints[-1] == 1
    assert evaluate(f, 0) == 1
    assert evaluate(f, "3/4") == -1
    with pytest.raises(UnsortedSamples):
        approx_by_steps([(0.5, 1.0), (0.25, 2.0)])
    with pytest.raises(OutOfDomain):
        approx_by_steps([(1.5, 1.0)])
    with pytest.raises(EmptyDomain):
        approx_by_steps([])


def test_json_round_trip_is_exact():
    f = make_step([0, "1/3", 1], ["22/7", "-1/3"])
    assert StepFunction.from_json(f.to_json()) == f


@pytest.mark.parametrize("value", [0.1, 1.0, True, False, None])
def test_json_numbers_must_be_integers_or_strings(value):
    with pytest.raises(TypeError, match="expected an exact rational"):
        as_fraction(value)
    with pytest.raises(ParseError, match="expected an exact rational"):
        StepFunction.from_json({"breakpoints": [0, 1], "values": [value]})


def test_a_number_string_is_bounded_by_the_ints_it_builds():
    nines = "9" * MAX_DIGITS
    # each side of p/q, a decimal's mantissa, and its exponent's size count
    assert as_fraction(f"-{nines}/{nines}") == -1
    assert as_fraction(f"1e-{MAX_DIGITS - 1}") == F(1, 10 ** (MAX_DIGITS - 1))
    assert as_fraction(f"0.{'0' * (MAX_DIGITS - 2)}1") == F(1, 10 ** (MAX_DIGITS - 1))
    for text in (f"9{nines}", f"1/9{nines}", f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS + 1}",
                 f"1.{nines}", "1e-99999999", f"1e{nines}"):
        with pytest.raises(OutOfRange, match=f"needs more than {MAX_DIGITS} digits"):
            as_fraction(text)


def test_json_requires_lists_not_strings():
    with pytest.raises(ParseError):
        StepFunction.from_json({"breakpoints": ["0", "1"], "values": "1"})
    with pytest.raises(ParseError):
        StepFunction.from_json({"breakpoints": "01", "values": ["1"]})


@pytest.mark.parametrize("raw", ["abc", "-5", "0", "2.5", ""])
def test_piece_cap_rejects_values_that_are_not_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("MULTSYS_PIECE_CAP", raw)
    with pytest.raises(OutOfRange, match="MULTSYS_PIECE_CAP"):
        piece_cap()


def test_piece_cap_reads_the_environment(monkeypatch):
    monkeypatch.setenv("MULTSYS_PIECE_CAP", "64")
    assert piece_cap() == 64
    monkeypatch.delenv("MULTSYS_PIECE_CAP")
    assert piece_cap() == 1 << 20
