"""Cancellation blocks, extension, binarization, independence, domination."""

import pickle
import random
import sys
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    StepFunction,
    binarize,
    check_independence,
    compute_moment_table,
    constant,
    convex_expectation,
    dilate,
    extend_system,
    flip_cancellation_system,
    integral,
    linear_combination,
    make_step,
    mixed_moment,
    product,
    rademacher,
    reduce_to_independent,
    symmetric_system,
    verify_domination,
    verify_khintchine,
    verify_rubinshtein,
    walsh_cancellation_system,
)
from multsys import moments, reduction, stepfn
from multsys.stepfn import int_grid
from multsys.errors import (
    BadArity,
    CapacityExceeded,
    LengthMismatch,
    NonZeroMean,
    NotTwoValued,
    TraceMismatch,
)

FULL = IndexFamily.full()
# every stage built with no re-validation is rebuilt through the validating constructor
pytestmark = pytest.mark.usefixtures("validated_stages")


def assert_cancellation_invariants(fns):
    nu = len(fns)
    full = product(fns)
    assert set(full.values) == {F(1)}
    for size in range(1, nu):
        for subset in combinations(range(nu), size):
            assert integral(product([fns[i] for i in subset])) == 0


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_walsh_blocks_cancel(nu):
    fns = walsh_cancellation_system(nu)
    assert all(f.piece_count == 1 << (nu - 1) for f in fns)
    assert_cancellation_invariants(fns)


@pytest.mark.parametrize("nu", [2, 3])
def test_flip_blocks_cancel(nu):
    fns = flip_cancellation_system(nu)
    assert all(f.piece_count == 1 << ((1 << nu) - 2) for f in fns)
    assert_cancellation_invariants(fns)


def test_flip_two_functions_match_known_pattern():
    f1, f2 = flip_cancellation_system(2)
    assert f1.values == (F(1), F(-1), F(-1), F(1))
    assert f2.values == (F(1), F(-1), F(-1), F(1))


def test_cancellation_size_guards():
    with pytest.raises(BadArity):
        walsh_cancellation_system(1)
    with pytest.raises(BadArity):
        flip_cancellation_system(1)
    with pytest.raises(CapacityExceeded):
        flip_cancellation_system(5)


@pytest.mark.parametrize(
    "build, nu, message",
    [
        (flip_cancellation_system, 15, "flip_cancellation_system(15) needs 2**(2**15 - 2)"),
        (flip_cancellation_system, 64, "flip_cancellation_system(64) needs 2**(2**64 - 2)"),
        (walsh_cancellation_system, 20000, "walsh_cancellation_system(20000) needs 2**19999"),
    ],
)
def test_a_cancellation_system_past_the_cap_is_refused_from_its_exponent(build, nu, message):
    """The refusal reads nu alone: no 2**(2**nu - 2) is built and no count
    too long to print is formatted."""
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded) as refused:
        build(nu)
    assert time.perf_counter() - start < 0.1
    assert str(refused.value) == f"{message} pieces, beyond the cap of {stepfn.PIECE_CAP}"


def test_extension_leaves_multiplicative_systems_alone():
    sys_obj = symmetric_system([rademacher(1), rademacher(2)])
    assert extend_system(sys_obj, FULL) is sys_obj


def test_extension_kills_selected_moments():
    r1 = rademacher(1)
    sys_obj = symmetric_system([r1, r1])
    extended = extend_system(sys_obj, FULL)
    assert extended.domain_length == 2  # mu is 1, so the domain doubles
    for s in ((1,), (2,), (1, 2)):
        assert mixed_moment(extended, s) == 0


def test_extend_system_alone_refuses_a_merged_grid_past_the_cap(monkeypatch):
    # blocks (1,) and (1, 2) after the 3 merged pieces: 5 pieces per function, 6 merged
    f = make_step([0, F(1, 3), 1], [1, -1])
    g = make_step([0, F(1, 2), 1], [1, -1])
    sys_obj = symmetric_system([f, g])
    monkeypatch.setattr(stepfn, "PIECE_CAP", 6)
    assert [h.piece_count for h in extend_system(sys_obj, FULL).functions] == [5, 5]
    monkeypatch.setattr(stepfn, "PIECE_CAP", 5)
    with pytest.raises(
        CapacityExceeded, match="^the extension needs 6 merged pieces, beyond the cap of 5$"
    ):
        extend_system(sys_obj, FULL)


@pytest.mark.parametrize("nu", range(1, 13))
def test_walsh_sign_rows_repeat_blocks_of_ones_and_minus_ones(nu):
    # the per-element bit test the rows were once built with
    pieces = 1 << (nu - 1)
    rows = [
        tuple(1 if (i >> (nu - 1 - k)) & 1 == 0 else -1 for i in range(pieces))
        for k in range(1, nu)
    ]
    last = (1,) * pieces
    for row in rows:
        last = tuple(a * b for a, b in zip(last, row))
    assert reduction._walsh_signs(nu) == [*rows, last]


@pytest.mark.parametrize("n, below", [(14, None), (5, 1)])
def test_an_extension_past_the_cap_is_refused_before_any_row(
    monkeypatch, dependent_system, n, below
):
    """At the default cap the 14-function system's extension needs 2,344,231
    merged pieces; the 5-function one is refused by a cap one below its
    count, as a system of 15 or 16 functions is at the default cap.  After
    the input table no sign row and no function is built."""
    sys_obj = BoundedSystem.from_json(dependent_system(n))
    table = compute_moment_table(sys_obj, FULL)
    pieces = len(int_grid(sys_obj.functions)[1]) + sum(
        1 << (len(s) - 1) for s, m in zip(table.subsets, table.moments) if m
    )
    cap = stepfn.DEFAULT_PIECE_CAP if below is None else pieces - below
    monkeypatch.setattr(stepfn, "PIECE_CAP", cap)
    assert pieces > cap
    calls = []
    tabulate = reduction.compute_moment_table
    signs = reduction._walsh_signs
    from_ints = StepFunction._from_ints.__func__
    monkeypatch.setattr(
        reduction, "compute_moment_table", lambda *a: calls.append("table") or tabulate(*a)
    )
    monkeypatch.setattr(reduction, "_walsh_signs", lambda nu: calls.append("signs") or signs(nu))
    monkeypatch.setattr(
        StepFunction, "_from_ints", classmethod(lambda *a: calls.append("ints") or from_ints(*a))
    )
    message = f"^the extension needs {pieces} merged pieces, beyond the cap of {cap}$"
    with pytest.raises(CapacityExceeded, match=message):
        reduce_to_independent(sys_obj, FULL)
    with pytest.raises(CapacityExceeded, match=message):
        reduction._extend(sys_obj, table)
    assert calls[calls.index("table"):] == ["table"]
    assert below is not None or pieces == 2344231


def test_binarize_splits_a_constant_at_three_quarters():
    sys_obj = symmetric_system([constant("1/2")])
    out = binarize(sys_obj).functions[0]
    assert out.breakpoints == (F(0), F(3, 4), F(1))
    assert out.values == (F(1), F(-1))


def test_binarize_respects_asymmetric_bounds():
    f = constant(0)
    sys_obj = BoundedSystem((f,), (F(-2),), (F(1),))
    out = binarize(sys_obj).functions[0]
    # mean zero needs measure 1/3 at value -2 against 2/3 at value 1
    assert out.values == (F(1), F(-2))
    assert out.breakpoints == (F(0), F(2, 3), F(1))


def test_binarize_preserves_moments_on_random_systems():
    rng = random.Random(404)
    for _ in range(10):
        n = rng.randint(1, 4)
        fns = []
        for _ in range(n):
            pieces = rng.randint(1, 5)
            cuts = sorted(rng.sample(range(1, 32), pieces - 1))
            bps = [F(0)] + [F(c, 32) for c in cuts] + [F(1)]
            vals = [F(rng.randint(-4, 4), 4) for _ in range(pieces)]
            fns.append(StepFunction(tuple(bps), tuple(vals)))
        sys_obj = BoundedSystem(
            tuple(fns),
            tuple(min(min(f.values), F(-1, 4)) for f in fns),
            tuple(max(max(f.values), F(1, 4)) for f in fns),
        )
        before = compute_moment_table(sys_obj, FULL)
        after = compute_moment_table(binarize(sys_obj), FULL)
        assert before.moments == after.moments


def test_binarize_is_idempotent():
    sys_obj = symmetric_system([constant("1/2"), rademacher(1)])
    once = binarize(sys_obj)
    twice = binarize(once)
    assert once == twice


def test_duplicated_pair_reduces_to_independent_signs():
    r1 = rademacher(1)
    trace = reduce_to_independent(symmetric_system([r1, r1]), FULL)
    assert trace.mu == 1
    assert trace.xi.domain_length == 1
    assert trace.moment_tables["xi"].mu() == 0
    report = check_independence(trace.xi, FULL)
    assert report.independent
    assert report.marginals == (F(1, 2), F(1, 2))


def test_pipeline_is_idempotent_on_its_own_output():
    r1 = rademacher(1)
    trace = reduce_to_independent(symmetric_system([r1, r1]), FULL)
    again = reduce_to_independent(trace.xi, FULL)
    assert again.mu == 0
    assert again.xi == trace.xi


def test_independence_checker_rejects_bad_inputs():
    with pytest.raises(NotTwoValued):
        check_independence(symmetric_system([constant("1/2")]), FULL)
    skew = make_step([0, "1/4", 1], [1, -1])
    with pytest.raises(NonZeroMean):
        check_independence(symmetric_system([skew]), FULL)


def test_independence_checker_flags_dependence():
    r1 = rademacher(1)
    report = check_independence(symmetric_system([r1, r1]), FULL)
    assert not report.independent
    assert report.failing == ((1, 2),)


def test_domination_is_tight_for_the_duplicated_pair():
    sys_obj = symmetric_system([rademacher(1), rademacher(1)])
    report = verify_domination(sys_obj, FULL, [1, 1], ConvexSpec.power(4))
    assert report.exact and report.holds
    assert report.lhs == 16 and report.rhs == 16


def test_domination_survives_float_integrands():
    sys_obj = symmetric_system([rademacher(1), rademacher(1)])
    report = verify_domination(sys_obj, FULL, [1, 1], ConvexSpec.exp(1.0))
    assert not report.exact
    assert report.holds


def test_trace_serialization_shape():
    trace = reduce_to_independent(symmetric_system([rademacher(1)]), FULL)
    obj = trace.to_json()
    assert obj["mu"] == "0"
    assert set(obj["moment_tables"]) == {"input", "extended", "binarized", "xi"}


# ------------------------------------------------------------------ one histogram per stage

def battery_shaped_system():
    """Three criterion-2-shaped steps on 1/64 grids, with mu != 0."""
    return BoundedSystem(
        (
            make_step([0, "5/64", "23/64", "41/64", 1], ["3/4", -1, "1/2", "-1/4"]),
            make_step([0, "17/64", "1/2", 1], [-2, "5/4", "1/4"]),
            make_step([0, "9/64", "33/64", "59/64", 1], ["1/2", "-3/2", 1, "-1/4"]),
        ),
        (F(-1), F(-2), F(-3, 2)),
        (F(3, 4), F(5, 4), F(1)),
    )


def test_the_stage_oracle_sees_every_trusted_stage(validated_stages):
    before = len(validated_stages)
    trace = reduce_to_independent(battery_shaped_system(), FULL)
    stages = (trace.extended, trace.binarized, trace.xi)
    assert len(validated_stages) == before + len(stages)
    assert all(s is t for s, t in zip(validated_stages[before:], stages))


def count_calls(monkeypatch, module, name):
    """Count calls of module.name from every multsys namespace that holds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "multsys" or mod_name.startswith("multsys."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def count_merges(monkeypatch):
    """The function lists merged onto one grid (stepfn._align), in call order."""
    original = stepfn._align
    merged = []

    def counted(fs, *only):
        merged.append(tuple(fs))
        return original(fs, *only)

    monkeypatch.setattr(stepfn, "_align", counted)
    return merged


def test_a_battery_op_merges_each_stage_once_and_builds_no_combination(monkeypatch):
    sys_obj = battery_shaped_system()
    coeffs = [F(3, 4), F(-1, 2), 2]
    merges = count_merges(monkeypatch)
    histograms = count_calls(monkeypatch, moments, "pattern_measure")
    combinations_built = count_calls(monkeypatch, stepfn, "linear_combination")
    trace = reduce_to_independent(sys_obj, FULL)
    assert trace.mu != 0
    # the extension, binarize and dilation write every later stage's grid
    assert merges == [sys_obj.functions]
    assert len(histograms) == 3  # input, extended, binarized
    power4 = verify_domination(sys_obj, FULL, coeffs, ConvexSpec.power(4), trace=trace)
    assert power4.exact and power4.holds
    exp1 = verify_domination(sys_obj, FULL, coeffs, ConvexSpec.exp(1.0), trace=trace)
    assert not exp1.exact and exp1.holds
    assert check_independence(trace.xi, FULL).independent
    assert compute_moment_table(trace.xi, FULL) == trace.moment_tables["xi"]
    # both domination checks read the merged grids and histograms the reduction made
    assert merges == [sys_obj.functions]
    assert len(histograms) == 3
    assert combinations_built == []


def law(hist):
    """A value-pattern histogram as pattern -> length, whatever its denominator."""
    mass, den, dens = hist
    return {key: F(w, den) for key, w in mass.items()}, dens


def test_every_stage_histogram_is_a_cached_law_outside_identity(monkeypatch):
    sys_obj = battery_shaped_system()
    trace = reduce_to_independent(sys_obj, FULL)
    stages = (sys_obj, trace.extended, trace.binarized, trace.xi)
    fresh = [law(moments.pattern_measure(int_grid(stage.functions))) for stage in stages]
    merges = count_merges(monkeypatch)
    for stage, want in zip(stages, fresh):
        assert law(stage.histogram) == want
        assert stage.histogram is stage.histogram and stage.grid is stage.grid
        with pytest.raises(TypeError):
            stage.histogram[0][next(iter(stage.histogram[0]))] = 0
    assert merges == []  # the reduction merged or seeded every grid
    for stage in stages:
        plain = BoundedSystem(stage.functions, stage.lower_bounds, stage.upper_bounds)
        assert "histogram" not in vars(plain) and "grid" not in vars(plain)
        assert plain == stage and hash(plain) == hash(stage)
        assert repr(plain) == repr(stage)
        assert "histogram" not in repr(stage) and "grid" not in repr(stage)
        assert plain.to_json() == stage.to_json()
        assert pickle.dumps(stage) == pickle.dumps(plain)
        copy = pickle.loads(pickle.dumps(stage))
        assert copy == stage and "histogram" not in vars(copy) and "grid" not in vars(copy)
    assert merges == []
    assert law(copy.histogram) == fresh[-1] and merges == [copy.functions]


def test_a_histogram_cannot_be_handed_to_a_system():
    s = symmetric_system([rademacher(1)] * 2)
    other = int_grid([rademacher(1), rademacher(2)])
    with pytest.raises(TypeError):
        BoundedSystem(s.functions, s.lower_bounds, s.upper_bounds,
                      histogram=moments.pattern_measure(other))
    with pytest.raises(TypeError):
        BoundedSystem(s.functions, s.lower_bounds, s.upper_bounds, grid=other)


def test_a_multiplicative_input_shares_its_histogram_with_the_extended_stage(monkeypatch):
    sys_obj = symmetric_system([rademacher(1), rademacher(2)])
    merges = count_merges(monkeypatch)
    tables = count_calls(monkeypatch, moments, "moment_table")
    trace = reduce_to_independent(sys_obj, FULL)
    assert trace.mu == 0 and trace.extended is sys_obj
    # the input, also the extended stage, is the one merge; binarize writes its own grid
    assert merges == [sys_obj.functions]
    assert len(tables) == 2  # input (also the extended stage), binarized
    assert trace.moment_tables["extended"] is trace.moment_tables["input"]


def test_a_trace_of_another_system_or_family_is_refused():
    sys_obj = battery_shaped_system()
    trace = reduce_to_independent(sys_obj, FULL)
    other = symmetric_system([rademacher(1), rademacher(2), rademacher(1)])
    phi = ConvexSpec.power(4)
    with pytest.raises(TraceMismatch):
        verify_domination(other, FULL, [1, 1, 1], phi, trace=trace)
    with pytest.raises(TraceMismatch):
        verify_domination(sys_obj, IndexFamily.cardinality_cap(2), [1, 1, 1], phi, trace=trace)
    # an equal system and an equal family, given another way, are the same reduction
    twin = BoundedSystem(sys_obj.functions, sys_obj.lower_bounds, sys_obj.upper_bounds)
    explicit = IndexFamily.explicit([[1, 2, 3], [1], [2, 3], [2], [1, 3], [3], [1, 2]])
    again = verify_domination(twin, explicit, [1, 1, 1], phi, trace=trace)
    assert again == verify_domination(sys_obj, FULL, [1, 1, 1], phi)


@pytest.mark.parametrize("phi", [ConvexSpec.power(4), ConvexSpec.exp(1.0)])
def test_a_wrong_coefficient_count_is_still_a_length_mismatch(phi):
    sys_obj = battery_shaped_system()
    trace = reduce_to_independent(sys_obj, FULL)
    with pytest.raises(LengthMismatch, match="^2 coefficients for 3 functions$"):
        verify_domination(sys_obj, FULL, [1, 1], phi, trace=trace)


def test_even_mode_khintchine_reads_the_histogram_of_the_multiplicativity_check(monkeypatch):
    sys_obj = BoundedSystem(
        tuple(dilate(rademacher(k), F(2, 5)) for k in (1, 2, 3)),
        (F(-1),) * 3,
        (F(1),) * 3,
    )
    coeffs = [F(1), F(-2), F(3, 4)]
    oracle = convex_expectation(linear_combination(coeffs, sys_obj.functions),
                                ConvexSpec.power(6)) / sys_obj.domain_length
    merges = count_merges(monkeypatch)
    combinations_built = count_calls(monkeypatch, stepfn, "linear_combination")
    report = verify_khintchine(sys_obj, coeffs, 6, mode="even_integer")
    assert report.exact and report.holds
    assert report.lhs_pth_power == oracle
    assert merges == [sys_obj.functions] and combinations_built == []


def test_rubinshtein_runs_one_reduction(monkeypatch):
    seed = make_step([0, "1/12", "1/6", "1/4"], [1, "-1/2", "3/4"])
    builds = count_calls(monkeypatch, moments, "pattern_measure")
    tables = count_calls(monkeypatch, moments, "compute_moment_table")
    report = verify_rubinshtein(seed, 3)
    assert report.multiplicative and report.domination.holds and report.tail.holds
    assert len(builds) <= 2 and len(tables) <= 3
