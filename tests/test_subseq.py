"""Walsh pools, the averaging selector and the greedy certificate."""

import operator
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from multsys import (
    OrthogonalSystem,
    as_bounded_system,
    check_orthogonality,
    constant,
    greedy_subsequence,
    make_step,
    merge_selections,
    parseval_select,
    product,
    rademacher,
    rademacher_pool,
    scale,
    selected_family_mu,
    walsh_system,
)
from multsys.errors import (
    BoundViolation,
    CapacityExceeded,
    EmptyCandidates,
    NotOrthogonal,
    OutOfRange,
    TooLarge,
    ValueOutOfBounds,
    WindowExhausted,
)
from multsys import subseq
from multsys.stepfn import int_grid
from multsys.subseq import SLOTS, _l2_sq


def reference_parseval_select(candidates, targets):
    """The selector with one pass per target for each candidate, the oracle
    of the packed pass: norms checked in order, then each |E[f_j phi]| a
    Fraction of its own dot product."""
    _, len_ints, len_den, rows = int_grid(list(candidates) + list(targets))
    T = candidates[0].domain_length
    cand_rows, targ_rows = rows[: len(candidates)], rows[len(candidates):]
    for i, (cv, cd) in enumerate(cand_rows, start=1):
        norm_num = sum(map(operator.mul, map(operator.mul, len_ints, cv), cv))
        if F(norm_num, len_den * cd * cd) > T:
            raise BoundViolation(f"candidate {i} has L2 norm above 1")
    weighted = [list(map(operator.mul, len_ints, tv)) for tv, _ in targ_rows]
    best_pos, best_sum = 0, None
    for pos, (cv, cd) in enumerate(cand_rows):
        total = F(0)
        for (_, td), wrow in zip(targ_rows, weighted):
            raw = sum(map(operator.mul, cv, wrow))
            if raw:
                total += abs(F(raw, len_den * cd * td))
        if best_sum is None or total < best_sum:
            best_pos, best_sum = pos, total
    return best_pos, best_sum / T


def random_step(rng, length, value):
    """A function on [0, length) cut at 1-5 random points of a random
    denominator, so its pieces are unequal, with values drawn by value()."""
    den = rng.choice([7, 12, 30, 97])
    cuts = sorted(rng.sample(range(1, den), rng.randint(1, 5)))
    grid = [F(0), *(F(c, den) * length for c in cuts), length]
    return make_step(grid, [value() for _ in range(len(grid) - 1)])


def norm_at_most_one(f):
    """f halved until its L2 norm is at most 1; a value may stay above 1."""
    while _l2_sq(f) > 1:
        f = scale(f, F(1, 2))
    return f


def random_selection(rng, n_targets):
    length = rng.choice([F(1), F(5, 2)])

    def small():
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 10]))

    def wide():
        return F(rng.randint(-9999, 9999), rng.choice([1, 7, 100, 997]))

    candidates = [norm_at_most_one(random_step(rng, length, small))
                  for _ in range(rng.randint(1, 6))]
    targets = [random_step(rng, length, wide) for _ in range(n_targets)]
    targets.append(constant(0, length))
    # dot products at the Cauchy-Schwarz bound, of both signs
    k = rng.randrange(len(candidates))
    targets += [scale(candidates[k], F(7919, 3)), scale(candidates[k], -5003)]
    rng.shuffle(targets)
    return candidates, targets


def test_the_packed_pass_matches_one_pass_per_target_on_random_pools():
    rng = random.Random(2020)
    nonzero = 0
    for _ in range(60):
        candidates, targets = random_selection(rng, rng.randint(0, 4))
        got = parseval_select(candidates, targets, assume_orthogonal=True)
        assert got == reference_parseval_select(candidates, targets)
        nonzero += got[1] != 0
    assert nonzero >= 50


def test_the_packed_pass_matches_the_reference_over_several_slot_groups():
    rng = random.Random(2021)
    for n_targets in (SLOTS - 3, SLOTS - 2, 2 * SLOTS + 5):
        candidates, targets = random_selection(rng, n_targets)
        assert len(targets) > SLOTS - 1
        got = parseval_select(candidates, targets, assume_orthogonal=True)
        assert got == reference_parseval_select(candidates, targets)


def test_a_candidate_above_norm_one_is_refused_as_by_the_reference():
    rng = random.Random(2022)
    for _ in range(20):
        candidates, targets = random_selection(rng, 2)
        k = rng.randrange(len(candidates))
        candidates[k] = scale(constant(1, candidates[k].domain_length), F(1001, 1000))
        with pytest.raises(BoundViolation) as want:
            reference_parseval_select(candidates, targets)
        with pytest.raises(BoundViolation) as got:
            parseval_select(candidates, targets, assume_orthogonal=True)
        assert str(got.value) == str(want.value)


def test_greedy_refusals_name_pool_indices_and_a_direct_call_its_own():
    r1, r2 = rademacher(1), rademacher(2)
    twin = OrthogonalSystem(functions=(r1, r2, r2), sup_bound=F(1), certified_orthogonal=False)
    with pytest.raises(NotOrthogonal, match="^functions 2 and 3 are not orthogonal$"):
        greedy_subsequence(twin, rho=2, steps=1)
    with pytest.raises(NotOrthogonal, match="^functions 1 and 2 are not orthogonal$"):
        parseval_select([r2, r2], [r1])
    loud = OrthogonalSystem(
        functions=(r1, r2, scale(rademacher(3), 2)), sup_bound=F(1), certified_orthogonal=True
    )
    with pytest.raises(BoundViolation, match="^candidate 3 has L2 norm above 1$"):
        greedy_subsequence(loud, rho=2, steps=1)
    with pytest.raises(BoundViolation, match="^candidate 2 has L2 norm above 1$"):
        parseval_select(loud.functions[1:], [r1], assume_orthogonal=True)


def _no_product(fs):
    raise AssertionError("a refused selection multiplied functions")


def test_an_exhausted_window_is_refused_before_any_product(monkeypatch):
    """walsh:10 holds 1,024 functions, so rho == 2 reaches step 10 and no
    eleventh window: the run is refused before any function is scaled or
    multiplied, with the message the step itself would have given."""
    pool = walsh_system(10)
    monkeypatch.setattr(subseq, "product", _no_product)
    monkeypatch.setattr(subseq, "_unit_sup", _no_product)
    with pytest.raises(WindowExhausted) as got:
        greedy_subsequence(pool, rho=2, steps=11)
    assert str(got.value) == "step 11 window starts at 2048, past the last index 1024"
    with pytest.raises(WindowExhausted, match="^step 2 window starts at 9, past the last index 4$"):
        greedy_subsequence(rademacher_pool(4), rho=3, steps=5)


def test_a_pool_out_of_windows_reports_the_window_before_orthogonality():
    """Functions 2 and 3 are equal, which step 1's window [2, 4) would find;
    with three steps the third window starts past the pool, and that
    refusal, known before any window is read, comes first."""
    r1, r2 = rademacher(1), rademacher(2)
    twin = OrthogonalSystem(
        functions=(r1, r2, r2, rademacher(3)), sup_bound=F(1), certified_orthogonal=False
    )
    with pytest.raises(NotOrthogonal, match="^functions 2 and 3 are not orthogonal$"):
        greedy_subsequence(twin, rho=2, steps=2)
    with pytest.raises(WindowExhausted, match="^step 3 window starts at 8, past the last index 4$"):
        greedy_subsequence(twin, rho=2, steps=3)


def test_walsh_system_is_orthonormal_and_product_closed():
    sys_obj = walsh_system(3)
    assert sys_obj.n == 8
    assert sys_obj.certified_orthogonal
    check_orthogonality(sys_obj.functions)
    for f in sys_obj.functions:
        assert _l2_sq(f) == 1
        assert set(f.values) <= {F(1), F(-1)}
    # masks compose by xor: functions 2 and 3 multiply to function 4
    f = sys_obj.functions
    assert product([f[1], f[2]]) == f[3]
    assert product([f[3], f[5]]) == f[6]


def test_walsh_size_guards():
    assert walsh_system(0).functions[0].values == (F(1),)
    with pytest.raises(TooLarge):
        walsh_system(13)
    with pytest.raises(TooLarge):
        walsh_system(-1)


def test_selector_minimizes_and_breaks_ties_low():
    r1, r2, r3 = rademacher(1), rademacher(2), rademacher(3)
    pos, achieved = parseval_select([r1, r2], [r1])
    assert (pos, achieved) == (1, 0)
    pos, achieved = parseval_select([r2, r3], [r1])
    assert (pos, achieved) == (0, 0)
    pos, achieved = parseval_select([r2], [r1, r2, product([r1, r2])])
    assert pos == 0
    assert achieved == 1


def test_selector_validates_inputs():
    r1, r2 = rademacher(1), rademacher(2)
    with pytest.raises(EmptyCandidates):
        parseval_select([], [r1])
    with pytest.raises(OutOfRange):
        parseval_select([r1], [])
    with pytest.raises(NotOrthogonal):
        parseval_select([r1, r1], [r2])
    with pytest.raises(BoundViolation):
        parseval_select([scale(r1, 2)], [r2], assume_orthogonal=True)


def test_greedy_on_walsh_finds_a_multiplicative_family():
    cert = greedy_subsequence(walsh_system(6), rho=2, steps=3)
    assert cert.chosen_indices == (1, 2, 4, 8)
    assert cert.windows == ((2, 4), (4, 8), (8, 16))
    assert cert.per_step_sum == (F(0), F(0), F(0))
    assert cert.per_step_bound_sq == (F(1, 2), F(9, 4), F(49, 8))
    assert all(cert.threshold_ok)
    assert cert.mu_total == 0
    assert selected_family_mu(walsh_system(6), cert.chosen_indices) == 0
    js = cert.to_json()
    assert js["chosen_indices"] == [1, 2, 4, 8]
    assert js["per_step_sum"] == ["0", "0", "0"]
    assert js["mu_total"] == "0"
    assert js["windows"] == [[2, 4], [4, 8], [8, 16]]
    assert js["per_step_bound"][0]["approx"] is True


def test_greedy_respects_step_bounds():
    cert = greedy_subsequence(walsh_system(6), rho=2, steps=3)
    for s, b_sq in zip(cert.per_step_sum, cert.per_step_bound_sq):
        assert s * s <= b_sq


def test_greedy_extends_its_targets_from_step_to_step(monkeypatch):
    calls = []

    def counted(fs):
        calls.append(len(fs))
        return product(fs)

    monkeypatch.setattr(subseq, "product", counted)
    greedy_subsequence(walsh_system(6), rho=2, steps=3)
    # a squared norm for each of the 7 targets, and the 4 products of two or more
    assert len(calls) == 11


def test_greedy_matches_a_rebuild_of_every_target_on_random_pools():
    rng = random.Random(2001)
    grid = [F(i, 8) for i in range(9)]
    values = [F(v, 2) for v in range(-4, 5)]
    nonzero = 0
    for _ in range(10):
        pool = OrthogonalSystem(
            functions=tuple(
                make_step(grid, [rng.choice(values) for _ in range(8)]) for _ in range(15)
            ),
            sup_bound=F(2),
            # random functions are not orthogonal; trusting the flag skips that
            # check, and the step sums come out nonzero
            certified_orthogonal=True,
        )
        cert = greedy_subsequence(pool, rho=2, steps=3)
        funcs = [scale(f, F(1, 2)) for f in pool.functions]
        for m, (lo, hi) in enumerate(cert.windows, start=1):
            targets = [
                product([funcs[i - 1] for i in sub])
                for size in range(1, m + 1)
                for sub in combinations(cert.chosen_indices[:m], size)
            ]
            candidates = funcs[lo - 1 : hi - 1]
            pos, achieved = parseval_select(candidates, targets, assume_orthogonal=True)
            nonzero += achieved != 0
            assert cert.chosen_indices[m] == lo + pos
            assert cert.per_step_sum[m - 1] == achieved
            norm_mass = sum(map(_l2_sq, targets), F(0))
            assert cert.per_step_bound_sq[m - 1] == len(targets) * norm_mass / len(candidates)
    assert nonzero >= 20


def test_greedy_scales_by_the_sup_bound():
    pool = OrthogonalSystem(
        functions=tuple(scale(rademacher(k), 2) for k in range(1, 5)),
        sup_bound=F(2),
        certified_orthogonal=True,
    )
    cert = greedy_subsequence(pool, rho=2, steps=1)
    assert cert.chosen_indices == (1, 2)
    assert cert.mu_total == 0
    assert selected_family_mu(pool, cert.chosen_indices) == 0


def test_greedy_guards():
    pool = rademacher_pool(3)
    with pytest.raises(OutOfRange):
        greedy_subsequence(pool, rho=1, steps=1)
    with pytest.raises(OutOfRange):
        greedy_subsequence(pool, rho=2, steps=0)
    with pytest.raises(CapacityExceeded):
        greedy_subsequence(pool, rho=2, steps=17)
    with pytest.raises(WindowExhausted):
        greedy_subsequence(pool, rho=2, steps=2)
    with pytest.raises(EmptyCandidates):
        greedy_subsequence(
            OrthogonalSystem(functions=(), sup_bound=F(1), certified_orthogonal=True)
        )
    with pytest.raises(BoundViolation):
        greedy_subsequence(
            OrthogonalSystem(
                functions=(rademacher(1),) * 3,
                sup_bound=F(0),
                certified_orthogonal=True,
            ),
            rho=2,
            steps=1,
        )


def test_merge_recomputes_cross_products():
    sys_obj = walsh_system(6)
    first = greedy_subsequence(sys_obj, rho=2, steps=2)
    second = greedy_subsequence(sys_obj, rho=3, steps=2)
    assert first.chosen_indices == (1, 2, 4)
    assert second.chosen_indices == (1, 3, 9)
    merged = merge_selections(sys_obj, first, second)
    assert merged["indices"] == (1, 2, 3, 4, 9)
    assert merged["certified_separately"] == 0
    # functions 2, 3, 4 multiply to the constant, with or without function 1
    assert merged["mu"] == 2
    assert merged["mu"] == selected_family_mu(sys_obj, merged["indices"])


def test_a_pool_above_its_own_sup_bound_is_refused():
    pool = walsh_system(2)
    loose = OrthogonalSystem(
        functions=tuple(scale(f, 2) for f in pool.functions),
        sup_bound=F(1),
        certified_orthogonal=True,
    )
    with pytest.raises(ValueOutOfBounds):
        selected_family_mu(loose, [1, 2, 3])


def test_rademacher_pool_and_bounded_view():
    pool = rademacher_pool(4)
    assert pool.n == 4
    assert pool.sup_bound == 1
    with pytest.raises(TooLarge):
        rademacher_pool(21)
    with pytest.raises(TooLarge):
        rademacher_pool(0)
    sys_obj = as_bounded_system(walsh_system(2))
    assert sys_obj.n == 4
    assert set(sys_obj.lower_bounds) == {F(-1)}
    assert set(sys_obj.upper_bounds) == {F(1)}
