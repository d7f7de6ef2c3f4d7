"""Walsh pools, the averaging selector and the greedy certificate."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from multsys import (
    OrthogonalSystem,
    as_bounded_system,
    check_orthogonality,
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
from multsys.subseq import _l2_sq


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
