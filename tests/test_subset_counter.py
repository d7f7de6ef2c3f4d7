"""One count of subsets against a cap: errors._guard_subsets and the code
that must use it.

A family or a truncated sum over the subsets of 1..n with 1..l members
holds sum_v comb(n, v) of them, a number with about n * log10(2) digits
for the full family.  errors._guard_subsets adds the terms only until the
sum passes the cap, so a refusal costs two or three terms and its message
states the cap, not the count.  The guard below parses the package source,
not imports it, and finds every function that hands sum() a generator or
list of comb() calls; none may, since such a sum is the count refused.
A loop that adds comb() terms to a total of its own, such as
inequalities.rademacher_tail_oracle's binomial tail, stays legal.
"""

import ast
import math
from itertools import combinations
from pathlib import Path

import pytest

from multsys import moments
from multsys.errors import CapacityExceeded, _guard_subsets
from multsys.lacunary import TERM_CAP, geometric_spec, truncated_mu
from multsys.moments import FAMILY_CAP, IndexFamily, enumerate_family

SRC = Path(__file__).resolve().parent.parent / "src" / "multsys"


def _calls_comb(node):
    """Whether node calls math.comb or a bare comb."""
    return any(
        isinstance(call, ast.Call) and (
            isinstance(call.func, ast.Name) and call.func.id == "comb"
            or isinstance(call.func, ast.Attribute) and call.func.attr == "comb"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "math"
        )
        for call in ast.walk(node)
    )


def comb_sums(tree):
    """(function, line) of every sum() of a generator or list of comb() calls."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and _calls_comb(node.args[0].elt)
            ):
                found.add((fn.name, node.lineno))
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_sums_every_subset_count(path):
    names = [name for name, _ in comb_sums(ast.parse(path.read_text(encoding="utf-8")))]
    assert names == [], f"{path.name} sums comb() terms in {names}"


SUMS = {
    # the two counts the shared counter replaced, as they were written
    "family": ("def enumerate_family(n, l):\n"
               "    count = sum(math.comb(n, v) for v in range(1, l + 1))\n", "enumerate_family"),
    "truncated": ("def truncated_mu(spec, nu_max):\n"
                  "    count = sum(math.comb(spec.n, v) for v in range(1, nu_max + 1))\n",
                  "truncated_mu"),
    "list": ("def f(n):\n    return sum([comb(n, v) for v in range(n)])\n", "f"),
}


@pytest.mark.parametrize("form", SUMS)
def test_the_guard_sees_a_sum_of_subset_counts(form):
    source, name = SUMS[form]
    assert comb_sums(ast.parse(source)) == [(name, 2)]


def test_the_guard_leaves_a_binomial_loop_and_other_sums_alone():
    source = (
        "def rademacher_tail_oracle(n, level):\n"
        "    total = 0\n"
        "    for k in range(n + 1):\n"
        "        if 2 * k - n > level:\n"
        "            total += math.comb(n, k)\n"
        "    return sum(len(s) for s in range(n)) + sum(math.comb(n, 2), 0)\n"
    )
    assert comb_sums(ast.parse(source)) == []


@pytest.fixture
def comb_calls(monkeypatch):
    """The arguments of every math.comb call from here on."""
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    return calls


@pytest.mark.parametrize("n", [4096, 20000])
def test_a_full_family_past_the_cap_is_refused_after_two_terms(comb_calls, n):
    with pytest.raises(CapacityExceeded) as refused:
        enumerate_family(n, IndexFamily.full())
    assert comb_calls == [(n, 1), (n, 2)]
    message = str(refused.value)
    assert message == (
        f"a family over 1..{n} up to size {n} needs at least {n * (n + 1) // 2} subsets, "
        f"beyond the cap of {FAMILY_CAP}"
    )
    assert len(message) < 100


def test_a_truncated_sum_past_the_cap_is_refused_after_three_terms(comb_calls):
    # 600 frequencies: 600 + 179,700 pairs stay below the cap, the triples pass it
    with pytest.raises(CapacityExceeded) as refused:
        truncated_mu(geometric_spec(2.5, 1.0, 600), 600)
    assert comb_calls == [(600, 1), (600, 2), (600, 3)]
    # 600 + 179,700 * 2 + 35,820,200 * 4 harmonic terms
    assert str(refused.value) == (
        "truncated_mu over 600 frequencies up to size 600 needs at least 143640800 terms, "
        f"beyond the cap of {TERM_CAP}"
    )


def test_the_counter_admits_a_count_equal_to_the_cap():
    _guard_subsets(5, 5, 31)
    _guard_subsets(5, 2, 15)
    with pytest.raises(
        CapacityExceeded, match="^a family over 1..5 up to size 5 needs at least 31 subsets"
    ):
        _guard_subsets(5, 5, 30)
    with pytest.raises(CapacityExceeded, match="needs at least 15 subsets, beyond the cap of 14$"):
        _guard_subsets(5, 2, 14)


def test_admitted_families_enumerate_as_before(monkeypatch):
    for n in range(1, 7):
        for l in range(1, n + 1):
            expected = [s for v in range(1, l + 1) for s in combinations(range(1, n + 1), v)]
            assert enumerate_family(n, IndexFamily.cardinality_cap(l)) == expected
        assert enumerate_family(n, IndexFamily.full()) == expected
    # the cap is read at call time: 31 subsets of 1..5 pass a cap of 31, not one of 30
    monkeypatch.setattr(moments, "FAMILY_CAP", 31)
    assert len(enumerate_family(5, IndexFamily.full())) == 31
    monkeypatch.setattr(moments, "FAMILY_CAP", 30)
    with pytest.raises(
        CapacityExceeded, match="^a family over 1..5 up to size 5 needs at least 31 subsets"
    ):
        enumerate_family(5, IndexFamily.full())
