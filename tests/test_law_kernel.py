"""One tally of length by value: stepfn._law and the code that must use it.

Every law the package reads (a function's law of values, a system's joint
law of value patterns, the law of a sum, a marginal of the joint law) is
the lengths of pieces summed by value.  stepfn._law is the one function
that does that sum, and stepfn._mass_where the one reader of the length
where a law's values exceed or equal a level.  The guard below parses the
package source, not imports it, and finds every function that adds into
a dict it made itself as {} or dict(), in either form: d[k] += w, or
d[k] = d.get(k, 0) + w (or d[k] + w).  Only _law may do so.  Updates of a
list held in a dict, such as lattice_sums's folded vectors, are no tally
of length by value and stay legal.
"""

import ast
import operator
from fractions import Fraction as F
from pathlib import Path

import pytest

from multsys.stepfn import _law, _mass_where, make_step, measure_above, measure_equal

SRC = Path(__file__).resolve().parent.parent / "src" / "multsys"


def _made_empty(value):
    """Whether value is {} or dict() with no arguments."""
    if isinstance(value, ast.Dict):
        return not value.keys
    return (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id == "dict" and not value.args and not value.keywords
    )


def _item_of(node, made):
    """The name of the dict in made that node subscripts, else None."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id if node.value.id in made else None
    return None


def _reads(node, name):
    """Whether node reads dict name by d[k] or d.get(...)."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id == name
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
    )


def tallies(tree):
    """(function, line) of every add into a dict the function made as {} or dict()."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        made = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _made_empty(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                made.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                if _item_of(node.target, made):
                    found.add((fn.name, node.lineno))
            elif (
                isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Add)
            ):
                for target in node.targets:
                    name = _item_of(target, made)
                    if name and (_reads(node.value.left, name) or _reads(node.value.right, name)):
                        found.add((fn.name, node.lineno))
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_law_kernel_tallies_length_by_value(path):
    names = [name for name, _ in tallies(ast.parse(path.read_text(encoding="utf-8")))]
    if path.name == "stepfn.py":
        assert names == ["_law"]  # the scan sees the one tally
    else:
        assert names == [], f"{path.name} tallies into its own dict in {names}"


TALLIES = {
    "inplace": "def f(ks, ws):\n    d = {}\n    for k, w in zip(ks, ws):\n        d[k] += w\n",
    "get": "def f(ks, ws):\n    d: dict = dict()\n    for k, w in zip(ks, ws):\n"
           "        d[k] = d.get(k, 0) + w\n",
    "reread": "def f(ks, ws):\n    d = {}\n    for k, w in zip(ks, ws):\n"
              "        d[k] = w + d[k]\n",
}


@pytest.mark.parametrize("form", TALLIES)
def test_the_guard_sees_every_form_of_a_tally(form):
    assert tallies(ast.parse(TALLIES[form])) == [("f", 4)]


def test_the_guard_leaves_list_updates_and_foreign_dicts_alone():
    source = (
        "def f(keys, ws, given):\n"
        "    state = {}\n"
        "    for k, w in zip(keys, ws):\n"
        "        old = state.get(k)\n"
        "        old[0] += w\n"
        "        given[k] += w\n"
        "        state[k] = [w] + [w]\n"
    )
    assert tallies(ast.parse(source)) == []


def test_the_law_sums_lengths_by_key_in_order_of_first_appearance():
    law = _law(["b", "a", "b", "c", "a"], [1, 2, 3, 4, 5])
    assert law == {"b": 4, "a": 7, "c": 4}
    assert list(law) == ["b", "a", "c"]
    assert _law((), ()) == {}
    assert _law([(1, -1), (1, -1)], iter([2, 3])) == {(1, -1): 5}


def test_the_superlevel_reader_compares_values_as_ints():
    # values 3/4, -1/4, 3/4, 1/2 over q == 4 on lengths 1, 2, 3, 4 over d == 10
    law = _law([3, -1, 3, 2], [1, 2, 3, 4])
    assert _mass_where(law, 4, 10, operator.gt, F(1, 2)) == F(4, 10)
    assert _mass_where(law, 4, 10, operator.gt, F(-1, 3)) == 1
    assert _mass_where(law, 4, 10, operator.eq, F(1, 2)) == F(4, 10)
    assert _mass_where(law, 4, 10, operator.eq, F(1, 3)) == 0
    f = make_step(["0", "1/10", "3/10", "6/10", "1"], ["3/4", "-1/4", "3/4", "1/2"])
    assert measure_above(f, F(1, 2)) == F(4, 10)
    assert measure_equal(f, F(1, 2)) == F(4, 10)
