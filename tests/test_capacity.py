"""One writer of the capacity refusal: errors.beyond_cap.

A cap is where a valid input stops, so its refusal says which stage
stopped, what it needed and the cap it crossed, in one template:
"<what> needs <need> <unit>, beyond the cap of <cap>".  errors.beyond_cap
is the one function that builds a CapacityExceeded.  The guard below
parses the package source, not imports it, and finds every call of
CapacityExceeded and every raise of the bare class; only beyond_cap may
hold one.  The table checks each refusal's text, one case per stage, and
the README test runs the refusals README quotes, so the quotes cannot
drift from the program.
"""

import ast
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from multsys import stepfn
from multsys.cli import main
from multsys.errors import CapacityExceeded, _guard_subsets
from multsys.lacunary import TERM_CAP, geometric_spec, quadrature_product_integral, truncated_mu
from multsys.moments import BoundedSystem, IndexFamily, enumerate_family, symmetric_system
from multsys.reduction import extend_system, reduce_to_independent
from multsys.stepfn import (
    ConvexSpec, StepFunction, common_refinement, concat_many, exact_phi_integral, make_step,
    rademacher, tile,
)
from multsys.subseq import OrthogonalSystem, greedy_subsequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "multsys"
DATA = Path(__file__).resolve().parent / "data"


class _Builders(ast.NodeVisitor):
    """(function, line) of every CapacityExceeded built, by the innermost
    function around it ("<module>" outside any)."""

    def __init__(self) -> None:
        self.scope = ["<module>"]
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if _names_the_class(node.func):
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)

    def visit_Raise(self, node):
        if node.exc is not None and _names_the_class(node.exc):  # raise of the bare class
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def _names_the_class(node):
    return (
        isinstance(node, ast.Name) and node.id == "CapacityExceeded"
        or isinstance(node, ast.Attribute) and node.attr == "CapacityExceeded"
    )


def builders(tree):
    visitor = _Builders()
    visitor.visit(tree)
    return visitor.found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_beyond_cap_builds_a_capacity_error(path):
    names = [name for name, _ in builders(ast.parse(path.read_text(encoding="utf-8")))]
    if path.name == "errors.py":
        assert names == ["beyond_cap"]  # the scan sees the one writer
    else:
        assert names == [], f"{path.name} builds CapacityExceeded in {names}"


# each builds its error on line 3, in the function named
BUILDS = {
    "call": ("def f(n):\n    if n:\n        raise CapacityExceeded(f'{n} pieces')\n", "f"),
    "attribute": ("def f(n):\n    if n:\n        raise errors.CapacityExceeded('n')\n", "f"),
    "bare": ("def f(n):\n    if n:\n        raise CapacityExceeded\n", "f"),
    "returned": ("def g(n):\n    def h():\n        return CapacityExceeded(n)\n    return h\n",
                 "h"),
}


@pytest.mark.parametrize("form", BUILDS)
def test_the_guard_sees_every_form_of_a_capacity_error(form):
    source, function = BUILDS[form]
    assert builders(ast.parse(source)) == [(function, 3)]


def test_the_guard_leaves_handlers_and_annotations_alone():
    source = (
        "def f(x) -> CapacityExceeded:\n"
        "    try:\n"
        "        return beyond_cap('x', 2, 1)\n"
        "    except CapacityExceeded as exc:\n"
        "        raise exc\n"
    )
    assert builders(ast.parse(source)) == []


# ------------------------------------------------------------------ one case per stage

F3 = StepFunction((F(0), F(1, 3), F(1)), (F(1), F(2)))
G2 = StepFunction((F(0), F(1, 2), F(1)), (F(3), F(-1)))
EXTENDED = symmetric_system([make_step([0, F(1, 3), 1], [1, -1]),
                             make_step([0, F(1, 2), 1], [1, -1])])
LACUNARY = geometric_spec(8, 1.3, 8)
FULL = IndexFamily.full()
NO_FUNCTIONS = OrthogonalSystem(functions=(), sup_bound=F(1), certified_orthogonal=True)

# (piece cap or None for the default, call, the refusal's text); a call
# takes the dependent_system fixture.  The quadrature's failure to converge
# names a float estimate, so tests/test_lacunary.py matches its text
REFUSALS = {
    "constructor": (3, lambda _: StepFunction((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
                                              (1, 2, 3, 4)),
                    "a step function needs 4 pieces, beyond the cap of 3"),
    "merge": (2, lambda _: common_refinement([F3, G2]),
              "a merge of 2 functions needs 3 pieces, beyond the cap of 2"),
    "concatenation": (3, lambda _: concat_many([F3, G2]),
                      "a concatenation of 2 functions needs 4 pieces, beyond the cap of 3"),
    "tile": (5, lambda _: tile(F3, 3),
             "a concatenation of 3 functions needs 6 pieces, beyond the cap of 5"),
    "builtin": (None, lambda _: rademacher(21),
                "rademacher(21) needs 2**21 pieces, beyond the cap of 1048576"),
    "extension": (5, lambda _: extend_system(EXTENDED, FULL),
                  "the extension needs 6 merged pieces, beyond the cap of 5"),
    # the extension's merged grid holds 48 pieces; binarizing function 3
    # would make 109, where functions 1 and 2 made 63 and 85
    "binarize": (100, lambda made: reduce_to_independent(BoundedSystem.from_json(made(4)), FULL),
                 "binarize at function 3 needs 109 pieces, beyond the cap of 100"),
    "family": (None, lambda _: enumerate_family(20000, FULL),
               "a family over 1..20000 up to size 20000 needs at least 200010000 subsets, "
               "beyond the cap of 4194304"),
    "frequencies": (None, lambda _: geometric_spec(3, 1, TERM_CAP + 1),
                    "geometric_spec needs 4194305 frequencies, beyond the cap of 4194304"),
    "terms": (None, lambda _: truncated_mu(geometric_spec(3, 1, 15), 15),
              "truncated_mu over 15 frequencies up to size 15 needs at least 4275509 terms, "
              "beyond the cap of 4194304"),
    "panels": (None, lambda _: quadrature_product_integral(LACUNARY, (8,), max_panels=1000),
               "the quadrature needs 681575 panels, beyond the cap of 1000"),
    "power bits": (None,
                   lambda _: exact_phi_integral({1: 1}, 1 << 13285, 1, ConvexSpec.power(1024)),
                   "power 1024 of 13286-bit values needs 13604864 bits, "
                   "beyond the cap of 1048576"),
    "products": (None, lambda _: greedy_subsequence(NO_FUNCTIONS, 2, 17),
                 "greedy_subsequence needs 2**17 products per step, beyond the cap of 2**16"),
}


@pytest.mark.parametrize("stage", REFUSALS)
def test_each_refusal_names_its_stage_and_the_count(monkeypatch, dependent_system, stage):
    cap, call, text = REFUSALS[stage]
    if cap is not None:
        monkeypatch.setattr(stepfn, "PIECE_CAP", cap)
    with pytest.raises(CapacityExceeded) as refused:
        call(dependent_system)
    assert str(refused.value) == text


# ------------------------------------------------------------------ truncated_mu's terms

def test_the_term_counter_admits_a_count_equal_to_the_cap():
    # the subsets of 1..5 expand to (3**5 - 1) / 2 = 121 harmonic terms
    _guard_subsets(5, 5, 121, "five", harmonics=True)
    with pytest.raises(CapacityExceeded) as refused:
        _guard_subsets(5, 5, 120, "five", harmonics=True)
    assert str(refused.value) == "five needs at least 121 terms, beyond the cap of 120"


def test_fourteen_frequencies_fit_the_term_cap_and_fifteen_do_not():
    _guard_subsets(14, 14, TERM_CAP, harmonics=True)  # 2,391,484 terms
    with pytest.raises(CapacityExceeded):
        _guard_subsets(15, 15, TERM_CAP, harmonics=True)  # 7,174,453 terms


def test_a_lacunary_family_past_the_term_cap_exits_two_at_once(capsys):
    """4,194,303 subsets, admitted when subsets were counted, but
    (3**22 - 1) / 2 terms: refused after the counts of seven sizes."""
    start = time.perf_counter()
    code = main(["lacunary", "--lam", "3", "--tau1", "1", "--n", "22", "--nu-max", "22"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: truncated_mu over 22 frequencies up to size 22 needs at least 13788940 terms, "
        "beyond the cap of 4194304\n"
    )
    assert elapsed < 1.0


# ------------------------------------------------------------------ README's quotes

def _refusal(argv, cap=None):
    """The stderr of the CLI call argv in a fresh interpreter, under the
    piece cap cap when one is given."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MULTSYS_PIECE_CAP", None)
    if cap is not None:
        env["MULTSYS_PIECE_CAP"] = cap
    probe = f"import sys\nfrom multsys.cli import main\nsys.exit(main({argv!r}))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout) == (2, "")
    return out.stderr


def test_the_refusals_readme_quotes_are_the_programs(tmp_path):
    # a value of 4,000 digits: its 1024th power would need about 13.6 million bits
    big = 10**3999 + 7
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "functions": [{"breakpoints": ["0", "1/3", "1"],
                       "values": [f"1/{big}", f"-1/{2 * big}"]}],
        "lower_bounds": ["-1"], "upper_bounds": ["1"],
    }))
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    for argv, cap in [
        (["analyze", "--system", "walsh:12"], None),
        (["reduce", "--system", str(DATA / "off_unit_system.json")], "3"),
        (["reduce", "--system", str(path), "--phi", "power:1024"], None),
    ]:
        err = _refusal(argv, cap)
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"`{err.rstrip()}`" in readme, f"README does not quote {err!r}"
