"""One writer of the report precision policy: errors.report_value.

Every report keeps exact rationals apart from floats: a Fraction is
written as "p/q" and a float as {"value": ..., "approx": true}.
errors.report_value is the one function that writes either form, and
errors.report_json writes a record's fields through it.  The guard below
parses the package source, not imports it, and finds every dict display
with an "approx" key, and every dict(approx=...) call; only report_value
may hold one.  The CLI test walks one report of each subcommand and
finds every float outside an approx object; only the inputs a report
echoes as given may be raw.
"""

import ast
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from multsys.cli import main
from multsys.errors import frozen, report_json, report_value

SRC = Path(__file__).resolve().parent.parent / "src" / "multsys"
DATA = Path(__file__).resolve().parent / "data"


class _Writers(ast.NodeVisitor):
    """(function, line) of every approx object written, by the innermost
    function around it ("<module>" outside any)."""

    def __init__(self) -> None:
        self.scope = ["<module>"]
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Dict(self, node):
        if any(isinstance(k, ast.Constant) and k.value == "approx" for k in node.keys):
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node):
        if (
            isinstance(node.func, ast.Name) and node.func.id == "dict"
            and any(k.arg == "approx" for k in node.keywords)
        ):
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def approx_writers(tree):
    visitor = _Writers()
    visitor.visit(tree)
    return visitor.found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_report_value_writes_an_approx_object(path):
    names = [name for name, _ in approx_writers(ast.parse(path.read_text(encoding="utf-8")))]
    if path.name == "errors.py":
        assert names == ["report_value"]  # the scan sees the one writer
    else:
        assert names == [], f"{path.name} writes approx objects in {names}"


# each writes its approx object on line 3, in the function named
WRITERS = {
    "field": ("def to_json(self):\n    return {\n"
              "        'rhs': {'value': self.rhs, 'approx': True},\n    }\n", "to_json"),
    "comprehension": ("def to_json(self):\n    return {\n"
                      "        'bound': [{'value': b, 'approx': True} for b in self.bounds],\n"
                      "    }\n", "to_json"),
    "helper": ("def to_json(self):\n    def side(x):\n"
               "        return {'value': x, 'approx': True}\n    return side\n", "side"),
    "call": ("def to_json(self):\n    return {\n"
             "        'x': dict(value=self.x, approx=True),\n    }\n", "to_json"),
}


@pytest.mark.parametrize("form", WRITERS)
def test_the_guard_sees_every_form_of_an_approx_object(form):
    source, function = WRITERS[form]
    assert approx_writers(ast.parse(source)) == [(function, 3)]


def test_the_guard_leaves_other_keys_and_strings_alone():
    source = (
        "def f(x):\n"
        "    note = 'approx'\n"
        "    return {'approximate': x, 'kind': 'approx', **x}\n"
    )
    assert approx_writers(ast.parse(source)) == []


# ------------------------------------------------------------------ the encoder

@frozen
class _Inner:
    x: F

    to_json = report_json


@frozen
class _Record:
    b: float
    a: F
    inner: _Inner
    rows: tuple
    table: dict
    n: int
    ok: bool
    name: str
    none: None

    to_json = report_json


def test_report_value_writes_each_kind_of_value():
    assert report_value(F(-7, 128)) == "-7/128"
    assert report_value(F(3)) == "3"
    assert report_value(0.5) == {"value": 0.5, "approx": True}
    assert report_value((F(1, 2), (1, 2.0))) == ["1/2", [1, {"value": 2.0, "approx": True}]]
    assert report_value({"k": [F(1)]}) == {"k": ["1"]}
    for raw in (3, True, "s", None):
        assert report_value(raw) is raw


def test_report_json_writes_the_fields_in_declaration_order():
    record = _Record(1.5, F(1, 3), _Inner(F(2)), ((1, 2), (3,)), {"t": F(0)}, 4, False, "x", None)
    out = record.to_json()
    assert list(out) == ["b", "a", "inner", "rows", "table", "n", "ok", "name", "none"]
    assert out == {
        "b": {"value": 1.5, "approx": True}, "a": "1/3", "inner": {"x": "2"},
        "rows": [[1, 2], [3]], "table": {"t": "0"}, "n": 4, "ok": False, "name": "x",
        "none": None,
    }


# ------------------------------------------------------------------ CLI reports

# one call of each subcommand, each writing what floats it can
CALLS = {
    "analyze": "analyze --system rademacher:3",
    "reduce": f"reduce --system {DATA / 'off_unit_system.json'} --phi exp:1 --full-trace",
    "khintchine": "khintchine --system rademacher:4 -p 3.5",
    "tail": "tail --system rademacher:4 --level 1",
    "lacunary": "lacunary --lam 3 --tau1 1.3 --n 5 --split-target 10",
    "select": "select --system walsh:4 --steps 1",
    "rubinshtein": "rubinshtein --seed step:1,-1/2 --n 3 --phi exp:1",
}

# the paths that may hold raw floats, beside the config block, which echoes
# the inputs; "*" stands for any list index.  khintchine's p is the order as
# given.  lacunary's split writes each part's tau as config writes the whole
# sequence, and each part's lam raw too, though it is computed: a known
# exception to the policy, not part of it
RAW = {
    "khintchine": {("p",)},
    "lacunary": {("split", "*", "tau", "*"), ("split", "*", "lam")},
}


def floats(node, path=()):
    """(path, labelled) of every float under node, an approx object being
    one labelled float."""
    if isinstance(node, dict) and set(node) == {"value", "approx"}:
        assert node["approx"] is True and type(node["value"]) is float, path
        yield path, True
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from floats(value, (*path, key))
    elif isinstance(node, float):
        yield path, False


@pytest.mark.parametrize("command", CALLS)
def test_every_reported_float_is_labelled_or_an_echo(capsys, command):
    assert main(CALLS[command].split() + ["--no-meta"]) == 0
    found = list(floats(json.loads(capsys.readouterr().out)))
    raw = RAW.get(command, set())
    stray = [
        path for path, labelled in found
        if not labelled and path[:1] != ("config",)
        and tuple("*" if isinstance(k, int) else k for k in path) not in raw
    ]
    assert stray == [], f"{command} writes unlabelled floats at {stray}"
    # every call but analyze computes floats, and writes them labelled
    assert any(labelled for _, labelled in found) == (command != "analyze")
