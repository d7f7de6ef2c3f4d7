"""Only multsys.moments writes a system's cached merged grid or histogram.

BoundedSystem keeps both as caches, filled on first access or seeded by
BoundedSystem._stage in stepfn.int_grid's lowest terms; a writer anywhere
else could hand a system a grid in other terms, or of other functions.
The package source is parsed, not imported, and every way of writing an
attribute named grid or histogram is looked for: an assignment or
deletion of .grid, a store under the key "grid" (vars(sys)["grid"]), an
update(...) or setdefault(...) naming it, and setattr or __setattr__.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multsys"
CACHES = {"grid", "histogram"}


def _names_a_cache(node):
    return isinstance(node, ast.Constant) and node.value in CACHES


def cache_writes(tree):
    """The line of every write of a grid or histogram attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and leaf.attr in CACHES:
                        yield leaf.lineno
                    if isinstance(leaf, ast.Subscript) and _names_a_cache(leaf.slice):
                        yield leaf.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("setattr", "__setattr__", "delattr", "__delattr__"):
                if any(_names_a_cache(arg) for arg in node.args):
                    yield node.lineno
            elif name in ("update", "setdefault", "__setitem__"):
                keys = [k for arg in node.args if isinstance(arg, ast.Dict) for k in arg.keys]
                if (any(kw.arg in CACHES for kw in node.keywords)
                        or any(_names_a_cache(a) for a in [*node.args, *keys])):
                    yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_moments_writes_a_system_cache(path):
    writes = list(cache_writes(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "moments.py":
        assert writes  # the scan sees the one writer
    else:
        assert writes == [], f"{path.name} writes a system's grid or histogram at lines {writes}"
