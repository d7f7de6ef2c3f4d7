"""Every name an annotation in the package uses is bound where it is read.

With postponed evaluation the annotations are strings that nothing checks
until typing.get_type_hints or a type checker reads them against the
module's globals, so a name that is never imported goes unnoticed at run
time.  The package source is parsed, not imported: each name at the root
of an annotation, quoted forward references included, must be bound at
module level (an import, also one under `if TYPE_CHECKING:`, a def, a
class or an assignment) or be a builtin.
"""

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multsys"


def module_bindings(tree):
    """The names bound by the top-level statements of tree, and by those
    inside its top-level if and try blocks."""
    bound = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            todo += node.body + node.orelse
        elif isinstance(node, ast.Try):
            todo += node.body + node.orelse + node.finalbody
            todo += [stmt for handler in node.handlers for stmt in handler.body]
    return bound


def annotations(tree):
    """Every annotation expression in tree: of arguments, returns and
    annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def root_names(annotation):
    """The names an annotation reads from its module, quoted ones parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for name, _ in root_names(ast.parse(node.value, mode="eval")):
                yield name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_annotation_name_is_bound_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    known = module_bindings(tree) | set(dir(builtins))
    unbound = sorted(
        (line, name) for a in annotations(tree) for name, line in root_names(a)
        if name not in known
    )
    assert unbound == [], f"{path.name}: annotation names bound nowhere: {unbound}"
