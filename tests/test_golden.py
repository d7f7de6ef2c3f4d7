"""CLI output and battery results against the benchmark's golden digests.

Every op of the benchmark's startup workload runs in-process with
--no-meta, and the sha256 of its stdout must equal the digest recorded in
perfbench/golden.json.  A slice of the battery pool runs through the
benchmark's own run_item, and each item's digest of exact fields must
equal its recorded one.  The benchmark files are only read, so any drift
in a report or an exact value shows up here before the benchmark sees it.
"""

import ast
import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

from multsys import stepfn
from multsys.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _startup_table() -> dict[str, tuple[str, ...]]:
    """The STARTUP table of perfbench/workloads.py, read without importing it."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["STARTUP"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/workloads.py defines no STARTUP table")


STARTUP = _startup_table()
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["cli"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("op", [op for variants in STARTUP.values() for op in variants])
def test_startup_op_matches_its_golden_digest(capsys, monkeypatch, op):
    monkeypatch.setattr(stepfn, "PIECE_CAP", stepfn.DEFAULT_PIECE_CAP)
    code = main(op.split() + ["--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == GOLDEN[op]


@pytest.mark.parametrize("op", [variants[0] for variants in STARTUP.values()])
def test_out_file_holds_the_golden_report(capsys, monkeypatch, tmp_path, op):
    monkeypatch.setattr(stepfn, "PIECE_CAP", stepfn.DEFAULT_PIECE_CAP)
    path = tmp_path / "report.json"
    code = main(op.split() + ["--out", str(path), "--no-meta"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert _sha256(path.read_bytes()) == GOLDEN[op]


def _workloads() -> types.ModuleType:
    """perfbench/workloads.py as a module, executed from its source text
    (its dataclasses look their module up in sys.modules)."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _workloads()
BATTERY = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["battery"]


@pytest.mark.usefixtures("validated_stages")
@pytest.mark.parametrize("kind", WORKLOADS.KINDS)
@pytest.mark.parametrize("index", range(8))
def test_battery_items_match_their_golden_digests(monkeypatch, kind, index):
    monkeypatch.setattr(stepfn, "PIECE_CAP", stepfn.DEFAULT_PIECE_CAP)
    w = WORKLOADS
    system = w.build_system(kind, index)
    for variant in range(w.VARIANTS):
        item = w.Item(kind, index, variant, system, w.coefficients(kind, index, variant, system.n))
        assert w.item_digest(w.run_item(item)) == BATTERY[kind][index][variant], item.key
