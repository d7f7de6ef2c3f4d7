"""CLI output against the benchmark's golden digests.

Every op of the benchmark's startup workload runs in-process with
--no-meta, and the sha256 of its stdout must equal the digest recorded in
perfbench/golden.json.  Both benchmark files are only read, so any drift
in a report shows up here before the benchmark sees it.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from multsys.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _startup_ops() -> list[str]:
    """The STARTUP table of perfbench/workloads.py, read without importing it."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["STARTUP"]:
            table = ast.literal_eval(node.value)
            return [op for variants in table.values() for op in variants]
    raise LookupError("perfbench/workloads.py defines no STARTUP table")


GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["cli"]


@pytest.mark.parametrize("op", _startup_ops())
def test_startup_op_matches_its_golden_digest(capsys, monkeypatch, op):
    monkeypatch.delenv("MULTSYS_PIECE_CAP", raising=False)
    code = main(op.split() + ["--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[op]
