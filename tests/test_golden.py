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
    monkeypatch.delenv("MULTSYS_PIECE_CAP", raising=False)
    code = main(op.split() + ["--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == GOLDEN[op]


@pytest.mark.parametrize("op", [variants[0] for variants in STARTUP.values()])
def test_out_file_holds_the_golden_report(capsys, monkeypatch, tmp_path, op):
    monkeypatch.delenv("MULTSYS_PIECE_CAP", raising=False)
    path = tmp_path / "report.json"
    code = main(op.split() + ["--out", str(path), "--no-meta"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert _sha256(path.read_bytes()) == GOLDEN[op]
