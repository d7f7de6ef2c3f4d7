"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that every run prints each metric BENCHMARK.json declares, by
name and with its unit, on every workload and in both trace modes; that
the full record carries error_rate and latency_p90_s with units; that a
wrong golden digest is counted as a failed op in error_rate; that the
seed changes the inputs and the same seed repeats them; and that a
directory holding only the benchmark fails without printing a result.
The battery pool is cut to a few systems; CLI workloads run one round.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as w  # noqa: E402

WORKLOADS = ("startup", "grid", "battery")
TINY_POOL = 4


def invoke(*argv: str) -> tuple[dict, dict]:
    """Run the benchmark in this process; return (record, result line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    assert code == 0, f"exit code {code} for {argv}"
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(workload: str, trace: int, record: dict, result: dict, spec: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"]), workload
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if not trace:
        for name, unit in (("error_rate", "ratio"), ("latency_p90_s", "s")):
            assert record["metrics"][name]["unit"] == unit, name
        assert record["metrics"]["error_rate"]["value"] == 0.0


def wrong_golden(tmp: Path) -> Path:
    """golden.json with every analyze digest and battery item c2:0 altered."""
    golden = w.load_golden()
    for op in w.STARTUP["analyze"]:
        golden["cli"][op] = "0" * 64
    golden["battery"]["c2"][0] = ["0" * 64] * w.VARIANTS
    path = tmp / "golden.json"
    path.write_text(json.dumps(golden))
    return path


def bare_directory_fails(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "startup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=180,
    )
    assert proc.returncode != 0, "a directory without src/multsys must fail"
    assert b'"correct"' not in proc.stdout, "no result may be printed there"


def main() -> int:
    w.POOL = TINY_POOL
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result = invoke("--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace))
            check_metrics(workload, trace, record, result, spec)
            print(f"PASS {workload} trace={trace}: {len(result['metrics'])} metrics with units")

    with tempfile.TemporaryDirectory() as tmp:
        good, w.GOLDEN = w.GOLDEN, wrong_golden(Path(tmp))
        try:
            for workload in ("startup", "battery"):
                record, result = invoke("--workload", workload, "--seed", "7",
                                        "--seconds", "1", "--trace", "0")
                rate = record["metrics"]["error_rate"]["value"]
                assert result["failed"] > 0 and not result["correct"] and rate > 0, record
                print(f"PASS {workload}: wrong golden digest counted, error_rate={rate:.3f}")
        finally:
            w.GOLDEN = good
        bare_directory_fails(Path(tmp))
        print("PASS a directory with only the benchmark exits nonzero without a result")

    digests = [invoke("--workload", "startup", "--seed", str(s), "--seconds", "1",
                      "--trace", "0")[0]["inputs_sha256"] for s in (1, 2, 1)]
    assert digests[0] == digests[2] != digests[1], digests
    print("PASS the seed changes the inputs and the same seed repeats them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
