"""The multsys benchmark.

    python3 perfbench/run.py --workload {startup,grid,battery} --seed N \
        --seconds S --trace {0,1}

Run from a checkout: the program is the checkout's src/multsys.  With
--trace 0 the run measures what a user waits for: CLI ops are separate
interpreters timed from spawn to exit, battery ops are library calls in
this process.  With --trace 1 the same ops run in this process, each once
plain and once under tracing wrappers, and the run reports per-layer self
times and counters per op.  Ops come in blocks (battery passes, CLI
rounds) that each run every op of the run once, and a run ends on the
block boundary nearest to --seconds of op time.

Every op's result is checked against golden.json.  The next-to-last line
of stdout is the full record (environment, every metric, failures); the
last line is {"correct", "attempted", "failed", "metrics"} with the
metrics BENCHMARK.json lists for the trace mode.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as w  # noqa: E402

SETUP_REPEATS = 9
PROBE_REPEATS = 5
P90_MIN_SAMPLES = 100
OUT = BENCH / "out"

# set-up of the battery: a fresh interpreter imports multsys and builds
# the first pass of seeded inputs
BATTERY_SETUP = (
    "import sys; sys.path.insert(0, {bench!r}); import multsys, workloads; "
    "workloads.battery_pass({seed}, 0)"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t)"
)


# ------------------------------------------------------------------ environment

def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if there is one; never a parent's."""
    git = w.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def inputs_digest(keys: list[str]) -> str:
    """Fingerprint of the op inputs a run used; it changes with the seed."""
    return w.sha256("\n".join(keys).encode())


# ------------------------------------------------------------------ op streams

def op_stream(workload: str, seed: int):
    """Endless blocks of ops: battery passes or CLI rounds."""
    if workload == "battery":
        number = 0
        while True:
            yield w.battery_pass(seed, number)
            number += 1
    else:
        yield from w.cli_rounds(workload, seed)


def run_over(op_s: float, block_s: float, seconds: int) -> bool:
    """True at the block boundary nearest to `seconds` of op time, taking
    the next block to last as long as the one just run."""
    return op_s + block_s / 2 >= seconds


def key_of(op) -> str:
    return op.key if isinstance(op, w.Item) else op


def attempt(fn, *args):
    """(result, None), or (None, the traceback) when fn raised: a failed op."""
    try:
        return fn(*args), None
    except Exception:
        return None, traceback.format_exc(limit=-3)


# ------------------------------------------------------------------ untraced run

def setup_cli(golden: dict, failures: list) -> float:
    res = w.run_cli(w.WARMUP, timeout=60.0)
    err = w.check_cli(res.code, res.stdout, golden, w.WARMUP)
    if err:
        failures.append({"op": "setup " + w.WARMUP, "error": err})
    return res.seconds


def setup_battery(seed: int, failures: list) -> float:
    res = w.run_child(["-c", BATTERY_SETUP.format(bench=str(BENCH), seed=seed)], timeout=120.0)
    if res.code != 0:
        failures.append({"op": "setup", "error": res.stderr.decode()[-500:]})
    return res.seconds


def timed_run(args, golden: dict) -> dict:
    """One set-up before the first timed op, the other SETUP_REPEATS - 1
    spread evenly over the run's op time; setup_s is their median, so
    machine noise at the start weighs no more than anywhere else."""
    failures: list[dict] = []
    battery = args.workload == "battery"
    if battery:
        def set_up() -> float:
            return setup_battery(args.seed, failures)
    else:
        def set_up() -> float:
            return setup_cli(golden, failures)
        timeout = w.CLI_TIMEOUT_S[args.workload]
    setup = [set_up()]
    latencies: list[float] = []
    rss: list[float] = []
    keys: list[str] = []
    attempted = failed = 0
    busy = 0.0
    for block in op_stream(args.workload, args.seed):
        block_start = busy
        for op in block:
            keys.append(key_of(op))
            attempted += 1
            if battery:
                start = time.perf_counter()
                result, err = attempt(w.run_item, op)
                seconds = time.perf_counter() - start
                err = err or w.check_item(op, result, golden)
            else:
                res = w.run_cli(op, timeout)
                seconds = res.seconds
                rss.append(res.max_rss_mb)
                err = w.check_cli(res.code, res.stdout, golden, op)
            busy += seconds
            if err:
                failed += 1
                failures.append({"op": key_of(op), "error": err})
            else:
                latencies.append(seconds)
            while len(setup) < SETUP_REPEATS and busy >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(set_up())
        if run_over(busy, busy - block_start, args.seconds):
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(set_up())
    if battery:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    lat = sorted(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_per_s": ((attempted - failed) / busy, "1/s"),
        "latency_p50_s": (statistics.median(lat) if lat else None, "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "error_rate": (failed / attempted, "ratio"),
        "latency_p90_s": (
            statistics.quantiles(lat, n=10)[8] if len(lat) >= P90_MIN_SAMPLES else None,
            "s",
        ),
    }
    return {
        "metrics": metrics,
        "samples": {"ops": attempted, "latencies": len(lat), "setups": len(setup),
                    "p90_min_samples": P90_MIN_SAMPLES},
        "attempted": attempted,
        "failed": failed,
        "setup_ok": not any(f["op"].startswith("setup") for f in failures),
        "failures": failures,
        "inputs_sha256": inputs_digest(keys),
        "busy_s": busy,
        "setup_samples_s": setup,
    }


# ------------------------------------------------------------------ traced run

def probe_cli() -> dict[str, float]:
    """Interpreter start and import costs, each the median of fresh children."""
    start = [w.run_child(["-c", "pass"], timeout=60.0).seconds for _ in range(PROBE_REPEATS)]

    def import_time(module: str) -> float:
        samples = []
        for _ in range(PROBE_REPEATS):
            res = w.run_child(["-c", IMPORT_PROBE.format(module=module)], timeout=60.0)
            if res.code != 0:
                raise RuntimeError(f"import {module} failed: {res.stderr.decode()[-500:]}")
            samples.append(float(res.stdout))
        return statistics.median(samples)

    return {
        "process_start_s": statistics.median(start),
        "import_s": import_time("multsys.cli"),
        "import_numpy_s": import_time("numpy"),
    }


def cli_in_process(argv: list[str]) -> tuple[int | None, bytes]:
    from multsys import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8")


def traced_run(args, golden: dict) -> dict:
    import multsys  # noqa: F401
    import multsys.cli  # noqa: F401

    probes = probe_cli()
    tracer = tracing.Tracer()
    battery = args.workload == "battery"
    plain_s = traced_s = 0.0
    keys: list[str] = []
    failures: list[dict] = []
    attempted = failed = 0

    def execute(op, traced: bool):
        fn = w.run_item if battery else cli_in_process
        arg = op if battery else w.cli_argv(op)
        if not traced:
            start = time.perf_counter()
            result, err = attempt(fn, arg)
            return time.perf_counter() - start, result, err
        tracer.install()
        try:
            start = time.perf_counter()
            result, err = attempt(tracer.run_op, attempted, fn, arg)
            seconds = time.perf_counter() - start
        finally:
            tracer.uninstall()
        return seconds, result, err

    def check(op, result) -> str | None:
        if battery:
            return w.check_item(op, result, golden)
        return w.check_cli(result[0], result[1], golden, op)

    for block in op_stream(args.workload, args.seed):
        block_start = plain_s + traced_s
        for op in block:
            keys.append(key_of(op))
            # alternate which execution goes first, so warm caches favour neither
            order = (False, True) if attempted % 2 == 0 else (True, False)
            errors = []
            for traced in order:
                seconds, result, err = execute(op, traced)
                err = err or check(op, result)
                if traced:
                    traced_s += seconds
                    if err:
                        tracer.fail_op()
                else:
                    plain_s += seconds
                if err:
                    errors.append(err)
            attempted += 1
            if errors:
                failed += 1
                failures.append({"op": key_of(op), "error": errors[0]})
        op_s = plain_s + traced_s
        if run_over(op_s, op_s - block_start, args.seconds):
            break

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans_json(), fh)
    start_import = 0.0 if battery else probes["process_start_s"] + probes["import_s"]
    metrics = layer_metrics(tracer, attempted, probes, traced_s / plain_s, start_import)
    return {
        "metrics": metrics,
        "samples": {"ops": attempted, "spans": len(tracer.spans)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "inputs_sha256": inputs_digest(keys),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans_file": str(spans_file.relative_to(w.ROOT)),
    }


# ------------------------------------------------------------------ per-layer metrics

SELF_GROUPS = (
    "stepfn.common_refinement", "stepfn.construct", "stepfn.linear_combination",
    "stepfn.product", "stepfn.measure_above", "stepfn.convex_expectation", "stepfn.other",
    "moments.compute_moment_table", "moments.enumerate_family",
    "reduction.reduce_to_independent", "reduction.extend_system", "reduction.binarize",
    "reduction.check_independence", "reduction.verify_domination",
    "subseq.walsh_system", "subseq.parseval_select", "subseq.greedy_subsequence",
    "subseq.selected_family_mu", "subseq.check_orthogonality",
    "inequalities.hoeffding_tail", "inequalities.verify_khintchine",
    "lacunary.truncated_mu",
    "rubinshtein.build_phi", "rubinshtein.dilated_system", "rubinshtein.verify_rubinshtein",
)
CALL_GROUPS = (
    "stepfn.common_refinement", "stepfn.construct", "stepfn.linear_combination",
    "stepfn.product", "stepfn.convex_expectation", "moments.compute_moment_table",
    "reduction.reduce_to_independent", "reduction.extend_system", "reduction.binarize",
    "reduction.check_independence", "reduction.verify_domination",
    "subseq.parseval_select", "inequalities.hoeffding_tail",
    "inequalities.verify_khintchine", "lacunary.truncated_mu",
)
COUNTERS = (
    "stepfn.common_refinement.pieces_out", "stepfn.linear_combination.pieces",
    "moments.compute_moment_table.subsets", "moments.compute_moment_table.pieces",
    "reduction.extend_system.blocks", "reduction.check_independence.subsets",
    "lacunary.truncated_mu.subsets",
)


def layer_metrics(tracer, ops: int, probes: dict, overhead: float, start_import: float) -> dict:
    """Per-layer numbers of a traced run, per op unless the unit says otherwise.

    A layer's share is its self time over one op's whole time, which for a
    CLI op includes interpreter start and import (start_import).
    """
    wall, cpu, calls = tracer.self_times()
    count = tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for group in CALL_GROUPS:
        m[f"{group}.calls"] = (calls.get(group, 0) / ops, "count/op")
    for group in SELF_GROUPS:
        m[f"{group}.self_s"] = (wall.get(group, 0.0) / ops, "s/op")
    for name in COUNTERS:
        m[name] = (count[name] / ops, "count/op")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tables = calls.get("moments.compute_moment_table", 0)
    pieces = count["moments.compute_moment_table.pieces"]
    m["stepfn.convex_expectation.exact_share"] = (
        ratio(count["stepfn.convex_expectation.exact"], calls.get("stepfn.convex_expectation", 0)),
        "ratio",
    )
    m["moments.compute_moment_table.pattern_ratio"] = (
        ratio(count["moments.compute_moment_table.patterns"], pieces), "ratio")
    m["moments.compute_moment_table.pieces_per_table"] = (ratio(pieces, tables), "count")
    m["reduction.xi_pieces_max"] = (count["reduction.xi_pieces_max"], "count")
    for name, value in probes.items():
        m[f"cli.{name}"] = (value, "s")
    m["cli.parse_s"] = (wall.get("cli.parse", 0.0) / ops, "s/op")
    m["cli.emit_s"] = (wall.get("cli.emit", 0.0) / ops, "s/op")
    op_total = start_import + sum(wall.values()) / ops
    for layer in tracing.LAYERS:
        own = [g for g in wall if g.partition(".")[0] == layer]
        self_s = sum(wall[g] for g in own) / ops
        m[f"{layer}.self_s"] = (self_s, "s/op")
        m[f"{layer}.cpu_s"] = (sum(cpu[g] for g in own) / ops, "s/op")
        m[f"{layer}.ops_failed"] = (tracer.failures.get(layer, 0), "count")
        m[f"{layer}.share"] = (ratio(self_s, op_total), "ratio")
    m["cli.start_import_share"] = (ratio(start_import, op_total), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.ops"] = (ops, "count")
    return m


# ------------------------------------------------------------------ entry

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="multsys benchmark")
    parser.add_argument("--workload", required=True, choices=("startup", "grid", "battery"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def declared_metrics(trace: int) -> list[str]:
    with open(BENCH.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (w.SRC / "multsys" / "__init__.py").is_file():
        print(f"error: no multsys package under {w.SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MULTSYS_PIECE_CAP", None)
    sys.path.insert(0, str(w.SRC))
    golden = w.load_golden()
    names = declared_metrics(args.trace)
    record = environment(args)
    result = traced_run(args, golden) if args.trace else timed_run(args, golden)
    record["loadavg_after"] = list(os.getloadavg())
    metrics = result.pop("metrics")
    record.update(result)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"record": record}))
    summary = {
        "correct": result["failed"] == 0 and result.get("setup_ok", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: record["metrics"][name] for name in names},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
