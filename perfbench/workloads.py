"""Workload inputs, the ops that run them, and their correctness checks.

Three closed-loop workloads, one client each:

- startup: short CLI calls covering all seven subcommands.  Most of an
  op is interpreter start plus ``import multsys``, so lazy imports and
  CLI plumbing move it while kernel work should not.
- grid: CLI calls on large dyadic grids where mu is supplied or unused.
  Fraction compares and products in refinement, validation and linear
  combination dominate, and the moment code sits idle.
- battery: an in-process library loop over criterion-2-shaped random
  systems and criterion-11-shaped reflection-generator systems.  Moment
  tables and the reduction dominate, on many small step functions.

Ops come in blocks, and a run ends on a block boundary.  The seed picks
the run's ops once: one variant of each CLI subcommand family, or one
coefficient vector per battery pool system.  Every block then runs all
of them once, in an order the seed draws anew for each block: a CLI
round or a battery pass.  So every block of a run is the same work, and
seeds differ only in order and in variants that cost the same.
The battery pool is fixed, and criterion-11 systems have at most four
dilates, because a few five-dilate systems cost seconds each and would
otherwise set the cost of a pass alone.

Every op result is checked against golden digests made by the code at
the commit that added the benchmark (see make_golden.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"

# the console script `multsys` runs exactly this
CLI_ENTRY = "import sys; from multsys.cli import main; sys.exit(main())"

STARTUP = {
    "analyze": (
        "analyze --system rademacher:4",
        "analyze --system rademacher:5 --family l=2",
        "analyze --system walsh:3",
        "analyze --system rubinshtein:3:step:1,-1/2",
    ),
    "reduce": (
        "reduce --system rubinshtein:3:step:1,-1/2",
        "reduce --system rubinshtein:3:step:1/2,-1",
        "reduce --system rubinshtein:2:step:1,-1/2,3/4",
    ),
    "khintchine": (
        "khintchine --system rademacher:6 -p 4 --mode even_integer",
        "khintchine --system rademacher:5 -p 4 --mode even_integer",
        "khintchine --system rademacher:6 -p 3",
    ),
    "tail": (
        "tail --system rademacher:6 --level 2",
        "tail --system rademacher:6 --level 3/2",
        "tail --system rademacher:5 --level 2",
    ),
    "lacunary": (
        "lacunary --lam 3 --tau1 1.3 --n 8",
        "lacunary --lam 2.5 --tau1 1 --n 8",
        "lacunary --lam 4 --tau1 2 --n 7",
    ),
    "select": (
        "select --system walsh:6 --steps 1",
        "select --system walsh:6 --steps 1 --rho 4",
        "select --system walsh:5 --steps 1",
    ),
    "rubinshtein": (
        "rubinshtein --seed step:1,-1/2 --n 3",
        "rubinshtein --seed step:1/2,-1 --n 3",
        "rubinshtein --seed step:1,1/4,-1 --n 3",
    ),
}

GRID = {
    "tail": (
        "tail --system rademacher:14 --level 3 --mu 0",
        "tail --system rademacher:14 --level 2 --mu 0",
        "tail --system rademacher:14 --level 4 --mu 0",
    ),
    "khintchine": (
        "khintchine --system rademacher:14 -p 3",
        "khintchine --system rademacher:14 -p 5",
        "khintchine --system rademacher:14 -p 3.5",
    ),
    "select": ("select --system walsh:9 --steps 2",),
}

# the untimed warm-up call of the CLI workloads' set-up
WARMUP = "analyze --system rademacher:2"

CLI_WORKLOADS = {"startup": STARTUP, "grid": GRID}
CLI_TIMEOUT_S = {"startup": 30.0, "grid": 60.0}

# battery pool: POOL systems of each kind, VARIANTS coefficient vectors each
KINDS = ("c2", "c11")
POOL = 128
VARIANTS = 4
MAX_DILATES = 4


def cli_argv(op: str) -> list[str]:
    return op.split() + ["--no-meta"]


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: the checkout's src first,
    bytecode caching on, no piece-cap override, fixed hash seed."""
    env = dict(os.environ)
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONPROFILEIMPORTTIME",
                "PYTHONHOME", "MULTSYS_PIECE_CAP"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ CLI ops

def cli_rounds(workload: str, seed: int):
    """Endless rounds of CLI ops: the seed's variant of every family, each
    round in its own seeded order."""
    families = CLI_WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(families[name]) for name in sorted(families)]
    while True:
        rng.shuffle(ops)
        yield list(ops)


@dataclass
class ChildResult:
    seconds: float
    code: int | None  # None after a timeout
    stdout: bytes
    stderr: bytes
    max_rss_mb: float


def run_child(argv: list[str], timeout: float) -> ChildResult:
    """Run one child interpreter, from spawn to exit, with its own rusage.

    os.wait4 reports this child's peak RSS; RUSAGE_CHILDREN would give the
    maximum over every child so far.  A child past its timeout is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        deadline = start + timeout
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(
        seconds=seconds,
        code=None if timed_out else proc.returncode,
        stdout=out,
        stderr=err,
        max_rss_mb=usage.ru_maxrss / 1024.0,
    )


def run_cli(op: str, timeout: float) -> ChildResult:
    return run_child(["-c", CLI_ENTRY, *cli_argv(op)], timeout)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in report")


def check_cli(code: int | None, stdout: bytes, golden: dict, op: str) -> str | None:
    """None when the op succeeded, else why it failed."""
    if code is None:
        return "timeout"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        return f"report is not strict JSON: {exc}"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    want = golden["cli"].get(op)
    if want is None:
        return "no golden digest for this op"
    if sha256(stdout) != want:
        return "stdout differs from the golden digest"
    return None


# ------------------------------------------------------------------ battery

def _criterion2_system(rng: random.Random):
    """Random bounded system shaped like acceptance criterion 2."""
    from multsys import BoundedSystem, make_step

    n = rng.randint(1, 4)
    functions, los, his = [], [], []
    for _ in range(n):
        pieces = rng.randint(1, 8)
        cuts = sorted(rng.sample(range(1, 64), pieces - 1))
        bps = [F(0), *[F(c, 64) for c in cuts], F(1)]
        vals = [F(rng.randint(-8, 8), 4) for _ in range(pieces)]
        functions.append(make_step(bps, vals))
        los.append(min(min(vals), F(-1, 4)))
        his.append(max(max(vals), F(1, 4)))
    return BoundedSystem(tuple(functions), tuple(los), tuple(his))


def _criterion11_system(rng: random.Random):
    """Reflection-generator dilate system shaped like acceptance criterion 11."""
    from multsys import build_phi, dilated_system, make_step

    pieces = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(1, 16), pieces - 1))
    bps = [F(0), *[F(c, 64) for c in cuts], F(1, 4)]
    vals = [F(rng.randint(-8, 8), 4) for _ in range(pieces)]
    return dilated_system(build_phi(make_step(bps, vals)), rng.randint(1, MAX_DILATES))


def build_system(kind: str, index: int):
    rng = random.Random(f"{kind}:{index}")
    return (_criterion2_system if kind == "c2" else _criterion11_system)(rng)


def coefficients(kind: str, index: int, variant: int, n: int) -> list[F]:
    rng = random.Random(f"{kind}:{index}:{variant}")
    return [F(rng.randint(1, 8) * rng.choice((-1, 1)), 4) for _ in range(n)]


@dataclass
class Item:
    kind: str
    index: int
    variant: int
    system: object
    coeffs: list

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.index}:{self.variant}"


def battery_pass(seed: int, number: int) -> list[Item]:
    """Every pool system once, kinds alternating, in an order seeded per
    pass, each with the coefficient vector the seed picked for the run."""
    pick = random.Random(f"battery:{seed}")
    variants = {kind: [pick.randrange(VARIANTS) for _ in range(POOL)] for kind in KINDS}
    rng = random.Random(f"battery:{seed}:{number}")
    orders = {}
    for kind in KINDS:
        order = list(range(POOL))
        rng.shuffle(order)
        orders[kind] = order
    items = []
    for pos in range(POOL):
        for kind in KINDS:
            index = orders[kind][pos]
            variant = variants[kind][index]
            system = build_system(kind, index)
            items.append(Item(kind, index, variant, system,
                              coefficients(kind, index, variant, system.n)))
    return items


def run_item(item: Item):
    """One battery op: reduce, dominate for power:4 and exp:1, check xi.

    Library functions are looked up on their modules at call time so that
    tracing wrappers, when installed, see the calls.
    """
    from multsys import moments, reduction, stepfn

    fam = moments.IndexFamily.full()
    trace = reduction.reduce_to_independent(item.system, fam)
    power4 = reduction.verify_domination(
        item.system, fam, item.coeffs, stepfn.ConvexSpec.power(4), trace=trace
    )
    exp1 = reduction.verify_domination(
        item.system, fam, item.coeffs, stepfn.ConvexSpec.exp(1.0), trace=trace
    )
    independence = reduction.check_independence(trace.xi, fam)
    return trace, power4, exp1, independence


def item_digest(result) -> str:
    """Digest of an item's exact fields.  The float sides of exp:1 stay out,
    per the README precision policy; its flags are in."""
    trace, power4, exp1, independence = result
    doc = {
        "mu": str(trace.mu),
        "tables": {k: t.to_json() for k, t in trace.moment_tables.items()},
        "xi": trace.xi.to_json(),
        "power4": [str(power4.lhs), str(power4.rhs), power4.holds, power4.exact],
        "exp1": [exp1.holds, exp1.exact],
        "independence": [
            independence.independent,
            independence.subsets_checked,
            [str(m) for m in independence.marginals],
        ],
    }
    return sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def check_item(item: Item, result, golden: dict) -> str | None:
    want = golden["battery"][item.kind][item.index][item.variant]
    if item_digest(result) != want:
        return "result differs from the golden digest"
    return None
