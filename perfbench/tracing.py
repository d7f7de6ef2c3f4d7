"""Span tracing of multsys from outside the package.

A Tracer replaces the public functions of every multsys module with
wrappers that record one span per call: group name, start, end, CPU
start and end, parent span and op id.  Because modules bind each other's
functions with ``from .stepfn import common_refinement``, a wrapper is
installed in every ``multsys.*`` namespace that holds the original
object, otherwise calls from ``moments``, ``reduction`` or ``subseq``
would go unseen.  Methods are replaced on their class.

A group's layer is the part of its name before the first dot, which is
the module name.  Functions not listed here are not spanned; their time
counts as self time of the nearest spanned caller.

Counter hooks run after a span has closed, with tracing paused, and the
clock they consume is subtracted from every later timestamp, so work the
benchmark does to count workload properties is outside every span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = (
    "stepfn",
    "moments",
    "reduction",
    "inequalities",
    "lacunary",
    "subseq",
    "rubinshtein",
    "cli",
)


# ------------------------------------------------------------------ counter hooks
# Each hook gets (tracer, args, kwargs, result) and adds to tracer.counters.


def _refinement_out(tr, args, kwargs, result):
    if result:
        tr.counters["stepfn.common_refinement.pieces_out"] += result[0].piece_count


def _combination_pieces(tr, args, kwargs, result):
    tr.counters["stepfn.linear_combination.pieces"] += result.piece_count


def _convex_exact(tr, args, kwargs, result):
    if isinstance(result, Fraction):
        tr.counters["stepfn.convex_expectation.exact"] += 1


def _moment_table(tr, args, kwargs, result):
    system = args[0] if args else kwargs["sys"]
    tr.counters["moments.compute_moment_table.subsets"] += len(result.subsets)
    if not system.functions:
        return
    refined = tr.module("stepfn").common_refinement(system.functions)
    tr.counters["moments.compute_moment_table.pieces"] += refined[0].piece_count
    patterns = set(zip(*(f.values for f in refined)))
    tr.counters["moments.compute_moment_table.patterns"] += len(patterns)


def _extend_blocks(tr, args, kwargs, result):
    system = args[0] if args else kwargs["sys"]
    fam = args[1] if len(args) > 1 else kwargs["fam"]
    table = tr.module("moments").compute_moment_table(system, fam)
    tr.counters["reduction.extend_system.blocks"] += sum(1 for m in table.moments if m != 0)


def _independence_subsets(tr, args, kwargs, result):
    tr.counters["reduction.check_independence.subsets"] += result.subsets_checked


def _xi_pieces(tr, args, kwargs, result):
    pieces = max((f.piece_count for f in result.xi.functions), default=0)
    key = "reduction.xi_pieces_max"
    tr.counters[key] = max(tr.counters[key], pieces)


def _truncated_subsets(tr, args, kwargs, result):
    tr.counters["lacunary.truncated_mu.subsets"] += len(result.entries)


# ------------------------------------------------------------------ span groups
# (group, module, attributes, hook).  "Class.attr" names a method.

GROUPS = (
    ("stepfn.common_refinement", "multsys.stepfn", ("common_refinement",), _refinement_out),
    ("stepfn.construct", "multsys.stepfn", ("StepFunction.__post_init__",), None),
    ("stepfn.linear_combination", "multsys.stepfn", ("linear_combination",), _combination_pieces),
    ("stepfn.product", "multsys.stepfn", ("product",), None),
    ("stepfn.measure_above", "multsys.stepfn", ("measure_above",), None),
    ("stepfn.convex_expectation", "multsys.stepfn", ("convex_expectation",), _convex_exact),
    (
        "stepfn.other",
        "multsys.stepfn",
        (
            "make_step", "constant", "rademacher", "scale", "integral", "mean",
            "evaluate", "dilate", "concat", "concat_many", "tile", "restrict",
            "normalize", "measure_equal", "approx_by_steps",
            "StepFunction.piece_lengths",
        ),
        None,
    ),
    ("moments.compute_moment_table", "multsys.moments", ("compute_moment_table",), _moment_table),
    ("moments.enumerate_family", "multsys.moments", ("enumerate_family",), None),
    (
        "moments.other",
        "multsys.moments",
        (
            "BoundedSystem.__post_init__", "symmetric_system",
            "mixed_moment", "multiplicative_error", "is_multiplicative",
        ),
        None,
    ),
    ("reduction.reduce_to_independent", "multsys.reduction", ("reduce_to_independent",), _xi_pieces),
    ("reduction.extend_system", "multsys.reduction", ("extend_system",), _extend_blocks),
    ("reduction.binarize", "multsys.reduction", ("binarize",), None),
    ("reduction.check_independence", "multsys.reduction", ("check_independence",), _independence_subsets),
    ("reduction.verify_domination", "multsys.reduction", ("verify_domination",), None),
    (
        "reduction.other",
        "multsys.reduction",
        ("walsh_cancellation_system", "flip_cancellation_system"),
        None,
    ),
    ("inequalities.hoeffding_tail", "multsys.inequalities", ("hoeffding_tail",), None),
    ("inequalities.verify_khintchine", "multsys.inequalities", ("verify_khintchine",), None),
    (
        "inequalities.other",
        "multsys.inequalities",
        (
            "khintchine_constant", "khintchine_constant_variants", "khintchine_even_constant",
            "rademacher_pnorm_oracle", "rademacher_tail_oracle", "mgf_factor_check",
        ),
        None,
    ),
    ("lacunary.truncated_mu", "multsys.lacunary", ("truncated_mu",), _truncated_subsets),
    (
        "lacunary.other",
        "multsys.lacunary",
        (
            "geometric_spec", "explicit_spec", "expand_product", "product_integral",
            "signed_sums", "frequency_range_check", "collection_bound", "global_mu_bound",
            "analytic_tail_bound", "split_for_growth", "quadrature_product_integral",
        ),
        None,
    ),
    ("subseq.walsh_system", "multsys.subseq", ("walsh_system",), None),
    ("subseq.parseval_select", "multsys.subseq", ("parseval_select",), None),
    ("subseq.greedy_subsequence", "multsys.subseq", ("greedy_subsequence",), None),
    ("subseq.selected_family_mu", "multsys.subseq", ("selected_family_mu",), None),
    ("subseq.check_orthogonality", "multsys.subseq", ("check_orthogonality",), None),
    (
        "subseq.other",
        "multsys.subseq",
        ("rademacher_pool", "as_bounded_system", "merge_selections"),
        None,
    ),
    ("rubinshtein.build_phi", "multsys.rubinshtein", ("build_phi",), None),
    ("rubinshtein.dilated_system", "multsys.rubinshtein", ("dilated_system",), None),
    ("rubinshtein.verify_rubinshtein", "multsys.rubinshtein", ("verify_rubinshtein",), None),
    ("rubinshtein.other", "multsys.rubinshtein", ("reflect", "sup_abs"), None),
    (
        "cli.parse",
        "multsys.cli",
        (
            "build_parser", "parse_fraction", "parse_coeffs", "parse_family",
            "parse_phi", "parse_seed", "parse_system", "parse_pool",
        ),
        None,
    ),
    # argparse is not multsys, but main's parse_args call is CLI parsing work
    ("cli.parse", "argparse", ("ArgumentParser.parse_args",), None),
    ("cli.emit", "multsys.cli", ("emit",), None),
    (
        "cli.other",
        "multsys.cli",
        (
            "main", "verdict_exit", "cmd_analyze", "cmd_reduce", "cmd_khintchine",
            "cmd_tail", "cmd_lacunary", "cmd_select", "cmd_rubinshtein",
        ),
        None,
    ),
)

ROOT_GROUP = "bench.op"


def _resolve(owner, dotted):
    """(holder, attribute name) for "name" or "Class.name".

    A listed function that is gone raises, so a rename in multsys fails
    the run instead of reading as a layer whose time dropped to 0.
    """
    head, _, tail = dotted.rpartition(".")
    holder = getattr(owner, head, None) if head else owner
    if holder is None or not hasattr(holder, tail):
        raise AttributeError(
            f"{owner.__name__}.{dotted} is not there; update GROUPS in tracing.py"
        )
    return holder, tail


class Tracer:
    """Spans and counters of one traced run.  Spans stay in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.failures: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._paused = False
        self._excluded = 0.0
        self._excluded_cpu = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._error_layer: dict[int, str] = {}
        self._op_error: str | None = None

    # -- clocks ------------------------------------------------------

    def _now(self) -> tuple[float, float]:
        return time.perf_counter() - self._excluded, time.process_time() - self._excluded_cpu

    @staticmethod
    def module(short: str):
        return sys.modules[f"multsys.{short}"]

    def _run_hook(self, hook, args, kwargs, result) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self._paused = True
        try:
            hook(self, args, kwargs, result)
        finally:
            self._paused = False
            self._excluded += time.perf_counter() - wall
            self._excluded_cpu += time.process_time() - cpu

    # -- wrapping ----------------------------------------------------

    def wrap(self, group: str, fn, hook=None):
        tracer = self
        layer = group.partition(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused or tracer.op < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start, cpu_start = tracer._now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # the innermost span an exception leaves names the failing layer
                tracer._error_layer.setdefault(id(exc), layer)
                tracer._op_error = tracer._error_layer[id(exc)]
                raise
            finally:
                end, cpu_end = tracer._now()
                stack.pop()
                tracer.spans[index] = (group, start, end, cpu_start, cpu_end, parent, tracer.op)
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function in every namespace that holds it."""
        namespaces = [
            m for name, m in list(sys.modules.items())
            if name == "multsys" or name.startswith("multsys.")
        ]
        for group, module_name, attrs, hook in GROUPS:
            module = importlib.import_module(module_name)
            for dotted in attrs:
                holder, name = _resolve(module, dotted)
                original = getattr(holder, name)
                wrapper = self.wrap(group, original, hook)
                if holder is module:
                    targets = [ns for ns in namespaces if ns is not module] + [module]
                    for ns in targets:
                        for key, value in list(vars(ns).items()):
                            if value is original:
                                self._patch(ns, key, wrapper)
                else:
                    self._patch(holder, name, wrapper)

    def _patch(self, holder, name, value) -> None:
        self._patches.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    # -- ops ---------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run fn as one op under a root span; returns fn's result.

        When the caller reports the op failed (fail_op), the failure is
        charged to the innermost layer of the last exception that left a
        span during the op, or to "bench" when none did.
        """
        self.op = op_id
        self._op_error = None
        try:
            return self.wrap(ROOT_GROUP, fn)(*args)
        finally:
            self.op = -1
            self._stack.clear()

    def fail_op(self) -> None:
        self.failures[self._op_error or "bench"] += 1

    # -- aggregation -------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self wall time, self CPU time and call count per group."""
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for group, start, end, cpu_start, cpu_end, parent, _ in self.spans:
            if parent >= 0:
                child_wall[parent] += end - start
                child_cpu[parent] += cpu_end - cpu_start
        wall: defaultdict[str, float] = defaultdict(float)
        cpu: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (group, start, end, cpu_start, cpu_end, _, _) in enumerate(self.spans):
            wall[group] += end - start - child_wall[i]
            cpu[group] += cpu_end - cpu_start - child_cpu[i]
            calls[group] += 1
        return dict(wall), dict(cpu), dict(calls)

    def spans_json(self) -> dict:
        return {
            "fields": ["group", "start", "end", "cpu_start", "cpu_end", "parent", "op"],
            "spans": self.spans,
        }
