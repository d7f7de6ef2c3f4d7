"""Command line front end.

Each subcommand builds the objects the library exposes, runs one
verification workflow and emits a single JSON report on stdout (or to
--out).  Exact rationals are rendered as "p/q" strings; every float is
wrapped as {"value": ..., "approx": true} so consumers can tell certified
numbers from approximations at a glance.

Exit codes: 0 when every requested check holds, 1 when some inequality or
consistency check fails (the report says which), 2 on malformed input,
capacity errors or input too large for float arithmetic, 3 on an
internal error (a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .errors import MultsysError, ParseError, UnknownBuiltin
from .inequalities import hoeffding_tail, verify_khintchine
from .lacunary import (
    analytic_tail_bound,
    explicit_spec,
    geometric_spec,
    split_for_growth,
    truncated_mu,
)
from .moments import BoundedSystem, IndexFamily, multiplicative_error, symmetric_system
from .reduction import check_independence, reduce_to_independent, verify_domination
from .rubinshtein import build_phi, dilated_system, verify_rubinshtein
from .stepfn import ConvexSpec, StepFunction, make_step, piece_cap, rademacher
from .subseq import (
    OrthogonalSystem,
    greedy_subsequence,
    selected_family_mu,
    walsh_system,
)


# ------------------------------------------------------------------ parsing helpers

def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"expected a rational like 3/4, got {text!r}") from exc


def parse_coeffs(text: str) -> list[Fraction]:
    return [parse_fraction(part) for part in text.split(",")]


def parse_float(text: str, what: str) -> float:
    """A finite float; reports are strict JSON, with no Infinity or NaN."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {text!r}")
    return value


def parse_family(text: str) -> IndexFamily:
    if text == "full":
        return IndexFamily.full()
    if text.startswith("l="):
        try:
            return IndexFamily.cardinality_cap(int(text[2:]))
        except ValueError as exc:
            raise ParseError(f"bad cardinality cap {text!r}") from exc
    obj = _load_json(text)
    if not isinstance(obj, list):
        raise ParseError("family file must hold a JSON list of index lists")
    return IndexFamily.explicit(obj)


def parse_phi(text: str) -> ConvexSpec:
    if text == "abs":
        return ConvexSpec.abs()
    kind, _, arg = text.partition(":")
    if not arg:
        raise ParseError(f"integrand {text!r} needs a parameter, like power:4")
    if kind == "power":
        return ConvexSpec.power(parse_float(arg, "power exponent"))
    if kind == "exp":
        return ConvexSpec.exp(parse_float(arg, "exponential rate"))
    if kind == "hinge":
        return ConvexSpec.hinge_square(parse_fraction(arg))
    raise ParseError(f"unknown integrand {text!r}; use power:P, exp:G, hinge:S or abs")


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def parse_seed(text: str) -> StepFunction:
    """A seed on [0, 1/4): either step:v1,v2,... on equal pieces or a JSON path."""
    if text.startswith("step:"):
        vals = text[5:].split(",")
        k = len(vals)
        bps = [Fraction(i, 4 * k) for i in range(k + 1)]
        return make_step(bps, [parse_fraction(v) for v in vals])
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ParseError("seed file must hold a step function object")
    return StepFunction.from_json(obj)


def parse_system(text: str) -> BoundedSystem:
    """A builtin spec (rademacher:N, walsh:M, rubinshtein:N:SEED) or a JSON path."""
    kind, _, rest = text.partition(":")
    if kind == "rademacher" and rest:
        try:
            n = int(rest)
        except ValueError as exc:
            raise ParseError(f"bad size in {text!r}") from exc
        if n < 1:
            raise ParseError(f"need at least one function, got {n}")
        if 1 << n > piece_cap():
            raise UnknownBuiltin(
                f"rademacher:{n} needs 2**{n} pieces, beyond the cap of {piece_cap()}"
            )
        return symmetric_system([rademacher(k) for k in range(1, n + 1)])
    if kind == "walsh" and rest:
        try:
            m = int(rest)
        except ValueError as exc:
            raise ParseError(f"bad order in {text!r}") from exc
        pool = walsh_system(m)
        return symmetric_system(pool.functions, pool.sup_bound)
    if kind == "rubinshtein" and rest:
        count, _, seed_spec = rest.partition(":")
        if not seed_spec:
            raise ParseError(
                f"{text!r} must look like rubinshtein:N:step:... or rubinshtein:N:PATH"
            )
        try:
            n = int(count)
        except ValueError as exc:
            raise ParseError(f"bad dilate count in {text!r}") from exc
        return dilated_system(build_phi(parse_seed(seed_spec)), n)
    if kind in ("rademacher", "walsh", "rubinshtein"):
        raise UnknownBuiltin(f"builtin spec {text!r} is incomplete")
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ParseError("system file must hold a system object")
    return BoundedSystem.from_json(obj)


def parse_pool(text: str) -> OrthogonalSystem:
    """Candidate pool for selection: walsh:M or a system JSON path."""
    kind, _, rest = text.partition(":")
    if kind == "walsh" and rest:
        try:
            return walsh_system(int(rest))
        except ValueError as exc:
            raise ParseError(f"bad order in {text!r}") from exc
    sys_obj = parse_system(text)
    # an empty system gets sup 0; the selector rejects it with EmptyCandidates
    sup = max(
        (max(-lo, hi) for lo, hi in zip(sys_obj.lower_bounds, sys_obj.upper_bounds)),
        default=Fraction(0),
    )
    return OrthogonalSystem(
        functions=sys_obj.functions, sup_bound=sup, certified_orthogonal=False
    )


# ------------------------------------------------------------------ report plumbing

def emit(report: dict, args: argparse.Namespace) -> None:
    if not args.no_meta:
        report["meta"] = {"tool": "multsys", "version": __version__}
    text = json.dumps(report, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def verdict_exit(flags: Sequence[bool]) -> int:
    return 0 if all(flags) else 1


# ------------------------------------------------------------------ subcommands

def cmd_analyze(args: argparse.Namespace) -> int:
    sys_obj = parse_system(args.system)
    fam = parse_family(args.family)
    mu, table = multiplicative_error(sys_obj, fam)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
    emit(
        {
            "command": "analyze",
            "config": {"system": args.system, "family": fam.describe()},
            "n": sys_obj.n,
            "mu": str(mu),
            "multiplicative": mu == 0,
            "moments": table.to_json(),
        },
        args,
    )
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    sys_obj = parse_system(args.system)
    fam = parse_family(args.family)
    coeffs = parse_coeffs(args.coeffs) if args.coeffs else [Fraction(1)] * sys_obj.n
    phi = parse_phi(args.phi)
    trace = reduce_to_independent(sys_obj, fam)
    domination = verify_domination(sys_obj, fam, coeffs, phi, trace=trace)
    independence = check_independence(trace.xi, fam)
    xi_mu = trace.moment_tables["xi"].mu()
    report = {
        "command": "reduce",
        "config": {
            "system": args.system,
            "family": fam.describe(),
            "coeffs": [str(c) for c in coeffs],
            "phi": phi.describe(),
        },
        "mu": str(trace.mu),
        "stage_pieces": {
            "input": max(f.piece_count for f in sys_obj.functions),
            "extended": max(f.piece_count for f in trace.extended.functions),
            "xi": max(f.piece_count for f in trace.xi.functions),
        },
        "xi_multiplicative": xi_mu == 0,
        "independence": {
            "independent": independence.independent,
            "subsets_checked": independence.subsets_checked,
            "marginals": [str(m) for m in independence.marginals],
        },
        "domination": domination.to_json(),
    }
    if args.full_trace:
        report["trace"] = trace.to_json()
    emit(report, args)
    return verdict_exit(
        [domination.holds, independence.independent, xi_mu == 0]
    )


def cmd_khintchine(args: argparse.Namespace) -> int:
    sys_obj = parse_system(args.system)
    coeffs = parse_coeffs(args.coeffs) if args.coeffs else [Fraction(1)] * sys_obj.n
    order = parse_float(args.p, "moment order")
    p = int(order) if order.is_integer() else order
    report = verify_khintchine(sys_obj, coeffs, p, mode=args.mode)
    emit(
        {
            "command": "khintchine",
            "config": {
                "system": args.system,
                "coeffs": [str(c) for c in coeffs],
                "p": p,
                "mode": args.mode,
            },
            **report.to_json(),
        },
        args,
    )
    return verdict_exit([report.holds])


def cmd_tail(args: argparse.Namespace) -> int:
    sys_obj = parse_system(args.system)
    fam = parse_family(args.family)
    mu = parse_fraction(args.mu) if args.mu is not None else None
    report = hoeffding_tail(sys_obj, parse_fraction(args.level), fam=fam, mu=mu)
    emit(
        {
            "command": "tail",
            "config": {
                "system": args.system,
                "family": fam.describe(),
                "level": args.level,
                "mu_supplied": args.mu,
            },
            **report.to_json(),
        },
        args,
    )
    return verdict_exit([report.holds])


def cmd_lacunary(args: argparse.Namespace) -> int:
    lam = parse_float(args.lam, "growth factor")
    if args.tau:
        taus = [parse_float(t, "frequency") for t in args.tau.split(",")]
        spec = explicit_spec(taus, lam)
    else:
        if args.tau1 is None or args.n is None:
            raise ParseError("geometric mode needs --tau1 and --n (or pass --tau)")
        spec = geometric_spec(lam, parse_float(args.tau1, "first frequency"), args.n)
    nu_max = args.nu_max if args.nu_max is not None else min(spec.n, 3)
    report = truncated_mu(spec, nu_max)
    payload = {
        "command": "lacunary",
        "config": {
            "tau": list(spec.tau),
            "lam": spec.lam,
            "nu_max": nu_max,
        },
        **report.to_json(),
        "analytic_tail": {"value": analytic_tail_bound(spec), "approx": True},
    }
    if args.split_target is not None:
        parts = split_for_growth(spec, parse_float(args.split_target, "split target"))
        payload["split"] = [
            {"tau": list(p.tau), "lam": p.lam} for p in parts
        ]
    emit(payload, args)
    return verdict_exit([report.holds, not report.violations])


def cmd_select(args: argparse.Namespace) -> int:
    pool = parse_pool(args.system)
    cert = greedy_subsequence(pool, rho=args.rho, steps=args.steps)
    recomputed = selected_family_mu(pool, cert.chosen_indices)
    consistent = recomputed == cert.mu_total
    bound_ok = [
        s * s <= b for s, b in zip(cert.per_step_sum, cert.per_step_bound_sq)
    ]
    emit(
        {
            "command": "select",
            "config": {"system": args.system, "rho": args.rho, "steps": args.steps},
            **cert.to_json(),
            "recomputed_mu": str(recomputed),
            "certificate_consistent": consistent,
            "bound_satisfied": bound_ok,
        },
        args,
    )
    return verdict_exit([consistent, *bound_ok])


def cmd_rubinshtein(args: argparse.Namespace) -> int:
    seed = parse_seed(args.seed)
    coeffs = parse_coeffs(args.coeffs) if args.coeffs else None
    report = verify_rubinshtein(
        seed,
        args.n,
        l=args.l,
        coeffs=coeffs,
        lam=parse_fraction(args.level),
        phi_spec=parse_phi(args.phi),
    )
    emit(
        {
            "command": "rubinshtein",
            "config": {
                "seed": args.seed,
                "n": args.n,
                "l": args.l,
                "level": args.level,
                "phi": args.phi,
            },
            **report.to_json(),
        },
        args,
    )
    return verdict_exit(
        [report.multiplicative, report.domination.holds, report.tail.holds]
    )


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multsys",
        description="verify multiplicative-system reductions and inequalities",
    )
    parser.add_argument("--version", action="version", version=f"multsys {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument(
            "--no-meta", action="store_true", help="omit the meta block from the report"
        )

    p = sub.add_parser("analyze", help="mixed moments and mu over a family")
    p.add_argument("--system", required=True, help="rademacher:N, walsh:M, rubinshtein:N:SEED or a JSON path")
    p.add_argument("--family", default="full", help="full, l=K or a JSON path")
    p.add_argument("--csv", help="also write the moment table as CSV")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reduce", help="reduce to an independent system and check domination")
    p.add_argument("--system", required=True)
    p.add_argument("--family", default="full")
    p.add_argument("--coeffs", help="comma separated rationals, default all 1")
    p.add_argument("--phi", default="power:4", help="power:P, exp:G, hinge:S or abs")
    p.add_argument("--full-trace", action="store_true", help="embed all pipeline stages")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("khintchine", help="p-norm bound for a coefficient sum")
    p.add_argument("--system", required=True)
    p.add_argument("--coeffs", help="comma separated rationals, default all 1")
    p.add_argument("-p", required=True, help="moment order, p > 2")
    p.add_argument("--mode", default="general", choices=["general", "even_integer"])
    common(p)
    p.set_defaults(func=cmd_khintchine)

    p = sub.add_parser("tail", help="sub-Gaussian tail bound at a level")
    p.add_argument("--system", required=True)
    p.add_argument("--family", default="full", help="family for the mu factor")
    p.add_argument("--level", required=True, help="tail threshold, a positive rational")
    p.add_argument("--mu", help="known mu, skips the moment computation")
    common(p)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("lacunary", help="truncated mu of a sine system")
    p.add_argument("--lam", required=True, help="growth factor")
    p.add_argument("--tau1", help="first frequency (geometric mode)")
    p.add_argument("--n", type=int, help="number of frequencies (geometric mode)")
    p.add_argument("--tau", help="comma separated frequencies (explicit mode)")
    p.add_argument("--nu-max", type=int, help="subset size cap, default min(n, 3)")
    p.add_argument(
        "--split-target", help="also split for growth factor >= this"
    )
    common(p)
    p.set_defaults(func=cmd_lacunary)

    p = sub.add_parser("select", help="greedy quasi-multiplicative subsequence")
    p.add_argument("--system", required=True, help="walsh:M or a system JSON path")
    p.add_argument("--rho", type=int, default=8, help="window base, default 8")
    p.add_argument("--steps", type=int, default=2, help="selection steps, default 2")
    common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("rubinshtein", help="reflection generator battery")
    p.add_argument("--seed", required=True, help="step:v1,v2,... or a JSON path")
    p.add_argument("--n", required=True, type=int, help="number of dyadic dilates")
    p.add_argument("--l", type=int, help="family cardinality cap, default full")
    p.add_argument("--coeffs", help="comma separated rationals, default all 1")
    p.add_argument("--level", default="1", help="tail threshold, default 1")
    p.add_argument("--phi", default="power:4", help="convex integrand for domination")
    common(p)
    p.set_defaults(func=cmd_rubinshtein)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MultsysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # finite input beyond what a float can carry, such as --lam 1e308
        print(f"error: an input is too large for float arithmetic ({exc})", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
