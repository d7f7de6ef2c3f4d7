"""Command line front end.

Each subcommand builds the objects the library exposes, runs one
verification workflow and emits a single JSON report on stdout (or to
--out).  Exact rationals are rendered as "p/q" strings and every computed
float is wrapped as {"value": ..., "approx": true} (errors.report_value
writes both forms for every record) so consumers can tell certified
numbers from approximations at a glance; the config block echoes the
inputs raw.

Exit codes: 0 when every requested check holds, 1 when some inequality or
consistency check fails (the report says which), 2 on a usage error,
malformed input, capacity errors or input too large for float
arithmetic, 3 on an internal error (a bug, never a verdict).

Each handler imports the modules it runs when it runs, so a call loads
only what its subcommand needs: analyze on rademacher:N never loads the
reduction, the inequalities, the lacunary or selection code.  The
options are read by a small parser over the option table below, not by
argparse, so no call imports argparse and its gettext, locale and
shutil; a usage error is a ParseError like any other bad input.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .errors import MultsysError, ParseError, UnknownBuiltin, bounded_number, report_value, shown

TYPE_CHECKING = False  # True to a type checker; at run time typing stays unloaded
if TYPE_CHECKING:
    from .moments import BoundedSystem, IndexFamily
    from .stepfn import ConvexSpec, StepFunction
    from .subseq import OrthogonalSystem


# ------------------------------------------------------------------ parsing helpers

def parse_fraction(text: str) -> Fraction:
    text = bounded_number(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"expected a rational like 3/4, got {text!r}") from exc


def parse_coeffs(text: str | None, n: int) -> list[Fraction]:
    """Comma separated rationals; all ones for n functions when absent."""
    if not text:
        return [Fraction(1)] * n
    return [parse_fraction(part) for part in text.split(",")]


def _parse_int(text: str, what: str) -> int:
    text = bounded_number(text)
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad {what}") from exc


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
    from .moments import IndexFamily

    if text == "full":
        return IndexFamily.full()
    if text.startswith("l="):
        return IndexFamily.cardinality_cap(_parse_int(text[2:], f"cardinality cap {text!r}"))
    obj = _load_json(text)
    if not isinstance(obj, list):
        raise ParseError("family file must hold a JSON list of index lists")
    return IndexFamily.explicit(obj)


def parse_phi(text: str) -> ConvexSpec:
    from .stepfn import ConvexSpec

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
            # a JSON float stays a float, which every exact reader refuses
            return json.load(fh, parse_int=lambda text: int(bounded_number(text)))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, or nesting deeper than the parser goes
        raise ParseError(f"{path} is not readable JSON: {exc}") from exc


def parse_seed(text: str) -> StepFunction:
    """A seed on [0, 1/4): either step:v1,v2,... on equal pieces or a JSON path."""
    from .stepfn import StepFunction, make_step

    if text.startswith("step:"):
        vals = text[5:].split(",")
        k = len(vals)
        bps = [Fraction(i, 4 * k) for i in range(k + 1)]
        return make_step(bps, [parse_fraction(v) for v in vals])
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ParseError("seed file must hold a step function object")
    return StepFunction.from_json(obj)


# given n, the family a command enumerates over a system of n functions, or None
Family = Callable[[int], "IndexFamily | None"]


def _size_family(n: int, family: Family | None) -> None:
    """Refuse the family a command will enumerate over n functions as
    enumerate_family would, by moments.family_top, with no function built."""
    fam = None if family is None else family(n)
    if fam is not None and fam.subsets is None:
        from .moments import family_top

        family_top(n, fam)


def parse_system(text: str, family: Family | None = None) -> BoundedSystem:
    """A builtin spec (rademacher:N, walsh:M, rubinshtein:N:SEED) or a JSON path.

    family, if given, maps the spec's n to the family the command will
    enumerate; a rademacher or walsh pool too large for it is refused
    before any function is built.  A rubinshtein spec is not sized:
    dilated_system refuses more than 12 dilates, whose 4,095 subsets fit.
    """
    from .moments import BoundedSystem, symmetric_system

    kind, _, rest = text.partition(":")
    if kind == "rademacher" and rest:
        from . import stepfn

        n = _parse_int(rest, f"size in {text!r}")
        if n < 1:
            raise ParseError(f"need at least one function, got {n}")
        stepfn.dyadic_pieces(n, f"rademacher:{n}")
        _size_family(n, family)
        return symmetric_system([stepfn.rademacher(k) for k in range(1, n + 1)])
    if kind == "walsh" and rest:
        from .subseq import walsh_size, walsh_system

        m = _parse_int(rest, f"order in {text!r}")
        _size_family(walsh_size(m), family)
        pool = walsh_system(m)
        return symmetric_system(pool.functions, pool.sup_bound)
    if kind == "rubinshtein" and rest:
        from .rubinshtein import build_phi, dilated_system

        count, _, seed_spec = rest.partition(":")
        if not seed_spec:
            raise ParseError(
                f"{text!r} must look like rubinshtein:N:step:... or rubinshtein:N:PATH"
            )
        n = _parse_int(count, f"dilate count in {text!r}")
        if n < 1:
            raise ParseError(f"need at least one dilate, got {n}")
        return dilated_system(build_phi(parse_seed(seed_spec)), n)
    if kind in ("rademacher", "walsh", "rubinshtein"):
        raise UnknownBuiltin(f"builtin spec {text!r} is incomplete")
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ParseError("system file must hold a system object")
    sys_obj = BoundedSystem.from_json(obj)
    if not sys_obj.n:
        # every subcommand needs a function; the library keeps the empty system legal
        raise ParseError("system file holds no functions")
    return sys_obj


def parse_pool(text: str) -> OrthogonalSystem:
    """Candidate pool for selection: walsh:M, or any system parse_system accepts."""
    from .subseq import OrthogonalSystem, walsh_system

    kind, _, rest = text.partition(":")
    if kind == "walsh" and rest:
        return walsh_system(_parse_int(rest, f"order in {text!r}"))
    sys_obj = parse_system(text)
    sup = max(max(-lo, hi) for lo, hi in zip(sys_obj.lower_bounds, sys_obj.upper_bounds))
    return OrthogonalSystem(
        functions=sys_obj.functions, sup_bound=sup, certified_orthogonal=False
    )


# ------------------------------------------------------------------ report plumbing

def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def emit(report: dict, args: SimpleNamespace) -> None:
    if not args.no_meta:
        report["meta"] = {"tool": "multsys", "version": __version__}
    text = json.dumps(report, indent=2, allow_nan=False)
    if args.out:
        _write(args.out, text + "\n")
    else:
        print(text)


def verdict_exit(flags: Sequence[bool]) -> int:
    return 0 if all(flags) else 1


# ------------------------------------------------------------------ subcommands
# Each cmd_* returns (report, checks): the report body that follows
# "command", and the flags whose conjunction sets the exit code.

Outcome = tuple[dict, list[bool]]


def cmd_analyze(args: SimpleNamespace) -> Outcome:
    from .moments import multiplicative_error

    fam = parse_family(args.family)
    sys_obj = parse_system(args.system, lambda n: fam)
    mu, table = multiplicative_error(sys_obj, fam)
    if args.csv:
        _write(args.csv, table.to_csv())
    return {
        "config": {"system": args.system, "family": fam.describe()},
        "n": sys_obj.n,
        "mu": str(mu),
        "multiplicative": mu == 0,
        "moments": table.to_json(),
    }, []


def cmd_reduce(args: SimpleNamespace) -> Outcome:
    from .reduction import check_independence, reduce_to_independent, verify_domination

    fam = parse_family(args.family)
    sys_obj = parse_system(args.system, lambda n: fam)
    coeffs = parse_coeffs(args.coeffs, sys_obj.n)
    phi = parse_phi(args.phi)
    sys_obj.coefficients(coeffs)  # a wrong count is refused before any work
    trace = reduce_to_independent(sys_obj, fam)
    # first, so that a family that cannot give xi mean zero is refused before any integral
    independence = check_independence(trace.xi, fam)
    domination = verify_domination(sys_obj, fam, coeffs, phi, trace=trace)
    xi_mu = trace.moment_tables["xi"].mu()
    report = {
        "config": {
            "system": args.system, "family": fam.describe(),
            "coeffs": [str(c) for c in coeffs], "phi": phi.describe(),
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
    return report, [domination.holds, independence.independent, xi_mu == 0]


def cmd_khintchine(args: SimpleNamespace) -> Outcome:
    from .inequalities import even_integer_family, verify_khintchine

    order = parse_float(args.p, "moment order")
    p = int(order) if order.is_integer() else order
    even = args.mode == "even_integer"
    sys_obj = parse_system(args.system, (lambda n: even_integer_family(p, n)) if even else None)
    coeffs = parse_coeffs(args.coeffs, sys_obj.n)
    report = verify_khintchine(sys_obj, coeffs, p, mode=args.mode)
    return {
        "config": {
            "system": args.system, "coeffs": [str(c) for c in coeffs], "p": p, "mode": args.mode,
        },
        **report.to_json(),
    }, [report.holds]


def cmd_tail(args: SimpleNamespace) -> Outcome:
    from .inequalities import hoeffding_tail

    fam = parse_family(args.family)
    # a given mu is not computed, so no family is enumerated
    sys_obj = parse_system(args.system, (lambda n: fam) if args.mu is None else None)
    mu = parse_fraction(args.mu) if args.mu is not None else None
    report = hoeffding_tail(sys_obj, parse_fraction(args.level), fam=fam, mu=mu)
    return {
        "config": {
            "system": args.system, "family": fam.describe(),
            "level": args.level, "mu_supplied": args.mu,
        },
        **report.to_json(),
    }, [report.holds]


def cmd_lacunary(args: SimpleNamespace) -> Outcome:
    from .lacunary import (
        analytic_tail_bound, explicit_spec, geometric_spec, split_for_growth, truncated_mu,
    )

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
        "config": {"tau": list(spec.tau), "lam": spec.lam, "nu_max": nu_max},
        **report.to_json(),
        "analytic_tail": report_value(analytic_tail_bound(spec)),
    }
    if args.split_target is not None:
        parts = split_for_growth(spec, parse_float(args.split_target, "split target"))
        payload["split"] = [{"tau": list(p.tau), "lam": report_value(p.lam)} for p in parts]
    return payload, [report.holds, not report.violations]


def cmd_select(args: SimpleNamespace) -> Outcome:
    from .subseq import greedy_subsequence, selected_family_mu

    pool = parse_pool(args.system)
    cert = greedy_subsequence(pool, rho=args.rho, steps=args.steps)
    recomputed = selected_family_mu(pool, cert.chosen_indices)
    consistent = recomputed == cert.mu_total
    bound_ok = [s * s <= b for s, b in zip(cert.per_step_sum, cert.per_step_bound_sq)]
    return {
        "config": {"system": args.system, "rho": args.rho, "steps": args.steps},
        **cert.to_json(),
        "recomputed_mu": str(recomputed),
        "certificate_consistent": consistent,
        "bound_satisfied": bound_ok,
    }, [consistent, *bound_ok]


def cmd_rubinshtein(args: SimpleNamespace) -> Outcome:
    from .rubinshtein import verify_rubinshtein

    seed = parse_seed(args.seed)
    # without --coeffs the library sizes the all-ones default once --n is validated
    coeffs = parse_coeffs(args.coeffs, args.n) if args.coeffs else None
    report = verify_rubinshtein(
        seed, args.n, l=args.l, coeffs=coeffs,
        lam=parse_fraction(args.level), phi_spec=parse_phi(args.phi),
    )
    return {
        "config": {
            "seed": args.seed, "n": args.n, "l": args.l, "level": args.level, "phi": args.phi,
        },
        **report.to_json(),
    }, [report.multiplicative, report.domination.holds, report.tail.holds]


# ------------------------------------------------------------------ wiring
# An option is (flags, keywords): required, default, help, type=int,
# choices, or an action (store_true, help, version); a shared one is
# defined once.

def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


SYSTEM = _opt(
    "--system", required=True, help="rademacher:N, walsh:M, rubinshtein:N:SEED or a JSON path"
)
FAMILY = _opt("--family", default="full", help="full, l=K or a JSON path")
COEFFS = _opt("--coeffs", help="comma separated rationals, default all 1")
PHI = _opt("--phi", default="power:4", help="convex integrand: power:P, exp:G, hinge:S or abs")
REPORT = (
    _opt("--out", help="write the JSON report to this file"),
    _opt("--no-meta", action="store_true", help="omit the meta block from the report"),
)
HELP = _opt("-h", "--help", action="help", help="show this help and exit")
VERSION = _opt("--version", action="version", help="show the version and exit")


def _dest(flags: tuple[str, ...]) -> str:
    return flags[-1].lstrip("-").replace("-", "_")


def _placeholder(flags: tuple[str, ...], kwargs: dict) -> str:
    """The placeholder help shows after a flag for its value, if it takes one."""
    if "action" in kwargs:
        return ""
    choices = kwargs.get("choices")
    return " {" + ",".join(choices) + "}" if choices else " " + _dest(flags).upper()


def _wrap(head: str, words: Sequence[str], indent: int, width: int = 79) -> list[str]:
    """head, then words packed greedily into lines of at most width
    characters; on every line after the first they start at column indent."""
    lines = [head]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > width:
            lines.append(" " * (indent - 1))
        lines[-1] += " " + word
    return lines


class Parser:
    """The command table and its reader.

    Options come in any order after the command: --flag VALUE,
    --flag=VALUE, a unique prefix of a long flag (an exact flag wins),
    and -p VALUE, -p=VALUE or -pVALUE.  The token after a valued option
    is its value even when it starts with "-", a repeated option keeps
    its last value, and an int option is read through _parse_int.
    """

    def __init__(self, commands: Sequence[tuple]) -> None:
        # name -> (handler, help, options)
        self.commands = {
            name: (handler, help_text, (HELP, *options, *REPORT))
            for name, handler, help_text, options in commands
        }

    def parse_args(self, argv: Sequence[str] | None = None) -> SimpleNamespace:
        """command, func and one attribute per option; a usage error raises
        ParseError, and -h, --help and --version print and exit 0."""
        tokens = list(sys.argv[1:] if argv is None else argv)
        _, tokens = self._read_options(None, (HELP, VERSION), tokens)
        if not tokens:
            raise ParseError(f"multsys needs a command: {', '.join(self.commands)}")
        name, *tokens = tokens
        if name not in self.commands:
            raise ParseError(
                f"unknown command {shown(name)!r}; use one of {', '.join(self.commands)}"
            )
        handler, _, options = self.commands[name]
        values, rest = self._read_options(name, options, tokens)
        if rest:
            raise ParseError(f"{name} takes no argument {shown(rest[0])!r}")
        missing = [flags[-1] for flags, kw in options if kw.get("required")
                   and _dest(flags) not in values]
        if missing:
            raise ParseError(f"{name} needs {', '.join(missing)}")
        defaults = {_dest(flags): kw.get("default", False if "action" in kw else None)
                    for flags, kw in options if kw.get("action") != "help"}
        return SimpleNamespace(command=name, func=handler, **{**defaults, **values})

    def _read_options(
        self, name: str | None, options: Sequence[tuple], tokens: list[str]
    ) -> tuple[dict, list[str]]:
        """The options that lead tokens, by dest, and the tokens after them."""
        by_flag = {flag: (flags, kw) for flags, kw in options for flag in flags}
        values: dict = {}
        i = 0
        while i < len(tokens) and tokens[i].startswith("-"):
            token = tokens[i]
            i += 1
            if token.startswith("--"):
                flag, explicit, value = token.partition("=")
            else:  # a short flag holds its value as -pVALUE or -p=VALUE, if at all
                flag, explicit = token[:2], token[2:]
                value = explicit.removeprefix("=")
            flags, kw = self._lookup(name, by_flag, flag)
            action = kw.get("action")
            if action and explicit:
                raise ParseError(f"{flags[-1]} takes no value")
            if action == "help":
                print(self.format_help(name))
                raise SystemExit(0)
            if action == "version":
                print(f"multsys {__version__}")
                raise SystemExit(0)
            if action:
                values[_dest(flags)] = True
                continue
            if not explicit:
                if i == len(tokens):
                    raise ParseError(f"{flags[-1]} needs a value")
                value = tokens[i]
                i += 1
            if kw.get("type") is int:
                value = _parse_int(value, f"{flags[-1]} value {shown(value)!r}")
            elif value not in kw.get("choices", (value,)):
                raise ParseError(
                    f"{flags[-1]} must be one of {', '.join(kw['choices'])}, got {shown(value)!r}"
                )
            values[_dest(flags)] = value
        return values, tokens[i:]

    @staticmethod
    def _lookup(name: str | None, by_flag: dict, flag: str) -> tuple:
        """The option of flag, or of the one long flag it is a prefix of."""
        if flag in by_flag:
            return by_flag[flag]
        hits = [f for f in by_flag if len(flag) > 2 and f.startswith(flag)]
        if len(hits) == 1:
            return by_flag[hits[0]]
        where = name or "multsys"
        if hits:
            raise ParseError(f"{flag} is ambiguous in {where}: {', '.join(hits)}")
        raise ParseError(f"{where} has no option {shown(flag)!r}")

    def format_help(self, name: str | None = None) -> str:
        """Usage, purpose, and one line per option and, at top level, per command."""
        if name is None:
            head, about, options = "usage: multsys", DESCRIPTION, (HELP, VERSION)
            sections = [("commands", [(cmd, text) for cmd, (_, text, _) in self.commands.items()])]
        else:
            head, sections = f"usage: multsys {name}", []
            _, about, options = self.commands[name]
        usage, rows = [], []
        for flags, kw in options:
            word = flags[0] + _placeholder(flags, kw)
            usage.append(word if kw.get("required") else f"[{word}]")
            rows.append((", ".join(flags) + _placeholder(flags, kw), kw.get("help", "")))
        if name is None:
            usage.append("COMMAND ...")
        lines = [*_wrap(head, usage, len(head) + 1), "", about]
        for title, rows in [*sections, ("options", rows)]:
            column = max(len(left) for left, _ in rows) + 5
            lines += ["", f"{title}:"]
            for left, text in rows:
                lines += _wrap(f"  {left}".ljust(column - 1), text.split(), column)
        return "\n".join(line.rstrip() for line in lines)


DESCRIPTION = "verify multiplicative-system reductions and inequalities"


def build_parser() -> Parser:
    # (name, handler, help, options); built per call, so the handlers are
    # whatever the module attributes hold when the parser is built
    return Parser((
        ("analyze", cmd_analyze, "mixed moments and mu over a family",
         (SYSTEM, FAMILY, _opt("--csv", help="also write the moment table as CSV"))),
        ("reduce", cmd_reduce, "reduce to an independent system and check domination",
         (SYSTEM, FAMILY, COEFFS, PHI,
          _opt("--full-trace", action="store_true", help="embed all pipeline stages"))),
        ("khintchine", cmd_khintchine, "p-norm bound for a coefficient sum",
         (SYSTEM, COEFFS, _opt("-p", required=True, help="moment order, p > 2"),
          _opt("--mode", default="general", choices=["general", "even_integer"],
               help="even_integer compares exactly, for an even integer p; default general"))),
        ("tail", cmd_tail, "sub-Gaussian tail bound at a level",
         (SYSTEM, FAMILY,
          _opt("--level", required=True, help="tail threshold, a positive rational"),
          _opt("--mu", help="known mu, skips the moment computation"))),
        ("lacunary", cmd_lacunary, "truncated mu of a sine system",
         (_opt("--lam", required=True, help="growth factor"),
          _opt("--tau1", help="first frequency (geometric mode)"),
          _opt("--n", type=int, help="number of frequencies (geometric mode)"),
          _opt("--tau", help="comma separated frequencies (explicit mode)"),
          _opt("--nu-max", type=int, help="subset size cap, default min(n, 3)"),
          _opt("--split-target", help="also split for growth factor >= this"))),
        ("select", cmd_select, "greedy quasi-multiplicative subsequence",
         (SYSTEM, _opt("--rho", type=int, default=8, help="window base, default 8"),
          _opt("--steps", type=int, default=2, help="selection steps, default 2"))),
        ("rubinshtein", cmd_rubinshtein, "reflection generator battery",
         (_opt("--seed", required=True, help="step:v1,v2,... or a JSON path"),
          _opt("--n", required=True, type=int, help="number of dyadic dilates"),
          _opt("--l", type=int, help="family cardinality cap, default full"),
          COEFFS, _opt("--level", default="1", help="tail threshold, default 1"), PHI)),
    ))


def main(argv: Sequence[str] | None = None) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        args = build_parser().parse_args(argv)
        # exact results of any size render; every input number is bounded as read
        sys.set_int_max_str_digits(0)
        report, checks = args.func(args)
        emit({"command": args.command, **report}, args)
        return verdict_exit(checks)
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
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
