"""End-to-end runs of the command line front end."""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multsys
from multsys import __version__, rademacher, symmetric_system
from multsys import cli, moments, stepfn
from multsys.cli import build_parser, emit, main
from multsys.errors import CapacityExceeded, OutOfRange
from multsys.stepfn import POWER_CAP, ConvexSpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture()
def dup_system(tmp_path):
    sys_obj = symmetric_system([rademacher(1), rademacher(1)])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(sys_obj.to_json()))
    return str(path)


def test_analyze_reports_mu_and_moments(capsys):
    code, report = run(capsys, "analyze", "--system", "rademacher:3", "--no-meta")
    assert code == 0
    assert report["mu"] == "0"
    assert report["multiplicative"] is True
    assert report["n"] == 3
    assert len(report["moments"]) == 7
    assert "meta" not in report


def test_analyze_meta_and_family_cap(capsys):
    code, report = run(capsys, "analyze", "--system", "rademacher:4", "--family", "l=2")
    assert code == 0
    assert report["meta"] == {"tool": "multsys", "version": __version__}
    assert report["config"]["family"] == "l=2"
    assert len(report["moments"]) == 4 + 6


def test_analyze_explicit_family_and_csv(capsys, tmp_path):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text("[[1], [1, 2]]")
    csv_path = tmp_path / "table.csv"
    code, report = run(
        capsys,
        "analyze",
        "--system",
        "rademacher:2",
        "--family",
        str(fam_path),
        "--csv",
        str(csv_path),
        "--no-meta",
    )
    assert code == 0
    assert report["config"]["family"] == "explicit(2 subsets)"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "subset;moment;normalized"
    assert len(lines) == 3


def test_analyze_of_dependent_system_still_exits_zero(capsys, dup_system):
    code, report = run(capsys, "analyze", "--system", dup_system, "--no-meta")
    assert code == 0
    assert report["mu"] == "1"
    assert report["multiplicative"] is False


def test_reduce_full_pipeline(capsys, dup_system):
    code, report = run(
        capsys, "reduce", "--system", dup_system, "--full-trace", "--no-meta"
    )
    assert code == 0
    assert report["mu"] == "1"
    assert report["xi_multiplicative"] is True
    assert report["independence"]["independent"] is True
    assert report["independence"]["marginals"] == ["1/2", "1/2"]
    assert report["domination"]["holds"] is True
    assert report["domination"]["exact"] is True
    assert report["trace"]["mu"] == "1"


def test_reduce_accepts_coeffs_and_phi(capsys):
    code, report = run(
        capsys,
        "reduce",
        "--system",
        "rademacher:3",
        "--coeffs",
        "1,-1/2,1/3",
        "--phi",
        "exp:1.0",
        "--no-meta",
    )
    assert code == 0
    assert report["config"]["coeffs"] == ["1", "-1/2", "1/3"]
    assert report["domination"]["exact"] is False
    assert report["domination"]["holds"] is True


def test_khintchine_even_mode_is_exact(capsys):
    code, report = run(
        capsys,
        "khintchine",
        "--system",
        "rademacher:4",
        "-p",
        "4",
        "--mode",
        "even_integer",
        "--no-meta",
    )
    assert code == 0
    assert report["config"]["p"] == 4
    assert report["lhs_pth_power"] == "40"
    assert report["rhs_pth_power"] == "48"
    assert report["exact"] is True
    assert report["holds"] is True


def test_khintchine_general_mode(capsys):
    code, report = run(
        capsys, "khintchine", "--system", "rademacher:5", "-p", "3.5", "--no-meta"
    )
    assert code == 0
    assert report["exact"] is False
    assert report["holds"] is True


def test_tail_matches_binomial_count(capsys):
    code, report = run(
        capsys,
        "tail",
        "--system",
        "rademacher:10",
        "--level",
        "4",
        "--mu",
        "0",
        "--no-meta",
    )
    assert code == 0
    assert report["exact_measure"] == "7/128"
    assert report["holds"] is True


def test_tail_flags_a_lying_mu(capsys, dup_system):
    code, report = run(
        capsys,
        "tail",
        "--system",
        dup_system,
        "--level",
        "19/10",
        "--mu",
        "0",
        "--no-meta",
    )
    assert code == 1
    assert report["holds"] is False
    assert report["exact_measure"] == "1/2"


def test_tail_refuses_a_negative_mu(capsys):
    code = main(["tail", "--system", "rademacher:3", "--level", "1", "--mu", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: mu must be nonnegative, got -1\n"


def test_lacunary_geometric(capsys):
    code, report = run(
        capsys,
        "lacunary",
        "--lam",
        "3",
        "--tau1",
        "2",
        "--n",
        "4",
        "--no-meta",
    )
    assert code == 0
    assert report["config"]["tau"] == [2.0, 6.0, 18.0, 54.0]
    assert report["config"]["nu_max"] == 3
    assert report["holds"] is True
    assert report["violations"] == []
    assert report["analytic_tail"]["approx"] is True


def test_lacunary_explicit_with_split(capsys):
    code, report = run(
        capsys,
        "lacunary",
        "--lam",
        "2.5",
        "--tau1",
        "1.3",
        "--n",
        "6",
        "--nu-max",
        "2",
        "--split-target",
        "3",
        "--no-meta",
    )
    assert code == 0
    assert len(report["split"]) == 2
    for part in report["split"]:
        assert part["lam"] >= 3


def test_lacunary_needs_a_frequency_source(capsys):
    code = main(["lacunary", "--lam", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_select_certificate_is_consistent(capsys):
    code, report = run(
        capsys,
        "select",
        "--system",
        "walsh:6",
        "--rho",
        "2",
        "--steps",
        "3",
        "--no-meta",
    )
    assert code == 0
    assert report["chosen_indices"] == [1, 2, 4, 8]
    assert report["certificate_consistent"] is True
    assert report["bound_satisfied"] == [True, True, True]
    assert report["recomputed_mu"] == "0"



def test_a_select_refusal_names_pool_indices(capsys, tmp_path):
    """Pool functions 2 and 3 are equal, and the step-1 window [2, 4) holds
    exactly those two; the refusal names them as the pool numbers them."""
    quarters = ["0", "1/4", "1/2", "3/4", "1"]
    rows = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, -1, -1], [1, -1, 1, -1]]
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({
        "functions": [{"breakpoints": quarters, "values": row} for row in rows],
        "lower_bounds": [-1] * 4, "upper_bounds": [1] * 4,
    }))
    code = main(["select", "--system", str(path), "--rho", "2", "--steps", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: functions 2 and 3 are not orthogonal\n"


def test_select_past_the_last_window_exits_before_any_product(capsys, monkeypatch):
    """The refusal of a run whose step 11 window starts past walsh:10's 1,024
    functions, as the loop that reached step 11 first wrote it."""
    from multsys import subseq

    def no_product(fs):
        raise AssertionError("a refused selection multiplied functions")

    monkeypatch.setattr(subseq, "product", no_product)
    code = main("select --system walsh:10 --rho 2 --steps 11".split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: step 11 window starts at 2048, past the last index 1024\n"


def test_rubinshtein_inline_seed(capsys):
    code, report = run(
        capsys,
        "rubinshtein",
        "--seed",
        "step:1,-1/2",
        "--n",
        "3",
        "--no-meta",
    )
    assert code == 0
    assert report["mu"] == "0"
    assert report["multiplicative"] is True
    assert report["domination"]["lhs"] == "285/32"
    assert report["tail"]["exact_measure"] == "3/16"


def test_rubinshtein_seed_from_file(capsys, tmp_path):
    from multsys import make_step

    seed = make_step([0, "1/8", "1/4"], [1, "-1/2"])
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed.to_json()))
    code, report = run(
        capsys, "rubinshtein", "--seed", str(path), "--n", "2", "--no-meta"
    )
    assert code == 0
    assert report["multiplicative"] is True


def test_out_writes_the_report_to_a_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        ["analyze", "--system", "rademacher:2", "--out", str(out_path), "--no-meta"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out_path.read_text())
    assert report["mu"] == "0"


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_unwritable_report_path_exits_two(capsys, tmp_path, option):
    path = tmp_path / "missing" / "report"
    code = main(["analyze", "--system", "rademacher:2", option, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}:")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--system", "rademacher:"],
        ["analyze", "--system", "rademacher:0"],
        ["analyze", "--system", "rademacher:25"],
        ["analyze", "--system", "walsh:13"],
        ["analyze", "--system", "/no/such/file.json"],
        ["analyze", "--system", "rademacher:2", "--family", "l=abc"],
        ["tail", "--system", "rademacher:2", "--level", "zero"],
        ["reduce", "--system", "rademacher:2", "--phi", "weird:1"],
        ["rubinshtein", "--seed", "step:1,-1/2", "--n", "13"],
    ],
)
def test_malformed_inputs_exit_two(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--system", "rademacher:2", "--family", "l={cap}"],
        ["rubinshtein", "--seed", "step:1,-1/2", "--n", "2", "--l", "{cap}"],
    ],
)
def test_a_cap_below_one_is_refused_not_read_as_full(capsys, argv, cap):
    code = main([a.format(cap=cap) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cardinality cap must lie in 1..2, got {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["reduce"],
        ["khintchine", "-p", "4"],
        ["khintchine", "-p", "4", "--mode", "even_integer"],
        ["tail", "--level", "1"],
    ],
)
def test_a_rubinshtein_system_of_no_dilates_names_the_count(capsys, argv):
    # the same message as rubinshtein --n 0, not an empty-family or empty-system error
    code = main([*argv, "--system", "rubinshtein:0:step:1,-1/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need at least one dilate, got 0\n"


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["analyze", "--system", "rademacher:100000000000"], "1048576"),
        (["lacunary", "--lam", "1.0000001", "--tau1", "1", "--n", "100000000"], "4194304"),
    ],
)
def test_oversized_builtins_are_refused_before_allocating(capsys, argv, cap):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and cap in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("family", ["[[true]]", "[1, 2]", "[[1], [false, 2]]"])
def test_malformed_family_file_is_a_bad_subset(capsys, tmp_path, family):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(family)
    code = main(["analyze", "--system", "rademacher:2", "--family", str(fam_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


UNREADABLE_JSON = {
    "not_utf8": b"\xff\xfe",
    "nested_too_deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", list(UNREADABLE_JSON.values()), ids=list(UNREADABLE_JSON))
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--system", "{path}"],
        ["analyze", "--system", "rademacher:2", "--family", "{path}"],
        ["rubinshtein", "--n", "2", "--seed", "{path}"],
    ],
    ids=["system", "family", "seed"],
)
def test_unreadable_json_file_exits_two(capsys, tmp_path, content, argv):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not readable JSON:")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["reduce"],
        ["khintchine", "-p", "4"],
        ["tail", "--level", "1"],
        ["select"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_empty_system_file_exits_two_with_one_message(capsys, tmp_path, argv):
    path = tmp_path / "empty.json"
    path.write_text('{"functions": [], "lower_bounds": [], "upper_bounds": []}')
    code = main([argv[0], "--system", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: system file holds no functions\n"
    # the library keeps an empty system legal
    assert moments.BoundedSystem((), (), ()).n == 0


def run_child(probe, cap):
    """probe in a fresh interpreter with MULTSYS_PIECE_CAP set to cap: the
    variable is read once, when multsys.stepfn is first imported."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), MULTSYS_PIECE_CAP=cap)
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_bad_piece_cap_exits_two_and_names_the_variable(raw):
    out = run_child(
        "import sys\n"
        "from multsys.cli import main\n"
        "sys.exit(main(['analyze', '--system', 'rademacher:2']))\n",
        raw,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: MULTSYS_PIECE_CAP must be a positive integer, got {raw!r}\n"


def test_the_piece_cap_variable_is_read_once_at_import():
    out = run_child(
        "import os, sys\n"
        "from multsys import stepfn\n"
        "from multsys.cli import main\n"
        "os.environ['MULTSYS_PIECE_CAP'] = '64'\n"
        "print(stepfn.PIECE_CAP)\n"
        "sys.exit(main(['analyze', '--system', 'rademacher:3']))\n",
        "4",
    )
    assert out.returncode == 2
    assert out.stdout == "4\n"
    assert out.stderr == "error: rademacher:3 needs 2**3 pieces, beyond the cap of 4\n"


@pytest.mark.parametrize("cap, n", [(None, 21), (4, 3)])
def test_a_rademacher_spec_past_the_cap_is_a_capacity_error(capsys, monkeypatch, cap, n):
    if cap is not None:
        monkeypatch.setattr(stepfn, "PIECE_CAP", cap)
    message = f"rademacher:{n} needs 2**{n} pieces, beyond the cap of {cap or 1 << 20}"
    with pytest.raises(CapacityExceeded) as refused:
        cli.parse_system(f"rademacher:{n}")
    assert str(refused.value) == message
    assert main(["analyze", "--system", f"rademacher:{n}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_exact_result_past_the_int_string_limit_renders(capsys, tmp_path):
    """E|phi|^1024 of a function with values near 1/10**5 has a numerator
    and a denominator of thousands of digits, past CPython's 4,300-digit
    bound on int <-> str conversion, which the call lifts and restores."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "functions": [{"breakpoints": ["0", "1/3", "1"], "values": ["1/99991", "-1/199982"]}],
        "lower_bounds": ["-1"], "upper_bounds": ["1"],
    }))
    limit = sys.get_int_max_str_digits()
    code, report = run(capsys, "reduce", "--system", str(path), "--phi", "power:1024",
                       "--no-meta")
    assert code in (0, 1)
    assert sys.get_int_max_str_digits() == limit
    sides = [report["domination"][k].partition("/") for k in ("lhs", "rhs")]
    assert all(num.lstrip("-").isdigit() and (den.isdigit() or not slash)
               for num, slash, den in sides)
    assert max(len(part) for side in sides for part in side) > 4300



def test_an_exact_power_past_its_bit_cap_exits_two_at_once(capsys, tmp_path):
    """Values of 4,000 digits pass the input bound, but their 1024th power
    would need about 13.6 million bits: refused before any power is taken,
    while power:64 (about 850 thousand bits) still runs."""
    big = 10**3999 + 7
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "functions": [{"breakpoints": ["0", "1/3", "1"],
                       "values": [f"1/{big}", f"-1/{2 * big}"]}],
        "lower_bounds": ["-1"], "upper_bounds": ["1"],
    }))
    start = time.perf_counter()
    code = main(["reduce", "--system", str(path), "--phi", "power:1024", "--no-meta"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: power 1024 of values of 13286 bits exceeds the cap of 1048576 bits\n"
    )
    assert elapsed < 1.0
    code, report = run(capsys, "reduce", "--system", str(path), "--phi", "power:64",
                       "--no-meta")
    assert code in (0, 1)
    assert report["domination"]["phi"] == "|t|^64"

HUGE = "9" * 4301


@pytest.mark.parametrize(
    "argv, file",
    [
        (["tail", "--system", "rademacher:2", "--level", "1e-5000"], None),
        (["reduce", "--system", "rademacher:2", "--coeffs", "1e5000,1"], None),
        (["reduce", "--system", "rademacher:2", "--coeffs", f"1/{HUGE},1"], None),
        (["reduce", "--system", "rademacher:2", "--phi", "hinge:1e-5000"], None),
        (["analyze", "--system", f"rademacher:{HUGE}"], None),
        (["analyze", "--system", "{path}"],
         '{"functions": [{"breakpoints": ["0", "1e-5000", "1"], "values": [1, -1]}],'
         ' "lower_bounds": [-1], "upper_bounds": [1]}'),
        (["analyze", "--system", "{path}"],
         '{"functions": [{"breakpoints": [0, 1], "values": ["%s"]}],'
         ' "lower_bounds": [-1], "upper_bounds": [1]}' % HUGE),
        (["analyze", "--system", "{path}"],
         '{"functions": [{"breakpoints": [0, 1], "values": [0]}],'
         ' "lower_bounds": [-1], "upper_bounds": [%s]}' % HUGE),
    ],
    ids=["level", "coeff", "coeff-denominator", "hinge", "builtin-size", "json-breakpoint",
         "json-string", "json-integer"],
)
def test_an_input_number_past_4300_digits_exits_two(capsys, tmp_path, argv, file):
    path = tmp_path / "input.json"
    if file is not None:
        path.write_text(file)
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.endswith("needs more than 4300 digits\n")
    assert len(captured.err.splitlines()) == 1


def test_a_decimal_exponent_alone_past_the_bound_is_refused_at_once():
    """In a child, so that a refusal that builds 10**99999999 fails the
    test at the timeout instead of hanging the suite."""
    probe = (
        "import sys, time\n"
        "from multsys.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['tail', '--system', 'rademacher:2', '--level', '1e-99999999'])\n"
        "print(code, time.perf_counter() - start)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    code, elapsed = out.stdout.split()
    assert code == "2" and float(elapsed) < 1.0
    assert out.stderr == "error: '1e-99999999' needs more than 4300 digits\n"


@pytest.mark.parametrize("value", ["0.1", "true", "1e0"])
@pytest.mark.parametrize("where", ["system", "seed"])
def test_a_json_number_that_is_no_integer_exits_two(capsys, tmp_path, value, where):
    """A float or a boolean would be read inexactly (0.1 as
    3602879701896397/36028797018963968, true as 1); integers and strings
    are read exactly."""
    step = '{"breakpoints": [0, "1/8", "1/4"], "values": [%s, "-1/2"]}'
    path = tmp_path / "input.json"
    argv = {
        "system": ["analyze", "--system", str(path)],
        "seed": ["rubinshtein", "--seed", str(path), "--n", "2"],
    }[where]
    body = step if where == "seed" else (
        '{"functions": [%s], "lower_bounds": [-1], "upper_bounds": [1]}' % step
    )
    path.write_text(body % "1")
    assert main(argv + ["--no-meta"]) in (0, 1)
    capsys.readouterr()
    path.write_text(body % value)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad ")
    assert captured.err.endswith("expected an exact rational, got %s\n"
                                 % ("bool" if value == "true" else "float"))


@pytest.mark.parametrize(
    "argv",
    [
        ["khintchine", "--system", "rademacher:2", "-p", "inf"],
        ["khintchine", "--system", "rademacher:2", "-p", "1e999"],
        ["khintchine", "--system", "rademacher:2", "-p", "nan"],
        ["lacunary", "--lam", "inf", "--tau1", "1", "--n", "3"],
        ["lacunary", "--lam", "3", "--tau", "1,nan"],
        ["lacunary", "--lam", "3", "--tau", "1,x"],
        ["reduce", "--system", "rademacher:2", "--phi", "exp:inf"],
    ],
)
def test_non_finite_float_options_exit_two(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["lacunary", "--lam", "1e308", "--tau1", "1", "--n", "3"],
        ["khintchine", "--system", "rademacher:3", "-p", "1e308"],
        ["reduce", "--system", "rademacher:2", "--phi", "exp:1e308"],
        # 2 pi tau overflows: cos(inf) used to escape as an internal error
        ["lacunary", "--lam", "3", "--tau", "1,1e308"],
        # pi (lam - 2)^2 overflows: the bounds used to read 0.0 and exit 0
        ["lacunary", "--lam", "1e154", "--tau1", "1", "--n", "2"],
    ],
)
def test_extreme_finite_floats_exit_two(capsys, argv):
    code = main(argv + ["--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_huge_frequency_error_names_the_frequency(capsys):
    code = main(["lacunary", "--lam", "3", "--tau", "1,1e308"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: frequency 1e+308 is too large")


def test_power_exponent_above_the_cap_is_refused_before_any_evaluation():
    # the exact path would compute v**p with p = 10**308; only the spec is built here
    for build in (lambda: cli.parse_phi("power:1e308"), lambda: ConvexSpec.power(1e308)):
        with pytest.raises(OutOfRange, match=f"cap of {POWER_CAP}"):
            build()
    assert ConvexSpec.power(POWER_CAP).param == POWER_CAP


def test_importing_the_cli_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, multsys.cli; print('numpy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_every_subcommand_runs_without_numpy():
    """numpy is a test dependency only: with it blocked, one call of each
    subcommand exits 0 and the quadrature oracle alone cannot run."""
    calls = [
        "analyze --system rademacher:4",
        "reduce --system rademacher:3",
        "khintchine --system rademacher:4 -p 4",
        "tail --system rademacher:4 --level 1",
        "lacunary --lam 3 --tau1 1 --n 4",
        "select --system walsh:4 --steps 1",
        "rubinshtein --seed step:1,-1/2 --n 2",
    ]
    probe = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from multsys import cli, lacunary\n"
        f"for call in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(call.split()[0], cli.main(call.split()), file=sys.__stdout__)\n"
        "try:\n"
        "    lacunary.quadrature_product_integral(lacunary.geometric_spec(3, 1, 2), (1, 2))\n"
        "except ModuleNotFoundError:\n"
        "    print('oracle ModuleNotFoundError')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert len({call.split()[0] for call in calls}) == 7
    assert out.stdout.splitlines() == [
        *(f"{call.split()[0]} 0" for call in calls), "oracle ModuleNotFoundError"
    ]


# the multsys modules a fresh interpreter holds after one statement: the
# package alone, the CLI module, or one CLI call of each subcommand
LOADED = {
    "import multsys": set(),
    "import multsys.cli": {"cli", "errors"},
    "--version": {"cli", "errors"},
    "analyze --system rademacher:4": {"cli", "errors", "stepfn", "moments"},
    "analyze --system walsh:3": {"cli", "errors", "stepfn", "moments", "subseq"},
    "analyze --system rubinshtein:2:step:1,-1/2": {
        "cli", "errors", "stepfn", "moments", "rubinshtein",
    },
    "reduce --system rademacher:3": {"cli", "errors", "stepfn", "moments", "reduction"},
    "reduce --system rubinshtein:2:step:1,-1/2": {
        "cli", "errors", "stepfn", "moments", "reduction", "rubinshtein",
    },
    "khintchine --system rademacher:4 -p 4": {
        "cli", "errors", "stepfn", "moments", "inequalities",
    },
    "tail --system rademacher:4 --level 1": {
        "cli", "errors", "stepfn", "moments", "inequalities",
    },
    "lacunary --lam 3 --tau1 1 --n 4": {"cli", "errors", "lacunary"},
    "select --system walsh:4 --steps 1": {"cli", "errors", "stepfn", "moments", "subseq"},
    "rubinshtein --seed step:1,-1/2 --n 2": {
        "cli", "errors", "stepfn", "moments", "reduction", "inequalities", "rubinshtein",
    },
}


@pytest.mark.parametrize("statement", list(LOADED))
def test_each_call_loads_only_the_modules_it_runs(statement):
    if statement.startswith("import"):
        run_it = f"{statement}; code = 0"
    else:
        run_it = f"from multsys.cli import main; code = main({statement.split()!r})"
    probe = (
        "import contextlib, io, sys\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        {run_it}\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('multsys.')))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    code, *loaded = out.stdout.split()
    assert code == "0"
    assert set(loaded) == {f"multsys.{m}" for m in LOADED[statement]}


def test_no_call_loads_a_heavy_module():
    """The records need neither dataclasses nor inspect, the table parser
    needs neither argparse (with its gettext and shutil) nor typing.  One
    fresh interpreter makes every call of LOADED in turn and names the
    first that loads one of them.  It runs with -S, since a .pth file in
    site-packages may import some of them before the probe starts."""
    calls = [s.split() for s in LOADED if not s.startswith("import")]
    probe = (
        "import contextlib, io, sys\n"
        "heavy = {'dataclasses', 'inspect', 'argparse', 'typing', 'shutil', 'gettext'}\n"
        "heavy -= set(sys.modules)\n"
        "import multsys.cli\n"
        "print('import', *sorted(heavy & set(sys.modules)))\n"
        f"for argv in {calls!r}:\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            multsys.cli.main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    print(*argv, '->', *sorted(heavy & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    assert lines == ["import"] + [" ".join(argv) + " ->" for argv in calls]


def test_the_package_resolves_its_exports_on_first_access():
    assert "__version__" in vars(multsys)
    for name in multsys.__all__:
        obj = getattr(multsys, name)
        if name != "__version__":
            assert obj.__module__.startswith("multsys."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(multsys.__all__) <= set(dir(multsys))
    namespace: dict = {}
    exec("from multsys import *", namespace)
    assert {k: v for k, v in namespace.items() if k != "__builtins__"} == {
        name: getattr(multsys, name) for name in multsys.__all__
    }
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        multsys.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from multsys import no_such_name", {})


def test_reports_are_strict_json(capsys):
    args = build_parser().parse_args(["analyze", "--system", "rademacher:1", "--no-meta"])
    with pytest.raises(ValueError):
        emit({"value": float("inf")}, args)
    assert capsys.readouterr().out == ""


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("boom\nsecond line")

    monkeypatch.setattr(moments, "multiplicative_error", broken)
    code = main(["analyze", "--system", "rademacher:2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert len(captured.err.splitlines()) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"multsys {__version__}"


# every flag each subcommand takes, as its help must name them
FLAGS = {
    "analyze": ["--system", "--family", "--csv"],
    "reduce": ["--system", "--family", "--coeffs", "--phi", "--full-trace"],
    "khintchine": ["--system", "--coeffs", "-p", "--mode"],
    "tail": ["--system", "--family", "--level", "--mu"],
    "lacunary": ["--lam", "--tau1", "--n", "--tau", "--nu-max", "--split-target"],
    "select": ["--system", "--rho", "--steps"],
    "rubinshtein": ["--seed", "--n", "--l", "--coeffs", "--level", "--phi"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *FLAGS])
def test_help_names_every_flag_and_exits_zero(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        # help comes before the missing required options and the unknown one
        main([flag] if command is None else [command, flag, "--bogus"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.err == ""
    words = captured.out.replace(",", " ").replace("[", " ").replace("]", " ").split()
    assert captured.out.startswith(f"usage: multsys {command or ''}".rstrip() + " ")
    if command is None:
        assert set(FLAGS) | {"-h", "--help", "--version"} <= set(words)
    else:
        assert set(FLAGS[command]) | {"-h", "--help", "--out", "--no-meta"} <= set(words)
        assert "--version" not in words


def test_the_console_script_reads_sys_argv(capsys, monkeypatch):
    """pyproject's multsys script calls main() with no argv."""
    argv = ["analyze", "--system", "rademacher:2", "--no-meta"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["multsys", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr(sys, "argv", ["multsys", "--version"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"multsys {__version__}\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["reduce", "--system", "rademacher:2", "--coeffs", "-1,1"],
         ["reduce", "--system", "rademacher:2", "--coeffs=-1,1"]),
        (["khintchine", "--sys", "rademacher:3", "-p", "4", "--mo", "even_integer"],
         ["khintchine", "--system=rademacher:3", "-p4", "--mode=even_integer"]),
        (["tail", "--system", "x", "--level", "9", "--system", "rademacher:3", "--lev", "1"],
         ["tail", "--system", "rademacher:3", "--level", "1"]),
        (["lacunary", "--lam", "3", "--tau1", "1", "--n", "3", "--nu", "2"],
         ["lacunary", "--lam", "3", "--tau1", "1", "--n", "3", "--nu-max", "2"]),
    ],
    ids=["dash-value", "prefix-and-joined", "last-wins", "exact-beats-prefix"],
)
def test_equivalent_spellings_give_the_same_report(capsys, argv, expected):
    assert main(argv + ["--no-meta"]) == main(expected + ["--no-meta"]) == 0
    out = capsys.readouterr().out
    first, second = out[:len(out) // 2], out[len(out) // 2:]
    assert first == second and json.loads(first)["command"] == argv[0]


def test_a_value_that_starts_with_a_dash_reaches_the_library(capsys):
    code = main(["tail", "--system", "rademacher:2", "--level", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: tail threshold must be positive, got -1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "multsys needs a command: analyze, reduce, khintchine, tail, lacunary, select,"
             " rubinshtein"),
        (["bogus"], "unknown command 'bogus'; use one of analyze, reduce,"),
        (["analyze", "--system", "rademacher:2", "--bogus"], "analyze has no option '--bogus'"),
        (["--bogus"], "multsys has no option '--bogus'"),
        (["analyze", "--version"], "analyze has no option '--version'"),
        (["lacunary", "--lam", "3", "--ta", "1"], "--ta is ambiguous in lacunary: --tau1, --tau"),
        (["analyze", "--system"], "--system needs a value"),
        (["tail", "--level", "1"], "tail needs --system"),
        (["rubinshtein"], "rubinshtein needs --seed, --n"),
        (["select", "--system", "walsh:3", "--rho", "x"], "bad --rho value 'x'"),
        (["khintchine", "--system", "rademacher:2", "-p", "4", "--mode", "odd"],
         "--mode must be one of general, even_integer, got 'odd'"),
        (["analyze", "--system", "rademacher:2", "stray"], "analyze takes no argument 'stray'"),
        (["analyze", "--system", "rademacher:2", "--no-meta=yes"], "--no-meta takes no value"),
        (["select", "--system", "walsh:3", "--steps", "5" * 5000],
         "'5555555555555555555555555555555555555...' needs more than 4300 digits"),
        (["select", "--system", "walsh:3", "--steps", "5" * 4301],
         "'5555555555555555555555555555555555555...' needs more than 4300 digits"),
    ],
    ids=["no-command", "unknown-command", "unknown-option", "unknown-top-option",
         "version-after-command", "ambiguous-prefix", "missing-value", "missing-required",
         "missing-two", "bad-int", "bad-choice", "stray-positional", "value-on-a-switch",
         "5000-digits", "4301-digits"],
)
def test_a_usage_error_is_one_error_line_and_exit_two(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "cap, argv, message",
    [
        (None, ["select", "--system", "walsh:13"], "walsh order must lie in 0..12, got 13"),
        (4, ["select", "--system", "walsh:3"], "8 pieces exceed the cap of 4"),
        (4, ["analyze", "--system", "walsh:3"], "8 pieces exceed the cap of 4"),
        (None, ["select", "--system", "walsh:x"], "bad order in 'walsh:x'"),
    ],
)
def test_a_walsh_pool_error_keeps_its_cause(capsys, monkeypatch, cap, argv, message):
    if cap is not None:
        monkeypatch.setattr(stepfn, "PIECE_CAP", cap)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_family_with_no_singletons_says_why_xi_keeps_a_mean(capsys, tmp_path):
    fam = tmp_path / "pairs.json"
    fam.write_text("[[1, 2]]")
    system = Path(__file__).resolve().parent / "data" / "off_unit_system.json"
    code = main(["reduce", "--system", str(system), "--family", str(fam)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: function 1 has mean -12/47; the family holds no (1,), and the singletons"
        " are what cancel the means in the reduction\n"
    )


@pytest.mark.parametrize("coeffs", [[], ["--coeffs", "1,2"]], ids=["default", "wrong-count"])
def test_a_family_with_no_singletons_is_refused_before_either_domination_side(
    capsys, monkeypatch, tmp_path, coeffs
):
    from multsys import reduction

    original, calls = reduction.verify_domination, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction, "verify_domination", counted)
    fam = tmp_path / "pairs.json"
    fam.write_text("[[1, 2]]")
    system = Path(__file__).resolve().parent / "data" / "off_unit_system.json"
    code = main(["reduce", "--system", str(system), "--family", str(fam), *coeffs])
    assert code == 2
    assert calls == []
    # a wrong coefficient count is refused first, before the reduction that finds the mean
    assert capsys.readouterr().err.startswith(
        "error: 2 coefficients for 3 functions" if coeffs else "error: function 1 has mean -12/47;"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce", "--system", "off_unit_system.json", "--coeffs", "1,2"],
         "2 coefficients for 3 functions"),
        (["reduce", "--system", "off_unit_system.json", "--coeffs", "1,2,3,4", "--phi", "exp:1"],
         "4 coefficients for 3 functions"),
        (["rubinshtein", "--seed", "step:1,-1", "--n", "3", "--coeffs", "1,2"],
         "2 coefficients for 3 functions"),
        (["rubinshtein", "--seed", "step:1,-1", "--n", "0", "--coeffs", "1,2"],
         "need at least one dilate, got 0"),
        (["rubinshtein", "--seed", "step:1,-1", "--n", "13", "--coeffs", "1,2"],
         "number of dilates must lie in 0..12, got 13"),
    ],
)
def test_a_wrong_coefficient_count_is_refused_before_any_reduction(
    capsys, monkeypatch, argv, message
):
    from multsys import reduction

    calls = []
    monkeypatch.setattr(reduction, "reduce_to_independent", lambda *args: calls.append(args))
    data = Path(__file__).resolve().parent / "data"
    argv = [str(data / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {message}\n"  # a bad --n still reports first
