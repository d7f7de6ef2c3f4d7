"""The eleven acceptance checks, one test per criterion.

Each test registers a PASS or FAIL line that the terminal summary prints
after the run, including the tolerance and the measured runtime where one
is mandated.  The heavy random batteries are built once and shared: the
independence criterion inspects the xi stage of every pipeline run that
the two domination batteries produced.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    binarize,
    build_phi,
    check_independence,
    common_refinement,
    compute_moment_table,
    dilated_system,
    flip_cancellation_system,
    geometric_spec,
    greedy_subsequence,
    hoeffding_tail,
    khintchine_constant,
    khintchine_constant_variants,
    khintchine_even_constant,
    make_step,
    parseval_select,
    product_integral,
    quadrature_product_integral,
    rademacher,
    rademacher_pnorm_oracle,
    rademacher_tail_oracle,
    reduce_to_independent,
    selected_family_mu,
    symmetric_system,
    truncated_mu,
    frequency_range_check,
    verify_domination,
    walsh_cancellation_system,
    walsh_system,
)
from multsys.inequalities import double_factorial
from multsys.stepfn import StepFunction, int_row
from multsys.subseq import _l2_sq

_CACHE: dict[str, list] = {}


def random_bounded_system(rng: random.Random, max_n: int, max_pieces: int) -> BoundedSystem:
    """A random step system with rational bounds straddling zero."""
    n = rng.randint(1, max_n)
    functions, los, his = [], [], []
    for _ in range(n):
        pieces = rng.randint(1, max_pieces)
        cuts = sorted(rng.sample(range(1, 64), pieces - 1))
        bps = [F(0), *[F(c, 64) for c in cuts], F(1)]
        vals = [F(rng.randint(-8, 8), 4) for _ in range(pieces)]
        functions.append(make_step(bps, vals))
        los.append(min(min(vals), F(-1, 4)))
        his.append(max(max(vals), F(1, 4)))
    return BoundedSystem(
        functions=tuple(functions), lower_bounds=tuple(los), upper_bounds=tuple(his)
    )


def domination_battery() -> list:
    """100 random systems, reduced once, checked against three integrands."""
    if "battery" not in _CACHE:
        rng = random.Random(101)
        fam = IndexFamily.full()
        specs = [ConvexSpec.power(2), ConvexSpec.power(4), ConvexSpec.exp(1.0)]
        runs = []
        for _ in range(100):
            sys_obj = random_bounded_system(rng, max_n=4, max_pieces=8)
            coeffs = [
                F(rng.randint(1, 8) * rng.choice((-1, 1)), 4) for _ in range(sys_obj.n)
            ]
            trace = reduce_to_independent(sys_obj, fam)
            reports = [
                verify_domination(sys_obj, fam, coeffs, spec, trace=trace)
                for spec in specs
            ]
            runs.append((sys_obj, trace, reports))
        _CACHE["battery"] = runs
    return _CACHE["battery"]


def generator_traces() -> list:
    """100 random reflection generators with their reduction traces."""
    if "generators" not in _CACHE:
        rng = random.Random(1111)
        fam = IndexFamily.full()
        runs = []
        for _ in range(100):
            pieces = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(1, 16), pieces - 1))
            bps = [F(0), *[F(c, 64) for c in cuts], F(1, 4)]
            vals = [F(rng.randint(-8, 8), 4) for _ in range(pieces)]
            seed = make_step(bps, vals)
            n = rng.randint(1, 5)
            sys_obj = dilated_system(build_phi(seed), n)
            trace = reduce_to_independent(sys_obj, fam)
            runs.append((sys_obj, trace))
        _CACHE["generators"] = runs
    return _CACHE["generators"]


def test_criterion_01_cancellation_systems(acceptance):
    start = time.perf_counter()
    checked = 0
    ok = True
    one, minus_one = F(1), F(-1)
    for nu in (2, 3, 4):
        for builder in (walsh_cancellation_system, flip_cancellation_system):
            members = builder(nu)
            bps = members[0].breakpoints
            if all(f.breakpoints == bps for f in members):
                refined = members
            else:
                refined = common_refinement(members)
            lengths = refined[0].piece_lengths()
            count = refined[0].piece_count
            # sign masks: values are +-1, so subset products are xors and
            # a uniform-grid integral vanishes iff half the bits are set
            masks = []
            for f in refined:
                mask = 0
                for i, v in enumerate(f.values):
                    if v == minus_one:
                        mask |= 1 << i
                    elif v != one:
                        ok = False
                masks.append(mask)
            full = 0
            for mask in masks:
                full ^= mask
            ok = ok and full == 0
            uniform = len(set(lengths)) == 1
            len_ints, _ = int_row(lengths)
            for size in range(1, nu):
                for sub in combinations(range(nu), size):
                    m = 0
                    for j in sub:
                        m ^= masks[j]
                    if uniform:
                        ok = ok and 2 * m.bit_count() == count
                    else:
                        acc = sum(
                            -ln if (m >> i) & 1 else ln
                            for i, ln in enumerate(len_ints)
                        )
                        ok = ok and acc == 0
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    acceptance.record(
        1,
        ok,
        f"both builders, nu in 2..4: full product == 1 pointwise, "
        f"{checked} proper subproducts integrate to exactly 0, {elapsed:.2f}s < 1s",
    )
    assert ok


def test_criterion_02_domination_battery(acceptance):
    start = time.perf_counter()
    runs = domination_battery()
    ok = True
    for _, _, reports in runs:
        power2, power4, exp1 = reports
        ok = ok and power2.holds and power4.holds and exp1.holds
        ok = ok and power2.exact and power4.exact and not exp1.exact
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    acceptance.record(
        2,
        ok,
        f"domination on 100 random systems (n <= 4, <= 8 pieces) for "
        f"power 2/4 exact and exp(1) at 1e-9 rel, {elapsed:.1f}s < 30s",
    )
    assert ok


def test_criterion_03_binarize_preserves_moments(acceptance):
    rng = random.Random(303)
    fam = IndexFamily.full()
    ok = True
    compared = 0
    for _ in range(25):
        sys_obj = random_bounded_system(rng, max_n=5, max_pieces=8)
        before = compute_moment_table(sys_obj, fam)
        after = compute_moment_table(binarize(sys_obj), fam)
        ok = ok and before.subsets == after.subsets
        ok = ok and before.moments == after.moments
        compared += len(before.subsets)
    acceptance.record(
        3,
        ok,
        f"binarize kept all {compared} mixed moments of 25 random systems "
        f"(n <= 5) exactly, zero tolerance",
    )
    assert ok


def test_criterion_04_independence_of_every_xi(acceptance):
    fam = IndexFamily.full()
    runs = [trace for _, trace, _ in domination_battery()]
    runs += [trace for _, trace in generator_traces()]
    ok = True
    for trace in runs:
        report = check_independence(trace.xi, fam)
        ok = ok and report.independent
        ok = ok and trace.moment_tables["xi"].mu() == 0
    acceptance.record(
        4,
        ok,
        f"xi stage of all {len(runs)} pipeline runs passed the exact "
        f"joint-factorization check",
    )
    assert ok


def test_criterion_05_khintchine_even_p(acceptance):
    start = time.perf_counter()
    rng = random.Random(505)
    ok = True
    draws = 0
    for _ in range(30):
        n = rng.randint(1, 12)
        coeffs = [F(rng.randint(-8, 8), 4) for _ in range(n)]
        sum_sq = sum((c * c for c in coeffs), F(0))
        for p in (4, 6, 8):
            lhs_pow = rademacher_pnorm_oracle(coeffs, p)
            rhs_pow = double_factorial(p - 1) * sum_sq ** (p // 2)
            ok = ok and lhs_pow <= rhs_pow
            draws += 1
    ratios = []
    for n in (4, 8, 12):
        lhs_pow = rademacher_pnorm_oracle([1] * n, 4)
        ratios.append(float(lhs_pow) ** 0.25 / math.sqrt(n))
    sharp = ratios[0] < ratios[1] < ratios[2] < 3**0.25 and ratios[2] > 1.28
    elapsed = time.perf_counter() - start
    ok = ok and sharp and elapsed < 10.0
    acceptance.record(
        5,
        ok,
        f"{draws} oracle draws (n <= 12, p in 4/6/8) stayed below "
        f"(p-1)!! (sum a^2)^(p/2) exactly; sharpness ratio at n=4/8/12 = "
        f"{ratios[0]:.4f}/{ratios[1]:.4f}/{ratios[2]:.4f} rising toward "
        f"3^(1/4) ~ 1.3161 and above 1.28 at n=12, {elapsed:.1f}s < 10s",
    )
    assert ok


def test_criterion_06_constant_coherence(acceptance):
    gaps = [
        abs(khintchine_constant(p) - khintchine_even_constant(p))
        for p in (4, 6, 8, 10)
    ]
    variants = khintchine_constant_variants(4)
    discrepancy = abs(variants["corrected"] - variants["as_printed"])
    ok = max(gaps) < 1e-12 and discrepancy > 1e-2
    acceptance.record(
        6,
        ok,
        f"gamma-form vs double-factorial constant agree within "
        f"{max(gaps):.1e} < 1e-12 for p in 4..10; flagged discrepancy: the "
        f"pi-denominator variant differs by {discrepancy:.4f} > 1e-2 at p=4",
    )
    assert ok


def test_criterion_07_tail_bounds(acceptance):
    start = time.perf_counter()
    rng = random.Random(707)
    violations = 0
    for _ in range(50):
        n = rng.randint(1, 20)
        level = F(rng.randint(1, 10 * n - 1), 10)
        measure = rademacher_tail_oracle(n, level)
        bound = math.exp(-2.0 * float(level) ** 2 / (4 * n))
        if float(measure) > bound + 1e-12:
            violations += 1
    crosschecked = True
    for n in (2, 5, 8):
        sys_obj = symmetric_system([rademacher(k) for k in range(1, n + 1)])
        for level in (F(1, 2), F(n, 2)):
            report = hoeffding_tail(sys_obj, level, mu=F(0))
            crosschecked = crosschecked and report.holds
            crosschecked = (
                crosschecked
                and report.exact_measure == rademacher_tail_oracle(n, level)
            )
    dup = symmetric_system([rademacher(1), rademacher(1)])
    for k in range(1, 21):
        report = hoeffding_tail(dup, F(k, 10))
        if not (report.mu == 1 and report.holds):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and crosschecked and elapsed < 10.0
    acceptance.record(
        7,
        ok,
        f"50 random levels on n <= 20 with mu=0 plus 20 levels on the "
        f"duplicated pair (mu=1): {violations} violations at 1e-12 abs, "
        f"step-function measures match the binomial oracle, {elapsed:.1f}s < 10s",
    )
    assert ok


def test_criterion_08_lacunary_bounds_and_quadrature(acceptance):
    start = time.perf_counter()
    ok = True
    for lam in (2.5, 3, 4, 8):
        report = truncated_mu(geometric_spec(lam, 1.3, 8), 4)
        ok = ok and not report.violations and report.holds
        if lam == 3:
            ok = ok and abs(report.global_bound - 6 / math.pi) < 1e-9
    rng = random.Random(808)
    quad_specs = [
        geometric_spec(2.5, 1.3, 8),
        geometric_spec(3, 1.3, 8),
        geometric_spec(4, 1.3, 7),
        geometric_spec(8, 1.3, 6),
    ]
    compared = 0
    max_dev = 0.0
    for spec in quad_specs:
        for _ in range(50):
            size = rng.randint(1, 4)
            subset = tuple(sorted(rng.sample(range(1, spec.n + 1), size)))
            dev = abs(
                product_integral(spec, subset)
                - quadrature_product_integral(spec, subset)
            )
            max_dev = max(max_dev, dev)
            compared += 1
    big = geometric_spec(8, 1.3, 8)
    stress = abs(
        product_integral(big, (1, 2, 7, 8))
        - quadrature_product_integral(big, (1, 2, 7, 8), max_panels=4_000_000)
    )
    max_dev = max(max_dev, stress)
    elapsed = time.perf_counter() - start
    ok = ok and max_dev < 1e-9 and elapsed < 60.0
    acceptance.record(
        8,
        ok,
        f"per-collection and global mu bounds hold at 1e-9 for lam in "
        f"2.5/3/4/8 (global at lam=3 is 6/pi ~ 1.9099); closed form vs "
        f"quadrature max deviation {max_dev:.1e} < 1e-9 over {compared} + 1 "
        f"subsets, {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_09_frequency_containment(acceptance):
    ok = True
    checked = 0
    for lam in (2.5, 3, 4, 8):
        spec = geometric_spec(lam, 1.3, 8)
        for size in range(1, 5):
            for subset in combinations(range(1, 9), size):
                ok = ok and frequency_range_check(spec, subset)
                checked += 1
    acceptance.record(
        9,
        ok,
        f"all signed frequency sums of {checked} subsets stayed strictly "
        f"inside ((lam-2)tau/(lam-1), lam tau/(lam-1)); zero violations",
    )
    assert ok


def test_criterion_10_selection_bound_and_greedy(acceptance):
    rng = random.Random(1010)
    pool = walsh_system(6)
    grid = pool.functions[0].breakpoints
    ok = True
    for _ in range(100):
        n = rng.randint(1, 64)
        candidates = [pool.functions[i] for i in sorted(rng.sample(range(64), n))]
        m = rng.randint(1, 6)
        targets = [
            StepFunction(grid, tuple(F(rng.randint(-4, 4), 2) for _ in range(64)))
            for _ in range(m)
        ]
        _, achieved = parseval_select(candidates, targets, assume_orthogonal=True)
        norm_mass = sum((_l2_sq(t) for t in targets), F(0))
        ok = ok and achieved * achieved * n <= m * norm_mass
    big = walsh_system(10)
    cert = greedy_subsequence(big, rho=8, steps=2)
    ok = ok and cert.per_step_sum[0] < F(1, 2) and cert.per_step_sum[1] < F(1, 4)
    ok = ok and all(cert.threshold_ok)
    ok = ok and cert.mu_total == selected_family_mu(big, cert.chosen_indices)
    acceptance.record(
        10,
        ok,
        f"averaging bound achieved^2 * n <= m * sum ||f||^2 held exactly on "
        f"100 random Walsh instances; greedy on walsh:10 (rho=8, 2 steps) "
        f"chose {list(cert.chosen_indices)} with step sums below 1/2 and 1/4 "
        f"and certificate mu equal to the recomputed family mu",
    )
    assert ok


def test_criterion_11_reflection_generators(acceptance):
    fam = IndexFamily.full()
    phi4 = ConvexSpec.power(4)
    runs = generator_traces()
    ok = True
    for sys_obj, trace in runs:
        ok = ok and trace.mu == 0
        domination = verify_domination(
            sys_obj, fam, [F(1)] * sys_obj.n, phi4, trace=trace
        )
        tail = hoeffding_tail(sys_obj, F(1), mu=trace.mu)
        ok = ok and domination.holds and domination.exact and tail.holds
    acceptance.record(
        11,
        ok,
        f"100 random generators (n <= 5 dilates): mu over the full family "
        f"exactly 0, fourth-power domination exact and the level-1 tail "
        f"bound held on every system",
    )
    assert ok
