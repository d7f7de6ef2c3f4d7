"""Moment and tail inequalities for bounded multiplicative systems.

Two classical bounds are checked here, both stated for sums
S = a_1 phi_1 + ... + a_n phi_n:

* the sharp p-norm bound  ||S||_p <= K(p) (sum a_k^2)^(1/2)  with
  K(p) = sqrt(2) (Gamma((p+1)/2) / sqrt(pi)) ** (1/p) for p > 2,
  which collapses to ((p-1)!!)^(1/p) at even integer p, and
* the sub-Gaussian tail  |{S > t}| <= (1 + mu) exp(-2 t^2 / sum (B_k - A_k)^2)
  for unit coefficients.

Inequality violations are results, not exceptions: every verifier returns
a report object with a holds flag.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .errors import (
    BadBounds,
    BoundViolation,
    NonPositiveLambda,
    NotMultiplicative,
    OutOfRange,
    TooLarge,
    frozen,
    report_json,
)
from .moments import (
    BoundedSystem,
    IndexFamily,
    combination_integral,
    combination_law,
    is_multiplicative,
    multiplicative_error,
)
from .stepfn import ConvexSpec, Rational, _mass_where, as_fraction, within_tolerance

TAIL_TOL = 1e-12
MGF_TOL = 1e-12


# ------------------------------------------------------------------ constants

def khintchine_constant(p: float) -> float:
    """Sharp constant sqrt(2) (Gamma((p+1)/2) / sqrt(pi)) ** (1/p), p > 2.

    The sqrt(pi) in the denominator makes the constant agree with the
    even-moment form ((p-1)!!)^(1/p); see khintchine_constant_variants for
    the uncorrected variant that floats around in print.
    """
    if not p > 2:
        raise OutOfRange(f"the sharp constant needs p > 2, got {p}")
    return math.sqrt(2.0) * (math.gamma((p + 1) / 2) / math.sqrt(math.pi)) ** (1.0 / p)


def khintchine_constant_variants(p: float) -> dict[str, float]:
    """Both readings of the constant, for reports that flag the difference:
    the variant as printed has pi instead of sqrt(pi)."""
    return {
        "corrected": khintchine_constant(p),
        "as_printed": math.sqrt(2.0) * (math.gamma((p + 1) / 2) / math.pi) ** (1.0 / p),
    }


def double_factorial(n: int) -> int:
    if n < -1:
        raise OutOfRange(f"double factorial of {n}")
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def khintchine_even_constant(p: int) -> float:
    """((p-1)!!)^(1/p) for even integer p >= 4."""
    if p < 4 or p % 2 != 0:
        raise OutOfRange(f"even-moment constant needs even p >= 4, got {p}")
    return double_factorial(p - 1) ** (1.0 / p)


# ------------------------------------------------------------------ oracle

def rademacher_pnorm_oracle(coeffs: Sequence[Rational], p: int) -> Fraction:
    """Exact E[(sum +-a_k)^p] over all 2**n sign patterns, p even.

    Walks the patterns in Gray-code order so each step updates the running
    sum by one term.  Refuses n > 20.
    """
    cs = [as_fraction(c) for c in coeffs]
    n = len(cs)
    if n == 0:
        raise OutOfRange("need at least one coefficient")
    if n > 20:
        raise TooLarge(f"2**{n} sign patterns is beyond exact enumeration")
    if p < 2 or p % 2 != 0:
        raise OutOfRange(f"oracle needs even p >= 2, got {p}")
    signs = [1] * n
    s = sum(cs, Fraction(0))
    total = s**p
    for i in range(1, 1 << n):
        j = (i & -i).bit_length() - 1  # index flipped by the Gray transition
        signs[j] = -signs[j]
        s += 2 * signs[j] * cs[j]
        total += s**p
    return total / (1 << n)


def rademacher_tail_oracle(n: int, level: Rational) -> Fraction:
    """Exact |{r_1 + ... + r_n > level}| by counting sign patterns.

    The sum takes value 2k - n on a set of measure C(n, k) / 2**n, so the
    strict tail is a binomial upper sum.
    """
    if n < 1:
        raise OutOfRange("need n >= 1")
    level = as_fraction(level)
    total = 0
    for k in range(n + 1):
        if 2 * k - n > level:
            total += math.comb(n, k)
    return Fraction(total, 1 << n)


# ------------------------------------------------------------------ p-norm verification

@frozen
class KhintchineReport:
    p: float
    mode: str
    constant: float
    constant_as_printed: float
    lhs_norm: float
    rhs: float
    holds: bool
    exact: bool
    lhs_pth_power: Fraction | None = None
    rhs_pth_power: Fraction | None = None

    def to_json(self) -> dict:
        # p is echoed as given; the p-th powers are there only when compared exactly
        out = {**report_json(self), "p": self.p}
        if self.lhs_pth_power is None:
            del out["lhs_pth_power"], out["rhs_pth_power"]
        return out


def even_integer_family(p: float | int, n: int) -> IndexFamily | None:
    """The family even_integer mode checks n functions multiplicative
    over, the subsets of at most min(p, n) members, or None unless p is an
    even int > 2, which the mode needs."""
    if isinstance(p, int) and p % 2 == 0 and p > 2:
        return IndexFamily.cardinality_cap(min(p, n))
    return None


def verify_khintchine(
    sys: BoundedSystem,
    coeffs: Sequence[Rational],
    p: float | int,
    mode: str = "general",
) -> KhintchineReport:
    """Check ||sum a_k phi_k||_p <= K(p) (sum a_k^2)^(1/2).

    mode "even_integer" needs an even integer p and a system certified
    multiplicative over subsets of size up to min(p, n); the comparison
    is then exact on p-th powers with K(p)^p = (p-1)!!, and the p-th
    moment is read off the histogram the multiplicativity check built.
    mode "general" compares floats with relative tolerance 1e-9.  Both
    modes read the p-th moment through moments.combination_integral, off
    the system's merged grid when it holds one and off one difference
    array otherwise.  Both modes require sup norms at most 1.
    """
    cs = sys.coefficients(coeffs)
    for lo, hi in zip(sys.lower_bounds, sys.upper_bounds):
        if lo < -1 or hi > 1:
            raise BoundViolation(f"sup norms must be at most 1, got bounds [{lo}, {hi}]")
    sum_sq = sum((c * c for c in cs), Fraction(0))
    variants = khintchine_constant_variants(float(p))
    lhs_pow = rhs_pow = None
    if mode == "even_integer":
        fam = even_integer_family(p, sys.n)
        if fam is None:
            raise OutOfRange(f"even_integer mode needs an even integer p > 2, got {p}")
        if not is_multiplicative(sys, fam):
            raise NotMultiplicative(
                f"system is not multiplicative over subsets of size <= {fam.cap}"
            )
        lhs_pow = combination_integral(sys, cs, ConvexSpec.power(p)) / sys.domain_length
        rhs_pow = double_factorial(p - 1) * sum_sq ** (p // 2)
        lhs = float(lhs_pow) ** (1.0 / p)
        rhs = float(rhs_pow) ** (1.0 / p)
        holds = lhs_pow <= rhs_pow
    elif mode == "general":
        moment = combination_integral(sys, cs, ConvexSpec.power(p))
        lhs = (float(moment) / float(sys.domain_length)) ** (1.0 / p)
        rhs = variants["corrected"] * math.sqrt(float(sum_sq))
        holds = within_tolerance(lhs, rhs)
    else:
        raise OutOfRange(f"unknown mode {mode!r}")
    return KhintchineReport(
        p=float(p),
        mode=mode,
        constant=variants["corrected"],
        constant_as_printed=variants["as_printed"],
        lhs_norm=lhs,
        rhs=rhs,
        holds=holds,
        exact=lhs_pow is not None,
        lhs_pth_power=lhs_pow,
        rhs_pth_power=rhs_pow,
    )


# ------------------------------------------------------------------ tails

@frozen
class TailReport:
    level: Fraction
    exact_measure: Fraction
    bound: float
    mu: Fraction
    holds: bool

    to_json = report_json


def hoeffding_tail(
    sys: BoundedSystem,
    level: Rational,
    fam: IndexFamily | None = None,
    mu: Fraction | None = None,
) -> TailReport:
    """Check |{sum phi_k > level}| <= (1 + mu) exp(-2 level^2 / sum (B_k - A_k)^2).

    The left side is the exact superlevel measure of the unit-coefficient
    sum under the uniform law, read off the law of the sum
    (moments.combination_law): off the system's histogram when it holds
    its merged grid, and off one difference array otherwise.  mu may be
    passed when it is known (an independent system has mu == 0);
    otherwise it is computed over fam, defaulting to all subsets, and the
    law is read off the histogram that computation built, so the system
    is merged once.
    """
    level = as_fraction(level)
    if level <= 0:
        raise NonPositiveLambda(f"tail threshold must be positive, got {level}")
    if sys.n == 0:
        raise OutOfRange("tail of an empty system")
    if mu is None:
        mu, _ = multiplicative_error(sys, fam if fam is not None else IndexFamily.full())
    elif mu < 0:
        raise OutOfRange(f"mu must be nonnegative, got {mu}")
    law, q, den = combination_law(sys, [Fraction(1)] * sys.n)
    exact_measure = _mass_where(law, q, den, operator.gt, level) / sys.domain_length
    denom = sum(
        ((hi - lo) ** 2 for lo, hi in zip(sys.lower_bounds, sys.upper_bounds)),
        Fraction(0),
    )
    bound = float(1 + mu) * math.exp(-2.0 * float(level) ** 2 / float(denom))
    holds = float(exact_measure) <= bound + TAIL_TOL
    return TailReport(
        level=level, exact_measure=exact_measure, bound=bound, mu=mu, holds=holds
    )


@frozen
class MgfReport:
    lhs: float
    rhs: float
    holds: bool

    to_json = report_json


def mgf_factor_check(lo: Rational, hi: Rational, gamma: float) -> MgfReport:
    """Check (B e^{gamma A} - A e^{gamma B}) / (B - A) <= exp(gamma^2 (B - A)^2 / 8).

    The left side is the moment generating function of the mean-zero law
    on {A, B}; the right side is its sub-Gaussian envelope.  Tolerance
    1e-12 absolute.
    """
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if not lo < 0 < hi:
        raise BadBounds(f"bounds must satisfy A < 0 < B, got [{lo}, {hi}]")
    if not gamma > 0:
        raise OutOfRange(f"gamma must be positive, got {gamma}")
    a, b = float(lo), float(hi)
    lhs = (b * math.exp(gamma * a) - a * math.exp(gamma * b)) / (b - a)
    rhs = math.exp(gamma * gamma * (b - a) * (b - a) / 8.0)
    return MgfReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + MGF_TOL)
