"""Quasi-multiplicativity of lacunary sine systems t_k(x) = sin(2 pi tau(k) x).

When the frequencies grow geometrically, tau(k+1) >= lambda tau(k) with
lambda > 2, products over ascending index subsets expand into short
sin/cos combinations whose frequencies stay close to the top frequency.
That containment gives the closed-form integral bound

    |integral of prod_{j} t_{n_j}|  <=  (lambda - 1) / (pi (lambda - 2) tau(n_v))

per subset, and summing over all subsets with bounded cardinality the
truncated multiplicative error obeys

    mu  <=  lambda (lambda - 1) / (pi (lambda - 2)^2).

Everything here is float-valued; the closed forms are cross-checked in
the test suite against an oscillation-aware quadrature oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations, product as iter_product

from .errors import (
    CapacityExceeded,
    LambdaTooSmall,
    NotLacunary,
    OutOfRange,
    TauTooSmall,
    _validate_subset,
    frozen,
)

ZERO_FREQ_TOL = 1e-12
SUBSET_CAP = 1 << 22
QUAD_ORDER = 32  # Gauss-Legendre nodes per quadrature panel
QUAD_TOL = 1e-12  # quadrature refining stops once two estimates agree within this


@frozen
class LacunarySpec:
    """Frequencies tau(1) < ... < tau(n) with certified growth factor.

    lam is the smallest ratio tau(k+1) / tau(k); construction validates it
    against the claimed factor, so downstream bounds may rely on it.
    """

    tau: tuple[float, ...]
    lam: float

    def __post_init__(self) -> None:
        # every expansion frequency is at most the sum of all of them, and
        # its harmonic integral needs 2 pi times it as a finite float
        if not math.isfinite(2.0 * math.pi * sum(self.tau)):
            raise OutOfRange(
                f"frequency {max(self.tau)} is too large: 2 pi times the sum of all "
                "frequencies is beyond float range"
            )

    @property
    def n(self) -> int:
        return len(self.tau)


def geometric_spec(lam: float, tau1: float, n: int) -> LacunarySpec:
    """tau(k) = tau1 * lam**(k-1) for k = 1..n."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    if tau1 < 1:
        raise TauTooSmall(f"frequencies must start at 1 or above, got {tau1}")
    if not lam > 1:
        raise NotLacunary(f"growth factor must exceed 1, got {lam}")
    # each frequency is a subset of its own, so truncated_mu would refuse more
    if n > SUBSET_CAP:
        raise CapacityExceeded(f"{n} frequencies exceed the subset cap of {SUBSET_CAP}")
    tau = tuple(tau1 * lam ** (k - 1) for k in range(1, n + 1))
    certified = min(
        (b / a for a, b in zip(tau, tau[1:])), default=lam
    )
    return LacunarySpec(tau=tau, lam=min(certified, lam) if n > 1 else lam)


def explicit_spec(tau: Sequence[float], lam_claim: float) -> LacunarySpec:
    """Explicit frequencies; the claim is validated and the minimum ratio certified."""
    taus = tuple(float(t) for t in tau)
    if not taus:
        raise OutOfRange("need at least one frequency")
    if taus[0] < 1:
        raise TauTooSmall(f"frequencies must start at 1 or above, got {taus[0]}")
    if not lam_claim > 1:
        raise NotLacunary(f"growth factor must exceed 1, got {lam_claim}")
    if len(taus) == 1:
        return LacunarySpec(tau=taus, lam=lam_claim)
    ratios = [b / a for a, b in zip(taus, taus[1:])]
    certified = min(ratios)
    if certified < lam_claim:
        raise NotLacunary(
            f"smallest ratio {certified} is below the claimed factor {lam_claim}"
        )
    return LacunarySpec(tau=taus, lam=certified)


# ------------------------------------------------------------------ expansion

@frozen
class FrequencyTerm:
    """One summand coef * sin(2 pi freq x) or coef * cos(2 pi freq x)."""

    freq: float
    kind: str  # "sin" or "cos"
    coef: float


@frozen
class ProductExpansion:
    """Product of sines rewritten as a sum of 2**(v-1) single harmonics."""

    subset: tuple[int, ...]
    terms: tuple[FrequencyTerm, ...]


def expand_product(spec: LacunarySpec, subset: Sequence[int]) -> ProductExpansion:
    """Rewrite prod_j sin(2 pi tau(n_j) x) as a sum of single sin/cos terms.

    Multiplying in the new largest frequency tau each time uses
        sin(w) sin(t) = (cos(t - w) - cos(t + w)) / 2
        cos(w) sin(t) = (sin(t + w) + sin(t - w)) / 2
    so every final frequency is tau(n_v) +- tau(n_{v-1}) +- ... +- tau(n_1)
    and every coefficient is +-2**(1-v).  Negative intermediate
    frequencies are folded back via parity.
    """
    s = _validate_subset(subset, spec.n)
    terms: list[tuple[float, str, float]] = [(spec.tau[s[0] - 1], "sin", 1.0)]
    for idx in s[1:]:
        t = spec.tau[idx - 1]
        new: list[tuple[float, str, float]] = []
        for w, kind, coef in terms:
            if kind == "sin":
                new.append((t - w, "cos", coef / 2.0))
                new.append((t + w, "cos", -coef / 2.0))
            else:
                new.append((t + w, "sin", coef / 2.0))
                new.append((t - w, "sin", coef / 2.0))
        terms = new
    folded = []
    for w, kind, coef in terms:
        if w < 0:
            w, coef = -w, (-coef if kind == "sin" else coef)
        folded.append(FrequencyTerm(freq=w, kind=kind, coef=coef))
    return ProductExpansion(subset=s, terms=tuple(folded))


def _harmonic_integral(freq: float, kind: str) -> float:
    """Exact integral of sin/cos(2 pi freq x) over [0, 1).

    Near-zero frequencies take the removable-singularity value: the cos
    integral tends to the domain length 1, the sin integral to 0.
    """
    if abs(freq) < ZERO_FREQ_TOL:
        return 1.0 if kind == "cos" else 0.0
    w = 2.0 * math.pi * freq
    if kind == "sin":
        return (1.0 - math.cos(w)) / w
    return math.sin(w) / w


def product_integral(spec: LacunarySpec, subset: Sequence[int]) -> float:
    """Closed-form integral of the subset product over [0, 1)."""
    expansion = expand_product(spec, subset)
    return sum(t.coef * _harmonic_integral(t.freq, t.kind) for t in expansion.terms)


def signed_sums(spec: LacunarySpec, subset: Sequence[int]) -> list[float]:
    """All values tau(n_v) +- ... +- tau(n_1), the expansion frequencies before folding."""
    s = _validate_subset(subset, spec.n)
    head = spec.tau[s[-1] - 1]
    rest = [spec.tau[i - 1] for i in s[:-1]]
    sums = []
    for signs in iter_product((1.0, -1.0), repeat=len(rest)):
        sums.append(head + sum(sg * t for sg, t in zip(signs, rest)))
    return sums


def frequency_range_check(spec: LacunarySpec, subset: Sequence[int]) -> bool:
    """Containment of every signed frequency sum in the open interval

        ((lam - 2) tau(n_v) / (lam - 1),  lam tau(n_v) / (lam - 1)),

    which holds for lam > 2 because the lower-order frequencies sum to
    less than tau(n_v) / (lam - 1)."""
    if not spec.lam > 2:
        raise LambdaTooSmall(f"containment needs lambda > 2, got {spec.lam}")
    s = _validate_subset(subset, spec.n)
    head = spec.tau[s[-1] - 1]
    lo = (spec.lam - 2.0) * head / (spec.lam - 1.0)
    hi = spec.lam * head / (spec.lam - 1.0)
    return all(lo < v < hi for v in signed_sums(spec, s))


def collection_bound(spec: LacunarySpec, subset: Sequence[int]) -> float:
    """Per-subset integral bound (lam - 1) / (pi (lam - 2) tau(n_v)) for lam > 2."""
    if not spec.lam > 2:
        raise LambdaTooSmall(f"the bound needs lambda > 2, got {spec.lam}")
    s = _validate_subset(subset, spec.n)
    head = spec.tau[s[-1] - 1]
    return (spec.lam - 1.0) / _denominator(math.pi * (spec.lam - 2.0) * head, spec.lam)


def global_mu_bound(lam: float) -> float:
    """lambda (lambda - 1) / (pi (lambda - 2)^2), the summed bound for lam > 2."""
    if not lam > 2:
        raise LambdaTooSmall(f"the bound needs lambda > 2, got {lam}")
    return lam * (lam - 1.0) / _denominator(math.pi * (lam - 2.0) ** 2, lam)


def _denominator(value: float, lam: float) -> float:
    """A bound's denominator, refused once it overflows: a bound divided by
    inf would read 0 and pass every check."""
    if not math.isfinite(value):
        raise OutOfRange(f"growth factor {lam} is too large: a bound's denominator overflows")
    return value


# ------------------------------------------------------------------ truncated mu

@frozen
class CollectionEntry:
    subset: tuple[int, ...]
    integral: float
    head_bound: float
    within: bool


@frozen
class TruncatedMuReport:
    mu_truncated: float
    global_bound: float
    tail_bound: float
    holds: bool
    entries: tuple[CollectionEntry, ...]
    violations: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "mu_truncated": {"value": self.mu_truncated, "approx": True},
            "global_bound": {"value": self.global_bound, "approx": True},
            "tail_bound": {"value": self.tail_bound, "approx": True},
            "holds": self.holds,
            "violations": [list(v) for v in self.violations],
        }


HEAD_TOL = 1e-9


def truncated_mu(spec: LacunarySpec, nu_max: int) -> TruncatedMuReport:
    """Sum of |closed-form integrals| over subsets of size <= nu_max.

    Each subset is also checked against its per-head bound; the report
    lists any violations (there should be none for lam > 2) and appends
    the analytic tail bound covering all subsets with head index beyond n.
    """
    if not 1 <= nu_max <= spec.n:
        raise OutOfRange(f"subset size cap must lie in 1..{spec.n}, got {nu_max}")
    if not spec.lam > 2:
        raise LambdaTooSmall(f"the global bound needs lambda > 2, got {spec.lam}")
    count = sum(math.comb(spec.n, v) for v in range(1, nu_max + 1))
    if count > SUBSET_CAP:
        raise CapacityExceeded(f"{count} subsets exceed the cap of {SUBSET_CAP}")
    entries = []
    violations = []
    mu = 0.0
    for v in range(1, nu_max + 1):
        for s in combinations(range(1, spec.n + 1), v):
            val = product_integral(spec, s)
            bound = collection_bound(spec, s)
            within = abs(val) <= bound + HEAD_TOL
            if not within:
                violations.append(s)
            entries.append(
                CollectionEntry(subset=s, integral=val, head_bound=bound, within=within)
            )
            mu += abs(val)
    bound = global_mu_bound(spec.lam)
    return TruncatedMuReport(
        mu_truncated=mu,
        global_bound=bound,
        tail_bound=analytic_tail_bound(spec),
        holds=mu <= bound + HEAD_TOL,
        entries=tuple(entries),
        violations=tuple(violations),
    )


def analytic_tail_bound(spec: LacunarySpec) -> float:
    """Bound on the mu mass of all subsets whose head index exceeds n.

    A head at index n + j contributes at most 2**(n+j-1) subsets, each
    bounded by (lam - 1) / (pi (lam - 2) tau(n + j)); summing the
    geometric series with tau(n + j) >= tau(n) lam**j gives

        2**n (lam - 1) / (pi (lam - 2)^2 tau(n)).
    """
    if not spec.lam > 2:
        raise LambdaTooSmall(f"the tail bound needs lambda > 2, got {spec.lam}")
    return (
        2.0**spec.n
        * (spec.lam - 1.0)
        / _denominator(math.pi * (spec.lam - 2.0) ** 2 * spec.tau[-1], spec.lam)
    )


def split_for_growth(spec: LacunarySpec, target: float = 3.0) -> list[LacunarySpec]:
    """Interleave the sequence into ceil(log_lam target) subsequences.

    Taking every s-th frequency multiplies consecutive ratios, so each
    subsequence is lacunary with factor at least lam**s >= target.  This
    upgrades any lam > 1 sequence to growth factor >= target at the price
    of analyzing s sequences.
    """
    if not spec.lam > 1:
        raise NotLacunary(f"growth factor must exceed 1, got {spec.lam}")
    if target <= spec.lam:
        return [spec]
    s = math.ceil(math.log(target) / math.log(spec.lam))
    out = []
    for start in range(s):
        taus = spec.tau[start::s]
        if not taus:
            continue
        if len(taus) == 1:
            out.append(LacunarySpec(tau=taus, lam=spec.lam**s))
        else:
            out.append(explicit_spec(taus, spec.lam))
    return out


# ------------------------------------------------------------------ quadrature oracle

@lru_cache(maxsize=1)
def _gauss_nodes() -> tuple[np.ndarray, np.ndarray]:
    import numpy as np  # the quadrature oracle alone needs numpy; the CLI never loads it

    x, w = np.polynomial.legendre.leggauss(QUAD_ORDER)
    return x, w


def quadrature_product_integral(
    spec: LacunarySpec,
    subset: Sequence[int],
    max_panels: int = 10**6,
) -> float:
    """Numerically integrate the sine product over [0, 1), independent of
    the expansion path.

    Composite Gauss-Legendre of QUAD_ORDER nodes on a uniform panel grid
    seeded from the total frequency (at least eight nodes per
    oscillation), refined by doubling until two successive estimates
    agree within QUAD_TOL.  Raises CapacityExceeded if the panel cap is
    hit before convergence.
    """
    import numpy as np

    s = _validate_subset(subset, spec.n)
    freqs = np.array([spec.tau[i - 1] for i in s], dtype=float)
    total_freq = float(freqs.sum())
    nodes, weights = _gauss_nodes()
    panels = max(16, math.ceil(total_freq / 4.0))
    if panels > max_panels:
        raise CapacityExceeded(
            f"oscillation needs {panels} panels, above the cap of {max_panels}"
        )

    def estimate(p: int) -> float:
        h = 1.0 / p
        total = 0.0
        chunk = (1 << 21) // QUAD_ORDER
        for start in range(0, p, chunk):
            stop = min(start + chunk, p)
            left = (np.arange(start, stop, dtype=float) * h)[:, None]
            pts = left + (nodes[None, :] + 1.0) * (h / 2.0)
            vals = np.ones_like(pts)
            for f in freqs:
                vals *= np.sin((2.0 * math.pi * f) * pts)
            total += float((vals @ weights).sum()) * (h / 2.0)
        return total

    prev = estimate(panels)
    while panels * 2 <= max_panels:
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) < QUAD_TOL:
            return cur
        prev = cur
    raise CapacityExceeded(
        f"no convergence within {max_panels} panels (last estimate {prev})"
    )
