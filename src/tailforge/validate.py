"""Ground-truth machinery: exact tails, binomial sandwiches, Monte Carlo.

Exact tail probabilities for sums of i.i.d. finite-support zero-mean
increments are computed on one exact integer lattice of the values, by a
dense array DP where the lattice is narrow and by multinomial count vectors
elsewhere, capped by the entries held and the work done. These serve as
oracles proving the analytic bounds valid on small instances.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import ExponentValue, as_count, as_real, divergence_exponent, tail_bound
from .pmf import FinitePmf
from .specfun import InfeasibleError, binary_divergence

_RATIONAL_DENOM_CAP = 10**6
_STATE_CAP = 5_000_000  # lattice entries the DP may hold
# updates; on one Xeon core the dense kernel made 9.2e9 in 4.0 s
_WORK_CAP = 10**10
# dense kernel while the lattice width is at most this times the count vectors,
# which keeps dense tails' bits. On one Xeon core count vectors take 1.0 ms for
# steps (1, -1) at n = 3000 (dense 29), and 9.8 ms for (1, 0, -1) at n = 400 (3.4)
_DENSE_FACTOR = 32
_SAMPLE_BLOCK = 2**14  # Monte Carlo cells (uniforms) drawn per block
_UNIT_ROUNDOFF = 2.0**-53
_WILSON_Z = 1.959963984540054  # 95% normal quantile
_FLOAT_MIN = sys.float_info.min  # smallest normal double


@dataclass(frozen=True)
class IncrementLaw:
    """A finite-support, zero-mean increment law: a FinitePmf on its values."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        values = tuple(as_real(v, "values entry") for v in self.values)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"law values must be finite, got {values}")
        pmf = FinitePmf(values, self.probs)
        values, probs = pmf.symbols, pmf.probs
        scale = max(abs(v) for v in values)
        mean = math.fsum(v * p for v, p in zip(values, probs))
        if abs(mean) > 1e-12 * max(1.0, scale):
            raise ValueError(f"law must have zero mean, got {mean}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def d(self) -> float:
        """Uniform bound on |increment|."""
        return max(abs(v) for v in self.values)

    @property
    def variance(self) -> float:
        return math.fsum(p * v * v for v, p in zip(self.values, self.probs))

    def abs_moment(self, l: int) -> float:
        return math.fsum(p * abs(v) ** l for v, p in zip(self.values, self.probs))


def two_point_increment(d: float, eps: float) -> IncrementLaw:
    """+d w.p. eps and -eps*d/(1-eps) w.p. 1-eps: zero mean, |X| <= d."""
    if not 0.0 < d < math.inf:
        raise ValueError(f"d must be positive and finite, got {d!r}")
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    return IncrementLaw((d, -eps * d / (1.0 - eps)), (eps, 1.0 - eps))


def bernoulli_centered_increment(p: float) -> IncrementLaw:
    """X - p for X ~ Bernoulli(p): values (1-p, -p) w.p. (p, 1-p)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return IncrementLaw((1.0 - p, -p), (p, 1.0 - p))


@dataclass(frozen=True)
class TailQuery:
    """P(S_n >= threshold), or P(|S_n| >= threshold) when two_sided."""

    n: int
    threshold: float
    two_sided: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "n"))
        if not abs(self.threshold) <= sys.float_info.max:  # ints past it too
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")


def _integer_lattice(values: Sequence[float]):
    """Integers a_i and one denominator L with a_i/L the exact value of each.

    A value within 4 ulps of a rational with denominator up to 1e6 (as a
    quotient such as -0.1/0.9 is) is taken as that rational; any other float,
    sqrt(5) too, as its exact binary fraction.
    """
    near = [Fraction(v).limit_denominator(_RATIONAL_DENOM_CAP) for v in values]
    fracs = [
        f if abs(float(f) - v) <= 4 * math.ulp(v) else Fraction(v)
        for f, v in zip(near, values)
    ]
    denom = math.lcm(*(f.denominator for f in fracs))
    return [int(f * denom) for f in fracs], denom


def _count_masses(steps: list, probs: Sequence[float], n: int):
    """Keys and probabilities of S_n, one per count vector of the p > 0 points.

    S_n depends only on how often each point is drawn, and that count
    vector k (sum n) is multinomial: its mass is exp(ln n! - sum ln k_i! +
    sum k_i ln p_i), from one lgamma table, and its key is k @ steps. Keys
    are int64 while n*max|step| < 2**62 and exact Python ints beyond.
    """
    live = [i for i, p in enumerate(probs) if p > 0.0]
    counts = np.zeros((1, 0), dtype=np.int64)
    for _ in live[1:]:  # append each coordinate but the last, which takes the rest
        reps = n + 1 - counts.sum(axis=1)  # choices left for this coordinate
        k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack((counts.repeat(reps, axis=0), k))
    counts = np.column_stack((counts, n - counts.sum(axis=1)))
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_p = np.log([probs[i] for i in live])
    mass = np.exp(log_fact[n] - log_fact[counts].sum(axis=1) + counts @ log_p)
    dtype = np.int64 if n * max(map(abs, steps)) < 2**62 else object
    live_steps = np.array([steps[i] for i in live], dtype=dtype)
    keys = counts.astype(dtype, copy=False) @ live_steps
    return keys, mass


def _dense_rounds(steps: list, probs: Sequence[float], n: int):
    """Keys (ascending) and probabilities of S_n on the whole lattice width.

    dist[i] holds key n*min(steps) + i. Each round adds p*dist into a
    slice shifted by step - min(steps), once per step in ascending step
    order (ties in support order); keys it never reaches hold exact zeros.
    Two buffers of the final width swap roles each round; a third holds
    the products.
    """
    lo = min(steps)
    span = max(steps) - lo
    first, *rest = sorted(range(len(steps)), key=steps.__getitem__)
    cur, nxt, term = (np.empty(n * span + 1) for _ in range(3))
    cur[0] = 1.0
    for r in range(n):
        w = r * span + 1  # lattice width after r rounds
        src, t = cur[:w], term[:w]
        np.multiply(src, probs[first], out=nxt[:w])  # shift 0, where 0.0 + t is t
        nxt[w : w + span] = 0.0
        for j in rest:
            np.multiply(src, probs[j], out=t)
            nxt[steps[j] - lo : steps[j] - lo + w] += t
        cur, nxt = nxt, cur
    return n * lo + np.arange(n * span + 1), cur


def exact_tail_dp(law: IncrementLaw, query: TailQuery) -> float:
    """Exact tail of S_n = sum of n i.i.d. increments on an exact integer lattice.

    ``_integer_lattice`` gives integer steps over one denominator, so the
    threshold is compared with S_n's integer keys and ties are exact. With s
    support points, S_n has at most comb = comb(n+s-1, s-1) count vectors on
    a lattice of width n*(max step - min step) + 1. The dense kernel
    (``_dense_rounds``) runs while the width is at most _DENSE_FACTOR * comb
    and _STATE_CAP; count vectors (``_count_masses``) run otherwise, e.g. on
    binary-fraction supports or steps (99, -1), width 100n+1 for n+1 vectors.
    InfeasibleError is raised before any work when the entries held (width,
    or comb) exceed _STATE_CAP, which bounds memory, or the updates
    (n * s * width, or s * comb) exceed _WORK_CAP, which bounds time.
    """
    n = query.n
    steps, denom = _integer_lattice(law.values)
    s = len(steps)
    width = n * (max(steps) - min(steps)) + 1
    comb = math.comb(n + s - 1, s - 1)
    dense = width <= min(_DENSE_FACTOR * comb, _STATE_CAP)
    held, work = (width, n * s * width) if dense else (comb, s * comb)
    if held > _STATE_CAP or work > _WORK_CAP:
        raise InfeasibleError(
            f"support {s}, n={n}: {held} lattice entries and {work} updates "
            f"exceed the caps ({_STATE_CAP} entries, {_WORK_CAP} updates)"
        )

    if dense:  # on the lattice the sums reach: steps (v - lo)/g, keys n*lo + g*k
        lo = min(steps)
        g = math.gcd(*(v - lo for v in steps)) or 1
        keys, dist = _dense_rounds([(v - lo) // g for v in steps], law.probs, n)
        keys = n * lo + g * keys
    else:
        keys, dist = _count_masses(steps, law.probs, n)
    thresh = Fraction(query.threshold) * denom
    tail = math.fsum(dist[keys >= math.ceil(thresh)])
    if query.two_sided:
        tail += math.fsum(dist[keys <= math.floor(-thresh)])
    return min(1.0, tail)


@dataclass(frozen=True)
class SandwichTriple:
    """e^{-nD(r||p)}/(n+1) <= P(mean >= r) <= e^{-nD(r||p)} on the type lattice."""

    lower: float
    exact: float
    upper: float
    r_lattice: float  # r rounded up to the nearest k/n


def types_sandwich_check(p: float, n: int, r: float) -> SandwichTriple:
    """Method-of-types sandwich for i.i.d. Bernoulli(p), p <= r <= 1.

    r is rounded up to the type lattice k/n; exact is the binomial upper
    tail P(S >= k), from the exact coefficient C(n, k) for its first term
    and the ratio (n-k)/(k+1) * p/(1-p) for each next one (the terms fall,
    as k >= np). A first coefficient above the float range (possible once
    n >= 1030) raises InfeasibleError.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError("p must lie in (0, 1/2]")
    n = as_count(n, "n")
    if not p <= r <= 1.0:
        raise ValueError("r must lie in [p, 1]")
    num, den = r.as_integer_ratio()
    k0 = -(-num * n // den)  # ceil(r * n), exact
    r_eff, q = k0 / n, 1.0 - p
    pk = p**k0
    try:
        term = math.comb(n, k0) * pk * q ** (n - k0)
    except OverflowError:
        raise InfeasibleError(
            f"n={n}: C(n, {k0}) exceeds the float range (all fit for n <= 1029)"
        ) from None
    if pk < _FLOAT_MIN and k0 < n:
        # p**k0 lost digits to underflow where the term need not: carry its
        # binary exponent, with p's mantissa in [0.75, 1.5) so mp**k0 and the
        # product stay normal (k0 = n keeps p**n, which upper also uses)
        (mc, ec), (mp, ep) = math.frexp(math.comb(n, k0)), math.frexp(p)
        if mp < 0.75:
            mp, ep = 2.0 * mp, ep - 1
        term = math.ldexp(mc * mp**k0 * q ** (n - k0), ec + ep * k0)
    terms, ratio = [term], p / q
    for k in range(k0, n):
        term *= (n - k) / (k + 1) * ratio
        terms.append(term)
    exact = math.fsum(terms)
    # boundary cell: e^{-n D(1||p)} = p^n exactly; evaluate it as such so the
    # float sandwich is not broken by exp/log round-off
    upper = p**n if k0 == n else math.exp(-n * binary_divergence(r_eff, p))
    return SandwichTriple(upper / (n + 1), exact, upper, r_eff)


@dataclass(frozen=True)
class McTail:
    """Empirical tail frequency with a Wilson 95% score interval."""

    estimate: float
    lower: float
    upper: float
    trials: int


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    z = _WILSON_Z
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


_N_SHARDS = 16


def _choice_knots(probs) -> np.ndarray:
    """rng.choice's inverse-CDF knots, cumsum(probs) / its last entry, but for 1."""
    cdf = np.cumsum(probs)
    return cdf[:-1] / cdf[-1]


def _block_hits(u, values, knots, query: TailQuery, tol: float, work) -> int:
    """Rows of the uniforms u (k x n) whose step sum meets query, summed as choice does.

    A cell's step is values[searchsorted(knots, u, side="right")], the index
    rng.choice takes. Each row's count of cells at or past each knot is an
    exact integer in float (a sum of 0s and 1s below 2**53), so the estimate
    E = sum_i c_i v_i of its step sum is within gamma_s * n * d of the exact
    sum, and choice's float row sum, in any order, within gamma_{n-1} * n * d
    (Higham 2002, Accuracy and Stability of Numerical Algorithms, 4.2). tol
    covers both: a row with E (|E| when two-sided) >= threshold + tol is a
    hit, one below threshold - tol a miss, and any other row is summed as
    choice sums it. work is a float buffer of u's width and at least its
    rows. Rows are summed by einsum, not a BLAS mat-vec, as threaded BLAS
    can stall for milliseconds on a one-row block when two cores are free.
    """
    k, n = u.shape
    past = work[:k]
    counts = np.empty((len(knots) + 2, k))  # row j: cells at or past knot j
    counts[0], counts[-1] = n, 0.0  # every cell is past knot 0 (0), none past 1
    for j, knot in enumerate(knots.tolist(), 1):
        np.greater_equal(u, knot, out=past)
        np.einsum("ij->i", past, out=counts[j])
    est = np.einsum("i,ij->j", values, counts[:-1] - counts[1:])
    if query.two_sided:
        np.abs(est, out=est)
    hi, lo = query.threshold + tol, query.threshold - tol
    hits = np.count_nonzero(est >= hi)
    if hits + np.count_nonzero(est < lo) < k:
        near = ~((est >= hi) | (est < lo))
        sums = values[np.searchsorted(knots, u[near], side="right")].sum(axis=1)
        if query.two_sided:
            np.abs(sums, out=sums)
        hits += np.count_nonzero(sums >= query.threshold)
    return int(hits)


def monte_carlo_tail(
    law: IncrementLaw, query: TailQuery, trials: int, seed: int
) -> McTail:
    """Seeded Monte Carlo estimate of the queried tail with Wilson 95% CI.

    Trials are split across a fixed number of spawned generator substreams
    and the per-shard hit counts summed, so the result depends only on
    (law, query, trials, seed). Each shard's hit count is the one
    ``rng.choice(values, size=(count, n), p=probs).sum(axis=1)`` gives on
    its stream: the same uniforms are drawn, a block of about
    ``_SAMPLE_BLOCK`` cells at a time, and ``_block_hits`` decides each row
    from its step counts, summing a row only where rounding could carry it
    across the threshold. Memory is O(block), whatever the trial count.
    """
    trials = as_count(trials, "trials", 100)
    n, values, knots = query.n, np.array(law.values), _choice_knots(law.probs)
    tol = 2 * (n + values.size) * _UNIT_ROUNDOFF * n * law.d
    if not 2.0 * n * law.d < sys.float_info.max:
        tol = math.nan  # E may overflow: a NaN band sends every row the exact way
    streams = np.random.default_rng(seed).spawn(_N_SHARDS)
    shares = [trials // _N_SHARDS] * _N_SHARDS
    shares[0] += trials - sum(shares)
    rows = min(max(1, _SAMPLE_BLOCK // n), shares[0])
    u, work = np.empty((rows, n)), np.empty((rows, n))
    hits = 0
    for rng, count in zip(streams, shares):
        for start in range(0, count, rows):
            block = u[: count - start]
            rng.random(out=block)
            hits += _block_hits(block, values, knots, query, tol, work)
    lo, hi = _wilson_interval(hits, trials)
    return McTail(estimate=hits / trials, lower=lo, upper=hi, trials=trials)


@dataclass(frozen=True)
class Example3Comparison:
    """Azuma vs divergence-route bound vs exact tail on the two-point law.

    All three refer to the event {X_k >= x*k} for the martingale with
    increments +d w.p. eps and -eps*d/(1-eps) w.p. 1-eps.
    """

    azuma: float
    thm2: float
    exact: float


def example3_comparison(eps: float, d: float, x: float, k: int) -> Example3Comparison:
    """Compare exp(-k x^2/(2 d^2)), exp(-k D(x(1-eps)/d + eps || eps)), exact.

    The middle bound is the divergence exponent at gamma = eps/(1-eps),
    delta = x/d. As eps -> 0 it vanishes for any fixed x > 0 while
    Azuma's stays put; bounds >= 1 are reported as 1.
    """
    k = as_count(k, "k")
    if not 0.0 <= x * k < math.inf:
        raise ValueError(f"x must be non-negative with x*k finite, got {x!r}")
    law, r = two_point_increment(d, eps), x / d
    # k*r*r/2 at length 1: length k's k*(r*r/2) can round to another float
    azuma = tail_bound(ExponentValue(k * r * r / 2.0), 1, two_sided=False)
    gamma = eps / (1.0 - eps)
    thm2 = tail_bound(ExponentValue(divergence_exponent(gamma, r)), k, two_sided=False)
    exact = exact_tail_dp(law, TailQuery(n=k, threshold=x * k, two_sided=False))
    return Example3Comparison(azuma=azuma, thm2=thm2, exact=exact)
