"""Ground-truth machinery: exact tails, binomial sandwiches, Monte Carlo.

Exact tail probabilities for sums of i.i.d. finite-support zero-mean
increments are computed by an array DP over the sums' integer lattice keys:
an exact integer value lattice (rational supports) or a 1e-12-quantized
lattice (irrational supports, worst-case threshold error n*1e-12). Its size
is capped by the number of lattice states it can hold. These serve as
oracles proving the analytic bounds valid on small instances.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bounds import divergence_exponent
from .pmf import FinitePmf
from .specfun import binary_divergence

_RATIONAL_DENOM_CAP = 10**6
_QUANT = 10**12  # fallback value grid: 1e-12 bins
_STATE_CAP = 5_000_000
_SAMPLE_BLOCK = 2**14  # Monte Carlo cells drawn per block in sample_sums
_WILSON_Z = 1.959963984540054  # 95% normal quantile


class InfeasibleError(ValueError):
    """The requested exact computation exceeds the supported size."""


@dataclass(frozen=True)
class IncrementLaw:
    """A finite-support, zero-mean increment law: a FinitePmf on its values."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        pmf = FinitePmf(tuple(float(v) for v in self.values), self.probs)
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

    def sample_sums(self, rng: np.random.Generator, n: int, size: int) -> np.ndarray:
        """``size`` sums of n i.i.d. increments, by blocked inverse-CDF sampling.

        Bit-identical to ``rng.choice(values, size=(size, n), p=probs)
        .sum(axis=1)``: the uniforms u come from ``rng.random`` in the same
        order, each step index counts the knots of ``cumsum(probs) /
        cumsum[-1]``, all but the last, that are <= u (what ``choice``'s
        ``searchsorted(side='right')`` returns), and each row is summed
        whole. Rows are drawn a block of about ``_SAMPLE_BLOCK`` cells at a
        time, so memory beyond the result is O(block), not O(size*n). The
        count costs one pass per support point, so it beats ``choice``'s
        binary search only up to about 100 support points.
        """
        values = np.array(self.values)
        cdf = np.cumsum(self.probs)
        knots = cdf[:-1] / cdf[-1]
        rows = max(1, _SAMPLE_BLOCK // n)
        u = np.empty((min(rows, size), n))
        idx = np.empty(u.shape, dtype=np.intp)
        above = np.empty(u.shape, dtype=bool)
        steps = np.empty(u.shape)
        sums = np.empty(size)
        for start in range(0, size, rows):
            k = min(rows, size - start)
            ub, ib, ab, sb = u[:k], idx[:k], above[:k], steps[:k]
            rng.random(out=ub)
            ib.fill(0)
            for knot in knots:
                np.greater_equal(ub, knot, out=ab)
                ib += ab
            np.take(values, ib, out=sb, mode="clip")  # ib is in range; unbuffered
            sb.sum(axis=1, out=sums[start : start + k])
        return sums


def two_point_increment(d: float, eps: float) -> IncrementLaw:
    """+d w.p. eps and -eps*d/(1-eps) w.p. 1-eps: zero mean, |X| <= d."""
    if d <= 0.0:
        raise ValueError("d must be positive")
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
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        if n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "n", n)


def _integer_lattice(values: Sequence[float]):
    """Map values to integers a_i/L exactly, or None if not rational."""
    fracs = []
    for v in values:
        f = Fraction(v).limit_denominator(_RATIONAL_DENOM_CAP)
        if abs(float(f) - v) > 1e-12 * max(1.0, abs(v)):
            return None
        fracs.append(f)
    denom = math.lcm(*(f.denominator for f in fracs))
    return [int(f * denom) for f in fracs], denom


def exact_tail_dp(law: IncrementLaw, query: TailQuery) -> float:
    """Exact tail of S_n = sum of n i.i.d. increments by lattice convolution.

    Rational supports (denominators up to 1e6) use an exact integer
    lattice, so threshold comparisons are exact; other supports are
    quantized to a 1e-12 grid. Each of the n rounds adds every step to
    every lattice key and merges equal sums with np.unique/np.bincount.
    Keys are held in descending order, which fixes the order in which each
    merged float64 probability adds its terms. Keys are int64 while
    n*max|step| < 2**62 and exact Python ints (dtype=object) beyond. With s
    support points the DP holds at most
    min(comb(n+s-1, s-1), n*(max step - min step) + 1) keys; InfeasibleError
    is raised only when that exceeds the state cap. The cap bounds memory,
    not time: each round sorts states*s candidate sums, so time grows like
    n*states*log(states): {+-1, +-1/2} at n = 5000 took 10 s on one Xeon core.
    """
    n = query.n
    lattice = _integer_lattice(law.values)
    if lattice is not None:
        steps, denom = lattice
        thresh = Fraction(query.threshold) * denom
    else:
        steps = [round(v * _QUANT) for v in law.values]
        thresh = Fraction(round(query.threshold * _QUANT))

    s = len(steps)
    states = min(math.comb(n + s - 1, s - 1), n * (max(steps) - min(steps)) + 1)
    if states > _STATE_CAP:
        raise InfeasibleError(
            f"support {s}, n={n}: {states} lattice states exceeds cap"
        )

    dtype = np.int64 if n * max(map(abs, steps)) < 2**62 else object
    step_keys, step_probs = np.array(steps, dtype=dtype), np.array(law.probs)
    keys, dist = np.zeros(1, dtype=dtype), np.ones(1)
    for _ in range(n):
        sums = (keys[:, None] + step_keys).ravel()
        keys, merge = np.unique(sums, return_inverse=True)
        dist = np.bincount(merge, weights=(dist[:, None] * step_probs).ravel())
        keys, dist = keys[::-1], dist[::-1]

    upper = math.fsum(dist[keys >= math.ceil(thresh)])
    if not query.two_sided:
        return min(1.0, upper)
    lower = math.fsum(dist[keys <= math.floor(-thresh)])
    return min(1.0, upper + lower)


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
    tail P(S >= k) computed with exact binomial coefficients.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError("p must lie in (0, 1/2]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not p <= r <= 1.0:
        raise ValueError("r must lie in [p, 1]")
    k0 = math.ceil(Fraction(r) * n)
    r_eff = k0 / n
    exact = math.fsum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(k0, n + 1)
    )
    if k0 == n:
        # boundary cell: e^{-n D(1||p)} = p^n exactly; evaluate it as such
        # so the float sandwich is not broken by exp/log round-off
        upper = p**n
    else:
        upper = math.exp(-n * binary_divergence(r_eff, p))
    return SandwichTriple(
        lower=upper / (n + 1), exact=exact, upper=upper, r_lattice=r_eff
    )


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


def _worker_count() -> int:
    raw = os.environ.get("TAILFORGE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


_N_SHARDS = 16


def monte_carlo_tail(
    sampler, query: TailQuery, trials: int, seed: int, workers: Optional[int] = None
) -> McTail:
    """Seeded Monte Carlo estimate of the queried tail with Wilson 95% CI.

    ``sampler`` is an IncrementLaw or any callable (rng, n, size) -> sums.
    Trials are always split across a fixed number of spawned generator
    substreams and the per-shard hit counts summed, so the result depends
    only on (sampler, query, trials, seed); the worker count (defaulting
    to TAILFORGE_THREADS) changes wall time only. An IncrementLaw draws
    with ``sample_sums``, whose blocked inverse-CDF sampler gives the same
    sums bit for bit as ``rng.choice(values, size=(count, n), p=probs)
    .sum(axis=1)`` on each shard's stream, in O(block) memory per shard
    beyond its ``count`` sums.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if workers is None:
        workers = _worker_count()
    draw = sampler.sample_sums if isinstance(sampler, IncrementLaw) else sampler
    streams = np.random.default_rng(seed).spawn(_N_SHARDS)
    shares = [trials // _N_SHARDS] * _N_SHARDS
    shares[0] += trials - sum(shares)

    def run(args) -> int:
        rng, count = args
        if count == 0:
            return 0
        sums = draw(rng, query.n, count)
        if query.two_sided:
            return int(np.count_nonzero(np.abs(sums) >= query.threshold))
        return int(np.count_nonzero(sums >= query.threshold))

    jobs = list(zip(streams, shares))
    if workers == 1:
        hits = sum(map(run, jobs))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(run, jobs))
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
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if d <= 0.0:
        raise ValueError("d must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    law = two_point_increment(d, eps)
    azuma = min(1.0, math.exp(-k * x * x / (2.0 * d * d)))
    thm2 = min(1.0, math.exp(-k * divergence_exponent(eps / (1.0 - eps), x / d)))
    exact = exact_tail_dp(law, TailQuery(n=k, threshold=x * k, two_sided=False))
    return Example3Comparison(azuma=azuma, thm2=thm2, exact=exact)
