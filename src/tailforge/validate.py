"""Ground-truth machinery: exact tails, binomial sandwiches, Monte Carlo.

Exact tail probabilities for sums of i.i.d. finite-support zero-mean
increments are computed by an array DP over the sums' integer lattice keys:
an exact integer value lattice (rational supports) or a 1e-12-quantized
lattice (irrational supports, worst-case threshold error n*1e-12). Its size
is capped by the entries it holds and by the work of its n rounds. These
serve as oracles proving the analytic bounds valid on small instances.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import divergence_exponent
from .pmf import FinitePmf
from .specfun import binary_divergence

_RATIONAL_DENOM_CAP = 10**6
_QUANT = 10**12  # fallback value grid: 1e-12 bins
_STATE_CAP = 5_000_000  # lattice entries the DP may hold
# n * support size * entries held; on one Xeon core the dense kernel made
# 9.2e9 updates in 4.0 s and the sorted merge 2e8 in 4.5 s
_WORK_CAP = 10**10
# dense kernel while the lattice width is at most this times the reachable
# states: on two-point laws at n = 3000 it is 4x faster than the sorted
# merge at steps (19, -1) (width/states 20) and 1.8x slower at (99, -1) (100)
_DENSE_FACTOR = 32
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
        try:
            if isinstance(self.n, bool):
                raise TypeError
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        if n < 1:
            raise ValueError("n must be >= 1")
        if not abs(self.threshold) <= sys.float_info.max:  # ints past it too
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")
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


def _sparse_rounds(steps: list, probs: Sequence[float], n: int):
    """Keys (descending) and probabilities of S_n by a sorted merge per round.

    Each round adds every step to every key and merges equal sums with
    np.unique/np.bincount. bincount adds the terms of each key in input
    order; keys descend, so each key meets its terms in ascending step
    order. Keys are int64 while n*max|step| < 2**62 and exact Python ints
    (dtype=object) beyond.
    """
    dtype = np.int64 if n * max(map(abs, steps)) < 2**62 else object
    step_keys, step_probs = np.array(steps, dtype=dtype), np.array(probs)
    keys, dist = np.zeros(1, dtype=dtype), np.ones(1)
    for _ in range(n):
        sums = (keys[:, None] + step_keys).ravel()
        keys, merge = np.unique(sums, return_inverse=True)
        dist = np.bincount(merge, weights=(dist[:, None] * step_probs).ravel())
        keys, dist = keys[::-1], dist[::-1]
    return keys, dist


def _dense_rounds(steps: list, probs: Sequence[float], n: int):
    """Keys (ascending) and probabilities of S_n on the whole lattice width.

    dist[i] holds key n*min(steps) + i. Each round adds p*dist into a
    slice shifted by step - min(steps), once per step in ascending step
    order (ties in support order), so every key adds the same terms in the
    same order as ``_sparse_rounds``; keys it never reaches hold exact zeros.
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
    """Exact tail of S_n = sum of n i.i.d. increments by lattice convolution.

    Rational supports (denominators up to 1e6) use an exact integer
    lattice, so threshold comparisons are exact; other supports are
    quantized to a 1e-12 grid. With s support points, S_n takes at most
    comb(n+s-1, s-1) values on a lattice of width n*(max step - min step)
    + 1. Two kernels hold the distribution:

    - dense (``_dense_rounds``), when the width is at most _DENSE_FACTOR
      times the comb term and at most _STATE_CAP: an array over the whole
      width, one shifted multiply-add per step and round;
    - sparse (``_sparse_rounds``) otherwise, e.g. quantized supports
      (width about n*1e12) or the two-point law at eps = 0.01 (steps
      99, -1: width 100n+1 against n+1 values): only reachable keys, one
      np.unique sort of states*s candidate sums per round.

    Both add each key's float64 terms in ascending step order and the
    dense kernel's extra keys are exact zeros, which math.fsum ignores, so
    the two give bit-identical tails. InfeasibleError is raised before any
    round when the entries held (the width if dense, else the smaller of
    the two bounds) exceed _STATE_CAP, which bounds memory, or when
    n * s * entries held exceeds _WORK_CAP, which bounds time.
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
    width = n * (max(steps) - min(steps)) + 1
    comb = math.comb(n + s - 1, s - 1)
    dense = width <= min(_DENSE_FACTOR * comb, _STATE_CAP)
    held = width if dense else min(comb, width)
    work = n * s * held
    if held > _STATE_CAP or work > _WORK_CAP:
        raise InfeasibleError(
            f"support {s}, n={n}: {held} lattice entries and {work} updates "
            f"exceed the caps ({_STATE_CAP} entries, {_WORK_CAP} updates)"
        )

    keys, dist = (_dense_rounds if dense else _sparse_rounds)(steps, law.probs, n)
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
    tail P(S >= k) computed with exact binomial coefficients. A coefficient
    above the float range (possible once n >= 1030) raises InfeasibleError.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError("p must lie in (0, 1/2]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not p <= r <= 1.0:
        raise ValueError("r must lie in [p, 1]")
    k0 = math.ceil(Fraction(r) * n)
    r_eff = k0 / n
    try:
        exact = math.fsum(
            math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(k0, n + 1)
        )
    except OverflowError:
        raise InfeasibleError(
            f"n={n}: a binomial coefficient C(n, k) exceeds the float range "
            "(every one fits for n <= 1029)"
        ) from None
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


_N_SHARDS = 16


def monte_carlo_tail(sampler, query: TailQuery, trials: int, seed: int) -> McTail:
    """Seeded Monte Carlo estimate of the queried tail with Wilson 95% CI.

    ``sampler`` is an IncrementLaw or any callable (rng, n, size) -> sums.
    Trials are split across a fixed number of spawned generator substreams
    and the per-shard hit counts summed, so the result depends only on
    (sampler, query, trials, seed). An IncrementLaw draws with
    ``sample_sums``, whose blocked inverse-CDF sampler gives the same sums
    bit for bit as ``rng.choice(values, size=(count, n), p=probs)
    .sum(axis=1)`` on each shard's stream, in O(block) memory per shard
    beyond its ``count`` sums.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    draw = sampler.sample_sums if isinstance(sampler, IncrementLaw) else sampler
    streams = np.random.default_rng(seed).spawn(_N_SHARDS)
    shares = [trials // _N_SHARDS] * _N_SHARDS
    shares[0] += trials - sum(shares)

    def run(args) -> int:
        rng, count = args
        sums = draw(rng, query.n, count)
        if query.two_sided:
            return int(np.count_nonzero(np.abs(sums) >= query.threshold))
        return int(np.count_nonzero(sums >= query.threshold))

    hits = sum(map(run, zip(streams, shares)))
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
    if not 1 <= k <= sys.float_info.max:  # x * k would raise OverflowError
        raise ValueError(f"k must lie in [1, {sys.float_info.max:g}]")
    if not 0.0 <= x * k < math.inf:
        raise ValueError(f"x must be non-negative with x*k finite, got {x!r}")
    law, r = two_point_increment(d, eps), x / d
    azuma = min(1.0, math.exp(-k * r * r / 2.0))
    thm2 = min(1.0, math.exp(-k * divergence_exponent(eps / (1.0 - eps), r)))
    exact = exact_tail_dp(law, TailQuery(n=k, threshold=x * k, two_sided=False))
    return Example3Comparison(azuma=azuma, thm2=thm2, exact=exact)
