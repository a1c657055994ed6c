"""Channel-coding applications of the refined tail exponents.

Pairwise error probability over binary-input output-symmetric DMCs (the
exponential bases Z_B, Z1, Z2^(m), Z2~^(m)), crest-factor concentration
for M-PSK OFDM symbols, and the concentration of the cycle-space
dimension of LDPC code ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import bounds
from .bounds import ExponentValue, MartingaleSpec, MomentProfile, divergence_exponent
from .pmf import FinitePmf, LlrMartingale
from .specfun import f_delta

_SYM_TOL = 1e-12
_GRID_FACTOR = 16  # OFDM crest factors are sampled on a 16n-point time grid
# complex cells per OFDM FFT batch. Batches hold whole trials, drawn in order,
# so the size changes no output bit; 2**15 raised peak RSS in every benchmark pair
_CHUNK_CELLS = 2**14


@dataclass(frozen=True)
class DmcChannel:
    """Binary-input DMC with an explicit output-symmetry involution.

    p0 and p1 are the output laws given input 0 and 1; ``sym`` is an index
    permutation with sym[sym[y]] = y and p0[y] = p1[sym[y]]. All transition
    probabilities must be strictly positive.
    """

    outputs: tuple
    p0: FinitePmf
    p1: FinitePmf
    sym: tuple[int, ...]
    mart: LlrMartingale = field(init=False, repr=False, compare=False)  # p0 against p1

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        sym = tuple(bounds.as_count(i, "sym entry", 0) for i in self.sym)
        object.__setattr__(self, "sym", sym)
        n = len(self.outputs)
        if self.p0.symbols != self.outputs or self.p1.symbols != self.outputs:
            raise ValueError("row alphabets must match the output alphabet")
        if not (self.p0.strictly_positive and self.p1.strictly_positive):
            raise ValueError("transition probabilities must be strictly positive")
        if sorted(self.sym) != list(range(n)):
            raise ValueError("sym must be a permutation of output indices")
        for y in range(n):
            if self.sym[self.sym[y]] != y:
                raise ValueError("sym must be an involution")
            if abs(self.p0.probs[y] - self.p1.probs[self.sym[y]]) > _SYM_TOL:
                raise ValueError(
                    f"symmetry violated at output {self.outputs[y]}: "
                    f"p0={self.p0.probs[y]} vs p1[sym]={self.p1.probs[self.sym[y]]}"
                )
        object.__setattr__(self, "mart", LlrMartingale.of(self.p0, self.p1))


def q_ary_channel(q: int, p: float) -> DmcChannel:
    """The Q-output symmetric channel: correct symbol w.p. 1-(Q-1)p, else p.

    Input 0 favors output 0, input 1 favors output Q-1; the symmetry
    involution is y -> Q-1-y. Requires 0 < p < 1/(Q-1) (open interval).
    """
    q = bounds.as_count(q, "q", 2)
    if not 0.0 < p < 1.0 / (q - 1):
        raise ValueError(f"p must lie in (0, {1.0/(q-1)})")
    outputs = tuple(range(q))
    row0 = [p] * q
    row0[0] = 1.0 - (q - 1) * p
    row1 = [p] * q
    row1[q - 1] = 1.0 - (q - 1) * p
    sym = tuple(q - 1 - y for y in range(q))
    return DmcChannel(outputs, FinitePmf(outputs, row0), FinitePmf(outputs, row1), sym)


def bsc(p: float) -> DmcChannel:
    """Binary symmetric channel with crossover probability p in (0, 1)."""
    return q_ary_channel(2, p)


@dataclass(frozen=True)
class PairwiseBound:
    """Exponential pairwise-error base: P_h <= base^h for Hamming weight h."""

    base: float

    def prob(self, h: int) -> float:
        return self.base ** bounds.as_count(h, "Hamming weight h", 0)


def bhattacharyya(channel: DmcChannel) -> PairwiseBound:
    """Z_B = sum_y sqrt(P(y|0) P(y|1))."""
    zb = float(np.sum(np.sqrt(channel.p0.as_array() * channel.p1.as_array())))
    return PairwiseBound(base=zb)


def z1(channel: DmcChannel) -> PairwiseBound:
    """Divergence-route base Z1 = exp(-D((delta+gamma)/(1+gamma)||gamma/(1+gamma))).

    gamma = gamma_2 and delta = D/d of ``channel_moment_profile(channel, 2)`` are
    hyptest's gamma1 and delta11 at a zero threshold. Equals Z_B on the BSC.
    """
    profile, delta = channel_moment_profile(channel, 2)
    return PairwiseBound(base=math.exp(-divergence_exponent(profile.gamma2, delta)))


def channel_moment_profile(channel: DmcChannel, m: int):
    """(MomentProfile(``channel.mart.ratios(m)``), D/d), a zero-threshold H1 profile.

    llr = ln(P(y|0)/P(y|1)) has mean D and jumps |llr - D| <= d, which output symmetry
    makes the paper's max_y |ln(P(y|1)/P(y|0))| + D. Both are 0 for identical rows.
    """
    m = bounds.as_count(m, "m", 2)
    if m % 2 != 0:
        raise ValueError("m must be an even integer >= 2")
    mart = channel.mart
    return MomentProfile(mart.ratios(m)), (mart.D / mart.d if mart.d else 0.0)


def z2m(channel: DmcChannel, m: int) -> PairwiseBound:
    """Higher-moment base Z2^(m) = exp(-E4) with the order-m profile."""
    profile, delta = channel_moment_profile(channel, m)
    ev = bounds.thm4_exponent(profile, delta)
    return PairwiseBound(base=math.exp(-ev.exponent))


def z2m_tilde(channel: DmcChannel, m: int) -> PairwiseBound:
    """Closed-form base Z2~^(m) >= Z2^(m), equal at m = 2."""
    profile, delta = channel_moment_profile(channel, m)
    _, ev = bounds.cor6_suboptimal(profile, delta)
    return PairwiseBound(base=math.exp(-ev.exponent))


@dataclass(frozen=True)
class LdpcEnsemble:
    """LDPC(n, lambda, rho) with edge-perspective degree polynomials.

    ``lambda_coeffs[k]`` is the fraction of edges attached to degree-(k+1)
    variable nodes (coefficient of x^k); ``rho_coeffs`` likewise for check
    nodes. Coefficients are non-negative and sum to one per polynomial.
    """

    n: int
    lambda_coeffs: tuple[float, ...]
    rho_coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", bounds.as_count(self.n, "block length n"))
        for name, coeffs in (("lambda", self.lambda_coeffs), ("rho", self.rho_coeffs)):
            coeffs = tuple(bounds.as_real(c, f"{name} entry") for c in coeffs)
            if not coeffs:
                raise ValueError(f"{name} needs at least one coefficient")
            if not all(c >= 0.0 for c in coeffs):  # NaN fails
                raise ValueError(f"{name} coefficients must be non-negative")
            if not abs(math.fsum(coeffs) - 1.0) <= 1e-9:
                raise ValueError(f"{name} coefficients must sum to 1")
            object.__setattr__(
                self, "lambda_coeffs" if name == "lambda" else "rho_coeffs", coeffs
            )

    @classmethod
    def regular(cls, n: int, dv: int, dc: int) -> "LdpcEnsemble":
        dv, dc = bounds.as_count(dv, "degrees: dv"), bounds.as_count(dc, "degrees: dc")
        lam = [0.0] * dv
        lam[dv - 1] = 1.0
        rho = [0.0] * dc
        rho[dc - 1] = 1.0
        return cls(n, tuple(lam), tuple(rho))

    @staticmethod
    def _integral(coeffs: Sequence[float]) -> float:
        # integral over [0,1] of sum c_k x^k
        return math.fsum(c / (k + 1) for k, c in enumerate(coeffs))

    @property
    def design_rate(self) -> float:
        return 1.0 - self._integral(self.rho_coeffs) / self._integral(self.lambda_coeffs)

    @property
    def avg_right_degree(self) -> float:
        return 1.0 / self._integral(self.rho_coeffs)


@dataclass(frozen=True)
class LdpcCyclesBound:
    """Concentration of the cycle-space dimension around its ensemble mean."""

    beta: float
    exponent: ExponentValue  # f(beta) = ln2 (1 - h2((1-beta)/2)); inf past beta = 1
    azuma: ExponentValue  # loosened variant beta^2 / 2
    n: int  # each bound is tail_bound(exponent, n), two-sided


def ldpc_cycles_bound(ensemble: LdpcEnsemble, alpha: float) -> LdpcCyclesBound:
    """P(|beta(G) - E beta(G)| >= alpha n) bound via the edge-reveal martingale.

    beta = alpha / ((1 - R_d) a_R) normalizes the deviation per edge; the
    bound is 2 e^(-n f(beta)) with the bounded-jump kernel f, and the
    Azuma-loosened variant is 2 e^(-beta^2 n / 2).
    """
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    beta = alpha / ((1.0 - ensemble.design_rate) * ensemble.avg_right_degree)
    return LdpcCyclesBound(
        beta=beta,
        exponent=ExponentValue(f_delta(beta)),
        azuma=bounds.exponent_or_inf(lambda: beta**2 / 2.0),
        n=ensemble.n,
    )


@dataclass(frozen=True)
class OfdmModel:
    """n-subcarrier OFDM symbol with i.i.d. M-PSK modulation, |X_i| = 1."""

    n: int
    M: int

    def __post_init__(self):
        object.__setattr__(self, "n", bounds.as_count(self.n, "n"))
        object.__setattr__(self, "M", bounds.as_count(self.M, "M", 2))

    def constellation(self) -> np.ndarray:
        k = np.arange(self.M)
        return np.exp(1j * (2.0 * k + 1.0) * np.pi / self.M)


@dataclass(frozen=True)
class OfdmCfBounds:
    """Azuma and variance-refined bounds on P(|CF - E[CF]| >= alpha)."""

    azuma: ExponentValue  # alpha^2/8; each bound is tail_bound(exponent, 1)
    refined: ExponentValue  # finite-n: (alpha^2/4) B(alpha/sqrt(n))
    refined_limit: ExponentValue  # alpha^2 / 4


def ofdm_cf_bounds(model: OfdmModel, alpha: float) -> OfdmCfBounds:
    """Crest-factor concentration; the refined exponent doubles Azuma's.

    The Doob martingale of CF has jumps bounded by 2/sqrt(n) and
    conditional variance at most 2/n, i.e. d = 2, sigma^2 = 2 after
    rescaling by sqrt(n), so gamma = 1/2 and delta = alpha/2; the refined
    bound comes from the sqrt(n)-deviation kernel.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    azuma = bounds.exponent_or_inf(lambda: alpha**2 / 8.0)
    spec = MartingaleSpec(d=2.0, sigma2=2.0)
    return OfdmCfBounds(azuma, *bounds.small_deviation_exponents(spec, alpha, model.n))


def ofdm_trig_identity(n: int, M: int) -> Fraction:
    """(4/(nM)) sum_{k=0}^{M-1} sin^2(pi k / M) = 2/n, exactly.

    The sine sum telescopes to M/2 for every M >= 2; that is checked
    numerically to 1e-12 and the final value is assembled in exact
    rational arithmetic.
    """
    n, M = bounds.as_count(n, "n"), bounds.as_count(M, "M", 2)
    sine_sum = math.fsum(math.sin(math.pi * k / M) ** 2 for k in range(M))
    if abs(sine_sum - M / 2.0) > 1e-12 * M:
        raise AssertionError(f"sine sum {sine_sum} deviates from M/2")
    return Fraction(4, n * M) * Fraction(M, 2)


def _crest_factors(base: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Grid crest factors (rows, len(points)) of each base row holding each point.

    Base rows are zero-padded, rotated left to put the varied coordinate (left
    0) at time 0: a unit-modulus phase on the spectrum F. Holding v, a row peaks
    at max_k |F(k) + v|, in a bin with |F| >= max|F| - 2 max|v| - a 1e-9 slack.
    Each row's maximum is one reduceat segment of the candidates, so every row
    must hold one (its max|F| bin does). No product goes to BLAS.
    """
    spectrum = np.fft.fft(base, axis=-1)
    mag = np.abs(spectrum)
    top, reach = mag.max(axis=-1, keepdims=True), 2.0 * np.abs(points).max()
    flat = np.flatnonzero(mag >= top - reach - 1e-9 * (top + reach))
    cand = np.abs(spectrum.take(flat)[:, None] + points)
    grid = base.shape[-1]  # row r's candidates start at the first flat index >= r*grid
    starts = np.searchsorted(flat, np.arange(0, base.size, grid))
    return np.maximum.reduceat(cand, starts, axis=0) / math.sqrt(grid // _GRID_FACTOR)


@dataclass(frozen=True)
class OfdmMartingaleReport:
    """Sampled Doob-increment statistics for the crest-factor martingale."""

    jump_bound: float  # 2/sqrt(n)
    max_increment: float
    violations: int
    second_moment_mean: float
    second_moment_se: float
    second_moment_target: float  # 2/n
    trig_identity: Fraction


def ofdm_martingale_check(
    model: OfdmModel,
    trials: int,
    seed: int,
    inner: int = 8,
) -> OfdmMartingaleReport:
    """Monte-Carlo check of the crest-factor martingale jump/variance caps.

    Each trial reveals a random coordinate i of a random symbol sequence
    and estimates Y_i - Y_{i-1} by conditional Monte Carlo with ``inner``
    common suffix draws (the unrevealed X_{i-1} is averaged exactly over
    the M constellation points). Common suffixes make the estimate obey
    the 2/sqrt(n) cap pointwise, so violations indicate a real bug rather
    than noise. The grid CF is a documented under-estimate of the true
    continuous-time CF; under-estimation cannot manufacture a jump-bound
    violation.
    """
    trials, inner = bounds.as_count(trials, "trials"), bounds.as_count(inner, "inner")
    rng = np.random.default_rng(seed)
    n, M = model.n, model.M
    grid = _GRID_FACTOR * n
    points = model.constellation()
    bound = 2.0 / math.sqrt(n)
    chunk = max(1, _CHUNK_CELLS // (inner * grid))  # trials per FFT batch
    base = np.empty((chunk, inner, grid), dtype=complex)
    revealed = np.empty(chunk, dtype=np.intp)
    incs, sec_moments = np.empty(trials), np.empty(trials)
    for lo in range(0, trials, chunk):
        count = min(chunk, trials - lo)
        base.fill(0.0)
        for t in range(count):
            prefix = rng.integers(0, M, size=n)
            c = int(rng.integers(1, n + 1)) - 1  # coordinate being revealed
            # per common suffix draw: the row rotated left by c, 0 at time 0
            base[t, :, 1 : n - c] = points[rng.integers(0, M, size=(inner, n - c - 1))]
            base[t, :, grid - c :] = points[prefix[:c]]
            revealed[t] = prefix[c]  # X_{i-1} is points[revealed[t]]
        cf = _crest_factors(base[:count].reshape(-1, grid), points)
        cf = cf.reshape(count, inner, M)
        # each mean is a sum divided by its count, as ndarray.mean forms it
        y_prev = np.add.reduce(cf, axis=(1, 2)) / (inner * M)
        y_i = np.add.reduce(cf[np.arange(count), :, revealed[:count]], axis=1) / inner
        incs[lo : lo + count] = np.abs(y_i - y_prev)
        # conditional second moment over the M possible revealed values
        per_value = np.add.reduce(cf, axis=1) / inner - y_prev[:, None]
        sec_moments[lo : lo + count] = np.add.reduce(per_value**2, axis=1) / M

    return OfdmMartingaleReport(
        jump_bound=bound,
        max_increment=float(incs.max()),
        violations=int(np.count_nonzero(incs > bound * (1.0 + 1e-12))),
        second_moment_mean=float(np.mean(sec_moments)),
        second_moment_se=float(np.std(sec_moments) / math.sqrt(trials)),
        second_moment_target=2.0 / n,
        trig_identity=ofdm_trig_identity(n, M),
    )
