"""Binary hypothesis testing: exact error exponents and martingale lower bounds.

Hypotheses H1: X ~ P1 and H2: X ~ P2 on a common finite alphabet with all
masses positive. Decisions threshold the normalized log-likelihood ratio
L_n/n against an upper threshold lambda_bar (decide H1 above) and a lower
threshold lambda_under (decide H2 below); in between an erasure is
declared. Exponents are reported in nats per symbol and are prior-free
(priors only scale the mixed error probabilities, never their exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import ExponentValue, as_count, as_real, divergence_exponent
from .pmf import FinitePmf, LlrMartingale
from .specfun import newton_min

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class HypothesisPair:
    """A pair of strictly positive pmfs on one alphabet.

    ``mart12`` is the log-LR martingale of P1 against P2, ``mart21`` the reverse.
    """

    p1: FinitePmf
    p2: FinitePmf
    mart12: LlrMartingale = field(init=False, repr=False, compare=False)
    mart21: LlrMartingale = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.p1.require_same_alphabet(self.p2)
        if not (self.p1.strictly_positive and self.p2.strictly_positive):
            raise ValueError("both pmfs must be strictly positive")
        object.__setattr__(self, "mart12", LlrMartingale.of(self.p1, self.p2))
        object.__setattr__(self, "mart21", LlrMartingale.of(self.p2, self.p1))

    @classmethod
    def from_probs(cls, p1, p2) -> "HypothesisPair":
        symbols = tuple(range(len(p1)))
        return cls(FinitePmf(symbols, tuple(p1)), FinitePmf(symbols, tuple(p2)))

    @property
    def d12(self) -> float:
        """D(P1||P2) in nats."""
        return self.mart12.D

    @property
    def d21(self) -> float:
        """D(P2||P1) in nats."""
        return self.mart21.D


@dataclass(frozen=True)
class Thresholds:
    """Normalized log-LR thresholds; lambda_under <= lambda_bar."""

    lambda_bar: float
    lambda_under: float

    def __post_init__(self):
        for name in ("lambda_bar", "lambda_under"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        if self.lambda_under > self.lambda_bar:
            raise ValueError("lambda_under must not exceed lambda_bar")

    @classmethod
    def single(cls, lam: float = 0.0) -> "Thresholds":
        return cls(lam, lam)

    def validate_for(self, pair: HypothesisPair) -> None:
        if not (-pair.d21 < self.lambda_under and self.lambda_bar < pair.d12):
            raise ValueError(
                "thresholds must satisfy -D(P2||P1) < lambda_under <= "
                "lambda_bar < D(P1||P2); got "
                f"[{self.lambda_under}, {self.lambda_bar}] vs "
                f"(-{pair.d21}, {pair.d12})"
            )


def _tilted(x: list[float], probs: list[float], t: float) -> tuple[float, float, float]:
    """K(t) = ln E[e^(tX)] and K', K'': the mean and variance of X tilted by e^(tX).

    K = peak + ln S with peak = max tX and S = E[e^(tX - peak)], so no term
    overflows. While S > 1/2, ln S = log1p(E[expm1(tX - peak)]) keeps small |t|'s
    digits; a smaller S (a rare peak symbol) keeps them only as ln S. x and probs
    are lists of floats: on 2-10 symbols, plain floats beat numpy's dispatch.
    """
    z = [t * v for v in x]
    peak = max(z)
    z = [u - peak for u in z]
    w = [p * math.exp(u) for p, u in zip(probs, z)]
    total = math.fsum(w)
    mean = math.fsum(a * v for a, v in zip(w, x)) / total
    s = math.fsum(p * math.expm1(u) for p, u in zip(probs, z))
    k = peak + (math.log1p(s) if s > -0.5 else math.log(total))
    return k, mean, math.fsum(a * (v - mean) ** 2 for a, v in zip(w, x)) / total


def log_mgf_h(pair: HypothesisPair, t: float) -> float:
    """H(t) = ln sum_x P1(x)^(1-t) P2(x)^t = ln E_P1[e^(-t llr)]; H(0) = H(1) = 0."""
    mart = pair.mart12
    return _tilted([-u for u in mart.llr.tolist()], mart.probs.tolist(), t)[0]


def rate_function(pair: HypothesisPair, r: float) -> float:
    """Fenchel-Legendre transform I(r) = sup_t (t r - H(t)).

    This is the large-deviations rate of the per-symbol statistic
    V = ln(P2(X)/P1(X)) under P1; it vanishes at the mean -D(P1||P2), is
    convex, and is +inf outside [min V, max V]. Inside, I(r) = -min_t (H(t) - t r)
    by ``newton_min`` on the tilted cumulants of V - r.
    """
    v, probs = [-u for u in pair.mart12.llr.tolist()], pair.mart12.probs.tolist()
    vmin, vmax = min(v), max(v)
    if not vmin < r < vmax:  # -ln P1(V = edge) at an edge, +inf beyond it
        edge = vmax if r >= vmax else vmin
        mass = math.fsum(p for p, u in zip(probs, v) if abs(u - edge) <= _EDGE_TOL)
        return -math.log(mass) if abs(r - edge) <= _EDGE_TOL else math.inf
    x = [u - r for u in v]
    return max(0.0, -newton_min(lambda t: _tilted(x, probs, t))[1])


def chernoff_information(pair: HypothesisPair) -> float:
    """C(P1, P2) = -min_{t in [0,1]} H(t) = I(0); symmetric in the pair."""
    return rate_function(pair, 0.0)


@dataclass(frozen=True)
class ExactExponents:
    """Cramer exponents of the four error/erasure events and their minima."""

    alpha1: float  # error-or-erasure under H1
    alpha2: float  # error under H1
    beta1: float  # error-or-erasure under H2
    beta2: float  # error under H2
    err_or_erasure: float  # exponent of pi1*alpha1 + pi2*beta1
    error: float  # exponent of pi1*alpha2 + pi2*beta2


def exact_exponents(pair: HypothesisPair, thresholds: Thresholds) -> ExactExponents:
    """Exact exponents via the rate function, with lambda_i = -thresholds."""
    thresholds.validate_for(pair)
    lam1, lam2 = -thresholds.lambda_bar, -thresholds.lambda_under
    i1 = rate_function(pair, lam1)
    i2 = i1 if lam2 == lam1 else rate_function(pair, lam2)
    return ExactExponents(
        alpha1=i1,
        alpha2=i2,
        beta1=i2 - lam2,
        beta2=i1 - lam1,
        err_or_erasure=min(i1, i2 - lam2),
        error=min(i2, i1 - lam1),
    )


@dataclass(frozen=True)
class MartingaleParams:
    """Jump/variance statistics of the revealed-sample log-LR martingales.

    Under H_i the Doob martingale of L_n has jumps bounded by d_i;
    sigma_i^2 bounds their conditional second moment and gamma_i =
    sigma_i^2/d_i^2. delta_{i,j} is the gap between D and the threshold over
    d_i (j = 1: error-or-erasure event, j = 2: error-only event).
    """

    d1: float
    d2: float
    sigma1sq: float
    gamma1: float
    gamma2: float
    delta11: float
    delta21: float
    delta12: float
    delta22: float


def martingale_params(
    pair: HypothesisPair, thresholds: Optional[Thresholds] = None
) -> MartingaleParams:
    """Compute d_i, sigma_i^2, gamma_i and the per-event deltas.

    Default thresholds are the single zero threshold. d_i, D(P1||P2), D(P2||P1),
    the centred sigma1^2 and gamma1 = ``mart12.ratios(2)[0]`` (Z1's gamma for a
    channel) come from the pair's log-LR martingales. sigma2^2 =
    E_P2[(ln(P2/P1) + D(P2||P1))^2] is not the centred variance; this convention
    is what the reference exponent values (e.g. gamma2 = 7/9 for the swapped
    (0.4, 0.6) pair) pin down, and it only lowers the resulting lower bounds.
    """
    if thresholds is None:
        thresholds = Thresholds.single(0.0)
    thresholds.validate_for(pair)
    m12, m21 = pair.mart12, pair.mart21
    d12, d21, d1, d2 = m12.D, m21.D, m12.d, m21.d
    sigma2sq = float(np.dot(m21.probs, (m21.llr + d21) ** 2))
    return MartingaleParams(
        d1=d1,
        d2=d2,
        sigma1sq=m12.moment(2),
        gamma1=m12.ratios(2)[0],
        gamma2=sigma2sq / d2**2,
        delta11=(d12 - thresholds.lambda_bar) / d1,
        delta21=(d21 + thresholds.lambda_under) / d2,
        delta12=(d12 - thresholds.lambda_under) / d1,
        delta22=(d21 + thresholds.lambda_bar) / d2,
    )


@dataclass(frozen=True)
class LowerBoundPair:
    """Labeled exponent lower bounds for the two reported events."""

    err_or_erasure: float
    error: float


def _lower_bounds(
    pair: HypothesisPair,
    thresholds: Optional[Thresholds],
    exponent: Callable[[float, float], float],
) -> LowerBoundPair:
    """min over i of exponent(gamma_i, delta_ij) for each of the two events."""
    mp = martingale_params(pair, thresholds)
    return LowerBoundPair(
        err_or_erasure=min(
            exponent(mp.gamma1, mp.delta11), exponent(mp.gamma2, mp.delta21)
        ),
        error=min(exponent(mp.gamma1, mp.delta12), exponent(mp.gamma2, mp.delta22)),
    )


def refined_lower_bounds(
    pair: HypothesisPair, thresholds: Optional[Thresholds] = None
) -> LowerBoundPair:
    """Divergence-exponent lower bounds min_i D((delta_ij+gamma_i)/(1+gamma_i)||...)."""
    return _lower_bounds(pair, thresholds, divergence_exponent)


def azuma_lower_bounds(
    pair: HypothesisPair, thresholds: Optional[Thresholds] = None
) -> LowerBoundPair:
    """Azuma-loosened lower bounds min_i delta_ij^2 / 2."""
    return _lower_bounds(
        pair,
        thresholds,
        lambda _gamma, delta: math.inf if delta > 1.0 else delta * delta / 2.0,
    )


@dataclass(frozen=True)
class ParametricFamily:
    """An indexed pmf family theta -> P_theta with its exact derivative.

    ``pmf(theta)`` returns a FinitePmf; ``dpmf(theta)`` returns
    dP_theta/dtheta as an array aligned with the alphabet.
    """

    pmf: Callable[[float], FinitePmf]
    dpmf: Callable[[float], np.ndarray]


def bernoulli_family() -> ParametricFamily:
    """P_theta(1) = theta on {0, 1}, with exact derivative."""
    return ParametricFamily(
        pmf=lambda th: FinitePmf((0, 1), (1.0 - th, th)),
        dpmf=lambda th: np.array([-1.0, 1.0]),
    )


def ternary_skewed_family(alpha: float) -> ParametricFamily:
    """P_theta = (theta(1-a)/(1+theta), a, (1-a)/(1+theta)) on {0, 1, 2}.

    As alpha -> 1 the Azuma-loosened exponent's Fisher ratio collapses
    like (1 - alpha) * theta while the divergence-based one does not.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    def pmf(th: float) -> FinitePmf:
        if th <= 0.0:
            raise ValueError("theta must be positive")
        return FinitePmf(
            (0, 1, 2),
            (th * (1.0 - alpha) / (1.0 + th), alpha, (1.0 - alpha) / (1.0 + th)),
        )

    def dpmf(th: float) -> np.ndarray:
        g = (1.0 - alpha) / (1.0 + th) ** 2
        return np.array([g, 0.0, -g])

    return ParametricFamily(pmf, dpmf)


def fisher_information(family: ParametricFamily, theta: float) -> float:
    """J(theta) = sum_x P_theta(x) (d/dtheta ln P_theta(x))^2."""
    p = family.pmf(theta).as_array()
    dp = np.asarray(family.dpmf(theta), dtype=float)
    mask = p > 0.0
    return float(np.sum(dp[mask] ** 2 / p[mask]))


@dataclass(frozen=True)
class FisherLimitRow:
    """One straddle P_{theta+off} vs P_{theta-off} of the local-limit table."""

    delta_theta: float
    chernoff_ratio: float  # C / (delta_theta)^2
    refined_ratio: float  # E_L / (delta_theta)^2
    azuma_ratio: float  # E~_L / (delta_theta)^2
    target: float  # J(theta) / 8


def fisher_limit_check(
    family: ParametricFamily, theta: float, offsets: Sequence[float]
) -> list[FisherLimitRow]:
    """Chernoff and lower-bound exponents over (theta-off, theta+off) pairs.

    Each row reports C, E_L (divergence route, zero threshold) and E~_L
    (Azuma route) divided by (2*off)^2; the first two converge to
    J(theta)/8 as offsets shrink, the third to a(theta) J(theta)/8 with
    a(theta) in [0, 1] possibly far below 1.
    """
    target = fisher_information(family, theta) / 8.0
    rows = []
    for off in offsets:
        if off <= 0.0:
            raise ValueError("offsets must be positive")
        pair = HypothesisPair(family.pmf(theta + off), family.pmf(theta - off))
        dth2 = (2.0 * off) ** 2
        rows.append(
            FisherLimitRow(
                delta_theta=2.0 * off,
                chernoff_ratio=chernoff_information(pair) / dth2,
                refined_ratio=refined_lower_bounds(pair).error / dth2,
                azuma_ratio=azuma_lower_bounds(pair).error / dth2,
                target=target,
            )
        )
    return rows


@dataclass(frozen=True)
class ModerateDeviationBound:
    """Finite-n moderate-deviations exponent and its n->inf scaled-log slope."""

    exponent: ExponentValue  # the bound is tail_bound(exponent, 1, two_sided=False)
    asymptotic_slope: float


def moderate_deviation_hyptest(
    pair: HypothesisPair, eps1: float, eta: float, n: int
) -> ModerateDeviationBound:
    """Bound on P1(L_n <= n D(P1||P2) - eps1 n^eta) for eta in (1/2, 1).

    The threshold approaches D(P1||P2) at rate n^-(1-eta); the bound is
    e^-E, E = max(0, (eps1^2 n^(2 eta - 1) / 2 sigma1^2) (1 - eps1 d1
    n^-(1-eta) / (3 sigma1^2 (1+gamma1)))), with sub-exponential decay and
    scaled-log slope -eps1^2 / (2 sigma1^2). Requires n large enough that
    delta_1^(eta, n) = eps1 n^-(1-eta) / d1 < 1.
    """
    if not eps1 > 0.0:
        raise ValueError(f"eps1 must be positive, got {eps1!r}")
    if not 0.5 < eta < 1.0:
        raise ValueError("eta must lie in (1/2, 1)")
    n = as_count(n, "n")
    mp = martingale_params(pair)
    delta_n = eps1 * n ** (eta - 1.0) / mp.d1
    if delta_n >= 1.0:
        raise ValueError(
            f"n={n} is below the validity threshold (delta={delta_n:.3g} >= 1)"
        )
    try:
        eps1_sq = eps1**2
    except OverflowError:  # eps1 > 1.34e154: an infinite lead keeps the sign
        eps1_sq = math.inf  # of the correction, so the exponent is inf or 0
    lead = eps1_sq * n ** (2.0 * eta - 1.0) / (2.0 * mp.sigma1sq)
    correction = 1.0 - eps1 * mp.d1 * n ** (eta - 1.0) / (
        3.0 * mp.sigma1sq * (1.0 + mp.gamma1)
    )
    return ModerateDeviationBound(
        exponent=ExponentValue(max(0.0, lead * correction)),  # < 0: trivial bound
        asymptotic_slope=-eps1_sq / (2.0 * mp.sigma1sq),
    )
