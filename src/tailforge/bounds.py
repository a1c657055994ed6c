"""Tail exponents for martingales with bounded jumps.

Every operation returns the exponent E (nats per step) of a bound of the
form P(X_n - X_0 >= alpha*n) <= e^(-n*E). ``tail_bound`` alone turns E into
the probability min(1, c*e^(-n*E)), c = 2 two-sided, and ``exponent_or_inf``
alone reads an E past the float range as +inf. Exponents are non-negative and
0 at delta = 0. Past delta = 1 the probability is exactly zero, and every route
but azuma, cor3 and chung_lu reads +inf: ``_delta_edge`` holds these rules.

Throughout, gamma = sigma^2/d^2 in (0, 1] (``_unit_gamma``) and delta = alpha/d.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Tuple

from .specfun import (
    BOUNDARY_CLAMP,
    big_b,
    divergence_exponent,
    f_delta,
    lambert_w0_exparg,
    lambert_wm1_logarg,
    newton_min,
)

@dataclass(frozen=True)
class MartingaleSpec:
    """Uniform jump bound d and conditional-variance bound sigma^2.

    Enforces sigma^2 <= d^2 (no generality is lost: bounded jumps imply
    conditional variance at most d^2), so gamma = sigma2/d^2 lies in (0,1].
    """

    d: float
    sigma2: float
    gamma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError("jump bound d must be positive")
        gamma = _unit_gamma(self.sigma2 / self.d**2 if self.d**2 > 0.0 else math.inf)
        object.__setattr__(self, "gamma", gamma)

    def delta(self, alpha: float) -> float:
        _delta_edge(alpha, "alpha")
        return alpha / self.d


@dataclass(frozen=True)
class MomentProfile:
    """Normalized conditional moments gamma_l = mu_l / d^l for l = 2..m.

    ``gammas`` is the sequence (gamma_2, ..., gamma_m); m = len + 1 must be
    even. Values above 1 are admitted (they arise under the weaker
    one-sided moment conditions); negatives and infinities are not. The
    profile holds Theorem 4's S kernel: the differences gamma_l - gamma_m and
    the ``_poly_plan`` of their length, read by ``_derivs``.
    """

    gammas: Tuple[float, ...]
    _diffs: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    _plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gammas = tuple(map(float, self.gammas))
        if len(gammas) < 1:
            raise ValueError("profile needs at least gamma_2")
        if (len(gammas) + 1) % 2 != 0:
            raise ValueError("m = len(gammas) + 1 must be even")
        if not all(0.0 <= g < math.inf for g in gammas):  # NaN fails
            raise ValueError(
                f"moment ratios must be finite and non-negative, got {gammas!r}"
            )
        object.__setattr__(self, "gammas", gammas)
        gm = gammas[-1]
        object.__setattr__(self, "_diffs", tuple([g - gm for g in gammas[:-1]]))
        object.__setattr__(self, "_plan", _poly_plan(len(gammas)))

    @property
    def m(self) -> int:
        return len(self.gammas) + 1

    @property
    def gamma2(self) -> float:
        return self.gammas[0]

    @property
    def gamma_m(self) -> float:
        return self.gammas[-1]

    def gamma(self, l: int) -> float:
        if l < 2 or l > self.m:
            raise ValueError(f"l={l} outside 2..{self.m}")
        return self.gammas[l - 2]

    def _derivs(self, x: float, j0: int):
        """The derivatives P_j0, P_j0+1 and P_j0+2 of S's polynomial part P.

        P(x) = sum_{2<=l<m} (gamma_l - gamma_m) x^l/l!, and the powers x**k,
        k <= m - 1 - j0, are formed once for all three derivatives. P_j
        adds its terms (gamma_l - gamma_m) * x**k / k!, k = l - j, to int 0 in
        ascending l, so it is the direct sum's float; a P_j with no terms (all
        three at m = 2) is int 0.
        """
        d, plan = self._diffs, self._plan
        if not d:
            return 0, 0, 0
        pw = [x**k for k in range(len(d) + 2 - j0)]
        p0 = p1 = p2 = 0
        for i, k, f in plan[j0]:
            p0 += d[i] * pw[k] / f
        for i, k, f in plan[j0 + 1]:
            p1 += d[i] * pw[k] / f
        for i, k, f in plan[j0 + 2]:
            p2 += d[i] * pw[k] / f
        return p0, p1, p2


@dataclass(frozen=True)
class ExponentValue:
    """A non-negative exponent (nats/step) and what its solver found.

    ``params`` holds only solver outputs: the optimising ``x`` (thm3, thm4,
    cor4, cor6), thm4's ``at_ceiling`` flag and cor6's ``fallback`` flag.
    """

    exponent: float
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not self.exponent >= -1e-12:
            raise ValueError(f"exponent must be >= 0, got {self.exponent}")
        if self.exponent < 0.0:
            object.__setattr__(self, "exponent", 0.0)


def _delta_edge(delta: float, name: str = "delta") -> ExponentValue | None:
    """Every route's exponent at delta = 0 (0) and past 1 (+inf), else None."""
    if not delta >= 0.0:  # NaN fails
        raise ValueError(f"{name} must be non-negative, got {delta!r}")
    if delta == 0.0:
        return ExponentValue(0.0)
    if delta > 1.0:
        return ExponentValue(math.inf)
    return None


def _unit_gamma(gamma: float) -> float:
    """gamma checked to lie in (0, 1]; within BOUNDARY_CLAMP above 1 it snaps to 1."""
    if not 0.0 < gamma <= 1.0 + BOUNDARY_CLAMP:
        raise ValueError("gamma must lie in (0, 1]")
    return min(gamma, 1.0)


def as_count(value, name: str, least: int = 1) -> int:
    """value as an int in [least, largest double]: a length, count or order.

    Python and numpy ints pass; a bool, float (NaN too) or string, or an int
    below least or past the float range (which float arithmetic on it would
    overflow), raises ValueError naming ``name``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} must lie in [{least}, {sys.float_info.max:g}]")
    return value


def as_real(value, name: str) -> float:
    """value as a float: a Python or numpy int or float, NaN and +-inf included.

    A bool, string, None or container, or an int past the float range, raises
    ValueError naming ``name``; each record keeps its own range checks.
    """
    if type(value) is float:  # the common case, before the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must have magnitude <= {sys.float_info.max:g}") from None


def tail_bound(value: ExponentValue, n: int, two_sided: bool = True) -> float:
    """Probability bound min(1, c*exp(-n*E)); c = 2 two-sided, 1 one-sided.

    The one-sided form covers the sub/super-martingale variants, which
    differ from the martingale case only by this sign-flip/prefactor.
    """
    n = as_count(n, "n")
    prefactor = 2.0 if two_sided else 1.0
    if math.isinf(value.exponent):
        return 0.0
    return min(1.0, prefactor * math.exp(-n * value.exponent))


def exponent_or_inf(compute: Callable[[], float]) -> ExponentValue:
    """ExponentValue(compute()), +inf where compute's arithmetic overflows.

    Overflow raises OverflowError in ``x**2``, and an overflowed term gives
    NaN as inf - inf, inf/inf or inf*0 (callers reject NaN inputs beforehand).
    """
    try:
        e = compute()
    except OverflowError:
        return ExponentValue(math.inf)
    return ExponentValue(math.inf if math.isnan(e) else e)


def azuma_exponent(spec: MartingaleSpec, alpha: float) -> ExponentValue:
    """Azuma's exponent delta^2/2 for P(|X_n - X_0| >= alpha*n)."""
    delta = spec.delta(alpha)
    return ExponentValue(delta * delta / 2.0)


def thm2_exponent(spec: MartingaleSpec, alpha: float) -> ExponentValue:
    """Bennett-route divergence exponent D((delta+gamma)/(1+gamma)||gamma/(1+gamma))."""
    return ExponentValue(divergence_exponent(spec.gamma, spec.delta(alpha)))


def pinsker_loosened_exponent(spec: MartingaleSpec, alpha: float) -> ExponentValue:
    """Pinsker loosening 2*(delta/(1+gamma))^2 of the divergence exponent."""
    gamma, delta = spec.gamma, spec.delta(alpha)
    if (edge := _delta_edge(delta)) is not None:
        return edge
    return ExponentValue(2.0 * (delta / (1.0 + gamma)) ** 2)


def refined_pinsker_exponent(delta: float) -> ExponentValue:
    """Fourth-order refined-Pinsker exponent in delta (gamma = 1 setting).

    delta^2/2 + delta^4/36 + delta^6/270 + 221*delta^8/340220 for
    delta in [0, 1]; +inf beyond.
    """
    if (edge := _delta_edge(delta)) is not None:
        return edge
    d2 = delta * delta
    e = d2 / 2.0 + d2 * d2 / 36.0 + d2**3 / 270.0 + 221.0 * d2**4 / 340220.0
    return ExponentValue(e)


def cor3_exponent(spec: MartingaleSpec, alpha: float) -> ExponentValue:
    """Bennett-kernel exponent gamma[(1+delta/gamma)ln(1+delta/gamma) - delta/gamma].

    Algebraically equals (delta^2 / 2 gamma) * B(delta/gamma).
    """
    gamma, delta = spec.gamma, spec.delta(alpha)
    u = delta / gamma
    return exponent_or_inf(lambda: gamma * ((1.0 + u) * math.log1p(u) - u))


def thm3_exponent(spec: MartingaleSpec, alpha: float) -> ExponentValue:
    """Parabola-chord exponent C(gamma, delta).

    Cases: +inf for delta > 1; ln(4/(1+gamma)) at delta = 1; the
    W_-1-based closed form for delta in [0, 1); the gamma -> 1 limit is
    f(delta) (the closed form divides by 1-gamma).
    """
    gamma, delta = spec.gamma, spec.delta(alpha)
    if (edge := _delta_edge(delta)) is not None:
        return edge
    if delta == 1.0:
        return ExponentValue(math.log(4.0 / (1.0 + gamma)))
    if 1.0 - gamma <= 1e-9:
        return ExponentValue(f_delta(delta))
    # w = -e^a would underflow for gamma near 1; keep its log instead
    k = (gamma + delta) / ((1.0 + delta) * (1.0 - gamma))
    log_neg_w = (
        math.log((1.0 + gamma) * (1.0 - delta) / ((1.0 - gamma) * (1.0 + delta)))
        - 1.0
        - 2.0 * k
    )
    x = -(1.0 + lambert_wm1_logarg(log_neg_w)) / 2.0 - k
    u = (1.0 + gamma) / 4.0 * math.exp((1.0 - delta) * x)
    v = (0.5 + (1.0 + 2.0 * x) * (1.0 - gamma) / 4.0) * math.exp(-(1.0 + delta) * x)
    e = -math.log(u + v)
    return ExponentValue(max(0.0, e), {"x": x})


@functools.cache
def _poly_plan(n: int) -> tuple:
    """Per derivative order j = 0..n + 2, the terms of P_j for n = m - 1 ratios.

    P_j's terms are (l - 2, k = l - j, k!) for l = max(2, j)..n, k! a float:
    past n = 170 this raises k!'s OverflowError before any plan is built.
    """
    facts = [float(math.factorial(k)) for k in range(n + 1)]
    return tuple(
        tuple((l - 2, l - j, facts[l - j]) for l in range(max(2, j), n + 1))
        for j in range(n + 3)
    )


def _expm1_minus_x(x: float) -> float:
    """e^x - 1 - x by its series x^2/2! + ... + x^12/12!, for |x| < 0.1."""
    t2 = 0.5 * x * x
    t3 = t2 * (x / 3)
    t4 = t3 * (x / 4)
    t5 = t4 * (x / 5)
    t6 = t5 * (x / 6)
    t7 = t6 * (x / 7)
    t8 = t7 * (x / 8)
    t9 = t8 * (x / 9)
    t10 = t9 * (x / 10)
    t11 = t10 * (x / 11)
    t12 = t11 * (x / 12)
    return t2 + t3 + t4 + t5 + t6 + t7 + t8 + t9 + t10 + t11 + t12


def _factored(gm: float, x: float, r: float) -> tuple[float | None, float, float]:
    """(lk, a, e): gm*e^x + r is e^lk (1 + r*e/a), or a + r*e where lk is None.

    Callers form a + r*e and its kin: S times a*e^-lk, or S itself. Mostly that
    factor is e^-x: a = gm, e = e^-x (0 from x = 700 on) and lk = x + ln gm,
    which no x can overflow. That form loses r when gm is tiny, so with lq =
    ln(|r| e^-x / gm), S stands as it is (a = gm*e^x, e = 1) at gm = 0 and where
    lq > 700, as r*e^-x/gm nears overflow; and the factor is e^-x/gm (a = 1,
    e = e^-x/gm) where gm is subnormal, or past x = 700 where r*e^-x reaches
    gm*e^-60, unless gm*e^x < e^-700. Elsewhere the first form keeps its bits.
    """
    if gm == 0.0:
        return None, 0.0, 1.0
    lg = math.log(gm)
    lq = math.log(abs(r)) - x - lg if r else -math.inf
    if lq > 700.0:
        return None, math.exp(x + lg), 1.0
    if (gm < sys.float_info.min or x >= 700.0 and lq > -60.0) and x + lg > -700.0:
        return x + lg, 1.0, math.exp(-x - lg)
    return x + lg, gm, math.exp(-x) if x < 700.0 else 0.0


def _log_mgf_bound(profile: MomentProfile, x: float, delta: float):
    """f(x) = ln S(x) - delta*x and its first two derivatives, from one pass.

    S(x) = 1 + P(x) + gamma_m(e^x-1-x) upper-bounds a conditional MGF, with P
    from the profile's ``_derivs``; S >= 1 on x >= 0 as every gamma_l >= 0.
    For x <= 30, ln S = log1p(S - 1) keeps small x's digits, as does
    e^x - 1 - x's series below x = 0.1, where expm1(x) - x keeps only about
    2eps/x. Above x = 30, S = gamma_m e^x + r is split by ``_factored``
    so huge x never overflows and a tiny gamma_m loses no term, and the slope
    (S' - delta*S)/S has its gamma_m e^x terms cancelled by hand, so it keeps
    its sign when delta = 1. There ln S = lk + log1p(r e^-lk), lk = x + ln
    gamma_m, except where gamma_m e^x = e^lk < 1: S may then lie near 1 and
    the two terms cancel, so ln S is log1p(P + (e^lk - gamma_m(1 + x))).
    """
    gm = profile.gammas[-1]
    p0, p1, p2 = profile._derivs(x, 0)
    if x <= 30.0:
        em1 = math.expm1(x)
        u = p0 + gm * (_expm1_minus_x(x) if x < 0.1 else em1 - x)  # S - 1
        s, log_s = 1.0 + u, math.log1p(u)
        ds, s2 = p1 + gm * em1 - delta * s, p2 + gm * (em1 + 1.0)
    else:
        r = 1.0 + p0 - gm * (1.0 + x)
        lk, a, e = _factored(gm, x, r)  # s, ds and s2 carry a factor a*e^-lk
        s = a + r * e
        if lk is None:
            log_s = math.log(s)
        elif lk < 0.0:
            log_s = math.log1p(p0 + (math.exp(lk) - gm * (1.0 + x)))
        else:
            log_s = lk + math.log1p(r * e / a)
        ds, s2 = a * (1.0 - delta) + (p1 - gm - delta * r) * e, a + p2 * e
    slope = ds / s
    return log_s - delta * x, slope, s2 / s - (slope + delta) ** 2


def _slope_cuts(profile: MomentProfile, delta: float, ceiling: float) -> list:
    """Points of (0, ceiling) between which S' - delta*S changes sign at most once.

    For k >= 1, S^(k) = P_k + gamma_m e^x with P_k from the profile's ``_derivs``
    (less gamma_m at k = 1), so g_k = S^(k+1) - delta*S^(k) has derivative
    g_{k+1}. Between two sign changes of g_{k+1}, g_k is monotone (Rolle), and
    ``newton_min`` finds its one sign change: from g_top, which has at most
    one, down to g_1. g_k's Taylor coefficients a_j (j >= k) are gamma_2 at
    j = 1, gamma_{j+1} - delta*gamma_j for 2 <= j < m and gamma_m(1 - delta)
    past it, so a level with no a_j < 0 is >= 0 on [0, inf) and has no cut:
    top is the last j with a_j < 0, or 0 (no cascade). Its float test holds at
    every such j, as rounding is monotone.
    """
    gammas, gm = profile.gammas, profile.gamma_m
    for top in range(len(gammas), 1, -1):
        u = gammas[top - 2]
        if 0.0 < u and gammas[top - 1] <= delta * u:
            break
    else:
        return []

    def g(k, x):  # g_k over the factor ``_factored`` takes out, and its slope
        p0, p1, p2 = profile._derivs(x, k)
        d0 = p1 - delta * (p0 - gm if k == 1 else p0)
        d1 = p2 - delta * p1
        lk, a, e = _factored(gm, x, d1 if abs(d1) > abs(d0) else d0)
        v0, v1 = d0 * e + a * (1.0 - delta), d1 * e + a * (1.0 - delta)
        return v0, v1 if lk is None else v1 - v0

    cuts = []
    for k in range(top, 0, -1):
        pts, cuts = [0.0, *cuts, ceiling], []
        ends = [g(k, x)[0] for x in pts]
        for a, b, ga, gb in zip(pts, pts[1:], ends, ends[1:]):
            s = 1.0 if ga < 0.0 else -1.0  # orient g_k to rise through 0
            if s * gb > 0.0:

                def rising(x):
                    v0, v1 = g(k, x)
                    return 0.0, s * v0, s * v1

                cuts.append(newton_min(rising, a, b, a)[0])
    return cuts


def thm4_exponent(profile: MomentProfile, delta: float) -> ExponentValue:
    """Higher-moment exponent sup_{x>=0} {delta*x - ln S(x)}.

    The m = 2, delta = 1 endpoint with gamma > 0 uses the closed form
    1/gamma - ln(gamma(e^{1/gamma} - 1)). Otherwise ln S - delta*x is minimised
    globally on [0, max(50, 4/gamma_m, 10/(1-delta))]: by ``newton_min`` on each
    piece between ``_slope_cuts``, and at the ceiling, all from the S kernel
    the profile holds. A cut-finding level whose Taylor coefficients
    gamma_{j+1} - delta*gamma_j are all >= 0 is >= 0 on [0, inf), so has no
    sign change and is skipped; with none negative, one ``newton_min`` runs on
    [0, ceiling]. ``params['at_ceiling']`` flags a minimizer pinned at the
    ceiling (the infimum may then sit at x -> inf and the reported exponent is
    a valid lower bound of it).
    """
    if (edge := _delta_edge(delta)) is not None:
        return edge
    gammas = profile.gammas
    g2, gm = gammas[0], gammas[-1]
    if delta == 1.0 and len(gammas) == 1 and g2 > 0.0:
        return ExponentValue(_cor4_delta1(g2))
    ceiling = max(50.0, 4.0 / gm if gm > 0.0 else 0.0)
    ceiling = min(max(ceiling, 10.0 / (1.0 - delta) if delta < 1.0 else 0.0), 1e6)

    def f(x):
        return _log_mgf_bound(profile, x, delta)

    pts = [0.0, *_slope_cuts(profile, delta, ceiling), ceiling]
    fs = [f(x) for x in pts[1:]]
    x, fmin = ceiling, fs[-1][0]
    da = -delta  # f'(0) = -delta: S(0) = 1, S'(0) = 0
    for a, b, (_, db, _) in zip(pts, pts[1:], fs):
        if da < 0.0 <= db:  # f falls from a and rises into b: a minimum
            # Newton's first step from 0 is delta/gamma_2, which can lie below its
            # stop; at gamma_2 = 0, f''(0) = 0 and it bisects to b/2
            t = a if a > 0.0 else min(b, delta / g2) if g2 > 0.0 else 0.5 * b
            t, ft = newton_min(f, a, b, t)
            if ft < fmin:
                x, fmin = t, ft
        da = db
    hit = x >= ceiling - 1e-9 * ceiling
    return ExponentValue(max(0.0, -fmin), {"x": x, "at_ceiling": hit})


def _cor4_delta1(gamma: float) -> float:
    """1/gamma - ln(gamma(e^{1/gamma} - 1)), stable for small gamma."""
    # equals -ln(gamma) - log1p(-exp(-1/gamma))
    return -math.log(gamma) - math.log1p(-math.exp(-1.0 / gamma))


def cor4_exponent(gamma: float, delta: float) -> ExponentValue:
    """Closed form of the m = 2 higher-moment exponent.

    delta > 1: +inf. delta = 1: 1/gamma - ln(gamma(e^{1/gamma}-1)).
    delta in (0,1): delta*x - ln(1 + gamma(e^x - 1 - x)) at
    x = 1/gamma + 1/delta - 1 - W0((1-delta)e^{1/gamma+1/delta-1}/delta).
    """
    gamma = _unit_gamma(gamma)
    if (edge := _delta_edge(delta)) is not None:
        return edge
    if delta == 1.0:
        return ExponentValue(_cor4_delta1(gamma))
    x = cor4_optimal_x(gamma, delta)
    if x <= 30.0:  # ln(1 + u), not log1p(u): pinned by the exp_small_delta_out golden
        e = delta * x - math.log(1.0 + gamma * (math.expm1(x) - x))
    else:
        e = -_log_mgf_bound(MomentProfile((gamma,)), x, delta)[0]
    return ExponentValue(max(0.0, e), {"x": x})


def cor4_optimal_x(gamma: float, delta: float) -> float:
    """The optimizing x of the m = 2 closed form, for delta in (0, 1).

    Raises OverflowError when a = 1/gamma + 1/delta - 1 passes the float range.
    """
    a = 1.0 / gamma + 1.0 / delta - 1.0
    if a == math.inf:
        raise OverflowError(
            f"cor4: 1/gamma + 1/delta overflows at gamma={gamma!r}, delta={delta!r}"
        )
    log_w = math.log((1.0 - delta) / delta) + a
    return a - lambert_w0_exparg(log_w)


def cor6_suboptimal(profile: MomentProfile, delta: float):
    """Closed-form sub-optimal x and its exponent for general even m.

    x = (a+b)/c - W0((b/c) e^{(a+b)/c}) with a = 1/gamma_2,
    b = (gamma_m/gamma_2)(1/delta - 1), c = 1/delta - b. Coincides with the
    optimal x of the m = 2 closed form. Returns (x, ExponentValue), x = 0 at
    delta = 0 and past 1; on the degenerate c <= 0 the numeric minimizer is
    used and flagged.
    """
    if (edge := _delta_edge(delta)) is not None:
        return 0.0, edge
    g2, gm = profile.gamma2, profile.gamma_m
    if g2 <= 0.0:
        raise ValueError("gamma_2 must be positive")
    a = 1.0 / g2
    b = (gm / g2) * (1.0 / delta - 1.0)
    c = 1.0 / delta - b
    if c <= 0.0:
        ev = thm4_exponent(profile, delta)
        x = ev.params.get("x", 0.0)
        return x, ExponentValue(ev.exponent, {"x": x, "fallback": True})
    if b == 0.0:
        x = (a + b) / c
    else:
        log_w = math.log(b / c) + (a + b) / c
        x = (a + b) / c - lambert_w0_exparg(log_w)
    e = -_log_mgf_bound(profile, x, delta)[0]
    return x, ExponentValue(max(0.0, e), {"x": x})


def chung_lu_exponent(gamma: float, delta: float) -> ExponentValue:
    """Bernstein-style comparison exponent delta^2 / (2 gamma + 2 delta/3)."""
    gamma = _unit_gamma(gamma)
    _delta_edge(delta)  # finite past 1: only the check applies
    return exponent_or_inf(lambda: delta * delta / (2.0 * gamma + 2.0 * delta / 3.0))


def small_deviation_exponents(
    spec: MartingaleSpec, alpha: float, n: int
) -> Tuple[ExponentValue, ExponentValue]:
    """(delta^2/2gamma) B(delta/(gamma sqrt(n))) and its limit delta^2/2gamma.

    Exponents at length 1 of 2e^(-E) >= P(|X_n - X_0| >= alpha*sqrt(n)). As
    B(0+) = 1, the bound improves Azuma's sqrt(n)-deviation exponent by the
    factor 1/gamma in the limit.
    """
    n = as_count(n, "n")
    gamma, delta = spec.gamma, spec.delta(alpha)
    lead = delta * delta / (2.0 * gamma)
    u = delta / (gamma * math.sqrt(n))
    return exponent_or_inf(lambda: lead * big_b(u)), ExponentValue(lead)


@dataclass(frozen=True)
class MdpRow:
    scaled_log_divergence: float
    scaled_log_azuma: float


def mdp_exponent_check(
    d: float, sigma2: float, alpha: float, eta: float, n_list: Sequence[int]
) -> list[MdpRow]:
    """Moderate-deviations scaling of the one-sided analytic bounds.

    For thresholds alpha*n^eta, eta in (1/2, 1), returns per n the scaled
    logs n^(1-2 eta) * ln e^{-n E} = -n^(2-2 eta) E for the divergence
    exponent (target -alpha^2/(2 sigma^2)) and for Azuma's exponent
    (constant -alpha^2/(2 d^2), the wrong limit unless sigma = d).
    """
    if not 0.5 < eta < 1.0:
        raise ValueError("eta must lie in (1/2, 1)")
    spec = MartingaleSpec(d, sigma2)
    gamma = spec.gamma
    rows = []
    for n in n_list:
        n = as_count(n, "n")
        delta_n = alpha * n ** (eta - 1.0) / d
        div = divergence_exponent(gamma, delta_n)
        scale = float(n) ** (1.0 - 2.0 * eta)
        rows.append(
            MdpRow(
                scaled_log_divergence=-scale * n * div,
                scaled_log_azuma=-scale * n * delta_n * delta_n / 2.0,
            )
        )
    return rows
