"""Scalar numerics shared by all tail-exponent computations.

The binary divergence (natural log) and the divergence exponent, whose
gamma = 1 case is f(delta) = ln2*(1 - h2((1-delta)/2)); the Bennett-type
kernel B(u); both real branches of the Lambert W function; the 1-D
minimiser ``newton_min``; and the two errors the CLI reports as exit 3.

Conventions: 0*ln(0) = 0 everywhere; +inf is an explicit return value
(math.inf), never an overflow artifact; ``_clamp`` snaps an input within
BOUNDARY_CLAMP of its domain [0, hi] onto it and rejects any other input
outside it, NaN too. All functions are pure.
"""

from __future__ import annotations

import math

INV_E = math.exp(-1.0)
BOUNDARY_CLAMP = 1e-12

_LAMBERT_MAX_ITER = 50
_NEWTON_TOL = 1e-10  # newton_min stops at a step or bracket this small, times max(1, |t|)


class ConvergenceError(ArithmeticError):
    """An iterative routine failed to meet its residual contract."""


class InfeasibleError(ValueError):
    """The requested exact computation exceeds the supported size."""


def _clamp(x: float, name: str, hi: float = math.inf) -> float:
    """x in [0, hi]; within BOUNDARY_CLAMP outside, the nearer end; else ValueError."""
    if 0.0 <= x <= hi:
        return x
    if -BOUNDARY_CLAMP <= x < 0.0:
        return 0.0
    if hi < x <= hi + BOUNDARY_CLAMP:
        return hi
    raise ValueError(f"{name}={x!r} is outside [0, {hi:g}]")


def _xlogx_ratio(p: float, q: float) -> float:
    """p * ln(p/q) with the 0*ln(0) = 0 convention (q > 0)."""
    if p == 0.0:
        return 0.0
    return p * math.log(p / q)


def binary_divergence(p: float, q: float) -> float:
    """D(p||q) = p ln(p/q) + (1-p) ln((1-p)/(1-q)) in nats.

    Requires q in (0, 1) unless p == q (D(q||q) = 0 at the endpoints too).
    """
    p = _clamp(p, "p", 1.0)
    q = _clamp(q, "q", 1.0)
    if q <= 0.0 or q >= 1.0:
        if p == q:
            return 0.0
        raise ValueError(f"q={q} must lie strictly inside (0, 1)")
    return _xlogx_ratio(p, q) + _xlogx_ratio(1.0 - p, 1.0 - q)


def divergence_exponent(gamma: float, delta: float) -> float:
    """D((delta+gamma)/(1+gamma) || gamma/(1+gamma)); +inf for delta > 1."""
    if delta > 1.0:
        return math.inf
    return binary_divergence((delta + gamma) / (1.0 + gamma), gamma / (1.0 + gamma))


def f_delta(delta: float) -> float:
    """ln(2) * (1 - h2((1-delta)/2)) for delta in [0, 1]; +inf beyond 1.

    The divergence exponent at gamma = 1, D((1+delta)/2 || 1/2), which is
    exact at both endpoints. Equals sum_{p>=1} delta^(2p) / (2p(2p-1)).
    """
    return divergence_exponent(1.0, _clamp(delta, "delta"))


def big_b(u: float) -> float:
    """Bennett-type kernel B(u) = 2[(1+u)ln(1+u) - u] / u^2 for u > 0.

    Decreasing on (0, inf) with B(0+) = 1 and B(inf) = 0, both exposed.
    A power series (B(u) = sum_k 2(-u)^k / ((k+1)(k+2))) is used near 0
    where the closed form loses precision to cancellation.
    """
    u = _clamp(u, "u")
    if u < 1e-3:
        total, term, k = 0.0, 2.0, 0
        while True:
            contrib = term / ((k + 1) * (k + 2))
            total += contrib
            if abs(contrib) < 1e-18:
                return total
            k += 1
            term *= -u
    if u * u == math.inf:  # u > 1.34e154: the same form divided through by u
        b = (1.0 + 1.0 / u) * math.log1p(u) - 1.0
        return 2.0 * b / u if u < math.inf else 0.0
    return 2.0 * ((1.0 + u) * math.log1p(u) - u) / (u * u)


def _halley_w(w: float, x: float) -> float:
    """Polish a Lambert W estimate x for target w by Halley iteration.

    Stops when the step reaches machine precision in x (not merely when
    the residual is small: near w -> 0- the residual derivative vanishes
    and a residual-only rule would leave x digits on the table).
    """
    for _ in range(_LAMBERT_MAX_ITER):
        e = math.exp(x)
        f = x * e - w
        if f == 0.0:
            return x
        fprime = e * (x + 1.0)
        # Halley step; the (x+2)/(2(x+1)) factor is the curvature correction
        denom = fprime - f * (x + 2.0) / (2.0 * (x + 1.0))
        step = f / denom
        x -= step
        if abs(step) <= 5e-16 * max(1.0, abs(x)):
            break
    if abs(x * math.exp(x) - w) <= 1e-12 * max(1.0, abs(w)):
        return x
    raise ConvergenceError(f"Lambert W iteration did not converge for w={w}")


def _branch_point_series(w: float, principal: bool) -> float:
    """Series about the branch point w = -1/e in p = sqrt(2(1 + e*w))."""
    p = math.sqrt(max(0.0, 2.0 * (1.0 + math.e * w)))
    if not principal:
        p = -p
    return -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0 - 43.0 * p**4 / 540.0


def lambert_w0(w: float) -> float:
    """Principal branch W0: the x >= -1 solving x e^x = w, for w >= -1/e."""
    if w < -INV_E:
        if w >= -INV_E - BOUNDARY_CLAMP:
            return -1.0
        raise ValueError(f"w={w} is below the branch point -1/e")
    if w < -0.3:
        x = _branch_point_series(w, principal=True)
        if 2.0 * (1.0 + math.e * w) < 1e-12:
            return x
    elif w < 3.0:
        x = math.log1p(w) if w > -0.2 else w
    else:
        l1 = math.log(w)
        x = l1 - math.log(l1)
    return _halley_w(w, x)


def lambert_wm1(w: float) -> float:
    """Lower branch W-1: the x <= -1 solving x e^x = w, for w in [-1/e, 0)."""
    if w >= 0.0 or w < -INV_E - BOUNDARY_CLAMP:
        raise ValueError(f"w={w} is outside [-1/e, 0)")
    if w < -INV_E:
        return -1.0
    if w > -0.25:
        l1 = math.log(-w)
        l2 = math.log(-l1)
        x = l1 - l2 + l2 / l1
    else:
        x = _branch_point_series(w, principal=False)
        if 2.0 * (1.0 + math.e * w) < 1e-12:
            return x
    return _halley_w(w, x)


def lambert_wm1_logarg(a: float) -> float:
    """W-1(-e^a) for a <= -3, stable for arbitrarily negative a.

    Solves the log form x + ln(-x) = a (x <= -1) by Newton iteration from
    the asymptote x = a - ln(-a), avoiding underflow of -e^a itself.
    Residual contract: |x + ln(-x) - a| <= 1e-12 * max(1, |a|).
    """
    if a > -3.0:
        return lambert_wm1(-math.exp(a))
    x = a - math.log(-a)
    for _ in range(_LAMBERT_MAX_ITER):
        g = x + math.log(-x) - a
        step = g * x / (x + 1.0)
        x -= step
        if abs(step) <= 5e-16 * abs(x):
            break
    if abs(x + math.log(-x) - a) <= 1e-12 * max(1.0, abs(a)):
        return x
    raise ConvergenceError(f"W-1(-e^a) iteration did not converge for a={a}")


def lambert_w0_exparg(a: float) -> float:
    """W0(e^a), stable for arbitrarily large a.

    For large a the argument e^a overflows, so the defining equation is
    solved in log form: x + ln x = a (x > 0), by Newton iteration from the
    asymptote x = a - ln a. Residual contract: |x + ln x - a| <= 1e-12.
    """
    if a <= 690.0:
        return lambert_w0(math.exp(a))
    x = a - math.log(a)
    for _ in range(_LAMBERT_MAX_ITER):
        g = x + math.log(x) - a
        if abs(g) <= 1e-13 * max(1.0, abs(a)):
            return x
        x -= g * x / (x + 1.0)
    raise ConvergenceError(f"W0(e^a) iteration did not converge for a={a}")


def newton_min(fn, lo: float = -math.inf, hi: float = math.inf, t: float = 0.0):
    """Minimise f on [lo, hi] from t, where fn(t) returns (f, f', f'').

    Each slope closes one side of the bracket at t. A Newton step that would
    leave the bracket, or a non-positive f'', bisects it instead; an open
    side stands at 2t -/+ 1 (t is the closed end), so t grows geometrically.
    Returns (t, f(t)): a local minimum, or the bound f still falls towards.
    The stop test is min(hi - lo, |step|) <= tol * max(1, |t|) spelt out
    with comparisons, NaN step included, so it calls no builtin.
    """
    inf = math.inf
    while True:
        f, df, d2f = fn(t)
        if df < 0.0:
            lo = t
        else:
            hi = t
        step = -df / d2f if d2f > 0.0 else math.nan
        size, width = step if step >= 0.0 else -step, hi - lo
        scale = t if t > 1.0 else -t if t < -1.0 else 1.0
        if (size if size < width else width) <= _NEWTON_TOL * scale:
            return t, f
        a = lo if lo > -inf else 2.0 * t - 1.0
        b = hi if hi < inf else 2.0 * t + 1.0
        u = t + step
        t = u if a < u < b else 0.5 * (a + b)
