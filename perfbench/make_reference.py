"""Generate the 50-digit reference pool for the ``analytic_sweep`` workload.

Writes ``perfbench/reference/analytic_sweep.json``: every input the
workload can draw (exponent-table rows over a (gamma, delta) grid, the
Table 1/Table 2 channel rows, and a pool of random hypothesis pairs), each
with the expected value of every call computed in mpmath at 50 digits.

This script never imports tailforge. Each quantity is evaluated from its
definition: closed forms where the paper gives one, and otherwise the
defining one-dimensional optimisation solved by bisection on the
derivative at 50 digits. Floats are written with ``repr`` so the benchmark
feeds the library exactly the inputs the references were computed for.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp
import numpy as np

mp.mp.dps = 50
MASTER_SEED = 20261017  # fixes the hypothesis-pair pool; runs pick from it
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "analytic_sweep.json")

# gamma within 1e-9 of 1 straddles thm3's switch to the gamma -> 1 limit
GAMMAS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 2e-9, 1.0 - 5e-10, 1.0)
DELTAS = tuple(sorted({i / 20 for i in range(21)} | {10.0**k for k in range(-12, -1)}))
TABLE_QS = (2, 3, 4, 5, 10)
TABLE_P = 0.04
TABLE_MS = (2, 4, 6, 8, 10)
HYP_SIZES = (2, 3, 4, 5)
HYP_PER_SIZE = 30


def s(x) -> str:
    """A reference value as a decimal string (25 significant digits)."""
    if x == mp.inf:
        return "inf"
    return mp.nstr(x, 25, min_fixed=1, max_fixed=0)


def f(x: float):
    return mp.mpf(x)  # exact binary value of the float input


# ---------------------------------------------------------------- kernels


def divergence(p, q):
    out = mp.mpf(0)
    if p > 0:
        out += p * mp.log(p / q)
    if p < 1:
        out += (1 - p) * mp.log((1 - p) / (1 - q))
    return out


def divergence_exponent(gamma, delta):
    if delta > 1:
        return mp.inf
    return divergence((delta + gamma) / (1 + gamma), gamma / (1 + gamma))


def bennett_b(u):
    if u == 0:
        return mp.mpf(1)
    return 2 * ((1 + u) * mp.log1p(u) - u) / (u * u)


def sign_change_roots(deriv, hi_cap):
    """Brackets [a, b] of x >= 0 where deriv goes from + to - (a local max)."""
    xs = [mp.mpf(0)] + [mp.mpf(2) ** k / 1024 for k in range(0, 64) if 2.0**k / 1024 <= hi_cap]
    vals = [deriv(x) for x in xs]
    return [(xs[i], xs[i + 1]) for i in range(len(xs) - 1) if vals[i] > 0 and vals[i + 1] <= 0], vals[-1] > 0


def bisect(deriv, lo, hi, iters=230):
    dlo = deriv(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if (deriv(mid) > 0) == (dlo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def sup_on_ray(phi, dphi, far):
    """sup_{x >= 0} phi(x): every interior local max, plus phi(far) if still rising."""
    brackets, rising = sign_change_roots(dphi, float(far))
    cands = [phi(mp.mpf(0))] + [phi(bisect(dphi, a, b)) for a, b in brackets]
    if rising:
        cands.append(phi(mp.mpf(far)))
    return max(cands)


# ---------------------------------------------------------------- routes


def log_s(profile, x):
    """ln S_m(x), S = 1 + sum_{l<m}(g_l - g_m) x^l/l! + g_m(e^x - 1 - x)."""
    gm = profile[-1]
    m = len(profile) + 1
    total = 1 + gm * (mp.expm1(x) - x)
    for l in range(2, m):
        total += (profile[l - 2] - gm) * x**l / mp.factorial(l)
    return mp.log(total)


def dlog_s(profile, x):
    gm = profile[-1]
    m = len(profile) + 1
    sval = 1 + gm * (mp.expm1(x) - x)
    dval = gm * mp.expm1(x)
    for l in range(2, m):
        sval += (profile[l - 2] - gm) * x**l / mp.factorial(l)
        dval += (profile[l - 2] - gm) * x ** (l - 1) / mp.factorial(l - 1)
    return dval / sval


def thm4(profile, delta):
    """sup_{x >= 0} {delta x - ln S_m(x)}."""
    if delta == 0:
        return mp.mpf(0)
    return sup_on_ray(
        lambda x: delta * x - log_s(profile, x),
        lambda x: delta - dlog_s(profile, x),
        4000,
    )


def cor6(profile, delta):
    """Exponent at the closed-form sub-optimal x (thm4 when c <= 0)."""
    g2, gm = profile[0], profile[-1]
    a = 1 / g2
    b = (gm / g2) * (1 / delta - 1)
    c = 1 / delta - b
    if c <= 0:
        return thm4(profile, delta)
    x = (a + b) / c
    if b != 0:
        x -= mp.re(mp.lambertw((b / c) * mp.exp((a + b) / c)))
    return max(mp.mpf(0), delta * x - log_s(profile, x))


def thm3(gamma, delta):
    """-ln min_{x >= 0} g(x), the parabola-chord bound at the optimum."""
    if delta == 0:
        return mp.mpf(0)

    def g(x):
        return (1 + gamma) / 4 * mp.exp((1 - delta) * x) + (
            mp.mpf(1) / 2 + (1 + 2 * x) * (1 - gamma) / 4
        ) * mp.exp(-(1 + delta) * x)

    def dg(x):
        return (1 + gamma) * (1 - delta) / 4 * mp.exp((1 - delta) * x) + (
            (1 - gamma) / 2 - (1 + delta) * (mp.mpf(1) / 2 + (1 + 2 * x) * (1 - gamma) / 4)
        ) * mp.exp(-(1 + delta) * x)

    if delta == 1:
        return -mp.log((1 + gamma) / 4)  # g decreases to its limit (1+gamma)/4
    return sup_on_ray(lambda x: -mp.log(g(x)), lambda x: -dg(x), 4000)


def cor3(gamma, delta):
    u = delta / gamma
    return gamma * ((1 + u) * mp.log1p(u) - u)


def refined_pinsker(delta):
    d2 = delta * delta
    return d2 / 2 + d2**2 / 36 + d2**3 / 270 + 221 * d2**4 / 340220


# ---------------------------------------------------------------- rows


def two_point_profile(gamma: float):
    """(gamma_2, gamma_3, gamma_4) of the law +1 w.p. e, -gamma w.p. 1-e (d = 1)."""
    e = gamma / (1.0 + gamma)
    return [gamma, e + (1.0 - e) * gamma**3, e + (1.0 - e) * gamma**4]


def exponent_row(gamma: float, delta: float):
    g, d = f(gamma), f(delta)
    prof2 = [g]
    prof4f = two_point_profile(gamma)
    prof4 = [f(v) for v in prof4f]
    ops = [
        ["bounds.azuma_exponent", [gamma, delta], [s(d * d / 2)]],
        ["specfun.f_delta", [delta], [s(divergence((1 + d) / 2, mp.mpf(1) / 2))]],
        ["bounds.thm2_exponent", [gamma, delta], [s(divergence_exponent(g, d))]],
        ["bounds.thm3_exponent", [gamma, delta], [s(thm3(g, d))]],
        ["bounds.cor3_exponent", [gamma, delta], [s(cor3(g, d))]],
        ["bounds.cor4_exponent", [gamma, delta], [s(thm4(prof2, d))]],
        ["bounds.pinsker_loosened_exponent", [gamma, delta], [s(2 * (d / (1 + g)) ** 2)]],
        ["bounds.refined_pinsker_exponent", [delta], [s(refined_pinsker(d))]],
        ["bounds.chung_lu_exponent", [gamma, delta], [s(d * d / (2 * g + 2 * d / 3))]],
        ["bounds.thm4_exponent", [[gamma], delta], [s(thm4(prof2, d))]],
        ["bounds.thm4_exponent", [prof4f, delta], [s(thm4(prof4, d))]],
    ]
    if delta > 0.0:
        ops.append(["bounds.cor6_suboptimal", [prof4f, delta], [s(cor6(prof4, d))]])
    # scalar kernels at the arguments the routes above hand them
    p, q = (delta + gamma) / (1.0 + gamma), gamma / (1.0 + gamma)
    ops.append(["specfun.binary_divergence", [p, q], [s(divergence(f(p), f(q)))]])
    u = delta / gamma
    ops.append(["specfun.big_b", [u], [s(bennett_b(f(u)))]])
    if 1.0 - gamma > 1e-9 and delta < 1.0:
        k = (gamma + delta) / ((1.0 + delta) * (1.0 - gamma))
        a = math.log((1.0 + gamma) * (1.0 - delta) / ((1.0 - gamma) * (1.0 + delta))) - 1.0 - 2.0 * k
        ops.append(["specfun.lambert_wm1_logarg", [a], [s(mp.re(mp.lambertw(-mp.exp(f(a)), -1)))]])
    if 0.0 < delta < 1.0:
        a = math.log((1.0 - delta) / delta) + 1.0 / gamma + 1.0 / delta - 1.0
        ops.append(["specfun.lambert_w0_exparg", [a], [s(mp.re(mp.lambertw(mp.exp(f(a)))))]])
    return {"id": f"row_g{gamma!r}_d{delta!r}", "kind": "exponent_row",
            "gamma": gamma, "delta": delta, "ops": ops}


def channel_stats(q: int, p: float):
    pm = f(p)
    row0 = [pm] * q
    row0[0] = 1 - (q - 1) * pm
    row1 = [pm] * q
    row1[q - 1] = 1 - (q - 1) * pm
    llr0 = [mp.log(a / b) for a, b in zip(row0, row1)]
    div = mp.fsum(a * l for a, l in zip(row0, llr0))
    d = max(abs(l) for l in llr0) + div
    return row0, llr0, div, d


def table_row(q: int, p: float):
    row0, llr0, div, d = channel_stats(q, p)
    delta = div / d
    sigma2 = mp.fsum(a * l * l for a, l in zip(row0, llr0)) - div * div
    ops = [["codingapps.z1", [q, p], [s(mp.exp(-divergence_exponent(sigma2 / d**2, delta)))]]]
    for m in TABLE_MS:
        prof = []
        for l in range(2, m + 1):
            mu = (-1) ** l * mp.fsum(a * (l0 - div) ** l for a, l0 in zip(row0, llr0))
            prof.append(max(mp.mpf(0), mu) / d**l)
        ops.append(["codingapps.z2m", [q, p, m], [s(mp.exp(-thm4(prof, delta)))]])
        ops.append(["codingapps.z2m_tilde", [q, p, m], [s(mp.exp(-cor6(prof, delta)))]])
    return {"id": f"table_q{q}", "kind": "table_row", "ops": ops}


def hyp_pair(rng, k: int, idx: int):
    def draw():
        v = 0.9 * rng.dirichlet(np.ones(k)) + 0.1 / k
        return [float(x) for x in v / v.sum()]

    while True:
        p1, p2 = draw(), draw()
        d12 = sum(a * math.log(a / b) for a, b in zip(p1, p2))
        d21 = sum(b * math.log(b / a) for a, b in zip(p1, p2))
        if min(d12, d21) > 1e-3:
            break
    if idx % 2 == 0:
        lam_bar = lam_under = 0.0
    else:
        lam_bar = float(0.5 * d12 * rng.uniform(0.05, 0.95))
        lam_under = float(-0.5 * d21 * rng.uniform(0.05, 0.95))
    v = [math.log(b / a) for a, b in zip(p1, p2)]
    r = float(min(v) + (max(v) - min(v)) * rng.uniform(0.1, 0.9))

    m1 = [f(x) for x in p1]
    m2 = [f(x) for x in p2]
    t1, t2 = mp.fsum(m1), mp.fsum(m2)
    m1 = [x / t1 for x in m1]
    m2 = [x / t2 for x in m2]
    llr = [mp.log(a / b) for a, b in zip(m1, m2)]
    vv = [-x for x in llr]

    def dh(t):  # H'(t): mean of V under the tilted law p1^(1-t) p2^t
        w = [a ** (1 - t) * b**t for a, b in zip(m1, m2)]
        return mp.fsum(wi * vi for wi, vi in zip(w, vv)) / mp.fsum(w)

    def h(t):
        return mp.log(mp.fsum(a ** (1 - t) * b**t for a, b in zip(m1, m2)))

    def rate(rr):
        lo, hi = mp.mpf(-1), mp.mpf(2)
        while dh(lo) > rr:
            lo *= 2
        while dh(hi) < rr:
            hi *= 2
        t = bisect(lambda x: rr - dh(x), lo, hi)
        return max(mp.mpf(0), t * rr - h(t))

    t_star = bisect(lambda x: -dh(x), mp.mpf(0), mp.mpf(1))
    chernoff = max(mp.mpf(0), -h(t_star))
    lb, lu = f(lam_bar), f(lam_under)
    lam1, lam2 = -lb, -lu
    i1, i2 = rate(lam1), rate(lam2)
    exact = [i1, i2, i2 - lam2, i1 - lam1, min(i1, i2 - lam2), min(i2, i1 - lam1)]

    d12m = mp.fsum(a * l for a, l in zip(m1, llr))
    d21m = mp.fsum(b * -l for b, l in zip(m2, llr))
    d1 = max(abs(l - d12m) for l in llr)
    d2 = max(abs(-l - d21m) for l in llr)
    s1 = mp.fsum(a * (l - d12m) ** 2 for a, l in zip(m1, llr))
    s2 = mp.fsum(b * (-l + d21m) ** 2 for b, l in zip(m2, llr))
    g1, g2 = s1 / d1**2, s2 / d2**2
    refined = [
        min(divergence_exponent(g1, (d12m - lb) / d1), divergence_exponent(g2, (d21m + lu) / d2)),
        min(divergence_exponent(g1, (d12m - lu) / d1), divergence_exponent(g2, (d21m + lb) / d2)),
    ]
    ops = [
        ["hyptest.exact_exponents", [p1, p2, lam_bar, lam_under], [s(x) for x in exact]],
        ["hyptest.refined_lower_bounds", [p1, p2, lam_bar, lam_under], [s(x) for x in refined]],
        ["hyptest.chernoff_information", [p1, p2], [s(chernoff)]],
        ["hyptest.rate_function", [p1, p2, r], [s(rate(f(r)))]],
    ]
    return {"id": f"hyp_k{k}_{idx:02d}", "kind": "hyptest_row", "size": k, "ops": ops}


def main() -> None:
    rng = np.random.default_rng(MASTER_SEED)
    pool = {
        "generator": "perfbench/make_reference.py",
        "dps": mp.mp.dps,
        "exponent_rows": [exponent_row(g, d) for g in GAMMAS for d in DELTAS],
        "table_rows": [table_row(q, TABLE_P) for q in TABLE_QS],
        "hyptest_pool": [hyp_pair(rng, k, i) for k in HYP_SIZES for i in range(HYP_PER_SIZE)],
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=0)
        fh.write("\n")
    counts = {k: len(v) for k, v in pool.items() if isinstance(v, list)}
    print(f"wrote {OUT}: {counts}")


if __name__ == "__main__":
    main()
