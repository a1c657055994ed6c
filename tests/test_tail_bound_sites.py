"""Every printed probability bound comes out of ``bounds.tail_bound`` bit for bit
as the closed forms it replaced, each written out below as a reference.

The references form c*e^(-n*E) by hand, with the operation order each site
used, and clamp with min(1, .) as the CLI printed them. Both sides share the
kernels (f, B, the divergence), so a difference can only come from how the
exponent becomes a probability. B's own change past u*u overflow (u > 1.34e154)
is checked against mpmath in test_specfun; no grid point here lies there.
"""

import math

import numpy as np
import pytest

from tailforge import bounds, codingapps, hyptest, validate
from tailforge.bounds import divergence_exponent
from tailforge.specfun import big_b, f_delta


def ref_ldpc(ens, alpha):
    beta = alpha / ((1.0 - ens.design_rate) * ens.avg_right_degree)
    bound = 2.0 * math.exp(-ens.n * f_delta(beta))
    try:
        azuma = 2.0 * math.exp(-(beta**2) * ens.n / 2.0)
    except OverflowError:
        azuma = 0.0
    return min(1.0, bound), min(1.0, azuma)


def ref_ofdm(n, alpha):
    try:
        azuma = 2.0 * math.exp(-(alpha**2) / 8.0)
    except OverflowError:
        azuma = 0.0
    gamma, delta = 0.5, alpha / 2.0  # d = 2, sigma^2 = 2
    lead = delta * delta / (2.0 * gamma)
    exponent = lead * big_b(delta / (gamma * math.sqrt(n)))
    if lead == math.inf:
        exponent = math.inf
    refined, limit = 2.0 * math.exp(-exponent), 2.0 * math.exp(-lead)
    return min(1.0, azuma), min(1.0, refined), min(1.0, limit)


def ref_mdp_lead_and_correction(pair, eps1, eta, n):
    mp = hyptest.martingale_params(pair)
    lead = eps1**2 * n ** (2.0 * eta - 1.0) / (2.0 * mp.sigma1sq)
    correction = 1.0 - eps1 * mp.d1 * n ** (eta - 1.0) / (
        3.0 * mp.sigma1sq * (1.0 + mp.gamma1)
    )
    return lead, correction


def ref_mdp(pair, eps1, eta, n):
    lead, correction = ref_mdp_lead_and_correction(pair, eps1, eta, n)
    try:
        return min(1.0, math.exp(-lead * correction))
    except OverflowError:  # the exponent is below -709: min(1, .) is 1
        return 1.0


def ref_example3(eps, d, x, k):
    r = x / d
    azuma = min(1.0, math.exp(-k * r * r / 2.0))
    thm2 = min(1.0, math.exp(-k * divergence_exponent(eps / (1.0 - eps), r)))
    return azuma, thm2


def new_ldpc(ens, alpha):
    res = codingapps.ldpc_cycles_bound(ens, alpha)
    return bounds.tail_bound(res.exponent, res.n), bounds.tail_bound(res.azuma, res.n)


def new_ofdm(n, alpha):
    res = codingapps.ofdm_cf_bounds(codingapps.OfdmModel(n=n, M=4), alpha)
    return tuple(
        bounds.tail_bound(e, 1) for e in (res.azuma, res.refined, res.refined_limit)
    )


def new_mdp(pair, eps1, eta, n):
    md = hyptest.moderate_deviation_hyptest(pair, eps1=eps1, eta=eta, n=n)
    return bounds.tail_bound(md.exponent, 1, two_sided=False)


def new_example3(eps, d, x, k):
    res = validate.example3_comparison(eps, d, x, k)
    return res.azuma, res.thm2


def log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def ldpc_grid(rng):
    ensembles = [(3, 6), (4, 8), (3, 4), (2, 3), (5, 10)]
    cases = []
    for _ in range(20000):
        dv, dc = ensembles[rng.integers(len(ensembles))]
        ens = codingapps.LdpcEnsemble.regular(int(log_uniform(rng, 1, 1e7)), dv, dc)
        scale = (1.0 - ens.design_rate) * ens.avg_right_degree
        wide = rng.random() < 0.3
        beta = log_uniform(rng, 1e-4, 1e4) if wide else float(rng.uniform(0.0, 1.3))
        cases.append((ens, beta * scale))
    ens = codingapps.LdpcEnsemble.regular(1024, 3, 6)  # scale 3: beta = alpha/3
    cases += [(ens, a) for a in (0.0, 3.0, 4.0, 1e155, 1e200, math.inf)]
    return cases


def ofdm_grid(rng):
    cases = [
        (int(log_uniform(rng, 1, 1e12)), log_uniform(rng, 1e-3, 1e4))
        for _ in range(20000)
    ]
    cases += [(n, a) for n in (1, 16, 10**8) for a in (1e-300, 2.0, 1e200, math.inf)]
    return cases


PAIRS = [
    ((0.4, 0.6), (0.6, 0.4)),
    ((0.01, 0.99), (0.5, 0.5)),
    ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)),
    ((0.1, 0.9), (0.3, 0.7)),
]


def mdp_grid(rng):
    cases = []
    while len(cases) < 200:
        p1, p2 = PAIRS[rng.integers(len(PAIRS))]
        pair = hyptest.HypothesisPair.from_probs(p1, p2)
        eta = float(rng.uniform(0.51, 0.99))
        eps1, n = log_uniform(rng, 1e-3, 10.0), int(log_uniform(rng, 1, 1e9))
        if eps1 * n ** (eta - 1.0) / hyptest.martingale_params(pair).d1 < 1.0:
            cases.append((pair, eps1, eta, n))
    # correction < 0: the exponent is -ln 2.25, and the parent printed 1
    pair = hyptest.HypothesisPair.from_probs((0.01, 0.99), (0.5, 0.5))
    cases.append((pair, 0.5, 0.75, 100))
    return cases


def example3_grid(rng):
    cases = []
    for _ in range(100):
        eps, d = float(rng.uniform(0.001, 0.5)), log_uniform(rng, 1e-3, 1e3)
        x = float(rng.uniform(0.0, 1.3)) * d
        cases.append((eps, d, x, int(rng.integers(1, 200))))
    cases += [(0.25, 1.0, 1.0, 10), (0.5, 2.0, 2.0, 50), (0.25, 1.0, 1.5, 10)]
    cases += [(0.1, 1.0, 0.0, 7), (0.01, 1.0, 0.5, 20)]
    return cases


SITES = {
    "ldpc": (ldpc_grid, ref_ldpc, new_ldpc),
    "ofdm": (ofdm_grid, ref_ofdm, new_ofdm),
    "mdp": (mdp_grid, ref_mdp, new_mdp),
    "example3": (example3_grid, ref_example3, new_example3),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_same_bits_as_the_closed_forms(site):
    grid, ref, new = SITES[site]
    diffs, compared = [], 0
    for case in grid(np.random.default_rng(20261019)):
        want, got = ref(*case), new(*case)
        want = want if isinstance(want, tuple) else (want,)
        got = got if isinstance(got, tuple) else (got,)
        compared += len(want)
        diffs += [(case, w, g) for w, g in zip(want, got) if w.hex() != g.hex()]
    assert compared > 200
    assert diffs == []


def test_grid_reaches_the_corners():
    """delta = 1, beta > 1, alpha = 1e200 and inf, and a negative MDP exponent."""

    def grid(site):
        return SITES[site][0](np.random.default_rng(20261019))

    betas = {alpha / 3.0 for ens, alpha in grid("ldpc") if ens.n == 1024}
    assert {1.0, math.inf} <= betas and any(1.0 < b < math.inf for b in betas)
    assert {1e200, math.inf} <= {alpha for _, alpha in grid("ofdm")}
    assert any(x == d for _, d, x, _ in grid("example3"))  # r = x/d = 1
    exponents = [math.prod(ref_mdp_lead_and_correction(*c)) for c in grid("mdp")]
    assert min(exponents) < 0.0
