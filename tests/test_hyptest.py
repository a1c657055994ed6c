"""Hypothesis-testing exponents against brute-force and frozen oracles."""

import math

import numpy as np
import pytest

from tailforge.pmf import AlphabetMismatchError, FinitePmf
from tailforge import hyptest
from tailforge.hyptest import (
    HypothesisPair,
    Thresholds,
    azuma_lower_bounds,
    bernoulli_family,
    chernoff_information,
    exact_exponents,
    fisher_information,
    fisher_limit_check,
    log_mgf_h,
    martingale_params,
    moderate_deviation_hyptest,
    rate_function,
    refined_lower_bounds,
    ternary_skewed_family,
)
from tailforge.bounds import divergence_exponent, tail_bound


SWAP_PAIR = HypothesisPair.from_probs((0.4, 0.6), (0.6, 0.4))


def random_pair(rng, size=3):
    a = rng.uniform(0.05, 1.0, size=size)
    b = rng.uniform(0.05, 1.0, size=size)
    return HypothesisPair.from_probs(tuple(a / a.sum()), tuple(b / b.sum()))


def sup_oracle(r, tgrid, hgrid):
    """max over the grid of t*r - H(t), given hgrid = H(tgrid)."""
    return float(np.max(tgrid * r - hgrid))


class TestPairValidation:
    def test_alphabet_mismatch(self):
        p = FinitePmf((0, 1), (0.5, 0.5))
        q = FinitePmf((0, 2), (0.5, 0.5))
        with pytest.raises(AlphabetMismatchError):
            HypothesisPair(p, q)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            HypothesisPair.from_probs((1.0, 0.0), (0.5, 0.5))

    def test_threshold_interval(self):
        t = Thresholds(lambda_bar=0.2, lambda_under=-0.2)
        with pytest.raises(ValueError):
            t.validate_for(SWAP_PAIR)  # D(P1||P2) = 0.081 < 0.2
        Thresholds.single(0.0).validate_for(SWAP_PAIR)

    def test_degenerate_pair_has_no_thresholds(self):
        pair = HypothesisPair.from_probs((0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ValueError):
            Thresholds.single(0.0).validate_for(pair)


class TestLogMgf:
    def test_endpoints_vanish(self, rng):
        for _ in range(20):
            pair = random_pair(rng)
            assert log_mgf_h(pair, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert log_mgf_h(pair, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_swap_pair_midpoint(self):
        # frozen: ln(2 sqrt(0.24)) via 50-digit mpmath
        assert log_mgf_h(SWAP_PAIR, 0.5) == pytest.approx(
            -0.020410997260127256, abs=1e-14
        )

    def test_convexity(self, rng):
        pair = random_pair(rng)
        ts = np.linspace(-2.0, 3.0, 41)
        hs = [log_mgf_h(pair, t) for t in ts]
        for i in range(1, len(ts) - 1):
            assert hs[i] <= 0.5 * (hs[i - 1] + hs[i + 1]) + 1e-12

    @pytest.mark.parametrize(
        "p1, p2",
        [
            ((0.4, 0.6), (0.6, 0.4)),
            ((0.9, 0.1), (0.2, 0.8)),
            ((0.01, 0.99), (0.5, 0.5)),
            ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)),
            ((0.7, 0.2, 0.1), (0.1, 0.3, 0.6)),
            ((0.05, 0.05, 0.9), (0.3, 0.4, 0.3)),
        ],
    )
    def test_against_mpmath_over_wide_t(self, p1, p2):
        mpmath = pytest.importorskip("mpmath")
        pair = HypothesisPair.from_probs(p1, p2)
        ts = (1e4, -1e4, 300.0, -300.0, 50.0, -50.0, -3.0, -1.0)
        ts += (0.25, 0.5, 0.75, 1.5, 4.0)
        with mpmath.workdps(40):
            a = [mpmath.mpf(x) for x in pair.p1.probs]
            b = [mpmath.mpf(x) for x in pair.p2.probs]
            for t in ts:
                tm = mpmath.mpf(t)
                want = mpmath.log(
                    mpmath.fsum(x ** (1 - tm) * y**tm for x, y in zip(a, b))
                )
                got = log_mgf_h(pair, t)
                assert abs(got - want) <= 1e-12 * abs(want), (t, got, want)


class TestRateFunction:
    def test_zero_at_mean(self, rng):
        for _ in range(10):
            pair = random_pair(rng)
            assert rate_function(pair, -pair.d12) == pytest.approx(0.0, abs=1e-10)

    def test_chernoff_at_zero(self, rng):
        for _ in range(10):
            pair = random_pair(rng)
            assert rate_function(pair, 0.0) == pytest.approx(
                chernoff_information(pair), abs=1e-10
            )

    def test_against_grid_sup(self, rng):
        tgrid = np.linspace(-6.0, 6.0, 24001)
        for _ in range(5):
            pair = random_pair(rng)
            hgrid = np.array([log_mgf_h(pair, t) for t in tgrid])
            v = -pair.mart12.llr
            lo, hi = float(np.min(v)), float(np.max(v))
            for r in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 7):
                got = rate_function(pair, r)
                oracle = sup_oracle(r, tgrid, hgrid)
                assert got >= oracle - 1e-10  # grid can only undershoot a sup
                assert got == pytest.approx(oracle, abs=1e-5)

    def test_outside_support_infinite(self):
        v = -SWAP_PAIR.mart12.llr
        assert rate_function(SWAP_PAIR, float(np.max(v)) + 0.1) == math.inf
        assert rate_function(SWAP_PAIR, float(np.min(v)) - 0.1) == math.inf

    def test_at_support_edge(self):
        v = -SWAP_PAIR.mart12.llr
        vmax = float(np.max(v))
        # point mass at the maximal log-LR value: -ln P1(that symbol)
        assert rate_function(SWAP_PAIR, vmax) == pytest.approx(
            -math.log(0.4), abs=1e-12
        )


class TestLegendreKernel:
    """rate_function and chernoff_information against a 40-digit reference."""

    def test_tilted_cumulants_against_mpmath(self, rng):
        # K, K' and K'' to 1e-14 of the scale |t| max|x| sets for their round-off;
        # the last law's peak symbol has mass 1e-12, so S < 1/2 and K = peak + ln S
        mpmath = pytest.importorskip("mpmath")
        laws = []
        for _ in range(40):
            size = int(rng.integers(2, 11))
            x, probs = rng.normal(0.0, 2.0, size), rng.dirichlet(np.ones(size))
            laws.append((x.tolist(), probs.tolist()))
        laws.append(([1.0, -0.5, 0.2], [1e-12, 0.5, 0.5 - 1e-12]))
        ts = [0.0, 1e-9, 0.3, 2.0, 50.0, 1e3, 1e4]
        small_s = 0
        for x, probs in laws:
            scale = max(map(abs, x))
            for t in ts + [-t for t in ts[1:]]:
                got = hyptest._tilted(x, probs, t)
                with mpmath.workdps(40):
                    xs, ps = [mpmath.mpf(v) for v in x], [mpmath.mpf(p) for p in probs]
                    peak = max(t * v for v in xs)
                    w = [p * mpmath.exp(t * v - peak) for p, v in zip(ps, xs)]
                    total = mpmath.fsum(w)
                    mean = mpmath.fsum(a * v for a, v in zip(w, xs)) / total
                    var = mpmath.fsum(a * (v - mean) ** 2 for a, v in zip(w, xs)) / total
                    want = [peak + mpmath.log(total), mean, var]
                small_s += (x, probs) == laws[-1] and total < 0.5
                tol = 1e-14 * (1.0 + abs(t) * scale)
                for j, (g, i) in enumerate(zip(got, want)):
                    assert abs(g - float(i)) <= tol * scale**j, (x, probs, t, j, g, i)
        assert small_s == 4  # t = 2, 50, 1e3 and 1e4

    def test_against_mpmath(self, rng, mp_cramer_rate):
        mpmath = pytest.importorskip("mpmath")
        for _ in range(40):
            pair = random_pair(rng, size=int(rng.integers(2, 6)))
            v = -pair.mart12.llr
            vmin, vmax = float(np.min(v)), float(np.max(v))
            w = vmax - vmin
            rs = [0.0, float(rng.uniform(vmin, vmax))]
            rs += [vmax - f * w for f in (1e-6, 1e-9)]
            rs += [vmin + f * w for f in (1e-6, 1e-9)]
            with mpmath.workdps(40):
                p1 = [mpmath.mpf(x) for x in pair.p1.probs]
                vm = [mpmath.log(mpmath.mpf(b) / a) for a, b in zip(p1, pair.p2.probs)]
                want = [float(mp_cramer_rate(vm, p1, r)) for r in rs]
            got = [chernoff_information(pair)] + [rate_function(pair, r) for r in rs]
            for g, i, r in zip(got, [want[0]] + want, [0.0] + rs):
                assert abs(g - i) <= 1e-15 + 1e-11 * i, (pair, r, g, i)
                if i >= 1e-4:
                    assert abs(g - i) <= 1e-11 * i, (pair, r, g, i)

    @pytest.mark.parametrize(
        "p1, p2",
        [
            ((1e-9, 1 - 1e-9), (1 - 1e-9, 1e-9)),
            ((1e-12, 1 - 1e-12), (1 - 1e-12, 1e-12)),
            ((1e-12, 0.3, 0.7 - 1e-12), (0.5, 0.25, 0.25)),
            ((0.6, 0.4 - 1e-9, 1e-9), (0.2, 0.2, 0.6)),
        ],
    )
    def test_rare_symbols(self, p1, p2, mp_cramer_rate):
        # the tilted mass sits on a rare symbol at r = 0 and near one edge
        pair = HypothesisPair.from_probs(p1, p2)
        v, probs = -pair.mart12.llr, pair.mart12.probs
        vmin, vmax = float(np.min(v)), float(np.max(v))
        w = vmax - vmin
        rs = [0.0] + [vmax - f * w for f in (1e-6, 1e-9)]
        rs += [vmin + f * w for f in (1e-6, 1e-9)]
        got = [chernoff_information(pair)] + [rate_function(pair, r) for r in rs]
        for g, r in zip(got, [0.0] + rs):
            i = float(mp_cramer_rate(list(v), list(probs), r))
            assert abs(g - i) <= 1e-15 + 1e-13 * i, (r, g, i)


class TestChernoff:
    def test_swap_pair_value(self):
        assert chernoff_information(SWAP_PAIR) == pytest.approx(
            0.020410997260127256, abs=1e-12
        )
        assert chernoff_information(SWAP_PAIR) == pytest.approx(2.04e-2, abs=5e-5)

    def test_symmetry(self, rng):
        for _ in range(20):
            pair = random_pair(rng)
            swapped = HypothesisPair(pair.p2, pair.p1)
            assert chernoff_information(pair) == pytest.approx(
                chernoff_information(swapped), abs=1e-12
            )

    def test_identical_pair_zero(self):
        pair = HypothesisPair.from_probs((0.3, 0.7), (0.3, 0.7))
        assert chernoff_information(pair) == pytest.approx(0.0, abs=1e-12)


class TestExactExponents:
    def test_zero_threshold_collapses_to_chernoff(self):
        res = exact_exponents(SWAP_PAIR, Thresholds.single(0.0))
        c = chernoff_information(SWAP_PAIR)
        assert res.err_or_erasure == pytest.approx(c, abs=1e-10)
        assert res.error == pytest.approx(c, abs=1e-10)

    def test_single_threshold_collapse(self):
        lam = 0.02
        res = exact_exponents(SWAP_PAIR, Thresholds.single(lam))
        i = rate_function(SWAP_PAIR, -lam)
        assert res.err_or_erasure == pytest.approx(min(i, i + lam), abs=1e-12)
        assert res.error == pytest.approx(min(i, i + lam), abs=1e-12)

    def test_asymmetric_thresholds(self):
        thr = Thresholds(lambda_bar=0.03, lambda_under=-0.02)
        res = exact_exponents(SWAP_PAIR, thr)
        i1 = rate_function(SWAP_PAIR, -0.03)
        i2 = rate_function(SWAP_PAIR, 0.02)
        assert res.alpha1 == pytest.approx(i1, abs=1e-12)
        assert res.alpha2 == pytest.approx(i2, abs=1e-12)
        assert res.beta1 == pytest.approx(i2 - 0.02, abs=1e-12)
        assert res.beta2 == pytest.approx(i1 + 0.03, abs=1e-12)
        # erasures make the error-only event rarer
        assert res.error >= res.err_or_erasure - 1e-12

    @pytest.mark.parametrize(
        "thresholds,calls",
        [(Thresholds.single(0.0), 1), (Thresholds(0.03, -0.02), 2)],
        ids=["single", "distinct"],
    )
    def test_each_threshold_solved_once(self, monkeypatch, thresholds, calls):
        seen = []

        def counting(pair, r):
            seen.append(r)
            return rate_function(pair, r)

        monkeypatch.setattr(hyptest, "rate_function", counting)
        res = exact_exponents(SWAP_PAIR, thresholds)
        assert len(seen) == calls
        assert res.alpha1 == rate_function(SWAP_PAIR, -thresholds.lambda_bar)
        assert res.alpha2 == rate_function(SWAP_PAIR, -thresholds.lambda_under)


class TestMartingaleParams:
    def test_swap_pair_gammas(self):
        mp = martingale_params(SWAP_PAIR)
        assert mp.gamma1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert mp.gamma2 == pytest.approx(7.0 / 9.0, abs=1e-12)
        assert mp.d1 == pytest.approx(mp.d2, abs=1e-14)
        assert mp.d1 == pytest.approx(1.2 * math.log(1.5), abs=1e-13)

    def test_deltas_at_zero_threshold(self):
        mp = martingale_params(SWAP_PAIR)
        assert mp.delta11 == pytest.approx(SWAP_PAIR.d12 / mp.d1, abs=1e-14)
        assert mp.delta11 == mp.delta12  # single threshold collapses the pairs
        assert mp.delta21 == mp.delta22

    def test_threshold_gaps(self):
        thr = Thresholds(lambda_bar=0.03, lambda_under=-0.02)
        mp = martingale_params(SWAP_PAIR, thr)
        assert mp.delta11 * mp.d1 == pytest.approx(SWAP_PAIR.d12 - 0.03, abs=1e-14)
        assert mp.delta21 * mp.d2 == pytest.approx(SWAP_PAIR.d21 - 0.02, abs=1e-14)
        assert mp.delta12 * mp.d1 == pytest.approx(SWAP_PAIR.d12 + 0.02, abs=1e-14)
        assert mp.delta22 * mp.d2 == pytest.approx(SWAP_PAIR.d21 + 0.03, abs=1e-14)


class TestLowerBounds:
    def test_swap_pair_values(self):
        refined = refined_lower_bounds(SWAP_PAIR)
        azuma = azuma_lower_bounds(SWAP_PAIR)
        assert refined.error == pytest.approx(1.77e-2, abs=5e-5)
        assert azuma.error == pytest.approx(1.39e-2, abs=5e-5)
        # improvement factor ~ (max gamma)^-1 = 9/7
        assert refined.error / azuma.error == pytest.approx(9.0 / 7.0, rel=2e-2)

    def test_bounds_below_exact(self, rng):
        for _ in range(20):
            pair = random_pair(rng)
            c = chernoff_information(pair)
            refined = refined_lower_bounds(pair)
            azuma = azuma_lower_bounds(pair)
            assert azuma.error <= refined.error + 1e-12
            assert refined.error <= c + 1e-10

    def test_erasure_event_dominates(self, rng):
        for _ in range(10):
            pair = random_pair(rng)
            lam = 0.3 * min(pair.d12, pair.d21)
            thr = Thresholds(lambda_bar=lam, lambda_under=-lam)
            lb = refined_lower_bounds(pair, thr)
            assert lb.err_or_erasure <= lb.error + 1e-12


def cubic_lower(gamma, delta):
    """delta^2/(2 gamma) - delta^3/(6 gamma^2 (1+gamma)), the MDP bound's exponent."""
    return delta**2 / (2.0 * gamma) - delta**3 / (6.0 * gamma**2 * (1.0 + gamma))


class TestCubicLower:
    def test_values(self, rng):
        # the moderate-deviations bound is exp(-n * cubic(gamma1, delta_n))
        for pair in [SWAP_PAIR] + [random_pair(rng) for _ in range(5)]:
            mp = martingale_params(pair)
            for n in (10**3, 10**4, 10**6):
                eps1 = 0.5 * mp.d1
                delta_n = eps1 * n ** (0.75 - 1.0) / mp.d1
                res = moderate_deviation_hyptest(pair, eps1=eps1, eta=0.75, n=n)
                assert res.exponent.exponent == pytest.approx(
                    n * cubic_lower(mp.gamma1, delta_n), rel=1e-12
                )

    def test_below_divergence_grid(self):
        for gamma in np.linspace(0.05, 1.0, 100):
            for delta in np.linspace(0.0, 1.0, 100):
                assert (
                    cubic_lower(gamma, delta)
                    <= divergence_exponent(gamma, delta) + 1e-12
                )


class TestFisher:
    def test_bernoulli_exact(self):
        fam = bernoulli_family()
        assert fisher_information(fam, 0.5) == 4.0
        for th in (0.2, 0.7):
            assert fisher_information(fam, th) == pytest.approx(
                1.0 / th + 1.0 / (1.0 - th), abs=1e-12
            )

    def test_ternary_closed_vs_fd(self):
        # the closed-form derivative against central differences of fam.pmf
        fam = ternary_skewed_family(0.6)
        th, h = 2.0, 1e-5
        p = fam.pmf(th).as_array()
        dp = (fam.pmf(th + h).as_array() - fam.pmf(th - h).as_array()) / (2.0 * h)
        assert fisher_information(fam, th) == pytest.approx(
            float(np.sum(dp**2 / p)), rel=1e-6
        )
        assert fisher_information(fam, th) > 0.0

    def test_constant_family_zero(self):
        fam = hyptest.ParametricFamily(
            lambda th: FinitePmf((0, 1), (0.5, 0.5)), lambda th: np.zeros(2)
        )
        assert fisher_information(fam, 0.3) == 0.0

    def test_limit_check_bernoulli(self):
        rows = fisher_limit_check(bernoulli_family(), 0.5, [0.01])
        row = rows[0]
        assert row.target == pytest.approx(0.5, abs=1e-14)
        assert row.chernoff_ratio * row.delta_theta**2 == pytest.approx(
            2.000e-4, abs=2e-7
        )
        assert row.refined_ratio * row.delta_theta**2 == pytest.approx(
            1.997e-4, abs=2e-7
        )

    def test_limit_check_convergence(self):
        rows = fisher_limit_check(
            bernoulli_family(), 0.5, [1e-1, 1e-2, 1e-3, 1e-4]
        )
        errs = [abs(r.chernoff_ratio - r.target) for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        errs = [abs(r.refined_ratio - r.target) for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert abs(rows[-1].chernoff_ratio - rows[-1].target) < 1e-7

    def test_ternary_azuma_ratio_collapses(self):
        # the loosened route's Fisher ratio shrinks like (1 - alpha) theta
        # (valid for theta <= 1, where the max-score symbol is x = 0)
        theta = 0.5
        fam = ternary_skewed_family(0.99)
        rows = fisher_limit_check(fam, theta, [1e-4])
        a_theta = rows[0].azuma_ratio / rows[0].target
        assert a_theta == pytest.approx((1.0 - 0.99) * theta, rel=0.05)
        assert rows[0].refined_ratio / rows[0].target == pytest.approx(1.0, rel=0.05)

    def test_ternary_azuma_ratio_large_theta_branch(self):
        # for theta >= 1 the collapse rate is (1 - alpha)/theta instead
        theta = 2.0
        fam = ternary_skewed_family(0.99)
        rows = fisher_limit_check(fam, theta, [1e-4])
        a_theta = rows[0].azuma_ratio / rows[0].target
        assert a_theta == pytest.approx((1.0 - 0.99) / theta, rel=0.05)


class TestModerateDeviations:
    def test_slope(self):
        res = moderate_deviation_hyptest(SWAP_PAIR, eps1=0.05, eta=0.75, n=10**4)
        mp = martingale_params(SWAP_PAIR)
        assert res.asymptotic_slope == pytest.approx(
            -(0.05**2) / (2 * mp.sigma1sq), abs=1e-14
        )
        assert 0.0 < tail_bound(res.exponent, 1, two_sided=False) < 1.0

    def test_scaled_log_converges_to_slope(self):
        for n in (10**6, 10**8):
            res = moderate_deviation_hyptest(SWAP_PAIR, eps1=0.05, eta=0.75, n=n)
            scaled = -(n ** (1.0 - 2 * 0.75)) * res.exponent.exponent
            assert scaled == pytest.approx(res.asymptotic_slope, rel=0.05)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            moderate_deviation_hyptest(SWAP_PAIR, eps1=5.0, eta=0.6, n=2)

    def test_second_order_small_deviation_link(self):
        # sqrt(n)-deviation route: scaled log of the sigma1-based bound
        # approaches -eps^2/(2 sigma1^2)
        from tailforge.bounds import MartingaleSpec, small_deviation_exponents

        mp = martingale_params(SWAP_PAIR)
        spec = MartingaleSpec(d=mp.d1, sigma2=mp.sigma1sq)
        eps = 0.05
        n = 10**8
        finite, _ = small_deviation_exponents(spec, eps, n)
        assert -finite.exponent == pytest.approx(
            -(eps**2) / (2 * mp.sigma1sq), rel=1e-3
        )
