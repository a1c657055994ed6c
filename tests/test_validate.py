"""Exact-tail oracles, sandwich checks, Monte Carlo and their cross-validation."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from tailforge import validate
from tailforge.validate import (
    Example3Comparison,
    IncrementLaw,
    InfeasibleError,
    TailQuery,
    bernoulli_centered_increment,
    example3_comparison,
    exact_tail_dp,
    monte_carlo_tail,
    two_point_increment,
    types_sandwich_check,
)

PM_ONE = IncrementLaw((1.0, -1.0), (0.5, 0.5))


class TestLawValidation:
    def test_zero_mean_enforced(self):
        with pytest.raises(ValueError):
            IncrementLaw((1.0, -0.5), (0.5, 0.5))

    def test_two_point_properties(self):
        law = two_point_increment(1.0, 0.01)
        assert law.d == 1.0
        assert law.variance == pytest.approx(0.01 / 0.99, abs=1e-15)
        with pytest.raises(ValueError):
            two_point_increment(1.0, 0.6)

    def test_bernoulli_centered(self):
        law = bernoulli_centered_increment(0.3)
        assert law.values == (0.7, -0.3)
        assert law.variance == pytest.approx(0.21, abs=1e-15)


class TestTailQuery:
    @pytest.mark.parametrize("n", [10.5, 10.0, "10"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError):
            TailQuery(n=n, threshold=1.0)

    def test_integer_like_n_accepted(self):
        q = TailQuery(n=np.int64(12), threshold=1.0)
        assert q.n == 12 and type(q.n) is int


class TestExactTailDp:
    def test_single_path(self):
        assert exact_tail_dp(PM_ONE, TailQuery(10, 10.0)) == 2.0**-10
        assert exact_tail_dp(PM_ONE, TailQuery(10, 10.0, two_sided=True)) == 2.0**-9

    def test_zero_threshold_symmetric(self):
        p = exact_tail_dp(PM_ONE, TailQuery(11, 0.0))
        assert p >= 0.5
        # odd n: P(S >= 0) = P(S > 0) = 1/2 by symmetry (no mass at 0)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_binomial_reduction(self):
        # centered Bernoulli sums: P(S_n >= k - np) = binomial upper tail
        for p in (0.1, 0.3, 0.5):
            law = bernoulli_centered_increment(p)
            n = 20
            for k in (2, 7, 13, 20):
                want = float(binom.sf(k - 1, n, p))
                got = exact_tail_dp(law, TailQuery(n, k - n * p))
                assert got == pytest.approx(want, rel=1e-12)

    def test_irrational_support_quantized(self):
        # quantization shifts lattice points by up to n*1e-12, so keep the
        # threshold safely between lattice values
        law = IncrementLaw((math.sqrt(2), -math.sqrt(2)), (0.5, 0.5))
        got = exact_tail_dp(law, TailQuery(12, 12 * math.sqrt(2) - 1e-6))
        assert got == pytest.approx(2.0**-12, rel=1e-9)
        # mid-lattice threshold against the binomial closed form
        got = exact_tail_dp(law, TailQuery(12, 0.5 * math.sqrt(2)))
        assert got == pytest.approx(float(binom.sf(6, 12, 0.5)), rel=1e-9)

    def test_three_point_law(self):
        law = IncrementLaw((1.0, 0.0, -1.0), (0.25, 0.5, 0.25))
        # P(S_2 >= 2) = P(both +1) = 1/16
        assert exact_tail_dp(law, TailQuery(2, 2.0)) == pytest.approx(1 / 16)
        # full enumeration oracle for n = 4
        vals = [1.0, 0.0, -1.0]
        probs = [0.25, 0.5, 0.25]
        total = 0.0
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        s = vals[a] + vals[b] + vals[c] + vals[d]
                        if s >= 2.0:
                            total += probs[a] * probs[b] * probs[c] * probs[d]
        assert exact_tail_dp(law, TailQuery(4, 2.0)) == pytest.approx(
            total, rel=1e-13
        )

    def test_threshold_on_lattice_edges(self):
        # exact rational comparison: strictly-above vs at-lattice thresholds
        law = two_point_increment(1.0, 0.25)  # values 1, -1/3
        n = 3
        at = exact_tail_dp(law, TailQuery(n, 1.0 / 3.0))
        above = exact_tail_dp(law, TailQuery(n, 1.0 / 3.0 + 1e-9))
        # S = 1/3 exactly when two +1 and ... 2 - 1/3 = 5/3; 1 + 2*(-1/3) = 1/3
        assert at > above

    def test_infeasible_size(self):
        # 8n + 1 = 5600001 lattice states: refused before any step
        law = IncrementLaw(
            (1.0, 0.5, 0.25, -0.25, -0.5, -1.0), (1 / 6.0,) * 6
        )
        with pytest.raises(InfeasibleError):
            exact_tail_dp(law, TailQuery(700_000, 1.0))

    @pytest.mark.parametrize(
        "values,scale,n",
        [
            ((1.0, 0.5, 0.25, -0.25, -0.5, -1.0), 4, 64),
            ((1.0, 0.5, -0.5, -1.0), 2, 400),
        ],
    )
    def test_matches_dense_convolution(self, values, scale, n):
        # comb(n+s-1, s-1) step-count tuples but only 2*scale*n + 1 lattice states
        probs = (1 / len(values),) * len(values)
        steps = [round(v * scale) for v in values]
        kernel = np.zeros(2 * scale + 1)
        for a, p in zip(steps, probs):
            kernel[a + scale] += p
        dense = np.ones(1)
        for _ in range(n):
            dense = np.convolve(dense, kernel)
        sums = np.arange(dense.size) - n * scale  # lattice units
        law = IncrementLaw(values, probs)
        for x in (0.0, 0.05, 0.3, 0.7):
            k = math.ceil(x * n * scale)
            got = exact_tail_dp(law, TailQuery(n, x * n))
            assert got == pytest.approx(dense[sums >= k].sum(), rel=1e-12)
            got = exact_tail_dp(law, TailQuery(n, x * n, two_sided=True))
            want = dense[sums >= k].sum() + dense[sums <= -k].sum()
            assert got == pytest.approx(min(1.0, want), rel=1e-12)
        assert exact_tail_dp(law, TailQuery(n, 1e30)) == 0.0


class TestSandwich:
    def test_known_value(self):
        res = types_sandwich_check(0.3, 20, 0.5)
        assert res.exact == pytest.approx(float(binom.sf(9, 20, 0.3)), rel=1e-12)
        assert res.exact == pytest.approx(0.0479618973, abs=1e-9)
        assert res.lower <= res.exact <= res.upper

    @pytest.mark.parametrize("r", [1.5, 0.2])
    def test_r_outside_p_to_one(self, r):
        # r > 1 is an impossible event, not the k = n cell
        with pytest.raises(ValueError):
            types_sandwich_check(0.3, 20, r)

    def test_r_equal_p(self):
        res = types_sandwich_check(0.5, 16, 0.5)
        assert res.upper == 1.0
        assert res.lower <= res.exact <= res.upper

    def test_full_lattice_small(self):
        for p in (0.1, 0.3, 0.5):
            for n in (5, 17, 40):
                k0 = math.ceil(n * p)
                for k in range(k0, n + 1):
                    res = types_sandwich_check(p, n, k / n)
                    assert res.lower <= res.exact <= res.upper

    def test_exponent_converges(self):
        # (-ln exact)/n approaches D(r||p) from above, gap < ln(n+1)/n
        from tailforge.specfun import binary_divergence

        p, r = 0.3, 0.5
        gaps = []
        for n in (8, 16, 32, 64):
            res = types_sandwich_check(p, n, r)
            rate = -math.log(res.exact) / n
            d = binary_divergence(res.r_lattice, p)
            assert rate >= d - 1e-12
            assert rate - d < math.log(n + 1) / n
            if n * r == int(n * r):
                gaps.append(rate - d)
        assert gaps[-1] < gaps[0]


class TestMonteCarlo:
    def test_deterministic(self):
        q = TailQuery(50, 4.0, two_sided=True)
        a = monte_carlo_tail(PM_ONE, q, 5000, seed=11)
        b = monte_carlo_tail(PM_ONE, q, 5000, seed=11)
        assert a == b

    def test_worker_split_invariant(self):
        q = TailQuery(30, 2.0)
        a = monte_carlo_tail(PM_ONE, q, 4000, seed=3, workers=1)
        b = monte_carlo_tail(PM_ONE, q, 4000, seed=3, workers=4)
        assert a == b

    def test_env_worker_cap(self, monkeypatch):
        monkeypatch.setenv("TAILFORGE_THREADS", "3")
        q = TailQuery(30, 2.0)
        a = monte_carlo_tail(PM_ONE, q, 1200, seed=5)
        monkeypatch.setenv("TAILFORGE_THREADS", "1")
        b = monte_carlo_tail(PM_ONE, q, 1200, seed=5)
        assert a == b

    def test_agrees_with_exact(self):
        q = TailQuery(100, 1.0, two_sided=True)
        exact = exact_tail_dp(PM_ONE, q)  # 1 - P(S=0) = 0.9204...
        assert exact == pytest.approx(1 - math.comb(100, 50) * 2.0**-100, rel=1e-12)
        mc = monte_carlo_tail(PM_ONE, q, 20000, seed=1)
        half = mc.upper - mc.lower
        assert abs(mc.estimate - exact) <= 3 * half

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_tail(PM_ONE, TailQuery(10, 1.0), 50, seed=0)

    def test_callable_sampler(self):
        def sampler(rng, n, size):
            return rng.choice([1.0, -1.0], size=(size, n)).sum(axis=1)

        mc = monte_carlo_tail(sampler, TailQuery(10, 0.0), 2000, seed=9)
        assert 0.4 <= mc.estimate <= 0.7


def _choice_sums(law):
    """The rng.choice sampler that IncrementLaw.sample_sums must reproduce."""

    def draw(rng, n, size):
        return rng.choice(law.values, size=(size, n), p=law.probs).sum(axis=1)

    return draw


SAMPLER_LAWS = {
    "point": IncrementLaw((0.0,), (1.0,)),
    "pm1": PM_ONE,
    "two_point": two_point_increment(1.0, 0.01),
    "zero_first": IncrementLaw((2.0, 1.0, -1.0), (0.0, 0.5, 0.5)),
    "zero_last": IncrementLaw((1.0, -1.0, 3.0), (0.5, 0.5, 0.0)),
    "unsorted4": IncrementLaw((0.0, 1.0, -1.0, 0.5), (0.3, 0.2, 0.3, 0.2)),
    "unsorted5": IncrementLaw((-0.5, 2.0, 0.0, 0.5, -1.0), (0.2, 0.1, 0.3, 0.2, 0.2)),
}


class TestSampleSums:
    @pytest.mark.parametrize("law", SAMPLER_LAWS.values(), ids=SAMPLER_LAWS.keys())
    @pytest.mark.parametrize("n", [1, 7, 100, 1000, 20000])
    def test_bit_identical_to_choice(self, law, n):
        rows = max(1, validate._SAMPLE_BLOCK // n)
        # one block, several whole blocks, and a partial last block
        for size in (max(1, rows // 2), 3 * rows, 2 * rows + rows // 2 + 1):
            for seed in (0, 17):
                want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _choice_sums(law)(want_rng, n, size)
                got = law.sample_sums(got_rng, n, size)
                assert got.shape == (size,)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                # both leave the generator at the same point in its stream
                assert got_rng.random() == want_rng.random()

    def test_knot_ties_follow_searchsorted_right(self):
        # choice maps u to searchsorted(cumsum(p) / cumsum[-1], u, 'right');
        # ten 0.1s sum to 1 - 2**-53 here, so the division moves knots
        law = IncrementLaw(tuple(k - 4.5 for k in range(10)), (0.1,) * 10)
        cdf = np.cumsum(law.probs)
        knots = cdf / cdf[-1]
        u = np.unique(np.concatenate([cdf[:-1], knots[:-1]]))
        u = np.concatenate([np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)])

        class Replay:
            def random(self, out):
                out[...] = u.reshape(out.shape)

        got = law.sample_sums(Replay(), 1, u.size)
        want = np.array(law.values)[np.searchsorted(knots, u, side="right")]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("law", SAMPLER_LAWS.values(), ids=SAMPLER_LAWS.keys())
    def test_monte_carlo_matches_choice_reference(self, law, workers):
        q = TailQuery(60, 0.8 * math.sqrt(60 * law.variance), two_sided=True)
        got = monte_carlo_tail(law, q, 4000, seed=23, workers=workers)
        assert got == monte_carlo_tail(_choice_sums(law), q, 4000, seed=23, workers=1)

    def test_memory_is_per_block(self):
        # rng.choice makes three 64 x 1e5 float64/int64 arrays here (~150 MB)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            PM_ONE.sample_sums(rng, 100_000, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBoundValidity:
    """Monte Carlo estimates never exceed analytic bounds (+CI slack)."""

    def test_random_configurations(self, rng):
        from tailforge import bounds

        for _ in range(20):
            eps = float(rng.uniform(0.05, 0.5))
            law = two_point_increment(1.0, eps)
            n = int(rng.integers(8, 24))
            delta = float(rng.uniform(0.1, 0.9))
            q = TailQuery(n, delta * n, two_sided=True)
            spec = bounds.MartingaleSpec(d=1.0, sigma2=law.variance)
            mc = monte_carlo_tail(law, q, 3000, seed=int(rng.integers(1 << 30)))
            for ev in (
                bounds.azuma_exponent(spec, delta),
                bounds.thm2_exponent(spec, delta),
                bounds.thm3_exponent(spec, delta),
                bounds.cor3_exponent(spec, delta),
                bounds.cor4_exponent(spec.gamma, delta),
            ):
                assert mc.lower <= bounds.tail_bound(ev, n) + 1e-12


class TestExample3:
    def test_symmetric_case_tight(self):
        res = example3_comparison(0.5, 1.0, 1.0, 10)
        assert res.thm2 == pytest.approx(2.0**-10, rel=1e-12)
        assert res.exact == pytest.approx(2.0**-10, rel=1e-12)
        assert res.azuma == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert res.exact <= res.thm2 <= res.azuma

    def test_small_eps_separation(self):
        res = example3_comparison(0.01, 1.0, 0.5, 20)
        assert res.thm2 < 1e-10 * res.azuma
        assert res.exact <= res.thm2 * (1 + 1e-9)

    def test_vanishing_eps_limit(self):
        azumas, thm2s = [], []
        for eps in (0.2, 0.1, 0.05, 0.01):
            res = example3_comparison(eps, 1.0, 0.5, 10)
            azumas.append(res.azuma)
            thm2s.append(res.thm2)
        assert len(set(azumas)) == 1  # eps-independent
        assert all(b < a for a, b in zip(thm2s, thm2s[1:]))  # -> 0

    def test_zero_threshold_reports_one(self):
        res = example3_comparison(0.25, 1.0, 0.0, 10)
        assert res.azuma == 1.0
        assert res.thm2 == 1.0
        assert 0.0 < res.exact <= 1.0

    def test_beyond_jump_bound(self):
        res = example3_comparison(0.25, 1.0, 1.5, 10)
        assert res.thm2 == 0.0
        assert res.exact == 0.0
