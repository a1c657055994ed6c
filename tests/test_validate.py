"""Exact-tail oracles, sandwich checks, Monte Carlo and their cross-validation."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from tailforge import validate
from tailforge.validate import (
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

    @pytest.mark.parametrize(
        "values,probs",
        [
            ((math.inf, 0.0), (0.0, 1.0)),
            ((math.nan, 1.0, -1.0), (0.0, 0.5, 0.5)),
            ((math.inf, -math.inf), (0.5, 0.5)),
        ],
        ids=["inf-zero-prob", "nan", "inf-minus-inf"],
    )
    def test_non_finite_values_rejected(self, values, probs):
        with pytest.raises(ValueError, match="law values must be finite"):
            IncrementLaw(values, probs)

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
    @pytest.mark.parametrize("n", [10.5, 10.0, "10", True])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError):
            TailQuery(n=n, threshold=1.0)

    @pytest.mark.parametrize(
        "threshold",
        [math.inf, -math.inf, math.nan, 10**400, -(10**400)],
        ids=["inf", "-inf", "nan", "int-1e400", "-int-1e400"],
    )
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            TailQuery(n=10, threshold=threshold)

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
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_irrational_support(self):
        law = IncrementLaw((math.sqrt(2), -math.sqrt(2)), (0.5, 0.5))
        got = exact_tail_dp(law, TailQuery(12, 12 * math.sqrt(2) - 1e-6))
        assert got == pytest.approx(2.0**-12, rel=1e-12, abs=0)
        # mid-lattice threshold against the binomial closed form
        got = exact_tail_dp(law, TailQuery(12, 0.5 * math.sqrt(2)))
        assert got == pytest.approx(float(binom.sf(6, 12, 0.5)), rel=1e-12, abs=0)
        # six draws of each sign sum to exactly 0, which counts as >= 0
        got = exact_tail_dp(law, TailQuery(12, 0.0))
        assert got == pytest.approx(float(binom.sf(5, 12, 0.5)), rel=1e-13, abs=0)
        # 5e-12 below the top sum 100*sqrt(2): a 1e-12 grid misses it
        got = exact_tail_dp(law, TailQuery(100, 100 * math.sqrt(2) - 5e-12))
        assert got == pytest.approx(2.0**-100, rel=1e-13, abs=0)

    def test_irrational_values_are_not_snapped(self):
        # sqrt(5) lies within 1e-12 of a rational with denominator <= 1e6; taken
        # as that rational, the top sum would pass a threshold 6e-11 above it
        root5 = math.sqrt(5)
        steps, denom = validate._integer_lattice((root5, -root5))
        assert Fraction(steps[0], denom) == Fraction(root5)
        law = IncrementLaw((root5, -root5), (0.5, 0.5))
        assert exact_tail_dp(law, TailQuery(100, 100 * root5 + 6e-11)) == 0.0
        assert exact_tail_dp(law, TailQuery(100, 100 * root5)) == pytest.approx(
            2.0**-100, rel=1e-13, abs=0
        )

    def test_tiny_values_are_not_snapped_to_zero(self):
        # +-1e-13 are not 0: P(S_10 >= 5e-13) needs 8 or more + steps, 56/1024
        law = IncrementLaw((1e-13, -1e-13), (0.5, 0.5))
        assert exact_tail_dp(law, TailQuery(10, 5e-13)) == pytest.approx(
            56 / 1024, rel=1e-13, abs=0
        )

    @pytest.mark.parametrize(
        "value, rational",
        [
            (-0.1 / 0.9, Fraction(-1, 9)),
            (-0.3 / 0.7, Fraction(-3, 7)),
            (math.nextafter(1 / 3, 1), Fraction(1, 3)),
        ],
    )
    def test_one_ulp_quotients_snap_to_their_rational(self, value, rational):
        assert abs(value - float(rational)) == math.ulp(value)
        steps, denom = validate._integer_lattice((1.0, value))
        assert Fraction(steps[1], denom) == rational

    @pytest.mark.parametrize("eps, k0", [(0.1, 1), (0.3, 3)])
    def test_quotient_law_ties_count(self, eps, k0):
        # values (1, -eps/(1-eps)) at n = 10: S_10 = 0 exactly at k0 + steps,
        # which counts only if -eps/(1-eps) is taken as its rational
        law = two_point_increment(1.0, eps)
        want = float(binom.sf(k0 - 1, 10, eps))
        got = exact_tail_dp(law, TailQuery(10, 0.0))
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_keys_beyond_int64(self):
        # n * max|step| = 1e19 > 2**63: keys must not wrap around
        law = IncrementLaw((1e18, -1e18), (0.5, 0.5))
        assert exact_tail_dp(law, TailQuery(10, 1e19)) == pytest.approx(
            2.0**-10, rel=1e-13, abs=0
        )

    def test_brute_force_on_an_exact_binary_support(self):
        # sums are (3k - n)a for a = sqrt2 - 1, so thresholds j*a tie with them
        # wherever j*a rounds exactly; the p = 0 point never counts
        a = math.sqrt(2) - 1
        law = IncrementLaw((2 * a, math.sqrt(7) / 2, -a), (1 / 3, 0.0, 2 / 3))
        steps, denom = validate._integer_lattice(law.values)
        exact = [Fraction(v) for v in law.values]
        assert [Fraction(k, denom) for k in steps] == exact  # no rational snap
        for n in range(1, 8):
            paths = [
                (sum(exact[i] for i in path), math.prod(law.probs[i] for i in path))
                for path in itertools.product(range(3), repeat=n)
            ]
            thresholds = {j * a for j in range(-2 * n, 2 * n + 1)} | {0.0, a / 3}
            for t in sorted(thresholds):
                for two_sided in (False, True):
                    want = math.fsum(
                        mass
                        for total, mass in paths
                        if total >= Fraction(t) or (two_sided and total <= -Fraction(t))
                    )
                    got = exact_tail_dp(law, TailQuery(n, t, two_sided=two_sided))
                    assert got == pytest.approx(min(1.0, want), rel=1e-13, abs=0), (
                        n, t, two_sided,
                    )

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

    def test_work_cap(self):
        # 8n + 1 = 4800001 entries fit the state cap, but 600000 rounds of
        # 6 steps over them would take hours: refused before any round
        law = IncrementLaw(
            (1.0, 0.5, 0.25, -0.25, -0.5, -1.0), (1 / 6.0,) * 6
        )
        with pytest.raises(InfeasibleError, match="updates"):
            exact_tail_dp(law, TailQuery(600_000, 1.0))

    def test_within_work_cap(self):
        # 4 steps over 20001 entries for 5000 rounds: well inside both caps
        law = IncrementLaw((1.0, 0.5, -0.5, -1.0), (0.25,) * 4)
        one = exact_tail_dp(law, TailQuery(5000, 50.0))
        two = exact_tail_dp(law, TailQuery(5000, 50.0, two_sided=True))
        assert 0.0 < one < 0.5
        assert two == pytest.approx(2 * one, rel=1e-12)

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


def _sparse_rounds_reference(steps, probs, n):
    """The np.unique/np.bincount merge, kept here as the reference kernel.

    bincount adds the terms of each key in input order; keys descend, so
    each key meets its terms in ascending step order, as in the dense kernel.
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


def _reference_tail(law, query):
    steps, denom = validate._integer_lattice(law.values)
    thresh = Fraction(query.threshold) * denom
    keys, dist = _sparse_rounds_reference(steps, law.probs, query.n)
    upper = math.fsum(dist[keys >= math.ceil(thresh)])
    if not query.two_sided:
        return min(1.0, upper)
    return min(1.0, upper + math.fsum(dist[keys <= math.floor(-thresh)]))


def _two_point_exact(eps):
    return IncrementLaw((1.0, float(-eps / (1 - eps))), (float(eps), float(1 - eps)))


_IRRATIONAL_EPS = 1.0 / (2.0 + math.sqrt(2.0))
DP_LAWS = {  # every oracle_certify exact-cell law, then the edge cases
    **{f"two_point_{e}": _two_point_exact(Fraction(1, e)) for e in (20, 10, 4, 2)},
    **{f"bernoulli_{p}": bernoulli_centered_increment(p) for p in (0.1, 0.3, 0.5)},
    "pm1": PM_ONE,
    "three_point": IncrementLaw((1.0, 0.0, -1.0), (0.25, 0.5, 0.25)),
    "four_third": IncrementLaw((1.0, 1 / 3, -1 / 3, -1.0), (0.25,) * 4),
    "four_half": IncrementLaw((1.0, 0.5, -0.5, -1.0), (0.25,) * 4),
    "irrational": two_point_increment(1.0, _IRRATIONAL_EPS),
    "unsorted": IncrementLaw((-0.5, 1.0, 0.0, -1.0, 0.5), (0.2, 0.15, 0.15, 0.2, 0.3)),
    "zero_prob": IncrementLaw((2.0, 1.0, -1.0), (0.0, 0.5, 0.5)),
    # two floats that share the lattice step 1 (denominator 3): ties keep
    # support order
    "tied_steps": IncrementLaw(
        (1 / 3, math.nextafter(1 / 3, 1.0), -2 / 3), (0.25, 5 / 12, 1 / 3)
    ),
    "point": IncrementLaw((0.0,), (1.0,)),
    "two_point_99": two_point_increment(1.0, 0.01),
}
SPARSE_LAWS = {"irrational", "two_point_99"}


class TestDenseKernel:
    """The dense kernel reproduces the sorted merge bit for bit; count
    vectors, which add the masses in another order, agree to 1e-12."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        used = []
        for name in ("_dense_rounds", "_count_masses"):
            def record(*args, _name=name, _kernel=getattr(validate, name)):
                used.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(validate, name, record)
        return used

    @pytest.mark.parametrize("label", DP_LAWS)
    @pytest.mark.parametrize("n", [1, 9, 64, 250])
    def test_tails_bit_identical_to_sparse_merge(self, kernels, label, n):
        law = DP_LAWS[label]
        for x in (0.0, 0.1, 0.37, 1.0):
            for two_sided in (False, True):
                q = TailQuery(n, x * law.d * n, two_sided=two_sided)
                got, want = exact_tail_dp(law, q), _reference_tail(law, q)
                if label in SPARSE_LAWS:
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (x, two_sided)
                else:
                    assert got.hex() == want.hex(), (x, two_sided)
        kernel = "_count_masses" if label in SPARSE_LAWS else "_dense_rounds"
        assert set(kernels) == {kernel}

    @pytest.mark.parametrize(
        "law",
        [DP_LAWS["two_point_20"], IncrementLaw((1.0, -3 / 7), (0.3, 0.7))],
        ids=["steps_19_-1", "steps_7_-3"],
    )
    @pytest.mark.parametrize("n", [1, 9, 250])
    def test_runs_on_the_lattice_the_sums_reach(self, monkeypatch, law, n):
        # sums of steps (19, -1) or (7, -3) reach every 20th or 10th key only
        cells, dense_rounds = [], validate._dense_rounds

        def recorded(*args):
            keys, dist = dense_rounds(*args)
            cells.append(dist.size)
            return keys, dist

        monkeypatch.setattr(validate, "_dense_rounds", recorded)
        for x in (0.0, 0.1, 0.37, 1.0):
            for two_sided in (False, True):
                q = TailQuery(n, x * law.d * n, two_sided=two_sided)
                got, want = exact_tail_dp(law, q), _reference_tail(law, q)
                assert got.hex() == want.hex(), (x, two_sided)
        assert set(cells) == {n + 1}

    @pytest.mark.parametrize(
        "label", [k for k in DP_LAWS if k not in SPARSE_LAWS]
    )
    def test_distribution_bit_identical(self, label):
        law = DP_LAWS[label]
        steps, _ = validate._integer_lattice(law.values)
        n = 120
        keys, dist = validate._dense_rounds(steps, law.probs, n)
        want_keys, want = _sparse_rounds_reference(steps, law.probs, n)
        assert np.array_equal(keys, np.arange(keys[0], keys[0] + keys.size))
        got = dist[want_keys - keys[0]]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        unreached = np.ones(dist.size, dtype=bool)
        unreached[want_keys - keys[0]] = False
        assert not dist[unreached].any()


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

    def test_binomial_beyond_float_range_is_infeasible(self):
        # C(1100, 550) exceeds the largest double; C(1000, k) never does
        with pytest.raises(InfeasibleError, match="1029"):
            types_sandwich_check(0.3, 1100, 0.5)
        res = types_sandwich_check(0.3, 1000, 0.5)
        assert res.exact == pytest.approx(float(binom.sf(499, 1000, 0.3)), rel=1e-9)
        assert res.lower <= res.exact <= res.upper

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

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_exact_against_rational_tail(self, p):
        # the term recurrence stays within a few ulps of the rational tail
        fp = Fraction(p)
        for n in (5, 17, 40, 64):
            for k in range(math.ceil(n * p), n + 1):
                res = types_sandwich_check(p, n, k / n)
                k_eff = round(res.r_lattice * n)  # the float k/n can lie above k/n
                want = sum(math.comb(n, j) * fp**j * (1 - fp) ** (n - j) for j in range(k_eff, n + 1))
                assert res.exact == pytest.approx(float(want), rel=1e-14, abs=0)

    def test_first_term_survives_underflow_of_p_power(self):
        # 0.2709**671 underflows although the first term is about 1.8e-161
        res = types_sandwich_check(0.2709, 976, 671 / 976)
        num, den = (0.2709).as_integer_ratio()
        tail = sum(math.comb(976, j) * num**j * (den - num) ** (976 - j) for j in range(671, 977))
        assert res.exact == pytest.approx(float(Fraction(tail, den**976)), rel=1e-12, abs=0)
        assert res.lower <= res.exact <= res.upper

    def test_sandwich_holds_on_random_cells(self):
        rng = np.random.default_rng(2709)
        bad = []
        for _ in range(300):
            p = float(rng.uniform(0.01, 0.5))
            n = int(rng.integers(1, 1030))
            k = int(rng.integers(math.ceil(n * p), n + 1))
            res = types_sandwich_check(p, n, max(p, k / n))
            if not res.lower <= res.exact <= res.upper:
                bad.append((p, n, k, res))
        assert not bad

    def test_boundary_cell_is_p_to_the_n(self):
        # p**n is subnormal in the last two, where ldexp(mp**n, ep * n) rounds
        # it differently
        for p, n in ((0.3, 40), (0.06278803568808126, 256), (0.4883928804069443, 990)):
            res = types_sandwich_check(p, n, 1.0)
            assert res.exact == res.upper == p**n

    def test_lattice_rounds_exact_value_of_r_up(self):
        # 0.1 * 3 is just above 0.3, so it rounds up to 4/10, not 3/10
        assert types_sandwich_check(0.1, 10, 0.1 * 3).r_lattice == 0.4
        assert types_sandwich_check(0.1, 10, 0.3).r_lattice == 0.3

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

    @pytest.mark.parametrize("trials", [1000.0, "1000", True], ids=repr)
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            monte_carlo_tail(PM_ONE, TailQuery(10, 1.0), trials, seed=0)


def _choice_sums(law, n, trials, seed):
    """Row sums of rng.choice on monte_carlo_tail's spawned substreams and shares."""
    streams = np.random.default_rng(seed).spawn(validate._N_SHARDS)
    shares = [trials // validate._N_SHARDS] * validate._N_SHARDS
    shares[0] += trials - sum(shares)
    return np.concatenate([
        rng.choice(law.values, size=(count, n), p=law.probs).sum(axis=1)
        for rng, count in zip(streams, shares)
    ])


def _choice_estimate(sums, query):
    """The hit frequency monte_carlo_tail must reproduce from these sums."""
    hit = (np.abs(sums) if query.two_sided else sums) >= query.threshold
    return np.count_nonzero(hit) / sums.size


SAMPLER_LAWS = {
    "point": IncrementLaw((0.0,), (1.0,)),
    "pm1": PM_ONE,
    "two_point": two_point_increment(1.0, 0.01),
    "zero_first": IncrementLaw((2.0, 1.0, -1.0), (0.0, 0.5, 0.5)),
    "zero_last": IncrementLaw((1.0, -1.0, 3.0), (0.5, 0.5, 0.0)),
    "unsorted4": IncrementLaw((0.0, 1.0, -1.0, 0.5), (0.3, 0.2, 0.3, 0.2)),
    "unsorted5": IncrementLaw((-0.5, 2.0, 0.0, 0.5, -1.0), (0.2, 0.1, 0.3, 0.2, 0.2)),
}
# the Monte Carlo cells of perfbench's oracle_certify: (law, n, trials)
ORACLE_MC_CELLS = {
    "two_point": (IncrementLaw((1.0, -1 / 9), (0.1, 0.9)), 100, 20000),
    "pm1": (PM_ONE, 100, 20000),
    "three_point": (IncrementLaw((1.0, 0.0, -1.0), (0.25, 0.5, 0.25)), 100, 20000),
    "bernoulli": (IncrementLaw((0.7, -0.3), (0.3, 0.7)), 1000, 10000),
}


@st.composite
def _sampler_laws(draw):
    """1-6 distinct points in any order, some of probability 0, zero mean.

    Symmetric laws (+-a, optionally 0) keep dyadic magnitudes exact; other
    laws are centred by their mean, which makes the values non-dyadic.
    """
    size = draw(st.integers(1, 6))
    zero_prob = draw(st.integers(0, size - 1))
    live = size - zero_prob
    scale = draw(st.sampled_from([8.0, 10.0, 3.0]))  # dyadic, decimal, thirds
    if draw(st.booleans()):
        pairs = live // 2
        mags = draw(st.lists(st.integers(1, 40), min_size=pairs, max_size=pairs,
                             unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=pairs, max_size=pairs))
        values = [s * m / scale for m in mags for s in (1, -1)]
        probs = [w for w in weights for _ in (1, -1)]
        if live % 2:
            values.append(0.0)
            probs.append(draw(st.integers(1, 9)))
    else:
        ints = draw(st.lists(st.integers(-40, 40), min_size=live, max_size=live,
                             unique=True))
        probs = draw(st.lists(st.integers(1, 9), min_size=live, max_size=live))
        mean = math.fsum(i * p for i, p in zip(ints, probs)) / sum(probs)
        values = [i / scale - mean / scale for i in ints]
    spare = [v for v in (5.5, -7.25, 0.3, 12.0, -0.1, 9.75, -3.5) if v not in values]
    values += spare[:zero_prob]
    probs += [0] * zero_prob
    total = sum(probs)
    order = draw(st.permutations(range(size)))
    return IncrementLaw(
        tuple(values[i] for i in order), tuple(probs[i] / total for i in order)
    )


class TestSampleSums:
    """Monte Carlo hits equal those of rng.choice row sums on the same streams."""

    @pytest.mark.parametrize("law", SAMPLER_LAWS.values(), ids=SAMPLER_LAWS.keys())
    @pytest.mark.parametrize("n", [1, 7, 100, 1000, 20000])
    def test_bit_identical_to_choice(self, law, n):
        rows = max(1, validate._SAMPLE_BLOCK // n)
        # per shard: one block, several whole blocks, and a partial last
        # block; 16 shards of 7 make the 100-trial floor
        sizes = {max(7, k) for k in (rows // 2, 3 * rows, 2 * rows + rows // 2 + 1)}
        for size in sorted(sizes):
            trials = validate._N_SHARDS * size
            for seed in (0, 17):
                sums = _choice_sums(law, n, trials, seed)
                ranked = np.sort(sums)
                # thresholds on row sums as choice forms them, and one between
                for query in (
                    TailQuery(n, float(ranked[trials // 3])),
                    TailQuery(n, float(abs(ranked[2 * trials // 3])), two_sided=True),
                    TailQuery(n, float(ranked[trials // 2]) + 0.5 / n),
                ):
                    got = monte_carlo_tail(law, query, trials, seed)
                    assert got.estimate == _choice_estimate(sums, query)
                    assert got.trials == trials

    def test_knot_ties_follow_searchsorted_right(self):
        # choice maps u to searchsorted(cumsum(p) / cumsum[-1], u, 'right');
        # ten 0.1s sum to 1 - 2**-53 here, so the division moves knots
        law = IncrementLaw(tuple(k - 4.5 for k in range(10)), (0.1,) * 10)
        cdf = np.cumsum(law.probs)
        knots = cdf / cdf[-1]
        u = np.unique(np.concatenate([cdf[:-1], knots[:-1]]))
        u = np.concatenate([np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)])
        values = np.array(law.values)
        steps = values[np.searchsorted(knots, u, side="right")]
        block, buf = u.reshape(-1, 1), np.empty((u.size, 1))
        kernel_knots = validate._choice_knots(law.probs)
        # tol 0 decides every row by its counts, 0.75 sends rows within 0.75
        # of the threshold to the exact sum
        for tol in (0.0, 0.75):
            for thr in np.arange(-5.0, 5.5, 0.5):
                for two_sided in (False, True):
                    q = TailQuery(1, float(thr), two_sided)
                    got = validate._block_hits(block, values, kernel_knots, q, tol, buf)
                    want = (np.abs(steps) if two_sided else steps) >= thr
                    assert got == np.count_nonzero(want)

    @pytest.mark.parametrize("law", SAMPLER_LAWS.values(), ids=SAMPLER_LAWS.keys())
    def test_monte_carlo_matches_choice_reference(self, law):
        q = TailQuery(60, 0.8 * math.sqrt(60 * law.variance), two_sided=True)
        got = monte_carlo_tail(law, q, 4000, seed=23)
        assert got.estimate == _choice_estimate(_choice_sums(law, 60, 4000, 23), q)

    @pytest.mark.parametrize("label", ORACLE_MC_CELLS)
    def test_oracle_certify_cells_match_choice(self, label):
        law, n, trials = ORACLE_MC_CELLS[label]
        sums = _choice_sums(law, n, trials, seed=5)
        sd = math.sqrt(n * law.variance)
        thresholds = [0.5 * sd, 1.25 * sd, 2.0 * sd, float(np.sort(sums)[trials // 2])]
        for thr in thresholds:
            for two_sided in (False, True):
                q = TailQuery(n, thr, two_sided)
                got = monte_carlo_tail(law, q, trials, seed=5)
                assert got.estimate == _choice_estimate(sums, q)

    @pytest.mark.parametrize("n", [10, 19, 100])
    def test_rows_straddling_the_threshold(self, n):
        # rows with c up-steps of (1, -1/9) sum to c - (n - c)/9 in exact
        # arithmetic; their float sums and count estimates land on either
        # side of the nearest double, so these rows take the exact sum
        law = IncrementLaw((1.0, -1 / 9), (0.1, 0.9))
        trials = 20000
        sums = _choice_sums(law, n, trials, seed=1)
        for c in range(n + 1):
            thr = float(Fraction(c) - Fraction(n - c, 9))
            if thr > 0:
                q = TailQuery(n, thr)
                got = monte_carlo_tail(law, q, trials, seed=1)
                assert got.estimate == _choice_estimate(sums, q), c

    def test_overflowing_estimate_takes_exact_sums(self):
        # two a's and a b sum to inf added in that order but to 1.3e308 in
        # others, while the estimate 2a + b is inf
        law = IncrementLaw((1.5e308, -1.7e308), (17 / 32, 15 / 32))
        with np.errstate(over="ignore"):
            sums = _choice_sums(law, 3, 400, seed=2)
            for q in (TailQuery(3, 1.4e308), TailQuery(3, 1.4e308, two_sided=True)):
                got = monte_carlo_tail(law, q, 400, seed=2)
                assert got.estimate == _choice_estimate(sums, q)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        law=_sampler_laws(),
        n=st.integers(1, 300),
        trials=st.integers(100, 3000),
        seed=st.integers(0, 2**32 - 1),
        on_lattice=st.booleans(),
        position=st.floats(0.0, 1.0),
        two_sided=st.booleans(),
    )
    def test_random_laws_match_choice(
        self, law, n, trials, seed, on_lattice, position, two_sided
    ):
        sums = _choice_sums(law, n, trials, seed)
        if on_lattice:  # a row sum as choice forms it: rows on it straddle
            thr = float(np.sort(sums)[min(trials - 1, int(position * trials))])
        else:
            thr = (2.0 * position - 1.0) * n * law.d
        q = TailQuery(n, abs(thr) if two_sided else thr, two_sided)
        got = monte_carlo_tail(law, q, trials, seed)
        assert got.estimate == _choice_estimate(sums, q)

    def test_memory_is_per_block(self):
        # rng.choice would make three 64 x 1e5 float64/int64 arrays per shard (~150 MB)
        tracemalloc.start()
        try:
            monte_carlo_tail(PM_ONE, TailQuery(100_000, 300.0), 1024, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (16_000, 1_600_000):
            tracemalloc.start()
            try:
                monte_carlo_tail(PM_ONE, TailQuery(10, 2.0), trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]


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
