"""Channel, OFDM and LDPC applications against closed forms and oracles."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tailforge import bounds, cli, codingapps
from tailforge.codingapps import (
    _GRID_FACTOR,
    DmcChannel,
    LdpcEnsemble,
    OfdmModel,
    _crest_factors,
    bhattacharyya,
    bsc,
    channel_moment_profile,
    ldpc_cycles_bound,
    ofdm_cf_bounds,
    ofdm_martingale_check,
    ofdm_trig_identity,
    q_ary_channel,
    z1,
    z2m,
    z2m_tilde,
)
from tailforge.hyptest import HypothesisPair, martingale_params
from tailforge.pmf import FinitePmf, LlrMartingale
from tailforge.specfun import f_delta

TABLE_CHANNELS = [q_ary_channel(q, 0.04) for q in (2, 3, 4, 5, 10)]
BENCH_CHANNEL = (
    Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "channel.json"
)

# float.hex outputs of the oracle_certify OFDM (and Monte Carlo) cells
ORACLE_BITS = json.loads((Path(__file__).parent / "data" / "oracle_bits.json").read_text())


def read_json(tmp_path, reader, obj):
    """``reader``, one of the CLI's JSON readers, applied to ``obj`` in a file."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return reader(str(path))


class TestChannelConstruction:
    def test_qary_rows_sum_to_one(self):
        for q in range(2, 11):
            ch = q_ary_channel(q, 0.04)
            assert math.fsum(ch.p0.probs) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(ch.p1.probs) == pytest.approx(1.0, abs=1e-12)

    def test_qary_is_bsc_at_two(self):
        ch = q_ary_channel(2, 0.1)
        assert ch.p0.probs == (0.9, 0.1)
        assert ch.p1.probs == (0.1, 0.9)

    def test_boundary_p_rejected(self):
        with pytest.raises(ValueError):
            q_ary_channel(5, 0.25)  # p = 1/(Q-1) excluded
        with pytest.raises(ValueError):
            q_ary_channel(5, 0.0)

    def test_symmetry_violation_rejected(self):
        outs = (0, 1, 2)
        p0 = FinitePmf(outs, (0.7, 0.2, 0.1))
        p1 = FinitePmf(outs, (0.1, 0.2, 0.7))
        DmcChannel(outs, p0, p1, (2, 1, 0))  # valid
        with pytest.raises(ValueError):
            DmcChannel(outs, p0, p1, (0, 1, 2))  # identity is not a symmetry here
        with pytest.raises(ValueError):
            DmcChannel(outs, p0, p1, (1, 2, 0))  # not an involution

    def test_json_round_trip(self, tmp_path):
        ch = q_ary_channel(3, 0.05)
        obj = {
            "outputs": list(ch.outputs),
            "p0": list(ch.p0.probs),
            "p1": list(ch.p1.probs),
            "sym": list(ch.sym),
        }
        again = read_json(tmp_path, cli._read_channel, obj)
        assert again.p0.probs == ch.p0.probs
        assert again.sym == ch.sym

    def test_json_errors_name_field(self, tmp_path):
        with pytest.raises(ValueError, match="p0"):
            read_json(
                tmp_path, cli._read_channel,
                {"outputs": [0, 1], "p0": [0.5, 0.6], "p1": [0.5, 0.5], "sym": [1, 0]},
            )
        with pytest.raises(ValueError, match="missing"):
            read_json(tmp_path, cli._read_channel, {"outputs": [0, 1]})

    def test_stored_martingale_is_invisible_from_outside(self):
        # mart is derived at construction: equality, hash and repr see only the
        # input fields
        ch = q_ary_channel(3, 0.05)
        same = DmcChannel(ch.outputs, ch.p0, ch.p1, ch.sym)
        assert ch == same != q_ary_channel(3, 0.04)
        assert hash(ch) == hash(same) == hash((ch.outputs, ch.p0, ch.p1, ch.sym))
        assert repr(ch) == (
            f"DmcChannel(outputs={ch.outputs!r}, p0={ch.p0!r}, p1={ch.p1!r}, sym={ch.sym!r})"
        )

    def test_replace_rebuilds_the_martingale(self):
        ch, other = q_ary_channel(3, 0.05), q_ary_channel(3, 0.04)
        got = dataclasses.replace(ch, p0=other.p0, p1=other.p1)
        assert list(got.mart.llr) == list(other.mart.llr)
        assert (got.mart.D, got.mart.d) == (other.mart.D, other.mart.d)
        assert channel_moment_profile(got, 6) == channel_moment_profile(other, 6)

    def test_pairwise_builds_one_martingale_per_channel(self, capsys, monkeypatch):
        # z1 and every z2_m and z2tilde_m column once built their own
        of, built = LlrMartingale.of.__func__, []

        def counted(cls, p, q):
            built.append((p, q))
            return of(cls, p, q)

        monkeypatch.setattr(LlrMartingale, "of", classmethod(counted))
        argv = ["pairwise", "--qary", "2,3", "0.04", "--m", "2,4,6", "--tilde"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert len(built) == 2


class TestBhattacharyya:
    def test_bsc(self):
        assert bhattacharyya(bsc(0.04)).base == pytest.approx(
            math.sqrt(4 * 0.04 * 0.96), abs=1e-14
        )

    def test_qary_closed_form(self):
        # Z_B = 2 sqrt(p(1-(Q-1)p)) + (Q-2)p
        for q in (3, 5, 10):
            p = 0.04
            want = 2 * math.sqrt(p * (1 - (q - 1) * p)) + (q - 2) * p
            assert bhattacharyya(q_ary_channel(q, p)).base == pytest.approx(
                want, abs=1e-14
            )

    def test_identical_rows_give_one(self):
        ch = q_ary_channel(2, 0.5)  # both rows (0.5, 0.5)
        assert bhattacharyya(ch).base == pytest.approx(1.0, abs=1e-14)


class TestZ1:
    def test_bsc_identity_dense(self):
        for p in np.linspace(0.005, 0.5, 100):
            want = math.sqrt(4 * p * (1 - p))
            assert abs(z1(bsc(p)).base - want) < 1e-12

    def test_table_values(self):
        got = [z1(ch).base for ch in TABLE_CHANNELS]
        want = [0.3919, 0.4424, 0.4879, 0.5297, 0.7012]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=5e-5)

    def test_exceeds_bhattacharyya_off_bsc(self):
        for ch in TABLE_CHANNELS[1:]:
            assert z1(ch).base > bhattacharyya(ch).base

    def test_prob_power(self):
        b = z1(bsc(0.1))
        assert b.prob(7) == pytest.approx(b.base**7, rel=1e-14)


class TestMomentProfile:
    def test_gamma2_matches_z1_variance(self):
        for ch in TABLE_CHANNELS:
            profile, delta = channel_moment_profile(ch, 10)
            p0 = ch.p0.as_array()
            llr0 = np.log(p0 / ch.p1.as_array())
            div = float(np.dot(p0, llr0))
            d = float(np.max(np.abs(np.log(ch.p1.as_array() / p0)))) + div
            sigma2 = float(np.dot(p0, llr0**2)) - div * div
            assert profile.gamma2 == pytest.approx(sigma2 / d**2, abs=1e-12)
            assert 0.0 < delta < 1.0

    def test_bsc_two_point_closed_form(self):
        p = 0.04
        profile, _ = channel_moment_profile(bsc(p), 6)
        c = math.log((1 - p) / p)
        d = 2 * (1 - p) * c
        for l in range(2, 7):
            # centered llr takes 2pc w.p. 1-p and -2(1-p)c w.p. p
            mu = (-1.0) ** l * (
                (1 - p) * (2 * p * c) ** l + p * (-2 * (1 - p) * c) ** l
            )
            assert profile.gamma(l) == pytest.approx(max(0.0, mu) / d**l, abs=1e-13)

    def test_odd_moments_positive_after_flip(self):
        # binary-input symmetric channels have left-skewed llr under input 0
        for ch in TABLE_CHANNELS:
            profile, _ = channel_moment_profile(ch, 10)
            for l in (3, 5, 7, 9):
                assert profile.gamma(l) > 0.0

    def test_llr_of_rows_one_ulp_apart_is_antisymmetric(self):
        # ln of the rounded ratio once gave (2.2e-16, 0, -1.1e-16) and D/d = 0.2
        ch = q_ary_channel(3, 0.3333333333333333)
        llr = LlrMartingale.of(ch.p0, ch.p1).llr
        assert llr[0] == -llr[2] == pytest.approx(1 / 6 * 2**-50, rel=1e-15)
        assert llr[1] == 0.0
        assert list(LlrMartingale.of(ch.p1, ch.p0).llr) == list(-llr)
        _, delta = channel_moment_profile(ch, 2)
        assert delta < 1e-16

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            channel_moment_profile(bsc(0.1), 3)

    def test_pairwise_is_hypothesis_martingale_at_zero_threshold(self):
        config = cli._read_channel(str(BENCH_CHANNEL))
        for ch in TABLE_CHANNELS + [config]:
            profile, delta = channel_moment_profile(ch, 2)
            pair = HypothesisPair(ch.p0, ch.p1)
            mp = martingale_params(pair)
            assert mp.gamma1 == profile.gamma2
            assert mp.delta11 == delta
            # the order-m profile is the H1 martingale's too
            for m in range(2, 13, 2):
                assert channel_moment_profile(ch, m)[0].gammas == pair.mart12.ratios(m)
            # the paper's jump bound max_y |ln(P(y|1)/P(y|0))| + D
            p0, p1 = ch.p0.as_array(), ch.p1.as_array()
            div = float(np.dot(p0, np.log(p0 / p1)))
            paper_d = float(np.max(np.abs(np.log(p1 / p0)))) + div
            assert mp.d1 == pytest.approx(paper_d, rel=1e-15, abs=0.0)


TABLE1_Z2 = {
    2: [0.3967, 0.4484, 0.4950, 0.5377, 0.7102],
    # Q=5 entry: computed optimum; the paper prints 0.4877, see
    # TestZ2m.test_q5_m4_reference_at_50_digits
    4: [0.3919, 0.4247, 0.4570, 0.4887, 0.6421],
    6: [0.3919, 0.4237, 0.4553, 0.4867, 0.6400],
    8: [0.3919, 0.4237, 0.4552, 0.4866, 0.6400],
    10: [0.3919, 0.4237, 0.4552, 0.4866, 0.6400],
}


class TestZ2m:
    def test_table_values(self):
        for m, row in TABLE1_Z2.items():
            got = [z2m(ch, m).base for ch in TABLE_CHANNELS]
            for g, w in zip(got, row):
                assert g == pytest.approx(w, abs=5e-5)

    def test_q5_m4_reference_at_50_digits(self):
        # Z2^(4) at Q = 5, p = 0.04 from first principles in mpmath, with
        # nothing from tailforge: exp of the infimum of ln S(x) - delta*x
        # over x >= 0 is 0.48872290, so the published 0.4877 is a misprint.
        mp = pytest.importorskip("mpmath")
        ctx = mp.mp.clone()
        ctx.dps = 50
        q, p = 5, ctx.mpf("0.04")
        row0 = [p] * q
        row0[0] = 1 - (q - 1) * p
        row1 = [p] * q
        row1[q - 1] = 1 - (q - 1) * p
        llr0 = [ctx.log(a / b) for a, b in zip(row0, row1)]
        div = ctx.fsum(a * v for a, v in zip(row0, llr0))
        d = max(abs(v) for v in llr0) + div
        delta = div / d
        gammas = [
            ctx.fsum(a * (div - v) ** l for a, v in zip(row0, llr0)) / d**l
            for l in (2, 3, 4)
        ]
        # every odd moment is positive here, so no zero truncation applies
        assert all(g > 0 for g in gammas)
        g2, g3, g4 = gammas

        def s(x):
            return (
                1 + (g2 - g4) * x**2 / 2 + (g3 - g4) * x**3 / 6
                + g4 * (ctx.expm1(x) - x)
            )

        def slope(x):
            ds = (g2 - g4) * x + (g3 - g4) * x**2 / 2 + g4 * ctx.expm1(x)
            return ds / s(x) - delta

        # the slope starts at -delta and tends to 1 - delta > 0; one sign
        # change on the grid brackets the unique minimiser
        grid = [ctx.mpf(k) / 4 for k in range(0, 201)]
        brackets = [
            (a, b) for a, b in zip(grid, grid[1:]) if slope(a) < 0 <= slope(b)
        ]
        assert len(brackets) == 1
        x = ctx.findroot(slope, brackets[0], solver="anderson")
        base = s(x) * ctx.exp(-delta * x)
        assert abs(base - ctx.mpf("0.48872290")) < 1e-8
        assert base - ctx.mpf("0.4877") > 5e-5

    def test_monotone_in_m(self):
        for ch in TABLE_CHANNELS:
            bases = [z2m(ch, m).base for m in (2, 4, 6, 8, 10)]
            assert all(b <= a + 1e-12 for a, b in zip(bases, bases[1:]))

    def test_dominates_bhattacharyya(self):
        for ch in TABLE_CHANNELS:
            zb = bhattacharyya(ch).base
            for m in (2, 4, 10):
                assert z2m(ch, m).base >= zb - 1e-9

    def test_m2_looser_than_z1(self):
        for ch in TABLE_CHANNELS:
            assert z2m(ch, 2).base >= z1(ch).base - 1e-12

    def test_degenerate_channel_base_one(self):
        ch = q_ary_channel(2, 0.5)  # identical rows
        for m in (2, 6):
            assert z2m(ch, m).base == 1.0

    def test_e4_beats_e2_at_high_m(self):
        # at Q = 10 the order-10 route beats the divergence route
        ch = TABLE_CHANNELS[-1]
        profile, delta = channel_moment_profile(ch, 10)
        e2 = bounds.divergence_exponent(profile.gamma2, delta)
        e4 = bounds.thm4_exponent(profile, delta).exponent
        assert e4 > e2
        assert math.exp(-e4) < math.exp(-e2)


class TestZ2mTilde:
    def test_table2_values(self):
        want = [0.3919, 0.4237, 0.4553, 0.4868, 0.6417]
        got = [z2m_tilde(ch, 10).base for ch in TABLE_CHANNELS]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=5e-5)

    def test_m2_equality(self):
        for ch in TABLE_CHANNELS:
            assert z2m_tilde(ch, 2).base == pytest.approx(
                z2m(ch, 2).base, abs=1e-10
            )

    def test_upper_bounds_z2m_with_small_gap(self):
        for ch in TABLE_CHANNELS:
            for m in (2, 4, 6, 8, 10):
                t = z2m_tilde(ch, m).base
                z = z2m(ch, m).base
                assert t >= z - 1e-10
                if m == 10:
                    assert t - z < 2e-3


class TestConjectureProbe:
    """Conjecture 1: Z2^(m) -> Z_B as m grows."""

    @staticmethod
    def gap(ch, m):
        return abs(z2m(ch, m).base - bhattacharyya(ch).base)

    def test_table_channels_converge(self):
        for ch in TABLE_CHANNELS:
            assert self.gap(ch, 10) <= 5e-5

    def test_bsc_equality_from_m4(self):
        for m in (4, 6, 8, 10):
            assert self.gap(bsc(0.04), m) <= 5e-5

    def test_gaps_shrink(self):
        ch = q_ary_channel(5, 0.04)
        gaps = [self.gap(ch, m) for m in (2, 4, 6, 8, 10)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


def random_symmetric_channel(rng, q):
    """Random strictly positive channel with the reversal involution."""
    row = rng.uniform(0.05, 1.0, size=q)
    row = row / row.sum()
    outs = tuple(range(q))
    p0 = FinitePmf(outs, tuple(row))
    p1 = FinitePmf(outs, tuple(row[::-1]))
    return DmcChannel(outs, p0, p1, tuple(q - 1 - y for y in range(q)))


class TestRandomChannels:
    def test_base_chains(self, rng):
        for _ in range(25):
            q = int(rng.integers(2, 7))
            ch = random_symmetric_channel(rng, q)
            zb = bhattacharyya(ch).base
            base1 = z1(ch).base
            assert base1 >= zb - 1e-9  # observed ordering, exact on the BSC
            prev = None
            for m in (2, 4, 6, 8):
                z = z2m(ch, m).base
                t = z2m_tilde(ch, m).base
                assert t >= z - 1e-9
                assert z >= zb - 1e-9
                if m == 2:
                    assert z >= base1 - 1e-10
                if prev is not None:
                    assert z <= prev + 1e-10
                prev = z

    def test_bases_bound_exact_pairwise_tails(self, rng):
        # the defining property: P_h <= base^h, with P_h computed exactly
        # by lattice DP over the i.i.d. pairwise-error jump law
        from tailforge.validate import IncrementLaw, TailQuery, exact_tail_dp

        for _ in range(10):
            q = int(rng.integers(2, 5))
            ch = random_symmetric_channel(rng, q)
            p0 = ch.p0.as_array()
            llr1 = np.log(ch.p1.as_array() / p0)
            div = float(np.dot(p0, -llr1))
            jumps = llr1 + div  # centered martingale differences under H1
            # merge numerically equal support points for the law constructor
            support = {}
            for v, pr in zip(jumps, p0):
                key = round(float(v), 12)
                support[key] = support.get(key, 0.0) + float(pr)
            law = IncrementLaw(tuple(support), tuple(support.values()))
            for h in (1, 4, 8):
                exact = exact_tail_dp(law, TailQuery(h, div * h))
                for bound in (bhattacharyya(ch), z1(ch), z2m(ch, 2), z2m(ch, 6)):
                    assert exact <= bound.prob(h) + 1e-10


class TestLdpc:
    def test_regular_3_6(self):
        ens = LdpcEnsemble.regular(1024, 3, 6)
        assert ens.design_rate == pytest.approx(0.5, abs=1e-14)
        assert ens.avg_right_degree == pytest.approx(6.0, abs=1e-12)

    def test_bound_zero_beyond_one(self):
        ens = LdpcEnsemble.regular(100, 3, 6)
        res = ldpc_cycles_bound(ens, alpha=4.0)  # beta = 4/3 > 1
        assert res.beta > 1.0
        assert bounds.tail_bound(res.exponent, res.n) == 0.0

    def test_matches_kernel_form(self):
        ens = LdpcEnsemble.regular(64, 3, 6)
        res = ldpc_cycles_bound(ens, alpha=1.5)
        assert res.beta == pytest.approx(0.5, abs=1e-14)
        want = 2 * math.exp(-64 * f_delta(0.5))
        assert bounds.tail_bound(res.exponent, res.n) == pytest.approx(want, rel=1e-12)
        want = 2 * math.exp(-(0.5**2) * 64 / 2)
        assert bounds.tail_bound(res.azuma, res.n) == pytest.approx(want, rel=1e-12)

    def test_tighter_than_azuma_on_grid(self):
        ens = LdpcEnsemble.regular(128, 3, 6)
        scale = (1 - ens.design_rate) * ens.avg_right_degree
        for beta in np.linspace(0.01, 1.0, 50):
            res = ldpc_cycles_bound(ens, alpha=beta * scale)
            # both bounds clamp to 1 at small beta, so compare the exponents
            assert res.exponent.exponent >= res.azuma.exponent

    def test_json_and_validation(self, tmp_path):
        def from_json(obj):
            return read_json(tmp_path, cli._read_ldpc, obj)

        ens = from_json(
            {"n": 10, "lambda": [0.0, 0.0, 1.0], "rho": [0, 0, 0, 0, 0, 1.0]}
        )
        assert ens.design_rate == pytest.approx(0.5)
        with pytest.raises(ValueError):
            from_json({"n": 10, "lambda": [0.5, 0.4]})  # sums to 0.9
        with pytest.raises(ValueError):
            from_json({"n": 10})
        with pytest.raises(ValueError, match="integer"):  # never truncated to 10
            from_json({"n": 10.7, "lambda": [1.0], "rho": [1.0]})
        with pytest.raises(ValueError, match="integer"):  # a JSON true is not n = 1
            from_json({"n": True, "lambda": [1.0], "rho": [1.0]})

    @pytest.mark.parametrize("name", ["lambda", "rho"])
    def test_empty_polynomial_is_named(self, name):
        coeffs = {"lambda": (1.0,), "rho": (1.0,), name: ()}
        with pytest.raises(ValueError, match=f"^{name} needs at least one coefficient$"):
            LdpcEnsemble(10, coeffs["lambda"], coeffs["rho"])


class TestOfdmBounds:
    def test_formulas(self):
        model = OfdmModel(n=64, M=4)
        res = ofdm_cf_bounds(model, alpha=4.0)
        assert res.azuma.exponent == 2.0  # alpha^2/8
        assert res.refined_limit.exponent == 4.0  # alpha^2/4
        # finite-n correction is a penalty
        assert res.refined.exponent < res.refined_limit.exponent

    def test_exponent_ratio_doubles(self):
        alpha = 1.0
        for n, tol in ((10**4, 0.02), (10**8, 1e-3)):
            res = ofdm_cf_bounds(OfdmModel(n=n, M=4), alpha)
            ratio = res.refined.exponent / res.azuma.exponent
            assert ratio == pytest.approx(2.0, abs=tol)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ofdm_cf_bounds(OfdmModel(n=4, M=2), 0.0)


class TestOfdmTrigIdentity:
    def test_exact_rational(self):
        assert ofdm_trig_identity(16, 4) == Fraction(1, 8)
        for M in range(2, 65):
            assert ofdm_trig_identity(10, M) == Fraction(2, 10)


class TestOfdmMartingaleCheck:
    def test_no_violations_and_second_moment(self):
        model = OfdmModel(n=8, M=4)
        rep = ofdm_martingale_check(model, trials=150, seed=7, inner=16)
        assert rep.violations == 0
        assert rep.max_increment <= rep.jump_bound * (1 + 1e-12)
        assert rep.second_moment_mean <= (
            rep.second_moment_target + 3 * rep.second_moment_se
        )
        assert rep.trig_identity == Fraction(2, 8)

    def test_deterministic_under_seed(self):
        model = OfdmModel(n=8, M=2)
        a = ofdm_martingale_check(model, trials=60, seed=42)
        b = ofdm_martingale_check(model, trials=60, seed=42)
        assert a == b

    @pytest.mark.parametrize("inner", [0, -1])
    def test_inner_below_one_rejected(self, inner):
        with pytest.raises(ValueError, match="inner must be >= 1"):
            ofdm_martingale_check(OfdmModel(n=8, M=4), 5, 1, inner=inner)

    @pytest.mark.parametrize(
        "n,M,inner,trials,seed", [(8, 4, 8, 40, 7), (16, 2, 3, 30, 5), (5, 8, 1, 25, 9)]
    )
    def test_against_one_fft_per_row(self, n, M, inner, trials, seed):
        # the same draws, with every one of the inner * (M + 1) rows transformed
        rng = np.random.default_rng(seed)
        points = OfdmModel(n, M).constellation()
        incs, sec = [], []
        for _ in range(trials):
            prefix = points[rng.integers(0, M, size=n)]
            i = int(rng.integers(1, n + 1))
            suffix = points[rng.integers(0, M, size=(inner, n - i))]
            block = np.empty((inner, M + 1, n), dtype=complex)
            block[:, :, : i - 1] = prefix[: i - 1]
            block[:, 0, i - 1] = prefix[i - 1]
            block[:, 1:, i - 1] = points
            block[:, :, i:] = suffix[:, None, :]
            spectrum = np.fft.fft(block, n=_GRID_FACTOR * n, axis=-1)
            cf = np.abs(spectrum).max(axis=-1) / math.sqrt(n)
            y_prev = cf[:, 1:].mean()
            incs.append(abs(cf[:, 0].mean() - y_prev))
            sec.append(np.mean((cf[:, 1:].mean(axis=0) - y_prev) ** 2))
        rep = ofdm_martingale_check(OfdmModel(n, M), trials, seed, inner)
        bound = 2.0 / math.sqrt(n)
        assert rep.violations == sum(inc > bound * (1 + 1e-12) for inc in incs)
        assert rep.max_increment == pytest.approx(max(incs), rel=1e-13, abs=0)
        assert rep.second_moment_mean == pytest.approx(np.mean(sec), rel=1e-13, abs=0)
        assert rep.second_moment_se == pytest.approx(
            np.std(sec) / math.sqrt(trials), rel=1e-13, abs=0
        )

    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_report_does_not_depend_on_the_batch_size(self, monkeypatch, n, M):
        # batches hold whole trials and the draws run trial by trial, so the
        # batch size moves no draw; 37 trials leave a partial last batch
        got = []
        for cells in (2**10, codingapps._CHUNK_CELLS, 2**16):
            monkeypatch.setattr(codingapps, "_CHUNK_CELLS", cells)
            got.append(ofdm_martingale_check(OfdmModel(n, M), 37, 11))
        assert got[0] == got[1] == got[2]

    def test_oracle_certify_bits_are_pinned(self):
        rows, wrong = ORACLE_BITS["ofdm"], []
        for row in rows:
            rep = ofdm_martingale_check(OfdmModel(row["n"], row["M"]), row["trials"], row["seed"])
            out = {
                k: v.hex() if isinstance(v, float) else v if isinstance(v, int) else str(v)
                for k, v in dataclasses.asdict(rep).items()
            }
            if out != row["out"]:
                wrong.append((row["bench_seed"], row["n"], out))
        assert wrong == []
        # n = 16, 32 and 64 at each of 11 benchmark seeds
        assert sorted(row["n"] for row in rows) == [16] * 11 + [32] * 11 + [64] * 11

    def test_memory_is_per_block_not_per_trial(self):
        def peak(trials):
            tracemalloc.start()
            try:
                ofdm_martingale_check(OfdmModel(n=64, M=4), trials, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 2 * peak(100)

    def test_psk_constellation_unit_modulus(self):
        model = OfdmModel(n=4, M=8)
        pts = model.constellation()
        assert np.allclose(np.abs(pts), 1.0)
        assert len(set(np.round(pts, 12))) == 8


class TestCrestFactors:
    @pytest.mark.parametrize("inner", [1, 4, 8])
    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 8, 16, 64])
    def test_against_direct_fft_of_every_row(self, n, M, inner):
        rng = np.random.default_rng(100 * n + 10 * M + inner)
        points = OfdmModel(n, M).constellation()
        grid = _GRID_FACTOR * n
        for c in sorted({0, n // 2, n - 1}):  # no prefix, both, no suffix
            prefix = points[rng.integers(0, M, size=c)]
            suffix = points[rng.integers(0, M, size=(inner, n - c - 1))]
            base = np.zeros((inner, grid), dtype=complex)
            base[:, 1 : n - c] = suffix
            base[:, grid - c :] = prefix
            got = _crest_factors(base, points)
            rows = np.empty((inner, M, n), dtype=complex)
            rows[:, :, :c] = prefix
            rows[:, :, c] = points
            rows[:, :, c + 1 :] = suffix[:, None, :]
            direct = np.abs(np.fft.fft(rows, n=grid, axis=-1)).max(axis=-1)
            np.testing.assert_allclose(got, direct / math.sqrt(n), rtol=1e-13, atol=0)
            # the bin pruning drops no maximum: every bin gives the same floats
            spectrum = np.fft.fft(base, axis=-1)
            unpruned = np.abs(spectrum[:, :, None] + points).max(axis=1)
            assert np.array_equal(got, unpruned / math.sqrt(n))
