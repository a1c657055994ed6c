"""Martingale tail exponents: closed forms vs independent minimization oracles."""

import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailforge import bounds
from tailforge.bounds import (
    ExponentValue,
    MartingaleSpec,
    MomentProfile,
    azuma_exponent,
    chung_lu_exponent,
    cor3_exponent,
    cor4_exponent,
    cor4_optimal_x,
    cor6_suboptimal,
    mdp_exponent_check,
    pinsker_loosened_exponent,
    refined_pinsker_exponent,
    small_deviation_exponents,
    tail_bound,
    thm2_exponent,
    thm3_exponent,
    thm4_exponent,
)
from tailforge.specfun import big_b, binary_divergence, f_delta


def spec_of(gamma):
    return MartingaleSpec(d=1.0, sigma2=gamma)


def grid_min_base_m(gammas, delta, xs):
    """Dense-grid oracle for the higher-moment base (no Newton minimiser)."""
    m = len(gammas) + 1
    gm = gammas[-1]
    best = math.inf
    for x in xs:
        s = 1.0 + gm * (math.exp(x) - 1.0 - x)
        for l in range(2, m):
            s += (gammas[l - 2] - gm) * x**l / math.factorial(l)
        best = min(best, math.exp(-delta * x) * s)
    return best


def cascade_start(gammas, delta):
    """The last j in 2..m-1 with gamma_{j+1} - delta*gamma_j < 0 exactly, else 0.

    These are the Taylor coefficients of S^(k+1) - delta*S^(k) past its first
    (gamma_2), so thm4's Rolle cascade can cut only at levels k <= this j.
    """
    d = Fraction(delta)
    pairs = enumerate(zip(gammas, gammas[1:]), 2)
    return max((j for j, (u, v) in pairs if Fraction(v) < d * Fraction(u)), default=0)


THM4_BITS = json.loads((Path(__file__).parent / "data" / "thm4_bits.json").read_text())


def grid_min_parabola_base(gamma, delta, xs):
    """Dense-grid oracle for the parabola-route base."""
    best = math.inf
    for x in xs:
        u = (1.0 + gamma) / 4.0 * math.exp((1.0 - delta) * x)
        v = (0.5 + (1.0 + 2.0 * x) * (1.0 - gamma) / 4.0) * math.exp(
            -(1.0 + delta) * x
        )
        best = min(best, u + v)
    return best


class TestSpecTypes:
    def test_variance_cap_enforced(self):
        with pytest.raises(ValueError, match=re.escape("gamma must lie in (0, 1]")):
            MartingaleSpec(d=1.0, sigma2=1.5)
        with pytest.raises(ValueError):
            MartingaleSpec(d=0.0, sigma2=0.5)

    @pytest.mark.parametrize(
        "d,sigma2", [(math.inf, 1.0), (1.0, 0.0), (1.0, -0.5), (1e-200, 1e-320)]
    )
    def test_gamma_outside_the_unit_interval_rejected(self, d, sigma2):
        # an infinite d once gave gamma = 0.0, and cor3 a ZeroDivisionError;
        # below d = 1.5e-162, d^2 underflows to 0 and any sigma2 > 0 exceeds it
        with pytest.raises(ValueError, match=re.escape("gamma must lie in (0, 1]")):
            MartingaleSpec(d=d, sigma2=sigma2)

    @pytest.mark.parametrize(
        "route",
        [
            cor4_exponent,
            chung_lu_exponent,
            lambda g, d: thm3_exponent(spec_of(g), d),
        ],
        ids=["cor4", "chung_lu", "spec"],
    )
    def test_gamma_snaps_onto_one_only_within_the_clamp(self, route):
        for excess in (1e-13, 1e-12):
            for delta in (0.25, 0.5, 1.0, 2.0):
                got, want = route(1.0 + excess, delta), route(1.0, delta)
                assert got.exponent.hex() == want.exponent.hex()
        with pytest.raises(ValueError, match=re.escape("gamma must lie in (0, 1]")):
            route(1.0 + 2e-12, 0.5)

    def test_delta(self):
        spec = MartingaleSpec(d=2.0, sigma2=1.0)
        assert spec.gamma == 0.25
        assert spec.delta(1.0) == 0.5
        with pytest.raises(ValueError):
            spec.delta(-0.1)
        with pytest.raises(ValueError, match="^alpha must be non-negative, got nan$"):
            spec.delta(math.nan)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MomentProfile((0.5, 0.4))  # m = 3 odd
        with pytest.raises(ValueError):
            MomentProfile((-0.1,))
        p = MomentProfile((0.5, 0.4, 0.3))
        assert p.m == 4
        assert p.gamma(2) == 0.5 and p.gamma_m == 0.3

    def test_stored_values_are_invisible_from_outside(self):
        # gamma and the S kernel are derived at construction: equality, hash
        # and repr see only the input fields
        spec = MartingaleSpec(d=2.0, sigma2=1.0)
        assert spec == MartingaleSpec(d=2.0, sigma2=1.0) != MartingaleSpec(d=2.0, sigma2=0.5)
        assert hash(spec) == hash((2.0, 1.0))
        assert repr(spec) == "MartingaleSpec(d=2.0, sigma2=1.0)"
        profile = MomentProfile((0.5, 0.4, 0.3))
        assert profile == MomentProfile([0.5, 0.4, 0.3]) != MomentProfile((0.5, 0.4, 0.2))
        assert hash(profile) == hash(((0.5, 0.4, 0.3),))
        assert repr(profile) == "MomentProfile(gammas=(0.5, 0.4, 0.3))"

    def test_replace_recomputes_the_stored_values(self):
        spec = dataclasses.replace(MartingaleSpec(d=2.0, sigma2=1.0), sigma2=2.0)
        assert spec.gamma == 0.5
        with pytest.raises(ValueError, match=re.escape("gamma must lie in (0, 1]")):
            dataclasses.replace(spec, d=1.0)
        for gammas in [(0.25,), (0.5, 0.4, 0.3), (0.9, 0.3, 0.3, 0.3, 0.3)]:
            got = dataclasses.replace(MomentProfile((0.6, 0.1, 0.05)), gammas=gammas)
            fresh = MomentProfile(gammas)
            assert (got._diffs, got._plan) == (fresh._diffs, fresh._plan)
            assert thm4_exponent(got, 0.3) == thm4_exponent(fresh, 0.3)

    def test_a_reused_profile_keeps_every_bit(self):
        # one profile across all the pinned deltas reads what a fresh profile
        # per call reads
        def hexed(x, ev):
            params = {k: v if isinstance(v, bool) else v.hex() for k, v in ev.params.items()}
            return x.hex(), ev.exponent.hex(), params

        rows = THM4_BITS["rows"]
        deltas = sorted({float.fromhex(r["delta"]) for r in rows})
        for gammas in {tuple(float.fromhex(v) for v in r["gammas"]) for r in rows}:
            profile = MomentProfile(gammas)
            routes = [lambda p, d: (0.0, thm4_exponent(p, d))]
            if gammas[0] > 0.0:
                routes.append(cor6_suboptimal)
            for delta in deltas:
                for route in routes:
                    got = hexed(*route(profile, delta))
                    assert got == hexed(*route(MomentProfile(gammas), delta))

    @pytest.mark.parametrize(
        "gammas",
        [
            (math.nan, 0.3, 0.2),
            (0.5, math.nan, 0.2),
            (0.5, 0.3, -0.2),
            (math.inf,),
            (0.5, math.inf, 0.3),
        ],
    )
    def test_profile_rejects_nan_and_negative_ratios(self, gammas):
        # a NaN ratio once gave thm4 0.0 flagged at_ceiling, and cor6 0.0; an
        # infinite one gave 0.0 flagged at_ceiling, or a math domain error
        message = re.escape(
            f"moment ratios must be finite and non-negative, got {gammas!r}"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            MomentProfile(gammas)

    def test_exponent_value_range(self):
        with pytest.raises(ValueError):
            ExponentValue(-0.5)
        with pytest.raises(ValueError):
            ExponentValue(math.nan)
        assert ExponentValue(-1e-13).exponent == 0.0
        assert ExponentValue(math.inf).exponent == math.inf

    @pytest.mark.parametrize("delta", [math.nan, -0.5])
    @pytest.mark.parametrize(
        "route",
        [
            refined_pinsker_exponent,
            lambda d: thm4_exponent(MomentProfile((0.5, 0.4, 0.35)), d),
            lambda d: cor4_exponent(0.5, d),
            lambda d: chung_lu_exponent(0.5, d),
            lambda d: cor6_suboptimal(MomentProfile((0.5, 0.4, 0.35)), d),
        ],
        ids=["refined_pinsker", "thm4", "cor4", "chung_lu", "cor6"],
    )
    def test_gamma_delta_routes_reject_nan_and_negative_delta(self, route, delta):
        message = f"^delta must be non-negative, got {delta!r}$"
        with pytest.raises(ValueError, match=message):
            route(delta)


# every `exponents` column route, as (gamma, delta) -> exponent
EXPONENTS_ROUTES = {
    "azuma": lambda g, d: azuma_exponent(spec_of(g), d).exponent,
    "cor2_f": lambda g, d: f_delta(d),
    "thm2": lambda g, d: thm2_exponent(spec_of(g), d).exponent,
    "thm3": lambda g, d: thm3_exponent(spec_of(g), d).exponent,
    "cor4": lambda g, d: cor4_exponent(g, d).exponent,
    "pinsker": lambda g, d: pinsker_loosened_exponent(spec_of(g), d).exponent,
    "refined_pinsker": lambda g, d: refined_pinsker_exponent(d).exponent,
    "cor3": lambda g, d: cor3_exponent(spec_of(g), d).exponent,
    "chung_lu": lambda g, d: chung_lu_exponent(g, d).exponent,
}
UNBOUNDED_PAST_ONE = ("azuma", "cor3", "chung_lu")  # not bounded-jump routes

unit_gammas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
profiles = st.builds(
    lambda g2, rest: MomentProfile((g2, *rest)),
    unit_gammas,
    st.sampled_from([0, 2, 4]).flatmap(
        lambda k: st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)
    ),
)


class TestDomainEdges:
    """Every route agrees at the edges of delta's domain, for any gamma in (0, 1]."""

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=unit_gammas,
        profile=profiles,
        past=st.floats(min_value=1.0, max_value=1e300, exclude_min=True),
    )
    def test_zero_at_zero_and_inf_past_one(self, gamma, profile, past):
        routes = {
            **EXPONENTS_ROUTES,
            "thm4": lambda g, d: thm4_exponent(profile, d).exponent,
            "cor6": lambda g, d: cor6_suboptimal(profile, d)[1].exponent,
        }
        for name, route in routes.items():
            assert route(gamma, 0.0) == 0.0, name
            if name not in UNBOUNDED_PAST_ONE:
                assert route(gamma, past) == math.inf, name

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(min_value=1e-100, max_value=1.0),
        past=st.floats(min_value=1.0, max_value=1e100, exclude_min=True),
    )
    def test_unbounded_routes_stay_finite_past_one(self, gamma, past):
        for name in UNBOUNDED_PAST_ONE:
            assert 0.0 < EXPONENTS_ROUTES[name](gamma, past) < math.inf, name


class TestAzuma:
    def test_basic(self):
        assert azuma_exponent(spec_of(1.0), 0.0).exponent == 0.0
        assert azuma_exponent(spec_of(1.0), 1.0).exponent == 0.5
        assert azuma_exponent(MartingaleSpec(2.0, 4.0), 1.0).exponent == 0.125

    def test_nonuniform(self, rng):
        # per-step jump bounds d_k: 2 exp(-r^2 / (2 sum d_k^2)) is the uniform
        # route at the RMS bound d = sqrt(sum d_k^2 / n) and alpha = r/n
        def azuma_uniform(d_seq, r):
            n = len(d_seq)
            d = math.sqrt(math.fsum(x * x for x in d_seq) / n)
            return tail_bound(azuma_exponent(MartingaleSpec(d, d * d), r / n), n)

        assert azuma_uniform([1.0] * 100, 0.0) == 1.0
        assert azuma_uniform([1.0] * 100, 10.0) == 1.0  # capped
        assert azuma_uniform([1.0] * 100, 30.0) == pytest.approx(
            2 * math.exp(-4.5), abs=1e-12
        )
        for _ in range(50):
            d_seq = rng.uniform(0.1, 2.0, size=int(rng.integers(1, 200)))
            r = rng.uniform(0.0, 3.0) * math.sqrt(len(d_seq))
            want = min(1.0, 2 * math.exp(-r * r / (2 * math.fsum(d_seq**2))))
            assert azuma_uniform(d_seq, r) == pytest.approx(want, rel=1e-12)

    def test_tail_bound_direction_flag(self):
        ev = azuma_exponent(spec_of(1.0), 0.5)
        two = tail_bound(ev, 10, two_sided=True)
        one = tail_bound(ev, 10, two_sided=False)
        assert two == pytest.approx(2 * one, rel=1e-12)


class TestThm2:
    def test_zero_and_endpoint(self):
        assert thm2_exponent(spec_of(0.3), 0.0).exponent == 0.0
        assert thm2_exponent(spec_of(1.0), 1.0).exponent == pytest.approx(
            math.log(2), abs=1e-13
        )
        assert thm2_exponent(spec_of(0.5), 1.5).exponent == math.inf

    def test_delta1_is_log_ratio(self):
        # the delta = 1 tail base is gamma/(1+gamma)
        for gamma in (0.2, 0.5, 0.9):
            assert thm2_exponent(spec_of(gamma), 1.0).exponent == pytest.approx(
                math.log((1 + gamma) / gamma), abs=1e-12
            )

    def test_bernoulli_reduction(self):
        # gamma = p/(1-p), delta = alpha/(1-p) recovers D(alpha + p || p)
        for p in (0.1, 0.25, 0.5):
            spec = MartingaleSpec(d=1.0 - p, sigma2=p * (1.0 - p))
            for alpha in np.linspace(0.0, (1.0 - p) * 0.99, 23):
                lhs = thm2_exponent(spec, alpha).exponent
                assert lhs == pytest.approx(
                    binary_divergence(alpha + p, p), abs=1e-12
                )


class TestPinskerFamily:
    def test_loosened(self):
        assert pinsker_loosened_exponent(spec_of(1.0), 1.0).exponent == 0.5
        assert pinsker_loosened_exponent(spec_of(0.5), 0.5).exponent == pytest.approx(
            2.0 / 9.0, abs=1e-15
        )
        assert pinsker_loosened_exponent(spec_of(0.7), 0.0).exponent == 0.0

    def test_refined_rational_value(self):
        exact = Fraction(1, 2) + Fraction(1, 36) + Fraction(1, 270) + Fraction(
            221, 340220
        )
        assert refined_pinsker_exponent(1.0).exponent == pytest.approx(
            float(exact), abs=1e-15
        )
        ratio = refined_pinsker_exponent(1.0).exponent / 0.5
        assert 1.064 <= ratio <= 1.065
        assert refined_pinsker_exponent(0.0).exponent == 0.0
        assert refined_pinsker_exponent(1.2).exponent == math.inf


class TestCor3Freedman:
    def test_values(self):
        assert cor3_exponent(spec_of(0.4), 0.0).exponent == 0.0
        assert cor3_exponent(spec_of(0.5), 0.5).exponent == pytest.approx(
            0.5 * (2 * math.log(2) - 1), abs=1e-13
        )

    def test_bennett_kernel_identity(self, rng):
        # cor3 == (delta^2 / 2 gamma) * B(delta/gamma)
        for _ in range(300):
            gamma = rng.uniform(0.01, 1.0)
            delta = rng.uniform(0.0, 1.0)
            lhs = cor3_exponent(spec_of(gamma), delta).exponent
            rhs = delta**2 / (2 * gamma) * big_b(delta / gamma) if delta else 0.0
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_freedman_values(self):
        # Freedman's (z^2 / 2r) B(z/r) at z = r = 1 is cor3 at gamma = delta = 1
        assert cor3_exponent(spec_of(1.0), 1.0).exponent == pytest.approx(
            0.5 * (4 * math.log(2) - 2), abs=1e-13
        )
        assert cor3_exponent(spec_of(1.0), 1e-12).exponent == pytest.approx(
            0.0, abs=1e-11
        )

    def test_freedman_cor3_reduction(self, rng):
        # Freedman's exponent at z = delta n, r = gamma n is n * cor3
        for _ in range(200):
            gamma = rng.uniform(0.05, 1.0)
            delta = rng.uniform(0.01, 1.0)
            n = int(rng.integers(1, 1000))
            z, r = delta * n, gamma * n
            lhs = z * z / (2.0 * r) * big_b(z / r)
            rhs = n * cor3_exponent(spec_of(gamma), delta).exponent
            assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("delta", [1e308, 1.7e308, math.inf])
def test_cor3_and_chung_lu_overflow_to_inf(gamma, delta):
    # inf - inf (cor3) and inf/inf (chung_lu) read as +inf, as on other routes
    assert cor3_exponent(spec_of(gamma), delta).exponent == math.inf
    assert chung_lu_exponent(gamma, delta).exponent == math.inf


class TestThm3:
    def test_gamma_one_reduction(self):
        assert thm3_exponent(spec_of(1.0), 0.5).exponent == pytest.approx(
            f_delta(0.5), abs=1e-13
        )

    def test_delta_one(self):
        assert thm3_exponent(spec_of(0.25), 1.0).exponent == pytest.approx(
            math.log(3.2), abs=1e-13
        )
        assert thm3_exponent(spec_of(0.25), 1.5).exponent == math.inf

    def test_interior_against_grid_oracle(self):
        xs = np.linspace(0.0, 60.0, 600001)
        for gamma, delta in [(0.25, 0.5), (0.5, 0.3), (0.75, 0.8), (0.1, 0.9)]:
            oracle = -math.log(grid_min_parabola_base(gamma, delta, xs))
            got = thm3_exponent(spec_of(gamma), delta).exponent
            assert got == pytest.approx(oracle, abs=1e-8)
            assert got >= oracle - 1e-12  # closed form attains the infimum

    def test_frozen_interior_value(self):
        # grid-oracle value for (gamma, delta) = (0.25, 0.5)
        assert thm3_exponent(spec_of(0.25), 0.5).exponent == pytest.approx(
            0.2849519527318522, abs=1e-12
        )

    def test_delta_zero(self):
        for gamma in (0.1, 0.5, 0.9):
            assert thm3_exponent(spec_of(gamma), 0.0).exponent == pytest.approx(
                0.0, abs=1e-12
            )

    def test_continuity_at_gamma_switch(self):
        # the gamma -> 1 branch switch is continuous
        below = thm3_exponent(spec_of(1.0 - 2e-8), 0.5).exponent
        assert below == pytest.approx(f_delta(0.5), abs=1e-6)


class TestThm4Cor4:
    def test_m2_matches_closed_form(self, rng):
        for _ in range(300):
            gamma = rng.uniform(0.02, 1.0)
            delta = rng.uniform(0.001, 0.999)
            e4 = thm4_exponent(MomentProfile((gamma,)), delta).exponent
            e_closed = cor4_exponent(gamma, delta).exponent
            assert e4 == pytest.approx(e_closed, abs=1e-9)

    def test_delta_one_endpoint(self):
        # 2 - ln(0.5 (e^2 - 1)); the grid oracle agrees
        want = 2.0 - math.log(0.5 * (math.e**2 - 1.0))
        assert cor4_exponent(0.5, 1.0).exponent == pytest.approx(want, abs=1e-13)
        assert thm4_exponent(MomentProfile((0.5,)), 1.0).exponent == pytest.approx(
            want, abs=1e-13
        )
        xs = np.linspace(0.0, 40.0, 400001)
        oracle = -math.log(grid_min_base_m((0.5,), 1.0, xs))
        assert want == pytest.approx(oracle, abs=1e-8)

    def test_m2_delta_one_without_variance_takes_the_general_path(self):
        # the closed form would take ln(gamma_2) = ln 0; with every ratio 0,
        # S = 1 and ln S - x falls all the way to the ceiling at any m
        ev = thm4_exponent(MomentProfile((0.0,)), 1.0)
        assert ev == thm4_exponent(MomentProfile((0.0, 0.0, 0.0)), 1.0)
        assert (ev.exponent, ev.params["at_ceiling"]) == (50.0, True)

    def test_interior_against_grid_oracle(self):
        xs = np.linspace(0.0, 40.0, 400001)
        for gamma, delta in [(0.25, 0.5), (0.6, 0.8), (0.05, 0.3)]:
            oracle = -math.log(grid_min_base_m((gamma,), delta, xs))
            assert cor4_exponent(gamma, delta).exponent == pytest.approx(
                oracle, abs=1e-8
            )

    def test_degenerate_cases(self):
        assert cor4_exponent(0.3, 0.0).exponent == 0.0
        assert cor4_exponent(0.3, 1.2).exponent == math.inf
        assert thm4_exponent(MomentProfile((0.3,)), 1.2).exponent == math.inf
        with pytest.raises(ValueError):
            cor4_exponent(1.5, 0.5)

    def test_small_gamma_no_overflow(self):
        # 1/gamma + 1/delta - 1 far beyond exp overflow
        e = cor4_exponent(1e-4, 0.5).exponent
        assert math.isfinite(e) and e > 0
        e2 = thm4_exponent(MomentProfile((1e-4,)), 0.5).exponent
        assert e2 == pytest.approx(e, rel=1e-6)

    def test_higher_m_profile_against_oracle(self):
        gammas = (0.074074, 0.049383, 0.044810)  # an m = 4 profile
        xs = np.linspace(0.0, 40.0, 400001)
        oracle = -math.log(grid_min_base_m(gammas, 0.444444, xs))
        got = thm4_exponent(MomentProfile(gammas), 0.444444).exponent
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_delta_one_tail_infimum_for_higher_m(self):
        # for this profile the base decreases to gamma_m as x -> inf, so the
        # infimum value is ln(1/gamma_m); the minimizer reports it and
        # carries the bracket-ceiling flag in its params
        ev = thm4_exponent(MomentProfile((0.5, 0.2, 0.1)), 1.0)
        assert ev.exponent == pytest.approx(math.log(10.0), abs=1e-9)
        assert ev.params["at_ceiling"] is True

    def test_delta_one_tail_beats_a_nearer_local_minimum(self):
        # moments of a real zero-mean law: at delta = 1 the objective has a
        # local minimum near x = 1.6, but the tail falls lower, to ln(gamma_6)
        gammas = (0.72145985500124, 0.63723985474590, 0.57647850557348,
                  0.53264163140986, 0.50101508653207)
        ev = thm4_exponent(MomentProfile(gammas), 1.0)
        assert ev.exponent == pytest.approx(-math.log(gammas[-1]), abs=1e-12)
        assert ev.params["at_ceiling"] is True
        oracle = -math.log(grid_min_base_m(gammas, 1.0, np.linspace(0.0, 50.0, 50001)))
        assert ev.exponent >= oracle - 1e-12

    @pytest.mark.parametrize(
        "gammas,delta",
        [
            ((0.5027, 0.2657, 0.1438, 0.1091, 0.0547), 0.7384),
            ((0.7401, 0.2058, 0.0841), 0.7155),
        ],
        ids=["m6", "m4"],
    )
    def test_global_sup_when_the_nearer_minimum_is_not_it(self, gammas, delta):
        # no bounded law has these moments (gamma_5^2 > gamma_4 gamma_6, and
        # gamma_4 < gamma_2^2), and ln S - delta*x has two local minima
        ev = thm4_exponent(MomentProfile(gammas), delta)
        xs = np.linspace(0.0, 60.0, 60001)
        oracle = -math.log(grid_min_base_m(gammas, delta, xs))
        assert oracle - 1e-12 <= ev.exponent <= oracle + 1e-6

    @pytest.mark.parametrize("gammas", [(0.5,), (0.5, 5 / 12, 3 / 8)], ids=["m2", "m4"])
    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_small_delta_against_mpmath_sup(self, gammas, delta):
        # the sup sits at the root of S' - delta*S, here solved at 60 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            g = [mpmath.mpf(v) for v in gammas]
            gm, d = g[-1], mpmath.mpf(delta)
            poly = [(g[l - 2] - gm) / mpmath.factorial(l) for l in range(2, len(g) + 1)]

            def s(x):
                terms = sum(c * x ** (i + 2) for i, c in enumerate(poly))
                return 1 + terms + gm * (mpmath.expm1(x) - x)

            def ds(x):
                terms = sum((i + 2) * c * x ** (i + 1) for i, c in enumerate(poly))
                return terms + gm * mpmath.expm1(x)

            x = mpmath.findroot(lambda x: ds(x) - d * s(x), d / g[0])
            want = float(d * x - mpmath.log(s(x)))
        got = thm4_exponent(MomentProfile(gammas), delta).exponent
        assert abs(got - want) <= 1e-11 * want  # pytest.approx would add abs=1e-12

    def test_cor4_above_x_30_against_mpmath_sup(self):
        # cor4 evaluates x > 30 through _log_mgf_bound's factored form
        gamma, delta = 0.01, 1.0 - 1e-12
        ev = cor4_exponent(gamma, delta)
        assert ev.params["x"] > 30.0
        assert ev.exponent == thm4_exponent(MomentProfile((gamma,)), delta).exponent
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            g, d = mpmath.mpf(gamma), mpmath.mpf(delta)
            x = mpmath.findroot(
                lambda x: mpmath.expm1(x) * g - d * (1 + g * (mpmath.expm1(x) - x)),
                ev.params["x"],
            )
            want = float(d * x - mpmath.log(1 + g * (mpmath.expm1(x) - x)))
        assert abs(ev.exponent - want) <= 1e-14 * want

    @pytest.mark.parametrize("gammas", [(0.5,), (0.5, 5 / 12, 3 / 8)], ids=["m2", "m4"])
    @pytest.mark.parametrize("delta", [1e-6, 0.3])
    def test_continuity_at_series_switch(self, gammas, delta):
        # e^x - 1 - x is a series below x = 0.1 and expm1(x) - x from there
        profile = MomentProfile(gammas)
        below = bounds._log_mgf_bound(profile, math.nextafter(0.1, 0.0), delta)
        at = bounds._log_mgf_bound(profile, 0.1, delta)
        for lo, hi in zip(below, at):
            assert abs(lo - hi) <= 1e-15 * abs(hi)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        m=st.sampled_from(range(2, 13, 2)),
        gammas=st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 1e-310]),
                st.floats(0.0, 1.0),
                st.floats(1.0, 3.0),
            ),
            min_size=11,
            max_size=11,
        ),
        x=st.one_of(
            st.sampled_from([0.0, 0.1, 30.0, math.nextafter(30.0, math.inf), 700.0, 1e6]),
            st.floats(0.0, 0.1, exclude_max=True),
            st.floats(0.1, 30.0),
            st.floats(30.0, 700.0, exclude_min=True, exclude_max=True),
            st.floats(700.0, 1e6),
        ),
        j0=st.integers(0, 11),
    )
    def test_poly_derivs_equal_the_direct_sums_bit_for_bit(self, m, gammas, x, j0):
        # each derivative of the profile's P adds (gamma_l - gamma_m) x**(l-j)/(l-j)!
        # to int 0 over ascending l, left to right: from Python 3.12 the builtin
        # sum() of floats is compensated, so it is no reference
        gammas, j0 = tuple(gammas[: m - 1]), j0 % m
        gm = gammas[-1]
        want = []
        for j in range(j0, j0 + 3):
            total = 0
            for l, g in enumerate(gammas[:-1], 2):
                if l >= j:
                    total += (g - gm) * x ** (l - j) / math.factorial(l - j)
            want.append(total)
        got = MomentProfile(gammas)._derivs(x, j0)
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_poly_derivs_past_order_170_raise_the_int_overflow(self):
        # 171! passes the float range; the kernel keeps the direct sum's error
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            thm4_exponent(MomentProfile((0.5,) * 171), 0.5)

    def test_profile_past_order_170_raises_before_building_its_plan(self):
        # the plan of m = 900 held about 4e5 term tuples that no kernel call
        # could use; its k! now raises while the factorials are formed
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError, match="int too large to convert to float"):
                MomentProfile((0.5,) * 899)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_unrolled_series_equals_its_loop_bit_for_bit(self, rng):
        # about 1 x in 200 tells t2 * (x / 3) from t2 * x / 3, so sweep densely
        edge = math.nextafter(0.1, 0.0)
        for x in [0.0, edge, -edge, *rng.uniform(-0.1, 0.1, 20000).tolist()]:
            term = total = 0.5 * x * x
            for k in range(3, 13):
                term *= x / k
                total += term
            assert bounds._expm1_minus_x(x).hex() == total.hex()

    def test_nondecreasing_in_m_for_absolute_profiles(self):
        # absolute-moment profiles are nonincreasing in l, and the exponent
        # improves (weakly) with every extra even order
        from tailforge import codingapps, validate

        laws = [
            validate.two_point_increment(1.0, 0.1),
            validate.bernoulli_centered_increment(0.3),
        ]
        profiles_deltas = []
        for law in laws:
            gam = tuple(law.abs_moment(l) / law.d**l for l in range(2, 11))
            profiles_deltas.append((gam, 0.4))
        for q in (3, 5, 10):
            ch = codingapps.q_ary_channel(q, 0.04)
            p0 = ch.p0.as_array()
            llr0 = np.log(p0 / ch.p1.as_array())
            div = float(np.dot(p0, llr0))
            d = float(np.max(np.abs(llr0))) + div
            gam = tuple(
                float(np.dot(p0, np.abs(llr0 - div) ** l)) / d**l
                for l in range(2, 11)
            )
            profiles_deltas.append((gam, div / d))
        for gam, delta in profiles_deltas:
            assert all(b <= a + 1e-15 for a, b in zip(gam, gam[1:]))
            es = [
                thm4_exponent(MomentProfile(gam[: m - 1]), delta).exponent
                for m in (2, 4, 6, 8, 10)
            ]
            assert all(b >= a - 1e-10 for a, b in zip(es, es[1:]))

    @pytest.mark.parametrize(
        "gammas,delta,levels",
        [
            ((0.5, 5 / 12, 3 / 8), 0.3, []),
            ((0.5,), 1e-12, []),
            ((0.5,), 0.3, []),
            ((0.5,), 1.0 - 1e-9, []),
            ((0.5027, 0.2657, 0.1438, 0.1091, 0.0547), 0.7384, [5, 4, 3, 2, 1]),
            ((0.9, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3), 0.5, [2, 1]),
        ],
        ids=["m4-none", "m2-tiny", "m2-mid", "m2-near1", "m6-from5", "m8-from2"],
    )
    def test_cascade_starts_at_the_last_negative_coefficient(
        self, monkeypatch, gammas, delta, levels
    ):
        # the cascade evaluates g_k through the profile's _derivs(x, k >= 1);
        # levels whose coefficients are all >= 0 have no cut and are not run
        seen, derivs = [], MomentProfile._derivs

        def counted(profile, x, j0):
            if j0 >= 1:
                seen.append(j0)
            return derivs(profile, x, j0)

        monkeypatch.setattr(MomentProfile, "_derivs", counted)
        thm4_exponent(MomentProfile(gammas), delta)
        assert list(dict.fromkeys(seen)) == levels
        assert cascade_start(gammas, delta) == max(levels, default=0)

    def test_pinned_bits(self):
        # bits recorded before the cascade skipped its cut-free levels; the
        # table spans m = 2..12 with no, partial and full cascades
        def hexed(ev):
            params = {k: v if isinstance(v, bool) else v.hex() for k, v in ev.params.items()}
            return {"exponent": ev.exponent.hex(), "params": params}

        kinds, wrong = set(), []
        for row in THM4_BITS["rows"]:
            gammas = tuple(float.fromhex(v) for v in row["gammas"])
            delta, profile = float.fromhex(row["delta"]), MomentProfile(gammas)
            start = cascade_start(gammas, delta)
            kinds.add("none" if start == 0 else "full" if start == len(gammas) else "partial")
            got = {"thm4": hexed(thm4_exponent(profile, delta))}
            if gammas[0] > 0.0:
                x, ev = cor6_suboptimal(profile, delta)
                got["cor6"] = {**hexed(ev), "x": x.hex()}
            if got != {k: row[k] for k in ("thm4", "cor6") if k in row}:
                wrong.append((row["gammas"], row["delta"], got))
        assert wrong == []
        assert kinds == {"none", "partial", "full"}
        assert {len(r["gammas"]) + 1 for r in THM4_BITS["rows"]} == set(range(2, 13, 2))

    @pytest.mark.parametrize("cascade", [False, True], ids=["skipped", "runs"])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        m=st.sampled_from(range(2, 13, 2)),
        gammas=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 3.0)),
            min_size=11,
            max_size=11,
        ),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_never_below_the_grid_oracle(self, cascade, m, gammas, delta):
        # skipping the cut-free levels never loses the global sup
        gammas = tuple(gammas[: m - 1])
        assume((cascade_start(gammas, delta) > 0) == cascade)
        xs = [*np.geomspace(1e-9, 1.0, 200), *np.linspace(0.0, 30.0, 1201)]
        oracle = -math.log(grid_min_base_m(gammas, delta, xs))
        assert thm4_exponent(MomentProfile(gammas), delta).exponent >= oracle - 1e-12

    def test_subnormal_gamma_m_keeps_the_sup(self):
        # past x = 30, gamma_m e^x is factored out of S; for a subnormal gamma_m
        # log1p(r e^-x / gamma_m) overflowed and r e^-x was dropped from x = 700
        # on, so thm4 reported 0 at x = 5e5 here
        gammas = (0.0,) * 7 + (1.0, 5e-324)
        xs = np.linspace(0.0, 30.0, 301)
        oracle = -math.log(grid_min_base_m(gammas, 0.5, xs))
        assert thm4_exponent(MomentProfile(gammas), 0.5).exponent >= oracle - 1e-12

    @pytest.mark.parametrize(
        "gammas,delta,sup",
        [  # 50-digit mpmath sups, at x = 737.4, 791.7, 729.7 and 763.6
            ((0.0,) * 7 + (1.0, 1e-300), 0.5, 321.38150807785185649),
            ((0.0,) * 7 + (1.0, 5e-324), 0.5, 347.89401338986260417),
            ((0.5, 0.3, 1e-310), 0.3, 201.77714706659748679),
            ((0.5, 0.3, 5e-324), 0.9, 667.97850482026700415),
        ],
    )
    def test_tiny_gamma_m_sup_past_x_700(self, gammas, delta, sup):
        # each sup lies past x = 700, where r e^-x is not negligible beside gamma_m
        got = thm4_exponent(MomentProfile(gammas), delta).exponent
        assert got == pytest.approx(sup, rel=1e-13, abs=0)

    @pytest.mark.parametrize("gamma", [1e-200, 1e-30, 5e-324])
    def test_tiny_gamma_m_at_small_delta_against_mpmath_sup(self, gamma):
        # the sup lies past x = 30 where gamma e^x ~ delta < 1: there ln S was
        # (x + ln gamma) + log1p(.), two terms near -+27 that cancel to ~1e-12
        delta = 1e-12
        mpmath = pytest.importorskip("mpmath")
        ev = thm4_exponent(MomentProfile((gamma,)), delta)
        assert ev.params["x"] > 30.0
        with mpmath.workdps(50):
            g, d = mpmath.mpf(gamma), mpmath.mpf(delta)

            def s(x):
                return 1 + g * (mpmath.expm1(x) - x)

            x = mpmath.findroot(lambda x: g * mpmath.expm1(x) - d * s(x), mpmath.log(d / g))
            want = float(d * x - mpmath.log(s(x)))
        assert abs(ev.exponent - want) <= 1e-12 * want

    def test_never_evaluates_f_at_zero(self, monkeypatch, rng):
        # f'(0) = -delta exactly (S(0) = 1, S'(0) = 0): thm4 reads no f(0)
        seen, log_mgf_bound = [], bounds._log_mgf_bound

        def recorded(profile, x, delta):
            seen.append(x)
            return log_mgf_bound(profile, x, delta)

        monkeypatch.setattr(bounds, "_log_mgf_bound", recorded)
        cases = [
            (tuple(float.fromhex(v) for v in row["gammas"]), float.fromhex(row["delta"]))
            for row in THM4_BITS["rows"]
        ]
        for m in range(2, 13, 2):
            for kind in range(3):
                gammas = rng.uniform(0.0, 1.0 + 2.0 * (kind == 1), m - 1)
                if kind == 2:  # gamma_2 = 0 and other zero ratios
                    gammas[rng.uniform(size=m - 1) < 0.4] = 0.0
                    gammas[0] = 0.0
                for delta in (1e-12, 0.01, 0.5, float(rng.uniform()), 1.0 - 1e-9, 1.0):
                    cases.append((tuple(gammas.tolist()), delta))
        for gammas, delta in cases:
            thm4_exponent(MomentProfile(gammas), delta)
        assert len(seen) > len(cases)
        assert 0.0 not in seen


class TestCor6:
    def test_m2_x_matches_cor4(self, rng):
        for _ in range(300):
            gamma = rng.uniform(0.02, 1.0)
            delta = rng.uniform(0.001, 0.999)
            x, ev = cor6_suboptimal(MomentProfile((gamma,)), delta)
            assert x == pytest.approx(cor4_optimal_x(gamma, delta), abs=1e-10)
            assert ev.exponent == pytest.approx(
                cor4_exponent(gamma, delta).exponent, abs=1e-10
            )

    def test_delta_one_limit(self):
        profile = MomentProfile((0.4, 0.3, 0.2))
        x, _ = cor6_suboptimal(profile, 1.0)
        assert x == pytest.approx(1.0 / 0.4, abs=1e-12)

    def test_exponent_never_exceeds_thm4(self, rng):
        for _ in range(100):
            g2 = rng.uniform(0.1, 1.0)
            g3 = rng.uniform(0.0, g2)
            g4 = rng.uniform(0.0, g3)
            delta = rng.uniform(0.05, 1.0)
            profile = MomentProfile((g2, g3, g4))
            _, tilde = cor6_suboptimal(profile, delta)
            full = thm4_exponent(profile, delta).exponent
            assert tilde.exponent <= full + 1e-9

    def test_degenerate_c_falls_back(self):
        # gamma_m >> gamma_2 makes c <= 0 (possible under one-sided moments)
        profile = MomentProfile((0.1, 0.5, 0.9))
        x, ev = cor6_suboptimal(profile, 0.2)
        assert ev.params.get("fallback") is True
        assert ev.exponent == pytest.approx(
            thm4_exponent(profile, 0.2).exponent, abs=1e-12
        )


class TestCompare:
    """E4 (higher-moment route) against E2 (divergence route) at one gamma_2."""

    def test_m2_never_beats_divergence_route(self, rng):
        for _ in range(200):
            gamma = rng.uniform(0.02, 1.0)
            delta = rng.uniform(0.0, 1.0)
            e4 = thm4_exponent(MomentProfile((gamma,)), delta).exponent
            assert e4 <= bounds.divergence_exponent(gamma, delta) + 1e-10

    def test_zero_delta(self):
        assert thm4_exponent(MomentProfile((0.5,)), 0.0).exponent == 0.0
        assert bounds.divergence_exponent(0.5, 0.0) == 0.0


class TestChungLu:
    def test_limit_three_halves(self):
        assert chung_lu_exponent(1e-12, 1.0).exponent == pytest.approx(1.5, rel=1e-9)

    def test_values(self):
        assert chung_lu_exponent(0.3, 0.0).exponent == 0.0
        assert chung_lu_exponent(0.01, 0.5).exponent == pytest.approx(
            0.25 / (0.02 + 1.0 / 3.0), abs=1e-12
        )


class TestSmallDeviation:
    # 2e^-E exceeds 1 at these points, so E is checked, not tail_bound's 1
    def test_limit(self):
        spec = MartingaleSpec(2.0, 2.0)  # gamma = 1/2
        finite, limit = small_deviation_exponents(spec, 1.0, 10**12)
        assert math.exp(-finite.exponent) == pytest.approx(
            math.exp(-limit.exponent), rel=1e-5
        )
        assert limit.exponent == 0.25

    def test_gamma_one_matches_azuma_rate(self):
        spec = MartingaleSpec(1.0, 1.0)
        finite, _ = small_deviation_exponents(spec, 0.5, 10**10)
        assert math.exp(-finite.exponent) == pytest.approx(math.exp(-0.125), rel=1e-4)

    def test_finite_n_is_weaker(self):
        spec = MartingaleSpec(1.0, 0.25)
        finite, limit = small_deviation_exponents(spec, 0.4, 25)
        assert finite.exponent < limit.exponent  # B < 1 at positive argument


class TestMdp:
    def test_divergence_route_hits_variance_limit(self):
        rows = mdp_exponent_check(2.0, 1.0, 1.0, 0.75, [10**6])
        assert rows[0].scaled_log_divergence == pytest.approx(-0.5, rel=0.02)

    def test_azuma_route_constant_wrong_limit(self):
        rows = mdp_exponent_check(2.0, 1.0, 1.0, 0.75, [10**3, 10**5, 10**7])
        for row in rows:
            assert row.scaled_log_azuma == pytest.approx(-1.0 / 8.0, abs=1e-12)

    def test_monotone_approach(self):
        ns = [10**k for k in range(3, 8)]
        rows = mdp_exponent_check(2.0, 1.0, 1.0, 0.6, ns)
        vals = [r.scaled_log_divergence for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing to -1/2
        assert all(v > -0.5 for v in vals)  # from above

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            mdp_exponent_check(2.0, 1.0, 1.0, 0.5, [10])


class TestMcDiarmid:
    """The m = 2 cap S(x) = 1 + gamma(e^x - 1 - x) against McDiarmid's exp of it.

    Optimising delta*x - ln S(x) gives cor4; optimising delta*x minus the
    exponent of McDiarmid's looser cap exp(gamma(e^x - 1 - x)) gives cor3.
    """

    def test_at_zero(self):
        assert cor4_exponent(0.7, 0.0).exponent == 0.0
        assert cor3_exponent(spec_of(0.7), 0.0).exponent == 0.0

    def test_value(self):
        # gamma = delta = 1: cor4 optimises at x = 1, where S(1) = e - 1;
        # cor3 optimises at x = ln 2
        tight = cor4_exponent(1.0, 1.0).exponent
        loose = cor3_exponent(spec_of(1.0), 1.0).exponent
        assert tight == pytest.approx(1.0 - math.log(math.e - 1.0), abs=1e-13)
        assert loose == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-13)
        assert tight > loose

    def test_ordering(self, rng):
        for _ in range(1000):
            gamma = rng.uniform(0.01, 1.0)
            delta = rng.uniform(0.0, 1.0)
            tight = cor4_exponent(gamma, delta).exponent
            loose = cor3_exponent(spec_of(gamma), delta).exponent
            assert tight >= loose - 1e-12
            if delta > 1e-3:
                assert tight > loose


class TestOrderingChains:
    """The loosening chains on a coarse grid (the acceptance suite runs 100x100).

    cor3 and pinsker are incomparable loosenings of the same divergence
    (cor3 wins as delta -> 0 or gamma -> 0, pinsker wins near delta = 1,
    e.g. cor3(0.5, 0.5) = 0.1931 < 0.2222 = pinsker(0.5, 0.5)); only the
    dominations by the divergence exponent itself hold pointwise.
    """

    def test_chains(self):
        for gamma in np.linspace(0.05, 1.0, 20):
            spec = spec_of(gamma)
            for delta in np.linspace(0.0, 1.0, 21):
                e2 = thm2_exponent(spec, delta).exponent
                e3 = thm3_exponent(spec, delta).exponent
                f = f_delta(delta)
                az = azuma_exponent(spec, delta).exponent
                c3 = cor3_exponent(spec, delta).exponent
                pk = pinsker_loosened_exponent(spec, delta).exponent
                c4 = cor4_exponent(gamma, delta).exponent
                tol = 1e-11
                assert e2 >= e3 - tol >= f - 2 * tol >= az - 3 * tol
                assert e2 >= c3 - tol
                assert e2 >= pk - tol
                assert e2 >= c4 - tol
                if gamma < 0.5 and delta > 0:
                    assert c4 > f

    def test_cor3_pinsker_incomparable(self):
        c3 = cor3_exponent(spec_of(0.5), 0.5).exponent
        pk = pinsker_loosened_exponent(spec_of(0.5), 0.5).exponent
        assert c3 < pk  # pinsker wins here ...
        c3 = cor3_exponent(spec_of(0.02), 0.5).exponent
        pk = pinsker_loosened_exponent(spec_of(0.02), 0.5).exponent
        assert c3 > pk  # ... and loses here


class TestCramerOracle:
    """Every route against the Cramer rate I(delta) of an i.i.d. law, d = 1.

    A sum of n i.i.d. zero-mean increments is a martingale whose tail is
    e^(-n I(delta) + o(n)), so no valid exponent exceeds I(delta): this is
    the n -> inf counterpart of acceptance criterion 7. The absolute term
    covers float probabilities that sum to 1 only within an ulp.
    """

    @pytest.mark.parametrize("gamma", [0.05, 0.25, 0.5, 0.9, 1.0])
    def test_thm2_is_the_rate_of_the_extremal_law(self, gamma, mp_cramer_rate):
        # Hoeffding (1963), Thm 3: +1 w.p. gamma/(1+gamma), -gamma w.p.
        # 1/(1+gamma) attains the divergence exponent
        mpmath = pytest.importorskip("mpmath")
        for delta in (1e-2, 0.03, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            with mpmath.workdps(40):
                g = mpmath.mpf(gamma)
                want = mp_cramer_rate((1, -g), (g / (1 + g), 1 / (1 + g)), delta)
            got = thm2_exponent(spec_of(gamma), delta).exponent
            assert abs(got - want) <= 1e-11 * want, (gamma, delta, got, want)

    def test_routes_below_rate_of_random_laws(self, rng, mp_cramer_rate):
        from tailforge.validate import IncrementLaw

        cells = 0
        for _ in range(200):
            k = int(rng.integers(2, 7))
            probs = rng.uniform(0.05, 1.0, k)
            probs /= probs.sum()
            values = rng.uniform(-1.0, 1.0, k)
            values -= np.dot(probs, values)
            law = IncrementLaw(tuple(values / np.max(np.abs(values))), tuple(probs))
            assert law.d == 1.0
            spec, gamma = spec_of(law.variance), law.variance
            profiles = [
                MomentProfile(tuple(law.abs_moment(l) for l in range(2, m + 1)))
                for m in (4, 6)
            ]
            for delta in (10 ** rng.uniform(-3.0, 0.0), rng.uniform(1e-3, 1.0)):
                if delta >= max(law.values):
                    continue
                cells += 1
                rate = float(mp_cramer_rate(law.values, law.probs, delta))
                routes = {
                    "azuma": azuma_exponent(spec, delta).exponent,
                    "thm2": thm2_exponent(spec, delta).exponent,
                    "thm3": thm3_exponent(spec, delta).exponent,
                    "cor3": cor3_exponent(spec, delta).exponent,
                    "cor4": cor4_exponent(gamma, delta).exponent,
                }
                for prof in profiles:
                    routes[f"thm4(m={prof.m})"] = thm4_exponent(prof, delta).exponent
                    _, cor6 = cor6_suboptimal(prof, delta)
                    routes[f"cor6(m={prof.m})"] = cor6.exponent
                for name, e in routes.items():
                    assert e <= rate * (1 + 1e-10) + 1e-15, (name, law, delta, e, rate)
        assert cells >= 250
