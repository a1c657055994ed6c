"""Scalar special functions against independent oracles.

Oracles here never reuse the implementation path: power series partial
sums for f(delta), and brute-force bisection and scipy for the Lambert
branches. ``newton_min`` is checked against a verbatim copy of its earlier
loop on the functions its callers pass it.
"""

import contextlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

from tailforge import bounds, hyptest
from tailforge.bounds import MomentProfile, thm4_exponent
from tailforge.hyptest import LlrMartingale
from tailforge.pmf import FinitePmf
from tailforge import specfun
from tailforge.specfun import (
    big_b,
    binary_divergence,
    f_delta,
    lambert_w0,
    lambert_w0_exparg,
    lambert_wm1,
)


def f_delta_series(delta, terms=200):
    """Independent oracle: sum_{p>=1} delta^(2p) / (2p (2p-1))."""
    return math.fsum(
        delta ** (2 * p) / (2 * p * (2 * p - 1)) for p in range(1, terms + 1)
    )


def h2(x):
    """Binary entropy in bits, endpoints mapping to 0."""
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


class TestBinaryDivergence:
    def test_identity_is_zero(self):
        assert binary_divergence(0.5, 0.5) == 0.0

    def test_bsc_bhattacharyya_match(self):
        # D(1/2 || p) = -ln sqrt(4 p (1-p))
        p = 0.04
        assert binary_divergence(0.5, p) == pytest.approx(
            -math.log(math.sqrt(4 * p * (1 - p))), abs=1e-12
        )

    def test_point_mass(self):
        assert binary_divergence(1.0, 0.25) == pytest.approx(math.log(4), abs=1e-12)

    def test_degenerate_q_rejected_unless_equal(self):
        assert binary_divergence(0.0, 0.0) == 0.0
        assert binary_divergence(1.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            binary_divergence(0.5, 0.0)
        with pytest.raises(ValueError):
            binary_divergence(0.5, 1.0)

    def test_boundary_clamp(self):
        assert binary_divergence(1.0 + 5e-13, 0.5) == pytest.approx(
            math.log(2), abs=1e-12
        )
        with pytest.raises(ValueError):
            binary_divergence(1.1, 0.5)

    def test_pinsker(self):
        for p in np.linspace(0.01, 0.99, 41):
            for q in np.linspace(0.01, 0.99, 41):
                assert binary_divergence(p, q) >= 2 * (p - q) ** 2 - 1e-15

    def test_matches_binary_entropy_identity(self):
        # D(p || 1/2) = ln2 (1 - h2(p))
        for p in np.linspace(0.0, 1.0, 101):
            lhs = binary_divergence(p, 0.5)
            rhs = math.log(2) * (1 - h2(p))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestKlDivergence:
    """D(P||Q) of two pmfs, formed by hyptest.LlrMartingale."""

    def test_uniform_identity(self):
        u = FinitePmf(("a", "b", "c"), (1.0 / 3.0,) * 3)
        assert LlrMartingale.of(u, u).D == 0.0

    def test_two_point(self):
        p = FinitePmf((0, 1), (0.4, 0.6))
        q = FinitePmf((0, 1), (0.6, 0.4))
        # frozen via 50-digit mpmath: 0.4 ln(2/3) + 0.6 ln(3/2)
        assert LlrMartingale.of(p, q).D == pytest.approx(
            0.08109302162163288, abs=1e-14
        )


class TestFDelta:
    def test_endpoints(self):
        assert f_delta(0.0) == 0.0
        assert f_delta(1.0) == pytest.approx(math.log(2), abs=1e-15)
        assert f_delta(1.5) == math.inf

    def test_entropy_identity(self):
        # f(delta) = ln2 (1 - h2((1-delta)/2)); h2(0.11) = 0.499916 bits
        assert h2(0.11) == pytest.approx(0.499916, abs=5e-7)
        for delta in np.linspace(0.0, 1.0, 101):
            rhs = math.log(2) * (1 - h2((1 - delta) / 2))
            assert f_delta(delta) == pytest.approx(rhs, abs=1e-12)

    def test_series_oracle(self):
        # 40 terms reach 1e-10 only for delta away from 1 (the tail decays
        # like delta^(2N)/(4N)); near 1 the truncation bound is checked.
        for delta in np.linspace(0.0, 0.8, 41):
            assert f_delta(delta) == pytest.approx(
                f_delta_series(delta, terms=40), abs=1e-10
            )
        for delta in np.linspace(0.81, 0.999, 20):
            n_terms = 2000
            tail = delta ** (2 * n_terms) / (
                2 * n_terms * (2 * n_terms - 1) * (1 - delta**2)
            )
            assert f_delta(delta) == pytest.approx(
                f_delta_series(delta, terms=n_terms), abs=tail + 1e-12
            )
        # at delta = 1 the series sums exactly to ln 2
        assert f_delta(1.0) == pytest.approx(math.log(2), abs=1e-15)
        assert f_delta(0.5) == pytest.approx(f_delta_series(0.5), abs=1e-12)

    def test_beats_azuma_rate(self):
        for delta in np.linspace(0.01, 1.0, 100):
            assert f_delta(delta) > delta**2 / 2

    def test_is_the_divergence_exponent_at_gamma_one(self):
        # one code path: f(delta) is D((1+delta)/2 || 1/2) to the last bit
        grid = [i / 1000 for i in range(1001)] + [5e-324, 1e-300, 1e-8, 1.0 - 1e-16]
        for delta in grid:
            want = binary_divergence((1.0 + delta) / 2.0, 0.5)
            assert f_delta(delta).hex() == want.hex()
            assert specfun.divergence_exponent(1.0, delta).hex() == want.hex()


class TestDomainClamp:
    """One rule on [0, hi]: BOUNDARY_CLAMP of slack snaps, anything else raises."""

    @pytest.mark.parametrize(
        "call,name,hi",
        [
            (f_delta, "delta", "inf"),
            (big_b, "u", "inf"),
            (lambda x: binary_divergence(x, 0.5), "p", "1"),
            (lambda x: binary_divergence(0.5, x), "q", "1"),
        ],
        ids=["f_delta", "big_b", "divergence-p", "divergence-q"],
    )
    @pytest.mark.parametrize("x", [math.nan, -1e-11, -math.inf])
    def test_outside_raises_naming_the_argument(self, call, name, hi, x):
        message = re.escape(f"{name}={x!r} is outside [0, {hi}]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(x)

    def test_slack_snaps_onto_the_nearer_end(self):
        assert f_delta(-5e-13) == 0.0
        assert big_b(-5e-13) == 1.0
        assert binary_divergence(-5e-13, 0.5) == binary_divergence(0.0, 0.5)
        assert binary_divergence(1.0 + 5e-13, 0.5) == binary_divergence(1.0, 0.5)
        assert f_delta(1.0 + 5e-13) == math.inf  # f is +inf past 1, not clamped


class TestBigB:
    def test_known_values(self):
        assert big_b(1.0) == pytest.approx(4 * math.log(2) - 2, abs=1e-14)
        assert big_b(0.0) == 1.0
        assert big_b(0.5) == pytest.approx(
            8 * (1.5 * math.log(1.5) - 0.5), abs=1e-13
        )

    def test_monotone_decreasing(self):
        grid = np.logspace(-8, 3, 400)
        vals = [big_b(u) for u in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_series_closed_form_agree_at_switch(self):
        for u in (1e-4, 9.9e-4, 1.1e-3, 1e-2):
            closed = 2 * ((1 + u) * math.log1p(u) - u) / u**2
            assert big_b(u) == pytest.approx(closed, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            big_b(-0.5)

    @pytest.mark.parametrize("u", [2e154, 1e300])
    def test_past_u_squared_overflow_against_mpmath(self, u):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            m = mpmath.mpf(u)
            want = float(2 * ((1 + m) * mpmath.log1p(m) - m) / m**2)
        assert big_b(u) == pytest.approx(want, rel=1e-14, abs=0)

    def test_non_increasing_across_u_squared_overflow(self):
        edge = math.sqrt(sys.float_info.max)  # u*u overflows just above it
        grid = [edge]
        for _ in range(40):
            grid.insert(0, math.nextafter(grid[0], 0.0))
            grid.append(math.nextafter(grid[-1], math.inf))
        grid += [edge * 1.5, edge * 10.0, 1e300, sys.float_info.max, math.inf]
        vals = [big_b(u) for u in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-2] > 0.0 and vals[-1] == 0.0  # B(inf) is its limit 0


def bisect_wm1(w, lo=-750.0, hi=-1.0):
    """Independent oracle for the lower Lambert branch."""
    f = lambda x: x * math.exp(x) - w
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambert:
    def test_trivia(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-1 / math.e) == pytest.approx(-1.0, abs=1e-7)
        assert lambert_wm1(-1 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_wm1_against_bisection(self):
        for w in (-0.1, -0.2, -0.05, -0.3):
            assert lambert_wm1(w) == pytest.approx(bisect_wm1(w), abs=1e-10)
        assert lambert_wm1(-0.1) == pytest.approx(-3.577152063957297, abs=1e-9)
        assert lambert_wm1(-0.2) == pytest.approx(-2.542641357773526, abs=1e-9)

    def test_w0_against_scipy(self):
        for w in np.logspace(-8, 8, 50):
            assert lambert_w0(w) == pytest.approx(
                float(scipy_lambertw(w).real), rel=1e-12
            )

    def test_wm1_against_scipy(self):
        # stay away from the branch point, where scipy itself loses digits
        # (our residual there is 0.0 vs scipy's ~1e-9; see residual tests)
        for w in -np.logspace(-8, math.log10(0.25), 50):
            assert lambert_wm1(w) == pytest.approx(
                float(scipy_lambertw(w, -1).real), rel=1e-10
            )

    def test_residual_contract_w0(self):
        ws = np.concatenate(
            [
                np.logspace(-300, 280, 5000),
                -np.logspace(-300, math.log10(1 / math.e) - 1e-12, 4999),
                [-1 / math.e],
            ]
        )
        for w in ws:
            x = lambert_w0(w)
            assert abs(x * math.exp(x) - w) <= 1e-12 * max(1.0, abs(w))

    def test_residual_contract_wm1(self):
        ws = np.concatenate(
            [
                -np.logspace(-300, math.log10(1 / math.e) - 1e-12, 9999),
                [-1 / math.e],
            ]
        )
        for w in ws:
            x = lambert_wm1(w)
            assert abs(x * math.exp(x) - w) <= 1e-12 * max(1.0, abs(w))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)
        with pytest.raises(ValueError):
            lambert_wm1(0.1)
        with pytest.raises(ValueError):
            lambert_wm1(-1.0)

    def test_branch_point_clamp(self):
        assert lambert_w0(-1 / math.e - 5e-13) == -1.0
        assert lambert_wm1(-1 / math.e - 5e-13) == -1.0

    def test_exparg(self):
        for a in (-5.0, 0.0, 10.0, 600.0):
            assert lambert_w0_exparg(a) == pytest.approx(
                lambert_w0(math.exp(a)), rel=1e-12
            )
        for a in (800.0, 1e4, 1e8):
            x = lambert_w0_exparg(a)
            assert abs(x + math.log(x) - a) <= 1e-12 * max(1.0, a)


class TestConcurrencyPurity:
    def test_no_module_state(self):
        # pure functions: repeated calls give identical results
        a = [specfun.f_delta(0.3) for _ in range(3)]
        assert len(set(a)) == 1


def parent_newton_min(fn, lo=-math.inf, hi=math.inf, t=0.0):
    """``newton_min`` verbatim as it stood, with builtin min, max and abs calls."""
    while True:
        f, df, d2f = fn(t)
        lo, hi = (t, hi) if df < 0.0 else (lo, t)
        step = -df / d2f if d2f > 0.0 else math.nan
        if min(hi - lo, abs(step)) <= specfun._NEWTON_TOL * max(1.0, abs(t)):
            return t, f
        a = lo if lo > -math.inf else 2.0 * t - 1.0
        b = hi if hi < math.inf else 2.0 * t + 1.0
        t = t + step if a < t + step < b else 0.5 * (a + b)


@contextlib.contextmanager
def newton_against_parent(module):
    """Run each ``newton_min`` call ``module`` makes through the parent loop too.

    Yields a list that gets (function name, parent (t, f), new (t, f)) per
    call, both by ``float.hex``; the call goes on with the new result.
    """
    seen = []

    def both(fn, *args):
        want, got = parent_newton_min(fn, *args), specfun.newton_min(fn, *args)
        seen.append((fn.__name__, [v.hex() for v in want], [v.hex() for v in got]))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "newton_min", both)
        yield seen


def unequal(seen):
    return [(name, want, got) for name, want, got in seen if want != got]


class TestNewtonMin:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        m=st.sampled_from(range(2, 13, 2)),
        gammas=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 3.0)),
            min_size=11,
            max_size=11,
        ),
        delta=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_keeps_the_parent_iterates_on_thm4(self, m, gammas, delta):
        # thm4's f = ln S - delta*x, and the cascade's g_k where one runs
        with newton_against_parent(bounds) as seen:
            thm4_exponent(MomentProfile(tuple(gammas[: m - 1])), delta)
        assert unequal(seen) == []

    @pytest.mark.parametrize(
        "gammas,delta",
        [
            ((0.5027, 0.2657, 0.1438, 0.1091, 0.0547), 0.7384),
            ((0.9, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3), 0.5),
        ],
        ids=["m6", "m8"],
    )
    def test_keeps_the_parent_iterates_on_the_cascade(self, gammas, delta):
        with newton_against_parent(bounds) as seen:
            thm4_exponent(MomentProfile(gammas), delta)
        assert {name for name, _, _ in seen} == {"f", "rising"}
        assert unequal(seen) == []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        p1=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8),
        p2=st.lists(st.floats(1e-3, 1.0), min_size=8, max_size=8),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_keeps_the_parent_iterates_on_the_tilted_cumulants(self, p1, p2, frac):
        # r = frac of the way across the support of V = -llr: near its edges
        # the tilt t runs far out on either side
        p2 = p2[: len(p1)]
        pair = hyptest.HypothesisPair.from_probs(
            [v / math.fsum(p1) for v in p1], [v / math.fsum(p2) for v in p2]
        )
        v = [-u for u in pair.mart12.llr.tolist()]
        with newton_against_parent(hyptest) as seen:
            hyptest.chernoff_information(pair)
            hyptest.rate_function(pair, min(v) + frac * (max(v) - min(v)))
        assert unequal(seen) == []
