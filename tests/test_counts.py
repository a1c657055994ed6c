"""Every length, count and order argument follows one rule, ``bounds.as_count``:
an int (Python or numpy) in [least, largest double], else ValueError naming it.
Every probability, coefficient and threshold a record takes from its caller
follows its twin, ``bounds.as_real``: a Python or numpy int or float, else
ValueError naming it."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from tailforge import bounds, codingapps, hyptest, validate
from tailforge.bounds import ExponentValue, MartingaleSpec, as_count, as_real
from tailforge.pmf import FinitePmf

LAW = validate.two_point_increment(1.0, 0.3)
LAMBDA, RHO = (0.0, 0.0, 1.0), (0.0,) * 5 + (1.0,)
PAIR = hyptest.HypothesisPair.from_probs((0.4, 0.6), (0.6, 0.4))
OFDM = codingapps.OfdmModel(n=4, M=4)
BSC = codingapps.bsc(0.1)

# (argument name as the message gives it, least, a valid value, call)
ENTRY_POINTS = {
    "tail_bound": ("n", 1, 10, lambda v: bounds.tail_bound(ExponentValue(0.1), v)),
    "small_deviation_exponents": (
        "n", 1, 10,
        lambda v: bounds.small_deviation_exponents(MartingaleSpec(1, 0.5), 0.5, v),
    ),
    "mdp_exponent_check": (
        "n", 1, 10, lambda v: bounds.mdp_exponent_check(1, 0.5, 0.1, 0.75, [v])
    ),
    "LdpcEnsemble": (
        "block length n", 1, 64, lambda v: codingapps.LdpcEnsemble(v, LAMBDA, RHO)
    ),
    "LdpcEnsemble.regular-dv": (
        "degrees: dv", 1, 3, lambda v: codingapps.LdpcEnsemble.regular(64, v, 6)
    ),
    "LdpcEnsemble.regular-dc": (
        "degrees: dc", 1, 6, lambda v: codingapps.LdpcEnsemble.regular(64, 3, v)
    ),
    "OfdmModel-n": ("n", 1, 4, lambda v: codingapps.OfdmModel(n=v, M=4)),
    "OfdmModel-M": ("M", 2, 4, lambda v: codingapps.OfdmModel(n=4, M=v)),
    "ofdm_trig_identity-n": ("n", 1, 4, lambda v: codingapps.ofdm_trig_identity(v, 4)),
    "ofdm_trig_identity-M": ("M", 2, 4, lambda v: codingapps.ofdm_trig_identity(4, v)),
    "ofdm_martingale_check-trials": (
        "trials", 1, 3,
        lambda v: codingapps.ofdm_martingale_check(OFDM, v, seed=1, inner=2),
    ),
    "ofdm_martingale_check-inner": (
        "inner", 1, 2,
        lambda v: codingapps.ofdm_martingale_check(OFDM, 3, seed=1, inner=v),
    ),
    "channel_moment_profile": (
        "m", 2, 4, lambda v: codingapps.channel_moment_profile(codingapps.bsc(0.1), v)
    ),
    "moderate_deviation_hyptest": (
        "n", 1, 10**4, lambda v: hyptest.moderate_deviation_hyptest(PAIR, 0.05, 0.75, v)
    ),
    "TailQuery": ("n", 1, 10, lambda v: validate.TailQuery(v, 3.0)),
    "types_sandwich_check": (
        "n", 1, 20, lambda v: validate.types_sandwich_check(0.3, v, 0.5)
    ),
    "monte_carlo_tail": (
        "trials", 100, 100,
        lambda v: validate.monte_carlo_tail(LAW, validate.TailQuery(8, 2.0), v, 1),
    ),
    "example3_comparison": (
        "k", 1, 20, lambda v: validate.example3_comparison(0.1, 1.0, 0.5, v)
    ),
    "q_ary_channel": ("q", 2, 3, lambda v: codingapps.q_ary_channel(v, 0.1)),
    "DmcChannel-sym": (
        "sym entry", 0, 0,
        lambda v: codingapps.DmcChannel(BSC.outputs, BSC.p0, BSC.p1, (1, v)),
    ),
    "PairwiseBound.prob": (
        "Hamming weight h", 0, 7, lambda v: codingapps.PairwiseBound(0.5).prob(v)
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["true", "float", "nan", "below", "huge"])
def test_bad_count_raises_naming_it(entry, bad):
    name, least, _, call = ENTRY_POINTS[entry]
    value = {"true": True, "float": 2.5, "nan": math.nan, "below": least - 1}.get(
        bad, 10**400
    )
    with pytest.raises(ValueError, match="^" + re.escape(name) + " must "):
        call(value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_int_accepted(entry):
    _, _, good, call = ENTRY_POINTS[entry]
    assert call(np.int64(good)) == call(good)


def test_as_count_bounds():
    top = int(sys.float_info.max)
    assert as_count(top, "n") == top
    assert type(as_count(np.int64(5), "n")) is int
    with pytest.raises(ValueError, match=r"^n must lie in \[1, 1.79769e\+308\]$"):
        as_count(top + 1, "n")
    with pytest.raises(ValueError, match="^trials must be >= 100$"):
        as_count(99, "trials", 100)
    with pytest.raises(ValueError, match="^n must be an integer, got '10'$"):
        as_count("10", "n")


# (argument name as the message gives it, call taking the value 1.0 where valid)
REAL_ENTRY_POINTS = {
    "FinitePmf": ("probs entry", lambda v: FinitePmf((0,), (v,))),
    "IncrementLaw-values": (
        "values entry", lambda v: validate.IncrementLaw((v, -1.0), (0.5, 0.5))
    ),
    "IncrementLaw-probs": (
        "probs entry", lambda v: validate.IncrementLaw((0.0,), (v,))
    ),
    "LdpcEnsemble-lambda": (
        "lambda entry", lambda v: codingapps.LdpcEnsemble(8, (v,), (1.0,))
    ),
    "LdpcEnsemble-rho": (
        "rho entry", lambda v: codingapps.LdpcEnsemble(8, (1.0,), (v,))
    ),
    "Thresholds-lambda_bar": ("lambda_bar", lambda v: hyptest.Thresholds(v, 0.0)),
    "Thresholds-lambda_under": ("lambda_under", lambda v: hyptest.Thresholds(1.0, v)),
}
NOT_REAL = {"true": True, "string": "0.5", "none": None, "list": [0.5], "huge": 10**400}


@pytest.mark.parametrize(
    "value,want",
    [
        (3, 3.0),
        (0.25, 0.25),
        (np.float32(0.5), 0.5),
        (np.int64(-7), -7.0),
        (Fraction(1, 4), 0.25),
        (math.inf, math.inf),
        (-math.inf, -math.inf),
        (math.nan, math.nan),
    ],
    ids=["int", "float", "float32", "int64", "fraction", "inf", "-inf", "nan"],
)
def test_as_real_accepts_numbers(value, want):
    got = as_real(value, "x")
    assert type(got) is float and repr(got) == repr(want)  # repr: nan is nan


@pytest.mark.parametrize("bad", sorted(NOT_REAL))
def test_as_real_rejects_naming_the_argument(bad):
    value = NOT_REAL[bad]
    want = f"x must be a real number, got {value!r}"
    if bad == "huge":  # named without its 401 digits
        want = "x must have magnitude <= 1.79769e+308"
    with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
        as_real(value, "x")


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(NOT_REAL))
def test_bad_real_raises_naming_it(entry, bad):
    name, call = REAL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^" + re.escape(name) + " must "):
        call(NOT_REAL[bad])


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
@pytest.mark.parametrize(
    "good", [1, np.int64(1), np.float32(1.0), Fraction(1)], ids=repr
)
def test_real_numbers_accepted_as_floats(entry, good):
    _, call = REAL_ENTRY_POINTS[entry]
    assert call(good) == call(1.0)
