import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def mp_cramer_rate():
    """40-digit Cramer rate sup_t (t a - ln E e^(tX)) of a finite law at a.

    An independent reference: the root t of the tilted mean
    E[(X - a) e^(t(X - a))] = 0, bracketed by doubling and bisected in
    mpmath. I is stationary there, so t to 2^-80 of its bracket gives I to
    about 1e-40. values and probs may be floats or mpf; a must lie strictly
    inside the support.
    """
    mpmath = pytest.importorskip("mpmath")

    def rate(values, probs, a):
        with mpmath.workdps(40):
            x = [mpmath.mpf(v) - mpmath.mpf(a) for v in values]
            p = [mpmath.mpf(q) for q in probs]
            assert min(x) < 0 < max(x)

            def tilted_mean(t):
                return mpmath.fsum(q * y * mpmath.exp(t * y) for q, y in zip(p, x))

            lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
            while tilted_mean(lo) > 0:
                lo *= 2
            while tilted_mean(hi) < 0:
                hi *= 2
            for _ in range(80):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if tilted_mean(mid) < 0 else (lo, mid)
            t = (lo + hi) / 2
            return -mpmath.log(mpmath.fsum(q * mpmath.exp(t * y) for q, y in zip(p, x)))

    return rate
