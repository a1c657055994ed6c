"""Internal 1-D minimisation: safeguarded Newton inside a sign bracket."""

from __future__ import annotations

import math

_TOL = 1e-10  # Newton stops at a step or bracket this small, times max(1, |t|)


def newton_min(fn, lo: float = -math.inf, hi: float = math.inf, t: float = 0.0):
    """Minimise f on [lo, hi] from t, where fn(t) returns (f, f', f'').

    Each slope closes one side of the bracket at t. A Newton step that would
    leave the bracket, or a non-positive f'', bisects it instead; an open
    side stands at 2t -/+ 1 (t is the closed end), so t grows geometrically.
    Returns (t, f(t)): a local minimum, or the bound f still falls towards.
    """
    while True:
        f, df, d2f = fn(t)
        lo, hi = (t, hi) if df < 0.0 else (lo, t)
        step = -df / d2f if d2f > 0.0 else math.nan
        if min(hi - lo, abs(step)) <= _TOL * max(1.0, abs(t)):
            return t, f
        a = lo if lo > -math.inf else 2.0 * t - 1.0
        b = hi if hi < math.inf else 2.0 * t + 1.0
        t = t + step if a < t + step < b else 0.5 * (a + b)
