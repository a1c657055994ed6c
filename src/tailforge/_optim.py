"""Internal 1-D minimization: doubling bracket scan + golden section."""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_XTOL = 1e-12  # golden section stops once its bracket is this narrow


def golden_min(f, lo: float, hi: float):
    """Minimize a unimodal f on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _XTOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    x = (a + b) / 2.0
    return x, f(x)


def minimize_on_ray(f, ceiling: float):
    """Minimize f over [0, ceiling], ceiling >= 1, by doubling from x = 1.

    A doubling scan brackets the minimum, then golden section refines it.
    Returns (x, f(x), hit_ceiling). hit_ceiling flags that f was still
    decreasing at the ceiling, i.e. the reported minimum sits on the scan
    boundary rather than at an interior bracket.
    """
    xs = [0.0]
    fs = [f(0.0)]
    x = 1.0
    while True:
        xs.append(x)
        fs.append(f(x))
        if fs[-1] > fs[-2]:
            break  # increase seen: minimum bracketed by the last three points
        if x >= ceiling:
            gx, gf = golden_min(f, xs[-2], ceiling)
            if gf <= fs[-1]:
                return gx, gf, gx >= ceiling - 1e-9 * ceiling
            return ceiling, fs[-1], True
        x = min(2.0 * x, ceiling)
    lo = xs[-3] if len(xs) >= 3 else 0.0
    hi = xs[-1]
    gx, gf = golden_min(f, lo, hi)
    # golden can only improve on the scanned points; guard against flat spots
    if fs[-2] < gf:
        return xs[-2], fs[-2], False
    return gx, gf, False
