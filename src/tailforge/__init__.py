"""tailforge: refined tail exponents for bounded-jump martingales.

Sharpened Azuma-Hoeffding concentration exponents (divergence, parabola,
and higher-moment routes), their information-theoretic applications
(hypothesis-testing error exponents, pairwise error over symmetric DMCs,
OFDM crest-factor and LDPC cycle concentration), and exact small-instance
oracles that certify every bound numerically.

All exponents are in nats; bounds.tail_bound alone turns one into a
probability bound, clipped to [0, 1].
"""

from .pmf import AlphabetMismatchError, FinitePmf
from .specfun import ConvergenceError, InfeasibleError
from .bounds import ExponentValue, MartingaleSpec, MomentProfile

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatchError",
    "ConvergenceError",
    "ExponentValue",
    "FinitePmf",
    "InfeasibleError",
    "MartingaleSpec",
    "MomentProfile",
    "__version__",
]
