"""Finite pmfs on labeled alphabets and the log-likelihood-ratio martingale."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import as_real

PROB_SUM_TOL = 1e-9


class AlphabetMismatchError(ValueError):
    """Raised when two pmfs defined on different alphabets are combined."""


@dataclass(frozen=True)
class FinitePmf:
    """A probability mass function on a finite labeled alphabet.

    Symbols are opaque hashable labels. Probabilities must be non-negative
    and sum to one within ``PROB_SUM_TOL``; they are renormalized exactly
    on construction so downstream sums are consistent.
    """

    symbols: Tuple
    probs: Tuple[float, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        probs = tuple(as_real(p, "probs entry") for p in self.probs)
        if len(symbols) != len(probs):
            raise ValueError("symbols and probs must have equal length")
        if len(symbols) == 0:
            raise ValueError("pmf needs a non-empty alphabet")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if not all(p >= 0.0 for p in probs):  # written so that NaN fails
            raise ValueError(f"probabilities must be non-negative, got {probs!r}")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        probs = tuple(p / total for p in probs)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "probs", probs)

    @property
    def strictly_positive(self) -> bool:
        return all(p > 0.0 for p in self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def require_same_alphabet(self, other: "FinitePmf") -> None:
        if self.symbols != other.symbols:
            raise AlphabetMismatchError(
                f"alphabets differ: {self.symbols} vs {other.symbols}"
            )


@dataclass(frozen=True, eq=False)
class LlrMartingale:
    """Doob martingale of ln(P(X)/Q(X)), revealed one sample at a time under P.

    llr = ln(P/Q) per symbol, D = E_P[llr] = D(P||Q) in nats and the jump
    bound d = max |llr - D|. A DMC's pairwise-error martingale is this
    record at P = P(.|0), Q = P(.|1) and a zero threshold.
    """

    probs: np.ndarray
    llr: np.ndarray
    D: float
    d: float

    @classmethod
    def of(cls, p: FinitePmf, q: FinitePmf) -> "LlrMartingale":
        probs = p.as_array()
        llr = np.log(probs / q.as_array())
        # where |P - Q| <= min(P, Q)/2, P - Q is exact (Sterbenz): there llr is
        # ±log1p(|P - Q|/min(P, Q)), odd in (P, Q), not ln of a rounded P/Q
        for i, (a, b) in enumerate(zip(p.probs, q.probs)):
            if abs(a - b) <= min(a, b) / 2.0:
                llr[i] = math.copysign(math.log1p(abs(a - b) / min(a, b)), a - b)
        llr.flags.writeable = False
        div = float(np.dot(probs, llr))
        return cls(probs, llr, div, float(np.max(np.abs(llr - div))))

    def moment(self, l: int) -> float:
        """Centred moment E_P[(llr - D)^l]."""
        return float(np.dot(self.probs, (self.llr - self.D) ** l))

    def ratios(self, m: int) -> Tuple[float, ...]:
        """Theorem 4's gamma_l = max{0, (-1)^l E_P[(llr - D)^l]} / d^l, l = 2..m.

        All 0 at d = 0; FloatingPointError, before any moment, where d^m is not normal.
        """
        if self.d == 0.0:
            return (0.0,) * (m - 1)
        try:
            normal = self.d**m >= sys.float_info.min
        except OverflowError:
            normal = False
        if not normal:
            raise FloatingPointError(
                f"moment order m={m}: d^m = {self.d:.6g}^{m} is not a normal float"
            )
        return tuple(
            max(0.0, (-1.0) ** l * self.moment(l)) / self.d**l for l in range(2, m + 1)
        )
