"""Exact rational bracketing of the figure-eight parameter.

The series (2/pi)(K(m) - 2E(m)) + 1 = sum A_n m^n has coefficients
A_n = ((2n-1)!!/(2n)!!)^2 (2n+1)/(2n-1) with 0 < A_n <= 1, so the partial
sums S_N and the geometric-tail majorants T_N = S_N + m^{N+1}/(1-m) bracket
the value.  All arithmetic here is exact; the comparisons carry the proof
burden that 0.75 < m* < 0.85.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._checks import _check_int, _shown

__all__ = ["coeff_A", "partial_S", "tail_T", "SeriesBracket", "bracket"]


def coeff_A(n: int) -> Fraction:
    """Exact series coefficient ((2n-1)!!/(2n)!!)^2 (2n+1)/(2n-1)."""
    _check_int(n, 1, "n")
    ratio = Fraction(1)
    for j in range(1, n + 1):
        ratio *= Fraction(2 * j - 1, 2 * j)
    return ratio * ratio * Fraction(2 * n + 1, 2 * n - 1)


def _check_rational_m(m: Fraction) -> Fraction:
    # a bool or a string is no m; Fraction would read True as 1 and "1/2" as 1/2
    try:
        q = None if isinstance(m, (bool, str)) else Fraction(m)
    except (TypeError, ValueError, OverflowError):
        q = None
    if q is None or not 0 < q < 1:
        raise ValueError(f"m must be a rational in (0,1), got {_shown(m)}")
    return q


def partial_S(N: int, m: Fraction) -> Fraction:
    """Partial sum S_N(m) = sum_{n=1}^N A_n m^n, exactly."""
    _check_int(N, 1, "N")
    m = _check_rational_m(m)
    return sum((coeff_A(n) * m**n for n in range(1, N + 1)), Fraction(0))


def tail_T(N: int, m: Fraction) -> Fraction:
    """Upper bracket T_N(m) = S_N(m) + m^{N+1}/(1-m), exactly."""
    m = _check_rational_m(m)
    return partial_S(N, m) + m ** (N + 1) / (1 - m)


@dataclass(frozen=True)
class SeriesBracket:
    """Exact sandwich S_N(m) <= (2/pi)(K-2E) + 1 <= T_N(m) at one rational m."""

    N: int
    m: Fraction
    lower_S: Fraction
    upper_T: Fraction

    def __post_init__(self):
        if self.lower_S > self.upper_T:
            raise ValueError("bracket is inverted")


def bracket(N: int, m: Fraction) -> SeriesBracket:
    m = _check_rational_m(m)
    return SeriesBracket(N=N, m=m, lower_S=partial_S(N, m), upper_T=tail_T(N, m))
