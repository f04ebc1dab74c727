"""Exact rational series bracketing.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elastica import exact_bounds
from elastica.elliptic import complete_E, complete_K

mpmath.mp.dps = 40


@pytest.mark.parametrize("n", range(1, 12))
def test_coefficients_match_binomial_oracle(n):
    """[DERIVED] A_n = (binom(2n, n)/4^n)^2 (2n+1)/(2n-1) computed independently."""
    want = Fraction(math.comb(2 * n, n), 4 ** n) ** 2 * Fraction(2 * n + 1, 2 * n - 1)
    assert exact_bounds.coeff_A(n) == want


@given(st.integers(2, 30), st.fractions(Fraction(1, 100), Fraction(99, 100)))
def test_partial_below_tail(N, m):
    """[TRIVIAL] S_N(m) < T_N(m): the dropped tail is positive and T bounds it."""
    s = exact_bounds.partial_S(N, m)
    t = exact_bounds.tail_T(N, m)
    assert s < t


@given(st.integers(2, 25), st.fractions(Fraction(1, 100), Fraction(99, 100)))
def test_partial_sums_increase(N, m):
    """[TRIVIAL] coefficients are positive for n >= 1, so S_N is increasing in N."""
    assert exact_bounds.partial_S(N + 1, m) > exact_bounds.partial_S(N, m)


@pytest.mark.parametrize("m", [0.25, 0.5, 0.75, 0.85])
def test_series_converges_to_elliptic_combination(m):
    """[DERIVED] S_N -> (2/pi)(K - 2E) + 1 as N grows (float comparison)."""
    target = (2.0 / math.pi) * (complete_K(m) - 2.0 * complete_E(m)) + 1.0
    s = float(exact_bounds.partial_S(60, Fraction(m).limit_denominator(10 ** 6)))
    assert s == pytest.approx(target, abs=5e-6)


def test_bracket_fractions_digit_for_digit():
    """[PAPER] the two printed fractions, exactly."""
    assert exact_bounds.tail_T(10, Fraction(3, 4)) == \
        Fraction(71740047753969831, 72057594037927936)
    assert exact_bounds.partial_S(7, Fraction(17, 20)) == \
        Fraction(1739865847127, 1717986918400)


def test_bracket_exact_comparison():
    """[PAPER] T_10(3/4) < 1 < S_7(17/20) by exact integer arithmetic."""
    assert exact_bounds.tail_T(10, Fraction(3, 4)) < 1
    assert exact_bounds.partial_S(7, Fraction(17, 20)) > 1


def _shift(fn, delta, at=None):
    return lambda *args: fn(*args) + (delta if at in (None, args[0]) else 0)


def test_verify_bracket_report():
    """[TRIVIAL] the exact-bounds criterion passes and covers all four checks:
    breaking any one of them alone fails it."""
    from elastica import elliptic, verification
    assert verification.run_criterion("exact-bounds").passed
    breaks = [
        (exact_bounds, "tail_T", 1, None),              # T_10(3/4) < 1
        (exact_bounds, "partial_S", -1, None),          # S_7(17/20) > 1
        # the float value (2/pi)(K - 2E) + 1 rises by 0.5 at 3/4, above T_10,
        # or drops by 0.1 at 17/20, below S_7
        (elliptic, "complete_K", 0.25 * math.pi, 0.75),
        (elliptic, "complete_K", -0.05 * math.pi, 0.85),
    ]
    for owner, name, delta, at in breaks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, name, _shift(getattr(owner, name), delta, at))
            assert not verification.run_criterion("exact-bounds").passed, name


def test_bracket_locates_m_star():
    """[DERIVED] the sign change of (2/pi)(K-2E)+1 - 1 sits between 3/4 and 17/20,
    consistent with the solved m*."""
    from elastica.elliptic import constants
    assert 0.75 < constants().m_star < 0.85


def test_tail_requires_valid_domain():
    """[TRIVIAL] domain validation."""
    with pytest.raises(ValueError):
        exact_bounds.tail_T(5, Fraction(1, 1))
    with pytest.raises(ValueError):
        exact_bounds.partial_S(0, Fraction(1, 2))
