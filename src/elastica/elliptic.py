"""Complete/incomplete elliptic integrals, Jacobi elliptic functions, and the
universal constants of the figure-eight elastica.

`scipy.special` is the only backend: complete K/E are `ellipk`/`ellipe`, the
incomplete integrals are Carlson's symmetric forms `elliprf`/`elliprd` on the
principal amplitude, and am/sn/cn come from `ellipj`.  The incomplete and
Jacobi functions accept arrays; a scalar in gives a float out.

scipy's own incomplete F/E routines are not used: in scipy 1.17.1 they return
wrong values (errors up to 0.15) at some exact `ellipj` amplitudes on the
closed figure-eight grids, where Carlson's forms agree with mpmath to 1e-12.
The tests pin two such amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ellipe, ellipj, ellipk, elliprd, elliprf

__all__ = [
    "EllipticConstants",
    "complete_K",
    "complete_E",
    "incomplete_F",
    "incomplete_E",
    "amplitude",
    "cn",
    "sn",
    "dK_dm",
    "dE_dm",
    "solve_m_star",
    "constants",
]


def _check_m(m: float) -> float:
    m = float(m)
    if not 0.0 < m < 1.0:
        raise ValueError(f"parameter m must lie in the open interval (0,1), got {m}")
    return m


def _like(value: np.ndarray, arg) -> float | np.ndarray:
    """`value` as a float when `arg` is a scalar, else as an array."""
    return float(value) if np.ndim(arg) == 0 else value


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = F(pi/2, m)."""
    return float(ellipk(_check_m(m)))


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m) = E(pi/2, m)."""
    return float(ellipe(_check_m(m)))


def _reduce(x, m: float):
    """Split x = k pi + r with r in [-pi/2, pi/2]; return k, sin r and the
    Carlson arguments cos^2 r, 1 - m sin^2 r.  Products, not powers, keep
    array and scalar calls bit-identical."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x / math.pi + 0.5)
    r = x - k * math.pi
    s, c = np.sin(r), np.cos(r)
    return k, s, c * c, 1.0 - m * s * s


def incomplete_F(x: float | np.ndarray, m: float) -> float | np.ndarray:
    """Incomplete elliptic integral of the first kind, Carlson's form
    F(r, m) = sin r R_F(cos^2 r, 1 - m sin^2 r, 1) on the principal amplitude
    r, extended by F(x + pi, m) = F(x, m) + 2K(m)."""
    m = _check_m(m)
    k, s, c2, d2 = _reduce(x, m)
    return _like(2.0 * k * complete_K(m) + s * elliprf(c2, d2, 1.0), x)


def incomplete_E(x: float | np.ndarray, m: float) -> float | np.ndarray:
    """Incomplete elliptic integral of the second kind, Carlson's form
    E(r, m) = sin r R_F - (m/3) sin^3 r R_D on the principal amplitude r,
    extended by E(x + pi, m) = E(x, m) + 2E(m)."""
    m = _check_m(m)
    k, s, c2, d2 = _reduce(x, m)
    principal = s * elliprf(c2, d2, 1.0) - (m / 3.0) * s * s * s * elliprd(c2, d2, 1.0)
    return _like(2.0 * k * complete_E(m) + principal, x)


def amplitude(u: float | np.ndarray, m: float) -> float | np.ndarray:
    """Jacobi amplitude am(u, m), the inverse of F(., m)."""
    return _like(ellipj(u, _check_m(m))[3], u)


def cn(u: float | np.ndarray, m: float) -> float | np.ndarray:
    """Jacobi cn(u, m) = cos(am(u, m))."""
    return _like(ellipj(u, _check_m(m))[1], u)


def sn(u: float | np.ndarray, m: float) -> float | np.ndarray:
    """Jacobi sn(u, m) = sin(am(u, m))."""
    return _like(ellipj(u, _check_m(m))[0], u)


def dK_dm(m: float) -> float:
    """dK/dm = (E - (1-m)K) / (2m(1-m))."""
    m = _check_m(m)
    return (complete_E(m) - (1.0 - m) * complete_K(m)) / (2.0 * m * (1.0 - m))


def dE_dm(m: float) -> float:
    """dE/dm = (E - K) / (2m)."""
    m = _check_m(m)
    return (complete_E(m) - complete_K(m)) / (2.0 * m)


@dataclass(frozen=True)
class EllipticConstants:
    """The universal constants of the figure-eight elastica.

    m_star is the unique root of K(m) - 2E(m) in (0,1); varpi_star is the
    normalized bending energy of a half-fold figure-eight leaf; phi_star is
    half the tangent angle at the self-crossing, cos(phi_star) = 2 m_star - 1.
    """

    m_star: float
    K_star: float
    E_star: float
    varpi_star: float
    phi_star: float

    @property
    def phi_star_degrees(self) -> float:
        return math.degrees(self.phi_star)

    def as_dict(self) -> dict:
        return {
            "m_star": self.m_star,
            "K_star": self.K_star,
            "E_star": self.E_star,
            "varpi_star": self.varpi_star,
            "phi_star": self.phi_star,
            "phi_star_degrees": self.phi_star_degrees,
        }


def solve_m_star() -> EllipticConstants:
    """Solve K(m) - 2E(m) = 0 on the bracket [0.75, 0.85] and bundle the constants.

    Bisection narrows the bracket to width 1e-4, then Newton polishes with
    dK/dm - 2 dE/dm, for at most 200 steps, to a residual below 1e-12.
    """
    g = lambda m: complete_K(m) - 2.0 * complete_E(m)
    lo, hi = 0.75, 0.85
    if not (g(lo) < 0.0 < g(hi)):
        raise RuntimeError("root of K - 2E not bracketed in [0.75, 0.85]; elliptic backend broken")
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    for _ in range(200):
        r = g(m)
        if abs(r) < 1e-12:
            break
        m -= r / (dK_dm(m) - 2.0 * dE_dm(m))
    else:
        raise RuntimeError("m* iteration did not reach residual target; elliptic backend broken")
    K = complete_K(m)
    E = complete_E(m)
    if abs(K - 2.0 * E) >= 1e-12:
        raise RuntimeError("m* residual target missed")
    varpi = 32.0 * (2.0 * m - 1.0) * E * E
    phi = math.acos(2.0 * m - 1.0)
    return EllipticConstants(m_star=m, K_star=K, E_star=E, varpi_star=varpi, phi_star=phi)


@lru_cache(maxsize=1)
def constants() -> EllipticConstants:
    """Cached EllipticConstants bundle (immutable, safe to share)."""
    return solve_m_star()

