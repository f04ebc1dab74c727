"""Complete/incomplete elliptic integrals, Jacobi elliptic functions, and the
universal constants of the figure-eight elastica.

`scipy.special` is the only backend: complete K/E are `ellipk`/`ellipe`, the
incomplete integrals are Carlson's symmetric forms `elliprf`/`elliprd` on the
principal amplitude, and am/sn/cn come from `ellipj`.  The incomplete and
Jacobi functions accept arrays; a scalar in gives a float out.  Arguments
pass the checks of `_checks`: one that is not real (a bool, a complex number,
a string) or holds a nan or an infinity fails with one `ValueError` that
names the parameter, as m outside (0, 1) does.

Importing this module loads no scipy module.  The five names above start as
stubs, and the first call of any of them loads `scipy.special`'s compiled
module `scipy.special._ufuncs` alone, without the `scipy.special` package,
and rebinds all five to its ufuncs (`_lazy.on_first_use`), the very objects
the package exports; from then on each function calls the ufunc directly, as
a top-level import would.

scipy's own incomplete F/E routines are not used: in scipy 1.17.1 they return
wrong values (errors up to 0.15) at some exact `ellipj` amplitudes on the
closed figure-eight grids, where Carlson's forms agree with mpmath to 1e-12.
The tests pin two such amplitudes.

The constants bundle is data: `constants()` returns the five floats that
`solve_m_star` derives from complete K/E, so reading them loads no scipy
module.  A tier-1 test checks that the derivation still gives these bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._checks import _check_finite, _check_m
from ._lazy import on_first_use

ellipe, ellipj, ellipk, elliprd, elliprf = on_first_use(
    globals(), "scipy.special._ufuncs", "ellipe", "ellipj", "ellipk", "elliprd", "elliprf")

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


def _like(value: np.ndarray, x) -> float | np.ndarray:
    """`value` as a float when the checked argument `x` is one, else as an array."""
    return float(value) if isinstance(x, float) else value


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = F(pi/2, m)."""
    return float(ellipk(_check_m(m)))


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m) = E(pi/2, m)."""
    return float(ellipe(_check_m(m)))


def _reduce(x, m: float):
    """Split a checked x = k pi + r with r in [-pi/2, pi/2]; return k, sin r
    and the Carlson arguments cos^2 r, 1 - m sin^2 r.  Products, not powers,
    keep array and scalar calls bit-identical."""
    k = np.floor(x / math.pi + 0.5)
    r = x - k * math.pi
    s, c = np.sin(r), np.cos(r)
    return k, s, c * c, 1.0 - m * s * s


def incomplete_F(x: float | np.ndarray, m: float) -> float | np.ndarray:
    """Incomplete elliptic integral of the first kind, Carlson's form
    F(r, m) = sin r R_F(cos^2 r, 1 - m sin^2 r, 1) on the principal amplitude
    r, extended by F(x + pi, m) = F(x, m) + 2K(m)."""
    m, x = _check_m(m), _check_finite(x, "parameter x")
    k, s, c2, d2 = _reduce(x, m)
    return _like(2.0 * k * complete_K(m) + s * elliprf(c2, d2, 1.0), x)


def incomplete_E(x: float | np.ndarray, m: float) -> float | np.ndarray:
    """Incomplete elliptic integral of the second kind, Carlson's form
    E(r, m) = sin r R_F - (m/3) sin^3 r R_D on the principal amplitude r,
    extended by E(x + pi, m) = E(x, m) + 2E(m)."""
    m, x = _check_m(m), _check_finite(x, "parameter x")
    k, s, c2, d2 = _reduce(x, m)
    principal = s * elliprf(c2, d2, 1.0) - (m / 3.0) * s * s * s * elliprd(c2, d2, 1.0)
    return _like(2.0 * k * complete_E(m) + principal, x)


def _jacobi(u, m: float, item: int) -> float | np.ndarray:
    """Item `item` of `ellipj(u, m)`, (sn, cn, dn, am), on checked arguments."""
    m, u = _check_m(m), _check_finite(u, "parameter u")
    return _like(ellipj(u, m)[item], u)


def amplitude(u: float | np.ndarray, m: float) -> float | np.ndarray:
    """Jacobi amplitude am(u, m), the inverse of F(., m)."""
    return _jacobi(u, m, 3)


def cn(u: float | np.ndarray, m: float) -> float | np.ndarray:
    """Jacobi cn(u, m) = cos(am(u, m))."""
    return _jacobi(u, m, 1)


def sn(u: float | np.ndarray, m: float) -> float | np.ndarray:
    """Jacobi sn(u, m) = sin(am(u, m))."""
    return _jacobi(u, m, 0)


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
        return {**asdict(self), "phi_star_degrees": self.phi_star_degrees}


def solve_m_star() -> EllipticConstants:
    """Solve K(m) - 2E(m) = 0 on the bracket [0.75, 0.85] and bundle the
    constants: the derivation of the bundle that `constants()` holds.

    Bisection narrows the bracket to width 1e-4, then Newton polishes with
    dK/dm - 2 dE/dm, for at most 200 steps, to a residual below 1e-12.
    """
    g = lambda m: complete_K(m) - 2.0 * complete_E(m)
    lo, hi = 0.75, 0.85
    if not (g(lo) < 0.0 < g(hi)):
        raise RuntimeError("root of K - 2E not bracketed in [0.75, 0.85]; elliptic backend broken")
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
    m = 0.5 * (lo + hi)
    for _ in range(200):
        r = g(m)
        if abs(r) < 1e-12:
            break
        m -= r / (dK_dm(m) - 2.0 * dE_dm(m))
    else:
        raise RuntimeError("m* iteration did not reach residual target; elliptic backend broken")
    K, E = complete_K(m), complete_E(m)
    varpi = 32.0 * (2.0 * m - 1.0) * E * E
    phi = math.acos(2.0 * m - 1.0)
    return EllipticConstants(m_star=m, K_star=K, E_star=E, varpi_star=varpi, phi_star=phi)


# `solve_m_star()` to the bit (numpy 2.4.6, scipy 1.17.1), as repr-exact floats
_CONSTANTS = EllipticConstants(
    m_star=0.8261147659849704,
    K_star=2.321049732530421,
    E_star=1.1605248662652106,
    varpi_star=28.10990243533035,
    phi_star=0.8602743467491462,
)


def constants() -> EllipticConstants:
    """The EllipticConstants bundle that `solve_m_star` derives, held as data
    (immutable, safe to share)."""
    return _CONSTANTS

