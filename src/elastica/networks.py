"""Theta-networks and the wavelike competitor pipeline.

Builds the three-curve network from a half-period of a wavelike elastica,
its reflection, and the connecting segment; evaluates the closed-form energy
2 sqrt(32 (2E+K)(E-(1-m)K)), its monotonicity certificates, the drop lower
bound 2 sqrt(varpi*), and the double-bubble comparison values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._checks import _check_finite, _check_int, _check_m, _check_positive, _real_scalar
from .curves import DiscreteCurve, sample_wavelike, segment
from .elliptic import complete_E, complete_K, constants
from .energy import e_lambda

__all__ = [
    "ThetaNetwork",
    "theta_energy",
    "build_wavelike_network",
    "wavelike_junction_angle",
    "network_energy_formula",
    "monotonicity_certificates",
    "MonotonicityReport",
    "drop_margin",
    "double_bubble_energy",
    "generalized_junction_feasible",
]


@dataclass(frozen=True)
class ThetaNetwork:
    """Three open curves from junction_a to junction_b with an angle spec.

    start_tangents / end_tangents are the analytic outward unit tangents at
    the two junctions (one row per curve, pointing from the junction into the
    curve); the pairwise-angle invariant is enforced on them, since discrete
    first-edge tangents carry O(h) error.
    """

    curves: tuple
    junction_a: np.ndarray
    junction_b: np.ndarray
    angle_spec: tuple  # pairwise angles (a12, a13, a23), radians
    start_tangents: Optional[np.ndarray] = None
    end_tangents: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.curves) != 3:
            raise ValueError("a Theta-network has exactly three curves")
        a = _check_finite(self.junction_a, "junction_a")
        b = _check_finite(self.junction_b, "junction_b")
        for c in self.curves:
            if c.closed:
                raise ValueError("network curves must be open")
            if np.linalg.norm(c.points[0] - a) > 1e-9 or np.linalg.norm(c.points[-1] - b) > 1e-9:
                raise ValueError("all curves must run from junction_a to junction_b")
        for tans, label in ((self.start_tangents, "start"), (self.end_tangents, "end")):
            if tans is None:
                continue
            t = np.asarray(tans, dtype=float)
            pair_angles = [
                math.acos(float(np.clip(np.dot(t[i], t[j]), -1.0, 1.0)))
                for i, j in ((0, 1), (0, 2), (1, 2))
            ]
            for got, want in zip(pair_angles, self.angle_spec):
                if abs(got - want) > 1e-6:
                    raise ValueError(
                        f"{label}-tangent pairwise angles {pair_angles} do not match "
                        f"the angle spec {self.angle_spec}")
        object.__setattr__(self, "junction_a", a)
        object.__setattr__(self, "junction_b", b)


def theta_energy(net: ThetaNetwork) -> float:
    """Sum of B + L over the three curves."""
    return sum(e_lambda(c, 1.0) for c in net.curves)


def wavelike_junction_angle(m: float) -> float:
    """Angle between the wavelike arc tangent at its endpoint and the inward
    axis direction: arccos(2m - 1)."""
    return math.acos(2.0 * _check_m(m) - 1.0)


def _wavelike_end_tangents(m: float):
    # analytic outward unit tangents of the wavelike arc at s = -K and s = +K
    tx = 1.0 - 2.0 * m
    ty = 2.0 * math.sqrt(m * (1.0 - m))
    return np.array([tx, -ty]), np.array([-tx, -ty])


def build_wavelike_network(m: float, n_samples: int = 512) -> ThetaNetwork:
    """Wavelike arc on [-K(m), K(m)], its reflection across the axis, and the
    connecting segment, rescaled by sqrt(B/L) so that E = 2 sqrt(L B)."""
    m = _real_scalar(m)
    if not 0.0 < m < constants().m_star:
        raise ValueError("need 0 < m < m*: the connecting segment degenerates otherwise")
    _check_int(n_samples, 64, "n_samples", sized=True)
    K = complete_K(m)
    E = complete_E(m)
    half_gap = 2.0 * E - K  # > 0 for m < m*
    arc = sample_wavelike(m, -K, K, n_samples)
    refl = DiscreteCurve(arc.points * np.array([1.0, -1.0]), closed=False)
    seg = segment(np.array([-half_gap, 0.0]), np.array([half_gap, 0.0]), n_samples)
    L = 2.0 * (2.0 * E + K)
    B = 16.0 * (E - (1.0 - m) * K)
    scale = math.sqrt(B / L)
    curves = tuple(DiscreteCurve(c.points * scale, closed=False) for c in (arc, refl, seg))
    t_arc_a, t_arc_b = _wavelike_end_tangents(m)
    mirror = np.array([1.0, -1.0])
    start = np.array([t_arc_a, t_arc_a * mirror, [1.0, 0.0]])
    end = np.array([t_arc_b, t_arc_b * mirror, [-1.0, 0.0]])
    phi = wavelike_junction_angle(m)
    # arc/segment angle is pi - phi at both junctions; the arc/reflection
    # angle follows from the tangents themselves
    a12 = math.acos(float(np.clip(np.dot(t_arc_a, t_arc_a * mirror), -1.0, 1.0)))
    spec = (a12, math.pi - phi, math.pi - phi)
    return ThetaNetwork(
        curves=curves,
        junction_a=scale * np.array([-half_gap, 0.0]),
        junction_b=scale * np.array([half_gap, 0.0]),
        angle_spec=spec,
        start_tangents=start,
        end_tangents=end,
    )


def network_energy_formula(m: float) -> float:
    """Closed-form rescaled energy 2 sqrt(32 (2E(m)+K(m)) (E(m)-(1-m)K(m)))."""
    m = _check_m(m)
    K, E = complete_K(m), complete_E(m)
    return 2.0 * math.sqrt(32.0 * (2.0 * E + K) * (E - (1.0 - m) * K))


@dataclass(frozen=True)
class MonotonicityReport:
    m_grid: np.ndarray
    f_prime: np.ndarray
    g_prime: np.ndarray

    @property
    def all_positive(self) -> bool:
        return bool((self.f_prime > 0).all() and (self.g_prime > 0).all())


def _h(m: float) -> float:
    return complete_E(m) - (1.0 - m) * complete_K(m)


def monotonicity_certificates(m_grid) -> MonotonicityReport:
    """Closed-form derivatives of f = E h and g = K h (h = E - (1-m)K):
    f' = h^2/(2m) + (1-m)K^2/2, g' = h^2/(2m(1-m)) + K^2/2."""
    m_grid = _check_finite(m_grid, "m_grid")
    if np.ndim(m_grid) != 1:
        raise ValueError("m_grid must be a 1-d array")
    fp, gp = [], []
    for m in m_grid:
        K = complete_K(m)
        h = _h(m)
        fp.append(h * h / (2.0 * m) + (1.0 - m) * K * K / 2.0)
        gp.append(h * h / (2.0 * m * (1.0 - m)) + K * K / 2.0)
    return MonotonicityReport(m_grid=m_grid, f_prime=np.array(fp), g_prime=np.array(gp))


def drop_margin(curve: DiscreteCurve, tol: float = 1e-9) -> float:
    """E_1[curve] - 2 sqrt(varpi*) for an open curve with coinciding endpoints."""
    if curve.closed:
        raise ValueError("a drop is an open curve")
    _check_positive(tol, "tol")
    if np.linalg.norm(curve.points[0] - curve.points[-1]) > tol:
        raise ValueError("drop endpoints must coincide")
    return e_lambda(curve, 1.0) - 2.0 * math.sqrt(constants().varpi_star)


def _check_alpha(alpha) -> float:
    alpha = _real_scalar(alpha)
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    return alpha


def double_bubble_energy(alpha: float) -> float:
    """Energy 4 sqrt(2 alpha (2 alpha + sin alpha)) of the circular-arc
    double bubble at opening angle alpha."""
    alpha = _check_alpha(alpha)
    return 4.0 * math.sqrt(2.0 * alpha * (2.0 * alpha + math.sin(alpha)))


def generalized_junction_feasible(alpha: float) -> bool:
    """Whether the wavelike-competitor construction covers the generalized
    angle condition (alpha, alpha, 2 pi - 2 alpha): alpha < pi - phi*."""
    return _check_alpha(alpha) < math.pi - constants().phi_star
