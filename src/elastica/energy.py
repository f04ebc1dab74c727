"""Discrete curve functionals: length, bending energy, normalized bending
energy, total curvature (smooth and piecewise with vertex angles), the
length-penalized energy, and multiplicity-inequality margins.

Curvature is the second difference of position in arclength (three-point
stencil with non-uniform spacing correction), integrated with half-edge node
weights; convergence is second order on smooth generators.  Open curves skip
the two boundary nodes.  Every functional, and the flow, reads one such pass
(`_curvature_rows`), which sums |kappa|^2 over the coordinates in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import _check_int, _check_lambda, _check_positive
from .curves import DiscreteCurve, _cyclic_pad, _dot_rows, _has_point_of_multiplicity
from .elliptic import constants

__all__ = [
    "EnergyReport",
    "curvature_vectors",
    "length",
    "bending_energy",
    "normalized_bending",
    "total_curvature",
    "total_curvature_piecewise",
    "PiecewiseFenchelReport",
    "e_lambda",
    "li_yau_margin",
    "report",
]

def _curvature_rows(curve: DiscreteCurve):
    """The one curvature pass, on coordinate rows: kappa as (dim, m) rows, the
    m weights w, |kappa|^2 per node (`_dot_rows`) and B = sum |kappa|^2 w."""
    X, h = curve.rows, curve.edge_lengths()
    if curve.closed:
        # one node and one edge wrapped around, so both cases read one stencil
        X, h = _cyclic_pad(X, 1), _cyclic_pad(h, 1)[:-1]
    # unit edge vectors: the stencil's (p_next - p) / h_next is t[:, 1:] and
    # its (p - p_prev) / h_prev is t[:, :-1]
    t = (X[:, 1:] - X[:, :-1]) / h
    span = h[:-1] + h[1:]
    kappa = 2.0 / span * (t[:, 1:] - t[:, :-1])
    with np.errstate(over="ignore"):   # a |kappa|^2 or B past a float is inf
        w, k2 = 0.5 * span, _dot_rows(kappa, kappa)
        return kappa, w, k2, float(np.sum(k2 * w))


def curvature_vectors(curve: DiscreteCurve):
    """Discrete curvature vectors and integration weights.

    Returns (kappa, weights) where kappa[i] approximates the second arclength
    derivative of position at node i (node i + 1 for open curves, which skip
    their two end nodes) and weights are the half-sums of adjacent edge
    lengths.
    """
    kappa, weights, _, _ = _curvature_rows(curve)
    return kappa.T.copy(), weights


def length(curve: DiscreteCurve) -> float:
    """Total edge length."""
    return curve.length()


def bending_energy(curve: DiscreteCurve) -> float:
    """Integral of squared curvature, B = sum |kappa_i|^2 w_i."""
    return _curvature_rows(curve)[3]


def normalized_bending(curve: DiscreteCurve) -> float:
    """Scale-invariant L * B."""
    return length(curve) * bending_energy(curve)


def total_curvature(curve: DiscreteCurve) -> float:
    """Integral of |kappa|."""
    _, w, k2, _ = _curvature_rows(curve)
    return float(np.sum(np.sqrt(k2) * w))


@dataclass(frozen=True)
class PiecewiseFenchelReport:
    """Total curvature of a cyclic chain of open curves plus vertex angles."""

    tc_parts: tuple
    angles: tuple
    defect: float  # sum TC + sum angles - 2 pi (>= 0 for closed cycles in the continuum)

    @property
    def tc_sum(self) -> float:
        return sum(self.tc_parts)

    @property
    def angle_sum(self) -> float:
        return sum(self.angles)


def _end_tangents(curve: DiscreteCurve):
    e = curve.points[1] - curve.points[0]
    f = curve.points[-1] - curve.points[-2]
    return e / np.linalg.norm(e), f / np.linalg.norm(f)


def total_curvature_piecewise(curves: Sequence[DiscreteCurve]) -> PiecewiseFenchelReport:
    """Total curvature of open curves forming a cycle, with external angles.

    Each curve must end within 1e-9 of where the next one starts.  The
    external angle at vertex j is the angle between the end tangent of
    curve j and the start tangent of curve j+1 (cyclically); the report's
    defect is sum TC + sum angles - 2 pi.
    """
    N = len(curves)
    if N < 1:
        raise ValueError("need at least one curve")
    tangents = [_end_tangents(c) for c in curves]
    tc_parts, angles = [], []
    for j, c in enumerate(curves):
        nxt = curves[(j + 1) % N]
        if np.linalg.norm(c.points[-1] - nxt.points[0]) > 1e-9:
            raise ValueError(f"junction mismatch between pieces {j} and {(j + 1) % N}")
        tc_parts.append(total_curvature(c))
        dot = float(np.clip(np.dot(tangents[j][1], tangents[(j + 1) % N][0]), -1.0, 1.0))
        angles.append(math.acos(dot))
    defect = sum(tc_parts) + sum(angles) - 2.0 * math.pi
    return PiecewiseFenchelReport(tc_parts=tuple(tc_parts), angles=tuple(angles), defect=defect)


def e_lambda(curve: DiscreteCurve, lam: float) -> float:
    """Length-penalized energy B + lambda L."""
    lam = _check_lambda(lam)
    return bending_energy(curve) + lam * length(curve)


def li_yau_margin(curve: DiscreteCurve, k: int, eps: float = None) -> float:
    """Margin of the multiplicity inequality: B-bar - varpi* k^2 for closed
    curves, B-bar - varpi* (k-1)^2 for open ones.

    Requires a point of multiplicity >= k at eps (default 1e-6 L): the
    curve's first marked vertex or, without marks, one of its samples.
    """
    _check_int(k, 2, "k")
    L = length(curve)
    eps = 1e-6 * L if eps is None else _check_positive(eps, "eps")
    if not _has_point_of_multiplicity(curve, k, eps):
        raise ValueError(f"no point of multiplicity >= {k} found at eps={eps:g}")
    quota = k * k if curve.closed else (k - 1) ** 2
    return L * bending_energy(curve) - constants().varpi_star * quota


@dataclass(frozen=True)
class EnergyReport:
    """Bundle of every functional at a fixed lambda."""

    length: float
    bending: float
    normalized_bending: float
    total_curvature: float
    e_lambda: float
    lam: float

    def as_dict(self) -> dict:
        return {
            "length": self.length,
            "bending": self.bending,
            "normalized_bending": self.normalized_bending,
            "total_curvature": self.total_curvature,
            "lambda": self.lam,
            "e_lambda": self.e_lambda,
        }


def report(curve: DiscreteCurve, lam: float = 1.0) -> EnergyReport:
    """Every functional at lambda; raises if one of them overflows a float
    (edges shorter than about 1e-154 square the curvature past it)."""
    lam = _check_lambda(lam)
    with np.errstate(over="ignore"):
        L = length(curve)
        _, w, k2, B = _curvature_rows(curve)   # one pass for B and the total curvature
        rep = EnergyReport(
            length=L,
            bending=B,
            normalized_bending=L * B,
            total_curvature=float(np.sum(np.sqrt(k2) * w)),
            e_lambda=B + lam * L,
            lam=lam,
        )
    if not all(map(math.isfinite, rep.as_dict().values())):
        raise ValueError("an energy overflows a float (edges too short or lambda too large)")
    return rep
