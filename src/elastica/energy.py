"""Discrete curve functionals: length, bending energy, normalized bending
energy, total curvature (smooth and piecewise with vertex angles), the
length-penalized energy, and multiplicity-inequality margins.

Curvature is the second difference of position in arclength (three-point
stencil with non-uniform spacing correction), integrated with half-edge node
weights; convergence is second order on smooth generators.  Open curves skip
the two boundary nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import (DiscreteCurve, _check_cluster_eps, _check_eps, _check_int,
                     multiplicity)
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

def _curvature_rows(X: np.ndarray, h: np.ndarray, closed: bool):
    """`curvature_vectors` on coordinate rows: X is (dim, n), h the edge
    lengths; returns kappa as (dim, m) rows and the m weights."""
    if closed:
        # wrap one node (and one edge) around, so both cases read the stencil
        # off consecutive slices
        X = np.concatenate([X[:, -1:], X, X[:, :1]], axis=1)
        h = np.concatenate([h[-1:], h])
    # unit edge vectors: the stencil's (p_next - p) / h_next is t[:, 1:] and
    # its (p - p_prev) / h_prev is t[:, :-1]
    t = (X[:, 1:] - X[:, :-1]) / h
    span = h[:-1] + h[1:]
    kappa = 2.0 / span * (t[:, 1:] - t[:, :-1])
    return kappa, 0.5 * span


def curvature_vectors(curve: DiscreteCurve):
    """Discrete curvature vectors and integration weights.

    Returns (kappa, weights) where kappa[i] approximates the second arclength
    derivative of position at node i (node i + 1 for open curves, which skip
    their two end nodes) and weights are the half-sums of adjacent edge
    lengths.
    """
    kappa, weights = _curvature_rows(curve.points.T, curve.edge_lengths(), curve.closed)
    return kappa.T.copy(), weights


def length(curve: DiscreteCurve) -> float:
    """Total edge length."""
    return float(curve.edge_lengths().sum())


def bending_energy(curve: DiscreteCurve) -> float:
    """Integral of squared curvature, B = sum |kappa_i|^2 w_i."""
    kappa, w = curvature_vectors(curve)
    return float(np.sum(np.einsum("ij,ij->i", kappa, kappa) * w))


def normalized_bending(curve: DiscreteCurve) -> float:
    """Scale-invariant L * B."""
    return length(curve) * bending_energy(curve)


def total_curvature(curve: DiscreteCurve) -> float:
    """Integral of |kappa|."""
    kappa, w = curvature_vectors(curve)
    return float(np.sum(np.linalg.norm(kappa, axis=1) * w))


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


def total_curvature_piecewise(curves: Sequence[DiscreteCurve],
                              junction_tol: float = 1e-9) -> PiecewiseFenchelReport:
    """Total curvature of open curves forming a cycle, with external angles.

    The external angle at vertex j is the angle between the end tangent of
    curve j and the start tangent of curve j+1 (cyclically); the report's
    defect is sum TC + sum angles - 2 pi.
    """
    N = len(curves)
    if N < 1:
        raise ValueError("need at least one curve")
    _check_eps(junction_tol, "junction_tol")
    tangents = [_end_tangents(c) for c in curves]
    tc_parts = []
    angles = []
    for j, c in enumerate(curves):
        nxt = curves[(j + 1) % N]
        if np.linalg.norm(c.points[-1] - nxt.points[0]) > junction_tol:
            raise ValueError(f"junction mismatch between pieces {j} and {(j + 1) % N}")
        tc_parts.append(total_curvature(c))
        dot = float(np.clip(np.dot(tangents[j][1], tangents[(j + 1) % N][0]), -1.0, 1.0))
        angles.append(math.acos(dot))
    defect = sum(tc_parts) + sum(angles) - 2.0 * math.pi
    return PiecewiseFenchelReport(tc_parts=tuple(tc_parts), angles=tuple(angles), defect=defect)


def _check_lambda(lam: float) -> None:
    # written so that NaN fails too
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and nonnegative")


def e_lambda(curve: DiscreteCurve, lam: float) -> float:
    """Length-penalized energy B + lambda L."""
    _check_lambda(lam)
    return bending_energy(curve) + lam * length(curve)


def default_multiplicity_eps(curve: DiscreteCurve) -> float:
    return 1e-6 * length(curve)


def li_yau_margin(curve: DiscreteCurve, k: int, eps: float = None) -> float:
    """Margin of the multiplicity inequality: B-bar - varpi* k^2 for closed
    curves, B-bar - varpi* (k-1)^2 for open ones.

    Requires a point of multiplicity >= k; the curve's densest self-cluster
    is searched among sample points near the curve's marked vertices or, by
    default, the origin-like densest point.
    """
    _check_int(k, 2, "k")
    if eps is None:
        eps = default_multiplicity_eps(curve)
    point = _best_multiple_point(curve, eps)
    if point is None or multiplicity(curve, point, eps) < k:
        raise ValueError(f"no point of multiplicity >= {k} found at eps={eps:g}")
    quota = k * k if curve.closed else (k - 1) ** 2
    return normalized_bending(curve) - constants().varpi_star * quota


# the square root of the smallest normal float: a coordinate difference at
# least this large has a normal square, so the computed distance is at least
# about as large; a smaller one may square to 0
_TINY_DIFF = math.sqrt(sys.float_info.min)


def _box_counts(curve: DiscreteCurve, centres: np.ndarray, eps: float) -> np.ndarray:
    """For each centre p, the number of samples whose computed coordinate
    differences from p are all at most w = 2 eps, or _TINY_DIFF if larger:
    every sample within eps of p is one, so the count bounds the clusters
    that `multiplicity(curve, p, eps)` counts.  Where the windows that hold
    the boxes are wide, the bound is the trivial n."""
    points, n = curve.points, curve.n_points
    x = points[:, 0]
    order = np.argsort(x, kind="stable")
    c = centres[:, 0]
    w = max(2.0 * eps, _TINY_DIFF)
    # each window in x-order holds every sample within eps of its centre:
    # such a sample's x lies within about eps of c, well inside c -/+ w, and
    # rounding c -/+ w keeps it inside, since rounding is monotone
    xs = x[order]
    lo = np.searchsorted(xs, c - w, side="left")
    counts = np.searchsorted(xs, c + w, side="right") - lo
    if counts.sum() > 16 * n:
        # only an eps far past the one multiplicity warns about gets here:
        # the boxes then hold many samples of each pass and prune nothing,
        # and the windows would cost more than a sixteenth of a full scan
        return np.full(len(centres), n)
    owner = np.repeat(np.arange(len(centres)), counts)
    j = order[np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    in_box = (np.abs(points[j] - centres[owner]) <= w).all(axis=1)
    return np.bincount(owner[in_box], minlength=len(centres))


def _best_multiple_point(curve: DiscreteCurve, eps: float):
    """The first marked vertex or, without marks, the first of the candidate
    samples (every (n // 256)-th) with the largest multiplicity above 1, else
    None.

    Candidates are visited by an upper bound on their multiplicity, the
    `_box_counts` count, largest first and then by index, and `multiplicity`
    is evaluated only while the bound could still beat the best count, or tie
    it at a smaller index: the result is the point that evaluating every
    candidate in index order finds.
    """
    pts = curve.points
    if curve.vertex_marks:
        return pts[curve.vertex_marks[0]]
    # check and warn as a full scan's first multiplicity call would, even
    # where the bounds leave no candidate to evaluate
    _check_cluster_eps(curve, eps)
    candidates = pts[::max(1, curve.n_points // 256)]
    bound = _box_counts(curve, candidates, eps)
    best, best_mult = -1, 1
    for i in np.argsort(-bound, kind="stable").tolist():
        if bound[i] < best_mult or (bound[i] == best_mult and i > best):
            break
        m = multiplicity(curve, candidates[i], eps)
        if m > best_mult or (m == best_mult and i < best):
            best, best_mult = i, m
    return None if best < 0 else candidates[best]


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
    _check_lambda(lam)
    L = length(curve)
    B = bending_energy(curve)
    return EnergyReport(
        length=L,
        bending=B,
        normalized_bending=L * B,
        total_curvature=total_curvature(curve),
        e_lambda=B + lam * L,
        lam=lam,
    )
