"""Discrete curves and analytic generators for the explicit elastica zoo.

Provides the polyline carrier (its points are checked, and its coordinate
rows and edge lengths computed, once, when it is built), the wavelike and figure-eight samplers, the
half-leaf building block, the tangent tuples that lay out leafed elasticae
(including the 3d propeller), the planar-closure sign search, and
multiplicity / embeddedness predicates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import elliptic
from .elliptic import constants

__all__ = [
    "DiscreteCurve",
    "TangentTuple",
    "sample_wavelike",
    "sample_figure_eight",
    "canonical_half_leaf",
    "build_tangent_tuple_propeller",
    "planar_tangent_tuple",
    "propeller_eight_tuple",
    "assemble_leafed",
    "propeller_curve",
    "search_planar_closure",
    "circle",
    "segment",
    "multiplicity",
    "is_embedded",
]


def _edge_vectors(points: np.ndarray, closed: bool) -> np.ndarray:
    if closed:
        return np.concatenate([points[1:], points[:1]]) - points
    return np.diff(points, axis=0)


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column dot products of two (dim, n) arrays, summed over the rows
    in order: a[0]*b[0] + a[1]*b[1] + ...  For a = b and fewer than 8 rows
    this is the order in which `np.linalg.norm(..., axis=1)` sums the squares
    of an (n, dim) array; `np.einsum` sums three or more terms in another
    order."""
    p = a * b
    s = p[0]
    for i in range(1, len(p)):
        s = s + p[i]
    return s


def _edge_norms(rows: np.ndarray, closed: bool) -> np.ndarray:
    """Edge lengths of the polygon whose coordinates are the rows of a
    (dim, n) array, closing edge last for closed curves: the bits of
    `np.linalg.norm(edge_vectors, axis=1)`.  An edge too long for a float
    comes out as inf, without a numpy warning."""
    if closed:
        ahead = np.concatenate([rows[:, 1:], rows[:, :1]], axis=1)
        behind = rows
    else:
        ahead, behind = rows[:, 1:], rows[:, :-1]
    with np.errstate(over="ignore"):
        e = ahead - behind
        return np.sqrt(_dot_rows(e, e))


def _checked_edge_norms(rows: np.ndarray, closed: bool) -> np.ndarray:
    """`_edge_norms` of (dim, n) coordinate rows that every curve must have:
    finite, with distinct consecutive points and finite edge lengths."""
    if not np.isfinite(rows).all():
        raise ValueError("non-finite coordinates")
    h = _edge_norms(rows, closed)
    if h.min() == 0.0:
        raise ValueError("consecutive points must be distinct")
    if h.max() == math.inf:
        raise ValueError("edge length is not finite (coordinates too large)")
    return h


def _check_closed(closed) -> bool:
    """The one check of an open/closed flag: a bool or numpy bool, returned
    as a Python bool."""
    if not isinstance(closed, (bool, np.bool_)):
        raise ValueError("closed must be true or false")
    return bool(closed)


@dataclass(frozen=True)
class DiscreteCurve:
    """Ordered point list in R^n with open/closed flag.

    Closed curves are interpreted cyclically (no duplicated endpoint).
    Points and edge lengths are stored read-only; curves are safe to share.
    `rows` holds the same coordinates as a read-only C-contiguous (dim, n)
    array, from which the queries compute: a reduction over the coordinates
    of narrow (n, dim) points runs n loops of length dim, over rows it runs
    dim loops of length n.  The edge lengths are computed once, by the
    constructor's check that consecutive points are distinct and their
    distances finite.
    """

    points: np.ndarray
    closed: bool = False
    vertex_marks: Optional[tuple] = None
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] < 2:
            raise ValueError("need at least 3 points in R^n, n >= 2")
        if self.vertex_marks is not None and not all(
                isinstance(m, (int, np.integer)) and not isinstance(m, bool)
                and 0 <= m < pts.shape[0] for m in self.vertex_marks):
            raise ValueError(f"vertex_marks must be integers in [0, {pts.shape[0]})")
        closed = _check_closed(self.closed)
        rows = np.array(pts.T, order="C")
        h = _checked_edge_norms(rows, closed)
        pts = pts.copy()
        for a in (pts, rows, h):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_edge_lengths", h)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def edge_vectors(self) -> np.ndarray:
        return _edge_vectors(self.points, self.closed)

    def edge_lengths(self) -> np.ndarray:
        """Edge norms, read-only, closing edge last for closed curves."""
        return self._edge_lengths

    def length(self) -> float:
        return float(self._edge_lengths.sum())

    def transformed(self, rotation: Optional[np.ndarray] = None,
                    translation: Optional[np.ndarray] = None) -> "DiscreteCurve":
        pts = self.points
        if rotation is not None:
            pts = pts @ np.asarray(rotation).T
        if translation is not None:
            pts = pts + np.asarray(translation)
        return DiscreteCurve(pts, closed=self.closed, vertex_marks=self.vertex_marks)


def _check_tangent_chain(t, closed: bool) -> np.ndarray:
    """t as a read-only float (k, n) copy, after checking that it has a row,
    two when open, that its rows are unit vectors (to 1e-12) and that each
    consecutive pair, the last and the first too when closed, meets at the
    angle 2 phi* (cosines to 1e-10)."""
    t = np.array(t, dtype=float)
    if t.ndim != 2 or t.shape[0] < 1:
        raise ValueError("tangents must be a (k, n) array")
    if not closed and t.shape[0] < 2:
        raise ValueError("an open tangent chain needs at least 2 tangents")
    gram = t @ t.T
    # the comparisons are written so that NaN fails too
    if not (np.abs(np.sqrt(gram.diagonal()) - 1.0) <= 1e-12).all():
        raise ValueError("tangents must be unit vectors to 1e-12")
    dots = gram.diagonal(1)   # the pairs (i, i + 1), and (k - 1, 0) when closed
    if closed:
        dots = np.concatenate([dots, gram[-1:, 0]])
    if not (np.abs(dots - math.cos(2.0 * constants().phi_star)) <= 1e-10).all():
        raise ValueError("consecutive tangents must meet at angle 2 phi* to 1e-10")
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class TangentTuple:
    """The blueprint of a leafed elastica with k leaves: unit vectors whose
    consecutive inner products are cos(2 phi*), a cyclic k-tuple when closed
    and an open (k+1)-chain otherwise."""

    omegas: np.ndarray
    closed: bool = True

    def __post_init__(self):
        closed = _check_closed(self.closed)
        object.__setattr__(self, "omegas", _check_tangent_chain(self.omegas, closed))
        object.__setattr__(self, "closed", closed)

    @property
    def dimension(self) -> int:
        return self.omegas.shape[1]

    @property
    def k(self) -> int:
        return self.omegas.shape[0] - (0 if self.closed else 1)


# ---------------------------------------------------------------------------
# analytic generators

def sample_wavelike(m: float, s_lo: float, s_hi: float, n_samples: int) -> DiscreteCurve:
    """Arclength samples of the planar wavelike elastica
    (2E(am(s,m),m) - s, -2 sqrt(m) cn(s,m)); signed curvature 2 sqrt(m) cn(s,m)."""
    if s_lo >= s_hi:
        raise ValueError("need s_lo < s_hi")
    _check_int(n_samples, 3, "n_samples")
    svals = np.linspace(s_lo, s_hi, n_samples)
    am = elliptic.amplitude(svals, m)
    pts = np.column_stack([2.0 * elliptic.incomplete_E(am, m) - svals,
                           -2.0 * math.sqrt(m) * np.cos(am)])
    return DiscreteCurve(pts, closed=False)


def sample_figure_eight(N_halves: int, n_samples: int) -> DiscreteCurve:
    """N_halves half-periods of the figure-eight elastica on [0, 2 N K(m*)],
    starting at the origin.  Even N_halves close up and give a closed curve,
    odd N_halves an open one."""
    _check_int(N_halves, 1, "N_halves")
    # at least 8 samples per half-period
    _check_int(n_samples, 8 * N_halves, "n_samples")
    c = constants()
    closed = N_halves % 2 == 0
    total = 2.0 * N_halves * c.K_star
    if closed:
        svals = np.linspace(0.0, total, n_samples, endpoint=False)
    else:
        svals = np.linspace(0.0, total, n_samples)
    u = svals - c.K_star
    am = elliptic.amplitude(u, c.m_star)
    pts = np.column_stack([-2.0 * elliptic.incomplete_E(am, c.m_star) + u,
                           2.0 * math.sqrt(c.m_star) * np.cos(am)])
    if closed:
        # the analytic curve returns to the origin; pin the wrap-around exactly
        pts[0] = 0.0
    return DiscreteCurve(pts, closed=closed)


def canonical_half_leaf(n_samples: int) -> DiscreteCurve:
    """One half-period [0, 2K(m*)] of the figure-eight: starts and ends at the
    origin with tangents at angle 2 phi* and zero curvature at the ends."""
    _check_int(n_samples, 16, "n_samples")
    return sample_figure_eight(1, n_samples)


def build_tangent_tuple_propeller() -> TangentTuple:
    """The symmetric Omega*(3,3) triple: three unit vectors on a cone about
    e3, pairwise at angle 2 phi*."""
    c = constants()
    cos2phi = math.cos(2.0 * c.phi_star)
    cos2_theta = (cos2phi + 0.5) / 1.5
    if cos2_theta <= 0.0:
        raise RuntimeError("cos(2 phi*) <= -1/2: propeller tuple infeasible; constants corrupted")
    cos_t = math.sqrt(cos2_theta)
    sin_t = math.sqrt(1.0 - cos2_theta)
    omegas = np.array([
        [sin_t * math.cos(2.0 * math.pi * i / 3.0),
         sin_t * math.sin(2.0 * math.pi * i / 3.0),
         cos_t]
        for i in range(1, 4)
    ])
    return TangentTuple(omegas)


def planar_tangent_tuple(signs: Sequence[int]) -> TangentTuple:
    """Planar tuple obtained by successive rotations of e1 through
    sigma_i * 2 phi*.

    Only valid when the signed angles close up modulo 2 pi (e.g. the balanced
    two-leaf sequence (+1, -1) producing the figure-eight)."""
    c = constants()
    angles = 2.0 * c.phi_star * np.cumsum(np.asarray(signs, dtype=float))
    omegas = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return TangentTuple(omegas)


def propeller_eight_tuple(k: int) -> TangentTuple:
    """The propeller + (k-3)/2 figure-eights composite tuple in R^3, k odd >= 5."""
    _check_int(k, 5, "k")
    if k % 2 == 0:
        raise ValueError("composite tuple needs odd k >= 5")
    prop = build_tangent_tuple_propeller().omegas
    c = constants()
    # append (k-3) vectors alternating omega_3 rotated by +-2 phi* about an
    # axis orthogonal to omega_3, i.e. a planar figure-eight chain hanging
    # off the last propeller tangent.
    last = prop[-1]
    # orthonormal partner in the plane spanned by last and e1 (last is never
    # parallel to e1 for the symmetric propeller)
    e = np.array([1.0, 0.0, 0.0])
    w = e - np.dot(e, last) * last
    w /= np.linalg.norm(w)
    two_phi = 2.0 * c.phi_star
    extra = []
    cur = 0.0
    for i in range(k - 3):
        cur += two_phi if i % 2 == 0 else -two_phi
        extra.append(math.cos(cur) * last + math.sin(cur) * w)
    omegas = np.vstack([prop, np.array(extra)])
    return TangentTuple(omegas)


def _leaf_frame(a: np.ndarray, b: np.ndarray) -> tuple:
    """Orthonormal (u, w) in span{a, b} with the bisector along u and
    a = cos(phi*) u + sin(phi*) w, b = cos(phi*) u - sin(phi*) w."""
    u = a + b
    w = a - b
    return u / np.linalg.norm(u), w / np.linalg.norm(w)


def assemble_leafed(tangents: TangentTuple, n_samples_per_leaf: int) -> DiscreteCurve:
    """Concatenate rigid-motion copies of the canonical half-leaf, scaled to
    unit length, one per tangent pair, all joints at the origin; C^1 at
    joints by construction.  The tuple's constructor has checked the chain."""
    t = tangents.omegas
    leaf = canonical_half_leaf(n_samples_per_leaf)
    xy = leaf.points * (1.0 / leaf_reference_length())
    pieces = []
    marks = []
    offset = 0
    for i in range(tangents.k):
        u, w = _leaf_frame(t[i], t[(i + 1) % len(t)])
        pts = np.outer(xy[:, 0], u) + np.outer(xy[:, 1], w)
        # joints exactly at the origin
        pts[0] = 0.0
        pts[-1] = 0.0
        pieces.append(pts[:-1])  # drop duplicated joint between leaves
        marks.append(offset)
        offset += pts.shape[0] - 1
    points = np.vstack(pieces)
    if not tangents.closed:
        points = np.vstack([points, np.zeros((1, tangents.dimension))])
        marks.append(points.shape[0] - 1)
    return DiscreteCurve(points, closed=tangents.closed, vertex_marks=tuple(marks))


def leaf_reference_length() -> float:
    """Arclength 2 K(m*) of the canonical half-leaf."""
    return 2.0 * constants().K_star


def propeller_curve(n_samples_per_leaf: int = 256) -> DiscreteCurve:
    """The closed 3-leafed elastica in R^3 built on the symmetric tuple."""
    return assemble_leafed(build_tangent_tuple_propeller(), n_samples_per_leaf)


# ---------------------------------------------------------------------------
# planar closure search

def _check_eps(eps: float, name: str = "eps") -> None:
    """The one check of a tolerance: finite and positive."""
    # written so that NaN fails too
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"{name} must be finite and positive")


def _check_int(value, low: int, name: str) -> None:
    """The one check of a count: an integer (not a bool) >= low."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}")


def search_planar_closure(k: int, eps: float) -> list:
    """All sign sequences sigma in {-1,1}^k with sum(sigma) * 2 phi* within
    eps of a multiple of 2 pi.  Empty output for odd k is the numerical
    footprint of the planar nonexistence obstruction."""
    _check_eps(eps)
    _check_int(k, 1, "k")
    if k > 25:
        raise ValueError("k > 25 exceeds the 2^k output budget")
    two_phi = 2.0 * constants().phi_star
    found = []
    # sum(sigma) = k - 2q for q minus signs, so a whole count class closes or
    # none of it does; sorting restores the product((-1, 1), repeat=k) order.
    for q in range(k + 1):
        total = (k - 2 * q) * two_phi
        dist = abs(total - 2.0 * math.pi * round(total / (2.0 * math.pi)))
        if dist < eps:
            for minus in combinations(range(k), q):
                signs = [1] * k
                for i in minus:
                    signs[i] = -1
                found.append(tuple(signs))
    return sorted(found)


# ---------------------------------------------------------------------------
# elementary generators

def circle(n: int, radius: float, n_samples: int, turns: int = 1) -> DiscreteCurve:
    """Closed planar circle embedded in R^n (first two coordinates); turns > 1
    gives a multiply covered circle."""
    _check_int(n, 2, "dimension")
    if radius <= 0:
        raise ValueError("radius must be positive")
    _check_int(n_samples, 3, "n_samples")
    _check_int(turns, 1, "turns")
    theta = np.linspace(0.0, 2.0 * math.pi * turns, n_samples, endpoint=False)
    pts = np.zeros((n_samples, n))
    pts[:, 0] = radius * np.cos(theta)
    pts[:, 1] = radius * np.sin(theta)
    return DiscreteCurve(pts, closed=True)


def segment(p: np.ndarray, q: np.ndarray, n_samples: int) -> DiscreteCurve:
    """Uniform samples of the straight segment from p to q."""
    _check_int(n_samples, 3, "n_samples")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    tvals = np.linspace(0.0, 1.0, n_samples)[:, None]
    return DiscreteCurve(p + tvals * (q - p), closed=False)


# ---------------------------------------------------------------------------
# multiplicity and embeddedness

def _check_cluster_eps(curve: DiscreteCurve, eps: float) -> None:
    """The check `multiplicity` makes of eps, and its warning when eps is
    coarse for the curve's sampling."""
    _check_eps(eps)
    min_edge = curve.edge_lengths().min()
    if eps > 0.5 * min_edge:
        import warnings
        warnings.warn(f"eps={eps:g} exceeds half the minimum edge length {min_edge:g}; "
                      "cluster separation may be unreliable")


def multiplicity(curve: DiscreteCurve, point: np.ndarray, eps: float) -> int:
    """Count maximal clusters of samples within eps of `point`, separated by
    excursions beyond 2 eps.  Clusters are the discrete shadows of preimage
    points, so sampling density does not inflate the count."""
    _check_cluster_eps(curve, eps)
    diff = curve.rows - np.asarray(point, dtype=float).reshape(-1, 1)
    d = np.sqrt(_dot_rows(diff, diff))
    inside = d <= eps
    if not inside.any():
        return 0
    # +1 inside the eps ball, -1 escaped beyond 2 eps, 0 neutral; a cluster
    # starts at an inside sample whose last non-neutral predecessor escaped
    label = np.where(inside, 1, np.where(d > 2.0 * eps, -1, 0))
    marked = label[label != 0]
    count = int(np.count_nonzero((marked == 1)
                                 & (np.concatenate(([-1], marked[:-1])) == -1)))
    if curve.closed and count > 1:
        # merge the first and last clusters if the curve never leaves the
        # 2 eps ball across the seam between them
        first = int(np.argmax(inside))
        last = len(d) - 1 - int(np.argmax(inside[::-1]))
        seam = np.concatenate([d[last + 1:], d[:first]])
        if not (seam > 2.0 * eps).any():
            count -= 1
    return count


# the square root of the smallest normal float: a coordinate difference at
# least this large has a normal square, so the computed distance is at least
# about as large; a smaller one may square to 0
_TINY_DIFF = math.sqrt(sys.float_info.min)


def _box_counts(curve: DiscreteCurve, centres: np.ndarray, eps: float) -> np.ndarray:
    """For each centre p, a column of the (dim, m) rows `centres`, the number
    of samples whose computed coordinate differences from p are all at most
    w = 2 eps, or _TINY_DIFF if larger: every sample within eps of p is one,
    so the count bounds the clusters that `multiplicity(curve, p, eps)`
    counts.  Where the windows that hold the boxes are wide, the bound is the
    trivial n."""
    rows, n = curve.rows, curve.n_points
    order = np.argsort(rows[0], kind="stable")
    c = centres[0]
    w = max(2.0 * eps, _TINY_DIFF)
    # each window in x-order holds every sample within eps of its centre:
    # such a sample's x lies within about eps of c, well inside c -/+ w, and
    # rounding c -/+ w keeps it inside, since rounding is monotone
    xs = rows[0][order]
    lo = np.searchsorted(xs, c - w, side="left")
    counts = np.searchsorted(xs, c + w, side="right") - lo
    total = int(counts.sum())
    if total > 16 * n:
        # the windows then hold many samples of each pass and prune little;
        # the cap keeps their index arrays O(n): a sixteenth of a full scan
        # for the grid's 256 centres, 16 samples a window on average when
        # every sample is a centre
        return np.full(centres.shape[1], n)
    owner = np.repeat(np.arange(centres.shape[1]), counts)
    j = order[np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    in_box = np.ones(total, dtype=bool)
    for row, centre_row in zip(rows, centres):
        in_box &= np.abs(row[j] - centre_row[owner]) <= w
    return np.bincount(owner[in_box], minlength=centres.shape[1])


def _any_k_fold(curve: DiscreteCurve, samples: np.ndarray, bound: np.ndarray,
                k: int, eps: float) -> bool:
    """Whether one of the samples (indices, in order) whose `_box_counts`
    bound reaches k has `multiplicity` >= k, tried up to the first that
    does."""
    return any(multiplicity(curve, curve.rows[:, i], eps) >= k
               for i in samples[bound >= k].tolist())


def _has_point_of_multiplicity(curve: DiscreteCurve, k: int, eps: float) -> bool:
    """Whether the first marked vertex or, without marks, a sample has
    `multiplicity` >= k at eps.

    Every (n // 256)-th sample is tried first, in index order, and every
    other sample, in index order, only if none of those passes; each pass
    tries only the samples whose `_box_counts` bound reaches k."""
    # check and warn as multiplicity does, even where no sample is tried
    _check_cluster_eps(curve, eps)
    rows, n = curve.rows, curve.n_points
    if curve.vertex_marks:
        return multiplicity(curve, rows[:, curve.vertex_marks[0]], eps) >= k
    # the grid first: its boxes cost about a third of every sample's to count
    stride = max(1, n // 256)
    grid = np.arange(0, n, stride)
    if _any_k_fold(curve, grid, _box_counts(curve, rows[:, ::stride], eps), k, eps):
        return True
    if stride == 1:
        return False
    bound = _box_counts(curve, rows, eps)
    bound[grid] = 0   # tried by the first pass
    return _any_k_fold(curve, np.arange(n), bound, k, eps)


_GRID = 2.0**40


def _snap(rows: np.ndarray) -> np.ndarray:
    """Integer coordinates, as (dim, n) rows, of the points with coordinate
    rows `rows` on a grid of 2^-40 times the half-extent of their bounding
    box, centred in it."""
    box_lo, box_hi = rows.min(axis=1), rows.max(axis=1)
    centre = 0.5 * box_lo + 0.5 * box_hi
    half = float((0.5 * box_hi - 0.5 * box_lo).max())
    return np.rint((rows - centre[:, None]) * (_GRID / half)).astype(np.int64)


def _orient(a, b, c) -> int:
    # points as pairs of Python ints: exact, no overflow
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a, b, p) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_intersect_2d(a, b, c, d) -> bool:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def _segment_distance(p1, p2, q1, q2) -> float:
    """Distance between two segments of positive length."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    c = d1 @ r
    b = d1 @ d2
    denom = a * e - b * b
    # a determinant within rounding of a * e: the segments count as parallel
    parallel = denom <= sys.float_info.epsilon * a * e
    s = 0.0 if parallel else np.clip((b * f - c * e) / denom, 0.0, 1.0)
    t = np.clip((b * s + f) / e, 0.0, 1.0)
    s = np.clip((b * t - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + s * d1 - (q1 + t * d2)))


def _candidate_pairs(lo: np.ndarray, hi: np.ndarray, closed: bool):
    """Non-adjacent segment pairs (i, j), i < j, whose boxes [lo, hi] overlap,
    lo and hi given as (dim, n) rows: yields them in batches (i, j) of index
    arrays, each pair once.

    Sorted sweep: with the segments ordered by lowest x, offset k compares
    each segment with its k-th successor, and the sweep stops at the first
    offset where no successor starts before its segment ends.  Each offset's
    pairs are one batch, yielded before the next offset is compared, so a
    caller that stops early skips the rest of the sweep."""
    n = lo.shape[1]
    order = np.argsort(lo[0], kind="stable")
    lo, hi = lo.take(order, axis=1), hi.take(order, axis=1)
    # reach[p]: how many sorted successors of p start before p ends in x
    reach = np.searchsorted(lo[0], hi[0], side="right") - 1 - np.arange(n)
    live = np.flatnonzero(reach > 0)
    for k in range(1, int(reach.max()) + 1):
        live = live[reach[live] >= k]
        ahead = live + k
        hit = np.ones(live.size, dtype=bool)
        for lo_c, hi_c in zip(lo[1:], hi[1:]):
            hit &= (lo_c[ahead] <= hi_c[live]) & (hi_c[ahead] >= lo_c[live])
        a, b = order[live[hit]], order[ahead[hit]]
        # segments i and j are adjacent when |i - j| is 1, or n - 1 for the
        # closing segment of a closed curve and segment 0
        gap = np.abs(a - b)
        keep = (gap >= 2) & (gap != n - 1) if closed else gap >= 2
        if keep.any():
            a, b = a[keep], b[keep]
            yield np.minimum(a, b), np.maximum(a, b)


def is_embedded(curve: DiscreteCurve) -> bool:
    """True iff no two non-adjacent segments intersect.

    Planar curves use exact integer orientation predicates on coordinates
    snapped to a grid of 2^-40 times the half-extent of the curve's box;
    higher dimensions test segment-segment distance against 1e-9 x length.
    Neither uses an absolute threshold, so the answer does not depend on
    the curve's scale or position.  Each batch of candidate pairs is tested
    as the sweep yields it, so a crossing curve stops at its first crossing."""
    rows = curve.rows
    # segment i runs from point i to point i + 1, cyclically when closed
    ends = np.concatenate([rows[:, 1:], rows[:, :1]], axis=1) if curve.closed else rows[:, 1:]
    starts = rows[:, :ends.shape[1]]
    lo, hi = np.minimum(starts, ends), np.maximum(starts, ends)
    if curve.dimension == 2:
        xs = ys = None
        for i, j in _candidate_pairs(lo, hi, curve.closed):
            if xs is None:
                # point i + 1 ends segment i; the copy of point 0 at index n
                # ends a closed curve's last segment
                xs, ys = (r + r[:1] for r in _snap(rows).tolist())
            for a, b in zip(i.tolist(), j.tolist()):
                if _segments_intersect_2d((xs[a], ys[a]), (xs[a + 1], ys[a + 1]),
                                          (xs[b], ys[b]), (xs[b + 1], ys[b + 1])):
                    return False
        return True
    tol = 1e-9 * curve.length()
    for i, j in _candidate_pairs(lo - tol, hi + tol, curve.closed):
        for a, b in zip(i.tolist(), j.tolist()):
            if _segment_distance(starts[:, a], ends[:, a], starts[:, b], ends[:, b]) < tol:
                return False
    return True
