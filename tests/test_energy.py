"""Energy functionals: closed forms, scaling laws, inequalities.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elastica import curves, energy
from elastica.elliptic import complete_E, complete_K, constants
from elastica.random_shapes import perturbed_circle


def _rot(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def test_circle_energies():
    """[TRIVIAL] circle of radius r: L = 2 pi r, B = 2 pi / r, Bbar = 4 pi^2."""
    for r in (0.5, 1.0, 3.0):
        c = curves.circle(2, r, 1024)
        assert energy.length(c) == pytest.approx(2 * math.pi * r, rel=1e-5)
        assert energy.bending_energy(c) == pytest.approx(2 * math.pi / r, rel=1e-4)
        assert energy.normalized_bending(c) == pytest.approx(4 * math.pi ** 2, rel=1e-4)


def test_wavelike_closed_forms():
    """[PAPER] one wavelike period: L = 2K, B = 8(E - (1-m)K)."""
    m = 0.7
    K, E = complete_K(m), complete_E(m)
    c = curves.sample_wavelike(m, -K, K, 4096)
    assert energy.length(c) == pytest.approx(2 * K, rel=1e-5)
    assert energy.bending_energy(c) == pytest.approx(
        8 * (E - (1 - m) * K), rel=1e-4)


def test_scaling_laws():
    """[DERIVED] B(c g) = B/c, L(c g) = c L, Bbar invariant."""
    g = curves.sample_figure_eight(2, 1024)
    c = 2.7
    gc = curves.DiscreteCurve(g.points * c, closed=True)
    assert energy.bending_energy(gc) == pytest.approx(
        energy.bending_energy(g) / c, rel=1e-12)
    assert energy.length(gc) == pytest.approx(energy.length(g) * c, rel=1e-12)
    assert energy.normalized_bending(gc) == pytest.approx(
        energy.normalized_bending(g), rel=1e-12)


def test_normalized_bending_of_a_tiny_circle():
    """[TRIVIAL] a circle of radius 1e-12 (edges of 6e-15) has the B-bar of
    the unit circle; an absolute edge floor of 1e-14 used to reject it."""
    assert energy.normalized_bending(curves.circle(2, 1e-12, 1024)) == pytest.approx(
        energy.normalized_bending(curves.circle(2, 1.0, 1024)), rel=1e-12)


@given(shape=st.sampled_from(["perturbed-circle", "propeller"]),
       exponent=st.floats(-100.0, 100.0),
       seed=st.integers(0, 2**32 - 1),
       shift=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_scale_free_functionals_invariant_under_similarity(shape, exponent, seed, shift):
    """[DERIVED] B-bar = L B and the total curvature do not change when the
    curve is scaled by 10^exponent, rotated (or reflected) and translated by
    up to 10 times its scale."""
    curve = (perturbed_circle(3, 256, 0.05) if shape == "perturbed-circle"
             else curves.propeller_curve(256))
    scale = 10.0 ** exponent
    moved = curve.transformed(rotation=scale * _rot(curve.dimension, seed),
                              translation=scale * np.array(shift[:curve.dimension]))
    for fn in (energy.normalized_bending, energy.total_curvature):
        assert fn(moved) == pytest.approx(fn(curve), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_rigid_motion_invariance(seed):
    """[DERIVED] all functionals invariant under random rotations/translations."""
    g = curves.sample_figure_eight(2, 512)
    h = g.transformed(rotation=_rot(2, seed), translation=np.array([3.0, -1.0]))
    for fn in (energy.length, energy.bending_energy, energy.total_curvature):
        assert fn(h) == pytest.approx(fn(g), rel=1e-10)


def test_total_curvature_circle():
    """[TRIVIAL] TC of a round circle is 2 pi."""
    c = curves.circle(2, 1.0, 2048)
    assert energy.total_curvature(c) == pytest.approx(2 * math.pi, rel=1e-3)


def test_cauchy_schwarz_tc_squared_le_LB():
    """[DERIVED] TC^2 <= L * B on assorted curves."""
    for g in (curves.circle(2, 1.0, 512),
              curves.sample_figure_eight(2, 512),
              curves.sample_wavelike(0.4, -1.0, 1.5, 512)):
        tc = energy.total_curvature(g)
        assert tc * tc <= energy.length(g) * energy.bending_energy(g) * (1 + 1e-12)


def test_e_lambda_am_gm():
    """[PAPER] E_lambda^2 >= 4 lambda Bbar (the HM-AM step)."""
    g = curves.sample_figure_eight(2, 1024)
    for lam in (0.2, 1.0, 3.0):
        el = energy.e_lambda(g, lam)
        assert el * el >= 4.0 * lam * energy.normalized_bending(g) * (1 - 1e-12)


def test_e_lambda_rejects_negative_lambda():
    """[TRIVIAL] domain validation."""
    with pytest.raises(ValueError):
        energy.e_lambda(curves.circle(2, 1.0, 64), -1.0)


@pytest.mark.parametrize("fn, lam", [
    (energy.report, -1.0), (energy.report, math.nan), (energy.report, math.inf),
    (energy.e_lambda, math.nan), (energy.e_lambda, math.inf)],
    ids=["-1.0", "nan", "inf", "e_lambda-nan", "e_lambda-inf"])
def test_energy_report_rejects_negative_lambda(fn, lam):
    """[TRIVIAL] report shares e_lambda's domain check, which NaN and inf
    fail too (e_lambda(circle, nan) used to return nan, and inf inf)."""
    with pytest.raises(ValueError, match="^lambda must be finite and nonnegative$"):
        fn(curves.circle(2, 1.0, 64), lam)


def test_curvature_convergence_order():
    """[DERIVED] discrete B converges to 2 pi / r at second order."""
    errs = []
    for n in (64, 128, 256):
        c = curves.circle(2, 1.0, n)
        errs.append(abs(energy.bending_energy(c) - 2 * math.pi))
    assert math.log2(errs[0] / errs[1]) > 1.8
    assert math.log2(errs[1] / errs[2]) > 1.8


def test_quantization_ladder():
    """[PAPER] Bbar thresholds 4 pi^2 < 4 varpi* < 16 pi^2 realized by
    circle / figure-eight / two-fold circle."""
    cst = constants()
    b1 = energy.normalized_bending(curves.circle(2, 1.0, 1024))
    b2 = energy.normalized_bending(curves.sample_figure_eight(2, 1024))
    b3 = energy.normalized_bending(curves.circle(2, 1.0, 1024, turns=2))
    assert b1 == pytest.approx(4 * math.pi ** 2, rel=5e-3)
    assert b2 == pytest.approx(4 * cst.varpi_star, rel=5e-3)
    assert b3 == pytest.approx(16 * math.pi ** 2, rel=5e-3)
    assert b1 < b2 < b3


def test_li_yau_margin_closed_figure_eight():
    """[PAPER] multiplicity-2 closed witness: Bbar ~ 4 varpi*, margin ~ 0."""
    g = curves.sample_figure_eight(2, 2048)
    margin = energy.li_yau_margin(g, 2)
    assert abs(margin) / (4 * constants().varpi_star) < 5e-3


def test_li_yau_margin_open_half_leaf():
    """[PAPER] multiplicity-2 open witness uses the (k-1)^2 quota."""
    g = curves.canonical_half_leaf(2048)
    margin = energy.li_yau_margin(g, 2)
    assert abs(margin) / constants().varpi_star < 5e-3


def test_li_yau_margin_requires_multiplicity():
    """[TRIVIAL] a circle has no multiplicity-2 point."""
    with pytest.raises(ValueError):
        energy.li_yau_margin(curves.circle(2, 1.0, 256), 2)


@pytest.mark.parametrize("k", [2.5, 2.0, 1, 0, -3, True, False, "2", None])
def test_li_yau_margin_rejects_k_that_is_not_an_integer_from_2(k):
    """[TRIVIAL] k is checked where it enters: k = 2.5 used to raise "no point
    of multiplicity >= 2.5 found" after a full search."""
    with pytest.raises(ValueError, match="^k must be an integer >= 2$"):
        energy.li_yau_margin(curves.sample_figure_eight(2, 512), k)


def test_li_yau_margin_accepts_numpy_integers():
    """[TRIVIAL] a numpy integer k is an integer."""
    g = curves.sample_figure_eight(2, 512)
    assert energy.li_yau_margin(g, np.int64(2)) == energy.li_yau_margin(g, 2)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_li_yau_margin_rejects_bad_eps_before_the_search(eps):
    """[TRIVIAL] eps gets multiplicity's check before any pruning, so NaN is
    "eps must be finite and positive", not an empty search."""
    with pytest.raises(ValueError, match="^eps must be finite and positive$"):
        energy.li_yau_margin(curves.sample_figure_eight(2, 512), 2, eps)


def _best_multiple_point_loop(curve, eps):
    """The full candidate scan that the margin once made: the first marked
    vertex or, without marks, among every (n // 256)-th sample in index
    order, the first with the largest multiplicity above 1."""
    pts = curve.points
    if curve.vertex_marks:
        return pts[curve.vertex_marks[0]]
    best, best_mult = None, 1
    stride = max(1, curve.n_points // 256)
    for p in pts[::stride]:
        m = curves.multiplicity(curve, p, eps)
        if m > best_mult:
            best, best_mult = p, m
    return best


def _full_scan_decision(curve, k, eps):
    """The oracle: whether the full scan's point has multiplicity >= k or,
    if it has not, for an unmarked curve with samples off the grid, whether
    one of all its samples, tried in index order, has."""
    point = _best_multiple_point_loop(curve, eps)
    if point is not None and curves.multiplicity(curve, point, eps) >= k:
        return True
    if curve.vertex_marks or curve.n_points < 512:
        return False
    return any(curves.multiplicity(curve, p, eps) >= k for p in curve.points)


def _moved_eight(halves, scale, seed):
    """A 2048-point figure-eight rotated, scaled and translated by 1e6 times
    the scale."""
    g = curves.sample_figure_eight(halves, 2048)
    return g.transformed(rotation=scale * _rot(2, seed),
                         translation=scale * 1e6 * np.array([0.6, -0.8]))


def _marked_eight(shift, mark):
    """The 2048-point figure-eight, its samples shifted cyclically by
    `shift`, with one vertex mark."""
    g = curves.sample_figure_eight(2, 2048)
    return curves.DiscreteCurve(np.roll(g.points, shift, axis=0), closed=True,
                                vertex_marks=(mark,))


_SCAN_CURVES = {
    # name: (curve factory, k)
    "eight-2-at-1e-8": (lambda: _moved_eight(2, 1e-8, 0), 2),
    "eight-2-at-1": (lambda: _moved_eight(2, 1.0, 1), 2),
    "eight-2-at-1e8": (lambda: _moved_eight(2, 1e8, 2), 2),
    "eight-4-at-1e-8": (lambda: _moved_eight(4, 1e-8, 3), 2),
    "eight-4-at-1": (lambda: _moved_eight(4, 1.0, 4), 2),
    "eight-4-at-1e8": (lambda: _moved_eight(4, 1e8, 5), 2),
    "2-turn": (lambda: curves.circle(2, 1.0, 1200, turns=2), 2),
    "3-turn": (lambda: curves.circle(2, 1.0, 1200, turns=3), 3),
    "4-turn": (lambda: curves.circle(2, 1.0, 1200, turns=4), 4),
    "propeller-3d": (lambda: curves.DiscreteCurve(curves.propeller_curve(512).points,
                                                  closed=True), 3),
    "open-half-leaf": (lambda: curves.canonical_half_leaf(2048), 2),
    "marked-propeller": (lambda: curves.propeller_curve(512), 3),
    "eight-marked-at-a-simple-point": (lambda: _marked_eight(0, 5), 2),
    "shifted-eight-marked-at-its-double-point": (lambda: _marked_eight(700, 700), 2),
}
_SCAN_CACHE = {}


def _scan_curve(name):
    if name not in _SCAN_CACHE:
        factory, k = _SCAN_CURVES[name]
        _SCAN_CACHE[name] = factory(), k
    return _SCAN_CACHE[name]


def _margin_or_error(curve, k, eps):
    try:
        return energy.li_yau_margin(curve, k, eps)
    except ValueError as err:
        return str(err)


def _full_scan_margin_or_error(curve, k, eps):
    """`_margin_or_error` with the full scan's decision patched in."""
    with mock.patch.object(energy, "_has_point_of_multiplicity", _full_scan_decision):
        return _margin_or_error(curve, k, eps)


@pytest.mark.filterwarnings("ignore:eps=.*minimum edge length")
@pytest.mark.parametrize("rel_eps", [1e-6, 1e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("name", list(_SCAN_CURVES))
def test_pruned_scan_finds_the_full_scans_point(name, rel_eps):
    """[DERIVED] for k = 2, 3, 4 li_yau_margin gives the value, or the error,
    that it gives with the full scan's decision patched in, under rigid
    motion, scales 1e-8 to 1e8 and a translation of 1e6 times the scale, in
    3D, open and with vertex marks."""
    curve, _ = _scan_curve(name)
    eps = rel_eps * curve.length()
    for k in (2, 3, 4):
        assert _margin_or_error(curve, k, eps) == _full_scan_margin_or_error(curve, k, eps)


@pytest.mark.parametrize("shift", [700, 712])
def test_margin_finds_a_double_point_on_or_off_the_candidate_grid(shift):
    """[DERIVED] shifted by 700 samples, the 2048-point figure-eight has its
    double point at samples 700 and 1724, off the grid of every 8th sample,
    where the search over all samples finds it; shifted by 712 it has it on
    the grid (though off every 16th sample).  Both give the margin of the
    unshifted curve, and the full scan's."""
    g = curves.sample_figure_eight(2, 2048)
    curve = curves.DiscreteCurve(np.roll(g.points, shift, axis=0), closed=True)
    eps = 1e-6 * curve.length()
    assert curves.multiplicity(curve, curve.points[shift], eps) == 2
    margin = _margin_or_error(curve, 2, eps)
    assert margin == _full_scan_margin_or_error(curve, 2, eps)
    assert margin == pytest.approx(energy.li_yau_margin(g, 2, eps), rel=1e-9)


_RELABELLED_CURVES = {
    "eight-2": lambda: curves.sample_figure_eight(2, 2048),
    "eight-4": lambda: _moved_eight(4, 1.0, 4),
    "2-turn": lambda: curves.circle(2, 1.0, 1200, turns=2),
    "3-turn-3d": lambda: curves.circle(3, 1.0, 1200, turns=3),
    "propeller": lambda: curves.DiscreteCurve(curves.propeller_curve(512).points,
                                              closed=True),
}
_RELABELLED_CACHE = {}


@pytest.mark.filterwarnings("ignore:eps=.*minimum edge length")
@given(name=st.sampled_from(sorted(_RELABELLED_CURVES)), shift=st.integers(0, 4095),
       k=st.sampled_from([2, 3, 4]), rel_eps=st.sampled_from([1e-6, 1e-3, 1e-2]))
def test_margin_is_invariant_under_cyclic_relabelling(name, shift, k, rel_eps):
    """[DERIVED] the margin of an unmarked closed curve, or its error, does
    not depend on which sample is numbered 0: rolling the samples gives the
    same error, or the same margin up to the round-off of summing B in
    another order."""
    if name not in _RELABELLED_CACHE:
        _RELABELLED_CACHE[name] = _RELABELLED_CURVES[name]()
    curve = _RELABELLED_CACHE[name]
    rolled = curves.DiscreteCurve(np.roll(curve.points, shift % curve.n_points, axis=0),
                                  closed=True)
    eps = rel_eps * curve.length()
    want, got = _margin_or_error(curve, k, eps), _margin_or_error(rolled, k, eps)
    if isinstance(want, str):
        assert got == want
    else:
        quota = constants().varpi_star * k * k
        assert got == pytest.approx(want, rel=0, abs=1e-12 * quota)


@pytest.mark.filterwarnings("ignore:eps=.*minimum edge length")
@given(cells=st.lists(st.tuples(*[st.integers(0, 12)] * 3), min_size=3, max_size=300),
       dim=st.sampled_from([2, 3]), closed=st.booleans(),
       scale=st.sampled_from([1e-160, 1e-9, 1.0, 1e9]),
       rel_eps=st.sampled_from([0.05, 0.25, 0.5, 0.6, 1.0]))
@settings(max_examples=300)
def test_pruned_scan_matches_full_scan_on_polygons_with_repeated_points(
        cells, dim, closed, scale, rel_eps):
    """[DERIVED] on random polygons on a lattice of spacing 1/4, which revisit
    their points and pass near them, some at exactly eps, li_yau_margin
    gives for k = 2, 3 the value, or the error, that it gives with the full
    scan's decision patched in (at scale 1e-160 that value is inf: B
    overflows)."""
    pts = []
    for cell in cells:
        if not pts or cell[:dim] != pts[-1]:
            pts.append(cell[:dim])
    if closed and len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    assume(len(pts) >= 3)
    curve = curves.DiscreteCurve(0.25 * scale * np.array(pts, dtype=float), closed=closed)
    eps = rel_eps * scale
    for k in (2, 3):
        assert _margin_or_error(curve, k, eps) == _full_scan_margin_or_error(curve, k, eps)


def test_pruned_scan_counts_samples_whose_squared_distance_underflows():
    """[TRIVIAL] sample 3 lies 1e-163 from sample 0, so its squared distance
    underflows to 0 and multiplicity counts it within eps = 1e-170 of sample
    0: its bound must count it too, though it is 1e-163 > 2 eps away."""
    curve = curves.DiscreteCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1e-163, 0.0],
                                  [-1.0, -1.0]])
    assert curves.multiplicity(curve, curve.points[0], 1e-170) == 2
    assert curves._has_point_of_multiplicity(curve, 2, 1e-170)
    for k in (2, 3):
        assert (_margin_or_error(curve, k, 1e-170)
                == _full_scan_margin_or_error(curve, k, 1e-170))


def _counting_multiplicity(monkeypatch):
    calls = []
    real = curves.multiplicity

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(curves, "multiplicity", counted)
    return calls


@pytest.mark.filterwarnings("ignore:eps=.*minimum edge length")
@pytest.mark.parametrize("rel_eps", [1e-6, 1e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("name", ["eight-2-at-1", "eight-4-at-1", "2-turn", "3-turn",
                                  "4-turn"])
def test_pruned_scan_calls_multiplicity_rarely(name, rel_eps, monkeypatch):
    """[DERIVED] on the figure-eights and k-turn circles the test for a
    k-fold point evaluates multiplicity at most twice wherever it finds one,
    at every eps, and never more often than the full scan with its margin's
    evaluation, which makes 257 or 301.  It finds none only on the 4-turn
    circle at eps = 0.05 L, larger than the radius, where both scan fully:
    every sample, after the grid."""
    curve, k = _scan_curve(name)
    eps = rel_eps * curve.length()
    calls = _counting_multiplicity(monkeypatch)
    found = curves._has_point_of_multiplicity(curve, k, eps)
    ours = len(calls)
    assert found == _full_scan_decision(curve, k, eps)
    assert found == ((name, rel_eps) != ("4-turn", 5e-2))
    assert ours <= len(calls) - ours
    if found:
        assert ours <= 2


def test_pruned_scan_warns_on_coarse_eps_without_evaluating(monkeypatch):
    """[TRIVIAL] the coarse-eps warning comes even when no sample's bound
    calls for a multiplicity evaluation: here the one short edge, between
    samples 1 and 2 of a 768-gon, puts two samples in each of their boxes,
    fewer than k = 3."""
    pts = curves.circle(2, 1.0, 768).points.copy()
    pts[2] = pts[1] + 1e-9 * (pts[2] - pts[1])
    curve = curves.DiscreteCurve(pts, closed=True)
    calls = _counting_multiplicity(monkeypatch)
    with pytest.warns(UserWarning, match="exceeds half the minimum edge length"):
        with pytest.raises(ValueError, match="no point of multiplicity >= 3"):
            energy.li_yau_margin(curve, 3)
    assert calls == []


def test_pruned_scan_does_not_warn_on_fine_eps():
    """[TRIVIAL] no warning where multiplicity gives none."""
    curve, _ = _scan_curve("eight-2-at-1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy.li_yau_margin(curve, 2)


def test_piecewise_triangle_defect_zero():
    """[PAPER] straight pieces: all TC in the vertex angles, defect 0."""
    verts = [np.array([math.cos(a), math.sin(a)])
             for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    pieces = [curves.segment(verts[i], verts[(i + 1) % 3], 32) for i in range(3)]
    rep = energy.total_curvature_piecewise(pieces)
    assert abs(rep.defect) < 1e-12
    np.testing.assert_allclose(rep.tc_parts, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.angles, 2 * math.pi / 3, atol=1e-12)


def test_piecewise_junction_mismatch_raises():
    """[TRIVIAL] pieces must chain end-to-start."""
    a = curves.segment(np.zeros(2), np.array([1.0, 0.0]), 16)
    b = curves.segment(np.array([2.0, 0.0]), np.zeros(2), 16)
    with pytest.raises(ValueError):
        energy.total_curvature_piecewise([a, b])


def test_piecewise_circle_split_matches_smooth():
    """[DERIVED] splitting a circle into arcs adds no angle defect."""
    n = 720
    c = curves.circle(2, 1.0, n)
    # two half circles as open curves sharing endpoints
    half1 = curves.DiscreteCurve(c.points[: n // 2 + 1], closed=False)
    half2 = curves.DiscreteCurve(
        np.vstack([c.points[n // 2:], c.points[:1]]), closed=False)
    rep = energy.total_curvature_piecewise([half1, half2])
    assert rep.tc_sum + rep.angle_sum == pytest.approx(2 * math.pi, abs=1e-3)
    # open-end curvature nodes are skipped, so a convex arc slightly
    # underestimates the continuum defect 0
    assert rep.defect >= -1e-4


def test_energy_report_fields():
    """[TRIVIAL] report bundles the individual functionals."""
    g = curves.circle(2, 1.0, 256)
    rep = energy.report(g, lam=0.5)
    d = rep.as_dict()
    assert d["e_lambda"] == pytest.approx(d["bending"] + 0.5 * d["length"], rel=1e-14)
    assert d["normalized_bending"] == pytest.approx(d["length"] * d["bending"], rel=1e-14)
