"""Energy functionals: closed forms, scaling laws, inequalities.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import math

import numpy as np
import pytest
from hypothesis import given
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
