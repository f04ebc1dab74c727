"""Curve generators, tangent tuples, closure search, multiplicity,
embeddedness.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import itertools
import math

import numpy as np
import pytest

from elastica import curves
from elastica.elliptic import complete_E, complete_K, constants, incomplete_E


def test_discrete_curve_validation():
    """[TRIVIAL] constructor rejects degenerate inputs."""
    with pytest.raises(ValueError):
        curves.DiscreteCurve(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        curves.DiscreteCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))


def test_wavelike_arclength_matches_parameter():
    """[DERIVED] the sampler is unit speed: chord length ~ parameter span."""
    m = 0.6
    K = complete_K(m)
    c = curves.sample_wavelike(m, -K, K, 4000)
    assert c.length() == pytest.approx(2.0 * K, rel=1e-5)


def test_wavelike_endpoint_closed_form():
    """[DERIVED] endpoint coordinates against the elliptic closed form."""
    m = 0.6
    K = complete_K(m)
    c = curves.sample_wavelike(m, -K, K, 100)
    want_x = 2.0 * incomplete_E(math.pi / 2.0, m) - K
    np.testing.assert_allclose(c.points[-1], [want_x, 0.0], atol=1e-12)


@pytest.mark.parametrize("N", [2, 4])
def test_figure_eight_even_closes(N):
    """[PAPER] even N gives a closed curve through the origin."""
    c = curves.sample_figure_eight(N, 512)
    assert c.closed
    np.testing.assert_allclose(c.points[0], 0.0, atol=1e-12)


def test_figure_eight_odd_is_open_with_coinciding_endpoints():
    """[TRIVIAL] odd N: open, endpoints both at the origin for N=1."""
    c = curves.sample_figure_eight(1, 512)
    assert not c.closed
    np.testing.assert_allclose(c.points[0], c.points[-1], atol=1e-10)


def test_figure_eight_origin_tangents():
    """[PAPER] tangent directions at the origin are (2m*-1, +/-2 sqrt(m*(1-m*)))."""
    cst = constants()
    c = curves.sample_figure_eight(2, 8192)
    t = c.points[1] - c.points[0]
    t /= np.linalg.norm(t)
    want = np.array([2.0 * cst.m_star - 1.0,
                     2.0 * math.sqrt(cst.m_star * (1.0 - cst.m_star))])
    assert abs(float(np.dot(t, want)) - 1.0) < 1e-5


def test_half_leaf_endpoints_at_origin():
    """[PAPER] the canonical half-leaf starts and ends at the origin."""
    c = curves.canonical_half_leaf(256)
    np.testing.assert_allclose(c.points[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(c.points[-1], 0.0, atol=1e-10)
    assert c.length() == pytest.approx(2.0 * constants().K_star, rel=1e-4)


def test_tangent_tuple_validation():
    """[TRIVIAL] non-unit vectors and wrong cyclic angles are rejected."""
    cst = constants()
    good = curves.build_tangent_tuple_propeller()
    assert good.omegas.shape == (3, 3)
    with pytest.raises(ValueError):
        curves.TangentTuple(good.omegas * 1.1)
    with pytest.raises(ValueError):
        curves.TangentTuple(np.eye(3))
    # consecutive dot products are cos(2 phi*)
    target = math.cos(2.0 * cst.phi_star)
    for i in range(3):
        got = float(np.dot(good.omegas[i], good.omegas[(i + 1) % 3]))
        assert got == pytest.approx(target, abs=1e-12)


def test_propeller_cone_fit():
    """[DERIVED] least-squares cone fit of the propeller tangents has tiny residual."""
    assert curves.propeller_cone_fit_residual() < 1e-10


def test_propeller_eight_tuple_odd_k():
    """[PAPER] composite propeller + (k-3)/2-fold figure-eight tuple for odd k."""
    tup = curves.propeller_eight_tuple(5)
    assert tup.omegas.shape[0] == 5


def test_planar_tangent_tuple_signs():
    """[TRIVIAL] planar tuple respects the requested sign sequence length."""
    tup = curves.planar_tangent_tuple([1, -1, 1, -1])
    assert tup.omegas.shape == (4, 2)


@pytest.mark.parametrize("k", [3, 5])
def test_closure_search_empty_for_odd_k(k):
    """[DERIVED] no sign sequence closes a planar k-leafed candidate."""
    assert curves.search_planar_closure(k, 1e-6) == []


def test_closure_search_nonempty_at_huge_eps():
    """[TRIVIAL] search machinery does return sequences when eps is enormous."""
    assert len(curves.search_planar_closure(3, 1e3)) > 0


@pytest.mark.parametrize("eps", [1e-6, 0.5, 1e3])
def test_closure_search_matches_brute_force(eps):
    """[DERIVED] the count-class search equals the 2^k enumeration, in order."""
    two_phi = 2.0 * constants().phi_star
    for k in range(1, 13):
        want = []
        for signs in itertools.product((-1, 1), repeat=k):
            total = sum(signs) * two_phi
            if abs(total - 2.0 * math.pi * round(total / (2.0 * math.pi))) < eps:
                want.append(signs)
        assert curves.search_planar_closure(k, eps) == want


def test_circle_geometry():
    """[TRIVIAL] radius, length and closedness of the circle sampler."""
    c = curves.circle(2, 2.0, 512)
    assert c.closed
    assert c.length() == pytest.approx(4.0 * math.pi, rel=1e-4)
    r = np.linalg.norm(c.points, axis=1)
    np.testing.assert_allclose(r, 2.0, atol=1e-12)


def test_segment_is_straight():
    """[TRIVIAL] segment sampler."""
    s = curves.segment(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 50)
    assert s.length() == pytest.approx(5.0, rel=1e-12)
    assert not s.closed


def test_multiplicity_figure_eight_origin():
    """[PAPER] the closed figure-eight has a point of multiplicity 2."""
    c = curves.sample_figure_eight(2, 2048)
    assert curves.multiplicity(c, np.zeros(2), 1e-6) == 2


def test_multiplicity_multi_turn_circle():
    """[TRIVIAL] an n-fold circle covers each point n times."""
    c = curves.circle(2, 1.0, 1024, turns=3)
    # eps must exceed half the sample spacing (~0.018) to catch every pass;
    # the predicate warns about that regime
    with pytest.warns(UserWarning, match="minimum edge length"):
        assert curves.multiplicity(c, np.array([1.0, 0.0]), 0.01) == 3


def test_multiplicity_simple_point():
    """[TRIVIAL] a generic point on a circle has multiplicity 1."""
    c = curves.circle(2, 1.0, 512)
    assert curves.multiplicity(c, np.array([1.0, 0.0]), 1e-6) == 1


def test_is_embedded_circle_true_figure_eight_false():
    """[TRIVIAL] embeddedness predicate on canonical examples."""
    assert curves.is_embedded(curves.circle(2, 1.0, 256))
    assert not curves.is_embedded(curves.sample_figure_eight(2, 1024))


def test_is_embedded_3d_fallback():
    """[TRIVIAL] distance-based predicate in dimension 3."""
    c = curves.circle(3, 1.0, 128)
    assert curves.is_embedded(c)
    assert not curves.is_embedded(curves.propeller_curve(n_samples_per_leaf=128))


def test_transformed_preserves_shape():
    """[TRIVIAL] rigid motions keep lengths."""
    c = curves.circle(2, 1.0, 128)
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    d = c.transformed(rotation=R, translation=np.array([5.0, -2.0]))
    assert d.length() == pytest.approx(c.length(), rel=1e-14)


def test_assemble_leafed_propeller_multiplicity():
    """[PAPER] the propeller passes the origin three times."""
    c = curves.propeller_curve(n_samples_per_leaf=256)
    assert c.closed
    assert curves.multiplicity(c, np.zeros(3), 1e-6) == 3


def test_leafed_spec_validation():
    """[TRIVIAL] tangent-count bookkeeping for open vs closed specs."""
    tup = curves.build_tangent_tuple_propeller()
    spec = curves.LeafedElasticaSpec(k=3, closed=True, tangents=tup.omegas)
    assert spec.k == 3
    with pytest.raises(ValueError):
        curves.LeafedElasticaSpec(k=4, closed=True, tangents=tup.omegas)
