"""Curve generators, tangent tuples, closure search, multiplicity,
embeddedness.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elastica import curves, exact_bounds, flow, networks, serialization
from elastica.elliptic import complete_E, complete_K, constants, incomplete_E
from elastica.energy import li_yau_margin, normalized_bending
from elastica.random_shapes import perturbed_circle, random_drop, random_piecewise_cycle


def _edge_vectors(points, closed):
    """The edge vectors of a polygon, closing edge last when closed: the
    vectors whose `np.linalg.norm` is the oracle of the edge lengths."""
    if closed:
        return np.concatenate([points[1:], points[:1]]) - points
    return np.diff(points, axis=0)


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
    with pytest.raises(ValueError, match="unit"):
        curves.TangentTuple(np.full((3, 3), np.nan))
    # consecutive dot products are cos(2 phi*)
    target = math.cos(2.0 * cst.phi_star)
    for i in range(3):
        got = float(np.dot(good.omegas[i], good.omegas[(i + 1) % 3]))
        assert got == pytest.approx(target, abs=1e-12)


def _propeller_cone_fit_residual() -> float:
    """Cross-check of the propeller cone angle: solve the 3-vector constraint
    system by nonlinear least squares and compare against the closed form."""
    from scipy.optimize import least_squares

    target = math.cos(2.0 * constants().phi_star)

    def residuals(x):
        v = x.reshape(3, 3)
        out = [np.dot(v[i], v[i]) - 1.0 for i in range(3)]
        out += [np.dot(v[i], v[(i + 1) % 3]) - target for i in range(3)]
        # gauge fixing: v0 in the xz-plane with positive x, symmetry axis = e3
        out.append(v[0, 1])
        out.append(np.dot(v.sum(axis=0), np.array([1.0, 0.0, 0.0])))
        out.append(np.dot(v.sum(axis=0), np.array([0.0, 1.0, 0.0])))
        return out

    x0 = np.eye(3).ravel() + 0.3
    sol = least_squares(residuals, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    v = sol.x.reshape(3, 3)
    cos_t_fit = abs(v[:, 2].mean())
    cos_t = math.sqrt((target + 0.5) / 1.5)
    return abs(cos_t_fit - cos_t)


def test_propeller_cone_fit():
    """[DERIVED] least-squares cone fit of the propeller tangents has tiny residual."""
    assert _propeller_cone_fit_residual() < 1e-10


def test_propeller_eight_tuple_odd_k():
    """[PAPER] composite propeller + (k-3)/2-fold figure-eight tuple for odd k."""
    tup = curves.propeller_eight_tuple(5)
    assert tup.omegas.shape[0] == 5


def test_planar_tangent_tuple_signs():
    """[TRIVIAL] planar tuple respects the requested sign sequence length."""
    tup = curves.planar_tangent_tuple([1, -1, 1, -1])
    assert tup.omegas.shape == (4, 2)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0, -math.inf, True, "1e-6"])
def test_eps_must_be_finite_and_positive(eps):
    """[TRIVIAL] the closure search and the multiplicity count share one
    tolerance check; NaN used to give [] and 0 (6 closures exist for k = 4,
    and the 3-turn circle passes each point 3 times), and "1e-6" raised a
    bare TypeError.  A circle's radius and a wavelike arc's range get the
    same check: circle(2, True, 64) used to build a unit circle,
    circle(2, inf, 64) warned, and circle(2, nan, 64) and
    sample_wavelike(0.5, nan, 1.0, 16) failed naming the coordinates or u."""
    with pytest.raises(ValueError, match="^eps must be finite and positive$"):
        curves.search_planar_closure(4, eps)
    with pytest.raises(ValueError, match="^eps must be finite and positive$"):
        curves.multiplicity(curves.circle(2, 1.0, 1024, turns=3), np.array([1.0, 0.0]), eps)
    with pytest.raises(ValueError, match="^radius must be finite and positive$"):
        curves.circle(2, eps, 64)
    with pytest.raises(ValueError, match="^(s_lo must be a finite number"
                                         "|s_hi - s_lo must be finite and positive)$"):
        curves.sample_wavelike(0.5, eps, eps, 16)
    with pytest.raises(ValueError, match="^(s_hi must be a finite number"
                                         "|s_hi - s_lo must be finite and positive)$"):
        curves.sample_wavelike(0.5, 0.0, eps, 16)


_COUNT_ARGUMENTS = {
    # name: (call with the count under test, the count's name, its least value)
    "sample_wavelike-n_samples": (lambda v: curves.sample_wavelike(0.5, -1.0, 1.0, v),
                                  "n_samples", 3),
    "sample_figure_eight-N_halves": (lambda v: curves.sample_figure_eight(v, 256),
                                     "N_halves", 1),
    "sample_figure_eight-n_samples": (lambda v: curves.sample_figure_eight(2, v),
                                      "n_samples", "16, 8 per half-period for N_halves=2"),
    "canonical_half_leaf": (curves.canonical_half_leaf, "n_samples", 16),
    "propeller_curve": (curves.propeller_curve, "n_samples", 16),
    "propeller_eight_tuple": (curves.propeller_eight_tuple, "k", 5),
    "search_planar_closure": (lambda v: curves.search_planar_closure(v, 1e-6), "k", 1),
    "circle-dimension": (lambda v: curves.circle(v, 1.0, 64), "dimension", 2),
    "circle-n_samples": (lambda v: curves.circle(2, 1.0, v), "n_samples", 3),
    "circle-turns": (lambda v: curves.circle(2, 1.0, 64, turns=v), "turns", 1),
    "segment": (lambda v: curves.segment((0.0, 0.0), (1.0, 1.0), v), "n_samples", 3),
    "perturbed_circle": (lambda v: perturbed_circle(0, v), "n_samples", 3),
    "random_drop": (lambda v: random_drop(0, v), "n_samples", 2),
    "build_wavelike_network": (lambda v: networks.build_wavelike_network(0.5, v),
                               "n_samples", 64),
    "coeff_A": (exact_bounds.coeff_A, "n", 1),
    "partial_S": (lambda v: exact_bounds.partial_S(v, Fraction(1, 2)), "N", 1),
    "tail_T": (lambda v: exact_bounds.tail_T(v, Fraction(1, 2)), "N", 1),
    "bracket": (lambda v: exact_bounds.bracket(v, Fraction(1, 2)), "N", 1),
}


@pytest.mark.parametrize("value", [2.5, True, "3", 0], ids=repr)
@pytest.mark.parametrize("call", list(_COUNT_ARGUMENTS))
def test_counts_must_be_integers(call, value):
    """[TRIVIAL] every count of a generator or search gets the one integer
    check where it enters: sample_figure_eight(2.5, 256) and (True, 256) used
    to return curves, circle(2, 1.0, 64, turns=2.5) a polygon whose closing
    edge jumps across the circle, and search_planar_closure(2.5, 1e-6) raised
    a TypeError."""
    fn, name, low = _COUNT_ARGUMENTS[call]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}$"):
        fn(value)


# the counts that size a float array
_SIZED = ["sample_wavelike-n_samples", "sample_figure_eight-n_samples", "canonical_half_leaf",
          "propeller_curve", "circle-dimension", "circle-n_samples", "segment",
          "perturbed_circle", "random_drop", "build_wavelike_network"]


@pytest.mark.parametrize("value", [np.iinfo(np.intp).max // 8 + 1, 2**63 - 1, np.uint64(2**64 - 1),
                                   10**400], ids=["2**60", "2**63-1", "uint64-max", "10**400"])
@pytest.mark.parametrize("call", _SIZED)
def test_counts_that_size_arrays_fit_the_largest_float_array(call, value):
    """[TRIVIAL] a sample count or a dimension is at most the most float64s
    one numpy array holds (the array's bytes fit an intp).  Beyond it numpy
    refused the request with its own words ("array is too big", "Maximum
    allowed size exceeded"), and within 512 of 2**63 `linspace` made an empty
    grid and raised an IndexError."""
    fn, name, _ = _COUNT_ARGUMENTS[call]
    most = np.iinfo(np.intp).max // 8
    with pytest.raises(ValueError, match=f"^{name} must be at most {most}, "
                                         "the most floats in one numpy array$"):
        fn(value)


def test_seeds_and_counts_that_size_no_array_stay_unbounded():
    """[TRIVIAL] only counts that size an array are bounded above: a seed
    beyond int64 seeds numpy's generator, and a circle may turn 10**20 times."""
    assert perturbed_circle(10**30, 16).n_points == 16
    assert random_drop(2**70, 16).n_points == 17
    assert curves.circle(2, 1.0, 7, turns=10**20).n_points == 7


@pytest.mark.parametrize("value", [2.5, True, None, "3", -1], ids=repr)
@pytest.mark.parametrize("fn", [perturbed_circle, random_drop, random_piecewise_cycle],
                         ids=lambda fn: fn.__name__)
def test_seeds_must_be_integers(fn, value):
    """[TRIVIAL] a seed gets the one integer check: perturbed_circle(2.5, 64)
    used to raise numpy's TypeError, random_drop(True, 64) to return the
    seed-1 drop and random_piecewise_cycle(None) a new cycle on every call."""
    with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
        fn(value)


@pytest.mark.parametrize("value", ["no", 1, 0, None, 1.0], ids=repr)
@pytest.mark.parametrize("make", [
    lambda closed: curves.DiscreteCurve(curves.circle(2, 1.0, 16).points, closed=closed),
    lambda closed: curves.TangentTuple(curves.build_tangent_tuple_propeller().omegas,
                                       closed=closed),
], ids=["DiscreteCurve", "TangentTuple"])
def test_closed_must_be_a_bool(make, value):
    """[TRIVIAL] the open/closed flag gets one check where it enters:
    closed="no" used to make a closed curve, whose length counted the
    closing edge."""
    with pytest.raises(ValueError, match="^closed must be true or false$"):
        make(value)


def test_numpy_bool_closed_is_stored_as_a_bool(tmp_path):
    """[TRIVIAL] closed=np.bool_(True) is kept as Python's True, so the JSON
    writer takes the curve (it used to raise "Object of type bool is not JSON
    serializable")."""
    curve = curves.DiscreteCurve(curves.circle(2, 1.0, 16).points, closed=np.bool_(True))
    assert curve.closed is True
    assert curve.length() == pytest.approx(curves.circle(2, 1.0, 16).length(), rel=1e-15)
    tangents = curves.TangentTuple(curves.build_tangent_tuple_propeller().omegas,
                                   closed=np.bool_(False))
    assert tangents.closed is False and tangents.k == 2
    serialization.curve_to_json(curve, tmp_path / "c.json")
    assert serialization.curve_from_json(tmp_path / "c.json").closed is True


@pytest.mark.parametrize("noise", [1.0, 1.5, -0.01, math.nan, math.inf, -math.inf], ids=repr)
def test_perturbed_circle_noise_must_keep_the_radius_positive(noise):
    """[TRIVIAL] noise outside [0, 1) is refused: at noise 1.5 the radius
    1 + delta reached below 0 and the curve crossed itself."""
    with pytest.raises(ValueError, match=r"^noise must be a finite number with 0 <= noise < 1$"):
        perturbed_circle(0, 256, noise)


@pytest.mark.parametrize("noise", [0.0, 0.5, 0.99])
def test_perturbed_circle_is_embedded_for_noise_below_1(noise):
    """[DERIVED] for 0 <= noise < 1 the radius stays positive and the
    star-shaped polygon is embedded."""
    for seed in range(5):
        curve = perturbed_circle(seed, 256, noise)
        assert np.linalg.norm(curve.points, axis=1).min() > 0.0
        assert curves.is_embedded(curve)


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
    # no absolute floor on the length: DiscreteCurve's edge check is the gate
    assert curves.segment(np.zeros(2), np.array([3e-9, 4e-9]), 50).length() == pytest.approx(
        5e-9, rel=1e-12)
    with pytest.raises(ValueError, match="consecutive points must be distinct"):
        curves.segment(np.ones(2), np.ones(2), 50)


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


@pytest.mark.parametrize("dim", [2, 3])
def test_is_embedded_tests_every_batch_of_the_sweep(dim):
    """[TRIVIAL] the last segment crosses the first two, and those pairs
    come in late batches of the sweep, after the zigzag between them has
    yielded candidate pairs that do not cross; without its last point the
    curve is embedded."""
    zigzag = [(1.0 + i % 2, 0.1 + 0.001 * i + 0.01 * (i % 2)) for i in range(40)]
    pts = np.array([(0.0, 0.0), (10.0, 0.0)] + zigzag + [(5.0, 0.5), (5.0, -1.0)])
    curve = curves.DiscreteCurve(np.pad(pts, ((0, 0), (0, dim - 2))), closed=False)
    lo, hi = _boxes(curve)
    batches = list(curves._candidate_pairs(lo.T, hi.T, curve.closed))
    assert len(batches[0][0]) > 0 and 0 not in batches[0][0]
    assert not curves.is_embedded(curve)
    assert curves.is_embedded(curves.DiscreteCurve(curve.points[:-1], closed=False))


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
    """[TRIVIAL] a tangent tuple's k counts the leaves: the rows of a closed
    tuple, the rows minus 1 of an open chain."""
    omegas = curves.build_tangent_tuple_propeller().omegas
    assert curves.TangentTuple(omegas).k == 3
    assert curves.TangentTuple(omegas, closed=False).k == 2
    assert curves.TangentTuple(omegas[:2], closed=False).k == 1
    assert curves.TangentTuple(omegas).dimension == 3


def _planar_chain(*angles_in_phi_star):
    phi = constants().phi_star
    return np.array([[math.cos(a * phi), math.sin(a * phi)] for a in angles_in_phi_star])


@pytest.mark.parametrize("closed, tangents, match", [
    # a unit chain whose rows are rescaled by 2 and 1/2 keeps every
    # consecutive dot product; it used to build a sheared figure-eight
    (True, _planar_chain(1, -1) * [[2.0], [0.5]], "unit"),
    (False, _planar_chain(1, -1, -3) * [[1.0], [1.0 + 1e-9], [1.0]], "unit"),
    (True, np.eye(3), "2 phi"),
    (False, _planar_chain(1, -1, -2), "2 phi"),
    (True, _planar_chain(1, -1)[:, :, None], r"\(k, n\)"),
    (True, np.full((2, 2), math.nan), "unit"),
    # an open chain of one tangent has k = 0 leaves; assemble_leafed used to
    # fail on it inside numpy
    (False, [[1.0, 0.0]], "^an open tangent chain needs at least 2 tangents$"),
], ids=["sheared-closed", "non-unit-open", "wrong-angle-closed", "wrong-angle-open",
        "not-a-matrix", "nan-tangents", "zero-k"])
def test_leafed_spec_rejects_bad_tangent_chains(closed, tangents, match):
    """[TRIVIAL] non-unit tangents, wrong consecutive angles and an open
    chain without a leaf fail when the tangent tuple is built, not in
    assemble_leafed or never."""
    with pytest.raises(ValueError, match=match):
        curves.TangentTuple(tangents, closed=closed)


def test_assemble_leafed_open_chain():
    """[PAPER] the open planar 2-leaf chain with tangent angles phi*, -phi*,
    -3 phi* is two copies of the optimal half-leaf: normalized bending
    (2 L)(2 B) = 4 varpi*, and the origin is passed 3 times."""
    chain = curves.TangentTuple(_planar_chain(1, -1, -3), closed=False)
    c = curves.assemble_leafed(chain, 256)
    assert not c.closed and c.vertex_marks == (0, 255, 510)
    assert normalized_bending(c) / constants().varpi_star == pytest.approx(4.0, abs=1e-3)
    assert curves.multiplicity(c, np.zeros(2), 1e-6) == 3


def _optimal_leafed_tuples():
    out = {f"propeller-eight-{k}": curves.propeller_eight_tuple(k) for k in (5, 7)}
    for signs in curves.search_planar_closure(4, 1e-6):
        name = "planar-" + "".join("+" if s > 0 else "-" for s in signs)
        out[name] = curves.planar_tangent_tuple(signs)
    return out


_OPTIMAL_LEAFED = _optimal_leafed_tuples()


@pytest.mark.parametrize("name", list(_OPTIMAL_LEAFED))
def test_optimal_leafed_elasticae_reach_the_bound(name):
    """[PAPER] the leafed elasticae of the odd-k propeller + figure-eight
    tuples in R^3 and of the six planar k = 4 closures attain the Li-Yau
    bound: B-bar = varpi* k^2, with a k-fold point at the origin."""
    tup = _OPTIMAL_LEAFED[name]
    c = curves.assemble_leafed(tup, 256)
    bound = tup.k ** 2 * constants().varpi_star
    assert c.closed and c.dimension == tup.dimension
    assert normalized_bending(c) / bound == pytest.approx(1.0, abs=5e-3)
    assert curves.multiplicity(c, np.zeros(tup.dimension), 1e-6) == tup.k
    assert abs(li_yau_margin(c, tup.k)) < 5e-3 * bound


def test_discrete_curve_rejects_non_finite_coordinates():
    """[TRIVIAL] NaN or inf coordinates are rejected where they enter."""
    pts = curves.circle(2, 1.0, 16).points.copy()
    for bad in (np.nan, np.inf, -np.inf):
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            curves.DiscreteCurve(pts, closed=True)


@pytest.mark.parametrize("points, message", [
    (np.array([[0, 0], [1, 0], [0, 1j]]), "real numbers, got complex128 values"),
    ([[False, False], [True, False], [False, True]], "real numbers, got bool values"),
    ([["0", "0"], ["1", "0"], ["0", "1"]], "real numbers, got <U1 values"),
    ([[10 ** 400, 0], [0, 1], [-1, 0]], "real numbers that fit a float"),
    (np.array([[0, 0], [1, 0], [0, 1j]], dtype=object), "real numbers that fit a float"),
    ([[True, 0], [2, 0], [0, 2]], "real numbers, got bool values"),
    ([[0.0, 0.0], [np.True_, 0.0], [0.0, 2.0]], "real numbers, got bool values"),
    (np.array([["1", 0], [2, 0], [0, 2]], dtype=object), "real numbers, got <U1 values"),
    (np.array([[True, 0], [2, 0], [0, 2]], dtype=object), "real numbers, got bool values"),
], ids=["complex", "bool", "str", "huge-int", "object-complex", "bool-among-ints",
        "numpy-bool-among-floats", "object-str", "object-bool"])
def test_discrete_curve_refuses_non_real_coordinates(points, message):
    """[TRIVIAL] coordinates that are not real numbers fail with one
    ValueError that names them: complex input used to lose its imaginary
    parts behind numpy's ComplexWarning, bools read as 0/1, also among
    numbers in a list or in an object array, "1" in an object array read as
    1.0, and 10**400 raised a bare OverflowError.  Integer and float32 input
    still convert."""
    with pytest.raises(ValueError, match=f"^coordinates must be {message}$"):
        curves.DiscreteCurve(points, closed=True)
    square = [[0, 0], [2, 0], [2, 2], [0, 2]]
    assert curves.DiscreteCurve(square, closed=True).length() == 8.0
    assert curves.DiscreteCurve(np.float32(square), closed=True).length() == 8.0


@pytest.mark.parametrize("marks", [(16,), (-1,), (10 ** 6,), (1.0,), ("0",), (True,)])
def test_discrete_curve_rejects_bad_vertex_marks(marks):
    """[TRIVIAL] vertex marks must be integer indices into the points."""
    pts = curves.circle(2, 1.0, 16).points
    with pytest.raises(ValueError, match="vertex_marks"):
        curves.DiscreteCurve(pts, closed=True, vertex_marks=marks)
    assert curves.DiscreteCurve(pts, closed=True,
                                vertex_marks=(0, np.int64(15))).vertex_marks[1] == 15


def _brute_force_pairs(lo, hi, closed):
    n = lo.shape[0]
    return [(i, j) for i in range(n) for j in range(i + 2, n)
            if not (closed and i == 0 and j == n - 1)
            and np.all(lo[j] <= hi[i]) and np.all(hi[j] >= lo[i])]


def _boxes(curve):
    starts = curve.points if curve.closed else curve.points[:-1]
    ends = np.roll(curve.points, -1, axis=0) if curve.closed else curve.points[1:]
    return np.minimum(starts, ends), np.maximum(starts, ends)


def _sweep_test_curves():
    rng = np.random.default_rng(20240)
    out = []
    for dim in (2, 3):
        for closed in (False, True):
            for n in (3, 4, 7, 40, 150):
                # random walks cross themselves; the boxes overlap often
                pts = np.cumsum(rng.normal(size=(n, dim)), axis=0)
                out.append(curves.DiscreteCurve(pts, closed=closed))
    for k in (2, 3, 4):
        out.append(curves.circle(2, 1.0, 60 * k, turns=k))   # coincident segments
        out.append(curves.circle(3, 1.0, 60 * k, turns=k))
    out.append(curves.sample_figure_eight(2, 256))
    out.append(curves.sample_figure_eight(3, 256))
    return out


def _sorted_pairs(batches):
    """The union of the sweep's batches (i, j) as a (m, 2) array in
    lexicographic order."""
    batches = list(batches)
    i = np.concatenate([np.empty(0, dtype=np.intp)] + [i for i, _ in batches])
    j = np.concatenate([np.empty(0, dtype=np.intp)] + [j for _, j in batches])
    return np.column_stack([i, j])[np.lexsort((j, i))]


@pytest.mark.parametrize("curve", _sweep_test_curves())
def test_candidate_pairs_match_brute_force(curve):
    """[DERIVED] the sorted union of the sweep's batches is exactly the
    O(n^2) enumeration's non-adjacent box-overlap pairs, each pair once,
    padded or not."""
    lo, hi = _boxes(curve)
    for pad in (0.0, 0.05):
        got = _sorted_pairs(curves._candidate_pairs((lo - pad).T, (hi + pad).T, curve.closed))
        assert got.tolist() == [list(p) for p in
                                _brute_force_pairs(lo - pad, hi + pad, curve.closed)]


# The queries on (n, dim) points that the coordinate-row queries replaced,
# kept as oracles: the same arithmetic, reduced along the points' short axis.

def _multiplicity_points(curve, point, eps):
    d = np.linalg.norm(curve.points - np.asarray(point, dtype=float), axis=1)
    inside = d <= eps
    if not inside.any():
        return 0
    label = np.where(inside, 1, np.where(d > 2.0 * eps, -1, 0))
    marked = label[label != 0]
    count = int(np.count_nonzero((marked == 1)
                                 & (np.concatenate(([-1], marked[:-1])) == -1)))
    if curve.closed and count > 1:
        first = int(np.argmax(inside))
        last = len(d) - 1 - int(np.argmax(inside[::-1]))
        seam = np.concatenate([d[last + 1:], d[:first]])
        if not (seam > 2.0 * eps).any():
            count -= 1
    return count


def _box_counts_points(curve, centres, eps):
    """`_box_counts` with (m, dim) centres."""
    points, n = curve.points, curve.n_points
    x = points[:, 0]
    order = np.argsort(x, kind="stable")
    c = centres[:, 0]
    w = max(2.0 * eps, curves._TINY_DIFF)
    xs = x[order]
    lo = np.searchsorted(xs, c - w, side="left")
    counts = np.searchsorted(xs, c + w, side="right") - lo
    if counts.sum() > 16 * n:
        return np.full(len(centres), n)
    owner = np.repeat(np.arange(len(centres)), counts)
    j = order[np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    in_box = (np.abs(points[j] - centres[owner]) <= w).all(axis=1)
    return np.bincount(owner[in_box], minlength=len(centres))


def _overlapping_pairs(lo, hi, closed):
    """Non-adjacent pairs i < j of (n, dim) boxes that overlap, by an O(n^2)
    comparison of every pair."""
    n = lo.shape[0]
    overlap = ((lo[None, :] <= hi[:, None]) & (hi[None, :] >= lo[:, None])).all(axis=2)
    i, j = np.nonzero(np.triu(overlap, 2))
    keep = ~(closed & (i == 0) & (j == n - 1))
    return zip(i[keep].tolist(), j[keep].tolist())


def _is_embedded_points(curve):
    pts = curve.points
    starts = pts if curve.closed else pts[:-1]
    ends = np.roll(pts, -1, axis=0) if curve.closed else pts[1:]
    lo, hi = np.minimum(starts, ends), np.maximum(starts, ends)
    if curve.dimension == 2:
        box_lo, box_hi = pts.min(axis=0), pts.max(axis=0)
        centre = 0.5 * box_lo + 0.5 * box_hi
        half = float((0.5 * box_hi - 0.5 * box_lo).max())
        s = np.rint((pts - centre) * (curves._GRID / half)).astype(np.int64)
        e = np.roll(s, -1, axis=0)
        return not any(curves._segments_intersect_2d(s[i].tolist(), e[i].tolist(),
                                                     s[j].tolist(), e[j].tolist())
                       for i, j in _overlapping_pairs(lo, hi, curve.closed))
    tol = 1e-9 * curve.length()
    return not any(curves._segment_distance(starts[i], ends[i], starts[j], ends[j]) < tol
                   for i, j in _overlapping_pairs(lo - tol, hi + tol, curve.closed))


def _rotation(dim, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q


_DIFFERENTIAL_SHAPES = ["random-walk", "figure-eight", "k-turn", "perturbed-circle"]


def _differential_curve(shape, seed, dim, closed, scale):
    """A curve of the given shape, rotated by a random rotation and scaled:
    a random walk (open or closed, in R^dim), a figure-eight of 2 or 4
    half-periods, a 2-, 3- or 4-turn circle in R^dim, or a perturbed
    circle."""
    rng = np.random.default_rng(seed)
    if shape == "random-walk":
        pts = np.cumsum(rng.normal(size=(int(rng.integers(3, 200)), dim)), axis=0)
        return curves.DiscreteCurve(scale * pts, closed=closed)
    if shape == "figure-eight":
        curve = curves.sample_figure_eight(int(rng.choice([2, 4])), 512)
    elif shape == "k-turn":
        k = int(rng.integers(2, 5))
        curve = curves.circle(dim, 1.0, 60 * k, turns=k)
    else:
        curve = perturbed_circle(seed, 256, 0.05)
    return curve.transformed(rotation=scale * _rotation(curve.dimension, seed))


@pytest.mark.filterwarnings("ignore:eps=.*minimum edge length")
@given(shape=st.sampled_from(_DIFFERENTIAL_SHAPES), seed=st.integers(0, 2**32 - 1),
       dim=st.sampled_from([2, 3]), closed=st.booleans(),
       scale=st.sampled_from([1e-9, 1.0, 1e9]),
       rel_eps=st.sampled_from([1e-6, 1e-3, 1e-2, 5e-2]))
def test_row_queries_match_the_point_queries(shape, seed, dim, closed, scale, rel_eps):
    """[DERIVED] multiplicity at every 7th sample, the box counts of every
    sample and of every (n // 256)-th, and is_embedded, computed on the
    curve's coordinate rows, equal the same queries on its (n, dim) points,
    on random walks in 2D and 3D, open and closed, rotated and scaled
    figure-eights, k-turn circles in 2D and 3D and perturbed circles."""
    curve = _differential_curve(shape, seed, dim, closed, scale)
    eps = rel_eps * curve.length()
    for p in curve.points[::7]:
        assert curves.multiplicity(curve, p, eps) == _multiplicity_points(curve, p, eps)
    for stride in (1, max(1, curve.n_points // 256)):
        got = curves._box_counts(curve, curve.rows[:, ::stride], eps)
        assert got.tolist() == _box_counts_points(curve, curve.points[::stride], eps).tolist()
    assert curves.is_embedded(curve) is _is_embedded_points(curve)


@given(shape=st.sampled_from(["perturbed-circle", "figure-eight"]),
       seed=st.integers(0, 50),
       scale=st.floats(1e-2, 1e2),
       angle=st.floats(0.0, 2.0 * math.pi),
       shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
def test_is_embedded_invariant_under_similarity(shape, seed, scale, angle, shift):
    """[DERIVED] embeddedness does not change under scale, rotation and
    translation."""
    if shape == "perturbed-circle":
        curve, want = perturbed_circle(seed, 256, 0.05), True
    else:
        curve, want = curves.sample_figure_eight(2, 256), False
    rot = scale * np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
    assert curves.is_embedded(curve) is want
    assert curves.is_embedded(curve.transformed(rotation=rot,
                                                translation=np.array(shift))) is want


def _zigzag():
    """An embedded open zigzag between the lines x = 0 and x = 1 whose
    segments lie about 1e-3 apart."""
    i = np.arange(20)
    pts = np.empty((40, 2))
    pts[0::2] = np.column_stack([np.zeros(20), 0.001 * i])
    pts[1::2] = np.column_stack([np.ones(20), 0.01 + 0.001 * i])
    return curves.DiscreteCurve(pts, closed=False)


_SCALED_SHAPES = {
    "zigzag": (_zigzag(), True),
    "bowtie": (curves.DiscreteCurve(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
                                    closed=True), False),
    "perturbed-circle": (perturbed_circle(3, 256, 0.05), True),
    "figure-eight": (curves.sample_figure_eight(2, 256), False),
}


@given(shape=st.sampled_from(sorted(_SCALED_SHAPES)), dim=st.sampled_from([2, 3]),
       exponent=st.floats(-15.0, 15.0),
       shift=st.tuples(*[st.floats(-1e6, 1e6)] * 3))
@example(shape="zigzag", dim=2, exponent=-10.0, shift=(0.0, 0.0, 0.0))
@example(shape="bowtie", dim=3, exponent=-15.0, shift=(0.0, 0.0, 0.0))
def test_is_embedded_invariant_at_every_scale_and_position(shape, dim, exponent, shift):
    """[DERIVED] embeddedness reads the same at scales 1e-15 to 1e15 and
    translations up to 1e6 times the scale, in the plane and lifted to R^3.
    Snapping planar points to an absolute grid read the zigzag scaled by
    1e-10 as crossing; an absolute parallel threshold read the bowtie in R^3
    scaled by 1e-15 as embedded."""
    curve, want = _SCALED_SHAPES[shape]
    scale = 10.0 ** exponent
    pts = np.pad(curve.points, ((0, 0), (0, dim - 2)))
    moved = curves.DiscreteCurve(scale * pts + scale * np.array(shift[:dim]),
                                 closed=curve.closed)
    assert curves.is_embedded(moved) is want


def _multiplicity_loop(curve, point, eps):
    """The per-sample cluster count that `multiplicity` replaced."""
    d = np.linalg.norm(curve.points - np.asarray(point, dtype=float), axis=1)
    inside = d <= eps
    if not inside.any():
        return 0
    count = 0
    escaped = True
    for di in d:
        if di <= eps:
            if escaped:
                count += 1
                escaped = False
        elif di > 2.0 * eps:
            escaped = True
    if curve.closed and count > 1:
        first = int(np.argmax(inside))
        last = len(d) - 1 - int(np.argmax(inside[::-1]))
        seam = np.concatenate([d[last + 1:], d[:first]])
        if not (seam > 2.0 * eps).any():
            count -= 1
    return count


@pytest.mark.filterwarnings("ignore:eps=.*minimum edge length")
@pytest.mark.parametrize("name", ["figure-eight", "3-turn", "propeller"])
@pytest.mark.parametrize("rel_eps", [1e-6, 1e-3, 1e-2, 5e-2])
def test_multiplicity_matches_loop(name, rel_eps):
    """[DERIVED] the vectorised cluster count equals the per-sample loop at
    every candidate point that the Li-Yau margin may try."""
    curve = {"figure-eight": lambda: curves.sample_figure_eight(2, 2048),
             "3-turn": lambda: curves.circle(2, 1.0, 1200, turns=3),
             "propeller": lambda: curves.propeller_curve(256)}[name]()
    eps = rel_eps * curve.length()
    stride = max(1, curve.n_points // 256)
    for p in curve.points[::stride]:
        assert curves.multiplicity(curve, p, eps) == _multiplicity_loop(curve, p, eps)


@pytest.mark.parametrize("closed", [False, True])
def test_edge_lengths_are_cached_read_only(closed):
    """[TRIVIAL] edge_lengths() is the constructor's read-only array, the
    norms of the edge vectors to the bit; transformed and replace recompute
    it."""
    c = curves.DiscreteCurve(perturbed_circle(3, 64, 0.05).points, closed=closed)
    h = c.edge_lengths()
    assert h is c.edge_lengths() and len(h) == (64 if closed else 63)
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0] = 1.0
    assert h.tobytes() == np.linalg.norm(_edge_vectors(c.points, closed), axis=1).tobytes()
    assert c.length() == float(h.sum())
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    for d in (c.transformed(rotation=2.0 * rot, translation=np.array([1.0, 2.0])),
              replace(c, points=3.0 * c.points)):
        want = np.linalg.norm(_edge_vectors(d.points, closed), axis=1)
        assert d.edge_lengths().tobytes() == want.tobytes()
        assert d.edge_lengths().tobytes() != h.tobytes()


def _curves_with_their_sources(tmp_path):
    """(curve, the caller's array it was built from or None) for every way a
    curve is built: from a list, an (n, dim) array, a transposed view,
    `transformed`, both readers, and as flow states."""
    pts = perturbed_circle(3, 64, 0.05).points.copy()
    rows = np.ascontiguousarray(pts.T)
    built = [(curves.DiscreteCurve(pts.tolist(), closed=True), None),
             (curves.DiscreteCurve(pts, closed=True), pts),
             (curves.DiscreteCurve(rows.T, closed=True), rows),
             (curves.DiscreteCurve(pts[::2], closed=False), pts)]
    base = built[1][0]
    built.append((base.transformed(rotation=np.array([[0.6, -0.8], [0.8, 0.6]]),
                                   translation=np.array([1.0, 2.0])), None))
    serialization.curve_to_csv(base, tmp_path / "c.csv")
    serialization.curve_to_json(base, tmp_path / "c.json")
    built += [(serialization.curve_from_csv(tmp_path / "c.csv"), None),
              (serialization.curve_from_json(tmp_path / "c.json"), None)]
    state = flow.FlowState(base, lam=1.0)
    config = flow.FlowConfig(max_steps=2)
    built += [(state.curve, pts), (flow.step(state, config).curve, None),
              (flow.run(base, "fixed-length", 6.0, config).final_state.curve, None)]
    return built


def test_rows_are_a_private_read_only_copy_of_the_points(tmp_path):
    """[TRIVIAL] however a curve is built, its coordinate rows are
    C-contiguous and read-only, equal points.T to the bit, and share no
    memory with the caller's array or with points."""
    for curve, source in _curves_with_their_sources(tmp_path):
        rows = curve.rows
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert rows.shape == curve.points.T.shape
        assert rows.tobytes() == curve.points.T.tobytes()
        assert not np.shares_memory(rows, curve.points)
        if source is not None:
            assert not np.shares_memory(rows, source)
            assert not np.shares_memory(curve.points, source)


@given(dim=st.integers(2, 4), closed=st.booleans(), n=st.integers(3, 40),
       seed=st.integers(0, 2**32 - 1), lo=st.integers(-150, 150), span=st.integers(0, 300))
def test_edge_norms_equal_linalg_norm_bitwise(dim, closed, n, seed, lo, span):
    """[DERIVED] the column-sum edge norms of (dim, n) rows are the bits of
    np.linalg.norm(edge_vectors, axis=1), for coordinates whose magnitudes
    range over 1e-150 .. 1e150, from contiguous rows and from the transpose of
    (n, dim) points alike."""
    rng = np.random.default_rng(seed)
    exponents = rng.uniform(lo, min(150, lo + span), size=(n, dim))
    pts = rng.standard_normal((n, dim)) * 10.0 ** exponents
    want = np.linalg.norm(_edge_vectors(pts, closed), axis=1).tobytes()
    assert curves._edge_norms(pts.T, closed).tobytes() == want
    assert curves._edge_norms(np.ascontiguousarray(pts.T), closed).tobytes() == want


@pytest.mark.parametrize("closed", [False, True])
def test_discrete_curve_rejects_overflowing_edges_without_warning(closed):
    """[TRIVIAL] finite coordinates whose distance overflows a float fail
    with one ValueError line and no numpy warning."""
    pts = np.array([[1e300, 0.0], [-1e300, 1e300], [0.0, -1e300], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^edge length is not finite"):
            curves.DiscreteCurve(pts, closed=closed)
        # large but representable edges pass
        assert curves.DiscreteCurve(pts * 1e-160, closed=closed).length() < math.inf
