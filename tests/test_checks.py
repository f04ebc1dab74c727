"""The shared parameter checks, and a fuzz of the public entry points that
they guard.

Tags: [TRIVIAL] direct checks of invented plumbing.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastica import curves, elliptic, energy, exact_bounds, flow, networks, random_shapes
from elastica._checks import _check_finite, _check_real, _real_scalar

_CIRCLE = curves.circle(2, 1.0, 16)
_TWO_TURNS = curves.circle(2, 1.0, 64, turns=2)
_PROPELLER = curves.build_tangent_tuple_propeller()

# every public function of the checked modules with arguments that are
# numbers, flags, strings or arrays, plus the classes built from such
# arguments: a valid call, and for a parameter whose messages name it by
# another word, that word (a regular expression)
_ENTRY_POINTS = {
    "elliptic.complete_K": (elliptic.complete_K, dict(m=0.5), {}),
    "elliptic.complete_E": (elliptic.complete_E, dict(m=0.5), {}),
    "elliptic.incomplete_F": (elliptic.incomplete_F, dict(x=0.7, m=0.5), {}),
    "elliptic.incomplete_E": (elliptic.incomplete_E, dict(x=0.7, m=0.5), {}),
    "elliptic.amplitude": (elliptic.amplitude, dict(u=0.7, m=0.5), {}),
    "elliptic.cn": (elliptic.cn, dict(u=0.7, m=0.5), {}),
    "elliptic.sn": (elliptic.sn, dict(u=0.7, m=0.5), {}),
    "elliptic.dK_dm": (elliptic.dK_dm, dict(m=0.5), {}),
    "elliptic.dE_dm": (elliptic.dE_dm, dict(m=0.5), {}),
    "curves.DiscreteCurve": (curves.DiscreteCurve,
                             dict(points=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                                  closed=True, vertex_marks=(0, 2)),
                             {"points": "coordinates|points"}),
    "curves.TangentTuple": (curves.TangentTuple, dict(omegas=_PROPELLER.omegas, closed=True),
                            {"omegas": "tangents"}),
    "curves.sample_wavelike": (curves.sample_wavelike,
                               dict(m=0.5, s_lo=-1.0, s_hi=1.0, n_samples=16), {}),
    "curves.sample_figure_eight": (curves.sample_figure_eight,
                                   dict(N_halves=2, n_samples=64), {}),
    "curves.canonical_half_leaf": (curves.canonical_half_leaf, dict(n_samples=32), {}),
    "curves.planar_tangent_tuple": (curves.planar_tangent_tuple, dict(signs=[1, -1]), {}),
    "curves.propeller_eight_tuple": (curves.propeller_eight_tuple, dict(k=5), {}),
    "curves.assemble_leafed": (curves.assemble_leafed,
                               dict(tangents=_PROPELLER, n_samples_per_leaf=32),
                               {"n_samples_per_leaf": "n_samples"}),
    "curves.propeller_curve": (curves.propeller_curve, dict(n_samples_per_leaf=32),
                               {"n_samples_per_leaf": "n_samples"}),
    "curves.search_planar_closure": (curves.search_planar_closure, dict(k=3, eps=1e-6), {}),
    "curves.circle": (curves.circle, dict(n=2, radius=1.0, n_samples=64, turns=1),
                      {"n": "dimension"}),
    "curves.segment": (curves.segment, dict(p=[0.0, 0.0], q=[1.0, 1.0], n_samples=8), {}),
    "curves.multiplicity": (curves.multiplicity,
                            dict(curve=_TWO_TURNS, point=[1.0, 0.0], eps=1e-6), {}),
    "energy.e_lambda": (energy.e_lambda, dict(curve=_CIRCLE, lam=1.0), {"lam": "lambda"}),
    "energy.li_yau_margin": (energy.li_yau_margin, dict(curve=_TWO_TURNS, k=2, eps=1e-6), {}),
    "energy.report": (energy.report, dict(curve=_CIRCLE, lam=1.0), {"lam": "lambda"}),
    "flow.FlowConfig": (flow.FlowConfig,
                        dict(dt=2e-3, tol_velocity=1e-4, max_steps=10, embed_check_every=5), {}),
    "flow.velocity_field": (flow.velocity_field, dict(curve=_CIRCLE, lam=0.5),
                            {"lam": "lambda"}),
    "flow.run": (flow.run, dict(initial=_CIRCLE, mode="fixed-lambda", lambda_or_L0=0.5,
                                config=flow.FlowConfig(max_steps=2)),
                 {"lambda_or_L0": "lambda|L0"}),
    "networks.build_wavelike_network": (networks.build_wavelike_network,
                                        dict(m=0.5, n_samples=64), {}),
    "networks.wavelike_junction_angle": (networks.wavelike_junction_angle, dict(m=0.5), {}),
    "networks.network_energy_formula": (networks.network_energy_formula, dict(m=0.5), {}),
    "networks.monotonicity_certificates": (networks.monotonicity_certificates,
                                           dict(m_grid=[0.2, 0.5]), {"m_grid": "m_grid|m"}),
    "networks.drop_margin": (networks.drop_margin,
                             dict(curve=random_shapes.random_drop(0, 32), tol=1e-9), {}),
    "networks.double_bubble_energy": (networks.double_bubble_energy, dict(alpha=1.0), {}),
    "networks.generalized_junction_feasible": (networks.generalized_junction_feasible,
                                               dict(alpha=1.0), {}),
    "random_shapes.perturbed_circle": (random_shapes.perturbed_circle,
                                       dict(seed=0, n_samples=32, noise=0.05), {}),
    "random_shapes.random_drop": (random_shapes.random_drop, dict(seed=0, n_samples=32), {}),
    "random_shapes.random_piecewise_cycle": (random_shapes.random_piecewise_cycle,
                                             dict(seed=0), {}),
    "exact_bounds.coeff_A": (exact_bounds.coeff_A, dict(n=3), {}),
    "exact_bounds.partial_S": (exact_bounds.partial_S, dict(N=3, m=Fraction(1, 2)), {}),
    "exact_bounds.tail_T": (exact_bounds.tail_T, dict(N=3, m=Fraction(1, 2)), {}),
    "exact_bounds.bracket": (exact_bounds.bracket, dict(N=3, m=Fraction(1, 2)), {}),
}

# (entry point, parameter) for every argument that is not a toolkit object:
# a curve, a tangent tuple or a flow config is passed as built
_FUZZED = [(name, param) for name, (_, kwargs, _) in _ENTRY_POINTS.items()
           for param, value in kwargs.items()
           if not isinstance(value, (curves.DiscreteCurve, curves.TangentTuple, flow.FlowConfig))]

# the kinds of value no parameter takes (a flag takes a bare bool), and ints
# beyond a float's range; a huge positive count is a valid request for
# unbounded work, so counts get the negative ones only
_BAD = st.one_of(st.booleans(), st.complex_numbers(), st.text(max_size=6),
                 st.sampled_from([math.nan, math.inf, -math.inf]))
_HUGE = st.integers(2 ** 1024, 2 ** 1100)
_NEGATIVE_HUGE = st.integers(-2 ** 1100, -2 ** 1024)
# a value alone, as a 0-d array, as a 3-d array, and in an object array
_SHAPES = (lambda v: v, np.array, lambda v: np.full((2, 2, 2), v),
           lambda v: np.array([v, 0.5], dtype=object))


def _arguments(valid):
    """(value, whether it must be refused) for a parameter whose valid value
    is `valid`: each bad kind in each shape must be refused; -0.0 in each
    shape, and `valid` as a 0-d array, may be taken."""
    bad = _BAD | _NEGATIVE_HUGE if isinstance(valid, int) else _BAD | _HUGE | _NEGATIVE_HUGE

    def case(value, shape):
        flag = isinstance(valid, bool) and isinstance(value, bool) and shape is _SHAPES[0]
        return shape(value), not flag

    cases = [st.builds(case, bad, st.sampled_from(_SHAPES)),
             st.sampled_from(_SHAPES).map(lambda shape: (shape(-0.0), False))]
    if np.ndim(valid) == 0:
        cases.append(st.just((np.array(valid), False)))
    return st.one_of(cases)


_CASES = st.sampled_from(_FUZZED).flatmap(lambda case: st.tuples(
    st.just(case[0]), st.just(case[1]), _arguments(_ENTRY_POINTS[case[0]][1][case[1]])))


@settings(max_examples=600)
@given(_CASES)
@example(("elliptic.amplitude", "u", (True, True)))
@example(("elliptic.incomplete_E", "x", ("1.5", True)))
@example(("elliptic.complete_E", "m", ("0.5", True)))
@example(("elliptic.incomplete_F", "x", (1 + 1j, True)))
@example(("elliptic.sn", "u", (1 + 1j, True)))
@example(("elliptic.cn", "u", (np.array([0.5, "1"], dtype=object), True)))
@example(("elliptic.cn", "u", (np.array([0.5, 1.0], dtype=object), False)))
@example(("curves.search_planar_closure", "eps", ("1e-6", True)))
@example(("energy.e_lambda", "lam", ("1", True)))
@example(("flow.FlowConfig", "dt", ("1", True)))
@example(("curves.multiplicity", "eps", (1 + 0j, True)))
@example(("networks.double_bubble_energy", "alpha", ("1", True)))
@example(("curves.circle", "radius", (True, True)))
@example(("curves.circle", "radius", (math.inf, True)))
@example(("curves.circle", "radius", (math.nan, True)))
@example(("curves.sample_wavelike", "s_lo", (math.nan, True)))
def test_entry_points_refuse_bad_arguments_in_one_line(case):
    """[TRIVIAL] an entry point given one argument of a kind it does not
    take (a bool, a complex number, a string, an int no float holds, a nan
    or an infinity, alone or in an array) raises exactly one ValueError or
    TypeError, with no chained exception, whose one-line message names the
    parameter; given -0.0 or a 0-d array of a valid value it may return
    instead.  No call warns.  Among the cases: amplitude(True, 0.5) used to
    return am(1, 0.5), incomplete_E("1.5", 0.5) E(1.5, 0.5) and
    complete_E("0.5") E(0.5); incomplete_F(1+1j, 0.5), cn of an
    object array, search_planar_closure(3, "1e-6"), e_lambda(c, "1"),
    FlowConfig("1"), multiplicity(c, p, 1+0j) and double_bubble_energy("1")
    raised a bare TypeError; circle(2, True, 64) built a unit circle,
    circle(2, inf, 64) warned, and circle(2, nan, 64) and
    sample_wavelike(0.5, nan, 1.0, 16) failed naming the coordinates or u."""
    name, param, (value, refused) = case
    fn, kwargs, words = _ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**{**kwargs, param: value})
        except (ValueError, TypeError) as exc:
            message = str(exc)
            assert exc.__cause__ is None
            assert exc.__context__ is None or exc.__suppress_context__
            assert "\n" not in message
            assert re.search(rf"\b({words.get(param, param)})\b", message), message
        else:
            assert not refused


def test_every_public_function_is_fuzzed_or_takes_only_objects():
    """[TRIVIAL] the fuzz drives each function in the `__all__` of the
    checked modules that takes an argument, except those whose arguments
    are all toolkit objects (curves, tuples, states, networks)."""
    objects_only = {"curves.is_embedded", "energy.curvature_vectors", "energy.length",
                    "energy.bending_energy", "energy.normalized_bending",
                    "energy.total_curvature", "energy.total_curvature_piecewise",
                    "flow.normal_laplacian_kappa", "flow.lambda_fixed_length", "flow.step",
                    "networks.theta_energy"}
    no_arguments = {"elliptic.solve_m_star", "elliptic.constants",
                    "curves.build_tangent_tuple_propeller"}
    modules = (elliptic, curves, energy, flow, networks, random_shapes, exact_bounds)
    functions = {f"{m.__name__.split('.')[-1]}.{n}" for m in modules for n in m.__all__
                 if not isinstance(getattr(m, n), type)}
    assert functions - objects_only - no_arguments == set(_ENTRY_POINTS) - {
        "curves.DiscreteCurve", "curves.TangentTuple", "flow.FlowConfig"}


def test_flow_config_stores_its_checked_floats():
    """[TRIVIAL] FlowConfig keeps dt and tol_velocity as the floats its check
    returns: a float32 dt used to make the flow's time a float32."""
    config = flow.FlowConfig(dt=np.float32(2e-3), tol_velocity=1)
    assert type(config.dt) is float and config.dt == float(np.float32(2e-3))
    assert type(config.tol_velocity) is float and config.tol_velocity == 1.0


@pytest.mark.parametrize("x", [0.5, -0.0, 3, np.float64(0.25), np.float32(0.5), np.int8(-7),
                               np.uint64(2 ** 64 - 1), np.array(1.5), np.array(4)], ids=repr)
def test_real_numbers_pass_as_floats(x):
    """[TRIVIAL] a real number, a 0-d array of one included, passes every
    gate as the float of the same value."""
    for got in (_real_scalar(x), _check_real(x, "x"), _check_finite(x, "x")):
        assert type(got) is float and got == float(x)
        assert math.copysign(1.0, got) == math.copysign(1.0, float(x))


@pytest.mark.parametrize("x", [True, np.True_, "1", b"1", 1 + 0j, None, [1.0], np.array([1.0]),
                               np.array(True), np.array("1"), Fraction(1, 2), 10 ** 400],
                         ids=repr)
def test_other_values_are_no_real_scalar(x):
    """[TRIVIAL] the scalar gate reads everything else as nan, so each range
    check refuses it as it refuses a nan: a bool, a string, a complex
    number, a sequence or an int too large for a float."""
    assert math.isnan(_real_scalar(x))


def test_real_gate_keeps_a_float_array_and_casts_integers():
    """[TRIVIAL] a float64 array passes the array gate as itself, with no
    copy (the constructor of every curve takes this path); integer, float32
    and object arrays of numbers become float64 arrays of the same values,
    and a list of floats keeps its bits."""
    a = np.linspace(0.0, 1.0, 7)
    assert _check_real(a, "x") is a
    assert _check_finite(a, "x") is a
    for x in (np.arange(5), np.arange(5, dtype=np.float32), np.arange(5).astype(object),
              [0, 1, 2, 3, 4], [0.0, 1, 2.0, 3, 4.0], [np.int64(0), 1.0, 2, 3, np.float64(4)]):
        got = _check_real(x, "x")
        assert got.dtype == np.float64 and got.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    floats = [0.1, -2.5e-300, 1e300, -0.0]
    assert _check_real(floats, "x").tobytes() == np.array(floats).tobytes()


@pytest.mark.parametrize("x, message", [
    ([1.5, True], "real numbers, got bool values"),
    ([[0, 1], [np.True_, 2]], "real numbers, got bool values"),
    ([1, "2"], "real numbers, got <U21 values"),
    (np.array([1, "2"], dtype=object), "real numbers, got <U1 values"),
    (np.array([1.0, True], dtype=object), "real numbers, got bool values"),
    (np.array([1.0, b"2"], dtype=object), "real numbers, got |S1 values"),
    ([1.0, 1j], "real numbers, got complex128 values"),
    (np.arange(3, dtype=np.complex64), "real numbers, got complex64 values"),
    (np.array([1.0, 1j], dtype=object), "real numbers that fit a float"),
    ([1, 2 ** 70], None),
    ([1.0, 10 ** 400], "real numbers that fit a float"),
    (10 ** 400, "real numbers that fit a float"),
    ("0.5", "real numbers, got <U3 values"),
], ids=["bool-among-floats", "numpy-bool-among-ints", "str-among-ints", "object-str",
        "object-bool", "object-bytes", "complex-list", "complex64", "object-complex",
        "int-beyond-int64", "int-beyond-float", "huge-int", "str"])
def test_real_gate_reads_mixed_input_element_by_element(x, message):
    """[TRIVIAL] the array gate refuses a bool or a string wherever numpy's
    dtype inference puts it, in a list of numbers or in an object array, and
    refuses a complex number or a value that no float holds; an int beyond
    int64 that a float holds (numpy makes the list an object array) is
    read as that float.  The messages name the parameter and the dtype."""
    if message is None:
        assert _check_real(x, "parameter x").tolist() == [1.0, float(2 ** 70)]
        return
    with pytest.raises(ValueError, match=f"^parameter x must be {re.escape(message)}$"):
        _check_real(x, "parameter x")
