"""Round trips and determinism of the file formats.

Tags: [TRIVIAL] direct checks of invented plumbing.
"""

import gc
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elastica import curves, networks, serialization
from elastica.random_shapes import perturbed_circle


def test_csv_roundtrip_exact(tmp_path):
    """[TRIVIAL] 17-significant-digit CSV round-trips bit for bit."""
    g = perturbed_circle(9, 128, 0.05)
    p = tmp_path / "c.csv"
    serialization.curve_to_csv(g, p)
    h = serialization.curve_from_csv(p)
    assert h.closed == g.closed
    np.testing.assert_array_equal(h.points, g.points)


def test_json_roundtrip_exact(tmp_path):
    """[TRIVIAL] JSON mirror with metadata round-trips bit for bit."""
    g = curves.sample_figure_eight(2, 128)
    p = tmp_path / "c.json"
    serialization.curve_to_json(g, p, generator="figure-eight",
                                parameters={"halves": 2, "n": 128})
    doc = json.loads(p.read_text())
    assert doc["generator"] == "figure-eight"
    h = serialization.curve_from_json(p)
    np.testing.assert_array_equal(h.points, g.points)
    assert h.closed


def test_vertex_marks_survive_json(tmp_path):
    """[TRIVIAL] leaf joint marks are preserved."""
    g = curves.propeller_curve(n_samples_per_leaf=64)
    p = tmp_path / "p.json"
    serialization.curve_to_json(g, p)
    h = serialization.curve_from_json(p)
    assert h.vertex_marks == g.vertex_marks


def test_network_roundtrip(tmp_path):
    """[TRIVIAL] three curve blocks plus junction metadata."""
    net = networks.build_wavelike_network(0.6, 128)
    p = tmp_path / "net.json"
    serialization.network_to_json(net, p, generator="wavelike",
                                  parameters={"m": 0.6})
    back = serialization.network_from_json(p)
    assert networks.theta_energy(back) == pytest.approx(
        networks.theta_energy(net), rel=1e-15)
    np.testing.assert_array_equal(back.junction_a, net.junction_a)
    np.testing.assert_allclose(back.angle_spec, net.angle_spec, atol=1e-16)


def test_deterministic_bytes(tmp_path):
    """[TRIVIAL] identical inputs produce byte-identical files."""
    g = perturbed_circle(1, 64, 0.05)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    serialization.curve_to_csv(g, p1)
    serialization.curve_to_csv(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture
def collector():
    """Restore the cyclic collector's state and callbacks as found."""
    enabled, callbacks = gc.isenabled(), list(gc.callbacks)
    yield
    gc.callbacks[:] = callbacks
    (gc.enable if enabled else gc.disable)()


def test_json_readers_run_no_collection(tmp_path, collector):
    """[TRIVIAL] reading a 2050-point curve and a 3 x 257-point network,
    whose parsed documents hold one list per row, starts no collection of
    the cyclic collector, and reads back the written curves bit for bit."""
    curve = curves.sample_figure_eight(2, 2048)
    net = networks.build_wavelike_network(0.5, 256)
    serialization.curve_to_json(curve, tmp_path / "c.json")
    serialization.network_to_json(net, tmp_path / "n.json")
    starts = []
    gc.enable()
    gc.collect()
    gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
    back = serialization.curve_from_json(tmp_path / "c.json")
    net_back = serialization.network_from_json(tmp_path / "n.json")
    gc.callbacks.pop()
    assert starts == []
    for got, want in zip((back, *net_back.curves), (curve, *net.curves)):
        assert got.points.tobytes() == want.points.tobytes()
        assert (got.closed, got.vertex_marks) == (want.closed, want.vertex_marks)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_json_readers_leave_the_collector_as_they_found_it(enabled, tmp_path, collector):
    """[TRIVIAL] after a read that succeeds, and after one that raises on a
    malformed document, the collector is on exactly when the caller had it
    on."""
    good_curve, good_net = tmp_path / "c.json", tmp_path / "n.json"
    serialization.curve_to_json(curves.circle(2, 1.0, 16), good_curve)
    serialization.network_to_json(networks.build_wavelike_network(0.5, 64), good_net)
    bad = {"syntax.json": b'{"kind": "curve",', "utf8.json": b'{"kind": "\xff"}',
           "points.json": b'{"kind": "curve", "dim": 2, "closed": true, "points": [[0, "x"]]}',
           "network.json": b'{"kind": "theta-network", "curves": 5}'}
    for name, data in bad.items():
        (tmp_path / name).write_bytes(data)
    (gc.enable if enabled else gc.disable)()
    serialization.curve_from_json(good_curve)
    assert gc.isenabled() == enabled
    serialization.network_from_json(good_net)
    assert gc.isenabled() == enabled
    for name in bad:
        for reader in (serialization.curve_from_json, serialization.network_from_json):
            with pytest.raises(ValueError):
                reader(tmp_path / name)
            assert gc.isenabled() == enabled


def test_reader_rejects_malformed(tmp_path):
    """[TRIVIAL] error paths."""
    p = tmp_path / "bad.csv"
    p.write_text("3,0\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        serialization.curve_from_csv(p)
    q = tmp_path / "bad.json"
    q.write_text('{"kind": "something-else"}')
    with pytest.raises(ValueError):
        serialization.curve_from_json(q)


def test_writers_match_a_per_value_format_float_join(tmp_path):
    """[TRIVIAL] the block writers, which format all values with one `%`,
    write the bytes of a per-value `format_float` join, for -0.0, 1e-300,
    subnormals and +-1e300, and read them back bit for bit."""
    tiny = [-0.0, 1e-300, 5e-324, 2.5e-310]
    # the 1e300 columns are constant, so every edge length is finite
    points = np.array([[t, 1e300, -1e300, z] for t, z in zip(tiny, [0.0, 1.0, 0.1, -2.5])])
    g = curves.DiscreteCurve(points, closed=False)
    rows = [[serialization.format_float(v) for v in row] for row in points]
    csv_path, json_path = tmp_path / "c.csv", tmp_path / "c.json"
    serialization.curve_to_csv(g, csv_path)
    assert csv_path.read_text() == "4,0\n" + "\n".join(",".join(r) for r in rows) + "\n"
    serialization.curve_to_json(g, json_path)
    want = {"kind": "curve", "dim": 4, "closed": False, "points": rows}
    assert json_path.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"
    for back in (serialization.curve_from_csv(csv_path),
                 serialization.curve_from_json(json_path)):
        assert back.points.tobytes() == points.tobytes()


def _old_block(curve, generator=None, parameters=None) -> dict:
    """A curve block as the writer used to build it, before handing it to
    `json.dumps(indent=2, sort_keys=True)`: points as lists of strings."""
    block = {"dim": curve.dimension, "closed": curve.closed,
             "points": [[serialization.format_float(v) for v in row] for row in curve.points]}
    if generator is not None:
        block["generator"] = generator
        block["parameters"] = parameters or {}
    if curve.vertex_marks is not None:
        block["vertex_marks"] = list(curve.vertex_marks)
    return block


def _old_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 1e-300, 1.0, -2.5, 0.1, 1.0 / 3.0])
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5))
# str-keyed and int-keyed dicts, non-ASCII and control characters, empty containers
_METADATA = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=10)


@st.composite
def _curves(draw):
    """Curves of dimension 2-4, open or closed, marked or not, whose
    coordinates include -0.0, subnormals and a constant +-1e300 column (so
    that every edge length stays finite)."""
    dim, n = draw(st.integers(2, 4)), draw(st.integers(3, 12))
    pts = np.array([[draw(_SPECIAL | st.floats(-1e6, 1e6)) for _ in range(dim)]
                    for _ in range(n)])
    # consecutive points distinct, edges far from overflow and underflow
    pts[:, 0] = np.arange(n) * draw(st.sampled_from([1.0, -0.5, 1e-100]))
    big = draw(st.sampled_from([None, 1e300, -1e300]))
    if big is not None:
        pts[:, dim - 1] = big
    marks = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=3).map(tuple))
    return curves.DiscreteCurve(pts, closed=draw(st.booleans()), vertex_marks=marks)


@given(curve=_curves(), generator=st.none() | st.text(max_size=5),
       parameters=st.none() | st.dictionaries(st.text(max_size=5), _METADATA, max_size=4)
       | st.dictionaries(st.integers(), _METADATA, max_size=4))
def test_curve_json_has_the_bytes_of_indented_json_dumps(curve, generator, parameters):
    """[DERIVED] the fixed-layout curve writer writes the text of
    json.dumps(indent=2, sort_keys=True, allow_nan=False) of the document
    with its points as lists of format_float strings."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        serialization.curve_to_json(curve, path, generator=generator, parameters=parameters)
        text = path.read_text()
    assert text == _old_text({"kind": "curve", **_old_block(curve, generator, parameters)})


@given(m=st.sampled_from([0.3, 0.6, 0.8]), tangents=st.booleans(),
       generator=st.none() | st.text(max_size=5),
       parameters=st.none() | st.dictionaries(st.text(max_size=5), _METADATA, max_size=4))
def test_network_json_has_the_bytes_of_indented_json_dumps(m, tangents, generator, parameters):
    """[DERIVED] the same for a network document, with and without its
    junction tangents."""
    net = networks.build_wavelike_network(m, 64)
    if not tangents:
        net = replace(net, start_tangents=None, end_tangents=None)
    fmt = serialization.format_float
    doc = {"kind": "theta-network", "curves": [_old_block(c) for c in net.curves],
           "junction_a": [fmt(v) for v in net.junction_a],
           "junction_b": [fmt(v) for v in net.junction_b],
           "angle_spec": [fmt(a) for a in net.angle_spec]}
    if tangents:
        doc["start_tangents"] = [[fmt(v) for v in row] for row in net.start_tangents]
        doc["end_tangents"] = [[fmt(v) for v in row] for row in net.end_tangents]
    if generator is not None:
        doc["generator"] = generator
        doc["parameters"] = parameters or {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "n.json"
        serialization.network_to_json(net, path, generator=generator, parameters=parameters)
        text = path.read_text()
    assert text == _old_text(doc)


@pytest.mark.parametrize("parameters, error", [
    ({"radius": [1.0, {"x": math.nan}]}, ValueError),
    ({"radius": math.inf}, ValueError),
    ({"a": 1, 2: "b"}, TypeError),   # keys of two types do not sort
])
def test_json_writers_refuse_what_json_dumps_refuses(parameters, error, tmp_path):
    """[TRIVIAL] parameters that json.dumps(sort_keys=True, allow_nan=False)
    refuses are refused by both writers, with its exception."""
    with pytest.raises(error):
        serialization.curve_to_json(curves.circle(2, 1.0, 16), tmp_path / "c.json",
                                    generator="circle", parameters=parameters)
    with pytest.raises(error):
        serialization.network_to_json(networks.build_wavelike_network(0.5, 64),
                                      tmp_path / "n.json", generator="wavelike",
                                      parameters=parameters)
