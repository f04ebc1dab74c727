"""Round trips and determinism of the file formats.

Tags: [TRIVIAL] direct checks of invented plumbing.
"""

import json

import numpy as np
import pytest

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
