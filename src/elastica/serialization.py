"""Deterministic curve and network I/O.

Curves: CSV with a `dim,closed` header row followed by one point per row, or
a JSON mirror carrying generator metadata.  Networks: a single JSON document
with three curve blocks plus junction metadata.  All numbers are written with
17 significant digits and '.' as the decimal separator so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .curves import DiscreteCurve
from .networks import ThetaNetwork

__all__ = [
    "format_float",
    "curve_to_csv",
    "curve_from_csv",
    "curve_to_json",
    "curve_from_json",
    "network_to_json",
    "network_from_json",
]

_FMT = "%.17g"


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return _FMT % float(x)


def _format_points(points: np.ndarray) -> str:
    return "\n".join(",".join(format_float(v) for v in row) for row in points)


def curve_to_csv(curve: DiscreteCurve, path) -> None:
    text = f"{curve.dimension},{int(curve.closed)}\n" + _format_points(curve.points) + "\n"
    Path(path).write_text(text)


def curve_from_csv(path) -> DiscreteCurve:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty curve file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ValueError(f"{path}: expected 'dim,closed' header, got {lines[0]!r}")
    dim, closed = int(head[0]), bool(int(head[1]))
    points = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"{path}: point rows do not match declared dimension {dim}")
    return DiscreteCurve(points, closed=closed)


def _curve_block(curve: DiscreteCurve, generator: Optional[str], parameters: Optional[dict]):
    block = {
        "dim": curve.dimension,
        "closed": curve.closed,
        "points": [[format_float(v) for v in row] for row in curve.points],
    }
    if generator is not None:
        block["generator"] = generator
        block["parameters"] = parameters or {}
    if curve.vertex_marks is not None:
        block["vertex_marks"] = [int(i) for i in curve.vertex_marks]
    return block


def _curve_from_block(block) -> DiscreteCurve:
    points = np.array([[float(v) for v in row] for row in block["points"]])
    marks = block.get("vertex_marks")
    return DiscreteCurve(points, closed=bool(block["closed"]),
                         vertex_marks=None if marks is None else tuple(marks))


def _dump(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def curve_to_json(curve: DiscreteCurve, path, generator: Optional[str] = None,
                  parameters: Optional[dict] = None) -> None:
    _dump({"kind": "curve", **_curve_block(curve, generator, parameters)}, path)


def curve_from_json(path) -> DiscreteCurve:
    doc = json.loads(Path(path).read_text())
    if doc.get("kind") != "curve":
        raise ValueError(f"{path}: not a curve document")
    return _curve_from_block(doc)


def network_to_json(net: ThetaNetwork, path, generator: Optional[str] = None,
                    parameters: Optional[dict] = None) -> None:
    doc = {
        "kind": "theta-network",
        "curves": [_curve_block(c, None, None) for c in net.curves],
        "junction_a": [format_float(v) for v in net.junction_a],
        "junction_b": [format_float(v) for v in net.junction_b],
        "angle_spec": [format_float(a) for a in net.angle_spec],
    }
    if net.start_tangents is not None:
        doc["start_tangents"] = [[format_float(v) for v in row] for row in net.start_tangents]
    if net.end_tangents is not None:
        doc["end_tangents"] = [[format_float(v) for v in row] for row in net.end_tangents]
    if generator is not None:
        doc["generator"] = generator
        doc["parameters"] = parameters or {}
    _dump(doc, path)


def network_from_json(path) -> ThetaNetwork:
    doc = json.loads(Path(path).read_text())
    if doc.get("kind") != "theta-network":
        raise ValueError(f"{path}: not a theta-network document")

    def _mat(key):
        rows = doc.get(key)
        if rows is None:
            return None
        return np.array([[float(v) for v in row] for row in rows])

    return ThetaNetwork(
        curves=tuple(_curve_from_block(b) for b in doc["curves"]),
        junction_a=np.array([float(v) for v in doc["junction_a"]]),
        junction_b=np.array([float(v) for v in doc["junction_b"]]),
        angle_spec=tuple(float(a) for a in doc["angle_spec"]),
        start_tangents=_mat("start_tangents"),
        end_tangents=_mat("end_tangents"),
    )
