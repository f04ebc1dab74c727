"""Deterministic curve and network I/O.

Curves: CSV with a `dim,closed` header row followed by one point per row, or
a JSON mirror carrying generator metadata.  Networks: a single JSON document
with three curve blocks plus junction metadata.  All numbers are written with
17 significant digits and '.' as the decimal separator so identical inputs
produce byte-identical files.  The JSON writer lays a document out itself, in
the bytes of `json.dumps(indent=2, sort_keys=True)`.  The readers decode files
as UTF-8, and the JSON readers parse with the cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from itertools import chain
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
    """The rows of `points` as lines of comma-separated `format_float`
    values, formatted with one `%` over the whole block."""
    rows, dim = points.shape
    return "\n".join([",".join([_FMT] * dim)] * rows) % tuple(points.ravel().tolist())


def curve_to_csv(curve: DiscreteCurve, path) -> None:
    text = f"{curve.dimension},{int(curve.closed)}\n" + _format_points(curve.points) + "\n"
    Path(path).write_text(text)


def _read_text(path) -> str:
    """The file decoded as UTF-8 whatever the locale; a file that is not
    UTF-8 raises one line naming the file, the line and the byte offset.
    `read_text` decodes the whole file in one call, so the decoder's offset
    is the file's."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]
        # lines end as `read_text` ends them: at LF, CR LF or a lone CR
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line}: expected UTF-8 text, got byte "
                         f"0x{exc.object[exc.start]:02x} at byte offset {exc.start}") from None


def curve_from_csv(path) -> DiscreteCurve:
    """A curve from a `dim,closed` header (dim an integer >= 2, closed 0 or 1)
    and rows of dim numbers; a bad line raises naming the file and the line."""
    text = _read_text(path)
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty curve file")
    # the number of the header line, after the blank lines that strip() dropped
    first = text[:len(text) - len(text.lstrip())].count("\n") + 1
    head = lines[0].split(",")
    try:
        dim = int(head[0])
    except ValueError:
        dim = 0
    if len(head) != 2 or dim < 2 or head[1].strip() not in ("0", "1"):
        raise ValueError(f"{path}: line {first}: expected a 'dim,closed' header with "
                         f"dim >= 2 and closed 0 or 1, got {lines[0]!r}")
    body = lines[1:]
    try:
        values = list(map(float, ",".join(body).split(","))) if body else []
    except ValueError:
        values = None
    if values is None or any(line.count(",") != dim - 1 for line in body):
        # name the first bad line
        for number, line in enumerate(body, start=first + 1):
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = []
            if len(row) != dim:
                raise ValueError(f"{path}: line {number}: expected {dim} numbers, "
                                 f"got {line!r}")
    return DiscreteCurve(np.array(values, dtype=float).reshape(len(body), dim),
                         closed=head[1].strip() == "1")


def _curve_block(curve: DiscreteCurve, generator: Optional[str], parameters: Optional[dict]):
    block = {"dim": curve.dimension, "closed": curve.closed, "points": curve.points}
    if generator is not None:
        block["generator"] = generator
        block["parameters"] = parameters or {}
    if curve.vertex_marks is not None:
        block["vertex_marks"] = [int(i) for i in curve.vertex_marks]
    return block


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    return doc[key]


def _number(value, key: str, where: str) -> float:
    """A JSON number, or a string that `float` reads (as the writers emit)."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{where}: key {key!r} holds {value!r}, not a number")


def _vector(value, key: str, where: str, size: int) -> np.ndarray:
    if not (isinstance(value, list) and len(value) == size):
        raise ValueError(f"{where}: key {key!r} must be a list of {size} numbers")
    return np.array([_number(v, key, where) for v in value], dtype=float)


def _rows(value, key: str, where: str, count: Optional[int] = None) -> np.ndarray:
    """A list of (count, if given) equal-length lists of numbers, as a float
    array."""
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)
            and len({len(row) for row in value}) <= 1 and count in (None, len(value))):
        what = "" if count is None else f"{count} "
        raise ValueError(f"{where}: key {key!r} must be a list of {what}"
                         "equal-length lists of numbers")
    flat = list(chain.from_iterable(value))
    values = None
    if set(map(type, flat)) <= {float, int, str}:
        try:
            values = list(map(float, flat))
        except (ValueError, OverflowError):
            pass
    if values is None:
        # name the bad value
        values = [_number(v, key, where) for v in flat]
    return np.array(values, dtype=float).reshape(len(value), len(value[0]) if value else 0)


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and resume it on exit only if it
    was running on entry.  A parsed document holds one list per point row,
    all alive at once; collections during the parse find no cycle to free
    (refcounting frees every row) and only promote the rows towards the
    full collection.  The readers release the document inside the pause, so
    the allocation count it raised is back down when the collector resumes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_json(path) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    return _object(doc, str(path))


def _curve_from_block(block, where: str) -> DiscreteCurve:
    block = _object(block, where)
    points = _rows(_field(block, "points", where), "points", where)
    dim = _field(block, "dim", where)
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim == points.shape[1]):
        raise ValueError(f"{where}: key 'dim' must be an integer equal to the width "
                         "of the 'points' rows")
    closed = _field(block, "closed", where)
    if not isinstance(closed, bool):
        raise ValueError(f"{where}: key 'closed' must be true or false")
    marks = block.get("vertex_marks")
    if marks is not None and not isinstance(marks, list):
        raise ValueError(f"{where}: key 'vertex_marks' must be a list of integers")
    return DiscreteCurve(points, closed=closed,
                         vertex_marks=None if marks is None else tuple(marks))


def _points_text(points: np.ndarray, depth: int) -> str:
    """The rows of `points` as a JSON list of lists of `format_float` strings
    opening at nesting depth `depth`, laid out as `json.dumps(indent=2)` lays
    it out, formatted with one `%` over the whole block."""
    rows, dim = points.shape
    pad = "\n" + "  " * depth
    row = "[" + ",".join([f'{pad}    "{_FMT}"'] * dim) + f"{pad}  ]"
    return ("[" + ",".join([f"{pad}  {row}"] * rows) + f"{pad}]") % tuple(points.ravel().tolist())


def _object_text(doc: dict, depth: int) -> str:
    """The document's own object `doc` opening at nesting depth `depth`, in
    the bytes of `json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`
    at that depth.  The writer lays out `points` (an array) and `curves` (a
    list of curve blocks) itself; every other value is `json.dumps`'s own
    text, re-indented (its newlines are all layout: strings escape theirs)."""
    pad = "\n" + "  " * (depth + 1)
    items = []
    for key in sorted(doc):
        value = doc[key]
        if key == "points":
            text = _points_text(value, depth + 1)
        elif key == "curves":
            text = "[" + ",".join(f"{pad}  {_object_text(b, depth + 2)}" for b in value) + f"{pad}]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", pad)
        items.append(f"{pad}{json.dumps(key)}: {text}")
    return "{" + ",".join(items) + "\n" + "  " * depth + "}"


def _dump(doc: dict, path) -> None:
    Path(path).write_text(_object_text(doc, 0) + "\n")


def curve_to_json(curve: DiscreteCurve, path, generator: Optional[str] = None,
                  parameters: Optional[dict] = None) -> None:
    _dump({"kind": "curve", **_curve_block(curve, generator, parameters)}, path)


def curve_from_json(path) -> DiscreteCurve:
    # the parsed document lives only in the helper's frame, so it is freed
    # before the collector resumes
    with _collector_paused():
        return _curve_from_doc(_read_json(path), path)


def _curve_from_doc(doc: dict, path) -> DiscreteCurve:
    if doc.get("kind") != "curve":
        raise ValueError(f"{path}: not a curve document")
    return _curve_from_block(doc, str(path))


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
    with _collector_paused():
        return _network_from_doc(_read_json(path), path)


def _network_from_doc(doc: dict, path) -> ThetaNetwork:
    where = str(path)
    if doc.get("kind") != "theta-network":
        raise ValueError(f"{path}: not a theta-network document")
    blocks = _field(doc, "curves", where)
    if not isinstance(blocks, list) or len(blocks) != 3:
        raise ValueError(f"{where}: key 'curves' must be a list of 3 curve blocks")
    curves = tuple(_curve_from_block(b, f"{where}: curves[{i}]") for i, b in enumerate(blocks))
    dim = curves[0].dimension
    if any(c.dimension != dim for c in curves):
        raise ValueError(f"{where}: key 'curves' holds curves of different dimensions")
    tangents = {}
    for key in ("start_tangents", "end_tangents"):
        rows = doc.get(key)
        tangents[key] = None if rows is None else _rows(rows, key, where, count=3)
        if rows is not None and tangents[key].shape[1] != dim:
            raise ValueError(f"{where}: key {key!r} must hold vectors of dimension {dim}")
    return ThetaNetwork(
        curves=curves,
        junction_a=_vector(_field(doc, "junction_a", where), "junction_a", where, dim),
        junction_b=_vector(_field(doc, "junction_b", where), "junction_b", where, dim),
        angle_spec=tuple(_vector(_field(doc, "angle_spec", where), "angle_spec", where, 3)
                         .tolist()),
        **tangents,
    )
