"""Per-layer tracing from outside the program.

`Tracer` replaces the public functions of each `elastica` module with timing
wrappers for the duration of a `with` block.  Every module attribute bound to
a traced function is rebound, so from-import aliases such as
`flow.curvature_vectors` or `flow.is_embedded` are traced too, and
`DiscreteCurve` constructions are counted through `__post_init__`.

Spans nest on one stack: a function's self time is its span minus the spans
of the traced functions it called.
"""

from __future__ import annotations

import functools
import os
import sys
from importlib import import_module
from time import perf_counter

__all__ = ["LAYERS", "Tracer"]

# The traced public functions of each layer (a module of `elastica`).
LAYERS = {
    "elliptic": ("amplitude", "incomplete_E", "complete_K", "complete_E", "constants"),
    "curves": ("sample_figure_eight", "sample_wavelike", "canonical_half_leaf",
               "propeller_curve", "is_embedded", "multiplicity", "search_planar_closure"),
    "energy": ("curvature_vectors", "bending_energy", "length", "normalized_bending",
               "li_yau_margin"),
    "flow": ("run", "step", "velocity_field", "lambda_fixed_length",
             "normal_laplacian_kappa"),
    "networks": ("build_wavelike_network", "theta_energy", "network_energy_formula"),
    "serialization": ("curve_to_csv", "curve_from_csv", "curve_to_json", "curve_from_json"),
}
# Argument index of the file path, for functions whose bytes are counted.
_PATH_ARG = {"serialization.curve_to_csv": 1, "serialization.curve_to_json": 1,
             "serialization.curve_from_csv": 0, "serialization.curve_from_json": 0}
_SPLIT_BY_RESULT = "curves.is_embedded"
_CONSTRUCTION = "curves.DiscreteCurve"


def _span_names() -> list:
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            names.append(f"{layer}.{fn}")
            if names[-1] == _SPLIT_BY_RESULT:
                names += [f"{_SPLIT_BY_RESULT}.true", f"{_SPLIT_BY_RESULT}.false"]
        if layer == "curves":
            names.append(_CONSTRUCTION)
    return names


class Tracer:
    """Context manager that traces the functions in LAYERS while active."""

    def __init__(self):
        names = _span_names()
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.span_s = dict.fromkeys(names, 0.0)
        self.bytes = dict.fromkeys(_PATH_ARG, 0)
        self._stack = []
        self._undo = []

    def _add(self, name: str, span: float, own: float) -> None:
        self.calls[name] += 1
        self.span_s[name] += span
        self.self_s[name] += own

    def _wrap(self, name: str, fn):
        stack = self._stack
        path_arg = _PATH_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                span = perf_counter() - t0
                own = span - stack.pop()
                if stack:
                    stack[-1] += span
                self._add(name, span, own)
                if returned and name == _SPLIT_BY_RESULT:
                    self._add(f"{name}.{'true' if result else 'false'}", span, own)
                if returned and path_arg is not None:
                    self.bytes[name] += os.path.getsize(args[path_arg])

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "elastica" or key.startswith("elastica.")]
        for layer, functions in LAYERS.items():
            module = import_module(f"elastica.{layer}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, original))
                            setattr(m, attr, wrapped)
        cls = import_module("elastica.curves").DiscreteCurve
        original = cls.__dict__["__post_init__"]
        self._undo.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap(_CONSTRUCTION, original)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Nonzero call counts so far."""
        return {f"{k}.calls": v for k, v in self.calls.items() if v}

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}, without the setup and
        overhead entries that the caller measures."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            if name in self.bytes:
                out[f"{name}.bytes"] = (self.bytes[name], "bytes")
        flows, steps = self.calls["flow.run"], self.calls["flow.step"]
        out["flow.steps_per_flow"] = (steps / flows if flows else 0.0, "steps")
        out["flow.step_s"] = (self.span_s["flow.step"] / steps if steps else 0.0, "s")
        return out
