"""The benchmark's three workloads.

Each workload turns a seed into a deterministic plan of operations.  An
operation calls the public API of `elastica` and checks the result against
a known answer, with thresholds copied from `elastica.verification`; a
missed check raises `CheckFailed`.  Program functions are always reached
through their module (`curves.is_embedded`, not a from-import), so the
tracer's rebinding of module attributes sees every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from elastica import curves, elliptic, energy, flow, networks, serialization
from elastica.random_shapes import perturbed_circle

__all__ = ["CheckFailed", "Op", "Plan", "WORKLOADS", "build", "warm_up"]


class CheckFailed(Exception):
    """An operation returned a result that misses its known answer."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `call()` runs it and its check, and may
    return extra sub-timings in seconds."""

    kind: str
    params: tuple
    call: Callable[[], Optional[dict]]


@dataclass(frozen=True)
class Plan:
    ops: list
    unit: int     # a run stops only after a whole number of units
    digest: str   # sha256 of every generated input


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_close(got: float, want: float, tol: float, what: str) -> None:
    err = abs(got - want) / abs(want)
    _check(err < tol, f"{what}: {got!r} vs {want!r}, relative error {err:.3e} >= {tol:g}")


def _strata(rng: np.random.Generator, values, count: int) -> list:
    """`count` draws that go through seeded permutations of `values`, so every
    value appears equally often in any stretch of the plan."""
    out = []
    while len(out) < count:
        out.extend(rng.permutation(np.asarray(values)).tolist())
    return out[:count]


def _rigid(rng: np.random.Generator, curve: curves.DiscreteCurve, scale: float = 1.0):
    """Seeded rotation and translation, scaled by `scale`, of a planar curve;
    returns the moved curve and the image of the origin."""
    a = rng.uniform(0.0, 2.0 * math.pi)
    rot = scale * np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    shift = rng.uniform(-2.0, 2.0, size=2)
    return curve.transformed(rotation=rot, translation=shift), shift


def _digest(ops: list) -> str:
    """sha256 of every op's kind and parameters; an array or curve shared by
    many ops is hashed once and then referred to by number."""
    h = hashlib.sha256()
    numbers = {}
    for op in ops:
        h.update(op.kind.encode())
        for p in op.params:
            if not isinstance(p, (curves.DiscreteCurve, np.ndarray)):
                h.update(repr(p).encode())
                continue
            if id(p) not in numbers:
                numbers[id(p)] = len(numbers)
                array = p
                if isinstance(p, curves.DiscreteCurve):
                    h.update(repr((p.closed, p.vertex_marks)).encode())
                    array = p.points
                h.update(array.tobytes())
            h.update(f"#{numbers[id(p)]}".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# flow-battery: elastic flows of the flow criterion's first curve to a round circle

FLOW_UNITS = 20
FLOW_CONFIG = dict(dt=2e-3, tol_velocity=1e-4, max_steps=50_000, embed_check_every=50)
FLOW_LAMBDA = 0.5   # fixed-lambda limit radius 1 / sqrt(2 lambda) = 1


def _flow_op(init: curves.DiscreteCurve, mode: str) -> None:
    config = flow.FlowConfig(**FLOW_CONFIG)
    if mode == "fixed-length":
        rep = flow.run(init, mode, init.length(), config)
        radius = init.length() / (2.0 * math.pi)
    else:
        rep = flow.run(init, mode, FLOW_LAMBDA, config)
        radius = 1.0 / math.sqrt(2.0 * FLOW_LAMBDA)
    _check(rep.always_embedded, f"{mode} flow left the embedded curves")
    _check(rep.final_roundness < 1e-3, f"{mode} roundness {rep.final_roundness:.3e} >= 1e-3")
    _rel_close(rep.limit_radius, radius, 0.01, f"{mode} limit radius")


def _flow_battery(seed: int, workdir: Path) -> Plan:
    # Every unit flows the first curve of the flow criterion in both modes:
    # as it is for seed 0, else under a seeded rotation and translation,
    # which change neither the answer nor the work.  A run holds only a few
    # units, so units of equal work keep its figures from depending on how
    # many units fit: flow times differ 1.7x across the criterion's curves.
    rng = np.random.default_rng(seed)
    base = perturbed_circle(0, 1024, 0.05)
    ops = []
    for _ in range(FLOW_UNITS):
        init = _rigid(rng, base)[0] if seed else base
        for mode in ("fixed-length", "fixed-lambda"):
            ops.append(Op(mode, (init,), partial(_flow_op, init, mode)))
    return Plan(ops, unit=2, digest=_digest(ops))


# ---------------------------------------------------------------------------
# analytic-zoo: elliptic-function samplers, each followed by its energy check

ZOO_CYCLES = 400
PER_HALF = (512, 640, 768, 896, 1024)        # samples per half-period
NETWORK_N = (256, 320, 384, 448, 512)
WAVELIKE_M = (0.2, 0.375, 0.55, 0.725, 0.9)  # +- 0.05 jitter
NETWORK_M = (0.15, 0.3, 0.45, 0.6, 0.75)     # +- 0.05 jitter, below m*
SWEEP_POINTS = 1000


def _figure_eight_op(N: int, n: int) -> None:
    want = elliptic.constants().varpi_star * N * N
    got = energy.normalized_bending(curves.sample_figure_eight(N, n))
    _rel_close(got, want, 1e-3, f"figure-eight N={N} n={n}")


def _half_leaf_op(n: int) -> None:
    got = energy.normalized_bending(curves.canonical_half_leaf(n))
    _rel_close(got, elliptic.constants().varpi_star, 1e-3, f"half-leaf n={n}")


def _wavelike_op(m: float, n: int) -> None:
    # The arc on [-K, K] has length 2K and B = 8 (E - (1-m) K); at m = m*
    # the product is varpi*.
    K = elliptic.complete_K(m)
    want = 16.0 * K * (elliptic.complete_E(m) - (1.0 - m) * K)
    got = energy.normalized_bending(curves.sample_wavelike(m, -K, K, n))
    _rel_close(got, want, 1e-3, f"wavelike m={m!r} n={n}")


def _propeller_op(n: int) -> None:
    got = energy.normalized_bending(curves.propeller_curve(n))
    _rel_close(got, 9.0 * elliptic.constants().varpi_star, 5e-3, f"propeller n={n}")


def _network_op(m: float, n: int) -> None:
    got = networks.theta_energy(networks.build_wavelike_network(m, n))
    _rel_close(got, networks.network_energy_formula(m), 2e-3, f"network m={m!r} n={n}")


def _sweep_op(lo: float, hi: float) -> None:
    c = elliptic.constants()
    limit = 4.0 * math.sqrt(c.varpi_star)
    grid = np.linspace(lo, hi, SWEEP_POINTS)
    vals = [networks.network_energy_formula(float(m)) for m in grid]
    _check(all(b > a for a, b in zip(vals, vals[1:])),
           f"network energy not increasing on [{lo!r}, {hi!r}]")
    _check(all((v < limit) == (m < c.m_star) for m, v in zip(grid, vals)),
           "network energy on the wrong side of 4 sqrt(varpi*)")


def _analytic_zoo(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    count = ZOO_CYCLES
    per_half = {kind: _strata(rng, PER_HALF, count)
                for kind in ("fe1", "fe2", "fe3", "fe4", "half-leaf", "wavelike", "propeller")}
    wave_m = [float(m + rng.uniform(-0.05, 0.05)) for m in _strata(rng, WAVELIKE_M, count)]
    net_m = [float(m + rng.uniform(-0.05, 0.05)) for m in _strata(rng, NETWORK_M, count)]
    net_n = _strata(rng, NETWORK_N, count)
    ops = []
    for i in range(count):
        cycle = [Op(f"figure-eight-{N}", (N, N * per_half[f"fe{N}"][i]),
                    partial(_figure_eight_op, N, N * per_half[f"fe{N}"][i]))
                 for N in (1, 2, 3, 4)]
        n = per_half["half-leaf"][i]
        cycle.append(Op("half-leaf", (n,), partial(_half_leaf_op, n)))
        m, n = wave_m[i], per_half["wavelike"][i]
        cycle.append(Op("wavelike", (m, n), partial(_wavelike_op, m, n)))
        n = per_half["propeller"][i]
        cycle.append(Op("propeller", (n,), partial(_propeller_op, n)))
        m, n = net_m[i], net_n[i]
        cycle.append(Op("network", (m, n), partial(_network_op, m, n)))
        lo, hi = float(rng.uniform(1e-3, 0.1)), float(rng.uniform(0.9, 1.0 - 1e-3))
        cycle.append(Op("energy-sweep", (lo, hi), partial(_sweep_op, lo, hi)))
        ops.extend(cycle[k] for k in rng.permutation(len(cycle)))
    return Plan(ops, unit=9, digest=_digest(ops))


# ---------------------------------------------------------------------------
# curve-queries: geometric predicates, I/O round trips and closure searches

QUERY_CYCLES = 400
EMBEDDED_N = (1024, 2048, 4096)
TURNS = (2, 3, 4)
TURN_SAMPLES = 1200   # divisible by every k in TURNS, see NOTES.md
CLOSURE_K = tuple(range(3, 20, 2))


def _embedded_op(curve: curves.DiscreteCurve, expected: bool) -> None:
    got = curves.is_embedded(curve)
    _check(got is expected, f"is_embedded gave {got} on a {curve.n_points}-point "
           f"{'embedded' if expected else 'self-crossing'} curve")


def _li_yau_op(curve: curves.DiscreteCurve, k: int, bbar: float) -> None:
    # li_yau_margin = L B - varpi* k^2, and L B is known; tolerance 5e-3 as
    # in the rigidity and quantization-ladder criteria.
    quota = elliptic.constants().varpi_star * k * k
    got = energy.li_yau_margin(curve, k) + quota
    _rel_close(got, bbar, 5e-3, f"Li-Yau margin, k={k}")


def _multiplicity_op(curve: curves.DiscreteCurve, point: np.ndarray, k: int) -> None:
    got = curves.multiplicity(curve, point, 1e-6 * curve.length())
    _check(got == k, f"multiplicity {got} where {k} is known")


def _same_curve(a: curves.DiscreteCurve, b: curves.DiscreteCurve, marks: bool) -> bool:
    return (a.closed == b.closed and a.points.shape == b.points.shape
            and a.points.tobytes() == b.points.tobytes()
            and (not marks or a.vertex_marks == b.vertex_marks))


def _round_trip_op(curve: curves.DiscreteCurve, workdir: Path) -> dict:
    csv_path, json_path = workdir / "curve.csv", workdir / "curve.json"
    t0 = perf_counter()
    serialization.curve_to_csv(curve, csv_path)
    serialization.curve_to_json(curve, json_path)
    t1 = perf_counter()
    from_csv = serialization.curve_from_csv(csv_path)
    from_json = serialization.curve_from_json(json_path)
    t2 = perf_counter()
    _check(_same_curve(curve, from_csv, marks=False), "CSV read-back differs")
    _check(_same_curve(curve, from_json, marks=True), "JSON read-back differs")
    return {"write_s": t1 - t0, "read_s": t2 - t1}


def _closure_op(k: int) -> None:
    found = curves.search_planar_closure(k, 1e-6)
    _check(found == [], f"{len(found)} planar closures for odd k={k}")


def _curve_queries(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    c = elliptic.constants()
    embedded = [perturbed_circle(int(rng.integers(2**31)), n, 0.05) for n in EMBEDDED_N]
    # The lift of the 1024-gon costs about what the 1024-gon does; the two
    # sit in the middle of the latency distribution and keep op_p50_s off the
    # gap between neighbouring operation kinds.
    base = embedded[0]
    theta = np.arctan2(base.points[:, 1], base.points[:, 0])
    amp, q = rng.uniform(0.1, 0.3), int(rng.integers(1, 5))
    lift = curves.DiscreteCurve(np.column_stack([base.points, amp * np.sin(q * theta)]),
                                closed=True)
    eight2, cross2 = _rigid(rng, curves.sample_figure_eight(2, 2048), rng.uniform(0.5, 2.0))
    eight4, _ = _rigid(rng, curves.sample_figure_eight(4, 2048), rng.uniform(0.5, 2.0))
    turns = {k: _rigid(rng, curves.circle(2, 1.0, TURN_SAMPLES, turns=k),
                       rng.uniform(0.5, 2.0))[0] for k in TURNS}
    propeller = curves.propeller_curve(512)

    count = QUERY_CYCLES
    eights = _strata(rng, (2, 4), count)
    turn_k = {kind: _strata(rng, TURNS, count) for kind in ("cross", "li-yau", "mult")}
    mult_on = _strata(rng, ("propeller", "figure-eight", "k-turn"), count)
    ser_on = _strata(rng, ("embedded", "propeller", "figure-eight"), count)
    closure_k = _strata(rng, CLOSURE_K, count)
    ops = []
    for i in range(count):
        cycle = [Op(f"embedded-{crv.n_points}", (crv,), partial(_embedded_op, crv, True))
                 for crv in embedded]
        cycle.append(Op("embedded-3d", (lift,), partial(_embedded_op, lift, True)))
        eight = eight2 if eights[i] == 2 else eight4
        cycle.append(Op("crossing-figure-eight", (eight,), partial(_embedded_op, eight, False)))
        k = turn_k["cross"][i]
        cycle.append(Op("crossing-k-turn", (turns[k],), partial(_embedded_op, turns[k], False)))
        cycle.append(Op("li-yau-figure-eight", (eight2,),
                        partial(_li_yau_op, eight2, 2, 4.0 * c.varpi_star)))
        k = turn_k["li-yau"][i]
        cycle.append(Op("li-yau-k-turn", (turns[k], k),
                        partial(_li_yau_op, turns[k], k, 4.0 * math.pi**2 * k * k)))
        if mult_on[i] == "propeller":
            crv, point, k = propeller, np.zeros(3), 3
        elif mult_on[i] == "figure-eight":
            crv, point, k = eight2, cross2, 2
        else:
            k = turn_k["mult"][i]
            crv = turns[k]
            point = crv.points[int(rng.integers(TURN_SAMPLES // k))]
        cycle.append(Op("multiplicity", (crv, point, k), partial(_multiplicity_op, crv, point, k)))
        crv = {"embedded": embedded[0], "propeller": propeller, "figure-eight": eight2}[ser_on[i]]
        cycle.append(Op("round-trip", (crv,), partial(_round_trip_op, crv, workdir)))
        k = closure_k[i]
        cycle.append(Op("closure-search", (k,), partial(_closure_op, k)))
        ops.extend(cycle[j] for j in rng.permutation(len(cycle)))
    return Plan(ops, unit=11, digest=_digest(ops))


WORKLOADS = {
    "flow-battery": _flow_battery,
    "analytic-zoo": _analytic_zoo,
    "curve-queries": _curve_queries,
}


def build(name: str, seed: int, workdir: Path) -> Plan:
    """The plan of workload `name` for `seed`; operations that write files
    write them under `workdir`."""
    return WORKLOADS[name](seed, workdir)


def warm_up(name: str, workdir: Path) -> None:
    """Call each layer of the workload once on a small input, untimed and
    unchecked, so that lazy imports and caches are filled before timing."""
    elliptic.constants()
    small = curves.circle(2, 1.0, 64)
    if name == "flow-battery":
        flow.step(flow.FlowState(curve=small, lam=FLOW_LAMBDA), flow.FlowConfig(**FLOW_CONFIG))
    elif name == "analytic-zoo":
        energy.normalized_bending(curves.canonical_half_leaf(16))
        networks.theta_energy(networks.build_wavelike_network(0.5, 64))
    else:
        curves.is_embedded(small)
        serialization.curve_to_json(small, workdir / "warm-up.json")
        serialization.curve_from_json(workdir / "warm-up.json")
        curves.search_planar_closure(3, 1e-6)
