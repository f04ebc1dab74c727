"""Acceptance-grade verification suite.

Each criterion is a pure function returning a CriterionResult; `run_all`
evaluates them in order.  The CLI `verify` subcommand and the acceptance
tests both dispatch through this module so there is exactly one definition
of every threshold.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import curves, elliptic, energy, exact_bounds, flow, networks
from .random_shapes import perturbed_circle, random_drop, random_piecewise_cycle

__all__ = ["CriterionResult", "CRITERION_NAMES", "run_criterion", "run_all"]

# Expected exact values of the tail/partial-sum brackets (criterion 2).
_T10_AT_3_4 = Fraction(71740047753969831, 72057594037927936)
_S7_AT_17_20 = Fraction(1739865847127, 1717986918400)

_FLOW_SEEDS = 20
_DROP_SEEDS = 50
_CYCLE_SEEDS = 50


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _result(name, checks, detail) -> CriterionResult:
    return CriterionResult(name=name, passed=all(checks), detail=detail)


def criterion_constants() -> CriterionResult:
    c = elliptic.constants()
    residual = abs(elliptic.complete_K(c.m_star) - 2.0 * elliptic.complete_E(c.m_star))
    checks = [
        abs(c.m_star - 0.82611) <= 1e-4,
        abs(c.varpi_star - 28.109) <= 1e-2,
        abs(c.phi_star_degrees - 49.290) <= 0.01,
        residual < 1e-12,
    ]
    detail = (f"m*={c.m_star:.6f}, varpi*={c.varpi_star:.4f}, "
              f"phi*={c.phi_star_degrees:.4f} deg, residual={residual:.2e}")
    return _result("constants", checks, detail)


def criterion_exact_bounds() -> CriterionResult:
    t10 = exact_bounds.tail_T(10, Fraction(3, 4))
    s7 = exact_bounds.partial_S(7, Fraction(17, 20))
    checks = [t10 == _T10_AT_3_4, s7 == _S7_AT_17_20, t10 < 1, s7 > 1]
    # The float backend must sit inside the exact brackets; the tolerance
    # absorbs float error only, the exact comparisons above involve no rounding.
    for mq, N in ((Fraction(3, 4), 10), (Fraction(17, 20), 7)):
        br = exact_bounds.bracket(N, mq)
        m = float(mq)
        fval = (2.0 / math.pi) * (elliptic.complete_K(m) - 2.0 * elliptic.complete_E(m)) + 1.0
        checks.append(float(br.lower_S) <= fval + 1e-10 and fval <= float(br.upper_T) + 1e-10)
    detail = f"T_10(3/4)={t10} < 1 < S_7(17/20)={s7}"
    return _result("exact-bounds", checks, detail)


def criterion_closed_forms() -> CriterionResult:
    c = elliptic.constants()
    errs = [abs(energy.normalized_bending(curves.canonical_half_leaf(n)) - c.varpi_star)
            / c.varpi_star for n in (128, 256, 512)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    checks = [errs[2] < 1e-3, min(orders) >= 1.8]
    fig_errs = []
    for N in (1, 2, 3, 4):
        target = c.varpi_star * N * N
        nb = energy.normalized_bending(curves.sample_figure_eight(N, 2048))
        fig_errs.append(abs(nb - target) / target)
        checks.append(fig_errs[-1] < 1e-3)
    detail = (f"half-leaf err@512={errs[2]:.2e}, orders={orders[0]:.2f}/{orders[1]:.2f}, "
              f"max N/2-fold err={max(fig_errs):.2e}")
    return _result("closed-forms", checks, detail)


def criterion_rigidity() -> CriterionResult:
    c = elliptic.constants()
    fe = energy.normalized_bending(curves.sample_figure_eight(2, 2048))
    pr = energy.normalized_bending(curves.propeller_curve(n_samples_per_leaf=1024))
    err_fe = abs(fe - 4.0 * c.varpi_star) / (4.0 * c.varpi_star)
    err_pr = abs(pr - 9.0 * c.varpi_star) / (9.0 * c.varpi_star)
    om = curves.build_tangent_tuple_propeller().omegas
    cos_target = math.cos(2.0 * c.phi_star)
    tuple_err = max(
        max(abs(np.linalg.norm(o) - 1.0) for o in om),
        max(abs(float(np.dot(om[i], om[(i + 1) % 3])) - cos_target) for i in range(3)),
    )
    checks = [err_fe < 5e-3, err_pr < 5e-3, tuple_err < 1e-10]
    detail = (f"figure-eight margin={err_fe:.2e}, propeller margin={err_pr:.2e}, "
              f"tuple residual={tuple_err:.2e}")
    return _result("rigidity", checks, detail)


def criterion_closure_search() -> CriterionResult:
    t0 = time.perf_counter()
    counts = {k: len(curves.search_planar_closure(k, 1e-6)) for k in (3, 5, 7, 9)}
    elapsed = time.perf_counter() - t0
    checks = [all(v == 0 for v in counts.values()), elapsed < 1.0]
    detail = f"closures found={counts}, elapsed={elapsed:.3f}s"
    return _result("closure-search", checks, detail)


def criterion_quantization_ladder() -> CriterionResult:
    c = elliptic.constants()
    vals = [
        energy.normalized_bending(curves.circle(2, 1.0, 2048)),
        energy.normalized_bending(curves.sample_figure_eight(2, 2048)),
        energy.normalized_bending(curves.circle(2, 1.0, 2048, turns=2)),
    ]
    targets = [4.0 * math.pi ** 2, 4.0 * c.varpi_star, 16.0 * math.pi ** 2]
    errs = [abs(v - t) / t for v, t in zip(vals, targets)]
    checks = [max(errs) < 5e-3, vals[0] < vals[1] < vals[2]]
    detail = f"Bbar=({vals[0]:.3f}, {vals[1]:.3f}, {vals[2]:.3f}), max err={max(errs):.2e}"
    return _result("quantization-ladder", checks, detail)


def criterion_flow() -> CriterionResult:
    config = flow.FlowConfig()
    checks = []
    worst_round = 0.0
    worst_rad_fl = 0.0
    worst_rad_lam = 0.0
    for seed in range(_FLOW_SEEDS):
        init = perturbed_circle(seed, 1024, 0.05)
        rep = flow.run(init, "fixed-length", init.length(), config)
        target = init.length() / (2.0 * math.pi)
        rad_err = abs(rep.limit_radius - target) / target
        checks += [rep.always_embedded, rep.final_roundness < 1e-3, rad_err < 0.01]
        worst_round = max(worst_round, rep.final_roundness)
        worst_rad_fl = max(worst_rad_fl, rad_err)
        rep2 = flow.run(init, "fixed-lambda", 0.5, config)
        rad_err2 = abs(rep2.limit_radius - 1.0)
        checks.append(rad_err2 < 0.01)
        worst_rad_lam = max(worst_rad_lam, rad_err2)
    detail = (f"{_FLOW_SEEDS} seeds: worst roundness={worst_round:.2e}, "
              f"worst fixed-length radius err={worst_rad_fl:.2e}, "
              f"worst fixed-lambda radius err={worst_rad_lam:.2e}")
    return _result("flow", checks, detail)


def criterion_network_chain() -> CriterionResult:
    c = elliptic.constants()
    limit = 4.0 * math.sqrt(c.varpi_star)
    val34 = networks.network_energy_formula(0.75)
    net = networks.build_wavelike_network(0.75, 512)
    disc = networks.theta_energy(net)
    angle_err = abs(networks.wavelike_junction_angle(0.75) - math.pi / 3.0)
    grid = np.linspace(1e-3, 1.0 - 1e-3, 1000)
    vals = [networks.network_energy_formula(m) for m in grid]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))
    limit_err = abs(networks.network_energy_formula(c.m_star - 1e-8) - limit)
    db = networks.double_bubble_energy(3.0 * math.pi / 4.0)
    checks = [
        val34 < limit,
        abs(disc - val34) / val34 < 2e-3,
        angle_err < 1e-8,
        monotone,
        limit_err < 1e-5,
        abs(db - 20.214) < 0.01,
    ]
    detail = (f"formula(3/4)={val34:.4f} < {limit:.4f}, discrete err="
              f"{abs(disc - val34) / val34:.2e}, angle err={angle_err:.1e}, "
              f"monotone={monotone}, limit err={limit_err:.1e}, double bubble={db:.4f}")
    return _result("network-chain", checks, detail)


def criterion_drop_bound() -> CriterionResult:
    c = elliptic.constants()
    bound = 2.0 * math.sqrt(c.varpi_star)
    hl = curves.canonical_half_leaf(1024)
    scale = math.sqrt(c.varpi_star) / hl.length()
    optimal = curves.DiscreteCurve(hl.points * scale, closed=False)
    rel = abs(networks.drop_margin(optimal, tol=1e-6)) / bound
    margins = [networks.drop_margin(random_drop(s)) for s in range(_DROP_SEEDS)]
    checks = [rel < 5e-3, min(margins) > 0.0]
    detail = (f"optimal half-leaf margin={rel:.2e} (relative), "
              f"min seeded margin={min(margins):.3f} over {_DROP_SEEDS} drops")
    return _result("drop-bound", checks, detail)


def criterion_piecewise_fenchel() -> CriterionResult:
    verts = [np.array([math.cos(a), math.sin(a)])
             for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)]
    triangle = [curves.segment(verts[j], verts[(j + 1) % 3], 64) for j in range(3)]
    tri_defect = energy.total_curvature_piecewise(triangle).defect
    defects = [energy.total_curvature_piecewise(random_piecewise_cycle(s)).defect
               for s in range(_CYCLE_SEEDS)]
    checks = [abs(tri_defect) <= 1e-12, min(defects) >= -1e-6]
    detail = (f"triangle defect={tri_defect:.2e}, min seeded defect={min(defects):.3f} "
              f"over {_CYCLE_SEEDS} cycles")
    return _result("piecewise-fenchel", checks, detail)


_CRITERIA = {
    "constants": criterion_constants,
    "exact-bounds": criterion_exact_bounds,
    "closed-forms": criterion_closed_forms,
    "rigidity": criterion_rigidity,
    "closure-search": criterion_closure_search,
    "quantization-ladder": criterion_quantization_ladder,
    "flow": criterion_flow,
    "network-chain": criterion_network_chain,
    "drop-bound": criterion_drop_bound,
    "piecewise-fenchel": criterion_piecewise_fenchel,
}

CRITERION_NAMES = tuple(_CRITERIA)


def run_criterion(name: str) -> CriterionResult:
    try:
        fn = _CRITERIA[name]
    except KeyError:
        raise ValueError(f"unknown criterion {name!r}; choose from {CRITERION_NAMES}")
    return fn()


def run_all():
    return [fn() for fn in _CRITERIA.values()]
