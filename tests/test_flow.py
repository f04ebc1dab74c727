"""Elastic flow: stationary states, multiplier formula, gradient structure.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from elastica import curves, flow
from elastica.elliptic import constants
from elastica.energy import bending_energy, curvature_vectors, length
from elastica.random_shapes import perturbed_circle


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_circle_is_stationary_at_matching_lambda(r):
    """[PAPER] a circle of radius r is stationary for lambda = 1/(2 r^2)."""
    c = curves.circle(2, r, 512)
    v = flow.velocity_field(c, 1.0 / (2.0 * r * r))
    assert float(np.linalg.norm(v, axis=1).max()) < 1e-4 / r ** 3


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_fixed_length_multiplier_on_circle(r):
    """[PAPER] lambda(t) formula evaluates to 1/(2 r^2) on a circle."""
    c = curves.circle(2, r, 512)
    assert flow.lambda_fixed_length(c) == pytest.approx(
        1.0 / (2.0 * r * r), rel=1e-3)


def test_multiplier_scale_covariance():
    """[DERIVED] lambda(c g) = lambda(g) / c^2."""
    g = perturbed_circle(7, 256, 0.05)
    lam = flow.lambda_fixed_length(g)
    for c in (0.5, 3.0):
        gc = curves.DiscreteCurve(g.points * c, closed=True)
        assert flow.lambda_fixed_length(gc) == pytest.approx(lam / c ** 2, rel=1e-10)


def test_figure_eight_stationarity_residual_converges():
    """[PAPER] the canonical figure-eight is stationary for lambda = 2 m* - 1;
    the discrete velocity residual vanishes with order >= 1.5."""
    lam = 2.0 * constants().m_star - 1.0
    res = []
    for n in (256, 512, 1024):
        g = curves.sample_figure_eight(2, n)
        v = flow.velocity_field(g, lam)
        res.append(float(np.linalg.norm(v, axis=1).max()))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5


def test_gradient_consistency_energy_decrement():
    """[DERIVED] over a small explicit-regime step, dE ~ -int |V|^2 dt within 10%."""
    g = perturbed_circle(3, 256, 0.05)
    lam = 0.5
    state = flow.FlowState(curve=g, lam=lam, mode="fixed-lambda")
    config = flow.FlowConfig(dt=1e-7, remesh_every=10 ** 9)
    e0 = 0.5 * bending_energy(g) + lam * length(g)
    v = flow.velocity_field(g, lam)
    h = g.edge_lengths()
    w = 0.5 * (h + np.roll(h, 1))
    predicted = -float((np.linalg.norm(v, axis=1) ** 2 * w).sum()) * config.dt
    new = flow.step(state, config, remesh=False)
    e1 = 0.5 * bending_energy(new.curve) + lam * length(new.curve)
    assert (e1 - e0) == pytest.approx(predicted, rel=0.1)


def test_fixed_length_drift():
    """[PAPER] the constrained flow preserves length to 1e-6 relative."""
    g = perturbed_circle(11, 512, 0.05)
    L0 = g.length()
    config = flow.FlowConfig(dt=1e-3, max_steps=500, tol_velocity=1e-12)
    rep = flow.run(g, "fixed-length", L0, config)
    assert abs(rep.final_state.curve.length() - L0) / L0 < 1e-6


def test_energy_monotone_along_flow():
    """[PAPER] the gradient flow decreases E_lambda monotonically."""
    g = perturbed_circle(5, 256, 0.05)
    config = flowcfg = flow.FlowConfig(dt=1e-3, max_steps=2000, tol_velocity=1e-5)
    rep = flow.run(g, "fixed-lambda", 0.5, config)
    energies = [e for _, e in rep.energy_trace]
    assert all(b <= a + config.energy_slack for a, b in zip(energies, energies[1:]))


def test_perturbed_circle_converges_to_round_circle():
    """[PAPER] small-energy initial data converge to a one-fold circle."""
    g = perturbed_circle(1, 256, 0.05)
    L0 = g.length()
    config = flow.FlowConfig(dt=1e-3, max_steps=20_000, tol_velocity=1e-4)
    rep = flow.run(g, "fixed-length", L0, config)
    assert rep.converged
    assert rep.final_roundness < 1e-3
    assert rep.limit_radius == pytest.approx(L0 / (2 * math.pi), rel=1e-2)
    assert rep.always_embedded


def test_fixed_lambda_limit_radius():
    """[PAPER] fixed lambda = 1/2 drives the circle radius to 1."""
    g = perturbed_circle(2, 256, 0.05)
    config = flow.FlowConfig(dt=1e-3, max_steps=20_000, tol_velocity=1e-4)
    rep = flow.run(g, "fixed-lambda", 0.5, config)
    assert rep.converged
    assert rep.limit_radius == pytest.approx(1.0, rel=1e-2)


def test_flow_rejects_open_curves():
    """[TRIVIAL] domain validation."""
    seg = curves.segment(np.zeros(2), np.ones(2), 16)
    with pytest.raises(ValueError):
        flow.FlowState(curve=seg)


def test_observer_receives_trace_rows():
    """[TRIVIAL] observer callback sees monitoring points."""
    g = perturbed_circle(4, 128, 0.02)
    rows = []
    config = flow.FlowConfig(dt=1e-3, max_steps=100, tol_velocity=1e-12,
                             embed_check_every=20)
    flow.run(g, "fixed-lambda", 0.5, config,
             observer=lambda *row: rows.append(row))
    assert len(rows) >= 3
    assert all(len(r) == 5 for r in rows)


# ---------------------------------------------------------------------------
# reference step: the step body before the geometry pass, built from the
# public energy functions, one curvature evaluation per quantity

def _ref_tangents(pts):
    chords = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    return chords / np.linalg.norm(chords, axis=1)[:, None]


def _ref_normal_derivative(vals, h, T):
    d = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) \
        / (h + np.roll(h, 1))[:, None]
    return d - np.einsum("ij,ij->i", d, T)[:, None] * T


def _ref_lap(curve):
    kappa, _, _ = curvature_vectors(curve)
    h = curve.edge_lengths()
    T = _ref_tangents(curve.points)
    return _ref_normal_derivative(_ref_normal_derivative(kappa, h, T), h, T)


def _ref_velocity(curve, lam):
    kappa, _, _ = curvature_vectors(curve)
    k2 = np.einsum("ij,ij->i", kappa, kappa)[:, None]
    return -_ref_lap(curve) - 0.5 * k2 * kappa + lam * kappa


def _ref_lambda(curve):
    kappa, w, _ = curvature_vectors(curve)
    k2 = np.einsum("ij,ij->i", kappa, kappa)
    lap = _ref_lap(curve)
    num = float(np.sum((np.einsum("ij,ij->i", lap, kappa) + 0.5 * k2 * k2) * w))
    return num / float(np.sum(k2 * w))


def _ref_energy(curve, lam, mode):
    if mode == "fixed-lambda":
        return 0.5 * bending_energy(curve) + lam * length(curve)
    return bending_energy(curve)


def _ref_implicit_step(pts, vel, h, dt, sigma):
    n = pts.shape[0]
    ang = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    sym = ang**2 / h**4 + sigma * ang / h**2
    d4 = (np.roll(pts, -2, axis=0) - 4.0 * np.roll(pts, -1, axis=0) + 6.0 * pts
          - 4.0 * np.roll(pts, 1, axis=0) + np.roll(pts, 2, axis=0)) / h**4
    d2 = (np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)) / h**2
    rhs = pts + dt * (vel + d4 - sigma * d2)
    out = np.empty_like(pts)
    for d in range(pts.shape[1]):
        out[:, d] = np.fft.irfft(np.fft.rfft(rhs[:, d]) / (1.0 + dt * sym), n=n)
    return out


def _ref_step(state, config, remesh):
    curve = state.curve
    n = curve.n_points
    lam = state.lam if state.mode == "fixed-lambda" else _ref_lambda(curve)
    e0 = _ref_energy(curve, lam, state.mode)
    dt = min(config.dt, 0.25 * (curve.length() / n))
    vel = _ref_velocity(curve, lam)
    kappa, _, _ = curvature_vectors(curve)
    sigma = 2.0 * float(np.einsum("ij,ij->i", kappa, kappa).max()) + abs(lam)
    h = curve.length() / n
    for _ in range(21):
        new_curve = curves.DiscreteCurve(
            _ref_implicit_step(curve.points, vel, h, dt, sigma), closed=True)
        if remesh:
            new_curve = flow._resample_uniform(new_curve, n)
        if state.mode == "fixed-length":
            sc = state.target_length / new_curve.length()
            centroid = new_curve.points.mean(axis=0)
            new_curve = curves.DiscreteCurve(
                centroid + sc * (new_curve.points - centroid), closed=True)
        if _ref_energy(new_curve, lam, state.mode) \
                <= e0 + config.energy_slack * max(1.0, abs(e0)):
            return replace(state, curve=new_curve, time=state.time + dt, lam=lam)
        dt *= 0.5
    raise RuntimeError("step failure: energy increased after 20 dt halvings")


@pytest.mark.parametrize("mode", ["fixed-lambda", "fixed-length"])
@pytest.mark.parametrize("remesh", [True, False])
def test_step_matches_reference_bit_for_bit(mode, remesh):
    """[DERIVED] the one-geometry-pass step reproduces the reference step's
    points and times exactly over 50 steps at n=256."""
    g = perturbed_circle(6, 256, 0.05)
    config = flow.FlowConfig(dt=2e-3)
    new = ref = flow.FlowState(curve=g, lam=0.5, mode=mode)
    for _ in range(50):
        new = flow.step(new, config, remesh=remesh)
        ref = _ref_step(ref, config, remesh)
        assert new.curve.points.tobytes() == ref.curve.points.tobytes()
        assert (new.time, new.lam) == (ref.time, ref.lam)


def test_run_evaluates_curvature_once_per_trial(monkeypatch):
    """[TRIVIAL] one flow.run calls curvature_vectors at most once per trial
    step plus once at the start."""
    counts = {"curvature": 0, "trials": 0, "steps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(flow, "curvature_vectors",
                        counted("curvature", flow.curvature_vectors))
    monkeypatch.setattr(flow, "_implicit_step", counted("trials", flow._implicit_step))
    monkeypatch.setattr(flow, "step", counted("steps", flow.step))
    g = perturbed_circle(8, 256, 0.05)
    config = flow.FlowConfig(dt=2e-3, max_steps=300, tol_velocity=1e-12,
                             embed_check_every=20)
    for mode, arg in (("fixed-length", g.length()), ("fixed-lambda", 0.5)):
        counts.update(curvature=0, trials=0, steps=0)
        flow.run(g, mode, arg, config)
        assert counts["steps"] == 300
        assert counts["trials"] >= counts["steps"]
        assert counts["curvature"] <= counts["trials"] + 1


def test_step_failure_raises_flow_step_error(monkeypatch):
    """[TRIVIAL] a step whose every trial raises the energy gives up with
    FlowStepError after 20 halvings."""
    monkeypatch.setattr(flow, "_implicit_step", lambda pts, *args: 3.0 * pts)
    state = flow.FlowState(curve=curves.circle(2, 1.0, 64), lam=1.0)
    with pytest.raises(flow.FlowStepError, match="after 20 dt halvings"):
        flow.step(state, flow.FlowConfig(dt=1e-3))
