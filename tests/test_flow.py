"""Elastic flow: stationary states, multiplier formula, gradient structure.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import math
import subprocess
import sys
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
    lam, dt = 0.5, 1e-7
    e0 = 0.5 * bending_energy(g) + lam * length(g)
    v = flow.velocity_field(g, lam)
    kappa, w = curvature_vectors(g)
    predicted = -float((np.linalg.norm(v, axis=1) ** 2 * w).sum()) * dt
    # the flow's implicit update without the remesh: h = L/n, sigma = 2 max|kappa|^2 + lambda
    sigma = 2.0 * float(np.einsum("ij,ij->i", kappa, kappa).max()) + lam
    rows = flow._implicit_step(g.points.T.copy(), v.T.copy(), g.length() / g.n_points,
                               dt, sigma)
    new = curves.DiscreteCurve(rows.T, closed=True)
    e1 = 0.5 * bending_energy(new) + lam * length(new)
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
    config = flow.FlowConfig(dt=1e-3, max_steps=2000, tol_velocity=1e-5)
    rep = flow.run(g, "fixed-lambda", 0.5, config)
    energies = [e for _, e in rep.energy_trace]
    assert all(b <= a + flow._ENERGY_SLACK for a, b in zip(energies, energies[1:]))


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


def test_run_rejects_open_curves_before_the_remesh():
    """[TRIVIAL] an open curve fails with the flow's own message, not inside
    the remesh spline with a numpy broadcast error."""
    with pytest.raises(ValueError, match="^elastic flow runs on closed curves$"):
        flow.run(curves.canonical_half_leaf(64), "fixed-length", 1.0,
                 flow.FlowConfig(max_steps=1))


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
    kappa, _ = curvature_vectors(curve)
    h = curve.edge_lengths()
    T = _ref_tangents(curve.points)
    return _ref_normal_derivative(_ref_normal_derivative(kappa, h, T), h, T)


def _ref_velocity(curve, lam):
    kappa, _ = curvature_vectors(curve)
    k2 = np.einsum("ij,ij->i", kappa, kappa)[:, None]
    return -_ref_lap(curve) - 0.5 * k2 * kappa + lam * kappa


def _ref_lambda(curve):
    kappa, w = curvature_vectors(curve)
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


def _ref_step(state, config):
    curve = state.curve
    n = curve.n_points
    lam = state.lam if state.mode == "fixed-lambda" else _ref_lambda(curve)
    e0 = _ref_energy(curve, lam, state.mode)
    dt = config.dt
    vel = _ref_velocity(curve, lam)
    kappa, _ = curvature_vectors(curve)
    sigma = 2.0 * float(np.einsum("ij,ij->i", kappa, kappa).max()) + abs(lam)
    h = curve.length() / n
    for _ in range(21):
        new_curve = curves.DiscreteCurve(
            _ref_implicit_step(curve.points, vel, h, dt, sigma), closed=True)
        new_curve = flow._resample_uniform(new_curve, n)
        if state.mode == "fixed-length":
            sc = state.target_length / new_curve.length()
            centroid = new_curve.points.mean(axis=0)
            new_curve = curves.DiscreteCurve(
                centroid + sc * (new_curve.points - centroid), closed=True)
        if _ref_energy(new_curve, lam, state.mode) \
                <= e0 + flow._ENERGY_SLACK * max(1.0, abs(e0)):
            return replace(state, curve=new_curve, time=state.time + dt, lam=lam)
        dt *= 0.5
    raise RuntimeError("step failure: energy increased after 20 dt halvings")


@pytest.mark.parametrize("mode, dt", [
    pytest.param("fixed-lambda", 2e-3, id="fixed-lambda"),
    pytest.param("fixed-length", 2e-3, id="fixed-length"),
    # dt above 0.25 h (about 6e-3 here): an h-proportional cap would bind
    pytest.param("fixed-lambda", 1e-2, id="fixed-lambda-dt-above-h-cap"),
    pytest.param("fixed-length", 1e-2, id="fixed-length-dt-above-h-cap")])
def test_step_matches_reference_bit_for_bit(mode, dt):
    """[DERIVED] the one-geometry-pass step reproduces the reference step's
    points and times exactly over 50 steps at n=256; every step starts from
    config.dt."""
    g = perturbed_circle(6, 256, 0.05)
    config = flow.FlowConfig(dt=dt)
    new = ref = flow.FlowState(curve=g, lam=0.5, mode=mode)
    for _ in range(50):
        new = flow.step(new, config)
        ref = _ref_step(ref, config)
        assert new.curve.points.tobytes() == ref.curve.points.tobytes()
        assert (new.time, new.lam) == (ref.time, ref.lam)


def _spatial_curve(n):
    """A closed curve in R^3 off every coordinate plane: a perturbed circle
    lifted by a smooth height."""
    g = perturbed_circle(6, n, 0.05)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return curves.DiscreteCurve(np.column_stack([g.points, 0.1 * np.sin(3.0 * t + 0.5)]),
                                closed=True)


@pytest.mark.parametrize("mode", ["fixed-lambda", "fixed-length"])
def test_step_matches_reference_in_3d(mode):
    """[DERIVED] in R^3 the coordinate-row step sums each dot product
    x0*y0 + x1*y1 + x2*y2 in order, where einsum adds the middle term last, so
    it follows the reference step to round-off (rel 1e-12) over 20 steps,
    with the same times and multipliers to the same tolerance.  The explicit
    fourth difference magnifies round-off like h^-4: the gap after 20 steps
    is about 2e-13 at n=128 and 2e-12 at n=256."""
    config = flow.FlowConfig()
    new = ref = flow.FlowState(curve=_spatial_curve(128), lam=0.5, mode=mode)
    for _ in range(20):
        new = flow.step(new, config)
        ref = _ref_step(ref, config)
        scale = np.abs(ref.curve.points).max()
        assert np.abs(new.curve.points - ref.curve.points).max() <= 1e-12 * scale
        assert new.time == ref.time
        assert new.lam == pytest.approx(ref.lam, rel=1e-12)


@pytest.mark.parametrize("n", [3, 5, 256])
def test_geometry_rows_match_curvature_vectors_and_reference(n):
    """[DERIVED] in the plane the (dim, n) geometry pass equals, bit for bit,
    `energy.curvature_vectors` (transposed) and the reference functions above."""
    g = perturbed_circle(9, n, 0.05) if n > 5 else curves.circle(2, 1.5, n)
    geom = flow._geometry(g)
    kappa, w = curvature_vectors(g)
    assert geom.X.flags.c_contiguous and geom.X.T.tobytes() == g.points.tobytes()
    assert geom.kappa.flags.c_contiguous and geom.kappa.T.tobytes() == kappa.tobytes()
    assert geom.w.tobytes() == w.tobytes()
    assert geom.lap.flags.c_contiguous and geom.lap.T.tobytes() == _ref_lap(g).tobytes()
    assert flow.normal_laplacian_kappa(g).tobytes() == _ref_lap(g).tobytes()
    assert flow.velocity_field(g, 0.5).tobytes() == _ref_velocity(g, 0.5).tobytes()
    assert flow.lambda_fixed_length(g) == _ref_lambda(g)
    assert geom.B == bending_energy(g)


def test_run_evaluates_curvature_once_per_trial(monkeypatch):
    """[TRIVIAL] one flow.run makes the geometry pass (the one curvature
    evaluation) at most once per trial step plus once at the start."""
    counts = {"curvature": 0, "trials": 0, "steps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(flow, "_geometry", counted("curvature", flow._geometry))
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


@pytest.mark.parametrize("field, value", [
    ("dt", math.nan), ("dt", math.inf), ("dt", -1e-3), ("tol_velocity", math.nan),
    ("tol_velocity", math.inf), ("max_steps", 0), ("embed_check_every", math.nan),
    ("max_steps", 1.5), ("max_steps", True), ("max_steps", 2.0), ("embed_check_every", 0.5),
    ("embed_check_every", 0), ("embed_check_every", False)])
def test_flow_config_rejects_out_of_domain_values(field, value):
    """[TRIVIAL] NaN, infinite and negative parameters fail at construction;
    the step budget and the monitoring cadence are integers >= 1, not floats
    or bools.  The message names the one field refused (max_steps = 0 used
    to name embed_check_every too)."""
    with pytest.raises(ValueError, match=f"^FlowConfig {field} must be "):
        flow.FlowConfig(**{field: value})


def test_fixed_length_flow_of_a_huge_circle():
    """[PAPER] a circle of radius R = 1e15 has the fixed-length multiplier
    1/(2 R^2) and stays a round circle of radius R under the fixed-length
    flow: a threshold of 1e-14 on its B (about 2 pi / R) used to refuse it."""
    R = 1e15
    c = curves.circle(2, R, 64)
    assert flow.lambda_fixed_length(c) == pytest.approx(1.0 / (2.0 * R * R), rel=1e-12)
    rep = flow.run(c, "fixed-length", c.length(), flow.FlowConfig(max_steps=30))
    assert rep.converged
    assert rep.final_roundness < 1e-12
    assert rep.limit_radius == pytest.approx(R, rel=1e-6)


@pytest.mark.parametrize("mode, value", [
    ("fixed-lambda", math.nan), ("fixed-lambda", math.inf), ("fixed-length", math.nan),
    ("fixed-length", math.inf), ("fixed-length", 0.0), ("fixed-length", -1.0),
    ("fixed-lambda", -1.0), ("fixed-lambda", True)])
def test_run_rejects_out_of_domain_lambda_and_L0(mode, value):
    """[TRIVIAL] a lambda that is not finite and nonnegative, or an L0 that is
    not finite and positive, fails before the first step (L0 = -1 used to
    flow at +1, and lambda = -1 used to grow the curve without converging)."""
    with pytest.raises(ValueError, match="^(lambda must be finite and nonnegative"
                                         "|L0 must be finite and positive)$"):
        flow.run(curves.circle(2, 1.0, 32), mode, value, flow.FlowConfig(max_steps=1))


def test_flow_run_leaves_scipy_interpolate_unloaded(subprocess_env):
    """[TRIVIAL] the remesh solves its spline without scipy.interpolate."""
    code = ("import sys\nfrom elastica import curves, flow\n"
            "flow.run(curves.circle(2, 1.0, 32), 'fixed-length', 1.0, "
            "flow.FlowConfig(max_steps=20))\n"
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# remesh: the spline solved in `flow` against scipy's CubicSpline

def _remesh_input(shape, n, dim):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if shape == "perturbed-circle":      # near-uniform knots
        pts = perturbed_circle(n, n, 0.05).points
    elif shape == "clustered":           # knot spacing from ~1/n^2 to ~1/n
        t = 2.0 * np.pi * (np.arange(n) / n) ** 2
        r = 1.0 + 0.3 * np.cos(2.0 * t)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    else:                                # figure-eight sampled by parameter;
        # its first x is -0.0 with a negative slope, which pins PPoly's
        # summation from +0.0
        pts = np.column_stack([-np.sin(t), np.sin(t) * np.cos(t)])
    if dim == 3:
        pts = np.column_stack([pts, 0.2 * np.sin(3.0 * t + 0.5)])
    return curves.DiscreteCurve(pts, closed=True)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 256, 1024])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shape", ["perturbed-circle", "clustered", "figure-eight"])
def test_resample_matches_scipy_cubic_spline_bitwise(shape, dim, n):
    """[DERIVED] the remesh equals scipy's periodic CubicSpline through the
    polygon, knots at cumulative arclength, byte for byte."""
    from scipy.interpolate import CubicSpline

    curve = _remesh_input(shape, n, dim)
    knots = np.concatenate([[0.0], np.cumsum(curve.edge_lengths())])
    spline = CubicSpline(knots, np.vstack([curve.points, curve.points[:1]]),
                         bc_type="periodic", axis=0)
    for n_out in (n, 2 * n + 1):
        expected = spline(np.linspace(0.0, knots[-1], n_out, endpoint=False))
        assert flow._resample_uniform(curve, n_out).points.tobytes() == expected.tobytes()
