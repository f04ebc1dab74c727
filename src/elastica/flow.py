"""Gradient flow of the length-penalized bending energy on closed curves.

The velocity field is the L^2 gradient flow of (1/2) B + lambda L:

    v = -lap_n kappa - (1/2)|kappa|^2 kappa + lambda kappa,

where lap_n is the arclength second derivative projected onto the normal
space at every differentiation stage.  With this normalization a round
circle of radius r is stationary exactly for lambda = 1/(2 r^2), and the
fixed-length multiplier on a circle evaluates to the same value.

Time stepping treats the stiff fourth-order leading term implicitly through
a circulant (FFT) solve on a uniform-arclength grid, and the lower-order
terms explicitly; a step that increases the energy beyond slack is retried
with a halved dt.  Nodes are redistributed to uniform arclength by periodic
interpolation.  Each curve gets one geometry pass (one `curvature_vectors`
call), which the next step and the monitoring reuse through `FlowState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .curves import DiscreteCurve, is_embedded
from .energy import curvature_vectors

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowReport",
    "FlowStepError",
    "normal_laplacian_kappa",
    "velocity_field",
    "lambda_fixed_length",
    "step",
    "run",
]


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-5                 # time step cap; stabilized solver allows O(h^2)
    tol_velocity: float = 1e-4       # stationarity threshold on max node speed
    remesh_every: int = 1            # steps between uniform-arclength resamplings
    max_steps: int = 200_000
    embed_eps: float = 0.0           # 0 -> is_embedded default
    embed_check_every: int = 100     # embeddedness monitoring cadence
    energy_slack: float = 1e-9       # per-step allowed energy increase (fixed-lambda)

    def __post_init__(self):
        if min(self.dt, self.tol_velocity, self.remesh_every, self.max_steps,
               self.embed_check_every) <= 0:
            raise ValueError("all FlowConfig fields must be positive")


@dataclass(frozen=True)
class FlowState:
    curve: DiscreteCurve
    time: float = 0.0
    lam: float = 0.0
    mode: str = "fixed-lambda"       # or "fixed-length"
    target_length: float = 0.0
    _geom: Optional[_Geometry] = field(default=None, init=False, repr=False,
                                       compare=False)  # `replace` resets it

    def __post_init__(self):
        if not self.curve.closed:
            raise ValueError("elastic flow runs on closed curves")
        if self.mode not in ("fixed-lambda", "fixed-length"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "fixed-length":
            L = self.curve.length()
            if self.target_length <= 0:
                object.__setattr__(self, "target_length", L)
            elif abs(L - self.target_length) / self.target_length > 1e-6:
                raise ValueError("curve length drifted from target_length")


def _geometry_of(state: FlowState) -> _Geometry:
    if state._geom is None:
        object.__setattr__(state, "_geom", _geometry(state.curve))
    return state._geom


@dataclass
class FlowReport:
    energy_trace: list = field(default_factory=list)    # (time, energy)
    embedded_trace: list = field(default_factory=list)  # (time, bool)
    final_roundness: float = math.inf
    limit_radius: float = 0.0
    converged: bool = False
    final_state: Optional[FlowState] = None

    @property
    def always_embedded(self) -> bool:
        return all(ok for _, ok in self.embedded_trace)


class FlowStepError(RuntimeError):
    """The energy still increased after 20 halvings of dt."""


@dataclass(frozen=True)
class _Geometry:
    """Everything the flow reads off one curve, from one curvature pass."""

    kappa: np.ndarray
    w: np.ndarray       # half-edge node weights
    k2: np.ndarray      # |kappa|^2 per node
    lap: np.ndarray     # lap_n kappa
    B: float
    L: float

    def velocity(self, lam: float) -> np.ndarray:
        return -self.lap - 0.5 * self.k2[:, None] * self.kappa + lam * self.kappa

    def lambda_fixed_length(self) -> float:
        if self.B < 1e-14:
            raise ValueError("zero curvature: fixed-length multiplier undefined")
        lap_k = np.einsum("ij,ij->i", self.lap, self.kappa)
        return float(np.sum((lap_k + 0.5 * self.k2 * self.k2) * self.w)) / self.B

    def energy(self, lam: float, mode: str) -> float:
        if mode == "fixed-lambda":
            return 0.5 * self.B + lam * self.L
        return self.B


def _cyclic_normal_derivative(field_vals: np.ndarray, h: np.ndarray,
                              T: np.ndarray) -> np.ndarray:
    d = (np.roll(field_vals, -1, axis=0) - np.roll(field_vals, 1, axis=0)) \
        / (h + np.roll(h, 1))[:, None]
    return d - np.einsum("ij,ij->i", d, T)[:, None] * T


def _geometry(curve: DiscreteCurve) -> _Geometry:
    kappa, w, _ = curvature_vectors(curve)
    h = curve.edge_lengths()
    chords = np.roll(curve.points, -1, axis=0) - np.roll(curve.points, 1, axis=0)
    T = chords / np.linalg.norm(chords, axis=1)[:, None]
    lap = _cyclic_normal_derivative(_cyclic_normal_derivative(kappa, h, T), h, T)
    k2 = np.einsum("ij,ij->i", kappa, kappa)
    return _Geometry(kappa=kappa, w=w, k2=k2, lap=lap,
                     B=float(np.sum(k2 * w)), L=float(h.sum()))


def normal_laplacian_kappa(curve: DiscreteCurve) -> np.ndarray:
    """Discrete normal second derivative of the curvature vector: the
    arclength derivative is taken twice, projecting onto the normal space
    after each stage."""
    return _geometry(curve).lap


def velocity_field(curve: DiscreteCurve, lam: float) -> np.ndarray:
    """-lap_n kappa - (1/2)|kappa|^2 kappa + lambda kappa at every node."""
    return _geometry(curve).velocity(lam)


def lambda_fixed_length(curve: DiscreteCurve) -> float:
    """Multiplier making the discrete length derivative along the flow vanish
    to first order: <lap_n kappa + (1/2)|kappa|^2 kappa, kappa> / <kappa, kappa>.

    On a circle of radius r this evaluates to 1/(2 r^2)."""
    return _geometry(curve).lambda_fixed_length()


def _resample_uniform(curve: DiscreteCurve, n: int) -> DiscreteCurve:
    """Redistribute nodes to uniform arclength by periodic cubic interpolation."""
    from scipy.interpolate import CubicSpline

    pts = curve.points
    h = curve.edge_lengths()
    s = np.concatenate([[0.0], np.cumsum(h)])
    L = s[-1]
    pts_ext = np.vstack([pts, pts[:1]])
    spline = CubicSpline(s, pts_ext, bc_type="periodic", axis=0)
    s_new = np.linspace(0.0, L, n, endpoint=False)
    return DiscreteCurve(spline(s_new), closed=True)


def _implicit_step(pts: np.ndarray, vel: np.ndarray, h: float, dt: float,
                   sigma: float) -> np.ndarray:
    """One stabilized IMEX step.

    The linear fourth-order leading term and a second-order shift of strength
    sigma (covering the explicit curvature-coefficient terms) are folded in
    implicitly via circulant symbols; stationary states are unchanged because
    the shift is added and subtracted."""
    n = pts.shape[0]
    n_bins = n // 2 + 1
    ang = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n_bins) / n)
    sym = ang**2 / h**4 + sigma * ang / h**2
    d4 = _fourth_difference(pts, h)
    d2 = _second_difference(pts, h)
    rhs = pts + dt * (vel + d4 - sigma * d2)
    denom = 1.0 + dt * sym
    return np.fft.irfft(np.fft.rfft(rhs, axis=0) / denom[:, None], n=n, axis=0)


def _fourth_difference(pts: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(pts, -2, axis=0) - 4.0 * np.roll(pts, -1, axis=0) + 6.0 * pts
            - 4.0 * np.roll(pts, 1, axis=0) + np.roll(pts, 2, axis=0)) / h**4


def _second_difference(pts: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)) / h**2


def step(state: FlowState, config: FlowConfig, remesh: bool = True) -> FlowState:
    """Advance one accepted time step (dt halved on energy increase beyond
    slack; FlowStepError after 20 halvings)."""
    curve = state.curve
    n = curve.n_points
    geom = _geometry_of(state)
    lam = state.lam if state.mode == "fixed-lambda" else geom.lambda_fixed_length()
    e0 = geom.energy(lam, state.mode)
    h = geom.L / n
    # with the implicit second-order shift only mild accuracy caps remain;
    # keep a coarse-mesh guard proportional to h
    dt = min(config.dt, 0.25 * h)
    vel = geom.velocity(lam)
    sigma = 2.0 * float(geom.k2.max()) + abs(lam)
    for _ in range(21):
        pts = _implicit_step(curve.points, vel, h, dt, sigma)
        new_curve = DiscreteCurve(pts, closed=True)
        if remesh:
            new_curve = _resample_uniform(new_curve, n)
        if state.mode == "fixed-length":
            sc = state.target_length / new_curve.length()
            centroid = new_curve.points.mean(axis=0)
            new_curve = DiscreteCurve(centroid + sc * (new_curve.points - centroid),
                                      closed=True)
        new_geom = _geometry(new_curve)
        if new_geom.energy(lam, state.mode) <= e0 + config.energy_slack * max(1.0, abs(e0)):
            new_state = replace(state, curve=new_curve, time=state.time + dt, lam=lam)
            object.__setattr__(new_state, "_geom", new_geom)
            return new_state
        dt *= 0.5
    raise FlowStepError("step failure: energy increased after 20 dt halvings")


def _roundness(curve: DiscreteCurve) -> tuple:
    c = curve.points.mean(axis=0)
    r = np.linalg.norm(curve.points - c, axis=1)
    return float(r.std() / r.mean()), float(r.mean())


def run(initial: DiscreteCurve, mode: str, lambda_or_L0: float,
        config: FlowConfig = FlowConfig(), observer=None) -> FlowReport:
    """Iterate until max node speed < tol_velocity or the budget is spent.

    Monitors embeddedness every embed_check_every steps, traces the energy,
    and classifies the limit by the roundness statistic.  If given, observer
    is called as observer(time, energy, length, roundness, embedded) at every
    monitoring point."""
    if mode == "fixed-lambda":
        state = FlowState(curve=_resample_uniform(initial, initial.n_points),
                          lam=lambda_or_L0, mode=mode)
    elif mode == "fixed-length":
        cur = _resample_uniform(initial, initial.n_points)
        sc = lambda_or_L0 / cur.length()
        cur = DiscreteCurve(cur.points * sc, closed=True)
        state = FlowState(curve=cur, mode=mode, target_length=lambda_or_L0)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    report = FlowReport()

    def _observe(st, lam):
        geom = _geometry_of(st)
        en = geom.energy(lam, mode)
        emb = is_embedded(st.curve, config.embed_eps)
        report.energy_trace.append((st.time, en))
        report.embedded_trace.append((st.time, emb))
        if observer is not None:
            rnd, _ = _roundness(st.curve)
            observer(st.time, en, geom.L, rnd, emb)

    lam0 = state.lam if mode == "fixed-lambda" else _geometry_of(state).lambda_fixed_length()
    _observe(state, lam0)
    converged = False
    for i in range(config.max_steps):
        state = step(state, config, remesh=(i % config.remesh_every == 0))
        lam = state.lam
        if (i + 1) % config.embed_check_every == 0:
            _observe(state, lam)
        if (i + 1) % 10 == 0 or i == config.max_steps - 1:
            vmax = float(np.linalg.norm(_geometry_of(state).velocity(lam), axis=1).max())
            if vmax < config.tol_velocity:
                converged = True
                break
    _observe(state, state.lam)
    report.final_roundness, report.limit_radius = _roundness(state.curve)
    report.converged = converged
    report.final_state = state
    return report
