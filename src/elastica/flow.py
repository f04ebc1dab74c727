"""Gradient flow of the length-penalized bending energy on closed curves.

The velocity field is the L^2 gradient flow of (1/2) B + lambda L:

    v = -lap_n kappa - (1/2)|kappa|^2 kappa + lambda kappa,

where lap_n is the arclength second derivative projected onto the normal
space at every differentiation stage.  With this normalization a round
circle of radius r is stationary exactly for lambda = 1/(2 r^2), and the
fixed-length multiplier on a circle evaluates to the same value.

Time stepping treats the stiff fourth-order leading term implicitly through
a circulant (FFT) solve on a uniform-arclength grid, and the lower-order
terms explicitly.  Every step first tries dt = config.dt; a trial that
increases the energy beyond a slack of 1e-9 (relative to max(1, |E|)) is
retried with a halved dt, and this energy test is the only rule that changes
dt.  Every trial is remeshed to uniform arclength on the periodic cubic
spline through the trial polygon, solved here to the bit as scipy's
`CubicSpline` with periodic ends would give it; the first remesh binds LAPACK's
`dgtsv` from `scipy.linalg._flapack`, loaded alone (`_lazy.on_first_use`).
Building a `FlowState` makes its curve's one geometry pass, which the energy
test, the next step and the monitoring read; its kappa, |kappa|^2 and B are
`energy`'s one curvature pass, so B is `bending_energy` in every dimension.

A step computes on C-contiguous (dim, n) coordinate rows (the curve's own
read-only `rows`), with per-node dot products taken as row sums in coordinate
order, so planar flows are bit for bit those of the same arithmetic on
(n, dim) arrays (README, Conventions).  The implicit step's output is checked
as raw rows, and only the remeshed candidate of a trial becomes a
`DiscreteCurve`.  The public `velocity_field`, `normal_laplacian_kappa` and
`lambda_fixed_length` return (n, dim) arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._checks import _check_int, _check_lambda, _check_number, _check_positive
from ._lazy import on_first_use
from .curves import (DiscreteCurve, _curve_edge_norms, _cyclic_pad, _dot_rows, _edge_norms,
                     is_embedded)
from .energy import _curvature_rows

# LAPACK's tridiagonal solve, from the compiled module alone on the first remesh
(dgtsv,) = on_first_use(globals(), "scipy.linalg._flapack", "dgtsv")

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


# per-step allowed energy increase, relative to max(1, |E|)
_ENERGY_SLACK = 1e-9


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 2e-3                 # time step; halved only by the energy test
    tol_velocity: float = 1e-4       # stationarity threshold on max node speed
    max_steps: int = 50_000
    embed_check_every: int = 50      # embeddedness monitoring cadence

    def __post_init__(self):
        for key in ("dt", "tol_velocity"):   # stored as floats, so the time stays a float
            object.__setattr__(self, key, _check_positive(getattr(self, key), f"FlowConfig {key}"))
        for key in ("max_steps", "embed_check_every"):
            _check_int(getattr(self, key), 1, f"FlowConfig {key}")


def _check_flow(curve: DiscreteCurve, mode) -> None:
    """A flow runs on a closed curve, in one of its two modes."""
    if not curve.closed:
        raise ValueError("elastic flow runs on closed curves")
    if not (isinstance(mode, str) and mode in ("fixed-lambda", "fixed-length")):
        raise ValueError("mode must be 'fixed-lambda' or 'fixed-length'")


@dataclass(frozen=True)
class FlowState:
    curve: DiscreteCurve
    time: float = 0.0
    lam: float = 0.0
    mode: str = "fixed-lambda"       # or "fixed-length"
    target_length: float = 0.0
    _geom: _Geometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_flow(self.curve, self.mode)
        if self.mode == "fixed-length":
            L = self.curve.length()
            if self.target_length <= 0:
                object.__setattr__(self, "target_length", L)
            elif abs(L - self.target_length) / self.target_length > 1e-6:
                raise ValueError("curve length drifted from target_length")
        object.__setattr__(self, "_geom", _geometry(self.curve))


def _step_lambda(state: FlowState) -> float:
    """The lambda a step from state uses: the given one, or the fixed-length
    multiplier of its curve."""
    return state.lam if state.mode == "fixed-lambda" else state._geom.lambda_fixed_length()


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
    """Everything the flow reads off one curve, from one curvature pass.
    Node vectors are C-contiguous (dim, n) coordinate rows."""

    X: np.ndarray       # the points: the curve's read-only rows
    kappa: np.ndarray
    w: np.ndarray       # half-edge node weights
    k2: np.ndarray      # |kappa|^2 per node
    lap: np.ndarray     # lap_n kappa
    B: float
    L: float

    def velocity(self, lam: float) -> np.ndarray:
        # a lambda or a dt far too large for the curve may overflow here or in
        # the implicit step; the check of the step's output refuses the
        # non-finite points that result
        with np.errstate(over="ignore", invalid="ignore"):
            return -self.lap - 0.5 * self.k2 * self.kappa + lam * self.kappa

    def lambda_fixed_length(self) -> float:
        if not self.B > 0.0:
            raise ValueError("zero curvature: fixed-length multiplier undefined")
        lap_k = _dot_rows(self.lap, self.kappa)
        return float(np.sum((lap_k + 0.5 * self.k2 * self.k2) * self.w)) / self.B

    def energy(self, lam: float, mode: str) -> float:
        if mode == "fixed-lambda":
            return 0.5 * self.B + lam * self.L
        return self.B


def _cyclic_normal_derivative(field_vals: np.ndarray, span: np.ndarray,
                              T: np.ndarray) -> np.ndarray:
    f = _cyclic_pad(field_vals, 1)
    d = (f[:, 2:] - f[:, :-2]) / span
    return d - _dot_rows(d, T) * T


def _geometry(curve: DiscreteCurve) -> _Geometry:
    kappa, w, k2, B = _curvature_rows(curve)
    p = _cyclic_pad(curve.rows, 1)
    chords = p[:, 2:] - p[:, :-2]
    c2 = _dot_rows(chords, chords)
    if not c2.min() > 0.0:
        raise ValueError("a node's two neighbours coincide (a cusp): no flow tangent there")
    T = chords / np.sqrt(c2)
    # h_{i-1} + h_i: w is their half-sum, and halving and doubling are exact
    span = 2.0 * w
    lap = _cyclic_normal_derivative(_cyclic_normal_derivative(kappa, span, T), span, T)
    return _Geometry(X=curve.rows, kappa=kappa, w=w, k2=k2, lap=lap, B=B, L=curve.length())


def normal_laplacian_kappa(curve: DiscreteCurve) -> np.ndarray:
    """Discrete normal second derivative of the curvature vector: the
    arclength derivative is taken twice, projecting onto the normal space
    after each stage."""
    return _geometry(curve).lap.T.copy()


def velocity_field(curve: DiscreteCurve, lam: float) -> np.ndarray:
    """-lap_n kappa - (1/2)|kappa|^2 kappa + lambda kappa at every node."""
    return _geometry(curve).velocity(_check_number(lam, "lambda")).T.copy()


def lambda_fixed_length(curve: DiscreteCurve) -> float:
    """Multiplier making the discrete length derivative along the flow vanish
    to first order: <lap_n kappa + (1/2)|kappa|^2 kappa, kappa> / <kappa, kappa>.

    On a circle of radius r this evaluates to 1/(2 r^2)."""
    return _geometry(curve).lambda_fixed_length()


def _uniform_arclength(rows: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """n points at uniform arclength on the periodic cubic spline through the
    closed polygon with (dim, m) coordinate rows (edge lengths h), knots at
    its cumulative arclength, as (dim, n) rows.

    The spline is scipy's `CubicSpline(..., bc_type="periodic")`, computed
    here operation for operation, so the points agree with it to the bit: the
    slopes solve scipy's condensed tridiagonal system with LAPACK `gtsv` (the
    routine `solve_banded((1, 1), ...)` calls), its Sherman-Morrison column
    riding as one more right-hand side of the same solve, and the cubics are
    evaluated in `PPoly`'s order."""
    dim, m = rows.shape   # m intervals, slopes s_0..s_{m-1}, s_m = s_0
    x = np.empty(m + 1)
    x[0] = 0.0
    np.cumsum(h, out=x[1:])
    dx = x[1:] - x[:-1]
    if not (dx > 0.0).all():
        raise ValueError("arclength knots must be strictly increasing")
    y = _cyclic_pad(rows, 1)[:, 1:]
    slope = (y[:, 1:] - y[:, :-1]) / dx
    dxw = _cyclic_pad(dx, 1)[:-1]   # dxw[i] = dx[i - 1], cyclically
    sw = _cyclic_pad(slope, 1)[:, :-1]
    b = 3 * (dxw[1:] * sw[:, :-1] + dxw[:-1] * sw[:, 1:])
    # row i couples s_{i-1}, s_i, s_{i+1}; rows 0..m-2 with s_{m-1} moved
    # into the extra column, row m-1 closes the system; the right-hand sides
    # are the rows of rhs, that is the columns of the Fortran-ordered rhs.T
    rhs = np.zeros((dim + 1, m - 1))
    rhs[:dim] = b[:, :-1]
    rhs[dim, 0] = -dx[0]
    rhs[dim, -1] = -dx[-3]
    # sub-, main and super-diagonal; gtsv overwrites the fresh main diagonal
    # and right-hand side in place, and copies the two views of dx
    _, _, _, sol, info = dgtsv(dx[1:m - 1], 2 * (dxw[:m - 1] + dxw[1:m]), dxw[:m - 2],
                               rhs.T, overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    s1, s2 = sol.T[:dim], sol.T[dim]
    s_last = ((b[:, -1] - dx[-2] * s1[:, 0] - dx[-1] * s1[:, -1])
              / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    s = np.empty((dim, m + 1))
    s[:, :-2] = s1 + s_last[:, None] * s2
    s[:, -2] = s_last
    s[:, -1] = s[:, 0]
    # the cubic on interval j: coef[k, :, j] multiplies u^k, one block so
    # that the nodes pick their intervals with one take
    coef = np.empty((4, dim, m))
    coef[0] = rows
    coef[1] = s[:, :-1]
    t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    np.divide(t, dx, out=coef[3])
    np.subtract((slope - s[:, :-1]) / dx, t, out=coef[2])
    # np.linspace(0, x[-1], n, endpoint=False), to the bit
    xn = np.arange(n) * (x[-1] / n)
    i = np.searchsorted(x, xn, side="right") - 1
    u = xn - x.take(i)
    u2 = u * u
    y0, y1, y2, y3 = coef.reshape(4 * dim, m).take(i, axis=1).reshape(4, dim, n)
    # PPoly sums the powers upwards from 0.0 (which turns -0.0 into +0.0)
    return (((0.0 + y0) + y1 * u) + y2 * u2) + y3 * (u2 * u)


def _resample_uniform(curve: DiscreteCurve, n: int) -> DiscreteCurve:
    """Redistribute nodes to uniform arclength by periodic cubic interpolation."""
    rows = _uniform_arclength(curve.rows, curve.edge_lengths(), n)
    return DiscreteCurve(rows.T, closed=True)


@functools.lru_cache(maxsize=16)
def _fft_angles(n: int) -> np.ndarray:
    """2 - 2 cos(2 pi k / n) for the rfft bins k = 0..n//2, read-only."""
    ang = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    ang.flags.writeable = False
    return ang


def _implicit_step(X: np.ndarray, vel: np.ndarray, h: float, dt: float,
                   sigma: float) -> np.ndarray:
    """One stabilized IMEX step of the (dim, n) coordinate rows X.

    The linear fourth-order leading term and a second-order shift of strength
    sigma (covering the explicit curvature-coefficient terms) are folded in
    implicitly via circulant symbols; stationary states are unchanged because
    the shift is added and subtracted."""
    n = X.shape[1]
    ang = _fft_angles(n)
    p = _cyclic_pad(X, 2)   # p[:, i + 2] = X[:, i]
    d4 = (p[:, 4:] - 4.0 * p[:, 3:-1] + 6.0 * X - 4.0 * p[:, 1:-3] + p[:, :-4]) / h**4
    d2 = (p[:, 3:-1] - 2.0 * X + p[:, 1:-3]) / h**2
    with np.errstate(over="ignore", invalid="ignore"):   # see `_Geometry.velocity`
        sym = ang**2 / h**4 + sigma * ang / h**2
        rhs = X + dt * (vel + d4 - sigma * d2)
        denom = 1.0 + dt * sym
        return np.fft.irfft(np.fft.rfft(rhs, axis=1) / denom, n=n, axis=1)


def _centroid(rows: np.ndarray) -> np.ndarray:
    """The (dim, 1) mean of (dim, n) rows, summed as `points.mean(axis=0)` sums."""
    return np.cumsum(rows, axis=1)[:, -1:] / rows.shape[1]


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """Advance one accepted time step: try config.dt, halve it on an energy
    increase beyond the slack, FlowStepError after 20 halvings."""
    geom = state._geom
    n = geom.X.shape[1]
    lam = _step_lambda(state)
    e0 = geom.energy(lam, state.mode)
    h = geom.L / n
    dt = config.dt
    vel = geom.velocity(lam)
    sigma = 2.0 * float(geom.k2.max()) + abs(lam)
    for _ in range(21):
        Y = _implicit_step(geom.X, vel, h, dt, sigma)
        Z = _uniform_arclength(Y, _curve_edge_norms(Y, True), n)
        if state.mode == "fixed-length":
            sc = state.target_length / float(_edge_norms(Z, True).sum())
            centroid = _centroid(Z)
            Z = centroid + sc * (Z - centroid)
        new_state = FlowState(DiscreteCurve(Z.T, closed=True), time=state.time + dt,
                              lam=lam, mode=state.mode, target_length=state.target_length)
        if new_state._geom.energy(lam, state.mode) <= e0 + _ENERGY_SLACK * max(1.0, abs(e0)):
            return new_state
        dt *= 0.5
    raise FlowStepError("step failure: energy increased after 20 dt halvings")


def _roundness(curve: DiscreteCurve) -> tuple:
    d = curve.rows - _centroid(curve.rows)
    r = np.sqrt(_dot_rows(d, d))
    return float(r.std() / r.mean()), float(r.mean())


def run(initial: DiscreteCurve, mode: str, lambda_or_L0: float,
        config: FlowConfig = FlowConfig(), observer=None) -> FlowReport:
    """Iterate until max node speed < tol_velocity or the budget is spent.

    Monitors embeddedness every embed_check_every steps, traces the energy,
    and classifies the limit by the roundness statistic.  If given, observer
    is called as observer(time, energy, length, roundness, embedded) at every
    monitoring point."""
    _check_flow(initial, mode)
    if mode == "fixed-lambda":
        lam, target = _check_lambda(lambda_or_L0), 0.0
    else:
        lam, target = 0.0, _check_positive(lambda_or_L0, "L0")
    # the step divides by h^4 for the mean edge length h and multiplies
    # curvatures of about 1/h, which overflow well inside 1e-77 < h < 1e77;
    # the input is remeshed at its own length, then flows at L0 (in
    # fixed-lambda mode the target is 0, and it flows at its own length)
    L = initial.length()
    if not all(1e-60 <= length / initial.n_points <= 1e60 for length in (L, target or L)):
        raise ValueError("the flow needs a mean edge length between 1e-60 and 1e60")
    cur = _resample_uniform(initial, initial.n_points)
    if mode == "fixed-length":
        cur = DiscreteCurve(cur.points * (target / cur.length()), closed=True)
    state = FlowState(curve=cur, lam=lam, mode=mode, target_length=target)

    report = FlowReport()

    def _observe(st, lam):
        en = st._geom.energy(lam, mode)
        emb = is_embedded(st.curve)
        report.energy_trace.append((st.time, en))
        report.embedded_trace.append((st.time, emb))
        if observer is not None:
            rnd, _ = _roundness(st.curve)
            observer(st.time, en, st._geom.L, rnd, emb)

    _observe(state, _step_lambda(state))
    converged = False
    for i in range(config.max_steps):
        state = step(state, config)
        lam = state.lam
        if (i + 1) % config.embed_check_every == 0:
            _observe(state, lam)
        if (i + 1) % 10 == 0 or i == config.max_steps - 1:
            v = state._geom.velocity(lam)
            vmax = math.sqrt(float(_dot_rows(v, v).max()))
            if vmax < config.tol_velocity:
                converged = True
                break
    _observe(state, state.lam)
    report.final_roundness, report.limit_radius = _roundness(state.curve)
    report.converged = converged
    report.final_state = state
    return report
