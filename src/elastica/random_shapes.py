"""Seeded random geometry used by property suites and the CLI.

Everything here is a pure function of an explicit integer seed via
numpy's PCG64 generator, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from ._checks import _check_int, _real_scalar
from .curves import DiscreteCurve

__all__ = [
    "perturbed_circle",
    "random_drop",
    "random_piecewise_cycle",
]


def _fourier_bump(rng: np.random.Generator, theta: np.ndarray,
                  modes, amplitude: float) -> np.ndarray:
    """Random low-frequency trigonometric polynomial with max |value| = amplitude."""
    out = np.zeros_like(theta)
    for q in modes:
        a, b = rng.uniform(-1.0, 1.0, size=2)
        out += a * np.cos(q * theta) + b * np.sin(q * theta)
    peak = np.abs(out).max()
    if peak > 0:
        out *= amplitude / peak
    return out


def perturbed_circle(seed: int, n_samples: int = 1024, noise: float = 0.05) -> DiscreteCurve:
    """Closed curve r(theta) = 1 + delta(theta) with a random low-mode radial
    perturbation of relative size `noise`, finite with 0 <= noise < 1 so that
    the radius stays positive and the curve star-shaped and embedded."""
    _check_int(seed, 0, "seed")
    _check_int(n_samples, 3, "n_samples", sized=True)
    noise = _real_scalar(noise)   # nan, which fails, when it is no real number
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must be a finite number with 0 <= noise < 1")
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    r = 1.0 + _fourier_bump(rng, theta, (2, 3, 4, 5, 6), noise)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return DiscreteCurve(pts, closed=True)


def random_drop(seed: int, n_samples: int = 512) -> DiscreteCurve:
    """Open smooth loop with coinciding endpoints: a radial perturbation of a
    circle traversed once, sampled at theta = 0 and theta = 2 pi alike."""
    _check_int(seed, 0, "seed")
    _check_int(n_samples, 2, "n_samples", sized=True)
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2.0 * np.pi, n_samples + 1)
    r = 1.0 + _fourier_bump(rng, theta, (2, 3, 4), 0.2)
    scale = rng.uniform(0.5, 2.0)
    pts = scale * np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    pts[-1] = pts[0]
    return DiscreteCurve(pts, closed=False)


def random_piecewise_cycle(seed: int):
    """Cycle of four open wiggly arcs, 256 samples each, between random
    vertices on a circle.

    Each piece is a chord with a sinusoidal normal displacement of at least
    two full oscillations, so the pieces are clearly non-convex and the
    piecewise Fenchel defect is comfortably positive.
    """
    _check_int(seed, 0, "seed")
    n_pieces = 4
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_pieces))
    # keep vertices well separated so chords are nondegenerate
    while np.diff(np.append(angles, angles[0] + 2.0 * np.pi)).min() < 0.3:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_pieces))
    verts = np.column_stack([np.cos(angles), np.sin(angles)])
    pieces = []
    t = np.linspace(0.0, 1.0, 256)
    for j in range(n_pieces):
        a, b = verts[j], verts[(j + 1) % n_pieces]
        chord = b - a
        normal = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
        amp = rng.uniform(0.05, 0.15) * np.linalg.norm(chord)
        q = rng.integers(2, 4)
        wiggle = amp * np.sin(2.0 * np.pi * q * t)
        pts = a + np.outer(t, chord) + np.outer(wiggle, normal)
        pieces.append(DiscreteCurve(pts, closed=False))
    return pieces
