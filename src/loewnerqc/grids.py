"""Sample grids on the unit disk and small geometric helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Seeds are kept strictly inside the disk by this margin.
DELTA_GUARD = 1e-6

#: Radii used by the criteria checks (suprema over the disk are sampled here).
CRITERIA_RADII = tuple(np.round(np.arange(0.10, 0.951, 0.05), 2)) + (0.99,)


def past_guard(points) -> np.ndarray:
    """Mask of the points at or past the boundary guard, the one seed admission rule.

    The 1e-15 slack admits points placed on the guard circle, whose moduli
    can round a few ulps past 1 - DELTA_GUARD.
    """
    return np.abs(points) >= 1.0 - DELTA_GUARD + 1e-15


@dataclass
class SeedGrid:
    """Interior sample points, inside the boundary guard (see ``past_guard``).

    Points from :func:`circle_grid` are ordered circle-major.
    """

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        if np.any(past_guard(self.points)):
            bad = np.abs(self.points).max()
            raise ValueError(f"seed modulus {bad} reaches the boundary guard")

    def __len__(self) -> int:
        return self.points.size


def circle_grid(radii=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), n_angles: int = 8) -> SeedGrid:
    """Concentric-circle seed grid, circle-major ordering."""
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return SeedGrid(np.concatenate([float(r) * np.exp(1j * theta) for r in radii]))


def criteria_grid(radii=CRITERIA_RADII, n_angles: int = 256) -> np.ndarray:
    """Flat complex array used by the pointwise criteria checks."""
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return np.concatenate([r * np.exp(1j * theta) for r in radii])


def trace_ring(n_theta: int, delta: float) -> np.ndarray:
    """Near-boundary ring (1 - delta) e^{i theta} standing in for boundary values."""
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return (1.0 - delta) * np.exp(1j * theta)


def time_row(times: np.ndarray, t: float, missing: str) -> int:
    """Row of the stored time nearest t, within 1e-10 max(1, |t|).

    Otherwise raises KeyError(missing), formatted with t and the nearest
    stored time as ``{t}`` and ``{nearest}``.
    """
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-10 * max(1.0, abs(t)):
        raise KeyError(missing.format(t=t, nearest=times[i]))
    return i


def hyperbolic_distance(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Poincare distance on the disk, arctanh of the pseudo-hyperbolic ratio."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    rho = np.abs((z - w) / (1.0 - np.conj(z) * w))
    # clip: roundoff can push the ratio a hair past 1 near the boundary
    return np.arctanh(np.clip(rho, 0.0, 1.0 - 1e-16))


def winding_number(polygon: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Winding number of a closed polygonal curve around each query point.

    The polygon is given by its vertices in order (closure is implicit).
    Returns an integer array; points on or very near an edge get whatever
    the angle sum rounds to, callers should keep probes away from edges.
    """
    poly = np.asarray(polygon, dtype=complex)
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    a = poly[None, :] - pts[:, None]
    b = np.roll(poly, -1)[None, :] - pts[:, None]
    angles = np.angle(b / a)
    total = angles.sum(axis=1) / (2.0 * np.pi)
    return np.rint(total).astype(int)

