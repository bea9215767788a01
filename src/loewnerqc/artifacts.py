"""Artifact emission: CSV tables, hand-rolled SVG figures, JSON summaries.

SVG output is plain path elements, no plotting dependency; curves are
closed polylines colored along the time axis.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .evolution import TrajectorySet
from .chains import ChainFrames
from .extension import ExtensionAtlas


def write_trajectory_csv(traj: TrajectorySet, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed_index", "re_z0", "im_z0", "t", "re_phi", "im_phi",
                    "re_dphi", "im_dphi", "truncated_flag"])
        for j, z0 in enumerate(traj.seeds):
            for i, t in enumerate(traj.times):
                v, d = traj.values[i, j], traj.derivs[i, j]
                w.writerow([j, z0.real, z0.imag, t, v.real, v.imag,
                            d.real, d.imag, int(traj.truncated[j])])
    return path


def write_frames_csv(frames: ChainFrames, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["checkpoint", "point_index", "re_z", "im_z", "re_f", "im_f", "valid"])
        for i, t in enumerate(frames.checkpoints):
            for j, z in enumerate(frames.grid.points):
                v = frames.values[i, j]
                w.writerow([t, j, z.real, z.imag, v.real, v.imag,
                            int(frames.grid_valid[i, j])])
    return path


def write_atlas_csv(atlas: ExtensionAtlas, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "theta", "re_src", "im_src", "re_dst", "im_dst",
                    "re_mu_f", "im_mu_f", "re_mu_fd", "im_mu_fd", "masked"])
        for i, t in enumerate(atlas.t_grid):
            for j, th in enumerate(atlas.theta):
                s, d = atlas.source[i, j], atlas.target[i, j]
                mf, md = atlas.mu_formula[i, j], atlas.mu_fd[i, j]
                w.writerow([t, th, s.real, s.imag, d.real, d.imag,
                            mf.real, mf.imag, md.real, md.imag,
                            int(not (atlas.valid[i, j] and atlas.fd_valid[i, j]))])
    return path


def write_table_csv(header, rows, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _color(i: int, n: int) -> str:
    """Blue-to-red ramp along the time index."""
    x = 0.0 if n <= 1 else i / (n - 1)
    r = int(40 + 200 * x)
    g = int(60 + 60 * (1 - abs(2 * x - 1)))
    b = int(240 - 200 * x)
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_document(curves, size=640, margin=0.05) -> str:
    pts = np.concatenate([c for c, _ in curves if len(c)]) if curves else np.zeros(1, complex)
    finite = pts[np.isfinite(pts)]
    if finite.size == 0:
        finite = np.zeros(1, complex)
    x0, x1 = finite.real.min(), finite.real.max()
    y0, y1 = finite.imag.min(), finite.imag.max()
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = span * margin
    x0, y0, span = x0 - pad, y0 - pad, span + 2 * pad

    def sx(x):
        return (x - x0) / span * size

    def sy(y):
        return size - (y - y0) / span * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for curve, color in curves:
        curve = np.asarray(curve)
        ok = np.isfinite(curve)
        if not ok.any():
            continue
        c = curve[ok]
        coords = " ".join(f"{sx(z.real):.2f},{sy(z.imag):.2f}" for z in c)
        parts.append(f'<path d="M {coords} Z" fill="none" stroke="{color}" '
                     f'stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_traces_svg(frames: ChainFrames, path) -> Path:
    """Closed trace polylines, one per checkpoint, time-colored."""
    n = frames.checkpoints.size
    curves = []
    for i in range(n):
        tr = np.where(frames.trace_valid[i], frames.traces[i], np.nan + 0j)
        curves.append((tr, _color(i, n)))
    Path(path).write_text(_svg_document(curves))
    return Path(path)


def write_atlas_svg(atlas: ExtensionAtlas, path) -> Path:
    """Source and target curve families overlaid (sources dashed grey-blue)."""
    n = atlas.t_grid.size
    curves = []
    for i in range(n):
        src = np.where(atlas.valid[i], atlas.source[i], np.nan + 0j)
        dst = np.where(atlas.valid[i], atlas.target[i], np.nan + 0j)
        curves.append((src, "#9aa7c7"))
        curves.append((dst, _color(i, n)))
    Path(path).write_text(_svg_document(curves))
    return Path(path)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if np.isfinite(v) else None
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.complexfloating, complex)):
        return [float(np.real(x)), float(np.imag(x))]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def write_summary(summary: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")
    return path
