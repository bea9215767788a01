"""Artifact emission: CSV tables, hand-rolled SVG figures, JSON summaries.

Every CSV goes through :func:`write_csv`, which takes named columns.
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
from .approx import ConvergenceTable


def write_csv(columns, path) -> Path:
    """Write named columns, broadcast against each other, as CSV lines in C order.

    ``columns`` maps header names to arrays.  A complex column ``x`` becomes
    ``re_x``, ``im_x``; a boolean one is written 0/1.  Lines are formatted one
    leading index at a time, so the table is never held whole as Python objects.
    """
    return _write_csv(columns, path)


# the named writers call the body directly: perfbench counts every public
# artifacts call as one written file
def _write_csv(columns, path) -> Path:
    header, arrays = [], []
    for name, col in columns.items():
        col = np.asarray(col)
        if np.iscomplexobj(col):
            header += [f"re_{name}", f"im_{name}"]
            arrays += [col.real, col.imag]
        else:
            header.append(name)
            arrays.append(col.astype(int) if col.dtype == bool else col)
    arrays = [np.atleast_2d(a) for a in np.broadcast_arrays(*arrays)]
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(arrays[0].shape[0]):
            w.writerows(zip(*[a[i].ravel().tolist() for a in arrays]))
    return path


def write_trajectory_csv(traj: TrajectorySet, path) -> Path:
    """One line per (seed, time), seeds outermost."""
    return _write_csv({
        "seed_index": np.arange(traj.seeds.size)[:, None], "z0": traj.seeds[:, None],
        "t": traj.times, "phi": traj.values.T, "dphi": traj.derivs.T,
        "truncated_flag": traj.truncated[:, None]}, path)


def write_frames_csv(frames: ChainFrames, path) -> Path:
    z = frames.grid.points
    return _write_csv({
        "checkpoint": frames.checkpoints[:, None], "point_index": np.arange(z.size),
        "z": z, "f": frames.values, "valid": frames.grid_valid}, path)


def write_atlas_csv(atlas: ExtensionAtlas, path) -> Path:
    """One line per (t, theta) cell; ``masked`` unless both estimates hold there."""
    return _write_csv({
        "t": atlas.t_grid[:, None], "theta": atlas.theta,
        "src": atlas.source, "dst": atlas.target,
        "mu_f": atlas.mu_formula, "mu_fd": atlas.mu_fd,
        "masked": ~(atlas.valid & atlas.fd_valid)}, path)


def write_error_table_csv(table: ConvergenceTable, path) -> Path:
    return _write_csv({
        header: table.column(field) for header, field in (
            ("level_n", "n"), ("deviation", "deviation"), ("ef_error", "ef_error"),
            ("chain_error", "chain_error"), ("gronwall_envelope", "envelope"),
            ("runtime_ms", "runtime_ms"))}, path)


def _color(i: int, n: int) -> str:
    """Blue-to-red ramp along the time index."""
    x = 0.0 if n <= 1 else i / (n - 1)
    r = int(40 + 200 * x)
    g = int(60 + 60 * (1 - abs(2 * x - 1)))
    b = int(240 - 200 * x)
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_document(curves) -> str:
    size, margin = 640, 0.05
    curves = [(c[np.isfinite(c)], color) for c, color in curves]
    pts = np.concatenate([c for c, _ in curves] + [np.zeros(0, complex)])
    if pts.size == 0:
        pts = np.zeros(1, complex)
    x0, x1 = pts.real.min(), pts.real.max()
    y0, y1 = pts.imag.min(), pts.imag.max()
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = span * margin
    x0, y0, span = x0 - pad, y0 - pad, span + 2 * pad

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for c, color in curves:
        if not c.size:
            continue
        xy = np.stack([(c.real - x0) / span * size, size - (c.imag - y0) / span * size], 1)
        coords = " ".join(["%.2f,%.2f"] * c.size) % tuple(xy.ravel().tolist())
        parts.append(f'<path d="M {coords} Z" fill="none" stroke="{color}" '
                     f'stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_traces_svg(frames: ChainFrames, path) -> Path:
    """Closed trace polylines, one per checkpoint, time-colored."""
    n = frames.checkpoints.size
    traces = np.where(frames.trace_valid, frames.traces, np.nan)
    Path(path).write_text(_svg_document([(traces[i], _color(i, n)) for i in range(n)]))
    return Path(path)


def write_atlas_svg(atlas: ExtensionAtlas, path) -> Path:
    """Source and target curve families overlaid (sources dashed grey-blue)."""
    n = atlas.t_grid.size
    src, dst = (np.where(atlas.valid, a, np.nan) for a in (atlas.source, atlas.target))
    curves = [pair for i in range(n) for pair in ((src[i], "#9aa7c7"), (dst[i], _color(i, n)))]
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
