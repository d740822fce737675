"""Hot inner loops for projection and normal estimation, in numpy."""
from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------- scatter-min

def fill_grid(rows, cols, ranges, labels, h, w):
    """Scatter points into an (h, w) depth grid and its label grid.

    Each cell keeps its nearest point: one `np.minimum.at` takes the smallest
    range per cell, a second the lowest point index among the points at
    exactly that range, so ties go to the lower index. Cells no point hits
    stay 0 in both grids.
    """
    n = rows.shape[0]
    depth = np.zeros((h, w), dtype=np.float64)
    label = np.zeros((h, w), dtype=np.uint16)
    if n == 0:
        return depth, label
    cell = rows.astype(np.int64) * w + cols
    best = np.full(h * w, np.inf)
    np.minimum.at(best, cell, ranges)
    at_min = np.flatnonzero(ranges == best[cell])
    first = np.full(h * w, n, dtype=np.int64)
    np.minimum.at(first, cell[at_min], at_min)
    filled = np.flatnonzero(first < n)
    depth.flat[filled] = best[filled]
    label.flat[filled] = labels[first[filled]]
    return depth, label


# ------------------------------------------------------------------- normals

def compute_normals(depth, cos_az, sin_az, cos_el, sin_el):
    """(h, w, 3) normals of a depth grid, per cell from the cross product of
    the right and down neighbour differences, oriented toward the sensor.

    A cell on the last row or column, with an empty neighbour or with a
    degenerate cross product takes the unit direction back to the sensor;
    empty cells are 0. Each product keeps the association of the scalar loop
    in tests/test_projection.py, so the two are bit-equal.
    """
    h, w = depth.shape
    p = np.empty((3, h, w))        # x, y, z channels of each cell's point
    np.multiply(depth * cos_el[:, None], np.stack([cos_az, sin_az])[:, None],
                out=p[:2])
    np.multiply(depth, sin_el[:, None], out=p[2])
    valid = depth > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = np.where(valid, p / -depth, 0.0)

    # interior cells: a = right - here, b = down - here, each stored as
    # (x, y, z, x, y) so a[1:4] * b[2:5] - a[2:5] * b[1:4] is a x b
    here = p[:, :-1, :-1]
    a = np.empty((5, h - 1, w - 1))
    b = np.empty((5, h - 1, w - 1))
    np.subtract(p[:, :-1, 1:], here, out=a[:3])
    np.subtract(p[:, 1:, :-1], here, out=b[:3])
    a[3:] = a[:2]
    b[3:] = b[:2]
    n = a[1:4] * b[2:5]
    n -= a[2:5] * b[1:4]
    sq = n * n
    nn = sq[0] + sq[1]
    nn += sq[2]
    np.sqrt(nn, out=nn)
    usable = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & (nn > 1e-12)
    with np.errstate(invalid="ignore", divide="ignore"):
        n /= nn
        t = n * here
        facing = t[0] + t[1]
        facing += t[2]
        n *= np.where(facing > 0.0, -1.0, 1.0)
    normals[:, :-1, :-1] = np.where(usable, n, normals[:, :-1, :-1])
    return np.moveaxis(normals, 0, -1)
