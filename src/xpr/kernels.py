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
    """(..., h, w, 3) normals of a depth grid or a stack of them (..., h, w),
    per cell from the cross product of the right and down neighbour
    differences, oriented toward the sensor.

    A cell on the last row or column, with an empty neighbour or with a
    degenerate cross product takes the unit direction back to the sensor;
    empty cells are 0. Each product keeps the association of the scalar loop
    in tests/test_projection.py, so the two are bit-equal, image by image.
    """
    p = np.empty((3, *depth.shape))    # x, y, z channels of each cell's point
    ground = depth * cos_el[:, None]
    np.multiply(ground, cos_az, out=p[0])
    np.multiply(ground, sin_az, out=p[1])
    np.multiply(depth, sin_el[:, None], out=p[2])
    valid = depth > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = np.where(valid, p / -depth, 0.0)

    # interior cells: a = right - here, b = down - here, n = a x b, formed
    # a component at a time through one scratch array, so that a stack's
    # temporaries stay few: a heap that grows and shrinks by megabytes per
    # stack is trimmed and faulted back in on every stack
    here = p[..., :-1, :-1]
    a = np.subtract(p[..., :-1, 1:], here)
    b = np.subtract(p[..., 1:, :-1], here)
    n = np.empty_like(a)
    tmp = np.empty_like(a[0])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=n[i])
        np.multiply(a[k], b[j], out=tmp)
        n[i] -= tmp
    del a, b
    nn = np.multiply(n[0], n[0])
    np.multiply(n[1], n[1], out=tmp)
    nn += tmp
    np.multiply(n[2], n[2], out=tmp)
    nn += tmp
    np.sqrt(nn, out=nn)
    usable = (valid[..., :-1, :-1] & valid[..., :-1, 1:] & valid[..., 1:, :-1]
              & (nn > 1e-12))
    with np.errstate(invalid="ignore", divide="ignore"):
        n /= nn
        facing = np.multiply(n[0], here[0])
        np.multiply(n[1], here[1], out=tmp)
        facing += tmp
        np.multiply(n[2], here[2], out=tmp)
        facing += tmp
        np.negative(n, out=n, where=facing > 0.0)
    np.copyto(normals[..., :-1, :-1], n, where=usable)
    return np.moveaxis(normals, 0, -1)
