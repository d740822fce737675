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
    """(n, 3) normals of the n filled cells (depth > 0) of a depth grid or a
    stack of them (..., h, w), in row-major order, per cell from the cross
    product of the right and down neighbour differences, oriented toward the
    sensor.

    A cell on the last row or column, with an empty neighbour or with a
    degenerate cross product takes the unit direction back to the sensor.
    Each product keeps the association of the scalar loop in
    tests/test_projection.py, so the two are bit-equal, image by image.
    """
    h, w = depth.shape[-2:]
    valid = depth > 0.0
    filled = np.flatnonzero(valid)
    d = depth.take(filled)
    r, c = np.divmod(filled, w)       # r counts rows across the images
    r %= h
    p = np.empty((3, len(filled)))     # x, y, z of each filled cell's point
    ground = np.multiply(d, cos_el.take(r))
    np.multiply(ground, cos_az.take(c), out=p[0])
    np.multiply(ground, sin_az.take(c), out=p[1])
    np.multiply(d, sin_el.take(r), out=p[2])
    normals = np.empty((len(filled), 3))
    np.divide(p, -d, out=normals.T)

    # the cross product runs only at the cells whose own, right and down
    # cells are filled, found by flat index: the right neighbour is the next
    # cell, the down neighbour w cells on, and a last row or column is never
    # paired, so no cell pairs across rows or images; `row` maps a filled
    # cell's flat index to its row of p
    inner = np.zeros_like(valid)
    inner[..., :-1, :-1] = (valid[..., :-1, :-1] & valid[..., :-1, 1:]
                            & valid[..., 1:, :-1])
    cell = np.flatnonzero(inner)
    row = np.empty(valid.size, dtype=np.intp)
    row[filled] = np.arange(len(filled))
    here = row[cell]
    point = p.take(here, axis=1)
    a = p.take(row[cell + 1], axis=1)
    b = p.take(row[cell + w], axis=1)
    a -= point
    b -= point
    n = np.empty_like(a)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        n[i] = a[j] * b[k] - a[k] * b[j]
    nn = np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    usable = nn > 1e-12
    here = here[usable]
    point = point.compress(usable, axis=1)
    n = n.compress(usable, axis=1) / nn[usable]
    facing = n[0] * point[0] + n[1] * point[1] + n[2] * point[2]
    np.negative(n, out=n, where=facing > 0.0)
    for i in range(3):
        normals[here, i] = n[i]
    return normals
