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
    normals = np.zeros((*depth.shape, 3))
    np.divide(p, -depth, out=np.moveaxis(normals, -1, 0), where=valid)

    # the cross product runs only at the cells whose own, right and down
    # cells are filled (a map render fills about a quarter of its cells),
    # gathered by flat index: the right neighbour is the next cell, the
    # down neighbour w cells on; a last row or column is never gathered
    w = depth.shape[-1]
    inner = np.zeros_like(valid)
    inner[..., :-1, :-1] = (valid[..., :-1, :-1] & valid[..., :-1, 1:]
                            & valid[..., 1:, :-1])
    cell = np.flatnonzero(inner)
    p = p.reshape(3, -1)
    here = p.take(cell, axis=1)
    a = p.take(cell + 1, axis=1) - here
    b = p.take(cell + w, axis=1) - here
    n = np.empty_like(a)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        n[i] = a[j] * b[k] - a[k] * b[j]
    nn = np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    usable = nn > 1e-12
    cell = cell[usable]
    here = here.compress(usable, axis=1)
    n = n.compress(usable, axis=1) / nn[usable]
    facing = n[0] * here[0] + n[1] * here[1] + n[2] * here[2]
    np.negative(n, out=n, where=facing > 0.0)
    rows = normals.reshape(-1, 3)
    for i in range(3):
        rows[cell, i] = n[i]
    return normals
