"""Hot inner loops for projection and normal estimation, in numpy."""
from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------- scatter-min

def fill_grid(rows, cols, ranges, labels, h, w):
    n = rows.shape[0]
    depth = np.zeros((h, w), dtype=np.float64)
    label = np.zeros((h, w), dtype=np.uint16)
    if n == 0:
        return depth, label
    # stable sort by (range, original index); first hit per cell wins
    order = np.lexsort((np.arange(n), ranges))
    cell = rows[order].astype(np.int64) * w + cols[order]
    _, first = np.unique(cell, return_index=True)
    keep = order[first]
    depth.flat[cell[first]] = ranges[keep]
    label.flat[cell[first]] = labels[keep]
    return depth, label


# ------------------------------------------------------------------- normals

def compute_normals(depth, cos_az, sin_az, cos_el, sin_el):
    h, w = depth.shape
    # association matches the scalar loop in tests/test_projection.py, so
    # the two are bit-equal
    px = (depth * cos_el[:, None]) * cos_az[None, :]
    py = (depth * cos_el[:, None]) * sin_az[None, :]
    pz = depth * sin_el[:, None]

    valid = depth > 0.0
    usable = np.zeros((h, w), dtype=bool)
    usable[: h - 1, : w - 1] = (
        valid[: h - 1, : w - 1] & valid[: h - 1, 1:] & valid[1:, : w - 1]
    )

    ax = np.zeros((h, w))
    ay = np.zeros((h, w))
    az = np.zeros((h, w))
    bx = np.zeros((h, w))
    by = np.zeros((h, w))
    bz = np.zeros((h, w))
    ax[: h - 1, : w - 1] = px[: h - 1, 1:] - px[: h - 1, : w - 1]
    ay[: h - 1, : w - 1] = py[: h - 1, 1:] - py[: h - 1, : w - 1]
    az[: h - 1, : w - 1] = pz[: h - 1, 1:] - pz[: h - 1, : w - 1]
    bx[: h - 1, : w - 1] = px[1:, : w - 1] - px[: h - 1, : w - 1]
    by[: h - 1, : w - 1] = py[1:, : w - 1] - py[: h - 1, : w - 1]
    bz[: h - 1, : w - 1] = pz[1:, : w - 1] - pz[: h - 1, : w - 1]

    nx = ay * bz - az * by
    ny = az * bx - ax * bz
    nz = ax * by - ay * bx
    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
    usable &= nn > 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        nx = np.where(usable, nx / nn, 0.0)
        ny = np.where(usable, ny / nn, 0.0)
        nz = np.where(usable, nz / nn, 0.0)
    flip = usable & (nx * px + ny * py + nz * pz > 0.0)
    nx = np.where(flip, -nx, nx)
    ny = np.where(flip, -ny, ny)
    nz = np.where(flip, -nz, nz)

    fallback = valid & ~usable
    with np.errstate(invalid="ignore", divide="ignore"):
        nx = np.where(fallback, -px / depth, nx)
        ny = np.where(fallback, -py / depth, ny)
        nz = np.where(fallback, -pz / depth, nz)
    return np.stack([nx, ny, nz], axis=-1)
