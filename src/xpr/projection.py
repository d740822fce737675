"""Spherical projection of labeled clouds into range/semantic images."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .config import Config
from .core import LabeledPointCloud


@dataclass(frozen=True)
class RangeImage:
    depth: np.ndarray            # (..., H, W) meters, 0 = empty cell
    normals: np.ndarray | None   # (n, 3) unit vectors of the n filled cells,
                                 # row-major; None before estimate_normals


@dataclass(frozen=True)
class SemanticImage:
    labels: np.ndarray           # (..., H, W) uint16 class ids, 0 where empty

    @property
    def cols(self) -> int:
        return self.labels.shape[-1]


@lru_cache(maxsize=8)
def _cell_trig(rows: int, cols: int, vfov_up: float, vfov_down: float):
    """cos/sin of the azimuth per column and of the elevation per row at cell
    centers, as read-only arrays (cos_az, sin_az, cos_el, sin_el)."""
    az = -math.pi + (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
    up = math.radians(vfov_up)
    down = math.radians(vfov_down)
    el = up - (np.arange(rows) + 0.5) * ((up - down) / rows)
    trig = (np.cos(az), np.sin(az), np.cos(el), np.sin(el))
    for arr in trig:
        arr.flags.writeable = False
    return trig


def project_spherical(cloud: LabeledPointCloud, sensor_poses: list,
                      cfg: Config) -> tuple[RangeImage, np.ndarray]:
    """Project a cloud from each of V sensor poses onto the 360-degree grid,
    as one (V, H, W) stack of range images and its (V, H, W) uint16 label
    images (0 where empty); nearest point wins each cell.

    Azimuth [-pi, pi) maps linearly to columns with azimuth 0 at the image
    center; elevation [vfov_down, vfov_up] maps linearly to rows (top row =
    vfov_up). Points at the sensor or outside the vertical FOV are dropped.
    All V images take one pass: one batched transform into the sensor
    frames, and one `kernels.fill_grid` scatter-min over a (V*H, W) grid in
    which image v owns rows v*H:(v+1)*H, so that ties on range go to the
    lower point index within each image.
    """
    h, w = cfg.range_rows, cfg.range_cols
    inverse = [p.inverse() for p in sensor_poses]
    # R @ x.T + t per inverse pose: the bits of Pose.transform, as (V, 3, n)
    # coordinate rows; image v's points come before image v+1's
    xyz = np.stack([p.rotation for p in inverse]) @ cloud.points.T
    xyz += np.stack([p.translation for p in inverse])[:, :, None]
    x, y, z = np.swapaxes(xyz, 0, 1).reshape(3, -1)
    rng = x * x
    rng += y * y
    rng += z * z
    np.sqrt(rng, out=rng)
    up = math.radians(cfg.vfov_up)
    down = math.radians(cfg.vfov_down)
    with np.errstate(invalid="ignore", divide="ignore"):
        el = np.divide(z, rng)
        np.arcsin(np.clip(el, -1.0, 1.0, out=el), out=el)
        keep = np.flatnonzero((rng > 0.0) & (el >= down) & (el <= up))
    el, rng = el[keep], rng[keep]
    az = np.arctan2(y[keep], x[keep])

    az += math.pi
    az /= 2.0 * math.pi
    az *= w
    cols = np.floor(az, out=az).astype(np.int64)
    cols[cols == w] = 0                  # azimuth pi is column 0, as -pi is
    np.subtract(up, el, out=el)
    el /= up - down
    el *= h
    rows = np.floor(el, out=el).astype(np.int64)
    np.minimum(rows, h - 1, out=rows)
    # image v's points are the kept indices in [v*n, (v+1)*n): move them to
    # rows v*h:(v+1)*h, and their indices back to point indices
    n_views, n = len(sensor_poses), cloud.count
    view = keep // n
    rows += view * h
    keep -= view * n
    depth, labels = kernels.fill_grid(rows, cols, rng, cloud.labels[keep],
                                      n_views * h, w)
    return (RangeImage(depth.reshape(n_views, h, w), None),
            labels.reshape(n_views, h, w))


def estimate_normals(img: RangeImage, cfg: Config) -> RangeImage:
    """The image with the surface normals of its filled cells, as (n, 3)
    rows in row-major order, for a single image or a stack of them: from
    right/down neighbor differences within each image.

    Missing neighbor, image edge, or a degenerate cross product falls back to
    the unit direction from the point back toward the sensor. Normals are
    oriented to face the sensor.
    """
    trig = _cell_trig(*img.depth.shape[-2:], cfg.vfov_up, cfg.vfov_down)
    return RangeImage(img.depth, kernels.compute_normals(img.depth, *trig))


def unproject(img: RangeImage, cfg: Config) -> np.ndarray:
    """Sensor-frame 3D point per cell (zero where empty), (H, W, 3)."""
    cos_az, sin_az, cos_el, sin_el = _cell_trig(*img.depth.shape[-2:],
                                                cfg.vfov_up, cfg.vfov_down)
    x = (img.depth * cos_el[:, None]) * cos_az
    y = (img.depth * cos_el[:, None]) * sin_az
    z = img.depth * sin_el[:, None]
    return np.stack([x, y, z], axis=-1)


def frustum_window(cols: int) -> tuple[int, int]:
    """Central column window covering the camera's 90-degree frontal view.

    Returns (first column, width); azimuth 0 sits at the image center, so
    the frustum is the middle quarter of a 360-degree image.
    """
    width = max(cols // 4, 1)
    return (cols - width) // 2, width


def class_counts(labels, cfg: Config) -> np.ndarray:
    """(N, n_classes) class counts of N label arrays, one row each."""
    return np.reshape([np.bincount(lab.ravel(), minlength=cfg.n_classes)
                       for lab in labels], (-1, cfg.n_classes))


def semantic_histogram(counts: np.ndarray) -> np.ndarray:
    """Class-frequency rows of (..., n_classes) class counts over their
    non-void classes: class 0 reads 0, and a row with no non-void count
    reads uniform over the others."""
    hist = counts.astype(np.float64)
    hist[..., 0] = 0.0
    hist[..., 1:] += hist.sum(axis=-1, keepdims=True) == 0.0
    return hist / hist.sum(axis=-1, keepdims=True)


def semantic_context(counts: np.ndarray) -> np.ndarray:
    """Database-average class histogram of (N, n_classes) per-image class
    counts: the mean of their `semantic_histogram`s, divided by its sum. No
    images read as one all-void image."""
    mean = np.mean(semantic_histogram(counts if len(counts)
                                      else np.zeros((1, counts.shape[-1]))),
                   axis=0)
    return mean / mean.sum()
