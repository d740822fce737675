"""Spherical projection of labeled clouds into range/semantic images."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .config import Config
from .core import LabeledPointCloud, Pose


@dataclass(frozen=True)
class RangeImage:
    depth: np.ndarray            # (H, W) meters, 0 = empty cell
    normals: np.ndarray          # (H, W, 3) unit vectors, zero where empty
    vfov_up: float               # degrees
    vfov_down: float

    @property
    def rows(self) -> int:
        return self.depth.shape[0]

    @property
    def cols(self) -> int:
        return self.depth.shape[1]


@dataclass(frozen=True)
class SemanticImage:
    labels: np.ndarray           # (H, W) uint16 class ids, 0 where empty

    @property
    def rows(self) -> int:
        return self.labels.shape[0]

    @property
    def cols(self) -> int:
        return self.labels.shape[1]


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


def project_spherical(cloud: LabeledPointCloud, sensor_pose: Pose,
                      cfg: Config) -> tuple[RangeImage, SemanticImage]:
    """Project a cloud onto the 360-degree grid; nearest point wins each cell.

    Azimuth [-pi, pi) maps linearly to columns with azimuth 0 at the image
    center; elevation [vfov_down, vfov_up] maps linearly to rows (top row =
    vfov_up). Points at the sensor or outside the vertical FOV are dropped.
    `kernels.fill_grid` scatters the rest with a scatter-min over range; ties
    on range go to the lower point index.
    """
    h, w = cfg.range_rows, cfg.range_cols
    pts = sensor_pose.inverse().transform(cloud.points)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rng = np.sqrt(x * x + y * y + z * z)
    up = math.radians(cfg.vfov_up)
    down = math.radians(cfg.vfov_down)
    with np.errstate(invalid="ignore", divide="ignore"):
        el = np.arcsin(np.clip(z / rng, -1.0, 1.0))
        keep = np.flatnonzero((rng > 0.0) & (el >= down) & (el <= up))
    el, rng, lab = el[keep], rng[keep], cloud.labels[keep]
    az = np.arctan2(y[keep], x[keep])

    cols = np.floor((az + math.pi) / (2.0 * math.pi) * w).astype(np.int64) % w
    rows = np.minimum(np.floor((up - el) / (up - down) * h).astype(np.int64), h - 1)
    depth, labels = kernels.fill_grid(rows, cols, rng, lab, h, w)

    img = RangeImage(depth, np.zeros((h, w, 3)), cfg.vfov_up, cfg.vfov_down)
    return img, SemanticImage(labels)


def estimate_normals(img: RangeImage) -> RangeImage:
    """Per-cell surface normal from right/down neighbor differences.

    Missing neighbor, image edge, or a degenerate cross product falls back to
    the unit direction from the point back toward the sensor. Normals are
    oriented to face the sensor.
    """
    normals = kernels.compute_normals(
        img.depth, *_cell_trig(img.rows, img.cols, img.vfov_up, img.vfov_down))
    return RangeImage(img.depth, normals, img.vfov_up, img.vfov_down)


def unproject(img: RangeImage) -> np.ndarray:
    """Sensor-frame 3D point per cell (zero where empty), (H, W, 3)."""
    cos_az, sin_az, cos_el, sin_el = _cell_trig(img.rows, img.cols,
                                                img.vfov_up, img.vfov_down)
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


def semantic_histogram(sem: SemanticImage, cfg: Config) -> np.ndarray:
    """Class-frequency vector over non-void cells; uniform if all void."""
    counts = np.bincount(sem.labels.ravel(), minlength=cfg.n_classes).astype(np.float64)
    counts[0] = 0.0
    total = counts.sum()
    if total == 0.0:
        hist = np.full(cfg.n_classes, 1.0 / (cfg.n_classes - 1))
        hist[0] = 0.0
        return hist
    return counts / total


def semantic_context(labels, cfg: Config) -> np.ndarray:
    """Database-average class histogram of label images (N, H, W): the mean
    of their `semantic_histogram`s, divided by its sum. No images read as
    one all-void image."""
    hists = [semantic_histogram(SemanticImage(lab), cfg) for lab in labels]
    if not hists:
        hists = [semantic_histogram(SemanticImage(np.zeros((1, 1), np.uint16)),
                                    cfg)]
    mean = np.mean(hists, axis=0)
    return mean / mean.sum()
