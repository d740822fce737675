"""Uniform-yaw virtual viewpoints over the map and their renders."""
from __future__ import annotations

import numpy as np

from .config import Config
from .core import LabeledPointCloud, Pose
from .projection import RangeImage, estimate_normals, project_spherical


def crop_to_radius(cloud: LabeledPointCloud, center: np.ndarray,
                   radius: float) -> LabeledPointCloud:
    x, y, z = (cloud.points - center).T
    keep = np.sqrt(x * x + y * y + z * z) <= radius
    return LabeledPointCloud(cloud.points[keep], cloud.labels[keep])


def render_viewpoints(map_cloud: LabeledPointCloud, anchor: Pose, n_views: int,
                      cfg: Config) -> tuple[RangeImage, np.ndarray]:
    """One (V, H, W) stack of range images with its filled cells and their
    normal rows, and its (V, H, W) label images, of the anchor's n_views
    viewpoints in yaw order (viewpoint k turned by k * 2pi / V about the
    anchor's own vertical axis, as `project_spherical` bins them): the map
    is cropped around the anchor once, then all the viewpoints are
    projected in one polar pass and given normals in one call."""
    cropped = crop_to_radius(map_cloud, anchor.translation, cfg.max_range_m)
    rng_img, labels = project_spherical(cropped, anchor, n_views, cfg)
    return estimate_normals(rng_img, cfg), labels
