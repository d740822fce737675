"""Uniform-yaw virtual viewpoints over the map and their renders."""
from __future__ import annotations

import math

import numpy as np

from .config import Config
from .core import LabeledPointCloud, Pose, yaw_rotation
from .projection import RangeImage, estimate_normals, project_spherical

def make_viewpoints(anchor: Pose, cfg: Config) -> list:
    """The n_viewpoints Poses of the anchor turned by yaw steps k*2pi/N
    about its own vertical axis, at its position, k ascending: pose k is
    `anchor.rotation @ yaw_rotation(k * step)`, the poses that
    `project_spherical` renders in one pass."""
    step = 2.0 * math.pi / cfg.n_viewpoints
    return [Pose(anchor.rotation @ yaw_rotation(k * step), anchor.translation)
            for k in range(cfg.n_viewpoints)]


def crop_to_radius(cloud: LabeledPointCloud, center: np.ndarray,
                   radius: float) -> LabeledPointCloud:
    x, y, z = (cloud.points - center).T
    keep = np.sqrt(x * x + y * y + z * z) <= radius
    return LabeledPointCloud(cloud.points[keep], cloud.labels[keep])


def render_viewpoints(map_cloud: LabeledPointCloud, poses: list,
                      cfg: Config) -> tuple[RangeImage, np.ndarray]:
    """One (V, H, W) stack of range images with its filled cells and their
    normal rows, and its (V, H, W) label images, in pose order, for poses
    that are yaw steps about the first, as a place's viewpoints are: the map
    is cropped around their position once, then all the poses are projected
    in one polar pass and given normals in one call."""
    if not poses:
        raise ValueError("no viewpoints to render")
    cropped = crop_to_radius(map_cloud, poses[0].translation, cfg.max_range_m)
    rng_img, labels = project_spherical(cropped, poses, cfg)
    return estimate_normals(rng_img, cfg), labels
