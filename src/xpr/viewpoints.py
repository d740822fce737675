"""Uniform-yaw virtual viewpoints over the map and their renders."""
from __future__ import annotations

import math

import numpy as np

from .config import Config
from .core import LabeledPointCloud, Pose, yaw_rotation
from .projection import RangeImage, estimate_normals, project_spherical

def make_viewpoints(anchor: Pose, cfg: Config) -> list:
    """The n_viewpoints Poses of the anchor composed with yaw rotations
    k*2pi/N about its own position, k ascending."""
    step = 2.0 * math.pi / cfg.n_viewpoints
    # rotate about the world vertical axis through the anchor position
    return [Pose(yaw_rotation(k * step) @ anchor.rotation, anchor.translation)
            for k in range(cfg.n_viewpoints)]


def crop_to_radius(cloud: LabeledPointCloud, center: np.ndarray,
                   radius: float) -> LabeledPointCloud:
    x, y, z = (cloud.points - center).T
    keep = np.sqrt(x * x + y * y + z * z) <= radius
    return LabeledPointCloud(cloud.points[keep], cloud.labels[keep])


def render_viewpoints(map_cloud: LabeledPointCloud, poses: list,
                      cfg: Config) -> tuple[RangeImage, np.ndarray]:
    """One (V, H, W) stack of range images with the normal rows of its
    filled cells and its (V, H, W) label images, in pose order, for poses
    that share one position, as a place's viewpoints do: the map is cropped
    around that position once, then all the poses are projected and given
    normals in one pass."""
    if not poses:
        raise ValueError("no viewpoints to render")
    center = poses[0].translation
    if any(not np.array_equal(p.translation, center) for p in poses[1:]):
        raise ValueError("viewpoints to render do not share one position")
    cropped = crop_to_radius(map_cloud, center, cfg.max_range_m)
    rng_img, labels = project_spherical(cropped, poses, cfg)
    return estimate_normals(rng_img, cfg), labels
