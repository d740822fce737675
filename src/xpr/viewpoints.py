"""Uniform-yaw virtual viewpoints over the map and their renders."""
from __future__ import annotations

import math

import numpy as np

from .config import Config
from .core import LabeledPointCloud, Pose, yaw_rotation
from .projection import RangeImage, estimate_normals, project_spherical

#: the most (viewpoints x cropped points) projected in one stack: it keeps a
#: stack's per-point arrays (128 KB each at most) within a core's L2 cache,
#: and a W100 place's eight viewpoints of about 1,850 points take one stack
STACK_POINTS = 16384


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
    around that position once, then the poses are projected and given
    normals in stacks of as many as keep (poses x cropped points) within
    STACK_POINTS."""
    if not poses:
        raise ValueError("no viewpoints to render")
    center = poses[0].translation
    if any(not np.array_equal(p.translation, center) for p in poses[1:]):
        raise ValueError("viewpoints to render do not share one position")
    cropped = crop_to_radius(map_cloud, center, cfg.max_range_m)
    per_stack = max(1, STACK_POINTS // max(1, cropped.count))
    stacks = []
    for s in range(0, len(poses), per_stack):
        rng_img, labels = project_spherical(cropped, poses[s:s + per_stack], cfg)
        stacks.append((estimate_normals(rng_img, cfg), labels))
    if len(stacks) == 1:
        return stacks[0]
    return (RangeImage(np.concatenate([img.depth for img, _ in stacks]),
                       np.concatenate([img.normals for img, _ in stacks])),
            np.concatenate([labels for _, labels in stacks]))
