"""Shared domain records: labeled point clouds and rigid poses."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabeledPointCloud:
    """Points in the sensor frame with one semantic class id per point.

    points: (N, 3) float64 meters, labels: (N,) uint16 class ids in
    [0, n_classes).
    """
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64).reshape(-1, 3))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.uint16).reshape(-1))

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Pose:
    """Rigid transform sensor->world: x_world = rotation @ x_sensor + translation."""
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def transform(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.rotation.T + self.translation


def identity_pose() -> Pose:
    return Pose(np.eye(3), np.zeros(3))


def yaw_rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def canonical_heading(h: float) -> float:
    """Wrap a heading into [0, 2*pi)."""
    two_pi = 2.0 * math.pi
    h = h - two_pi * math.floor(h / two_pi)
    if h >= two_pi or abs(h - two_pi) < 1e-12:
        h = 0.0
    return h
