import math

import numpy as np
import pytest

from xpr.config import make_rng
from xpr.core import LabeledPointCloud, Pose, canonical_heading, yaw_rotation


def test_cloud_coerces_dtypes():
    cloud = LabeledPointCloud([[1, 2, 3]], [4])
    assert cloud.points.dtype == np.float64
    assert cloud.labels.dtype == np.uint16
    assert cloud.count == 1


def test_pose_inverse_round_trip():
    rng = make_rng(2, 1)
    pose = Pose(yaw_rotation(1.3), rng.normal(size=3))
    pts = rng.normal(size=(20, 3))
    back = pose.inverse().transform(pose.transform(pts))
    assert np.abs(back - pts).max() < 1e-12


def test_yaw_extraction():
    for theta in (-2.5, -0.3, 0.0, 0.7, 3.0):
        r = yaw_rotation(theta)
        assert math.atan2(r[1, 0], r[0, 0]) == pytest.approx(theta, abs=1e-12)


def test_yaw_rotation_rotates_x_axis():
    r = yaw_rotation(math.pi / 2)
    assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    assert np.allclose(r @ [0, 0, 1], [0, 0, 1])


def test_canonical_heading_wraps():
    two_pi = 2 * math.pi
    assert canonical_heading(0.0) == 0.0
    assert canonical_heading(two_pi) == 0.0
    assert canonical_heading(-0.5) == pytest.approx(two_pi - 0.5, abs=1e-12)
    assert canonical_heading(5 * two_pi + 1.0) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= canonical_heading(123.456) < two_pi


def test_canonical_heading_snaps_near_two_pi():
    assert canonical_heading(2 * math.pi - 1e-14) == 0.0
