import math

import numpy as np
import pytest

from xpr import kernels
from xpr.config import Config, make_rng
from xpr.core import LabeledPointCloud, identity_pose, yaw_rotation
from xpr.projection import (RangeImage, SemanticImage, estimate_normals,
                            project_spherical, semantic_histogram, unproject)
from xpr.selfcheck import shift_safe_scene

CFG = Config(vfov_up=15.0, vfov_down=-15.0)


def project(points, labels, cfg=CFG, pose=None):
    cloud = LabeledPointCloud(np.asarray(points, dtype=float),
                              np.asarray(labels, dtype=np.uint16))
    return project_spherical(cloud, pose or identity_pose(), cfg)


def test_single_point_lands_at_center():
    img, sem = project([[10.0, 0.0, 0.0]], [3])
    r, c = CFG.range_rows // 2, CFG.range_cols // 2
    assert img.depth[r, c] == pytest.approx(10.0, abs=1e-12)
    assert sem.labels[r, c] == 3
    assert np.count_nonzero(img.depth) == 1


def test_nearest_point_wins_cell():
    img, sem = project([[9.0, 0.0, 0.0], [5.0, 0.0, 0.0]], [1, 2])
    r, c = CFG.range_rows // 2, CFG.range_cols // 2
    assert img.depth[r, c] == pytest.approx(5.0)
    assert sem.labels[r, c] == 2


def test_empty_cloud_gives_empty_images():
    img, sem = project(np.empty((0, 3)), [])
    assert not img.depth.any() and not sem.labels.any()


@pytest.mark.parametrize("points", [[[0.0, 0.0, 0.0]] * 3,
                                    [[1.0, 0.0, 5.0], [0.0, 0.0, 2.0]]],
                         ids=["at-sensor", "above-fov"])
def test_cloud_with_no_point_in_view_projects_to_zero_grids(points):
    with np.errstate(all="raise"):
        img, sem = project(points, [4] * len(points))
    assert img.depth.dtype == np.float64 and sem.labels.dtype == np.uint16
    assert img.depth.shape == sem.labels.shape == (CFG.range_rows,
                                                   CFG.range_cols)
    assert not img.depth.any() and not sem.labels.any()


def test_equal_range_tie_goes_to_lower_index():
    """Points on one ray at equal range tie; the lowest point index wins,
    and a nearer point beats every tie whatever its index."""
    r, c = CFG.range_rows // 2, CFG.range_cols // 2
    pts = [[10.0, 0.0, 0.0]] * 3 + [[12.0, 0.0, 0.0]]
    for labels, want in (([1, 2, 3, 4], 1), ([3, 1, 2, 4], 3),
                         ([5, 6, 7, 4], 5)):
        img, sem = project(pts, labels)
        assert img.depth[r, c] == 10.0 and sem.labels[r, c] == want
    img, sem = project([[12.0, 0.0, 0.0]] + [[10.0, 0.0, 0.0]] * 2
                       + [[9.0, 0.0, 0.0]], [4, 2, 3, 6])
    assert img.depth[r, c] == 9.0 and sem.labels[r, c] == 6
    img, sem = project([[12.0, 0.0, 0.0]] + [[10.0, 0.0, 0.0]] * 2, [4, 2, 3])
    assert img.depth[r, c] == 10.0 and sem.labels[r, c] == 2


def test_out_of_fov_dropped():
    img, _ = project([[1.0, 0.0, 5.0]], [1])  # far above vfov_up
    assert not img.depth.any()


def test_depth_matches_bruteforce_min():
    rng = make_rng(42, 1)
    n = 10000
    pts = rng.uniform(-30, 30, (n, 3))
    pts[:, 2] = rng.uniform(-3, 3, n)
    labels = rng.integers(1, 8, n).astype(np.uint16)
    cloud = LabeledPointCloud(pts, labels)
    img, sem = project_spherical(cloud, identity_pose(), CFG)

    # straightforward O(P) reference pass
    h, w = CFG.range_rows, CFG.range_cols
    up, down = math.radians(CFG.vfov_up), math.radians(CFG.vfov_down)
    best = {}
    for i in range(n):
        x, y, z = pts[i]
        r = math.sqrt(x * x + y * y + z * z)
        el = math.asin(z / r)
        if not (down <= el <= up):
            continue
        col = int(math.floor((math.atan2(y, x) + math.pi)
                             / (2 * math.pi) * w)) % w
        row = min(int(math.floor((up - el) / (up - down) * h)), h - 1)
        if (row, col) not in best or r < best[(row, col)][0]:
            best[(row, col)] = (r, labels[i])
    assert len(best) == np.count_nonzero(img.depth)
    for (row, col), (r, lab) in best.items():
        assert img.depth[row, col] == pytest.approx(r, abs=1e-6)
        assert sem.labels[row, col] == lab


def test_permutation_invariant():
    rng = make_rng(7, 1)
    pts = rng.uniform(-20, 20, (500, 3))
    labels = rng.integers(1, 8, 500).astype(np.uint16)
    perm = rng.permutation(500)
    img0, sem0 = project(pts, labels)
    img1, sem1 = project(pts[perm], labels[perm])
    assert np.array_equal(img0.depth, img1.depth)
    assert np.array_equal(sem0.labels, sem1.labels)


def test_yaw_shift_property():
    cfg = Config()
    rng = make_rng(3, 1)
    cloud = shift_safe_scene(rng, cfg)
    shift = 17
    theta = shift * 2 * math.pi / cfg.range_cols
    img0, sem0 = project_spherical(cloud, identity_pose(), cfg)
    rot = yaw_rotation(theta)
    rotated = LabeledPointCloud(cloud.points @ rot.T, cloud.labels)
    img1, sem1 = project_spherical(rotated, identity_pose(), cfg)
    # rotation perturbs recomputed ranges in the last ulp; occupancy is exact
    assert np.allclose(np.roll(img0.depth, shift, axis=1), img1.depth,
                       atol=1e-12)
    assert np.array_equal(np.roll(sem0.labels, shift, axis=1), sem1.labels)


def test_normals_on_facing_plane():
    # depth image of the plane x=5, evaluated exactly at cell centers so the
    # reprojected points sit on the plane and the normal is analytic
    h, w = CFG.range_rows, CFG.range_cols
    up, down = math.radians(CFG.vfov_up), math.radians(CFG.vfov_down)
    az = -math.pi + (np.arange(w) + 0.5) * (2 * math.pi / w)
    el = up - (np.arange(h) + 0.5) * ((up - down) / h)
    depth = np.zeros((h, w))
    front = np.abs(az) < math.radians(20)
    depth[:, front] = 5.0 / (np.cos(el)[:, None] * np.cos(az[front])[None, :])
    img = estimate_normals(RangeImage(depth, np.zeros((h, w, 3)),
                                      CFG.vfov_up, CFG.vfov_down))
    filled = depth > 0
    interior = filled & np.roll(filled, -1, axis=1) & np.roll(filled, -1, axis=0)
    interior[-1, :] = False
    norms = img.normals[interior]
    assert len(norms) > 20
    assert np.abs(norms - np.array([-1.0, 0.0, 0.0])).max() < 1e-9


def test_isolated_cell_falls_back_to_radial():
    img, _ = project([[10.0, 0.0, 0.0]], [1])
    img = estimate_normals(img)
    r, c = CFG.range_rows // 2, CFG.range_cols // 2
    p = unproject(img)[r, c]
    expect = -p / np.linalg.norm(p)
    assert np.allclose(img.normals[r, c], expect, atol=1e-12)


def test_sphere_normals_accuracy():
    cfg = Config(range_rows=64, range_cols=360)
    depth = np.full((64, 360), 10.0)
    img = estimate_normals(RangeImage(depth, np.zeros((64, 360, 3)),
                                      cfg.vfov_up, cfg.vfov_down))
    pts = unproject(img)
    radial = pts / 10.0
    cosang = np.clip(-(img.normals * radial).sum(axis=-1), -1.0, 1.0)
    assert np.degrees(np.arccos(cosang)).max() < 2.0


def test_normal_unit_or_zero():
    rng = make_rng(11, 1)
    pts = rng.uniform(-20, 20, (2000, 3))
    img, _ = project(pts, np.ones(2000))
    img = estimate_normals(img)
    n = np.linalg.norm(img.normals, axis=-1)
    filled = img.depth > 0
    assert np.abs(n[filled] - 1.0).max() < 1e-4
    assert not n[~filled].any()


def test_semantic_histogram_one_hot():
    cfg = Config(n_classes=8)
    sem = SemanticImage(np.full((4, 6), 3, dtype=np.uint16))
    hist = semantic_histogram(sem, cfg)
    expect = np.zeros(8)
    expect[3] = 1.0
    assert np.array_equal(hist, expect)


def test_semantic_histogram_split():
    cfg = Config(n_classes=8)
    labels = np.zeros((2, 4), dtype=np.uint16)
    labels[0] = 1
    labels[1] = 2
    hist = semantic_histogram(SemanticImage(labels), cfg)
    assert hist[1] == 0.5 and hist[2] == 0.5 and hist.sum() == 1.0


def test_semantic_histogram_counting_oracle():
    cfg = Config(n_classes=8)
    rng = make_rng(5, 9)
    labels = rng.integers(0, 8, (16, 180)).astype(np.uint16)
    hist = semantic_histogram(SemanticImage(labels), cfg)
    nonzero = labels[labels > 0]
    for c in range(1, 8):
        assert hist[c] == np.count_nonzero(nonzero == c) / nonzero.size
    assert abs(hist.sum() - 1.0) < 1e-9


def test_semantic_histogram_empty_uniform():
    cfg = Config(n_classes=8)
    hist = semantic_histogram(SemanticImage(np.zeros((3, 3), dtype=np.uint16)), cfg)
    assert hist[0] == 0.0
    assert np.allclose(hist[1:], 1.0 / 7.0)


def _fill_grid_reference(rows, cols, ranges, labels, h, w):
    """Scalar scatter-min: the nearest point wins, ties go to the lower index."""
    depth = np.zeros((h, w), dtype=np.float64)
    label = np.zeros((h, w), dtype=np.uint16)
    winner = np.full((h, w), -1, dtype=np.int64)
    for i in range(rows.shape[0]):
        r, c, rng = rows[i], cols[i], ranges[i]
        j = winner[r, c]
        if j < 0 or rng < depth[r, c] or (rng == depth[r, c] and i < j):
            depth[r, c] = rng
            label[r, c] = labels[i]
            winner[r, c] = i
    return depth, label


def _normals_reference(depth, cos_az, sin_az, cos_el, sin_el):
    """Scalar per-cell normals from the right/down neighbours, oriented
    toward the sensor, falling back to the radial direction."""
    h, w = depth.shape
    normals = np.zeros((h, w, 3), dtype=np.float64)
    for r in range(h):
        for c in range(w):
            d = depth[r, c]
            if d == 0.0:
                continue
            px = d * cos_el[r] * cos_az[c]
            py = d * cos_el[r] * sin_az[c]
            pz = d * sin_el[r]
            ok = False
            if c + 1 < w and r + 1 < h:
                dr = depth[r, c + 1]
                dd = depth[r + 1, c]
                if dr > 0.0 and dd > 0.0:
                    ax = dr * cos_el[r] * cos_az[c + 1] - px
                    ay = dr * cos_el[r] * sin_az[c + 1] - py
                    az = dr * sin_el[r] - pz
                    bx = dd * cos_el[r + 1] * cos_az[c] - px
                    by = dd * cos_el[r + 1] * sin_az[c] - py
                    bz = dd * sin_el[r + 1] - pz
                    nx = ay * bz - az * by
                    ny = az * bx - ax * bz
                    nz = ax * by - ay * bx
                    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
                    if nn > 1e-12:
                        nx, ny, nz = nx / nn, ny / nn, nz / nn
                        if nx * px + ny * py + nz * pz > 0.0:
                            nx, ny, nz = -nx, -ny, -nz
                        normals[r, c] = (nx, ny, nz)
                        ok = True
            if not ok:
                normals[r, c] = (-px / d, -py / d, -pz / d)
    return normals


def test_kernels_match_scalar_reference():
    rng = make_rng(100, 1)
    n = 5000
    rows = rng.integers(0, 16, n)
    cols = rng.integers(0, 180, n)
    ranges = rng.uniform(1, 50, n)
    labels = rng.integers(0, 8, n).astype(np.uint16)
    # floored ranges tie within cells, so the lower-index tie-break counts
    for rs in (ranges, np.floor(ranges)):
        d0, l0 = _fill_grid_reference(rows, cols, rs, labels, 16, 180)
        d1, l1 = kernels.fill_grid(rows, cols, rs, labels, 16, 180)
        assert np.array_equal(d0, d1) and np.array_equal(l0, l1)

    depth, _ = kernels.fill_grid(rows, cols, ranges, labels, 16, 180)
    az = np.linspace(-3, 3, 180)
    el = np.linspace(-0.4, 0.03, 16)
    trig = (np.cos(az), np.sin(az), np.cos(el), np.sin(el))
    holed = depth.copy()
    holed[rng.uniform(size=holed.shape) < 0.3] = 0.0  # exercises the fallback
    for d in (depth, holed):
        assert np.array_equal(_normals_reference(d, *trig),
                              kernels.compute_normals(d, *trig))


@pytest.mark.parametrize("case", ["empty", "one-cell", "one-per-cell"])
def test_fill_grid_edge_cases_match_reference(case):
    rng = make_rng(101, 1)
    h, w = 16, 180
    if case == "empty":
        rows = cols = np.empty(0, dtype=np.int64)
    elif case == "one-cell":   # every point in one cell, with range ties
        rows = np.full(300, 7)
        cols = np.full(300, 42)
    else:                      # each cell exactly once, in shuffled order
        cells = rng.permutation(h * w)
        rows, cols = cells // w, cells % w
    n = rows.shape[0]
    ranges = np.floor(rng.uniform(1, 20, n))
    labels = rng.integers(0, 8, n).astype(np.uint16)
    d0, l0 = _fill_grid_reference(rows, cols, ranges, labels, h, w)
    d1, l1 = kernels.fill_grid(rows, cols, ranges, labels, h, w)
    assert np.array_equal(d0, d1) and np.array_equal(l0, l1)
    assert np.count_nonzero(d1) == min(n, len(set(zip(rows, cols))))
