import math

import numpy as np
import pytest

from xpr.config import Config, make_rng
from xpr.core import LabeledPointCloud, Pose, identity_pose, yaw_rotation
from xpr.encoder import encode_lidar_local
from xpr.io_datasets import Dataset
from xpr import pipeline
from xpr.projection import (RangeImage, class_counts, estimate_normals,
                            project_spherical, semantic_context)
from xpr.selfcheck import shift_safe_scene
from xpr import viewpoints
from xpr.viewpoints import crop_to_radius, render_viewpoints

CFG = Config()


def random_cloud(seed, n=1000, extent=60.0):
    rng = make_rng(seed, 1)
    pts = rng.uniform(-extent, extent, (n, 3))
    return LabeledPointCloud(pts, rng.integers(1, 8, n).astype(np.uint16))


def _pitched(degrees, anchor=None):
    """A rotation pitched about the y axis, after the anchor's rotation."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    pitch = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return pitch if anchor is None else anchor @ pitch


def test_crop_keeps_only_inside():
    cloud = random_cloud(1)
    center = np.array([5.0, -3.0, 0.0])
    cropped = crop_to_radius(cloud, center, 25.0)
    d = np.linalg.norm(cloud.points - center, axis=1)
    assert cropped.count == int((d <= 25.0).sum())
    assert np.linalg.norm(cropped.points - center, axis=1).max() <= 25.0


def test_crop_boundary_inclusive():
    cloud = LabeledPointCloud(np.array([[3.0, 4.0, 0.0]]),
                              np.array([1], dtype=np.uint16))
    assert crop_to_radius(cloud, np.zeros(3), 5.0).count == 1
    assert crop_to_radius(cloud, np.zeros(3), 4.999).count == 0


def test_crop_empty_cloud():
    empty = LabeledPointCloud(np.empty((0, 3)), np.empty(0, dtype=np.uint16))
    assert crop_to_radius(empty, np.zeros(3), 10.0).count == 0


def test_render_viewpoints_are_column_shifts():
    """With N_V dividing the column count, rotating the sensor by one yaw step
    shifts the panorama by a whole number of columns."""
    cfg = Config(n_viewpoints=4)
    assert cfg.range_cols % cfg.n_viewpoints == 0
    cloud = shift_safe_scene(make_rng(9, 1), cfg, n_points=400)
    img, lab = render_viewpoints(cloud, identity_pose(), cfg.n_viewpoints, cfg)
    cols_per_step = cfg.range_cols // cfg.n_viewpoints
    for k in (1, 3):
        assert np.allclose(np.roll(img.depth[0], -k * cols_per_step, axis=1),
                           img.depth[k], atol=1e-9)
        assert np.array_equal(np.roll(lab[0], -k * cols_per_step, axis=1),
                              lab[k])


def test_render_respects_max_range():
    cfg = Config()
    far = cfg.max_range_m + 5.0
    cloud = LabeledPointCloud(np.array([[far, 0.0, 0.0], [10.0, 0.0, 0.0]]),
                              np.array([2, 3], dtype=np.uint16))
    img, lab = render_viewpoints(cloud, identity_pose(), 1, cfg)
    assert img.depth.shape == (1, cfg.range_rows, cfg.range_cols)
    assert np.count_nonzero(img.depth) == 1
    assert lab[img.depth > 0][0] == 3


def test_render_fills_normals():
    cfg = Config()
    cloud = random_cloud(4, n=3000, extent=40.0)
    img, _ = render_viewpoints(cloud, identity_pose(), 1, cfg)
    filled = img.depth > 0
    assert filled.any()
    assert img.normals.shape == (np.count_nonzero(filled), 3)
    norms = np.linalg.norm(img.normals, axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-4


def test_pitched_viewpoints_see_what_their_poses_see():
    """Each image of a pitched place's stack is, up to the last bits of
    its ranges, the one-view render of that viewpoint's own pose, the
    anchor turned by k yaw steps about its own vertical axis: points at the
    anchor frame's cell centers land in the same cells either way."""
    cfg = Config(n_viewpoints=4)
    anchor = Pose(_pitched(30.0, yaw_rotation(0.4)), np.array([3.0, -2.0, 1.0]))
    local = shift_safe_scene(make_rng(11, 1), cfg, n_points=400)
    cloud = LabeledPointCloud(anchor.transform(local.points), local.labels)
    img, lab = render_viewpoints(cloud, anchor, cfg.n_viewpoints, cfg)
    assert np.count_nonzero(img.depth[0]) > 100
    step = 2 * math.pi / cfg.n_viewpoints
    for k in range(cfg.n_viewpoints):
        pose = Pose(anchor.rotation @ yaw_rotation(k * step), anchor.translation)
        alone, alone_lab = render_viewpoints(cloud, pose, 1, cfg)
        assert np.array_equal(lab[k], alone_lab[0])
        assert np.allclose(img.depth[k], alone.depth[0], atol=1e-9)


def _cloud(points):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return LabeledPointCloud(points, 1 + np.arange(len(points)) % 7)


def polar_reference(cloud, anchor, n_views, cfg):
    """(V, H, W) depth and label stacks of the anchor's n_views viewpoints
    by the definition, one point at a time.

    A point within max_range_m of the anchor has one range, elevation and
    azimuth in the anchor's frame; viewpoint k bins it at its elevation's
    row and at column floor((az - k*2pi/V + pi) / 2pi * W) mod W, and each
    cell keeps its nearest point, the lowest index on ties. The anchor-frame
    coordinates are the one-pose render's transform, R^T x - R^T t as one
    matrix product over the kept points; the trig is numpy's, called on one
    point at a time, which rounds as its array loops do.
    """
    h, w = cfg.range_rows, cfg.range_cols
    up, down = math.radians(cfg.vfov_up), math.radians(cfg.vfov_down)
    step = 2.0 * math.pi / n_views
    kept = []
    for i, (px, py, pz) in enumerate(cloud.points - anchor.translation):
        if math.sqrt(px * px + py * py + pz * pz) <= cfg.max_range_m:
            kept.append(i)
    inverse = anchor.inverse()
    xyz = (inverse.rotation @ cloud.points[kept].T
           + inverse.translation[:, None])
    depth = np.zeros((n_views, h, w))
    labels = np.zeros((n_views, h, w), dtype=np.uint16)
    for i, (x, y, z) in zip(kept, xyz.T):
        r = np.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            continue
        el = np.arcsin(min(max(z / r, -1.0), 1.0))
        if not down <= el <= up:
            continue
        row = min(int(np.floor((up - el) / (up - down) * h)), h - 1)
        az = np.arctan2(y, x)
        for k in range(n_views):
            col = int(np.floor((az - k * step + math.pi)
                               / (2.0 * math.pi) * w)) % w
            if depth[k, row, col] == 0.0 or r < depth[k, row, col]:
                depth[k, row, col] = r
                labels[k, row, col] = cloud.labels[i]
    return depth, labels


def _tied_cloud(anchor):
    """A few points, then three copies of one point with different labels:
    every viewpoint sees the copies at one range in one cell, and the
    first copy's label must win there."""
    pts = np.vstack([make_rng(8, 1).uniform(-30, 30, (20, 3)),
                     [[10.0, 0.0, 0.0]] * 3]) + anchor.translation
    labels = np.r_[np.ones(20), [6, 2, 4]]
    return LabeledPointCloud(pts, labels)


STACK_CASES = ["beyond-range", "empty", "cropped-to-nothing", "5000-points",
               "9000-points", "tied-ranges", "pitched", "azimuth-pi",
               "crosses-minus-pi"]
#: a point straight behind an unrotated anchor, at azimuth pi: column 0 of
#: viewpoint 0, whose column is W before it wraps
BEHIND = [-10.0, 0.0, -1.0]
#: a point at azimuth -pi + 0.01, whose azimuth less one yaw step or more
#: falls below -pi, so that its columns wrap from below 0
WRAPS = [10.0 * math.cos(0.01 - math.pi), 10.0 * math.sin(0.01 - math.pi), -1.0]


def _case_place(case, cfg):
    """(anchor, map cloud around it) of one of STACK_CASES."""
    anchor = Pose(yaw_rotation(0.7), np.array([3.0, -2.0, 1.0]))
    if case == "pitched":
        anchor = Pose(_pitched(25.0, anchor.rotation), anchor.translation)
    elif case in ("azimuth-pi", "crosses-minus-pi"):
        anchor = Pose(np.eye(3), anchor.translation)
    if case == "beyond-range":   # about half the points lie past max_range_m
        cloud = random_cloud(6, n=4000, extent=1.2 * cfg.max_range_m)
    elif case in ("5000-points", "9000-points", "pitched"):  # all in range
        n = {"9000-points": 9000}.get(case, 5000)
        cloud = random_cloud(6, n=n, extent=0.5 * cfg.max_range_m)
    elif case == "empty":
        return anchor, _cloud(np.empty((0, 3)))
    elif case == "tied-ranges":
        return anchor, _tied_cloud(anchor)
    elif case == "cropped-to-nothing":
        return anchor, _cloud(anchor.translation
                              + [[cfg.max_range_m + 1.0, 0, 0],
                                 [0, -cfg.max_range_m - 5.0, 0]])
    else:
        cloud = random_cloud(6, n=500, extent=0.5 * cfg.max_range_m)
        edge = {"azimuth-pi": BEHIND, "crosses-minus-pi": WRAPS}[case]
        cloud = LabeledPointCloud(np.vstack([cloud.points, edge]),
                                  np.r_[cloud.labels, 7])
    return anchor, LabeledPointCloud(cloud.points + anchor.translation,
                                     cloud.labels)


def _image(img, lab, v):
    """Image v of a stack, as 2-D images with that image's filled cells and
    normal rows."""
    start = np.count_nonzero(img.depth[:v])
    stop = start + np.count_nonzero(img.depth[v])
    return (RangeImage(img.depth[v], img.normals[start:stop],
                       img.filled[start:stop] - v * img.depth[v].size),
            lab[v])


def _reference_images(cloud, anchor, n_views, cfg):
    """The `polar_reference` stack as per-viewpoint 2-D images with their
    normals, each estimated on that image alone."""
    depth, labels = polar_reference(cloud, anchor, n_views, cfg)
    return [(estimate_normals(RangeImage(d, None), cfg), lab)
            for d, lab in zip(depth, labels)]


#: view counts beside the config's: one, and 7, which does not divide the
#: 180 columns
OTHER_VIEW_COUNTS = (1, 7)


@pytest.mark.parametrize("case,n_views", [
    *(pytest.param(case, CFG.n_viewpoints, id=case) for case in STACK_CASES),
    *(pytest.param(case, n, id=f"{case}-{n}-views")
      for n in OTHER_VIEW_COUNTS for case in STACK_CASES)])
def test_render_viewpoints_equal_one_crop_per_viewpoint(case, n_views):
    """Cropping once per place and projecting n_views viewpoints in one
    polar pass renders every viewpoint exactly as the point-by-point
    reference of the definition does: depths, labels and the normals of
    each image alone, bit for bit."""
    cfg = Config()
    anchor, cloud = _case_place(case, cfg)
    img, lab = render_viewpoints(cloud, anchor, n_views, cfg)
    assert img.depth.shape == (n_views, cfg.range_rows, cfg.range_cols)
    assert img.normals.shape == (np.count_nonzero(img.depth), 3)
    assert np.array_equal(img.filled, np.flatnonzero(img.depth))
    assert lab.shape == img.depth.shape
    for v, (ref_img, ref_lab) in enumerate(_reference_images(cloud, anchor,
                                                             n_views, cfg)):
        got_img, got_lab = _image(img, lab, v)
        assert np.array_equal(got_img.depth, ref_img.depth)
        assert np.array_equal(got_img.normals, ref_img.normals)
        assert np.array_equal(got_img.filled, ref_img.filled)
        assert np.array_equal(got_lab, ref_lab)
    # viewpoint 0 renders alone as it renders in the stack
    alone, alone_lab = render_viewpoints(cloud, anchor, 1, cfg)
    assert np.array_equal(alone.depth[0], img.depth[0])
    assert np.array_equal(alone.normals, _image(img, lab, 0)[0].normals)
    assert np.array_equal(alone_lab[0], lab[0])
    if case == "tied-ranges":
        assert (np.count_nonzero(img.depth == 10.0, axis=(1, 2)) == 1).all()
        assert (lab[img.depth == 10.0] == 6).all()
    if case == "azimuth-pi":     # BEHIND sits in column 0 of viewpoint 0
        assert np.count_nonzero(img.depth[0, :, 0] == np.sqrt(101.0)) == 1
    if case == "crosses-minus-pi" and n_views > 1:
        # and WRAPS wraps into the last columns of viewpoint 1
        col = math.floor((0.01 - 2 * math.pi / n_views)
                         / (2 * math.pi) * cfg.range_cols) % cfg.range_cols
        assert col > cfg.range_cols // 2
        assert np.isclose(img.depth[1, :, col], np.sqrt(101.0)).any()
    filled = case not in ("empty", "cropped-to-nothing")
    assert (np.count_nonzero(img.depth[0]) > 0) == filled


def _tilted_place():
    """An anchor pitched by 40 degrees and a small cluster 20 m away, which
    sits 40 degrees above the anchor's horizon: above the vertical FOV of
    every viewpoint, as all of them turn about the anchor's own vertical
    axis, so the place's viewpoints all see nothing."""
    anchor = Pose(_pitched(40.0), np.array([3.0, -2.0, 1.0]))
    pts = make_rng(10, 1).uniform(-0.5, 0.5, (200, 3)) + [20.0, 0.0, 0.0]
    return anchor, _cloud(pts + anchor.translation)


@pytest.mark.parametrize("case", ["beyond-range", "5000-points",
                                  "9000-points", "cropped-to-nothing",
                                  "tilted"])
def test_render_places_cut_one_encode_per_viewpoint(case, monkeypatch):
    """render_places projects each place's viewpoints, gives them normals
    and encodes them in one call each, as one (V, H, W) stack, and cuts the
    encode into the cells each viewpoint's reference image gives alone, bit
    for bit; either every viewpoint of a place has no filled cell, and each
    gives a (0, C) block, or none does."""
    cfg = Config()
    calls = {"project": [], "normals": [], "encode": []}

    def counted(name, fn, shape):
        def call(*args):
            out = fn(*args)
            calls[name].append(shape(args, out))
            return out
        return call

    monkeypatch.setattr(viewpoints, "project_spherical", counted(
        "project", project_spherical, lambda args, out: out[0].depth.shape))
    monkeypatch.setattr(viewpoints, "estimate_normals", counted(
        "normals", estimate_normals, lambda args, out: args[0].depth.shape))
    monkeypatch.setattr(pipeline, "encode_lidar_local", counted(
        "encode", encode_lidar_local, lambda args, out: args[0].depth.shape))
    if case == "tilted":
        anchor, cloud = _tilted_place()
    else:
        anchor, cloud = _case_place(case, cfg)
    # a second place far from the first
    other = Pose(np.eye(3), np.array([500.0, 0.0, 0.0]))
    near = random_cloud(5, n=500)
    near = LabeledPointCloud(near.points + other.translation, near.labels)
    dataset = Dataset("", cfg, {}, [(4, anchor.translation),
                                    (9, other.translation)],
                      [cloud, near], [anchor, other], [], {})
    renders = pipeline.render_places(dataset, cfg)
    stack = (cfg.n_viewpoints, cfg.range_rows, cfg.range_cols)
    assert calls == {name: [stack] * 2 for name in calls}
    assert [pr.place_id for pr in renders] == [4, 9]
    for pr, place_cloud, place_anchor in zip(renders, dataset.clouds,
                                             dataset.poses):
        assert len(pr.cells) == cfg.n_viewpoints
        assert pr.labels.shape == (cfg.n_viewpoints, cfg.range_rows,
                                   cfg.range_cols)
        references = _reference_images(place_cloud, place_anchor,
                                        cfg.n_viewpoints, cfg)
        for v, (img, lab) in enumerate(references):
            want = encode_lidar_local(img, lab, cfg)
            assert pr.cells[v].shape == want.shape
            assert np.array_equal(pr.cells[v], want)
            assert np.array_equal(pr.labels[v], lab)
    assert min(len(x) for x in renders[1].cells) > 0
    empty = [x.shape == (0, cfg.feature_dim) for x in renders[0].cells]
    assert all(empty) == (case in ("cropped-to-nothing", "tilted")) == any(empty)


def test_render_places_count_the_classes_of_filled_cells():
    """Each viewpoint's class counts are the bincount of its 360-degree
    label image, but for void class 0, which they count at filled cells
    only; they sum to the viewpoint's cells, and give the context the label
    images give. The places: one cropped to nothing, one whose kept points
    all lie outside every viewpoint's vertical FOV, one whose filled cells
    are all class 0, and one with void and non-void points."""
    cfg = Config()
    tilted_anchor, tilted = _tilted_place()
    far = [Pose(np.eye(3), np.array([x, 0.0, 0.0])) for x in (500.0, 900.0)]
    void = random_cloud(5, n=500)
    mixed = random_cloud(6, n=500)
    anchor, cropped = _case_place("cropped-to-nothing", cfg)
    clouds = [cropped, tilted,
              LabeledPointCloud(void.points + far[0].translation,
                                np.zeros(500, dtype=np.uint16)),
              LabeledPointCloud(mixed.points + far[1].translation,
                                mixed.labels * (np.arange(500) % 3 > 0))]
    poses = [anchor, tilted_anchor, *far]
    dataset = Dataset("", cfg, {}, [(i, p.translation)
                                    for i, p in enumerate(poses)],
                      clouds, poses, [], {})
    renders = pipeline.render_places(dataset, cfg)
    for pr, cloud, pose in zip(renders, clouds, poses):
        assert pr.counts.shape == (cfg.n_viewpoints, cfg.n_classes)
        assert np.array_equal(pr.labels, polar_reference(
            cloud, pose, cfg.n_viewpoints, cfg)[1])
        for cells, lab, counts in zip(pr.cells, pr.labels, pr.counts):
            want = np.bincount(lab.ravel(), minlength=cfg.n_classes)
            assert np.array_equal(counts[1:], want[1:])
            assert counts.sum() == len(cells)
            assert np.array_equal(counts, cells[:, 4:].sum(axis=0))
    cropped, unseen, all_void, both = (pr.counts for pr in renders)
    assert not cropped.any()
    assert crop_to_radius(tilted, tilted_anchor.translation,
                          cfg.max_range_m).count == tilted.count
    assert not unseen.any()
    assert all_void[:, 0].all() and not all_void[:, 1:].any()
    assert both[:, 0].all() and both[:, 1:].any()
    labels = [lab for pr in renders for lab in pr.labels]
    context = pipeline.training_set(dataset, cfg, renders=renders).context
    assert np.array_equal(context,
                          semantic_context(class_counts(labels, cfg)))
