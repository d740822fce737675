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
from xpr.viewpoints import (STACK_POINTS, crop_to_radius, make_viewpoints,
                            render_viewpoints)

CFG = Config()


def random_cloud(seed, n=1000, extent=60.0):
    rng = make_rng(seed, 1)
    pts = rng.uniform(-extent, extent, (n, 3))
    return LabeledPointCloud(pts, rng.integers(1, 8, n).astype(np.uint16))


def test_viewpoint_count_and_step():
    poses = make_viewpoints(Pose(yaw_rotation(2.9), np.zeros(3)), CFG)
    assert len(poses) == CFG.n_viewpoints
    step = yaw_rotation(2 * math.pi / CFG.n_viewpoints)
    for a, b in zip(poses, poses[1:] + poses[:1]):
        assert np.allclose(b.rotation, step @ a.rotation, atol=1e-12)


def test_viewpoint_zero_is_anchor():
    anchor = Pose(yaw_rotation(0.4), np.array([1.0, 2.0, 3.0]))
    pose = make_viewpoints(anchor, CFG)[0]
    assert np.array_equal(pose.rotation, anchor.rotation)
    assert np.array_equal(pose.translation, anchor.translation)


def test_viewpoints_share_translation_and_are_valid_rotations():
    anchor = Pose(yaw_rotation(1.1), np.array([-4.0, 7.0, 0.5]))
    for pose in make_viewpoints(anchor, CFG):
        assert np.array_equal(pose.translation, anchor.translation)
        assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3),
                           atol=1e-12)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-12)


def test_viewpoint_yaws_uniform():
    step = 2 * math.pi / CFG.n_viewpoints
    for k, pose in enumerate(make_viewpoints(identity_pose(), CFG)):
        assert np.allclose(pose.rotation, yaw_rotation(k * step), atol=1e-12)


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
    from xpr.selfcheck import shift_safe_scene
    cloud = shift_safe_scene(make_rng(9, 1), cfg, n_points=400)
    poses = make_viewpoints(identity_pose(), cfg)
    img, lab = render_viewpoints(cloud, poses, cfg)
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
    img, lab = render_viewpoints(cloud, [identity_pose()], cfg)
    assert img.depth.shape == (1, cfg.range_rows, cfg.range_cols)
    assert np.count_nonzero(img.depth) == 1
    assert lab[img.depth > 0][0] == 3


def test_render_fills_normals():
    cfg = Config()
    cloud = random_cloud(4, n=3000, extent=40.0)
    img, _ = render_viewpoints(cloud, [identity_pose()], cfg)
    filled = img.depth > 0
    assert filled.any()
    assert img.normals.shape == (np.count_nonzero(filled), 3)
    norms = np.linalg.norm(img.normals, axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-4


def _cloud(points):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return LabeledPointCloud(points, 1 + np.arange(len(points)) % 7)


def _tied_cloud(anchor):
    """A few points, then three copies of one point with different labels:
    every viewpoint sees the copies at one range in one cell, and the
    first copy's label must win there."""
    pts = np.vstack([make_rng(8, 1).uniform(-30, 30, (20, 3)),
                     [[10.0, 0.0, 0.0]] * 3]) + anchor.translation
    labels = np.r_[np.ones(20), [6, 2, 4]]
    return LabeledPointCloud(pts, labels)


STACK_CASES = ["beyond-range", "empty", "cropped-to-nothing", "several-stacks",
               "one-pose-stacks", "tied-ranges"]


def _case_cloud(case, anchor, cfg):
    """A map cloud around the anchor for one of STACK_CASES."""
    if case == "beyond-range":   # about half the points lie past max_range_m
        cloud = random_cloud(6, n=4000, extent=1.2 * cfg.max_range_m)
    elif case in ("several-stacks", "one-pose-stacks"):   # all within range
        n = {"several-stacks": 5000, "one-pose-stacks": 9000}[case]
        cloud = random_cloud(6, n=n, extent=0.5 * cfg.max_range_m)
    if case in ("beyond-range", "several-stacks", "one-pose-stacks"):
        return LabeledPointCloud(cloud.points + anchor.translation, cloud.labels)
    if case == "empty":
        return _cloud(np.empty((0, 3)))
    if case == "tied-ranges":
        return _tied_cloud(anchor)
    return _cloud(anchor.translation + [[cfg.max_range_m + 1.0, 0, 0],
                                        [0, -cfg.max_range_m - 5.0, 0]])


def _check_stacking(case, cloud, anchor, cfg):
    """The place's viewpoints take the stacking that the case names."""
    kept = crop_to_radius(cloud, anchor.translation, cfg.max_range_m).count
    per_stack = STACK_POINTS // max(kept, 1)
    expect = {"several-stacks": 1 < per_stack < cfg.n_viewpoints,
              "one-pose-stacks": per_stack == 1}.get(
                  case, per_stack >= cfg.n_viewpoints)
    assert expect, (case, kept)


def _image(img, lab, v):
    """Image v of a stack, as 2-D images with that image's normal rows."""
    start = np.count_nonzero(img.depth[:v])
    stop = start + np.count_nonzero(img.depth[v])
    return RangeImage(img.depth[v], img.normals[start:stop]), lab[v]


@pytest.mark.parametrize("case", STACK_CASES)
def test_render_viewpoints_equal_one_crop_per_viewpoint(case):
    """Cropping once per place and projecting the viewpoints in stacks
    renders every viewpoint exactly as cropping around each viewpoint's own
    pose and projecting it alone does."""
    cfg = Config()
    anchor = Pose(yaw_rotation(0.7), np.array([3.0, -2.0, 1.0]))
    cloud = _case_cloud(case, anchor, cfg)
    _check_stacking(case, cloud, anchor, cfg)
    poses = make_viewpoints(anchor, cfg)
    img, lab = render_viewpoints(cloud, poses, cfg)
    assert img.depth.shape == (len(poses), cfg.range_rows, cfg.range_cols)
    assert img.normals.shape == (np.count_nonzero(img.depth), 3)
    assert lab.shape == img.depth.shape
    for v, pose in enumerate(poses):
        cropped = crop_to_radius(cloud, pose.translation, cfg.max_range_m)
        ref_img, ref_lab = project_spherical(cropped, [pose], cfg)
        ref_img = estimate_normals(ref_img, cfg)
        alone = render_viewpoints(cloud, [pose], cfg)
        for got_img, got_lab in (_image(img, lab, v), _image(*alone, 0)):
            assert np.array_equal(got_img.depth, ref_img.depth[0])
            assert np.array_equal(got_img.normals, ref_img.normals)
            assert np.array_equal(got_lab, ref_lab[0])
    if case == "tied-ranges":
        assert (np.count_nonzero(img.depth == 10.0, axis=(1, 2)) == 1).all()
        assert (lab[img.depth == 10.0] == 6).all()
    filled = case not in ("empty", "cropped-to-nothing")
    assert (np.count_nonzero(img.depth[0]) > 0) == filled


def _tilted_place():
    """An anchor pitched by 40 degrees and a small cluster 20 m away: the
    yaw steps tip the cluster in and out of the vertical FOV, so some of
    the place's viewpoints see it and others see nothing."""
    c, s = math.cos(math.radians(40.0)), math.sin(math.radians(40.0))
    anchor = Pose([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]],
                  np.array([3.0, -2.0, 1.0]))
    pts = make_rng(10, 1).uniform(-0.5, 0.5, (200, 3)) + [20.0, 0.0, 0.0]
    return anchor, _cloud(pts + anchor.translation)


@pytest.mark.parametrize("case", ["beyond-range", "several-stacks",
                                  "one-pose-stacks", "cropped-to-nothing",
                                  "tilted"])
def test_render_places_cut_one_encode_per_viewpoint(case, monkeypatch):
    """render_places encodes each place's stack in one call, and cuts it
    into the cells each viewpoint's image gives alone, bit for bit; an
    image with no filled cell gives a (0, C) block. The first place takes
    the stacking the case names, the second one stack."""
    cfg = Config()
    calls = []

    def counted(*args):
        calls.append(args[0].depth.shape)
        return encode_lidar_local(*args)

    monkeypatch.setattr(pipeline, "encode_lidar_local", counted)
    if case == "tilted":
        anchor, cloud = _tilted_place()
    else:
        anchor = Pose(yaw_rotation(0.7), np.array([3.0, -2.0, 1.0]))
        cloud = _case_cloud(case, anchor, cfg)
        _check_stacking(case, cloud, anchor, cfg)
    # a second place far from the first
    other = Pose(np.eye(3), np.array([500.0, 0.0, 0.0]))
    near = random_cloud(5, n=500)
    near = LabeledPointCloud(near.points + other.translation, near.labels)
    dataset = Dataset("", cfg, {}, [(4, anchor.translation),
                                    (9, other.translation)],
                      [cloud, near], [anchor, other], [], {})
    renders = pipeline.render_places(dataset, cfg)
    assert calls == [(cfg.n_viewpoints, cfg.range_rows, cfg.range_cols)] * 2
    assert [pr.place_id for pr in renders] == [4, 9]
    for pr, place_cloud, place_anchor in zip(renders, dataset.clouds,
                                             dataset.poses):
        assert len(pr.cells) == cfg.n_viewpoints
        assert pr.labels.shape == (cfg.n_viewpoints, cfg.range_rows,
                                   cfg.range_cols)
        for v, pose in enumerate(make_viewpoints(place_anchor, cfg)):
            img, lab = render_viewpoints(place_cloud, [pose], cfg)
            want = encode_lidar_local(*_image(img, lab, 0), cfg)
            assert pr.cells[v].shape == want.shape
            assert np.array_equal(pr.cells[v], want)
            assert np.array_equal(pr.labels[v], lab[0])
    assert min(len(x) for x in renders[1].cells) > 0
    empty = [x.shape == (0, cfg.feature_dim) for x in renders[0].cells]
    if case == "tilted":
        assert 0 < sum(empty) < len(empty), [len(x) for x in renders[0].cells]
    else:
        assert all(empty) == (case == "cropped-to-nothing") == any(empty)


def test_render_places_count_the_classes_of_filled_cells():
    """Each viewpoint's class counts are the bincount of its 360-degree
    label image, but for void class 0, which they count at filled cells
    only; they sum to the viewpoint's cells, and give the context the label
    images give. The places: one cropped to nothing, one whose viewpoints
    partly see nothing, one whose filled cells are all class 0, and one
    with void and non-void points."""
    cfg = Config()
    anchor = Pose(yaw_rotation(0.7), np.array([3.0, -2.0, 1.0]))
    tilted_anchor, tilted = _tilted_place()
    far = [Pose(np.eye(3), np.array([x, 0.0, 0.0])) for x in (500.0, 900.0)]
    void = random_cloud(5, n=500)
    mixed = random_cloud(6, n=500)
    clouds = [_case_cloud("cropped-to-nothing", anchor, cfg), tilted,
              LabeledPointCloud(void.points + far[0].translation,
                                np.zeros(500, dtype=np.uint16)),
              LabeledPointCloud(mixed.points + far[1].translation,
                                mixed.labels * (np.arange(500) % 3 > 0))]
    poses = [anchor, tilted_anchor, *far]
    dataset = Dataset("", cfg, {}, [(i, p.translation)
                                    for i, p in enumerate(poses)],
                      clouds, poses, [], {})
    renders = pipeline.render_places(dataset, cfg)
    for pr in renders:
        assert pr.counts.shape == (cfg.n_viewpoints, cfg.n_classes)
        for cells, lab, counts in zip(pr.cells, pr.labels, pr.counts):
            want = np.bincount(lab.ravel(), minlength=cfg.n_classes)
            assert np.array_equal(counts[1:], want[1:])
            assert counts.sum() == len(cells)
            assert np.array_equal(counts, cells[:, 4:].sum(axis=0))
    cropped, partly, all_void, both = (pr.counts for pr in renders)
    assert not cropped.any()
    seen = partly.sum(axis=1) > 0
    assert 0 < seen.sum() < cfg.n_viewpoints
    assert all_void[:, 0].all() and not all_void[:, 1:].any()
    assert both[:, 0].all() and both[:, 1:].any()
    labels = [lab for pr in renders for lab in pr.labels]
    context = pipeline.training_set(dataset, cfg, renders=renders).context
    assert np.array_equal(context,
                          semantic_context(class_counts(labels, cfg)))


def test_render_viewpoints_need_one_position():
    cfg = Config()
    with pytest.raises(ValueError, match="no viewpoints"):
        render_viewpoints(random_cloud(7), [], cfg)
    poses = [identity_pose(), Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))]
    with pytest.raises(ValueError, match="share one position"):
        render_viewpoints(random_cloud(7), poses, cfg)
