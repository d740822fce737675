import filecmp
import math
import os

import numpy as np
import pytest

from xpr.aggregation import GlobalDescriptor
from xpr.config import Config, make_rng
from xpr.core import LabeledPointCloud, Pose, identity_pose, yaw_rotation
from xpr.encoder import QUERY_CHANNELS, QueryObservation
from xpr.io_datasets import (FormatError, QueryRecord, load_checkpoint, load_cloud_bin, load_dataset,
                             load_index, load_labels, load_poses, load_query,
                             save_checkpoint, save_cloud_bin, save_dataset,
                             save_index, save_labels, save_poses, save_query)
from xpr.matching import IndexEntry, MapIndex
from xpr.model import init_model_params
from xpr.projection import SemanticImage

CFG = Config()


def random_cloud(seed, n=200):
    rng = make_rng(seed, 1)
    return LabeledPointCloud(rng.uniform(-50, 50, (n, 3)).astype(np.float32).astype(float),
                             rng.integers(0, 8, n).astype(np.uint16),
                             rng.random(n).astype(np.float32).astype(float))


# ------------------------------------------------------------- point clouds

def test_cloud_round_trip(tmp_path):
    cloud = random_cloud(1)
    path = tmp_path / "a.bin"
    save_cloud_bin(path, cloud)
    back = load_cloud_bin(path)
    assert back.count == cloud.count
    # values were chosen representable in float32, so the trip is exact
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.intensities, cloud.intensities)


def test_cloud_truncated_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_cloud_bin(path, random_cloud(2, n=10))
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 7)  # partial record
    with pytest.raises(FormatError, match="truncated"):
        load_cloud_bin(path)


def test_cloud_non_finite_rejected(tmp_path):
    path = tmp_path / "n.bin"
    rec = np.zeros((3, 4), dtype="<f4")
    rec[1, 2] = np.nan
    rec.tofile(path)
    with pytest.raises(FormatError, match="byte 16"):
        load_cloud_bin(path)


def test_labels_low_bits_and_class_map(tmp_path):
    cloud = random_cloud(3, n=4)
    raw = np.array([0x0001, 0x0102, 0x00FF, 0xABCD0003], dtype=np.uint32)
    path = tmp_path / "l.label"
    save_labels(path, raw)
    out = load_labels(path, cloud, {1: 5, 2: 6, 3: 7})
    # low 16 bits: 1, 0x102, 0xFF, 3; only mapped ids survive
    assert list(out.labels) == [5, 0, 0, 7]


def test_labels_count_mismatch(tmp_path):
    path = tmp_path / "l.label"
    save_labels(path, np.arange(5, dtype=np.uint32))
    with pytest.raises(FormatError, match="5 labels for 4 points"):
        load_labels(path, random_cloud(4, n=4), {})


# -------------------------------------------------------------------- poses

def test_poses_round_trip_exact(tmp_path):
    poses = [identity_pose(),
             Pose(yaw_rotation(0.7), np.array([1.5, -2.25, 0.125])),
             Pose(yaw_rotation(-2.1), np.array([100.0, 0.1, -3.0]))]
    path = tmp_path / "poses.txt"
    save_poses(path, poses)
    back = load_poses(path)
    for a, b in zip(poses, back):
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


def test_poses_bad_line_reports_number(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 2 3\n")
    with pytest.raises(FormatError, match=":2:"):
        load_poses(path)


def test_poses_drifted_rotation_reorthonormalized(tmp_path, caplog):
    rot = yaw_rotation(0.5)
    rot[0, 0] += 1e-3  # visible drift
    path = tmp_path / "poses.txt"
    save_poses(path, [Pose(rot, np.zeros(3))])
    import logging
    with caplog.at_level(logging.WARNING, logger="xpr.io_datasets"):
        back = load_poses(path)
    assert "re-orthonormalizing" in caplog.text
    r = back[0].rotation
    assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- map index

def make_index(seed, cfg, n_places=2):
    rng = make_rng(seed, 2)
    entries, places = [], []
    rows, cols = 4, 6
    for pid in range(n_places):
        places.append((pid, rng.uniform(-10, 10, 3)))
        for k in range(cfg.n_viewpoints):
            d = rng.normal(size=cfg.descriptor_dim).astype(np.float32).astype(float)
            d /= np.linalg.norm(d)
            hist = rng.random(cfg.n_classes)
            hist /= hist.sum()
            entries.append(IndexEntry(
                pid, k, Pose(yaw_rotation(0.1 * k), rng.uniform(-5, 5, 3)),
                GlobalDescriptor(d),
                SemanticImage(rng.integers(0, cfg.n_classes, (rows, cols))
                              .astype(np.uint16)),
                hist))
    return MapIndex(entries, places, cfg).validate()


def test_index_round_trip(tmp_path):
    cfg = Config(n_viewpoints=2, descriptor_dim=16)
    idx = make_index(5, cfg)
    path = tmp_path / "map.idx"
    save_index(path, idx)
    back = load_index(path)
    assert back.config == cfg
    assert len(back.entries) == len(idx.entries)
    for a, b in zip(idx.entries, back.entries):
        assert (a.place_id, a.viewpoint) == (b.place_id, b.viewpoint)
        assert np.allclose(a.descriptor.values, b.descriptor.values, atol=1e-7)
        assert a.descriptor.flagged == b.descriptor.flagged
        assert np.array_equal(a.sem_image.labels, b.sem_image.labels)
        assert np.array_equal(a.histogram, b.histogram)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)
    for (pa, xa), (pb, xb) in zip(idx.places, back.places):
        assert pa == pb and np.array_equal(xa, xb)


def test_index_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        load_index(path)


def test_index_trailing_bytes_rejected(tmp_path):
    cfg = Config(n_viewpoints=1, descriptor_dim=8)
    path = tmp_path / "map.idx"
    save_index(path, make_index(7, cfg, n_places=1))
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_index(path)


def test_index_save_load_save_idempotent(tmp_path):
    cfg = Config(n_viewpoints=2, descriptor_dim=16)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(p1, make_index(8, cfg))
    save_index(p2, load_index(p1))
    assert filecmp.cmp(p1, p2, shallow=False)


# -------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    cfg = Config(n_classes=5, descriptor_dim=12)
    params = init_model_params(cfg)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg)
    back, cfg_back = load_checkpoint(path)
    assert cfg_back == cfg
    a, b = params.tensors(), back.tensors()
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name])
        assert a[name].shape == b[name].shape


def test_checkpoint_save_load_save_idempotent(tmp_path):
    cfg = Config(n_classes=5, descriptor_dim=12)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, init_model_params(cfg), cfg)
    params, cfg_back = load_checkpoint(p1)
    save_checkpoint(p2, params, cfg_back)
    assert filecmp.cmp(p1, p2, shallow=False)


def test_checkpoint_v1_rejected(tmp_path):
    cfg = Config(n_classes=5, descriptor_dim=12)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_model_params(cfg), cfg)
    data = bytearray(path.read_bytes())
    data[8:10] = (1).to_bytes(2, "little")  # the float32 format
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError,
                       match="unsupported checkpoint version 1$"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XPRQRY01" + b"\x00" * 20)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


# ------------------------------------------------------------- query files

def random_query(seed, qid=3):
    rng = make_rng(seed, 3)
    h, w = 4, 9
    raw = rng.normal(size=(h, w, QUERY_CHANNELS)).astype(np.float32).astype(float)
    mask = rng.random((h, w)) < 0.8
    raw[~mask] = 0.0
    gt = SemanticImage(rng.integers(0, 8, (h, w)).astype(np.uint16))
    return QueryRecord(qid, 1, 0.75, 0.25, np.array([4.0, -2.0, 0.0]),
                       QueryObservation(raw, mask, gt))


def test_query_round_trip(tmp_path):
    q = random_query(9)
    path = tmp_path / "q.qry"
    save_query(path, q.query_id, q.place_id, q.heading, q.noise_level,
               q.gt_position, q.obs)
    back = load_query(path, CFG.n_classes)
    assert (back.query_id, back.place_id) == (q.query_id, q.place_id)
    assert back.heading == q.heading and back.noise_level == q.noise_level
    assert np.array_equal(back.gt_position, q.gt_position)
    assert np.array_equal(back.obs.raw, q.obs.raw)
    assert np.array_equal(back.obs.mask, q.obs.mask)
    assert np.array_equal(back.obs.gt_labels.labels, q.obs.gt_labels.labels)


def test_query_save_load_save_idempotent(tmp_path):
    q = random_query(10)
    p1, p2 = tmp_path / "a.qry", tmp_path / "b.qry"
    save_query(p1, q.query_id, q.place_id, q.heading, q.noise_level,
               q.gt_position, q.obs)
    b = load_query(p1, CFG.n_classes)
    save_query(p2, b.query_id, b.place_id, b.heading, b.noise_level,
               b.gt_position, b.obs)
    assert filecmp.cmp(p1, p2, shallow=False)


def test_query_bad_magic(tmp_path):
    path = tmp_path / "bad.qry"
    path.write_bytes(b"XPRIDX01" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        load_query(path, CFG.n_classes)


# ------------------------------------------------------------------ dataset

def test_dataset_round_trip(tmp_path):
    cfg = Config()
    root = tmp_path / "ds"
    rng = make_rng(11, 1)
    places = [(0, np.zeros(3)), (1, np.array([40.0, 0.0, 0.0]))]
    poses = [Pose(yaw_rotation(0.0), np.array([0.0, 0.0, 1.6])),
             Pose(yaw_rotation(1.2), np.array([40.0, 0.0, 1.6]))]
    clouds = [LabeledPointCloud(rng.uniform(-20, 20, (100, 3)),
                                rng.integers(0, 8, 100).astype(np.uint16))
              for _ in range(2)]
    queries = [random_query(12, qid=0), random_query(13, qid=1)]
    save_dataset(root, cfg, places, clouds, poses, queries)
    ds = load_dataset(root)
    assert ds.config == cfg
    assert len(ds.places) == 2 and len(ds.queries) == 2
    for (pid, pos), (pid2, pos2) in zip(places, ds.places):
        assert pid == pid2 and np.allclose(pos, pos2)
    # clouds come back in the world frame through an f32 disk trip
    for orig, back in zip(clouds, ds.clouds):
        assert back.count == orig.count
        assert np.abs(back.points - orig.points).max() < 1e-4
        assert np.array_equal(back.labels, orig.labels)
    assert [q.query_id for q in ds.queries] == [0, 1]


def test_dataset_pose_count_mismatch(tmp_path):
    cfg = Config()
    root = tmp_path / "ds"
    cloud = LabeledPointCloud(np.zeros((1, 3)), np.zeros(1, dtype=np.uint16))
    save_dataset(root, cfg, [(0, np.zeros(3)), (1, np.ones(3))], [cloud],
                 [identity_pose()], [])
    with pytest.raises(FormatError, match="poses for"):
        load_dataset(root)


def test_dataset_meta_sorted_and_stable(tmp_path):
    cfg = Config()
    r1, r2 = tmp_path / "a", tmp_path / "b"
    cloud = LabeledPointCloud(np.zeros((1, 3)), np.zeros(1, dtype=np.uint16))
    for root in (r1, r2):
        save_dataset(root, cfg, [(0, np.zeros(3))], [cloud],
                     [identity_pose()], [])
    assert filecmp.cmp(r1 / "meta.json", r2 / "meta.json", shallow=False)
