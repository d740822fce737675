import errno
import filecmp
import math
import os
import re
import struct

import numpy as np
import pytest

from xpr.config import Config, config_to_json, make_rng
from xpr.core import LabeledPointCloud, Pose, identity_pose, yaw_rotation
from xpr import io_datasets
from xpr.encoder import QUERY_CHANNELS, QueryObservation
from xpr.io_datasets import (FormatError, QueryRecord, load_checkpoint, load_cloud_bin, load_dataset,
                             load_index, load_labels, load_poses, load_query,
                             save_checkpoint, save_cloud_bin, save_dataset,
                             save_index, save_labels, save_poses, save_query)
from xpr.matching import MapIndex
from xpr.model import init_model_params
from xpr.projection import class_counts, frustum_window, semantic_context

CFG = Config()


def random_cloud(seed, n=200):
    rng = make_rng(seed, 1)
    return LabeledPointCloud(rng.uniform(-50, 50, (n, 3)).astype(np.float32).astype(float),
                             rng.integers(0, 8, n).astype(np.uint16))


# ------------------------------------------------------------- point clouds

def test_cloud_round_trip(tmp_path):
    cloud = random_cloud(1)
    path = tmp_path / "a.bin"
    save_cloud_bin(path, cloud)
    back = load_cloud_bin(path)
    assert back.count == cloud.count
    # values were chosen representable in float32, so the trip is exact
    assert np.array_equal(back.points, cloud.points)


def test_cloud_truncated_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_cloud_bin(path, random_cloud(2, n=10))
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 7)  # partial record
    with pytest.raises(FormatError, match="truncated"):
        load_cloud_bin(path)


@pytest.mark.parametrize("size, load, offset", [
    (34, load_cloud_bin, 32),  # 2 points and 2 stray bytes
    (17, lambda p: load_labels(p, random_cloud(5, n=4), {}), 16),  # 4 + 1 byte
], ids=["bin", "label"])
def test_partial_trailing_record_rejected(tmp_path, size, load, offset):
    (tmp_path / "f").write_bytes(bytes(size))
    with pytest.raises(FormatError, match=f"truncated record at byte {offset}$"):
        load(tmp_path / "f")


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
    with pytest.raises(FormatError, match="5 labels for 4 points at byte 16$"):
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


@pytest.mark.parametrize("line, msg", [
    (b"1 0 0 0 0 1 0 0 0 0 1 nan\n", ":3: non-finite value"),
    (b"1 0 0 inf 0 1 0 0 0 0 1 0\n", ":3: non-finite value"),
    (b"1 0 0 0 0 1 0 0 0 0 1 \xff\n", "not UTF-8 at byte 70")],
    ids=["nan", "inf", "utf8"])
def test_poses_non_finite_or_non_text_rejected(tmp_path, line, msg):
    path = tmp_path / "poses.txt"
    path.write_bytes(b"1 0 0 0 0 1 0 0 0 0 1 0\n" * 2 + line)
    with pytest.raises(FormatError, match=msg):
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
    """Random float32 unit descriptors, the first place's last one flagged
    (all zeros), random 360-degree label images of the config's shape, and
    their frontal windows and semantic context."""
    rng = make_rng(seed, 2)
    n = n_places * cfg.n_viewpoints
    places = [(pid, rng.uniform(-10, 10, 3)) for pid in range(n_places)]
    d = rng.normal(size=(n, cfg.descriptor_dim)).astype(np.float32)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d[cfg.n_viewpoints - 1:cfg.n_viewpoints] = 0.0
    labels = rng.integers(0, cfg.n_classes, (n, cfg.range_rows, cfg.range_cols))
    c0, width = frustum_window(cfg.range_cols)
    return MapIndex(places, d, labels[:, :, c0:c0 + width],
                    semantic_context(class_counts(labels, cfg)), cfg)


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
        assert np.array_equal(a.descriptor.values, b.descriptor.values)
        assert a.descriptor.flagged == b.descriptor.flagged
        assert np.array_equal(a.sem_image.labels, b.sem_image.labels)
    assert [e.descriptor.flagged for e in back.entries] == [False, True,
                                                            False, False]
    for (pa, xa), (pb, xb) in zip(idx.places, back.places, strict=True):
        assert pa == pb and np.array_equal(xa, xb)
    assert np.array_equal(back.mean_histogram(), idx.mean_histogram())


def _index_bytes(tmp_path, cfg):
    """A saved index's path and bytes, with the byte offsets of its place
    table, descriptor block and window block."""
    path = tmp_path / "map.idx"
    idx = make_index(6, cfg)
    save_index(path, idx)
    data = bytearray(path.read_bytes())
    (cfg_len,) = struct.unpack_from("<I", data, 10)
    places_at = 14 + cfg_len + 12 + 8 * cfg.n_classes
    desc_at = places_at + 28 * len(idx.places)
    labels_at = desc_at + 4 * len(idx.entries) * cfg.descriptor_dim
    return path, data, places_at, desc_at, labels_at


@pytest.mark.parametrize("n_places", [0, 1, 3])
def test_index_size_is_the_v3_layout(tmp_path, n_places):
    """header + 8 n_classes + 28 P + E (4 D + rows width) bytes: the
    context, the place table, the descriptors and the frontal windows."""
    cfg = Config(n_viewpoints=2, descriptor_dim=16)
    path = tmp_path / "map.idx"
    save_index(path, make_index(9, cfg, n_places=n_places))
    header = 8 + 2 + 4 + len(config_to_json(cfg).encode()) + 12
    rows, width = cfg.range_rows, frustum_window(cfg.range_cols)[1]
    n_entries = n_places * cfg.n_viewpoints
    assert os.path.getsize(path) == (header + 8 * cfg.n_classes + 28 * n_places
                                     + n_entries * (4 * cfg.descriptor_dim
                                                    + rows * width))


def test_index_v2_rejected(tmp_path):
    """A file as the v2 writer wrote it: the counts with the 360-degree
    label shape, then the place table, the descriptors and the labels."""
    cfg = Config(n_viewpoints=1, descriptor_dim=8)
    path = tmp_path / "map.idx"
    with open(path, "wb") as fh:
        fh.write(b"XPRIDX01")
        cfg_bytes = config_to_json(cfg).encode()
        fh.write(struct.pack("<HI", 2, len(cfg_bytes)) + cfg_bytes)
        fh.write(struct.pack("<IIHH", 1, 1, cfg.range_rows, cfg.range_cols))
        fh.write(struct.pack("<I3d", 0, 0.0, 0.0, 0.0))
        fh.write(np.zeros(cfg.descriptor_dim, "<f4").tobytes())
        fh.write(bytes(cfg.range_rows * cfg.range_cols))
    with pytest.raises(FormatError,
                       match="unsupported index version 2 at byte 8$"):
        load_index(path)


def test_index_v1_rejected(tmp_path):
    path, data, *_ = _index_bytes(tmp_path, Config(n_viewpoints=2,
                                                   descriptor_dim=16))
    data[8:10] = (1).to_bytes(2, "little")  # the per-entry record format
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError,
                       match="unsupported index version 1 at byte 8$"):
        load_index(path)


@pytest.mark.parametrize("defect", ["repeated-place", "inf-position",
                                    "nan-descriptor", "label-range",
                                    "entry-count", "huge-counts",
                                    "window-rows", "window-width",
                                    "nan-context", "negative-context",
                                    "void-context", "unnormalized-context"])
def test_index_bad_values_rejected(tmp_path, defect):
    cfg = Config(n_viewpoints=2, descriptor_dim=16)
    path, data, places_at, desc_at, labels_at = _index_bytes(tmp_path, cfg)
    shape_at = places_at - 8 * cfg.n_classes - 4   # rows, then width
    context_at = places_at - 8 * cfg.n_classes
    if defect == "window-rows":
        struct.pack_into("<H", data, shape_at, cfg.range_rows + 1)
        msg = (f"window rows {cfg.range_rows + 1} at byte {shape_at} are not "
               f"the config's range_rows {cfg.range_rows}")
    elif defect == "window-width":   # the 360-degree width that v2 stored
        struct.pack_into("<H", data, shape_at + 2, cfg.range_cols)
        msg = (f"window width {cfg.range_cols} at byte {shape_at + 2} is not "
               f"the frustum width 45 of range_cols {cfg.range_cols}")
    elif defect == "nan-context":    # class 3's value
        struct.pack_into("<d", data, context_at + 24, math.nan)
        msg = f"non-finite context value nan at byte {context_at + 24}"
    elif defect == "negative-context":
        (value,) = struct.unpack_from("<d", data, context_at + 16)
        struct.pack_into("<d", data, context_at + 16, -value)
        msg = f"negative context value {-value} at byte {context_at + 16}"
    elif defect == "void-context":   # class 1 gives class 0 a half
        (value,) = struct.unpack_from("<d", data, context_at + 8)
        struct.pack_into("<2d", data, context_at, value / 2, value / 2)
        msg = (f"context value {value / 2} of void class 0 at byte "
               f"{context_at} is not 0")
    elif defect == "unnormalized-context":   # 2e-6 off; within 1e-6 loads
        (value,) = struct.unpack_from("<d", data, context_at + 8)
        struct.pack_into("<d", data, context_at + 8, value + 5e-7)
        path.write_bytes(bytes(data))
        load_index(path)
        struct.pack_into("<d", data, context_at + 8, value + 2e-6)
        msg = f"context at byte {context_at} sums to "
    elif defect == "repeated-place":   # the second place takes the first's id
        data[places_at + 28:places_at + 32] = data[places_at:places_at + 4]
        msg = f"place id 0 at byte {places_at + 28} repeats an earlier place"
    elif defect == "inf-position":   # z of the second place
        struct.pack_into("<d", data, places_at + 28 + 4 + 16, math.inf)
        msg = f"non-finite place position at byte {places_at + 28 + 20}"
    elif defect == "nan-descriptor":  # the third value of the second row
        at = desc_at + 4 * (cfg.descriptor_dim + 2)
        struct.pack_into("<f", data, at, math.nan)
        msg = f"non-finite descriptor value nan at byte {at}"
    elif defect == "label-range":
        at = labels_at + 1000
        data[at] = cfg.n_classes
        msg = (f"label {cfg.n_classes} at byte {at} is not below n_classes "
               f"{cfg.n_classes}")
    elif defect == "entry-count":    # one entry more than 2 places of 2
        (cfg_len,) = struct.unpack_from("<I", data, 10)
        struct.pack_into("<I", data, 14 + cfg_len + 4, 5)
        msg = f"5 entries at byte {14 + cfg_len + 4} are not 2 places of 2"
    else:   # counts whose blocks would need terabytes: read no more than the file
        (cfg_len,) = struct.unpack_from("<I", data, 10)
        struct.pack_into("<II", data, 14 + cfg_len, 1 << 30, 1 << 31)
        msg = f"truncated at byte {len(data)}, expected {28 << 30} bytes"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=re.escape(msg)):
        load_index(path)


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


def disk_full_after(monkeypatch, limit):
    """The files io_datasets opens take `limit` bytes, then every write
    fails with ENOSPC, as on a full disk."""
    def short_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write, room = fh.write, [limit]

        def short_write(data):
            data = memoryview(data).cast("B")
            n = write(data[:room[0]])
            room[0] -= n
            if n < len(data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return n

        fh.write = short_write
        return fh

    monkeypatch.setattr(io_datasets, "open", short_open, raising=False)


@pytest.mark.parametrize("previous", [None, b"the previous file"],
                         ids=["new", "over"])
@pytest.mark.parametrize("artifact", ["index", "ckpt"])
def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch, artifact,
                                            previous):
    """A save that fails partway leaves no file, or the previous file as it
    was, and nothing else in the directory."""
    cfg = Config(n_viewpoints=2, descriptor_dim=16)
    path = tmp_path / "out"
    save, load = {
        "index": (lambda: save_index(path, make_index(10, cfg)), load_index),
        "ckpt": (lambda: save_checkpoint(path, init_model_params(cfg), cfg),
                 load_checkpoint)}[artifact]
    if previous is not None:
        path.write_bytes(previous)
    disk_full_after(monkeypatch, 1000)
    with pytest.raises(OSError, match="No space left on device"):
        save()
    if previous is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == ["out"]
        assert path.read_bytes() == previous
    monkeypatch.undo()
    save()
    load(path)
    assert os.listdir(tmp_path) == ["out"]


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
                       match="unsupported checkpoint version 1 at byte 8$"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XPRQRY01" + b"\x00" * 20)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


# ------------------------------------------------------------- query files

# a 4-row image whose frontal window is 9 columns wide
QUERY_CFG = Config(range_rows=4, range_cols=36)


def random_query(seed, qid=3):
    rng = make_rng(seed, 3)
    h, w = 4, 9
    raw = rng.normal(size=(h, w, QUERY_CHANNELS)).astype(np.float32).astype(float)
    mask = rng.random((h, w)) < 0.8
    raw[~mask] = 0.0
    gt = rng.integers(0, 8, (h, w)).astype(np.uint16)
    return QueryRecord(qid, 1, 0.75, 0.25, np.array([4.0, -2.0, 0.0]),
                       QueryObservation(raw, mask, gt))


def test_query_round_trip(tmp_path):
    q = random_query(9)
    path = tmp_path / "q.qry"
    save_query(path, q.query_id, q.place_id, q.heading, q.noise_level,
               q.gt_position, q.obs)
    back = load_query(path, QUERY_CFG)
    assert (back.query_id, back.place_id) == (q.query_id, q.place_id)
    assert back.heading == q.heading and back.noise_level == q.noise_level
    assert np.array_equal(back.gt_position, q.gt_position)
    assert np.array_equal(back.obs.raw, q.obs.raw)
    assert np.array_equal(back.obs.mask, q.obs.mask)
    assert np.array_equal(back.obs.gt_labels, q.obs.gt_labels)


def test_query_save_load_save_idempotent(tmp_path):
    q = random_query(10)
    p1, p2 = tmp_path / "a.qry", tmp_path / "b.qry"
    save_query(p1, q.query_id, q.place_id, q.heading, q.noise_level,
               q.gt_position, q.obs)
    b = load_query(p1, QUERY_CFG)
    save_query(p2, b.query_id, b.place_id, b.heading, b.noise_level,
               b.gt_position, b.obs)
    assert filecmp.cmp(p1, p2, shallow=False)


def test_query_unknown_version_rejected(tmp_path):
    q = random_query(11)
    path = tmp_path / "q.qry"
    save_query(path, q.query_id, q.place_id, q.heading, q.noise_level,
               q.gt_position, q.obs)
    data = bytearray(path.read_bytes())
    data[8:10] = (2).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError,
                       match="unsupported query version 2 at byte 8$"):
        load_query(path, QUERY_CFG)


def test_query_bad_magic(tmp_path):
    path = tmp_path / "bad.qry"
    path.write_bytes(b"XPRIDX01" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        load_query(path, QUERY_CFG)


# ------------------------------------------------------------------ dataset

def test_dataset_round_trip(tmp_path):
    cfg = QUERY_CFG
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
