"""On-disk formats: KITTI-style scans/labels/poses, the map index, model
checkpoints, query observations, and the dataset directory layout.

All multi-byte values are little-endian; loaders reject malformed input with
a byte offset or line number instead of truncating.
"""
from __future__ import annotations

import json
import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import Config, config_from_json, config_to_json
from .core import LabeledPointCloud, Pose
from .encoder import QUERY_CHANNELS, QueryObservation
from .matching import MapIndex
from .model import ModelParams, init_model_params
from .projection import SemanticImage, frustum_window

log = logging.getLogger(__name__)

INDEX_MAGIC = b"XPRIDX01"
INDEX_VERSION = 2  # v2 stores blocks; v1 stored per-entry records
# a place table record: place id, then its (x, y, z) world position
PLACE_RECORD = np.dtype([("id", "<u4"), ("pos", "<f8", (3,))])
CKPT_MAGIC = b"XPRCKPT1"
CKPT_VERSION = 2  # v2 stores float64 tensors; v1 stored them as float32
QUERY_MAGIC = b"XPRQRY01"


class FormatError(ValueError):
    pass


def _read_exact(fh, n: int, path) -> bytes:
    """Read exactly n bytes or raise FormatError at the offset where the
    file ends short, reading no more than the file holds."""
    offset = fh.tell()
    data = fh.read(min(n, max(os.fstat(fh.fileno()).st_size - offset, 0)))
    if len(data) != n:
        raise FormatError(f"{path}: truncated at byte {offset + len(data)}, "
                          f"expected {n} bytes from byte {offset}")
    return data


def _expect_end(fh, path) -> None:
    """Raise FormatError at the offset of the first byte after the last
    record, if there is one."""
    offset = fh.tell()
    if fh.read(1):
        raise FormatError(f"{path}: trailing bytes from byte {offset}")


def _read_config(fh, n: int, path) -> Config:
    """Read an n-byte JSON config header, or raise FormatError at its byte
    offset if it is not UTF-8, not JSON, or not a valid config."""
    offset = fh.tell()
    data = _read_exact(fh, n, path)
    try:
        return config_from_json(data.decode())
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: bad config header at byte {offset}: "
                          f"{exc}") from exc


# ------------------------------------------------------------ point clouds

def save_cloud_bin(path, cloud: LabeledPointCloud) -> None:
    n = cloud.count
    rec = np.zeros((n, 4), dtype="<f4")
    rec[:, :3] = cloud.points
    if cloud.intensities.size:
        rec[:, 3] = cloud.intensities
    rec.tofile(path)


def load_cloud_bin(path) -> LabeledPointCloud:
    """Parse (x, y, z, intensity) float32 quadruples; labels start at 0."""
    data = np.fromfile(path, dtype=np.uint8)
    if data.size % 16:
        raise FormatError(f"{path}: truncated record at byte {data.size // 16 * 16}")
    rec = data.view("<f4").reshape(-1, 4)
    bad = ~np.isfinite(rec)
    if bad.any():
        idx = int(np.flatnonzero(bad.any(axis=1))[0])
        raise FormatError(f"{path}: non-finite value at byte {idx * 16}")
    return LabeledPointCloud(rec[:, :3].astype(np.float64),
                             np.zeros(rec.shape[0], dtype=np.uint16),
                             rec[:, 3].astype(np.float64))


def save_labels(path, labels: np.ndarray) -> None:
    np.asarray(labels, dtype="<u4").tofile(path)


def load_labels(path, cloud: LabeledPointCloud,
                class_map: dict) -> LabeledPointCloud:
    """Low 16 bits are the raw class id, remapped into [0, n_classes)."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % 4:
        raise FormatError(f"{path}: truncated record at byte {raw.size // 4 * 4}")
    raw = raw.view("<u4")
    if raw.size != cloud.count:
        raise FormatError(f"{path}: {raw.size} labels for {cloud.count} points")
    low = raw & 0xFFFF
    mapped = np.zeros(raw.size, dtype=np.uint16)
    for src, dst in class_map.items():
        mapped[low == int(src)] = dst
    return LabeledPointCloud(cloud.points, mapped, cloud.intensities)


# ------------------------------------------------------------------- poses

def save_poses(path, poses: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in poses:
            m = np.hstack([p.rotation, p.translation[:, None]])
            fh.write(" ".join(repr(float(v)) for v in m.ravel()) + "\n")


def load_poses(path) -> list:
    """One 3x4 [R | t] row-major pose per non-blank line of UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    poses = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 12:
            raise FormatError(f"{path}:{lineno}: expected 12 values, "
                              f"got {len(parts)}")
        try:
            vals = np.array([float(v) for v in parts]).reshape(3, 4)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(vals).all():
            raise FormatError(f"{path}:{lineno}: non-finite value")
        rot, t = vals[:, :3], vals[:, 3]
        if np.abs(rot @ rot.T - np.eye(3)).max() > 1e-6:
            log.warning("%s:%d: re-orthonormalizing drifted rotation",
                        path, lineno)
            u, _, vt = np.linalg.svd(rot)
            rot = u @ vt
            if np.linalg.det(rot) < 0:
                u[:, -1] *= -1
                rot = u @ vt
        poses.append(Pose(rot, t))
    return poses


# -------------------------------------------------------------- map index

def save_index(path, index: MapIndex) -> None:
    """Write map.idx v2: the header, the place table of (id, x, y, z)
    records, the descriptor block as <f4 and the label block as uint8."""
    cfg_bytes = config_to_json(index.config).encode()
    table = np.empty(len(index.places), dtype=PLACE_RECORD)
    table["id"] = [pid for pid, _ in index.places]
    table["pos"] = np.reshape([pos for _, pos in index.places], (-1, 3))
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<HI", INDEX_VERSION, len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<IIHH", len(index.places), len(index.labels),
                             *index.labels.shape[1:]))
        fh.write(table.tobytes())
        fh.write(index.descriptors.astype("<f4").tobytes())
        fh.write(index.labels.tobytes())


def load_index(path) -> MapIndex:
    """Read map.idx v2. Every place id is distinct, every place position and
    descriptor value finite, and every label below n_classes."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, path)
        if magic != INDEX_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        version, cfg_len = struct.unpack("<HI", _read_exact(fh, 6, path))
        if version != INDEX_VERSION:
            raise FormatError(f"{path}: unsupported index version {version}")
        cfg = _read_config(fh, cfg_len, path)
        counts_at = fh.tell()
        n_places, n_entries, rows, cols = struct.unpack(
            "<IIHH", _read_exact(fh, 12, path))
        want = (cfg.range_rows, cfg.range_cols)
        if (rows, cols) != want:
            raise FormatError(f"{path}: label image shape {(rows, cols)} at "
                              f"byte {counts_at + 8} is not the config's "
                              f"(range_rows, range_cols) {want}")
        n_v = cfg.n_viewpoints
        if n_entries != n_places * n_v:
            raise FormatError(f"{path}: {n_entries} entries at byte "
                              f"{counts_at + 4} are not {n_places} places of "
                              f"{n_v} viewpoints")
        places_at = fh.tell()
        table = np.frombuffer(_read_exact(fh, PLACE_RECORD.itemsize * n_places,
                                          path), dtype=PLACE_RECORD)
        desc_at = fh.tell()
        desc = np.frombuffer(_read_exact(fh, 4 * n_entries * cfg.descriptor_dim,
                                         path), dtype="<f4")
        labels_at = fh.tell()
        labels = np.frombuffer(_read_exact(fh, n_entries * rows * cols, path),
                               dtype=np.uint8)
        _expect_end(fh, path)
    ids, pos = table["id"], table["pos"]
    order = np.argsort(ids, kind="stable")
    repeat = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeat.size:
        i = int(repeat.min())
        raise FormatError(f"{path}: place id {ids[i]} at byte "
                          f"{places_at + PLACE_RECORD.itemsize * i} repeats "
                          f"an earlier place")
    bad = np.flatnonzero(~np.isfinite(pos))
    if bad.size:
        i, j = divmod(int(bad[0]), 3)
        raise FormatError(f"{path}: non-finite place position at byte "
                          f"{places_at + PLACE_RECORD.itemsize * i + 4 + 8 * j}")
    bad = np.flatnonzero(~np.isfinite(desc))
    if bad.size:
        raise FormatError(f"{path}: non-finite descriptor value "
                          f"{desc[bad[0]]} at byte {desc_at + 4 * bad[0]}")
    bad = np.flatnonzero(labels >= cfg.n_classes)
    if bad.size:
        raise FormatError(f"{path}: label {labels[bad[0]]} at byte "
                          f"{labels_at + bad[0]} is not below n_classes "
                          f"{cfg.n_classes}")
    places = list(zip(ids.tolist(), pos.astype(np.float64)))
    return MapIndex(places, desc.reshape(n_entries, cfg.descriptor_dim),
                    labels.reshape(n_entries, rows, cols), cfg)


# ------------------------------------------------------------- checkpoints

def save_checkpoint(path, params: ModelParams, cfg: Config) -> None:
    cfg_bytes = config_to_json(cfg).encode()
    tensors = params.tensors()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<HI", CKPT_VERSION, len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.atleast_1d(np.asarray(tensors[name]))
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, Config]:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, path)
        if magic != CKPT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        version, cfg_len = struct.unpack("<HI", _read_exact(fh, 6, path))
        if version != CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        cfg = _read_config(fh, cfg_len, path)
        expected = {name: np.atleast_1d(arr).shape
                    for name, arr in init_model_params(cfg).tensors().items()}
        (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, path))
        tensors = {}
        for _ in range(n_tensors):
            offset = fh.tell()
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, path))
            name = _read_exact(fh, name_len, path).decode(errors="replace")
            if name not in expected or name in tensors:
                raise FormatError(f"{path}: unexpected tensor {name!r} "
                                  f"at byte {offset}")
            ndim = _read_exact(fh, 1, path)[0]
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path))
            if shape != expected[name]:
                raise FormatError(f"{path}: tensor {name!r} at byte {offset} "
                                  f"has shape {shape}, expected "
                                  f"{expected[name]}")
            count = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(_read_exact(fh, 8 * count, path), dtype="<f8")
            tensors[name] = arr.astype(np.float64).reshape(shape)
        _expect_end(fh, path)
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise FormatError(f"{path}: missing tensors {missing}")
    return ModelParams.from_tensors(tensors), cfg


# ------------------------------------------------------------ query files

def save_query(path, query_id: int, place_id: int, heading: float,
               noise_level: float, gt_position: np.ndarray,
               obs: QueryObservation) -> None:
    h, w, c = obs.raw.shape
    with open(path, "wb") as fh:
        fh.write(QUERY_MAGIC)
        fh.write(struct.pack("<HII", 1, query_id, place_id))
        fh.write(struct.pack("<2d", heading, noise_level))
        fh.write(struct.pack("<3d", *np.asarray(gt_position, dtype=np.float64)))
        fh.write(struct.pack("<HHH", h, w, c))
        fh.write(obs.raw.astype("<f4").tobytes())
        fh.write(obs.mask.astype(np.uint8).tobytes())
        fh.write(obs.gt_labels.labels.astype("<u2").tobytes())


@dataclass
class QueryRecord:
    query_id: int
    place_id: int
    heading: float
    noise_level: float
    gt_position: np.ndarray
    obs: QueryObservation


def load_query(path, cfg: Config) -> QueryRecord:
    """Read a query file of QUERY_CHANNELS channels over the config's
    frustum window, whose raw values are all finite and whose ground-truth
    labels are all below n_classes."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, path)
        if magic != QUERY_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        version, qid, pid = struct.unpack("<HII", _read_exact(fh, 10, path))
        if version != 1:
            raise FormatError(f"{path}: unsupported query version {version}")
        heading, noise = struct.unpack("<2d", _read_exact(fh, 16, path))
        gt = np.array(struct.unpack("<3d", _read_exact(fh, 24, path)))
        shape_at = fh.tell()
        h, w, c = struct.unpack("<HHH", _read_exact(fh, 6, path))
        want = (cfg.range_rows, frustum_window(cfg.range_cols)[1], QUERY_CHANNELS)
        if (h, w, c) != want:
            raise FormatError(f"{path}: shape {(h, w, c)} at byte {shape_at} "
                              f"is not (rows, frustum width, channels) {want}")
        raw_at = fh.tell()
        raw = np.frombuffer(_read_exact(fh, 4 * h * w * c, path), dtype="<f4")
        mask = np.frombuffer(_read_exact(fh, h * w, path),
                             dtype=np.uint8).reshape(h, w) != 0
        labels_at = fh.tell()
        labels = np.frombuffer(_read_exact(fh, 2 * h * w, path),
                               dtype="<u2").astype(np.uint16).reshape(h, w)
        _expect_end(fh, path)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise FormatError(f"{path}: non-finite raw value {raw[bad[0]]} at "
                          f"byte {raw_at + 4 * bad[0]}")
    bad = np.flatnonzero(labels >= cfg.n_classes)
    if bad.size:
        raise FormatError(f"{path}: label {labels.flat[bad[0]]} at byte "
                          f"{labels_at + 2 * bad[0]} is not below "
                          f"n_classes {cfg.n_classes}")
    obs = QueryObservation(raw.astype(np.float64).reshape(h, w, c), mask,
                           SemanticImage(labels))
    return QueryRecord(qid, pid, heading, noise, gt, obs)


# --------------------------------------------------------- dataset layout

@dataclass
class Dataset:
    root: str
    config: Config
    class_map: dict
    places: list            # (place_id, position (3,))
    clouds: list            # LabeledPointCloud per place, world frame
    poses: list             # anchor Pose per place
    queries: list           # QueryRecord
    meta: dict


def save_dataset(root, cfg: Config, places, clouds, poses, queries,
                 provenance: str = "synthetic") -> None:
    """Write the full directory layout; clouds arrive in world frame and are
    stored in each anchor's sensor frame alongside the anchor pose."""
    os.makedirs(os.path.join(root, "velodyne"), exist_ok=True)
    os.makedirs(os.path.join(root, "labels"), exist_ok=True)
    os.makedirs(os.path.join(root, "queries"), exist_ok=True)
    for i, (cloud, pose) in enumerate(zip(clouds, poses)):
        local = LabeledPointCloud(pose.inverse().transform(cloud.points),
                                  cloud.labels, cloud.intensities)
        save_cloud_bin(os.path.join(root, "velodyne", f"{i:06d}.bin"), local)
        save_labels(os.path.join(root, "labels", f"{i:06d}.label"),
                    local.labels.astype(np.uint32))
    save_poses(os.path.join(root, "poses.txt"), poses)
    for q in queries:
        save_query(os.path.join(root, "queries", f"{q.query_id:06d}.qry"),
                   q.query_id, q.place_id, q.heading, q.noise_level,
                   q.gt_position, q.obs)
    meta = {
        "config": json.loads(config_to_json(cfg)),
        "class_map": {str(c): c for c in range(cfg.n_classes)},
        "places": [[int(pid), [float(v) for v in pos]] for pid, pos in places],
        "provenance": provenance,
    }
    with open(os.path.join(root, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset_config(root) -> tuple[Config, dict]:
    """The dataset's config and its parsed meta.json, reading nothing else.
    A meta.json that is not UTF-8 JSON, lacks a `config`, `places` or
    `class_map` key, or holds an invalid config is a FormatError."""
    path = os.path.join(root, "meta.json")
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        meta = json.loads(data.decode("utf-8"))
        missing = [k for k in ("config", "places", "class_map") if k not in meta]
        if missing:
            raise ValueError(f"missing keys {missing}")
        return config_from_json(json.dumps(meta["config"])), meta
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_dataset(root) -> Dataset:
    cfg, meta = load_dataset_config(root)
    meta_path = os.path.join(root, "meta.json")
    try:
        class_map = {int(k): int(v) for k, v in meta["class_map"].items()}
        places = [(int(pid), np.array(pos, dtype=np.float64).reshape(3))
                  for pid, pos in meta["places"]]
        if any(not 0 <= v < cfg.n_classes for v in class_map.values()):
            raise ValueError(f"a class is not below n_classes {cfg.n_classes}")
        if any(not np.isfinite(pos).all() for _, pos in places):
            raise ValueError("non-finite place position")
        ids = {pid for pid, _ in places}
        if len(ids) != len(places):
            raise ValueError("a place id repeats")
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{meta_path}: bad places or class_map: {exc}") from exc
    poses = load_poses(os.path.join(root, "poses.txt"))
    if len(poses) != len(places):
        raise FormatError(f"{root}: {len(poses)} poses for {len(places)} places")
    clouds = []
    for i, pose in enumerate(poses):
        cloud = load_cloud_bin(os.path.join(root, "velodyne", f"{i:06d}.bin"))
        cloud = load_labels(os.path.join(root, "labels", f"{i:06d}.label"),
                            cloud, class_map)
        clouds.append(LabeledPointCloud(pose.transform(cloud.points),
                                        cloud.labels, cloud.intensities))
    queries = load_queries(os.path.join(root, "queries"), cfg)
    for q in queries:
        if q.place_id not in ids:
            raise FormatError(f"{meta_path}: query {q.query_id} names place "
                              f"{q.place_id}, which is not a place")
    return Dataset(str(root), cfg, class_map, places, clouds, poses, queries, meta)


def load_queries(path, cfg: Config) -> list:
    """The .qry files of a directory, or of its queries/ subdirectory when
    it has one, in name order."""
    qdir = os.path.join(path, "queries")
    if os.path.isdir(qdir):
        path = qdir
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no query directory at {path}")
    return [load_query(os.path.join(path, name), cfg)
            for name in sorted(os.listdir(path)) if name.endswith(".qry")]
