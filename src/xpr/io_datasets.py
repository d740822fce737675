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

from .aggregation import GlobalDescriptor
from .config import Config, config_from_json, config_to_json
from .core import LabeledPointCloud, Pose
from .encoder import QueryObservation
from .matching import IndexEntry, MapIndex
from .model import ModelParams, init_model_params
from .projection import SemanticImage

log = logging.getLogger(__name__)

INDEX_MAGIC = b"XPRIDX01"
CKPT_MAGIC = b"XPRCKPT1"
CKPT_VERSION = 2  # v2 stores float64 tensors; v1 stored them as float32
QUERY_MAGIC = b"XPRQRY01"


class FormatError(ValueError):
    pass


def _read_exact(fh, n: int, path) -> bytes:
    """Read exactly n bytes or raise FormatError at the offset where the
    file ends short."""
    offset = fh.tell()
    data = fh.read(n)
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
    data = np.fromfile(path, dtype="<f4")
    if data.size % 4:
        raise FormatError(f"{path}: truncated record at byte {(data.size // 4) * 16}")
    rec = data.reshape(-1, 4)
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
    raw = np.fromfile(path, dtype="<u4")
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
    poses = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    cfg_bytes = config_to_json(index.config).encode()
    rows = index.entries[0].sem_image.rows if index.entries else 0
    cols = index.entries[0].sem_image.cols if index.entries else 0
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<HI", 1, len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<IIHH", len(index.places), len(index.entries),
                             rows, cols))
        for pid, pos in index.places:
            fh.write(struct.pack("<I3d", pid, *np.asarray(pos, dtype=np.float64)))
        for e in index.entries:
            fh.write(struct.pack("<IH", e.place_id, e.viewpoint))
            m = np.hstack([e.pose.rotation, e.pose.translation[:, None]])
            fh.write(m.astype("<f8").tobytes())
            fh.write(struct.pack("<B", 1 if e.descriptor.flagged else 0))
            fh.write(e.descriptor.values.astype("<f4").tobytes())
            fh.write(e.sem_image.labels.astype(np.uint8).tobytes())
            fh.write(e.histogram.astype("<f8").tobytes())


def load_index(path) -> MapIndex:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, path)
        if magic != INDEX_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        version, cfg_len = struct.unpack("<HI", _read_exact(fh, 6, path))
        if version != 1:
            raise FormatError(f"{path}: unsupported index version {version}")
        cfg = _read_config(fh, cfg_len, path)
        n_places, n_entries, rows, cols = struct.unpack(
            "<IIHH", _read_exact(fh, 12, path))
        places = []
        for _ in range(n_places):
            pid, x, y, z = struct.unpack("<I3d", _read_exact(fh, 28, path))
            places.append((pid, np.array([x, y, z])))
        entries = []
        for _ in range(n_entries):
            pid, k = struct.unpack("<IH", _read_exact(fh, 6, path))
            m = np.frombuffer(_read_exact(fh, 96, path),
                              dtype="<f8").reshape(3, 4)
            flagged = _read_exact(fh, 1, path)[0] != 0
            desc = np.frombuffer(_read_exact(fh, 4 * cfg.descriptor_dim, path),
                                 dtype="<f4").astype(np.float64)
            labels = np.frombuffer(_read_exact(fh, rows * cols, path),
                                   dtype=np.uint8).reshape(rows, cols)
            hist = np.frombuffer(_read_exact(fh, 8 * cfg.n_classes, path),
                                 dtype="<f8").copy()
            entries.append(IndexEntry(
                pid, k, Pose(m[:, :3].copy(), m[:, 3].copy()),
                GlobalDescriptor(desc, flagged),
                SemanticImage(labels.astype(np.uint16)), hist))
        _expect_end(fh, path)
    return MapIndex(entries, places, cfg).validate()


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


def load_query(path, n_classes: int) -> QueryRecord:
    """Read a query file whose ground-truth labels are all below n_classes."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, path)
        if magic != QUERY_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        version, qid, pid = struct.unpack("<HII", _read_exact(fh, 10, path))
        if version != 1:
            raise FormatError(f"{path}: unsupported query version {version}")
        heading, noise = struct.unpack("<2d", _read_exact(fh, 16, path))
        gt = np.array(struct.unpack("<3d", _read_exact(fh, 24, path)))
        h, w, c = struct.unpack("<HHH", _read_exact(fh, 6, path))
        raw = np.frombuffer(_read_exact(fh, 4 * h * w * c, path),
                            dtype="<f4").astype(np.float64).reshape(h, w, c)
        mask = np.frombuffer(_read_exact(fh, h * w, path),
                             dtype=np.uint8).reshape(h, w) != 0
        labels_at = fh.tell()
        labels = np.frombuffer(_read_exact(fh, 2 * h * w, path),
                               dtype="<u2").astype(np.uint16).reshape(h, w)
        _expect_end(fh, path)
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        raise FormatError(f"{path}: label {labels.flat[bad[0]]} at byte "
                          f"{labels_at + 2 * bad[0]} is not below "
                          f"n_classes {n_classes}")
    obs = QueryObservation(raw, mask, SemanticImage(labels))
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
    try:
        class_map = {int(k): int(v) for k, v in meta["class_map"].items()}
        places = [(int(pid), np.array(pos, dtype=np.float64).reshape(3))
                  for pid, pos in meta["places"]]
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{os.path.join(root, 'meta.json')}: bad places or "
                          f"class_map: {exc}") from exc
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
    qdir = os.path.join(root, "queries")
    queries = [load_query(os.path.join(qdir, name), cfg.n_classes)
               for name in sorted(os.listdir(qdir)) if name.endswith(".qry")]
    return Dataset(str(root), cfg, class_map, places, clouds, poses, queries, meta)
