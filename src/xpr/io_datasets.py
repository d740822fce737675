"""On-disk formats: KITTI-style scans/labels/poses, the map index, model
checkpoints, query observations, and the dataset directory layout.

All multi-byte values are little-endian; loaders reject malformed input with
a byte offset or line number instead of truncating.
"""
from __future__ import annotations

import json
import logging
import math
import os
import secrets
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .config import Config, config_from_json, config_to_json
from .core import LabeledPointCloud, Pose
from .encoder import QUERY_CHANNELS, QueryObservation
from .matching import MapIndex
from .model import ModelParams, init_model_params
from .projection import frustum_window

log = logging.getLogger(__name__)

INDEX_MAGIC = b"XPRIDX01"
# v3 stores the frontal windows and the context; v2 stored 360-degree label
# images, and v1 per-entry records
INDEX_VERSION = 3
# a place table record: place id, then its (x, y, z) world position
PLACE_RECORD = np.dtype([("id", "<u4"), ("pos", "<f8", (3,))])
CKPT_MAGIC = b"XPRCKPT1"
CKPT_VERSION = 2  # v2 stores float64 tensors; v1 stored them as float32
QUERY_MAGIC = b"XPRQRY01"
QUERY_VERSION = 1


class FormatError(ValueError):
    pass


def read_text(path) -> str:
    """The text of a UTF-8 file, or a FormatError at its first bad byte."""
    r = _Reader(path)
    return r.text(len(r.data))


class _Reader:
    """A binary file read front to back. No read asks for more bytes than
    the file holds, and every FormatError names the byte it is about."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.data = np.frombuffer(fh.read(), dtype=np.uint8)
        self.at = 0     # the next byte to read
        self.last = 0   # the first byte of the last read

    def fail(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    def block(self, dtype, count: int) -> np.ndarray:
        """The next count values of dtype, as a read-only view of the file."""
        dtype = np.dtype(dtype)
        n = dtype.itemsize * count
        if n > len(self.data) - self.at:
            raise self.fail(f"truncated at byte {len(self.data)}, expected "
                            f"{n} bytes from byte {self.at}")
        self.last, self.at = self.at, self.at + n
        return np.frombuffer(self.data, dtype, count, self.last)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.block(np.uint8, struct.calcsize(fmt)))

    def text(self, n: int, what: str = "") -> str:
        """The next n bytes as UTF-8 text. A bad byte is a FormatError at its
        byte in the file, with `what` naming the text."""
        data = self.block(np.uint8, n).tobytes()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"{what}not UTF-8 at byte "
                            f"{self.last + exc.start}") from exc

    def records(self, dtype) -> np.ndarray:
        """The rest of the file as whole records of dtype; a partial last
        record is a FormatError at its first byte."""
        dtype = np.dtype(dtype)
        count, partial = divmod(len(self.data) - self.at, dtype.itemsize)
        if partial:
            raise self.fail(f"truncated record at byte "
                            f"{len(self.data) - partial}")
        return self.block(dtype, count)

    def header(self, magic: bytes, version: int, kind: str) -> None:
        """The 8-byte magic and the <u2 format version after it."""
        (got,) = self.unpack(f"{len(magic)}s")
        if got != magic:
            raise self.fail(f"bad magic {got!r} at byte 0")
        (got,) = self.unpack("<H")
        if got != version:
            raise self.fail(f"unsupported {kind} version {got} at byte "
                            f"{self.last}")

    def config(self) -> Config:
        """A <u4 byte count, then that many bytes of JSON config."""
        (n,) = self.unpack("<I")
        text = self.text(n, "config header ")
        try:
            return config_from_json(text)
        except (ValueError, TypeError) as exc:
            raise self.fail(f"bad config header at byte {self.last}: "
                            f"{exc}") from exc

    def check(self, values: np.ndarray, bad: np.ndarray, message: str,
              **fields) -> None:
        """Raise at the first value of `values`, a view of a block, where
        `bad` is set; a `bad` over only the leading axes flags whole rows.
        `message` formats that {value}, its byte {at} and `fields`."""
        hits = np.flatnonzero(bad)
        if hits.size:
            where = np.unravel_index(hits[0], bad.shape)
            at = (values.ctypes.data - self.data.ctypes.data
                  + sum(int(i) * s for i, s in zip(where, values.strides)))
            raise self.fail(message.format(value=values[where], at=at,
                                            **fields))

    def end(self) -> None:
        if self.at < len(self.data):
            raise self.fail(f"trailing bytes from byte {self.at}")


@contextmanager
def _replacing(path):
    """A new binary file in path's directory that replaces path once the
    block has written it whole. If the block or the replace fails, the new
    file is removed and path is left as it was, or absent."""
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_header(fh, magic: bytes, version: int, cfg: Config) -> None:
    """The magic, <u2 version and config that `_Reader` reads back."""
    cfg_bytes = config_to_json(cfg).encode()
    fh.write(magic)
    fh.write(struct.pack("<HI", version, len(cfg_bytes)))
    fh.write(cfg_bytes)


# ------------------------------------------------------------ point clouds

def save_cloud_bin(path, cloud: LabeledPointCloud) -> None:
    """(x, y, z, intensity) float32 quadruples; the intensity is written 0."""
    rec = np.zeros((cloud.count, 4), dtype="<f4")
    rec[:, :3] = cloud.points
    rec.tofile(path)


def load_cloud_bin(path) -> LabeledPointCloud:
    """Parse finite (x, y, z, intensity) <f4 quadruples; labels start at 0."""
    r = _Reader(path)
    rec = r.records(("<f4", (4,)))
    r.check(rec, ~np.isfinite(rec).all(1), "non-finite value at byte {at}")
    return LabeledPointCloud(rec[:, :3], np.zeros(len(rec), dtype=np.uint16))


def save_labels(path, labels: np.ndarray) -> None:
    np.asarray(labels, dtype="<u4").tofile(path)


def load_labels(path, cloud: LabeledPointCloud,
                class_map: dict) -> LabeledPointCloud:
    """Low 16 bits are the raw class id, remapped into [0, n_classes)."""
    r = _Reader(path)
    raw = r.records("<u4")
    if raw.size != cloud.count:
        raise r.fail(f"{raw.size} labels for {cloud.count} points at byte "
                     f"{raw.itemsize * min(raw.size, cloud.count)}")
    low = raw & 0xFFFF
    mapped = np.zeros(raw.size, dtype=np.uint16)
    for src, dst in class_map.items():
        mapped[low == int(src)] = dst
    return LabeledPointCloud(cloud.points, mapped)


# ------------------------------------------------------------------- poses

def save_poses(path, poses: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in poses:
            m = np.hstack([p.rotation, p.translation[:, None]])
            fh.write(" ".join(repr(float(v)) for v in m.ravel()) + "\n")


def load_poses(path) -> list:
    """One 3x4 [R | t] row-major pose per non-blank line of UTF-8 text. A
    rotation with det <= 0 or max |R R^T - I| above 1e-2 is rejected; one
    that drifts by more than 1e-6 is re-orthonormalized with a warning."""
    poses = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
        det = np.linalg.det(rot)
        drift = np.abs(rot @ rot.T - np.eye(3)).max()
        if det <= 0.0 or drift > 1e-2:
            raise FormatError(f"{path}:{lineno}: not a rotation (det {det:.3g}, "
                              f"max |R R^T - I| {drift:.3g})")
        if drift > 1e-6:
            log.warning("%s:%d: re-orthonormalizing drifted rotation",
                        path, lineno)
            u, _, vt = np.linalg.svd(rot)
            rot = u @ vt
        poses.append(Pose(rot, t))
    return poses


# -------------------------------------------------------------- map index

def save_index(path, index: MapIndex) -> None:
    """Write map.idx v3: the header, the counts, the semantic context as
    <f8, the place table of (id, x, y, z) records, the descriptor block as
    <f4 and the frontal windows as uint8."""
    table = np.empty(len(index.places), dtype=PLACE_RECORD)
    table["id"] = [pid for pid, _ in index.places]
    table["pos"] = np.reshape([pos for _, pos in index.places], (-1, 3))
    with _replacing(path) as fh:
        _write_header(fh, INDEX_MAGIC, INDEX_VERSION, index.config)
        fh.write(struct.pack("<IIHH", len(index.places), len(index.windows),
                             *index.windows.shape[1:]))
        fh.write(index.mean_histogram().astype("<f8").tobytes())
        fh.write(table.tobytes())
        fh.write(index.descriptors.astype("<f4").tobytes())
        fh.write(index.windows.tobytes())


def load_index(path) -> MapIndex:
    """Read map.idx v3. The windows are range_rows by the frustum width of
    range_cols; the context is finite, non-negative, 0 for the void class
    and sums to 1 within 1e-6, as `semantic_attention` requires; every
    place id is distinct, every place position and descriptor value finite,
    and every label below n_classes."""
    r = _Reader(path)
    r.header(INDEX_MAGIC, INDEX_VERSION, "index")
    cfg = r.config()
    (n_places,) = r.unpack("<I")
    (n_entries,) = r.unpack("<I")
    if n_entries != n_places * cfg.n_viewpoints:
        raise r.fail(f"{n_entries} entries at byte {r.last} are not "
                     f"{n_places} places of {cfg.n_viewpoints} viewpoints")
    (rows,) = r.unpack("<H")
    if rows != cfg.range_rows:
        raise r.fail(f"window rows {rows} at byte {r.last} are not the "
                     f"config's range_rows {cfg.range_rows}")
    (width,) = r.unpack("<H")
    frustum = frustum_window(cfg.range_cols)[1]
    if width != frustum:
        raise r.fail(f"window width {width} at byte {r.last} is not the "
                     f"frustum width {frustum} of range_cols {cfg.range_cols}")
    context = r.block("<f8", cfg.n_classes)
    context_at = r.last
    table = r.block(PLACE_RECORD, n_places)
    desc = r.block("<f4", n_entries * cfg.descriptor_dim)
    windows = r.block(np.uint8, n_entries * rows * width)
    r.end()
    r.check(context, ~np.isfinite(context),
            "non-finite context value {value} at byte {at}")
    r.check(context, context < 0.0,
            "negative context value {value} at byte {at}")
    r.check(context[:1], context[:1] != 0.0,
            "context value {value} of void class 0 at byte {at} is not 0")
    if abs(context.sum() - 1.0) > 1e-6:
        raise r.fail(f"context at byte {context_at} sums to "
                     f"{float(context.sum())!r}, not 1 within 1e-6")
    ids, pos = table["id"], table["pos"]
    repeat = np.ones(len(ids), dtype=bool)
    repeat[np.unique(ids, return_index=True)[1]] = False
    r.check(ids, repeat,
            "place id {value} at byte {at} repeats an earlier place")
    r.check(pos, ~np.isfinite(pos), "non-finite place position at byte {at}")
    r.check(desc, ~np.isfinite(desc),
            "non-finite descriptor value {value} at byte {at}")
    r.check(windows, windows >= cfg.n_classes,
            "label {value} at byte {at} is not below n_classes {n}",
            n=cfg.n_classes)
    places = list(zip(ids.tolist(), pos.astype(np.float64)))
    return MapIndex(places, desc.reshape(n_entries, cfg.descriptor_dim),
                    windows.reshape(n_entries, rows, width), context, cfg)


# ------------------------------------------------------------- checkpoints

def save_checkpoint(path, params: ModelParams, cfg: Config) -> None:
    tensors = params.tensors()
    with _replacing(path) as fh:
        _write_header(fh, CKPT_MAGIC, CKPT_VERSION, cfg)
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
    r = _Reader(path)
    r.header(CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    cfg = r.config()
    expected = {name: np.atleast_1d(arr).shape
                for name, arr in init_model_params(cfg).tensors().items()}
    (n_tensors,) = r.unpack("<I")
    tensors = {}
    for _ in range(n_tensors):
        (name_len,) = r.unpack("<H")
        at = r.last
        name = r.text(name_len, "tensor name ")
        if name not in expected or name in tensors:
            raise r.fail(f"unexpected tensor {name!r} at byte {at}")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if shape != expected[name]:
            raise r.fail(f"tensor {name!r} at byte {at} has shape {shape}, "
                         f"expected {expected[name]}")
        values = r.block("<f8", math.prod(shape))
        r.check(values, ~np.isfinite(values),
                "non-finite value {value} of tensor {name!r} at byte {at}",
                name=name)
        tensors[name] = values.astype(np.float64).reshape(shape)
    r.end()
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise r.fail(f"missing tensors {missing} at byte {r.at}")
    return ModelParams.from_tensors(tensors), cfg


# ------------------------------------------------------------ query files

def save_query(path, query_id: int, place_id: int, heading: float,
               noise_level: float, gt_position: np.ndarray,
               obs: QueryObservation) -> None:
    h, w, c = obs.raw.shape
    with open(path, "wb") as fh:
        fh.write(QUERY_MAGIC)
        fh.write(struct.pack("<HII", QUERY_VERSION, query_id, place_id))
        fh.write(struct.pack("<2d", heading, noise_level))
        fh.write(struct.pack("<3d", *np.asarray(gt_position, dtype=np.float64)))
        fh.write(struct.pack("<HHH", h, w, c))
        fh.write(obs.raw.astype("<f4").tobytes())
        fh.write(obs.mask.astype(np.uint8).tobytes())
        fh.write(obs.gt_labels.astype("<u2").tobytes())


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
    frustum window, whose heading, noise level, ground-truth position and
    raw values are all finite and whose ground-truth labels are all below
    n_classes."""
    r = _Reader(path)
    r.header(QUERY_MAGIC, QUERY_VERSION, "query")
    qid, pid = r.unpack("<II")
    head = r.block("<f8", 5)   # heading, noise level, ground-truth x, y, z
    r.check(head, ~np.isfinite(head), "non-finite header value {value} at "
            "byte {at}")
    heading, noise = float(head[0]), float(head[1])
    gt = np.array(head[2:], dtype=np.float64)
    shape = r.unpack("<HHH")
    want = (cfg.range_rows, frustum_window(cfg.range_cols)[1], QUERY_CHANNELS)
    if shape != want:
        raise r.fail(f"shape {shape} at byte {r.last} is not (rows, frustum "
                     f"width, channels) {want}")
    h, w, c = shape
    raw = r.block("<f4", h * w * c)
    mask = r.block(np.uint8, h * w).reshape(h, w) != 0
    labels = r.block("<u2", h * w).reshape(h, w)
    r.end()
    r.check(raw, ~np.isfinite(raw),
            "non-finite raw value {value} at byte {at}")
    r.check(labels, labels >= cfg.n_classes,
            "label {value} at byte {at} is not below n_classes {n}",
            n=cfg.n_classes)
    obs = QueryObservation(raw.astype(np.float64).reshape(h, w, c), mask,
                           labels.astype(np.uint16))
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
    for sub in ("velodyne", "labels", "queries"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    for i, (cloud, pose) in enumerate(zip(clouds, poses)):
        local = LabeledPointCloud(pose.inverse().transform(cloud.points),
                                  cloud.labels)
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
    text = read_text(path)
    try:
        meta = json.loads(text)
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
                                        cloud.labels))
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
