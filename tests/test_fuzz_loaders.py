"""Truncations, byte flips and non-finite values in the on-disk formats:
every mutated map.idx, .ckpt, .qry, .bin, .label, poses.txt and meta.json
loads or raises FormatError, never another exception, and a FormatError
from a binary format names a byte offset within the mutated file."""
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpr.config import Config, make_rng
from xpr.core import LabeledPointCloud, Pose, yaw_rotation
from xpr.encoder import QUERY_CHANNELS, QueryObservation
from xpr.io_datasets import (FormatError, QueryRecord, load_checkpoint,
                             load_cloud_bin, load_dataset, load_index,
                             load_labels, load_poses, load_query,
                             save_checkpoint, save_dataset, save_index,
                             save_query)
from xpr.matching import MapIndex
from xpr.model import init_model_params
from xpr.projection import class_counts, frustum_window, semantic_context

# small enough that one load takes well under a millisecond
CFG = Config(n_classes=4, descriptor_dim=8, n_viewpoints=2, range_rows=2,
             range_cols=8)
CLASS_MAP = {c: c for c in range(CFG.n_classes)}
N_POINTS = 6


def write_index(path, rng):
    """A v3 index: the frontal windows and the semantic context of random
    360-degree label images."""
    places = [(pid, rng.uniform(-10, 10, 3)) for pid in (3, 5)]
    n = len(places) * CFG.n_viewpoints
    d = rng.normal(size=(n, CFG.descriptor_dim))
    labels = rng.integers(0, CFG.n_classes, (n, CFG.range_rows, CFG.range_cols))
    c0, width = frustum_window(CFG.range_cols)
    save_index(path, MapIndex(places, d / np.linalg.norm(d, axis=1,
                                                         keepdims=True),
                              labels[:, :, c0:c0 + width],
                              semantic_context(class_counts(labels, CFG)),
                              CFG))


def make_obs(rng):
    shape = (CFG.range_rows, frustum_window(CFG.range_cols)[1])
    return QueryObservation(rng.normal(size=(*shape, QUERY_CHANNELS)),
                            rng.random(shape) < 0.8,
                            rng.integers(0, CFG.n_classes, shape)
                            .astype(np.uint16))


def write_query(path, rng):
    save_query(path, 1, 3, 0.5, 0.1, np.zeros(3), make_obs(rng))


def write_dataset(root, rng):
    """A two-place dataset of N_POINTS points per place and one query."""
    places = [(pid, rng.uniform(-10, 10, 3)) for pid in (3, 5)]
    clouds = [LabeledPointCloud(rng.uniform(-10, 10, (N_POINTS, 3)),
                                rng.integers(0, CFG.n_classes, N_POINTS))
              for _ in places]
    poses = [Pose(yaw_rotation(0.3 * i), pos)
             for i, (_, pos) in enumerate(places)]
    query = QueryRecord(1, 3, 0.5, 0.1, np.zeros(3), make_obs(rng))
    save_dataset(root, CFG, places, clouds, poses, [query])


def load_first_labels(path):
    cloud = LabeledPointCloud(np.zeros((N_POINTS, 3)), np.zeros(N_POINTS))
    return load_labels(path, cloud, CLASS_MAP)


# kind: (writer of a file or None for a file of a dataset, the file's name
# in the dataset, loader, whether the format is text)
FORMATS = {
    "index": (write_index, None, load_index, False),
    "ckpt": (lambda path, rng: save_checkpoint(path, init_model_params(CFG),
                                               CFG),
             None, load_checkpoint, False),
    "query": (write_query, None, lambda path: load_query(path, CFG), False),
    "bin": (None, "velodyne/000000.bin", load_cloud_bin, False),
    "label": (None, "labels/000000.label", load_first_labels, False),
    "poses": (None, "poses.txt", load_poses, True),
    "meta": (None, "meta.json", lambda path: load_dataset(path.parent), True),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for kind, (write, name, load, text) in FORMATS.items():
        if write is None:  # each kind mutates its own copy of the dataset
            write_dataset(root / kind, make_rng(17, 1))
            path = root / kind / name
        else:
            path = root / f"{kind}.bin"
            write(path, make_rng(17, 1))
        load(path)  # the unmutated file loads
        out[kind] = (path, path.read_bytes(), load, text)
    return out


NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
OFFSET = re.compile(r"\bbyte (\d+)\b")


def put_nonfinite(data: bytearray, at: int, value: str, text: bool) -> None:
    """Replace the at-th number of a text file with the JSON spelling of
    value, or write value as <f4 at a 4-byte boundary of a binary file."""
    if text:
        numbers = list(NUMBER.finditer(data))
        if numbers:
            m = numbers[at % len(numbers)]
            spelled = {"nan": b"NaN", "inf": b"Infinity", "-inf": b"-Infinity"}
            data[m.start():m.end()] = spelled[value]
    elif len(data) >= 4:
        struct.pack_into("<f", data, 4 * (at % (len(data) // 4)), float(value))


# positions often land in the headers, where a flip changes a count or the
# config rather than a stored value
POSITION = st.one_of(st.integers(0, 160), st.integers(0, 1 << 20))
FLIPS = st.lists(st.tuples(POSITION, st.integers(1, 255)), max_size=3)
CUT = st.one_of(st.none(), POSITION)
NONFINITE = st.lists(st.tuples(POSITION, st.sampled_from(["nan", "inf", "-inf"])),
                     max_size=2)


@pytest.mark.parametrize("kind", list(FORMATS))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(flips=FLIPS, cut=CUT, nonfinite=NONFINITE)
def test_mutated_file_loads_or_is_format_error(originals, kind, flips, cut,
                                               nonfinite):
    path, data, load, text = originals[kind]
    mutated = bytearray(data)
    for at, value in nonfinite:
        put_nonfinite(mutated, at, value, text)
    for at, xor in flips:
        mutated[at % len(mutated)] ^= xor
    if cut is not None:
        mutated = mutated[:cut % (len(mutated) + 1)]
    path.write_bytes(bytes(mutated))
    try:
        load(path)
    except FormatError as exc:
        if not text:
            offsets = [int(n) for n in OFFSET.findall(str(exc))]
            assert offsets, str(exc)
            assert all(0 <= n <= len(mutated) for n in offsets), str(exc)
