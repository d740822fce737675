"""Truncations and byte flips of the binary formats: every mutated map.idx,
.ckpt and .qry file loads or raises FormatError, never another exception."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpr.aggregation import GlobalDescriptor
from xpr.config import Config, make_rng
from xpr.core import Pose, yaw_rotation
from xpr.encoder import QUERY_CHANNELS, QueryObservation
from xpr.io_datasets import (FormatError, load_checkpoint, load_index,
                             load_query, save_checkpoint, save_index,
                             save_query)
from xpr.matching import IndexEntry, MapIndex
from xpr.model import init_model_params
from xpr.projection import SemanticImage, frustum_window

# small enough that one load takes well under a millisecond
CFG = Config(n_classes=4, descriptor_dim=8, n_viewpoints=2, range_rows=2,
             range_cols=8)


def write_index(path, rng):
    rows, cols = CFG.range_rows, CFG.range_cols
    places = [(pid, rng.uniform(-10, 10, 3)) for pid in (3, 5)]
    entries = []
    for pid, _ in places:
        for k in range(CFG.n_viewpoints):
            d = rng.normal(size=CFG.descriptor_dim)
            entries.append(IndexEntry(
                pid, k, Pose(yaw_rotation(0.3 * k), rng.uniform(-5, 5, 3)),
                GlobalDescriptor(d / np.linalg.norm(d)),
                SemanticImage(rng.integers(0, CFG.n_classes, (rows, cols))
                              .astype(np.uint16)),
                np.full(CFG.n_classes, 1.0 / CFG.n_classes)))
    save_index(path, MapIndex(entries, places, CFG))


def write_query(path, rng):
    shape = (CFG.range_rows, frustum_window(CFG.range_cols)[1])
    obs = QueryObservation(rng.normal(size=(*shape, QUERY_CHANNELS)),
                           rng.random(shape) < 0.8,
                           SemanticImage(rng.integers(0, CFG.n_classes, shape)
                                         .astype(np.uint16)))
    save_query(path, 1, 3, 0.5, 0.1, np.zeros(3), obs)


FORMATS = {
    "index": (write_index, load_index),
    "ckpt": (lambda path, rng: save_checkpoint(path, init_model_params(CFG), CFG),
             load_checkpoint),
    "query": (write_query, lambda path: load_query(path, CFG)),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for kind, (write, load) in FORMATS.items():
        path = root / f"{kind}.bin"
        write(path, make_rng(17, 1))
        load(path)  # the unmutated file loads
        out[kind] = (path, path.read_bytes(), load)
    return out


# positions often land in the headers, where a flip changes a count or the
# config rather than a stored value
POSITION = st.one_of(st.integers(0, 160), st.integers(0, 1 << 20))
FLIPS = st.lists(st.tuples(POSITION, st.integers(1, 255)), max_size=3)
CUT = st.one_of(st.none(), POSITION)


@pytest.mark.parametrize("kind", list(FORMATS))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(flips=FLIPS, cut=CUT)
def test_mutated_file_loads_or_is_format_error(originals, kind, flips, cut):
    path, data, load = originals[kind]
    mutated = bytearray(data)
    for at, xor in flips:
        mutated[at % len(mutated)] ^= xor
    if cut is not None:
        mutated = mutated[:cut % (len(mutated) + 1)]
    path.write_bytes(bytes(mutated))
    try:
        load(path)
    except FormatError:
        pass
