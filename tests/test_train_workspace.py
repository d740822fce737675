"""One workspace per `train` call: the first step allocates the arrays a
step writes, later steps reuse them, and `train` holds none of them after
it returns.

Measured with tracemalloc, which numpy reports its array memory to, on the
4-place world whose trained bytes `test_train_bytes.py` pins (8 anchors).
"""
import tracemalloc

import numpy as np
import pytest

from xpr import losses
from xpr.cli import EXIT_OK, main
from xpr.io_datasets import load_dataset
from xpr.pipeline import training_set

# what may stay traced after a call besides the returned parameters: the
# history entries and the interpreter's own small caches
SLACK_BYTES = 16 * 1024


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    data = str(tmp_path_factory.mktemp("ws") / "data")
    assert main(["synth", "--places", "4", "--density", "1.0", "--seed", "7",
                 "--out", data]) == EXIT_OK
    dataset = load_dataset(data)
    return training_set(dataset, dataset.config), dataset.config


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_later_steps_reuse_the_first_steps_arrays(table, traced, monkeypatch):
    ts, cfg = table
    total_loss, peaks = losses.total_loss, []

    def measured(*args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = total_loss(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return report

    monkeypatch.setattr(losses, "total_loss", measured)
    # numpy's per-call iteration buffers (64 KB each by default) come and go
    # within a step and are no arrays a step keeps: shrink them so that the
    # bound counts arrays
    bufsize = np.setbufsize(1024)
    try:
        losses.train(ts, cfg, epochs=3, lr=0.5)
    finally:
        np.setbufsize(bufsize)
    # full batch: one step per epoch
    assert len(peaks) == 3
    assert max(peaks[1:]) < 0.05 * peaks[0], peaks


@pytest.mark.parametrize("batch_size", [0, 3])
def test_train_holds_nothing_after_it_returns(table, traced, batch_size):
    ts, cfg = table
    losses.train(ts, cfg, epochs=2, lr=0.5, batch_size=batch_size)
    before = tracemalloc.get_traced_memory()[0]
    params, _ = losses.train(ts, cfg, epochs=2, lr=0.5, batch_size=batch_size)
    held = tracemalloc.get_traced_memory()[0] - before
    returned = sum(np.asarray(t).nbytes for t in params.tensors().values())
    assert held <= returned + SLACK_BYTES, (held, returned)
