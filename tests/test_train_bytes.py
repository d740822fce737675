"""Trained bytes pinned by sha256.

A 4-place world trained with `xpr train` must reproduce, bit for bit, the
checkpoint and history recorded before the training loss lost its generic
graph walk, and the map index and match results built from it, untrained and
from the full-batch checkpoint: the results the bytes recorded while feature
maps were still zero-padded grids, the index those of map.idx v3, which holds
the same descriptors. The parameters that two nodes feed (the NetVLAD centroids,
assignment weights and biases) add many per-map terms, and float addition is
not associative: these digests hold only while the backward adds them in the
same order, LiDAR maps first, then query anchors.
"""
import hashlib
import os

import pytest

from xpr.cli import EXIT_OK, main

DIGESTS = {
    "full": ("2d7ab0b50828ed1583f3c8098bbb417a297ab550d3b53db0f89692f9f1131832",
             "50154c5f7250298dc483867f2c5f2051fe18430025cc9e998f4f74ef6af839fb"),
    "batch": ("b5f5eb7fa18185b16b1adf50b3c5d2ba440d07d05125af3e133f9003ac535dd1",
              "5ecad924a675dc625aba6bad113dd0f64f2e5ea4bb1f20c6a3ecab4d5b0c78d0"),
    "triplet": ("0fed2a705b3cc8dedbf7951d90e07fb06a9e30d02473443511e65e4057e0a6df",
                "d153be2d5470ce61947f588a874a07414b1b8133df98b33ef5305e13c6217e10"),
}
ARTIFACTS = {
    "untrained": ("9b8b2efbca984f8a34d73c84f3368056f426f16797925fec738fdc88a9ceae46",
                  "e335ddf18ef979f19175ec0382a84e685c26e9ac01a9477f10c95cd19c0e0925"),
    "full": ("dd2d3dda7cf226f6984973dbbbf6a9869f239e52d9a6df5e61bd3fbedb3b05a0",
             "2d39e22435728110959587ff152e85dcd2d85add66912035d4e1b055041cd2ab"),
}
MODES = {"full": [], "batch": ["--batch-size", "3"],
         "triplet": ["--loss-kind", "triplet"]}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    data = str(tmp_path_factory.mktemp("pin") / "data")
    assert main(["synth", "--places", "4", "--density", "1.0", "--seed", "7",
                 "--out", data]) == EXIT_OK
    return data


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("mode", list(MODES))
def test_training_bytes_are_pinned(world, tmp_path, mode):
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--data", world, "--epochs", "3", "--lr", "0.5",
                 "--out", ckpt, *MODES[mode]]) == EXIT_OK
    history = os.path.splitext(ckpt)[0] + "_history.csv"
    assert (_sha256(ckpt), _sha256(history)) == DIGESTS[mode]


@pytest.mark.parametrize("model", list(ARTIFACTS))
def test_map_and_results_bytes_are_pinned(world, tmp_path, model):
    ckpt = []
    if model != "untrained":
        ckpt = ["--ckpt", str(tmp_path / "model.ckpt")]
        assert main(["train", "--data", world, "--epochs", "3", "--lr", "0.5",
                     "--out", ckpt[1], *MODES[model]]) == EXIT_OK
    idx, results = str(tmp_path / "map.idx"), str(tmp_path / "results.csv")
    assert main(["build-map", "--data", world, "--out", idx, *ckpt]) == EXIT_OK
    assert main(["match", "--index", idx, "--queries", world, "--out", results,
                 *ckpt]) == EXIT_OK
    assert (_sha256(idx), _sha256(results)) == ARTIFACTS[model]
