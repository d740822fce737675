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

The trained digests were recorded once a place's viewpoints shared one polar
binning: their ranges come from the anchor frame, not from each viewpoint's
own, and so differ in the last bits from per-viewpoint ranges. The LiDAR
cells train on those depths, so the checkpoints, histories and trained
results moved; the untrained index and results, and the trained index, did
not.
"""
import hashlib
import os

import pytest

from xpr.cli import EXIT_OK, main

DIGESTS = {
    "full": ("15f020fe022ce054b010b16f705059985bcd0986f23e44cfdc3a6689816c1596",
             "da55808fefcbf1541a9b206d4e95f5b68f383450b137a3a08db9109f03938b60"),
    "batch": ("091ace390ff6925fe846832740ceea9b573ffcf5296174f2c6b40b4f467c43c7",
              "7c7b63b760c8d5d748c1638c0bd5fc92bc856810b88cb58caf414abf9a468f09"),
    "triplet": ("e8a4c84999e4b3054ddbc5466f4f84daf784fffcbb1760bf9155abfdfce1985b",
                "69db30c596e4dadd9b4e6fb6cbe58cca62ddf057b7fe78da006d8923fb1a00b0"),
}
ARTIFACTS = {
    "untrained": ("9b8b2efbca984f8a34d73c84f3368056f426f16797925fec738fdc88a9ceae46",
                  "e335ddf18ef979f19175ec0382a84e685c26e9ac01a9477f10c95cd19c0e0925"),
    "full": ("dd2d3dda7cf226f6984973dbbbf6a9869f239e52d9a6df5e61bd3fbedb3b05a0",
             "88995fd6a88d190d2b150e62640284b6dc75398a680d1e75f6c288615a5acbda"),
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
