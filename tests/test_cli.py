import csv
import filecmp
import json
import os
import shutil

import numpy as np
import pytest

from xpr.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from xpr.io_datasets import (FormatError, load_checkpoint, load_dataset,
                             load_dataset_config, load_index, load_query,
                             save_checkpoint, save_index)
from xpr.config import Config
from xpr.losses import train
from xpr.model import ModelParams, init_model_params
from xpr.pipeline import build_index, match_dataset_queries, training_set


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end run shared by the CLI tests: synth -> map -> match."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    idx = str(root / "map.idx")
    results = str(root / "results.csv")
    assert main(["synth", "--places", "3", "--density", "1.0", "--out", data,
                 "--seed", "5", "--queries-per-place", "1"]) == EXIT_OK
    assert main(["build-map", "--data", data, "--out", idx]) == EXIT_OK
    assert main(["match", "--index", idx, "--queries", data,
                 "--out", results]) == EXIT_OK
    return {"root": root, "data": data, "idx": idx, "results": results}


def test_synth_layout(workspace):
    data = workspace["data"]
    assert os.path.isfile(os.path.join(data, "meta.json"))
    assert os.path.isfile(os.path.join(data, "poses.txt"))
    assert len(os.listdir(os.path.join(data, "velodyne"))) == 3
    assert len(os.listdir(os.path.join(data, "labels"))) == 3
    assert len(os.listdir(os.path.join(data, "queries"))) == 3
    assert not os.path.exists(os.path.join(data, ".xpr.lock"))
    ds = load_dataset(data)
    assert len(ds.places) == 3 and len(ds.queries) == 3


def test_synth_manifest(workspace):
    path = os.path.join(workspace["data"], "dataset.manifest.json")
    with open(path) as fh:
        m = json.load(fh)
    assert m["command"] == "synth"
    assert m["seed"] == 5
    assert m["inputs"]["places"] == 3
    assert "timings_ms" in m


def test_synth_refuses_nonempty_out(workspace):
    assert main(["synth", "--places", "1", "--out", workspace["data"],
                 "--seed", "5"]) == EXIT_USAGE


def test_synth_bad_places(tmp_path):
    assert main(["synth", "--places", "0",
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_build_map_index(workspace):
    idx = load_index(workspace["idx"])
    assert len(idx.places) == 3
    assert len(idx.entries) == 3 * idx.config.n_viewpoints
    assert os.path.isfile(workspace["idx"] + ".manifest.json")


def test_match_csv_columns(workspace):
    with open(workspace["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert set(rows[0]) == {"query_id", "best_place", "best_k", "sim", "phi",
                            "psi", "rank_of_truth"}
    for r in rows:
        assert 0 <= int(r["rank_of_truth"]) <= 3
        float(r["sim"]), float(r["phi"]), float(r["psi"])


def test_eval_recall(workspace, capsys):
    out = str(workspace["root"] / "recall.csv")
    assert main(["eval", "--results", workspace["results"],
                 "--data", workspace["data"], "--k", "1,3",
                 "--out", out]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "R@1," in printed and "R@3," in printed
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "value"]
    assert rows[1][0] == "R@1" and rows[2][0] == "R@3"
    r1, r3 = float(rows[1][1]), float(rows[2][1])
    assert 0.0 <= r1 <= r3 <= 100.0


def test_match_deterministic_rerun(workspace, tmp_path):
    out2 = str(tmp_path / "results2.csv")
    assert main(["match", "--index", workspace["idx"],
                 "--queries", workspace["data"], "--out", out2]) == EXIT_OK
    assert filecmp.cmp(workspace["results"], out2, shallow=False)


def test_train_writes_checkpoint_and_history(workspace, tmp_path):
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--data", workspace["data"], "--epochs", "2",
                 "--lr", "0.005", "--out", ckpt]) == EXIT_OK
    assert os.path.isfile(ckpt)
    hist = os.path.splitext(ckpt)[0] + "_history.csv"
    with open(hist, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for r in rows:
        assert float(r["l_total"]) == pytest.approx(
            float(r["l_contrastive"]) + 0.1 * float(r["l_sem"])
            + float(r["l_seg"]), rel=1e-12)


def test_trained_checkpoint_flows_through_match(workspace, tmp_path):
    ckpt = str(tmp_path / "model.ckpt")
    main(["train", "--data", workspace["data"], "--epochs", "1",
          "--out", ckpt])
    out = str(tmp_path / "trained.csv")
    assert main(["match", "--index", workspace["idx"], "--queries",
                 workspace["data"], "--ckpt", ckpt, "--out", out]) == EXIT_OK


def test_mismatched_checkpoint_config_rejected(workspace, tmp_path):
    other = str(tmp_path / "other")
    main(["synth", "--places", "2", "--density", "0.5", "--out", other,
          "--seed", "99"])
    # same config (seed differs only in data, not Config defaults); force a
    # mismatch by training with a loss-kind override baked into the ckpt
    ckpt = str(tmp_path / "model.ckpt")
    main(["train", "--data", other, "--epochs", "1",
          "--loss-kind", "triplet", "--out", ckpt])
    out = str(tmp_path / "m.csv")
    assert main(["match", "--index", workspace["idx"], "--queries",
                 workspace["data"], "--ckpt", ckpt, "--out", out]) == EXIT_DATA


def test_lock_blocks_concurrent_writer(workspace, tmp_path):
    out = str(tmp_path / "r.csv")
    lock = tmp_path / ".xpr.lock"
    lock.write_text("1234")
    try:
        assert main(["match", "--index", workspace["idx"], "--queries",
                     workspace["data"], "--out", out]) == EXIT_DATA
    finally:
        lock.unlink()


def test_missing_input_is_data_error(tmp_path):
    assert main(["match", "--index", str(tmp_path / "none.idx"),
                 "--queries", str(tmp_path), "--out",
                 str(tmp_path / "o.csv")]) == EXIT_DATA


def artifact_copies(workspace, tmp_path):
    """Private copies of the index, queries and a checkpoint, with the file
    and loader of each artifact kind."""
    idx = str(tmp_path / "map.idx")
    shutil.copy(workspace["idx"], idx)
    queries = str(tmp_path / "queries")
    shutil.copytree(os.path.join(workspace["data"], "queries"), queries)
    ckpt = str(tmp_path / "model.ckpt")
    cfg = load_index(idx).config
    save_checkpoint(ckpt, init_model_params(cfg), cfg)
    args = ["match", "--index", idx, "--queries", queries, "--ckpt", ckpt,
            "--out", str(tmp_path / "r.csv")]
    return args, {
        "index": (idx, load_index),
        "query": (os.path.join(queries, sorted(os.listdir(queries))[0]),
                  lambda path: load_query(path, cfg.n_classes)),
        "ckpt": (ckpt, load_checkpoint)}


@pytest.mark.parametrize("kind", ["index", "query", "ckpt"])
def test_truncated_artifact_is_data_error(workspace, tmp_path, capsys, kind):
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts[kind]
    with open(target, "rb") as fh:
        data = fh.read()
    cut = len(data) // 2  # inside the bulk record of every format
    with open(target, "wb") as fh:
        fh.write(data[:cut])
    with pytest.raises(FormatError, match=f"truncated at byte {cut},"):
        loader(target)
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"truncated at byte {cut}," in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["index", "query", "ckpt"])
def test_trailing_bytes_are_data_error(workspace, tmp_path, capsys, kind):
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts[kind]
    end = os.path.getsize(target)
    with open(target, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(FormatError, match=f"trailing bytes from byte {end}$"):
        loader(target)
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"trailing bytes from byte {end}" in err and "Traceback" not in err


@pytest.mark.parametrize("defect", ["utf8", "json", "key"])
@pytest.mark.parametrize("kind", ["index", "ckpt"])
def test_bad_config_header_is_data_error(workspace, tmp_path, capsys, kind,
                                         defect):
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts[kind]
    with open(target, "rb") as fh:
        data = bytearray(fh.read())
    # the header starts after the 8-byte magic, version and length
    if defect == "utf8":
        data[14] = 0xFF
    elif defect == "json":
        data[15] = ord("x")
    else:  # same length, so only the key is wrong
        at = data.index(b'"seed"')
        data[at:at + 6] = b'"sEEd"'
    with open(target, "wb") as fh:
        fh.write(data)
    with pytest.raises(FormatError, match="bad config header at byte 14: "):
        loader(target)
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert "bad config header at byte 14" in err and "Traceback" not in err


def _train_args(data, tmp_path):
    return ["train", "--data", data, "--epochs", "1",
            "--out", str(tmp_path / "model.ckpt")]


def _broken_meta(raw: bytes, defect: str) -> bytes:
    if defect == "utf8":
        return raw.replace(b'"config"', b'"c\xffnfig"')
    if defect == "cut":
        return raw[:len(raw) // 2]
    meta = json.loads(raw)
    if defect == "bad-config":
        meta["config"]["temperature"] = 0.0
    elif defect == "bad-place":
        meta["places"][1] = [1, [0.0, 2.0]]
    elif defect == "bad-class_map":
        meta["class_map"] = [0, 1]
    else:  # a missing key
        del meta[defect]
    return json.dumps(meta).encode()


@pytest.mark.parametrize("defect", ["utf8", "cut", "config", "places",
                                    "class_map", "bad-config", "bad-place",
                                    "bad-class_map"])
def test_bad_meta_json_is_data_error(workspace, tmp_path, capsys, defect):
    data = str(tmp_path / "data")
    shutil.copytree(workspace["data"], data)
    path = os.path.join(data, "meta.json")
    with open(path, "rb") as fh:
        raw = _broken_meta(fh.read(), defect)
    with open(path, "wb") as fh:
        fh.write(raw)
    with pytest.raises(FormatError, match="meta.json: "):
        load_dataset(data)
    capsys.readouterr()
    assert main(_train_args(data, tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert "meta.json: " in err and "Traceback" not in err


def test_query_label_out_of_range_is_data_error(workspace, tmp_path, capsys):
    data = str(tmp_path / "data")
    shutil.copytree(workspace["data"], data)
    qdir = os.path.join(data, "queries")
    path = os.path.join(qdir, sorted(os.listdir(qdir))[0])
    n_classes = load_dataset_config(data)[0].n_classes
    rec = load_query(path, n_classes)
    h, w, c = rec.obs.raw.shape
    labels_at = 64 + 4 * h * w * c + h * w   # after the header, raw and mask
    labels = rec.obs.gt_labels.labels.reshape(-1)
    first = int(np.flatnonzero(labels > 0)[0])
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    for i in np.flatnonzero(labels > 0):
        raw[labels_at + 2 * i:labels_at + 2 * i + 2] = (200).to_bytes(2, "little")
    with open(path, "wb") as fh:
        fh.write(raw)
    msg = f"label 200 at byte {labels_at + 2 * first} is not below n_classes {n_classes}"
    with pytest.raises(FormatError, match=msg):
        load_query(path, n_classes)
    match = ["match", "--index", workspace["idx"], "--queries", data,
             "--out", str(tmp_path / "r.csv")]
    for args in (_train_args(data, tmp_path), match):
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert os.path.basename(path) in err and msg in err
        assert "Traceback" not in err


@pytest.mark.parametrize("defect", ["missing", "shape", "name"])
def test_incomplete_checkpoint_is_data_error(workspace, tmp_path, capsys,
                                             monkeypatch, defect):
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts["ckpt"]
    params, cfg = load_checkpoint(target)
    if defect == "missing":
        tensors = ModelParams.tensors
        monkeypatch.setattr(ModelParams, "tensors", lambda self: {
            k: v for k, v in tensors(self).items() if k != "att.bilinear"})
        message = r"missing tensors \['att.bilinear'\]"
    elif defect == "shape":
        params.att.bilinear = params.att.bilinear[:, 1:]
        message = "tensor 'att.bilinear' at byte [0-9]+ has shape"
    save_checkpoint(target, params, cfg)
    monkeypatch.undo()
    if defect == "name":  # a tensor name that is not UTF-8
        with open(target, "rb") as fh:
            data = bytearray(fh.read())
        data[data.index(b"att.bilinear")] = 0xFF
        with open(target, "wb") as fh:
            fh.write(data)
        message = "unexpected tensor '\ufffdtt.bilinear' at byte [0-9]+"
    with pytest.raises(FormatError, match=message):
        loader(target)
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("model", ["seeded", "trained"])
def test_checkpoint_round_trip_is_exact(workspace, tmp_path, model):
    cfg = Config()
    params = init_model_params(cfg)
    if model == "trained":
        ds = load_dataset(workspace["data"])
        cfg = ds.config
        params, _ = train(training_set(ds, cfg), cfg, 2, 0.05)
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, params, cfg)
    back, cfg_back = load_checkpoint(ckpt)
    assert cfg_back == cfg
    want, got = params.tensors(), back.tensors()
    assert set(got) == set(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("model", ["seeded", "trained"])
def test_index_round_trip_scores_the_same(workspace, tmp_path, model):
    """An index built in memory holds the descriptors map.idx stores, so it
    ranks every query exactly as after a save and load."""
    ds = load_dataset(workspace["data"])
    cfg = ds.config
    params = init_model_params(cfg)
    if model == "trained":
        params, _ = train(training_set(ds, cfg), cfg, 2, 0.05)
    index = build_index(ds, params, cfg)
    path = str(tmp_path / "map.idx")
    save_index(path, index)
    back = load_index(path)
    assert len(back.entries) == len(index.entries)
    for e, f in zip(index.entries, back.entries):
        assert np.array_equal(e.descriptor.values, f.descriptor.values)
        assert e.descriptor.flagged == f.descriptor.flagged
    assert (match_dataset_queries(ds.queries, index, params, cfg)
            == match_dataset_queries(ds.queries, back, params, cfg))


def test_empty_world_scores_zero(tmp_path):
    """Density 0 leaves every render and query empty, so every descriptor is
    flagged (all zeros) and scores phi = 0 instead of failing."""
    data, idx = str(tmp_path / "data"), str(tmp_path / "map.idx")
    results = str(tmp_path / "results.csv")
    assert main(["synth", "--places", "4", "--density", "0", "--seed", "1",
                 "--out", data]) == EXIT_OK
    assert main(["build-map", "--data", data, "--out", idx]) == EXIT_OK
    assert all(e.descriptor.flagged for e in load_index(idx).entries)
    assert main(["match", "--index", idx, "--queries", data,
                 "--out", results]) == EXIT_OK
    assert main(["eval", "--results", results, "--data", data,
                 "--k", "1"]) == EXIT_OK
    with open(results, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(r[c] == "0.0" for r in rows for c in ("sim", "phi", "psi"))


def test_bench_writes_stage_csv(workspace, tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--index", workspace["idx"], "--queries",
                 workspace["data"], "--data", workspace["data"],
                 "--repeat", "3", "--out", out]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    stages = {r["stage"] for r in rows}
    assert {"query_encode", "match", "total", "viewpoint_describe"} <= stages
    assert "project" in stages
    for r in rows:
        assert float(r["mean_ms"]) >= 0.0
        assert float(r["p95_ms"]) >= float(r["median_ms"]) >= 0.0


def test_selfcheck_passes(capsys):
    assert main(["selfcheck", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selfcheck passed" in out
    assert "FAIL" not in out


def test_selfcheck_detects_corrupted_gradient(capsys):
    assert main(["selfcheck", "--seed", "0",
                 "--corrupt-gradient"]) == EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out
