import csv
import filecmp
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from xpr import cli
from xpr.cli import (EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_PIPE, EXIT_USAGE,
                     main)
from xpr.io_datasets import (FormatError, QueryRecord, load_checkpoint,
                             load_dataset, load_dataset_config, load_index,
                             load_query, save_checkpoint, save_dataset,
                             save_index, save_query)
from xpr.config import Config
from xpr.core import LabeledPointCloud, Pose
from xpr.encoder import QUERY_CHANNELS, QueryObservation
from xpr.losses import train
from xpr.model import ModelParams, init_model_params
from xpr.pipeline import build_index, match_dataset_queries, training_set
from xpr.projection import frustum_window


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


@pytest.mark.parametrize("option", [
    ("--noise", "nan"), ("--noise", "-0.1"), ("--noise", "inf"),
    ("--density", "inf"), ("--density", "-1"), ("--density", "nan"),
    ("--queries-per-place", "-1"),
    ("--density", "1e308",
     "--density 1e+308 gives a place an infinite number of points")],
    ids=lambda o: f"{o[0][2:]}={o[1]}")
def test_synth_rejects_out_of_range_option(tmp_path, capsys, option):
    """An option out of range is one usage error line, before any work;
    the option names the line it expects if not the range's."""
    flag, value, *message = option
    out = tmp_path / "x"
    assert main(["synth", "--places", "2", "--out", str(out),
                 flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    want = message[0] if message else f"{flag} must be a finite number >= 0"
    assert want in err and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def _file_digests(root):
    """sha256 of every file under root but the manifests, by relative path."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*")
            if p.is_file() and not p.name.endswith(".manifest.json")}


def test_synth_force_replaces_the_dataset_and_nothing_else(tmp_path):
    """--force over a larger dataset leaves the bytes of a fresh synth, with
    no place or query of the old one, and keeps files it did not write."""
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    assert main(["synth", "--places", "4", "--density", "0.5", "--seed", "1",
                 "--queries-per-place", "2", "--out", str(old)]) == EXIT_OK
    kept = {"notes.txt": b"mine", "velodyne/notes.bin.txt": b"also mine"}
    for name, data in kept.items():
        (old / name).write_bytes(data)
    new = ["synth", "--places", "3", "--density", "0.5", "--seed", "2",
           "--queries-per-place", "1"]
    assert main([*new, "--out", str(old), "--force"]) == EXIT_OK
    assert main([*new, "--out", str(fresh)]) == EXIT_OK
    assert _file_digests(old) == {
        **_file_digests(fresh),
        **{name: hashlib.sha256(data).hexdigest()
           for name, data in kept.items()}}
    assert len(load_dataset(str(old)).queries) == 3


def test_build_map_index(workspace):
    idx = load_index(workspace["idx"])
    assert len(idx.places) == 3
    assert len(idx.entries) == 3 * idx.config.n_viewpoints
    assert os.path.isfile(workspace["idx"] + ".manifest.json")


def test_build_map_manifest_times_render_describe_and_save(workspace):
    with open(workspace["idx"] + ".manifest.json", encoding="utf-8") as fh:
        timings = json.load(fh)["timings_ms"]
    assert set(timings) == {"total", "render", "describe", "save"}
    stages = [timings["render"], timings["describe"], timings["save"]]
    assert min(stages) >= 0.0
    assert sum(stages) <= timings["total"]


def test_match_manifest_times_load(workspace):
    with open(workspace["results"] + ".manifest.json", encoding="utf-8") as fh:
        timings = json.load(fh)["timings_ms"]
    assert set(timings) == {"total", "load"}
    assert timings["load"] > 0.0 and timings["total"] > 0.0


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


@pytest.mark.parametrize("k", ["a", "1,x", "0", ""])
def test_eval_bad_k_is_usage_error(workspace, tmp_path, capsys, k):
    assert main(["eval", "--results", workspace["results"], "--data",
                 workspace["data"], "--k", k,
                 "--out", str(tmp_path / "recall.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--k" in err and "Traceback" not in err


@pytest.mark.parametrize("defect", ["no-column", "not-integer", "negative",
                                    "short-row", "utf8"])
def test_eval_malformed_results_is_data_error(workspace, tmp_path, capsys,
                                              defect):
    with open(workspace["results"], newline="") as fh:
        lines = fh.read().splitlines()
    if defect == "no-column":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    elif defect == "not-integer":
        lines[2] = lines[2].rsplit(",", 1)[0] + ",2.5"
    elif defect == "negative":
        lines[2] = lines[2].rsplit(",", 1)[0] + ",-1"
    elif defect == "short-row":
        lines[2] = lines[2].split(",", 1)[0]
    results = tmp_path / "results.csv"
    text = "\n".join(lines) + "\n"
    results.write_bytes(text.encode() if defect != "utf8"
                        else text.encode().replace(b"phi", b"p\xffi"))
    args = ["eval", "--results", str(results), "--data", workspace["data"],
            "--out", str(tmp_path / "recall.csv")]
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    bad = text.encode().index(b"phi") + 1
    where = {"no-column": "line 2", "utf8": f"not UTF-8 at byte {bad}"}
    assert f"{results}: {where.get(defect, 'line 3')}" in err
    assert "Traceback" not in err


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


def test_train_manifest_times_table_and_epochs(workspace, tmp_path):
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--data", workspace["data"], "--epochs", "3",
                 "--lr", "0.005", "--out", ckpt]) == EXIT_OK
    with open(ckpt + ".manifest.json", encoding="utf-8") as fh:
        timings = json.load(fh)["timings_ms"]
    assert set(timings) == {"total", "table", "epochs"}
    assert len(timings["epochs"]) == 3
    assert min(timings["table"], *timings["epochs"]) > 0.0
    assert timings["table"] + sum(timings["epochs"]) <= timings["total"]


@pytest.mark.filterwarnings("error")
def test_diverging_train_prints_one_error_line(workspace, tmp_path, capsys):
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--data", workspace["data"], "--epochs", "2",
                 "--lr", "1e300", "--out", ckpt]) == EXIT_DATA
    assert capsys.readouterr().err == "error: non-finite loss at epoch 1\n"
    assert not os.path.exists(ckpt)


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
    # the config seed differs (99 against 5); the loss-kind override baked
    # into the ckpt is a training-only field and would not be rejected alone
    ckpt = str(tmp_path / "model.ckpt")
    main(["train", "--data", other, "--epochs", "1",
          "--loss-kind", "triplet", "--out", ckpt])
    out = str(tmp_path / "m.csv")
    assert main(["match", "--index", workspace["idx"], "--queries",
                 workspace["data"], "--ckpt", ckpt, "--out", out]) == EXIT_DATA


@pytest.mark.parametrize("override", [["--loss-kind", "triplet"],
                                      ["--lambda-sem", "0.5"]],
                         ids=["triplet", "lambda-sem"])
def test_loss_override_checkpoint_builds_and_matches(tmp_path, override):
    """The loss settings only matter to training: a checkpoint trained with
    them overridden still builds a map and matches queries."""
    data = str(tmp_path / "data")
    assert main(["synth", "--places", "4", "--density", "2.0", "--seed", "11",
                 "--queries-per-place", "1", "--noise", "0.3", "--aliased",
                 "--out", data]) == EXIT_OK
    ckpt, idx = str(tmp_path / "model.ckpt"), str(tmp_path / "map.idx")
    assert main(["train", "--data", data, "--epochs", "1", "--lr", "0.5",
                 *override, "--out", ckpt]) == EXIT_OK
    assert main(["build-map", "--data", data, "--ckpt", ckpt,
                 "--out", idx]) == EXIT_OK
    assert main(["match", "--index", idx, "--queries", data, "--ckpt", ckpt,
                 "--out", str(tmp_path / "r.csv")]) == EXIT_OK


@pytest.mark.parametrize("command", ["match", "eval", "bench"])
def test_lock_blocks_concurrent_writer(workspace, tmp_path, command):
    out = str(tmp_path / "r.csv")
    inputs = {"match": ["--index", workspace["idx"], "--queries",
                        workspace["data"]],
              "eval": ["--results", workspace["results"], "--data",
                       workspace["data"]],
              "bench": ["--index", workspace["idx"], "--queries",
                        workspace["data"], "--repeat", "1"]}[command]
    lock = tmp_path / ".xpr.lock"
    lock.write_text("1234")
    try:
        assert main([command, *inputs, "--out", out]) == EXIT_DATA
    finally:
        lock.unlink()
    assert not os.listdir(tmp_path)
    # unlocked, the command writes and times its work
    assert main([command, *inputs, "--out", out]) == EXIT_OK
    with open(out + ".manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["timings_ms"]["total"] > 0.0


class WorkStarted(Exception):
    pass


# command: (what does its work, as a path from xpr.cli; its arguments but
# --out)
LOCKED_WORK = {
    "synth": ("synth.generate_world", ["--places", "2", "--density", "1.0",
                                       "--force"]),
    "train": ("train", ["--data", "{data}", "--epochs", "40"]),
    "build-map": ("build_index", ["--data", "{data}"]),
    "match": ("match_dataset_queries", ["--index", "{idx}", "--queries",
                                        "{data}"]),
    "bench": ("describe_query", ["--index", "{idx}", "--queries", "{data}",
                                 "--repeat", "1"]),
}


@pytest.mark.parametrize("command", list(LOCKED_WORK))
def test_locked_output_fails_before_work(workspace, tmp_path, capsys,
                                         monkeypatch, command):
    """A writing command takes the output lock before its work: a locked
    directory exits 2 at once, and the work is never started."""
    path, inputs = LOCKED_WORK[command]
    *owners, name = path.split(".")
    target = cli
    for owner in owners:
        target = getattr(target, owner)

    def work(*args, **kwargs):
        raise WorkStarted(command)

    monkeypatch.setattr(target, name, work)
    out = tmp_path / "out"
    out.mkdir()
    args = [command, *[a.format(**workspace) for a in inputs],
            "--out", str(out if command == "synth" else out / "artifact")]
    lock = out / ".xpr.lock"
    lock.write_text("1234")
    assert main(args) == EXIT_DATA
    assert "output directory is locked" in capsys.readouterr().err
    assert os.listdir(out) == [".xpr.lock"]
    # unlocked, the same command reaches the patched work
    lock.unlink()
    with pytest.raises(WorkStarted):
        main(args)
    assert not os.listdir(out)


def test_missing_input_is_data_error(tmp_path):
    assert main(["match", "--index", str(tmp_path / "none.idx"),
                 "--queries", str(tmp_path), "--out",
                 str(tmp_path / "o.csv")]) == EXIT_DATA


@pytest.mark.parametrize("case", ["match-out-dir", "match-out-under-file",
                                  "synth-out-file", "match-index-dir",
                                  "eval-results-dir"])
def test_os_error_is_one_data_error_line(workspace, tmp_path, capsys, case):
    """A path the OS refuses to read or write, as a directory where a file
    belongs or a file where a directory does, exits 2 with one error line
    and leaves no lock behind."""
    a_dir, a_file = tmp_path / "dir", tmp_path / "file"
    a_dir.mkdir()
    a_file.write_text("")
    match = ["match", "--index", workspace["idx"], "--queries",
             workspace["data"], "--out"]
    argv = {
        "match-out-dir": [*match, str(a_dir)],
        "match-out-under-file": [*match, str(a_file / "r.csv")],
        "synth-out-file": ["synth", "--places", "1", "--out", str(a_file)],
        "match-index-dir": ["match", "--index", str(a_dir), "--queries",
                            workspace["data"], "--out", str(tmp_path / "r.csv")],
        "eval-results-dir": ["eval", "--results", str(a_dir), "--data",
                             workspace["data"]],
    }[case]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not [*tmp_path.rglob(".xpr.lock"),
                *workspace["root"].rglob(".xpr.lock")]


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
                  lambda path: load_query(path, cfg)),
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


@pytest.mark.parametrize("defect", ["utf8", "json", "key", "bool"])
@pytest.mark.parametrize("kind", ["index", "ckpt"])
def test_bad_config_header_is_data_error(workspace, tmp_path, capsys, kind,
                                         defect):
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts[kind]
    with open(target, "rb") as fh:
        data = bytearray(fh.read())
    # the header starts after the 8-byte magic, version and length
    message = "bad config header at byte 14: "
    if defect == "utf8":  # a bad byte is named at its own byte in the file
        data[20] = 0xFF
        message = f"{target}: config header not UTF-8 at byte 20"
    elif defect == "json":
        data[15] = ord("x")
    elif defect == "bool":  # same length: a JSON true for a float
        at = data.index(b'"temperature": 0.07') + len(b'"temperature": ')
        data[at:at + 4] = b"true"
        message += "temperature must be a finite number"
    else:  # same length, so only the key is wrong
        at = data.index(b'"seed"')
        data[at:at + 6] = b'"sEEd"'
    with open(target, "wb") as fh:
        fh.write(data)
    with pytest.raises(FormatError, match=re.escape(message)):
        loader(target)
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _expect_data_error(args, capsys, target, loader, msg):
    """Loading `target` and running `args` both fail on it with `msg`."""
    with pytest.raises(FormatError, match=re.escape(msg)):
        loader(target)
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{target}: " in err and msg in err and "Traceback" not in err


def _index_layout(data):
    """Byte offsets of the counts and the place table of map.idx bytes,
    with the place and entry counts: the magic, version and config length
    come first, then the config, the counts and the n_classes <f8 context."""
    (cfg_len,) = struct.unpack_from("<I", data, 10)
    counts_at = 14 + cfg_len
    n_classes = json.loads(bytes(data[14:counts_at]))["n_classes"]
    n_places, n_entries = struct.unpack_from("<II", data, counts_at)
    return counts_at, counts_at + 12 + 8 * n_classes, n_places, n_entries


@pytest.mark.parametrize("field", ["place", "viewpoint"])
def test_bad_index_entry_is_data_error(workspace, tmp_path, capsys, field):
    """An entry's place and viewpoint follow from its row in the blocks, so
    the place table must hold distinct ids and the entry count must be whole
    places of n_viewpoints."""
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts["index"]
    with open(target, "rb") as fh:
        data = bytearray(fh.read())
    counts_at, places_at, n_places, n_entries = _index_layout(data)
    if field == "place":   # the second place takes the first's id
        (pid,) = struct.unpack_from("<I", data, places_at)
        struct.pack_into("<I", data, places_at + 28, pid)
        msg = f"place id {pid} at byte {places_at + 28} repeats an earlier place"
    else:                  # one viewpoint more than whole places
        struct.pack_into("<I", data, counts_at + 4, n_entries + 1)
        msg = (f"{n_entries + 1} entries at byte {counts_at + 4} are not "
               f"{n_places} places of {n_entries // n_places} viewpoints")
    with open(target, "wb") as fh:
        fh.write(data)
    _expect_data_error(args, capsys, target, loader, msg)


@pytest.mark.parametrize("defect", ["nan-descriptor", "label-range"])
def test_bad_index_value_is_data_error(workspace, tmp_path, capsys, defect):
    """A NaN descriptor would score nan for every query, and a label of
    n_classes or more would lengthen the index's class histogram."""
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts["index"]
    index = loader(target)
    with open(target, "rb") as fh:
        data = bytearray(fh.read())
    # the stored bytes of the first entry's descriptor or the last entry's
    # window, found by their value
    if defect == "nan-descriptor":
        stored = index.entries[0].descriptor.values.astype("<f4").tobytes()
        at = data.index(stored)
        data[at:at + len(stored)] = np.full(len(stored) // 4, np.nan,
                                            dtype="<f4").tobytes()
        msg = f"non-finite descriptor value nan at byte {at}"
    else:
        n_classes = index.config.n_classes
        stored = index.windows[-1].tobytes()
        at = data.rindex(stored)
        data[at:at + len(stored)] = bytes([n_classes]) * len(stored)
        msg = f"label {n_classes} at byte {at} is not below n_classes {n_classes}"
    with open(target, "wb") as fh:
        fh.write(data)
    _expect_data_error(args, capsys, target, loader, msg)


@pytest.mark.parametrize("defect", ["channels", "width"])
def test_bad_query_shape_is_data_error(workspace, tmp_path, capsys, defect):
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts["query"]
    q = loader(target)
    raw, mask, labels = q.obs.raw, q.obs.mask, q.obs.gt_labels
    if defect == "channels":
        raw = raw[..., :3]
    else:
        raw, mask, labels = raw[:, :30], mask[:, :30], labels[:, :30]
    save_query(target, q.query_id, q.place_id, q.heading, q.noise_level,
               q.gt_position, QueryObservation(raw, mask, labels))
    # the shape follows the magic, ids, heading, noise and position
    _expect_data_error(args, capsys, target, loader,
                       f"shape {raw.shape} at byte 58 is not")


def _train_args(data, tmp_path):
    return ["train", "--data", data, "--epochs", "1",
            "--out", str(tmp_path / "model.ckpt")]


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-0.5"),
    ("--epochs", "0"), ("--epochs", "-2"), ("--batch-size", "-4"),
    ("--lambda-sem", "nan"), ("--lambda-sem", "-1")])
def test_train_rejects_out_of_range_option(workspace, tmp_path, capsys, flag,
                                           value):
    assert main(_train_args(workspace["data"], tmp_path)
                + [flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


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
    elif defect == "nan-config":
        meta["config"]["alpha"] = float("nan")
    elif defect == "bool-config":
        meta["config"]["seed"] = True
    elif defect == "nan-place":
        meta["places"][1][1][2] = float("nan")
    elif defect == "inf-class":
        meta["class_map"]["1"] = float("inf")
    elif defect == "class-range":
        meta["class_map"]["1"] = meta["config"]["n_classes"]
    elif defect == "repeated-place":
        meta["places"][1][0] = meta["places"][0][0]
    elif defect == "unknown-place":
        # place 1 keeps its query, whose place id is then no place's
        meta["places"][1][0] = 7
    else:  # a missing key
        del meta[defect]
    return json.dumps(meta).encode()


@pytest.mark.parametrize("defect", ["utf8", "cut", "config", "places",
                                    "class_map", "bad-config", "bad-place",
                                    "bad-class_map", "nan-config",
                                    "bool-config", "nan-place",
                                    "inf-class", "class-range",
                                    "repeated-place", "unknown-place"])
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
    for args in (_train_args(data, tmp_path),
                 ["build-map", "--data", data, "--out", str(tmp_path / "m.idx")]):
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert "meta.json: " in err and "Traceback" not in err


def test_query_label_out_of_range_is_data_error(workspace, tmp_path, capsys):
    data = str(tmp_path / "data")
    shutil.copytree(workspace["data"], data)
    qdir = os.path.join(data, "queries")
    path = os.path.join(qdir, sorted(os.listdir(qdir))[0])
    cfg = load_dataset_config(data)[0]
    n_classes = cfg.n_classes
    rec = load_query(path, cfg)
    h, w, c = rec.obs.raw.shape
    labels_at = 64 + 4 * h * w * c + h * w   # after the header, raw and mask
    labels = rec.obs.gt_labels.reshape(-1)
    first = int(np.flatnonzero(labels > 0)[0])
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    for i in np.flatnonzero(labels > 0):
        raw[labels_at + 2 * i:labels_at + 2 * i + 2] = (200).to_bytes(2, "little")
    with open(path, "wb") as fh:
        fh.write(raw)
    msg = f"label 200 at byte {labels_at + 2 * first} is not below n_classes {n_classes}"
    with pytest.raises(FormatError, match=msg):
        load_query(path, cfg)
    match = ["match", "--index", workspace["idx"], "--queries", data,
             "--out", str(tmp_path / "r.csv")]
    for args in (_train_args(data, tmp_path), match):
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert os.path.basename(path) in err and msg in err
        assert "Traceback" not in err


def test_query_nonfinite_raw_is_data_error(workspace, tmp_path, capsys):
    data = str(tmp_path / "data")
    shutil.copytree(workspace["data"], data)
    qdir = os.path.join(data, "queries")
    path = os.path.join(qdir, sorted(os.listdir(qdir))[0])
    cfg = load_dataset_config(data)[0]
    rec = load_query(path, cfg)
    c = rec.obs.raw.shape[2]
    raw_at = 64   # the raw values follow the 64-byte header
    valid = np.flatnonzero(rec.obs.mask.reshape(-1))
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    for cell in valid:   # every channel of every valid cell
        for ch in range(c):
            struct.pack_into("<f", raw, raw_at + 4 * (cell * c + ch), np.nan)
    with open(path, "wb") as fh:
        fh.write(raw)
    msg = f"non-finite raw value nan at byte {raw_at + 4 * c * int(valid[0])}"
    with pytest.raises(FormatError, match=msg):
        load_query(path, cfg)
    match = ["match", "--index", workspace["idx"], "--queries", data,
             "--out", str(tmp_path / "r.csv")]
    for args in (_train_args(data, tmp_path), match):
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert os.path.basename(path) in err and msg in err
        assert "Traceback" not in err


@pytest.mark.parametrize("at, value", [(18, np.nan), (26, -np.inf),
                                       (34, np.inf)],
                         ids=["heading", "noise", "position"])
def test_query_nonfinite_header_is_data_error(workspace, tmp_path, capsys,
                                              at, value):
    """A non-finite heading, noise level or ground-truth position is a data
    error at its byte of the header."""
    data = str(tmp_path / "data")
    shutil.copytree(workspace["data"], data)
    qdir = os.path.join(data, "queries")
    path = os.path.join(qdir, sorted(os.listdir(qdir))[0])
    cfg = load_dataset_config(data)[0]
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    struct.pack_into("<d", raw, at, value)
    with open(path, "wb") as fh:
        fh.write(raw)
    msg = f"non-finite header value {value} at byte {at}"
    with pytest.raises(FormatError, match=msg):
        load_query(path, cfg)
    match = ["match", "--index", workspace["idx"], "--queries", data,
             "--out", str(tmp_path / "r.csv")]
    for args in (_train_args(data, tmp_path), match):
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert os.path.basename(path) in err and msg in err
        assert "Traceback" not in err


def test_index_label_shape_mismatch_is_data_error(workspace, tmp_path, capsys):
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts["index"]
    with open(target, "rb") as fh:
        data = bytearray(fh.read())
    counts_at, _, _, n_entries = _index_layout(data)
    # the window's rows and width follow the place and entry counts; the
    # window block is cut to match, so only the header's width is wrong
    rows, width = struct.unpack_from("<HH", data, counts_at + 8)
    struct.pack_into("<H", data, counts_at + 10, width - 1)
    with open(target, "wb") as fh:
        fh.write(data[:len(data) - n_entries * rows])
    _expect_data_error(args, capsys, target, loader,
                       f"window width {width - 1} at byte {counts_at + 10} "
                       f"is not the frustum width {width}")


def test_index_v2_is_one_data_error_line(workspace, tmp_path, capsys):
    """map.idx v2 stored 360-degree label images; no reader of it is kept."""
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, _ = artifacts["index"]
    with open(target, "r+b") as fh:
        fh.seek(8)
        fh.write(struct.pack("<H", 2))
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {target}: unsupported index version 2 at byte 8\n")


def test_config_too_wide_for_the_formats_is_data_error(tmp_path, capsys):
    """map.idx and .qry store range_rows and range_cols as uint16, so a
    larger value is refused when the dataset is read, before any render,
    and no map.idx is written."""
    data, idx = str(tmp_path / "data"), tmp_path / "map.idx"
    cfg = Config(range_rows=1, range_cols=70000, n_viewpoints=1)
    save_dataset(data, cfg, [(0, np.zeros(3))],
                 [LabeledPointCloud(np.array([[5.0, 0.0, 0.0]]), [1])],
                 [Pose(np.eye(3), np.zeros(3))], [])
    capsys.readouterr()
    assert main(["build-map", "--data", data, "--out", str(idx)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert "range_rows/range_cols must be <= 65535" in err
    assert not idx.exists()


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
    if defect == "missing":  # reported where the last record ends
        message += f" at byte {os.path.getsize(target)}$"
    if defect == "name":  # a tensor name that is not UTF-8
        with open(target, "rb") as fh:
            data = bytearray(fh.read())
        bad = data.index(b"att.bilinear") + 1
        data[bad] = 0xFF
        with open(target, "wb") as fh:
            fh.write(data)
        message = f"tensor name not UTF-8 at byte {bad}$"
    with pytest.raises(FormatError, match=message):
        loader(target)
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


def test_nonfinite_checkpoint_value_is_data_error(workspace, tmp_path,
                                                  capsys):
    """A NaN weight is named with its tensor and byte, and neither
    build-map nor match reads past it."""
    args, artifacts = artifact_copies(workspace, tmp_path)
    target, loader = artifacts["ckpt"]
    params, cfg = load_checkpoint(target)
    params.att.bilinear[1, 2] = np.nan
    save_checkpoint(target, params, cfg)
    with open(target, "rb") as fh:
        at = fh.read().index(np.array(np.nan, "<f8").tobytes())
    message = f"non-finite value nan of tensor 'att.bilinear' at byte {at}"
    with pytest.raises(FormatError, match=re.escape(message) + "$"):
        loader(target)
    build = ["build-map", "--data", workspace["data"], "--ckpt", target,
             "--out", str(tmp_path / "built" / "map.idx")]
    for command in (args, build):
        capsys.readouterr()
        assert main(command) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "built").exists()


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


def _save_world(root, n_places, with_queries):
    """A dataset of n_places places 40 m apart, each of one point, with one
    empty query per place or none."""
    cfg = Config()
    shape = (cfg.range_rows, frustum_window(cfg.range_cols)[1])
    obs = QueryObservation(np.zeros((*shape, QUERY_CHANNELS)),
                           np.zeros(shape, dtype=bool),
                           np.zeros(shape, dtype=np.uint16))
    places = [(pid, np.array([40.0 * pid, 0.0, 0.0]))
              for pid in range(n_places)]
    save_dataset(root, cfg, places,
                 [LabeledPointCloud(pos + [5.0, 0.0, 0.0], [1])
                  for _, pos in places],
                 [Pose(np.eye(3), pos) for _, pos in places],
                 [QueryRecord(pid, pid, 0.0, 0.0, pos, obs)
                  for pid, pos in places] if with_queries else [])


# world: (places, whether each place has a query)
DEGENERATE = {"no-places": (0, False), "one-place": (1, True),
              "no-queries": (3, False), "empty-index": (0, False)}


@pytest.mark.parametrize("world", list(DEGENERATE))
def test_degenerate_world_is_data_error(tmp_path, capsys, world):
    """Training needs two places and a query, and matching needs an index
    entry: short of that, a command prints one error line and exits 2."""
    data = str(tmp_path / "data")
    _save_world(data, *DEGENERATE[world])
    if world == "empty-index":
        idx = str(tmp_path / "map.idx")
        assert main(["build-map", "--data", data, "--out", idx]) == EXIT_OK
        runs = [["match", "--index", idx, "--queries", data,
                 "--out", str(tmp_path / "r.csv")],
                ["bench", "--index", idx, "--queries", data, "--repeat", "1",
                 "--out", str(tmp_path / "bench.csv")]]
    else:
        train_args = _train_args(data, tmp_path)
        runs = [train_args, train_args + ["--batch-size", "2"]]
    for args in runs:
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "model.ckpt").exists()


def test_bench_writes_stage_csv(workspace, tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--index", workspace["idx"], "--queries",
                 workspace["data"], "--data", workspace["data"],
                 "--repeat", "3", "--out", out]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    stages = {r["stage"] for r in rows}
    assert {"query_encode", "match", "total", "viewpoint_describe"} <= stages
    assert {"project", "render_place", "normals", "encode"} <= stages
    for r in rows:
        assert float(r["mean_ms"]) >= 0.0
        assert float(r["p95_ms"]) >= float(r["median_ms"]) >= 0.0


@pytest.mark.parametrize("world", ["no-places", "missing"])
def test_bench_checks_data_before_timing(workspace, tmp_path, capsys,
                                         monkeypatch, world):
    """`bench --data` reads its dataset first: one with no place to render,
    or none at all, exits 2 before any query is timed or any output
    directory is made."""
    data = str(tmp_path / "data")
    if world == "no-places":
        _save_world(data, 0, False)

    def work(*args, **kwargs):
        raise WorkStarted("bench")

    monkeypatch.setattr(cli, "describe_query", work)
    out = tmp_path / "out"
    assert main(["bench", "--index", workspace["idx"], "--queries",
                 workspace["data"], "--data", data, "--repeat", "2",
                 "--out", str(out / "bench.csv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_bench_rejects_no_repeats(workspace, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--index", workspace["idx"], "--queries",
                 workspace["data"], "--repeat", "0",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--repeat" in err and "Traceback" not in err
    assert not out.exists()


def test_selfcheck_passes(capsys):
    assert main(["selfcheck", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selfcheck passed" in out
    assert "FAIL" not in out


def test_selfcheck_detects_corrupted_gradient(capsys):
    assert main(["selfcheck", "--seed", "0",
                 "--corrupt-gradient"]) == EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv, unbuffered", [
    (["selfcheck", "--seed", "1"], ""), (["selfcheck", "--seed", "1"], "1"),
    (["--help"], "")], ids=["selfcheck-buffered", "selfcheck-unbuffered",
                           "help-buffered"])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    """`xpr selfcheck | true`: once stdout's reader has closed the pipe, the
    command prints no traceback and exits EXIT_PIPE, whether its lines are
    written as printed or at the final flush. (An unbuffered `--help` exits
    0: argparse drops its own failed write.)"""
    read, write = os.pipe()
    os.close(read)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "xpr.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_PIPE
    assert proc.stderr == b""
