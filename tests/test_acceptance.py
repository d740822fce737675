"""End-to-end acceptance gate.

Each test prints one pass/fail line for its criterion. The training-based
criteria share module-scoped fixtures (one synthetic world each) so the
whole file stays inside its runtime budget.
"""
import dataclasses
import filecmp
import math
import os
import time

import numpy as np
import pytest

from xpr import synth
from xpr.cli import EXIT_OK, main
from xpr.config import Config, make_rng
from xpr.io_datasets import (Dataset, load_checkpoint, load_cloud_bin,
                             load_index, load_labels, load_poses,
                             save_checkpoint, save_cloud_bin, save_index,
                             save_labels, save_poses)
from xpr.losses import train
from xpr.matching import match_query, recall_at_k
from xpr.model import init_model_params
from xpr.pipeline import (build_index, match_dataset_queries, render_places,
                          training_set)
from xpr.selfcheck import (check_contrastive_grad,
                           check_netvlad_oracle, check_projection_shift,
                           check_segmentation_grad,
                           check_semantic_consistency_grad,
                           check_sphere_normals, check_total_grad)

CFG = Config()
WORLD_SEED = 11
EVAL_QUERIES_PER_PLACE = 4
HELD_OUT_STREAM = 500  # disjoint from the dataset queries' stream, 400


def verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ------------------------------------------------------------ world plumbing

def make_dataset(queries_per_place, aliased=False):
    """The 16-place density-2.0 acceptance world with noise-0.3 queries."""
    world = synth.generate_world(16, WORLD_SEED, CFG, density=2.0,
                                 aliased_pairs=aliased)
    clouds = [synth.canonical_cloud(world, p.place_id) for p in world.places]
    poses = [synth.anchor_pose(world, p.place_id) for p in world.places]
    queries = synth.make_queries(world, CFG, 400, queries_per_place, 0.3)
    places = [(p.place_id, p.position) for p in world.places]
    return Dataset("", CFG, {}, places, clouds, poses, queries, {}), world


def eval_r1(dataset, params, cfg, renders, queries=None):
    index = build_index(dataset, params, cfg, renders=renders)
    qs = queries if queries is not None else dataset.queries
    results = match_dataset_queries(qs, index, params, cfg)
    return recall_at_k(results, index,
                       [(q.query_id, q.gt_position) for q in qs], 1, cfg)


@pytest.fixture(scope="module")
def plain16():
    ds, world = make_dataset(queries_per_place=2)
    renders = render_places(ds, CFG)
    return {"ds": ds, "world": world, "renders": renders}


@pytest.fixture(scope="module")
def aliased16():
    ds, world = make_dataset(queries_per_place=4, aliased=True)
    renders = render_places(ds, CFG)
    ts = training_set(ds, CFG, renders=renders)
    cfg_nosem = dataclasses.replace(CFG, lambda_sem=0.0)
    # two epoch horizons: the ablation margin is widest mid-training, the
    # noise trend needs the longer, more settled model
    full40, _ = train(ts, CFG, 40, 0.5)
    nosem40, _ = train(ts, cfg_nosem, 40, 0.5)
    full60, _ = train(ts, CFG, 60, 0.5)
    nosem60, _ = train(ts, cfg_nosem, 60, 0.5)
    return {"ds": ds, "world": world, "renders": renders,
            "full40": full40, "nosem40": nosem40,
            "full60": full60, "nosem60": nosem60}


# -------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    checks = [check_contrastive_grad(0, "triplet"),
              check_contrastive_grad(0, "infonce"),
              check_semantic_consistency_grad(0),
              check_segmentation_grad(0),
              check_total_grad(0)]
    elapsed = time.time() - t0
    worst = max(c.max_error for c in checks)
    ok = all(c.passed for c in checks) and elapsed < 60.0
    verdict(1, "gradient correctness", ok,
            f"max rel error {worst:.2e} < 1e-3, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_netvlad_oracle():
    t0 = time.time()
    c = check_netvlad_oracle(0)
    elapsed = time.time() - t0
    ok = c.passed and elapsed < 10.0
    verdict(2, "netvlad oracle equivalence", ok,
            f"max error {c.max_error:.2e} < 1e-10, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_projection_geometry():
    t0 = time.time()
    shift = check_projection_shift(0)
    normals = check_sphere_normals()
    elapsed = time.time() - t0
    ok = shift.passed and normals.passed and elapsed < 30.0
    verdict(3, "projection geometry", ok,
            f"shift error {shift.max_error:.2e}, "
            f"normal error {normals.max_error:.3f} deg < 2, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4

def _iou_by_pair_counts(q, c, n_classes):
    """Mean per-class IoU via joint label-pair counting (inclusion-exclusion),
    an independent formulation of the library's mask-based overlap."""
    if not np.any((q > 0) & (c > 0)):
        return 0.0
    pairs = q.astype(np.int64).ravel() * n_classes + c.astype(np.int64).ravel()
    joint = np.bincount(pairs, minlength=n_classes * n_classes)
    joint = joint.reshape(n_classes, n_classes)
    total, n = 0.0, 0
    for cls in range(1, n_classes):
        inter = joint[cls, cls]
        union = joint[cls].sum() + joint[:, cls].sum() - inter
        if union:
            total += inter / union
            n += 1
    return total / n if n else 0.0


def _reference_ranking(q_desc, q_sem, entries, cfg):
    """Exhaustive max-over-viewpoints ranking with explicit tie-breaks."""
    from xpr.projection import frustum_window
    best = {}
    for e in entries:
        c0, width = frustum_window(e.sem_image.cols)
        window = e.sem_image.labels[:, c0:c0 + width]
        psi = _iou_by_pair_counts(q_sem.labels, window, cfg.n_classes)
        phi = float(q_desc.values @ e.descriptor.values)
        sim = cfg.alpha * phi + cfg.beta * psi
        cur = best.get(e.place_id)
        if cur is None or sim > cur[0] or (sim == cur[0] and e.viewpoint < cur[1]):
            best[e.place_id] = (sim, e.viewpoint)
    return sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))


def test_criterion_4_retrieval_oracle():
    from xpr.aggregation import GlobalDescriptor
    from xpr.matching import MapIndex
    from xpr.projection import (SemanticImage, class_counts, frustum_window,
                                semantic_context)

    t0 = time.time()
    cfg = dataclasses.replace(CFG, n_viewpoints=4, descriptor_dim=16,
                              range_rows=4)
    c0, width = frustum_window(cfg.range_cols)
    mismatches = 0
    for i in range(50):
        rng = make_rng(900, i)
        descs, labels, places = [], [], []
        for pid in range(20):
            places.append((pid, rng.uniform(-100, 100, 3)))
            for k in range(4):
                d = rng.normal(size=cfg.descriptor_dim)
                d /= np.linalg.norm(d)
                # duplicated descriptors force score ties on some instances
                if rng.random() < 0.1 and descs:
                    d = descs[-1].copy()
                descs.append(d)
                labels.append(rng.integers(0, cfg.n_classes,
                                           (4, cfg.range_cols)))
        index = MapIndex(places, descs,
                         np.asarray(labels)[:, :, c0:c0 + width],
                         semantic_context(class_counts(labels, cfg)), cfg)
        entries = index.entries
        qd = rng.normal(size=cfg.descriptor_dim)
        q_desc = GlobalDescriptor(qd / np.linalg.norm(qd))
        q_sem = SemanticImage(rng.integers(0, cfg.n_classes, (4, width))
                              .astype(np.uint16))
        got = match_query(q_desc, q_sem, index, cfg)
        ref = _reference_ranking(q_desc, q_sem, entries, cfg)
        if [pid for pid, _ in got.ranked] != [pid for pid, _ in ref]:
            mismatches += 1
        elif (got.best_place_id, got.best_viewpoint) != (ref[0][0], ref[0][1][1]):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    verdict(4, "retrieval oracle", ok,
            f"{mismatches}/50 ranking mismatches, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_learning_smoke(plain16):
    t0 = time.time()
    ds, renders = plain16["ds"], plain16["renders"]
    baseline = eval_r1(ds, init_model_params(CFG), CFG, renders)
    params, _ = train(training_set(ds, CFG, renders=renders), CFG, 40, 0.3)
    trained = eval_r1(ds, params, CFG, renders)
    elapsed = time.time() - t0
    ok = (trained >= 80.0 and trained - baseline >= 20.0
          and elapsed < 600.0)
    verdict(5, "end-to-end learning", ok,
            f"R@1 {baseline:.2f} -> {trained:.2f}, "
            f"gain {trained - baseline:.2f} >= 20, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_ablation_trend(aliased16):
    t0 = time.time()
    ds, world, renders = (aliased16["ds"], aliased16["world"],
                          aliased16["renders"])
    qs = synth.make_queries(world, CFG, HELD_OUT_STREAM,
                            EVAL_QUERIES_PER_PLACE, 0.3)
    r_full = eval_r1(ds, aliased16["full40"], CFG, renders, queries=qs)
    r_beta0 = eval_r1(ds, aliased16["full40"],
                      dataclasses.replace(CFG, beta=0.0), renders, queries=qs)
    r_nosem = eval_r1(ds, aliased16["nosem40"], CFG, renders, queries=qs)
    elapsed = time.time() - t0
    ok = (r_beta0 <= r_full - 2.0 and r_nosem <= r_full - 2.0
          and elapsed < 900.0)
    verdict(6, "ablation trend", ok,
            f"full {r_full:.2f}, beta=0 {r_beta0:.2f}, "
            f"lambda=0 {r_nosem:.2f}, margins "
            f"{r_full - r_beta0:.2f}/{r_full - r_nosem:.2f} >= 2, "
            f"{elapsed:.0f}s")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_noise_robustness(aliased16):
    t0 = time.time()
    ds, world, renders = (aliased16["ds"], aliased16["world"],
                          aliased16["renders"])
    cfg_min = dataclasses.replace(CFG, beta=0.0)
    sweep, degraded = [], None
    for noise in (0.0, 0.3, 0.6):
        qs = synth.make_queries(world, CFG, HELD_OUT_STREAM,
                                EVAL_QUERIES_PER_PLACE, noise)
        sweep.append(eval_r1(ds, aliased16["full60"], CFG, renders,
                             queries=qs))
        if noise == 0.6:
            degraded = eval_r1(ds, aliased16["nosem60"], cfg_min, renders,
                               queries=qs)
    elapsed = time.time() - t0
    monotone = sweep[0] >= sweep[1] >= sweep[2]
    ok = monotone and sweep[2] >= degraded + 2.0 and elapsed < 900.0
    verdict(7, "noise robustness trend", ok,
            f"R@1 sweep {sweep[0]:.2f}/{sweep[1]:.2f}/{sweep[2]:.2f} "
            f"non-increasing={monotone}, at 0.6 full {sweep[2]:.2f} vs "
            f"stripped {degraded:.2f}, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 8

def _run_cli_pipeline(root):
    data = os.path.join(root, "data")
    idx = os.path.join(root, "map.idx")
    ckpt = os.path.join(root, "model.ckpt")
    results = os.path.join(root, "results.csv")
    assert main(["synth", "--places", "3", "--density", "1.0", "--out", data,
                 "--seed", "21", "--queries-per-place", "1",
                 "--noise", "0.2"]) == EXIT_OK
    assert main(["build-map", "--data", data, "--out", idx]) == EXIT_OK
    assert main(["train", "--data", data, "--epochs", "2", "--lr", "0.05",
                 "--out", ckpt]) == EXIT_OK
    assert main(["match", "--index", idx, "--queries", data, "--ckpt", ckpt,
                 "--out", results]) == EXIT_OK
    return root


def _artifact_files(root):
    out = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".manifest.json"):
                continue  # manifests carry wall-clock timings
            path = os.path.join(dirpath, name)
            out.append(os.path.relpath(path, root))
    return sorted(out)


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    a = _run_cli_pipeline(str(tmp_path / "a"))
    b = _run_cli_pipeline(str(tmp_path / "b"))
    files_a, files_b = _artifact_files(a), _artifact_files(b)
    same_names = files_a == files_b
    diffs = [f for f in files_a
             if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f),
                                shallow=False)] if same_names else files_a
    elapsed = time.time() - t0
    ok = same_names and not diffs and elapsed < 300.0
    verdict(8, "determinism", ok,
            f"{len(files_a)} artifacts bit-identical"
            + (f", diffs: {diffs[:3]}" if diffs else "") + f", {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_round_trips(tmp_path):
    from xpr.core import LabeledPointCloud, Pose, yaw_rotation
    t0 = time.time()
    failures = 0
    n_payloads = 0
    for i in range(40):
        rng = make_rng(1200, i)

        # clouds
        n = int(rng.integers(1, 400))
        cloud = LabeledPointCloud(
            rng.uniform(-80, 80, (n, 3)).astype(np.float32).astype(float),
            rng.integers(0, 8, n).astype(np.uint16))
        p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
        save_cloud_bin(p1, cloud)
        save_cloud_bin(p2, load_cloud_bin(p1))
        failures += not filecmp.cmp(p1, p2, shallow=False)

        # labels
        raw = rng.integers(0, 2 ** 32, n, dtype=np.uint64).astype(np.uint32)
        l1, l2 = tmp_path / "l1.label", tmp_path / "l2.label"
        save_labels(l1, raw)
        relabeled = load_labels(l1, load_cloud_bin(p1),
                                {c: c for c in range(8)})
        save_labels(l2, relabeled.labels.astype(np.uint32))
        back = load_labels(l2, load_cloud_bin(p1), {c: c for c in range(8)})
        failures += not np.array_equal(relabeled.labels, back.labels)

        # poses
        poses = [Pose(yaw_rotation(float(rng.uniform(-math.pi, math.pi))),
                      rng.uniform(-50, 50, 3)) for _ in range(5)]
        q1, q2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        save_poses(q1, poses)
        save_poses(q2, load_poses(q1))
        failures += not filecmp.cmp(q1, q2, shallow=False)

        # index
        from xpr.matching import MapIndex
        from xpr.projection import (class_counts, frustum_window,
                                    semantic_context)
        # label images must have the config's (range_rows, range_cols);
        # the index keeps their frontal windows and their context
        cfg = dataclasses.replace(CFG, n_viewpoints=2, descriptor_dim=8,
                                  range_rows=3, range_cols=5)
        places, descs, labels = [], [], []
        for pid in range(2):
            places.append((pid, rng.uniform(-10, 10, 3)))
            for _ in range(2):
                descs.append(rng.normal(size=8))
                labels.append(rng.integers(0, 8, (cfg.range_rows,
                                                  cfg.range_cols)))
        c0, width = frustum_window(cfg.range_cols)
        i1, i2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(i1, MapIndex(places, descs,
                                np.asarray(labels)[:, :, c0:c0 + width],
                                semantic_context(class_counts(labels, cfg)),
                                cfg))
        save_index(i2, load_index(i1))
        failures += not filecmp.cmp(i1, i2, shallow=False)

        # checkpoint
        ckpt_cfg = dataclasses.replace(CFG, seed=int(rng.integers(1000)))
        k1, k2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(k1, init_model_params(ckpt_cfg), ckpt_cfg)
        params, cfg_back = load_checkpoint(k1)
        save_checkpoint(k2, params, cfg_back)
        failures += not filecmp.cmp(k1, k2, shallow=False)
        n_payloads += 5
    elapsed = time.time() - t0
    ok = failures == 0 and n_payloads == 200 and elapsed < 30.0
    verdict(9, "format round trips", ok,
            f"{failures}/{n_payloads} payload mismatches, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_bench_harness(tmp_path):
    import csv
    t0 = time.time()
    data = str(tmp_path / "data")
    idx = str(tmp_path / "map.idx")
    out = str(tmp_path / "bench.csv")
    assert main(["synth", "--places", "100", "--density", "0.3",
                 "--out", data, "--seed", "31",
                 "--queries-per-place", "1"]) == EXIT_OK
    assert main(["build-map", "--data", data, "--out", idx]) == EXIT_OK
    code = main(["bench", "--index", idx, "--queries", data, "--data", data,
                 "--repeat", "20", "--out", out])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    stages = {r["stage"] for r in rows}
    elapsed = time.time() - t0
    ok = (code == EXIT_OK
          and {"query_encode", "match", "total"} <= stages
          and all(float(r["mean_ms"]) >= 0.0 for r in rows))
    detail = ", ".join(f"{r['stage']} {float(r['mean_ms']):.2f}ms"
                       for r in rows)
    verdict(10, "benchmark harness", ok, f"{detail}, {elapsed:.0f}s")
