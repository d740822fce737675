"""Run one benchmark workload in this process and write its result as JSON.

Launched by run.py, which pins BLAS to one thread before this process starts.
The operations, each timed from the benchmark's side of the call:

  setup      world synthesis, dataset write + read, warm-up (repeated)
  build_map  load_dataset -> render_places -> build_index -> save_index
  train      losses.train for the workload's epoch count
  index_load load_index of the map the queries use (save/load round trip)
  query      describe_query + match_query, one client, closed loop

After setup, build_map, train and query operations are interleaved in
proportion to the workload's time shares until --seconds have passed and
each has reached its minimum count; --seconds 0 runs just the minimum plan,
which the traced run uses so that its call counts repeat. Every output is
checked, and a mismatch or exception counts as one failed operation.
The untraced run keeps a reference clock (refclock.py) going throughout and
reports each operation's cost in its ref units as well as in seconds.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import xpr  # noqa: E402
from xpr import (aggregation, autodiff, io_datasets, kernels, losses,  # noqa: E402
                 matching, pipeline, synth, viewpoints)
from xpr.config import Config, validate_config  # noqa: E402
from xpr.io_datasets import Dataset  # noqa: E402
from xpr.model import init_model_params  # noqa: E402
from xpr.projection import frustum_window  # noqa: E402
from xpr.selfcheck import iou_reference  # noqa: E402

from refclock import REF_S, RefClock  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, make_queries, tiny  # noqa: E402

#: root spans the benchmark opens around each user-level operation
ROOTS = ("setup", "build_map", "train", "index_load", "query")
ACCOUNTED = ("setup", "build_map", "train", "query")
SETUP_REPEATS = 5
MIN_BUILDS = 2          # repeated builds are compared byte for byte
MIN_TRAIN_CALLS = 2     # repeated training calls are compared bit for bit


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _s, files in os.walk(path) for f in files)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


#: (owner, attribute, span name, note) -- each function is wrapped at the
#: name its caller looks up, so module-internal calls are traced too
LAYERS = (
    (viewpoints, "crop_to_radius", "viewpoints.crop_to_radius",
     lambda a, k, r: (a[0].count, r.count)),
    (viewpoints, "project_spherical", "projection.project_spherical",
     lambda a, k, r: (a[0].count, int(np.count_nonzero(r[0].depth)))),
    (viewpoints, "estimate_normals", "projection.estimate_normals", None),
    (pipeline, "encode_lidar_local", "encoder.encode_lidar_local", None),
    (pipeline, "netvlad", "aggregation.netvlad",
     lambda a, k, r: int(r.flagged)),
    (pipeline, "render_places", "pipeline.render_places", None),
    (pipeline, "build_index", "pipeline.build_index", None),
    (matching, "match_query", "matching.match_query", None),
    (matching, "semantic_overlap", "matching.semantic_overlap", None),
    (matching, "geometric_similarity", "matching.geometric_similarity", None),
    (aggregation, "encode_query", "encoder.encode_query", None),
    (aggregation, "semantic_attention", "aggregation.semantic_attention", None),
    (aggregation, "describe_query", "aggregation.describe_query", None),
    (losses, "train", "losses.train", None),
    (losses, "total_loss", "losses.total_loss", None),
    (losses, "contrastive_tape", "losses.contrastive_tape", None),
    (losses, "class_means_tape", "losses.class_means_tape", None),
    (losses, "segmentation_tape", "losses.segmentation_tape", None),
    (losses, "describe_query_tape", "aggregation.describe_query_tape", None),
    (losses, "describe_lidar_tape", "aggregation.describe_lidar_tape",
     lambda a, k, r: id(a[0])),
    (autodiff.Tensor, "backward", "autodiff.Tensor.backward", None),
    (io_datasets, "save_index", "io_datasets.save_index", _file_bytes),
    (io_datasets, "load_index", "io_datasets.load_index", _file_bytes),
    (io_datasets, "save_dataset", "io_datasets.save_dataset",
     lambda a, k, r: _dir_bytes(a[0])),
    (io_datasets, "load_dataset", "io_datasets.load_dataset",
     lambda a, k, r: _dir_bytes(a[0])),
)


class Phase:
    """Attempted / failed operation counts and the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op):
        """Call op(), which returns an error string or None; exceptions fail."""
        self.attempted += 1
        try:
            error = op()
        except Exception as exc:  # every exception is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def as_dict(self):
        return {"attempted": self.attempted,
                "succeeded": self.attempted - self.failed,
                "failed": self.failed, "errors": self.errors}


def _digest_dir(path) -> str:
    h = hashlib.sha256()
    for d, _dirs, files in sorted(os.walk(path)):
        for f in sorted(files):
            full = os.path.join(d, f)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _digest_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same_params(a, b) -> bool:
    ta, tb = a.tensors(), b.tensors()
    return ta.keys() == tb.keys() and all(
        np.array_equal(np.asarray(ta[k]), np.asarray(tb[k])) for k in ta)


def _same_result(a, b) -> bool:
    return (a.best_place_id == b.best_place_id
            and a.best_viewpoint == b.best_viewpoint
            and a.ranked == b.ranked)


def reference_ranking(desc, pred, index, cfg):
    """Brute-force ranking: descriptor dot plus the scalar-loop IoU, best
    viewpoint per place, ties to the smaller place id then viewpoint."""
    best = {}
    for e in index.entries:
        c0, width = frustum_window(e.sem_image.cols)
        window = e.sem_image.labels[:, c0:c0 + width]
        psi = iou_reference(pred.labels, window, cfg.n_classes)
        phi = float(desc.values @ e.descriptor.values)
        sim = cfg.alpha * phi + cfg.beta * psi
        cur = best.get(e.place_id)
        if cur is None or sim > cur[0] or (sim == cur[0] and e.viewpoint < cur[1]):
            best[e.place_id] = (sim, e.viewpoint)
    return sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))


def _p95(samples) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        installed = importlib.metadata.version("xpr")
    except importlib.metadata.PackageNotFoundError:
        installed = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernels_backend": kernels.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "xpr_installed_version": installed,
        "xpr_imported_from": os.path.relpath(os.path.dirname(xpr.__file__), ROOT),
    }


class Run:
    def __init__(self, w, seed, seconds, tracer, work, clock=None):
        self.w = w
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.clock = clock
        self.rng = np.random.default_rng(seed)
        self.phases = {name: Phase() for name in ROOTS + ("oracle",)}
        # (start, end) perf_counter of each operation; samples and ref_samples
        # are derived from them once the run has ended
        self.intervals = {name: [] for name in ROOTS}
        self.samples = self.ref_samples = None

    def _timed(self, root, fn):
        t0 = time.perf_counter()
        with self.tracer.span(root):
            out = fn()
        self.intervals[root].append((t0, time.perf_counter()))
        return out

    def finish(self):
        """Seconds per operation, the reference clock's readings taken back
        out, and (with a clock) the same in ref units."""
        busy = self.clock.busy if self.clock else lambda t0, t1: 0.0
        self.samples = {r: [t1 - t0 - busy(t0, t1) for t0, t1 in iv]
                        for r, iv in self.intervals.items()}
        if self.clock:
            self.ref_samples = {
                r: [s / self.clock.unit(t0, t1)
                    for s, (t0, t1) in zip(self.samples[r], iv)]
                for r, iv in self.intervals.items()}

    # ------------------------------------------------------------- setup
    def setup_once(self, i):
        w = self.w
        root = os.path.join(self.work, f"data{i}")

        def synthesize():
            cfg = validate_config(Config(seed=w.world_seed))
            world = synth.generate_world(w.places, w.world_seed, cfg,
                                         density=w.density,
                                         aliased_pairs=w.aliased)
            clouds = [synth.canonical_cloud(world, p.place_id)
                      for p in world.places]
            poses = [synth.anchor_pose(world, p.place_id) for p in world.places]
            queries = make_queries(world, cfg, 400, w.queries_per_place, w.noise)
            held = (make_queries(world, cfg, w.eval_stream, w.queries_per_place,
                                 w.noise) if w.eval_stream is not None else None)
            places = [(p.place_id, p.position) for p in world.places]
            io_datasets.save_dataset(root, cfg, places, clouds, poses, queries,
                                     provenance=f"perfbench {w.name}")
            dataset = io_datasets.load_dataset(root)
            self.warm_up(dataset)
            return dataset, held

        dataset, held = self._timed("setup", synthesize)
        digest = _digest_dir(root)
        if i == 0:
            self.data_dir, self.dataset, self.held = root, dataset, held
            self.data_digest = digest
            return None
        shutil.rmtree(root)
        if digest != self.data_digest:
            return f"setup {i}: dataset bytes differ from setup 0"
        return None

    def warm_up(self, dataset):
        """Touch every query-path function once on a one-place index."""
        cfg = dataset.config
        params = init_model_params(cfg)
        one = Dataset(dataset.root, cfg, dataset.class_map, dataset.places[:1],
                      dataset.clouds[:1], dataset.poses[:1], [], dataset.meta)
        index = pipeline.build_index(one, params, cfg)
        q = dataset.queries[0]
        desc, pred = aggregation.describe_query(q.obs, params.enc, params.att,
                                                params.vlad,
                                                index.mean_histogram())
        matching.match_query(desc, pred, index, cfg, query_id=q.query_id)

    # ------------------------------------------------------------- build
    def build_op(self, params, path):
        """One full map build; the first one's renders become the training
        set, so training never re-renders."""
        def build():
            ds = io_datasets.load_dataset(self.data_dir)
            renders = pipeline.render_places(ds, ds.config)
            index = pipeline.build_index(ds, params, ds.config, renders=renders)
            io_datasets.save_index(path, index)
            return ds, renders

        ds, renders = self._timed("build_map", build)
        if self.train_set is None:
            self.train_set = pipeline.training_set(ds, ds.config, renders=renders)
        digest = _digest_file(path)
        self.build_digests.setdefault(path, digest)
        if digest != self.build_digests[path]:
            return f"build {len(self.intervals['build_map'])}: index bytes differ"
        return None

    # ------------------------------------------------------------- train
    def train_op(self):
        params, history = self._timed(
            "train", lambda: losses.train(self.train_set, self.dataset.config,
                                          self.w.epochs, self.w.lr))
        if not all(math.isfinite(h.l_total) for h in history):
            return "non-finite training loss"
        if self.first_params is None:
            self.first_params = params
        elif not _same_params(params, self.first_params):
            return f"train {len(self.intervals['train'])}: parameters differ"
        return None

    # ------------------------------------------------------------- query
    def prepare_queries(self):
        """Pick the query model, then load its index from disk."""
        if self.w.model_epochs:
            # train the query model (untimed), then describe the queried map
            # with it
            def fit():
                self.query_params, history = losses.train(
                    self.train_set, self.dataset.config, self.w.model_epochs,
                    self.w.lr)
                if not all(math.isfinite(h.l_total) for h in history):
                    return "non-finite loss training the query model"
                return None

            gc.collect()
            self.phases["train"].run(fit)
            gc.collect()
            path = os.path.join(self.work, "map-trained.idx")
            self._step("build_map", lambda: self.build_op(self.query_params, path))
        else:
            self.query_params, path = self.params0, self.index_path
        self.index_bytes = os.path.getsize(path)

        def load():
            index = self._timed("index_load", lambda: io_datasets.load_index(path))
            resaved = os.path.join(self.work, "resaved.idx")
            io_datasets.save_index(resaved, index)
            self.index = index
            if _digest_file(resaved) != _digest_file(path):
                return "index bytes change across a save/load round trip"
            return None

        self.phases["index_load"].run(load)
        self.context = self.index.mean_histogram()
        self.pool = self.held if self.held is not None else self.dataset.queries

    def query_op(self):
        if not self.order:
            self.order.extend(self.rng.permutation(len(self.pool)).tolist())
        q = self.pool[self.order.pop()]
        p, index, cfg = self.query_params, self.index, self.dataset.config

        def query():
            desc, pred = aggregation.describe_query(q.obs, p.enc, p.att, p.vlad,
                                                    self.context)
            return desc, pred, matching.match_query(desc, pred, index, cfg,
                                                    query_id=q.query_id)

        desc, pred, res = self._timed("query", query)
        self.query_ids.append(q.query_id)
        seen = self.first.get(q.query_id)
        if seen is None:
            self.first[q.query_id] = (desc, pred, res)
        elif not _same_result(res, seen[2]):
            return f"query {q.query_id}: ranking differs on re-issue"
        return None

    def oracle_phase(self):
        cfg = self.dataset.config
        ids = sorted(self.first)
        pick = self.rng.choice(len(ids), size=min(self.w.oracle_queries, len(ids)),
                               replace=False)
        for j in sorted(pick.tolist()):
            desc, pred, res = self.first[ids[j]]

            def check(desc=desc, pred=pred, res=res, qid=ids[j]):
                ref = reference_ranking(desc, pred, self.index, cfg)
                if [pid for pid, _ in res.ranked] != [pid for pid, _ in ref]:
                    return f"query {qid}: ranking differs from the brute-force reference"
                if (res.best_place_id, res.best_viewpoint) != (ref[0][0], ref[0][1][1]):
                    return f"query {qid}: best viewpoint differs from the reference"
                return None

            self.phases["oracle"].run(check)

    # ------------------------------------------------------------- schedule
    def _step(self, phase, op):
        heavy = phase != "query"
        if heavy:
            # autodiff tapes are cyclic garbage: collect around every build
            # and training call, so no query pays for collecting a training
            # tape and peak memory does not depend on when the collector runs
            gc.collect()
        t0 = time.perf_counter()
        self.phases[phase].run(op)
        self.last[phase] = time.perf_counter() - t0
        self.used[phase] += self.last[phase]
        if heavy:
            gc.collect()

    def execute(self):
        w = self.w
        t_start = time.perf_counter()
        self.phases["setup"].run(lambda: self.setup_once(0))
        self.params0 = init_model_params(self.dataset.config)
        self.index_path = os.path.join(self.work, "map.idx")
        self.build_digests, self.first_params, self.train_set = {}, None, None
        self.first, self.query_ids, self.order = {}, [], []
        self.used = {"setup": 0.0, "build_map": 0.0, "train": 0.0, "query": 0.0}
        self.last = dict(self.used)
        ops = {"build_map": lambda: self.build_op(self.params0, self.index_path),
               "train": self.train_op, "query": self.query_op}

        t_measure = time.perf_counter()
        deadline = t_measure + self.seconds
        # the other set-ups are spread evenly over the run, so that their
        # median samples the whole run as the other metrics do
        setups_due = [t_measure + self.seconds * k / SETUP_REPEATS
                      for k in range(1, SETUP_REPEATS)]

        def setup_step():
            setups_due.pop(0)
            i = SETUP_REPEATS - 1 - len(setups_due)
            self._step("setup", lambda: self.setup_once(i))

        # the first build renders the training set
        self._step("build_map", ops["build_map"])
        self.prepare_queries()

        # training the query model and building its map count in the same
        # phases; the checks need two timed training calls and two builds of
        # the same map
        extra = 1 if w.model_epochs else 0
        minimum = {"build_map": MIN_BUILDS + extra,
                   "train": MIN_TRAIN_CALLS + extra,
                   "query": max(w.min_queries, len(self.pool))}
        shares = {"build_map": w.shares["build"], "train": w.shares["train"],
                  "query": w.shares["query"]}
        # interleave the phases in proportion to their time shares, so every
        # metric samples the whole run rather than one stretch of it
        while True:
            now = time.perf_counter()
            if setups_due and now >= setups_due[0]:
                setup_step()
                continue
            ready = [ph for ph in ops
                     if self.phases[ph].attempted < minimum[ph]
                     or now + self.last[ph] <= deadline]
            if not ready:
                break
            phase = min(ready, key=lambda ph: self.used[ph] / shares[ph])
            self._step(phase, ops[phase])
        while setups_due:
            setup_step()
        t_oracle = time.perf_counter()
        self.oracle_phase()
        self.stage_wall_s = {"setup": t_measure - t_start,
                             "measure": t_oracle - t_measure,
                             "oracle": time.perf_counter() - t_oracle}

    def recall(self) -> float:
        results = [self.first[q.query_id][2] for q in self.pool]
        gt = [(q.query_id, q.gt_position) for q in self.pool]
        return matching.recall_at_k(results, self.index, gt, 1,
                                    self.dataset.config)

    def end_to_end(self) -> dict:
        """Operation costs in ref units (see refclock.py), exact sizes and
        counts, and the set-up cost converted to seconds at REF_S per ref."""
        ref = self.ref_samples
        # each query's cost is the mean over its issues, which are spread
        # over the whole run; p50 is the median query
        per_query = {}
        for qid, cost in zip(self.query_ids, ref["query"]):
            per_query.setdefault(qid, []).append(cost)
        n_entries = len(self.index.entries)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "query_p50_ref": (statistics.median(
                statistics.fmean(c) for c in per_query.values()), "ref"),
            "query_p95_ref": (_p95(ref["query"]), "ref"),
            "build_map_ref": (statistics.median(ref["build_map"]), "ref"),
            "train_epoch_ref": (statistics.median(ref["train"])
                                / self.w.epochs, "ref"),
            "r1_pct": (self.recall(), "%"),
            "index_bytes_per_entry": (self.index_bytes / n_entries, "B"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "setup_s": (statistics.median(ref["setup"]) * REF_S, "s"),
        }

    def wall(self) -> dict:
        """The same operations in wall-clock time, for the log."""
        q_ms = [s * 1e3 for s in self.samples["query"]]
        units_ms = sorted(t * 1e3 for t in self.clock.times)
        return {
            "query_ms_p50": statistics.median(q_ms),
            "query_ms_p95": _p95(q_ms),
            "queries_per_s": len(q_ms) / sum(self.samples["query"]),
            "build_map_s": statistics.median(self.samples["build_map"]),
            "train_epoch_s": statistics.median(self.samples["train"]) / self.w.epochs,
            "setup_s": statistics.median(self.samples["setup"]),
            "ref_ms_p10": units_ms[len(units_ms) // 10],
            "ref_ms_p50": statistics.median(units_ms),
            "ref_ms_p90": units_ms[len(units_ms) * 9 // 10],
            "ref_readings": len(units_ms),
        }

    def counts(self) -> dict:
        return {"query_samples": len(self.samples["query"]),
                "builds": len(self.samples["build_map"]),
                "train_calls": len(self.samples["train"]),
                "epochs_per_call": self.w.epochs,
                "setups": len(self.samples["setup"]),
                "index_entries": len(self.index.entries),
                "eval_queries": len(self.pool)}

    def root_means_ms(self) -> dict:
        return {r: 1e3 * statistics.fmean(self.samples[r])
                for r in ACCOUNTED if self.samples[r]}


def per_layer(tracer: Tracer, run: Run) -> dict:
    """Calls, total self ms and per-call p50 per layer, plus exact counts.

    Only spans inside the benchmark's root operations count; calls the
    output checks make are left out.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    root = tracer.roots()
    kept = [i for i in range(len(spans)) if spans[root[i]][0] in ROOTS]
    by_name = {}
    for i in kept:
        by_name.setdefault(spans[i][0], []).append(i)

    out = {}
    for _owner, _attr, name, _note in LAYERS:
        idx = by_name.get(name, [])
        durations = [(spans[i][2] - spans[i][1]) * 1e3 for i in idx]
        out[f"{name}.calls"] = (len(idx), "count")
        out[f"{name}.total_ms"] = (sum(self_t[i] for i in idx) * 1e3, "ms")
        out[f"{name}.p50_ms"] = (statistics.median(durations) if durations
                                 else 0.0, "ms")

    def in_root(name, root_name):
        return [i for i in by_name.get(name, [])
                if spans[root[i]][0] == root_name]

    n_builds = len(run.samples["build_map"])
    crop = [spans[i][4] for i in in_root("viewpoints.crop_to_radius", "build_map")]
    proj = [spans[i][4] for i in in_root("projection.project_spherical", "build_map")]
    out["viewpoints.crop_to_radius.points_in"] = (
        sum(c[0] for c in crop) // n_builds, "count")
    out["viewpoints.crop_to_radius.points_kept"] = (
        sum(c[1] for c in crop) // n_builds, "count")
    out["projection.cells_filled"] = (sum(c[1] for c in proj) // n_builds, "count")
    out["projection.fill_ratio"] = (
        sum(c[1] for c in proj) / max(1, sum(c[0] for c in proj)), "ratio")
    flagged = [spans[i][4] for i in in_root("aggregation.netvlad", "build_map")]
    out["aggregation.netvlad.flagged"] = (sum(flagged) // n_builds, "count")
    n_queries = len(run.samples["query"])
    out["matching.entries_scored"] = (
        len(in_root("matching.geometric_similarity", "query")) // n_queries,
        "count")

    # describe_lidar_tape per epoch: total_loss runs once per full-batch epoch
    epochs = by_name.get("losses.total_loss", [])
    lidar = by_name.get("aggregation.describe_lidar_tape", [])
    maps = {}
    for i in lidar:
        maps.setdefault(spans[i][3], set()).add(spans[i][4])
    out["aggregation.describe_lidar_tape.calls_per_epoch"] = (
        len(lidar) // max(1, len(epochs)), "count")
    out["aggregation.describe_lidar_tape.distinct_maps_per_epoch"] = (
        sum(len(s) for s in maps.values()) // max(1, len(epochs)), "count")
    train_self = sum(self_t[i] for i in by_name.get("losses.train", []))
    out["losses.train.update_ms"] = (
        train_self * 1e3 / max(1, len(epochs)), "ms")

    for name in ("save_index", "load_index", "save_dataset", "load_dataset"):
        notes = [spans[i][4] for i in by_name.get(f"io_datasets.{name}", [])]
        out[f"io_datasets.{name}.bytes"] = (notes[-1] if notes else 0, "B")

    # accounting: traced time per root op = layer self times + root self time
    for r in ACCOUNTED:
        ops = [i for i in kept if i == root[i] and spans[i][0] == r]
        n = max(1, len(ops))
        total = sum(spans[i][2] - spans[i][1] for i in ops)
        own = sum(self_t[i] for i in ops)
        out[f"trace.{r}.ops"] = (len(ops), "count")
        out[f"trace.{r}.traced_ms_per_op"] = (total * 1e3 / n, "ms")
        out[f"trace.{r}.layers_self_ms_per_op"] = ((total - own) * 1e3 / n, "ms")
        out[f"trace.{r}.root_self_ms_per_op"] = (own * 1e3 / n, "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--world-seed", type=int, default=None)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.world_seed is not None:
        w = dataclasses.replace(w, world_seed=args.world_seed)
    if args.tiny:
        w = tiny(w)
    work = os.path.join(HERE, "_work", f"{w.name}-{os.getpid()}")
    os.makedirs(work)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        for owner, attr, name, note in LAYERS:
            tracer.patch(owner, attr, name, note)
    # the traced run gives counts and self times only: no reference clock
    clock = None if args.trace else RefClock()
    run = Run(w, args.seed, args.seconds, tracer, work, clock)
    try:
        if clock:
            clock.start()
        run.execute()
    finally:
        if clock:
            clock.stop()
        if args.trace:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    run.finish()

    record = {
        "workload": dataclasses.asdict(w),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "phases": {k: ph.as_dict() for k, ph in run.phases.items()},
        "counts": run.counts(),
        "stage_wall_s": run.stage_wall_s,
        "root_means_ms": run.root_means_ms(),
        "samples_ms": {k: [round(v * 1e3, 4) for v in vals]
                       for k, vals in run.samples.items()},
        "query_ids": run.query_ids,
    }
    if clock:
        record["ref_samples"] = {k: [round(v, 4) for v in vals]
                                 for k, vals in run.ref_samples.items()}
        record["end_to_end"] = run.end_to_end()
        record["wall"] = run.wall()
    if args.trace:
        record["per_layer"] = per_layer(tracer, run)
        tracer.write(os.path.join(os.path.dirname(args.out),
                                  f"{w.name}.spans.json.gz"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
