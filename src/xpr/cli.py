"""Command-line front end: dataset synthesis, map building, matching,
training, evaluation, self-checks, and latency benchmarks."""
from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import math
import os
import sys
import time
from contextlib import contextmanager
import numpy as np

from . import synth
from .aggregation import describe_query, netvlad
from .config import (Config, ConfigError, config_to_json, validate_config,
                     with_overrides)
from .encoder import encode_lidar_local
from .io_datasets import (FormatError, load_checkpoint, load_dataset,
                          load_dataset_config, load_index, load_queries,
                          read_text, save_checkpoint, save_dataset, save_index)
from .losses import TrainingDiverged, train
from .matching import match_query, rank_of_truth, recall_from_ranks
from .model import init_model_params
from .pipeline import (build_index, match_dataset_queries, render_places,
                       training_set)
from .projection import estimate_normals, project_spherical
from .selfcheck import run_all
from .viewpoints import make_viewpoints, render_viewpoints

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3
#: stdout's reader closed it: the status of a process that SIGPIPE ends
EXIT_PIPE = 141

ARTIFACT_VERSION = "0.1.0"
#: config fields that only training reads; a checkpoint may differ in them
TRAINING_ONLY = ("loss_kind", "lambda_sem", "margin", "temperature")
#: the files of a dataset directory that `synth --force` replaces
DATASET_FILES = ("meta.json", "poses.txt", "dataset.manifest.json",
                 os.path.join("velodyne", "*.bin"),
                 os.path.join("labels", "*.label"),
                 os.path.join("queries", "*.qry"))


class CliError(RuntimeError):
    def __init__(self, message: str, code: int = EXIT_DATA):
        super().__init__(message)
        self.code = code


@contextmanager
def output_lock(out_path: str):
    """One CLI instance per output directory, the one that holds out_path."""
    directory = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, ".xpr.lock")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CliError(f"output directory is locked by {path}", EXIT_DATA)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        os.unlink(path)


def write_manifest(out_path: str, command: str, cfg: Config, inputs: dict,
                   outputs: list, timings_ms: dict) -> None:
    manifest = {
        "command": command,
        "config": json.loads(config_to_json(cfg)),
        "inputs": inputs,
        "seed": cfg.seed,
        "artifact_version": ARTIFACT_VERSION,
        "timings_ms": timings_ms,
        "outputs": outputs,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_params(ckpt: str | None, cfg: Config):
    if ckpt is None:
        return init_model_params(cfg)
    params, ck_cfg = load_checkpoint(ckpt)
    if with_overrides(ck_cfg,
                      **{f: getattr(cfg, f) for f in TRAINING_ONLY}) != cfg:
        raise CliError("checkpoint config does not match the dataset config")
    return params


def _match_inputs(args) -> tuple:
    """The index, model, config and queries that `match` and `bench` read;
    the index must have an entry to match against."""
    index = load_index(args.index)
    if not index.places:
        raise CliError(f"{args.index}: the index has no entries")
    cfg = index.config
    params = _load_params(args.ckpt, cfg)
    return index, params, cfg, load_queries(args.queries, cfg)


# ------------------------------------------------------------------ commands

def cmd_synth(args) -> int:
    for flag, low in (("places", 1), ("queries_per_place", 0),
                      ("density", 0), ("noise", 0)):
        if not low <= getattr(args, flag) < math.inf:
            raise CliError(f"--{flag.replace('_', '-')} must be a finite "
                           f"number >= {low}", EXIT_USAGE)
    if not math.isfinite(args.density * synth.GROUND_SIDE ** 2):
        raise CliError(f"--density {args.density} gives a place an infinite "
                       f"number of points", EXIT_USAGE)
    out = args.out
    if os.path.isdir(out) and os.listdir(out) and not args.force:
        raise CliError(f"{out} exists and is not empty (use --force)", EXIT_USAGE)
    cfg = validate_config(Config(seed=args.seed))
    with output_lock(os.path.join(out, "meta.json")):
        t0 = time.perf_counter()
        world = synth.generate_world(args.places, args.seed, cfg,
                                     density=args.density,
                                     aliased_pairs=args.aliased)
        clouds = [synth.canonical_cloud(world, p.place_id)
                  for p in world.places]
        poses = [synth.anchor_pose(world, p.place_id) for p in world.places]
        queries = synth.make_queries(world, cfg, 400, args.queries_per_place,
                                     args.noise)
        places = [(p.place_id, p.position) for p in world.places]
        if args.force:
            for pattern in DATASET_FILES:
                for path in glob.glob(os.path.join(glob.escape(out), pattern)):
                    os.remove(path)
        save_dataset(out, cfg, places, clouds, poses, queries,
                     provenance=f"xpr synth seed={args.seed}")
        write_manifest(os.path.join(out, "dataset"), "synth", cfg,
                       {"places": args.places, "density": args.density,
                        "noise": args.noise, "aliased": args.aliased,
                        "queries_per_place": args.queries_per_place},
                       [out],
                       {"total": (time.perf_counter() - t0) * 1e3})
    return EXIT_OK


def cmd_build_map(args) -> int:
    dataset = load_dataset(args.data)
    cfg = dataset.config
    params = _load_params(args.ckpt, cfg)
    with output_lock(args.out):
        t0 = time.perf_counter()
        renders = render_places(dataset, cfg)
        t1 = time.perf_counter()
        index = build_index(dataset, params, cfg, renders=renders)
        t2 = time.perf_counter()
        save_index(args.out, index)
        t3 = time.perf_counter()
        write_manifest(args.out, "build-map", cfg,
                       {"data": args.data, "ckpt": args.ckpt},
                       [args.out],
                       {"total": (time.perf_counter() - t0) * 1e3,
                        "render": (t1 - t0) * 1e3,
                        "describe": (t2 - t1) * 1e3,
                        "save": (t3 - t2) * 1e3})
    return EXIT_OK


def cmd_match(args) -> int:
    t_load = time.perf_counter()
    index, params, cfg, queries = _match_inputs(args)
    load_ms = (time.perf_counter() - t_load) * 1e3
    with output_lock(args.out):
        t0 = time.perf_counter()
        results = match_dataset_queries(queries, index, params, cfg)
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["query_id", "best_place", "best_k", "sim", "phi",
                        "psi", "rank_of_truth"])
            for q, res in zip(queries, results):
                w.writerow([res.query_id, res.best_place_id,
                            res.best_viewpoint, repr(float(res.score)),
                            repr(float(res.phi)), repr(float(res.psi)),
                            rank_of_truth(res, index, q.gt_position, cfg)])
        write_manifest(args.out, "match", cfg,
                       {"index": args.index, "queries": args.queries,
                        "ckpt": args.ckpt},
                       [args.out],
                       {"total": (time.perf_counter() - t0) * 1e3,
                        "load": load_ms})
    return EXIT_OK


def cmd_train(args) -> int:
    if not 0 < args.lr < math.inf:
        raise CliError("--lr must be a finite number > 0", EXIT_USAGE)
    if args.epochs < 1:
        raise CliError("--epochs must be >= 1", EXIT_USAGE)
    if args.batch_size < 0:
        raise CliError("--batch-size must be >= 0", EXIT_USAGE)
    dataset = load_dataset(args.data)
    if len(dataset.places) < 2 or not dataset.queries:
        raise CliError(f"{args.data}: training needs two places and a query, "
                       f"found {len(dataset.places)} places and "
                       f"{len(dataset.queries)} queries")
    cfg = dataset.config
    if args.loss_kind:
        cfg = with_overrides(cfg, loss_kind=args.loss_kind)
    if args.lambda_sem is not None:
        try:
            cfg = with_overrides(cfg, lambda_sem=args.lambda_sem)
        except ConfigError as exc:
            raise CliError(f"--lambda-sem: {exc}", EXIT_USAGE) from exc
    hist_path = os.path.splitext(args.out)[0] + "_history.csv"
    with output_lock(args.out):
        t0 = time.perf_counter()
        ts = training_set(dataset, cfg)
        table_ms = (time.perf_counter() - t0) * 1e3
        try:
            params, history = train(ts, cfg, args.epochs, args.lr,
                                    batch_size=args.batch_size)
        except TrainingDiverged as exc:
            raise CliError(str(exc), EXIT_DATA) from exc
        save_checkpoint(args.out, params, cfg)
        with open(hist_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "l_contrastive", "l_sem", "l_seg", "l_total"])
            for i, rep in enumerate(history):
                w.writerow([i, repr(rep.l_contrastive), repr(rep.l_sem),
                            repr(rep.l_seg), repr(rep.l_total)])
        write_manifest(args.out, "train", cfg,
                       {"data": args.data, "epochs": args.epochs,
                        "lr": args.lr, "batch_size": args.batch_size},
                       [args.out, hist_path],
                       {"total": (time.perf_counter() - t0) * 1e3,
                        "table": table_ms,
                        "epochs": [rep.wall_ms for rep in history]})
    return EXIT_OK


def _read_ranks(path: str) -> list:
    """The rank_of_truth column of a `match` results file. Text that is not
    UTF-8, or a rank that is missing or not an integer >= 0, is a
    FormatError naming the byte or the line."""
    rows = csv.DictReader(io.StringIO(read_text(path), newline=""))
    ranks = []
    for row in rows:
        value = row.get("rank_of_truth") or ""
        if not (value.isascii() and value.isdigit()):
            raise FormatError(f"{path}: line {rows.line_num}: rank_of_truth "
                              f"{value!r} is not an integer >= 0")
        ranks.append(int(value))
    return ranks


def cmd_eval(args) -> int:
    cfg, _meta = load_dataset_config(args.data)
    try:
        ks = [int(v) for v in args.k.split(",")]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise CliError(f"--k must list integers >= 1, got {args.k!r}", EXIT_USAGE)
    t0 = time.perf_counter()
    ranks = _read_ranks(args.results)
    table = [(k, recall_from_ranks(ranks, k)) for k in ks]
    out = args.out or os.path.splitext(args.results)[0] + "_recall.csv"
    with output_lock(out):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["metric", "value"])
            for k, recall in table:
                w.writerow([f"R@{k}", f"{recall:.2f}"])
        write_manifest(out, "eval", cfg,
                       {"results": args.results, "data": args.data,
                        "k": args.k},
                       [out], {"total": (time.perf_counter() - t0) * 1e3})
    for k, recall in table:
        print(f"R@{k}, {recall:.2f}")
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    t0 = time.perf_counter()
    results = run_all(args.seed, corrupt_gradient=args.corrupt_gradient)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name}: max error {r.max_error:.3e} "
              f"(threshold {r.threshold:.1e}) {status}")
        ok &= r.passed
    print(f"selfcheck {'passed' if ok else 'FAILED'} in "
          f"{time.perf_counter() - t0:.1f}s")
    return EXIT_OK if ok else EXIT_CHECK


def _stats(samples_ms) -> tuple:
    arr = np.sort(np.asarray(samples_ms))
    return (float(arr.mean()), float(np.median(arr)),
            float(arr[min(len(arr) - 1, int(math.ceil(0.95 * len(arr))) - 1)]))


def _stage_timings(args, index, params, cfg, queries, dataset) -> dict:
    """Per-stage wall times in ms of `--repeat` queries and, given the
    `--data` dataset, of up to 50 viewpoint describes, one-pose projections
    and renders of place 0's viewpoints as the map build renders them, and
    of the normals and the LiDAR local encode of that render's (V, H, W)
    stack."""
    context = index.mean_histogram()
    timings = {"query_encode": [], "match": [], "total": []}
    for i in range(args.repeat):
        q = queries[i % len(queries)]
        t0 = time.perf_counter()
        desc, pred = describe_query(q.obs, params.enc, params.att,
                                    params.vlad, context)
        t1 = time.perf_counter()
        match_query(desc, pred, index, cfg, query_id=q.query_id)
        t2 = time.perf_counter()
        timings["query_encode"].append((t1 - t0) * 1e3)
        timings["match"].append((t2 - t1) * 1e3)
        timings["total"].append((t2 - t0) * 1e3)

    if dataset is not None:
        cloud = dataset.clouds[0]
        pose = dataset.poses[0]
        poses = make_viewpoints(pose, cfg)
        rng_img, labels = render_viewpoints(cloud, poses, cfg)
        stages = {
            "viewpoint_describe": lambda: netvlad(encode_lidar_local(
                *render_viewpoints(cloud, [pose], cfg), cfg), params.vlad),
            "project": lambda: project_spherical(cloud, [pose], cfg),
            "render_place": lambda: render_viewpoints(cloud, poses, cfg),
            "normals": lambda: estimate_normals(rng_img, cfg),
            "encode": lambda: encode_lidar_local(rng_img, labels, cfg),
        }
        for stage, work in stages.items():
            timings[stage] = []
            for _ in range(min(args.repeat, 50)):
                t0 = time.perf_counter()
                work()
                timings[stage].append((time.perf_counter() - t0) * 1e3)
    return timings


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise CliError("--repeat must be >= 1", EXIT_USAGE)
    index, params, cfg, queries = _match_inputs(args)
    if not queries:
        raise CliError("no queries to benchmark")
    dataset = load_dataset(args.data) if args.data else None
    if dataset is not None and not dataset.places:
        raise CliError(f"{args.data}: the dataset has no places to render")
    out = args.out or "bench.csv"
    with output_lock(out):
        rows = [(stage, *_stats(vals)) for stage, vals in
                _stage_timings(args, index, params, cfg, queries,
                               dataset).items()]
        with open(out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["stage", "mean_ms", "median_ms", "p95_ms"])
            for stage, mean, median, p95 in rows:
                w.writerow([stage, f"{mean:.4f}", f"{median:.4f}",
                            f"{p95:.4f}"])
        write_manifest(out, "bench", cfg,
                       {"index": args.index, "queries": args.queries,
                        "repeat": args.repeat},
                       [out], {stage: mean for stage, mean, _md, _p in rows})
    for stage, mean, median, p95 in rows:
        print(f"{stage}: mean {mean:.3f} ms, median {median:.3f} ms, "
              f"p95 {p95:.3f} ms")
    return EXIT_OK


# --------------------------------------------------------------- arg parsing

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xpr",
                                description="cross-modal place retrieval pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset")
    s.add_argument("--places", type=int, required=True)
    s.add_argument("--density", type=float, default=4.0)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--queries-per-place", type=int, default=2)
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--aliased", action="store_true",
                   help="pair places with identical geometry, swapped classes")
    s.add_argument("--force", action="store_true")
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("build-map", help="describe map viewpoints into an index")
    s.add_argument("--data", required=True)
    s.add_argument("--ckpt", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_build_map)

    s = sub.add_parser("match", help="match queries against an index")
    s.add_argument("--index", required=True)
    s.add_argument("--queries", required=True)
    s.add_argument("--ckpt", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_match)

    s = sub.add_parser("train", help="train the descriptor model")
    s.add_argument("--data", required=True)
    s.add_argument("--epochs", type=int, default=50)
    s.add_argument("--lr", type=float, default=5e-2)
    s.add_argument("--batch-size", type=int, default=0)
    s.add_argument("--loss-kind", choices=["triplet", "infonce"], default=None)
    s.add_argument("--lambda-sem", type=float, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("eval", help="compute Recall@K from match results")
    s.add_argument("--results", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--k", default="1,5")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("selfcheck", help="run gradient and oracle checks")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--corrupt-gradient", action="store_true",
                   help="debug: corrupt an analytic gradient (must fail)")
    s.set_defaults(func=cmd_selfcheck)

    s = sub.add_parser("bench", help="per-stage latency benchmark")
    s.add_argument("--index", required=True)
    s.add_argument("--queries", required=True)
    s.add_argument("--ckpt", default=None)
    s.add_argument("--data", default=None,
                   help="dataset dir; enables the map-side stage timings")
    s.add_argument("--repeat", type=int, default=1000)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()   # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the only pipe a command writes is stdout: its output is not wanted,
        # and the interpreter's final flush must find somewhere to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
