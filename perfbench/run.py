"""Benchmark launcher: run one xpr workload and print its metrics.

    python3 perfbench/run.py --workload w100-query --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload once, untraced, and prints the end-to-end
metrics. --trace 1 runs it untraced and then traced, each in a fresh process,
and prints the per-layer metrics with the tracing overhead (traced minus
untraced time per operation). The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

xpr is imported from src/ of this checkout; nothing is installed. BLAS is
pinned to one thread here, before the worker process imports numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
#: the whole run, both processes included, must end inside 180 s
DEADLINE_S = 170.0


def run_worker(args, trace: int, seconds: float, out_dir: str,
               deadline: float) -> dict:
    out = os.path.join(out_dir, f"{args.workload}-trace{trace}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    if args.world_seed is not None:
        cmd += ["--world-seed", str(args.world_seed)]
    if args.tiny:
        cmd.append("--tiny")
    # subprocess.run kills the worker and waits for it on timeout
    subprocess.run(cmd, env={**os.environ, **PINNED}, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report(rec: dict) -> None:
    env = rec["environment"]
    installed = env["xpr_installed_version"]
    print(f"[{rec['workload']['name']} trace={rec['trace']}] python "
          f"{env['python']}, numpy {env['numpy']}, blas {env['blas']} "
          f"threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, nproc "
          f"{env['nproc']}, kernels {env['kernels_backend']}, numba "
          f"{'present' if env['numba_importable'] else 'absent'}, xpr "
          f"{'installed ' + installed if installed else 'not installed'}"
          f" (imported from {env['xpr_imported_from']})")
    print("  samples: " + ", ".join(f"{k} {v}" for k, v in rec["counts"].items()))
    if "wall" in rec:
        print("  wall clock: " + ", ".join(
            f"{k} {v:.4g}" for k, v in rec["wall"].items()))
    for name, ph in rec["phases"].items():
        line = (f"  {name}: attempted {ph['attempted']}, succeeded "
                f"{ph['succeeded']}, failed {ph['failed']}")
        print(line + (f" -- {ph['errors']}" if ph["errors"] else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="xpr benchmark launcher")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="chooses the timed query order and the oracle sample")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--world-seed", type=int, default=None,
                    help="override the workload's world seed")
    ap.add_argument("--tiny", action="store_true",
                    help="four-place world, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "xpr", "__init__.py")):
        print(f"error: no xpr sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        runs = [run_worker(args, 0, args.seconds, out_dir, deadline)]
        if args.trace:
            # the traced run executes the fixed minimum plan (--seconds 0)
            runs.append(run_worker(args, 1, 0, out_dir, deadline))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    for rec in runs:
        report(rec)

    if args.trace:
        metrics = dict(runs[1]["per_layer"])
        untraced, traced = runs[0]["root_means_ms"], runs[1]["root_means_ms"]
        for root in traced:
            metrics[f"trace.{root}.untraced_ms_per_op"] = (untraced[root], "ms")
            metrics[f"trace.{root}.overhead_ms_per_op"] = (
                traced[root] - untraced[root], "ms")
    else:
        metrics = runs[0]["end_to_end"]
    attempted = sum(ph["attempted"] for rec in runs for ph in rec["phases"].values())
    failed = sum(ph["failed"] for rec in runs for ph in rec["phases"].values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": _fmt(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
