"""The benchmark worlds and the per-phase plan each one runs.

Every workload runs all three user paths (map build, training, query) so that
each end-to-end metric exists on each workload; the time split and the model
used for queries are what make one workload stress one layer more than the
others. See README.md for why each world exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    places: int
    density: float
    world_seed: int
    queries_per_place: int
    noise: float
    aliased: bool
    # held-out query stream scored instead of the dataset queries, or None
    eval_stream: int | None
    # epochs the query model is trained for (untimed), or 0 for the seeded init
    model_epochs: int
    # epochs per timed training call
    epochs: int
    lr: float
    # share of --seconds given to each measured phase
    shares: dict
    min_queries: int = 200
    # queries re-ranked by the scalar-loop reference (about 5 ms per entry)
    oracle_queries: int = 3


WORKLOADS = {
    # W100 of ROADMAP criterion 10: 800 index entries, so the scorer dominates
    # query latency; sparse clouds make the build mostly per-cell work
    "w100-query": Workload(
        name="w100-query", places=100, density=0.3, world_seed=31,
        queries_per_place=1, noise=0.0, aliased=False, eval_stream=None,
        model_epochs=0, epochs=1, lr=0.5, oracle_queries=1,
        shares={"build": 0.2, "train": 0.15, "query": 0.65}),
    # the acceptance aliased16 world: training dominates, the index is small
    "a16-train": Workload(
        name="a16-train", places=16, density=2.0, world_seed=11,
        queries_per_place=4, noise=0.3, aliased=True, eval_stream=500,
        model_epochs=8, epochs=2, lr=0.5,
        shares={"build": 0.15, "train": 0.55, "query": 0.3}),
}


def tiny(w: Workload) -> Workload:
    """A few-place version of a workload for the smoke test."""
    return replace(w, places=4, density=min(w.density, 0.5),
                   queries_per_place=min(w.queries_per_place, 2),
                   model_epochs=min(w.model_epochs, 1), epochs=1,
                   min_queries=20, oracle_queries=2)


def make_queries(world, cfg, stream: int, per_place: int, noise: float) -> list:
    """Seeded queries as `xpr synth` draws them: a random viewpoint heading
    per (place, j) from the given stream."""
    from xpr import synth
    from xpr.config import make_rng
    from xpr.io_datasets import QueryRecord
    out, qid = [], 0
    for p in world.places:
        for j in range(per_place):
            qrng = make_rng(world.seed, stream, p.place_id, j)
            k = int(qrng.integers(cfg.n_viewpoints))
            heading = k * 2.0 * math.pi / cfg.n_viewpoints
            obs, gt = synth.make_query(world, p.place_id, heading, noise,
                                       qrng, cfg)
            out.append(QueryRecord(qid, p.place_id, heading, noise, gt, obs))
            qid += 1
    return out
