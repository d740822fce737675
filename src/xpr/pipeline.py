"""Wiring between datasets, the descriptor model, and the matcher."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import describe_query, netvlad
from .config import Config
from .encoder import encode_lidar_local
from .io_datasets import Dataset
from .losses import TrainTable, train_table
from .matching import MapIndex, MatchResult, match_query
from .model import ModelParams
from .projection import frustum_window, semantic_context
from .viewpoints import make_viewpoints, render_viewpoints


@dataclass
class PlaceRenders:
    place_id: int
    position: np.ndarray
    cells: list            # (n, C) valid cells of viewpoint k
    labels: np.ndarray     # (n_viewpoints, H, W) label images
    counts: np.ndarray     # (n_viewpoints, n_classes) classes of filled cells


def render_places(dataset: Dataset, cfg: Config) -> list:
    """Render every place's viewpoints, in yaw order, as one stack and
    encode it in one call, cut into per-viewpoint cell blocks at the
    viewpoints' filled-cell counts."""
    out = []
    k = cfg.n_classes
    for (pid, pos), cloud, anchor in zip(dataset.places, dataset.clouds,
                                         dataset.poses):
        rng_img, labels = render_viewpoints(cloud, make_viewpoints(anchor, cfg),
                                            cfg)
        # the encode takes the filled cells image by image, row-major
        filled = np.flatnonzero(rng_img.depth > 0.0)
        view = filled // labels[0].size
        counts = np.bincount(view * k + labels.take(filled),
                             minlength=len(labels) * k).reshape(-1, k)
        cells = np.split(encode_lidar_local(rng_img, labels, cfg),
                         np.cumsum(counts.sum(axis=1)[:-1]))
        out.append(PlaceRenders(pid, pos, cells, labels, counts))
    return out


def build_index(dataset: Dataset, params: ModelParams, cfg: Config,
                renders: list | None = None) -> MapIndex:
    """Describe every (place, viewpoint) pair into a searchable index of its
    descriptor and frontal window, with the semantic context of the 360-degree
    renders."""
    renders = renders if renders is not None else render_places(dataset, cfg)
    descriptors = [netvlad(x, params.vlad).values for pr in renders
                   for x in pr.cells]
    c0, width = frustum_window(cfg.range_cols)
    windows = [pr.labels[:, :, c0:c0 + width] for pr in renders]
    return MapIndex([(pr.place_id, pr.position) for pr in renders],
                    np.reshape(descriptors, (-1, cfg.descriptor_dim)),
                    np.reshape(windows, (-1, cfg.range_rows, width)),
                    _context(renders, cfg), cfg)


def match_dataset_queries(dataset_queries: list, index: MapIndex,
                          params: ModelParams, cfg: Config) -> list:
    """Match every query record against the index; returns MatchResults in
    query order, using the database-average semantic context."""
    context = index.mean_histogram()
    results = []
    for q in dataset_queries:
        desc, pred = describe_query(q.obs, params.enc, params.att, params.vlad,
                                    context)
        results.append(match_query(desc, pred, index, cfg, query_id=q.query_id))
    return results


def training_set(dataset: Dataset, cfg: Config,
                 renders: list | None = None) -> TrainTable:
    """The training table of a dataset: each place's queries and viewpoint
    cells, place-major in render order, and the mean class histogram
    of all viewpoints as the semantic context."""
    renders = renders if renders is not None else render_places(dataset, cfg)
    queries: dict = {pr.place_id: [] for pr in renders}
    for q in dataset.queries:
        queries[q.place_id].append((q.obs, q.heading))
    return train_table([(queries[pr.place_id], pr.cells) for pr in renders],
                       _context(renders, cfg), cfg)


def _context(renders: list, cfg: Config) -> np.ndarray:
    """The semantic context of every viewpoint's 360-degree render, from the
    class counts of its filled cells (an empty cell is void)."""
    return semantic_context(np.reshape([pr.counts for pr in renders],
                                       (-1, cfg.n_classes)))
