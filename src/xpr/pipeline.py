"""Wiring between datasets, the descriptor model, and the matcher."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import GlobalDescriptor, describe_query, netvlad
from .config import Config
from .encoder import encode_lidar_local
from .io_datasets import Dataset
from .matching import IndexEntry, MapIndex, MatchResult, match_query
from .model import ModelParams
from .projection import semantic_histogram
from .viewpoints import make_viewpoints, render_viewpoint


@dataclass
class PlaceRenders:
    place_id: int
    position: np.ndarray
    poses: list            # viewpoint Pose per k
    fmaps: list            # LocalFeatureMap per k
    sem_images: list       # SemanticImage per k
    histograms: list       # class histogram per k


def render_places(dataset: Dataset, cfg: Config) -> list:
    """Render all viewpoint images/features for every place, yaw order."""
    out = []
    for (pid, pos), cloud, anchor in zip(dataset.places, dataset.clouds,
                                         dataset.poses):
        vps = make_viewpoints(anchor, cfg)
        fmaps, sems, hists, poses = [], [], [], []
        for pose in vps.poses:
            rng_img, sem_img = render_viewpoint(cloud, pose, cfg)
            fmaps.append(encode_lidar_local(rng_img, sem_img, cfg))
            sems.append(sem_img)
            hists.append(semantic_histogram(sem_img, cfg))
            poses.append(pose)
        out.append(PlaceRenders(pid, pos, poses, fmaps, sems, hists))
    return out


def build_index(dataset: Dataset, params: ModelParams, cfg: Config,
                renders: list | None = None) -> MapIndex:
    """Describe every (place, viewpoint) pair into a searchable index.

    Descriptors are rounded through float32, the precision `map.idx` stores,
    so an index scores the same in memory as after a save and load."""
    renders = renders if renders is not None else render_places(dataset, cfg)
    entries = []
    for pr in renders:
        for k, fmap in enumerate(pr.fmaps):
            desc = netvlad(fmap, params.vlad)
            stored = desc.values.astype(np.float32).astype(np.float64)
            entries.append(IndexEntry(pr.place_id, k, pr.poses[k],
                                      GlobalDescriptor(stored, desc.flagged),
                                      pr.sem_images[k], pr.histograms[k]))
    places = [(pr.place_id, pr.position) for pr in renders]
    return MapIndex(entries, places, cfg).validate()


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


@dataclass
class TrainPlace:
    place_id: int
    position: np.ndarray
    queries: list          # (QueryObservation, heading)
    viewpoint_fmaps: list


@dataclass
class TrainingSet:
    places: list
    context: np.ndarray


def training_set(dataset: Dataset, cfg: Config,
                 renders: list | None = None) -> TrainingSet:
    renders = renders if renders is not None else render_places(dataset, cfg)
    by_place = {pr.place_id: pr for pr in renders}
    queries: dict = {pid: [] for pid in by_place}
    for q in dataset.queries:
        queries[q.place_id].append((q.obs, q.heading))
    places = [TrainPlace(pr.place_id, pr.position, queries[pr.place_id],
                         pr.fmaps) for pr in renders]
    hists = np.array([h for pr in renders for h in pr.histograms])
    context = hists.mean(axis=0)
    return TrainingSet(places, context / context.sum())
