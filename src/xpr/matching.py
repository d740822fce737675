"""Hybrid geometric+semantic similarity, multi-view matching, Recall@K."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import GlobalDescriptor
from .config import Config
from .core import Pose
from .projection import SemanticImage, frustum_window


@dataclass(frozen=True)
class IndexEntry:
    place_id: int
    viewpoint: int
    pose: Pose
    descriptor: GlobalDescriptor
    sem_image: SemanticImage
    histogram: np.ndarray


@dataclass
class MapIndex:
    entries: list                 # IndexEntry, grouped by place, k ascending
    places: list                  # (place_id, (x, y, z) world position)
    config: Config

    def validate(self) -> "MapIndex":
        ids = {pid for pid, _ in self.places}
        per_place: dict = {}
        for e in self.entries:
            if e.place_id not in ids:
                raise ValueError(f"entry references unknown place {e.place_id}")
            per_place[e.place_id] = per_place.get(e.place_id, 0) + 1
        for pid, n in per_place.items():
            if n != self.config.n_viewpoints:
                raise ValueError(f"place {pid} has {n} entries, "
                                 f"expected {self.config.n_viewpoints}")
        return self

    def mean_histogram(self) -> np.ndarray:
        """Database-average class histogram, used as the query-time context."""
        h = np.mean([e.histogram for e in self.entries], axis=0)
        return h / h.sum()


@dataclass
class MatchResult:
    query_id: int
    best_place_id: int
    best_viewpoint: int
    score: float
    phi: float
    psi: float
    ranked: list = field(default_factory=list)  # (place_id, best score) desc


def geometric_similarity(a: GlobalDescriptor, b: GlobalDescriptor) -> float:
    """Cosine similarity of unit descriptors."""
    if a.flagged or b.flagged:
        raise ValueError("flagged zero descriptor has no direction")
    return float(a.values @ b.values)


def semantic_overlap(query_sem: SemanticImage, cand_sem: SemanticImage,
                     cfg: Config) -> float:
    """Mean per-class IoU over the candidate's frontal window.

    The candidate (360-degree) image is cropped to the query's 90-degree
    column window; classes 1..n_classes-1 present in either image contribute
    an IoU term over all window cells. No co-visible labeled cells -> 0.
    """
    q = query_sem.labels
    c = cand_sem.labels
    if c.shape[1] != q.shape[1]:
        c0, width = frustum_window(c.shape[1])
        if width != q.shape[1]:
            raise ValueError("query width does not match the frustum window")
        c = c[:, c0:c0 + width]
    if q.shape != c.shape:
        raise ValueError("row counts differ")
    if not np.any((q > 0) & (c > 0)):
        return 0.0
    total, n_cls = 0.0, 0
    for cls in range(1, cfg.n_classes):
        qc = q == cls
        cc = c == cls
        union = np.count_nonzero(qc | cc)
        if union:
            total += np.count_nonzero(qc & cc) / union
            n_cls += 1
    # np.count_nonzero gives numpy ints, so the sum is np.float64 until here
    return float(total / n_cls) if n_cls else 0.0


def hybrid_similarity(q_desc: GlobalDescriptor, q_sem: SemanticImage,
                      entry: IndexEntry, cfg: Config) -> tuple[float, float, float]:
    """alpha * phi + beta * psi along with the two components."""
    phi = geometric_similarity(q_desc, entry.descriptor)
    psi = semantic_overlap(q_sem, entry.sem_image, cfg)
    return cfg.alpha * phi + cfg.beta * psi, phi, psi


def match_query(q_desc: GlobalDescriptor, q_sem: SemanticImage,
                index: MapIndex, cfg: Config, query_id: int = 0) -> MatchResult:
    """Rank places by the max hybrid score over their viewpoints.

    Ties break deterministically toward the smaller place id, then the
    smaller viewpoint index.
    """
    if not index.entries:
        raise ValueError("empty map index")
    best: dict = {}
    for e in index.entries:
        sim, phi, psi = hybrid_similarity(q_desc, q_sem, e, cfg)
        cur = best.get(e.place_id)
        if cur is None or sim > cur[0] or (sim == cur[0] and e.viewpoint < cur[1]):
            best[e.place_id] = (sim, e.viewpoint, phi, psi)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))
    top_id, (top_sim, top_k, top_phi, top_psi) = ranked[0]
    return MatchResult(query_id, top_id, top_k, top_sim, top_phi, top_psi,
                       [(pid, vals[0]) for pid, vals in ranked])


def rank_of_truth(result: MatchResult, index: MapIndex, gt_position,
                  cfg: Config) -> int:
    """1-based rank of the first place within the match threshold of the
    true position, 0 if no ranked place is."""
    pos = dict(index.places)
    truth = np.asarray(gt_position, dtype=np.float64)
    for rank, (pid, _) in enumerate(result.ranked, start=1):
        d = np.asarray(pos[pid], dtype=np.float64)[:2] - truth[:2]
        if float(np.hypot(d[0], d[1])) <= cfg.match_threshold_m:
            return rank
    return 0


def recall_at_k(results: list, index: MapIndex, gt_positions: list,
                k: int, cfg: Config) -> float:
    """Percentage of queries with a within-threshold place in their top-k."""
    gt = dict(gt_positions)
    return recall_from_ranks([rank_of_truth(res, index, gt[res.query_id], cfg)
                              for res in results], k)


def recall_from_ranks(ranks: list, k: int) -> float:
    """Percentage of rank-of-truth values in 1..k; 0 for no queries."""
    if not ranks:
        return 0.0
    return 100.0 * sum(1 for r in ranks if 0 < r <= k) / len(ranks)
