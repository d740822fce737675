"""Columnar hybrid geometric+semantic scorer, place ranking, Recall@K."""
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


@dataclass(frozen=True)
class IndexColumns:
    """The index as stacked arrays, one row per entry in `entries` order."""
    place_id: np.ndarray      # (E,) int64
    viewpoint: np.ndarray     # (E,) int64
    descriptors: np.ndarray   # (E, D) float64; a flagged row is all zeros
    windows: np.ndarray       # (E, H*w) uint8 frontal-window labels
    counts: np.ndarray        # (E, 256) int64 cells of each label per window


@dataclass
class MapIndex:
    entries: list                 # IndexEntry, grouped by place, k ascending
    places: list                  # (place_id, (x, y, z) world position)
    config: Config
    # IndexColumns per query label shape, built on first match; entries must
    # not change after that
    _columns: dict = field(default_factory=dict, repr=False, compare=False)

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

    def columns(self, query_shape: tuple) -> IndexColumns:
        """The entries as IndexColumns, windows cropped for query_shape."""
        cols = self._columns.get(query_shape)
        if cols is None:
            windows = _windows([e.sem_image for e in self.entries], query_shape)
            cols = IndexColumns(
                np.array([e.place_id for e in self.entries], dtype=np.int64),
                np.array([e.viewpoint for e in self.entries], dtype=np.int64),
                np.array([e.descriptor.values for e in self.entries],
                         dtype=np.float64),
                windows, _label_counts(windows))
            self._columns[query_shape] = cols
        return cols


@dataclass
class MatchResult:
    query_id: int
    best_place_id: int
    best_viewpoint: int
    score: float
    phi: float
    psi: float
    ranked: list = field(default_factory=list)  # (place_id, best score) desc


def _windows(cand_sems: list, query_shape: tuple) -> np.ndarray:
    """Each candidate's labels over the query's cells, flattened, as uint8.

    A candidate wider than the query (a 360-degree image) is cropped to its
    90-degree frustum window, which must then be as wide as the query.
    """
    out = np.empty((len(cand_sems), query_shape[0] * query_shape[1]),
                   dtype=np.uint8)
    for i, sem in enumerate(cand_sems):
        c = sem.labels
        if c.shape[1] != query_shape[1]:
            c0, width = frustum_window(c.shape[1])
            if width != query_shape[1]:
                raise ValueError("query width does not match the frustum window")
            c = c[:, c0:c0 + width]
        if c.shape != query_shape:
            raise ValueError("row counts differ")
        out[i] = c.ravel()
    return out


def _label_counts(windows: np.ndarray) -> np.ndarray:
    """(E, 256) cells of each uint8 label value per window row."""
    rows = np.arange(len(windows))[:, None] * 256
    return np.bincount((rows + windows).ravel(),
                       minlength=256 * len(windows)).reshape(-1, 256)


def _overlaps(q: np.ndarray, windows: np.ndarray, counts: np.ndarray,
              n_classes: int) -> np.ndarray:
    """Mean per-class IoU of the query labels against every window row.

    Classes 1..n_classes-1 present in the query or a window contribute an
    IoU term over all window cells, summed in ascending class order. A row
    with no co-visible labeled cell has no intersection in any class, so it
    scores exactly 0.0 without a separate test.
    """
    q = q.ravel()
    onehot = (q[:, None] == np.arange(n_classes)).astype(np.float32)
    # exact integer counts: a float32 sum of ones is exact below 2**24 cells
    inter = ((windows == q).astype(np.float32) @ onehot).astype(np.int64)
    union = onehot.sum(axis=0).astype(np.int64) + counts[:, :n_classes] - inter
    total = np.zeros(len(windows))
    n_cls = np.zeros(len(windows), dtype=np.int64)
    for cls in range(1, n_classes):
        present = union[:, cls] > 0
        total += np.where(present, inter[:, cls] / np.maximum(union[:, cls], 1),
                          0.0)
        n_cls += present
    return total / np.maximum(n_cls, 1)


def geometric_similarity(a: GlobalDescriptor, b: GlobalDescriptor) -> float:
    """Cosine similarity of unit descriptors; 0 against a flagged (all-zero)
    descriptor."""
    return float(np.vecdot(a.values, b.values))


def semantic_overlap(query_sem: SemanticImage, cand_sem: SemanticImage,
                     cfg: Config) -> float:
    """Mean per-class IoU over the candidate's frontal window.

    The candidate (360-degree) image is cropped to the query's 90-degree
    column window; classes 1..n_classes-1 present in either image contribute
    an IoU term over all window cells. No co-visible labeled cells -> 0.
    """
    q = query_sem.labels
    windows = _windows([cand_sem], q.shape)
    return float(_overlaps(q, windows, _label_counts(windows),
                           cfg.n_classes)[0])


def match_query(q_desc: GlobalDescriptor, q_sem: SemanticImage,
                index: MapIndex, cfg: Config, query_id: int = 0) -> MatchResult:
    """Rank places by the max hybrid score alpha * phi + beta * psi over
    their viewpoints, scoring every entry in one pass.

    Ties break deterministically toward the smaller place id, then the
    smaller viewpoint index.
    """
    if not index.entries:
        raise ValueError("empty map index")
    cols = index.columns(q_sem.labels.shape)
    phi = np.vecdot(cols.descriptors, q_desc.values)
    psi = _overlaps(q_sem.labels, cols.windows, cols.counts, cfg.n_classes)
    score = cfg.alpha * phi + cfg.beta * psi
    # stable: of equal (place, score, viewpoint) rows the first entry wins
    order = np.lexsort((cols.viewpoint, -score, cols.place_id))
    pids = cols.place_id[order]
    best = order[np.r_[True, pids[1:] != pids[:-1]]]
    best = best[np.lexsort((cols.place_id[best], -score[best]))]
    top = best[0]
    return MatchResult(query_id, int(cols.place_id[top]),
                       int(cols.viewpoint[top]), float(score[top]),
                       float(phi[top]), float(psi[top]),
                       [(int(cols.place_id[i]), float(score[i])) for i in best])


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
