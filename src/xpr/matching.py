"""Columnar hybrid geometric+semantic scorer, place ranking, Recall@K."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .aggregation import GlobalDescriptor
from .config import Config
from .projection import SemanticImage, frustum_window


@dataclass(frozen=True)
class IndexEntry:
    """One (place, viewpoint) row of a MapIndex, viewing its blocks. Its
    sem_image is the row's frontal window at the frustum columns of an
    otherwise void (range_rows, range_cols) image, so cropping
    `frustum_window(sem_image.cols)` gives exactly the labels the scorer
    reads."""
    place_id: int
    viewpoint: int
    descriptor: GlobalDescriptor
    sem_image: SemanticImage


class MapIndex:
    """Every viewpoint of every place as read-only blocks, place-major in
    `places` order with viewpoints 0..n_viewpoints-1 within a place:

    - descriptors (E, D) float64 holding float32-exact values, the precision
      map.idx stores; a flagged descriptor is an all-zero row, as `netvlad`
      gives it;
    - windows (E, range_rows, width) uint8, the `frustum_window(range_cols)`
      columns of each viewpoint's 360-degree label image: the only labels
      the scorer reads;
    - the semantic context, the (n_classes,) mean class histogram of the
      360-degree images, which the windows alone do not give.

    The constructor derives what scoring reads once: each window as class
    bit planes with their per-class cell counts.
    """

    def __init__(self, places: list, descriptors, windows, context,
                 config: Config):
        n = len(places) * config.n_viewpoints
        descriptors = np.asarray(descriptors, dtype=np.float32).astype(np.float64)
        windows = np.asarray(windows)
        context = np.array(context, dtype=np.float64)
        rows, width = config.range_rows, frustum_window(config.range_cols)[1]
        want = ((n, config.descriptor_dim), (n, rows, width),
                (config.n_classes,))
        got = descriptors.shape, windows.shape, context.shape
        if got != want:
            raise ValueError(f"blocks of shapes {got[0]}, {got[1]} and "
                             f"{got[2]}, expected {want[0]}, {want[1]} and "
                             f"{want[2]} for {len(places)} places")
        if windows.size and not 0 <= windows.min() <= windows.max() < config.n_classes:
            raise ValueError(f"a label is not in [0, n_classes "
                             f"{config.n_classes})")
        if len({pid for pid, _ in places}) != len(places):
            raise ValueError("duplicate place id")
        self.places = places          # (place_id, (x, y, z) world position)
        self.config = config
        self.descriptors = descriptors
        self.windows = windows.astype(np.uint8)
        self._place_ids = np.array([pid for pid, _ in places], dtype=np.int64)
        self._planes = _class_planes(self.windows.reshape(n, rows * width),
                                     np.arange(1, config.n_classes))
        self._counts = _popcounts(self._planes)
        self._n_held = (self._counts > 0).sum(axis=0)
        self._context = context
        for block in (self.descriptors, self.windows, self._planes,
                      self._counts, self._n_held, self._context):
            block.flags.writeable = False

    @cached_property
    def entries(self) -> tuple:
        """The IndexEntry of every row, in block order. The index holds no
        360-degree labels, so each row's window is padded with void to a
        (range_rows, range_cols) image at its frustum columns: a reference
        ranking that crops those columns checks exactly the labels the
        scorer reads."""
        cfg = self.config
        c0, width = frustum_window(cfg.range_cols)
        images = np.zeros((len(self.windows), cfg.range_rows, cfg.range_cols),
                          np.uint8)
        images[:, :, c0:c0 + width] = self.windows
        images.flags.writeable = False
        n_v = cfg.n_viewpoints
        return tuple(
            IndexEntry(int(self._place_ids[i // n_v]), i % n_v,
                       GlobalDescriptor(d), SemanticImage(image))
            for i, (d, image) in enumerate(zip(self.descriptors, images)))

    def mean_histogram(self) -> np.ndarray:
        """Database-average class histogram of the 360-degree images, used
        as the query-time context."""
        return self._context


@dataclass
class MatchResult:
    query_id: int
    best_place_id: int
    best_viewpoint: int
    score: float
    phi: float
    psi: float
    ranked: list = field(default_factory=list)  # (place_id, best score) desc


def _window(labels: np.ndarray, query_shape: tuple) -> np.ndarray:
    """A candidate's labels over the query's cells. A candidate wider than
    the query (a 360-degree image) is cropped to its 90-degree frustum
    window, which must then be as wide as the query."""
    if labels.shape[1] != query_shape[1]:
        c0, width = frustum_window(labels.shape[1])
        if width != query_shape[1]:
            raise ValueError("query width does not match the frustum window")
        labels = labels[:, c0:c0 + width]
    if labels.shape != query_shape:
        raise ValueError("row counts differ")
    return labels


def _class_planes(cells: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The given classes of each row of an (E, n) label block as bit planes:
    a (words, len(classes), E) uint64 array, each row's cells packed
    little-endian into whole 64-cell words with zero bits as padding. A label
    outside `classes` sets no bit."""
    n_rows, n = cells.shape
    hot = cells == classes.reshape(-1, 1, 1)
    n_bytes, n_words = -(-n // 8), -(-n // 64)
    packed = np.zeros((len(classes), n_rows, 8 * n_words), np.uint8)
    packed[:, :, :n_bytes] = np.packbits(hot, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).transpose(2, 0, 1))


def _popcounts(planes: np.ndarray) -> np.ndarray:
    """(classes, E) set bits of each class plane of each row, in the
    smallest unsigned type that holds a row's 64 * words cells."""
    return np.bitwise_count(planes).sum(
        axis=0, dtype=np.min_scalar_type(64 * len(planes)))


def _overlaps(q: np.ndarray, planes: np.ndarray, counts: np.ndarray,
              n_held: np.ndarray) -> np.ndarray:
    """Mean per-class IoU of the query labels against every window row of
    `planes`, whose per-class cell counts are `counts` and whose numbers of
    classes with a cell are `n_held`.

    Classes 1..n_classes-1 present in the query or a window contribute an
    IoU term over all window cells, summed in ascending class order. A row
    with no co-visible labeled cell has no intersection in any class, so it
    scores exactly 0.0 without a separate test.

    A class the query lacks has no intersection and adds exactly 0.0, so
    only the query's own classes are intersected; the others count only in
    the denominator, on the rows that hold them. The cost grows with the
    classes the query holds, not with n_classes.
    """
    n_classes = len(counts) + 1
    q_counts = np.bincount(q.ravel(), minlength=n_classes)[1:n_classes]
    cls = np.flatnonzero(q_counts)
    sub = planes.take(cls, axis=1)
    sub &= _class_planes(q.reshape(1, -1), cls + 1)
    inter = _popcounts(sub)
    held = counts.take(cls, axis=0)
    union = held - inter + q_counts[cls, None]
    # row by row in ascending class order, so psi rounds as a per-class
    # loop does; a sum over a one-row block would add eight or more terms
    # pairwise
    total = np.zeros(planes.shape[2])
    for ratio in inter / union:
        total += ratio
    # each query class counts on every row; n_held has those a row holds
    n_present = n_held + (held == 0).sum(axis=0)
    return total / np.maximum(n_present, 1)


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
    planes = _class_planes(_window(cand_sem.labels, q.shape).reshape(1, -1),
                           np.arange(1, cfg.n_classes))
    counts = _popcounts(planes)
    return float(_overlaps(q, planes, counts, (counts > 0).sum(axis=0))[0])


def match_query(q_desc: GlobalDescriptor, q_sem: SemanticImage,
                index: MapIndex, cfg: Config, query_id: int = 0) -> MatchResult:
    """Rank places by the max hybrid score alpha * phi + beta * psi over
    their viewpoints, scoring every entry in one pass.

    Ties break deterministically toward the smaller place id, then the
    smaller viewpoint index.
    """
    if not len(index.descriptors):
        raise ValueError("empty map index")
    q = q_sem.labels
    if q.shape[1] != index.windows.shape[2]:
        raise ValueError("query width does not match the frustum window")
    if q.shape != index.windows.shape[1:]:
        raise ValueError("row counts differ")
    phi = np.vecdot(index.descriptors, q_desc.values)
    psi = _overlaps(q, index._planes, index._counts, index._n_held)
    score = cfg.alpha * phi + cfg.beta * psi
    # per place, the first of its best-scoring viewpoints; then places by
    # score, ties to the smaller place id
    n_v = index.config.n_viewpoints
    view = np.argmax(score.reshape(-1, n_v), axis=1)
    row = np.arange(len(view)) * n_v + view
    order = np.lexsort((index._place_ids, -score[row]))
    top = row[order[0]]
    return MatchResult(query_id, int(index._place_ids[order[0]]),
                       int(view[order[0]]), float(score[top]), float(phi[top]),
                       float(psi[top]),
                       list(zip(index._place_ids[order].tolist(),
                                score[row[order]].tolist())))


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
