"""Training objective: contrastive + semantic-consistency + segmentation
terms as fused batch nodes, each returning its value and a hand-written
backward, plus a small deterministic trainer."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregation import describe_lidar_tape, describe_query_tape
from .config import Config, make_rng
from .model import ModelParams, TRAINABLE, init_model_params


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass
class LossReport:
    l_contrastive: float
    l_sem: float
    l_seg: float
    l_total: float
    grads: dict = field(default_factory=dict)


@dataclass
class TrainTable:
    """Everything training reads, built once by `train_table`.

    Anchor a owns query cells raw[a] and their ground truth gt[a]; LiDAR
    map m owns cells[m], means[m] and present[m]. Place p owns map rows
    p * n_viewpoints .. p * n_viewpoints + n_viewpoints - 1, in yaw order.
    """
    raw: list             # (n_a, QUERY_CHANNELS) valid query cells of anchor a
    gt: list              # (n_a,) their ground-truth labels
    place: np.ndarray     # (A,) place index of anchor a
    positive: np.ndarray  # (A,) map row of anchor a's nearest viewpoint
    cells: list           # (n_m, C) valid cells of map m
    means: np.ndarray     # (M, n_classes, C) class means of those cells
    present: np.ndarray   # (M, n_classes) bool
    context: np.ndarray   # semantic context vector shared by every anchor


def train_table(places: list, context: np.ndarray, cfg: Config) -> TrainTable:
    """The table of `places`, each a pair of its (QueryObservation, heading)
    queries and the valid cells (n, C) of its n_viewpoints maps in yaw order.
    Anchors keep place-major order. The class of a LiDAR cell is its one-hot
    in channels 4: of the LiDAR encoding."""
    anchors = [(p, obs, heading) for p, (queries, _) in enumerate(places)
               for obs, heading in queries]
    cells = [x for _, blocks in places for x in blocks]
    means = np.empty((len(cells), cfg.n_classes, cells[0].shape[1]))
    present = np.empty((len(cells), cfg.n_classes), dtype=bool)
    for m, x in enumerate(cells):
        onehot = x[:, 4:4 + cfg.n_classes]
        count = onehot.sum(axis=0)
        present[m] = count > 0
        means[m] = (onehot.T @ x) / np.where(present[m], count, 1.0)[:, None]
    return TrainTable(
        [obs.raw[obs.mask] for _, obs, _ in anchors],
        [obs.gt_labels.labels[obs.mask] for _, obs, _ in anchors],
        np.array([p for p, _, _ in anchors], dtype=np.intp),
        np.array([p * cfg.n_viewpoints + nearest_viewpoint(h, cfg.n_viewpoints)
                  for p, _, h in anchors], dtype=np.intp),
        cells, means, present, context)


# ------------------------------------------------------------------- nodes

def row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array with at least one column, as (N, 1).

    Bit-equal to `a.max(axis=1, keepdims=True)`: a maximum is exact, so the
    order does not matter. A loop of `np.maximum` over the few columns runs
    several times faster than numpy's reduction over a short last axis.
    """
    m = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    return m[:, None]


def contrastive_tape(anchors: np.ndarray, maps: np.ndarray, positives: list,
                     negatives: list, cfg: Config) -> tuple:
    """Mean over anchors of the per-anchor contrastive loss, and
    backward(g) -> (gradient w.r.t. anchors, gradient w.r.t. maps).

    The similarities are anchors (B, d) @ maps (M, d)^T; positives[b] and
    negatives[b] list the rows of `maps` that are anchor b's positive and
    negative maps.
    """
    if not all(positives) or not all(negatives):
        raise ValueError("need at least one positive and one negative")
    rows, cols, weights = [], [], []
    for b, (ps, ns) in enumerate(zip(positives, negatives)):
        if cfg.loss_kind == "triplet":
            # one (positive, negative) pair per term
            picks = [(p, n) for p in ps for n in ns]
        else:
            # infonce: per positive, the denominator is that positive plus
            # the negatives
            picks = [(p, *ns) for p in ps]
        rows += [b] * len(picks)
        cols += picks
        weights += [1.0 / (len(positives) * len(picks))] * len(picks)
    width = max(len(p) for p in cols)
    pad = np.array([[0.0] * len(p) + [-np.inf] * (width - len(p)) for p in cols])
    idx = (np.array(rows)[:, None],
           np.array([list(p) + [p[0]] * (width - len(p)) for p in cols]))
    weights = np.array(weights)
    pick = (anchors @ maps.T)[idx]                         # (terms, width)
    if cfg.loss_kind == "triplet":
        hinge = cfg.margin - pick[:, 0] + pick[:, 1]
        active = hinge > 0.0
        terms = np.where(active, hinge, 0.0)
    else:
        # padded slots hold -inf logits, which add nothing to the sum
        logits = pick * (1.0 / cfg.temperature) + pad
        top = row_max(logits)
        e = np.exp(logits - top)
        s = e.sum(axis=1, keepdims=True)
        terms = (top + np.log(s)).ravel() - logits[:, 0]
        soft = e / s

    def backward(g):
        gterms = g * weights
        if cfg.loss_kind == "triplet":
            ghinge = gterms * active
            gpick = np.column_stack([-ghinge, ghinge])
        else:
            gpick = gterms[:, None] * soft
            gpick[:, 0] -= gterms
            gpick *= 1.0 / cfg.temperature
        # an anchor may pick one map several times; np.add.at sums the repeats
        gsims = np.zeros((len(anchors), len(maps)))
        np.add.at(gsims, idx, gpick)
        # (A^T G)^T, not G^T A: BLAS sums the two in different orders, and
        # this one reproduces the checkpoints trained so far
        return gsims @ maps, (anchors.T @ gsims).T

    return (terms * weights).sum(), backward


def _consistency(rgb: np.ndarray, rgb_present: np.ndarray, lid: np.ndarray,
                 lid_present: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over B anchors of the mean squared distance between the class
    means (B, K, C) of classes >= 1 that both sides have; an anchor with no
    shared class adds 0. Returns the value and its gradient w.r.t. rgb."""
    shared = rgb_present & lid_present
    shared[:, 0] = False
    weight = shared / (len(rgb) * np.maximum(shared.sum(axis=1), 1))[:, None]
    d = np.where(shared[..., None], rgb - lid, 0.0)
    return float(((d * d).sum(axis=2) * weight).sum()), 2.0 * weight[..., None] * d


def _cross_entropy(logits: np.ndarray, gt: np.ndarray, seg: np.ndarray
                   ) -> tuple[float, np.ndarray]:
    """Mean over B anchors of the mean softmax cross-entropy over each
    anchor's cells with a non-void ground truth; an anchor with no such
    cell adds 0. logits (R, K) and gt (R,) hold the cells of every anchor,
    anchor b owning rows seg[b, 0]:seg[b, 1]. Returns the value and its
    gradient w.r.t. the logits."""
    sel = gt > 0
    anchor = np.repeat(np.arange(len(seg)), seg[:, 1] - seg[:, 0])[sel]
    count = np.bincount(anchor, minlength=len(seg))
    rows, true = logits[sel], gt[sel].astype(np.intp)
    every = np.arange(len(rows))
    m = row_max(rows)
    e = np.exp(rows - m)
    s = e @ np.ones((logits.shape[1], 1))
    weight = 1.0 / (len(seg) * count[anchor])
    value = float((((m + np.log(s)).ravel() - rows[every, true]) * weight).sum())
    grow = e / s * weight[:, None]
    grow[every, true] -= weight
    grad = np.zeros_like(logits)
    grad[sel] = grow
    return value, grad


def class_means_tape(attended: np.ndarray, labels: np.ndarray, seg: np.ndarray,
                     lid_means: np.ndarray, lid_present: np.ndarray) -> tuple:
    """Semantic-consistency term of a batch, and backward(g) -> its
    gradient w.r.t. `attended`: the class means of each anchor's attended
    features by predicted label, against its LiDAR class means
    (B, n_classes, C). attended (R, C) and labels (R,) hold the valid cells
    of every anchor, anchor b owning rows seg[b, 0]:seg[b, 1]."""
    n_classes = lid_means.shape[1]
    onehots = [(labels[lo:hi] == np.arange(n_classes)[:, None]).astype(np.float64)
               for lo, hi in seg]                                # (K, n_b) each
    sums = np.array([oh @ attended[lo:hi]
                     for oh, (lo, hi) in zip(onehots, seg)])
    counts = np.array([oh.sum(axis=1) for oh in onehots])
    present = counts > 0
    inv = 1.0 / np.where(present, counts, 1.0)
    value, gmeans = _consistency(sums * inv[..., None], present, lid_means,
                                 lid_present)

    def backward(g):
        gsums = g * gmeans * inv[..., None]
        gattended = np.zeros_like(attended)
        for oh, gs, (lo, hi) in zip(onehots, gsums, seg):
            gattended[lo:hi] += oh.T @ gs
        return gattended

    return value, backward


def segmentation_tape(logits: np.ndarray, gt: np.ndarray, seg: np.ndarray
                      ) -> tuple:
    """Segmentation term of a batch, `_cross_entropy` over logits
    (R, n_classes), and backward(g) -> its gradient w.r.t. the logits."""
    value, grad = _cross_entropy(logits, gt, seg)
    return value, lambda g: g * grad


# ------------------------------------------------------------------ public API

def total_loss(table: TrainTable, anchors, positives: list, negatives: list,
               params: ModelParams, cfg: Config) -> LossReport:
    """Full forward pipeline over a batch with gradients for every
    trainable parameter.

    The batch is the table rows `anchors`; positives[b] and negatives[b]
    list the map rows of anchor b. The anchors go through the query pipeline
    as one stack, and each distinct map is described once; the contrastive
    term reads one (anchors, maps) similarity matrix, and the consistency
    term compares each anchor with its first positive."""
    col: dict = {}
    for ps, ns in zip(positives, negatives):
        for m in (*ps, *ns):
            col.setdefault(m, len(col))
    lid_desc, lid_bw = describe_lidar_tape([table.cells[m] for m in col],
                                           params.vlad)

    # anchor b's cells are rows seg[b, 0]:seg[b, 1] of the stack
    raw = np.concatenate([table.raw[a] for a in anchors])
    gt = np.concatenate([table.gt[a] for a in anchors])
    counts = [len(table.gt[a]) for a in anchors]
    ends = np.cumsum(counts, dtype=np.intp)
    seg = np.stack([ends - counts, ends], axis=1)
    desc, attended, logits, pred, query_bw = describe_query_tape(
        raw, seg, table.context, params.enc, params.att, params.vlad)
    l_con, con_bw = contrastive_tape(desc, lid_desc,
                                     [[col[m] for m in ps] for ps in positives],
                                     [[col[m] for m in ns] for ns in negatives],
                                     cfg)
    refs = [ps[0] for ps in positives]
    l_sem, sem_bw = class_means_tape(attended, pred, seg, table.means[refs],
                                     table.present[refs])
    l_seg, seg_bw = segmentation_tape(logits, gt, seg)
    l_tot = l_con + l_sem * cfg.lambda_sem + l_seg

    # the backwards in reverse order; the NetVLAD parameters sum the LiDAR
    # maps' terms before the anchors', which fixes their float rounding
    tensors = params.tensors()
    grads = {name: np.zeros_like(tensors[name]) for name in TRAINABLE}
    g_logits = seg_bw(1.0)
    g_attended = sem_bw(cfg.lambda_sem)
    g_desc, g_lid = con_bw(1.0)
    lid_bw(g_lid, grads)
    query_bw(g_desc, g_attended, g_logits, grads)
    return LossReport(float(l_con), float(l_sem), float(l_seg), float(l_tot),
                      grads)


# -------------------------------------------------------------------- trainer

NEGATIVES_PER_ANCHOR = 4


def train(table: TrainTable, cfg: Config, epochs: int, lr: float,
          batch_size: int = 0) -> tuple[ModelParams, list]:
    """Seeded mini-batch gradient descent with a fixed learning rate, from
    `init_model_params(cfg)`.

    Each epoch visits the anchors of `table` in a seeded random order, in
    batches of `batch_size` (all of them for 0). An anchor's positive is its
    place's nearest viewpoint; its NEGATIVES_PER_ANCHOR negatives are
    seeded random viewpoints of other places. Returns the trained
    parameters and the per-epoch mean losses. Bit-reproducible for a fixed
    config seed.
    """
    n_places = len(table.cells) // cfg.n_viewpoints
    if n_places < 2:
        raise ValueError("training needs at least two places")
    tensors = {k: v.copy() for k, v in init_model_params(cfg).tensors().items()}

    n_anchors = len(table.raw)
    bsz = batch_size if batch_size > 0 else n_anchors
    history = []
    for epoch in range(epochs):
        rng = make_rng(cfg.seed, 7000, epoch)
        order = rng.permutation(n_anchors)
        sums = np.zeros(4)
        for start in range(0, n_anchors, bsz):
            anchors = order[start:start + bsz]
            negatives = []
            for a in anchors:
                rows = []
                for _ in range(NEGATIVES_PER_ANCHOR):
                    other = int(rng.integers(n_places - 1))
                    if other >= table.place[a]:
                        other += 1
                    rows.append(other * cfg.n_viewpoints
                                + int(rng.integers(cfg.n_viewpoints)))
                negatives.append(rows)
            report = total_loss(table, anchors,
                                [[table.positive[a]] for a in anchors],
                                negatives, ModelParams.from_tensors(tensors), cfg)
            if not math.isfinite(report.l_total):
                raise TrainingDiverged(epoch)
            for name in TRAINABLE:
                tensors[name] = tensors[name] - lr * report.grads[name]
            sums += (report.l_contrastive, report.l_sem, report.l_seg,
                     report.l_total)
        n_batches = (n_anchors + bsz - 1) // bsz
        avg = sums / n_batches
        history.append(LossReport(float(avg[0]), float(avg[1]),
                                  float(avg[2]), float(avg[3])))
    return ModelParams.from_tensors(tensors), history


def nearest_viewpoint(heading: float, n_viewpoints: int) -> int:
    """Index of the uniform-yaw viewpoint closest to a heading."""
    step = 2.0 * math.pi / n_viewpoints
    return int(round(heading / step)) % n_viewpoints
