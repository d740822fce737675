"""Training objective: contrastive + semantic-consistency + segmentation
terms as fused batch nodes, each returning its value and a hand-written
backward, plus a small deterministic trainer."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .aggregation import describe_lidar_tape, describe_query_tape
from .config import Config, make_rng
from .encoder import QUERY_CHANNELS
from .model import ModelParams, TRAINABLE, init_model_params
from .workspace import FRESH, Workspace


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, what: str = "loss"):
        super().__init__(f"non-finite {what} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class LossReport:
    l_contrastive: float
    l_sem: float
    l_seg: float
    l_total: float
    grads: dict = field(default_factory=dict)
    wall_ms: float = 0.0  # an epoch's wall time, in a `train` history entry


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
        [obs.gt_labels[obs.mask] for _, obs, _ in anchors],
        np.array([p for p, _, _ in anchors], dtype=np.intp),
        np.array([p * cfg.n_viewpoints + nearest_viewpoint(h, cfg.n_viewpoints)
                  for p, _, h in anchors], dtype=np.intp),
        cells, means, present, context)


# ------------------------------------------------------------------- nodes

def row_max(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row maxima of a 2-D array with at least one column, as (N, 1),
    written into the (N,) array `out` when one is given.

    Bit-equal to `a.max(axis=1, keepdims=True)`: a maximum is exact, so the
    order does not matter. A loop of `np.maximum` over the few columns runs
    several times faster than numpy's reduction over a short last axis.
    """
    m = np.empty(len(a), a.dtype) if out is None else out
    np.copyto(m, a[:, 0])
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    return m[:, None]


def contrastive_tape(anchors: np.ndarray, maps: np.ndarray,
                     positives: np.ndarray, negatives: np.ndarray,
                     cfg: Config) -> tuple:
    """Mean over its terms of a batch's contrastive loss, and
    backward(g) -> (gradient w.r.t. anchors, gradient w.r.t. maps).

    The similarities are anchors (B, d) @ maps (M, d)^T; anchor b's
    positive is row positives[b] of `maps` and its N negatives are the rows
    negatives[b]. InfoNCE has one term per anchor, a softmax over its
    positive and negatives; triplet has one term per (positive, negative)
    pair.
    """
    b_n, n_n = negatives.shape
    if n_n == 0:
        raise ValueError("need at least one negative")
    if cfg.loss_kind == "triplet":
        # term b * N + j pairs anchor b's positive with its negative j
        rows = np.repeat(np.arange(b_n), n_n)[:, None]
        cols = np.column_stack([np.repeat(positives, n_n), negatives.ravel()])
    else:
        rows = np.arange(b_n)[:, None]
        cols = np.column_stack([positives, negatives])
    weight = 1.0 / len(cols)
    pick = (anchors @ maps.T)[rows, cols]               # (terms, 2 or 1 + N)
    if cfg.loss_kind == "triplet":
        hinge = cfg.margin - pick[:, 0] + pick[:, 1]
        active = hinge > 0.0
        terms = np.where(active, hinge, 0.0)
    else:
        logits = pick * (1.0 / cfg.temperature)
        top = row_max(logits)
        e = np.exp(logits - top)
        s = e.sum(axis=1, keepdims=True)
        terms = (top + np.log(s)).ravel() - logits[:, 0]
        soft = e / s

    def backward(g):
        gterms = g * weight
        if cfg.loss_kind == "triplet":
            ghinge = gterms * active
            gpick = np.column_stack([-ghinge, ghinge])
        else:
            gpick = gterms * soft
            gpick[:, 0] -= gterms
            gpick *= 1.0 / cfg.temperature
        # a batch may pick one map several times; np.add.at sums the repeats
        gsims = np.zeros((b_n, len(maps)))
        np.add.at(gsims, (rows, cols), gpick)
        # (A^T G)^T, not G^T A: BLAS sums the two in different orders, and
        # this one reproduces the checkpoints trained so far
        return gsims @ maps, (anchors.T @ gsims).T

    return (terms * weight).sum(), backward


def class_means_tape(attended: np.ndarray, labels: np.ndarray, seg: np.ndarray,
                     lid_means: np.ndarray, lid_present: np.ndarray,
                     ws: Workspace = FRESH) -> tuple:
    """Semantic-consistency term of a batch, and backward(g) -> its
    gradient w.r.t. `attended`: the mean over B anchors of the mean squared
    distance between the class means of an anchor's attended features by
    predicted label and its LiDAR class means (B, n_classes, C), over the
    classes >= 1 that both sides have; an anchor with no shared class adds
    0. attended (R, C) and labels (R,) hold the valid cells of every anchor,
    anchor b owning rows seg[b, 0]:seg[b, 1]. The one-hot labels and the
    gradient are the workspace arrays "onehot" and "gattended"."""
    n_classes = lid_means.shape[1]
    classes = np.arange(n_classes)[:, None]
    flat = ws.empty("onehot", (n_classes * len(labels),))
    onehots = [np.equal(labels[lo:hi], classes,                  # (K, n_b) each
                        out=flat[n_classes * lo:n_classes * hi].reshape(
                            n_classes, hi - lo))
               for lo, hi in seg]
    sums = np.array([oh @ attended[lo:hi]
                     for oh, (lo, hi) in zip(onehots, seg)])
    counts = np.array([oh.sum(axis=1) for oh in onehots])
    present = counts > 0
    inv = 1.0 / np.where(present, counts, 1.0)
    shared = present & lid_present
    shared[:, 0] = False
    weight = shared / (len(seg) * np.maximum(shared.sum(axis=1), 1))[:, None]
    d = np.where(shared[..., None], sums * inv[..., None] - lid_means, 0.0)
    gmeans = 2.0 * weight[..., None] * d

    def backward(g):
        gsums = g * gmeans * inv[..., None]
        gattended = ws.empty("gattended", attended.shape)
        gattended.fill(0.0)
        for oh, gs, (lo, hi) in zip(onehots, gsums, seg):
            gattended[lo:hi] += oh.T @ gs
        return gattended

    return float(((d * d).sum(axis=2) * weight).sum()), backward


def segmentation_tape(logits: np.ndarray, gt: np.ndarray, seg: np.ndarray,
                      ws: Workspace = FRESH) -> tuple:
    """Segmentation term of a batch, and backward(g) -> its gradient w.r.t.
    the logits: the mean over B anchors of the mean softmax cross-entropy
    over an anchor's cells with a non-void ground truth; an anchor with no
    such cell adds 0. logits (R, K) and gt (R,) hold the cells of every
    anchor, anchor b owning rows seg[b, 0]:seg[b, 1].

    The cross-entropy runs over every row, and a void row weighs 0. The
    gradient is the workspace array "ce.grad", which the backward scales in
    place, so it is called once.
    """
    n, k = logits.shape
    gt = gt.astype(np.intp, copy=False)
    nonvoid = gt > 0
    # each non-void row weighs 1 / (B * its anchor's non-void rows)
    counts = np.array([np.count_nonzero(nonvoid[lo:hi]) for lo, hi in seg])
    scale = 1.0 / (len(seg) * np.maximum(counts, 1))
    weight = np.repeat(scale, seg[:, 1] - seg[:, 0]) * nonvoid
    m = row_max(logits, out=ws.empty("ce.max", (n,)))
    e = np.subtract(logits, m, out=ws.empty("ce.grad", (n, k)))
    np.exp(e, out=e)                                   # e = exp(logits - m)
    s = np.matmul(e, np.ones((k, 1)), out=ws.empty("ce.sum", (n, 1)))
    # grad = e / s * weight, less weight at the true class
    e /= s
    e *= weight[:, None]
    cells = np.arange(n)
    e[cells, gt] -= weight
    # value = sum(((m + log(s)) - logits[true]) * weight) over non-void rows
    terms = np.log(s, out=s).reshape(n)
    terms += m.reshape(n)
    terms -= logits[cells, gt]
    terms *= weight
    return float(terms[nonvoid].sum()), lambda g: np.multiply(e, g, out=e)


# ------------------------------------------------------------------ public API

def total_loss(table: TrainTable, anchors: np.ndarray, negatives: np.ndarray,
               params: ModelParams, cfg: Config,
               ws: Workspace = FRESH) -> LossReport:
    """Full forward pipeline over a batch with gradients for every
    trainable parameter.

    The batch is the table rows `anchors` (B,); anchor b's positive is its
    table positive and its N negatives are the map rows negatives[b]. The
    anchors go through the query pipeline as one stack, and each distinct
    map is described once, in the order of its first appearance in the
    rows (positive, negatives); the contrastive term reads one (anchors,
    maps) similarity matrix, and the consistency term compares each anchor
    with its positive.

    Every large array of the step is an array of `ws`, so a workspace
    passed to each step of a training call is allocated by the first step
    only.
    """
    positives = table.positive[anchors]
    picked = np.column_stack([positives, negatives]).ravel()
    maps = picked[np.sort(np.unique(picked, return_index=True)[1])]
    col = np.empty(len(table.cells), np.intp)      # map row -> descriptor row
    col[maps] = np.arange(len(maps))
    lid_desc, lid_bw = describe_lidar_tape([table.cells[m] for m in maps],
                                           params.vlad, ws.scope("lidar"))

    # anchor b's cells are rows seg[b, 0]:seg[b, 1] of the stack
    counts = [len(table.gt[a]) for a in anchors]
    ends = np.cumsum(counts, dtype=np.intp)
    seg = np.stack([ends - counts, ends], axis=1)
    n_rows = int(ends[-1])
    raw = np.concatenate([table.raw[a] for a in anchors],
                         out=ws.empty("raw", (n_rows, QUERY_CHANNELS)))
    gt = np.concatenate([table.gt[a] for a in anchors],
                        out=ws.empty("gt", (n_rows,), np.intp))
    desc, attended, logits, pred, query_bw = describe_query_tape(
        raw, seg, table.context, params.enc, params.att, params.vlad, ws)
    l_con, con_bw = contrastive_tape(desc, lid_desc, col[positives],
                                     col[negatives], cfg)
    l_sem, sem_bw = class_means_tape(attended, pred, seg, table.means[positives],
                                     table.present[positives], ws)
    l_seg, seg_bw = segmentation_tape(logits, gt, seg, ws)
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
    seeded random viewpoints of other places, drawn with replacement.
    Returns the trained parameters and the per-epoch mean losses with each
    epoch's wall time. The parameters are bit-reproducible for a fixed
    config seed.

    The steps share one workspace, which is dropped on return. A step whose
    loss or updated parameters are not finite raises TrainingDiverged; the
    overflow and invalid-value warnings that lead up to it are not printed.
    """
    n_places = len(table.cells) // cfg.n_viewpoints
    if n_places < 2:
        raise ValueError("training needs at least two places")
    n_anchors = len(table.raw)
    if n_anchors == 0:
        raise ValueError("training needs at least one query")
    tensors = {k: v.copy() for k, v in init_model_params(cfg).tensors().items()}

    bsz = batch_size if batch_size > 0 else n_anchors
    history = []
    ws = Workspace()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        rng = make_rng(cfg.seed, 7000, epoch)
        order = rng.permutation(n_anchors)
        sums = np.zeros(4)
        for start in range(0, n_anchors, bsz):
            anchors = order[start:start + bsz]
            # draws[b, j] is negative j's place among the others, then its
            # viewpoint: one stream, read anchor by anchor
            draws = rng.integers(np.tile([n_places - 1, cfg.n_viewpoints],
                                         (len(anchors), NEGATIVES_PER_ANCHOR, 1)))
            other = draws[..., 0]
            other += other >= table.place[anchors][:, None]
            negatives = other * cfg.n_viewpoints + draws[..., 1]
            with np.errstate(over="ignore", invalid="ignore"):
                report = total_loss(table, anchors, negatives,
                                    ModelParams.from_tensors(tensors), cfg, ws)
                if not math.isfinite(report.l_total):
                    raise TrainingDiverged(epoch)
                for name in TRAINABLE:
                    tensors[name] = tensors[name] - lr * report.grads[name]
                    if not np.isfinite(tensors[name]).all():
                        raise TrainingDiverged(epoch, "parameter")
            sums += (report.l_contrastive, report.l_sem, report.l_seg,
                     report.l_total)
        n_batches = (n_anchors + bsz - 1) // bsz
        avg = sums / n_batches
        history.append(LossReport(float(avg[0]), float(avg[1]),
                                  float(avg[2]), float(avg[3]),
                                  wall_ms=(time.perf_counter() - t0) * 1e3))
    return ModelParams.from_tensors(tensors), history


def nearest_viewpoint(heading: float, n_viewpoints: int) -> int:
    """Index of the uniform-yaw viewpoint closest to a heading."""
    step = 2.0 * math.pi / n_viewpoints
    return int(round(heading / step)) % n_viewpoints
