"""Training objective: contrastive + semantic-consistency + segmentation
terms as fused batch nodes, plus a small deterministic trainer."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregation import describe_lidar_tape, describe_query_tape
from .autodiff import Tensor, row_max
from .config import Config, make_rng
from .encoder import QueryObservation
from .model import ModelParams, TRAINABLE
from .projection import SemanticImage


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
class SemanticFeatureSet:
    """Per-class mean feature vectors; absent classes are flagged off."""
    means: np.ndarray    # (n_classes, C)
    present: np.ndarray  # (n_classes,) bool


@dataclass
class TrainSample:
    anchor: QueryObservation
    positives: list      # LocalFeatureMap viewpoint renders of the same place
    negatives: list      # LocalFeatureMap renders of far-away places


@dataclass
class TrainBatch:
    samples: list
    context: np.ndarray  # semantic context vector shared across the batch


# ----------------------------------------------------------------- tape cores

def contrastive_tape(anchors: Tensor, maps: Tensor, positives: list,
                     negatives: list, cfg: Config) -> Tensor:
    """Mean over anchors of the per-anchor contrastive loss, one tape node.

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
    a, m = anchors.data, maps.data
    pick = (a @ m.T)[idx]                                  # (terms, width)
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

    def bw(g):
        gterms = g * weights
        if cfg.loss_kind == "triplet":
            ghinge = gterms * active
            gpick = np.column_stack([-ghinge, ghinge])
        else:
            gpick = gterms[:, None] * soft
            gpick[:, 0] -= gterms
            gpick *= 1.0 / cfg.temperature
        # an anchor may pick one map several times; np.add.at sums the repeats
        gsims = np.zeros((len(a), len(m)))
        np.add.at(gsims, idx, gpick)
        if anchors.requires_grad:
            anchors.grad += gsims @ m
        if maps.requires_grad:
            # (A^T G)^T, not G^T A: BLAS sums the two in different orders,
            # and this one reproduces the checkpoints trained so far
            maps.grad += (a.T @ gsims).T

    return Tensor((terms * weights).sum(), _prev=(anchors, maps), _backward=bw)


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


def class_means_tape(attended: Tensor, labels: np.ndarray, seg: np.ndarray,
                     lid_means: np.ndarray, lid_present: np.ndarray) -> Tensor:
    """Semantic-consistency term of a batch, one tape node: the class means
    of each anchor's attended features by predicted label, against its
    LiDAR class means (B, n_classes, C). attended (R, C) and labels (R,)
    hold the valid cells of every anchor, anchor b owning rows
    seg[b, 0]:seg[b, 1]."""
    n_classes = lid_means.shape[1]
    onehots = [(labels[lo:hi] == np.arange(n_classes)[:, None]).astype(np.float64)
               for lo, hi in seg]                                # (K, n_b) each
    sums = np.array([oh @ attended.data[lo:hi]
                     for oh, (lo, hi) in zip(onehots, seg)])
    counts = np.array([oh.sum(axis=1) for oh in onehots])
    present = counts > 0
    inv = 1.0 / np.where(present, counts, 1.0)
    value, gmeans = _consistency(sums * inv[..., None], present, lid_means,
                                 lid_present)

    def bw(g):
        gsums = g * gmeans * inv[..., None]
        for oh, gs, (lo, hi) in zip(onehots, gsums, seg):
            attended.grad[lo:hi] += oh.T @ gs

    return Tensor(value, _prev=(attended,), _backward=bw)


def segmentation_tape(logits: Tensor, gt: np.ndarray, seg: np.ndarray) -> Tensor:
    """Segmentation term of a batch, one tape node: `_cross_entropy` over
    logits (R, n_classes)."""
    value, grad = _cross_entropy(logits.data, gt, seg)

    def bw(g):
        logits.grad += g * grad

    return Tensor(value, _prev=(logits,), _backward=bw)


def _weighted_total(l_con: Tensor, l_sem: Tensor, l_seg: Tensor,
                    lambda_sem: float) -> Tensor:
    """l_con + lambda_sem * l_sem + l_seg, one tape node."""
    def bw(g):
        l_con.grad += g
        l_sem.grad += g * lambda_sem
        l_seg.grad += g

    return Tensor(l_con.data + l_sem.data * lambda_sem + l_seg.data,
                  _prev=(l_con, l_sem, l_seg), _backward=bw)


# ------------------------------------------------------------------ public API

def semantic_consistency_loss(rgb_set: SemanticFeatureSet,
                              lidar_set: SemanticFeatureSet,
                              cfg: Config) -> tuple[float, dict]:
    """Mean squared distance between the class means of classes
    1..n_classes-1 shared by both modalities."""
    k = cfg.n_classes
    value, grad = _consistency(rgb_set.means[None, :k], rgb_set.present[None, :k],
                               lidar_set.means[None, :k],
                               lidar_set.present[None, :k])
    grads = {"rgb": np.zeros_like(rgb_set.means),
             "lidar": np.zeros_like(lidar_set.means)}
    grads["rgb"][:k], grads["lidar"][:k] = grad[0], -grad[0]
    return value, grads


def segmentation_loss(logit_grid: np.ndarray, gt: SemanticImage
                      ) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over non-void cells; grad w.r.t. logits."""
    h, w, n_classes = logit_grid.shape
    value, grad = _cross_entropy(logit_grid.reshape(h * w, n_classes),
                                 gt.labels.reshape(-1), _segments([h * w]))
    return value, grad.reshape(h, w, n_classes)


def _segments(counts) -> np.ndarray:
    """Row ranges (M, 2) of M blocks of the given sizes laid back to back."""
    ends = np.cumsum(counts, dtype=np.intp)
    return np.stack([ends - counts, ends], axis=1)


@dataclass
class LidarMaps:
    """The fixed data of constant LiDAR feature maps that training reads:
    each map's valid cells and class means."""
    cells: list          # (n_m, C) valid cells of map m
    means: np.ndarray    # (M, n_classes, C) class means of the valid cells
    present: np.ndarray  # (M, n_classes) bool
    row: dict            # id(LocalFeatureMap) -> m


def lidar_maps(fmaps: list, n_classes: int) -> LidarMaps:
    """Valid cells and class means of each map. The class of a cell is its
    one-hot in channels 4: of the LiDAR encoding."""
    cells = [f.values.reshape(-1, f.channels).compress(f.mask.reshape(-1), axis=0)
             for f in fmaps]
    means = np.empty((len(fmaps), n_classes, fmaps[0].channels))
    present = np.empty((len(fmaps), n_classes), dtype=bool)
    for m, x in enumerate(cells):
        onehot = x[:, 4:4 + n_classes]
        count = onehot.sum(axis=0)
        present[m] = count > 0
        means[m] = (onehot.T @ x) / np.where(present[m], count, 1.0)[:, None]
    return LidarMaps(cells, means, present,
                     {id(f): m for m, f in enumerate(fmaps)})


def _anchor_cells(anchors: list) -> tuple:
    """Raw values (R, QUERY_CHANNELS) and ground truth (R,) of the valid
    cells of every anchor, back to back, and each anchor's row range."""
    raw = np.concatenate([a.raw[a.mask] for a in anchors])
    gt = np.concatenate([a.gt_labels.labels[a.mask] for a in anchors])
    return raw, gt, _segments([np.count_nonzero(a.mask) for a in anchors])


def total_loss(batch: TrainBatch, params: ModelParams, cfg: Config,
               lidar: LidarMaps | None = None) -> LossReport:
    """Full forward pipeline over a batch with gradients for every
    trainable parameter.

    The anchors go through the query pipeline as one stack, and each
    distinct LiDAR map (by identity) is described once; the contrastive
    term reads one (anchors, maps) similarity matrix. `lidar` must hold
    every map of the batch; without it, it is built from the batch."""
    leaves = params.leaf_tensors()
    enc_t, att_t, vlad_t = leaves["enc"], leaves["att"], leaves["vlad"]

    if lidar is None:
        lidar = lidar_maps(list({id(f): f for s in batch.samples
                                 for f in (*s.positives, *s.negatives)}.values()),
                           cfg.n_classes)
    rows, col = [], {}
    pos_cols, neg_cols = [], []
    for sample in batch.samples:
        for maps, cols in ((sample.positives, pos_cols),
                           (sample.negatives, neg_cols)):
            for f in maps:
                if id(f) not in col:
                    col[id(f)] = len(rows)
                    rows.append(lidar.row[id(f)])
            cols.append([col[id(f)] for f in maps])
    lid_desc = describe_lidar_tape([lidar.cells[m] for m in rows], vlad_t)

    raw, gt, seg = _anchor_cells([s.anchor for s in batch.samples])
    desc, attended, logits, pred = describe_query_tape(
        raw, seg, batch.context, enc_t, att_t, vlad_t)
    l_con = contrastive_tape(desc, lid_desc, pos_cols, neg_cols, cfg)
    # the consistency term compares each anchor with its first positive
    refs = [lidar.row[id(s.positives[0])] for s in batch.samples]
    l_sem = class_means_tape(attended, pred, seg, lidar.means[refs],
                             lidar.present[refs])
    l_seg = segmentation_tape(logits, gt, seg)
    l_tot = _weighted_total(l_con, l_sem, l_seg, cfg.lambda_sem)
    l_tot.backward()

    grads = {}
    for name in TRAINABLE:
        g = leaves["flat"][name].grad
        grads[name] = g if g is not None else np.zeros_like(leaves["flat"][name].data)
    return LossReport(float(l_con.data), float(l_sem.data), float(l_seg.data),
                      float(l_tot.data), grads)


# -------------------------------------------------------------------- trainer

def train(dataset, cfg: Config, epochs: int, lr: float,
          params: ModelParams | None = None, batch_size: int = 0,
          negatives_per_anchor: int = 4) -> tuple[ModelParams, list]:
    """Seeded mini-batch gradient descent with a fixed learning rate.

    `dataset` must expose `places`: a list of objects with `place_id`,
    `queries` (QueryObservation + heading pairs), `viewpoint_fmaps`
    (LocalFeatureMap per viewpoint, yaw order), and the shared `context`
    vector. Bit-reproducible for a fixed config seed.
    """
    places = dataset.places
    if len(places) < 2:
        raise ValueError("training needs at least two places")
    if params is None:
        from .model import init_model_params
        params = init_model_params(cfg)
    tensors = {k: v.copy() for k, v in params.tensors().items()}

    anchors = [(pi, qi) for pi, pl in enumerate(places)
               for qi in range(len(pl.queries))]
    lidar = lidar_maps([f for pl in places for f in pl.viewpoint_fmaps],
                       cfg.n_classes)
    history = []
    for epoch in range(epochs):
        rng = make_rng(cfg.seed, 7000, epoch)
        order = rng.permutation(len(anchors))
        bsz = batch_size if batch_size > 0 else len(anchors)
        sums = np.zeros(4)
        for start in range(0, len(anchors), bsz):
            samples = []
            for j in order[start:start + bsz]:
                pi, qi = anchors[j]
                place = places[pi]
                obs, heading = place.queries[qi]
                k = nearest_viewpoint(heading, cfg.n_viewpoints)
                positives = [place.viewpoint_fmaps[k]]
                negatives = []
                for _ in range(negatives_per_anchor):
                    other = int(rng.integers(len(places) - 1))
                    if other >= pi:
                        other += 1
                    nk = int(rng.integers(cfg.n_viewpoints))
                    negatives.append(places[other].viewpoint_fmaps[nk])
                samples.append(TrainSample(obs, positives, negatives))
            report = total_loss(TrainBatch(samples, dataset.context),
                                ModelParams.from_tensors(tensors), cfg, lidar)
            if not math.isfinite(report.l_total):
                raise TrainingDiverged(epoch)
            for name in TRAINABLE:
                tensors[name] = tensors[name] - lr * report.grads[name]
            sums += (report.l_contrastive, report.l_sem, report.l_seg,
                     report.l_total)
        n_batches = (len(anchors) + bsz - 1) // bsz
        avg = sums / n_batches
        history.append(LossReport(float(avg[0]), float(avg[1]),
                                  float(avg[2]), float(avg[3])))
    return ModelParams.from_tensors(tensors), history


def nearest_viewpoint(heading: float, n_viewpoints: int) -> int:
    """Index of the uniform-yaw viewpoint closest to a heading."""
    step = 2.0 * math.pi / n_viewpoints
    return int(round(heading / step)) % n_viewpoints
