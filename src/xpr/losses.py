"""Training objective: contrastive + semantic-consistency + segmentation
terms with tape gradients, plus a small deterministic trainer."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregation import describe_lidar_tape, describe_query_tape
from .autodiff import Tensor, stack
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

def contrastive_tape(sims: Tensor, positives: list, negatives: list,
                     cfg: Config) -> Tensor:
    """Mean over anchors of the per-anchor contrastive loss.

    `sims` (B, M) holds anchor-to-map similarities; positives[b] and
    negatives[b] list the columns of anchor b's positive and negative maps.
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
    cols = np.array([list(p) + [p[0]] * (width - len(p)) for p in cols])
    pick = sims[np.array(rows)[:, None], cols]          # (terms, width)
    if cfg.loss_kind == "triplet":
        terms = (cfg.margin - pick[:, 0] + pick[:, 1]).relu()
    else:
        # padded slots hold -inf logits, which add nothing to the sum
        logits = pick * (1.0 / cfg.temperature) + pad
        terms = logits.logsumexp_rows() - logits[:, 0]
    return (terms * np.array(weights)).sum()


def class_means_tape(feat: Tensor, labels_flat: np.ndarray,
                     mask_flat: np.ndarray, n_classes: int) -> dict:
    """class id (>=1) -> mean feature Tensor over that class's valid cells."""
    means = {}
    for c in range(1, n_classes):
        idx = np.flatnonzero(mask_flat & (labels_flat == c))
        if idx.size:
            means[c] = feat[idx].mean(axis=0)
    return means


def semantic_consistency_tape(rgb_means: dict, lidar_means: dict) -> Tensor:
    shared = sorted(set(rgb_means) & set(lidar_means))
    if not shared:
        return Tensor(0.0)
    terms = []
    for c in shared:
        d = rgb_means[c] - lidar_means[c]
        terms.append((d * d).sum())
    return stack(terms).mean()


def segmentation_tape(logits: Tensor, gt_flat: np.ndarray,
                      mask_flat: np.ndarray) -> Tensor:
    """Mean cross-entropy over valid cells with a non-void ground truth."""
    idx = np.flatnonzero(mask_flat & (gt_flat > 0))
    if idx.size == 0:
        return Tensor(0.0)
    rows = logits[idx]
    n_classes = logits.shape[1]
    onehot = np.eye(n_classes)[gt_flat[idx]]
    true_logit = (rows * Tensor(onehot)).sum(axis=1)
    return (rows.logsumexp_rows() - true_logit).mean()


# ------------------------------------------------------------------ public API

def _as_desc_array(d) -> np.ndarray:
    return d.values if hasattr(d, "values") else np.asarray(d, dtype=np.float64)


def contrastive_loss(anchor, positives, negatives, cfg: Config
                     ) -> tuple[float, dict]:
    """Loss value and gradients w.r.t. every descriptor entry."""
    n_pos = len(positives)
    a = Tensor(_as_desc_array(anchor)[None, :], requires_grad=True)
    maps = Tensor(np.array([_as_desc_array(d) for d in [*positives, *negatives]]),
                  requires_grad=True)
    loss = contrastive_tape(a @ maps.T, [list(range(n_pos))],
                            [list(range(n_pos, maps.shape[0]))], cfg)
    loss.backward()
    grads = {"anchor": a.grad[0],
             "positives": list(maps.grad[:n_pos]),
             "negatives": list(maps.grad[n_pos:])}
    return float(loss.data), grads


def semantic_consistency_loss(rgb_set: SemanticFeatureSet,
                              lidar_set: SemanticFeatureSet,
                              cfg: Config) -> tuple[float, dict]:
    """Mean squared distance between class means shared by both modalities."""
    rgb_t = Tensor(rgb_set.means, requires_grad=True)
    lid_t = Tensor(lidar_set.means, requires_grad=True)
    rgb = {c: rgb_t[c] for c in range(1, cfg.n_classes) if rgb_set.present[c]}
    lid = {c: lid_t[c] for c in range(1, cfg.n_classes) if lidar_set.present[c]}
    loss = semantic_consistency_tape(rgb, lid)
    if loss.requires_grad:
        loss.backward()
        grads = {"rgb": rgb_t.grad, "lidar": lid_t.grad}
    else:
        grads = {"rgb": np.zeros_like(rgb_set.means),
                 "lidar": np.zeros_like(lidar_set.means)}
    return float(loss.data), grads


def segmentation_loss(logit_grid: np.ndarray, gt: SemanticImage
                      ) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over non-void cells; grad w.r.t. logits."""
    h, w, n_classes = logit_grid.shape
    logits = Tensor(logit_grid.reshape(-1, n_classes), requires_grad=True)
    gt_flat = gt.labels.reshape(-1)
    loss = segmentation_tape(logits, gt_flat, np.ones_like(gt_flat, dtype=bool))
    if loss.requires_grad:
        loss.backward()
        grad = logits.grad.reshape(h, w, n_classes)
    else:
        grad = np.zeros_like(logit_grid)
    return float(loss.data), grad


def _lidar_class_means(fmap, n_classes: int) -> dict:
    """class id (>=1) -> mean feature of a constant LiDAR map's valid cells
    of that class, with the tape's `mean` arithmetic."""
    onehot = fmap.values[..., 4:]
    labels = np.where(onehot.any(axis=-1), np.argmax(onehot, axis=-1), 0)
    feat = fmap.values.reshape(-1, fmap.channels)
    valid = fmap.mask.reshape(-1)
    labels = labels.reshape(-1)
    means = {}
    for c in range(1, n_classes):
        idx = np.flatnonzero(valid & (labels == c))
        if idx.size:
            means[c] = feat[idx].sum(axis=0) * (1.0 / idx.size)
    return means


def total_loss(batch: TrainBatch, params: ModelParams, cfg: Config) -> LossReport:
    """Full forward pipeline over a batch with gradients for every
    trainable parameter, accumulated in a fixed sample order.

    Each distinct LiDAR map (by identity) is described once per batch, and
    the contrastive term reads one (anchors, maps) similarity matrix."""
    leaves = params.leaf_tensors()
    enc_t, att_t, vlad_t = leaves["enc"], leaves["att"], leaves["vlad"]

    fmaps, col = [], {}
    pos_cols, neg_cols = [], []
    for sample in batch.samples:
        for maps, cols in ((sample.positives, pos_cols),
                           (sample.negatives, neg_cols)):
            for f in maps:
                if id(f) not in col:
                    col[id(f)] = len(fmaps)
                    fmaps.append(f)
            cols.append([col[id(f)] for f in maps])
    lidar = describe_lidar_tape(fmaps, vlad_t)                    # (M, D)

    anchors, sem_terms, seg_terms, lid_cache = [], [], [], {}
    for sample in batch.samples:
        obs = sample.anchor
        desc, attended, logits, pred = describe_query_tape(
            obs, batch.context, enc_t, att_t, vlad_t)
        anchors.append(desc)

        mask_flat = obs.mask.reshape(-1)
        rgb_means = class_means_tape(attended, pred.reshape(-1), mask_flat,
                                     cfg.n_classes)
        ref = sample.positives[0]
        if id(ref) not in lid_cache:
            lid_cache[id(ref)] = _lidar_class_means(ref, cfg.n_classes)
        sem_terms.append(semantic_consistency_tape(rgb_means,
                                                   lid_cache[id(ref)]))

        seg_terms.append(segmentation_tape(
            logits, obs.gt_labels.labels.reshape(-1), mask_flat))

    l_con = contrastive_tape(stack(anchors) @ lidar.T, pos_cols, neg_cols, cfg)
    l_sem = stack(sem_terms).mean()
    l_seg = stack(seg_terms).mean()
    l_tot = l_con + cfg.lambda_sem * l_sem + l_seg
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
                                ModelParams.from_tensors(tensors), cfg)
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
