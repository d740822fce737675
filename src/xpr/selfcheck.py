"""Built-in numerical checks: finite-difference gradients, brute-force
NetVLAD equivalence, projection shift property, sphere normals, IoU oracle."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import NetVladParams, netvlad, netvlad_batch
from .autodiff import Tensor
from .config import Config, make_rng
from .core import LabeledPointCloud, identity_pose, yaw_rotation
from .encoder import LocalFeatureMap, QueryObservation, QUERY_CHANNELS
from .losses import (SemanticFeatureSet, TrainBatch, TrainSample,
                     contrastive_tape, segmentation_loss,
                     semantic_consistency_loss, total_loss)
from .matching import semantic_overlap
from .model import ModelParams, TRAINABLE, init_model_params
from .projection import (RangeImage, SemanticImage, estimate_normals,
                         project_spherical, unproject)


@dataclass
class CheckResult:
    name: str
    max_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def central_diff(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Dense central finite-difference gradient of a scalar function."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        fp = f(x)
        flat[i] = old - step
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


# -------------------------------------------------------- gradient checks

def check_contrastive_grad(seed: int, kind: str, corrupt: bool = False) -> CheckResult:
    """Fused contrastive node: anchor and map gradients on a ragged batch
    whose anchors share map columns, one map repeating within an anchor."""
    cfg = Config(loss_kind=kind, seed=seed)
    rng = make_rng(seed, 10)
    d = 16
    anchors = np.array([_unit(rng, d) for _ in range(3)])
    maps = np.array([_unit(rng, d) for _ in range(6)])
    pos = [[0], [1, 2], [0]]
    neg = [[3, 4], [0, 5, 5], [2, 3, 4, 5]]
    a, m = Tensor(anchors, requires_grad=True), Tensor(maps, requires_grad=True)
    contrastive_tape(a, m, pos, neg, cfg).backward()
    scale = 1.01 if corrupt else 1.0

    def loss(x, y):
        return float(contrastive_tape(Tensor(x), Tensor(y), pos, neg, cfg).data)

    ga = central_diff(lambda x: loss(x, maps), anchors.copy())
    gm = central_diff(lambda y: loss(anchors, y), maps.copy())
    return CheckResult(f"grad_contrastive_{kind}",
                       max(_rel_err(a.grad * scale, ga),
                           _rel_err(m.grad * scale, gm)), 1e-3)


def check_semantic_consistency_grad(seed: int) -> CheckResult:
    cfg = Config(n_classes=5, seed=seed)
    rng = make_rng(seed, 11)
    c = cfg.feature_dim
    present = np.array([False, True, True, False, True])
    rgb = SemanticFeatureSet(rng.normal(size=(5, c)), present)
    lid = SemanticFeatureSet(rng.normal(size=(5, c)), present)
    _, grads = semantic_consistency_loss(rgb, lid, cfg)

    def f(x):
        return semantic_consistency_loss(
            SemanticFeatureSet(x, present), lid, cfg)[0]

    gn = central_diff(f, rgb.means.copy())
    return CheckResult("grad_semantic_consistency",
                       _rel_err(grads["rgb"], gn), 1e-3)


def check_segmentation_grad(seed: int) -> CheckResult:
    rng = make_rng(seed, 12)
    logits = rng.normal(size=(4, 5, 6))
    gt = SemanticImage(rng.integers(0, 6, size=(4, 5)).astype(np.uint16))
    _, ga = segmentation_loss(logits, gt)
    gn = central_diff(lambda x: segmentation_loss(x, gt)[0], logits.copy())
    return CheckResult("grad_segmentation", _rel_err(ga, gn), 1e-3)


def check_netvlad_batch_grad(seed: int) -> CheckResult:
    """Fused batched NetVLAD: cell, centroid and soft-assignment gradients
    of sum(G * out) on a batch with a repeated map and a zero-cell map."""
    rng = make_rng(seed, 14)
    k, c, d = 3, 4, 6
    cells = rng.normal(size=(8, c))
    # map 1 has no cells; map 3 repeats map 0 over the same rows
    seg = np.array([[0, 5], [5, 5], [5, 8], [0, 5]])
    proj = rng.normal(size=(d, k * c))
    g = rng.normal(size=(len(seg), d))
    inputs = [cells, rng.normal(size=(k, c)), rng.normal(size=(k, c)),
              rng.normal(size=k)]

    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    netvlad_batch(leaves[0], seg, *leaves[1:], proj).backward(g)
    worst = 0.0
    for i, leaf in enumerate(leaves):
        def f(x, i=i):
            p = [Tensor(y) for y in inputs[:i] + [x] + inputs[i + 1:]]
            return float((g * netvlad_batch(p[0], seg, *p[1:], proj).data).sum())
        worst = max(worst, _rel_err(leaf.grad, central_diff(f, inputs[i].copy())))
    return CheckResult("grad_netvlad_batch", worst, 1e-3)


def _toy_fmap(rng, h, w, cfg: Config) -> LocalFeatureMap:
    mask = rng.random((h, w)) > 0.2
    labels = rng.integers(1, cfg.n_classes, size=(h, w))
    values = np.zeros((h, w, cfg.feature_dim))
    values[..., 0] = rng.random((h, w))
    n = rng.normal(size=(h, w, 3))
    values[..., 1:4] = n / np.linalg.norm(n, axis=-1, keepdims=True)
    values[..., 4:] = np.eye(cfg.n_classes)[labels]
    values[~mask] = 0.0
    return LocalFeatureMap(values, mask)


def toy_batch(cfg: Config, rng) -> TrainBatch:
    h, w = 3, 4
    samples = []
    for _ in range(2):
        raw = rng.normal(0.0, 0.4, size=(h, w, QUERY_CHANNELS))
        mask = rng.random((h, w)) > 0.15
        gt = SemanticImage(rng.integers(0, cfg.n_classes,
                                        size=(h, w)).astype(np.uint16))
        obs = QueryObservation(raw, mask, gt)
        positives = [_toy_fmap(rng, h, w, cfg)]
        negatives = [_toy_fmap(rng, h, w, cfg) for _ in range(2)]
        samples.append(TrainSample(obs, positives, negatives))
    context = rng.random(cfg.n_classes)
    return TrainBatch(samples, context / context.sum())


def check_total_grad(seed: int, n_params: int = 20,
                     corrupt: bool = False) -> CheckResult:
    cfg = Config(n_classes=5, descriptor_dim=12, seed=seed)
    rng = make_rng(seed, 13)
    params = init_model_params(cfg)
    batch = toy_batch(cfg, rng)
    report = total_loss(batch, params, cfg)

    tensors = {k: v.copy() for k, v in params.tensors().items()}
    picks = []
    for _ in range(n_params):
        name = TRAINABLE[int(rng.integers(len(TRAINABLE)))]
        idx = int(rng.integers(tensors[name].size))
        picks.append((name, idx))

    analytic = np.array([report.grads[n].reshape(-1)[i] for n, i in picks])
    if corrupt:
        analytic = analytic * 1.01 + 1e-3
    numeric = np.empty(len(picks))
    step = 1e-4
    for j, (name, idx) in enumerate(picks):
        vals = []
        for sgn in (+1.0, -1.0):
            t = {k: v.copy() for k, v in tensors.items()}
            t[name].reshape(-1)[idx] += sgn * step
            vals.append(total_loss(batch, ModelParams.from_tensors(t),
                                   cfg).l_total)
        numeric[j] = (vals[0] - vals[1]) / (2.0 * step)
    return CheckResult("grad_total_loss", _rel_err(analytic, numeric), 1e-3)


# ----------------------------------------------------------- oracle checks

def netvlad_reference(values: np.ndarray, mask: np.ndarray,
                      params: NetVladParams) -> np.ndarray:
    """Brute-force scalar-loop NetVLAD, independent of the library path."""
    k_n, c_n = params.centroids.shape
    cells = [values[r, col] for r in range(values.shape[0])
             for col in range(values.shape[1]) if mask[r, col]]
    vlad = np.zeros((k_n, c_n))
    for x in cells:
        logits = [sum(params.assign_w[k][j] * x[j] for j in range(c_n))
                  + params.assign_b[k] for k in range(k_n)]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        z = sum(exps)
        for k in range(k_n):
            a = exps[k] / z
            for j in range(c_n):
                vlad[k][j] += a * (x[j] - params.centroids[k][j])
    for k in range(k_n):
        nrm = math.sqrt(sum(vlad[k][j] ** 2 for j in range(c_n)))
        if nrm > 0.0:
            for j in range(c_n):
                vlad[k][j] /= nrm
    flat = vlad.reshape(-1)
    out = params.proj @ flat
    nrm = math.sqrt(float(out @ out))
    return out / nrm if nrm > 0.0 else out


def check_netvlad_oracle(seed: int, n_instances: int = 100) -> CheckResult:
    worst = 0.0
    for i in range(n_instances):
        rng = make_rng(seed, 20, i)
        k = int(rng.integers(1, 5))
        c = int(rng.integers(2, 9))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = NetVladParams(rng.normal(size=(k, c)), rng.normal(size=(k, c)),
                               rng.normal(size=k),
                               rng.normal(size=(16, k * c)) / 4.0)
        values = rng.normal(size=(h, w, c))
        mask = rng.random((h, w)) > 0.2
        values[~mask] = 0.0
        got = netvlad(LocalFeatureMap(values, mask), params)
        if not mask.any():
            worst = max(worst, float(np.abs(got.values).max()))
            continue
        ref = netvlad_reference(values, mask, params)
        worst = max(worst, float(np.abs(got.values - ref).max()))
        if not got.flagged:
            worst = max(worst, abs(float(np.linalg.norm(got.values)) - 1.0))
    return CheckResult("netvlad_oracle", worst, 1e-10)


def shift_safe_scene(rng, cfg: Config, n_points: int = 200):
    """Points at cell centers so yaw by whole columns shifts exactly."""
    h, w = cfg.range_rows, cfg.range_cols
    rows = rng.integers(0, h, n_points)
    cols = rng.integers(0, w, n_points)
    ranges = rng.uniform(2.0, 40.0, n_points)
    up, down = math.radians(cfg.vfov_up), math.radians(cfg.vfov_down)
    az = -math.pi + (cols + 0.5) * (2.0 * math.pi / w)
    el = up - (rows + 0.5) * ((up - down) / h)
    pts = np.column_stack([ranges * np.cos(el) * np.cos(az),
                           ranges * np.cos(el) * np.sin(az),
                           ranges * np.sin(el)])
    labels = rng.integers(1, cfg.n_classes, n_points).astype(np.uint16)
    return LabeledPointCloud(pts, labels)


def check_projection_shift(seed: int, n_scenes: int = 20) -> CheckResult:
    cfg = Config(seed=seed)
    worst = 0.0
    for i in range(n_scenes):
        rng = make_rng(seed, 21, i)
        cloud = shift_safe_scene(rng, cfg)
        shift = int(rng.integers(1, cfg.range_cols))
        theta = shift * 2.0 * math.pi / cfg.range_cols
        rot = yaw_rotation(theta)
        rotated = LabeledPointCloud(cloud.points @ rot.T, cloud.labels)
        img0, sem0 = project_spherical(cloud, identity_pose(), cfg)
        img1, sem1 = project_spherical(rotated, identity_pose(), cfg)
        worst = max(worst,
                    float(np.abs(np.roll(img0.depth, shift, axis=1)
                                 - img1.depth).max()),
                    float(np.abs(np.roll(sem0.labels.astype(int), shift, axis=1)
                                 - sem1.labels.astype(int)).max()))
    return CheckResult("projection_shift", worst, 1e-12)


def check_sphere_normals(radius: float = 10.0) -> CheckResult:
    cfg = Config(range_rows=64, range_cols=360)
    depth = np.full((64, 360), radius)
    img = estimate_normals(RangeImage(depth, np.zeros((64, 360, 3)),
                                      cfg.vfov_up, cfg.vfov_down))
    pts = unproject(img)
    radial = pts / radius
    cosang = np.clip(-(img.normals * radial).sum(axis=-1), -1.0, 1.0)
    return CheckResult("sphere_normals",
                       float(np.degrees(np.arccos(cosang)).max()), 2.0)


def iou_reference(q: np.ndarray, c: np.ndarray, n_classes: int) -> float:
    if not any(q[i, j] > 0 and c[i, j] > 0
               for i in range(q.shape[0]) for j in range(q.shape[1])):
        return 0.0
    total, n = 0.0, 0
    for cls in range(1, n_classes):
        inter = union = 0
        for i in range(q.shape[0]):
            for j in range(q.shape[1]):
                a = q[i, j] == cls
                b = c[i, j] == cls
                inter += a and b
                union += a or b
        if union:
            total += inter / union
            n += 1
    return total / n if n else 0.0


def check_iou_oracle(seed: int, n_instances: int = 50) -> CheckResult:
    cfg = Config(n_classes=6, seed=seed)
    worst = 0.0
    for i in range(n_instances):
        rng = make_rng(seed, 22, i)
        q = rng.integers(0, 6, size=(6, 8)).astype(np.uint16)
        c = rng.integers(0, 6, size=(6, 8)).astype(np.uint16)
        got = semantic_overlap(SemanticImage(q), SemanticImage(c), cfg)
        worst = max(worst, abs(got - iou_reference(q, c, cfg.n_classes)))
    return CheckResult("iou_oracle", worst, 1e-12)


def run_all(seed: int = 0, corrupt_gradient: bool = False) -> list:
    return [
        check_contrastive_grad(seed, "triplet", corrupt=corrupt_gradient),
        check_contrastive_grad(seed, "infonce"),
        check_semantic_consistency_grad(seed),
        check_segmentation_grad(seed),
        check_total_grad(seed, corrupt=corrupt_gradient),
        check_netvlad_batch_grad(seed),
        check_netvlad_oracle(seed),
        check_projection_shift(seed),
        check_sphere_normals(),
        check_iou_oracle(seed),
    ]
