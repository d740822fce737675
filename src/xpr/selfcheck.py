"""Built-in numerical checks: finite-difference gradients, brute-force
NetVLAD equivalence, projection shift property, sphere normals, IoU oracle."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import GlobalDescriptor, NetVladParams, netvlad, netvlad_batch
from .config import Config, make_rng
from .core import LabeledPointCloud, identity_pose, yaw_rotation
from .encoder import QueryObservation, QUERY_CHANNELS
from .losses import (TrainTable, class_means_tape, contrastive_tape,
                     segmentation_tape, total_loss, train_table)
from .matching import MapIndex, match_query
from .model import ModelParams, TRAINABLE, init_model_params
from .projection import (RangeImage, SemanticImage, class_counts,
                         estimate_normals, frustum_window, project_spherical,
                         semantic_context, unproject)


FD_STEP = 1e-4            # central-difference step of the gradient checks
GRAD_PICKS = 20           # parameter entries check_total_grad differentiates
NETVLAD_INSTANCES = 100   # random problems check_netvlad_oracle compares
SHIFT_SCENES = 20         # scenes check_projection_shift rotates
SPHERE_RADIUS = 10.0      # meters, the sphere of check_sphere_normals
IOU_INSTANCES = 50        # random window pairs check_iou_oracle scores


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


def central_diff(f, x: np.ndarray) -> np.ndarray:
    """Dense central finite-difference gradient of a scalar function."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + FD_STEP
        fp = f(x)
        flat[i] = old - FD_STEP
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


# -------------------------------------------------------- gradient checks

def check_contrastive_grad(seed: int, kind: str, corrupt: bool = False) -> CheckResult:
    """Fused contrastive node: anchor and map gradients on a batch whose
    anchors share map columns, one map repeating within an anchor's
    negatives."""
    cfg = Config(loss_kind=kind, seed=seed)
    rng = make_rng(seed, 10)
    d = 16
    anchors = np.array([_unit(rng, d) for _ in range(3)])
    maps = np.array([_unit(rng, d) for _ in range(6)])
    pos = np.array([0, 1, 0])
    neg = np.array([[3, 4, 2], [0, 5, 5], [2, 3, 4]])
    ga, gm = contrastive_tape(anchors, maps, pos, neg, cfg)[1](1.0)
    scale = 1.01 if corrupt else 1.0

    def loss(x, y):
        return float(contrastive_tape(x, y, pos, neg, cfg)[0])

    fa = central_diff(lambda x: loss(x, maps), anchors.copy())
    fm = central_diff(lambda y: loss(anchors, y), maps.copy())
    return CheckResult(f"grad_contrastive_{kind}",
                       max(_rel_err(ga * scale, fa), _rel_err(gm * scale, fm)),
                       1e-3)


def _node_grad_err(node, x: np.ndarray) -> float:
    """Relative error of the gradient that node(x) -> (value, backward)
    gives x, against central differences."""
    return _rel_err(node(x)[1](1.0),
                    central_diff(lambda y: float(node(y)[0]), x.copy()))


RAGGED = np.array([[0, 5], [5, 14]])  # row ranges of anchors of 5 and 9 cells


def check_semantic_consistency_grad(seed: int) -> CheckResult:
    """Class-means node: attended-feature gradient on a ragged two-anchor
    batch whose anchors share some classes with their LiDAR means."""
    rng = make_rng(seed, 11)
    labels = rng.integers(0, 5, 14)
    lid_means = rng.normal(size=(2, 5, 6))
    lid_present = np.array([[False, True, True, False, True],
                            [True, False, True, True, True]])
    err = _node_grad_err(lambda x: class_means_tape(x, labels, RAGGED, lid_means,
                                                    lid_present),
                         rng.normal(size=(14, 6)))
    return CheckResult("grad_semantic_consistency", err, 1e-3)


def check_segmentation_grad(seed: int) -> CheckResult:
    """Segmentation node: logit gradient on a ragged two-anchor batch with
    void cells."""
    rng = make_rng(seed, 12)
    gt = rng.integers(0, 6, 14)
    err = _node_grad_err(lambda x: segmentation_tape(x, gt, RAGGED),
                         rng.normal(size=(14, 6)))
    return CheckResult("grad_segmentation", err, 1e-3)


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

    def node(x, *params):
        return netvlad_batch([x[lo:hi] for lo, hi in seg], *params, proj)

    names = ("vlad.centroids", "vlad.assign_w", "vlad.assign_b")
    grads = {n: np.zeros_like(x) for n, x in zip(names, inputs[1:])}
    gcells = np.zeros_like(cells)
    node(*inputs)[1](g, grads, [gcells[lo:hi] for lo, hi in seg])
    worst = 0.0
    for i, analytic in enumerate([gcells] + [grads[n] for n in names]):
        def f(x, i=i):
            return float((g * node(*inputs[:i], x, *inputs[i + 1:])[0]).sum())
        worst = max(worst, _rel_err(analytic, central_diff(f, inputs[i].copy())))
    return CheckResult("grad_netvlad_batch", worst, 1e-3)


def _toy_cells(rng, h, w, cfg: Config) -> np.ndarray:
    """The valid cells of an (h, w) map: depth, unit normal, one-hot label."""
    mask = rng.random((h, w)) > 0.2
    labels = rng.integers(1, cfg.n_classes, size=(h, w))[mask]
    depth = rng.random((h, w))[mask]
    n = rng.normal(size=(h, w, 3))[mask]
    cells = np.empty((len(labels), cfg.feature_dim))
    cells[:, 0] = depth
    cells[:, 1:4] = n / np.linalg.norm(n, axis=-1, keepdims=True)
    cells[:, 4:] = np.eye(cfg.n_classes)[labels]
    return cells


def _toy_table(cfg: Config, rng) -> TrainTable:
    """Two places of one query and three viewpoint maps each."""
    h, w = 3, 4
    places = []
    for _ in range(2):
        raw = rng.normal(0.0, 0.4, size=(h, w, QUERY_CHANNELS))
        mask = rng.random((h, w)) > 0.15
        gt = rng.integers(0, cfg.n_classes, size=(h, w)).astype(np.uint16)
        cells = [_toy_cells(rng, h, w, cfg) for _ in range(cfg.n_viewpoints)]
        places.append(([(QueryObservation(raw, mask, gt), 0.0)], cells))
    context = rng.random(cfg.n_classes)
    return train_table(places, context / context.sum(), cfg)


def check_total_grad(seed: int, corrupt: bool = False) -> CheckResult:
    cfg = Config(n_classes=5, descriptor_dim=12, n_viewpoints=3, seed=seed)
    rng = make_rng(seed, 13)
    params = init_model_params(cfg)
    table = _toy_table(cfg, rng)

    def loss(p):
        # anchor 1's negatives include anchor 0's positive, and anchor 0's
        # repeat one map
        return total_loss(table, np.array([0, 1]),
                          np.array([[4, 5, 5], [0, 1, 2]]), p, cfg)

    report = loss(params)
    tensors = {k: v.copy() for k, v in params.tensors().items()}
    picks = []
    for _ in range(GRAD_PICKS):
        name = TRAINABLE[int(rng.integers(len(TRAINABLE)))]
        idx = int(rng.integers(tensors[name].size))
        picks.append((name, idx))

    analytic = np.array([report.grads[n].reshape(-1)[i] for n, i in picks])
    if corrupt:
        analytic = analytic * 1.01 + 1e-3
    numeric = np.empty(len(picks))
    for j, (name, idx) in enumerate(picks):
        vals = []
        for sgn in (+1.0, -1.0):
            t = {k: v.copy() for k, v in tensors.items()}
            t[name].reshape(-1)[idx] += sgn * FD_STEP
            vals.append(loss(ModelParams.from_tensors(t)).l_total)
        numeric[j] = (vals[0] - vals[1]) / (2.0 * FD_STEP)
    return CheckResult("grad_total_loss", _rel_err(analytic, numeric), 1e-3)


# ----------------------------------------------------------- oracle checks

def netvlad_reference(cells: np.ndarray, params: NetVladParams) -> np.ndarray:
    """Brute-force scalar-loop NetVLAD of (n, C) cells, independent of the
    library path."""
    k_n, c_n = params.centroids.shape
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


def check_netvlad_oracle(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(NETVLAD_INSTANCES):
        rng = make_rng(seed, 20, i)
        k = int(rng.integers(1, 5))
        c = int(rng.integers(2, 9))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = NetVladParams(rng.normal(size=(k, c)), rng.normal(size=(k, c)),
                               rng.normal(size=k),
                               rng.normal(size=(16, k * c)) / 4.0)
        values = rng.normal(size=(h, w, c))
        cells = values[rng.random((h, w)) > 0.2]
        got = netvlad(cells, params)
        ref = netvlad_reference(cells, params)
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


def check_projection_shift(seed: int) -> CheckResult:
    cfg = Config(seed=seed)
    worst = 0.0
    for i in range(SHIFT_SCENES):
        rng = make_rng(seed, 21, i)
        cloud = shift_safe_scene(rng, cfg)
        shift = int(rng.integers(1, cfg.range_cols))
        theta = shift * 2.0 * math.pi / cfg.range_cols
        rot = yaw_rotation(theta)
        rotated = LabeledPointCloud(cloud.points @ rot.T, cloud.labels)
        img0, labels0 = project_spherical(cloud, [identity_pose()], cfg)
        img1, labels1 = project_spherical(rotated, [identity_pose()], cfg)
        worst = max(worst,
                    float(np.abs(np.roll(img0.depth, shift, axis=-1)
                                 - img1.depth).max()),
                    float(np.abs(np.roll(labels0.astype(int), shift, axis=-1)
                                 - labels1.astype(int)).max()))
    return CheckResult("projection_shift", worst, 1e-12)


def check_sphere_normals() -> CheckResult:
    cfg = Config(range_rows=64, range_cols=360)
    depth = np.full((64, 360), SPHERE_RADIUS)
    img = estimate_normals(RangeImage(depth, None), cfg)
    pts = unproject(img, cfg)
    radial = pts / SPHERE_RADIUS
    # every cell is filled, so the normal rows are the (H, W) grid's cells
    normals = img.normals.reshape(pts.shape)
    cosang = np.clip(-(normals * radial).sum(axis=-1), -1.0, 1.0)
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


def check_iou_oracle(seed: int) -> CheckResult:
    """The psi match_query scores, each candidate the one frontal window of
    a one-place index."""
    cfg = Config(n_classes=6, n_viewpoints=1, range_rows=6, range_cols=32,
                 seed=seed)
    width = frustum_window(cfg.range_cols)[1]
    zero = np.zeros(cfg.descriptor_dim)
    worst = 0.0
    for i in range(IOU_INSTANCES):
        rng = make_rng(seed, 22, i)
        q = rng.integers(0, 6, size=(cfg.range_rows, width)).astype(np.uint16)
        c = rng.integers(0, 6, size=(cfg.range_rows, width)).astype(np.uint16)
        index = MapIndex([(0, np.zeros(3))], [zero], [c],
                         semantic_context(class_counts([c], cfg)), cfg)
        got = match_query(GlobalDescriptor(zero), SemanticImage(q), index,
                          cfg).psi
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
