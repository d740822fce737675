import dataclasses
import math

import numpy as np
import pytest

from reference_tape import Tensor, mean, netvlad_tape, sigmoid, stack, tanh
from xpr.config import Config, make_rng
from xpr.encoder import (QUERY_CHANNELS, LocalFeatureMap, QueryObservation)
from xpr.losses import (SemanticFeatureSet, TrainBatch, TrainSample,
                        contrastive_tape, lidar_maps, nearest_viewpoint,
                        segmentation_loss, semantic_consistency_loss,
                        total_loss, train)
from xpr.model import TRAINABLE, ModelParams, init_model_params
from xpr.projection import SemanticImage

# log(1 + e^-1), InfoNCE with one positive at logit 1 and one negative at 0
LOG1P_EXP_NEG1 = 0.31326168751822286
LN8 = 2.0794415416798357


def contrastive_loss(anchor, positives, negatives, cfg):
    """One anchor's loss through the fused node, and its gradients w.r.t.
    the anchor and every map descriptor."""
    n_pos = len(positives)
    a = Tensor(np.asarray(anchor, dtype=np.float64)[None, :], requires_grad=True)
    descs = [np.asarray(d, dtype=np.float64) for d in [*positives, *negatives]]
    maps = Tensor(np.array(descs), requires_grad=True)
    loss = contrastive_tape(a, maps, [list(range(n_pos))],
                            [list(range(n_pos, len(descs)))], cfg)
    loss.backward()
    grads = {"anchor": a.grad[0],
             "positives": list(maps.grad[:n_pos]),
             "negatives": list(maps.grad[n_pos:])}
    return float(loss.data), grads


def test_triplet_worked_example():
    cfg = Config(loss_kind="triplet", margin=0.3)
    a = np.array([1.0, 0.0])
    p = np.array([0.5, 0.3])   # a.p = 0.5
    n = np.array([0.4, -0.2])  # a.n = 0.4
    val, _ = contrastive_loss(a, [p], [n], cfg)
    assert val == pytest.approx(0.3 - 0.5 + 0.4, abs=1e-12)


def test_triplet_satisfied_margin_is_zero():
    cfg = Config(loss_kind="triplet", margin=0.3)
    a = np.array([1.0, 0.0])
    val, grads = contrastive_loss(a, [np.array([0.9, 0.0])],
                                  [np.array([0.1, 0.0])], cfg)
    assert val == 0.0
    assert not grads["anchor"].any()


def test_triplet_averages_over_pairs():
    cfg = Config(loss_kind="triplet", margin=0.5)
    a = np.array([1.0, 0.0])
    ps = [np.array([0.8, 0.0]), np.array([0.2, 0.0])]
    ns = [np.array([0.6, 0.0])]
    # pairs: relu(0.5-0.8+0.6)=0.3, relu(0.5-0.2+0.6)=0.9
    val, _ = contrastive_loss(a, ps, ns, cfg)
    assert val == pytest.approx((0.3 + 0.9) / 2, abs=1e-12)


def test_infonce_worked_example():
    cfg = Config(loss_kind="infonce", temperature=1.0)
    a = np.array([1.0, 0.0])
    p = np.array([1.0, 0.0])
    n = np.array([0.0, 1.0])
    val, _ = contrastive_loss(a, [p], [n], cfg)
    assert val == pytest.approx(LOG1P_EXP_NEG1, abs=1e-12)


def test_infonce_temperature_sharpens():
    a = np.array([1.0, 0.0])
    p = np.array([1.0, 0.0])
    n = np.array([0.0, 1.0])
    hot, _ = contrastive_loss(a, [p], [n], Config(temperature=1.0))
    cold, _ = contrastive_loss(a, [p], [n], Config(temperature=0.07))
    assert cold < hot


def test_empty_sides_rejected():
    cfg = Config()
    a = np.ones(3)
    with pytest.raises(ValueError):
        contrastive_loss(a, [], [a], cfg)
    with pytest.raises(ValueError):
        contrastive_loss(a, [a], [], cfg)


def fd_check(fn, arrays, grads, eps=1e-6, tol=1e-5):
    """fn(arrays) -> scalar; compares grads against central differences."""
    for arr, g in zip(arrays, grads):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + eps
            up = fn(arrays)
            arr[idx] = old - eps
            dn = fn(arrays)
            arr[idx] = old
            fd = (up - dn) / (2 * eps)
            assert abs(g[idx] - fd) <= tol * max(1.0, abs(fd))


@pytest.mark.parametrize("kind", ["triplet", "infonce"])
def test_contrastive_gradients_fd(kind):
    cfg = Config(loss_kind=kind, temperature=0.5, margin=0.4)
    rng = make_rng(1, 1)
    a = rng.normal(size=6)
    ps = [rng.normal(size=6) for _ in range(2)]
    ns = [rng.normal(size=6) for _ in range(3)]
    val, grads = contrastive_loss(a, ps, ns, cfg)
    assert math.isfinite(val)
    arrays = [a] + ps + ns
    flat_grads = [grads["anchor"]] + grads["positives"] + grads["negatives"]

    def fn(arrs):
        return contrastive_loss(arrs[0], arrs[1:3], arrs[3:], cfg)[0]

    fd_check(fn, arrays, flat_grads)


# ---------------------------------------------------- per-sample references

def per_pair_contrastive(anchor, positives, negatives, cfg):
    """One anchor's loss from per-pair dot products: the reference for the
    batched (anchors, maps) similarity form."""
    def dot(a, b):
        return (a * b).sum()

    if cfg.loss_kind == "triplet":
        terms = []
        for p in positives:
            sp = dot(anchor, p)
            for n in negatives:
                terms.append((cfg.margin - sp + dot(anchor, n)).relu())
        return mean(stack(terms))
    inv_t = 1.0 / cfg.temperature
    neg_logits = [dot(anchor, n) * inv_t for n in negatives]
    terms = []
    for p in positives:
        sp = dot(anchor, p) * inv_t
        row = stack([sp] + neg_logits).reshape(1, -1)
        terms.append(row.logsumexp_rows().sum() - sp)
    return mean(stack(terms))


@pytest.mark.parametrize("kind", ["triplet", "infonce"])
def test_batched_contrastive_matches_per_pair(kind):
    cfg = Config(loss_kind=kind, temperature=0.5, margin=0.4)
    rng = make_rng(5, 1)
    n_anchors, n_maps, d = 4, 7, 6
    anchors = rng.normal(size=(n_anchors, d)) / 2.0
    maps = rng.normal(size=(n_maps, d)) / 2.0
    # ragged sides, maps shared between anchors and within one anchor
    pos = [[0], [1, 2], [0], [3]]
    neg = [[4, 5], [0, 6, 6], [2, 3, 4, 5], [6]]

    a = Tensor(anchors, requires_grad=True)
    m = Tensor(maps, requires_grad=True)
    loss = contrastive_tape(a, m, pos, neg, cfg)
    loss.backward()

    ra = [Tensor(x, requires_grad=True) for x in anchors]
    rm = [Tensor(x, requires_grad=True) for x in maps]
    ref = mean(stack([per_pair_contrastive(ra[b], [rm[j] for j in pos[b]],
                                           [rm[j] for j in neg[b]], cfg)
                      for b in range(n_anchors)]))
    ref.backward()

    assert float(loss.data) == pytest.approx(float(ref.data), abs=1e-12)
    for got, refs in ((a.grad, ra), (m.grad, rm)):
        want = np.array([t.grad for t in refs])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_semantic_consistency_worked_example():
    cfg = Config(n_classes=4)
    rgb = np.zeros((4, 3))
    lid = np.zeros((4, 3))
    rgb[1] = [1.0, 0.0, 0.0]
    lid[1] = [0.0, 1.0, 0.0]          # squared distance 2
    rgb[2] = lid[2] = [0.5, 0.5, 0.5]  # squared distance 0
    present = np.array([False, True, True, False])
    val, _ = semantic_consistency_loss(SemanticFeatureSet(rgb, present),
                                       SemanticFeatureSet(lid, present), cfg)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_semantic_consistency_no_shared_classes():
    cfg = Config(n_classes=4)
    a = SemanticFeatureSet(np.ones((4, 3)), np.array([False, True, False, False]))
    b = SemanticFeatureSet(np.ones((4, 3)), np.array([False, False, True, False]))
    val, grads = semantic_consistency_loss(a, b, cfg)
    assert val == 0.0
    assert not grads["rgb"].any() and not grads["lidar"].any()


def test_semantic_consistency_gradients_fd():
    cfg = Config(n_classes=5)
    rng = make_rng(2, 1)
    rgb = rng.normal(size=(5, 4))
    lid = rng.normal(size=(5, 4))
    present_r = np.array([False, True, True, False, True])
    present_l = np.array([False, True, False, True, True])
    _, grads = semantic_consistency_loss(SemanticFeatureSet(rgb, present_r),
                                         SemanticFeatureSet(lid, present_l), cfg)

    def fn(arrs):
        return semantic_consistency_loss(
            SemanticFeatureSet(arrs[0], present_r),
            SemanticFeatureSet(arrs[1], present_l), cfg)[0]

    fd_check(fn, [rgb, lid], [grads["rgb"], grads["lidar"]])


def test_segmentation_uniform_logits():
    gt = SemanticImage(np.ones((3, 4), dtype=np.uint16))
    val, _ = segmentation_loss(np.zeros((3, 4, 8)), gt)
    assert val == pytest.approx(LN8, abs=1e-12)


def test_segmentation_confident_correct_near_zero():
    h, w, k = 2, 3, 8
    gt_labels = np.full((h, w), 5, dtype=np.uint16)
    logits = np.zeros((h, w, k))
    logits[..., 5] = 50.0
    val, _ = segmentation_loss(logits, SemanticImage(gt_labels))
    assert val < 1e-12


def test_segmentation_void_cells_excluded():
    rng = make_rng(3, 1)
    logits = rng.normal(size=(4, 5, 8))
    gt = rng.integers(0, 8, (4, 5)).astype(np.uint16)
    gt[0, 0] = 0
    val, _ = segmentation_loss(logits, SemanticImage(gt))
    # loop oracle over non-void cells only
    total, n = 0.0, 0
    for i in range(4):
        for j in range(5):
            if gt[i, j] == 0:
                continue
            z = logits[i, j]
            total += math.log(np.exp(z - z.max()).sum()) + z.max() - z[gt[i, j]]
            n += 1
    assert val == pytest.approx(total / n, abs=1e-10)


def test_segmentation_all_void_zero():
    val, grad = segmentation_loss(np.ones((2, 2, 8)),
                                  SemanticImage(np.zeros((2, 2), dtype=np.uint16)))
    assert val == 0.0 and not grad.any()


def test_segmentation_gradients_fd():
    rng = make_rng(4, 1)
    logits = rng.normal(size=(2, 3, 5))
    gt = SemanticImage(rng.integers(0, 5, (2, 3)).astype(np.uint16))
    _, grad = segmentation_loss(logits, gt)
    fd_check(lambda arrs: segmentation_loss(arrs[0], gt)[0], [logits], [grad])


def test_nearest_viewpoint_rounding():
    assert nearest_viewpoint(0.0, 8) == 0
    step = 2 * math.pi / 8
    assert nearest_viewpoint(step, 8) == 1
    assert nearest_viewpoint(0.49 * step, 8) == 0
    assert nearest_viewpoint(0.51 * step, 8) == 1
    assert nearest_viewpoint(7.9 * step, 8) == 0  # wraps past the last slot


# ------------------------------------------------------------ batch + trainer

SMALL = Config(n_classes=5, descriptor_dim=12, n_viewpoints=2)


def fake_fmap(rng, cfg, h=4, w=6):
    mask = rng.random((h, w)) < 0.8
    values = np.zeros((h, w, cfg.feature_dim))
    values[..., 0] = rng.uniform(0, 1, (h, w))
    values[..., 1:4] = rng.normal(size=(h, w, 3))
    labels = rng.integers(1, cfg.n_classes, (h, w))
    values[..., 4:] = np.eye(cfg.n_classes)[labels]
    values[~mask] = 0.0
    return LocalFeatureMap(values, mask)


def fake_obs(rng, cfg, h=4, w=6):
    mask = rng.random((h, w)) < 0.85
    raw = rng.normal(size=(h, w, QUERY_CHANNELS))
    gt = rng.integers(0, cfg.n_classes, (h, w)).astype(np.uint16)
    return QueryObservation(raw, mask, SemanticImage(gt))


def fake_batch(seed, cfg, n_samples=2):
    rng = make_rng(seed, 1)
    samples = [TrainSample(fake_obs(rng, cfg),
                           [fake_fmap(rng, cfg)],
                           [fake_fmap(rng, cfg), fake_fmap(rng, cfg)])
               for _ in range(n_samples)]
    context = np.full(cfg.n_classes, 1.0 / cfg.n_classes)
    return TrainBatch(samples, context)


def test_total_loss_composition():
    cfg = SMALL
    params = init_model_params(cfg)
    r = total_loss(fake_batch(1, cfg), params, cfg)
    assert r.l_total == pytest.approx(
        r.l_contrastive + cfg.lambda_sem * r.l_sem + r.l_seg, abs=1e-12)
    assert set(r.grads) == set(TRAINABLE)
    flat = params.tensors()
    for name in TRAINABLE:
        assert r.grads[name].shape == flat[name].shape
        assert np.isfinite(r.grads[name]).all()


def test_total_loss_deterministic():
    cfg = SMALL
    params = init_model_params(cfg)
    r0 = total_loss(fake_batch(2, cfg), params, cfg)
    r1 = total_loss(fake_batch(2, cfg), params, cfg)
    assert r0.l_total == r1.l_total
    for name in TRAINABLE:
        assert np.array_equal(r0.grads[name], r1.grads[name])


def reference_total_loss(batch, params, cfg):
    """The total loss as a per-sample tape: one generic graph per anchor
    and per LiDAR map, the formula the batched nodes must reproduce."""
    flat = {name: Tensor(arr, requires_grad=name in TRAINABLE)
            for name, arr in params.tensors().items()}
    enc, att, vlad = ({name.split(".", 1)[1]: t for name, t in flat.items()
                       if name.startswith(group + ".")}
                      for group in ("enc", "att", "vlad"))
    n_classes = cfg.n_classes

    def describe(valid):
        return netvlad_tape(valid, vlad["centroids"], vlad["assign_w"],
                            vlad["assign_b"], vlad["proj"].data)

    lid = {}
    for s in batch.samples:
        for f in (*s.positives, *s.negatives):
            lid[id(f)] = describe(
                Tensor(f.values.reshape(-1, f.channels)[f.mask.reshape(-1)]))

    con, sem, seg = [], [], []
    for s in batch.samples:
        obs = s.anchor
        mask = obs.mask.reshape(-1)
        x = Tensor(obs.raw.reshape(mask.size, -1))
        h = tanh(x @ enc["rgb_proj"] + enc["rgb_bias"]) * Tensor(
            mask[:, None].astype(np.float64))
        feat = h @ enc["desc_proj"]
        logits = h @ enc["seg_head"] + enc["seg_bias"]
        w = att["bilinear"] @ Tensor(batch.context)
        attended = feat * sigmoid((feat @ w) * att["gain"]).reshape(-1, 1)
        con.append(per_pair_contrastive(
            describe(attended[mask]), [lid[id(f)] for f in s.positives],
            [lid[id(f)] for f in s.negatives], cfg))

        pred = np.argmax(logits.data, axis=1)
        ref = s.positives[0]
        ref_x = ref.values.reshape(-1, ref.channels)[ref.mask.reshape(-1)]
        onehot = ref_x[:, 4:]
        ref_labels = np.where(onehot.any(axis=1), np.argmax(onehot, axis=1), 0)
        terms = []
        for c in range(1, n_classes):
            idx = np.flatnonzero(mask & (pred == c))
            ref_idx = np.flatnonzero(ref_labels == c)
            if idx.size and ref_idx.size:
                d = mean(attended[idx], axis=0) - Tensor(ref_x[ref_idx].mean(axis=0))
                terms.append((d * d).sum())
        sem.append(mean(stack(terms)) if terms else Tensor(0.0))

        gt = obs.gt_labels.labels.reshape(-1)
        idx = np.flatnonzero(mask & (gt > 0))
        if idx.size:
            rows = logits[idx]
            true = (rows * Tensor(np.eye(n_classes)[gt[idx]])).sum(axis=1)
            seg.append(mean(rows.logsumexp_rows() - true))
        else:
            seg.append(Tensor(0.0))

    l_tot = (mean(stack(con)) + cfg.lambda_sem * mean(stack(sem))
             + mean(stack(seg)))
    l_tot.backward()
    return float(l_tot.data), {n: flat[n].grad for n in TRAINABLE}


def degenerate_batch(cfg):
    """Ragged positives and negatives, a map shared by two anchors, a
    smaller anchor, and three degenerate anchors: an all-false mask, no
    non-void ground truth, and a positive with only void cells, so no
    class in common."""
    rng = make_rng(12, 1)
    maps = [fake_fmap(rng, cfg) for _ in range(7)]
    void = fake_fmap(rng, cfg)
    void.values[..., 4:] = np.eye(cfg.n_classes)[0] * void.mask[..., None]
    anchors = [fake_obs(rng, cfg) for _ in range(4)] + [fake_obs(rng, cfg, 3, 5)]
    anchors[1] = QueryObservation(anchors[1].raw,
                                  np.zeros_like(anchors[1].mask),
                                  anchors[1].gt_labels)
    anchors[2] = QueryObservation(
        anchors[2].raw, anchors[2].mask,
        SemanticImage(np.zeros_like(anchors[2].gt_labels.labels)))
    samples = [TrainSample(anchors[0], [maps[0]], [maps[1], maps[2]]),
               TrainSample(anchors[1], [maps[3], maps[4]], [maps[0]]),
               TrainSample(anchors[2], [maps[0]], [maps[5], maps[6], maps[1]]),
               TrainSample(anchors[3], [void], [maps[2], maps[3]]),
               TrainSample(anchors[4], [maps[6], maps[2]], [maps[4]])]
    context = rng.random(cfg.n_classes)
    return TrainBatch(samples, context / context.sum())


@pytest.mark.parametrize("kind", ["triplet", "infonce"])
def test_total_loss_matches_per_sample_tape(kind):
    cfg = dataclasses.replace(SMALL, loss_kind=kind, margin=1.0,
                              temperature=0.5)
    # off the initial point, where the gain is 1, the biases are 0 and the
    # descriptor head is the identity
    rng = make_rng(14, 1)
    params = ModelParams.from_tensors({
        name: arr + (rng.normal(0.0, 0.3, np.shape(arr)) if name in TRAINABLE
                     else 0.0)
        for name, arr in init_model_params(cfg).tensors().items()})
    batch = degenerate_batch(cfg)
    got = total_loss(batch, params, cfg)
    want, want_grads = reference_total_loss(batch, params, cfg)
    assert got.l_total == pytest.approx(want, abs=1e-12)
    for name in TRAINABLE:
        scale = np.abs(want_grads[name]).max()
        assert scale > 0.0, name
        assert np.abs(got.grads[name] - want_grads[name]).max() <= 1e-10 * scale, name


def test_total_loss_reads_a_prebuilt_lidar_table():
    cfg = SMALL
    params = init_model_params(cfg)
    batch = degenerate_batch(cfg)
    spare = fake_fmap(make_rng(13, 1), cfg)
    fmaps = {id(f): f for s in batch.samples
             for f in (*s.positives, *s.negatives)}
    table = lidar_maps([spare, *reversed(fmaps.values())], cfg.n_classes)
    a = total_loss(batch, params, cfg)
    b = total_loss(batch, params, cfg, table)
    assert b.l_total == pytest.approx(a.l_total, abs=1e-12)
    for name in TRAINABLE:
        assert np.allclose(a.grads[name], b.grads[name], rtol=0, atol=1e-12)


class FakeDataset:
    def __init__(self, places, context):
        self.places = places
        self.context = context


class FakePlace:
    def __init__(self, place_id, queries, fmaps):
        self.place_id = place_id
        self.queries = queries
        self.viewpoint_fmaps = fmaps


def fake_dataset(seed, cfg, n_places=3, queries_per_place=1):
    rng = make_rng(seed, 2)
    places = []
    for pid in range(n_places):
        queries = [(fake_obs(rng, cfg), float(rng.uniform(0, 2 * math.pi)))
                   for _ in range(queries_per_place)]
        fmaps = [fake_fmap(rng, cfg) for _ in range(cfg.n_viewpoints)]
        places.append(FakePlace(pid, queries, fmaps))
    return FakeDataset(places, np.full(cfg.n_classes, 1.0 / cfg.n_classes))


def test_train_reproducible_and_updates_params():
    cfg = SMALL
    ds = fake_dataset(7, cfg)
    p0, h0 = train(ds, cfg, epochs=2, lr=1e-2)
    p1, h1 = train(ds, cfg, epochs=2, lr=1e-2)
    t0, t1 = p0.tensors(), p1.tensors()
    for name in t0:
        assert np.array_equal(t0[name], t1[name])
    assert [r.l_total for r in h0] == [r.l_total for r in h1]
    assert len(h0) == 2
    init = init_model_params(cfg).tensors()
    assert any(not np.array_equal(t0[n], init[n]) for n in TRAINABLE)


def test_train_untrainable_projection_frozen():
    cfg = SMALL
    ds = fake_dataset(8, cfg)
    p, _ = train(ds, cfg, epochs=1, lr=1e-2)
    assert np.array_equal(p.vlad.proj, init_model_params(cfg).vlad.proj)


def test_train_single_place_rejected():
    cfg = SMALL
    ds = fake_dataset(9, cfg, n_places=1)
    with pytest.raises(ValueError, match="two places"):
        train(ds, cfg, epochs=1, lr=1e-2)


def test_train_minibatch_reproducible():
    cfg = SMALL
    ds = fake_dataset(10, cfg, n_places=3, queries_per_place=2)
    p0, _ = train(ds, cfg, epochs=1, lr=1e-2, batch_size=2)
    p1, _ = train(ds, cfg, epochs=1, lr=1e-2, batch_size=2)
    t0, t1 = p0.tensors(), p1.tensors()
    for name in t0:
        assert np.array_equal(t0[name], t1[name])
