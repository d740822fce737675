import dataclasses
import math

import numpy as np
import pytest

from reference_tape import Tensor, mean, netvlad_tape, sigmoid, stack, tanh
from xpr import losses
from xpr.config import Config, make_rng
from xpr.encoder import QUERY_CHANNELS, QueryObservation
from xpr.io_datasets import Dataset, QueryRecord
from xpr.losses import (TrainingDiverged, class_means_tape, contrastive_tape,
                        nearest_viewpoint, segmentation_tape, total_loss, train,
                        train_table)
from xpr.matching import MapIndex
from xpr.model import TRAINABLE, ModelParams, init_model_params
from xpr.pipeline import PlaceRenders, training_set
from xpr.projection import SemanticImage, semantic_histogram

# log(1 + e^-1), InfoNCE with one positive at logit 1 and one negative at 0
LOG1P_EXP_NEG1 = 0.31326168751822286
LN8 = 2.0794415416798357


def contrastive_loss(anchor, positive, negatives, cfg):
    """One anchor's loss through the fused node, and its gradients w.r.t.
    the anchor and the map descriptors, positive first."""
    a = np.asarray(anchor, dtype=np.float64)[None, :]
    maps = np.array([positive, *negatives], dtype=np.float64)
    loss, backward = contrastive_tape(a, maps, np.array([0]),
                                      np.arange(1, len(maps))[None, :], cfg)
    ga, gm = backward(1.0)
    return float(loss), {"anchor": ga[0], "maps": list(gm)}


def test_triplet_worked_example():
    cfg = Config(loss_kind="triplet", margin=0.3)
    a = np.array([1.0, 0.0])
    p = np.array([0.5, 0.3])   # a.p = 0.5
    n = np.array([0.4, -0.2])  # a.n = 0.4
    val, _ = contrastive_loss(a, p, [n], cfg)
    assert val == pytest.approx(0.3 - 0.5 + 0.4, abs=1e-12)


def test_triplet_satisfied_margin_is_zero():
    cfg = Config(loss_kind="triplet", margin=0.3)
    a = np.array([1.0, 0.0])
    val, grads = contrastive_loss(a, np.array([0.9, 0.0]),
                                  [np.array([0.1, 0.0])], cfg)
    assert val == 0.0
    assert not grads["anchor"].any()


def test_triplet_averages_over_pairs():
    cfg = Config(loss_kind="triplet", margin=0.5)
    a = np.array([1.0, 0.0])
    p = np.array([0.8, 0.0])
    ns = [np.array([0.6, 0.0]), np.array([0.9, 0.0]), np.array([0.2, 0.0])]
    # pairs: relu(0.5-0.8+0.6)=0.3, relu(0.5-0.8+0.9)=0.6, relu(0.5-0.8+0.2)=0
    val, _ = contrastive_loss(a, p, ns, cfg)
    assert val == pytest.approx((0.3 + 0.6 + 0.0) / 3, abs=1e-12)


def test_infonce_worked_example():
    cfg = Config(loss_kind="infonce", temperature=1.0)
    a = np.array([1.0, 0.0])
    p = np.array([1.0, 0.0])
    n = np.array([0.0, 1.0])
    val, _ = contrastive_loss(a, p, [n], cfg)
    assert val == pytest.approx(LOG1P_EXP_NEG1, abs=1e-12)


def test_infonce_temperature_sharpens():
    a = np.array([1.0, 0.0])
    p = np.array([1.0, 0.0])
    n = np.array([0.0, 1.0])
    hot, _ = contrastive_loss(a, p, [n], Config(temperature=1.0))
    cold, _ = contrastive_loss(a, p, [n], Config(temperature=0.07))
    assert cold < hot


def test_empty_sides_rejected():
    a = np.ones(3)
    for kind in ("triplet", "infonce"):
        with pytest.raises(ValueError, match="negative"):
            contrastive_loss(a, a, [], Config(loss_kind=kind))


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
    p = rng.normal(size=6)
    ns = [rng.normal(size=6) for _ in range(3)]
    val, grads = contrastive_loss(a, p, ns, cfg)
    assert math.isfinite(val)
    arrays = [a, p] + ns
    flat_grads = [grads["anchor"]] + grads["maps"]

    def fn(arrs):
        return contrastive_loss(arrs[0], arrs[1], arrs[2:], cfg)[0]

    fd_check(fn, arrays, flat_grads)


# ---------------------------------------------------- per-sample references

def per_pair_contrastive(anchor, positive, negatives, cfg):
    """One anchor's loss from per-pair dot products: the reference for the
    batched (anchors, maps) similarity form."""
    def dot(a, b):
        return (a * b).sum()

    sp = dot(anchor, positive)
    if cfg.loss_kind == "triplet":
        return mean(stack([(cfg.margin - sp + dot(anchor, n)).relu()
                           for n in negatives]))
    inv_t = 1.0 / cfg.temperature
    row = stack([sp * inv_t] + [dot(anchor, n) * inv_t for n in negatives])
    return row.reshape(1, -1).logsumexp_rows().sum() - sp * inv_t


@pytest.mark.parametrize("kind", ["triplet", "infonce"])
def test_batched_contrastive_matches_per_pair(kind):
    cfg = Config(loss_kind=kind, temperature=0.5, margin=0.4)
    rng = make_rng(5, 1)
    n_anchors, n_maps, d = 4, 7, 6
    anchors = rng.normal(size=(n_anchors, d)) / 2.0
    maps = rng.normal(size=(n_maps, d)) / 2.0
    # maps shared between anchors, and one repeated within an anchor's
    # negatives
    pos = np.array([0, 1, 0, 3])
    neg = np.array([[4, 5, 2], [0, 6, 6], [2, 3, 4], [6, 5, 1]])

    loss, backward = contrastive_tape(anchors, maps, pos, neg, cfg)
    ga, gm = backward(1.0)

    ra = [Tensor(x, requires_grad=True) for x in anchors]
    rm = [Tensor(x, requires_grad=True) for x in maps]
    ref = mean(stack([per_pair_contrastive(ra[b], rm[pos[b]],
                                           [rm[j] for j in neg[b]], cfg)
                      for b in range(n_anchors)]))
    ref.backward()

    assert float(loss) == pytest.approx(float(ref.data), abs=1e-12)
    for got, refs in ((ga, ra), (gm, rm)):
        want = np.array([t.grad for t in refs])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def class_means(attended, labels, seg, lid_means, lid_present):
    """A batch's consistency term through the fused node, and its gradient
    w.r.t. the attended features."""
    loss, backward = class_means_tape(np.asarray(attended, dtype=np.float64),
                                      np.asarray(labels), np.asarray(seg),
                                      np.asarray(lid_means, dtype=np.float64),
                                      np.asarray(lid_present))
    return float(loss), backward(1.0)


def test_semantic_consistency_worked_example():
    # one anchor; its class-1 cells average to [1, 0, 0]
    attended = [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]
    lid = np.zeros((1, 4, 3))
    lid[0, 1] = [0.0, 1.0, 0.0]         # squared distance 2
    lid[0, 2] = [0.5, 0.5, 0.5]         # squared distance 0
    present = [[False, True, True, False]]
    val, _ = class_means(attended, [1, 1, 2], [[0, 3]], lid, present)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_semantic_consistency_no_shared_classes():
    # the anchor has only class 1, the LiDAR map only class 2
    val, grad = class_means(np.ones((1, 3)), [1], [[0, 1]], np.ones((1, 4, 3)),
                            [[False, False, True, False]])
    assert val == 0.0
    assert not grad.any()


def test_semantic_consistency_gradients_fd():
    rng = make_rng(2, 1)
    attended = rng.normal(size=(7, 4))
    # anchors of 4 and 3 cells predicting classes 1, 2 and 4
    labels = np.array([1, 2, 4, 1, 2, 4, 4])
    seg = np.array([[0, 4], [4, 7]])
    lid = rng.normal(size=(2, 5, 4))
    present = np.array([[False, True, False, True, True]] * 2)
    _, grad = class_means(attended, labels, seg, lid, present)
    fd_check(lambda arrs: class_means(arrs[0], labels, seg, lid, present)[0],
             [attended], [grad])


def segmentation(logits, gt, seg=None):
    """A batch's segmentation term through the fused node, one anchor
    unless `seg` says otherwise, and its gradient w.r.t. the logits."""
    seg = np.array([[0, len(gt)]]) if seg is None else seg
    loss, backward = segmentation_tape(np.asarray(logits, dtype=np.float64),
                                       np.asarray(gt), seg)
    return float(loss), backward(1.0)


def test_segmentation_uniform_logits():
    val, _ = segmentation(np.zeros((12, 8)), np.ones(12, dtype=np.uint16))
    assert val == pytest.approx(LN8, abs=1e-12)


def test_segmentation_confident_correct_near_zero():
    logits = np.zeros((6, 8))
    logits[:, 5] = 50.0
    val, _ = segmentation(logits, np.full(6, 5, dtype=np.uint16))
    assert val < 1e-12


def test_segmentation_void_cells_excluded():
    rng = make_rng(3, 1)
    logits = rng.normal(size=(20, 8))
    gt = rng.integers(0, 8, 20).astype(np.uint16)
    gt[0] = 0
    val, _ = segmentation(logits, gt)
    # loop oracle over non-void cells only
    total, n = 0.0, 0
    for z, label in zip(logits, gt):
        if label == 0:
            continue
        total += math.log(np.exp(z - z.max()).sum()) + z.max() - z[label]
        n += 1
    assert val == pytest.approx(total / n, abs=1e-10)


def test_segmentation_all_void_zero():
    val, grad = segmentation(np.ones((4, 8)), np.zeros(4, dtype=np.uint16))
    assert val == 0.0 and not grad.any()


def test_segmentation_gradients_fd():
    rng = make_rng(4, 1)
    logits = rng.normal(size=(6, 5))
    gt = rng.integers(0, 5, 6).astype(np.uint16)
    seg = np.array([[0, 2], [2, 6]])
    _, grad = segmentation(logits, gt, seg)
    fd_check(lambda arrs: segmentation(arrs[0], gt, seg)[0], [logits], [grad])


def test_nearest_viewpoint_rounding():
    assert nearest_viewpoint(0.0, 8) == 0
    step = 2 * math.pi / 8
    assert nearest_viewpoint(step, 8) == 1
    assert nearest_viewpoint(0.49 * step, 8) == 0
    assert nearest_viewpoint(0.51 * step, 8) == 1
    assert nearest_viewpoint(7.9 * step, 8) == 0  # wraps past the last slot


# ------------------------------------------------------------ batch + trainer

SMALL = Config(n_classes=5, descriptor_dim=12, n_viewpoints=2)


def fake_cells(rng, cfg, h=4, w=6):
    """The valid cells (n, C) of an (h, w) LiDAR map."""
    mask = rng.random((h, w)) < 0.8
    values = np.zeros((h, w, cfg.feature_dim))
    values[..., 0] = rng.uniform(0, 1, (h, w))
    values[..., 1:4] = rng.normal(size=(h, w, 3))
    labels = rng.integers(1, cfg.n_classes, (h, w))
    values[..., 4:] = np.eye(cfg.n_classes)[labels]
    return values[mask]


def fake_sem(rng, cfg):
    """A 360-degree label image with about half its cells void."""
    labels = rng.integers(0, cfg.n_classes, (cfg.range_rows, cfg.range_cols))
    labels[rng.random(labels.shape) < 0.5] = 0
    return SemanticImage(labels.astype(np.uint16))


def fake_obs(rng, cfg, h=4, w=6):
    mask = rng.random((h, w)) < 0.85
    raw = rng.normal(size=(h, w, QUERY_CHANNELS))
    gt = rng.integers(0, cfg.n_classes, (h, w)).astype(np.uint16)
    return QueryObservation(raw, mask, SemanticImage(gt))


def fake_table(seed, cfg, n_places=3, queries_per_place=1):
    rng = make_rng(seed, 2)
    places = [([(fake_obs(rng, cfg), float(rng.uniform(0, 2 * math.pi)))
                for _ in range(queries_per_place)],
               [fake_cells(rng, cfg) for _ in range(cfg.n_viewpoints)])
              for _ in range(n_places)]
    return train_table(places, np.full(cfg.n_classes, 1.0 / cfg.n_classes), cfg)


def fake_batch(seed, cfg):
    """A three-place table and a batch of its first two anchors, each with
    two maps of other places as negatives."""
    return fake_table(seed, cfg), np.array([0, 1]), np.array([[2, 4], [0, 5]])


def test_total_loss_composition():
    cfg = SMALL
    params = init_model_params(cfg)
    r = total_loss(*fake_batch(1, cfg), params, cfg)
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
    r0 = total_loss(*fake_batch(2, cfg), params, cfg)
    r1 = total_loss(*fake_batch(2, cfg), params, cfg)
    assert r0.l_total == r1.l_total
    for name in TRAINABLE:
        assert np.array_equal(r0.grads[name], r1.grads[name])


def reference_total_loss(anchors, maps, positives, negatives, context,
                         params, cfg):
    """The total loss as a per-sample tape: one generic graph per anchor
    and per LiDAR map, the formula the batched nodes must reproduce.
    anchors[b] is the QueryObservation of batch anchor b, and positives[b]
    and the row negatives[b] index `maps`, the valid cells of each LiDAR
    map."""
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
    for m in {*positives, *np.ravel(negatives)}:
        lid[m] = describe(Tensor(maps[m]))

    con, sem, seg = [], [], []
    for obs, p, ns in zip(anchors, positives, negatives):
        mask = obs.mask.reshape(-1)
        x = Tensor(obs.raw.reshape(mask.size, -1))
        h = tanh(x @ enc["rgb_proj"] + enc["rgb_bias"]) * Tensor(
            mask[:, None].astype(np.float64))
        feat = h @ enc["desc_proj"]
        logits = h @ enc["seg_head"] + enc["seg_bias"]
        w = att["bilinear"] @ Tensor(context)
        attended = feat * sigmoid((feat @ w) * att["gain"]).reshape(-1, 1)
        con.append(per_pair_contrastive(
            describe(attended[mask]), lid[p], [lid[m] for m in ns], cfg))

        pred = np.argmax(logits.data, axis=1)
        ref_x = maps[p]
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
    """A positive shared by two anchors, maps shared between anchors'
    negatives and repeated within one anchor's, a smaller anchor, and three
    degenerate anchors: an all-false mask, no non-void ground truth, and a
    positive with only void cells, so no class in common.

    Returns the table, the observations of its anchors 0..4, its maps by
    row, and each anchor's positive row and negative rows (5, 3)."""
    rng = make_rng(12, 1)
    maps = [fake_cells(rng, cfg) for _ in range(7)]
    void = fake_cells(rng, cfg)
    void[:, 4:] = np.eye(cfg.n_classes)[0]
    maps.append(void)
    anchors = [fake_obs(rng, cfg) for _ in range(3)] + [fake_obs(rng, cfg, 3, 5),
                                                        fake_obs(rng, cfg)]
    anchors[1] = QueryObservation(anchors[1].raw,
                                  np.zeros_like(anchors[1].mask),
                                  anchors[1].gt_labels)
    anchors[2] = QueryObservation(
        anchors[2].raw, anchors[2].mask,
        SemanticImage(np.zeros_like(anchors[2].gt_labels.labels)))
    context = rng.random(cfg.n_classes)
    # SMALL has two viewpoints per place: four places of two maps each. A
    # heading of pi is viewpoint 1, so anchor 4's positive is the void map
    places = [([(anchors[0], 0.0), (anchors[1], 0.0)], maps[0:2]),
              ([(anchors[2], 0.0)], maps[2:4]),
              ([(anchors[3], 0.0)], maps[4:6]),
              ([(anchors[4], math.pi)], maps[6:8])]
    table = train_table(places, context / context.sum(), cfg)
    assert list(table.positive) == [0, 0, 2, 4, 7]
    negatives = np.array([[1, 2, 6], [3, 3, 5], [5, 6, 1], [2, 3, 0],
                          [4, 0, 2]])
    return table, anchors, maps, table.positive, negatives


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
    table, anchors, maps, positives, negatives = degenerate_batch(cfg)
    got = total_loss(table, np.arange(5), negatives, params, cfg)
    want, want_grads = reference_total_loss(anchors, maps, positives, negatives,
                                            table.context, params, cfg)
    assert got.l_total == pytest.approx(want, abs=1e-12)
    for name in TRAINABLE:
        scale = np.abs(want_grads[name]).max()
        assert scale > 0.0, name
        assert np.abs(got.grads[name] - want_grads[name]).max() <= 1e-10 * scale, name


def test_training_set_is_place_major():
    cfg = SMALL
    rng = make_rng(15, 1)
    # renders in place-id order 30, 10, 20; queries listed in another order
    renders = [PlaceRenders(pid, np.zeros(3),
                            [fake_cells(rng, cfg) for _ in range(cfg.n_viewpoints)],
                            [fake_sem(rng, cfg) for _ in range(cfg.n_viewpoints)])
               for pid in (30, 10, 20)]
    step = 2 * math.pi / cfg.n_viewpoints
    queries = [QueryRecord(qid, pid, heading, 0.0, np.zeros(3), fake_obs(rng, cfg))
               for qid, (pid, heading) in enumerate(
                   [(20, 0.1), (30, 1.1 * step), (20, 0.9 * step), (10, 0.2)])]
    ds = Dataset("", cfg, {}, [], [], [], queries, {})
    table = training_set(ds, cfg, renders=renders)
    order = [1, 3, 0, 2]  # place 30, then 10, then 20 in dataset order
    assert list(table.place) == [0, 1, 2, 2]
    # place * n_viewpoints + the viewpoint nearest the heading
    assert list(table.positive) == [0 * 2 + 1, 1 * 2 + 0, 2 * 2 + 0, 2 * 2 + 1]
    for a, q in enumerate(order):
        obs = queries[q].obs
        assert np.array_equal(table.raw[a], obs.raw[obs.mask])
        assert np.array_equal(table.gt[a], obs.gt_labels.labels[obs.mask])
    blocks = [x for pr in renders for x in pr.cells]
    for x, cells in zip(blocks, table.cells, strict=True):
        assert cells is x
    hist = np.mean([semantic_histogram(s, cfg) for pr in renders
                    for s in pr.sem_images], axis=0)
    assert np.array_equal(table.context, hist / hist.sum())


def test_context_is_mean_of_semantic_histograms():
    """training_set's context and the index's mean_histogram() are, bit for
    bit, the mean of the per-image semantic_histograms over its sum."""
    cfg = dataclasses.replace(SMALL, range_rows=3, range_cols=8)
    rng = make_rng(16, 1)
    renders = [PlaceRenders(pid, np.zeros(3),
                            [fake_cells(rng, cfg) for _ in range(cfg.n_viewpoints)],
                            [fake_sem(rng, cfg) for _ in range(cfg.n_viewpoints)])
               for pid in range(5)]
    # an all-void image counts as uniform over the non-void classes
    renders[2].sem_images[1] = SemanticImage(np.zeros((3, 8), dtype=np.uint16))
    sems = [s for pr in renders for s in pr.sem_images]
    hist = np.mean([semantic_histogram(s, cfg) for s in sems], axis=0)
    want = hist / hist.sum()
    ds = Dataset("", cfg, {}, [], [], [], [], {})
    assert np.array_equal(training_set(ds, cfg, renders=renders).context, want)
    index = MapIndex([(pr.place_id, pr.position) for pr in renders],
                     np.zeros((len(sems), cfg.descriptor_dim)),
                     [s.labels for s in sems], cfg)
    assert np.array_equal(index.mean_histogram(), want)


def test_train_reproducible_and_updates_params():
    cfg = SMALL
    table = fake_table(7, cfg)
    p0, h0 = train(table, cfg, epochs=2, lr=1e-2)
    p1, h1 = train(table, cfg, epochs=2, lr=1e-2)
    t0, t1 = p0.tensors(), p1.tensors()
    for name in t0:
        assert np.array_equal(t0[name], t1[name])
    assert [r.l_total for r in h0] == [r.l_total for r in h1]
    assert len(h0) == 2
    init = init_model_params(cfg).tensors()
    assert any(not np.array_equal(t0[n], init[n]) for n in TRAINABLE)


def test_train_untrainable_projection_frozen():
    cfg = SMALL
    table = fake_table(8, cfg)
    p, _ = train(table, cfg, epochs=1, lr=1e-2)
    assert np.array_equal(p.vlad.proj, init_model_params(cfg).vlad.proj)


def test_train_single_place_rejected():
    cfg = SMALL
    table = fake_table(9, cfg, n_places=1)
    with pytest.raises(ValueError, match="two places"):
        train(table, cfg, epochs=1, lr=1e-2)


def test_train_without_anchors_rejected():
    cfg = SMALL
    table = fake_table(9, cfg, queries_per_place=0)
    with pytest.raises(ValueError, match="at least one query"):
        train(table, cfg, epochs=1, lr=1e-2)


def test_train_minibatch_reproducible():
    cfg = SMALL
    table = fake_table(10, cfg, n_places=3, queries_per_place=2)
    p0, _ = train(table, cfg, epochs=1, lr=1e-2, batch_size=2)
    p1, _ = train(table, cfg, epochs=1, lr=1e-2, batch_size=2)
    t0, t1 = p0.tensors(), p1.tensors()
    for name in t0:
        assert np.array_equal(t0[name], t1[name])


def test_train_nonfinite_update_is_divergence(monkeypatch):
    # a step whose loss is finite but whose gradient is not
    cfg = SMALL
    table = fake_table(11, cfg)
    finite = losses.total_loss

    def infinite_gradient(*args, **kwargs):
        report = finite(*args, **kwargs)
        report.grads["att.gain"] = report.grads["att.gain"] + np.inf
        return report

    monkeypatch.setattr(losses, "total_loss", infinite_gradient)
    with pytest.raises(TrainingDiverged, match="non-finite parameter at epoch 0"):
        train(table, cfg, epochs=1, lr=1e-2)
