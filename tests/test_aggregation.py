import math

import numpy as np
import pytest

from reference_tape import Tensor, netvlad_tape
from xpr.aggregation import (N_CLUSTERS, attention_forward, describe_query,
                             init_attention_params, init_netvlad_params,
                             netvlad, netvlad_batch, netvlad_forward,
                             semantic_attention)
from xpr.config import Config, make_rng
from xpr.encoder import QUERY_CHANNELS, QueryObservation
from xpr.model import TRAINABLE, ModelParams, init_model_params
from xpr.projection import SemanticImage

CFG = Config()


def vlad_reference(valid, centroids, assign_w, assign_b, proj):
    """Scalar-loop NetVLAD: soft-assign, residual sums, intra-norm, project."""
    n, c = valid.shape
    k = centroids.shape[0]
    v = np.zeros((k, c))
    for i in range(n):
        scores = [sum(valid[i][j] * assign_w[q][j] for j in range(c)) + assign_b[q]
                  for q in range(k)]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        tot = sum(exps)
        for q in range(k):
            a = exps[q] / tot
            for j in range(c):
                v[q][j] += a * (valid[i][j] - centroids[q][j])
    for q in range(k):
        norm = math.sqrt(sum(v[q][j] ** 2 for j in range(c)))
        if norm > 0:
            v[q] /= norm
    d = proj @ v.reshape(-1)
    norm = math.sqrt(float((d ** 2).sum()))
    return d / norm if norm > 0 else d


def random_grid(rng, h, w, channels, mask_prob=0.85):
    """Row-major (h*w, channels) features, zero on masked cells, and the
    (h*w,) mask."""
    mask = rng.random((h, w)) < mask_prob
    values = rng.normal(size=(h, w, channels))
    values[~mask] = 0.0
    return values.reshape(-1, channels), mask.reshape(-1)


def random_cells(rng, h, w, channels, mask_prob=0.85):
    """The valid cells (n, channels) of a `random_grid`."""
    values, mask = random_grid(rng, h, w, channels, mask_prob)
    return values[mask]


def test_netvlad_matches_reference_many_instances():
    worst = 0.0
    for i in range(100):
        rng = make_rng(77, i)
        k = int(rng.integers(1, 5))
        c = int(rng.integers(2, 9))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d_out = int(rng.integers(4, 17))
        centroids = rng.normal(size=(k, c))
        assign_w = rng.normal(size=(k, c))
        assign_b = rng.normal(size=k)
        proj = rng.normal(size=(d_out, k * c))
        from xpr.aggregation import NetVladParams
        params = NetVladParams(centroids, assign_w, assign_b, proj)
        cells = random_cells(rng, h, w, c, mask_prob=0.9)
        if not len(cells):
            continue
        got = netvlad(cells, params)
        ref = vlad_reference(cells, centroids, assign_w, assign_b, proj)
        worst = max(worst, float(np.abs(got.values - ref).max()))
        assert abs(np.linalg.norm(got.values) - 1.0) < 1e-10 or got.flagged
    assert worst < 1e-10


VLAD_NAMES = ("vlad.centroids", "vlad.assign_w", "vlad.assign_b")


def _vlad_params(rng, k, c):
    return [rng.normal(size=shape) for shape in ((k, c), (k, c), (k,))]


@pytest.mark.parametrize("case", ["mixed", "single"])
def test_netvlad_batch_matches_tape(case):
    """Each row of the fused op is `netvlad_tape` on that map, and its
    cell and parameter gradients are the per-map tape's, summed."""
    rng = make_rng(31, 0 if case == "mixed" else 1)
    k, c, d_out = 4, 6, 10
    if case == "mixed":
        valid = [random_cells(rng, 3, 5, c) for _ in range(3)]
        valid = [valid[0], np.zeros((0, c)), valid[1], valid[2]]
        order = [0, 1, 2, 0, 3]   # map 0 twice, over the same rows
    else:
        valid = [random_cells(rng, 4, 4, c)]
        order = [0]
    proj = rng.normal(size=(d_out, k * c))
    params = _vlad_params(rng, k, c)
    ref_leaves = [Tensor(p.copy(), requires_grad=True) for p in params]
    ends = np.cumsum([v.shape[0] for v in valid])
    seg = np.stack([ends - [v.shape[0] for v in valid], ends], axis=1)[order]
    g = rng.normal(size=(len(order), d_out))

    cells = np.concatenate(valid)
    out, backward = netvlad_batch([cells[lo:hi] for lo, hi in seg], *params,
                                  proj)
    grads = {n: np.zeros_like(p) for n, p in zip(VLAD_NAMES, params)}
    gcells = np.zeros_like(cells)
    backward(g, grads, [gcells[lo:hi] for lo, hi in seg])
    ref_cells = [Tensor(v, requires_grad=True) for v in valid]
    rows = [netvlad_tape(ref_cells[i], *ref_leaves, proj) for i in order]
    sum((Tensor(g[m]) * row).sum() for m, row in enumerate(rows)).backward()

    assert out.shape == (len(order), d_out)
    for m, row in enumerate(rows):
        assert np.abs(out[m] - row.data).max() <= 1e-12
    if case == "mixed":
        assert not out[1].any()
        assert np.array_equal(out[0], out[3])
    want_cells = np.concatenate([t.grad for t in ref_cells])
    pairs = [(gcells, want_cells)] + [
        (grads[n], ref.grad) for n, ref in zip(VLAD_NAMES, ref_leaves)]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_netvlad_batch_zero_map_has_zero_gradient():
    rng = make_rng(32, 0)
    k, c = 3, 5
    params = _vlad_params(rng, k, c)
    out, backward = netvlad_batch([np.zeros((0, c))], *params,
                                  rng.normal(size=(7, k * c)))
    grads = {n: np.zeros_like(p) for n, p in zip(VLAD_NAMES, params)}
    backward(rng.normal(size=(1, 7)), grads)
    assert not out.any()
    assert all(not grad.any() for grad in grads.values())


def test_netvlad_unit_norm():
    params = init_netvlad_params(CFG)
    d = netvlad(random_cells(make_rng(3, 1), 8, 12, CFG.feature_dim), params)
    assert not d.flagged
    assert np.linalg.norm(d.values) == pytest.approx(1.0, abs=1e-12)
    assert d.values.shape == (CFG.descriptor_dim,)


def test_netvlad_empty_map_flagged_zero():
    params = init_netvlad_params(CFG)
    d = netvlad(np.zeros((0, CFG.feature_dim)), params)
    assert d.flagged and not d.values.any()
    assert d.values.shape == (CFG.descriptor_dim,)


def perturbed_params(seed):
    """Model parameters off the initial point, so every gate and head
    differs from its identity."""
    rng = make_rng(seed, 1)
    return ModelParams.from_tensors({
        name: arr + (rng.normal(0.0, 0.3, np.shape(arr)) if name in TRAINABLE
                     else 0.0)
        for name, arr in init_model_params(CFG).tensors().items()})


def random_query(rng, h, w, mask_prob):
    raw = rng.normal(size=(h, w, QUERY_CHANNELS))
    mask = rng.random((h, w)) < mask_prob
    gt = SemanticImage(rng.integers(0, CFG.n_classes, (h, w)).astype(np.uint16))
    return QueryObservation(raw, mask, gt)


def grid_describe_query(obs, params, context):
    """The query path as it ran on zero-padded (H, W, C) grids: features
    and the gate over the whole grid, masked cells zeroed, the valid cells
    compressed out of the grid for NetVLAD."""
    h, w, _ = obs.raw.shape
    enc = params.enc
    hid = obs.raw.reshape(h * w, -1) @ enc.rgb_proj
    hid += enc.rgb_bias
    np.tanh(hid, out=hid)
    hid *= obs.mask.reshape(-1)[:, None]
    logits = hid @ enc.seg_head
    logits += enc.seg_bias
    feat = hid @ enc.desc_proj
    pred = np.argmax(logits.reshape(h, w, -1), axis=2).astype(np.uint16)
    pred[~obs.mask] = 0
    values = attention_forward(feat, context, params.att.bilinear,
                               params.att.gain)[0].reshape(h, w, -1)
    values[~obs.mask] = 0.0
    valid = values.reshape(h * w, -1)[obs.mask.reshape(-1)]
    if not len(valid):
        return np.zeros(params.vlad.proj.shape[0]), True, pred
    d = netvlad_forward([valid], params.vlad.centroids, params.vlad.assign_w,
                        params.vlad.assign_b, params.vlad.proj)[0][0]
    return d, not d.any(), pred


def test_describe_query_matches_grid_path():
    params = perturbed_params(40)
    rng = make_rng(41, 1)
    context = rng.random(CFG.n_classes)
    context /= context.sum()
    queries = [random_query(rng, CFG.range_rows, 30, p)
               for p in (0.9, 0.5, 0.2, 0.0)]
    assert not queries[-1].mask.any()
    for obs in queries:
        desc, pred = describe_query(obs, params.enc, params.att, params.vlad,
                                    context)
        want, flagged, want_pred = grid_describe_query(obs, params, context)
        assert np.array_equal(desc.values, want)
        assert desc.flagged == flagged
        assert np.array_equal(pred.labels, want_pred)
    assert desc.flagged and not desc.values.any()


def test_netvlad_ignores_masked_cells():
    params = perturbed_params(42)
    obs = random_query(make_rng(9, 1), 6, 9, 0.6)
    poisoned = obs.raw.copy()
    poisoned[~obs.mask] = 1e6  # must never be read
    context = np.full(CFG.n_classes, 1.0 / CFG.n_classes)
    d0, p0 = describe_query(obs, params.enc, params.att, params.vlad, context)
    d1, p1 = describe_query(QueryObservation(poisoned, obs.mask, obs.gt_labels),
                            params.enc, params.att, params.vlad, context)
    assert np.array_equal(d0.values, d1.values)
    assert np.array_equal(p0.labels, p1.labels)


def test_netvlad_default_cluster_count():
    params = init_netvlad_params(CFG)
    assert params.centroids.shape == (N_CLUSTERS, CFG.feature_dim)
    assert params.proj.shape == (CFG.descriptor_dim,
                                 N_CLUSTERS * CFG.feature_dim)


def test_attention_gates_in_zero_one():
    att = init_attention_params(CFG)
    rng = make_rng(4, 1)
    feat = random_cells(rng, 5, 7, CFG.feature_dim)
    context = np.zeros(CFG.n_classes)
    context[2] = 1.0
    out = semantic_attention(feat, context, att)
    # each output cell is the input scaled by a scalar in (0, 1)
    for x, y in zip(feat, out):
        nx = np.linalg.norm(x)
        a = np.linalg.norm(y) / nx if nx else 0.0
        assert 0.0 < a < 1.0
        assert np.allclose(y, a * x, atol=1e-12)


def test_attention_matches_formula():
    att = init_attention_params(CFG)
    rng = make_rng(6, 1)
    feat, _ = random_grid(rng, 4, 5, CFG.feature_dim)
    context = np.full(CFG.n_classes, 1.0 / CFG.n_classes)
    out = semantic_attention(feat, context, att)
    w = att.bilinear @ context
    score = feat @ w * att.gain
    gate = 1.0 / (1.0 + np.exp(-score))
    assert np.allclose(out, feat * gate[:, None], atol=1e-12)


def test_attention_rejects_unnormalized_context():
    att = init_attention_params(CFG)
    feat = random_cells(make_rng(8, 1), 3, 3, CFG.feature_dim)
    with pytest.raises(ValueError, match="context"):
        semantic_attention(feat, np.full(CFG.n_classes, 0.5), att)


def test_attention_preserves_mask():
    """A masked cell's zero row stays zero, so a grid's masked cells read
    as masked after the gate too."""
    att = init_attention_params(CFG)
    feat, mask = random_grid(make_rng(10, 1), 5, 5, CFG.feature_dim,
                             mask_prob=0.5)
    out = semantic_attention(feat, np.full(CFG.n_classes, 1.0 / CFG.n_classes), att)
    assert out.shape == feat.shape
    assert not out[~mask].any()
    assert out[mask].any(axis=1).all()
