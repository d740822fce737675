import math

import numpy as np
import pytest

from reference_tape import Tensor, netvlad_tape
from xpr.aggregation import (DEFAULT_CLUSTERS, init_attention_params,
                             init_netvlad_params, netvlad, netvlad_batch,
                             semantic_attention)
from xpr.config import Config, make_rng
from xpr.encoder import LocalFeatureMap

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


def random_fmap(rng, h, w, channels, mask_prob=0.85):
    mask = rng.random((h, w)) < mask_prob
    values = rng.normal(size=(h, w, channels))
    values[~mask] = 0.0
    return LocalFeatureMap(values, mask)


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
        fmap = random_fmap(rng, h, w, c, mask_prob=0.9)
        if not fmap.mask.any():
            continue
        got = netvlad(fmap, params)
        ref = vlad_reference(
            fmap.values.reshape(-1, c)[fmap.mask.reshape(-1)],
            centroids, assign_w, assign_b, proj)
        worst = max(worst, float(np.abs(got.values - ref).max()))
        assert abs(np.linalg.norm(got.values) - 1.0) < 1e-10 or got.flagged
    assert worst < 1e-10


def _vlad_leaves(rng, k, c):
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((k, c), (k, c), (k,))]


@pytest.mark.parametrize("case", ["mixed", "single"])
def test_netvlad_batch_matches_tape(case):
    """Each row of the fused op is `netvlad_tape` on that map, and its
    cell and parameter gradients are the per-map tape's, summed."""
    rng = make_rng(31, 0 if case == "mixed" else 1)
    k, c, d_out = 4, 6, 10
    if case == "mixed":
        maps = [random_fmap(rng, 3, 5, c) for _ in range(3)]
        empty = LocalFeatureMap(np.zeros((2, 4, c)), np.zeros((2, 4), bool))
        maps = [maps[0], empty, maps[1], maps[2]]
        order = [0, 1, 2, 0, 3]   # map 0 twice, over the same rows
    else:
        maps = [random_fmap(rng, 4, 4, c)]
        order = [0]
    proj = rng.normal(size=(d_out, k * c))
    leaves = _vlad_leaves(rng, k, c)
    ref_leaves = [Tensor(t.data.copy(), requires_grad=True) for t in leaves]
    valid = [f.values.reshape(-1, c)[f.mask.reshape(-1)] for f in maps]
    ends = np.cumsum([v.shape[0] for v in valid])
    seg = np.stack([ends - [v.shape[0] for v in valid], ends], axis=1)[order]
    g = rng.normal(size=(len(order), d_out))

    cells = Tensor(np.concatenate(valid), requires_grad=True)
    out = netvlad_batch(cells, seg, *leaves, proj)
    out.backward(g)
    ref_cells = [Tensor(v, requires_grad=True) for v in valid]
    rows = [netvlad_tape(ref_cells[i], *ref_leaves, proj) for i in order]
    sum((Tensor(g[m]) * row).sum() for m, row in enumerate(rows)).backward()

    assert out.data.shape == (len(order), d_out)
    for m, row in enumerate(rows):
        assert np.abs(out.data[m] - row.data).max() <= 1e-12
    if case == "mixed":
        assert not out.data[1].any()
        assert np.array_equal(out.data[0], out.data[3])
    want_cells = np.concatenate([t.grad for t in ref_cells])
    pairs = [(cells.grad, want_cells)] + [
        (got.grad, ref.grad) for got, ref in zip(leaves, ref_leaves)]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_netvlad_batch_zero_map_has_zero_gradient():
    rng = make_rng(32, 0)
    k, c = 3, 5
    leaves = _vlad_leaves(rng, k, c)
    out = netvlad_batch([np.zeros((0, c))], None, *leaves,
                        rng.normal(size=(7, k * c)))
    out.backward(rng.normal(size=(1, 7)))
    assert not out.data.any()
    assert all(not t.grad.any() for t in leaves)


def test_netvlad_unit_norm():
    params = init_netvlad_params(CFG)
    fmap = random_fmap(make_rng(3, 1), 8, 12, CFG.feature_dim)
    d = netvlad(fmap, params)
    assert not d.flagged
    assert np.linalg.norm(d.values) == pytest.approx(1.0, abs=1e-12)
    assert d.values.shape == (CFG.descriptor_dim,)


def test_netvlad_empty_map_flagged_zero():
    params = init_netvlad_params(CFG)
    h, w = 4, 6
    fmap = LocalFeatureMap(np.zeros((h, w, CFG.feature_dim)),
                           np.zeros((h, w), dtype=bool))
    d = netvlad(fmap, params)
    assert d.flagged and not d.values.any()
    assert d.values.shape == (CFG.descriptor_dim,)


def test_netvlad_ignores_masked_cells():
    params = init_netvlad_params(CFG)
    rng = make_rng(9, 1)
    fmap = random_fmap(rng, 6, 9, CFG.feature_dim, mask_prob=0.6)
    poisoned = fmap.values.copy()
    poisoned[~fmap.mask] = 1e6  # must never be read
    d0 = netvlad(fmap, params)
    d1 = netvlad(LocalFeatureMap(poisoned, fmap.mask), params)
    assert np.array_equal(d0.values, d1.values)


def test_netvlad_default_cluster_count():
    params = init_netvlad_params(CFG)
    assert params.n_clusters == DEFAULT_CLUSTERS
    assert params.proj.shape == (CFG.descriptor_dim,
                                 DEFAULT_CLUSTERS * CFG.feature_dim)


def test_attention_gates_in_zero_one():
    att = init_attention_params(CFG)
    rng = make_rng(4, 1)
    fmap = random_fmap(rng, 5, 7, CFG.feature_dim)
    context = np.zeros(CFG.n_classes)
    context[2] = 1.0
    out = semantic_attention(fmap, context, att)
    # each output cell is the input scaled by a scalar in (0, 1)
    for idx in zip(*np.nonzero(fmap.mask)):
        x, y = fmap.values[idx], out.values[idx]
        nx = np.linalg.norm(x)
        a = np.linalg.norm(y) / nx if nx else 0.0
        assert 0.0 < a < 1.0
        assert np.allclose(y, a * x, atol=1e-12)


def test_attention_matches_formula():
    att = init_attention_params(CFG)
    rng = make_rng(6, 1)
    fmap = random_fmap(rng, 4, 5, CFG.feature_dim)
    context = np.full(CFG.n_classes, 1.0 / CFG.n_classes)
    out = semantic_attention(fmap, context, att)
    w = att.bilinear @ context
    score = fmap.values.reshape(-1, CFG.feature_dim) @ w * att.gain
    gate = 1.0 / (1.0 + np.exp(-score))
    expect = fmap.values.reshape(-1, CFG.feature_dim) * gate[:, None]
    expect = expect.reshape(fmap.values.shape)
    expect[~fmap.mask] = 0.0
    assert np.allclose(out.values, expect, atol=1e-12)


def test_attention_rejects_unnormalized_context():
    att = init_attention_params(CFG)
    fmap = random_fmap(make_rng(8, 1), 3, 3, CFG.feature_dim)
    with pytest.raises(ValueError, match="context"):
        semantic_attention(fmap, np.full(CFG.n_classes, 0.5), att)


def test_attention_preserves_mask():
    att = init_attention_params(CFG)
    fmap = random_fmap(make_rng(10, 1), 5, 5, CFG.feature_dim, mask_prob=0.5)
    out = semantic_attention(fmap, np.full(CFG.n_classes, 1.0 / CFG.n_classes), att)
    assert np.array_equal(out.mask, fmap.mask)
    assert not out.values[~out.mask].any()
