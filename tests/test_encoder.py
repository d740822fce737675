import numpy as np
import pytest

from xpr.aggregation import init_netvlad_params, netvlad
from xpr.config import Config, make_rng
from xpr.encoder import (QUERY_CHANNELS, QueryObservation, encode_lidar_local,
                         encode_query, init_encoder_params)
from xpr.projection import RangeImage

CFG = Config()


def random_obs(seed, h=6, w=10, mask_prob=0.8):
    rng = make_rng(seed, 1)
    raw = rng.normal(size=(h, w, QUERY_CHANNELS))
    mask = rng.random((h, w)) < mask_prob
    gt = rng.integers(0, CFG.n_classes, (h, w)).astype(np.uint16)
    return QueryObservation(raw, mask, gt)


def test_init_shapes_and_identity_head():
    p = init_encoder_params(CFG)
    c = CFG.feature_dim
    assert p.rgb_proj.shape == (QUERY_CHANNELS, c)
    assert p.rgb_bias.shape == (c,) and not p.rgb_bias.any()
    assert p.seg_head.shape == (c, CFG.n_classes)
    assert p.seg_bias.shape == (CFG.n_classes,) and not p.seg_bias.any()
    assert np.array_equal(p.desc_proj, np.eye(c))


def test_init_deterministic_in_seed():
    a = init_encoder_params(Config(seed=3))
    b = init_encoder_params(Config(seed=3))
    c = init_encoder_params(Config(seed=4))
    assert np.array_equal(a.rgb_proj, b.rgb_proj)
    assert not np.array_equal(a.rgb_proj, c.rgb_proj)


def test_encode_query_matches_direct_formula():
    p = init_encoder_params(CFG)
    obs = random_obs(2)
    feat, pred = encode_query(obs, p)
    h = np.tanh(obs.raw[obs.mask] @ p.rgb_proj + p.rgb_bias)
    assert np.allclose(feat, h @ p.desc_proj, atol=1e-12)
    logits = h @ p.seg_head + p.seg_bias
    assert np.array_equal(pred[obs.mask],
                          np.argmax(logits, axis=1).astype(np.uint16))


def test_encode_query_masked_cells_zero_and_label_zero():
    p = init_encoder_params(CFG)
    obs = random_obs(5, mask_prob=0.5)
    feat, pred = encode_query(obs, p)
    # a masked cell has no feature row: the rows are the valid cells' alone
    h = np.tanh(obs.raw[obs.mask] @ p.rgb_proj + p.rgb_bias)
    assert feat.shape == (obs.mask.sum(), CFG.feature_dim)
    assert np.allclose(feat, h @ p.desc_proj, atol=1e-12)
    assert not pred[~obs.mask].any()
    assert pred.shape == obs.mask.shape


def test_encode_query_values_bounded_by_tanh():
    p = init_encoder_params(CFG)
    obs = random_obs(6)
    feat, _ = encode_query(obs, p)
    # desc_proj is identity at init so features are raw tanh activations
    assert np.abs(feat).max() <= 1.0


def test_encode_query_rejects_non_finite():
    p = init_encoder_params(CFG)
    obs = random_obs(7)
    raw = obs.raw.copy()
    raw[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        encode_query(QueryObservation(raw, obs.mask, obs.gt_labels), p)


def lidar_images(seed, h=6, w=10):
    rng = make_rng(seed, 2)
    depth = rng.uniform(0.0, 100.0, (h, w))
    depth[rng.random((h, w)) < 0.3] = 0.0
    normals = rng.normal(size=(h, w, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    labels = rng.integers(0, CFG.n_classes, (h, w)).astype(np.uint16)
    return RangeImage(depth, normals[depth > 0.0]), labels


def grid_lidar_cells(rng_img, labels, cfg):
    """The LiDAR encoding as a zero-padded (H, W, C) grid, compressed to
    its filled cells in row-major order."""
    h, w = rng_img.depth.shape
    mask = rng_img.depth > 0.0
    values = np.zeros((h, w, cfg.feature_dim))
    values[..., 0] = np.where(
        mask, np.clip(rng_img.depth / cfg.max_range_m, 0.0, 1.0), 0.0)
    values[mask, 1:4] = rng_img.normals
    np.put_along_axis(values[..., 4:], labels[..., None].astype(np.intp),
                      mask[..., None], axis=-1)
    return values.reshape(h * w, -1).compress(mask.reshape(-1), axis=0)


def test_lidar_channels_layout():
    rng_img, labels = lidar_images(1)
    cells = encode_lidar_local(rng_img, labels, CFG)
    mask = rng_img.depth > 0
    assert cells.shape == (mask.sum(), CFG.feature_dim)
    assert CFG.feature_dim == 4 + CFG.n_classes
    assert np.allclose(cells[:, 0],
                       np.clip(rng_img.depth[mask] / CFG.max_range_m, 0, 1))
    assert np.array_equal(cells[:, 1:4], rng_img.normals)
    onehot = cells[:, 4:]
    assert np.array_equal(onehot.argmax(axis=1), labels[mask])
    assert np.array_equal(onehot.sum(axis=1), np.ones(mask.sum()))


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_lidar_cells_match_grid_reference(seed):
    rng_img, labels = lidar_images(seed)
    cells = encode_lidar_local(rng_img, labels, CFG)
    assert cells.dtype == np.float64 and cells.flags.c_contiguous
    assert np.array_equal(cells, grid_lidar_cells(rng_img, labels, CFG))


def mask_lidar_cells(rng_img, labels, cfg):
    """The LiDAR encoding by three boolean-mask gathers of the filled cells."""
    mask = rng_img.depth > 0.0
    labels = labels[mask]
    cells = np.zeros((len(labels), cfg.feature_dim))
    cells[:, 0] = np.clip(rng_img.depth[mask] / cfg.max_range_m, 0.0, 1.0)
    cells[:, 1:4] = rng_img.normals
    cells[np.arange(len(labels)), 4 + labels.astype(np.intp)] = 1.0
    return cells


def lidar_stack(case, v=4, h=6, w=10):
    """A (V, H, W) stack whose normal rows are a non-contiguous view of
    channel-first rows, as signed as they come: some components are -0.0."""
    rng = make_rng(5, 2)
    depth = rng.uniform(0.0, 100.0, (v, h, w))
    depth[rng.random((v, h, w)) < 0.3] = 0.0
    if case == "empty-image":
        depth[1] = 0.0
    elif case == "empty-stack":
        depth[:] = 0.0
    channels = rng.normal(size=(3, v, h, w))
    channels[rng.random((3, v, h, w)) < 0.2] = -0.0
    labels = rng.integers(0, CFG.n_classes, (v, h, w)).astype(np.uint16)
    rows = np.ascontiguousarray(channels[:, depth > 0.0])
    return RangeImage(depth, rows.T), labels


@pytest.mark.parametrize("case", ["moveaxis-normals", "empty-image",
                                  "empty-stack"])
def test_lidar_stack_cells_match_mask_gathers_bit_for_bit(case):
    rng_img, labels = lidar_stack(case)
    # an empty array counts as contiguous
    assert not rng_img.normals.flags.c_contiguous or case == "empty-stack"
    cells = encode_lidar_local(rng_img, labels, CFG)
    want = mask_lidar_cells(rng_img, labels, CFG)
    assert cells.shape == want.shape == (np.count_nonzero(rng_img.depth),
                                         CFG.feature_dim)
    assert np.array_equal(cells.view(np.uint64), want.view(np.uint64))


def test_lidar_empty_render_is_flagged():
    h, w = 3, 5
    img = RangeImage(np.zeros((h, w)), np.zeros((0, 3)))
    cells = encode_lidar_local(img, np.zeros((h, w), np.uint16), CFG)
    assert cells.shape == (0, CFG.feature_dim)
    d = netvlad(cells, init_netvlad_params(CFG))
    assert d.flagged and not d.values.any()


def test_lidar_shape_mismatch_rejected():
    rng_img, _ = lidar_images(3)
    bad = np.zeros((2, 2), dtype=np.uint16)
    with pytest.raises(ValueError, match="shape"):
        encode_lidar_local(rng_img, bad, CFG)


def test_lidar_depth_clipped_at_max_range():
    h, w = 2, 3
    depth = np.full((h, w), 200.0)
    img = RangeImage(depth, np.zeros((h * w, 3)))
    cells = encode_lidar_local(img, np.ones((h, w), dtype=np.uint16), CFG)
    assert np.array_equal(cells[:, 0], np.ones(h * w))
