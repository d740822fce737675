"""Local feature extraction for both modalities.

Query branch: a small learnable affine+tanh encoder with a two-branch head
(descriptor projection + per-cell class logits). Map branch: fixed
depth/normal/one-hot hybrid channels from a rendered viewpoint.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, make_rng
from .projection import RangeImage
from .workspace import FRESH, Workspace

#: raw query channels: depth, normal xyz, 3 appearance channels
QUERY_CHANNELS = 7
#: seed stream of the initial encoder parameters
ENCODER_SEED_STREAM = 101


@dataclass
class EncoderParams:
    rgb_proj: np.ndarray   # (QUERY_CHANNELS, C)
    rgb_bias: np.ndarray   # (C,)
    seg_head: np.ndarray   # (C, n_classes)
    seg_bias: np.ndarray   # (n_classes,)
    desc_proj: np.ndarray  # (C, C), identity at init


@dataclass(frozen=True)
class QueryObservation:
    raw: np.ndarray              # (H, W, QUERY_CHANNELS)
    mask: np.ndarray             # (H, W) bool validity
    gt_labels: np.ndarray        # (H, W) uint16 supervision for segmentation


def init_encoder_params(cfg: Config) -> EncoderParams:
    c = cfg.feature_dim
    rng = make_rng(cfg.seed, ENCODER_SEED_STREAM)
    return EncoderParams(
        rgb_proj=rng.normal(0.0, 1.0 / np.sqrt(QUERY_CHANNELS), (QUERY_CHANNELS, c)),
        rgb_bias=np.zeros(c),
        seg_head=rng.normal(0.0, 1.0 / np.sqrt(c), (c, cfg.n_classes)),
        seg_bias=np.zeros(cfg.n_classes),
        desc_proj=np.eye(c),
    )


def query_forward(raw: np.ndarray, params: EncoderParams,
                  ws: Workspace = FRESH
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encoder forward over (R, QUERY_CHANNELS) valid raw cells.

    Returns the tanh activations h (R, C), which the backward needs, the
    features h @ desc_proj (R, C) and the class logits (R, n_classes), as
    the workspace arrays "h", "feat" and "logits".
    """
    r, (c, k) = len(raw), params.seg_head.shape
    h = np.matmul(raw, params.rgb_proj, out=ws.empty("h", (r, c)))
    h += params.rgb_bias
    np.tanh(h, out=h)
    logits = np.matmul(h, params.seg_head, out=ws.empty("logits", (r, k)))
    logits += params.seg_bias
    return h, np.matmul(h, params.desc_proj, out=ws.empty("feat", (r, c))), logits


def encode_query(obs: QueryObservation, params: EncoderParams
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass over the valid cells: their (n, C) features, the valid
    rows in row-major order as `query_forward` gives them, and the (H, W)
    uint16 predicted labels.

    Predicted label = argmax over logits (ties to the lowest class id) on
    valid cells, 0 elsewhere.
    """
    if not np.isfinite(obs.raw).all():
        raise ValueError("non-finite query observation")
    _, feat, logits = query_forward(obs.raw[obs.mask], params)
    pred = np.zeros(obs.mask.shape, dtype=np.uint16)
    pred[obs.mask] = np.argmax(logits, axis=1)
    return feat, pred


def encode_lidar_local(rng_img: RangeImage, labels: np.ndarray,
                       cfg: Config) -> np.ndarray:
    """The filled cells (depth > 0) of a rendered viewpoint, or of a stack of
    them image by image, row-major, as an (n, C) block: normalized depth,
    the image's normal rows, and the one-hot of its label in the
    (..., H, W) label images."""
    if rng_img.depth.shape != labels.shape:
        raise ValueError("range/semantic image shapes differ")
    filled = np.flatnonzero(rng_img.depth > 0.0)
    labels = labels.take(filled)
    cells = np.zeros((len(filled), cfg.feature_dim))
    cells[:, 0] = np.clip(rng_img.depth.take(filled) / cfg.max_range_m,
                          0.0, 1.0)
    cells[:, 1:4] = rng_img.normals
    cells[np.arange(len(filled)), 4 + labels.astype(np.intp)] = 1.0
    return cells
