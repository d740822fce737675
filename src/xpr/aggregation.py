"""Global descriptor aggregation: semantic-gated attention + NetVLAD pooling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import Config, make_rng
from .encoder import (EncoderParams, LocalFeatureMap, QueryObservation,
                      encode_query, encode_query_tape)
from .projection import SemanticImage

DEFAULT_CLUSTERS = 8


@dataclass(frozen=True)
class GlobalDescriptor:
    values: np.ndarray   # (descriptor_dim,) unit norm unless flagged
    flagged: bool = False  # True only for empty feature maps (all-zero vector)


@dataclass
class AttentionParams:
    bilinear: np.ndarray  # (C, n_classes)
    gain: float


@dataclass
class NetVladParams:
    centroids: np.ndarray  # (K, C)
    assign_w: np.ndarray   # (K, C)
    assign_b: np.ndarray   # (K,)
    proj: np.ndarray       # (descriptor_dim, K*C) fixed seeded projection

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def init_attention_params(cfg: Config, seed_stream: int = 102) -> AttentionParams:
    rng = make_rng(cfg.seed, seed_stream)
    return AttentionParams(bilinear=rng.normal(0.0, 1.0, (cfg.feature_dim, cfg.n_classes)),
                           gain=1.0)


def init_netvlad_params(cfg: Config, n_clusters: int = DEFAULT_CLUSTERS,
                        seed_stream: int = 103) -> NetVladParams:
    rng = make_rng(cfg.seed, seed_stream)
    c = cfg.feature_dim
    # the random projection is derived from the config seed and never trained
    proj_rng = make_rng(cfg.seed, 104)
    return NetVladParams(
        centroids=rng.normal(0.0, 0.5, (n_clusters, c)),
        assign_w=rng.normal(0.0, 1.0, (n_clusters, c)),
        assign_b=np.zeros(n_clusters),
        proj=proj_rng.normal(0.0, 1.0, (cfg.descriptor_dim, n_clusters * c))
        / np.sqrt(cfg.descriptor_dim),
    )


# ------------------------------------------------------------------ tape core

def semantic_attention_tape(feat: Tensor, context: np.ndarray,
                            bilinear: Tensor, gain: Tensor) -> Tensor:
    """Scalar sigmoid gate per cell: a = sigmoid(gain * feat . (B @ context))."""
    w = bilinear @ Tensor(context)              # (C,)
    score = (feat @ w) * gain                   # (N,)
    a = score.sigmoid()
    return feat * a.reshape(-1, 1)


def netvlad_tape(feat: Tensor, centroids: Tensor, assign_w: Tensor,
                 assign_b: Tensor, proj: np.ndarray) -> Tensor:
    """Soft-assign residual aggregation over valid cells, reduced to d_D."""
    soft = (feat @ assign_w.T + assign_b).softmax_rows()        # (N, K)
    v = soft.T @ feat - soft.sum(axis=0).reshape(-1, 1) * centroids  # (K, C)
    v = v.normalize_rows()
    d = Tensor(proj) @ v.reshape(-1)
    return d.normalize_vec()


def netvlad_batch(cells: np.ndarray, seg: np.ndarray, centroids: Tensor,
                  assign_w: Tensor, assign_b: Tensor, proj: np.ndarray) -> Tensor:
    """`netvlad_tape` over M maps at once, as one tape node (M, d_D).

    `cells` (N, C) is the constant valid cells of every map back to back and
    map m owns rows seg[m]:seg[m+1]. A map with no cells, or whose
    descriptor normalizes to zero, gives a zero row with zero gradient.
    """
    x, c = cells, centroids.data
    m_n, (k_n, c_n) = len(seg) - 1, c.shape
    z = x @ assign_w.data.T + assign_b.data
    e = np.exp(z - z.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)                       # (N, K)
    mass = np.empty((m_n, k_n))
    v = np.empty((m_n, k_n, c_n))
    for m in range(m_n):
        sm = soft[seg[m]:seg[m + 1]]
        mass[m] = sm.sum(axis=0)
        v[m] = sm.T @ x[seg[m]:seg[m + 1]]
    v -= mass[:, :, None] * c
    norms = np.sqrt((v ** 2).sum(axis=2, keepdims=True))         # (M, K, 1)
    safe = np.where(norms > 0.0, norms, 1.0)
    vn = v / safe
    d = vn.reshape(m_n, -1) @ proj.T                              # (M, d_D)
    dnorm = np.sqrt((d ** 2).sum(axis=1, keepdims=True))
    dsafe = np.where(dnorm > 0.0, dnorm, 1.0)
    y = d / dsafe

    def bw(g):
        gd = np.where(dnorm > 0.0,
                      (g - y * (g * y).sum(axis=1, keepdims=True)) / dsafe, 0.0)
        gvn = (gd @ proj).reshape(m_n, k_n, c_n)
        gv = np.where(norms > 0.0,
                      (gvn - vn * (gvn * vn).sum(axis=2, keepdims=True)) / safe,
                      0.0)
        if centroids.requires_grad:
            centroids.grad -= np.einsum("mk,mkc->kc", mass, gv)
        if assign_w.requires_grad or assign_b.requires_grad:
            gmass = (gv * c).sum(axis=2)                          # (M, K)
            gsoft = np.empty_like(soft)
            for m in range(m_n):
                gsoft[seg[m]:seg[m + 1]] = (x[seg[m]:seg[m + 1]] @ gv[m].T
                                            - gmass[m])
            gz = soft * (gsoft - (gsoft * soft).sum(axis=1, keepdims=True))
            if assign_w.requires_grad:
                assign_w.grad += gz.T @ x
            if assign_b.requires_grad:
                assign_b.grad += gz.sum(axis=0)

    return Tensor(y, _prev=(centroids, assign_w, assign_b), _backward=bw)


# ------------------------------------------------------------------ public API

def semantic_attention(feat: LocalFeatureMap, context: np.ndarray,
                       params: AttentionParams) -> LocalFeatureMap:
    context = np.asarray(context, dtype=np.float64)
    if abs(context.sum() - 1.0) > 1e-6:
        raise ValueError("semantic context is not normalized")
    flat = feat.values.reshape(-1, feat.channels)
    out = semantic_attention_tape(Tensor(flat), context,
                                  Tensor(params.bilinear), Tensor(params.gain))
    values = out.data.reshape(feat.values.shape)
    values[~feat.mask] = 0.0
    return LocalFeatureMap(values, feat.mask.copy())


def netvlad(feat: LocalFeatureMap, params: NetVladParams) -> GlobalDescriptor:
    valid = feat.values.reshape(-1, feat.channels)[feat.mask.reshape(-1)]
    if valid.shape[0] == 0:
        return GlobalDescriptor(np.zeros(params.proj.shape[0]), flagged=True)
    d = netvlad_tape(Tensor(valid), Tensor(params.centroids),
                     Tensor(params.assign_w), Tensor(params.assign_b),
                     params.proj)
    if not d.data.any():
        return GlobalDescriptor(d.data.copy(), flagged=True)
    return GlobalDescriptor(d.data.copy())


def describe_query(obs: QueryObservation, enc: EncoderParams,
                   att: AttentionParams, vlad: NetVladParams,
                   context: np.ndarray) -> tuple[GlobalDescriptor, SemanticImage]:
    fmap, pred, _ = encode_query(obs, enc)
    attended = semantic_attention(fmap, context, att)
    return netvlad(attended, vlad), pred


def describe_query_tape(obs: QueryObservation, context: np.ndarray,
                        enc_t: dict, att_t: dict, vlad_t: dict
                        ) -> tuple[Tensor, Tensor, Tensor, np.ndarray]:
    """Differentiable query pipeline for training.

    Returns (descriptor Tensor, attended feature Tensor (N, C), logits
    Tensor (N, n_classes), predicted label grid). Parameter dicts hold leaf
    Tensors keyed by field name.
    """
    h, w, _ = obs.raw.shape
    raw_flat = obs.raw.reshape(h * w, -1)
    mask_flat = obs.mask.reshape(-1)
    feat, logits = encode_query_tape(raw_flat, mask_flat,
                                     enc_t["rgb_proj"], enc_t["rgb_bias"],
                                     enc_t["seg_head"], enc_t["seg_bias"],
                                     enc_t["desc_proj"])
    attended = semantic_attention_tape(feat, context, att_t["bilinear"], att_t["gain"])
    valid = attended[mask_flat]
    desc = netvlad_tape(valid, vlad_t["centroids"], vlad_t["assign_w"],
                        vlad_t["assign_b"], vlad_t["proj"].data)
    pred = np.argmax(logits.data, axis=1).astype(np.uint16)
    pred[~mask_flat] = 0
    return desc, attended, logits, pred.reshape(h, w)


def describe_lidar_tape(fmaps: list, vlad_t: dict) -> Tensor:
    """Descriptors (M, d_D) of M constant LiDAR feature maps, one tape node."""
    valid = [f.values.reshape(-1, f.channels)[f.mask.reshape(-1)] for f in fmaps]
    seg = np.concatenate([[0], np.cumsum([v.shape[0] for v in valid])])
    return netvlad_batch(np.concatenate(valid), seg, vlad_t["centroids"],
                         vlad_t["assign_w"], vlad_t["assign_b"],
                         vlad_t["proj"].data)
