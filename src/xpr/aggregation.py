"""Global descriptor aggregation: semantic-gated attention + NetVLAD pooling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import Config, make_rng
from .encoder import (EncoderParams, LocalFeatureMap, QueryObservation,
                      encode_query, query_forward)
from .projection import SemanticImage

N_CLUSTERS = 8
# seed streams of the initial attention and NetVLAD parameters
ATTENTION_SEED_STREAM = 102
NETVLAD_SEED_STREAM = 103
PROJECTION_SEED_STREAM = 104


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


def init_attention_params(cfg: Config) -> AttentionParams:
    rng = make_rng(cfg.seed, ATTENTION_SEED_STREAM)
    return AttentionParams(bilinear=rng.normal(0.0, 1.0, (cfg.feature_dim, cfg.n_classes)),
                           gain=1.0)


def init_netvlad_params(cfg: Config) -> NetVladParams:
    rng = make_rng(cfg.seed, NETVLAD_SEED_STREAM)
    c = cfg.feature_dim
    # the random projection is derived from the config seed and never trained
    proj_rng = make_rng(cfg.seed, PROJECTION_SEED_STREAM)
    return NetVladParams(
        centroids=rng.normal(0.0, 0.5, (N_CLUSTERS, c)),
        assign_w=rng.normal(0.0, 1.0, (N_CLUSTERS, c)),
        assign_b=np.zeros(N_CLUSTERS),
        proj=proj_rng.normal(0.0, 1.0, (cfg.descriptor_dim, N_CLUSTERS * c))
        / np.sqrt(cfg.descriptor_dim),
    )


# ------------------------------------------------------------------ forwards

def _safe(norms: np.ndarray) -> np.ndarray:
    """Norms with zeros replaced by one, so that a zero row divides to zero."""
    return np.where(norms > 0.0, norms, 1.0)


def attention_forward(feat: np.ndarray, context: np.ndarray,
                      bilinear: np.ndarray, gain) -> tuple:
    """Scalar sigmoid gate per cell, a = sigmoid(gain * feat . (B @ context)),
    over (R, C) features.

    Returns the gated features (R, C) and, for the backward, the gate (R,),
    the context vector B @ context (C,) and the ungained score (R,).
    """
    w = bilinear @ context
    score = feat @ w
    gate = 1.0 / (1.0 + np.exp(-(score * gain)))
    return feat * gate[:, None], gate, w, score


def netvlad_forward(blocks: list, centroids: np.ndarray, assign_w: np.ndarray,
                    assign_b: np.ndarray, proj: np.ndarray) -> tuple:
    """Soft-assign residual aggregation of M maps, reduced to d_D.

    `blocks` holds each map's valid cells as an (n_m, C) array. Returns the
    descriptors (M, d_D) and, for the backward, the soft-assignments (K, n_m)
    of each map, the cluster masses (M, K), the intra-normalized residuals
    (M, K, C) with their norms (M, K, 1), and the descriptor norms (M, 1).
    A map with no cells, or whose descriptor normalizes to zero, gives a
    zero row.
    """
    b = assign_b[:, None]
    m_n, (k_n, c_n) = len(blocks), centroids.shape
    # soft-assignments are held transposed, (K, n_m), so that the max and
    # the sums over the K clusters reduce over the outer axis, which numpy
    # does several times faster than over a short last axis
    softs = []
    mass = np.empty((m_n, k_n))
    v = np.empty((m_n, k_n, c_n))
    for m, xm in enumerate(blocks):
        soft = assign_w @ xm.T
        soft += b
        soft -= soft.max(axis=0)
        np.exp(soft, out=soft)
        soft /= soft.sum(axis=0)
        softs.append(soft)
        mass[m] = soft.sum(axis=1)
        v[m] = soft @ xm
    v -= mass[:, :, None] * centroids
    norms = np.sqrt((v ** 2).sum(axis=2, keepdims=True))         # (M, K, 1)
    vn = v / _safe(norms)
    d = vn.reshape(m_n, -1) @ proj.T                              # (M, d_D)
    dnorm = np.sqrt((d ** 2).sum(axis=1, keepdims=True))
    y = d / _safe(dnorm)
    return y, softs, mass, vn, norms, dnorm


def netvlad_batch(cells, seg: np.ndarray | None, centroids: Tensor,
                  assign_w: Tensor, assign_b: Tensor, proj: np.ndarray) -> Tensor:
    """`netvlad_forward` as one tape node (M, d_D), with its backward.

    Map m's valid cells are rows seg[m, 0]:seg[m, 1] of the Tensor `cells`
    (N, C), which gets a gradient; maps may share rows. Constant maps come
    instead as a list of M (n_m, C) arrays, with seg None. A zero row has
    zero gradient.
    """
    if seg is None:
        blocks, cells_grad = cells, False
    else:
        blocks = [cells.data[lo:hi] for lo, hi in seg]
        cells_grad = cells.requires_grad
    c, w = centroids.data, assign_w.data
    y, softs, mass, vn, norms, dnorm = netvlad_forward(
        blocks, c, w, assign_b.data, proj)

    def bw(g):
        gd = np.where(dnorm > 0.0,
                      (g - y * (g * y).sum(axis=1, keepdims=True)) / _safe(dnorm),
                      0.0)
        gvn = (gd @ proj).reshape(vn.shape)
        gv = np.where(norms > 0.0,
                      (gvn - vn * (gvn * vn).sum(axis=2, keepdims=True))
                      / _safe(norms), 0.0)
        if centroids.requires_grad:
            centroids.grad -= np.einsum("mk,mkc->kc", mass, gv)
        if not (cells_grad or assign_w.requires_grad or assign_b.requires_grad):
            return
        gmass = (gv * c).sum(axis=2)                              # (M, K)
        for m, (soft, xm) in enumerate(zip(softs, blocks)):
            gz = gv[m] @ xm.T
            gz -= gmass[m][:, None]
            gz -= (gz * soft).sum(axis=0)
            gz *= soft                                            # (K, n_m)
            if assign_w.requires_grad:
                assign_w.grad += gz @ xm
            if assign_b.requires_grad:
                assign_b.grad += gz.sum(axis=1)
            if cells_grad:
                lo, hi = seg[m]
                cells.grad[lo:hi] += soft.T @ gv[m] + gz.T @ w

    prev = (cells, centroids, assign_w, assign_b) if cells_grad else (
        centroids, assign_w, assign_b)
    return Tensor(y, _prev=prev, _backward=bw)


# ------------------------------------------------------------------ public API

def semantic_attention(feat: LocalFeatureMap, context: np.ndarray,
                       params: AttentionParams) -> LocalFeatureMap:
    context = np.asarray(context, dtype=np.float64)
    if abs(context.sum() - 1.0) > 1e-6:
        raise ValueError("semantic context is not normalized")
    flat = feat.values.reshape(-1, feat.channels)
    out = attention_forward(flat, context, params.bilinear, params.gain)[0]
    values = out.reshape(feat.values.shape)
    values[~feat.mask] = 0.0
    return LocalFeatureMap(values, feat.mask.copy())


def netvlad(feat: LocalFeatureMap, params: NetVladParams) -> GlobalDescriptor:
    valid = feat.values.reshape(-1, feat.channels)[feat.mask.reshape(-1)]
    if valid.shape[0] == 0:
        return GlobalDescriptor(np.zeros(params.proj.shape[0]), flagged=True)
    d = netvlad_forward([valid], params.centroids, params.assign_w,
                        params.assign_b, params.proj)[0][0]
    return GlobalDescriptor(d, flagged=not d.any())


def describe_query(obs: QueryObservation, enc: EncoderParams,
                   att: AttentionParams, vlad: NetVladParams,
                   context: np.ndarray) -> tuple[GlobalDescriptor, SemanticImage]:
    fmap, pred, _ = encode_query(obs, enc)
    attended = semantic_attention(fmap, context, att)
    return netvlad(attended, vlad), pred


def describe_query_tape(raw: np.ndarray, seg: np.ndarray, context: np.ndarray,
                        enc_t: dict, att_t: dict, vlad_t: dict
                        ) -> tuple[Tensor, Tensor, Tensor, np.ndarray]:
    """Differentiable query pipeline over a batch of B anchors.

    `raw` (R, QUERY_CHANNELS) holds the valid cells of every anchor back to
    back, anchor b owning rows seg[b, 0]:seg[b, 1]. Returns the descriptors
    Tensor (B, d_D), the attended features Tensor (R, C), the logits Tensor
    (R, n_classes) and the predicted labels (R,). Parameter dicts hold leaf
    Tensors keyed by field name. The encoder, the gated descriptor head and
    the logit head are one tape node each, with hand-written backward passes.
    """
    enc = EncoderParams(**{k: t.data for k, t in enc_t.items()})
    bilinear, gain = att_t["bilinear"], att_t["gain"]
    h, feat, logits = query_forward(raw, enc)
    attended, gate, w, score = attention_forward(feat, context, bilinear.data,
                                                 gain.data)

    def h_bw(g):
        gpre = g * (1.0 - h * h)
        enc_t["rgb_proj"].grad += raw.T @ gpre
        enc_t["rgb_bias"].grad += gpre.sum(axis=0)

    h_t = Tensor(h, _prev=(enc_t["rgb_proj"], enc_t["rgb_bias"]),
                 _backward=h_bw)

    def attended_bw(g):
        gscore = np.einsum("rc,rc->r", g, feat) * gate * (1.0 - gate)
        gain.grad += (gscore * score).sum()
        gscore = gscore * gain.data
        bilinear.grad += np.outer(feat.T @ gscore, context)
        gfeat = g * gate[:, None] + gscore[:, None] * w
        enc_t["desc_proj"].grad += h.T @ gfeat
        h_t.grad += gfeat @ enc.desc_proj.T

    att_out = Tensor(attended, _prev=(h_t, enc_t["desc_proj"], bilinear, gain),
                     _backward=attended_bw)

    def logits_bw(g):
        enc_t["seg_head"].grad += h.T @ g
        enc_t["seg_bias"].grad += g.sum(axis=0)
        h_t.grad += g @ enc.seg_head.T

    logit_out = Tensor(logits, _prev=(h_t, enc_t["seg_head"], enc_t["seg_bias"]),
                       _backward=logits_bw)
    desc = netvlad_batch(att_out, seg, vlad_t["centroids"], vlad_t["assign_w"],
                         vlad_t["assign_b"], vlad_t["proj"].data)
    return desc, att_out, logit_out, np.argmax(logits, axis=1)


def describe_lidar_tape(cells: list, vlad_t: dict) -> Tensor:
    """Descriptors (M, d_D) of M constant LiDAR maps, given as their valid
    cells (n_m, C), one tape node."""
    return netvlad_batch(cells, None, vlad_t["centroids"], vlad_t["assign_w"],
                         vlad_t["assign_b"], vlad_t["proj"].data)
