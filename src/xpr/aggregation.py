"""Global descriptor aggregation: semantic-gated attention + NetVLAD pooling."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config, make_rng
from .encoder import (EncoderParams, QueryObservation, encode_query,
                      query_forward)
from .projection import SemanticImage
from .workspace import FRESH, Workspace

N_CLUSTERS = 8
# seed streams of the initial attention and NetVLAD parameters
ATTENTION_SEED_STREAM = 102
NETVLAD_SEED_STREAM = 103
PROJECTION_SEED_STREAM = 104


@dataclass(frozen=True)
class GlobalDescriptor:
    values: np.ndarray   # (descriptor_dim,) unit norm unless flagged
    flagged: bool = False  # True only for the all-zero vector of no cells


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


def _over_norms(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """x / norms in place, and zero where a norm is not > 0: the values of
    np.where(norms > 0, x / _safe(norms), 0.0)."""
    x /= _safe(norms)
    np.copyto(x, 0.0, where=~(norms > 0.0))
    return x


def _view(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat array, as a contiguous array of `shape`."""
    return flat[:math.prod(shape)].reshape(shape)


def attention_forward(feat: np.ndarray, context: np.ndarray,
                      bilinear: np.ndarray, gain,
                      ws: Workspace = FRESH) -> tuple:
    """Scalar sigmoid gate per cell, a = sigmoid(gain * feat . (B @ context)),
    over (R, C) features.

    Returns the gated features (R, C) and, for the backward, the gate (R,),
    the context vector B @ context (C,) and the ungained score (R,); the
    three arrays are the workspace arrays "attended", "gate" and "score".
    """
    w = bilinear @ context
    score = np.matmul(feat, w, out=ws.empty("score", (len(feat),)))
    # 1 / (1 + exp(-(score * gain))), one operation at a time in place
    gate = np.multiply(score, gain, out=ws.empty("gate", score.shape))
    np.negative(gate, out=gate)
    np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)
    attended = np.multiply(feat, gate[:, None], out=ws.empty("attended", feat.shape))
    return attended, gate, w, score


def netvlad_forward(blocks: list, centroids: np.ndarray, assign_w: np.ndarray,
                    assign_b: np.ndarray, proj: np.ndarray,
                    ws: Workspace = FRESH) -> tuple:
    """Soft-assign residual aggregation of M maps, reduced to d_D.

    `blocks` holds each map's valid cells as an (n_m, C) array. Returns the
    descriptors (M, d_D) and, for the backward, the soft-assignments (K, n_m)
    of each map, the cluster masses (M, K), the intra-normalized residuals
    (M, K, C) with their norms (M, K, 1), and the descriptor norms (M, 1).
    The soft-assignments are contiguous views, in map order, of the one
    workspace array "soft", and the other arrays that the backward reads
    are workspace arrays too. A map with no cells, or whose descriptor
    normalizes to zero, gives a zero row.
    """
    b = assign_b[:, None]
    m_n, (k_n, c_n) = len(blocks), centroids.shape
    # soft-assignments are held transposed, (K, n_m), so that the max and
    # the sums over the K clusters reduce over the outer axis, which numpy
    # does several times faster than over a short last axis. They are views
    # of one array, so a later step reuses it whatever order its maps come in
    flat = ws.empty("soft", (k_n * sum(map(len, blocks)),))
    softs = []
    mass = ws.empty("mass", (m_n, k_n))
    v = np.empty((m_n, k_n, c_n))
    end = 0
    for m, xm in enumerate(blocks):
        start, end = end, end + k_n * len(xm)
        soft = np.matmul(assign_w, xm.T, out=flat[start:end].reshape(k_n, len(xm)))
        soft += b
        soft -= soft.max(axis=0)
        np.exp(soft, out=soft)
        soft /= soft.sum(axis=0)
        softs.append(soft)
        mass[m] = soft.sum(axis=1)
        v[m] = soft @ xm
    v -= mass[:, :, None] * centroids
    norms = np.sqrt((v ** 2).sum(axis=2, keepdims=True))         # (M, K, 1)
    vn = np.divide(v, _safe(norms), out=ws.empty("vn", v.shape))
    d = vn.reshape(m_n, -1) @ proj.T                              # (M, d_D)
    dnorm = np.sqrt((d ** 2).sum(axis=1, keepdims=True))
    y = np.divide(d, _safe(dnorm), out=ws.empty("y", d.shape))
    return y, softs, mass, vn, norms, dnorm


def netvlad_batch(blocks: list, centroids: np.ndarray, assign_w: np.ndarray,
                  assign_b: np.ndarray, proj: np.ndarray,
                  ws: Workspace = FRESH) -> tuple:
    """`netvlad_forward` over M maps, given as their valid cells (n_m, C),
    with its backward.

    Returns the descriptors (M, d_D) and backward(g, grads, gcells=None):
    it adds the gradients of sum(g * descriptors) w.r.t. the centroids, the
    assignment weights and the biases into grads["vlad.*"], map by map in
    order, and when gcells is given adds map m's cell gradient into the
    (n_m, C) array gcells[m]. A zero row has zero gradient. The backward's
    arrays are workspace arrays; "gz", "gz_soft", "gx" and "gx_z" are sized
    for the largest map, and each map takes a contiguous view of them.
    """
    y, softs, mass, vn, norms, dnorm = netvlad_forward(
        blocks, centroids, assign_w, assign_b, proj, ws)

    def backward(g, grads, gcells=None):
        # gd = (g - y * sum(g * y)) / dnorm
        gd = np.multiply(g, y, out=ws.empty("gd", y.shape))
        np.multiply(y, gd.sum(axis=1, keepdims=True), out=gd)
        _over_norms(np.subtract(g, gd, out=gd), dnorm)
        gvn = np.matmul(gd, proj, out=ws.empty("gvn", (len(y), proj.shape[1]))
                        ).reshape(vn.shape)
        # gv = (gvn - vn * sum(gvn * vn)) / norms
        gv = np.multiply(gvn, vn, out=ws.empty("gv", vn.shape))
        np.multiply(vn, gv.sum(axis=2, keepdims=True), out=gv)
        _over_norms(np.subtract(gvn, gv, out=gv), norms)
        grads["vlad.centroids"] -= np.einsum("mk,mkc->kc", mass, gv)
        gmass = np.multiply(gv, centroids, out=ws.empty("gv_c", gv.shape)
                            ).sum(axis=2)                         # (M, K)
        k_n, c_n = centroids.shape
        n_max = max(map(len, blocks), default=0)
        gz_flat = ws.empty("gz", (k_n * n_max,))
        gz_soft = ws.empty("gz_soft", (k_n * n_max,))
        if gcells is not None:
            gx_flat = ws.empty("gx", (n_max * c_n,))
            gx_z = ws.empty("gx_z", (n_max * c_n,))
        for m, (soft, xm) in enumerate(zip(softs, blocks)):
            gz = np.matmul(gv[m], xm.T, out=_view(gz_flat, soft.shape))
            gz -= gmass[m][:, None]
            gz -= np.multiply(gz, soft, out=_view(gz_soft, soft.shape)).sum(axis=0)
            gz *= soft                                            # (K, n_m)
            grads["vlad.assign_w"] += gz @ xm
            grads["vlad.assign_b"] += gz.sum(axis=1)
            if gcells is not None:
                # soft^T gv[m] + gz^T assign_w, summed before it is added
                gx = np.matmul(soft.T, gv[m], out=_view(gx_flat, xm.shape))
                gx += np.matmul(gz.T, assign_w, out=_view(gx_z, xm.shape))
                gcells[m] += gx

    return y, backward


# ------------------------------------------------------------------ public API

def semantic_attention(feat: np.ndarray, context: np.ndarray,
                       params: AttentionParams) -> np.ndarray:
    """Gated features (R, C) of features (R, C); a zero row stays zero."""
    context = np.asarray(context, dtype=np.float64)
    if abs(context.sum() - 1.0) > 1e-6:
        raise ValueError("semantic context is not normalized")
    return attention_forward(feat, context, params.bilinear, params.gain)[0]


def netvlad(cells: np.ndarray, params: NetVladParams) -> GlobalDescriptor:
    """Descriptor of one map's valid cells (n, C); no cells, or a descriptor
    that normalizes to zero, gives a flagged zero vector."""
    d = netvlad_forward([cells], params.centroids, params.assign_w,
                        params.assign_b, params.proj)[0][0]
    return GlobalDescriptor(d, flagged=not d.any())


def describe_query(obs: QueryObservation, enc: EncoderParams,
                   att: AttentionParams, vlad: NetVladParams,
                   context: np.ndarray) -> tuple[GlobalDescriptor, SemanticImage]:
    """Descriptor and labels of one query's valid cells, computed exactly as
    `describe_query_tape` computes one anchor."""
    feat, pred = encode_query(obs, enc)
    return netvlad(semantic_attention(feat, context, att), vlad), pred


def describe_query_tape(raw: np.ndarray, seg: np.ndarray, context: np.ndarray,
                        enc: EncoderParams, att: AttentionParams,
                        vlad: NetVladParams, ws: Workspace = FRESH
                        ) -> tuple:
    """Differentiable query pipeline over a batch of B anchors.

    `raw` (R, QUERY_CHANNELS) holds the valid cells of every anchor back to
    back, anchor b owning rows seg[b, 0]:seg[b, 1]. Returns its three heads,
    the descriptors (B, d_D), the attended features (R, C) and the logits
    (R, n_classes), then the predicted labels (R,) and
    backward(g_desc, g_attended, g_logits, grads), which adds the gradient
    of every trainable encoder, attention and NetVLAD parameter into grads.
    g_attended is the gradient from outside the descriptor head; backward
    adds that head's own share into it, then overwrites it.

    Every (R, ...) array of the forward and the backward is a workspace
    array, and each product is formed in place in the order the formula in
    its comment gives, so the rounding is that of the formula. "rows" is
    the (R, C) scratch array.
    """
    h, feat, logits = query_forward(raw, enc, ws)
    attended, gate, w, score = attention_forward(feat, context, att.bilinear,
                                                 att.gain, ws)
    desc, vlad_bw = netvlad_batch([attended[lo:hi] for lo, hi in seg],
                                  vlad.centroids, vlad.assign_w,
                                  vlad.assign_b, vlad.proj, ws.scope("vlad"))
    pred = np.argmax(logits, axis=1, out=ws.empty("pred", (len(raw),), np.intp))

    def backward(g_desc, g_attended, g_logits, grads):
        grads["enc.seg_head"] += h.T @ g_logits
        grads["enc.seg_bias"] += g_logits.sum(axis=0)
        gh = np.matmul(g_logits, enc.seg_head.T, out=ws.empty("gh", h.shape))
        vlad_bw(g_desc, grads, [g_attended[lo:hi] for lo, hi in seg])
        # gscore = einsum(g_attended, feat) * gate * (1 - gate)
        gscore = np.einsum("rc,rc->r", g_attended, feat,
                           out=ws.empty("gscore", gate.shape))
        gscore *= gate
        gscore *= np.subtract(1.0, gate, out=ws.empty("row", gate.shape))
        grads["att.gain"] += np.multiply(gscore, score,
                                         out=ws.empty("row", gate.shape)).sum()
        gscore *= att.gain
        grads["att.bilinear"] += np.outer(feat.T @ gscore, context)
        # gfeat = g_attended * gate + gscore * w, formed in g_attended as
        # (gscore * w) + (g_attended * gate): einsum needs no iteration
        # buffer for these products, where a broadcast multiply does
        gated = np.einsum("rc,r->rc", g_attended, gate,
                          out=ws.empty("rows", feat.shape))
        gfeat = np.einsum("r,c->rc", gscore, w, out=g_attended)
        gfeat += gated
        grads["enc.desc_proj"] += h.T @ gfeat
        gh += np.matmul(gfeat, enc.desc_proj.T, out=ws.empty("rows", h.shape))
        # gpre = gh * (1 - h * h)
        gpre = np.multiply(h, h, out=ws.empty("rows", h.shape))
        np.subtract(1.0, gpre, out=gpre)
        gpre *= gh
        grads["enc.rgb_proj"] += raw.T @ gpre
        grads["enc.rgb_bias"] += gpre.sum(axis=0)

    return desc, attended, logits, pred, backward


def describe_lidar_tape(cells: list, vlad: NetVladParams,
                        ws: Workspace = FRESH) -> tuple:
    """Descriptors (M, d_D) of M constant LiDAR maps, given as their valid
    cells (n_m, C), and their `netvlad_batch` backward."""
    return netvlad_batch(cells, vlad.centroids, vlad.assign_w, vlad.assign_b,
                         vlad.proj, ws)
