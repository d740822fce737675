"""Bundled learnable parameters and their flat tensor view."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import (AttentionParams, NetVladParams, init_attention_params,
                          init_netvlad_params)
from .config import Config
from .encoder import EncoderParams, init_encoder_params

#: names of the tensors updated by gradient descent (vlad.proj is fixed)
TRAINABLE = (
    "enc.rgb_proj", "enc.rgb_bias", "enc.seg_head", "enc.seg_bias",
    "enc.desc_proj", "att.bilinear", "att.gain",
    "vlad.centroids", "vlad.assign_w", "vlad.assign_b",
)


@dataclass
class ModelParams:
    enc: EncoderParams
    att: AttentionParams
    vlad: NetVladParams

    def tensors(self) -> dict:
        """name -> numpy array, including the fixed projection."""
        return {
            "enc.rgb_proj": self.enc.rgb_proj,
            "enc.rgb_bias": self.enc.rgb_bias,
            "enc.seg_head": self.enc.seg_head,
            "enc.seg_bias": self.enc.seg_bias,
            "enc.desc_proj": self.enc.desc_proj,
            "att.bilinear": self.att.bilinear,
            "att.gain": np.asarray(self.att.gain, dtype=np.float64),
            "vlad.centroids": self.vlad.centroids,
            "vlad.assign_w": self.vlad.assign_w,
            "vlad.assign_b": self.vlad.assign_b,
            "vlad.proj": self.vlad.proj,
        }

    @staticmethod
    def from_tensors(t: dict) -> "ModelParams":
        return ModelParams(
            enc=EncoderParams(t["enc.rgb_proj"], t["enc.rgb_bias"],
                              t["enc.seg_head"], t["enc.seg_bias"],
                              t["enc.desc_proj"]),
            att=AttentionParams(t["att.bilinear"],
                                float(np.asarray(t["att.gain"]).reshape(()))),
            vlad=NetVladParams(t["vlad.centroids"], t["vlad.assign_w"],
                               t["vlad.assign_b"], t["vlad.proj"]),
        )


def init_model_params(cfg: Config) -> ModelParams:
    return ModelParams(init_encoder_params(cfg), init_attention_params(cfg),
                       init_netvlad_params(cfg))
