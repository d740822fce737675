"""Run configuration: validation, JSON round-trip, seeded RNG streams."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral, Real

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration field violates its constraint."""


@dataclass(frozen=True)
class Config:
    n_classes: int = 8
    descriptor_dim: int = 128
    n_viewpoints: int = 8
    range_rows: int = 16
    range_cols: int = 180
    vfov_up: float = 2.0
    vfov_down: float = -24.8
    alpha: float = 0.7
    beta: float = 0.3
    lambda_sem: float = 0.1
    margin: float = 0.3
    temperature: float = 0.07
    loss_kind: str = "infonce"
    match_threshold_m: float = 5.0
    max_range_m: float = 80.0
    seed: int = 0

    @property
    def feature_dim(self) -> int:
        # depth + normal(3) + one-hot semantic block
        return 4 + self.n_classes


def validate_config(cfg: Config) -> Config:
    """Return cfg unchanged if every invariant holds, else raise ConfigError
    naming the first offending field."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        # a bool is an Integral and a Real, but a JSON true is no number
        number = not isinstance(value, bool)
        if isinstance(f.default, int) and not (
                number and isinstance(value, Integral)):
            raise ConfigError(f"{f.name} must be an integer")
        if isinstance(f.default, float) and not (
                number and isinstance(value, Real) and math.isfinite(value)):
            raise ConfigError(f"{f.name} must be a finite number")
    if cfg.n_classes < 2:
        raise ConfigError("n_classes must be >= 2 (class 0 is reserved for void)")
    if cfg.n_classes > 256:
        raise ConfigError("n_classes must be <= 256 (labels are stored as uint8)")
    if cfg.descriptor_dim < 1:
        raise ConfigError("descriptor_dim must be positive")
    if cfg.n_viewpoints < 1:
        raise ConfigError("n_viewpoints must be positive")
    if cfg.range_rows < 1 or cfg.range_cols < 1:
        raise ConfigError("range_rows/range_cols must be positive")
    if cfg.range_rows > 65535 or cfg.range_cols > 65535:
        raise ConfigError("range_rows/range_cols must be <= 65535 (map.idx "
                          "and .qry store them as uint16)")
    if not cfg.vfov_up > cfg.vfov_down:
        raise ConfigError("vfov_up must exceed vfov_down")
    if cfg.alpha < 0 or cfg.beta < 0:
        raise ConfigError("alpha/beta must be non-negative")
    if cfg.alpha + cfg.beta <= 0:
        raise ConfigError("alpha/beta must not both be zero")
    if cfg.lambda_sem < 0:
        raise ConfigError("lambda_sem must be non-negative")
    if cfg.margin < 0:
        raise ConfigError("margin must be non-negative")
    if not cfg.temperature > 0:
        raise ConfigError("temperature must be positive")
    if cfg.loss_kind not in ("triplet", "infonce"):
        raise ConfigError("loss_kind must be 'triplet' or 'infonce'")
    if not cfg.match_threshold_m > 0:
        raise ConfigError("match_threshold_m must be positive")
    if not cfg.max_range_m > 0:
        raise ConfigError("max_range_m must be positive")
    return cfg


def config_to_json(cfg: Config) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


def config_from_json(text: str) -> Config:
    data = json.loads(text)
    known = {f for f in Config.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return validate_config(Config(**data))


def with_overrides(cfg: Config, **kw) -> Config:
    return validate_config(replace(cfg, **kw))


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic PCG64 stream; extra ints key independent sub-streams."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *stream]))
