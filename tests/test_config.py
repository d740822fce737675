import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from xpr.config import (Config, ConfigError, config_from_json, config_to_json,
                        make_rng, validate_config)


def test_default_config_valid():
    cfg = Config()
    assert validate_config(cfg) is cfg
    assert cfg.alpha == 0.7 and cfg.beta == 0.3 and cfg.lambda_sem == 0.1
    assert cfg.n_classes == 8 and cfg.descriptor_dim == 128
    assert cfg.n_viewpoints == 8
    assert (cfg.range_rows, cfg.range_cols) == (16, 180)


def test_zero_temperature_rejected():
    with pytest.raises(ConfigError, match="temperature"):
        validate_config(dataclasses.replace(Config(), temperature=0.0))


def test_zero_alpha_beta_rejected():
    with pytest.raises(ConfigError, match="alpha/beta"):
        validate_config(dataclasses.replace(Config(), alpha=0.0, beta=0.0))


def test_inverted_vfov_rejected():
    with pytest.raises(ConfigError, match="vfov"):
        validate_config(dataclasses.replace(Config(), vfov_up=-30.0))


def test_bad_loss_kind_rejected():
    with pytest.raises(ConfigError, match="loss_kind"):
        validate_config(dataclasses.replace(Config(), loss_kind="nce"))


def test_more_classes_than_uint8_labels_rejected():
    assert validate_config(dataclasses.replace(Config(), n_classes=256))
    with pytest.raises(ConfigError, match="n_classes must be <= 256"):
        validate_config(dataclasses.replace(Config(), n_classes=257))


def test_json_round_trip_bit_exact():
    cfg = dataclasses.replace(Config(), alpha=0.1 + 0.2, temperature=1e-3,
                              vfov_down=-24.799999999999997, seed=12345)
    again = config_from_json(config_to_json(cfg))
    for f in dataclasses.fields(Config):
        assert getattr(again, f.name) == getattr(cfg, f.name)


@pytest.mark.parametrize("key", ["seed", "n_classes", "alpha"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_json_boolean_rejected(key, value):
    # bool is an Integral and a Real, so the type checks must exclude it
    with pytest.raises(ConfigError, match=f"{key} must be an? (integer|finite)"):
        config_from_json(f'{{"{key}": {value}}}')


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_json('{"alpha": 0.5, "bogus": 1}')


def test_rng_reproducible_across_processes():
    draws = make_rng(987, 1).random(1000)
    script = ("import numpy as np; from xpr.config import make_rng; "
              "print(repr(float(make_rng(987, 1).random(1000).sum())))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    assert float(out.stdout.strip()) == draws.sum()


def test_rng_streams_independent():
    a = make_rng(5, 1).random(10)
    b = make_rng(5, 2).random(10)
    assert not np.array_equal(a, b)
