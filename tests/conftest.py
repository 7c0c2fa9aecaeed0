"""Shared fixtures: the three desk models at full size plus a smaller
bumps model for tests that only need a realistic surface, not scale."""

import numpy as np
import pytest

from gridmark import EmbedConfig, embed, generate_model
from gridmark.model_io import WatermarkBitmap

DESK_KINDS = ("bumps", "harmonic", "meshgrid")


def random_watermark(w, seed=11):
    bits = np.random.default_rng(seed).integers(0, 2, size=(w, w), dtype=np.uint8)
    return WatermarkBitmap(bits)


@pytest.fixture(scope="session")
def wm32():
    return random_watermark(32)


@pytest.fixture(scope="session")
def wm16():
    return random_watermark(16)


@pytest.fixture(scope="session")
def default_cfg():
    return EmbedConfig()


@pytest.fixture(scope="session")
def desk_models():
    return {kind: generate_model(kind, 256, 0) for kind in DESK_KINDS}


@pytest.fixture(scope="session")
def desk_marked(desk_models, wm32, default_cfg):
    return {kind: embed(m, wm32, default_cfg) for kind, m in desk_models.items()}


@pytest.fixture(scope="session")
def small_model():
    return generate_model("bumps", 128, 1)


@pytest.fixture(scope="session")
def small_marked(small_model, wm16, default_cfg):
    return embed(small_model, wm16, default_cfg)


@pytest.fixture(params=[1, 4], ids=["loop", "pool"])
def chunk_workers(request, monkeypatch):
    """Run the block-feature slices on a pool of one thread or of four,
    whatever the machine has."""
    from gridmark import features

    monkeypatch.setattr(features, "_usable_cpus", lambda: request.param)
    return request.param
