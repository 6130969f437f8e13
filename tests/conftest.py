"""Checkpoint files of the small models, for the trainer's and the
checkpoint module's tests."""
import numpy as np
import pytest

from mcm.checkpoint import make_checkpoint, save_checkpoint
from mcm.embeddings import init_random
from mcm.model import BaselineConfig, build_baseline, build_mcm

from .helpers import CLASSES, SMALL_MCM, SMALL_VOCAB


@pytest.fixture
def ckpt_path(tmp_path):
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    path = tmp_path / "ok.mcm"
    save_checkpoint(make_checkpoint(model, SMALL_VOCAB, CLASSES), path)
    return path


@pytest.fixture
def baseline_path(tmp_path):
    cfg = BaselineConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, kernel=2,
                         num_filters=2, hidden_dim=3)
    model = build_baseline(cfg, init_random(10, 4, np.random.default_rng(0)), 0)
    path = tmp_path / "baseline.mcm"
    save_checkpoint(make_checkpoint(model, SMALL_VOCAB, CLASSES), path)
    return path
