"""McM model: guards on the shape of its training graph, and the max_len
bounds that training shares with checkpoint loading."""
import numpy as np
import pytest

from mcm.embeddings import init_random
from mcm.model import (
    MAX_LEN_CEILING,
    BaselineConfig,
    McmConfig,
    build_baseline,
    build_mcm,
    forward_batch,
    loss,
)
from mcm.tensor import Tape, backward
from mcm.trainer import TrainConfig


def test_training_step_tape_stays_small():
    # The three LSTMs record 2 nodes each; un-fusing any of them puts
    # hundreds of per-timestep nodes back on the tape.
    cfg = McmConfig(vocab_size=30, embed_dim=8, num_classes=3, max_len=12, num_filters=4,
                    hidden_dim=4, dense1_dim=4, dense2_dim=3, attention=True)
    rng = np.random.default_rng(0)
    model = build_mcm(cfg, init_random(cfg.vocab_size, cfg.embed_dim, rng), 0)
    ids = rng.integers(0, cfg.vocab_size, size=(5, cfg.max_len))
    with Tape() as tape:
        total = loss(forward_batch(model, ids, "train", rng), rng.integers(0, 3, size=5))
    assert len(tape) < 200
    backward(total, tape)
    assert all(t.grad is not None for t in model.parameters())


@pytest.mark.parametrize("max_len", [MAX_LEN_CEILING + 1, 1, 12.0])
def test_training_configs_refuse_what_loading_refuses(max_len):
    table = init_random(10, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="max_len"):
        build_mcm(McmConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=max_len), table, 0)
    with pytest.raises(ValueError, match="max_len"):
        build_baseline(BaselineConfig(vocab_size=10, embed_dim=4, num_classes=3,
                                      max_len=max_len), table, 0)
    with pytest.raises(ValueError, match="max_len"):
        TrainConfig(max_len=max_len)
