"""McM model: guards on the shape of its training graph."""
import numpy as np

from mcm.embeddings import init_random
from mcm.model import McmConfig, build_mcm, forward_batch, loss
from mcm.tensor import Tape, backward


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
