"""The multi-cascaded classifier: a stacked-CNN learner, a stacked-LSTM
learner, and an LSTM encoder learner, each with its own supervised head,
feeding a discriminator that fuses their intermediate features for the
final prediction. Also the single-layer CNN baseline it is compared to.

Forward passes are batched internally (step-major layout, see layers);
the single-example entry points wrap a batch of one. All four heads share
one computation graph, so one backward pass trains every cascade and the
discriminator jointly; ``stop_disc_gradients`` cuts the graph at the
feature boundary for strictly local supervision of the learners.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import tensor as T
from .embeddings import EmbeddingTable, lookup, lookup_distinct
from .layers import (
    AttentionParams,
    BatchNormParams,
    Conv1dParams,
    DenseParams,
    LstmParams,
    batchnorm,
    conv1d_batch,
    dense,
    dropout,
    lstm_sequence_batch,
    soft_attention_batch,
    softmax_ce,
)
from .tensor import Tensor


# Longest id sequence a model takes. An SMS holds at most 160 characters,
# so far fewer tokens. Eval and predict allocate max_len ids per message,
# so a checkpoint above the ceiling is refused rather than trusted.
MAX_LEN_CEILING = 1024


def check_max_len(max_len, shortest: int) -> None:
    """Reject a ``max_len`` that is not an int or lies outside
    [``shortest``, ``MAX_LEN_CEILING``]; ``shortest`` is the receptive
    field of the model's convolutions."""
    if isinstance(max_len, bool) or not isinstance(max_len, (int, np.integer)):
        raise ValueError(f"max_len must be an integer, got {max_len!r}")
    if not shortest <= max_len <= MAX_LEN_CEILING:
        raise ValueError(f"max_len {max_len} outside [{shortest}, {MAX_LEN_CEILING}]")


@dataclass
class McmConfig:
    vocab_size: int
    embed_dim: int
    num_classes: int
    max_len: int
    num_filters: int = 128
    hidden_dim: int = 128
    dense1_dim: int = 128
    dense2_dim: int = 64
    kernel1: int = 1
    kernel2: int = 2
    attention: bool = False
    dropout: float = 0.2
    stop_disc_gradients: bool = False

    def validate(self) -> None:
        check_max_len(self.max_len, self.kernel1 + self.kernel2 - 1)
        if min(self.vocab_size, self.embed_dim, self.num_classes, self.num_filters,
               self.hidden_dim, self.dense1_dim, self.dense2_dim) < 1:
            raise ValueError("all dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


def _prefixed(obj, method: str) -> list:
    """("field.name", value) for each entry of ``method()`` of every field
    of the dataclass ``obj``, in field order; a field without that method
    (a config, a rate, an absent part) adds none."""
    out = []
    for f in fields(obj):
        part = getattr(obj, f.name)
        if hasattr(part, method):
            out.extend((f"{f.name}.{n}", v) for n, v in getattr(part, method)())
    return out


@dataclass
class LearnerHead:
    """dense -> batchnorm -> relu -> dropout, twice, then a linear output.

    The post-ReLU activation of the second block is the feature handed to
    the discriminator.
    """

    dense1: DenseParams
    bn1: BatchNormParams
    dense2: DenseParams
    bn2: BatchNormParams
    out: DenseParams
    dropout_rate: float

    @classmethod
    def init(cls, in_dim: int, d1: int, d2: int, num_classes: int,
             dropout_rate: float, rng: np.random.Generator):
        return cls(
            DenseParams.init(in_dim, d1, rng),
            BatchNormParams.init(d1),
            DenseParams.init(d1, d2, rng),
            BatchNormParams.init(d2),
            DenseParams.init(d2, num_classes, rng),
            dropout_rate,
        )

    def tensors(self):
        return _prefixed(self, "tensors")

    def buffers(self):
        return _prefixed(self, "buffers")


class Model:
    """What training, evaluation, checkpoints and serving use of a model.

    ``heads`` names its supervised outputs; the last one is the prediction.
    ``head_logits(ids, mode, rng)`` returns one logits tensor per head for
    an (n, max_len) id batch. Subclasses are dataclasses whose parameter
    groups are fields; their field order is the order of the named tensors,
    and so of a checkpoint's arrays.
    """

    heads: tuple = ()
    name = ""  # how reports name a checkpoint that records no variant

    def named_tensors(self):
        return _prefixed(self, "tensors")

    def named_buffers(self):
        return _prefixed(self, "buffers")

    def arrays(self) -> dict:
        """Every stored array by name, not copied: each tensor's data, then
        each buffer."""
        out = {name: t.data for name, t in self.named_tensors()}
        out.update(self.named_buffers())
        return out

    def parameters(self):
        return [t for _, t in self.named_tensors() if t.requires_grad]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def _head_forward(x: Tensor, head: LearnerHead, mode: str,
                  rng: Optional[np.random.Generator]):
    # A training batch of one example cannot produce batch statistics, so
    # batchnorm falls back to the running estimates; gamma/beta still learn.
    bn_mode = mode if mode == "infer" or x.data.shape[0] >= 2 else "infer"
    h = T.relu(batchnorm(dense(x, head.dense1), head.bn1, bn_mode))
    h = dropout(h, head.dropout_rate, mode, rng)
    feat = T.relu(batchnorm(dense(h, head.dense2), head.bn2, bn_mode))
    h = dropout(feat, head.dropout_rate, mode, rng)
    return dense(h, head.out), feat


@dataclass
class McmModel(Model):
    heads = ("cnn", "slstm", "lstm", "discriminator")
    name = "McM"

    config: McmConfig
    embedding: EmbeddingTable
    cnn1: Conv1dParams
    cnn2: Conv1dParams
    lstm_s1: LstmParams
    lstm_s2: LstmParams
    lstm_enc: LstmParams
    head_cnn: LearnerHead
    head_slstm: LearnerHead
    head_lstm: LearnerHead
    disc: LearnerHead
    att_cnn: Optional[AttentionParams] = None
    att_lstm: Optional[AttentionParams] = None

    def head_logits(self, ids, mode, rng=None):
        return forward_batch(self, ids, mode, rng).logits()


def build_mcm(config: McmConfig, embedding: EmbeddingTable, seed_seq) -> McmModel:
    """Assemble the network; raises on inconsistent dimensions.

    Each component draws its weights from an independently forked stream,
    so toggling attention leaves every other component's initial weights
    untouched.
    """
    config.validate()
    if embedding.vocab_size != config.vocab_size or embedding.dim != config.embed_dim:
        raise ValueError("embedding table does not match the configuration")
    if isinstance(seed_seq, (int, np.integer)):
        seed_seq = np.random.SeedSequence(seed_seq)
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(11)]
    cfg = config
    feat_total = 3 * cfg.dense2_dim
    return McmModel(
        config=cfg,
        embedding=embedding,
        cnn1=Conv1dParams.init(cfg.kernel1, cfg.embed_dim, cfg.num_filters, rngs[0]),
        cnn2=Conv1dParams.init(cfg.kernel2, cfg.num_filters, cfg.num_filters, rngs[1]),
        lstm_s1=LstmParams.init(cfg.embed_dim, cfg.hidden_dim, rngs[2]),
        lstm_s2=LstmParams.init(cfg.hidden_dim, cfg.hidden_dim, rngs[3]),
        lstm_enc=LstmParams.init(cfg.embed_dim, cfg.hidden_dim, rngs[4]),
        head_cnn=LearnerHead.init(2 * cfg.num_filters, cfg.dense1_dim, cfg.dense2_dim,
                                  cfg.num_classes, cfg.dropout, rngs[5]),
        head_slstm=LearnerHead.init(2 * cfg.hidden_dim, cfg.dense1_dim, cfg.dense2_dim,
                                    cfg.num_classes, cfg.dropout, rngs[6]),
        head_lstm=LearnerHead.init(cfg.hidden_dim, cfg.dense1_dim, cfg.dense2_dim,
                                   cfg.num_classes, cfg.dropout, rngs[7]),
        disc=LearnerHead.init(feat_total, cfg.dense1_dim, cfg.dense2_dim,
                              cfg.num_classes, cfg.dropout, rngs[8]),
        att_cnn=AttentionParams.init(cfg.num_filters, rngs[9]) if cfg.attention else None,
        att_lstm=AttentionParams.init(cfg.hidden_dim, rngs[10]) if cfg.attention else None,
    )


@dataclass
class McmOutput:
    """Per-head probabilities (detached), the logits behind them, and the
    features the discriminator consumed. Batched fields are (n, .)."""

    probs_cnn: Tensor
    probs_slstm: Tensor
    probs_lstm: Tensor
    probs_disc: Tensor
    logits_cnn: Tensor
    logits_slstm: Tensor
    logits_lstm: Tensor
    logits_disc: Tensor
    features_cnn: Tensor
    features_slstm: Tensor
    features_lstm: Tensor

    def logits(self):
        """One logits tensor per head, in ``McmModel.heads`` order."""
        return [self.logits_cnn, self.logits_slstm, self.logits_lstm, self.logits_disc]


def probabilities(logits: Tensor) -> Tensor:
    """Softmax over the last axis, off the tape."""
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return Tensor(e / e.sum(axis=-1, keepdims=True))


def _pool_time(flat: Tensor, n: int, steps: int, width: int) -> Tensor:
    """Global max-pool and average-pool over time, concatenated: (n, 2*width)."""
    cube = T.reshape(flat, (steps, n, width))
    return T.concat([T.reduce_max(cube, 0), T.reduce_mean(cube, 0)], axis=1)


def forward_batch(model: McmModel, ids: np.ndarray, mode: str,
                  rng: Optional[np.random.Generator] = None) -> McmOutput:
    """Run all four components over an (n, max_len) id batch.

    The embedded batch is gathered once as its distinct ids, and the first
    layer of each cascade (``cnn1``, ``lstm_s1``, ``lstm_enc``) projects
    those rows instead of every token slot.
    """
    cfg = model.config
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
        raise ValueError(f"expected (n, {cfg.max_len}) ids, got {ids.shape}")
    n, l = ids.shape
    x = lookup_distinct(model.embedding, ids.T.reshape(-1))  # step-major (l*n, d)

    # stacked-CNN cascade
    c1 = conv1d_batch(x, n, l, model.cnn1)
    w1 = l - cfg.kernel1 + 1
    if model.att_cnn is not None:
        c1 = soft_attention_batch(c1, n, w1, model.att_cnn)
    c2 = conv1d_batch(c1, n, w1, model.cnn2)
    w2 = w1 - cfg.kernel2 + 1
    cnn_pooled = _pool_time(c2, n, w2, cfg.num_filters)
    logits_cnn, feat_cnn = _head_forward(cnn_pooled, model.head_cnn, mode, rng)

    # stacked-LSTM cascade
    h1, _ = lstm_sequence_batch(x, n, l, model.lstm_s1)
    if model.att_lstm is not None:
        h1 = soft_attention_batch(h1, n, l, model.att_lstm)
    h2, _ = lstm_sequence_batch(h1, n, l, model.lstm_s2)
    slstm_pooled = _pool_time(h2, n, l, cfg.hidden_dim)
    logits_slstm, feat_slstm = _head_forward(slstm_pooled, model.head_slstm, mode, rng)

    # LSTM encoder cascade: the final hidden state summarizes the text
    _, h_last = lstm_sequence_batch(x, n, l, model.lstm_enc)
    logits_lstm, feat_lstm = _head_forward(h_last, model.head_lstm, mode, rng)

    # discriminator over the fused learner features
    feats = T.concat([feat_cnn, feat_slstm, feat_lstm], axis=1)
    if cfg.stop_disc_gradients:
        feats = feats.detach()
    logits_disc, _ = _head_forward(feats, model.disc, mode, rng)

    return McmOutput(
        probs_cnn=probabilities(logits_cnn), probs_slstm=probabilities(logits_slstm),
        probs_lstm=probabilities(logits_lstm), probs_disc=probabilities(logits_disc),
        logits_cnn=logits_cnn, logits_slstm=logits_slstm,
        logits_lstm=logits_lstm, logits_disc=logits_disc,
        features_cnn=feat_cnn, features_slstm=feat_slstm, features_lstm=feat_lstm,
    )


def forward(model: McmModel, ids, mode: str = "infer",
            rng: Optional[np.random.Generator] = None) -> McmOutput:
    """Single-example forward: ids of length max_len, vector outputs."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("forward takes one token-id row; use forward_batch for batches")
    out = forward_batch(model, ids[None, :], mode, rng)

    def squeeze(t: Tensor) -> Tensor:
        return T.reshape(t, t.data.shape[1:])

    return McmOutput(**{k: squeeze(v) for k, v in vars(out).items()})


def heads_loss(logits, target) -> Tensor:
    """Equal-weight sum of each head's categorical cross-entropy.

    ``target`` is an int for single outputs, an (n,) array for batched
    ones (each head's term is then the batch mean).
    """
    total = None
    for head_logits in logits:
        _, term = softmax_ce(head_logits, target)
        total = term if total is None else T.add(total, term)
    return total


def loss(out: McmOutput, target) -> Tensor:
    """The sum of the four heads' cross-entropies (``heads_loss``)."""
    return heads_loss(out.logits(), target)


def predict(model: McmModel, ids):
    """Final prediction: argmax of the discriminator's probabilities,
    ties broken toward the lowest class index."""
    out = forward(model, ids, mode="infer")
    p = out.probs_disc.data
    return int(np.argmax(p)), p


# ---------------------------------------------------------------------------
# single-layer CNN baseline


@dataclass
class BaselineConfig:
    vocab_size: int
    embed_dim: int
    num_classes: int
    max_len: int
    kernel: int = 3
    num_filters: int = 128
    hidden_dim: int = 128


@dataclass
class BaselineModel(Model):
    heads = ("baseline",)
    name = "Baseline"

    config: BaselineConfig
    embedding: EmbeddingTable
    conv: Conv1dParams
    hidden: DenseParams
    out: DenseParams

    def head_logits(self, ids, mode, rng=None):
        """Logits (n, C) for an (n, max_len) id batch, as the one head. The
        baseline has no dropout or batchnorm, so ``mode`` and ``rng`` change
        nothing."""
        cfg = self.config
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
            raise ValueError(f"expected (n, {cfg.max_len}) ids, got {ids.shape}")
        n, l = ids.shape
        x = lookup(self.embedding, ids.T.reshape(-1))
        c = conv1d_batch(x, n, l, self.conv)
        cube = T.reshape(c, (l - cfg.kernel + 1, n, cfg.num_filters))
        pooled = T.reduce_max(cube, 0)
        return [dense(dense(pooled, self.hidden), self.out)]


def build_baseline(config: BaselineConfig, embedding: EmbeddingTable, seed_seq) -> BaselineModel:
    """Embedding -> one valid conv (ReLU) -> global max-pool -> dense -> softmax."""
    check_max_len(config.max_len, config.kernel)
    if embedding.vocab_size != config.vocab_size or embedding.dim != config.embed_dim:
        raise ValueError("embedding table does not match the configuration")
    if isinstance(seed_seq, (int, np.integer)):
        seed_seq = np.random.SeedSequence(seed_seq)
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(3)]
    return BaselineModel(
        config=config,
        embedding=embedding,
        conv=Conv1dParams.init(config.kernel, config.embed_dim, config.num_filters, rngs[0]),
        hidden=DenseParams.init(config.num_filters, config.hidden_dim, rngs[1], "relu"),
        out=DenseParams.init(config.hidden_dim, config.num_classes, rngs[2]),
    )

