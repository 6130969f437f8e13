"""The multi-cascaded classifier: a stacked-CNN learner, a stacked-LSTM
learner, and an LSTM encoder learner, each with its own supervised head,
feeding a discriminator that fuses their intermediate features for the
final prediction. Also the single-layer CNN baseline it is compared to.

Forward passes are batched (step-major layout, see layers); one message
is a batch of one. All four heads share one computation graph, so one
backward pass trains every cascade and the discriminator jointly;
``stop_disc_gradients`` cuts the graph at the feature boundary for
strictly local supervision of the learners.

The graph is built from the fused ops of ``layers`` (LSTM, convolution,
dense, attention) and one of this module, ``_pool_time``: the max- and
mean-pool over time, concatenated, as one tape node. With dropout on, a
training step of McM records 55 tape nodes, 57 with attention; an
infer-mode forward records 40 and 42.

Both models and their parameter groups are ``layers.Params``, so their
arrays are named from their fields in field order, as checkpoints store
them. The embedding table trains when ``embedding.vectors.requires_grad``.

Each model class is the one description of its kind (``Model``), and
``KINDS`` maps each kind's name to its class for ``mcm.checkpoint`` and
``mcm.trainer``. ``check_config`` is the one rule each kind's config meets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from . import tensor as T
from .embeddings import EmbeddingTable, lookup_distinct
from .layers import (
    AttentionParams,
    BatchNormParams,
    Conv1dParams,
    DenseParams,
    LstmParams,
    Params,
    batchnorm,
    check_fields,
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


def check_max_len(max_len: int, shortest: int) -> None:
    """Reject a ``max_len`` outside [``shortest``, ``MAX_LEN_CEILING``];
    ``shortest`` is the receptive field of the model's convolutions."""
    if not shortest <= max_len <= MAX_LEN_CEILING:
        raise ValueError(f"max_len {max_len} outside [{shortest}, {MAX_LEN_CEILING}]")


def check_config(config, shortest: int) -> None:
    """The one rule for a model config: each field holds a value its type
    admits, ``max_len`` lies in [``shortest``, ``MAX_LEN_CEILING``], and
    every ``int`` field, each a size, is at least 1. The sizes are read from
    the type hints, so a new size field is checked without being listed."""
    check_fields(type(config), vars(config))
    check_max_len(config.max_len, shortest)
    hints = get_type_hints(type(config))
    if min(getattr(config, name) for name, hint in hints.items() if hint is int) < 1:
        raise ValueError("all dimensions must be positive")


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

    def __post_init__(self):
        check_config(self, self.kernel1 + self.kernel2 - 1)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


@dataclass
class LearnerHead(Params):
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
    def init(cls, in_dim: int, config: McmConfig, rng: np.random.Generator):
        d1, d2 = config.dense1_dim, config.dense2_dim
        return cls(
            DenseParams.init(in_dim, d1, rng),
            BatchNormParams.init(d1),
            DenseParams.init(d1, d2, rng),
            BatchNormParams.init(d2),
            DenseParams.init(d2, config.num_classes, rng),
            config.dropout,
        )


class Model(Params):
    """What training, evaluation, checkpoints and serving use of a model.

    ``heads`` names its supervised outputs; the last one is the prediction.
    ``head_logits(ids, mode, rng)`` returns one logits tensor per head for
    an (n, max_len) id batch. Subclasses are dataclasses whose parameter
    groups are fields, so ``Params`` names their arrays in field order
    ("lstm_s1.w_i", "head_cnn.bn1.running_mean"), the order a checkpoint
    stores them in.

    Each subclass also names its kind in class attributes that are not
    fields: ``kind`` (its key in ``KINDS``), ``config_class``, ``build`` and
    ``sizing``, for each config field that sizes a tensor the one array and
    axis that must equal it, as ``checkpoint.check_checkpoint`` checks.
    """

    heads: tuple = ()
    name = ""  # how reports name a checkpoint that records no variant
    # What a training run fixes for a model class: the one embedding mode it
    # trains on (None: the configured one; a class that fixes it has one
    # variant, its ``name``), and the fewest ids per message it encodes.
    embedding_mode: Optional[str] = None
    shortest = 2

    def parameters(self):
        return [t for _, t in self.tensors() if t.requires_grad]

    def embed(self, ids):
        """(rows, n, l): the embedded rows of an (n, max_len) id batch, in
        step-major order and held as the distinct ids (``GatheredRows``)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != self.config.max_len:
            raise ValueError(f"expected (n, {self.config.max_len}) ids, got {ids.shape}")
        n, l = ids.shape
        return lookup_distinct(self.embedding, ids.T.reshape(-1)), n, l


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


def _component_rngs(config, embedding: EmbeddingTable, seed_seq, count: int) -> list:
    """What both builders do first: refuse a table that does not match
    ``config``, then fork ``count`` independent generators, one per
    component, from ``seed_seq`` (a ``SeedSequence`` or an int)."""
    if embedding.vectors.shape != (config.vocab_size, config.embed_dim):
        raise ValueError("embedding table does not match the configuration")
    if isinstance(seed_seq, (int, np.integer)):
        seed_seq = np.random.SeedSequence(seed_seq)
    return [np.random.default_rng(s) for s in seed_seq.spawn(count)]


class McmOutput(NamedTuple):
    """Each head's (n, num_classes) logits, its fields in head order:
    ``McmModel.heads`` is ``McmOutput._fields``. ``probs_disc`` is the
    prediction's softmax, computed when read."""

    cnn: Tensor
    slstm: Tensor
    lstm: Tensor
    discriminator: Tensor

    @property
    def probs_disc(self) -> Tensor:
        """The discriminator's probabilities (detached)."""
        return probabilities(self.discriminator)


def build_mcm(config: McmConfig, embedding: EmbeddingTable, seed_seq) -> McmModel:
    """Assemble the network; raises on inconsistent dimensions.

    Each component draws its weights from an independently forked stream,
    so toggling attention leaves every other component's initial weights
    untouched.
    """
    rngs = _component_rngs(config, embedding, seed_seq, 11)
    cfg = config
    return McmModel(
        config=cfg,
        embedding=embedding,
        cnn1=Conv1dParams.init(cfg.kernel1, cfg.embed_dim, cfg.num_filters, rngs[0]),
        cnn2=Conv1dParams.init(cfg.kernel2, cfg.num_filters, cfg.num_filters, rngs[1]),
        lstm_s1=LstmParams.init(cfg.embed_dim, cfg.hidden_dim, rngs[2]),
        lstm_s2=LstmParams.init(cfg.hidden_dim, cfg.hidden_dim, rngs[3]),
        lstm_enc=LstmParams.init(cfg.embed_dim, cfg.hidden_dim, rngs[4]),
        head_cnn=LearnerHead.init(2 * cfg.num_filters, cfg, rngs[5]),
        head_slstm=LearnerHead.init(2 * cfg.hidden_dim, cfg, rngs[6]),
        head_lstm=LearnerHead.init(cfg.hidden_dim, cfg, rngs[7]),
        disc=LearnerHead.init(3 * cfg.dense2_dim, cfg, rngs[8]),  # the three learners' features
        att_cnn=AttentionParams.init(cfg.num_filters, rngs[9]) if cfg.attention else None,
        att_lstm=AttentionParams.init(cfg.hidden_dim, rngs[10]) if cfg.attention else None,
    )


@dataclass
class McmModel(Model):
    kind = "mcm"
    name = "McM"
    heads = McmOutput._fields
    config_class = McmConfig
    build = staticmethod(build_mcm)
    sizing = {
        "vocab_size": ("embedding.vectors", 0), "embed_dim": ("embedding.vectors", 1),
        "kernel1": ("cnn1.weights", 0), "kernel2": ("cnn2.weights", 0),
        "num_filters": ("cnn1.bias", 0), "hidden_dim": ("lstm_s1.b_i", 0),
        "dense1_dim": ("disc.dense1.bias", 0), "dense2_dim": ("disc.dense2.bias", 0),
        "num_classes": ("disc.out.bias", 0),
    }

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
        return forward_batch(self, ids, mode, rng)


def probabilities(logits: Tensor) -> Tensor:
    """Softmax over the last axis, off the tape."""
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return Tensor(e / e.sum(axis=-1, keepdims=True))


def _pool_time(flat: Tensor, n: int, steps: int, width: int) -> Tensor:
    """Global max-pool and average-pool over time, concatenated: (n, 2*width).

    One tape op. The max's gradient goes to the first maximal step of each
    slice, as ``reduce_max`` routes it, and the mean's is spread evenly.
    """
    cube = flat.data.reshape(steps, n, width)

    def grad_fn(g):
        d = np.broadcast_to(g[:, width:] / steps, cube.shape).copy()
        d_max = np.zeros(cube.shape)
        np.put_along_axis(d_max, np.argmax(cube, axis=0)[None], g[None, :, :width], axis=0)
        d += d_max  # a whole-array add, as the composition accumulated: -0.0 + 0.0 is 0.0
        return (T.Fresh(d.reshape(flat.data.shape)),)

    return T.apply_op(np.concatenate([cube.max(axis=0), cube.mean(axis=0)], axis=1),
                      (flat,), grad_fn)


def forward_batch(model: McmModel, ids: np.ndarray, mode: str,
                  rng: Optional[np.random.Generator] = None) -> McmOutput:
    """Run all four components over an (n, max_len) id batch.

    The embedded batch is gathered once as its distinct ids (``Model.embed``),
    and the first layer of each cascade (``cnn1``, ``lstm_s1``,
    ``lstm_enc``) projects those rows instead of every token slot.
    """
    cfg = model.config
    x, n, l = model.embed(ids)  # step-major (l*n, d)

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

    return McmOutput(logits_cnn, logits_slstm, logits_lstm, logits_disc)


def heads_loss(logits, target) -> Tensor:
    """Equal-weight sum of each head's categorical cross-entropy, each the
    mean over the batch of (n,) ``target`` labels; ``logits`` holds one
    tensor per head, as ``head_logits`` and ``forward_batch`` return them."""
    total = None
    for head_logits in logits:
        _, term = softmax_ce(head_logits, target)
        total = term if total is None else T.add(total, term)
    return total


loss = heads_loss  # McM's loss under the name the benchmark imports


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

    def __post_init__(self):
        check_config(self, self.kernel)


def build_baseline(config: BaselineConfig, embedding: EmbeddingTable, seed_seq) -> BaselineModel:
    """Embedding -> one valid conv (ReLU) -> global max-pool -> dense (ReLU)
    -> dense -> softmax."""
    rngs = _component_rngs(config, embedding, seed_seq, 3)
    return BaselineModel(
        config=config,
        embedding=embedding,
        conv=Conv1dParams.init(config.kernel, config.embed_dim, config.num_filters, rngs[0]),
        hidden=DenseParams.init(config.num_filters, config.hidden_dim, rngs[1]),
        out=DenseParams.init(config.hidden_dim, config.num_classes, rngs[2]),
    )


@dataclass
class BaselineModel(Model):
    kind = "baseline"
    name = "Baseline"
    heads = ("baseline",)
    config_class = BaselineConfig
    build = staticmethod(build_baseline)
    sizing = {
        "vocab_size": ("embedding.vectors", 0), "embed_dim": ("embedding.vectors", 1),
        "kernel": ("conv.weights", 0), "num_filters": ("conv.bias", 0),
        "hidden_dim": ("hidden.bias", 0), "num_classes": ("out.bias", 0),
    }
    embedding_mode = "random"
    shortest = 3  # its kernel

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
        x, n, l = self.embed(ids)
        c = conv1d_batch(x, n, l, self.conv)
        cube = T.reshape(c, (l - cfg.kernel + 1, n, cfg.num_filters))
        pooled = T.reduce_max(cube, 0)
        return [dense(T.relu(dense(pooled, self.hidden)), self.out)]


# checkpoint kind -> its model class
KINDS = {cls.kind: cls for cls in (McmModel, BaselineModel)}
