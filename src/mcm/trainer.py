"""Deterministic mini-batch training: Adam (plus minimal Adadelta/SGD),
per-epoch evaluation of all four components, best-checkpoint selection on
discriminator macro-F1, binary checkpoints, and the 6-variant experiment
matrix with per-epoch error curves.

All randomness flows from one seed: it is forked into fixed named streams
(embedding init, skip-gram, model init, shuffling, dropout, validation
carving), so identical (seed, data, config) reproduce bitwise-identical
curves and checkpoints.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import (
    EncodedCorpus,
    Vocabulary,
    build_vocab,
    encode,
    pick_max_len,
    stratified_split,
    token_id_sequences,
)
from .embeddings import (
    EmbeddingTable,
    SkipGramConfig,
    char_compose_table,
    init_random,
    train_skipgram,
)
from .metrics import EvalReport, evaluate
from .model import (
    BaselineConfig,
    BaselineModel,
    McmConfig,
    McmModel,
    baseline_loss,
    baseline_predict_batch,
    build_baseline,
    build_mcm,
    forward_batch,
    loss as mcm_loss,
)
from .tensor import Tape, Tensor, backward

COMPONENTS = ("cnn", "slstm", "lstm", "discriminator")
COMPONENT_TITLES = {
    "cnn": "Stacked-CNN Learner",
    "slstm": "Stacked-LSTM Learner",
    "lstm": "LSTM Learner",
    "discriminator": "Discriminator",
}

_EMBEDDING_MODES = ("elmo_like", "random", "domain")
_MODE_SUFFIX = {"elmo_like": "E", "random": "R", "domain": "D"}


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(Exception):
    pass


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 0.002
    optimizer: str = "adam"
    dropout: float = 0.2
    seed: int = 1
    attention: bool = False
    embedding_mode: str = "random"
    embedding_dim: Optional[int] = None  # default: 1024 for elmo_like, else 300
    max_len: Optional[int] = None        # default: 95th-percentile rule
    min_count: int = 2
    select_on: str = "test"
    stop_disc_gradients: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("invalid training configuration")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.optimizer not in ("adam", "adadelta", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.embedding_mode not in _EMBEDDING_MODES:
            raise ValueError(f"unknown embedding mode {self.embedding_mode!r}")
        if self.select_on not in ("test", "validation"):
            raise ValueError("select_on must be 'test' or 'validation'")

    @property
    def resolved_embedding_dim(self) -> int:
        if self.embedding_dim is not None:
            return self.embedding_dim
        return 1024 if self.embedding_mode == "elmo_like" else 300

    @property
    def variant_name(self) -> str:
        suffix = _MODE_SUFFIX[self.embedding_mode]
        return f"McM_{suffix}A" if self.attention else f"McM_{suffix}"


def seed_streams(seed: int) -> dict:
    """Fixed fork order of the master seed; each consumer owns one child."""
    names = ("embedding", "skipgram", "model", "shuffle", "dropout", "validation")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return dict(zip(names, children))


# ---------------------------------------------------------------------------
# optimizers


class Adam:
    """Bias-corrected Adam; one elementwise update rule, applied in place to
    one array (or block of one) at a time.

    Its two state slots are the first and second moments.
    """

    slots = 2

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.t = 0

    def begin_step(self) -> None:
        self.t += 1
        self.corr1 = 1.0 - self.beta1 ** self.t
        self.corr2 = 1.0 - self.beta2 ** self.t

    def update(self, p, g, lr: float, m, v) -> None:
        m += (1.0 - self.beta1) * (g - m)
        v += (1.0 - self.beta2) * (g * g - v)
        p -= lr * (m / self.corr1) / (np.sqrt(v / self.corr2) + self.epsilon)


class Adadelta:
    """Adadelta; its state slots are the running squared gradient and
    squared update. Classical Adadelta needs no learning rate; lr acts as a
    plain multiplier (use ~1.0 with this optimizer)."""

    slots = 2

    def __init__(self, rho: float = 0.95, epsilon: float = 1e-6):
        self.rho, self.epsilon = rho, epsilon

    def begin_step(self) -> None:
        pass

    def update(self, p, g, lr: float, eg, ed) -> None:
        eg += (1.0 - self.rho) * (g * g - eg)
        delta = -np.sqrt((ed + self.epsilon) / (eg + self.epsilon)) * g
        ed += (1.0 - self.rho) * (delta * delta - ed)
        p += lr * delta


class Sgd:
    """Plain gradient descent; no state."""

    slots = 0

    def begin_step(self) -> None:
        pass

    def update(self, p, g, lr: float) -> None:
        p -= lr * g


_RULES = {"adam": Adam, "adadelta": Adadelta, "sgd": Sgd}


# Elements per block in ``Optimizer.step``: a block's four arrays and the
# rule's temporaries then fit a 2 MB L2 cache. One Adam step on a
# 50000 x 300 table took 150-175 ms for blocks of 16k-64k elements,
# 200-290 ms for 128k-256k and 415-450 ms as one whole-array update
# (2 vCPUs, numpy 2.4, medians of 5-9 repeats).
_BLOCK = 32768


def _row_blocks(shape) -> list:
    """Index expressions cutting an array of ``shape`` into runs of whole
    rows of about ``_BLOCK`` elements; each one selects a view."""
    if not shape:
        return [...]
    rows = max(1, _BLOCK // max(1, math.prod(shape[1:])))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


class Optimizer:
    """Binds one update rule to a model's trainable tensors."""

    def __init__(self, kind: str, params, lr: float):
        if kind not in _RULES:
            raise ValueError(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.params = list(params)
        self.lr = lr
        self.rule = _RULES[kind]()
        self.state = [tuple(np.zeros(p.data.shape) for _ in range(self.rule.slots))
                      for p in self.params]

    def step(self) -> None:
        """Apply the update rule to every parameter that has a gradient.

        The rule runs block by block over views of the parameter, its
        gradient and its state (``_row_blocks``), so the temporaries of a
        large embedding table stay in cache instead of streaming the whole
        table through memory several times. Every rule is elementwise and
        each element sees the same operations in the same order, so the
        result is bitwise that of one whole-array update.
        """
        self.rule.begin_step()
        for param, state in zip(self.params, self.state):
            g = param.grad
            if g is None:
                continue
            if g.shape != param.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter "
                                 f"{param.data.shape}")
            for b in _row_blocks(g.shape):
                self.rule.update(param.data[b], g[b], self.lr, *(s[b] for s in state))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# evaluation


def evaluate_components(model: McmModel, corpus: EncodedCorpus,
                        batch_size: int = 256) -> dict:
    """Infer-mode evaluation of all four heads; never mutates the model."""
    c = model.config.num_classes
    preds = {comp: [] for comp in COMPONENTS}
    for lo in range(0, len(corpus), batch_size):
        out = forward_batch(model, corpus.sequences[lo:lo + batch_size], "infer")
        preds["cnn"].append(np.argmax(out.probs_cnn.data, axis=1))
        preds["slstm"].append(np.argmax(out.probs_slstm.data, axis=1))
        preds["lstm"].append(np.argmax(out.probs_lstm.data, axis=1))
        preds["discriminator"].append(np.argmax(out.probs_disc.data, axis=1))
    return {comp: evaluate(corpus.labels, np.concatenate(p), c)
            for comp, p in preds.items()}


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    reports: dict  # component -> EvalReport on the test split

    def test_error(self, component: str) -> float:
        return 1.0 - self.reports[component].accuracy

    def macro_f1(self, component: str) -> float:
        return self.reports[component].macro_f1


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = b"MCM1"


@dataclass
class Checkpoint:
    kind: str           # "mcm" or "baseline"
    config: dict
    vocab_tokens: list
    vocab_min_count: int
    class_names: list
    arrays: dict        # name -> float64 ndarray


def model_arrays(model) -> dict:
    out = {name: t.data.copy() for name, t in model.named_tensors()}
    out.update({name: a.copy() for name, a in model.named_buffers()})
    return out


def make_checkpoint(model, vocab: Optional[Vocabulary], class_names,
                    arrays: Optional[dict] = None, extra: Optional[dict] = None) -> Checkpoint:
    if isinstance(model, McmModel):
        kind = "mcm"
        cfg = model.config
        config = {
            "vocab_size": cfg.vocab_size, "embed_dim": cfg.embed_dim,
            "num_classes": cfg.num_classes, "max_len": cfg.max_len,
            "num_filters": cfg.num_filters, "hidden_dim": cfg.hidden_dim,
            "dense1_dim": cfg.dense1_dim, "dense2_dim": cfg.dense2_dim,
            "kernel1": cfg.kernel1, "kernel2": cfg.kernel2,
            "attention": cfg.attention, "dropout": cfg.dropout,
            "stop_disc_gradients": cfg.stop_disc_gradients,
            "embedding_trainable": model.embedding.trainable,
        }
    elif isinstance(model, BaselineModel):
        kind = "baseline"
        cfg = model.config
        config = {
            "vocab_size": cfg.vocab_size, "embed_dim": cfg.embed_dim,
            "num_classes": cfg.num_classes, "max_len": cfg.max_len,
            "kernel": cfg.kernel, "num_filters": cfg.num_filters,
            "hidden_dim": cfg.hidden_dim,
            "embedding_trainable": model.embedding.trainable,
        }
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    config.update(extra or {})
    return Checkpoint(
        kind=kind, config=config,
        vocab_tokens=list(vocab.id_to_token) if vocab is not None else [],
        vocab_min_count=vocab.min_count if vocab is not None else 1,
        class_names=list(class_names),
        arrays=arrays if arrays is not None else model_arrays(model),
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Self-describing binary layout: magic, config block, vocabulary
    block, then (name, shape, little-endian float64 payload) entries."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        header = dict(ckpt.config)
        header["kind"] = ckpt.kind
        header["class_names"] = list(ckpt.class_names)
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        vocab_raw = json.dumps({"tokens": ckpt.vocab_tokens,
                                "min_count": ckpt.vocab_min_count}).encode("utf-8")
        fh.write(struct.pack("<I", len(vocab_raw)))
        fh.write(vocab_raw)
        fh.write(struct.pack("<I", len(ckpt.arrays)))
        for name, arr in ckpt.arrays.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    # Refuse before reading: a corrupt length must not become a huge read.
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return fh.read(count)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; every malformed part raises ``CheckpointError``."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic bytes") != _MAGIC:
            raise CheckpointError("not a model checkpoint (bad magic bytes)")
        try:
            (config_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
            header = json.loads(_read_exact(fh, config_len, "config block"))
            (vocab_len,) = struct.unpack("<I", _read_exact(fh, 4, "vocab length"))
            vocab_block = json.loads(_read_exact(fh, vocab_len, "vocabulary block"))
            (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
            arrays = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))
                name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
                (rank,) = struct.unpack("<B", _read_exact(fh, 1, f"rank of {name}"))
                shape = tuple(struct.unpack("<I", _read_exact(fh, 4, f"shape of {name}"))[0]
                              for _ in range(rank))
                payload = _read_exact(fh, 8 * math.prod(shape), f"payload of {name}")
                arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except (ValueError, struct.error) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("malformed checkpoint: config block is not an object")
    if not isinstance(vocab_block, dict):
        raise CheckpointError("malformed checkpoint: vocabulary block is not an object")
    kind = header.pop("kind", None)
    class_names = header.pop("class_names", [])
    if kind not in ("mcm", "baseline"):
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    tokens = vocab_block.get("tokens")
    min_count = vocab_block.get("min_count")
    if not _is_str_list(tokens) or not isinstance(min_count, int):
        raise CheckpointError("malformed checkpoint: vocabulary block needs a token list "
                              "and an integer min_count")
    if not _is_str_list(class_names):
        raise CheckpointError("malformed checkpoint: class_names is not a list of names")
    return Checkpoint(kind, header, tokens, min_count, class_names, arrays)


# For each config field that sizes a tensor, one stored array and axis that
# must equal it. ``rebuild_model`` checks them before it allocates anything,
# so a corrupt dimension is refused instead of sizing the model skeleton
# (the stored shapes themselves are bounded by the file's length).
_SIZING_FIELDS = {
    "mcm": {
        "vocab_size": ("embedding.vectors", 0), "embed_dim": ("embedding.vectors", 1),
        "kernel1": ("cnn1.weights", 0), "kernel2": ("cnn2.weights", 0),
        "num_filters": ("cnn1.bias", 0), "hidden_dim": ("lstm_s1.b_i", 0),
        "dense1_dim": ("disc.dense1.bias", 0), "dense2_dim": ("disc.dense2.bias", 0),
        "num_classes": ("disc.out.bias", 0),
    },
    "baseline": {
        "vocab_size": ("embedding.vectors", 0), "embed_dim": ("embedding.vectors", 1),
        "kernel": ("conv.weights", 0), "num_filters": ("conv.bias", 0),
        "hidden_dim": ("hidden.bias", 0), "num_classes": ("out.bias", 0),
    },
}


def _check_sizing_fields(ckpt: Checkpoint) -> None:
    for field, (name, axis) in _SIZING_FIELDS[ckpt.kind].items():
        shape = ckpt.arrays[name].shape if name in ckpt.arrays else ()
        stored = shape[axis] if axis < len(shape) else None
        if stored is None or ckpt.config.get(field) != stored:
            raise CheckpointError(f"config {field} {ckpt.config.get(field)!r} disagrees "
                                  f"with {name} of shape {shape}")
    if len(ckpt.vocab_tokens) != ckpt.config["vocab_size"]:
        raise CheckpointError(f"vocabulary holds {len(ckpt.vocab_tokens)} tokens, "
                              f"config says vocab_size {ckpt.config['vocab_size']}")
    if len(ckpt.class_names) != ckpt.config["num_classes"]:
        raise CheckpointError(f"{len(ckpt.class_names)} class names, "
                              f"config says num_classes {ckpt.config['num_classes']}")


def rebuild_model(ckpt: Checkpoint):
    """Instantiate the checkpointed model and vocabulary, verifying every
    stored tensor against the rebuilt skeleton before any assignment."""
    cfg = ckpt.config
    _check_sizing_fields(ckpt)
    try:
        trainable = cfg["embedding_trainable"]
        table = EmbeddingTable(cfg["vocab_size"], cfg["embed_dim"],
                               Tensor(np.zeros((cfg["vocab_size"], cfg["embed_dim"])),
                                      requires_grad=trainable),
                               trainable)
        if ckpt.kind == "mcm":
            mcfg = McmConfig(
                vocab_size=cfg["vocab_size"], embed_dim=cfg["embed_dim"],
                num_classes=cfg["num_classes"], max_len=cfg["max_len"],
                num_filters=cfg["num_filters"], hidden_dim=cfg["hidden_dim"],
                dense1_dim=cfg["dense1_dim"], dense2_dim=cfg["dense2_dim"],
                kernel1=cfg["kernel1"], kernel2=cfg["kernel2"],
                attention=cfg["attention"], dropout=cfg["dropout"],
                stop_disc_gradients=cfg.get("stop_disc_gradients", False),
            )
            model = build_mcm(mcfg, table, 0)
        else:
            bcfg = BaselineConfig(
                vocab_size=cfg["vocab_size"], embed_dim=cfg["embed_dim"],
                num_classes=cfg["num_classes"], max_len=cfg["max_len"],
                kernel=cfg["kernel"], num_filters=cfg["num_filters"],
                hidden_dim=cfg["hidden_dim"],
            )
            model = build_baseline(bcfg, table, 0)
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(f"invalid checkpoint configuration: {exc}") from exc

    slots = dict(model.named_tensors())
    buffers = dict(model.named_buffers())
    expected = set(slots) | set(buffers)
    stored = set(ckpt.arrays)
    if expected != stored:
        missing = sorted(expected - stored)
        extra = sorted(stored - expected)
        raise CheckpointError(f"tensor set mismatch: missing {missing}, unexpected {extra}")
    for name in expected:
        target = slots[name].data if name in slots else buffers[name]
        if target.shape != ckpt.arrays[name].shape:
            raise CheckpointError(
                f"shape of {name} disagrees: checkpoint {ckpt.arrays[name].shape}, "
                f"model {target.shape}")
        if not np.isfinite(ckpt.arrays[name]).all():
            raise CheckpointError(f"{name} holds non-finite values")
    for name, t in slots.items():
        t.data[...] = ckpt.arrays[name]
    for name, buf in buffers.items():
        buf[...] = ckpt.arrays[name]
    vocab = Vocabulary({tok: i for i, tok in enumerate(ckpt.vocab_tokens)},
                       list(ckpt.vocab_tokens), ckpt.vocab_min_count)
    return model, vocab


# ---------------------------------------------------------------------------
# training loops


def _batch_slices(n: int, batch_size: int, order: np.ndarray):
    """Contiguous chunks of a shuffled index vector; a trailing singleton is
    folded into the previous batch so train-mode batchnorm keeps n >= 2."""
    starts = list(range(0, n, batch_size))
    chunks = [order[s:s + batch_size] for s in starts]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _carve_validation(corpus: EncodedCorpus, rng: np.random.Generator):
    """Per-class 80/20 split of an encoded corpus, for selection only."""
    train_idx, val_idx = [], []
    for label in np.unique(corpus.labels):
        idxs = np.flatnonzero(corpus.labels == label)
        order = rng.permutation(len(idxs))
        cut = int(round(0.8 * len(idxs)))
        train_idx.extend(idxs[order[:cut]])
        val_idx.extend(idxs[order[cut:]])
    tr = np.asarray(sorted(train_idx))
    va = np.asarray(sorted(val_idx))
    return (EncodedCorpus(corpus.sequences[tr], corpus.labels[tr], corpus.max_len),
            EncodedCorpus(corpus.sequences[va], corpus.labels[va], corpus.max_len))


def fit(model: McmModel, train: EncodedCorpus, test: EncodedCorpus, cfg: TrainConfig,
        vocab: Optional[Vocabulary] = None, class_names=None):
    """Train, evaluate all four components each epoch, and return the best
    checkpoint (by discriminator macro-F1, earlier epoch on ties) together
    with the full per-epoch curve data.

    The model is left holding the checkpointed parameters.
    """
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test splits must be nonempty")
    if class_names is None:
        class_names = [f"class{i}" for i in range(model.config.num_classes)]
    streams = seed_streams(cfg.seed)
    shuffle_rng = np.random.default_rng(streams["shuffle"])
    dropout_rng = np.random.default_rng(streams["dropout"])

    select = train_part = train
    if cfg.select_on == "validation":
        train_part, select = _carve_validation(train, np.random.default_rng(streams["validation"]))

    opt = Optimizer(cfg.optimizer, model.parameters(), cfg.learning_rate)
    records = []
    best_f1 = -1.0
    best_arrays = None
    best_epoch = -1
    n = len(train_part)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for b, batch in enumerate(_batch_slices(n, cfg.batch_size, order)):
            with Tape() as tape:
                out = forward_batch(model, train_part.sequences[batch], "train", dropout_rng)
                total = mcm_loss(out, train_part.labels[batch])
            if not np.isfinite(total.data):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {b}")
            backward(total, tape)
            opt.step()
            opt.zero_grad()
            loss_sum += float(total.data) * len(batch)

        reports = evaluate_components(model, test)
        records.append(EpochRecord(epoch, loss_sum / n, reports))
        if cfg.select_on == "validation":
            selection_f1 = evaluate_components(model, select)["discriminator"].macro_f1
        else:
            selection_f1 = reports["discriminator"].macro_f1
        if selection_f1 > best_f1:
            best_f1 = selection_f1
            best_arrays = model_arrays(model)
            best_epoch = epoch

    slots = dict(model.named_tensors())
    buffers = dict(model.named_buffers())
    for name, arr in best_arrays.items():
        if name in slots:
            slots[name].data[...] = arr
        else:
            buffers[name][...] = arr
    ckpt = make_checkpoint(model, vocab, class_names, arrays=best_arrays,
                           extra={"variant": cfg.variant_name, "best_epoch": best_epoch,
                                  "seed": cfg.seed})
    return ckpt, records


def fit_baseline(model: BaselineModel, train: EncodedCorpus, test: EncodedCorpus,
                 cfg: TrainConfig):
    """Same protocol for the single-component baseline; returns the report
    at the best epoch and the per-epoch reports."""
    streams = seed_streams(cfg.seed)
    shuffle_rng = np.random.default_rng(streams["shuffle"])
    opt = Optimizer(cfg.optimizer, model.parameters(), cfg.learning_rate)
    c = model.config.num_classes
    best = None
    best_arrays = None
    history = []
    n = len(train)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for b, batch in enumerate(_batch_slices(n, cfg.batch_size, order)):
            with Tape() as tape:
                total = baseline_loss(model, train.sequences[batch], train.labels[batch])
            if not np.isfinite(total.data):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {b}")
            backward(total, tape)
            opt.step()
            opt.zero_grad()
        preds = np.concatenate([
            baseline_predict_batch(model, test.sequences[lo:lo + 256])
            for lo in range(0, len(test), 256)])
        report = evaluate(test.labels, preds, c)
        history.append(report)
        if best is None or report.macro_f1 > best.macro_f1:
            best = report
            best_arrays = model_arrays(model)
    for name, t in model.named_tensors():
        t.data[...] = best_arrays[name]
    return best, history


# ---------------------------------------------------------------------------
# end-to-end orchestration


def build_embedding_table(cfg: TrainConfig, vocab: Vocabulary, train_records,
                          streams: dict) -> EmbeddingTable:
    d = cfg.resolved_embedding_dim
    if cfg.embedding_mode == "random":
        return init_random(vocab.size, d, np.random.default_rng(streams["embedding"]))
    if cfg.embedding_mode == "elmo_like":
        return char_compose_table(vocab.id_to_token, d,
                                  np.random.default_rng(streams["embedding"]))
    corpus = token_id_sequences(train_records, vocab)
    return train_skipgram(corpus, vocab.size, SkipGramConfig(dim=d),
                          np.random.default_rng(streams["skipgram"]))


def run_training(train_records, test_records, cfg: TrainConfig, class_names):
    """Vocab -> embedding -> model -> fit, all from one seed."""
    streams = seed_streams(cfg.seed)
    vocab = build_vocab(train_records, cfg.min_count)
    max_len = cfg.max_len if cfg.max_len is not None else pick_max_len(train_records)
    enc_train = encode(train_records, vocab, max_len)
    enc_test = encode(test_records, vocab, max_len)
    table = build_embedding_table(cfg, vocab, train_records, streams)
    mcfg = McmConfig(
        vocab_size=vocab.size, embed_dim=cfg.resolved_embedding_dim,
        num_classes=len(class_names), max_len=max_len,
        attention=cfg.attention, dropout=cfg.dropout,
        stop_disc_gradients=cfg.stop_disc_gradients,
    )
    model = build_mcm(mcfg, table, streams["model"])
    ckpt, records = fit(model, enc_train, enc_test, cfg, vocab=vocab,
                        class_names=class_names)
    return model, ckpt, records, vocab


def run_baseline_training(train_records, test_records, cfg: TrainConfig, class_names):
    streams = seed_streams(cfg.seed)
    vocab = build_vocab(train_records, cfg.min_count)
    max_len = max(cfg.max_len if cfg.max_len is not None else pick_max_len(train_records), 3)
    enc_train = encode(train_records, vocab, max_len)
    enc_test = encode(test_records, vocab, max_len)
    d = 300 if cfg.embedding_dim is None else cfg.embedding_dim
    table = init_random(vocab.size, d, np.random.default_rng(streams["embedding"]))
    bcfg = BaselineConfig(vocab_size=vocab.size, embed_dim=d,
                          num_classes=len(class_names), max_len=max_len)
    model = build_baseline(bcfg, table, streams["model"])
    report, history = fit_baseline(model, enc_train, enc_test, cfg)
    return model, report, history, vocab


MATRIX_VARIANTS = (
    ("elmo_like", False), ("elmo_like", True),
    ("random", False), ("random", True),
    ("domain", False), ("domain", True),
)


def _metric_row(variant, component_title, report, status="ok"):
    if report is None:
        return {"model": variant, "component": component_title, "accuracy": "",
                "precision": "", "recall": "", "f1": "", "status": status}
    return {"model": variant, "component": component_title,
            "accuracy": f"{report.accuracy:.6f}",
            "precision": f"{report.macro_precision:.6f}",
            "recall": f"{report.macro_recall:.6f}",
            "f1": f"{report.macro_f1:.6f}", "status": status}


def write_results_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model,component,accuracy,precision,recall,f1,status\n")
        for row in rows:
            fh.write("{model},{component},{accuracy},{precision},{recall},{f1},{status}\n"
                     .format(**row))


def write_curve_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,cnn,slstm,lstm,discriminator\n")
        for rec in records:
            errs = ",".join(f"{rec.test_error(c):.6f}" for c in COMPONENTS)
            fh.write(f"{rec.epoch},{errs}\n")


def run_experiment_matrix(train_records, test_records, base_cfg: TrainConfig,
                          out_dir, class_names) -> list:
    """Baseline plus the six embedding/attention variants, one seed.

    Emits results.csv (25 rows: 6 variants x 4 components + baseline) and
    one per-epoch test-error curve CSV per variant. A failing cell is
    recorded in the status column without aborting the rest.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    try:
        _, report, _, _ = run_baseline_training(train_records, test_records,
                                                base_cfg, class_names)
        rows.append(_metric_row("Baseline", "-", report))
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        rows.append(_metric_row("Baseline", "-", None, status=f"error: {exc}"))

    for mode, attention in MATRIX_VARIANTS:
        cfg = replace(base_cfg, embedding_mode=mode, attention=attention)
        variant = cfg.variant_name
        try:
            _, ckpt, records, _ = run_training(train_records, test_records, cfg, class_names)
            best = records[ckpt.config["best_epoch"]]
            for comp in COMPONENTS:
                rows.append(_metric_row(variant, COMPONENT_TITLES[comp], best.reports[comp]))
            write_curve_csv(records, os.path.join(out_dir, f"curve_{variant}.csv"))
        except Exception as exc:  # noqa: BLE001
            for comp in COMPONENTS:
                rows.append(_metric_row(variant, COMPONENT_TITLES[comp], None,
                                        status=f"error: {exc}"))
    write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    return rows


def grid_search(train_records, base_cfg: TrainConfig, grid: dict, class_names):
    """Sweep config values on a 20% stratified validation carve-out.

    ``grid`` maps TrainConfig field names to candidate lists. Returns the
    best configuration (by validation discriminator macro-F1) and one
    result row per combination. The caller retrains on the full training
    set afterwards - the carve-out is for selection only.
    """
    rng = np.random.default_rng(seed_streams(base_cfg.seed)["validation"])
    fit_part, val_part = stratified_split(train_records, 0.8, rng)
    keys = sorted(grid)
    rows = []
    best_cfg, best_f1 = None, -1.0
    for values in itertools.product(*(grid[k] for k in keys)):
        combo = dict(zip(keys, values))
        cfg = replace(base_cfg, **combo)
        _, ckpt, records, _ = run_training(fit_part, val_part, cfg, class_names)
        f1 = records[ckpt.config["best_epoch"]].macro_f1("discriminator")
        rows.append({**combo, "macro_f1": f1})
        if f1 > best_f1:
            best_f1, best_cfg = f1, cfg
    return best_cfg, rows
