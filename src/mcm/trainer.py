"""Deterministic mini-batch training of McM or the baseline: Adam (plus
minimal Adadelta/SGD), per-epoch evaluation of every head, best-checkpoint
selection on the prediction head's macro-F1, binary checkpoints, and the
6-variant experiment matrix with per-epoch error curves.

All randomness flows from one seed: it is forked into fixed named streams
(embedding init, skip-gram, model init, shuffling, dropout, validation
carving), so identical (seed, data, config) reproduce bitwise-identical
curves and checkpoints.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .data import (
    EncodedCorpus,
    Vocabulary,
    build_vocab,
    encode,
    pick_max_len,
    stratified_indices,
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
    build_baseline,
    build_mcm,
    check_max_len,
    heads_loss,
    probabilities,
)
from .tensor import Tape, Tensor, backward

COMPONENTS = McmModel.heads
COMPONENT_TITLES = {
    "cnn": "Stacked-CNN Learner",
    "slstm": "Stacked-LSTM Learner",
    "lstm": "LSTM Learner",
    "discriminator": "Discriminator",
    "baseline": "-",
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
        if min(self.epochs, self.batch_size, self.min_count, self.resolved_embedding_dim) < 1:
            raise ValueError("epochs, batch_size, min_count and embedding_dim must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.optimizer not in ("adam", "adadelta", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.embedding_mode not in _EMBEDDING_MODES:
            raise ValueError(f"unknown embedding mode {self.embedding_mode!r}")
        if self.select_on not in ("test", "validation"):
            raise ValueError("select_on must be 'test' or 'validation'")
        if self.max_len is not None:
            check_max_len(self.max_len, 2)  # encode needs at least 2 ids

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

    Its two state slots are the first and second moments. ``g=None`` is the
    zero-gradient form: ``m - c*m`` has the bits of ``m + c*(0.0 - m)``,
    because ``0.0 - m == -m`` and ``c*(-m) == -(c*m)`` under
    round-to-nearest.
    """

    slots = 2

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.t = 0

    def begin_step(self) -> None:
        self.t += 1
        self.corr1 = 1.0 - self.beta1 ** self.t
        self.corr2 = 1.0 - self.beta2 ** self.t

    def update(self, p, g, lr: float, tmp, m, v) -> None:
        a, b = tmp
        if g is None:
            np.multiply(m, 1.0 - self.beta1, out=a)
            m -= a
            np.multiply(v, 1.0 - self.beta2, out=a)
            v -= a
        else:
            np.subtract(g, m, out=a)
            a *= 1.0 - self.beta1
            m += a
            np.multiply(g, g, out=a)
            a -= v
            a *= 1.0 - self.beta2
            v += a
        # p -= lr * (m / corr1) / (sqrt(v / corr2) + epsilon)
        np.divide(m, self.corr1, out=a)
        a *= lr
        np.divide(v, self.corr2, out=b)
        np.sqrt(b, out=b)
        b += self.epsilon
        a /= b
        p -= a


class Adadelta:
    """Adadelta; its state slots are the running squared gradient and
    squared update. Classical Adadelta needs no learning rate; lr acts as a
    plain multiplier (use ~1.0 with this optimizer).

    ``g=None`` is the zero-gradient form: both averages decay as in Adam's,
    and the update is ``-0.0``, which leaves every ``p`` as it is.
    """

    slots = 2

    def __init__(self, rho: float = 0.95, epsilon: float = 1e-6):
        self.rho, self.epsilon = rho, epsilon

    def begin_step(self) -> None:
        pass

    def update(self, p, g, lr: float, tmp, eg, ed) -> None:
        a, b = tmp
        if g is None:
            np.multiply(eg, 1.0 - self.rho, out=a)
            eg -= a
            np.multiply(ed, 1.0 - self.rho, out=a)
            ed -= a
            return
        np.multiply(g, g, out=a)
        a -= eg
        a *= 1.0 - self.rho
        eg += a
        # delta = -sqrt((ed + epsilon) / (eg + epsilon)) * g, in a
        np.add(ed, self.epsilon, out=a)
        np.add(eg, self.epsilon, out=b)
        a /= b
        np.sqrt(a, out=a)
        np.negative(a, out=a)
        a *= g
        np.multiply(a, a, out=b)
        b -= ed
        b *= 1.0 - self.rho
        ed += b
        a *= lr
        p += a


class Sgd:
    """Plain gradient descent; no state. ``g=None`` leaves ``p`` as it is."""

    slots = 0

    def begin_step(self) -> None:
        pass

    def update(self, p, g, lr: float, tmp) -> None:
        if g is not None:
            p -= np.multiply(g, lr, out=tmp[0])


_RULES = {"adam": Adam, "adadelta": Adadelta, "sgd": Sgd}


# Elements per block in ``Optimizer.step``: a block's four arrays and the
# rule's two scratch arrays then fit a 2 MB L2 cache. One Adam step on a
# 50000 x 300 table took 150-175 ms for blocks of 16k-64k elements,
# 200-290 ms for 128k-256k and 415-450 ms as one whole-array update
# (2 vCPUs, numpy 2.4, medians of 5-9 repeats). The rules write their
# intermediates into two block-sized scratch arrays that the ``Optimizer``
# owns (``out=``) instead of allocating temporaries: a 256 KB temporary per
# operation is mapped and unmapped each time under glibc's default malloc
# thresholds. Adam's zero-gradient pass over that table took 270-286 ms
# with temporaries, 127-131 ms with the scratch arrays, and 128-133 ms with
# temporaries once those thresholds were raised for the measurement
# (medians of 7 repeats in 3 processes each).
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
        # large enough for the biggest block of any parameter
        size = max([_BLOCK] + [math.prod(p.data.shape[1:]) for p in self.params])
        self._scratch = (np.empty(size), np.empty(size))

    def _update(self, p: np.ndarray, g: Optional[np.ndarray], state) -> None:
        """The rule over ``p``, ``g`` (None: the zero-gradient form) and the
        state, block by block."""
        for b in _row_blocks(p.shape):
            pb = p[b]
            tmp = tuple(s[:pb.size].reshape(pb.shape) for s in self._scratch)
            self.rule.update(pb, None if g is None else g[b], self.lr, tmp,
                             *(s[b] for s in state))

    def step(self) -> None:
        """Apply the update rule to every parameter that has a gradient.

        The rule runs block by block over views of the parameter, its
        gradient and its state (``_row_blocks``), so the temporaries of a
        large embedding table stay in cache instead of streaming the whole
        table through memory several times. Every rule is elementwise and
        each element sees the same operations in the same order, so the
        result is bitwise that of one whole-array update.

        A purely row-sparse gradient (``Tensor.row_grad``, such as the
        embedding table's) is never made dense. The rule runs on copies of
        the gradient's rows of the parameter and its state; the
        zero-gradient form (``g=None``), which equals the rule at a zero
        gradient bit for bit, runs over the whole array; then the copied
        rows are written back. Every row is updated as a dense zero-filled
        gradient would update it, and only the zero-gradient pass touches
        the whole table.
        """
        self.rule.begin_step()
        for param, state in zip(self.params, self.state):
            p = param.data
            rg = param.row_grad
            if rg is not None:
                rows = rg.rows
                p_rows, state_rows = p[rows], tuple(s[rows] for s in state)
                self._update(p_rows, rg.values, state_rows)
                self._update(p, None, state)
                p[rows] = p_rows
                for s, s_rows in zip(state, state_rows):
                    s[rows] = s_rows
                continue
            g = param.grad
            if g is None:
                continue
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
            self._update(p, g, state)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# evaluation


def evaluate_components(model, corpus: EncodedCorpus, batch_size: int = 256) -> dict:
    """Infer-mode evaluation of every head, each predicting the argmax of
    its probabilities; never mutates the model."""
    preds = {head: [] for head in model.heads}
    for lo in range(0, len(corpus), batch_size):
        logits = model.head_logits(corpus.sequences[lo:lo + batch_size], "infer")
        for head, head_logits in zip(model.heads, logits):
            preds[head].append(np.argmax(probabilities(head_logits).data, axis=1))
    return {head: evaluate(corpus.labels, np.concatenate(p), model.config.num_classes)
            for head, p in preds.items()}


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    reports: dict  # head -> EvalReport on the test split

    def test_error(self, component: str) -> float:
        return 1.0 - self.reports[component].accuracy

    def macro_f1(self, component: str) -> float:
        return self.reports[component].macro_f1


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = b"MCM1"

# checkpoint kind -> (model class, config class, builder)
_KINDS = {
    "mcm": (McmModel, McmConfig, build_mcm),
    "baseline": (BaselineModel, BaselineConfig, build_baseline),
}


@dataclass
class Checkpoint:
    kind: str           # "mcm" or "baseline"
    config: dict
    vocab_tokens: list
    vocab_min_count: int
    class_names: list
    arrays: dict        # name -> float64 ndarray


def model_arrays(model) -> dict:
    return {name: a.copy() for name, a in model.arrays().items()}


def make_checkpoint(model, vocab: Optional[Vocabulary], class_names,
                    arrays: Optional[dict] = None, extra: Optional[dict] = None) -> Checkpoint:
    kind = next((k for k, (cls, _, _) in _KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    config = {**asdict(model.config), "embedding_trainable": model.embedding.trainable,
              **(extra or {})}
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
    if kind not in _KINDS:
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
    _, config_cls, build = _KINDS[ckpt.kind]
    try:
        trainable = cfg["embedding_trainable"]
        table = EmbeddingTable(cfg["vocab_size"], cfg["embed_dim"],
                               Tensor(np.zeros((cfg["vocab_size"], cfg["embed_dim"])),
                                      requires_grad=trainable),
                               trainable)
        model = build(config_cls(**{f.name: cfg[f.name] for f in fields(config_cls)}), table, 0)
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(f"invalid checkpoint configuration: {exc}") from exc

    targets = model.arrays()
    expected = set(targets)
    stored = set(ckpt.arrays)
    if expected != stored:
        missing = sorted(expected - stored)
        extra = sorted(stored - expected)
        raise CheckpointError(f"tensor set mismatch: missing {missing}, unexpected {extra}")
    for name in sorted(expected):  # the same error names the same tensor every run
        if targets[name].shape != ckpt.arrays[name].shape:
            raise CheckpointError(
                f"shape of {name} disagrees: checkpoint {ckpt.arrays[name].shape}, "
                f"model {targets[name].shape}")
        if not np.isfinite(ckpt.arrays[name]).all():
            raise CheckpointError(f"{name} holds non-finite values")
    for name, a in targets.items():
        a[...] = ckpt.arrays[name]
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
    """Per-class 80/20 split of an encoded corpus, for selection only; each
    part keeps the corpus order."""
    parts = []
    for idx in stratified_indices(corpus.labels, 0.8, rng):
        idx = np.sort(np.asarray(idx, dtype=np.intp))
        parts.append(EncodedCorpus(corpus.sequences[idx], corpus.labels[idx], corpus.max_len))
    return tuple(parts)


def _selection_split(train: EncodedCorpus, cfg: TrainConfig, streams: dict):
    """(the part of ``train`` to fit, the validation part to select on).

    With ``select_on="test"`` the whole split is fitted and the validation
    part is None. A validation part left empty by the carve-out is refused
    before any training.
    """
    if cfg.select_on != "validation":
        return train, None
    train_part, select = _carve_validation(train, np.random.default_rng(streams["validation"]))
    if len(select) == 0:
        raise ValueError("select_on='validation' needs a class with at least 3 training "
                         "records: the 80/20 carve-out left no validation records")
    return train_part, select


def fit(model, train: EncodedCorpus, test: EncodedCorpus, cfg: TrainConfig,
        vocab: Optional[Vocabulary] = None, class_names=None):
    """Train either model on the sum of its heads' cross-entropies,
    evaluate every head each epoch, and return the best checkpoint (by the
    macro-F1 of the last head, the prediction, on the split ``cfg.select_on``
    names; earlier epoch on ties) together with the full per-epoch curve
    data.

    The model is left holding the checkpointed parameters. Parameters that
    turn non-finite raise ``TrainingDiverged``.
    """
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test splits must be nonempty")
    if class_names is None:
        class_names = [f"class{i}" for i in range(model.config.num_classes)]
    streams = seed_streams(cfg.seed)
    shuffle_rng = np.random.default_rng(streams["shuffle"])
    dropout_rng = np.random.default_rng(streams["dropout"])

    train_part, select = _selection_split(train, cfg, streams)
    opt = Optimizer(cfg.optimizer, model.parameters(), cfg.learning_rate)
    prediction = model.heads[-1]
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
                logits = model.head_logits(train_part.sequences[batch], "train", dropout_rng)
                total = heads_loss(logits, train_part.labels[batch])
            if not np.isfinite(total.data):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {b}")
            backward(total, tape)
            opt.step()
            opt.zero_grad()
            loss_sum += float(total.data) * len(batch)
        # A loss sees an update only through later batches and the rows they
        # read, so every parameter is checked once an epoch.
        bad = [name for name, t in model.named_tensors() if not np.isfinite(t.data).all()]
        if bad:
            raise TrainingDiverged(f"non-finite parameters after epoch {epoch}: {', '.join(bad)}")

        reports = evaluate_components(model, test)
        records.append(EpochRecord(epoch, loss_sum / n, reports))
        if select is None:
            selection_f1 = reports[prediction].macro_f1
        else:
            selection_f1 = evaluate_components(model, select)[prediction].macro_f1
        if selection_f1 > best_f1:
            best_f1 = selection_f1
            best_arrays = model_arrays(model)
            best_epoch = epoch

    for name, a in model.arrays().items():
        a[...] = best_arrays[name]
    ckpt = make_checkpoint(model, vocab, class_names, arrays=best_arrays,
                           extra={"best_epoch": best_epoch, "seed": cfg.seed})
    return ckpt, records


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


def _encode_splits(train_records, test_records, cfg: TrainConfig, shortest: int = 2):
    """The training vocabulary and both splits encoded to ``cfg.max_len``
    ids (by default the 95th-percentile rule's), but at least ``shortest``."""
    vocab = build_vocab(train_records, cfg.min_count)
    max_len = max(cfg.max_len if cfg.max_len is not None else pick_max_len(train_records),
                  shortest)
    return vocab, encode(train_records, vocab, max_len), encode(test_records, vocab, max_len)


def run_training(train_records, test_records, cfg: TrainConfig, class_names):
    """Vocab -> embedding -> model -> fit, all from one seed."""
    streams = seed_streams(cfg.seed)
    vocab, enc_train, enc_test = _encode_splits(train_records, test_records, cfg)
    table = build_embedding_table(cfg, vocab, train_records, streams)
    mcfg = McmConfig(
        vocab_size=vocab.size, embed_dim=cfg.resolved_embedding_dim,
        num_classes=len(class_names), max_len=enc_train.max_len,
        attention=cfg.attention, dropout=cfg.dropout,
        stop_disc_gradients=cfg.stop_disc_gradients,
    )
    model = build_mcm(mcfg, table, streams["model"])
    ckpt, records = fit(model, enc_train, enc_test, cfg, vocab, class_names)
    ckpt.config["variant"] = cfg.variant_name
    return model, ckpt, records, vocab


def run_baseline_training(train_records, test_records, cfg: TrainConfig, class_names):
    """The single-CNN baseline, always on a random table, trained by ``fit``."""
    cfg = replace(cfg, embedding_mode="random")
    streams = seed_streams(cfg.seed)
    vocab, enc_train, enc_test = _encode_splits(train_records, test_records, cfg, 3)
    table = build_embedding_table(cfg, vocab, train_records, streams)
    bcfg = BaselineConfig(vocab_size=vocab.size, embed_dim=cfg.resolved_embedding_dim,
                          num_classes=len(class_names), max_len=enc_train.max_len)
    model = build_baseline(bcfg, table, streams["model"])
    ckpt, records = fit(model, enc_train, enc_test, cfg, vocab, class_names)
    ckpt.config["variant"] = model.name
    return model, ckpt, records, vocab


MATRIX_VARIANTS = (
    ("elmo_like", False), ("elmo_like", True),
    ("random", False), ("random", True),
    ("domain", False), ("domain", True),
)


def best_rows(model, ckpt: Checkpoint, records) -> list:
    """One results row per head at the checkpoint's best epoch."""
    best = records[ckpt.config["best_epoch"]]
    return [_metric_row(ckpt.config["variant"], COMPONENT_TITLES[head], best.reports[head])
            for head in model.heads]


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
        model, ckpt, records, _ = run_baseline_training(train_records, test_records,
                                                        base_cfg, class_names)
        rows += best_rows(model, ckpt, records)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        rows.append(_metric_row("Baseline", "-", None, status=f"error: {exc}"))

    for mode, attention in MATRIX_VARIANTS:
        cfg = replace(base_cfg, embedding_mode=mode, attention=attention)
        variant = cfg.variant_name
        try:
            model, ckpt, records, _ = run_training(train_records, test_records, cfg, class_names)
            rows += best_rows(model, ckpt, records)
            write_curve_csv(records, os.path.join(out_dir, f"curve_{variant}.csv"))
        except Exception as exc:  # noqa: BLE001
            for comp in COMPONENTS:
                rows.append(_metric_row(variant, COMPONENT_TITLES[comp], None,
                                        status=f"error: {exc}"))
    write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    return rows
