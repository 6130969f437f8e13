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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .data import (
    EncodedCorpus,
    Vocabulary,
    build_vocab,
    encode,
    index_of,
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
from .layers import admits, check_fields
from .metrics import evaluate
from .model import (
    BaselineConfig,
    BaselineModel,
    McmConfig,
    McmModel,
    build_baseline,
    build_mcm,
    check_max_len,
    heads_loss,
)
from .tensor import Tape, Tensor, backward

COMPONENT_TITLES = {
    "cnn": "Stacked-CNN Learner",
    "slstm": "Stacked-LSTM Learner",
    "lstm": "LSTM Learner",
    "discriminator": "Discriminator",
    "baseline": "-",
}

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
        check_fields(TrainConfig, vars(self), CHOICES)
        if min(self.epochs, self.batch_size, self.min_count, self.resolved_embedding_dim) < 1:
            raise ValueError("epochs, batch_size, min_count and embedding_dim must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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


# The rules' hyper-parameters: Kingma & Ba's Adam defaults, and Zeiler's
# Adadelta (arXiv:1212.5701). Adam's zero-gradient form is exact only for
# betas above 0.5 (see ``Adam``).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ADADELTA_RHO = 0.95
ADADELTA_EPSILON = 1e-6


class Adam:
    """Bias-corrected Adam in Kingma & Ba's folded order (arXiv:1412.6980,
    Sec. 2): both bias corrections fold into one scalar step,
    ``lr * sqrt(1 - beta2^t) / (1 - beta1^t)``, and epsilon becomes
    ``epsilon * sqrt(1 - beta2^t)``. This is the textbook update up to
    rounding. One elementwise update rule, applied in place to one array
    (or block of one) at a time; its two state slots are the first and
    second moments.

    ``g=None`` is the zero-gradient form: the moments only decay, in 7
    passes per element with one divide and one sqrt (the full rule takes
    12). It equals the full rule at a +0.0 or -0.0 gradient bit for bit,
    because no moment is ever -0.0: the moments start at +0.0, a sum is
    -0.0 only when both addends are, and ``beta > 0.5`` keeps a nonzero
    moment from rounding to zero when it decays. So ``m*beta1 + (±0.0)``
    is ``m*beta1`` and ``v*beta2 + (+0.0)`` is ``v*beta2``.
    """

    slots = 2

    def __init__(self):
        self.t = 0

    def begin_step(self) -> None:
        self.t += 1
        root_corr2 = math.sqrt(1.0 - ADAM_BETA2 ** self.t)
        self.step_scale = root_corr2 / (1.0 - ADAM_BETA1 ** self.t)
        self.eps_hat = ADAM_EPSILON * root_corr2

    def update(self, p, g, lr: float, tmp, m, v) -> None:
        a, b = tmp
        m *= ADAM_BETA1
        v *= ADAM_BETA2
        if g is not None:
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - ADAM_BETA2
            v += a
        # p -= (lr * step_scale) * m / (sqrt(v) + eps_hat)
        np.sqrt(v, out=b)
        b += self.eps_hat
        np.divide(m, b, out=a)
        a *= lr * self.step_scale
        p -= a


class Adadelta:
    """Adadelta; its state slots are the running squared gradient and
    squared update. Classical Adadelta needs no learning rate; lr acts as a
    plain multiplier (use ~1.0 with this optimizer).

    ``g=None`` is the zero-gradient form: each average ``x`` decays as
    ``x - c*x``, which has the bits of the rule's ``x + c*(0.0 - x)``
    because ``0.0 - x == -x`` and ``c*(-x) == -(c*x)`` under
    round-to-nearest, and the update is ``-0.0``, which leaves every ``p``
    as it is.
    """

    slots = 2

    def begin_step(self) -> None:
        pass

    def update(self, p, g, lr: float, tmp, eg, ed) -> None:
        a, b = tmp
        if g is None:
            np.multiply(eg, 1.0 - ADADELTA_RHO, out=a)
            eg -= a
            np.multiply(ed, 1.0 - ADADELTA_RHO, out=a)
            ed -= a
            return
        np.multiply(g, g, out=a)
        a -= eg
        a *= 1.0 - ADADELTA_RHO
        eg += a
        # delta = -sqrt((ed + epsilon) / (eg + epsilon)) * g, in a
        np.add(ed, ADADELTA_EPSILON, out=a)
        np.add(eg, ADADELTA_EPSILON, out=b)
        a /= b
        np.sqrt(a, out=a)
        np.negative(a, out=a)
        a *= g
        np.multiply(a, a, out=b)
        b -= ed
        b *= 1.0 - ADADELTA_RHO
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

# TrainConfig field -> its allowed values: the keys of the tables that use them
CHOICES = {"optimizer": _RULES, "embedding_mode": _MODE_SUFFIX, "select_on": ("test", "validation")}


# Elements per block in ``Optimizer.step``: a block's four arrays and the
# rule's two scratch arrays then fit a 2 MB L2 cache. Adam's zero-gradient
# pass over a 50000 x 300 table took 86 ms at 32k elements, 93 ms at 16k
# and 92 ms at 64k (2 vCPUs, numpy 2.4, medians of 10 interleaved rounds,
# each the median of 9 passes); 32k was faster than 16k in 8 of the rounds
# and than 64k in all 10. The rules write their intermediates into two
# block-sized scratch arrays that the ``Optimizer`` owns (``out=``) instead
# of allocating temporaries: a 256 KB temporary per operation is mapped and
# unmapped each time under glibc's default malloc thresholds.
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
        check_fields(TrainConfig, {"optimizer": kind}, CHOICES)
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


# Messages per forward when evaluating or predicting.
INFER_BATCH = 256


def infer_probabilities(model, ids) -> list:
    """Each head's infer-mode probabilities, an (n, C) array, for an
    (n, max_len) id batch, ``INFER_BATCH`` messages per forward."""
    out = [np.empty((len(ids), model.config.num_classes)) for _ in model.heads]
    for lo in range(0, len(ids), INFER_BATCH):
        for head_out, probs in zip(out, model.head_probabilities(ids[lo:lo + INFER_BATCH])):
            head_out[lo:lo + INFER_BATCH] = probs.data
    return out


def evaluate_components(model, corpus: EncodedCorpus) -> dict:
    """Infer-mode evaluation of every head, each predicting the argmax of
    its probabilities; never mutates the model."""
    probs = infer_probabilities(model, corpus.sequences)
    return {head: evaluate(corpus.labels, np.argmax(p, axis=1), model.config.num_classes)
            for head, p in zip(model.heads, probs)}


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
    vocab: Vocabulary
    class_names: list
    arrays: dict        # name -> float64 ndarray


def model_arrays(model) -> dict:
    """A snapshot of ``model.arrays()``: a copy of each array."""
    return {name: a.copy() for name, a in model.arrays().items()}


def make_checkpoint(model, vocab: Vocabulary, class_names) -> Checkpoint:
    """A checkpoint of ``model`` with its config, vocabulary and class names.

    It holds ``model.arrays()``, the model's own arrays, not copies: a later
    update of the model shows in the checkpoint. Save it before training or
    editing the model further, or replace its ``arrays`` with
    ``model_arrays(model)`` (``dataclasses.replace``) for a snapshot that
    stays as it is.
    """
    kind = next((k for k, (cls, _, _) in _KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    config = {**asdict(model.config), "embedding_trainable": model.embedding.vectors.requires_grad}
    return Checkpoint(kind, config, vocab, list(class_names), model.arrays())


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Self-describing binary layout: magic, config block, vocabulary
    block, then (name, shape, little-endian float64 payload) entries.

    Each payload is written from the array's own buffer, with no copy of a
    little-endian float64 C-contiguous array. The file is written under a
    temporary name in the same directory and then renamed over ``path``, so
    a save that fails midway leaves any earlier file at ``path`` as it was.
    A symbolic link at ``path`` stays, and its target is replaced.
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_checkpoint(ckpt, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_checkpoint(ckpt: Checkpoint, fh) -> None:
    fh.write(_MAGIC)
    header = dict(ckpt.config)
    header["kind"] = ckpt.kind
    header["class_names"] = list(ckpt.class_names)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    vocab_raw = json.dumps({"tokens": ckpt.vocab.id_to_token,
                            "min_count": ckpt.vocab.min_count}).encode("utf-8")
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
        # a byte view: memoryview(...).cast("B") refuses a zero-size array
        fh.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view(np.uint8))


def _check_left(fh, count: int, what: str) -> None:
    # Refuse before allocating: a corrupt length must not size a buffer.
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}")


def _read_exact(fh, count: int, what: str) -> bytes:
    _check_left(fh, count, what)
    return fh.read(count)


def _read_array(fh, shape: tuple, what: str) -> np.ndarray:
    """A new little-endian float64 array of ``shape``, read into in place."""
    _check_left(fh, 8 * math.prod(shape), what)
    arr = np.empty(shape, dtype="<f8")
    buf = arr.reshape(-1).view(np.uint8)
    if fh.readinto(buf) != buf.size:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return arr


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
                arrays[name] = _read_array(fh, shape, f"payload of {name}")
        except (ValueError, struct.error) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("malformed checkpoint: config block is not an object")
    if not isinstance(vocab_block, dict):
        raise CheckpointError("malformed checkpoint: vocabulary block is not an object")
    kind = header.pop("kind", None)
    class_names = header.pop("class_names", [])
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    tokens = vocab_block.get("tokens")
    min_count = vocab_block.get("min_count")
    if not _is_str_list(tokens) or not admits(int, min_count) or min_count < 1:
        raise CheckpointError("malformed checkpoint: vocabulary block needs a token list "
                              "and an integer min_count of at least 1")
    if not _is_str_list(class_names):
        raise CheckpointError("malformed checkpoint: class_names is not a list of names")
    try:
        index_of(class_names, "class name")
        vocab = Vocabulary.of(tokens, min_count)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from None
    return Checkpoint(kind, header, vocab, class_names, arrays)


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
    if ckpt.vocab.size != ckpt.config["vocab_size"]:
        raise CheckpointError(f"vocabulary holds {ckpt.vocab.size} tokens, "
                              f"config says vocab_size {ckpt.config['vocab_size']}")
    if len(ckpt.class_names) != ckpt.config["num_classes"]:
        raise CheckpointError(f"{len(ckpt.class_names)} class names, "
                              f"config says num_classes {ckpt.config['num_classes']}")


def rebuild_model(ckpt: Checkpoint):
    """``(model, ckpt.vocab)``: the checkpointed model, every stored tensor
    verified against the rebuilt skeleton before any assignment, and the
    checkpoint's own vocabulary.

    The model's embedding table is ``ckpt.arrays["embedding.vectors"]``
    itself, not a copy: the model and the checkpoint share that array, so
    a write through either shows in both; a model rebuilt from
    ``make_checkpoint(model, ...)`` shares its table with ``model``. Take
    ``model_arrays(model)`` or ``copy.deepcopy(model)`` to keep them apart.
    Every other array is copied into the skeleton's own (an LSTM's gate
    arrays into the row blocks of its stacks).
    """
    cfg = ckpt.config
    _, config_cls, build = _KINDS[ckpt.kind]
    try:
        check_fields(config_cls, cfg, embedding_trainable=bool, variant=str, best_epoch=int,
                     seed=int)
        if set(cfg.get("variant", "")) & set(",\r\n"):  # reports write it as a CSV field
            raise ValueError(f"variant {cfg['variant']!r} holds a comma or a line break")
    except ValueError as exc:
        raise CheckpointError(f"config {exc}") from None
    _check_sizing_fields(ckpt)
    try:
        table = EmbeddingTable(Tensor(ckpt.arrays["embedding.vectors"],
                                      requires_grad=cfg["embedding_trainable"]))
        model = build(config_cls(**{f.name: cfg[f.name] for f in fields(config_cls)}), table, 0)
    except (KeyError, ValueError) as exc:
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
        if a is not ckpt.arrays[name]:
            a[...] = ckpt.arrays[name]
    return model, ckpt.vocab


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
        parts.append(EncodedCorpus(corpus.sequences[idx], corpus.labels[idx]))
    return tuple(parts)


def _check_selection(labels, cfg: TrainConfig) -> None:
    """Refuse ``select_on="validation"`` when the 80/20 carve-out of the
    training ``labels`` would leave no validation records. The parts' sizes
    depend on the class counts only, not on the stream that shuffles them."""
    if cfg.select_on == "validation" and not stratified_indices(
            labels, 0.8, np.random.default_rng(0))[1]:
        raise ValueError("select_on='validation' needs a class with at least 3 training "
                         "records: the 80/20 carve-out left no validation records")


def _selection_split(train: EncodedCorpus, cfg: TrainConfig, streams: dict):
    """(the part of ``train`` to fit, the validation part to select on).

    With ``select_on="test"`` the whole split is fitted and the validation
    part is None. A validation part left empty by the carve-out is refused
    before any training (``_check_selection``).
    """
    if cfg.select_on != "validation":
        return train, None
    _check_selection(train.labels, cfg)
    return _carve_validation(train, np.random.default_rng(streams["validation"]))


@contextmanager
def _diverges_as(where: str):
    """Raise numpy's overflow and invalid-value errors inside the block, as
    ``TrainingDiverged`` naming ``where``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingDiverged(f"{exc} {where}") from exc


def fit(model, train: EncodedCorpus, test: EncodedCorpus, cfg: TrainConfig,
        vocab: Vocabulary, class_names):
    """Train either model on the sum of its heads' cross-entropies,
    evaluate every head each epoch, and return the best checkpoint (by the
    macro-F1 of the last head, the prediction, on the split ``cfg.select_on``
    names; earlier epoch on ties) together with the full per-epoch curve
    data.

    The model is left holding the best epoch's parameters, and the
    checkpoint holds the model's arrays themselves, not copies
    (``make_checkpoint``): a later update of the model shows in it. The
    snapshot of the best epoch that training keeps is gone once the model
    holds it again.

    Training that diverges raises ``TrainingDiverged``: an overflow or
    invalid value in a batch's step or in an evaluation (``_diverges_as``),
    a non-finite loss, or a non-finite parameter after an epoch. The last
    two stay checked, since a NaN already in the inputs spreads without any
    floating-point error.
    """
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test splits must be nonempty")
    streams = seed_streams(cfg.seed)
    shuffle_rng = np.random.default_rng(streams["shuffle"])
    dropout_rng = np.random.default_rng(streams["dropout"])

    train_part, select = _selection_split(train, cfg, streams)
    opt = Optimizer(cfg.optimizer, model.parameters(), cfg.learning_rate)
    prediction = model.heads[-1]
    records = []
    best_f1 = -1.0
    best_arrays = model_arrays(model)
    best_epoch = -1
    n = len(train_part)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for b, batch in enumerate(_batch_slices(n, cfg.batch_size, order)):
            with _diverges_as(f"at epoch {epoch}, batch {b}"):
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
        bad = [name for name, t in model.tensors() if not np.isfinite(t.data).all()]
        if bad:
            raise TrainingDiverged(f"non-finite parameters after epoch {epoch}: {', '.join(bad)}")

        with _diverges_as(f"in the evaluation after epoch {epoch}"):
            reports = evaluate_components(model, test)
            if select is None:
                selection_f1 = reports[prediction].macro_f1
            else:
                selection_f1 = evaluate_components(model, select)[prediction].macro_f1
        records.append(EpochRecord(epoch, loss_sum / n, reports))
        if selection_f1 > best_f1:
            best_f1 = selection_f1
            best_epoch = epoch
            for name, a in model.arrays().items():
                np.copyto(best_arrays[name], a)

    for name, a in model.arrays().items():
        a[...] = best_arrays.pop(name)  # the snapshot goes as the model takes it back
    ckpt = make_checkpoint(model, vocab, class_names)
    ckpt.config.update(best_epoch=best_epoch, seed=cfg.seed)
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


def run_training(train_records, test_records, cfg: TrainConfig, class_names, kind="mcm"):
    """Vocab -> embedding -> model -> fit, all from one seed, for a model
    kind of ``_KINDS``: ``(model, checkpoint, per-epoch records)``. The
    checkpoint holds the vocabulary and, besides ``fit``'s ``best_epoch``
    and ``seed``, the ``variant`` the run's outputs are named by.

    Both splits are encoded to ``cfg.max_len`` ids (by default the
    95th-percentile rule's), but at least the model class's ``shortest``.
    The model config takes ``cfg``'s fields of the same name and the four
    sizes. A model class that fixes ``embedding_mode`` trains on a table of
    that mode and records its name as the variant: the baseline always
    trains on a random table.
    """
    check_fields(TrainConfig, {"kind": kind}, {"kind": _KINDS})
    model_cls, config_cls, build = _KINDS[kind]
    cfg = replace(cfg, embedding_mode=model_cls.embedding_mode or cfg.embedding_mode)
    streams = seed_streams(cfg.seed)
    vocab = build_vocab(train_records, cfg.min_count)
    max_len = max(cfg.max_len if cfg.max_len is not None else pick_max_len(train_records),
                  model_cls.shortest)
    enc_train, enc_test = (encode(r, vocab, max_len) for r in (train_records, test_records))
    table = build_embedding_table(cfg, vocab, train_records, streams)
    shared = {f.name for f in fields(config_cls)} & {f.name for f in fields(TrainConfig)}
    sizes = {"vocab_size": vocab.size, "embed_dim": cfg.resolved_embedding_dim,
             "num_classes": len(class_names), "max_len": max_len}
    model = build(config_cls(**{**{name: getattr(cfg, name) for name in shared}, **sizes}),
                  table, streams["model"])
    ckpt, records = fit(model, enc_train, enc_test, cfg, vocab, class_names)
    ckpt.config["variant"] = model.name if model.embedding_mode else cfg.variant_name
    return model, ckpt, records


def report_rows(variant, heads, reports=None, status="ok") -> list:
    """One results row per head: its metrics from ``reports`` (head ->
    ``EvalReport``), or without reports, empty metrics carrying ``status``."""
    rows = []
    for head in heads:
        row = {"model": variant, "component": COMPONENT_TITLES[head], "accuracy": "",
               "precision": "", "recall": "", "f1": "", "status": status}
        if reports is not None:
            r = reports[head]
            row.update(accuracy=f"{r.accuracy:.6f}", precision=f"{r.macro_precision:.6f}",
                       recall=f"{r.macro_recall:.6f}", f1=f"{r.macro_f1:.6f}")
        rows.append(row)
    return rows


def write_results_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model,component,accuracy,precision,recall,f1,status\n")
        for row in rows:
            fh.write("{model},{component},{accuracy},{precision},{recall},{f1},{status}\n"
                     .format(**row))


def write_curve_csv(records, path) -> None:
    """Each epoch's test error of every head the records hold."""
    heads = list(records[0].reports)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["epoch", *heads]) + "\n")
        for rec in records:
            fh.write(",".join([str(rec.epoch), *(f"{rec.test_error(h):.6f}" for h in heads)])
                     + "\n")


def run_experiment_matrix(train_records, test_records, base_cfg: TrainConfig,
                          out_dir, class_names) -> list:
    """The baseline, then the six embedding/attention variants, one seed;
    each variant overrides ``base_cfg``'s embedding mode and attention.

    Emits results.csv (25 rows: the baseline + 6 variants x 4 components)
    and one per-epoch test-error curve CSV per cell. A failing cell is
    recorded in the status column without aborting the rest; a selection
    no cell could make (``_check_selection``) is refused before the first
    cell and before ``out_dir`` is made.
    """
    _check_selection([rec.label for rec in train_records], base_cfg)
    # (model kind, variant name, its config)
    cells = [("baseline", BaselineModel.name, base_cfg)]
    for mode in _MODE_SUFFIX:
        for attention in (False, True):
            cfg = replace(base_cfg, embedding_mode=mode, attention=attention)
            cells.append(("mcm", cfg.variant_name, cfg))
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for kind, variant, cfg in cells:
        heads = _KINDS[kind][0].heads
        try:
            _, ckpt, records = run_training(train_records, test_records, cfg, class_names, kind)
            write_curve_csv(records, os.path.join(out_dir, f"curve_{variant}.csv"))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            rows += report_rows(variant, heads, status=f"error: {exc}")
        else:
            rows += report_rows(variant, heads, records[ckpt.config["best_epoch"]].reports)
    write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    return rows
