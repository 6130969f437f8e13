"""Binary checkpoints of McM and the baseline, and the one contract every
checkpoint meets.

A ``Checkpoint`` holds a model kind, its config, its ``Vocabulary``, its
class names and its arrays. It is a value: ``check_checkpoint``, every
check that needs no model, runs once when it is made (``make_checkpoint``,
``load_checkpoint`` or ``dataclasses.replace``), and its config and arrays
are read-only mappings and its class names a tuple. Only the arrays' values
stay writable, as a made checkpoint holds the model's own arrays; so
``save_checkpoint`` runs the finiteness pass again, and the writer refuses
what the reader refuses. ``rebuild_model`` adds the checks that need the
model skeleton: the tensor set and shapes. Each refusal is one
``CheckpointError``.

Format changes. Today's layout has no ``format`` key in its config block,
and a file without one is read as today's layout; so every file re-saves
to its own bytes. The first change that needs another layout adds the key,
and one function in this module that maps a header of today's layout to
the new one.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType

import numpy as np

from .data import Vocabulary, all_strings, index_of
from .embeddings import EmbeddingTable
from .layers import admits, check_fields
from .model import (
    BaselineConfig,
    BaselineModel,
    McmConfig,
    McmModel,
    build_baseline,
    build_mcm,
)
from .tensor import Tensor

_MAGIC = b"MCM1"

# checkpoint kind -> (model class, config class, builder)
KINDS = {
    "mcm": (McmModel, McmConfig, build_mcm),
    "baseline": (BaselineModel, BaselineConfig, build_baseline),
}

# For each config field that sizes a tensor, one stored array and axis that
# must equal it. ``check_checkpoint`` checks them, so a corrupt dimension is
# refused instead of sizing the model skeleton (the stored shapes themselves
# are bounded by the file's length).
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


class CheckpointError(Exception):
    pass


@dataclass(frozen=True)
class Checkpoint:
    kind: str           # "mcm" or "baseline"
    config: MappingProxyType
    vocab: Vocabulary
    class_names: tuple
    arrays: MappingProxyType  # name -> float64 ndarray, not copied

    def __post_init__(self):
        check_checkpoint(self)
        object.__setattr__(self, "config", MappingProxyType(dict(self.config)))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "arrays", MappingProxyType(dict(self.arrays)))


def model_arrays(model) -> dict:
    """A snapshot of ``model.arrays()``: a copy of each array."""
    return {name: a.copy() for name, a in model.arrays().items()}


def _model_config(ckpt: Checkpoint):
    """The model config that ``ckpt.config`` describes."""
    config_cls = KINDS[ckpt.kind][1]
    return config_cls(**{f.name: ckpt.config[f.name] for f in fields(config_cls)})


def check_checkpoint(ckpt: Checkpoint) -> None:
    """Refuse, as one ``CheckpointError``, a checkpoint that fails any check
    that needs no model: an unknown kind; a vocabulary that is not a
    ``Vocabulary``; class names that are not distinct strings; a config
    value of the wrong type, a variant that would split a CSV row, or a
    config the model's config class refuses; a sizing field that disagrees
    with its stored array; a vocabulary or class count that disagrees with
    the config; or a non-finite array (``_check_finite``)."""
    if not isinstance(ckpt.kind, str) or ckpt.kind not in KINDS:
        raise CheckpointError(f"unknown checkpoint kind {ckpt.kind!r}")
    vocab, cfg = ckpt.vocab, ckpt.config
    if not isinstance(vocab, Vocabulary):
        raise CheckpointError(f"the vocabulary is a {type(vocab).__name__}, not a Vocabulary")
    if not all_strings(ckpt.class_names):
        raise CheckpointError("malformed checkpoint: class_names is not a list of names")
    try:
        index_of(ckpt.class_names, "class name")
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from None
    try:
        check_fields(KINDS[ckpt.kind][1], cfg, embedding_trainable=bool, variant=str,
                     best_epoch=int, seed=int)
        if set(cfg.get("variant", "")) & set(",\r\n"):  # reports write it as a CSV field
            raise ValueError(f"variant {cfg['variant']!r} holds a comma or a line break")
    except ValueError as exc:
        raise CheckpointError(f"config {exc}") from None
    for field, (name, axis) in _SIZING_FIELDS[ckpt.kind].items():
        shape = ckpt.arrays[name].shape if name in ckpt.arrays else ()
        stored = shape[axis] if axis < len(shape) else None
        if stored is None or cfg.get(field) != stored:
            raise CheckpointError(f"config {field} {cfg.get(field)!r} disagrees "
                                  f"with {name} of shape {shape}")
    if vocab.size != cfg["vocab_size"]:
        raise CheckpointError(f"vocabulary holds {vocab.size} tokens, "
                              f"config says vocab_size {cfg['vocab_size']}")
    if len(ckpt.class_names) != cfg["num_classes"]:
        raise CheckpointError(f"{len(ckpt.class_names)} class names, "
                              f"config says num_classes {cfg['num_classes']}")
    try:
        _model_config(ckpt)
        if "embedding_trainable" not in cfg:
            raise KeyError("embedding_trainable")
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint configuration: {exc}") from exc
    _check_finite(ckpt.arrays)


def _check_finite(arrays) -> None:
    """Refuse a NaN or an infinity, naming the first such array in name order."""
    for name in sorted(arrays):
        a = arrays[name]  # only a float array can hold NaN or inf
        if np.issubdtype(a.dtype, np.inexact) and not np.isfinite(a).all():
            raise CheckpointError(f"{name} holds non-finite values")


def make_checkpoint(model, vocab: Vocabulary, class_names, **record) -> Checkpoint:
    """A checkpoint of ``model`` with its config and the training ``record``
    (``best_epoch``, ``seed``, ``variant``), vocabulary and class names; one
    that ``check_checkpoint`` refuses raises ``CheckpointError``.

    It holds ``model.arrays()``, the model's own arrays, not copies: a later
    update of the model shows in it. Save it before training or editing the
    model further, or ``dataclasses.replace`` its ``arrays`` with
    ``model_arrays(model)`` for a snapshot that stays as it is.
    """
    kind = next((k for k, (cls, _, _) in KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    config = {**asdict(model.config), "embedding_trainable": model.embedding.vectors.requires_grad}
    return Checkpoint(kind, {**config, **record}, vocab, class_names, model.arrays())


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Self-describing binary layout: magic, config block, vocabulary
    block, then (name, shape, little-endian float64 payload) entries. A
    checkpoint whose arrays have come to hold a NaN or an infinity since it
    was made raises ``CheckpointError`` before any file is opened.

    Each payload is written from the array's own buffer, with no copy of a
    little-endian float64 C-contiguous array. The file is written under a
    temporary name in the same directory and then renamed over ``path``, so
    a save that fails midway leaves any earlier file at ``path`` as it was.
    A symbolic link at ``path`` stays, and its target is replaced.
    """
    _check_finite(ckpt.arrays)
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


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; a malformed file, or a checkpoint that
    ``check_checkpoint`` refuses when it is made, raises
    ``CheckpointError``."""
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
    if "class_names" not in header:
        raise CheckpointError("malformed checkpoint: config block has no class_names")
    tokens, min_count = vocab_block.get("tokens"), vocab_block.get("min_count")
    if not all_strings(tokens) or not admits(int, min_count) or min_count < 1:
        raise CheckpointError("malformed checkpoint: vocabulary block needs a token list "
                              "and an integer min_count of at least 1")
    try:
        vocab = Vocabulary.of(tokens, min_count)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from None
    return Checkpoint(header.pop("kind", None), header, vocab, header.pop("class_names"), arrays)


def rebuild_model(ckpt: Checkpoint):
    """``(model, ckpt.vocab)``: the checkpointed model, every stored tensor
    verified against the rebuilt skeleton before any assignment, and the
    checkpoint's own vocabulary; the rest of the contract held when it was made.

    The model's embedding table is ``ckpt.arrays["embedding.vectors"]``
    itself, not a copy: the model and the checkpoint share that array, so
    a write through either shows in both; a model rebuilt from
    ``make_checkpoint(model, ...)`` shares its table with ``model``. Take
    ``model_arrays(model)`` or ``copy.deepcopy(model)`` to keep them apart.
    Every other array is copied into the skeleton's own (an LSTM's gate
    arrays into the row blocks of its stacks).
    """
    table = EmbeddingTable(Tensor(ckpt.arrays["embedding.vectors"],
                                  requires_grad=ckpt.config["embedding_trainable"]))
    try:
        model = KINDS[ckpt.kind][2](_model_config(ckpt), table, 0)
    except ValueError as exc:  # a stored table of another rank than 2
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
    for name, a in targets.items():
        if a is not ckpt.arrays[name]:
            a[...] = ckpt.arrays[name]
    return model, ckpt.vocab
