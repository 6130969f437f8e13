"""Shared test oracles: central finite differences for gradient checks,
the memory a call allocates, the values a config field must refuse, the
small models that checkpoints are made of, the blocks and payloads of a
checkpoint file's bytes, the tape ops that only tests use, as the
references for the fused layers, and a loader for the scripts in
``tools/``.

The numeric side only ever calls the forward pass (outside any tape), so
it stays independent of the backward rules it verifies.
"""
import dataclasses
import importlib.util
import math
import os
import struct
import tracemalloc
import typing
from typing import Optional

import numpy as np

from mcm.data import Vocabulary
from mcm.embeddings import init_random
from mcm.model import BaselineConfig, McmConfig, build_baseline, build_mcm
from mcm.tensor import RowGrad, ShapeError, Tape, Tensor, apply_op, backward


def numerical_grad(value_fn, tensor, h=1e-5):
    """Central-difference gradient of scalar value_fn() w.r.t. one tensor,
    perturbing its data in place."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = value_fn()
        flat[i] = orig - h
        fm = value_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def dense_grad(t: Tensor) -> Optional[np.ndarray]:
    """``t.grad`` as a dense array: a ``RowGrad`` spread into zeros, the
    scatter whose values it holds; a dense gradient or None as it is."""
    g = t.grad
    if isinstance(g, RowGrad):
        dense = np.zeros(t.data.shape)
        dense[g.rows] = g.values
        return dense
    return g


def gradcheck(build_loss, params, h=1e-5):
    """Worst relative error between reverse-mode and finite-difference
    gradients over ``params``.

    ``build_loss()`` must rerun the full forward pass and return the scalar
    loss tensor; it is called under a tape once for the analytic side and
    tapelessly many times for the numeric side.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    backward(loss, tape)
    worst = 0.0
    for p in params:
        analytic = dense_grad(p) if p.grad is not None else np.zeros_like(p.data)
        numeric = numerical_grad(lambda: float(build_loss().data), p, h)
        worst = max(worst, max_rel_err(analytic, numeric))
    return worst


def away_from_zero(rng, shape, low=0.2, high=1.5):
    """Random values with |x| >= low, for checking kinked ops (relu, max)
    at points where they are differentiable."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def weighted_sum(x, r):
    """Scalar sum(x * r) as one tape node whose gradient is r."""
    return apply_op(np.asarray(float((x.data * r).sum())), (x,), lambda g: (g * r,))


def traced_memory(fn):
    """(fn(), the bytes Python and numpy allocated while it ran and still
    held when it returned, the peak of those bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


# Values a config field of each annotated type must refuse: a bool for a
# number, a float for an int, an int or a string for a bool
WRONG_TYPED = {int: [True, 2.0], Optional[int]: [False, 2.0], float: [False], bool: [1, "yes"]}


def wrong_typed(cls, choices=()):
    """(field, value) for each field of the config dataclass ``cls`` and
    each value it must refuse; a field named in ``choices`` refuses 'foo'."""
    return [(name, value) for name, kind in typing.get_type_hints(cls).items()
            for value in (["foo"] if name in choices else WRONG_TYPED[kind])]


# ---------------------------------------------------------------------------
# small models and their checkpoints

CLASSES = ["a", "b", "c"]
SMALL_MCM = McmConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, num_filters=2,
                      hidden_dim=2, dense1_dim=2, dense2_dim=2)
SMALL_TOKENS = ["<pad>", "<unk>"] + [f"w{i}" for i in range(8)]
SMALL_VOCAB = Vocabulary({t: i for i, t in enumerate(SMALL_TOKENS)}, SMALL_TOKENS, 1)


def load_tool(name: str):
    """``tools/<name>.py`` as a module; ``tools`` is not a package."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_model(kind):
    table = init_random(10, 4, np.random.default_rng(0))
    if kind == "mcm":
        return build_mcm(dataclasses.replace(SMALL_MCM, attention=True), table, 0)
    return build_baseline(BaselineConfig(vocab_size=10, embed_dim=4, num_classes=3,
                                         max_len=6, kernel=2), table, 0)


def shares_every_array(ckpt, model):
    """Each array of ``ckpt`` is the model's own, not a copy."""
    arrays = model.arrays()
    assert list(ckpt.arrays) == list(arrays)
    for name, a in arrays.items():
        assert np.shares_memory(ckpt.arrays[name], a), name


def checkpoint_blocks(raw: bytes) -> tuple:
    """(config block, vocabulary block, the tensor entries after them) of
    a checkpoint file's bytes."""
    (n_header,) = struct.unpack_from("<I", raw, 4)
    (n_vocab,) = struct.unpack_from("<I", raw, 8 + n_header)
    vocab_at = 12 + n_header
    return raw[8:8 + n_header], raw[vocab_at:vocab_at + n_vocab], raw[vocab_at + n_vocab:]


def assemble_checkpoint(header: bytes, vocab: bytes, rest: bytes) -> bytes:
    """The checkpoint bytes ``checkpoint_blocks`` cuts into these three."""
    return (b"MCM1" + struct.pack("<I", len(header)) + header
            + struct.pack("<I", len(vocab)) + vocab + rest)


def fill_payloads(raw: bytes, names, value: float, count: Optional[int] = None) -> bytes:
    """Checkpoint bytes ``raw`` with the first ``count`` values (all of them
    when None) of each payload of a tensor in ``names`` set to ``value``:
    bytes that no writer that checks its arrays would write."""
    header, vocab, rest = checkpoint_blocks(raw)
    out = bytearray(raw)
    pos = 12 + len(header) + len(vocab)
    (entries,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    for _ in range(entries):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2:pos + 2 + name_len].decode("utf-8")
        rank = raw[pos + 2 + name_len]
        shape = struct.unpack_from(f"<{rank}I", raw, pos + 3 + name_len)
        pos += 3 + name_len + 4 * rank
        size = math.prod(shape)
        if name in names:
            np.frombuffer(out, "<f8", size if count is None else count, pos)[...] = value
        pos += 8 * size
    return bytes(out)


# ---------------------------------------------------------------------------
# tape ops that no program runs: the reference compositions of the fused
# layers (dense, conv, attention) are written in them


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    return apply_op(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects rank-2, got {a.data.shape}")
    return apply_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def expand_rows(v: Tensor, n: int) -> Tensor:
    """Tile a vector (d,) into (n, d); gradient sums over rows."""
    if v.data.ndim != 1:
        raise ShapeError(f"expand_rows expects rank-1, got {v.data.shape}")
    return apply_op(np.broadcast_to(v.data, (n, v.data.shape[0])).copy(), (v,),
                    lambda g: (g.sum(axis=0),))


def expand_cols(v: Tensor, d: int) -> Tensor:
    """Tile a vector (n,) into (n, d) columns; gradient sums over columns."""
    if v.data.ndim != 1:
        raise ShapeError(f"expand_cols expects rank-1, got {v.data.shape}")
    return apply_op(np.broadcast_to(v.data[:, None], (v.data.shape[0], d)).copy(), (v,),
                    lambda g: (g.sum(axis=1),))


def expand_scalar(s: Tensor, n: int) -> Tensor:
    """Tile a scalar () into (n,); gradient sums."""
    if s.data.ndim != 0:
        raise ShapeError(f"expand_scalar expects rank-0, got {s.data.shape}")
    return apply_op(np.full(n, float(s.data)), (s,), lambda g: (g.sum(),))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python float constant."""
    c = float(c)
    return apply_op(a.data * c, (a,), lambda g: (g * c,))


def softmax(a: Tensor) -> Tensor:
    """Numerically stabilized softmax along the last axis (rank 1 or 2)."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects rank 1 or 2, got {a.data.shape}")
    x = a.data
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return apply_op(p, (a,), grad_fn)
