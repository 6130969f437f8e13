"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is define-by-run: while a ``Tape`` is active (as a context
manager), every operation on grad-enabled tensors appends one node to it.
``backward`` replays the tape in reverse, accumulating gradients additively
into every grad-enabled operand. Tapes are rebuilt per forward pass.

Design constraints, deliberately strict:

* everything is float64,
* no implicit broadcasting -- shape alignment is always explicit
  (``expand_rows`` / ``expand_cols`` / ``expand_scalar``),
* max reductions route their gradient to the first maximal element of each
  slice, so gradients are deterministic under ties,
* identical inputs give bitwise-identical outputs and gradients.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """An operand shape violates the operation's contract."""


class Tensor:
    """Shape-tagged dense array of float64 with optional gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph."""
        return Tensor(self.data)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad_enabled={self.requires_grad})"


class TapeNode:
    __slots__ = ("out", "inputs", "grad_fn")

    def __init__(self, out: Tensor, inputs: tuple, grad_fn: Callable):
        self.out = out
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of executed operations for one forward pass.

    Nodes are appended in execution order, which is already a topological
    order of the graph; ``backward`` visits each node exactly once in
    reverse.
    """

    __slots__ = ("nodes", "_prev")

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> bool:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False

    def __len__(self) -> int:
        return len(self.nodes)


_ACTIVE_TAPE: Optional[Tape] = None


def apply_op(out_data: np.ndarray, inputs: Sequence[Tensor], grad_fn: Callable) -> Tensor:
    """Create an op output and register its gradient rule on the active tape.

    ``grad_fn(g)`` receives the output gradient and returns one gradient
    array (or None, or a ``RowGrad`` for a rank-2 input) per input, in
    order. This is the extension point used by layers with fused backward
    rules (batchnorm, dropout, cross-entropy).
    """
    inputs = tuple(inputs)
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE.nodes.append(TapeNode(out, inputs, grad_fn))
    return out


class RowGrad(NamedTuple):
    """Row-sparse gradient of a rank-2 tensor: ``values[k]`` is the gradient
    of row ``rows[k]``; every other row's gradient is zero."""

    rows: np.ndarray    # sorted, unique
    values: np.ndarray  # (len(rows), d)


def _accumulate(t: Tensor, g) -> None:
    # The first write copies: a grad_fn may hand one array to several inputs
    # (``add`` returns ``(g, g)``) or return a view of its output's gradient,
    # and later writes add into ``t.grad`` in place. The copy takes the
    # layout of ``t.data``, not of ``g`` (a transposed view is F-ordered).
    # A row-sparse first write starts from ``np.zeros``, which maps its pages
    # lazily (``np.zeros_like`` would write them all), so only the written
    # rows of a large table cost anything.
    if isinstance(g, RowGrad):
        if t.grad is None:
            t.grad = np.zeros(t.data.shape)
        t.grad[g.rows] += g.values
    elif t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every grad-enabled tensor reachable from ``loss``.

    Accumulation is additive across fan-out. The tape is traversed once,
    in reverse execution order.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar tensor, got shape {loss.data.shape}")
    if not tape.nodes:
        raise ValueError("tape is empty; nothing to differentiate")
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        g = node.out.grad
        if g is None:
            continue
        grads = node.grad_fn(g)
        for t, gi in zip(node.inputs, grads):
            if gi is not None and t.requires_grad:
                _accumulate(t, gi)


# ---------------------------------------------------------------------------
# elementwise operations


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return apply_op(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return apply_op(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return apply_op(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, as 0.5 * (1 + tanh(x / 2)).

    Branch-free and finite for any finite input: it never exponentiates, so
    nothing overflows, and it is exactly 0.5 at 0.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a: Tensor) -> Tensor:
    out = sigmoid_array(a.data)
    return apply_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return apply_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return apply_op(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


_ELEMENTWISE_BINARY = {"add": add, "sub": sub, "mul": mul}
_ELEMENTWISE_UNARY = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}


def elementwise(op_kind: str, a: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Dispatch over {add, sub, mul, sigmoid, tanh, relu}.

    Binary kinds require b with a's exact shape; unary kinds ignore b.
    """
    if op_kind in _ELEMENTWISE_BINARY:
        if b is None:
            raise ValueError(f"{op_kind} requires two operands")
        return _ELEMENTWISE_BINARY[op_kind](a, b)
    if op_kind in _ELEMENTWISE_UNARY:
        return _ELEMENTWISE_UNARY[op_kind](a)
    raise ValueError(f"unknown elementwise kind {op_kind!r}")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    return apply_op(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def matvec(m: Tensor, v: Tensor) -> Tensor:
    """Matrix-vector product: (r, c) x (c,) -> (r,)."""
    if m.data.ndim != 2 or v.data.ndim != 1:
        raise ShapeError(f"matvec expects (r,c) and (c,), got {m.data.shape} and {v.data.shape}")
    if m.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"matvec dimensions disagree: {m.data.shape} and {v.data.shape}")
    md, vd = m.data, v.data
    return apply_op(md @ vd, (m, v), lambda g: (np.outer(g, vd), md.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects rank-2, got {a.data.shape}")
    return apply_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.data.shape
    return apply_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# reductions


def _check_axis(a: Tensor, axis: int) -> None:
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"axis {axis} out of range for rank-{a.data.ndim} tensor")


def reduce_sum(a: Tensor, axis: int) -> Tensor:
    _check_axis(a, axis)
    shape = a.data.shape

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return apply_op(a.data.sum(axis=axis), (a,), grad_fn)


def reduce_mean(a: Tensor, axis: int) -> Tensor:
    _check_axis(a, axis)
    n = a.data.shape[axis]
    shape = a.data.shape

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

    return apply_op(a.data.mean(axis=axis), (a,), grad_fn)


def reduce_max(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; gradient goes to the first argmax of each slice."""
    _check_axis(a, axis)
    idx = np.argmax(a.data, axis=axis)
    shape = a.data.shape

    def grad_fn(g):
        z = np.zeros(shape, dtype=np.float64)
        np.put_along_axis(z, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return (z,)

    return apply_op(a.data.max(axis=axis), (a,), grad_fn)


_REDUCERS = {"max": reduce_max, "mean": reduce_mean, "sum": reduce_sum}


def reduce(op_kind: str, a: Tensor, axis: int) -> Tensor:
    """Dispatch over {max, mean, sum}; the reduced axis is dropped."""
    if op_kind not in _REDUCERS:
        raise ValueError(f"unknown reduce kind {op_kind!r}")
    return _REDUCERS[op_kind](a, axis)


# ---------------------------------------------------------------------------
# structure


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along one axis; gradient slices back to the operands."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    if len(tensors) == 1:
        return tensors[0]
    rank = tensors[0].data.ndim
    if not 0 <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank-{rank} tensors")
    ref = list(tensors[0].data.shape)
    for t in tensors[1:]:
        s = list(t.data.shape)
        if len(s) != rank or s[:axis] + s[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise ShapeError(f"concat shapes incompatible: {tensors[0].data.shape} vs {t.data.shape}")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    return apply_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, grad_fn)


def gather_rows(m: Tensor, indices, skip_row: Optional[int] = None) -> Tensor:
    """Gather rows of a rank-2 tensor; gradient scatter-adds back.

    Rows equal to ``skip_row`` still gather normally but are excluded from
    the scattered gradient (used to keep the padding embedding frozen).

    The gradient is a ``RowGrad`` over the distinct gathered rows: each
    row's sum is built with ``np.add.at`` in index order from 0.0, the same
    additions a dense ``(rows, d)`` scatter makes, so it is bitwise equal
    to it, without writing every row of a large table. ``m.grad`` stays a
    dense array.
    """
    if m.data.ndim != 2:
        raise ShapeError(f"gather_rows expects rank-2, got {m.data.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= m.data.shape[0]):
        raise ValueError(f"gather_rows index out of range for {m.data.shape[0]} rows")

    def grad_fn(g):
        if not m.requires_grad:
            return (None,)
        if skip_row is None:
            kept, gk = idx, g
        else:
            keep = idx != skip_row
            kept, gk = idx[keep], g[keep]
        rows, where = np.unique(kept, return_inverse=True)
        values = np.zeros((rows.size, g.shape[1]))
        np.add.at(values, where, gk)
        return (RowGrad(rows, values),)

    return apply_op(m.data[idx], (m,), grad_fn)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a rank-2 tensor; gradient pads with zeros."""
    if a.data.ndim != 2:
        raise ShapeError(f"slice_rows expects rank-2, got {a.data.shape}")
    if not 0 <= start <= stop <= a.data.shape[0]:
        raise ValueError(f"slice_rows {start}:{stop} out of range for {a.data.shape[0]} rows")
    shape = a.data.shape

    def grad_fn(g):
        z = np.zeros(shape, dtype=np.float64)
        z[start:stop] = g
        return (z,)

    return apply_op(a.data[start:stop], (a,), grad_fn)


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
