"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is define-by-run: while a ``Tape`` is active (as a context
manager), every operation on grad-enabled tensors appends one node to it.
``backward`` replays the tape in reverse, accumulating gradients additively
into every grad-enabled operand. Tapes are rebuilt per forward pass.

``backward`` consumes its tape: each node drops what it holds as soon as
its gradient has been passed on, so a step's activations and intermediate
gradients are freed during the backward, not when the tape goes. Every
leaf keeps its ``grad``; an intermediate tensor keeps its gradient only
while the caller holds that tensor.

Rows of a rank-2 tensor are gathered one way, as ``GatheredRows``: the
distinct rows once, and the slot each index fills. Its ``dense()`` puts
the rows on the tape; layers with an affine first step project the
distinct rows instead. Either way the table's gradient is one ``RowGrad``
over the distinct rows, from the slots' gradients summed per row in slot
order (for ``dense()``, the values of a dense scatter-add into zeros), and
the table's ``grad`` holds it in that form: no table-sized array is built
unless a dense write to the same gradient arrives.

Design constraints, deliberately strict:

* everything is float64,
* no implicit broadcasting -- an elementwise op refuses operands whose
  shapes differ,
* max reductions route their gradient to the first maximal element of each
  slice, so gradients are deterministic under ties,
* identical inputs give bitwise-identical outputs and gradients.
"""
from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """An operand shape violates the operation's contract."""


class Tensor:
    """Shape-tagged dense array of float64 with optional gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        # as backward stored it: None, an array, or one summed RowGrad while
        # every write to it has been row-sparse
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph."""
        return Tensor(self.data)


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
    reverse and empties it.
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
    array (or None, or a ``RowGrad`` for a rank-2 input, or a ``Fresh``)
    per input, in order. This is the extension point used by layers with
    fused backward rules (batchnorm, dropout, cross-entropy).
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


class Fresh(NamedTuple):
    """A gradient array that its grad_fn built itself and keeps no reference
    to, handed over whole: the input's first dense write may adopt it as its
    gradient instead of copying it."""

    array: np.ndarray


def _accumulate(t: Tensor, g) -> None:
    """Add one gradient contribution ``g`` (an array, a ``Fresh`` array or a
    ``RowGrad``) into ``t``'s gradient.

    While only ``RowGrad``s arrive, the gradient stays one ``RowGrad`` over
    the union of their rows, and each row's value is ``0.0 +`` each
    contribution in tape order: the additions a dense scatter into zeros
    makes (a ``-0.0`` value becomes ``0.0``), and no table-sized array is
    built. A dense write spreads it into zeros first, so the dense gradient
    holds that scatter's bits. A ``RowGrad`` with no rows is still a
    gradient (of zeros).

    The first dense write copies: a grad_fn may hand one array to several
    inputs (``add`` returns ``(g, g)``) or return a view of its output's
    gradient, and later writes add into the gradient in place. The copy
    takes the layout of ``t.data``, not of ``g`` (a transposed view is
    F-ordered). A ``Fresh`` array that already has that layout (the shape
    of ``t.data``, both C-contiguous) is adopted instead: nothing else holds
    it, so nothing else writes into it.
    """
    cur = t.grad
    fresh = isinstance(g, Fresh)
    if fresh:
        g = g.array
    if isinstance(g, RowGrad):
        if cur is None:
            t.grad = RowGrad(g.rows, 0.0 + g.values)
        elif isinstance(cur, RowGrad):
            rows = np.union1d(cur.rows, g.rows)
            values = np.zeros((rows.size,) + cur.values.shape[1:])
            values[np.searchsorted(rows, cur.rows)] = cur.values
            values[np.searchsorted(rows, g.rows)] += g.values
            t.grad = RowGrad(rows, values)
        else:
            cur[g.rows] += g.values
    elif cur is None:
        d = t.data
        if fresh and g.shape == d.shape and g.flags.c_contiguous and d.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.empty_like(d)
            t.grad[...] = g
    else:
        if isinstance(cur, RowGrad):
            rows, values = cur
            cur = t.grad = np.zeros(t.data.shape)
            cur[rows] = values
        cur += g


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every grad-enabled tensor reachable from ``loss``.

    Accumulation is additive across fan-out. The tape is traversed once,
    in reverse execution order, and consumed as it goes: each node lets go
    of its output, inputs and gradient rule before the rule runs, so the
    activations a rule captured, and every intermediate output and
    gradient that the caller does not hold, are freed during the pass.
    ``len(tape)`` is unchanged, but the tape cannot be differentiated
    again (``ValueError``).

    Every leaf (a parameter or an input) gets its ``grad``. An intermediate
    tensor keeps its gradient only while the caller holds the tensor.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar tensor, got shape {loss.data.shape}")
    if not tape.nodes:
        raise ValueError("tape is empty; nothing to differentiate")
    if tape.nodes[-1].grad_fn is None:
        raise ValueError("tape already differentiated")
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        _consume(node)


def _consume(node: TapeNode) -> None:
    """Empty ``node``, then add its gradient rule's results into its inputs.

    A ``RowGrad`` reaches an output only when rows were gathered from it (a
    tensor that is not a leaf); rules take arrays, so it is spread into
    zeros first. Its locals go when it returns, so no output, rule or
    gradient of this node outlives it unless something else holds it.
    """
    out, inputs, grad_fn = node.out, node.inputs, node.grad_fn
    node.out = node.inputs = node.grad_fn = None
    g = out.grad
    if g is None:
        return
    if isinstance(g, RowGrad):
        rows, values = g
        g = np.zeros(out.data.shape)
        g[rows] = values
    del out
    for t, gi in zip(inputs, grad_fn(g)):
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


def relu_array(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """max(x, 0) on a plain array, with NaN and -0.0 as +0.0: the bits of
    ``np.where(x > 0, x, 0.0)`` without a per-element select. ``fmax``
    takes 0.0 over NaN; adding +0.0 turns a -0.0 that it may return into
    +0.0 and leaves every other value as it is."""
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return apply_op(relu_array(a.data), (a,), lambda g: (Fresh(g * mask),))


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


def matvec(m: Tensor, v: Tensor) -> Tensor:
    """Matrix-vector product: (r, c) x (c,) -> (r,)."""
    if m.data.ndim != 2 or v.data.ndim != 1:
        raise ShapeError(f"matvec expects (r,c) and (c,), got {m.data.shape} and {v.data.shape}")
    if m.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"matvec dimensions disagree: {m.data.shape} and {v.data.shape}")
    md, vd = m.data, v.data
    return apply_op(md @ vd, (m, v), lambda g: (np.outer(g, vd), md.T @ g))


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


def _row_indices(m: Tensor, indices) -> np.ndarray:
    """``indices`` as a flat intp array of valid row numbers of rank-2 ``m``."""
    if m.data.ndim != 2:
        raise ShapeError(f"GatheredRows expects rank-2, got {m.data.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("GatheredRows indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= m.data.shape[0]):
        raise ValueError(f"GatheredRows index out of range for {m.data.shape[0]} rows")
    return idx


class GatheredRows:
    """The rows ``m[indices]`` of a rank-2 tensor, held as its distinct rows:
    the one row gather.

    ``dense`` puts the rows on the tape as one (slots, d) tensor. Where a
    layer's first step is an affine map, ``project`` applies it once per
    distinct row and spreads the results over the slots, and
    ``project_grads`` gives the weight gradient. The gradient of ``m`` is a
    ``RowGrad`` of the slots' gradients summed per distinct row (for
    ``dense``, the values of a scatter-add into zeros), which ``m.grad``
    holds as it is until a dense write arrives. Slots of ``skip_row`` gather
    normally but send ``m`` no gradient.
    """

    def __init__(self, m: Tensor, indices, skip_row: Optional[int] = None):
        self.table = m
        self.indices = _row_indices(m, indices)
        self.skip_row = skip_row

    @property
    def shape(self) -> tuple:
        return (self.indices.size, self.table.data.shape[1])

    # The distinct rows are found and gathered when first needed (by
    # ``project``, or by a backward's ``segment_sum``), so ``dense``'s
    # forward is one plain gather.
    @cached_property
    def distinct(self) -> tuple:
        """(rows, inverse): the sorted distinct indices, and each slot's
        position in ``rows``."""
        return np.unique(self.indices, return_inverse=True)

    @property
    def rows(self) -> np.ndarray:
        return self.distinct[0]

    @cached_property
    def values(self) -> np.ndarray:
        """The distinct rows ``m[rows]``."""
        return self.table.data[self.rows]

    @cached_property
    def _segments(self) -> tuple:
        """(order, bounds): order[bounds[k]:bounds[k + 1]] are the slots of
        rows[k], in slot order."""
        rows, inverse = self.distinct
        counts = np.bincount(inverse, minlength=rows.size)
        return (np.argsort(inverse, kind="stable"),
                np.concatenate(([0], np.cumsum(counts))).tolist())

    def dense(self) -> Tensor:
        """The gathered rows as one (slots, d) tensor on the tape."""
        return apply_op(self.table.data[self.indices], (self.table,),
                        lambda g: (self._table_grad(self.segment_sum(g)),))

    def project(self, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``m[indices] @ w.T + b`` for w (out, d) and b (out,)."""
        z = self.values @ w.T
        z += b
        return z[self.distinct[1]]

    def segment_sum(self, g: np.ndarray) -> np.ndarray:
        """(distinct rows, out): row k sums the rows of ``g`` at the slots of
        ``rows[k]`` one by one in slot order, the additions ``np.add.at``
        makes. (``np.add.reduceat`` reassociates them.)"""
        order, bounds = self._segments
        out = np.empty((self.rows.size, g.shape[1]))
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            g[order[lo:hi]].sum(axis=0, out=out[k])
        return out

    def _table_grad(self, s: np.ndarray, w: Optional[np.ndarray] = None) -> Optional[RowGrad]:
        """``m``'s gradient from ``s = segment_sum(g)`` (times ``w`` when given):
        a ``RowGrad`` over the distinct rows but ``skip_row``, or None."""
        if not self.table.requires_grad:
            return None
        keep = self.rows != self.skip_row
        return RowGrad(self.rows[keep], s[keep] if w is None else s[keep] @ w)

    def project_grads(self, dz: np.ndarray, w: np.ndarray):
        """(dW, gradient of ``m``) of ``z = project(w, b)`` from dz = dL/dz."""
        s = self.segment_sum(dz)
        return s.T @ self.values, self._table_grad(s, w)


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
        return (Fresh(z),)

    return apply_op(a.data[start:stop], (a,), grad_fn)
