"""Neural building blocks: 1-d convolution, LSTM, dense, batch norm,
dropout, soft attention, and softmax cross-entropy.

The sequence layers (convolution, LSTM, attention) come in a per-example
form matching its mathematical definition and a batched twin operating
on a flattened step-major layout: a batch of n sequences of length l is
one rank-2 tensor of shape (l*n, d) whose row t*n + e is time step t of
example e. With n=1 the two layouts coincide, so the per-example
functions are the batched ones specialized. Dense, batch norm and
softmax cross-entropy take (n, .) batches; one message is a batch of one.

The hot paths are fused ops with hand-written backward rules:

* ``lstm_sequence_batch``, the whole recurrence: it reads the four gates
  from ``LstmParams``' three stacked parameters, the input projection
  for all timesteps is a single matmul before the time loop, each step
  activates its gates in place, and backpropagation through time is
  written out by hand, so a sequence records 2 tape nodes (with the
  slice that is its last hidden state). It saves only the activated
  gates, c and h for the backward, which recomputes tanh(c_t) and writes
  each step's gate gradients over that step's gates. ``lstm_step`` keeps
  the op-by-op cell as the public single-step form and as its test
  oracle.
* ``conv1d_batch``: the affine map and ReLU are one op; for k > 1 one
  more op builds the windows from k contiguous row slices, so its
  backward is k slice-adds.
* ``dense``: the affine map, one op, through ``_affine`` as the
  projections are.
* ``soft_attention_batch``: scores, softmax over time and reweighting, one
  op in place of the 12 of their composition.

The tests check each against its per-op composition. The attention
forward makes the composition's floating-point operations in the same
order, so its output is bitwise the composition's.

The LSTM and the convolution also take their input as ``GatheredRows``:
embedded token rows held as the distinct ids. With the LSTM and the
convolution with k = 1, the input projection then runs once per distinct
id and is spread over the token slots, and the backward sums the slots'
gradients per distinct id before the weight and table gradient matmuls,
so those three matmuls cost in distinct ids, not in slots. ``_affine``
computes the projection and its gradients for either input kind. The
convolution with k > 1 takes the rows' ``dense()``, the one dense gather
(``embeddings.lookup`` is the same op), whose backward sums the slots'
gradients per distinct id in the same way.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, get_type_hints

import numpy as np

from .tensor import (
    Fresh,
    GatheredRows,
    ShapeError,
    Tensor,
    add,
    apply_op,
    matvec,
    mul,
    relu_array,
    reshape,
    sigmoid,
    slice_rows,
    tanh,
)


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# config fields and parameter containers


# What a field of each annotated type takes, and what an error calls it. A
# bool is an int to Python, but only a bool field takes one.
_TAKES = {bool: ((bool,), "true or false"), int: ((int, np.integer), "an integer"),
          float: ((int, np.integer, float), "a number"), str: ((str,), "a string"),
          Optional[int]: ((int, np.integer, type(None)), "an integer or None")}


def admits(kind, value) -> bool:
    """Whether a field annotated ``kind`` takes ``value`` (``_TAKES``)."""
    return isinstance(value, _TAKES[kind][0]) and (kind is bool or not isinstance(value, bool))


def check_fields(cls, values: dict, choices: Optional[dict] = None, **types) -> None:
    """The one rule for a config value. Each entry of ``values`` whose name
    is a field of the dataclass ``cls``, or a key of ``types`` (name ->
    type), must be a value its type ``admits``, and one of its ``choices``
    (name -> allowed values) if it has any. The ValueError names the field;
    that of a wrong choice goes on as argparse words it."""
    hints = {**get_type_hints(cls), **types}
    for name, value in values.items():
        if name in hints and not admits(hints[name], value):
            raise ValueError(f"{name} {value!r} is not {_TAKES[hints[name]][1]}")
        if name in (choices or {}) and value not in choices[name]:
            raise ValueError(f"{name}: invalid choice {value!r} "
                             f"(choose from {', '.join(map(repr, choices[name]))})")


class Params:
    """A parameter group is its dataclass fields, named in field order: a
    ``Tensor`` field is a tensor, an ndarray field is a buffer, a ``Params``
    field nests its own under its field name ("head_cnn.bn1.gamma"), and
    any other field (a size, a rate, a config, an absent ``None`` part)
    holds none."""

    def _walk(self, method: str, kind: type, value=lambda v: v) -> list:
        """(name, value) of each field of type ``kind``, and each entry of
        ``method()`` of each nested group under its field name."""
        out = []
        for f in fields(self):
            part = getattr(self, f.name)
            if isinstance(part, Params):
                out += [(f"{f.name}.{n}", v) for n, v in getattr(part, method)()]
            elif isinstance(part, kind):
                out.append((f.name, value(part)))
        return out

    def tensors(self) -> list:
        return self._walk("tensors", Tensor)

    def buffers(self) -> list:
        return self._walk("buffers", np.ndarray)

    def tensor_arrays(self) -> list:
        """Each tensor's data, named as checkpoints store it."""
        return self._walk("tensor_arrays", Tensor, lambda t: t.data)

    def arrays(self) -> dict:
        """Every stored array by name, not copied: each tensor's data
        (``tensor_arrays``), then each buffer."""
        return dict(self.tensor_arrays() + self.buffers())


@dataclass
class Conv1dParams(Params):
    """One bank of F filters over windows of k word vectors of width d."""

    weights: Tensor  # (k, d, F)
    bias: Tensor     # (F,)

    @classmethod
    def init(cls, kernel_size: int, in_dim: int, num_filters: int, rng: np.random.Generator):
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        w = glorot_uniform(rng, (kernel_size, in_dim, num_filters),
                           kernel_size * in_dim, num_filters)
        b = Tensor(np.zeros(num_filters), requires_grad=True)
        return cls(w, b)


@dataclass
class LstmParams(Params):
    """Gate and recurrent weights for one LSTM layer, stacked in the gate
    order i, f, o, u: ``w`` (4H, d), ``u`` (4H, H) and ``b`` (4H,). Row
    block j*H:(j+1)*H of each stack belongs to gate j (``w.data[H:2H]`` is
    the forget gate's input weights).
    """

    input_dim: int
    hidden_dim: int
    w: Tensor
    u: Tensor
    b: Tensor

    def __post_init__(self):
        hd = 4 * self.hidden_dim
        for t, shape in zip((self.w, self.u, self.b),
                            ((hd, self.input_dim), (hd, self.hidden_dim), (hd,))):
            if t.data.shape != shape:
                raise ShapeError(f"lstm: stack shape {t.data.shape}, expected {shape}")

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        # One (4H, d) draw is the four gates' (H, d) draws in order.
        w = glorot_uniform(rng, (4 * hidden_dim, input_dim), input_dim, hidden_dim)
        u = glorot_uniform(rng, (4 * hidden_dim, hidden_dim), hidden_dim, hidden_dim)
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim:2 * hidden_dim] = 1.0  # forget bias +1 so early training retains memory
        return cls(input_dim, hidden_dim, w, u, Tensor(b, requires_grad=True))

    def tensor_arrays(self) -> list:
        """Each stack's gate row blocks, not copied, named as checkpoints
        store them: ``w_i`` .. ``w_u``, ``u_i`` .. ``u_u``, ``b_i`` .. ``b_u``."""
        hd = self.hidden_dim
        return [(f"{name}_{gate}", t.data[j * hd:(j + 1) * hd])
                for name, t in self.tensors() for j, gate in enumerate("ifou")]


@dataclass
class DenseParams(Params):
    weights: Tensor  # (out, in)
    bias: Tensor     # (out,)

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator):
        w = glorot_uniform(rng, (out_dim, in_dim), in_dim, out_dim)
        b = Tensor(np.zeros(out_dim), requires_grad=True)
        return cls(w, b)


# Batch normalization's running-estimate momentum and variance epsilon.
BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5


@dataclass
class BatchNormParams(Params):
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def init(cls, dim: int):
        return cls(Tensor(np.ones(dim), requires_grad=True),
                   Tensor(np.zeros(dim), requires_grad=True),
                   np.zeros(dim), np.ones(dim))


@dataclass
class AttentionParams(Params):
    """Additive scoring vector + scalar bias for soft attention."""

    score_w: Tensor  # (dim,)
    score_b: Tensor  # ()

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator):
        return cls(glorot_uniform(rng, (dim,), dim, 1),
                   Tensor(np.zeros(()), requires_grad=True))


# ---------------------------------------------------------------------------
# input projection


def _affine(x, w: np.ndarray, b: np.ndarray):
    """z = x @ w.T + b for w (out, d), b (out,), over a dense (rows, d)
    Tensor or ``GatheredRows``.

    Returns z, the tensor the op reads (``x``, or the table the rows are
    gathered from), and ``input_grads(dz)``, which gives (dW, the gradient
    of that tensor) from dz = dL/dz. That gradient is a ``Fresh`` array for
    a dense ``x``, a ``RowGrad`` for gathered rows, or None.
    """
    if isinstance(x, GatheredRows):
        return x.project(w, b), x.table, lambda dz: x.project_grads(dz, w)
    xd = x.data
    z = xd @ w.T
    z += b  # in place: no second array of z's size
    return z, x, lambda dz: (dz.T @ xd, Fresh(dz @ w) if x.requires_grad else None)


# ---------------------------------------------------------------------------
# convolution


def _conv_windows(x: Tensor, n: int, l: int, k: int) -> Tensor:
    """(l*n, d) -> ((l-k+1)*n, k*d): row j*n + e is window j of example e.

    Column block i of the window rows is the contiguous row slice
    x[i*n : (i+w)*n] with w = l-k+1, so the forward is k slices side by side
    and the backward k slice-adds.
    """
    w, d = l - k + 1, x.data.shape[1]
    xd = x.data

    def grad_fn(g):
        dx = np.zeros_like(xd)
        for i in range(k):
            dx[i * n:(i + w) * n] += g[:, i * d:(i + 1) * d]
        return (Fresh(dx),)

    return apply_op(np.concatenate([xd[i * n:(i + w) * n] for i in range(k)], axis=1),
                    (x,), grad_fn)


def conv1d_batch(x, n: int, l: int, p: Conv1dParams) -> Tensor:
    """Valid 1-d convolution with ReLU over a step-major batch.

    (l*n, d) -> ((l-k+1)*n, F). ``x`` is a dense Tensor or ``GatheredRows``;
    with k = 1 the windows are the rows, so gathered rows are projected once
    per distinct row, and with k > 1 they are gathered densely first. The
    affine map and ReLU are one op.
    """
    k, d, f = p.weights.shape
    if x.shape != (l * n, d):
        raise ShapeError(f"conv1d: expected ({l * n}, {d}) input, got {x.shape}")
    if l < k:
        raise ValueError(f"conv1d: input length {l} shorter than kernel size {k}")
    if k > 1:
        x = _conv_windows(x.dense() if isinstance(x, GatheredRows) else x, n, l, k)
    w = p.weights.data.reshape(k * d, f).T  # (F, k*d) view
    z, source, input_grads = _affine(x, w, p.bias.data)
    mask = z > 0

    def grad_fn(g):
        dz = g * mask
        dw, dx = input_grads(dz)
        return dx, dw.T.reshape(k, d, f), Fresh(dz.sum(axis=0))

    return apply_op(relu_array(z, out=z), (source, p.weights, p.bias), grad_fn)


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Valid 1-d convolution with ReLU: (l, d) -> (l-k+1, F)."""
    if x.data.ndim != 2:
        raise ShapeError(f"conv1d expects rank-2 input, got {x.data.shape}")
    return conv1d_batch(x, 1, x.data.shape[0], p)


# ---------------------------------------------------------------------------
# LSTM


def lstm_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmParams):
    """One LSTM cell update; returns (h_t, c_t).

    i, f, o are sigmoid gates; u = tanh(W_u x_t + U_u h_prev + b_u);
    c_t = i*u + f*c_prev; h_t = o*tanh(c_t). The four pre-activations are
    one stacked W x_t + U h_prev + b, cut into its gate rows.
    """
    hd = p.hidden_dim
    z = reshape(add(add(matvec(p.w, x_t), matvec(p.u, h_prev)), p.b), (4, hd))
    i, f, o, u = (act(reshape(slice_rows(z, j, j + 1), (hd,)))
                  for j, act in enumerate((sigmoid, sigmoid, sigmoid, tanh)))
    c_t = add(mul(i, u), mul(f, c_prev))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def lstm_sequence_batch(x, n: int, l: int, p: LstmParams):
    """Run an LSTM over a step-major batch, zero initial state.

    Returns (H, h_last): H is (l*n, hidden) step-major, h_last is the
    (n, hidden) final hidden state.

    The whole recurrence is one fused op with a hand-written BPTT backward,
    so a sequence records 2 tape nodes (H, and the slice that is h_last).
    It reads ``p``'s stacks, W = ``p.w`` (4H, d), U = ``p.u`` (4H, H) and
    b = ``p.b`` (4H,) in the gate order i, f, o, u. The input projection
    x @ W.T + b is computed for all timesteps in one matmul before the time
    loop; each step then costs one h @ U.T, activates its gates in place and
    writes c and h straight into their buffers, using h_t's row as scratch
    for f * c_prev and tanh(c_t).

    The backward reads only what the forward saved: the activated gates
    (l*n, 4H), c and h (l*n, H). Walking time in reverse, it recomputes
    tanh(c_t) (``np.tanh`` of the same values gives the same bits) and,
    once the step's gate values and the state gradients have been read,
    writes the step's gate pre-activation gradients dZ over its rows of the
    gates buffer. That buffer then holds dZ (l*n, 4H), which gives the
    gradients of the input and of the three stacks. Overwriting is safe
    because the gates buffer belongs to this op alone and ``backward``
    consumes its tape, so the rule runs at most once. ``lstm_step``
    computes the same cell op by op.

    ``x`` is a dense (l*n, d) Tensor or ``GatheredRows``. Gathered rows are
    projected once per distinct row, x_r @ W.T + b, and the result spread
    over the slots is the gates buffer itself, so no (l*n, d) copy of the
    input exists. In the backward, dZ is summed per distinct row (S) and
    dW = S.T @ x_r and the table gradient S @ W are matmuls over distinct
    rows; the recurrence and BPTT are the same for both input kinds.
    """
    if l < 1:
        raise ValueError("lstm_sequence: empty sequence")
    if x.shape != (l * n, p.input_dim):
        raise ShapeError(f"lstm: expected ({l * n}, {p.input_dim}) input, got {x.shape}")
    hd = p.hidden_dim
    w, u, b = p.w.data, p.u.data, p.b.data

    # Forward. After step t, gates[rows] holds the activated i, f, o, u.
    gates, source, input_grads = _affine(x, w, b)
    h_all = np.empty((l * n, hd))
    c_all = np.empty((l * n, hd))
    # Step t of each buffer, and of each gate block, is entry t of its step
    # view: (n, width) rows, or one 1-D vector at n = 1, where an op costs
    # less numpy call overhead. The [..., a:b] gate slices serve both.
    zs, hs, cs = (a.reshape((l, n, -1) if n > 1 else (l, -1)) for a in (gates, h_all, c_all))
    z_ifo, z_i, z_f, z_o, z_u = (zs[..., a:b] for a, b in ((0, 3 * hd), (0, hd), (hd, 2 * hd),
                                                            (2 * hd, 3 * hd), (3 * hd, 4 * hd)))
    ut = u.T
    for t in range(l):
        z, c, h, s = zs[t], cs[t], hs[t], z_ifo[t]
        if t:
            z += hs[t - 1] @ ut
        # sigmoid_array on i, f, o and tanh on u, in place: 0.5 * t + 0.5
        # rounds as 0.5 * (1 + t) does, since halving is exact.
        s *= 0.5
        np.tanh(z, out=z)
        s *= 0.5
        s += 0.5
        # h_t's row holds f * c_prev, then tanh(c), then o * tanh(c)
        np.multiply(z_i[t], z_u[t], out=c)
        if t:
            c += np.multiply(z_f[t], cs[t - 1], out=h)
        np.tanh(c, out=h)
        h *= z_o[t]

    def grad_fn(g):
        # Runs at most once (backward consumes its tape), so step t's dZ
        # rows are written over its gate rows once nothing reads those.
        dh_rec = np.zeros((n, hd))   # dL/dh_t through step t+1
        dc_next = np.zeros((n, hd))  # dL/dc_t through step t+1
        for t in reversed(range(l)):
            rows = slice(t * n, (t + 1) * n)
            dz = gates[rows]
            gi, gf, go, gu = (dz[:, j * hd:(j + 1) * hd] for j in range(4))
            tc = np.tanh(c_all[rows])
            dh = g[rows] + dh_rec
            dc = dh * go * (1.0 - tc * tc) + dc_next
            blocks = (dc * gu * gi * (1.0 - gi),
                      (dc * c_all[t * n - n:t * n] * gf * (1.0 - gf)) if t else 0.0,
                      dh * tc * go * (1.0 - go),
                      dc * gi * (1.0 - gu * gu))
            if t:  # nothing reads the state gradients before step 0
                dc_next = dc * gf
            for j, block in enumerate(blocks):
                dz[:, j * hd:(j + 1) * hd] = block
            if t:
                dh_rec = dz @ u
        dw, dx = input_grads(gates)
        du = gates[n:].T @ h_all[:-n]
        return dx, Fresh(dw), Fresh(du), Fresh(gates.sum(axis=0))

    h_seq = apply_op(h_all, (source, p.w, p.u, p.b), grad_fn)
    return h_seq, slice_rows(h_seq, (l - 1) * n, l * n)


def lstm_sequence(x: Tensor, p: LstmParams) -> Tensor:
    """Fold the cell left-to-right over (l, input_dim); row t of the output
    is h_t."""
    if x.data.ndim != 2:
        raise ShapeError(f"lstm_sequence expects rank-2 input, got {x.data.shape}")
    h_all, _ = lstm_sequence_batch(x, 1, x.data.shape[0], p)
    return h_all


# ---------------------------------------------------------------------------
# dense / batchnorm / dropout


def dense(x: Tensor, p: DenseParams) -> Tensor:
    """x @ W.T + b over an (n, in) batch, as one op (``_affine``).

    The backward gives dx = g @ W, dW = g.T @ x and db = g summed over the
    batch.
    """
    xd, w = x.data, p.weights.data
    if xd.ndim != 2 or xd.shape[1] != w.shape[1]:
        raise ShapeError(f"dense: expected (n, {w.shape[1]}) input, got {xd.shape}")
    z, _, input_grads = _affine(x, w, p.bias.data)

    def grad_fn(g):
        dw, dx = input_grads(g)
        return dx, Fresh(dw), Fresh(g.sum(axis=0))

    return apply_op(z, (x, p.weights, p.bias), grad_fn)


def batchnorm(x: Tensor, p: BatchNormParams, mode: str) -> Tensor:
    """Batch normalization over axis 0 of an (n, dim) tensor.

    Train mode normalizes by the batch's population statistics and folds
    them into the running estimates; infer mode normalizes by the running
    estimates alone, so it never mutates state.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if x.data.ndim != 2 or x.data.shape[1] != p.gamma.data.shape[0]:
        raise ShapeError(f"batchnorm: expected (n, {p.gamma.data.shape[0]}), got {x.data.shape}")
    n = x.data.shape[0]
    gamma, beta = p.gamma, p.beta
    xd, gd = x.data, gamma.data

    if mode == "train":
        if n < 2:
            raise ValueError("batchnorm in train mode needs a batch of at least 2")
        mean = xd.mean(axis=0)
        var = xd.var(axis=0)
        p.running_mean += BN_MOMENTUM * (mean - p.running_mean)
        p.running_var += BN_MOMENTUM * (var - p.running_var)
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (xd - mean) * inv_std

        def grad_fn(g):
            dxhat = g * gd
            dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                  - xhat * (dxhat * xhat).sum(axis=0))
            return Fresh(dx), Fresh((g * xhat).sum(axis=0)), Fresh(g.sum(axis=0))
    else:
        inv_std = 1.0 / np.sqrt(p.running_var + BN_EPSILON)
        xhat = (xd - p.running_mean) * inv_std

        def grad_fn(g):
            return (Fresh(g * gd * inv_std), Fresh((g * xhat).sum(axis=0)),
                    Fresh(g.sum(axis=0)))

    return apply_op(gd * xhat + beta.data, (x, gamma, beta), grad_fn)


def dropout(x: Tensor, rate: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; in infer mode (or at rate 0) returns x itself."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "infer" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a generator")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return apply_op(x.data * keep, (x,), lambda g: (Fresh(g * keep),))


# ---------------------------------------------------------------------------
# attention


def soft_attention_batch(h: Tensor, n: int, l: int, p: AttentionParams) -> Tensor:
    """Reweight each example's time steps by softmaxed additive scores.

    Weights sum to 1 per example and are rescaled by l, so uniform
    attention is the identity and the output keeps the input's shape.

    One tape op with a hand-written backward. The forward makes the
    operations of the per-op composition in its order: scores
    s = tanh(h @ w + b), a max-shifted softmax over each example's l steps,
    times l, then each row of h times its weight.
    """
    if h.data.shape[0] != l * n:
        raise ShapeError(f"soft_attention: expected {l * n} rows, got {h.data.shape[0]}")
    hd, w = h.data, p.score_w.data
    s = np.tanh(hd @ w + p.score_b.data)                 # (l*n,)
    z = np.ascontiguousarray(s.reshape(l, n).T)          # (n, l)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    weights = (alpha * float(l)).T.reshape(l * n, 1)
    out = hd * weights

    def grad_fn(g):
        d_alpha = (g * hd).sum(axis=1).reshape(l, n).T * float(l)
        dot = (d_alpha * alpha).sum(axis=1, keepdims=True)
        ds = (alpha * (d_alpha - dot)).T.reshape(l * n)
        d_pre = ds * (1.0 - s * s)                       # through tanh
        # d_pre.sum() is a numpy scalar; the gradient of score_b is a 0-d array
        return (Fresh(g * weights + np.outer(d_pre, w)), Fresh(hd.T @ d_pre),
                Fresh(np.asarray(d_pre.sum())))

    return apply_op(out, (h, p.score_w, p.score_b), grad_fn)


def soft_attention(h: Tensor, p: AttentionParams) -> Tensor:
    """Per-example form over (l, dim)."""
    if h.data.ndim != 2:
        raise ShapeError(f"soft_attention expects rank-2, got {h.data.shape}")
    return soft_attention_batch(h, 1, h.data.shape[0], p)


# ---------------------------------------------------------------------------
# softmax cross-entropy


def softmax_ce(logits: Tensor, target):
    """Stabilized softmax with categorical cross-entropy, for logits (n, C)
    and a sequence of n int targets; one message is a batch of one.

    Returns (probs (n, C), loss), the loss being the batch mean. The
    gradient flows through the loss output; probs are detached.
    """
    x = logits.data
    if x.ndim != 2:
        raise ShapeError(f"softmax_ce expects (n, C) logits, got {x.shape}")
    n, c = x.shape
    t = np.asarray(target, dtype=np.intp)
    if t.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ValueError(f"target out of range for {c} classes")
    z = x - x.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    probs = np.exp(logp)

    def grad_fn(g):
        d = probs.copy()
        d[np.arange(n), t] -= 1.0
        return (Fresh(g * d / n),)

    loss = apply_op(np.asarray(-logp[np.arange(n), t].mean()), (logits,), grad_fn)
    return Tensor(probs), loss
