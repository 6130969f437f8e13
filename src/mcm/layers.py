"""Neural building blocks: 1-d convolution, LSTM, dense, batch norm,
dropout, soft attention, and softmax cross-entropy.

Every layer comes in a per-example form matching its mathematical
definition, and where the model needs throughput there is a batched twin
operating on a flattened step-major layout: a batch of n sequences of
length l is one rank-2 tensor of shape (l*n, d) whose row t*n + e is time
step t of example e. With n=1 the two layouts coincide, so the per-example
functions are the batched ones specialized.

The hot paths have fused backward rules. ``lstm_sequence_batch`` is one
tape op for the whole recurrence: it reads the four gates from the stacks
that are ``LstmParams``' storage, the input projection for all timesteps
is a single matmul before the time loop, and backpropagation through time
is written out by hand, so a sequence records 2 tape nodes.
``lstm_step`` keeps the op-by-op cell as the public single-step form and
as its test oracle. The convolution builds its windows from k contiguous
row slices, so its backward is k slice-adds; its affine map and ReLU are
one op, as are ``dense``'s.

The LSTM and the convolution with k = 1 also take their input as
``GatheredRows``: embedded token rows held as the distinct ids. Their
input projection then runs once per distinct id and is spread over the
token slots, and the backward sums the slots' gradients per distinct id
before the weight and table gradient matmuls, so those three matmuls cost
in distinct ids, not in slots. ``_affine`` computes the projection and its
gradients for either input kind.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    GatheredRows,
    ShapeError,
    Tensor,
    add,
    apply_op,
    expand_cols,
    expand_scalar,
    matvec,
    mul,
    reshape,
    scale,
    sigmoid,
    sigmoid_array,
    slice_rows,
    softmax,
    tanh,
    transpose,
)


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class Conv1dParams:
    """One bank of F filters over windows of k word vectors of width d."""

    kernel_size: int
    in_dim: int
    num_filters: int
    weights: Tensor  # (k, d, F)
    bias: Tensor     # (F,)

    @classmethod
    def init(cls, kernel_size: int, in_dim: int, num_filters: int, rng: np.random.Generator):
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        w = glorot_uniform(rng, (kernel_size, in_dim, num_filters),
                           kernel_size * in_dim, num_filters)
        b = Tensor(np.zeros(num_filters), requires_grad=True)
        return cls(kernel_size, in_dim, num_filters, w, b)

    def tensors(self):
        return [("weights", self.weights), ("bias", self.bias)]


@dataclass
class LstmParams:
    """Gate and recurrent weights for one LSTM layer.

    The storage is three stacks in the gate order i, f, o, u: ``w`` (4H, d),
    ``u`` (4H, H) and ``b`` (4H,). Each of the 12 per-gate tensors holds a
    row-block view of its stack (``w_f.data`` is ``w[H:2H]``), so the fused
    sequence reads the stacks directly, and an in-place write to a gate
    (the optimizer, checkpoint loading) is a write to its stack. Rebinding
    a gate's ``.data`` detaches it from the stack; a copy or a pickle round
    trip passes the gates back through the constructor, which stacks them
    anew.
    """

    input_dim: int
    hidden_dim: int
    w_i: Tensor
    w_f: Tensor
    w_o: Tensor
    w_u: Tensor
    u_i: Tensor
    u_f: Tensor
    u_o: Tensor
    u_u: Tensor
    b_i: Tensor
    b_f: Tensor
    b_o: Tensor
    b_u: Tensor
    w: np.ndarray = field(init=False, repr=False, compare=False)
    u: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hd, gates = self.hidden_dim, [t for _, t in self.tensors()]
        stacks = []
        for k, shape in zip((0, 4, 8), ((hd, self.input_dim), (hd, hd), (hd,))):
            group = gates[k:k + 4]
            if any(t.data.shape != shape for t in group):
                raise ShapeError(f"lstm: gate shapes {[t.data.shape for t in group]}, "
                                 f"expected {shape}")
            stack = np.concatenate([t.data for t in group])
            for j, t in enumerate(group):
                t.data = stack[j * hd:(j + 1) * hd]
            stacks.append(stack)
        self.w, self.u, self.b = stacks

    def __reduce__(self):
        return type(self), (self.input_dim, self.hidden_dim, *(t for _, t in self.tensors()))

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        def w():
            return glorot_uniform(rng, (hidden_dim, input_dim), input_dim, hidden_dim)

        def u():
            return glorot_uniform(rng, (hidden_dim, hidden_dim), hidden_dim, hidden_dim)

        def b(value=0.0):
            return Tensor(np.full(hidden_dim, value), requires_grad=True)

        # Forget bias starts at +1 so early training retains memory.
        return cls(input_dim, hidden_dim,
                   w(), w(), w(), w(), u(), u(), u(), u(),
                   b(), b(1.0), b(), b())

    def tensors(self):
        return [(name, getattr(self, name))
                for name in ("w_i", "w_f", "w_o", "w_u",
                             "u_i", "u_f", "u_o", "u_u",
                             "b_i", "b_f", "b_o", "b_u")]


@dataclass
class DenseParams:
    weights: Tensor  # (out, in)
    bias: Tensor     # (out,)
    activation: str = "none"  # "relu" or "none"

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator, activation: str = "none"):
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        w = glorot_uniform(rng, (out_dim, in_dim), in_dim, out_dim)
        b = Tensor(np.zeros(out_dim), requires_grad=True)
        return cls(w, b, activation)

    def tensors(self):
        return [("weights", self.weights), ("bias", self.bias)]


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5

    @classmethod
    def init(cls, dim: int, momentum: float = 0.1, epsilon: float = 1e-5):
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        return cls(Tensor(np.ones(dim), requires_grad=True),
                   Tensor(np.zeros(dim), requires_grad=True),
                   np.zeros(dim), np.ones(dim), momentum, epsilon)

    def tensors(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


@dataclass
class AttentionParams:
    """Additive scoring vector + scalar bias for soft attention."""

    score_w: Tensor  # (dim,)
    score_b: Tensor  # ()

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator):
        return cls(glorot_uniform(rng, (dim,), dim, 1),
                   Tensor(np.zeros(()), requires_grad=True))

    def tensors(self):
        return [("score_w", self.score_w), ("score_b", self.score_b)]


# ---------------------------------------------------------------------------
# input projection


def _affine(x, w: np.ndarray, b: np.ndarray):
    """z = x @ w.T + b for w (out, d), b (out,), over a dense (rows, d)
    Tensor or ``GatheredRows``.

    Returns z, the tensor the op reads (``x``, or the table the rows are
    gathered from), and ``input_grads(dz)``, which gives (dW, the gradient
    of that tensor) from dz = dL/dz.
    """
    if isinstance(x, GatheredRows):
        return x.project(w, b), x.table, lambda dz: x.project_grads(dz, w)
    xd = x.data
    return xd @ w.T + b, x, lambda dz: (dz.T @ xd, dz @ w if x.requires_grad else None)


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
        return (dx,)

    return apply_op(np.concatenate([xd[i * n:(i + w) * n] for i in range(k)], axis=1),
                    (x,), grad_fn)


def conv1d_batch(x, n: int, l: int, p: Conv1dParams) -> Tensor:
    """Valid 1-d convolution with ReLU over a step-major batch.

    (l*n, d) -> ((l-k+1)*n, F). ``x`` is a dense Tensor or ``GatheredRows``;
    with k = 1 the windows are the rows, so gathered rows are projected once
    per distinct row, and with k > 1 they are gathered densely first. The
    affine map and ReLU are one op.
    """
    k, d, f = p.kernel_size, p.in_dim, p.num_filters
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
        return dx, dw.T.reshape(k, d, f), dz.sum(axis=0)

    return apply_op(np.where(mask, z, 0.0), (source, p.weights, p.bias), grad_fn)


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
    c_t = i*u + f*c_prev; h_t = o*tanh(c_t).
    """
    def gate(w, u, b):
        return add(add(matvec(w, x_t), matvec(u, h_prev)), b)

    i = sigmoid(gate(p.w_i, p.u_i, p.b_i))
    f = sigmoid(gate(p.w_f, p.u_f, p.b_f))
    o = sigmoid(gate(p.w_o, p.u_o, p.b_o))
    u = tanh(gate(p.w_u, p.u_u, p.b_u))
    c_t = add(mul(i, u), mul(f, c_prev))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def lstm_sequence_batch(x, n: int, l: int, p: LstmParams):
    """Run an LSTM over a step-major batch, zero initial state.

    Returns (H, h_last): H is (l*n, hidden) step-major, h_last is the
    (n, hidden) final hidden state.

    The whole recurrence is one fused op with a hand-written BPTT backward,
    so a sequence records 2 tape nodes (H, and the slice that is h_last).
    It reads the stacks that are ``p``'s storage, W = ``p.w`` (4H, d),
    U = ``p.u`` (4H, H) and b = ``p.b`` (4H,) in the gate order i, f, o, u,
    so no per-call concatenation happens. The input projection
    x @ W.T + b is computed for all timesteps in one matmul before the time
    loop; each step then costs one h @ U.T. The backward fills one
    dZ (l*n, 4H) of gate pre-activation gradients walking time in reverse,
    turns it into the weight and input gradients with four matmuls, and
    splits those onto the 12 per-gate tensors, whose data are row blocks of
    the stacks. ``lstm_step`` computes the same cell op by op.

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
    params = [t for _, t in p.tensors()]  # w_i..w_u, u_i..u_u, b_i..b_u
    w, u, b = p.w, p.u, p.b

    # Forward. After step t, gates[rows] holds the activated i, f, o, u.
    gates, source, input_grads = _affine(x, w, b)
    h_all = np.empty((l * n, hd))
    c_all = np.empty((l * n, hd))
    tanh_c = np.empty((l * n, hd))
    for t in range(l):
        rows = slice(t * n, (t + 1) * n)
        z = gates[rows]
        if t:
            z += h_all[t * n - n:t * n] @ u.T
        z[:, :3 * hd] = sigmoid_array(z[:, :3 * hd])
        z[:, 3 * hd:] = np.tanh(z[:, 3 * hd:])
        gi, gf, go, gu = (z[:, j * hd:(j + 1) * hd] for j in range(4))
        c = gi * gu
        if t:
            c += gf * c_all[t * n - n:t * n]
        c_all[rows] = c
        tanh_c[rows] = np.tanh(c)
        h_all[rows] = go * tanh_c[rows]

    def grad_fn(g):
        dz_all = np.empty_like(gates)
        dh_rec = np.zeros((n, hd))   # dL/dh_t through step t+1
        dc_next = np.zeros((n, hd))  # dL/dc_t through step t+1
        for t in reversed(range(l)):
            rows = slice(t * n, (t + 1) * n)
            gi, gf, go, gu = (gates[rows, j * hd:(j + 1) * hd] for j in range(4))
            tc = tanh_c[rows]
            dh = g[rows] + dh_rec
            dc = dh * go * (1.0 - tc * tc) + dc_next
            dz = dz_all[rows]
            dz[:, 0:hd] = dc * gu * gi * (1.0 - gi)
            dz[:, hd:2 * hd] = (dc * c_all[t * n - n:t * n] * gf * (1.0 - gf)) if t else 0.0
            dz[:, 2 * hd:3 * hd] = dh * tc * go * (1.0 - go)
            dz[:, 3 * hd:] = dc * gi * (1.0 - gu * gu)
            dc_next = dc * gf
            dh_rec = dz @ u
        dw, dx = input_grads(dz_all)
        du = dz_all[n:].T @ h_all[:-n]
        db = dz_all.sum(axis=0)
        split = [np.split(a, 4) for a in (dw, du, db)]
        return (dx, *split[0], *split[1], *split[2])

    h_seq = apply_op(h_all, [source] + params, grad_fn)
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
    """activation(x @ W.T + b) as one op, for a single (in,) vector or an
    (n, in) batch.

    The backward gives dx = g @ W, dW = g.T @ x and db = g summed over the
    batch, with g masked by the ReLU; a vector input is the batch of one.
    """
    xd, w = x.data, p.weights.data
    if xd.ndim not in (1, 2):
        raise ShapeError(f"dense expects rank 1 or 2, got {xd.shape}")
    if xd.shape[-1] != w.shape[1]:
        raise ShapeError(f"dense: expected input width {w.shape[1]}, got {xd.shape}")
    z = xd @ w.T + p.bias.data
    relu_on = p.activation == "relu"
    if relu_on:
        mask = z > 0
        z = np.where(mask, z, 0.0)

    def grad_fn(g):
        if relu_on:
            g = g * mask
        g2 = g.reshape(-1, w.shape[0])
        return (g @ w if x.requires_grad else None,
                g2.T @ xd.reshape(-1, w.shape[1]), g2.sum(axis=0))

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
        p.running_mean += p.momentum * (mean - p.running_mean)
        p.running_var += p.momentum * (var - p.running_var)
        inv_std = 1.0 / np.sqrt(var + p.epsilon)
        xhat = (xd - mean) * inv_std

        def grad_fn(g):
            dxhat = g * gd
            dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                  - xhat * (dxhat * xhat).sum(axis=0))
            return dx, (g * xhat).sum(axis=0), g.sum(axis=0)
    else:
        inv_std = 1.0 / np.sqrt(p.running_var + p.epsilon)
        xhat = (xd - p.running_mean) * inv_std

        def grad_fn(g):
            return g * gd * inv_std, (g * xhat).sum(axis=0), g.sum(axis=0)

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
    return apply_op(x.data * keep, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# attention


def soft_attention_batch(h: Tensor, n: int, l: int, p: AttentionParams) -> Tensor:
    """Reweight each example's time steps by softmaxed additive scores.

    Weights sum to 1 per example and are rescaled by l, so uniform
    attention is the identity and the output keeps the input's shape.
    """
    if h.data.shape[0] != l * n:
        raise ShapeError(f"soft_attention: expected {l * n} rows, got {h.data.shape[0]}")
    scores = tanh(add(matvec(h, p.score_w), expand_scalar(p.score_b, l * n)))
    alpha = softmax(transpose(reshape(scores, (l, n))))        # (n, l), rows sum to 1
    weights = reshape(transpose(scale(alpha, float(l))), (l * n,))
    return mul(h, expand_cols(weights, h.data.shape[1]))


def soft_attention(h: Tensor, p: AttentionParams) -> Tensor:
    """Per-example form over (l, dim)."""
    if h.data.ndim != 2:
        raise ShapeError(f"soft_attention expects rank-2, got {h.data.shape}")
    return soft_attention_batch(h, 1, h.data.shape[0], p)


# ---------------------------------------------------------------------------
# softmax cross-entropy


def softmax_ce(logits: Tensor, target):
    """Stabilized softmax with categorical cross-entropy.

    Single form: logits (C,) and an int target; returns (probs (C,), loss).
    Batched form: logits (n, C) and an int sequence; the loss is the batch
    mean. The gradient flows through the loss output; probs are detached.
    """
    x = logits.data
    if x.ndim == 1:
        c = x.shape[0]
        t = int(target)
        if not 0 <= t < c:
            raise ValueError(f"target {t} out of range for {c} classes")
        z = x - x.max()
        logp = z - np.log(np.exp(z).sum())
        probs = np.exp(logp)

        def grad_fn(g):
            d = probs.copy()
            d[t] -= 1.0
            return (g * d,)

        loss = apply_op(np.asarray(-logp[t]), (logits,), grad_fn)
        return Tensor(probs), loss

    if x.ndim == 2:
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
            return (g * d / n,)

        loss = apply_op(np.asarray(-logp[np.arange(n), t].mean()), (logits,), grad_fn)
        return Tensor(probs), loss

    raise ShapeError(f"softmax_ce expects rank 1 or 2 logits, got {x.shape}")
