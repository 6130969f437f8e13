"""Layer semantics against independent oracles, plus gradient checks."""
import copy
import math
import pickle

import numpy as np
import pytest

from mcm import tensor as T
from mcm.embeddings import PAD_ID, init_random, lookup, lookup_distinct
from mcm.layers import (
    AttentionParams,
    BatchNormParams,
    Conv1dParams,
    DenseParams,
    LstmParams,
    batchnorm,
    conv1d,
    conv1d_batch,
    dense,
    dropout,
    lstm_sequence,
    lstm_sequence_batch,
    lstm_step,
    soft_attention,
    softmax_ce,
)
from mcm.tensor import Tape, Tensor, backward

from . import helpers
from .helpers import away_from_zero, gates_are_stack_views, gradcheck, max_rel_err


def conv_oracle(x, weights, bias):
    """Naive window loop: out[j, f] = relu(sum over window of x * W_f + b_f)."""
    k, d, f = weights.shape
    l = x.shape[0]
    out = np.zeros((l - k + 1, f))
    for j in range(l - k + 1):
        for ff in range(f):
            acc = bias[ff]
            for i in range(k):
                for dd in range(d):
                    acc += x[j + i, dd] * weights[i, dd, ff]
            out[j, ff] = max(acc, 0.0)
    return out


def lstm_step_oracle(x, h_prev, c_prev, p):
    """Scalar, gate-by-gate evaluation of the cell equations."""
    hid, inp = p.w_i.data.shape

    def affine(w, u, b, row):
        acc = b.data[row]
        for col in range(inp):
            acc += w.data[row, col] * x[col]
        for col in range(hid):
            acc += u.data[row, col] * h_prev[col]
        return acc

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = [sig(affine(p.w_i, p.u_i, p.b_i, r)) for r in range(hid)]
    f = [sig(affine(p.w_f, p.u_f, p.b_f, r)) for r in range(hid)]
    o = [sig(affine(p.w_o, p.u_o, p.b_o, r)) for r in range(hid)]
    u = [math.tanh(affine(p.w_u, p.u_u, p.b_u, r)) for r in range(hid)]
    c = [i[r] * u[r] + f[r] * c_prev[r] for r in range(hid)]
    h = [o[r] * math.tanh(c[r]) for r in range(hid)]
    return np.array(h), np.array(c), (i, f, o, u)


def conv_gather_reference(x, n, l, p):
    """conv1d_batch built from one row gather over all window positions."""
    k, d, f = p.kernel_size, p.in_dim, p.num_filters
    w = l - k + 1
    j = np.arange(w)[:, None, None]
    e = np.arange(n)[None, :, None]
    i = np.arange(k)[None, None, :]
    windows = T.reshape(T.gather_rows(x, ((j + i) * n + e).reshape(-1)), (w * n, k * d))
    pre = T.add(T.matmul(windows, T.reshape(p.weights, (k * d, f))), T.expand_rows(p.bias, w * n))
    return T.relu(pre)


def weighted_sum(outputs, rng):
    """Scalar sum of each output times fixed random weights."""
    total = None
    for out in outputs:
        term = T.reduce_sum(T.reduce_sum(T.mul(out, Tensor(rng.normal(size=out.shape))), 1), 0)
        total = term if total is None else T.add(total, term)
    return total


def lstm_step_chain(x, n, l, p):
    """(H, h_last) of a step-major batch from one lstm_step per row."""
    d, hd = p.input_dim, p.hidden_dim
    hs, cs = [Tensor(np.zeros(hd))] * n, [Tensor(np.zeros(hd))] * n
    rows = []
    for t in range(l):
        for e in range(n):
            x_te = T.reshape(T.slice_rows(x, t * n + e, t * n + e + 1), (d,))
            hs[e], cs[e] = lstm_step(x_te, hs[e], cs[e], p)
            rows.append(T.reshape(hs[e], (1, hd)))
    return T.concat(rows, axis=0), T.concat([T.reshape(h, (1, hd)) for h in hs], axis=0)


def lstm_run(seq_fn, x, n, l, p, seed=0):
    """Outputs and gradients (x first, then the 12 parameters) of a weighted
    sum over H and h_last."""
    params = [x] + [t for _, t in p.tensors()]
    for t in params:
        t.zero_grad()
    with Tape() as tape:
        h_all, h_last = seq_fn(x, n, l, p)
        total = weighted_sum([h_all, h_last], np.random.default_rng(seed))
    backward(total, tape)
    grads = [None if t.grad is None else t.grad.copy() for t in params]
    return h_all.data.copy(), h_last.data.copy(), grads


def zero_lstm(input_dim, hidden_dim):
    z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    return LstmParams(input_dim, hidden_dim,
                      z(hidden_dim, input_dim), z(hidden_dim, input_dim),
                      z(hidden_dim, input_dim), z(hidden_dim, input_dim),
                      z(hidden_dim, hidden_dim), z(hidden_dim, hidden_dim),
                      z(hidden_dim, hidden_dim), z(hidden_dim, hidden_dim),
                      z(hidden_dim), z(hidden_dim), z(hidden_dim), z(hidden_dim))


class TestConv1d:
    def test_single_filter_window_sum(self):
        p = Conv1dParams(1, 2, 1, Tensor([[[1.0], [0.0]]], requires_grad=True),
                         Tensor([0.0], requires_grad=True))
        out = conv1d(Tensor([[3.0, 7.0], [-2.0, 5.0]]), p)
        assert np.array_equal(out.data, [[3.0], [0.0]])

    def test_zero_weights_give_zero_map(self):
        rng = np.random.default_rng(0)
        p = Conv1dParams(2, 3, 4, Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(4)))
        out = conv1d(Tensor(rng.normal(size=(5, 3))), p)
        assert np.array_equal(out.data, np.zeros((4, 4)))

    def test_output_widths(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(7, 3)))
        k1 = Conv1dParams.init(1, 3, 2, rng)
        k2 = Conv1dParams.init(2, 3, 2, rng)
        assert conv1d(x, k1).shape == (7, 2)
        assert conv1d(x, k2).shape == (6, 2)

    def test_matches_window_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            l, k, d, f = rng.integers(2, 7), rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            if l < k:
                l = k
            p = Conv1dParams.init(int(k), int(d), int(f), rng)
            x = rng.normal(size=(l, d))
            out = conv1d(Tensor(x), p)
            assert max_rel_err(out.data, conv_oracle(x, p.weights.data, p.bias.data)) < 1e-12

    def test_input_too_short(self):
        rng = np.random.default_rng(3)
        p = Conv1dParams.init(4, 2, 1, rng)
        with pytest.raises(ValueError):
            conv1d(Tensor(rng.normal(size=(3, 2))), p)

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(4)
        p = Conv1dParams.init(2, 3, 5, rng)
        xs = [rng.normal(size=(6, 3)) for _ in range(4)]
        flat = np.stack(xs, axis=1).reshape(-1, 3)  # step-major
        out = conv1d_batch(Tensor(flat), 4, 6, p)
        for e, x in enumerate(xs):
            single = conv1d(Tensor(x), p)
            assert max_rel_err(out.data[e::4], single.data) < 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(5)
        p = Conv1dParams.init(2, 3, 2, rng)
        x = Tensor(away_from_zero(rng, (4, 3)), requires_grad=True)

        def build():
            out = conv1d(x, p)
            return T.reduce_sum(T.reduce_sum(T.mul(out, out), 1), 0)

        assert gradcheck(build, [x, p.weights, p.bias]) < 1e-4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gradients_match_gather_reference(self, k):
        rng = np.random.default_rng(30 + k)
        n, l, d, f = 3, 5, 4, 3
        p = Conv1dParams.init(k, d, f, rng)
        x = Tensor(rng.normal(size=(l * n, d)), requires_grad=True)
        results = []
        for conv in (conv1d_batch, conv_gather_reference):
            for t in (x, p.weights, p.bias):
                t.zero_grad()
            with Tape() as tape:
                out = conv(x, n, l, p)
                total = weighted_sum([out], np.random.default_rng(0))
            backward(total, tape)
            results.append([out.data, x.grad, p.weights.grad, p.bias.grad])
        for fast, ref in zip(*results):
            assert max_rel_err(fast, ref) <= 1e-12


class TestLstm:
    def test_all_zero_parameters(self):
        p = zero_lstm(2, 2)
        h, c = lstm_step(Tensor([1.0, -1.0]), Tensor([0.0, 0.0]), Tensor([0.0, 0.0]), p)
        assert np.array_equal(c.data, [0.0, 0.0])
        assert np.array_equal(h.data, [0.0, 0.0])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = LstmParams.init(2, 2, rng)
            x, hp, cp = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
            h, c = lstm_step(Tensor(x), Tensor(hp), Tensor(cp), p)
            oh, oc, gates = lstm_step_oracle(x, hp, cp, p)
            assert max_rel_err(h.data, oh) < 1e-12
            assert max_rel_err(c.data, oc) < 1e-12
            i, f, o, u = gates
            assert all(0 < v < 1 for v in i + f + o)
            assert all(-1 < v < 1 for v in u)

    def test_forget_gate_saturation_carries_memory(self):
        p = zero_lstm(2, 2)
        p.b_f.data[...] = 10.0
        _, c = lstm_step(Tensor([0.3, -0.4]), Tensor([0.0, 0.0]), Tensor([1.0, 1.0]), p)
        assert np.allclose(c.data, [1.0, 1.0], atol=1e-4)

    def test_sequence_single_step(self):
        rng = np.random.default_rng(7)
        p = LstmParams.init(3, 2, rng)
        x = rng.normal(size=(1, 3))
        h = lstm_sequence(Tensor(x), p)
        step_h, _ = lstm_step(Tensor(x[0]), Tensor(np.zeros(2)), Tensor(np.zeros(2)), p)
        assert max_rel_err(h.data[0], step_h.data) < 1e-12

    def test_zero_parameters_propagate_zero(self):
        p = zero_lstm(2, 3)
        h = lstm_sequence(Tensor(np.random.default_rng(8).normal(size=(4, 2))), p)
        assert np.array_equal(h.data, np.zeros((4, 3)))

    def test_sequence_equals_chained_steps(self):
        rng = np.random.default_rng(9)
        p = LstmParams.init(3, 2, rng)
        x = rng.normal(size=(3, 3))
        h_all = lstm_sequence(Tensor(x), p)
        h, c = Tensor(np.zeros(2)), Tensor(np.zeros(2))
        for t in range(3):
            h, c = lstm_step(Tensor(x[t]), h, c, p)
            assert max_rel_err(h_all.data[t], h.data) < 1e-12

    def test_empty_sequence_rejected(self):
        p = LstmParams.init(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm_sequence(Tensor(np.zeros((0, 2))), p)

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(10)
        p = LstmParams.init(3, 4, rng)
        xs = [rng.normal(size=(5, 3)) for _ in range(3)]
        flat = np.stack(xs, axis=1).reshape(-1, 3)
        h_all, h_last = lstm_sequence_batch(Tensor(flat), 3, 5, p)
        for e, x in enumerate(xs):
            single = lstm_sequence(Tensor(x), p)
            assert max_rel_err(h_all.data[e::3], single.data) < 1e-10
            assert max_rel_err(h_last.data[e], single.data[-1]) < 1e-10

    def test_gradients(self):
        rng = np.random.default_rng(11)
        p = LstmParams.init(2, 2, rng)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def build():
            h = lstm_sequence(x, p)
            return T.reduce_sum(T.reduce_sum(T.mul(h, h), 1), 0)

        params = [x] + [t for _, t in p.tensors()]
        assert gradcheck(build, params) < 1e-4


class TestFusedLstm:
    """lstm_sequence_batch against a chain of lstm_step calls."""

    @pytest.mark.parametrize("n,l", [(3, 4), (1, 5), (4, 1), (1, 1)])
    def test_matches_step_chain(self, n, l):
        rng = np.random.default_rng(40 + 10 * n + l)
        p = LstmParams.init(3, 4, rng)
        for _, t in p.tensors()[8:]:
            t.data[...] = rng.normal(size=t.shape)  # biases off their init values
        x = Tensor(rng.normal(size=(l * n, 3)), requires_grad=True)
        fused = lstm_run(lstm_sequence_batch, x, n, l, p)
        chain = lstm_run(lstm_step_chain, x, n, l, p)
        assert max_rel_err(fused[0], chain[0]) <= 1e-12
        assert max_rel_err(fused[1], chain[1]) <= 1e-12
        for g_fused, g_chain in zip(fused[2], chain[2]):
            assert max_rel_err(g_fused, g_chain) <= 1e-12

    def test_input_without_grad(self):
        rng = np.random.default_rng(50)
        p = LstmParams.init(3, 2, rng)
        x = Tensor(rng.normal(size=(3 * 2, 3)))
        fused = lstm_run(lstm_sequence_batch, x, 2, 3, p)
        chain = lstm_run(lstm_step_chain, x, 2, 3, p)
        assert fused[2][0] is None
        for g_fused, g_chain in zip(fused[2][1:], chain[2][1:]):
            assert max_rel_err(g_fused, g_chain) <= 1e-12

    def test_gradcheck(self):
        rng = np.random.default_rng(51)
        n, l = 2, 3
        p = LstmParams.init(2, 2, rng)
        x = Tensor(rng.normal(size=(l * n, 2)), requires_grad=True)
        weights = np.random.default_rng(0)
        r_all, r_last = weights.normal(size=(l * n, 2)), weights.normal(size=(n, 2))

        def build():
            h_all, h_last = lstm_sequence_batch(x, n, l, p)
            return T.add(T.reduce_sum(T.reduce_sum(T.mul(h_all, Tensor(r_all)), 1), 0),
                         T.reduce_sum(T.reduce_sum(T.mul(h_last, Tensor(r_last)), 1), 0))

        assert gradcheck(build, [x] + [t for _, t in p.tensors()]) < 1e-6

    def test_bitwise_identical_runs(self):
        def run():
            rng = np.random.default_rng(52)
            p = LstmParams.init(5, 3, rng)
            x = Tensor(rng.normal(size=(4 * 3, 5)), requires_grad=True)
            return lstm_run(lstm_sequence_batch, x, 3, 4, p)

        a, b = run(), run()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for left, right in zip(a[2], b[2]):
            assert np.array_equal(left, right)

    def test_records_two_tape_nodes(self):
        rng = np.random.default_rng(53)
        p = LstmParams.init(3, 2, rng)
        x = Tensor(rng.normal(size=(5 * 2, 3)), requires_grad=True)
        with Tape() as tape:
            lstm_sequence_batch(x, 2, 5, p)
        assert len(tape) == 2


class TestStackedGates:
    """The stacks ``w``, ``u``, ``b`` are ``LstmParams``' storage and each
    per-gate tensor is a row block of them."""

    def test_init_and_constructor_make_views(self):
        rng = np.random.default_rng(54)
        p = LstmParams.init(3, 2, rng)
        assert gates_are_stack_views(p)
        assert p.w.shape == (8, 3) and p.u.shape == (8, 2) and p.b.shape == (8,)
        assert np.array_equal(p.b, [0, 0, 1, 1, 0, 0, 0, 0])  # forget bias +1
        q = zero_lstm(3, 2)
        assert gates_are_stack_views(q) and not q.w.any()

    def test_misshapen_gate_rejected(self):
        z = lambda *s: Tensor(np.zeros(s))
        with pytest.raises(ValueError, match="gate shapes"):
            LstmParams(3, 2, z(2, 3), z(2, 3), z(2, 3), z(3, 3),
                       z(2, 2), z(2, 2), z(2, 2), z(2, 2), z(2), z(2), z(2), z(2))

    def test_in_place_gate_edit_reaches_the_sequence(self):
        rng = np.random.default_rng(55)
        n, l = 2, 3
        p = LstmParams.init(3, 4, rng)
        x = Tensor(rng.normal(size=(l * n, 3)))
        before = lstm_sequence_batch(x, n, l, p)[0].data.copy()
        p.w_f.data[...] = rng.normal(size=p.w_f.shape)
        after = lstm_sequence_batch(x, n, l, p)[0].data
        assert not np.allclose(after, before)
        fresh = LstmParams(3, 4, *(Tensor(t.data.copy()) for _, t in p.tensors()))
        assert np.array_equal(after, lstm_sequence_batch(x, n, l, fresh)[0].data)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_keep_their_gates_views_of_their_own_stacks(self, how):
        p = LstmParams.init(3, 2, np.random.default_rng(56))
        p.b_f.requires_grad = False
        q = copy.deepcopy(p) if how == "deepcopy" else pickle.loads(pickle.dumps(p))
        assert gates_are_stack_views(q)
        for (name, a), (_, b) in zip(p.tensors(), q.tensors()):
            assert np.array_equal(a.data, b.data) and a.requires_grad == b.requires_grad, name
        assert not any(np.shares_memory(a, b) for a, b in ((p.w, q.w), (p.u, q.u), (p.b, q.b)))
        q.w_f.data[...] = 7.0  # an in-place write reaches the copy's stack only
        assert (q.w[2:4] == 7.0).all() and not (p.w == 7.0).any()


def first_layer_run(embed, layers, table, ids, n, l):
    """Outputs and gradients (every layer's parameters, then the table) of
    a weighted sum over the layers, all fed one ``embed(table, ids)``."""
    params = [t for _, p in layers for _, t in p.tensors()] + [table.vectors]
    for t in params:
        t.zero_grad()
    with Tape() as tape:
        x = embed(table, ids)
        outs = []
        for layer, p in layers:
            out = layer(x, n, l, p)
            outs.extend(out if isinstance(out, tuple) else [out])
        total = weighted_sum(outs, np.random.default_rng(0))
    backward(total, tape)
    return [o.data.copy() for o in outs], [None if t.grad is None else t.grad.copy()
                                           for t in params]


def first_layers(kind, d, rng):
    """(layer, params) pairs with every bias off zero."""
    layers = {"lstm": [(lstm_sequence_batch, LstmParams.init(d, 3, rng))],
              "conv1": [(conv1d_batch, Conv1dParams.init(1, d, 4, rng))],
              "conv2": [(conv1d_batch, Conv1dParams.init(2, d, 4, rng))]}
    layers["all"] = [layers["conv1"][0], layers["lstm"][0],
                     (lstm_sequence_batch, LstmParams.init(d, 2, rng))]
    for _, p in layers[kind]:
        for name, t in p.tensors():
            if name.startswith("b"):
                t.data[...] = rng.normal(size=t.shape)
    return layers[kind]


class TestGatheredInput:
    """lstm_sequence_batch and conv1d_batch fed ``lookup_distinct`` against
    the same layers fed the dense ``lookup``."""

    VOCAB = 9
    CASES = {
        "repeated": (3, 4, [[2, 5, 2, 2], [5, 5, 3, 2], [2, 2, 2, 7]]),
        "pad": (3, 4, [[2, 4, 0, 0], [6, 0, 0, 0], [4, 4, 2, 0]]),
        "all-pad": (2, 3, [[0, 0, 0], [0, 0, 0]]),
        "n=1": (1, 5, [[3, 1, 3, 0, 0]]),
        "l=1": (4, 1, [[3], [0], [3], [8]]),
        "range-ends": (2, 4, [[0, 1, 8, 8], [8, 1, 0, 0]]),
        "long": (8, 12, np.random.default_rng(3).integers(0, 5, size=(8, 12)).tolist()),
    }

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("case,kind", [(case, kind) for case in CASES
                                           for kind in ("lstm", "conv1", "conv2", "all")
                                           if not (kind == "conv2" and case == "l=1")])
    def test_matches_dense_lookup(self, case, kind, frozen):
        n, l, rows = self.CASES[case]
        rng = np.random.default_rng(60)
        d = 5
        table = init_random(self.VOCAB, d, rng, trainable=not frozen)
        layers = first_layers(kind, d, rng)
        ids = np.asarray(rows).T.reshape(-1)  # step-major
        outs_g, grads_g = first_layer_run(lookup_distinct, layers, table, ids, n, l)
        outs_d, grads_d = first_layer_run(lookup, layers, table, ids, n, l)
        for got, want in zip(outs_g, outs_d):
            assert max_rel_err(got, want) <= 1e-12
        for got, want in zip(grads_g, grads_d):
            if want is None:
                assert got is None
            else:
                assert max_rel_err(got, want) <= 1e-12
        if frozen:
            assert grads_g[-1] is None
        else:
            assert np.all(grads_g[-1][PAD_ID] == 0.0)
            assert np.all(grads_g[-1][ids[ids != PAD_ID]] != 0.0)

    def test_id_out_of_range_rejected_as_lookup_does(self):
        table = init_random(self.VOCAB, 3, np.random.default_rng(0))
        for embed in (lookup, lookup_distinct):
            for bad in ([[1, self.VOCAB]], [[-1, 2]]):
                with pytest.raises(ValueError, match="out of range"):
                    embed(table, np.asarray(bad).reshape(-1))


def dense_composition(x, p):
    """dense as the four tape ops it once was: matvec, or matmul by a
    transposed copy of W plus the bias expanded over the rows."""
    if x.data.ndim == 1:
        out = T.add(T.matvec(p.weights, x), p.bias)
    else:
        out = T.add(T.matmul(x, T.transpose(p.weights)),
                    T.expand_rows(p.bias, x.data.shape[0]))
    return T.relu(out) if p.activation == "relu" else out


class TestDense:
    @pytest.mark.parametrize("activation", ["relu", "none"])
    @pytest.mark.parametrize("shape", [(4,), (1, 4), (6, 4)])
    def test_one_op_matches_composition(self, shape, activation):
        rng = np.random.default_rng(14)
        p = DenseParams.init(4, 3, rng, activation)
        p.bias.data[...] = rng.normal(size=3)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        r = rng.normal(size=shape[:-1] + (3,))
        results = []
        for fn in (dense, dense_composition):
            for t in (x, p.weights, p.bias):
                t.zero_grad()
            with Tape() as tape:
                out = fn(x, p)
                backward(helpers.weighted_sum(out, r), tape)
            results.append([out.data] + [t.grad.copy() for t in (x, p.weights, p.bias)])
            if fn is dense:
                assert len(tape) == 2  # dense and the weighted sum
        if activation == "relu":
            assert (results[0][0] == 0).any() and (results[0][0] > 0).any()
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert max_rel_err(got, want) <= 1e-12

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(15)
        p = DenseParams.init(4, 3, rng)
        x = Tensor(rng.normal(size=(2, 4)))
        with Tape() as tape:
            backward(helpers.weighted_sum(dense(x, p), np.ones((2, 3))), tape)
        assert x.grad is None and p.weights.grad.shape == (3, 4)

    def test_width_mismatch_rejected(self):
        p = DenseParams.init(4, 3, np.random.default_rng(16))
        for shape in ((5,), (2, 5), (2, 2, 4)):
            with pytest.raises(T.ShapeError):
                dense(Tensor(np.zeros(shape)), p)

    def test_identity_weights_relu(self):
        p = DenseParams(Tensor(np.eye(2)), Tensor(np.zeros(2)), "relu")
        assert np.array_equal(dense(Tensor([1.0, -1.0]), p).data, [1.0, 0.0])

    def test_bias_only(self):
        p = DenseParams(Tensor(np.zeros((1, 3))), Tensor([5.0]), "none")
        assert np.array_equal(dense(Tensor([1.0, 2.0, 3.0]), p).data, [5.0])

    def test_matches_matmul_add_oracle(self):
        rng = np.random.default_rng(12)
        p = DenseParams.init(4, 3, rng)
        x = rng.normal(size=4)
        out = dense(Tensor(x), p)
        assert max_rel_err(out.data, p.weights.data @ x + p.bias.data) < 1e-12

    def test_batched_matches_single(self):
        rng = np.random.default_rng(13)
        p = DenseParams.init(4, 3, rng, "relu")
        xs = rng.normal(size=(5, 4))
        batched = dense(Tensor(xs), p)
        for e in range(5):
            assert max_rel_err(batched.data[e], dense(Tensor(xs[e]), p).data) < 1e-12


class TestBatchNorm:
    def test_train_normalizes_columns(self):
        rng = np.random.default_rng(14)
        p = BatchNormParams.init(3)
        out = batchnorm(Tensor(rng.normal(2.0, 3.0, size=(64, 3))), p, "train")
        assert np.all(np.abs(out.data.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(out.data.var(axis=0) - 1.0) < 1e-3)

    def test_zero_gamma_gives_beta(self):
        p = BatchNormParams.init(2)
        p.gamma.data[...] = 0.0
        p.beta.data[...] = [1.0, -2.0]
        out = batchnorm(Tensor(np.random.default_rng(15).normal(size=(8, 2))), p, "train")
        assert np.allclose(out.data, np.broadcast_to([1.0, -2.0], (8, 2)), atol=1e-12)

    def test_infer_uses_running_stats(self):
        p = BatchNormParams.init(2)
        x = np.random.default_rng(16).normal(size=(4, 2))
        out = batchnorm(Tensor(x), p, "infer")
        assert max_rel_err(out.data, x / np.sqrt(1.0 + p.epsilon)) < 1e-12

    def test_train_batch_of_one_rejected(self):
        p = BatchNormParams.init(2)
        with pytest.raises(ValueError):
            batchnorm(Tensor(np.ones((1, 2))), p, "train")

    def test_running_stats_update_only_in_train(self):
        p = BatchNormParams.init(2)
        x = Tensor(np.random.default_rng(17).normal(size=(8, 2)))
        batchnorm(x, p, "infer")
        assert np.array_equal(p.running_mean, np.zeros(2))
        batchnorm(x, p, "train")
        assert not np.array_equal(p.running_mean, np.zeros(2))

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_gradients(self, mode):
        rng = np.random.default_rng(18)
        p = BatchNormParams.init(3)
        # random scale/shift and a mixing loss so dL/dx does not collapse to
        # the O(epsilon) residual of the normalization invariance
        p.gamma.data[...] = rng.uniform(0.5, 2.0, size=3)
        p.beta.data[...] = rng.normal(size=3)
        p.running_mean[...] = rng.normal(size=3)
        p.running_var[...] = rng.uniform(0.5, 2.0, size=3)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)))

        def build():
            out = batchnorm(x, p, mode)
            return T.reduce_sum(T.reduce_sum(T.mul(T.tanh(out), w), 1), 0)

        assert gradcheck(build, [x, p.gamma, p.beta]) < 1e-4


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, "train", np.random.default_rng(0)) is x
        assert dropout(x, 0.0, "infer") is x

    def test_infer_is_exact_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.7, "infer") is x

    def test_survivor_fraction_and_mean(self):
        rng = np.random.default_rng(19)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.2, "train", rng)
        survivors = np.count_nonzero(out.data) / x.size
        assert abs(survivors - 0.8) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_gradient_matches_mask(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        with Tape() as tape:
            out = dropout(x, 0.5, "train", np.random.default_rng(20))
            s = T.reduce_sum(out, 0)
        backward(s, tape)
        assert np.array_equal(x.grad, (out.data != 0) * 2.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, "train", np.random.default_rng(0))


class TestSoftAttention:
    def test_identical_rows_are_fixed_point(self):
        rng = np.random.default_rng(21)
        p = AttentionParams.init(3, rng)
        h = Tensor(np.tile(rng.normal(size=3), (4, 1)))
        out = soft_attention(h, p)
        assert max_rel_err(out.data, h.data) < 1e-12

    def test_single_row_identity(self):
        rng = np.random.default_rng(22)
        p = AttentionParams.init(3, rng)
        h = Tensor(rng.normal(size=(1, 3)))
        assert max_rel_err(soft_attention(h, p).data, h.data) < 1e-12

    def test_highest_scoring_row_dominates(self):
        # equal-norm rows; row 0 scores higher under w = e_0
        p = AttentionParams(Tensor([1.0, 0.0]), Tensor(np.asarray(0.0)))
        h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        out = soft_attention(h, p)
        norms = np.linalg.norm(out.data, axis=1)
        assert norms[0] > norms[1] and norms[0] > norms[2]

    def test_weights_nonnegative_sum_to_one(self):
        rng = np.random.default_rng(23)
        p = AttentionParams.init(4, rng)
        h = Tensor(rng.normal(size=(6, 4)))
        out = soft_attention(h, p)
        assert out.shape == (6, 4)
        # recover alpha * l from the row scaling on a nonzero reference column
        ref = h.data[:, 0]
        alpha = out.data[:, 0] / np.where(ref == 0, 1.0, ref) / 6.0
        assert abs(alpha.sum() - 1.0) < 1e-9
        assert np.all(alpha >= 0)

    def test_gradients(self):
        rng = np.random.default_rng(24)
        p = AttentionParams.init(3, rng)
        h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def build():
            out = soft_attention(h, p)
            return T.reduce_sum(T.reduce_sum(T.mul(out, out), 1), 0)

        assert gradcheck(build, [h, p.score_w, p.score_b]) < 1e-4


class TestSoftmaxCe:
    def test_uniform_logits(self):
        probs, loss = softmax_ce(Tensor(np.zeros(4)), 2)
        assert np.allclose(probs.data, 0.25, atol=1e-12)
        assert abs(float(loss.data) - math.log(4)) < 1e-12

    def test_confident_correct_prediction(self):
        _, loss = softmax_ce(Tensor([10.0, -10.0]), 0)
        assert abs(float(loss.data) - math.log1p(math.exp(-20.0))) < 1e-15
        assert float(loss.data) == pytest.approx(2.061e-9, rel=1e-3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(25)
        logits = rng.normal(size=6)
        p1, _ = softmax_ce(Tensor(logits), 3)
        p2, _ = softmax_ce(Tensor(logits + 123.456), 3)
        assert max_rel_err(p1.data, p2.data) < 1e-12

    def test_loss_nonnegative_and_ln_c_at_uniform(self):
        for c in (2, 4, 12):
            _, loss = softmax_ce(Tensor(np.full(c, 3.3)), c - 1)
            assert abs(float(loss.data) - math.log(c)) < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_ce(Tensor(np.zeros(3)), 3)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(26)
        probs, _ = softmax_ce(Tensor(rng.normal(size=9) * 10), 0)
        assert abs(probs.data.sum() - 1.0) < 1e-9

    def test_batched_matches_single_mean(self):
        rng = np.random.default_rng(27)
        logits = rng.normal(size=(5, 4))
        targets = rng.integers(0, 4, size=5)
        probs, loss = softmax_ce(Tensor(logits), targets)
        singles = [softmax_ce(Tensor(logits[i]), int(targets[i])) for i in range(5)]
        assert max_rel_err(probs.data, np.stack([p.data for p, _ in singles])) < 1e-12
        assert abs(float(loss.data) - np.mean([float(l.data) for _, l in singles])) < 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(28)
        logits = Tensor(rng.normal(size=5), requires_grad=True)

        def build():
            _, loss = softmax_ce(logits, 2)
            return loss

        assert gradcheck(build, [logits]) < 1e-4
