"""Tensor engine: op semantics, shape contracts, tape and backward."""
import numpy as np
import pytest

from mcm import tensor as T
from mcm.tensor import ShapeError, Tape, Tensor, backward

from .helpers import away_from_zero, gradcheck, max_rel_err, weighted_sum


class TestElementwise:
    def test_relu_clamps_negatives(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_symmetry_point(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_mul_is_elementwise(self):
        out = T.mul(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0]))
        assert np.array_equal(out.data, [4.0, 10.0, 18.0])

    def test_dispatcher_matches_named_ops(self):
        a, b = Tensor([1.0, -2.0]), Tensor([3.0, 4.0])
        assert np.array_equal(T.elementwise("add", a, b).data, (a.data + b.data))
        assert np.array_equal(T.elementwise("relu", a).data, [1.0, 0.0])

    def test_dispatcher_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            T.elementwise("pow", Tensor([1.0]))

    def test_binary_requires_second_operand(self):
        with pytest.raises(ValueError):
            T.elementwise("mul", Tensor([1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_sigmoid_stays_finite_at_extremes(self):
        out = T.sigmoid(Tensor([-1e4, 1e4]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == 0.0 and out.data[1] == 1.0


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_dot_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_matvec(self):
        out = T.matvec(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [3.0, 7.0])
        with pytest.raises(ShapeError):
            T.matvec(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))


class TestReduce:
    def test_max_over_axis0(self):
        out = T.reduce("max", Tensor([[1.0, 5.0], [3.0, 2.0]]), 0)
        assert np.array_equal(out.data, [3.0, 5.0])

    def test_mean_over_axis0(self):
        out = T.reduce("mean", Tensor([[1.0, 5.0], [3.0, 2.0]]), 0)
        assert np.array_equal(out.data, [2.0, 3.5])

    def test_sum_gradient_is_ones(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(x, 1), 0)
        backward(s, tape)
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            T.reduce("sum", Tensor([1.0, 2.0]), 1)

    def test_max_gradient_goes_to_first_argmax(self):
        # tie in column 0: first occurrence (row 0) wins
        x = Tensor([[1.0, 1.0], [1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_max(x, 0), 0)
        backward(s, tape)
        assert np.array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_max_gradient_mass_single_element_per_slice(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_max(x, 0), 0)
        backward(s, tape)
        assert np.array_equal((x.grad != 0).sum(axis=0), np.ones(4))


class TestConcat:
    def test_definition(self):
        out = T.concat([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])], axis=1)
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0, 4.0]])

    def test_single_tensor_is_identity(self):
        t = Tensor([1.0, 2.0])
        assert T.concat([t], axis=0) is t

    def test_pool_concat_width(self):
        # max-pool(F) ++ avg-pool(F) -> 2F feature vector
        f = 6
        m = Tensor(np.arange(24, dtype=float).reshape(4, f))
        pooled = T.concat([T.reduce_max(m, 0), T.reduce_mean(m, 0)], axis=0)
        assert pooled.shape == (2 * f,)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor([[1.0]]), Tensor([[1.0, 2.0]])], axis=0)

    def test_gradient_slices_back(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.scale(T.concat([a, b], 0), 2.0), 0)
        backward(s, tape)
        assert np.array_equal(a.grad, [2.0, 2.0])
        assert np.array_equal(b.grad, [2.0])


class TestStructureOps:
    def test_slice_rows(self):
        x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        with Tape() as tape:
            out = T.slice_rows(x, 1, 3)
            s = T.reduce_sum(T.reduce_sum(T.mul(out, out), 1), 0)
        backward(s, tape)
        assert np.array_equal(out.data, [[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(x.grad, [[0.0, 0.0], [4.0, 6.0], [8.0, 10.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            T.slice_rows(x, 3, 5)

    def test_transpose_and_reshape_round_trip(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            y = T.reshape(T.transpose(x), (2, 6))
            s = T.reduce_sum(T.reduce_sum(T.mul(y, y), 1), 0)
        backward(s, tape)
        assert max_rel_err(x.grad, 2 * x.data) < 1e-12

    def test_gather_rows(self):
        m = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        out = T.gather_rows(m, [2, 0, 2])
        assert np.array_equal(out.data, m.data[[2, 0, 2]])
        with pytest.raises(ValueError):
            T.gather_rows(m, [4])

    def test_gather_rows_scatter_adds(self):
        m = Tensor(np.zeros((4, 2)), requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(T.gather_rows(m, [3, 3]), 1), 0)
        backward(s, tape)
        expected = np.zeros((4, 2))
        expected[3] = 2.0
        assert np.array_equal(m.grad, expected)

    def test_gather_rows_skip_row_gets_no_gradient(self):
        m = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(T.gather_rows(m, [0, 1, 0], skip_row=0), 1), 0)
        backward(s, tape)
        assert np.array_equal(m.grad[0], [0.0, 0.0])
        assert np.array_equal(m.grad[1], [1.0, 1.0])

    def test_expand_ops(self):
        v = Tensor([1.0, 2.0], requires_grad=True)
        assert np.array_equal(T.expand_rows(v, 3).data, [[1, 2]] * 3)
        assert np.array_equal(T.expand_cols(v, 3).data, [[1, 1, 1], [2, 2, 2]])
        s = Tensor(np.asarray(2.5), requires_grad=True)
        assert np.array_equal(T.expand_scalar(s, 4).data, [2.5] * 4)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        p = T.softmax(Tensor(rng.normal(size=(5, 7))))
        assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p.data >= 0)


class TestRowSparseGrad:
    """gather_rows' row-sparse gradient against a dense np.add.at scatter."""

    @pytest.mark.parametrize("skip_row", [None, 0])
    @pytest.mark.parametrize("indices", [[3, 0, 3, 5, 3, 0, 7], [0, 0, 0], [6], list(range(8))])
    def test_equals_dense_scatter_bitwise(self, indices, skip_row):
        rng = np.random.default_rng(len(indices))
        m = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        idx = np.asarray(indices)
        r = rng.normal(size=(idx.size, 4))
        with Tape() as tape:
            s = weighted_sum(T.gather_rows(m, idx, skip_row=skip_row), r)
        backward(s, tape)
        keep = idx != skip_row
        dense = np.zeros((9, 4))
        np.add.at(dense, idx[keep], r[keep])
        assert m.grad.tobytes() == dense.tobytes()
        assert m.grad.flags.c_contiguous

    def test_two_gathers_accumulate_like_dense(self):
        rng = np.random.default_rng(3)
        m = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        a, b = np.array([1, 4, 1]), np.array([4, 2])
        ra, rb = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        with Tape() as tape:
            s = T.add(weighted_sum(T.gather_rows(m, a), ra),
                      weighted_sum(T.gather_rows(m, b), rb))
        backward(s, tape)
        za, zb = np.zeros((6, 2)), np.zeros((6, 2))
        np.add.at(za, a, ra)
        np.add.at(zb, b, rb)
        zb += za  # backward visits the later gather first
        assert m.grad.tobytes() == zb.tobytes()

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_dense_and_row_sparse_writes_accumulate(self, dense_first):
        m = Tensor(np.ones((5, 2)), requires_grad=True)
        with Tape() as tape:
            parts = [T.reduce_sum(T.reduce_sum(m, 1), 0),
                     T.reduce_sum(T.reduce_sum(T.gather_rows(m, [2, 2]), 1), 0)]
            s = T.add(*(parts if dense_first else parts[::-1]))
        backward(s, tape)
        assert np.array_equal(m.grad, [[1, 1], [1, 1], [3, 3], [1, 1], [1, 1]])

    def test_only_skipped_rows_give_zero_grad(self):
        m = Tensor(np.ones((4, 3)), requires_grad=True)
        with Tape() as tape:
            s = weighted_sum(T.gather_rows(m, [0, 0], skip_row=0), np.ones((2, 3)))
        backward(s, tape)
        assert np.array_equal(m.grad, np.zeros((4, 3)))

    def test_zero_grad_starts_the_next_backward_afresh(self):
        m = Tensor(np.ones((4, 3)), requires_grad=True)
        for rows in ([1], [2]):
            m.zero_grad()
            with Tape() as tape:
                s = weighted_sum(T.gather_rows(m, rows), np.ones((1, 3)))
            backward(s, tape)
        expected = np.zeros((4, 3))
        expected[2] = 1.0
        assert np.array_equal(m.grad, expected)


class TestBackward:
    def test_sum_gives_ones_any_shape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(x, 1), 0)
        backward(s, tape)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_derivative(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.mul(x, x), 0)
        backward(s, tape)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.add(x, x), 0)
        backward(s, tape)
        assert np.array_equal(x.grad, [2.0])

    def test_shared_gradient_array_is_copied_per_input(self):
        # add hands one gradient array to both inputs; a later accumulation
        # into a (from its earlier use) must not leak into b.
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        w = Tensor([5.0, 7.0])
        with Tape() as tape:
            sq = T.mul(a, a)
            s = T.add(a, b)
            total = T.add(T.reduce_sum(T.mul(s, w), 0), T.reduce_sum(sq, 0))
        backward(total, tape)
        assert a.grad is not b.grad
        assert a.grad is not s.grad and b.grad is not s.grad
        assert np.array_equal(b.grad, [5.0, 7.0])
        assert np.array_equal(a.grad, [5.0 + 2.0, 7.0 + 4.0])
        assert np.array_equal(s.grad, [5.0, 7.0])

    def test_add_to_itself_doubles_gradient(self):
        a = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 3.0, -1.5])
        with Tape() as tape:
            s = T.add(a, a)
            total = T.reduce_sum(T.mul(s, w), 0)
        backward(total, tape)
        assert np.array_equal(a.grad, 2.0 * w.data)
        assert np.array_equal(s.grad, w.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ValueError):
            backward(y, tape)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError):
            backward(Tensor(np.asarray(1.0), requires_grad=True), Tape())

    def test_random_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(away_from_zero(rng, (4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(5,)), requires_grad=True)

        def build():
            h = T.tanh(T.matmul(x, w))
            h = T.mul(T.relu(h), T.sigmoid(h))
            pooled = T.concat([T.reduce_max(h, 0), T.reduce_mean(h, 0)], axis=0)
            return T.reduce_sum(T.mul(T.concat([v, v], 0), pooled), 0)

        assert gradcheck(build, [x, w, v]) < 1e-4

    def test_no_recording_without_tape(self):
        x = Tensor([1.0], requires_grad=True)
        tape = Tape()
        y = T.mul(x, x)  # outside any tape: nothing recorded
        assert len(tape) == 0 and y.shape == (1,)


class TestDeterminism:
    def test_bitwise_identical_outputs_and_gradients(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            with Tape() as tape:
                out = T.sigmoid(T.matmul(x, w))
                s = T.reduce_sum(T.reduce_sum(out, 1), 0)
            backward(s, tape)
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        a, b = run(), run()
        for left, right in zip(a, b):
            assert np.array_equal(left, right)
