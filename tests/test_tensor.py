"""Tensor engine: op semantics, shape contracts, tape and backward."""
import numpy as np
import pytest

from mcm import tensor as T
from mcm.embeddings import PAD_ID, EmbeddingTable, lookup
from mcm.tensor import ShapeError, Tape, Tensor, backward

from .helpers import (
    away_from_zero,
    dense_grad,
    expand_cols,
    expand_rows,
    expand_scalar,
    gradcheck,
    matmul,
    max_rel_err,
    scale,
    softmax,
    traced_memory,
    transpose,
    weighted_sum,
)


class TestElementwise:
    def test_relu_clamps_negatives(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    # the values where a select and a max can differ: both zeros, NaN
    # (negative too), both infinities, subnormals and the extreme normals
    EDGES = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                      2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0,
                      np.finfo(float).max, -np.finfo(float).max])

    def test_relu_array_has_the_bits_of_the_select(self):
        want = np.where(self.EDGES > 0, self.EDGES, 0.0)
        assert T.relu_array(self.EDGES).tobytes() == want.tobytes()
        assert T.relu(Tensor(self.EDGES)).data.tobytes() == want.tobytes()
        out = self.EDGES.copy()
        assert T.relu_array(out, out=out) is out and out.tobytes() == want.tobytes()
        assert np.signbit(want).sum() == 0  # -0.0 and -NaN become +0.0

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
        out = matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
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
        out = matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

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
            s = T.reduce_sum(scale(T.concat([a, b], 0), 2.0), 0)
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
            y = T.reshape(transpose(x), (2, 6))
            s = T.reduce_sum(T.reduce_sum(T.mul(y, y), 1), 0)
        backward(s, tape)
        assert max_rel_err(x.grad, 2 * x.data) < 1e-12

    def test_gathered_rows_dense(self):
        m = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        out = T.GatheredRows(m, [2, 0, 2]).dense()
        assert np.array_equal(out.data, m.data[[2, 0, 2]])
        with pytest.raises(ValueError):
            T.GatheredRows(m, [4])

    def test_gathered_rows_dense_scatter_adds(self):
        m = Tensor(np.zeros((4, 2)), requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(T.GatheredRows(m, [3, 3]).dense(), 1), 0)
        backward(s, tape)
        expected = np.zeros((4, 2))
        expected[3] = 2.0
        assert np.array_equal(dense_grad(m), expected)

    def test_gathered_rows_dense_skip_row_gets_no_gradient(self):
        m = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(T.GatheredRows(m, [0, 1, 0], skip_row=0).dense(), 1),
                             0)
        backward(s, tape)
        assert np.array_equal(dense_grad(m)[0], [0.0, 0.0])
        assert np.array_equal(dense_grad(m)[1], [1.0, 1.0])

    def test_expand_ops(self):
        v = Tensor([1.0, 2.0], requires_grad=True)
        assert np.array_equal(expand_rows(v, 3).data, [[1, 2]] * 3)
        assert np.array_equal(expand_cols(v, 3).data, [[1, 1, 1], [2, 2, 2]])
        s = Tensor(np.asarray(2.5), requires_grad=True)
        assert np.array_equal(expand_scalar(s, 4).data, [2.5] * 4)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        p = softmax(Tensor(rng.normal(size=(5, 7))))
        assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p.data >= 0)


def lookup_rows(m, indices, skip_row=PAD_ID):
    """``lookup`` on a table whose vectors are ``m``; it skips PAD_ID only."""
    assert skip_row == PAD_ID
    return lookup(EmbeddingTable(m), indices)


def dense_rows(m, indices, skip_row=None):
    return T.GatheredRows(m, indices, skip_row).dense()


# The two ways to gather rows densely, which are one op; without a
# skip_row argument, lookup skips PAD_ID and dense skips nothing.
GATHERS = {"lookup": lookup_rows, "dense": dense_rows}


def gather_cases(skip_rows):
    """(gather name, skip_row) pairs: lookup goes with PAD_ID alone."""
    return [(name, skip) for name in GATHERS for skip in skip_rows
            if name != "lookup" or skip == PAD_ID]


class TestRowSparseGrad:
    """The dense row gather's row-sparse gradient against a dense np.add.at
    scatter into zeros, the rule it had before it became one op."""

    @pytest.mark.parametrize("neg_zero", [False, True], ids=["plain", "neg-zero"])
    @pytest.mark.parametrize("gather,skip_row", gather_cases([None, 0]))
    @pytest.mark.parametrize("indices", [[3, 0, 3, 5, 3, 0, 7], [0, 0, 0], [6], list(range(8))])
    def test_equals_dense_scatter_bitwise(self, indices, gather, skip_row, neg_zero):
        rng = np.random.default_rng(len(indices))
        m = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        idx = np.asarray(indices)
        r = rng.normal(size=(idx.size, 4))
        if neg_zero:  # every slot of the last id, and part of the first slot
            r[idx == idx[-1]] = -0.0
            r[0, :2] = -0.0
        with Tape() as tape:
            out = GATHERS[gather](m, idx, skip_row)
            s = weighted_sum(out, r)
        backward(s, tape)
        assert out.data.tobytes() == m.data[idx].tobytes()
        keep = idx != skip_row
        dense = np.zeros((9, 4))
        np.add.at(dense, idx[keep], r[keep])
        assert dense_grad(m).tobytes() == dense.tobytes()
        assert m.grad.values.flags.c_contiguous

    @pytest.mark.parametrize("gather", GATHERS)
    def test_a_table_without_grad_gets_none(self, gather):
        rng = np.random.default_rng(4)
        m = Tensor(rng.normal(size=(6, 3)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        idx = [2, 0, 2, 5]
        with Tape() as tape:
            out = GATHERS[gather](m, idx)
            s = T.reduce_sum(T.reduce_sum(T.mul(out, w), 1), 0)
        backward(s, tape)
        assert out.data.tobytes() == m.data[idx].tobytes()
        assert m.grad is None
        assert w.grad.tobytes() == m.data[idx].tobytes()

    @pytest.mark.parametrize("gather", GATHERS)
    def test_two_gathers_accumulate_like_dense(self, gather):
        rng = np.random.default_rng(3)
        m = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        a, b = np.array([1, 4, 1]), np.array([4, 2])
        ra, rb = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        with Tape() as tape:
            s = T.add(weighted_sum(GATHERS[gather](m, a), ra),
                      weighted_sum(GATHERS[gather](m, b), rb))
        backward(s, tape)
        za, zb = np.zeros((6, 2)), np.zeros((6, 2))
        np.add.at(za, a, ra)
        np.add.at(zb, b, rb)
        zb += za  # backward visits the later gather first
        assert dense_grad(m).tobytes() == zb.tobytes()

    @pytest.mark.parametrize("gather", GATHERS)
    @pytest.mark.parametrize("dense_first", [True, False])
    def test_dense_and_row_sparse_writes_accumulate(self, dense_first, gather):
        m = Tensor(np.ones((5, 2)), requires_grad=True)
        with Tape() as tape:
            parts = [T.reduce_sum(T.reduce_sum(m, 1), 0),
                     T.reduce_sum(T.reduce_sum(GATHERS[gather](m, [2, 2]), 1), 0)]
            s = T.add(*(parts if dense_first else parts[::-1]))
        backward(s, tape)
        assert np.array_equal(m.grad, [[1, 1], [1, 1], [3, 3], [1, 1], [1, 1]])

    @pytest.mark.parametrize("gather", GATHERS)
    def test_only_skipped_rows_give_zero_grad(self, gather):
        m = Tensor(np.ones((4, 3)), requires_grad=True)
        with Tape() as tape:
            s = weighted_sum(GATHERS[gather](m, [0, 0], 0), np.ones((2, 3)))
        backward(s, tape)
        assert np.array_equal(dense_grad(m), np.zeros((4, 3)))

    @pytest.mark.parametrize("gather", GATHERS)
    def test_zero_grad_starts_the_next_backward_afresh(self, gather):
        m = Tensor(np.ones((4, 3)), requires_grad=True)
        for rows in ([1], [2]):
            m.zero_grad()
            with Tape() as tape:
                s = weighted_sum(GATHERS[gather](m, rows), np.ones((1, 3)))
            backward(s, tape)
        expected = np.zeros((4, 3))
        expected[2] = 1.0
        assert np.array_equal(dense_grad(m), expected)

    @staticmethod
    def hand_grads(m, grads):
        """Backward of a graph that hands ``m`` each of ``grads`` (dense
        arrays, ``Fresh`` arrays or RowGrads) in list order."""
        with Tape() as tape:
            parts = [T.apply_op(np.zeros(()), (m,), lambda g, gi=gi: (gi,))
                     for gi in reversed(grads)]
            total = parts[0]
            for part in parts[1:]:
                total = T.add(total, part)
        backward(total, tape)

    @staticmethod
    def dense_accumulation(shape, grads):
        """The gradient a dense accumulation builds: a row-sparse first write
        starts from zeros, a dense one copies, and later writes add in place."""
        z = None
        for gi in grads:
            if isinstance(gi, T.RowGrad):
                z = np.zeros(shape) if z is None else z
                z[gi.rows] += gi.values
            else:
                z = gi.copy() if z is None else z + gi
        return z

    # Each write holds -0.0 values: a row's first -0.0 reads as 0.0 + -0.0.
    ROW_WRITES = [([1, 4, 6], [[-0.0, 1.5], [2.0, -0.0], [-0.0, -0.0]]),
                  ([0, 4, 7], [[0.25, -0.0], [-3.0, -0.0], [-0.0, -0.0]]),
                  ([4, 6, 7], [[-0.0, 7.0], [1e-300, -0.0], [-0.0, 0.5]])]

    @pytest.mark.parametrize("dense", ["none", "first", "last"])
    @pytest.mark.parametrize("writes", [1, 2, 3])
    def test_reads_as_dense_accumulation_bitwise(self, writes, dense):
        grads = [T.RowGrad(np.asarray(r), np.asarray(v)) for r, v in self.ROW_WRITES[:writes]]
        if dense != "none":
            d = np.random.default_rng(writes).normal(size=(8, 2))
            d[3] = -0.0
            grads = [d] + grads if dense == "first" else grads + [d]
        m = Tensor(np.ones((8, 2)), requires_grad=True)
        self.hand_grads(m, grads)
        want = self.dense_accumulation((8, 2), grads)
        assert dense_grad(m).tobytes() == want.tobytes()
        assert isinstance(m.grad, T.RowGrad) == (dense == "none")
        # reading keeps the row-sparse form
        assert dense_grad(m).tobytes() == want.tobytes()
        assert isinstance(m.grad, T.RowGrad) == (dense == "none")
        if dense == "none":
            rows = sorted({row for rows, _ in self.ROW_WRITES[:writes] for row in rows})
            assert m.grad.rows.tolist() == rows
            assert m.grad.values.tobytes() == want[rows].tobytes()

    def test_gradient_arrays_handed_over_are_not_written(self):
        g1 = T.RowGrad(np.array([2]), np.array([[1.0, 2.0]]))
        g2 = T.RowGrad(np.array([2, 3]), np.array([[4.0, 8.0], [16.0, 32.0]]))
        dense = np.ones((5, 2))
        m = Tensor(np.zeros((5, 2)), requires_grad=True)
        self.hand_grads(m, [g1, g2, dense])
        assert g1.values.tolist() == [[1.0, 2.0]] and dense.tolist() == [[1.0, 1.0]] * 5

    def test_empty_row_grad_is_a_zero_gradient(self):
        m = Tensor(np.ones((4, 3)), requires_grad=True)
        self.hand_grads(m, [T.RowGrad(np.zeros(0, dtype=np.intp), np.zeros((0, 3)))])
        assert isinstance(m.grad, T.RowGrad) and m.grad.rows.size == 0
        assert dense_grad(m).tobytes() == np.zeros((4, 3)).tobytes()

    @pytest.mark.parametrize("dense", [False, True])
    def test_zero_grad_clears_either_form(self, dense):
        m = Tensor(np.ones((4, 3)), requires_grad=True)
        grads = [T.RowGrad(np.array([1]), np.ones((1, 3)))] + [np.ones((4, 3))] * dense
        self.hand_grads(m, grads)
        assert m.grad is not None
        m.zero_grad()
        assert m.grad is None

    def test_a_write_through_grad_changes_the_gradient(self):
        # ``grad`` is the stored RowGrad itself, not an array built per read
        m = Tensor(np.ones((4, 3)), requires_grad=True)
        self.hand_grads(m, [T.RowGrad(np.array([1]), np.ones((1, 3)))])
        m.grad.values[...] *= 2.0
        assert dense_grad(m).tolist() == [[0.0] * 3, [2.0] * 3, [0.0] * 3, [0.0] * 3]


class TestFreshGrad:
    """A ``Fresh`` gradient array becomes the input's gradient itself when
    its layout is ``t.data``'s; any other is copied as a plain array is."""

    hand_grads = staticmethod(TestRowSparseGrad.hand_grads)

    def test_first_write_adopts_the_array_and_later_writes_add_into_it(self):
        m = Tensor(np.ones((3, 4)), requires_grad=True)
        first = np.arange(12.0).reshape(3, 4)
        self.hand_grads(m, [T.Fresh(first)])
        assert m.grad is first
        m.zero_grad()
        second = np.full((3, 4), 0.5)
        self.hand_grads(m, [T.Fresh(first), second])
        assert m.grad is first and np.array_equal(first, np.arange(12.0).reshape(3, 4) + 0.5)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "broadcast", "later"])
    def test_a_mismatched_or_later_array_is_copied(self, layout):
        m = Tensor(np.ones((3, 4)), requires_grad=True)
        want = np.arange(12.0).reshape(3, 4)
        g = {"fortran": np.asfortranarray(want), "strided": np.repeat(want, 2, axis=1)[:, ::2],
             "broadcast": np.zeros((1, 4)), "later": want.copy()}[layout]
        before = g.copy()
        grads = [np.zeros((3, 4)), T.Fresh(g)] if layout == "later" else [T.Fresh(g)]
        self.hand_grads(m, grads)
        assert m.grad is not g and m.grad.flags.c_contiguous
        assert np.array_equal(m.grad, np.broadcast_to(g, (3, 4)))
        assert np.array_equal(g, before)


class TestGatheredRows:
    """GatheredRows against the dense gather it stands for."""

    # 300 slots over 6 rows: long runs of equal keys, which an unstable sort
    # would reorder (short arrays sort stably either way)
    MANY = np.random.default_rng(7).integers(0, 6, size=300).tolist()

    @pytest.mark.parametrize("indices", [[3, 0, 3, 5, 3, 0, 7], [0, 0, 0], [6], MANY])
    def test_segment_sum_equals_add_at_scatter_bitwise(self, indices):
        rng = np.random.default_rng(len(indices))
        x = T.GatheredRows(Tensor(rng.normal(size=(9, 4))), indices)
        g = rng.normal(size=(len(indices), 5))
        scatter = np.zeros((9, 5))
        np.add.at(scatter, np.asarray(indices), g)
        assert x.segment_sum(g).tobytes() == scatter[x.rows].tobytes()

    def test_segment_sum_allocates_less_than_a_copy_of_g(self):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 50, size=2000)
        x = T.GatheredRows(Tensor(rng.normal(size=(50, 4))), indices)
        g = rng.normal(size=(indices.size, 256))  # 4 MB; the result is 100 kB
        _, _, peak = traced_memory(lambda: x.segment_sum(g))
        assert peak < g.nbytes

    @pytest.mark.parametrize("indices", [[3, 0, 3, 5, 3, 0, 7], [6], MANY])
    def test_project_equals_dense_affine(self, indices):
        rng = np.random.default_rng(11)
        m = Tensor(rng.normal(size=(9, 4)))
        w, b = rng.normal(size=(5, 4)), rng.normal(size=5)
        x = T.GatheredRows(m, indices)
        assert x.shape == (len(indices), 4)
        assert max_rel_err(x.project(w, b), m.data[indices] @ w.T + b) <= 1e-12
        assert np.array_equal(x.dense().data, m.data[indices])

    def test_a_dense_forward_finds_the_distinct_rows_only_for_its_backward(self, monkeypatch):
        m = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        idx = [4, 1, 4, 0]
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        with Tape() as tape:
            out = T.GatheredRows(m, idx, skip_row=0).dense()
            s = T.reduce_sum(T.reduce_sum(out, 1), 0)
        assert calls == [] and out.data.tobytes() == m.data[idx].tobytes()
        backward(s, tape)
        assert calls and m.grad.rows.tolist() == [1, 4]
        assert m.grad.values.tolist() == [[1.0, 1.0], [2.0, 2.0]]

    @pytest.mark.parametrize("skip_row", [None, 0])
    def test_project_grads_equal_dense_rule(self, skip_row):
        rng = np.random.default_rng(12)
        idx = np.asarray(self.MANY)
        m = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        w, dz = rng.normal(size=(5, 4)), rng.normal(size=(idx.size, 5))
        dw, dm = T.GatheredRows(m, idx, skip_row).project_grads(dz, w)
        keep = idx != skip_row
        dense = np.zeros((9, 4))
        np.add.at(dense, idx[keep], (dz @ w)[keep])
        assert max_rel_err(dw, dz.T @ m.data[idx]) <= 1e-12
        assert list(dm.rows) == sorted(set(idx[keep].tolist()))
        assert max_rel_err(dm.values, dense[dm.rows]) <= 1e-12
        m.requires_grad = False
        assert T.GatheredRows(m, idx, skip_row).project_grads(dz, w)[1] is None

    @pytest.mark.parametrize("gather", ["GatheredRows", *GATHERS])
    def test_checks_its_indices(self, gather):
        make = {"GatheredRows": T.GatheredRows, **GATHERS}[gather]
        m = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="out of range"):
            make(m, [1, 4])
        with pytest.raises(ValueError, match="out of range"):
            make(m, [-1])
        with pytest.raises(ShapeError):
            make(m, [[1]])
        if gather != "lookup":  # an EmbeddingTable's vectors are rank 2
            with pytest.raises(ShapeError):
                make(Tensor(np.zeros(4)), [1])


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

    def test_a_differentiated_tape_is_refused(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            s = T.reduce_sum(T.mul(x, x), 0)
        backward(s, tape)
        with pytest.raises(ValueError, match="tape already differentiated"):
            backward(s, tape)
        assert np.array_equal(x.grad, [2.0, 4.0])  # not added a second time

    def test_backward_frees_the_chains_activations_and_gradients(self):
        # 20 ops over a 1 MB array: the tape's outputs and the gradients that
        # reach them are 40 such arrays. Only the tape and x hold them.
        x = Tensor(np.random.default_rng(3).normal(size=(128, 1024)), requires_grad=True)

        def chain_and_backward():
            with Tape() as tape:
                h = x
                for k in range(20):
                    h = T.tanh(h) if k % 2 else scale(h, 0.5)
                total = T.reduce_sum(T.reduce_sum(h, 1), 0)
            del h
            nodes = len(tape)
            backward(total, tape)
            assert len(tape) == nodes == 22
            return tape

        _, held, _ = traced_memory(chain_and_backward)
        assert x.grad is not None
        assert held < 2 * x.data.nbytes  # x.grad and the emptied nodes

    def test_random_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(away_from_zero(rng, (4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(5,)), requires_grad=True)

        def build():
            h = T.tanh(matmul(x, w))
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
                out = T.sigmoid(matmul(x, w))
                s = T.reduce_sum(T.reduce_sum(out, 1), 0)
            backward(s, tape)
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        a, b = run(), run()
        for left, right in zip(a, b):
            assert np.array_equal(left, right)
