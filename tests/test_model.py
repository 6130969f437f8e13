"""McM model: guards on the shape of its training graph, the fused time
pool against its per-op composition, the head order, each kind's shortest
input, the max_len bounds that training shares with checkpoint loading,
the type of each config field, each row of a batch against that row as a
batch of one, each head's probabilities, and a finite-difference check of
the whole model's gradient, and the one check of every size field."""
import dataclasses
import typing

import numpy as np
import pytest

from mcm import tensor as T
from mcm.embeddings import PAD_ID, init_random
from mcm.model import (
    KINDS,
    MAX_LEN_CEILING,
    BaselineConfig,
    McmConfig,
    McmModel,
    McmOutput,
    _pool_time,
    build_baseline,
    build_mcm,
    forward_batch,
    heads_loss,
    loss,
    probabilities,
)
from mcm.layers import softmax_ce
from mcm.tensor import Tape, Tensor, backward
from mcm.trainer import CHOICES, TrainConfig, infer_probabilities

from .helpers import (
    dense_grad,
    gradcheck,
    max_rel_err,
    numerical_grad,
    weighted_sum,
    wrong_typed,
)

# step-major batches hold few distinct ids: repeats within and across rows,
# and right-padding
IDS = np.array([[2, 5, 2, 7, 0, 0],
                [5, 5, 5, 5, 5, 3],
                [9, 2, 0, 0, 0, 0],
                [1, 9, 4, 2, 5, 0]])


def test_training_step_tape_stays_small():
    # Exact node counts of a training step (forward and loss) and of an
    # infer-mode forward, with and without attention. The three LSTMs record
    # 2 nodes each, and attention and each time pool 1; un-fusing any of
    # them puts nodes back on the tape (hundreds, for an LSTM).
    for attention, train_nodes, infer_nodes in ((True, 57, 42), (False, 55, 40)):
        cfg = McmConfig(vocab_size=30, embed_dim=8, num_classes=3, max_len=12, num_filters=4,
                        hidden_dim=4, dense1_dim=4, dense2_dim=3, attention=attention)
        rng = np.random.default_rng(0)
        model = build_mcm(cfg, init_random(cfg.vocab_size, cfg.embed_dim, rng), 0)
        ids = rng.integers(0, cfg.vocab_size, size=(5, cfg.max_len))
        with Tape() as infer_tape:
            forward_batch(model, ids[:1], "infer")
        assert len(infer_tape) == infer_nodes
        with Tape() as tape:
            total = loss(forward_batch(model, ids, "train", rng), rng.integers(0, 3, size=5))
        assert len(tape) == train_nodes
        backward(total, tape)
        assert all(t.grad is not None for t in model.parameters())


def pool_time_composition(flat, n, steps, width):
    """_pool_time as the 4 tape ops it once was."""
    cube = T.reshape(flat, (steps, n, width))
    return T.concat([T.reduce_max(cube, 0), T.reduce_mean(cube, 0)], axis=1)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("steps", [1, 5])
def test_pool_time_matches_composition(n, steps):
    # Values from {-1, 0, 1}: most (example, column) slices have tied
    # maxima, whose gradient goes to the first maximal step.
    rng = np.random.default_rng(10 * n + steps)
    flat = Tensor(rng.integers(-1, 2, size=(steps * n, 4)).astype(float), requires_grad=True)
    r = rng.normal(size=(n, 8))
    results = []
    for fn in (_pool_time, pool_time_composition):
        flat.zero_grad()
        with Tape() as tape:
            out = fn(flat, n, steps, 4)
            backward(weighted_sum(out, r), tape)
        results.append((out.data, flat.grad.copy()))
        if fn is _pool_time:
            assert len(tape) == 2  # the pool and the weighted sum
    (out, grad), (want, want_grad) = results
    assert np.array_equal(out, want)
    assert max_rel_err(grad, want_grad) <= 1e-12


def test_pool_time_gradcheck():
    n, steps = 3, 5
    rng = np.random.default_rng(11)
    flat = Tensor(rng.normal(size=(steps * n, 4)), requires_grad=True)
    r = rng.normal(size=(n, 8))
    assert gradcheck(lambda: weighted_sum(_pool_time(flat, n, steps, 4), r), [flat]) < 1e-6


def test_head_probabilities_are_the_softmaxes_of_the_head_logits():
    model, _ = tiny_mcm()
    out = forward_batch(model, IDS, "infer")
    assert [p.tobytes() for p in infer_probabilities(model, IDS)] == [
        probabilities(t).data.tobytes() for t in out]
    cfg = BaselineConfig(vocab_size=10, embed_dim=3, num_classes=3, max_len=IDS.shape[1],
                         num_filters=2, hidden_dim=2)
    baseline = build_baseline(cfg, init_random(10, 3, np.random.default_rng(1)), 1)
    (probs,) = infer_probabilities(baseline, IDS)
    assert probs.tobytes() == probabilities(baseline.head_logits(IDS, "infer")[0]).data.tobytes()


def test_the_head_order_is_written_once():
    assert McmModel.heads is McmOutput._fields
    assert McmModel.heads == ("cnn", "slstm", "lstm", "discriminator")
    assert loss is heads_loss


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_each_kinds_shortest_is_its_default_receptive_field(kind):
    # McM's default kernels 1 and 2 see 1 + 2 - 1 ids, the baseline's kernel 3
    cls = KINDS[kind]
    sizes = dict(vocab_size=10, embed_dim=4, num_classes=3)
    model = cls.build(cls.config_class(**sizes, max_len=cls.shortest),
                      init_random(10, 4, np.random.default_rng(0)), 0)
    probs = infer_probabilities(model, np.ones((2, cls.shortest), dtype=np.int64))
    assert [p.shape for p in probs] == [(2, 3)] * len(cls.heads)
    with pytest.raises(ValueError, match=rf"max_len {cls.shortest - 1} outside \[{cls.shortest},"):
        cls.config_class(**sizes, max_len=cls.shortest - 1)


@pytest.mark.parametrize("max_len", [MAX_LEN_CEILING + 1, 1, 12.0, True])
def test_training_configs_refuse_what_loading_refuses(max_len):
    table = init_random(10, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="max_len"):
        build_mcm(McmConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=max_len), table, 0)
    with pytest.raises(ValueError, match="max_len"):
        build_baseline(BaselineConfig(vocab_size=10, embed_dim=4, num_classes=3,
                                      max_len=max_len), table, 0)
    with pytest.raises(ValueError, match="max_len"):
        TrainConfig(max_len=max_len)


# the fields each config class needs, besides its defaults
REQUIRED = {McmConfig: dict(vocab_size=10, embed_dim=4, num_classes=3, max_len=6),
            BaselineConfig: dict(vocab_size=10, embed_dim=4, num_classes=3, max_len=6),
            TrainConfig: {}}


@pytest.mark.parametrize("cls,field,value", [
    pytest.param(cls, field, value, id=f"{cls.__name__}-{field}-{value!r}")
    for cls in REQUIRED
    for field, value in wrong_typed(cls, CHOICES if cls is TrainConfig else ())])
def test_a_config_refuses_a_value_of_the_wrong_type(cls, field, value):
    with pytest.raises(ValueError) as info:
        cls(**{**REQUIRED[cls], field: value})
    if cls is TrainConfig and field in CHOICES:
        assert str(info.value).startswith(f"{field}: invalid choice 'foo' (choose from ")
    else:
        assert str(info.value).startswith(f"{field} {value!r} is not ")


def test_a_config_takes_a_numpy_integer_for_an_int_and_an_int_for_a_float():
    cfg = McmConfig(vocab_size=np.int64(10), embed_dim=4, num_classes=3, max_len=np.int32(6),
                    dropout=0)
    assert cfg.dropout == 0 and cfg.vocab_size == 10
    assert TrainConfig(learning_rate=1, max_len=None, embedding_dim=np.int64(8)).learning_rate == 1


@pytest.mark.parametrize("field", ["vocab_size", "embed_dim", "num_classes", "kernel",
                                   "num_filters", "hidden_dim"])
def test_the_baseline_refuses_a_zero_dimension(field):
    cfg = BaselineConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6)
    with pytest.raises(ValueError, match="all dimensions must be positive"):
        build_baseline(dataclasses.replace(cfg, **{field: 0}),
                       init_random(10, 4, np.random.default_rng(0)), 0)


def int_fields(config_cls) -> set:
    return {name for name, hint in typing.get_type_hints(config_cls).items() if hint is int}


@pytest.mark.parametrize("kind,field", [(kind, field) for kind in sorted(KINDS)
                                        for field in sorted(int_fields(KINDS[kind].config_class))])
def test_a_model_config_refuses_any_int_field_at_zero(kind, field):
    config_cls = KINDS[kind].config_class
    message = "max_len 0 outside" if field == "max_len" else "^all dimensions must be positive$"
    with pytest.raises(ValueError, match=message):
        config_cls(**{**REQUIRED[config_cls], field: 0})


# The check that runs when a checkpoint is made, before any array is
# allocated, and the rule that sizes its arrays cover the same fields.
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_each_kinds_sizing_names_its_configs_int_fields_but_max_len(kind):
    cls = KINDS[kind]
    assert set(cls.sizing) == int_fields(cls.config_class) - {"max_len"}


def tiny_mcm(seed=0, **overrides):
    cfg = McmConfig(**{**dict(vocab_size=10, embed_dim=3, num_classes=3, max_len=IDS.shape[1],
                              num_filters=2, hidden_dim=2, dense1_dim=3, dense2_dim=2,
                              attention=True, dropout=0.0), **overrides})
    rng = np.random.default_rng(seed)
    model = build_mcm(cfg, init_random(cfg.vocab_size, cfg.embed_dim, rng), seed)
    return model, rng


def tiny_model(kind):
    if kind == "mcm":
        return tiny_mcm()[0]
    cfg = BaselineConfig(vocab_size=10, embed_dim=3, num_classes=3, max_len=IDS.shape[1],
                         num_filters=2, hidden_dim=2)
    return build_baseline(cfg, init_random(10, 3, np.random.default_rng(1)), 1)


@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_embed_gives_the_step_major_rows_of_the_batch(kind):
    model = tiny_model(kind)
    rows, n, l = model.embed(IDS)
    assert (n, l) == IDS.shape and rows.table is model.embedding.vectors
    assert np.array_equal(rows.dense().data, model.embedding.vectors.data[IDS.T.reshape(-1)])


@pytest.mark.parametrize("shape", [(6,), (2, 5), (2, 7), (1, 2, 6)])
@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_both_models_refuse_a_batch_that_is_not_n_by_max_len(kind, shape):
    model = tiny_model(kind)
    with pytest.raises(ValueError, match=r"expected \(n, 6\) ids"):
        model.head_logits(np.zeros(shape, dtype=np.int64), "infer")


def test_forward_row_equals_forward_batch_row():
    model, _ = tiny_mcm(dropout=0.2)
    batch = forward_batch(model, IDS, "infer")
    for i, row in enumerate(IDS):
        single = forward_batch(model, row[None], "infer")
        for name, value in single._asdict().items():
            want = getattr(batch, name).data[i:i + 1]
            assert value.data.shape == want.shape
            assert max_rel_err(value.data, want) <= 1e-12, name
        probs = single.probs_disc.data
        assert np.argmax(probs) == np.argmax(batch.probs_disc.data[i])
        assert max_rel_err(probs, batch.probs_disc.data[i:i + 1]) <= 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_every_output_field_has_its_shape(n):
    model, _ = tiny_mcm(num_classes=4, dense2_dim=5)
    # class scores are num_classes wide
    widths = {head: 4 for head in ("cnn", "slstm", "lstm", "discriminator")}
    batch = forward_batch(model, IDS[:n], "infer")
    assert {name: t.shape for name, t in batch._asdict().items()} == {
        name: (n, w) for name, w in widths.items()}
    assert [p.shape for p in infer_probabilities(model, IDS[:n])] == [(n, 4)] * 4


@pytest.mark.parametrize("stop", [True, False])
def test_stop_disc_gradients_keeps_the_discriminator_loss_out_of_the_learners(stop):
    model, rng = tiny_mcm(3, stop_disc_gradients=stop)
    shift_biases_off_zero(model, rng)
    with Tape() as tape:
        out = forward_batch(model, IDS, "train", rng)
        _, disc_ce = softmax_ce(out.discriminator, rng.integers(0, 3, size=len(IDS)))
    backward(disc_ce, tape)
    # Compared per component: in train mode the shift before a batchnorm has
    # a true gradient of 0, which rounding may or may not leave at 0.
    components = {name.split(".")[0] for name, _ in model.tensors()}
    reached = {name.split(".")[0] for name, t in model.tensors()
               if t.grad is not None and np.any(dense_grad(t) != 0)}
    assert reached == ({"disc"} if stop else components)


def shift_biases_off_zero(model, rng):
    # Pad rows and zero biases put the ReLUs exactly on their kink, where a
    # finite difference is meaningless.
    for name, t in model.tensors():
        if name.rsplit(".", 1)[1] in ("bias", "beta", "score_b", "b"):
            t.data[...] += rng.uniform(0.1, 0.5, size=t.shape) * rng.choice([-1.0, 1.0], t.shape)


def model_gradcheck(model, ids, mode, targets):
    """Per parameter name, the tape's gradient of ``loss`` and its central
    difference. The pad row of the table is frozen (its tape gradient is
    zero by design), so it is left out."""
    def value():
        return loss(forward_batch(model, ids, mode), targets)

    for p in model.parameters():
        p.zero_grad()
    with Tape() as tape:
        total = value()
    backward(total, tape)
    grads = {}
    for name, t in model.tensors():
        numeric = numerical_grad(lambda: float(value().data), t)
        analytic = dense_grad(t)
        if name == "embedding.vectors":
            assert np.all(analytic[PAD_ID] == 0.0)
            numeric, analytic = numeric[PAD_ID + 1:], analytic[PAD_ID + 1:]
        grads[name] = analytic, numeric
    return grads


def test_whole_model_gradcheck_infer_mode():
    model, rng = tiny_mcm(1)
    shift_biases_off_zero(model, rng)
    grads = model_gradcheck(model, IDS, "infer", rng.integers(0, 3, size=len(IDS)))
    assert max(max_rel_err(a, n) for a, n in grads.values()) < 1e-4


def test_whole_model_gradcheck_train_mode():
    # Train-mode batchnorm folds each forward's batch statistics into the
    # running estimates; the check restores them so the model leaves as it
    # came. Eight rows keep the batch statistics well away from zero variance.
    model, rng = tiny_mcm(2)
    shift_biases_off_zero(model, rng)
    ids = np.concatenate([IDS, IDS[:, ::-1]])
    saved = [(a, a.copy()) for _, a in model.buffers()]
    try:
        grads = model_gradcheck(model, ids, "train", rng.integers(0, 3, size=len(ids)))
    finally:
        for a, copy in saved:
            a[...] = copy
    # Here a parameter that shifts a feature equally across the batch before
    # a batchnorm (a dense bias, or cnn2's bias where its ReLU is active
    # everywhere) has a true gradient of 0, and its difference quotient is
    # rounding noise of ~1e-10: hence the absolute tolerance.
    for name, (analytic, numeric) in grads.items():
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-8), name
