"""Trainer: block-wise optimizer steps against whole-array updates, bitwise
determinism of fit, and checkpoint validation down to the CLI."""
import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcm import cli, trainer
from mcm import tensor as T
from mcm.data import EncodedCorpus, Vocabulary
from mcm.embeddings import init_random
from mcm.model import (
    MAX_LEN_CEILING,
    BaselineConfig,
    McmConfig,
    build_baseline,
    build_mcm,
    forward_batch,
    loss as mcm_loss,
)
from mcm.tensor import Tape, Tensor, backward
from mcm.trainer import (
    CheckpointError,
    _carve_validation,
    Optimizer,
    TrainConfig,
    TrainingDiverged,
    fit,
    load_checkpoint,
    make_checkpoint,
    model_arrays,
    rebuild_model,
    save_checkpoint,
)

from .helpers import gates_are_stack_views, weighted_sum

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# ---------------------------------------------------------------------------
# validation carve-out


def carve_by_label(corpus, rng):
    """fit's validation carve-out as it was before it shared
    data.stratified_indices."""
    train_idx, val_idx = [], []
    for label in np.unique(corpus.labels):
        idxs = np.flatnonzero(corpus.labels == label)
        order = rng.permutation(len(idxs))
        cut = int(round(0.8 * len(idxs)))
        train_idx.extend(idxs[order[:cut]])
        val_idx.extend(idxs[order[cut:]])
    tr, va = np.asarray(sorted(train_idx)), np.asarray(sorted(val_idx))
    return (EncodedCorpus(corpus.sequences[tr], corpus.labels[tr], corpus.max_len),
            EncodedCorpus(corpus.sequences[va], corpus.labels[va], corpus.max_len))


@pytest.mark.parametrize("seed", range(4))
def test_validation_carve_out_is_unchanged(seed):
    rng = np.random.default_rng(100 + seed)
    labels = rng.integers(0, 4, size=37)
    corpus = EncodedCorpus(rng.integers(0, 50, size=(37, 5)), labels, 5)
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for new, old in zip(_carve_validation(corpus, new_rng), carve_by_label(corpus, old_rng)):
        assert np.array_equal(new.sequences, old.sequences)
        assert np.array_equal(new.labels, old.labels)
    assert new_rng.random() == old_rng.random()


def test_validation_selection_with_no_validation_records_is_refused():
    # 2 records per class: round(0.8 * 2) == 2 sends all of them to training
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 10, size=(6, 6)), np.array([0, 0, 1, 1, 2, 2]), 6)
    test = EncodedCorpus(rng.integers(2, 10, size=(3, 6)), np.array([0, 1, 2]), 6)
    cfg = McmConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, num_filters=2,
                    hidden_dim=2, dense1_dim=2, dense2_dim=2)
    model = build_mcm(cfg, init_random(10, 4, np.random.default_rng(1)), 0)
    before = {name: t.data.copy() for name, t in model.named_tensors()}
    with pytest.raises(ValueError, match="no validation records"):
        fit(model, train, test, TrainConfig(epochs=1, batch_size=4, select_on="validation"))
    # refused before the first epoch: nothing was trained
    assert all(t.data.tobytes() == before[name].tobytes() for name, t in model.named_tensors())


def baseline_case(per_class):
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 10, size=(3 * per_class, 6)),
                          np.repeat([0, 1, 2], per_class), 6)
    test = EncodedCorpus(rng.integers(2, 10, size=(6, 6)), np.array([0, 1, 2, 0, 1, 2]), 6)
    cfg = BaselineConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, kernel=2,
                         num_filters=2, hidden_dim=3)
    return build_baseline(cfg, init_random(10, 4, np.random.default_rng(1)), 0), train, test


@pytest.mark.parametrize("select_on,best_epoch", [("test", 2), ("validation", 1)])
def test_fit_on_the_baseline_selects_on_the_split_select_on_names(monkeypatch, select_on,
                                                                  best_epoch):
    model, train, test = baseline_case(5)
    f1_by_split = {"test": [0.1, 0.2, 0.3], "validation": [0.3, 0.9, 0.1]}
    seen = {"test": [], "validation": []}  # the parameters at each evaluation
    real_evaluate = trainer.evaluate

    def scripted(labels, preds, c):
        split = "test" if labels is test.labels else "validation"
        f1 = f1_by_split[split][len(seen[split])]
        seen[split].append(model_arrays(model))
        return dataclasses.replace(real_evaluate(labels, preds, c), macro_f1=f1)

    monkeypatch.setattr(trainer, "evaluate", scripted)
    ckpt, records = fit(model, train, test,
                        TrainConfig(epochs=3, batch_size=4, select_on=select_on))
    assert len(records) == 3 and ckpt.config["best_epoch"] == best_epoch
    assert len(seen["validation"]) == (3 if select_on == "validation" else 0)
    for epoch, arrays in enumerate(seen["test"]):  # the best epoch's parameters are restored
        holds = all(np.array_equal(t.data, arrays[name]) for name, t in model.named_tensors())
        assert holds == (epoch == best_epoch)


def test_fit_on_the_baseline_refuses_an_empty_validation_part():
    model, train, test = baseline_case(2)
    before = {name: t.data.copy() for name, t in model.named_tensors()}
    with pytest.raises(ValueError, match="no validation records"):
        fit(model, train, test, TrainConfig(epochs=1, batch_size=4, select_on="validation"))
    assert all(t.data.tobytes() == before[name].tobytes() for name, t in model.named_tensors())


@pytest.mark.parametrize("field,value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
    ("embedding_dim", 0), ("min_count", 0),
])
def test_train_config_refuses_a_value_training_cannot_use(field, value):
    with pytest.raises(ValueError, match=field.split("_")[-1]):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# LSTM gate storage: every in-place writer keeps the per-gate tensors views
# of their layer's stacks

LSTMS = ("lstm_s1", "lstm_s2", "lstm_enc")
SMALL_MCM = McmConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, num_filters=2,
                      hidden_dim=2, dense1_dim=2, dense2_dim=2)


def stacks_hold(model, arrays):
    """Each LSTM's gates are views of its stacks, and the stacks hold the
    gates' ``arrays``."""
    for name in LSTMS:
        p = getattr(model, name)
        assert gates_are_stack_views(p)
        for stack, prefix in ((p.w, "w"), (p.u, "u"), (p.b, "b")):
            want = np.concatenate([arrays[f"{name}.{prefix}_{g}"] for g in "ifou"])
            assert np.array_equal(stack, want)


def test_build_and_rebuild_keep_gate_views(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    built = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    stacks_hold(built, ckpt.arrays)  # the fixture saved this same model
    ckpt.arrays = {name: a + 0.5 for name, a in ckpt.arrays.items()}
    model, _ = rebuild_model(ckpt)
    stacks_hold(model, ckpt.arrays)


def test_optimizer_step_writes_through_gate_views():
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    rng = np.random.default_rng(1)
    opt = Optimizer("adam", model.parameters(), 0.01)
    with Tape() as tape:
        total = mcm_loss(forward_batch(model, rng.integers(2, 10, size=(4, 6)), "train", rng),
                         np.array([0, 1, 2, 0]))
    backward(total, tape)
    before = model_arrays(model)
    opt.step()
    after = model_arrays(model)
    stacks_hold(model, after)
    assert all(not np.array_equal(after[f"{name}.w_f"], before[f"{name}.w_f"])
               for name in LSTMS)


def test_fit_restoring_an_earlier_epoch_keeps_gate_views(monkeypatch):
    real_evaluate = trainer.evaluate_components
    seen = []  # the parameters at each evaluation

    def falling(model, corpus, batch_size=256):  # epoch 0 scores best
        seen.append(model_arrays(model))
        return {c: dataclasses.replace(r, macro_f1=1.0 / len(seen))
                for c, r in real_evaluate(model, corpus, batch_size).items()}

    monkeypatch.setattr(trainer, "evaluate_components", falling)
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 10, size=(8, 6)), rng.integers(0, 3, size=8), 6)
    test = EncodedCorpus(rng.integers(2, 10, size=(4, 6)), rng.integers(0, 3, size=4), 6)
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(1)), 0)
    ckpt, _ = fit(model, train, test, TrainConfig(epochs=3, batch_size=4, seed=2))
    assert ckpt.config["best_epoch"] == 0
    stacks_hold(model, seen[0])
    assert not np.array_equal(seen[0]["lstm_s1.w_f"], seen[-1]["lstm_s1.w_f"])


# A step at this rate overflows, and Adam's overflow warning is the expected
# path to the refusal.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fit_refuses_to_return_parameters_its_last_update_made_non_finite():
    # one batch per epoch: no later loss ever sees the overflowing update
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 10, size=(16, 6)), rng.integers(0, 3, size=16), 6)
    test = EncodedCorpus(rng.integers(2, 10, size=(4, 6)), rng.integers(0, 3, size=4), 6)
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(1)), 0)
    with pytest.raises(TrainingDiverged, match="non-finite parameters after epoch 0"):
        fit(model, train, test, TrainConfig(epochs=1, batch_size=16, learning_rate=1e308))


# ---------------------------------------------------------------------------
# optimizer: block-wise updates against one whole-array update


def reference_update(kind, p, g, state, t, lr):
    """One whole-array update per rule, written out as plain formulas."""
    if kind == "adam":
        m, v = state
        corr1, corr2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        m += (1.0 - 0.9) * (g - m)
        v += (1.0 - 0.999) * (g * g - v)
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + 1e-8)
    elif kind == "adadelta":
        eg, ed = state
        eg += (1.0 - 0.95) * (g * g - eg)
        delta = -np.sqrt((ed + 1e-6) / (eg + 1e-6)) * g
        ed += (1.0 - 0.95) * (delta * delta - ed)
        p += lr * delta
    else:
        p -= lr * g


# (1000, 70) and (40000,) span several blocks with a ragged last one; the
# bias is a single block and the 0-d scale is indexed as a whole.
SHAPES = {"table": (1000, 70), "weight": (3, 4), "bias": (40000,), "scale": ()}
# Per step: the table rows gathered (row 0 is skipped, as the pad row is),
# or None when the table is unused, and whether the step also uses the whole
# table densely. Rows go quiet after being touched, step 4 gathers only the
# skipped row and step 5 gives the table no gradient at all.
SCHEDULE = [
    ([1, 500, 999, 500], False),
    ([4, 5, 0], False),
    ([2, 6, 6], True),
    ([0, 0], False),
    (None, False),
    ([7, 998], False),
    ([8], True),
    ([9, 4], False),
]


@pytest.mark.parametrize("kind", ["adam", "adadelta", "sgd"])
def test_blockwise_steps_equal_whole_array_updates_bitwise(kind):
    rng = np.random.default_rng(5)
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in SHAPES.items()}
    ref = {k: t.data.copy() for k, t in params.items()}
    opt = Optimizer(kind, list(params.values()), 0.05)
    ref_state = {k: [np.zeros_like(s) for s in slots] for k, slots in zip(params, opt.state)}
    table = params["table"]
    for t, (ids, use_dense) in enumerate(SCHEDULE, start=1):
        with Tape() as tape:
            total = T.add(weighted_sum(params["weight"], rng.normal(size=(3, 4))),
                          weighted_sum(params["bias"], rng.normal(size=40000)))
            total = T.add(total, weighted_sum(params["scale"], rng.normal(size=())))
            if ids is not None:
                total = T.add(total, weighted_sum(T.gather_rows(table, ids, skip_row=0),
                                                  rng.normal(size=(len(ids), 70))))
            if use_dense:
                total = T.add(total, weighted_sum(table, rng.normal(size=(1000, 70))))
        backward(total, tape)
        for k, param in params.items():
            if param.grad is not None:
                reference_update(kind, ref[k], param.grad, ref_state[k], t, 0.05)
        opt.step()
        opt.zero_grad()
        for (k, param), slots in zip(params.items(), opt.state):
            assert param.data.tobytes() == ref[k].tobytes(), f"{kind} {k} after step {t}"
            for got, want in zip(slots, ref_state[k]):
                assert got.tobytes() == want.tobytes(), f"{kind} {k} state after step {t}"


def neg_zero_rows(table, rows):
    """A scalar whose gradient is -0.0 on ``rows`` of ``table``.
    (``gather_rows`` sums from 0.0, so it never yields -0.0 itself.)"""
    values = np.full((len(rows), table.shape[1]), -0.0)
    return T.apply_op(np.zeros(()), (table,), lambda g: (T.RowGrad(np.asarray(rows), values),))


def table_terms(ids, use_dense):
    """SCHEDULE's table use as terms: ("gather", ids), ("dense", None)."""
    return ([] if ids is None else [("gather", ids)]) + ([("dense", None)] if use_dense else [])


# SCHEDULE, then a step with two gathers over different row sets and a -0.0
# gradient on rows 10, 11 and 997, of which only 11 nobody else writes; and
# a step where the -0.0 row 14 arrives after a gather. The table rows the
# -0.0 writes reach hold -0.0 themselves before step 9, so an update by a
# -0.0 gradient instead of 0.0 + -0.0 flips their sign under sgd and adadelta.
SPARSE_SCHEDULE = [table_terms(ids, dense) for ids, dense in SCHEDULE] + [
    [("gather", [12, 500, 10]), ("gather", [13, 997, 0, 13]), ("neg_zero", [10, 11, 997])],
    [("neg_zero", [14, 15]), ("gather", [15, 16])],
]
NEG_ZERO_ROWS = [10, 11, 14]
ROW_SPARSE_STEPS = {1, 2, 4, 6, 8, 9, 10}


def dense_table_grad(terms, weights):
    """The table gradient as a dense accumulation builds it from the terms'
    contributions, which backward visits last term first."""
    z = None
    for (kind, rows), r in reversed(list(zip(terms, weights))):
        if kind == "dense":
            z = r.copy() if z is None else z + r
            continue
        z = np.zeros(SHAPES["table"]) if z is None else z
        idx = np.asarray(rows)
        if kind == "neg_zero":
            z[idx] += -0.0
        else:
            keep = idx != 0
            sums = np.zeros((1000, 70))
            np.add.at(sums, idx[keep], r[keep])
            unique = np.unique(idx[keep])
            z[unique] += sums[unique]
    return z


@pytest.mark.parametrize("read_grad", [True, False], ids=["reads-grad", "never-reads-grad"])
@pytest.mark.parametrize("kind", ["adam", "adadelta", "sgd"])
def test_row_sparse_gradients_take_the_row_sparse_path_bitwise(kind, read_grad):
    rng = np.random.default_rng(6)
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in SHAPES.items()}
    ref = {k: t.data.copy() for k, t in params.items()}
    opt = Optimizer(kind, list(params.values()), 0.05)
    ref_state = {k: [np.zeros_like(s) for s in slots] for k, slots in zip(params, opt.state)}
    zero_forms = []
    rule_update = opt.rule.update

    def spy(p, g, *rest):
        zero_forms.append(g is None)
        rule_update(p, g, *rest)

    opt.rule.update = spy
    table = params["table"]
    for t, terms in enumerate(SPARSE_SCHEDULE, start=1):
        if t == 9:
            table.data[NEG_ZERO_ROWS] = ref["table"][NEG_ZERO_ROWS] = -0.0
        dense_weights = {k: rng.normal(size=SHAPES[k]) for k in ("weight", "bias", "scale")}
        weights = [rng.normal(size=(len(rows), 70)) if kind_ == "gather" else
                   rng.normal(size=SHAPES["table"]) if kind_ == "dense" else None
                   for kind_, rows in terms]
        with Tape() as tape:
            total = weighted_sum(params["scale"], dense_weights["scale"])
            for k in ("weight", "bias"):
                total = T.add(total, weighted_sum(params[k], dense_weights[k]))
            for (kind_, rows), r in zip(terms, weights):
                if kind_ == "gather":
                    term = weighted_sum(T.gather_rows(table, rows, skip_row=0), r)
                elif kind_ == "dense":
                    term = weighted_sum(table, r)
                else:
                    term = neg_zero_rows(table, rows)
                total = T.add(total, term)
        backward(total, tape)
        grads = dict(dense_weights, table=dense_table_grad(terms, weights))
        assert (table.row_grad is not None) == (t in ROW_SPARSE_STEPS), f"step {t}"
        if read_grad:
            for k, param in params.items():
                got, want = param.grad, grads[k]
                assert (got is None) == (want is None), f"{k} gradient at step {t}"
                assert want is None or got.tobytes() == want.tobytes(), f"{k} at step {t}"
        for k in params:
            if grads[k] is not None:
                reference_update(kind, ref[k], grads[k], ref_state[k], t, 0.05)
        zero_forms.clear()
        opt.step()
        opt.zero_grad()
        assert any(zero_forms) == (t in ROW_SPARSE_STEPS), f"{kind} path at step {t}"
        for (k, param), slots in zip(params.items(), opt.state):
            assert param.data.tobytes() == ref[k].tobytes(), f"{kind} {k} after step {t}"
            for got, want in zip(slots, ref_state[k]):
                assert got.tobytes() == want.tobytes(), f"{kind} {k} state after step {t}"


def test_optimizer_rejects_misshapen_gradient():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    p.grad = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Optimizer("adam", [p], 0.1).step()


# ---------------------------------------------------------------------------
# determinism

VOCAB = 60
USED_ROWS = range(2, 16)  # the training split touches 14 of the 60 rows


def tiny_fit(path):
    rng = np.random.default_rng(0)
    seqs = rng.integers(USED_ROWS.start, USED_ROWS.stop, size=(24, 6))
    seqs[::3, 4:] = 0  # some padding
    labels = rng.integers(0, 3, size=24)
    train = EncodedCorpus(seqs[:16], labels[:16], 6)
    test = EncodedCorpus(seqs[16:], labels[16:], 6)
    cfg = McmConfig(vocab_size=VOCAB, embed_dim=4, num_classes=3, max_len=6, num_filters=3,
                    hidden_dim=3, dense1_dim=3, dense2_dim=3, attention=True)
    table = init_random(VOCAB, 4, np.random.default_rng(1))
    initial = table.vectors.data.copy()
    model = build_mcm(cfg, table, 2)
    tokens = [f"w{i}" for i in range(VOCAB)]
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, tokens, 1)
    ckpt, _ = fit(model, train, test, TrainConfig(epochs=2, batch_size=8, seed=3),
                  vocab=vocab, class_names=["a", "b", "c"])
    save_checkpoint(ckpt, path)
    return ckpt, initial


def test_same_seed_gives_byte_identical_checkpoint(tmp_path):
    ckpt, initial = tiny_fit(tmp_path / "a.mcm")
    tiny_fit(tmp_path / "b.mcm")
    assert (tmp_path / "a.mcm").read_bytes() == (tmp_path / "b.mcm").read_bytes()
    # Rows training never touches get a +0.0 gradient and keep all-zero Adam
    # moments, so every update leaves them at their initial bits.
    trained = ckpt.arrays["embedding.vectors"]
    unused = [r for r in range(VOCAB) if r not in USED_ROWS]
    assert trained[unused].tobytes() == initial[unused].tobytes()
    assert not np.array_equal(trained[list(USED_ROWS)], initial[list(USED_ROWS)])


# ---------------------------------------------------------------------------
# checkpoint validation

CLASSES = ["a", "b", "c"]


@pytest.fixture
def ckpt_path(tmp_path):
    cfg = McmConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, num_filters=2,
                    hidden_dim=2, dense1_dim=2, dense2_dim=2)
    model = build_mcm(cfg, init_random(10, 4, np.random.default_rng(0)), 0)
    tokens = ["<pad>", "<unk>"] + [f"w{i}" for i in range(8)]
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, tokens, 1)
    path = tmp_path / "ok.mcm"
    save_checkpoint(make_checkpoint(model, vocab, CLASSES), path)
    return path


def splice(path, header=None, vocab=None):
    """Rewrite the config and/or vocabulary block of a checkpoint file."""
    raw = path.read_bytes()
    (n_header,) = struct.unpack_from("<I", raw, 4)
    (n_vocab,) = struct.unpack_from("<I", raw, 8 + n_header)
    old_header = raw[8:8 + n_header]
    old_vocab = raw[12 + n_header:12 + n_header + n_vocab]
    header = old_header if header is None else header
    vocab = old_vocab if vocab is None else vocab
    out = path.with_name("bad.mcm")
    out.write_bytes(raw[:4] + struct.pack("<I", len(header)) + header
                    + struct.pack("<I", len(vocab)) + vocab + raw[12 + n_header + n_vocab:])
    return out


BAD_BLOCKS = {
    "vocab block without tokens": {"vocab": b'{"min_count": 1}'},
    "vocab block without min_count": {"vocab": b'{"tokens": ["a"]}'},
    "vocab block not an object": {"vocab": b'[["a"], 1]'},
    "tokens not strings": {"vocab": b'{"tokens": [1, 2], "min_count": 1}'},
    "config block not an object": {"header": b'"mcm"'},
    "config block not JSON": {"header": b'{kind'},
    "config block not UTF-8": {"header": b'{"kind": "\xff"}'},
    "class names not a list": {"header": b'{"kind": "mcm", "class_names": 3}'},
}


@pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
def test_malformed_blocks_raise_checkpoint_error(ckpt_path, case):
    with pytest.raises(CheckpointError):
        load_checkpoint(splice(ckpt_path, **BAD_BLOCKS[case]))


def test_oversized_tensor_shape_is_truncation_not_allocation(ckpt_path):
    raw = bytearray(ckpt_path.read_bytes())
    (n_header,) = struct.unpack_from("<I", raw, 4)
    (n_vocab,) = struct.unpack_from("<I", raw, 8 + n_header)
    first = 12 + n_header + n_vocab + 4
    (name_len,) = struct.unpack_from("<H", raw, first)
    struct.pack_into("<I", raw, first + 2 + name_len + 1, 2 ** 32 - 1)  # first dimension
    ckpt_path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(ckpt_path)


def test_vocab_size_must_match_token_count(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    ckpt.vocab_tokens = ckpt.vocab_tokens[:-1]
    with pytest.raises(CheckpointError, match="vocab_size"):
        rebuild_model(ckpt)


def test_class_count_must_match_num_classes(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    ckpt.class_names = ckpt.class_names[:-1]
    with pytest.raises(CheckpointError, match="num_classes"):
        rebuild_model(ckpt)


def with_config(path, **fields):
    """A copy of the checkpoint at ``path`` with some config fields replaced."""
    raw = path.read_bytes()
    (n_header,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8:8 + n_header])
    header.update(fields)
    return splice(path, header=json.dumps(header).encode())


@pytest.fixture
def baseline_path(tmp_path):
    cfg = BaselineConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, kernel=2,
                         num_filters=2, hidden_dim=3)
    model = build_baseline(cfg, init_random(10, 4, np.random.default_rng(0)), 0)
    tokens = ["<pad>", "<unk>"] + [f"w{i}" for i in range(8)]
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, tokens, 1)
    path = tmp_path / "baseline.mcm"
    save_checkpoint(make_checkpoint(model, vocab, CLASSES), path)
    return path


MCM_SIZING = ["vocab_size", "embed_dim", "kernel1", "kernel2", "num_filters", "hidden_dim",
              "dense1_dim", "dense2_dim", "num_classes"]
BASELINE_SIZING = ["vocab_size", "embed_dim", "kernel", "num_filters", "hidden_dim",
                   "num_classes"]


# A dimension of 10**12 would make any allocation from it fail, so a
# CheckpointError shows the check ran before the model skeleton was built.
@pytest.mark.parametrize("value", [10 ** 12, None, "4"])
@pytest.mark.parametrize("kind,field", [("mcm", f) for f in MCM_SIZING]
                         + [("baseline", f) for f in BASELINE_SIZING])
def test_config_dimension_is_checked_against_arrays_before_building(
        ckpt_path, baseline_path, kind, field, value):
    path = ckpt_path if kind == "mcm" else baseline_path
    with pytest.raises(CheckpointError, match=field):
        rebuild_model(load_checkpoint(with_config(path, **{field: value})))


# max_len sizes no stored tensor, yet eval and predict allocate that many
# ids per message, so it is bounded on its own.
@pytest.mark.parametrize("value", [10 ** 9, MAX_LEN_CEILING + 1, 1, 6.0, "6", None, True])
@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_max_len_must_be_an_int_within_bounds(ckpt_path, baseline_path, kind, value):
    path = ckpt_path if kind == "mcm" else baseline_path
    with pytest.raises(CheckpointError, match="max_len"):
        rebuild_model(load_checkpoint(with_config(path, max_len=value)))


@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_max_len_at_the_ceiling_loads(ckpt_path, baseline_path, kind):
    path = ckpt_path if kind == "mcm" else baseline_path
    model, _ = rebuild_model(load_checkpoint(with_config(path, max_len=MAX_LEN_CEILING)))
    assert model.config.max_len == MAX_LEN_CEILING


# Files written by the checkpoint code of commit c89f5c0, before McM and the
# baseline shared one model protocol: SMALL_MCM (batchnorm buffers shifted
# off their initial values) and a small baseline, each from make_checkpoint.
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


@pytest.mark.parametrize("name", ["small_mcm.mcm", "baseline.mcm"])
def test_committed_checkpoint_loads_and_resaves_byte_identically(tmp_path, name):
    path = os.path.join(FIXTURES, name)
    ckpt = load_checkpoint(path)
    model, vocab = rebuild_model(ckpt)
    save_checkpoint(make_checkpoint(model, vocab, ckpt.class_names), tmp_path / name)
    with open(path, "rb") as fh:
        assert (tmp_path / name).read_bytes() == fh.read()


def test_baseline_checkpoint_round_trips(baseline_path):
    model, vocab = rebuild_model(load_checkpoint(baseline_path))
    assert vocab.size == 10 and model.config.kernel == 2 and model.config.hidden_dim == 3


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_arrays_are_rejected(ckpt_path, value):
    ckpt = load_checkpoint(ckpt_path)
    ckpt.arrays["cnn1.bias"][0] = value
    save_checkpoint(ckpt, ckpt_path)
    with pytest.raises(CheckpointError, match="non-finite"):
        rebuild_model(load_checkpoint(ckpt_path))


def test_valid_checkpoint_round_trips(ckpt_path):
    model, vocab = rebuild_model(load_checkpoint(ckpt_path))
    assert vocab.size == 10 and model.config.num_classes == 3


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncations_and_bit_flips_load_or_raise_checkpoint_error(ckpt_path, data):
    raw = ckpt_path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    flip = data.draw(st.integers(0, 8 * len(raw) - 1), label="flip")
    truncated = ckpt_path.with_name("cut.mcm")
    truncated.write_bytes(raw[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)
    flipped = bytearray(raw)
    flipped[flip // 8] ^= 1 << (flip % 8)
    ckpt_path.with_name("flip.mcm").write_bytes(bytes(flipped))
    try:
        rebuild_model(load_checkpoint(ckpt_path.with_name("flip.mcm")))
    except CheckpointError:
        pass


def _nan_checkpoint(path):
    ckpt = load_checkpoint(path)
    ckpt.arrays["cnn1.bias"][...] = np.nan
    save_checkpoint(ckpt, path)
    return path


@pytest.mark.parametrize("corrupt", [
    lambda p: splice(p, **BAD_BLOCKS["vocab block without tokens"]),
    _nan_checkpoint,
    lambda p: with_config(p, embed_dim=10 ** 12),
    lambda p: with_config(p, max_len=10 ** 9),
], ids=["vocab-without-tokens", "non-finite-array", "huge-embed-dim", "huge-max-len"])
def test_predict_on_bad_checkpoint_prints_one_error_line(ckpt_path, corrupt):
    bad = corrupt(ckpt_path)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "mcm.cli", "predict", "--checkpoint", str(bad)],
                          input="w1 w2\n", capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert proc.stdout == ""


def test_predict_names_the_same_non_finite_tensor_every_run(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    for a in ckpt.arrays.values():
        a[...] = np.nan
    save_checkpoint(ckpt, ckpt_path)
    errors = []
    for hash_seed in ("1", "2"):  # string hashing, and so set order, differs between these
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-m", "mcm.cli", "predict", "--checkpoint",
                               str(ckpt_path)], input="w1 w2\n", capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 1
        errors.append(proc.stderr)
    assert errors == [f"error: {sorted(ckpt.arrays)[0]} holds non-finite values\n"] * 2


def test_main_reports_checkpoint_error_without_traceback(ckpt_path, capsys):
    bad = splice(ckpt_path, **BAD_BLOCKS["config block not an object"])
    assert cli.main(["eval", "--checkpoint", str(bad), "--test", "unused.tsv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
