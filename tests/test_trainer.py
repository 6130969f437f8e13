"""Trainer: block-wise optimizer steps against whole-array updates, bitwise
determinism of fit, best-epoch selection and batched inference."""
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mcm import tensor as T
from mcm import trainer
from mcm.checkpoint import load_checkpoint, model_arrays, rebuild_model, save_checkpoint
from mcm.data import (
    EncodedCorpus,
    Vocabulary,
    gen_synthetic,
    stratified_indices,
    stratified_split,
    table1_profile,
)
from mcm.embeddings import init_random
from mcm.model import (
    BaselineConfig,
    BaselineModel,
    McmConfig,
    McmModel,
    build_baseline,
    build_mcm,
    forward_batch,
    loss as mcm_loss,
    probabilities,
)
from mcm.tensor import Tape, Tensor, backward
from mcm.trainer import (
    _carve_validation,
    Optimizer,
    TrainConfig,
    TrainingDiverged,
    fit,
    run_training,
)

from .helpers import (
    CLASSES,
    SMALL_MCM,
    SMALL_VOCAB,
    dense_grad,
    load_tool,
    shares_every_array,
    small_model,
    weighted_sum,
)

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
    return (EncodedCorpus(corpus.sequences[tr], corpus.labels[tr]),
            EncodedCorpus(corpus.sequences[va], corpus.labels[va]))


@pytest.mark.parametrize("seed", range(4))
def test_validation_carve_out_is_unchanged(seed):
    rng = np.random.default_rng(100 + seed)
    labels = rng.integers(0, 4, size=37)
    corpus = EncodedCorpus(rng.integers(0, 50, size=(37, 5)), labels)
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for new, old in zip(_carve_validation(corpus, new_rng), carve_by_label(corpus, old_rng)):
        assert np.array_equal(new.sequences, old.sequences)
        assert np.array_equal(new.labels, old.labels)
    assert new_rng.random() == old_rng.random()


def test_validation_selection_with_no_validation_records_is_refused():
    # 2 records per class: round(0.8 * 2) == 2 sends all of them to training
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 10, size=(6, 6)), np.array([0, 0, 1, 1, 2, 2]))
    test = EncodedCorpus(rng.integers(2, 10, size=(3, 6)), np.array([0, 1, 2]))
    cfg = McmConfig(vocab_size=10, embed_dim=4, num_classes=3, max_len=6, num_filters=2,
                    hidden_dim=2, dense1_dim=2, dense2_dim=2)
    model = build_mcm(cfg, init_random(10, 4, np.random.default_rng(1)), 0)
    before = {name: t.data.copy() for name, t in model.tensors()}
    with pytest.raises(ValueError, match="no validation records"):
        fit(model, train, test, TrainConfig(epochs=1, batch_size=4, select_on="validation"),
            SMALL_VOCAB, CLASSES)
    # refused before the first epoch: nothing was trained
    assert all(t.data.tobytes() == before[name].tobytes() for name, t in model.tensors())


def baseline_case(per_class):
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 10, size=(3 * per_class, 6)),
                          np.repeat([0, 1, 2], per_class))
    test = EncodedCorpus(rng.integers(2, 10, size=(6, 6)), np.array([0, 1, 2, 0, 1, 2]))
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
                        TrainConfig(epochs=3, batch_size=4, select_on=select_on),
                        SMALL_VOCAB, CLASSES)
    assert len(records) == 3 and ckpt.config["best_epoch"] == best_epoch
    assert len(seen["validation"]) == (3 if select_on == "validation" else 0)
    for epoch, arrays in enumerate(seen["test"]):  # the best epoch's parameters are restored
        holds = all(np.array_equal(t.data, arrays[name]) for name, t in model.tensors())
        assert holds == (epoch == best_epoch)
    shares_every_array(ckpt, model)


def test_fit_on_the_baseline_refuses_an_empty_validation_part():
    model, train, test = baseline_case(2)
    before = {name: t.data.copy() for name, t in model.tensors()}
    with pytest.raises(ValueError, match="no validation records"):
        fit(model, train, test, TrainConfig(epochs=1, batch_size=4, select_on="validation"),
            SMALL_VOCAB, CLASSES)
    assert all(t.data.tobytes() == before[name].tobytes() for name, t in model.tensors())


@pytest.mark.parametrize("counts", [c for c in itertools.product(range(7), repeat=3) if any(c)])
def test_the_selection_check_refuses_exactly_when_the_carve_out_is_empty(counts):
    # decided from the class counts alone: some class needs 3 or more records
    labels = np.repeat(np.arange(3), counts)
    _, validation = stratified_indices(labels, 0.8, np.random.default_rng(0))
    cfg = TrainConfig(select_on="validation")
    if validation:
        trainer._check_selection(labels, cfg)
    else:
        with pytest.raises(ValueError, match="no validation records"):
            trainer._check_selection(labels, cfg)
    assert bool(validation) == (max(counts) >= 3)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
    ("embedding_dim", 0), ("min_count", 0), ("seed", -1),
    ("epochs", True), ("learning_rate", True), ("dropout", False), ("min_count", 1.5),
    ("attention", 1), ("max_len", 12.0),
])
def test_train_config_refuses_a_value_training_cannot_use(field, value):
    with pytest.raises(ValueError, match=field.split("_")[-1]):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# run_training: one run for either model kind


@pytest.fixture(scope="module")
def synth_run():
    """``run_training`` on the splits of a small Table-1 corpus."""
    rng = np.random.default_rng(23)
    profile = table1_profile()
    train, test = stratified_split(gen_synthetic(profile, 120, 0.5, 0.1, rng), 0.8, rng)
    return lambda cfg, **kind: run_training(train, test, cfg, profile.names, **kind)


def test_the_baseline_run_trains_on_a_random_table_of_at_least_3_ids(synth_run):
    cfg = TrainConfig(epochs=1, batch_size=32, embedding_dim=8, max_len=2)
    runs = [synth_run(dataclasses.replace(cfg, embedding_mode=mode), kind="baseline")
            for mode in ("domain", "random")]
    (model, ckpt, _), (_, random_ckpt, _) = runs
    assert isinstance(model, BaselineModel) and ckpt.kind == "baseline"
    assert model.config.max_len == 3
    assert ckpt.config["variant"] == "Baseline"
    # no skip-gram table: every array is the random-table run's, bit for bit
    assert ckpt.arrays.keys() == random_ckpt.arrays.keys()
    for name, a in ckpt.arrays.items():
        assert a.tobytes() == random_ckpt.arrays[name].tobytes(), name


def test_the_mcm_run_copies_its_config_fields_into_the_model_config(synth_run):
    cfg = TrainConfig(epochs=1, batch_size=32, embedding_dim=8, attention=True, dropout=0.35,
                      stop_disc_gradients=True)
    model, ckpt, _ = synth_run(cfg)
    assert isinstance(model, McmModel) and ckpt.kind == "mcm"
    mc = model.config
    assert (mc.attention, mc.dropout, mc.stop_disc_gradients) == (True, 0.35, True)
    assert (mc.vocab_size, mc.embed_dim, mc.num_classes) == (ckpt.vocab.size, 8, 12)
    assert model.att_cnn is not None and model.head_cnn.dropout_rate == 0.35
    assert ckpt.config["variant"] == "McM_RA"


def test_run_training_refuses_an_unknown_kind(synth_run):
    with pytest.raises(ValueError, match="kind: invalid choice 'cnn'"):
        synth_run(TrainConfig(epochs=1), kind="cnn")


# ---------------------------------------------------------------------------
# the golden training run: what training and inference compute, pinned

golden_training = load_tool("golden_training")
# perfbench's pinned-loss tolerance: another BLAS build may sum in another order
GOLDEN_RTOL = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text(
        encoding="utf-8"))["tolerance"]["train_loss_rtol"]


@pytest.fixture(scope="module")
def golden():
    """(the committed record, the corpus every run uses)."""
    return (json.loads(golden_training.GOLDEN.read_text(encoding="utf-8")),
            golden_training.corpus())


def test_the_golden_record_holds_each_run_once(golden):
    assert list(golden[0]) == sorted(name for name, *_ in golden_training.RUNS)


def golden_numbers(rec) -> list:
    """A record's floats: each epoch's loss, then each head's log-likelihood
    in name order."""
    heads = sorted(rec["log_likelihood"])
    return [float.fromhex(h) for h in rec["train_loss"] + [rec["log_likelihood"][k] for k in heads]]


@pytest.mark.parametrize("name, kind, overrides", golden_training.RUNS,
                         ids=[name for name, *_ in golden_training.RUNS])
def test_training_computes_the_golden_record(golden, name, kind, overrides):
    want = golden[0][name]
    got = golden_training.record(kind, overrides, golden[1])
    assert got["best_epoch"] == want["best_epoch"]
    assert got["log_likelihood"].keys() == want["log_likelihood"].keys()
    assert len(got["train_loss"]) == len(want["train_loss"])
    for g, w in zip(golden_numbers(got), golden_numbers(want)):
        assert math.isclose(g, w, rel_tol=GOLDEN_RTOL, abs_tol=0.0), (g.hex(), w.hex())


# what each committed golden fixture answers, recomputed from its file
FIXTURE_NAMES = [name for name, *_ in golden_training.FIXTURES]


@pytest.fixture(scope="module")
def golden_answers():
    return json.loads(golden_training.ANSWERS.read_text(encoding="utf-8"))


def test_the_golden_answers_hold_each_fixture_once(golden_answers):
    assert sorted(golden_answers) == sorted(FIXTURE_NAMES)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_golden_fixture_serves_its_golden_answers(golden_answers, name):
    model, vocab = rebuild_model(load_checkpoint(golden_training.fixture_path(name)))
    got, want = golden_training.answers(model, vocab), golden_answers[name]
    assert got.keys() == want.keys()
    for head in want:
        assert got[head].keys() == want[head].keys() == set(golden_training.MESSAGES)
        for message, row in want[head].items():
            np.testing.assert_allclose(
                [float.fromhex(x) for x in got[head][message]], [float.fromhex(x) for x in row],
                rtol=golden_training.ANSWERS_RTOL, atol=0.0, err_msg=f"{head}: {message}")


# ---------------------------------------------------------------------------
# LSTM stacks: every in-place writer of the model's arrays fills each LSTM's
# stacks, which checkpoints store as the gates' row blocks

LSTMS = ("lstm_s1", "lstm_s2", "lstm_enc")


def stacks_hold(model, arrays):
    """Each LSTM's stacks hold the gates' ``arrays``."""
    for name in LSTMS:
        p = getattr(model, name)
        for stack, prefix in ((p.w, "w"), (p.u, "u"), (p.b, "b")):
            want = np.concatenate([arrays[f"{name}.{prefix}_{g}"] for g in "ifou"])
            assert np.array_equal(stack.data, want)


def test_build_and_rebuild_fill_the_lstm_stacks(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    built = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    stacks_hold(built, ckpt.arrays)  # the fixture saved this same model
    ckpt = dataclasses.replace(ckpt, arrays={name: a + 0.5 for name, a in ckpt.arrays.items()})
    model, _ = rebuild_model(ckpt)
    stacks_hold(model, ckpt.arrays)


def test_optimizer_step_writes_the_lstm_stacks():
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


def test_fit_restoring_an_earlier_epoch_fills_the_lstm_stacks(monkeypatch):
    real_evaluate = trainer.evaluate_components
    seen = []  # the parameters at each evaluation

    def falling(model, corpus):  # epoch 0 scores best
        seen.append(model_arrays(model))
        return {c: dataclasses.replace(r, macro_f1=1.0 / len(seen))
                for c, r in real_evaluate(model, corpus).items()}

    monkeypatch.setattr(trainer, "evaluate_components", falling)
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 10, size=(8, 6)), rng.integers(0, 3, size=8))
    test = EncodedCorpus(rng.integers(2, 10, size=(4, 6)), rng.integers(0, 3, size=4))
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(1)), 0)
    ckpt, _ = fit(model, train, test, TrainConfig(epochs=3, batch_size=4, seed=2),
                  SMALL_VOCAB, CLASSES)
    assert ckpt.config["best_epoch"] == 0
    stacks_hold(model, seen[0])
    shares_every_array(ckpt, model)
    assert not np.array_equal(seen[0]["lstm_s1.w_f"], seen[-1]["lstm_s1.w_f"])


def tiny_fit_case():
    """One batch per epoch of ids 2-8; table row 9 is never read."""
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 9, size=(16, 6)), rng.integers(0, 3, size=16))
    test = EncodedCorpus(rng.integers(2, 9, size=(4, 6)), rng.integers(0, 3, size=4))
    return build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(1)), 0), train, test


def test_fit_refuses_a_learning_rate_that_overflows():
    # Adam's step is bounded by about lr, so the update itself stays finite;
    # the overflow comes from the forward that reads the updated parameters.
    model, train, test = tiny_fit_case()
    with pytest.raises(TrainingDiverged, match="overflow encountered in .* epoch 0"):
        fit(model, train, test, TrainConfig(epochs=1, batch_size=16, learning_rate=1e308),
            SMALL_VOCAB, CLASSES)


def test_fit_refuses_to_return_parameters_that_turned_non_finite():
    # a NaN in a row no batch reads raises no floating-point error: the
    # zero-gradient form keeps it as it is, and only the epoch check sees it
    model, train, test = tiny_fit_case()
    model.embedding.vectors.data[9] = np.nan
    with pytest.raises(TrainingDiverged,
                       match="non-finite parameters after epoch 0: embedding.vectors$"):
        fit(model, train, test, TrainConfig(epochs=1, batch_size=16), SMALL_VOCAB, CLASSES)


# ---------------------------------------------------------------------------
# optimizer: block-wise updates against one whole-array update


def reference_update(kind, p, g, state, t, lr):
    """One whole-array update per rule, written out as plain formulas."""
    if kind == "adam":
        # Kingma & Ba's folded order
        m, v = state
        root_corr2 = math.sqrt(1.0 - 0.999 ** t)
        step_scale, eps_hat = root_corr2 / (1.0 - 0.9 ** t), 1e-8 * root_corr2
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        p -= m / (np.sqrt(v) + eps_hat) * (lr * step_scale)
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
                rows = T.GatheredRows(table, ids, skip_row=0).dense()
                total = T.add(total, weighted_sum(rows, rng.normal(size=(len(ids), 70))))
            if use_dense:
                total = T.add(total, weighted_sum(table, rng.normal(size=(1000, 70))))
        backward(total, tape)
        for k, param in params.items():
            if param.grad is not None:
                reference_update(kind, ref[k], dense_grad(param), ref_state[k], t, 0.05)
        opt.step()
        opt.zero_grad()
        for (k, param), slots in zip(params.items(), opt.state):
            assert param.data.tobytes() == ref[k].tobytes(), f"{kind} {k} after step {t}"
            for got, want in zip(slots, ref_state[k]):
                assert got.tobytes() == want.tobytes(), f"{kind} {k} state after step {t}"


def neg_zero_rows(table, rows):
    """A scalar whose gradient is -0.0 on ``rows`` of ``table``.
    (``GatheredRows`` sums from 0.0, so it never yields -0.0 itself.)"""
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
                    term = weighted_sum(T.GatheredRows(table, rows, skip_row=0).dense(), r)
                elif kind_ == "dense":
                    term = weighted_sum(table, r)
                else:
                    term = neg_zero_rows(table, rows)
                total = T.add(total, term)
        backward(total, tape)
        grads = dict(dense_weights, table=dense_table_grad(terms, weights))
        assert isinstance(table.grad, T.RowGrad) == (t in ROW_SPARSE_STEPS), f"step {t}"
        if read_grad:
            for k, param in params.items():
                got, want = dense_grad(param), grads[k]
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


def test_folded_adam_tracks_the_textbook_formula():
    # rows 0-9 of the table take a gradient now and then, rows 10-29 never
    rng = np.random.default_rng(7)
    table = Tensor(rng.normal(size=(30, 6)), requires_grad=True)
    weight = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    ref = {"table": table.data.copy(), "weight": weight.data.copy()}
    moments = {k: (np.zeros_like(a), np.zeros_like(a)) for k, a in ref.items()}
    opt = Optimizer("adam", [table, weight], 0.01)
    for t in range(1, 13):
        ids = rng.integers(0, 10, size=3)
        r = rng.normal(size=(3, 6))
        with Tape() as tape:
            total = T.add(weighted_sum(T.GatheredRows(table, ids).dense(), r),
                          weighted_sum(weight, rng.normal(size=(4, 5))))
        backward(total, tape)
        grads = {"table": dense_grad(table), "weight": weight.grad}
        for k, (m, v) in moments.items():  # Kingma & Ba, Algorithm 1
            g = grads[k]
            m += (1.0 - 0.9) * (g - m)
            v += (1.0 - 0.999) * (g * g - v)
            ref[k] -= 0.01 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        opt.step()
        opt.zero_grad()
        for k, param, slots in zip(("table", "weight"), (table, weight), opt.state):
            np.testing.assert_allclose(param.data, ref[k], rtol=1e-12, atol=0, err_msg=k)
            for got, want in zip(slots, moments[k]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=k)
    assert table.data[10:].tobytes() == ref["table"][10:].tobytes()


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
    train = EncodedCorpus(seqs[:16], labels[:16])
    test = EncodedCorpus(seqs[16:], labels[16:])
    cfg = McmConfig(vocab_size=VOCAB, embed_dim=4, num_classes=3, max_len=6, num_filters=3,
                    hidden_dim=3, dense1_dim=3, dense2_dim=3, attention=True)
    table = init_random(VOCAB, 4, np.random.default_rng(1))
    initial = table.vectors.data.copy()
    model = build_mcm(cfg, table, 2)
    vocab = Vocabulary.of(["<pad>", "<unk>"] + [f"w{i}" for i in range(VOCAB - 2)], 1)
    ckpt, _ = fit(model, train, test, TrainConfig(epochs=2, batch_size=8, seed=3),
                  vocab=vocab, class_names=["a", "b", "c"])
    save_checkpoint(ckpt, path)
    return ckpt, initial


def test_same_seed_gives_byte_identical_checkpoint(tmp_path):
    ckpt, initial = tiny_fit(tmp_path / "a.mcm")
    tiny_fit(tmp_path / "b.mcm")
    assert (tmp_path / "a.mcm").read_bytes() == (tmp_path / "b.mcm").read_bytes()
    # the file whose bytes are compared is one the reader accepts
    rebuilt, _ = rebuild_model(load_checkpoint(tmp_path / "a.mcm"))
    assert all(a.tobytes() == ckpt.arrays[name].tobytes()
               for name, a in rebuilt.arrays().items())
    # Rows training never touches get a +0.0 gradient and keep all-zero Adam
    # moments, so every update leaves them at their initial bits.
    trained = ckpt.arrays["embedding.vectors"]
    unused = [r for r in range(VOCAB) if r not in USED_ROWS]
    assert trained[unused].tobytes() == initial[unused].tobytes()
    assert not np.array_equal(trained[list(USED_ROWS)], initial[list(USED_ROWS)])


# ---------------------------------------------------------------------------
# inference and the optimizer's choices


@pytest.mark.parametrize("n", [0, 1, trainer.INFER_BATCH, trainer.INFER_BATCH + 1])
@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_infer_probabilities_are_each_batchs_head_probabilities(kind, n):
    model = small_model(kind)
    ids = np.random.default_rng(n).integers(0, 10, size=(n, 6))
    probs = trainer.infer_probabilities(model, ids)
    assert [p.shape for p in probs] == [(n, 3)] * len(model.heads)
    for lo in range(0, n, trainer.INFER_BATCH):
        batch = model.head_logits(ids[lo:lo + trainer.INFER_BATCH], "infer")
        for p, want in zip(probs, map(probabilities, batch)):
            assert p[lo:lo + trainer.INFER_BATCH].tobytes() == want.data.tobytes()


def test_an_unknown_optimizer_names_the_field():
    with pytest.raises(ValueError) as info:
        Optimizer("foo", [], 0.1)
    assert str(info.value) == ("optimizer: invalid choice 'foo' "
                               "(choose from 'adam', 'adadelta', 'sgd')")
