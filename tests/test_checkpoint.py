"""Checkpoints: the contract ``check_checkpoint`` holds the writer and the
reader to, run once when a checkpoint is made; a checkpoint and its
vocabulary that cannot be edited afterwards; the reader's refusals down to
the CLI; and the memory a save, a load and a rebuild take."""
import dataclasses
import errno
import io
import json
import operator
import os
import shutil
import struct
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcm import checkpoint, cli
from mcm.checkpoint import (
    CheckpointError,
    load_checkpoint,
    make_checkpoint,
    model_arrays,
    rebuild_model,
    save_checkpoint,
)
from mcm.data import EncodedCorpus, Vocabulary
from mcm.embeddings import init_random
from mcm.model import MAX_LEN_CEILING, BaselineConfig, McmConfig, build_mcm
from mcm.trainer import TrainConfig, fit

from .helpers import (
    CLASSES,
    SMALL_MCM,
    SMALL_VOCAB,
    assemble_checkpoint,
    checkpoint_blocks,
    fill_payloads,
    shares_every_array,
    small_model,
    traced_memory,
    wrong_typed,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# ---------------------------------------------------------------------------
# the writer refuses what the reader refuses


def without_specials(vocab, names):
    return Vocabulary.of([f"w{i}" for i in range(10)], vocab.min_count), names


def swapped_ids(vocab, names):
    return Vocabulary({**vocab.token_to_id, "w0": 3, "w1": 2}, vocab.id_to_token,
                      vocab.min_count), names


# An edit of a good (vocabulary, class names) pair for SMALL_MCM's model,
# the error it meets and its message. A vocabulary refuses itself when it
# is made, with the message the reader gives after "malformed checkpoint: ".
WRITER_CASES = {
    "no-pad-or-unk": (without_specials, ValueError, "vocabulary must start with "
                                                    "'<pad>' and '<unk>', got ['w0', 'w1']"),
    "3-tokens": (lambda vocab, names: (Vocabulary.of(["<pad>", "<unk>", "w0"], 1), names),
                 CheckpointError, "vocabulary holds 3 tokens, config says vocab_size 10"),
    "2-class-names": (lambda vocab, names: (vocab, names[:2]),
                      CheckpointError, "2 class names, config says num_classes 3"),
    "token-to-id-disagrees": (swapped_ids, ValueError, "token_to_id is not the index "
                                                       "of id_to_token"),
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_make_checkpoint_refuses_what_the_reader_refuses(case):
    edit, error, message = WRITER_CASES[case]
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    with pytest.raises(error) as info:
        make_checkpoint(model, *edit(SMALL_VOCAB, CLASSES))
    assert str(info.value) == message


@pytest.mark.parametrize("case", WRITER_CASES)
def test_save_checkpoint_refuses_a_checkpoint_edited_into_what_the_reader_refuses(tmp_path,
                                                                                 case):
    # the edited checkpoint is refused when it is made, so nothing is written
    edit, error, message = WRITER_CASES[case]
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    ckpt = make_checkpoint(model, SMALL_VOCAB, CLASSES)
    with pytest.raises(error) as info:
        vocab, names = edit(ckpt.vocab, ckpt.class_names)
        save_checkpoint(dataclasses.replace(ckpt, vocab=vocab, class_names=names),
                        tmp_path / "refused.mcm")
    assert str(info.value) == message
    assert os.listdir(tmp_path) == []  # neither the file nor its temporary


def test_save_checkpoint_refuses_a_checkpoint_edited_to_a_variant_holding_a_comma(tmp_path):
    # WRITER_CASES edit the vocabulary and class names; this edits the config
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    ckpt = make_checkpoint(model, SMALL_VOCAB, CLASSES)
    with pytest.raises(CheckpointError) as info:
        save_checkpoint(dataclasses.replace(ckpt, config={**ckpt.config, "variant": "a,b"}),
                        tmp_path / "refused.mcm")
    assert str(info.value) == "config variant 'a,b' holds a comma or a line break"
    assert os.listdir(tmp_path) == []  # neither the file nor its temporary


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_make_checkpoint_refuses_a_model_holding_a_non_finite_value(tmp_path, value):
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    model.disc.out.bias.data[1] = value
    with pytest.raises(CheckpointError) as info:
        save_checkpoint(make_checkpoint(model, SMALL_VOCAB, CLASSES), tmp_path / "refused.mcm")
    assert str(info.value) == "disc.out.bias holds non-finite values"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_a_checkpoint_edited_to_hold_a_non_finite_value(tmp_path,
                                                                                value):
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    ckpt = make_checkpoint(model, SMALL_VOCAB, CLASSES)
    arrays = model.arrays()  # the checkpoint's own arrays
    arrays["lstm_s1.b_i"][0] = value
    arrays["embedding.vectors"][3, 2] = value  # the first in name order is named
    with pytest.raises(CheckpointError) as info:
        save_checkpoint(ckpt, tmp_path / "refused.mcm")
    assert str(info.value) == "embedding.vectors holds non-finite values"
    assert os.listdir(tmp_path) == []  # neither the file nor its temporary


# ---------------------------------------------------------------------------
# a checkpoint and its vocabulary are values: checked once, never edited


@pytest.fixture
def check_counts(monkeypatch):
    """How often the vocabulary check, the checkpoint contract and the
    finiteness pass run from here on."""
    counts = {"vocabulary": 0, "contract": 0, "finite": 0}
    for key, owner, name in (("vocabulary", Vocabulary, "check"),
                             ("contract", checkpoint, "check_checkpoint"),
                             ("finite", checkpoint, "_check_finite")):
        def counted(*args, key=key, real=getattr(owner, name)):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_served_checkpoint_is_checked_once(ckpt_path, tmp_path, monkeypatch, capsys,
                                             check_counts, command):
    (tmp_path / "test.tsv").write_text("w1 w2\ta\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO("w1 w2\n"))
    argv = {"eval": ["--test", str(tmp_path / "test.tsv"), "--out", str(tmp_path / "eval")],
            "predict": []}[command]
    assert cli.main([command, "--checkpoint", str(ckpt_path), *argv]) == 0, capsys.readouterr()
    assert check_counts == {"vocabulary": 1, "contract": 1, "finite": 1}


def test_training_checks_its_checkpoint_once_and_its_arrays_again_on_save(tmp_path, capsys,
                                                                          check_counts):
    assert cli.main(["gen-synth", "--n", "120", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert cli.main(["train", "--train", str(tmp_path / "train.tsv"),
                     "--test", str(tmp_path / "test.tsv"), "--out", str(tmp_path / "run"),
                     "--epochs", "1", "--embedding-dim", "4"]) == 0, capsys.readouterr()
    # the arrays are the model's own and stay writable, so the writer looks again
    assert check_counts == {"vocabulary": 1, "contract": 1, "finite": 2}


# Each in-place edit of a checkpoint or its vocabulary, and what it edits
EDITS = {
    "kind": lambda c: setattr(c, "kind", "baseline"),
    "config-field": lambda c: setattr(c, "config", {}),
    "config-item": lambda c: operator.setitem(c.config, "variant", "x"),
    "config-update": lambda c: c.config.update(seed=3),
    "arrays-item": lambda c: operator.setitem(c.arrays, "cnn1.bias", np.zeros(2)),
    "arrays-del": lambda c: operator.delitem(c.arrays, "cnn1.bias"),
    "class-name": lambda c: operator.setitem(c.class_names, 0, "x"),
    "vocab-field": lambda c: setattr(c, "vocab", SMALL_VOCAB),
    "min-count": lambda c: setattr(c.vocab, "min_count", 2),
    "token-to-id-item": lambda c: operator.setitem(c.vocab.token_to_id, "w0", 3),
    "token-to-id-field": lambda c: setattr(c.vocab, "token_to_id", {}),
    "token": lambda c: operator.setitem(c.vocab.id_to_token, 2, "x"),
    "tokens-append": lambda c: c.vocab.id_to_token.append("x"),
    "tokens-field": lambda c: setattr(c.vocab, "id_to_token", []),
}


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("source", ["made", "loaded"])
def test_a_checkpoint_and_its_vocabulary_cannot_be_edited(ckpt_path, tmp_path, source, edit):
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    ckpt = (make_checkpoint(model, SMALL_VOCAB, CLASSES) if source == "made"
            else load_checkpoint(ckpt_path))
    with pytest.raises((AttributeError, TypeError)):  # FrozenInstanceError is an AttributeError
        EDITS[edit](ckpt)
    save_checkpoint(ckpt, tmp_path / "after.mcm")
    assert (tmp_path / "after.mcm").read_bytes() == ckpt_path.read_bytes()


def test_a_checkpoint_without_class_names_is_refused_as_missing(tmp_path):
    with open(os.path.join(FIXTURES, "small_mcm.mcm"), "rb") as fh:
        header, vocab, rest = checkpoint_blocks(fh.read())
    config = json.loads(header)
    del config["class_names"]
    path = tmp_path / "nameless.mcm"
    path.write_bytes(assemble_checkpoint(json.dumps(config).encode(), vocab, rest))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == "malformed checkpoint: config block has no class_names"


# ---------------------------------------------------------------------------
# the reader on malformed files


def splice(path, header=None, vocab=None):
    """Rewrite the config and/or vocabulary block of a checkpoint file."""
    old_header, old_vocab, rest = checkpoint_blocks(path.read_bytes())
    out = path.with_name("bad.mcm")
    out.write_bytes(assemble_checkpoint(old_header if header is None else header,
                                        old_vocab if vocab is None else vocab, rest))
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
    "kind a list": {"header": b'{"kind": []}'},
    "kind an object": {"header": b'{"kind": {}}'},
    "min_count true": {"vocab": b'{"tokens": ["a"], "min_count": true}'},
    "min_count false": {"vocab": b'{"tokens": ["a"], "min_count": false}'},
    "min_count 0": {"vocab": b'{"tokens": ["a"], "min_count": 0}'},
    "min_count -1": {"vocab": b'{"tokens": ["a"], "min_count": -1}'},
}


@pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
def test_malformed_blocks_raise_checkpoint_error(ckpt_path, case):
    with pytest.raises(CheckpointError):
        load_checkpoint(splice(ckpt_path, **BAD_BLOCKS[case]))


def first_tensor_shape_at(raw):
    """Offset of the first tensor's first dimension in checkpoint bytes."""
    header, vocab, _ = checkpoint_blocks(raw)
    first = 12 + len(header) + len(vocab) + 4
    (name_len,) = struct.unpack_from("<H", raw, first)
    return first + 2 + name_len + 1


def test_oversized_tensor_shape_is_truncation_not_allocation(ckpt_path):
    raw = bytearray(ckpt_path.read_bytes())
    offset = first_tensor_shape_at(raw)
    assert raw[offset - 1] == 2  # the table is stored first, as a matrix

    def refused():
        with pytest.raises(CheckpointError, match="truncated .* payload of embedding.vectors"):
            load_checkpoint(ckpt_path)

    for dims in ((2 ** 32 - 1, 4), (10 ** 9, 10 ** 3)):  # 137 GB and 8 TB payloads
        struct.pack_into("<II", raw, offset, *dims)
        ckpt_path.write_bytes(bytes(raw))
        assert traced_memory(refused)[2] < 2 ** 20


def test_a_short_read_is_truncation(ckpt_path, monkeypatch):
    # the file may shrink between the size check and the read
    monkeypatch.setattr(checkpoint, "_check_left", lambda fh, count, what: None)
    raw = ckpt_path.read_bytes()
    ckpt_path.write_bytes(raw[:-1])
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading payload"):
        load_checkpoint(ckpt_path)


def test_a_failed_save_leaves_the_earlier_file_as_it_was(ckpt_path, monkeypatch):
    before = ckpt_path.read_bytes()
    ckpt = load_checkpoint(ckpt_path)
    write = checkpoint._write_checkpoint

    def fails_midway(ckpt, fh):  # writes half the file, then the disk is full
        whole = io.BytesIO()
        write(ckpt, whole)
        fh.write(whole.getvalue()[:len(before) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(checkpoint, "_write_checkpoint", fails_midway)
    with pytest.raises(OSError):
        save_checkpoint(ckpt, ckpt_path)
    assert ckpt_path.read_bytes() == before
    assert os.listdir(ckpt_path.parent) == [ckpt_path.name]
    monkeypatch.setattr(checkpoint, "_write_checkpoint", write)
    save_checkpoint(ckpt, ckpt_path)
    assert ckpt_path.read_bytes() == before
    assert os.listdir(ckpt_path.parent) == [ckpt_path.name]


def test_a_save_through_a_link_replaces_its_target(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    ckpt.arrays["cnn1.bias"][...] += 1.0
    link = ckpt_path.with_name("link.mcm")
    link.symlink_to(ckpt_path.name)
    save_checkpoint(ckpt, link)
    assert link.is_symlink() and link.read_bytes() == ckpt_path.read_bytes()
    assert np.array_equal(load_checkpoint(ckpt_path).arrays["cnn1.bias"], ckpt.arrays["cnn1.bias"])


@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_a_checkpoint_holds_the_models_arrays_and_a_snapshot_copies_them(kind):
    model = small_model(kind)
    shares_every_array(make_checkpoint(model, SMALL_VOCAB, CLASSES), model)
    snapshot = dataclasses.replace(make_checkpoint(model, SMALL_VOCAB, CLASSES),
                                   arrays=model_arrays(model))
    for name, a in model.arrays().items():
        assert not np.shares_memory(snapshot.arrays[name], a), name
        assert np.array_equal(snapshot.arrays[name], a), name


# An aliased parameter would be stepped twice by the optimizer.
@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_no_two_parameters_share_memory(kind):
    built = small_model(kind)
    rebuilt, _ = rebuild_model(make_checkpoint(built, SMALL_VOCAB, CLASSES))
    for model in (built, rebuilt):
        params = model.parameters()
        assert not any(np.shares_memory(a.data, b.data)
                       for i, a in enumerate(params) for b in params[i + 1:])
    # the checkpoint holds built's table, and rebuild_model adopts it
    built_arrays = built.arrays()
    for name, a in rebuilt.arrays().items():
        assert np.shares_memory(a, built_arrays[name]) == (name == "embedding.vectors"), name


@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_the_rebuilt_model_shares_only_the_table_with_the_checkpoint(ckpt_path, baseline_path,
                                                                     kind):
    ckpt = load_checkpoint(ckpt_path if kind == "mcm" else baseline_path)
    model, _ = rebuild_model(ckpt)
    for name, a in model.arrays().items():
        assert np.shares_memory(a, ckpt.arrays[name]) == (name == "embedding.vectors"), name


# The table holds 20000 x 64 x 8 bytes, far more than anything else in the
# checkpoint. Saving used to copy it once and loading and rebuilding twice
# more (1.02 and 2.26 tables); now the table is read once and adopted.
BIG = McmConfig(vocab_size=20000, embed_dim=64, num_classes=3, max_len=6, num_filters=2,
                hidden_dim=2, dense1_dim=2, dense2_dim=2)
BIG_TABLE_BYTES = BIG.vocab_size * BIG.embed_dim * 8
BIG_VOCAB = Vocabulary.of(["<pad>", "<unk>"] + [f"w{i}" for i in range(BIG.vocab_size - 2)], 1)


def big_model():
    return build_mcm(BIG, init_random(BIG.vocab_size, BIG.embed_dim,
                                      np.random.default_rng(0)), 0)


def test_save_load_and_rebuild_hold_one_copy_of_the_table(tmp_path):
    model = big_model()
    ckpt = make_checkpoint(model, BIG_VOCAB, CLASSES)
    path = tmp_path / "big.mcm"
    _, _, peak = traced_memory(lambda: save_checkpoint(ckpt, path))
    assert peak <= 0.5 * BIG_TABLE_BYTES

    def load_and_rebuild():
        loaded = load_checkpoint(path)
        return loaded, rebuild_model(loaded)[0]

    (loaded, rebuilt), _, peak = traced_memory(load_and_rebuild)
    assert peak <= 1.5 * BIG_TABLE_BYTES
    assert np.shares_memory(rebuilt.embedding.vectors.data, loaded.arrays["embedding.vectors"])
    saved = model.arrays()
    assert all(np.array_equal(a, saved[name]) for name, a in rebuilt.arrays().items())


def test_make_checkpoint_copies_no_array():
    model = big_model()
    _, _, peak = traced_memory(lambda: make_checkpoint(model, BIG_VOCAB, CLASSES))
    assert peak < 0.5 * BIG_TABLE_BYTES


def test_fit_returns_holding_no_copy_of_the_table():
    model = big_model()
    rng = np.random.default_rng(0)
    train = EncodedCorpus(rng.integers(2, 50, size=(6, 6)), np.array([0, 1, 2] * 2))
    test = EncodedCorpus(rng.integers(2, 50, size=(3, 6)), np.array([0, 1, 2]))
    (ckpt, _), held, _ = traced_memory(
        lambda: fit(model, train, test, TrainConfig(epochs=1, batch_size=6), BIG_VOCAB, CLASSES))
    assert held < 0.5 * BIG_TABLE_BYTES
    shares_every_array(ckpt, model)


def test_vocab_size_must_match_token_count(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    vocab = Vocabulary.of(ckpt.vocab.id_to_token[:-1], ckpt.vocab.min_count)
    with pytest.raises(CheckpointError, match="vocab_size"):
        dataclasses.replace(ckpt, vocab=vocab)


def test_class_count_must_match_num_classes(ckpt_path):
    ckpt = load_checkpoint(ckpt_path)
    with pytest.raises(CheckpointError, match="num_classes"):
        dataclasses.replace(ckpt, class_names=ckpt.class_names[:-1])


def with_config(path, **fields):
    """A copy of the checkpoint at ``path`` with some config fields replaced."""
    header = json.loads(checkpoint_blocks(path.read_bytes())[0])
    header.update(fields)
    return splice(path, header=json.dumps(header).encode())




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


# A flag must be a JSON boolean: "no" is truthy, and 0 or 1 would be
# written back as a number.
@pytest.mark.parametrize("value", ["no", 0, 1, None])
@pytest.mark.parametrize("kind,key", [("mcm", "embedding_trainable"), ("mcm", "attention"),
                                      ("mcm", "stop_disc_gradients"),
                                      ("baseline", "embedding_trainable")])
def test_a_flag_must_be_true_or_false(ckpt_path, baseline_path, kind, key, value):
    path = ckpt_path if kind == "mcm" else baseline_path
    with pytest.raises(CheckpointError, match=f"config {key} .* is not true or false"):
        rebuild_model(load_checkpoint(with_config(path, **{key: value})))


@pytest.mark.parametrize("kind,key,value", [("mcm", *case) for case in wrong_typed(McmConfig)]
                         + [("baseline", *case) for case in wrong_typed(BaselineConfig)])
def test_rebuild_refuses_a_config_value_of_the_wrong_type(ckpt_path, baseline_path, kind, key,
                                                          value):
    path = ckpt_path if kind == "mcm" else baseline_path
    with pytest.raises(CheckpointError) as info:
        rebuild_model(load_checkpoint(with_config(path, **{key: value})))
    assert str(info.value).startswith(f"config {key} {value!r} is not ")


# `mcm eval` on the committed fixture with one value of the wrong type:
# (block, key, value, the one line it prints)
WRONG_TYPED_FIXTURE = [
    ("header", "dropout", False, "error: config dropout False is not a number"),
    ("header", "kernel1", True, "error: config kernel1 True is not an integer"),
    ("header", "kind", [], "error: unknown checkpoint kind []"),
    ("vocab", "min_count", True, "error: malformed checkpoint: vocabulary block needs a token "
                                 "list and an integer min_count of at least 1"),
    ("header", "variant", ["x", 1], "error: config variant ['x', 1] is not a string"),
    ("header", "variant", "a,b", "error: config variant 'a,b' holds a comma or a line break"),
    ("header", "best_epoch", 1.5, "error: config best_epoch 1.5 is not an integer"),
    ("header", "seed", True, "error: config seed True is not an integer"),
]


@pytest.mark.parametrize("block,key,value,message", WRONG_TYPED_FIXTURE)
def test_eval_refuses_a_value_of_the_wrong_type_in_one_line(tmp_path, capsys, block, key, value,
                                                            message):
    path = tmp_path / "small_mcm.mcm"
    shutil.copyfile(os.path.join(FIXTURES, "small_mcm.mcm"), path)
    if block == "header":
        bad = with_config(path, **{key: value})
    else:
        tokens = load_checkpoint(path).vocab.id_to_token
        bad = splice(path, vocab=json.dumps({"tokens": tokens, key: value}).encode())
    (tmp_path / "test.tsv").write_text("w1 w2\ta\n", encoding="utf-8")
    assert cli.main(["eval", "--checkpoint", str(bad), "--test", str(tmp_path / "test.tsv"),
                     "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


# The keys training stores besides the model's config: the variant, which
# `mcm eval` prints and writes as a field of eval_results.csv, the best
# epoch and the seed.
@pytest.mark.parametrize("key,value,reason", [
    ("variant", ["x", 1], "is not a string"), ("variant", 1, "is not a string"),
    ("variant", None, "is not a string"), ("variant", "a,b", "holds a comma or a line break"),
    ("variant", "McM_R\n", "holds a comma or a line break"),
    ("variant", "a\rb", "holds a comma or a line break"),
    ("best_epoch", 1.5, "is not an integer"), ("best_epoch", True, "is not an integer"),
    ("best_epoch", "1", "is not an integer"), ("seed", True, "is not an integer"),
    ("seed", 1.0, "is not an integer"), ("seed", None, "is not an integer"),
])
@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_rebuild_refuses_a_training_record_it_cannot_report(ckpt_path, baseline_path, kind, key,
                                                            value, reason):
    path = ckpt_path if kind == "mcm" else baseline_path
    with pytest.raises(CheckpointError) as info:
        rebuild_model(load_checkpoint(with_config(path, **{key: value})))
    assert str(info.value) == f"config {key} {value!r} {reason}"

def test_a_frozen_table_stays_frozen_through_a_checkpoint(tmp_path):
    model = build_mcm(SMALL_MCM, init_random(10, 4, np.random.default_rng(0)), 0)
    model.embedding.vectors.requires_grad = False
    save_checkpoint(make_checkpoint(model, SMALL_VOCAB, CLASSES), tmp_path / "frozen.mcm")
    rebuilt, _ = rebuild_model(load_checkpoint(tmp_path / "frozen.mcm"))
    table = rebuilt.embedding.vectors
    assert not table.requires_grad
    assert all(p is not table for p in rebuilt.parameters())


def test_a_baseline_checkpoint_with_a_zero_dimension_is_refused(baseline_path, capsys):
    ckpt = load_checkpoint(baseline_path)
    edit = {"config": {**ckpt.config, "num_filters": 0},
            "arrays": {name: a[..., :0] if name in ("conv.weights", "conv.bias", "hidden.weights")
                       else a for name, a in ckpt.arrays.items()}}  # the filter axis is last
    message = "invalid checkpoint configuration: all dimensions must be positive"
    with pytest.raises(CheckpointError, match=f"^{message}$"):
        dataclasses.replace(ckpt, **edit)
    with open(baseline_path, "wb") as fh:  # the bytes a checkpoint cannot be made of
        unchecked = types.SimpleNamespace(**{**vars(ckpt), **edit})
        checkpoint._write_checkpoint(unchecked, fh)
    assert cli.main(["predict", "--checkpoint", str(baseline_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["mcm", "baseline"])
def test_max_len_at_the_ceiling_loads(ckpt_path, baseline_path, kind):
    path = ckpt_path if kind == "mcm" else baseline_path
    model, _ = rebuild_model(load_checkpoint(with_config(path, max_len=MAX_LEN_CEILING)))
    assert model.config.max_len == MAX_LEN_CEILING


# Files written by the checkpoint code of commit c89f5c0, before McM and the
# baseline shared one model protocol: SMALL_MCM (batchnorm buffers shifted
# off their initial values) and a small baseline, each from make_checkpoint.
# small_mcm_attention.mcm is SMALL_MCM with attention, its buffers shifted
# the same way (buffer k in field order gets + 0.25 * (k + 1)), written by
# the code of commit d3d270e, before parameter groups named their arrays
# from their fields; it pins where the attention arrays are stored.
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


@pytest.mark.parametrize("name", ["small_mcm.mcm", "small_mcm_attention.mcm", "baseline.mcm"])
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
    ckpt_path.write_bytes(fill_payloads(ckpt_path.read_bytes(), ["cnn1.bias"], value, count=1))
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
    path.write_bytes(fill_payloads(path.read_bytes(), ["cnn1.bias"], np.nan))
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
    ckpt_path.write_bytes(fill_payloads(ckpt_path.read_bytes(), list(ckpt.arrays), np.nan))
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
