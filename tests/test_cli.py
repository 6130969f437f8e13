"""The mcm command line end to end: gen-synth -> train -> eval -> predict,
each in its own process. Training with domain embeddings runs skip-gram
pretraining at its defaults (window 5, 5 epochs) through its real caller."""
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mcm.checkpoint import load_checkpoint, rebuild_model
from mcm.data import DEFAULT_CLASSES, encode_tokens, tokenize
from mcm.trainer import INFER_BATCH

from .helpers import assemble_checkpoint, checkpoint_blocks

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def mcm(cwd, *args, stdin=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "mcm.cli", *args], cwd=cwd, input=stdin,
                          capture_output=True, text=True, env=env, timeout=300)


def test_gen_synth_train_eval_predict(tmp_path):
    gen = mcm(tmp_path, "gen-synth", "--n", "120", "--seed", "3", "--out", "data")
    assert gen.returncode == 0, gen.stderr
    train_lines = (tmp_path / "data" / "train.tsv").read_text().splitlines()
    test_lines = (tmp_path / "data" / "test.tsv").read_text().splitlines()
    assert len(train_lines) + len(test_lines) == 120

    train = mcm(tmp_path, "train", "--train", "data/train.tsv", "--test", "data/test.tsv",
                "--out", "run", "--epochs", "1", "--embedding", "domain",
                "--embedding-dim", "16")
    assert train.returncode == 0, train.stderr
    assert train.stdout.startswith("McM_D: best epoch 0")
    for name in ("checkpoint.mcm", "results.csv", "curve_McM_D.csv"):
        assert (tmp_path / "run" / name).stat().st_size > 0, name
    ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.mcm")
    assert ckpt.kind == "mcm" and ckpt.config["embed_dim"] == 16

    ev = mcm(tmp_path, "eval", "--checkpoint", "run/checkpoint.mcm",
             "--test", "data/test.tsv", "--out", "ev")
    assert ev.returncode == 0, ev.stderr
    with open(tmp_path / "ev" / "eval_results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # three learners and the discriminator

    pred = mcm(tmp_path, "predict", "--checkpoint", "run/checkpoint.mcm",
               stdin="shukria bahut acha\n\nrishwat mangta hai\n")
    assert pred.returncode == 0, pred.stderr
    lines = pred.stdout.splitlines()
    assert len(lines) == 3 and lines[1] == "UNKNOWN\t0.0000"
    for line in (lines[0], lines[2]):
        label, prob = line.split("\t")
        assert label in DEFAULT_CLASSES and 0.0 < float(prob) <= 1.0


def test_class_names_come_from_the_training_file(tmp_path):
    texts = {"praise": ["shukria bahut acha", "bahut acha kaam", "acha kaam kiya"],
             "complaint": ["doctor nahi aya", "koi doctor nahi", "dawai nahi mili"],
             "question": ["hospital kab khulta", "doctor kab aye ga", "kab milay gi dawai"]}
    rows = [(t, label) for label, ts in texts.items() for t in ts]
    (tmp_path / "train.tsv").write_text("".join(f"{t}\t{label}\n" for t, label in rows))
    (tmp_path / "test.tsv").write_text("".join(f"{t}\t{label}\n" for t, label in rows[::2]))

    train = mcm(tmp_path, "train", "--train", "train.tsv", "--test", "test.tsv", "--out", "run",
                "--epochs", "1", "--embedding-dim", "8", "--min-count", "1")
    assert train.returncode == 0, train.stderr
    assert "rejected" not in train.stderr
    assert "training on 3 classes: complaint, praise, question" in train.stderr
    ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.mcm")
    assert ckpt.class_names == ("complaint", "praise", "question")
    assert ckpt.config["num_classes"] == 3

    ev = mcm(tmp_path, "eval", "--checkpoint", "run/checkpoint.mcm", "--test", "test.tsv",
             "--out", "ev")
    assert ev.returncode == 0, ev.stderr
    with open(tmp_path / "ev" / "eval_results.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == 4

    pred = mcm(tmp_path, "predict", "--checkpoint", "run/checkpoint.mcm",
               stdin="doctor nahi aya\nshukria bahut acha\n")
    assert pred.returncode == 0, pred.stderr
    lines = pred.stdout.splitlines()
    assert len(lines) == 2
    assert all(line.split("\t")[0] in ckpt.class_names for line in lines)


def test_train_on_a_single_non_table1_label_prints_one_error(tmp_path):
    rows = ["shukria bahut acha", "bahut acha kaam", "acha kaam kiya", "kaam bahut acha"]
    (tmp_path / "train.tsv").write_text("".join(f"{t}\tpraise\n" for t in rows))
    (tmp_path / "test.tsv").write_text(f"{rows[0]}\tpraise\n")
    train = mcm(tmp_path, "train", "--train", "train.tsv", "--test", "test.tsv", "--out", "run",
                "--epochs", "1", "--embedding-dim", "8", "--min-count", "1")
    assert train.returncode == 1
    assert train.stderr.splitlines() == [
        "error: train file train.tsv has one class label, 'praise'; "
        "a classifier needs at least 2"]
    assert not (tmp_path / "run" / "checkpoint.mcm").exists()


def test_train_with_a_nan_learning_rate_prints_one_error(tmp_path):
    gen = mcm(tmp_path, "gen-synth", "--n", "120", "--seed", "3", "--out", "data")
    assert gen.returncode == 0, gen.stderr
    run = mcm(tmp_path, "train", "--train", "data/train.tsv", "--test", "data/test.tsv",
              "--out", "run", "--epochs", "1", "--embedding-dim", "8", "--lr", "nan")
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: learning rate"), run.stderr
    assert run.stdout == "" and not (tmp_path / "run" / "checkpoint.mcm").exists()


def test_train_with_a_diverging_learning_rate_prints_one_error(tmp_path):
    gen = mcm(tmp_path, "gen-synth", "--n", "120", "--seed", "3", "--out", "data")
    assert gen.returncode == 0, gen.stderr
    run = mcm(tmp_path, "train", "--train", "data/train.tsv", "--test", "data/test.tsv",
              "--out", "run", "--epochs", "1", "--batch-size", "512", "--lr", "1e308")
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), run.stderr
    assert not (tmp_path / "run" / "checkpoint.mcm").exists()


def select_on_an_empty_validation_part(tmp_path, command):
    """``command`` selecting on validation, where 2 records per class leave
    the 80/20 validation carve-out empty."""
    words = ["shukria bahut acha", "bahut acha kaam", "rishwat mangta hai",
             "rishwat di gayi", "doctor nahi aya", "koi doctor nahi"]
    labels = ["Appreciation", "Appreciation", "Corruption", "Corruption",
              "Unresponsive", "Unresponsive"]
    (tmp_path / "train.tsv").write_text("".join(f"{w}\t{l}\n" for w, l in zip(words, labels)))
    (tmp_path / "test.tsv").write_text("".join(f"{w}\t{l}\n" for w, l in
                                               zip(words[::2], labels[::2])))
    run = mcm(tmp_path, command, "--train", "train.tsv", "--test", "test.tsv", "--out", "run",
              "--epochs", "1", "--embedding-dim", "8", "--select-on", "validation")
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "validation" in lines[0]
    assert run.stdout == ""


def test_train_selecting_on_an_empty_validation_part_prints_one_error(tmp_path):
    select_on_an_empty_validation_part(tmp_path, "train")


def test_matrix_selecting_on_an_empty_validation_part_refuses_before_any_cell(tmp_path):
    select_on_an_empty_validation_part(tmp_path, "matrix")
    assert not (tmp_path / "run").exists()


def test_eval_and_predict_take_a_baseline_checkpoint(tmp_path):
    ckpt_file = os.path.join(TESTS, "fixtures", "baseline.mcm")  # classes a, b, c
    (tmp_path / "test.tsv").write_text("w1 w2 w3\ta\nw4 w5\tb\nw6 w7 w0\tc\nw2 w2\ta\n")
    ev = mcm(tmp_path, "eval", "--checkpoint", ckpt_file, "--test", "test.tsv", "--out", "ev")
    assert ev.returncode == 0, ev.stderr
    with open(tmp_path / "ev" / "eval_results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["model"], r["component"], r["status"]) for r in rows] == [("Baseline", "-", "ok")]

    pred = mcm(tmp_path, "predict", "--checkpoint", ckpt_file, stdin="w1 w2\nw3 zzz w4\n")
    assert pred.returncode == 0, pred.stderr
    lines = pred.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        label, prob = line.split("\t")
        assert label in ("a", "b", "c") and 0.0 < float(prob) <= 1.0


def test_eval_reports_the_lines_it_rejects(tmp_path):
    ckpt_file = os.path.join(TESTS, "fixtures", "baseline.mcm")  # classes a, b, c
    (tmp_path / "test.tsv").write_text("w1 w2 w3\ta\nno tab here\nw4 w5\tb\nw6 w7 w0\tc\n")
    ev = mcm(tmp_path, "eval", "--checkpoint", ckpt_file, "--test", "test.tsv", "--out", "ev")
    assert ev.returncode == 0
    assert ev.stderr.splitlines() == ["test: rejected 1 of 4 lines"]
    with open(tmp_path / "ev" / "eval_results.csv", newline="", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["ok"]


# A checkpoint's vocabulary and class list, each made wrong in one way, and
# the one line `mcm predict` and `mcm eval` print for it.
PAD_UNK = "vocabulary must start with '<pad>' and '<unk>'"
BAD_LISTS = {
    "repeated-token": ("tokens", ["<pad>", "<unk>", "w0", "w0"] + [f"w{i}" for i in range(2, 8)],
                       "vocabulary token 'w0' appears more than once"),
    "specials-out-of-place": ("tokens", ["<unk>", "<pad>"] + [f"w{i}" for i in range(8)],
                              f"{PAD_UNK}, got ['<unk>', '<pad>']"),
    "empty-vocabulary": ("tokens", [], f"{PAD_UNK}, got []"),
    "repeated-class-names": ("class_names", ["a", "a", "a"],
                             "class name 'a' appears more than once"),
}


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("case", sorted(BAD_LISTS))
def test_a_malformed_vocabulary_or_class_list_prints_one_error(tmp_path, command, case):
    field, value, message = BAD_LISTS[case]
    with open(os.path.join(TESTS, "fixtures", "small_mcm.mcm"), "rb") as fh:
        header, vocab, rest = checkpoint_blocks(fh.read())
    if field == "tokens":
        vocab = json.dumps({**json.loads(vocab), "tokens": value}).encode()
    else:
        header = json.dumps({**json.loads(header), "class_names": value}).encode()
    (tmp_path / "bad.mcm").write_bytes(assemble_checkpoint(header, vocab, rest))
    (tmp_path / "test.tsv").write_text("w1 w2 w3\ta\nw4 w5\tb\n")
    if command == "predict":
        run = mcm(tmp_path, "predict", "--checkpoint", "bad.mcm", stdin="w1 w2\n")
    else:
        run = mcm(tmp_path, "eval", "--checkpoint", "bad.mcm", "--test", "test.tsv", "--out", "ev")
    assert run.returncode == 1
    assert run.stderr.splitlines() == [f"error: malformed checkpoint: {message}"]
    assert run.stdout == "" and not (tmp_path / "ev").exists()


@pytest.mark.parametrize("fixture", ["small_mcm.mcm", "baseline.mcm"])
def test_predict_answers_each_of_more_lines_than_a_batch_in_order(tmp_path, fixture):
    """300 lines, more than ``INFER_BATCH``, with empty and punctuation-only
    lines on both sides of line 256: one output line per input, each the
    label and probability of that line predicted alone."""
    assert INFER_BATCH < 300
    ckpt_file = os.path.join(TESTS, "fixtures", fixture)  # classes a, b, c; words w0-w7
    rng = np.random.default_rng(31)
    lines = [" ".join(f"w{i}" for i in rng.integers(0, 9, size=rng.integers(1, 8)))
             for _ in range(300)]
    for i in (0, 120, 254, 255, 256, 299):
        lines[i] = ""
    for i in (1, 253, 257, 258):
        lines[i] = "?! ... ,,"
    pred = mcm(tmp_path, "predict", "--checkpoint", ckpt_file, stdin="\n".join(lines) + "\n")
    assert pred.returncode == 0, pred.stderr

    ckpt = load_checkpoint(ckpt_file)
    model, vocab = rebuild_model(ckpt)
    alone = []
    for line in lines:
        if not tokenize(line):
            alone.append("UNKNOWN\t0.0000")
            continue
        ids = encode_tokens(tokenize(line), vocab, ckpt.config["max_len"])[None]
        p = model.head_probabilities(ids)[-1].data[0]
        alone.append(f"{ckpt.class_names[int(np.argmax(p))]}\t{p.max():.4f}")
    assert pred.stdout.splitlines() == alone


@pytest.mark.parametrize("stdin", ["", "\n ,, \n\n"])
def test_predict_without_a_message_to_classify(tmp_path, stdin):
    ckpt_file = os.path.join(TESTS, "fixtures", "small_mcm.mcm")
    pred = mcm(tmp_path, "predict", "--checkpoint", ckpt_file, stdin=stdin)
    assert (pred.returncode, pred.stderr) == (0, "")
    assert pred.stdout.splitlines() == ["UNKNOWN\t0.0000"] * stdin.count("\n")


def test_matrix_on_a_tiny_corpus_fills_every_row(tmp_path):
    gen = mcm(tmp_path, "gen-synth", "--n", "120", "--seed", "4", "--out", "data")
    assert gen.returncode == 0, gen.stderr
    options = ["--train", "data/train.tsv", "--test", "data/test.tsv", "--epochs", "1",
               "--embedding-dim", "8"]
    run = mcm(tmp_path, "matrix", *options, "--out", "matrix")
    assert run.returncode == 0, run.stderr
    with open(tmp_path / "matrix" / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25  # the baseline plus 6 variants x 4 components
    assert all(r["status"] == "ok" for r in rows)
    assert (rows[0]["model"], rows[0]["component"]) == ("Baseline", "-")
    for variant, header in [("Baseline", "epoch,baseline"),
                            ("McM_R", "epoch,cnn,slstm,lstm,discriminator")]:
        curve = (tmp_path / "matrix" / f"curve_{variant}.csv").read_text().splitlines()
        assert curve[0] == header and len(curve) == 2

    # the matrix's McM_R cell is `mcm train --embedding random` on the same options
    train = mcm(tmp_path, "train", *options, "--out", "run", "--embedding", "random")
    assert train.returncode == 0, train.stderr
    with open(tmp_path / "run" / "results.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.DictReader(fh)) == [r for r in rows if r["model"] == "McM_R"]
    assert ((tmp_path / "run" / "curve_McM_R.csv").read_bytes()
            == (tmp_path / "matrix" / "curve_McM_R.csv").read_bytes())
