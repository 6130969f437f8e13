"""The mcm command line end to end: gen-synth -> train -> eval -> predict,
each in its own process. Training with domain embeddings runs skip-gram
pretraining at its defaults (window 5, 5 epochs) through its real caller."""
import csv
import os
import subprocess
import sys

from mcm.data import DEFAULT_CLASSES
from mcm.trainer import load_checkpoint

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
    assert ckpt.class_names == ["complaint", "praise", "question"]
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
