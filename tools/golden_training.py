"""Train one fixed list of small runs and record what each computes; train
the served golden fixtures and record what each answers.

    python3 tools/golden_training.py           # print both records as JSON
    python3 tools/golden_training.py --write   # write them and the fixtures to tests/fixtures

Each run of ``RUNS`` is one ``run_training`` on the same corpus
(``corpus``): 240 ``gen_synthetic`` records of the Table-1 profile, split
80/20 by ``stratified_split``, at d = 8 for 2 epochs with every other
``TrainConfig`` field at its default. ``record`` keeps, as ``float.hex``
strings, each epoch's training loss and, per head, the sum over the test
split of the log of the probability that ``infer_probabilities`` gives the
true class; it keeps ``best_epoch`` as an int.

Each fixture of ``FIXTURES`` is a model of ``SIZES`` built with its kind's
builder and trained by ``fit`` on the same corpus and ``TrainConfig``, and
saved as ``tests/fixtures/golden_<name>.mcm``. ``answers`` keeps, as
``float.hex`` strings, each head's ``infer_probabilities`` for each of
``MESSAGES``, encoded as ``mcm predict`` encodes a line. A fixture is
refused, before anything is written, if the features that a head's output
layer reads are all zero for every message, or if a head gives every
message the same probabilities: its answers could then not show a change of
the forward.

``tests/test_trainer.py`` reruns the list and compares it with the
committed file at ``perfbench/reference.json``'s loss rtol, and recomputes
each committed fixture's answers at ``ANSWERS_RTOL``, so a change of what
training or inference computes fails Tier-1. A change that moves these
numbers on purpose says why in CHANGES.md and rewrites the files with
``--write``.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from unittest import mock

import numpy as np

from mcm import model as model_module
from mcm.checkpoint import save_checkpoint
from mcm.data import (
    build_vocab,
    encode,
    encode_tokens,
    gen_synthetic,
    pick_max_len,
    stratified_split,
    table1_profile,
    tokenize,
)
from mcm.embeddings import init_random
from mcm.model import KINDS
from mcm.trainer import TrainConfig, fit, infer_probabilities, run_training, seed_streams

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
GOLDEN = FIXTURES_DIR / "golden_training.json"
ANSWERS = FIXTURES_DIR / "golden_answers.json"

CORPUS_SEED = 7
BASE = TrainConfig(epochs=2, embedding_dim=8)
# (name, model kind, the TrainConfig fields that differ from BASE) of each run
RUNS = [
    ("mcm_random_attention", "mcm", {"embedding_mode": "random", "attention": True}),
    ("mcm_domain", "mcm", {"embedding_mode": "domain"}),
    ("baseline", "baseline", {}),
]

# The served fixtures, as RUNS: each is built at SIZES (the fields its
# config has) on a random table of BASE's dimension.
FIXTURES = [
    ("mcm_attention", "mcm", {"attention": True}),
    ("mcm", "mcm", {}),
    ("baseline", "baseline", {}),
]
SIZES = {"num_filters": 8, "hidden_dim": 8, "dense1_dim": 8, "dense2_dim": 4}
# each head's output layer, whose input is the feature it answers from
OUTPUT_LAYERS = {"mcm": ("head_cnn.out", "head_slstm.out", "head_lstm.out", "disc.out"),
                 "baseline": ("out",)}
# Lines as ``mcm predict`` reads them: words of the corpus's vocabulary,
# unknown words, one token (fewer than the baseline's kernel of 3), more
# tokens than the fixtures' max_len of 12, and mixed case and punctuation.
MESSAGES = [
    "zabardast bravo thankyou tareef",
    "shukria bahut acha kaam hogaya",
    "rishwat mangi gayi paperwork audit",
    "bheer crowded parking intezargah",
    "qwerty zxcvb plonk",
    "theek",
    ("zabardast shandar tareef mashallah umda amazing grateful excellent khush happy mutmaeen "
     "appreciate behtreen thankyou wonderful pleased"),
    "Zabardast!! BRAVO, Thankyou... (tareef)",
    "sorted, resolved; SATISFIED? mutmaeen!",
    "amazing zzz acha maloomat qqq probe",
]
ANSWERS_RTOL = 1e-9  # another BLAS build may sum in another order


def corpus() -> tuple:
    """(train records, test records, class names) that every run uses."""
    rng = np.random.default_rng(CORPUS_SEED)
    profile = table1_profile()
    records = gen_synthetic(profile, 240, 0.5, 0.1, rng)
    return (*stratified_split(records, 0.8, rng), profile.names)


def record(kind: str, overrides: dict, data: tuple) -> dict:
    """What one run on ``data`` (as ``corpus`` returns it) computes:
    ``train_loss`` (one hex string per epoch), ``best_epoch``, and
    ``log_likelihood`` (head -> hex string)."""
    train, test, class_names = data
    cfg = TrainConfig(**{**vars(BASE), **overrides})
    model, ckpt, records = run_training(train, test, cfg, class_names, kind)
    enc = encode(test, ckpt.vocab, model.config.max_len)
    probs = infer_probabilities(model, enc.sequences)
    rows = np.arange(len(enc))
    return {
        "train_loss": [rec.train_loss.hex() for rec in records],
        "best_epoch": ckpt.config["best_epoch"],
        "log_likelihood": {head: float(np.log(p[rows, enc.labels]).sum()).hex()
                           for head, p in zip(model.heads, probs)},
    }


def golden() -> dict:
    """{run name: ``record``} of every run of ``RUNS``."""
    data = corpus()
    return {name: record(kind, overrides, data) for name, kind, overrides in RUNS}


def train_fixture(kind: str, overrides: dict, data: tuple):
    """(model, checkpoint) of one fixture, trained by ``fit`` on ``data``."""
    train, test, class_names = data
    cfg = TrainConfig(**{**vars(BASE), **overrides})
    streams = seed_streams(cfg.seed)
    vocab = build_vocab(train, cfg.min_count)
    max_len = pick_max_len(train)
    table = init_random(vocab.size, cfg.embedding_dim, np.random.default_rng(streams["embedding"]))
    # the config takes cfg's fields of the same name, SIZES and the four sizes
    given = {**vars(cfg), **SIZES, "vocab_size": vocab.size, "embed_dim": cfg.embedding_dim,
             "num_classes": len(class_names), "max_len": max_len}
    model_cls = KINDS[kind]
    config_cls = model_cls.config_class
    config = config_cls(**{f.name: given[f.name] for f in fields(config_cls) if f.name in given})
    model = model_cls.build(config, table, streams["model"])
    ckpt, _ = fit(model, encode(train, vocab, max_len), encode(test, vocab, max_len), cfg,
                  vocab, class_names)
    return model, ckpt


def fixture_path(name: str) -> Path:
    return FIXTURES_DIR / f"golden_{name}.mcm"


def answers(model, vocab) -> dict:
    """{head: {message: one hex string per class}} for ``MESSAGES``; raises
    ``ValueError`` for a head whose features are zero for every message or
    whose probabilities are the same for every message."""
    max_len = model.config.max_len
    ids = np.array([encode_tokens(tokenize(m), vocab, max_len) for m in MESSAGES])
    layers = [attrgetter(name)(model) for name in OUTPUT_LAYERS[model.kind]]
    features = {id(layer): [] for layer in layers}
    dense = model_module.dense

    def catching(x, params):  # ``dense``, keeping the input of each output layer
        if id(params) in features:
            features[id(params)].append(x.data.copy())
        return dense(x, params)

    with mock.patch.object(model_module, "dense", catching):
        probs = infer_probabilities(model, ids)
    for head, layer, p in zip(model.heads, layers, probs):
        if not np.any(np.concatenate(features[id(layer)])):
            raise ValueError(f"head {head}: its features are zero for every message")
        if np.all(p == p[0]):
            raise ValueError(f"head {head}: every message gets the same probabilities")
    return {head: {m: [float(x).hex() for x in row] for m, row in zip(MESSAGES, p)}
            for head, p in zip(model.heads, probs)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help=f"write the records to {GOLDEN} and {ANSWERS}, and the fixtures beside them")
    args = p.parse_args(argv)
    data = corpus()
    fixtures = {}
    for name, kind, overrides in FIXTURES:
        model, ckpt = train_fixture(kind, overrides, data)
        try:
            fixtures[name] = (ckpt, answers(model, ckpt.vocab))
        except ValueError as exc:
            print(f"error: fixture {name}: {exc}", file=sys.stderr)
            return 1
    texts = {GOLDEN: golden(), ANSWERS: {name: a for name, (_, a) in fixtures.items()}}
    texts = {path: json.dumps(obj, indent=2, sort_keys=True) + "\n" for path, obj in texts.items()}
    if not args.write:
        sys.stdout.write("".join(texts.values()))
        return 0
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
    for name, (ckpt, _) in fixtures.items():
        save_checkpoint(ckpt, fixture_path(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
