"""Train one fixed list of small runs and record what each computes.

    python3 tools/golden_training.py           # print the record as JSON
    python3 tools/golden_training.py --write   # write it to tests/fixtures/golden_training.json

Each run of ``RUNS`` is one ``run_training`` on the same corpus
(``corpus``): 240 ``gen_synthetic`` records of the Table-1 profile, split
80/20 by ``stratified_split``, at d = 8 for 2 epochs with every other
``TrainConfig`` field at its default. ``record`` keeps, as ``float.hex``
strings, each epoch's training loss and, per head, the sum over the test
split of the log of the probability that ``infer_probabilities`` gives the
true class; it keeps ``best_epoch`` as an int.

``tests/test_trainer.py`` reruns the list and compares it with the
committed file at ``perfbench/reference.json``'s loss rtol, so a change of
what training or inference computes fails Tier-1. A change that moves
these numbers on purpose says why in CHANGES.md and rewrites the file with
``--write``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from mcm.data import encode, gen_synthetic, stratified_split, table1_profile
from mcm.trainer import TrainConfig, infer_probabilities, run_training

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "golden_training.json"

CORPUS_SEED = 7
BASE = TrainConfig(epochs=2, embedding_dim=8)
# (name, model kind, the TrainConfig fields that differ from BASE) of each run
RUNS = [
    ("mcm_random_attention", "mcm", {"embedding_mode": "random", "attention": True}),
    ("mcm_domain", "mcm", {"embedding_mode": "domain"}),
    ("baseline", "baseline", {}),
]


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help=f"write the record to {GOLDEN}")
    args = p.parse_args(argv)
    text = json.dumps(golden(), indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
