"""Every function in ``src/mcm`` runs in a program, or ``KEEP`` says why not.

``test_every_function_runs_or_is_kept`` runs each ``mcm`` command of
``SCENARIOS`` through ``cli.main``, in this process and under
``sys.setprofile``, on a tiny corpus (d = 8, one epoch), then one forward of
a McM built with ``stop_disc_gradients=True``. Each code object called is
matched to its ``def`` by file, first line and name (``co_qualname`` needs
Python 3.11). The test fails on a function that nothing reached and that
``KEEP`` does not name, and on a ``KEEP`` entry that no longer exists or
that the scenarios now reach, so the list cannot go stale.

A function that no command reaches is used, deleted, or added to ``KEEP``
with its reason.
"""
import ast
import dataclasses
import glob
import io
import os
import sys
from pathlib import Path

import numpy as np

from mcm import cli
from mcm.embeddings import init_random
from mcm.model import build_mcm

from .helpers import SMALL_MCM

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mcm")

# Functions that no command runs, each with the reason it stays.
KEEP = {
    # the per-op entry points that aim 2 keeps for tests: each checks one
    # op, or one step of a fused layer, on its own
    "layers.conv1d": "the per-op form of conv1d_batch",
    "layers.lstm_step": "one LSTM step, the reference for lstm_sequence_batch",
    "layers.lstm_sequence": "one sequence, the reference for lstm_sequence_batch",
    "layers.soft_attention": "one sequence, the reference for soft_attention_batch",
    "tensor.elementwise": "the dispatch over the elementwise ops",
    "tensor.reduce": "the dispatch over the reductions",
    "tensor.matvec": "the tape op soft_attention scores with",
    # the ops only those entry points call
    "tensor.sub": "an elementwise kind",
    "tensor.mul": "an elementwise kind, and lstm_step's gate products",
    "tensor.sigmoid": "an elementwise kind, and lstm_step's gates",
    "tensor.sigmoid_array": "sigmoid's values",
    "tensor.tanh": "an elementwise kind, and lstm_step's cell",
    "tensor.reduce_sum": "a reduce kind",
    "tensor.reduce_sum.grad_fn": "its gradient rule",
    "tensor.reduce_mean": "a reduce kind",
    "tensor.reduce_mean.grad_fn": "its gradient rule",
    # what perfbench calls
    "embeddings.lookup": "perfbench's embeddings.lookup scope",
    "model.loss": "perfbench's layers.loss scope",
    "model.McmOutput.probs_disc": "perfbench's serving answers",
    "tensor.Tape.__len__": "perfbench's tensor.tape_nodes and infer_tape_nodes",
}

ARGS = ["--epochs", "1", "--embedding-dim", "8"]
DATA = ["--train", "data/train.tsv", "--test", "data/test.tsv"]
GEN_SYNTH = ["gen-synth", "--n", "120", "--seed", "5", "--out", "data"]
# The files the scenarios read besides gen-synth's: a config file with a
# bool key, and (see ``write_inputs``) the train file with one malformed line.
CONFIG = ("train = data/malformed.tsv\ntest = data/test.tsv\nout = elmo\nepochs = 1\n"
          "embedding = elmo_like\nembedding_dim = 8\nselect_on = validation\n"
          "optimizer = adadelta\nattention = yes\n")
MESSAGES = "shukria bahut acha kaam\n\nrishwat mangta hai\n"
# (argv, stdin) of each command after gen-synth and write_inputs, in order,
# in gen-synth's working directory
SCENARIOS = [
    (["train", *DATA, "--out", "random", *ARGS, "--attention"], None),
    # singleton batches take _head_forward's infer-mode batchnorm fallback
    (["train", *DATA, "--out", "domain", *ARGS, "--embedding", "domain", "--optimizer", "sgd",
      "--batch-size", "1"], None),
    (["train", "--config", "run.cfg"], None),
    *[step for run in ("random", "domain", "elmo") for step in (
        (["eval", "--checkpoint", f"{run}/checkpoint.mcm", "--test", "data/test.tsv",
          "--out", f"{run}/eval"], None),
        (["predict", "--checkpoint", f"{run}/checkpoint.mcm"], MESSAGES))],
    (["matrix", *DATA, "--out", "matrix", *ARGS], None),
]


def write_inputs() -> None:
    """Write ``CONFIG`` to run.cfg, and data/train.tsv with one line that
    has no tab to data/malformed.tsv."""
    Path("run.cfg").write_text(CONFIG, encoding="utf-8")
    train = Path("data/train.tsv").read_text(encoding="utf-8")
    Path("data/malformed.tsv").write_text(train + "no tab here\n", encoding="utf-8")


def defined_functions() -> dict:
    """{qualified name: its (file, first line, name) keys} for each ``def`` in
    ``src/mcm``. A decorated function's code starts at its first decorator.
    A property's getter and setter share one name and both must run."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.setdefault(qualname, set()).add((path, first, child.name))
                visit(child, qualname, path)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        visit(tree, os.path.splitext(os.path.basename(path))[0], os.path.realpath(path))
    return found


def called_keys(fn) -> set:
    """The (file, first line, name) of each code object called while
    ``fn()`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in codes}


def unkept(defined: dict, called: set, keep) -> list:
    """One line per fault: a function that nothing called and ``keep`` does
    not name, and a ``keep`` entry that is not defined or that was called."""
    unreached = {name for name, keys in defined.items() if not keys <= called}
    return ([f"unreached and not kept: {name}" for name in sorted(unreached - set(keep))]
            + [f"kept but not defined: {name}" for name in sorted(set(keep) - set(defined))]
            + [f"kept but reached: {name}" for name in sorted(set(keep) & set(defined))
               if name not in unreached])


def run_scenarios(monkeypatch):
    assert cli.main(GEN_SYNTH) == 0
    write_inputs()
    for argv, stdin in SCENARIOS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        assert cli.main(argv) == 0, argv
    model = build_mcm(dataclasses.replace(SMALL_MCM, stop_disc_gradients=True),
                      init_random(10, 4, np.random.default_rng(0)), 0)
    model.head_logits(np.ones((2, SMALL_MCM.max_len), dtype=np.int64), "infer")


def test_every_function_runs_or_is_kept(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    called = called_keys(lambda: run_scenarios(monkeypatch))
    faults = unkept(defined_functions(), called, KEEP)
    assert not faults, "\n".join(faults)


def test_unkept_names_each_fault():
    defined = {"m.f": {("m.py", 1, "f")}, "m.g": {("m.py", 5, "g")},
               "m.C.p": {("m.py", 9, "p"), ("m.py", 12, "p")}}
    called = {("m.py", 1, "f"), ("m.py", 9, "p")}  # p's setter never ran
    assert unkept(defined, called, {"m.g": ""}) == ["unreached and not kept: m.C.p"]
    assert unkept(defined, called, {"m.g": "", "m.C.p": "", "m.gone": "", "m.f": ""}) == [
        "kept but not defined: m.gone", "kept but reached: m.f"]


def test_the_keep_list_gives_each_entry_a_reason():
    assert all(reason.strip() for reason in KEEP.values())
