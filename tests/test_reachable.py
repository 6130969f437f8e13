"""Every function in ``src/mcm`` runs in a program, or ``KEEP`` says why not.

``test_every_function_runs_or_is_kept`` runs each ``mcm`` command of
``tools/output_manifest.py``'s ``SCENARIOS`` through ``cli.main``, in this
process and under ``sys.setprofile``, on a tiny corpus (d = 8, one epoch),
checks each command's expected exit code, then runs one forward of a McM
built with ``stop_disc_gradients=True``. Each code object called is
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
import os
import sys

import numpy as np

from mcm import cli
from mcm.embeddings import init_random
from mcm.model import build_mcm

from .helpers import SMALL_MCM, load_tool

output_manifest = load_tool("output_manifest")

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
    "tensor.matvec": "the tape op lstm_step multiplies its weights with",
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
    "model.McmOutput.probs_disc": "perfbench's serving answers",
    "tensor.Tape.__len__": "perfbench's tensor.tape_nodes and infer_tape_nodes",
}

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


def run_scenarios():
    codes = [code for *_, code in output_manifest.run_all(cli.main)]
    assert codes == [0] + [code for *_, code in output_manifest.SCENARIOS]
    model = build_mcm(dataclasses.replace(SMALL_MCM, stop_disc_gradients=True),
                      init_random(10, 4, np.random.default_rng(0)), 0)
    model.head_logits(np.ones((2, SMALL_MCM.max_len), dtype=np.int64), "infer")


def test_every_function_runs_or_is_kept(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    called = called_keys(run_scenarios)
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
