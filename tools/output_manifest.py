"""Hash every output of one fixed list of mcm commands; compare two checkouts.

    python3 tools/output_manifest.py DIR           # print DIR's manifest
    python3 tools/output_manifest.py BASE CHANGE   # name each entry that differs

For each DIR, one ``python -c`` child runs ``GEN_SYNTH``, then
``write_inputs``, then ``SCENARIOS`` through ``mcm.cli.main``, with
``PYTHONPATH=DIR/src`` and a fresh temporary working directory; stdin is
patched and stdout and stderr are captured. The manifest holds one
``<sha256>  <entry>`` line per output: ``<argv> stdout``, ``<argv> stderr``
and ``<argv> exit`` for each command (``< file`` after the argv names its
stdin), then each file left in the working directory, by its path relative
to it. The inputs (``write_inputs`` and the committed fixtures) come from
this tree, so both sides read the same bytes.

With one DIR the tool prints the manifest. With two it prints each entry
whose hash differs, or that only one side has, then a count on stderr, and
exits 1 if any entry differs. The same checkout twice is a determinism
check. It exits 2, before any run, when a DIR holds no ``src/mcm/cli.py``,
and 1 when a child fails.

``tests/test_reachable.py`` runs the same list in its own process and checks
each command's expected exit code, so every command here is also one that
the reachability test runs. Two kinds of check are left out of the list:

* re-saving each fixture: a Tier-1 test,
  ``test_committed_checkpoint_loads_and_resaves_byte_identically``, pins
  that against the committed bytes, which is stronger than comparing two
  checkouts;
* checkpoints whose JSON blocks are patched to hold a refused value: Tier-1
  asserts each refusal's exact one-line message. The one such file here,
  ``fixtures/format-2.mcm``, stands for a later layout's checkpoint that
  today's reader must refuse rather than misread.

Only the standard library is imported at module level, so the tool can run
against a checkout whose ``mcm`` is not this tree's.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

ARGS = ["--epochs", "1", "--embedding-dim", "8"]
DATA = ["--train", "data/train.tsv", "--test", "data/test.tsv"]
GEN_SYNTH = ["gen-synth", "--n", "120", "--seed", "5", "--out", "data"]
# The files the scenarios read besides gen-synth's (see ``write_inputs``): a
# config file with a bool key, read with the train file with one malformed
# line; a config file that sets a key twice, and one that sets a value
# outside its bound; messages to predict, 300 of them with line 257 empty
# (more than one inference batch of 256); a test file and messages in the
# small fixtures' words (w0-w7) and classes (a, b, c); and a test file and
# messages in the golden fixtures' words (tools/golden_training.py's corpus)
# and classes (Table-1's).
CONFIG = ("train = data/malformed.tsv\ntest = data/test.tsv\nout = elmo\nepochs = 1\n"
          "embedding = elmo_like\nembedding_dim = 8\nselect_on = validation\n"
          "optimizer = adadelta\nattention = yes\n")
TWICE = ("train = data/train.tsv\ntest = data/test.tsv\nout = twice\nepochs = 1\n"
         "embedding_dim = 8\nepochs = 2\n")
BOUND = "train = data/train.tsv\ntest = data/test.tsv\nout = bound\nepochs = 0\n"
MESSAGES = "shukria bahut acha kaam\n\nrishwat mangta hai\n"
MANY = "".join("\n" if i == 257 else f"shukria bahut acha kaam {i}\n" for i in range(1, 301))
FIXTURE_TEST = "w1 w2 w3\ta\nw4 w5\tb\nw6 w7 w0\tc\nw2 w2\ta\n"
FIXTURE_MESSAGES = "w1 w2\n\nw3 zzz w4\n"
GOLDEN_TEST = ("zabardast bravo thankyou tareef\tAppreciation\n"
               "sorted resolved mutmaeen theek\tSatisfied\n"
               "bheer crowded parking intezargah\tPeripheral complaint\n"
               "audit probe maloomat parhtal\tDemanded inquiry\n"
               "rishwat paisay mangta kickback\tCorruption\n")
GOLDEN_MESSAGES = "Zabardast!! BRAVO, thankyou\nsorted resolved\n\nrishwat qwerty audit\n"
# A config file that sets a bool to false, for a train file whose labels are
# not Table-1's (gen-synth's, each "praise" or "complaint") and that holds one
# line of each kind a reader rejects, and a test file with one label the
# train file lacks.
LABELS = ("train = data/labels-train.tsv\ntest = data/labels-test.tsv\nout = labels\n"
          "epochs = 1\nembedding_dim = 8\nattention = no\n")
PRAISE = ("Appreciation", "Satisfied")
REJECTED = (b"\n" b"\xff\xfe not utf-8\tpraise\n" b"no tab here\n" b"no label here\t\n"
            b"short\tpraise\n" b"one\tneutral\n")
# (name, test file, messages) of each committed fixture that eval and predict serve
SMALL_INPUTS = ("fixtures/test.tsv", "fixtures/messages.txt")
GOLDEN_INPUTS = ("fixtures/golden-test.tsv", "fixtures/golden-messages.txt")
SERVED = ([(name, *SMALL_INPUTS) for name in ("baseline", "small_mcm", "small_mcm_attention")]
          + [(f"golden_{name}", *GOLDEN_INPUTS) for name in ("mcm_attention", "mcm", "baseline")])
# (argv, the file on stdin, the expected exit code) of each command after
# gen-synth and write_inputs, in order, in gen-synth's working directory
SCENARIOS = [
    (["train", *DATA, "--out", "random", *ARGS, "--attention"], None, 0),
    # singleton batches take _head_forward's infer-mode batchnorm fallback
    (["train", *DATA, "--out", "domain", *ARGS, "--embedding", "domain", "--optimizer", "sgd",
      "--batch-size", "1"], None, 0),
    (["train", "--config", "run.cfg"], None, 0),
    *[step for run in ("random", "domain", "elmo") for step in (
        (["eval", "--checkpoint", f"{run}/checkpoint.mcm", "--test", "data/test.tsv",
          "--out", f"{run}/eval"], None, 0),
        (["predict", "--checkpoint", f"{run}/checkpoint.mcm"], "messages.txt", 0))],
    # a test line without a tab is skipped and counted on stderr
    (["eval", "--checkpoint", "random/checkpoint.mcm", "--test", "data/malformed.tsv",
      "--out", "random/eval-malformed"], None, 0),
    (["predict", "--checkpoint", "random/checkpoint.mcm"], "many.txt", 0),
    *[step for name, test, messages in SERVED for step in (
        (["eval", "--checkpoint", f"fixtures/{name}.mcm", "--test", test,
          "--out", f"fixtures/{name}-eval"], None, 0),
        (["predict", "--checkpoint", f"fixtures/{name}.mcm"], messages, 0))],
    # a checkpoint cut to 100 bytes is refused with one error: line
    (["predict", "--checkpoint", "fixtures/truncated.mcm"], "messages.txt", 1),
    # so is a checkpoint whose config holds a key the reader does not know
    (["predict", "--checkpoint", "fixtures/format-2.mcm"], "messages.txt", 1),
    (["eval", "--checkpoint", "fixtures/format-2.mcm", "--test", "fixtures/test.tsv",
      "--out", "fixtures/format-2-eval"], None, 1),
    # a config file that sets a key twice is refused before any training
    (["train", "--config", "twice.cfg"], None, 1),
    # so is one that sets a value outside its bound, naming the line and key
    (["train", "--config", "bound.cfg"], None, 1),
    # a train file of other labels than Table-1's, with a line of each rejected kind
    (["train", "--config", "labels.cfg"], None, 0),
    # a test label that training never saw is refused, with its line
    (["eval", "--checkpoint", "labels/checkpoint.mcm", "--test", "data/labels-test.tsv",
      "--out", "labels/eval"], None, 1),
    (["matrix", *DATA, "--out", "matrix", *ARGS], None, 0),
    (["matrix", *DATA, "--out", "matrix-max-len-2", *ARGS, "--max-len", "2"], None, 0),
]

# The child's program: load this file as a module, run the list through the
# ``mcm`` that PYTHONPATH finds, and print the manifest.
CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("output_manifest", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
from mcm.cli import main
print("\\n".join(tool.manifest(main, json.loads(sys.argv[2]))))
"""


def with_format_key(raw: bytes) -> bytes:
    """The checkpoint bytes ``raw`` with ``"format": 2`` added to the config
    block, which follows the 4 magic bytes and the block's 4-byte length."""
    (size,) = struct.unpack_from("<I", raw, 4)
    block = json.dumps({**json.loads(raw[8:8 + size]), "format": 2}, sort_keys=True).encode()
    return raw[:4] + struct.pack("<I", len(block)) + block + raw[8 + size:]


def relabelled(path) -> str:
    """The lines of a gen-synth TSV file, each labelled "praise" (a label of
    ``PRAISE``) or "complaint"."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return "".join(f"{text}\t{'praise' if label in PRAISE else 'complaint'}\n"
                   for text, label in (line.rsplit("\t", 1) for line in lines))


def write_inputs() -> None:
    """Write the files named in ``CONFIG``, ``LABELS`` and ``SCENARIOS`` that
    gen-synth does not write; data/malformed.tsv is data/train.tsv and one
    line that has no tab, the labels files are gen-synth's ``relabelled``
    with ``REJECTED`` and one unseen label, and the two derived checkpoints
    are small_mcm.mcm cut to 100 bytes and with a ``format`` key."""
    train = Path("data/train.tsv").read_text(encoding="utf-8")
    Path("fixtures").mkdir()
    for name, *_ in SERVED:
        shutil.copyfile(FIXTURES / f"{name}.mcm", f"fixtures/{name}.mcm")
    small = (FIXTURES / "small_mcm.mcm").read_bytes()
    Path("fixtures/truncated.mcm").write_bytes(small[:100])
    Path("fixtures/format-2.mcm").write_bytes(with_format_key(small))
    Path("data/labels-train.tsv").write_bytes(relabelled("data/train.tsv").encode() + REJECTED)
    for path, text in [("run.cfg", CONFIG), ("twice.cfg", TWICE), ("bound.cfg", BOUND),
                       ("labels.cfg", LABELS),
                       ("data/labels-test.tsv",
                        relabelled("data/test.tsv") + "a message nobody labelled\tneutral\n"),
                       ("data/malformed.tsv", train + "no tab here\n"),
                       ("messages.txt", MESSAGES), ("many.txt", MANY),
                       ("fixtures/test.tsv", FIXTURE_TEST),
                       ("fixtures/messages.txt", FIXTURE_MESSAGES),
                       ("fixtures/golden-test.tsv", GOLDEN_TEST),
                       ("fixtures/golden-messages.txt", GOLDEN_MESSAGES)]:
        Path(path).write_text(text, encoding="utf-8")


def entry(argv, stdin) -> str:
    return " ".join(argv) + (f" < {stdin}" if stdin else "")


def run_command(main, argv, stdin) -> tuple:
    """(entry, stdout, stderr, exit code) of ``main(argv)`` with the file
    ``stdin`` (or nothing) on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(Path(stdin).read_text(encoding="utf-8") if stdin else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return entry(argv, stdin), out.getvalue(), err.getvalue(), code


def run_all(main, scenarios=SCENARIOS) -> list:
    """Run ``GEN_SYNTH``, ``write_inputs`` and then ``scenarios`` through
    ``main`` in the working directory: (entry, stdout, stderr, exit code)
    of each command."""
    outcomes = [run_command(main, GEN_SYNTH, None)]
    write_inputs()
    return outcomes + [run_command(main, argv, stdin) for argv, stdin, _ in scenarios]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(main, scenarios=SCENARIOS) -> list:
    """The manifest's lines after ``run_all`` in the working directory."""
    lines = []
    for name, out, err, code in run_all(main, scenarios):
        lines += [f"{sha256(out.encode())}  {name} stdout",
                  f"{sha256(err.encode())}  {name} stderr",
                  f"{sha256(str(code).encode())}  {name} exit"]
    paths = sorted(Path(root, f).as_posix() for root, _, files in os.walk(".") for f in files)
    return lines + [f"{sha256(Path(p).read_bytes())}  {p}" for p in paths]


def checkout_manifest(checkout: str) -> dict:
    """{entry: sha256} of the list run against ``checkout``'s ``src/``."""
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(Path(__file__).resolve()), json.dumps(SCENARIOS)],
            cwd=work, env={**os.environ, "PYTHONPATH": os.path.join(checkout, "src")},
            capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"the scenarios exited with code {proc.returncode} in {checkout}")
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in proc.stdout.splitlines())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", help="a checkout whose src/ runs the list")
    p.add_argument("other", nargs="?", help="a second checkout, compared with the first")
    args = p.parse_args(argv)
    checkouts = [os.path.abspath(d) for d in (args.checkout, args.other) if d is not None]
    for checkout in checkouts:
        cli = os.path.join(checkout, "src", "mcm", "cli.py")
        if not os.path.isfile(cli):
            print(f"error: no {cli}; each DIR must name a checkout", file=sys.stderr)
            return 2
    try:
        manifests = [checkout_manifest(checkout) for checkout in checkouts]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(manifests) == 1:
        print("\n".join(f"{digest}  {name}" for name, digest in manifests[0].items()))
        return 0
    first, second = manifests
    names = {**first, **second}
    differ = [name for name in names if first.get(name) != second.get(name)]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(names)} entries differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
