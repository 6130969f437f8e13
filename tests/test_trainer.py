"""Trainer: block-wise optimizer steps against whole-array updates, bitwise
determinism of fit, and checkpoint validation down to the CLI."""
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcm import cli
from mcm import tensor as T
from mcm.data import EncodedCorpus, Vocabulary
from mcm.embeddings import init_random
from mcm.model import BaselineConfig, McmConfig, build_baseline, build_mcm
from mcm.tensor import Tape, Tensor, backward
from mcm.trainer import (
    CheckpointError,
    Optimizer,
    TrainConfig,
    fit,
    load_checkpoint,
    make_checkpoint,
    rebuild_model,
    save_checkpoint,
)

from .helpers import weighted_sum

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
], ids=["vocab-without-tokens", "non-finite-array", "huge-embed-dim"])
def test_predict_on_bad_checkpoint_prints_one_error_line(ckpt_path, corrupt):
    bad = corrupt(ckpt_path)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "mcm.cli", "predict", "--checkpoint", str(bad)],
                          input="w1 w2\n", capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert proc.stdout == ""


def test_main_reports_checkpoint_error_without_traceback(ckpt_path, capsys):
    bad = splice(ckpt_path, **BAD_BLOCKS["config block not an object"])
    assert cli.main(["eval", "--checkpoint", str(bad), "--test", "unused.tsv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
