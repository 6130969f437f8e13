"""The checkpoint reader under mutation. Each committed fixture is cut at
every field boundary of its header and of its first tensor entry, and at
and after the first byte of each payload; has bytes of its JSON config
block flipped; and has each config value, its kind, class names,
vocabulary tokens and min_count replaced by each JSON type.
``load_checkpoint`` plus ``rebuild_model`` must then raise
``CheckpointError`` or return a model; and ``mcm eval`` on a sample of the
refused files exits 1 with one ``error:`` line."""
import json
import math
import os
import struct

import numpy as np
import pytest

from mcm import cli
from mcm.checkpoint import CheckpointError, load_checkpoint, rebuild_model

from .helpers import assemble_checkpoint, checkpoint_blocks

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
NAMES = ["small_mcm.mcm", "small_mcm_attention.mcm", "baseline.mcm"]
JSON_VALUES = [None, True, 0, 1, 1.5, "x", [], {}]
FLIPS = 150  # per fixture
EVAL_SAMPLE = 6  # refused files run through `mcm eval`, per fixture and mutation


def read_fixture(name):
    with open(os.path.join(FIXTURES, name), "rb") as fh:
        return fh.read()


def cut_points(raw):
    """Where each field of the file header and of the first tensor entry
    starts (later entries repeat those reads), and where each payload
    starts and one byte into it."""
    header, vocab, _ = checkpoint_blocks(raw)
    pos = 12 + len(header) + len(vocab)
    cuts = [0, 4, 8, 8 + len(header), 12 + len(header), pos]
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    for i in range(count):
        start = pos
        (name_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2 + name_len
        rank = raw[pos]
        shape = struct.unpack_from(f"<{rank}I", raw, pos + 1)
        if i == 0:  # name length, name, rank, each dimension
            cuts += [start, start + 2, pos] + [pos + 1 + 4 * d for d in range(rank)]
        pos += 1 + 4 * rank
        cuts += [pos, pos + 1]
        pos += 8 * math.prod(shape)
    assert pos == len(raw)
    return cuts


def truncations(raw, rng):
    return [(f"cut at byte {cut}", raw[:cut]) for cut in cut_points(raw)]


def flips(raw, rng):
    header, vocab, rest = checkpoint_blocks(raw)
    out = []
    for _ in range(FLIPS):
        at, mask = int(rng.integers(len(header))), int(rng.integers(1, 256))
        flipped = bytearray(header)
        flipped[at] ^= mask
        out.append((f"config byte {at} ^ {mask:#04x}",
                    assemble_checkpoint(bytes(flipped), vocab, rest)))
    return out


def replacements(raw, rng):
    header, vocab, rest = checkpoint_blocks(raw)
    config, vocab_block = json.loads(header), json.loads(vocab)
    out = []
    for value in JSON_VALUES:
        for key in config:  # every config key, kind and class_names
            changed = json.dumps({**config, key: value}, sort_keys=True).encode()
            out.append((f"config {key} = {value!r}", assemble_checkpoint(changed, vocab, rest)))
        for key in vocab_block:  # tokens and min_count
            changed = json.dumps({**vocab_block, key: value}).encode()
            out.append((f"vocabulary {key} = {value!r}",
                        assemble_checkpoint(header, changed, rest)))
    return out


@pytest.mark.parametrize("mutate", [truncations, flips, replacements])
@pytest.mark.parametrize("name", NAMES)
def test_a_mutated_checkpoint_loads_or_is_refused(tmp_path, capsys, name, mutate):
    raw = read_fixture(name)
    # the mutations change only what they say
    assert assemble_checkpoint(*checkpoint_blocks(raw)) == raw
    rng = np.random.default_rng(2021)
    path = tmp_path / "mutated.mcm"
    refused, escaped = [], []
    for what, data in mutate(raw, rng):
        path.write_bytes(data)
        try:
            rebuild_model(load_checkpoint(path))
        except CheckpointError:
            refused.append(data)
        except Exception as exc:  # noqa: BLE001 - every other exception is the failure
            escaped.append(f"{what}: {type(exc).__name__}: {exc}")
    assert escaped == []
    assert refused

    test_tsv = tmp_path / "test.tsv"
    test_tsv.write_text("w1 w2\ta\nw3\tb\n", encoding="utf-8")
    capsys.readouterr()
    for i in rng.choice(len(refused), size=min(EVAL_SAMPLE, len(refused)), replace=False):
        path.write_bytes(refused[i])
        assert cli.main(["eval", "--checkpoint", str(path), "--test", str(test_tsv),
                         "--out", str(tmp_path / "eval")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert captured.out == ""
