"""Word embedding strategies: random init, domain skip-gram with negative
sampling, and a character-trigram hashing embedder for spelling-variant
robustness.

The trigram embedder stands in for a pretrained character-compositional
model: words sharing most trigrams (common for Roman Urdu spelling
variants) land near each other, with the conventional d=1024 interface.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import PAD_ID, UNK_ID
from .layers import Params, check_fields
from .tensor import GatheredRows, Tensor


@dataclass
class EmbeddingTable(Params):
    """Token-id -> vector table: ``vectors`` is (vocab_size, dim). Row 0 is
    padding: all-zero and never updated. The table trains when
    ``vectors.requires_grad`` is set; a checkpoint stores that as
    ``embedding_trainable``."""

    vectors: Tensor


@dataclass
class SkipGramConfig:
    dim: int = 300
    window: int = 5
    negative_samples: int = 5
    epochs: int = 5
    learning_rate: float = 0.025

    def __post_init__(self):
        check_fields(SkipGramConfig, vars(self))
        if self.dim <= 0 or self.window < 1 or self.negative_samples < 1:
            raise ValueError("invalid skip-gram configuration")
        if self.epochs < 0 or self.learning_rate <= 0:
            raise ValueError("invalid skip-gram configuration")


def init_random(vocab_size: int, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Uniform(-0.05, 0.05) rows; the pad row stays zero."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2 (pad and unk are reserved)")
    vecs = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
    vecs[PAD_ID] = 0.0
    return EmbeddingTable(Tensor(vecs, requires_grad=True))


def lookup(table: EmbeddingTable, ids) -> Tensor:
    """Gather rows for a flat id sequence: (l,) -> (l, dim).

    The gradient scatter-adds back to the looked-up rows only; the pad row
    is excluded so it stays zero for the lifetime of the table. It is
    ``lookup_distinct(table, ids).dense()``.
    """
    return lookup_distinct(table, ids).dense()


def lookup_distinct(table: EmbeddingTable, ids) -> GatheredRows:
    """``lookup`` held as the distinct ids, for layers that project the
    embedded rows (see ``GatheredRows``); the pad row gets no gradient."""
    return GatheredRows(table.vectors, ids, skip_row=PAD_ID)


# ---------------------------------------------------------------------------
# character-compositional embedding


def _trigrams(word: str):
    padded = "^" + word + "$"
    return [padded[i:i + 3] for i in range(len(padded) - 2)]


def char_compose(word: str, dim: int) -> np.ndarray:
    """Deterministic signed-hash composition of boundary-padded character
    trigrams, scaled by 1/sqrt(#trigrams).

    Pure function of the word alone; the same word always maps to the same
    vector, independent of vocabulary order or process.
    """
    if not word:
        raise ValueError("cannot embed an empty word")
    if dim <= 0:
        raise ValueError("dim must be positive")
    vec = np.zeros(dim)
    grams = _trigrams(word)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if h & 1 else -1.0
        vec[(h >> 1) % dim] += sign
    return vec / np.sqrt(len(grams))


def char_compose_table(tokens: list[str], dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Fill a table from ``char_compose`` of each non-special token.

    ``tokens`` is the full id->token list; rows 0 and 1 are treated as pad
    (zero) and unk (small random, since it has no spelling to compose).
    """
    vecs = np.zeros((len(tokens), dim))
    vecs[UNK_ID] = rng.uniform(-0.05, 0.05, size=dim)
    for i, tok in enumerate(tokens[2:], start=2):
        vecs[i] = char_compose(tok, dim)
    return EmbeddingTable(Tensor(vecs, requires_grad=True))


# ---------------------------------------------------------------------------
# skip-gram with negative sampling


# Most pairs per block in ``train_skipgram``. A block's pair ids, negatives
# and learning rates are built with a few array operations; only the
# updates, which read rows that earlier pairs wrote, run pair by pair.
_BLOCK = 4096


def train_skipgram(corpus: list, vocab_size: int, cfg: SkipGramConfig,
                   rng: np.random.Generator) -> EmbeddingTable:
    """Train input vectors on (center, context) pairs within the window.

    Each pair gets one positive update and ``negative_samples`` negative
    updates on the sigmoid dot-product loss, with negatives drawn from the
    unigram^0.75 distribution. With epochs=0 the returned table is exactly
    its random initialization. Single-threaded and deterministic.

    The update order is fixed: every epoch visits the pad-free sentences
    in corpus order, each sentence's centers left to right, and each
    center's contexts left to right. Each pair in that order takes the
    next ``negative_samples`` draws of ``rng`` and the learning rate
    ``learning_rate * max(1 - seen / total, 1e-4)``, where ``seen`` counts
    the pairs before it over all epochs. So the returned table, and the
    state ``rng`` is left in, depend only on the corpus, ``cfg`` and the
    state ``rng`` came in with, not on how the pairs are cut into blocks.

    The returned rows are the input (center) vectors; the output (context)
    vectors are discarded. Input vectors of words that share contexts land
    close (second-order similarity); words that merely co-occur, each in
    the other's context only, need not.
    """
    if not corpus or all(len(s) == 0 for s in corpus):
        raise ValueError("skip-gram corpus is empty")
    table = init_random(vocab_size, cfg.dim, rng)
    w_in = table.vectors.data
    w_out = np.zeros_like(w_in)

    sentences = [np.asarray([i for i in sent if i != PAD_ID], dtype=np.intp) for sent in corpus]
    tokens = np.concatenate(sentences)
    if not tokens.size:
        raise ValueError("skip-gram corpus is empty")
    if tokens.min() < 0 or tokens.max() >= vocab_size:
        raise ValueError("token id out of range in skip-gram corpus")
    # the span [start, end) in ``tokens`` of each token's sentence
    lengths = [s.size for s in sentences]
    end = np.repeat(np.cumsum(lengths), lengths)
    start = end - np.repeat(lengths, lengths)

    noise = np.bincount(tokens, minlength=vocab_size).astype(np.float64) ** 0.75
    noise[PAD_ID] = 0.0
    noise_cdf = np.cumsum(noise / noise.sum())

    window = cfg.window
    pos = np.arange(tokens.size)
    pairs_per_epoch = int((np.minimum(pos + window + 1, end)
                           - np.maximum(pos - window, start) - 1).sum())
    total_pairs = pairs_per_epoch * max(cfg.epochs, 1)
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    span = max(1, _BLOCK // offsets.size)  # centers per block
    labels = np.zeros(cfg.negative_samples + 1)
    labels[0] = 1.0
    seen = 0
    for _ in range(cfg.epochs):
        for lo in range(0, tokens.size, span):
            # (center, context) positions in loop order: center, then context
            centers = pos[lo:lo + span, None]
            context = centers + offsets
            valid = (context >= start[centers]) & (context < end[centers])
            centers = np.broadcast_to(tokens[centers], context.shape)[valid]
            m = centers.size
            rows = np.empty((m, labels.size), dtype=np.intp)
            rows[:, 0] = tokens[context[valid]]
            rows[:, 1:] = np.searchsorted(noise_cdf, rng.random((m, cfg.negative_samples)))
            lrs = cfg.learning_rate * np.maximum(1.0 - np.arange(seen, seen + m) / total_pairs,
                                                 1e-4)
            seen += m
            ordered = np.sort(rows, axis=1)
            repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            for center, row, lr, repeat in zip(centers.tolist(), rows, lrs.tolist(),
                                               repeats.tolist()):
                v = w_in[center]
                outs = w_out[row]
                err = labels - 1.0 / (1.0 + np.exp(-(outs @ v)))  # label - sigmoid(score)
                grad_in = err @ outs
                update = err[:, None] * v
                update *= lr
                if repeat:  # row by row in order, as np.add.at adds into repeated rows
                    for j, r in enumerate(row.tolist()):
                        w_out[r] += update[j]
                else:  # ``outs`` still holds these rows of ``w_out``
                    outs += update
                    w_out[row] = outs
                v += lr * grad_in
    w_in[PAD_ID] = 0.0
    return table

