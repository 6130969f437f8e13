"""Embedding strategies: determinism, pad handling, trigram composition,
skip-gram shared-context separation, and block-wise skip-gram against the
pair-by-pair loop it replaced.

The skip-gram corpus has two word groups, {2, 3} and {4, 5}. Within a group
the words share their contexts; across groups words never co-occur. The
returned vectors are SGNS input vectors, which land close for words with
shared contexts (second-order similarity), so the groups must separate."""
import numpy as np
import pytest

from mcm import data, embeddings
from mcm import tensor as T
from mcm.embeddings import (
    PAD_ID,
    SkipGramConfig,
    char_compose,
    char_compose_table,
    init_random,
    lookup,
    train_skipgram,
)
from mcm.tensor import Tape, backward

from .helpers import dense_grad, wrong_typed


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestInitRandom:
    def test_same_seed_is_bitwise_identical(self):
        t1 = init_random(10, 8, np.random.default_rng(3))
        t2 = init_random(10, 8, np.random.default_rng(3))
        assert np.array_equal(t1.vectors.data, t2.vectors.data)

    def test_pad_row_is_zero(self):
        t = init_random(10, 8, np.random.default_rng(4))
        assert np.array_equal(t.vectors.data[PAD_ID], np.zeros(8))

    def test_dim_300_and_range(self):
        t = init_random(50, 300, np.random.default_rng(5))
        assert t.vectors.shape == (50, 300)
        assert np.all(np.abs(t.vectors.data) < 0.05)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ValueError):
            init_random(1, 8, np.random.default_rng(0))


class TestLookup:
    def test_pad_rows_are_zero(self):
        t = init_random(10, 4, np.random.default_rng(6))
        out = lookup(t, [PAD_ID, PAD_ID])
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_single_id_gathers_row(self):
        t = init_random(10, 4, np.random.default_rng(7))
        assert np.array_equal(lookup(t, [5]).data[0], t.vectors.data[5])

    def test_gradient_scatter_adds_to_looked_up_rows(self):
        t = init_random(6, 3, np.random.default_rng(8))
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(lookup(t, [3, 3]), 1), 0)
        backward(s, tape)
        expected = np.zeros((6, 3))
        expected[3] = 2.0
        assert np.array_equal(dense_grad(t.vectors), expected)

    def test_pad_row_never_updated(self):
        t = init_random(6, 3, np.random.default_rng(9))
        with Tape() as tape:
            s = T.reduce_sum(T.reduce_sum(lookup(t, [PAD_ID, 2]), 1), 0)
        backward(s, tape)
        assert np.array_equal(dense_grad(t.vectors)[PAD_ID], np.zeros(3))
        assert np.array_equal(dense_grad(t.vectors)[2], np.ones(3))

    def test_id_out_of_range(self):
        t = init_random(6, 3, np.random.default_rng(10))
        with pytest.raises(ValueError):
            lookup(t, [6])

    def test_special_ids_are_the_data_modules(self):
        assert (embeddings.PAD_ID, embeddings.UNK_ID) == (data.PAD_ID, data.UNK_ID)


class TestCharCompose:
    def test_deterministic(self):
        assert np.array_equal(char_compose("abc", 64), char_compose("abc", 64))

    def test_dim_1024(self):
        assert char_compose("shukria", 1024).shape == (1024,)

    def test_spelling_variants_are_closer_than_unrelated(self):
        a = char_compose("mehrbani", 256)
        b = char_compose("meharbani", 256)
        c = char_compose("hospital", 256)
        # trigram-overlap oracle: the variants share most trigrams
        tri = lambda w: {("^" + w + "$")[i:i + 3] for i in range(len(w) - 1 + 2)}
        shared_variant = len(tri("mehrbani") & tri("meharbani"))
        shared_unrelated = len(tri("mehrbani") & tri("hospital"))
        assert shared_variant > shared_unrelated
        assert cosine(a, b) > cosine(a, c)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            char_compose("", 64)

    def test_vocabulary_order_independent(self):
        tokens = ["<pad>", "<unk>", "alpha", "beta", "gamma"]
        t1 = char_compose_table(tokens, 32, np.random.default_rng(1))
        reordered = ["<pad>", "<unk>", "gamma", "alpha", "beta"]
        t2 = char_compose_table(reordered, 32, np.random.default_rng(1))
        assert np.array_equal(t1.vectors.data[2], t2.vectors.data[3])  # alpha

    def test_table_pad_zero_unk_random(self):
        t = char_compose_table(["<pad>", "<unk>", "word"], 16, np.random.default_rng(2))
        assert np.array_equal(t.vectors.data[0], np.zeros(16))
        assert np.any(t.vectors.data[1] != 0)


def paired_corpus(n_sentences=300):
    """Alternating sentences [2, 3, 2, 3] and [4, 5, 4, 5].

    Within a group the words share contexts: with window >= 2 the contexts
    of 2 and of 3 are both {2, 3}, and those of 4 and 5 are both {4, 5}.
    Across groups words never co-occur.
    """
    corpus = []
    for i in range(n_sentences):
        corpus.append([2, 3, 2, 3] if i % 2 == 0 else [4, 5, 4, 5])
    return corpus


class TestSkipGram:
    def test_cooccurrence_separation(self):
        cfg = SkipGramConfig(dim=16, window=2, negative_samples=3, epochs=3)
        for seed in range(1, 6):
            table = train_skipgram(paired_corpus(), 6, cfg, np.random.default_rng(seed))
            v = table.vectors.data
            assert cosine(v[2], v[3]) > cosine(v[2], v[4])
            assert cosine(v[4], v[5]) > cosine(v[4], v[3])

    def test_zero_epochs_returns_initialization(self):
        cfg = SkipGramConfig(dim=8, epochs=0)
        table = train_skipgram(paired_corpus(10), 6, cfg, np.random.default_rng(2))
        expected = init_random(6, 8, np.random.default_rng(2))
        assert np.array_equal(table.vectors.data, expected.vectors.data)

    def test_output_dim_300(self):
        cfg = SkipGramConfig(epochs=1)
        table = train_skipgram(paired_corpus(10), 6, cfg, np.random.default_rng(3))
        assert table.vectors.shape[1] == 300 and table.vectors.requires_grad

    @pytest.mark.parametrize("field,value", [
        pytest.param(field, value, id=f"{field}-{value!r}")
        for field, value in wrong_typed(SkipGramConfig)])
    def test_config_refuses_a_value_of_the_wrong_type(self, field, value):
        with pytest.raises(ValueError) as info:
            SkipGramConfig(**{field: value})
        assert str(info.value).startswith(f"{field} {value!r} is not ")

    @pytest.mark.parametrize("field,value", [("dim", 0), ("window", 0), ("negative_samples", 0),
                                             ("epochs", -1), ("learning_rate", 0.0)])
    def test_config_refuses_a_value_out_of_range(self, field, value):
        with pytest.raises(ValueError, match="invalid skip-gram configuration"):
            SkipGramConfig(**{field: value})

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_skipgram([], 6, SkipGramConfig(dim=4), np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_skipgram([[]], 6, SkipGramConfig(dim=4), np.random.default_rng(0))

    def test_deterministic(self):
        cfg = SkipGramConfig(dim=8, epochs=1)
        t1 = train_skipgram(paired_corpus(20), 6, cfg, np.random.default_rng(4))
        t2 = train_skipgram(paired_corpus(20), 6, cfg, np.random.default_rng(4))
        assert np.array_equal(t1.vectors.data, t2.vectors.data)

    def test_pad_row_stays_zero(self):
        cfg = SkipGramConfig(dim=8, epochs=2)
        table = train_skipgram(paired_corpus(20), 6, cfg, np.random.default_rng(5))
        assert np.array_equal(table.vectors.data[PAD_ID], np.zeros(8))


def reference_skipgram(corpus, vocab_size, cfg, rng):
    """The pair-by-pair SGNS loop: one rng.random(k) draw, one np.add.at
    scatter and one learning rate per pair, in corpus order."""
    table = init_random(vocab_size, cfg.dim, rng)
    w_in = table.vectors.data
    w_out = np.zeros_like(w_in)
    counts = np.zeros(vocab_size)
    sentences = []
    for sent in corpus:
        ids = np.asarray([i for i in sent if i != PAD_ID], dtype=np.intp)
        if ids.size:
            sentences.append(ids)
            np.add.at(counts, ids, 1.0)
    noise = counts ** 0.75
    noise[PAD_ID] = 0.0
    noise_cdf = np.cumsum(noise / noise.sum())
    total_pairs = sum(
        min(c + cfg.window + 1, len(s)) - max(c - cfg.window, 0) - 1
        for s in sentences for c in range(len(s))
    ) * max(cfg.epochs, 1)
    seen = 0
    for _ in range(cfg.epochs):
        for sent in sentences:
            for c in range(len(sent)):
                center = sent[c]
                lo, hi = max(c - cfg.window, 0), min(c + cfg.window + 1, len(sent))
                for o in range(lo, hi):
                    if o == c:
                        continue
                    lr = cfg.learning_rate * max(1.0 - seen / total_pairs, 1e-4)
                    seen += 1
                    negs = np.searchsorted(noise_cdf, rng.random(cfg.negative_samples))
                    rows = np.concatenate(([sent[o]], negs))
                    labels = np.zeros(len(rows))
                    labels[0] = 1.0
                    v = w_in[center]
                    outs = w_out[rows]
                    err = labels - 1.0 / (1.0 + np.exp(-outs @ v))
                    grad_in = err @ outs
                    np.add.at(w_out, rows, np.outer(err, v) * lr)
                    w_in[center] += lr * grad_in
    w_in[PAD_ID] = 0.0
    return w_in


def edge_corpus():
    """Pad ids inside and around sentences, empty, all-pad and one-token
    sentences, and words repeated within a sentence."""
    return [[0, 2, 3, 0, 4], [], [5], [0, 0], [6, 6, 6, 7, 0, 8, 9], [0, 10],
            [11, 2, 11, 2, 3], [4], [7, 8, 0, 0, 9, 10, 11, 2], [3, 3]]


def four_word_corpus():
    """Ids 1-3 only, so nearly every pair's context and negatives repeat a row."""
    rng = np.random.default_rng(11)
    return [list(rng.integers(1, 4, size=n)) for n in rng.integers(0, 9, size=40)]


def long_corpus():
    """More pairs than one block at every window below, and pads."""
    rng = np.random.default_rng(12)
    corpus = []
    while sum(len(s) for s in corpus) < 2800:
        sent = rng.integers(1, 30, size=rng.integers(0, 17))
        sent[rng.random(sent.size) < 0.1] = PAD_ID
        corpus.append(list(sent))
    return corpus


CORPORA = {"edge": (edge_corpus, 12), "four-words": (four_word_corpus, 4),
           "long": (long_corpus, 30)}
# (window, negative_samples, epochs)
SCHEDULES = [(1, 1, 1), (2, 5, 1), (5, 5, 3), (2, 3, 0)]


class TestSkipGramAgainstPairLoop:
    @pytest.mark.parametrize("window,negatives,epochs", SCHEDULES)
    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_same_table_and_generator_state(self, name, window, negatives, epochs):
        make, vocab_size = CORPORA[name]
        corpus = make()
        if name == "long" and epochs:
            pairs = sum(min(c + window + 1, n) - max(c - window, 0) - 1
                        for n in (sum(1 for i in s if i != PAD_ID) for s in corpus)
                        for c in range(n))
            assert pairs > embeddings._BLOCK
        cfg = SkipGramConfig(dim=4, window=window, negative_samples=negatives, epochs=epochs)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        table = train_skipgram(corpus, vocab_size, cfg, rng)
        expected = reference_skipgram(corpus, vocab_size, cfg, ref_rng)
        assert table.vectors.data.tobytes() == expected.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_result_does_not_depend_on_block_size(self, monkeypatch, block):
        monkeypatch.setattr(embeddings, "_BLOCK", block)
        cfg = SkipGramConfig(dim=4, window=2, negative_samples=3, epochs=2)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        table = train_skipgram(edge_corpus(), 12, cfg, rng)
        expected = reference_skipgram(edge_corpus(), 12, cfg, ref_rng)
        assert table.vectors.data.tobytes() == expected.tobytes()
        assert rng.random() == ref_rng.random()

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            train_skipgram([[2, 6]], 6, SkipGramConfig(dim=4), np.random.default_rng(0))
        with pytest.raises(ValueError, match="out of range"):
            train_skipgram([[2, -1]], 6, SkipGramConfig(dim=4), np.random.default_rng(0))
