"""Data pipeline: tokenization, vocabulary order, the skip-gram id
sequences, stratified splitting, apportionment, the synthetic corpus and
TSV loading over arbitrary bytes."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcm.data import (
    DEFAULT_CLASSES,
    PAD_ID,
    UNK_ID,
    LabeledText,
    TsvLoadResult,
    Vocabulary,
    apportion,
    build_vocab,
    gen_synthetic,
    load_training_tsv,
    load_tsv,
    stratified_indices,
    stratified_split,
    table1_profile,
    token_id_sequences,
    tokenize,
)


def records(*texts):
    return [LabeledText(t, 0) for t in texts]


class TestTokenize:
    def test_lowercases_and_splits_on_whitespace(self):
        assert tokenize("Shukria  BAHUT\tacha\nhai") == ["shukria", "bahut", "acha", "hai"]

    def test_strips_edge_punctuation_only(self):
        assert tokenize("(theek!) don't ...wait... e-mail") == ["theek", "don't", "wait", "e-mail"]

    def test_drops_tokens_that_are_only_punctuation(self):
        assert tokenize("!!! ok ... ?") == ["ok"]
        assert tokenize("   ") == []


class TestBuildVocab:
    def test_specials_then_frequency_then_lexicographic(self):
        vocab = build_vocab(records("b a c b", "c b d a", "e"), min_count=1)
        # b: 3; a, c: 2 each (a before c); d, e: 1 each (d before e)
        assert vocab.id_to_token == ("<pad>", "<unk>", "b", "a", "c", "d", "e")
        assert all(vocab.token_to_id[t] == i for i, t in enumerate(vocab.id_to_token))

    def test_min_count_drops_rare_words(self):
        vocab = build_vocab(records("b a c b", "c b d a", "e"), min_count=2)
        assert vocab.id_to_token == ("<pad>", "<unk>", "b", "a", "c")
        assert vocab.id("d") == UNK_ID and vocab.min_count == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=1)


class TestVocabularyOf:
    @pytest.mark.parametrize("tokens,message", [
        ([], "vocabulary must start with '<pad>' and '<unk>', got []"),
        (["<pad>"], "vocabulary must start with '<pad>' and '<unk>', got ['<pad>']"),
        (["<unk>", "<pad>", "a"], "vocabulary must start with '<pad>' and '<unk>', "
                                  "got ['<unk>', '<pad>']"),
        (["a", "<pad>", "<unk>"], "vocabulary must start with '<pad>' and '<unk>', "
                                  "got ['a', '<pad>']"),
        (["<pad>", "<unk>", "a", "b", "a"], "vocabulary token 'a' appears more than once"),
        (["<pad>", "<unk>", "<pad>"], "vocabulary token '<pad>' appears more than once"),
    ])
    def test_refuses_misplaced_specials_and_repeated_tokens(self, tokens, message):
        with pytest.raises(ValueError) as info:
            Vocabulary.of(tokens, 1)
        assert str(info.value) == message

    @pytest.mark.parametrize("tokens,min_count", [
        (["<pad>", "<unk>", 3], 1), (("<pad>", "<unk>", b"a"), 1), ("<pad><unk>", 1),
        (["<pad>", "<unk>"], 0), (["<pad>", "<unk>"], True), (["<pad>", "<unk>"], 2.0),
        (["<pad>", "<unk>"], None),
    ])
    def test_refuses_tokens_that_are_not_strings_and_a_min_count_below_1(self, tokens,
                                                                          min_count):
        with pytest.raises(ValueError) as info:
            Vocabulary.of(tokens, min_count)
        assert str(info.value) == ("vocabulary needs str tokens and an integer min_count "
                                   "of at least 1")

    @pytest.mark.parametrize("token_to_id", [
        {}, {"<pad>": 0, "<unk>": 1}, {"<pad>": 0, "<unk>": 1, "a": 2, "b": 2},
        {"<pad>": 0, "<unk>": 1, "a": 3, "b": 2}, {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3, "c": 4},
    ])
    def test_the_constructor_refuses_an_index_that_disagrees_with_the_tokens(self, token_to_id):
        with pytest.raises(ValueError) as info:
            Vocabulary(token_to_id, ["<pad>", "<unk>", "a", "b"], 1)
        assert str(info.value) == "token_to_id is not the index of id_to_token"


class TestTokenIdSequences:
    def test_unknown_words_map_to_unk_and_nothing_is_padded(self):
        vocab = build_vocab(records("acha acha theek", "theek hai"), min_count=2)
        seqs = token_id_sequences(records("acha nahi theek", "kal", "Acha, THEEK!"), vocab)
        acha, theek = vocab.id("acha"), vocab.id("theek")
        assert seqs == [[acha, UNK_ID, theek], [UNK_ID], [acha, theek]]
        assert all(PAD_ID not in s for s in seqs)


class TestStratifiedSplit:
    def test_partitions_the_input_per_class(self):
        recs = [LabeledText(f"r{i} x", i % 3) for i in range(31)]
        train, test = stratified_split(recs, 0.8, np.random.default_rng(0))
        ids = sorted(id(r) for r in train + test)
        assert ids == sorted(id(r) for r in recs)
        for label in range(3):
            n = sum(r.label == label for r in recs)
            assert sum(r.label == label for r in train) == round(0.8 * n)

    def test_same_seed_same_split(self):
        recs = [LabeledText(f"r{i} x", i % 2) for i in range(20)]
        a = stratified_split(recs, 0.5, np.random.default_rng(4))
        b = stratified_split(recs, 0.5, np.random.default_rng(4))
        assert [r.text for r in a[0]] == [r.text for r in b[0]]

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_fraction_must_lie_strictly_inside(self, fraction):
        with pytest.raises(ValueError):
            stratified_split(records("a b", "c d"), fraction, np.random.default_rng(0))

    def test_lone_record_lands_where_the_rounding_sends_it(self):
        # gen_synthetic's smallest corpus (n=120) holds one record of some classes
        recs = [LabeledText("a b", 0), LabeledText("c d", 0), LabeledText("e f", 1)]
        train, test = stratified_split(recs, 0.8, np.random.default_rng(0))
        assert [r.label for r in train] == [0, 0, 1] and test == []
        train, test = stratified_split(recs, 0.4, np.random.default_rng(0))
        assert [r.label for r in train] == [0] and [r.label for r in test] == [0, 1]


def record_level_split(records, train_fraction, rng):
    """stratified_split as it was before the index-level split existed."""
    by_class = {}
    for i, rec in enumerate(records):
        by_class.setdefault(rec.label, []).append(i)
    train, test = [], []
    for label in sorted(by_class):
        idxs = by_class[label]
        order = rng.permutation(len(idxs))
        cut = int(round(train_fraction * len(idxs)))
        for j, k in enumerate(order):
            (train if j < cut else test).append(records[idxs[k]])
    return train, test


class TestStratifiedIndices:
    @pytest.mark.parametrize("labels", [[0, 1, 0, 2, 1, 0, 0, 2, 1, 1, 0],
                                        [3, 3, 1], [5], list(range(7)) * 9])
    @pytest.mark.parametrize("fraction", [0.8, 0.5, 0.25])
    def test_stratified_split_is_unchanged(self, labels, fraction):
        recs = [LabeledText(f"r{i}", label) for i, label in enumerate(labels)]
        new_rng, old_rng = np.random.default_rng(9), np.random.default_rng(9)
        new = stratified_split(recs, fraction, new_rng)
        old = record_level_split(recs, fraction, old_rng)
        assert [[r.text for r in part] for part in new] == [[r.text for r in part] for part in old]
        assert new_rng.random() == old_rng.random()  # the same draws were consumed

    def test_positions_partition_the_labels(self):
        train, test = stratified_indices(np.array([2, 0, 2, 2, 0]), 0.5, np.random.default_rng(0))
        assert sorted(train + test) == list(range(5))
        assert stratified_indices([], 0.5, np.random.default_rng(0)) == ([], [])


class TestApportion:
    @pytest.mark.parametrize("n", [0, 1, 7, 120, 1000, 313_000])
    def test_sums_to_n_and_stays_within_one_of_the_quota(self, n):
        proportions = table1_profile().proportions
        counts = apportion(n, proportions)
        assert counts.sum() == n
        assert np.all(np.abs(counts - n * proportions) < 1.0)

    def test_largest_remainders_get_the_extra_units(self):
        assert apportion(10, [0.55, 0.25, 0.2]).tolist() == [6, 2, 2]
        assert apportion(3, [0.4, 0.35, 0.25]).tolist() == [1, 1, 1]


class TestGenSynthetic:
    def test_class_counts_follow_the_profile_exactly(self):
        profile = table1_profile()
        recs = gen_synthetic(profile, 1000, 0.5, 0.1, np.random.default_rng(2))
        counts = np.bincount([r.label for r in recs], minlength=profile.num_classes)
        assert counts.tolist() == apportion(1000, profile.proportions).tolist()

    def test_every_record_has_3_to_12_tokens(self):
        recs = gen_synthetic(table1_profile(), 240, 0.5, 0.0, np.random.default_rng(3))
        assert all(3 <= len(tokenize(r.text)) <= 12 for r in recs)

    def test_same_seed_same_corpus(self):
        a = gen_synthetic(table1_profile(), 120, 0.5, 0.1, np.random.default_rng(5))
        b = gen_synthetic(table1_profile(), 120, 0.5, 0.1, np.random.default_rng(5))
        assert [(r.text, r.label) for r in a] == [(r.text, r.label) for r in b]

    def test_too_few_records_for_the_classes_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(table1_profile(), 119, 0.5, 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("mix,noise,named", [(1.5, 0.1, "mix_rate"), (-0.1, 0.1, "mix_rate"),
                                                 (float("nan"), 0.1, "mix_rate"),
                                                 (0.5, -0.5, "noise_rate"),
                                                 (0.5, float("nan"), "noise_rate")])
    def test_a_rate_outside_0_1_rejected(self, mix, noise, named):
        with pytest.raises(ValueError, match=f"{named} must lie in \\[0, 1\\]"):
            gen_synthetic(table1_profile(), 120, mix, noise, np.random.default_rng(0))

    def test_the_rate_bounds_are_accepted(self):
        for mix, noise in ((0.0, 1.0), (1.0, 0.0)):
            assert len(gen_synthetic(table1_profile(), 120, mix, noise,
                                     np.random.default_rng(0))) == 120


def strict_load_tsv(path, class_names):
    """load_tsv as it was before it took invalid UTF-8: strict decoding, so
    one bad byte raised UnicodeDecodeError and failed the whole load. Like
    load_tsv, it reports an empty label as one, not as an unknown label."""
    label_ids = {name: i for i, name in enumerate(class_names)}
    records, rejections = [], []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                rejections.append((line_no, "empty line"))
                continue
            text, sep, label = line.rpartition("\t")
            if not sep:
                rejections.append((line_no, "missing tab separator"))
                continue
            label = label.strip()
            if not label:
                rejections.append((line_no, "empty label"))
                continue
            if label not in label_ids:
                rejections.append((line_no, f"unknown label {label!r}"))
                continue
            if len(tokenize(text)) < 2:
                rejections.append((line_no, "fewer than 2 tokens"))
                continue
            records.append(LabeledText(text, label_ids[label]))
    return TsvLoadResult(records, rejections)


def byte_lines(raw: bytes) -> list:
    """The lines of a file as text-mode reading splits them: at LF, CR and
    CRLF (neither byte occurs inside a multi-byte UTF-8 sequence)."""
    text = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = text.split(b"\n")
    return lines[:-1] if lines[-1] == b"" else lines


def is_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# Valid pieces: words, labels (one with a slash), an empty-label tab, Urdu
# script, punctuation, and a 6000-byte run of words.
TEXT_PIECES = ["\t", "\r", "\n", "\r\n", " ", "  \t ", "shukria", "bahut", "acha", "é",
               "ڈاکٹر", "!!", "Appreciation", "Satisfied", "Obnoxious/irrelevant", "\t\n",
               "a " * 3000]
# Invalid UTF-8: a stray continuation byte, 0xff, a truncated 2- and 3-byte
# sequence, an encoded surrogate and an overlong encoding.
BAD_BYTES = [b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]

@st.composite
def tsv_lines(draw):
    """One line: words with bad bytes or stray tabs mixed in, a separator
    (usually a tab), a label (maybe empty or unknown) and a line end."""
    word = st.sampled_from(["shukria", "bahut", "acha", "ڈاکٹر", "é!", "a " * 3000]).map(str.encode)
    junk = st.one_of(st.sampled_from(BAD_BYTES + [b"\t"]), st.binary(max_size=4))
    words = draw(st.lists(st.one_of(word, junk) if draw(st.booleans()) else word, max_size=6))
    sep = draw(st.sampled_from([b"\t", b"\t", b"\t", b" ", b""]))
    label = draw(st.sampled_from(["Appreciation", "Satisfied", " Corruption ", "", "nope"]))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r", b""]))
    return b" ".join(words) + sep + label.encode() + end


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoadTsv:
    @FUZZ
    @given(lines=st.lists(tsv_lines(), max_size=12), tail=st.binary(max_size=12))
    def test_any_bytes_give_records_and_rejections(self, tmp_path, lines, tail):
        raw = b"".join(lines) + tail
        path = tmp_path / "fuzz.tsv"
        path.write_bytes(raw)
        result = load_tsv(path, DEFAULT_CLASSES)
        lines = byte_lines(raw)
        assert result.records_in == len(lines)
        invalid = {no for no, line in enumerate(lines, start=1) if not is_utf8(line)}
        assert {no for no, reason in result.rejections if reason == "invalid UTF-8"} == invalid
        for rec in result.records:
            assert 0 <= rec.label < len(DEFAULT_CLASSES) and len(tokenize(rec.text)) >= 2

    @FUZZ
    @given(pieces=st.lists(st.sampled_from(TEXT_PIECES), max_size=40))
    def test_valid_utf8_loads_as_strict_decoding_did(self, tmp_path, pieces):
        path = tmp_path / "valid.tsv"
        path.write_bytes("".join(pieces).encode("utf-8"))
        assert load_tsv(path, DEFAULT_CLASSES) == strict_load_tsv(path, DEFAULT_CLASSES)

    def test_bad_byte_rejects_its_line_only(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_bytes(b"shukria bahut acha\tAppreciation\r\n"
                         b"bahut \xff acha\tSatisfied\n"
                         b"acha shukria\tSatisfied\r")
        with pytest.raises(UnicodeDecodeError):
            strict_load_tsv(path, DEFAULT_CLASSES)
        result = load_tsv(path, DEFAULT_CLASSES)
        assert [(r.text, r.label) for r in result.records] == [("shukria bahut acha", 0),
                                                               ("acha shukria", 1)]
        assert result.rejections == [(2, "invalid UTF-8")]


class TestLoadTrainingTsv:
    def test_table1_labels_keep_the_default_order(self, tmp_path):
        path = tmp_path / "t1.tsv"
        path.write_text("rishwat mangta hai\tCorruption\nshukria bahut\tSatisfied\n")
        names, result = load_training_tsv(path)
        assert names == DEFAULT_CLASSES
        assert result == load_tsv(path, DEFAULT_CLASSES)

    def test_other_labels_are_sorted_and_unloadable_lines_ignored(self, tmp_path):
        path = tmp_path / "own.tsv"
        path.write_text("good service today\tpraise\n"
                        "why so slow\tcomplaint\n"
                        "when do you open\tquestion\n"
                        "thanks again\tAppreciation\n"
                        "alone\tone-token\n"
                        "no separator here\n"
                        "empty label here\t \n"
                        "why so slow again\tcomplaint\n")
        names, result = load_training_tsv(path)
        assert names == ["Appreciation", "complaint", "praise", "question"]
        assert [r.label for r in result.records] == [2, 1, 3, 0, 1]
        assert result.rejections == [(5, "unknown label 'one-token'"),
                                     (6, "missing tab separator"),
                                     (7, "empty label")]
        assert result == load_tsv(path, names)

    def test_repeated_class_names_are_refused(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("shukria bahut acha\ta\n")
        with pytest.raises(ValueError, match="class name 'a' appears more than once"):
            load_tsv(path, ["a", "b", "a"])

    @FUZZ
    @given(lines=st.lists(tsv_lines(), max_size=12))
    def test_every_derived_class_has_a_record(self, tmp_path, lines):
        path = tmp_path / "fuzz.tsv"
        path.write_bytes(b"".join(lines))
        names, result = load_training_tsv(path)
        assert result == load_tsv(path, names)
        labels = {r.label for r in result.records}
        if names == DEFAULT_CLASSES:
            assert labels <= set(range(len(DEFAULT_CLASSES)))
        else:
            assert labels == set(range(len(names)))
