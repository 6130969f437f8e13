"""Corpus ingestion, tokenization, vocabulary, encoding, stratified
splitting, and a synthetic bilingual corpus generator.

The generator exists so the whole pipeline can be exercised offline: each
class owns a disjoint keyword pool split across an English-like and a
Roman-Urdu-like vocabulary, records code-switch between the two at a
configurable rate, and token spellings are perturbed to mimic the
non-standard orthography of romanized text.
"""
from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .layers import admits

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1
MAX_LEN_CAP = 64  # the longest sequence length ``pick_max_len`` picks

DEFAULT_CLASSES = [
    "Appreciation",
    "Satisfied",
    "Peripheral complaint",
    "Demanded inquiry",
    "Corruption",
    "Lagged response",
    "Unresponsive",
    "Medicine payment",
    "Adverse behavior",
    "Resource nonexistence",
    "Grievance ascribed",
    "Obnoxious/irrelevant",
]

# Published class shares in percent; they add up to 100.1 as rounded, so
# profiles normalize them.
_CLASS_PERCENTS = [43.1, 31.1, 8.2, 5.7, 3.5, 2.1, 2.0, 1.8, 1.5, 0.6, 0.3, 0.2]


@dataclass
class LabeledText:
    text: str
    label: int


@dataclass
class ClassProfile:
    """Class names with target proportions that sum to 1."""

    names: list
    proportions: np.ndarray

    def __post_init__(self):
        self.proportions = np.asarray(self.proportions, dtype=np.float64)
        if len(self.names) != self.proportions.size:
            raise ValueError("names and proportions disagree in length")
        if np.any(self.proportions <= 0) or np.any(self.proportions > 1):
            raise ValueError("proportions must lie in (0, 1]")
        if abs(self.proportions.sum() - 1.0) > 1e-9:
            raise ValueError("proportions must sum to 1")

    @property
    def num_classes(self) -> int:
        return len(self.names)


def table1_profile() -> ClassProfile:
    """The 12-class skew profile of the SMS feedback corpus."""
    raw = np.asarray(_CLASS_PERCENTS)
    return ClassProfile(list(DEFAULT_CLASSES), raw / raw.sum())


# ---------------------------------------------------------------------------
# tokenization and loading


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties.

    Deliberately no stemming, transliteration, or spelling normalization.
    """
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass
class TsvLoadResult:
    records: list
    rejections: list  # (line_number, reason)

    @property
    def records_in(self) -> int:
        return len(self.records) + len(self.rejections)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _read_tsv(path):
    """Yield (line number, text, label, reason) for each line of ``path``.

    ``reason`` is None for a loadable line: one that splits into a text of
    at least two tokens and a non-empty label. Otherwise it says why the
    line cannot load, and ``label`` is the stripped label if the line split
    into one (None if it did not).
    """
    # surrogateescape decodes each invalid byte to a lone surrogate, which
    # valid UTF-8 never holds, so bad bytes spoil their own line only.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                yield line_no, None, None, "empty line"
                continue
            if _SURROGATE.search(line):
                yield line_no, None, None, "invalid UTF-8"
                continue
            text, sep, label = line.rpartition("\t")
            if not sep:
                yield line_no, None, None, "missing tab separator"
                continue
            label = label.strip()
            if not label:
                yield line_no, text, label, "empty label"
            elif len(tokenize(text)) < 2:
                yield line_no, text, label, "fewer than 2 tokens"
            else:
                yield line_no, text, label, None


def index_of(items, what: str) -> dict:
    """Each item's index in the sequence ``items``. Raises ``ValueError``
    naming, as ``what``, the first item that appears twice."""
    index = {item: i for i, item in enumerate(items)}
    if len(index) != len(items):
        item = next(x for i, x in enumerate(items) if index[x] != i)
        raise ValueError(f"{what} {item!r} appears more than once")
    return index


def _label_lines(lines, names) -> TsvLoadResult:
    """Records of the loadable ``lines`` (as ``_read_tsv`` yields them)
    whose label is one of ``names``; every other line is a rejection."""
    label_ids = index_of(names, "class name")
    records = []
    rejections = []
    for line_no, text, label, reason in lines:
        # an unknown label is reported before the line's other faults
        if label is not None and label not in label_ids:
            reason = f"unknown label {label!r}"
        if reason is None:
            records.append(LabeledText(text, label_ids[label]))
        else:
            rejections.append((line_no, reason))
    return TsvLoadResult(records, rejections)


def load_tsv(path, class_names) -> TsvLoadResult:
    """Read "text<TAB>label" lines into records labelled by their index in
    ``class_names``.

    Malformed lines (invalid UTF-8, missing tab, unknown label, fewer than
    two tokens) are collected into the rejection report instead of aborting
    the load. Lines end at LF, CR or CRLF.
    """
    return _label_lines(_read_tsv(path), class_names)


def load_training_tsv(path) -> tuple:
    """(class names, ``TsvLoadResult``) for a "text<TAB>label" training file,
    read once.

    When every label of its loadable lines is a Table-1 name, the class
    names are ``DEFAULT_CLASSES`` in their order, so Table-1 corpora keep
    their class ids. Otherwise they are the sorted distinct labels of those
    lines. The records are labelled by these names, as ``load_tsv`` would.
    """
    lines = list(_read_tsv(path))
    labels = {label for _, _, label, reason in lines if reason is None}
    names = list(DEFAULT_CLASSES) if labels <= set(DEFAULT_CLASSES) else sorted(labels)
    return names, _label_lines(lines, names)


def write_tsv(records, path, class_names) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.text}\t{class_names[rec.label]}\n")


# ---------------------------------------------------------------------------
# vocabulary and encoding


def all_strings(value) -> bool:
    """Whether ``value`` is a list or tuple of strings."""
    return isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)


@dataclass(frozen=True)
class Vocabulary:
    """Token ``i`` is ``id_to_token[i]``, and ``token_to_id`` is their index.
    A value: ``check`` runs when it is made, and then the tokens are a tuple
    and ``token_to_id`` a read-only view (not a copy) of the dict given."""
    token_to_id: MappingProxyType
    id_to_token: tuple
    min_count: int

    def __post_init__(self):
        self.check()
        object.__setattr__(self, "token_to_id", MappingProxyType(self.token_to_id))
        object.__setattr__(self, "id_to_token", tuple(self.id_to_token))

    def check(self) -> None:
        """Raises ``ValueError`` unless the tokens are distinct strings, the
        first two ``PAD_TOKEN`` and ``UNK_TOKEN``, ``token_to_id`` maps each to
        its id and holds no other key, and ``min_count`` is an integer >= 1."""
        tokens = self.id_to_token
        if not all_strings(tokens) or not admits(int, self.min_count) or self.min_count < 1:
            raise ValueError("vocabulary needs str tokens and an integer min_count of at least 1")
        if list(tokens[:2]) != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError(f"vocabulary must start with {PAD_TOKEN!r} and {UNK_TOKEN!r}, "
                             f"got {list(tokens[:2])}")
        # token i maps to i and nothing else is held: the tokens are distinct
        if (len(self.token_to_id) != len(tokens)
                or list(map(self.token_to_id.get, tokens)) != list(range(len(tokens)))):
            index_of(tokens, "vocabulary token")  # names a token that appears twice
            raise ValueError("token_to_id is not the index of id_to_token")

    @classmethod
    def of(cls, id_to_token, min_count: int) -> Vocabulary:
        """The vocabulary whose token ``i`` is ``id_to_token[i]``."""
        return cls({t: i for i, t in enumerate(id_to_token)}, id_to_token, min_count)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(records, min_count: int) -> Vocabulary:
    """Frequency-then-lexicographic ids after the pad/unk specials."""
    if not records:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for rec in records:
        counts.update(tokenize(rec.text))
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))
    return Vocabulary.of([PAD_TOKEN, UNK_TOKEN] + kept, min_count)


@dataclass
class EncodedCorpus:
    sequences: np.ndarray  # (n, max_len) int64, right-padded with PAD_ID
    labels: np.ndarray     # (n,) int64

    def __len__(self) -> int:
        return len(self.labels)


def encode_tokens(tokens, vocab: Vocabulary, max_len: int) -> np.ndarray:
    row = np.full(max_len, PAD_ID, dtype=np.int64)
    for i, tok in enumerate(tokens[:max_len]):
        row[i] = vocab.id(tok)
    return row


def encode(records, vocab: Vocabulary, max_len: int) -> EncodedCorpus:
    """Truncate to the first max_len tokens and right-pad."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    n = len(records)
    seqs = np.full((n, max_len), PAD_ID, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    for i, rec in enumerate(records):
        seqs[i] = encode_tokens(tokenize(rec.text), vocab, max_len)
        labels[i] = rec.label
    return EncodedCorpus(seqs, labels)


def token_id_sequences(records, vocab: Vocabulary) -> list:
    """Unpadded id sequences, e.g. for embedding pretraining."""
    return [[vocab.id(t) for t in tokenize(rec.text)] for rec in records]


def pick_max_len(records) -> int:
    """95th percentile of token lengths, at least 2, at most ``MAX_LEN_CAP``."""
    lengths = [len(tokenize(rec.text)) for rec in records]
    if not lengths:
        raise ValueError("no records to size the sequence length from")
    return int(min(max(int(np.ceil(np.percentile(lengths, 95))), 2), MAX_LEN_CAP))


# ---------------------------------------------------------------------------
# stratified split


def stratified_indices(labels, train_fraction: float, rng: np.random.Generator):
    """Per-class shuffle, then per-class split at round(fraction * n_c).

    Returns (train, test) lists of positions in ``labels``; together they
    partition them. Classes come in sorted label order, each one's
    positions in the order of its permutation, and each class draws one
    ``rng.permutation``. A class too small to reach both sides, such as a
    lone record, lands wholly on the side the rounding picks.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    labels = np.asarray(labels)
    train, test = [], []
    for label in np.unique(labels):
        idxs = np.flatnonzero(labels == label)
        order = rng.permutation(idxs.size)
        cut = int(round(train_fraction * idxs.size))
        train.extend(idxs[order[:cut]].tolist())
        test.extend(idxs[order[cut:]].tolist())
    return train, test


def stratified_split(records, train_fraction: float, rng: np.random.Generator):
    """``stratified_indices`` over the records' labels; returns the
    (train, test) records."""
    train, test = stratified_indices([rec.label for rec in records], train_fraction, rng)
    return [records[i] for i in train], [records[i] for i in test]


def apportion(n: int, proportions: np.ndarray) -> np.ndarray:
    """Largest-remainder rounding of n * proportions to integers summing to n."""
    quotas = n * np.asarray(proportions, dtype=np.float64)
    counts = np.floor(quotas).astype(np.int64)
    short = n - counts.sum()
    order = np.argsort(-(quotas - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


# ---------------------------------------------------------------------------
# synthetic corpus generation

# One disjoint keyword pool per class, split into an English-like and a
# Roman-Urdu-like vocabulary; fillers are shared across classes.
CLASS_KEYWORDS = [
    (["thanks", "thankyou", "appreciate", "excellent", "wonderful", "bravo", "amazing", "grateful"],
     ["shukria", "mehrbani", "zabardast", "behtreen", "umda", "tareef", "shandar", "mashallah"]),
    (["satisfied", "happy", "fine", "resolved", "sorted", "pleased", "solved", "content"],
     ["theek", "acha", "khush", "mutmaeen", "sahi", "barhiya", "razi", "hogaya"]),
    (["parking", "queue", "crowded", "procedure", "paperwork", "counter", "maze", "congested"],
     ["qatar", "bheer", "kaghazat", "chakkar", "dhakkay", "lambi", "intezargah", "pechida"]),
    (["inquiry", "investigate", "probe", "verify", "review", "audit", "examine", "clarify"],
     ["tehqeeq", "jaanch", "parhtal", "maloomat", "tafteesh", "poochgach", "janchlo", "khulasa"]),
    (["bribe", "corruption", "demanded", "extortion", "kickback", "payoff", "grease", "crooked"],
     ["rishwat", "paisay", "ghoos", "khaya", "mangta", "wasooli", "bhatta", "badunwani"]),
    (["late", "delayed", "slow", "overdue", "lagged", "postponed", "sluggish", "tardy"],
     ["dair", "taakheer", "susti", "mahinay", "haftay", "derhui", "ataktay", "dheela"]),
    (["unresponsive", "ignored", "silence", "noreply", "unanswered", "deaf", "unattended", "ghosted"],
     ["jawab", "nahimila", "khamoshi", "sunwai", "bekhabar", "laparwah", "anjaan", "chuppi"]),
    (["medicine", "pharmacy", "prescription", "tablets", "syrup", "injection", "drugs", "dosage"],
     ["dawai", "dawaiyan", "goliyan", "nuskha", "sharbat", "teeka", "marham", "dawakhana"]),
    (["rude", "aggressive", "shouted", "misbehaved", "insulted", "hostile", "arrogant", "abusive"],
     ["badtameez", "gussa", "chillaya", "beizzati", "badsuluki", "akkharpan", "jhirakna", "taana"]),
    (["shortage", "unavailable", "lacking", "scarce", "outofstock", "missing", "depleted", "absent"],
     ["qillat", "kami", "mojood", "nayab", "khatam", "thoray", "nadarad", "muyassar"]),
    (["harassment", "misconduct", "threatened", "blackmail", "victimized", "coerced", "exploited", "intimidated"],
     ["zulm", "badfaili", "dhamki", "shikayat", "harasgi", "ziadti", "jabar", "dabaya"]),
    (["lottery", "advertisement", "spam", "unrelated", "promo", "gibberish", "random", "nonsense"],
     ["faltu", "bakwas", "ishtihar", "befaida", "bematlab", "fuzool", "anapshanap", "bejaan"]),
]

# Fillers are shared across classes but keep the language split, so a
# record with mix_rate=0 stays entirely inside one vocabulary.
FILLER_WORDS = (["the", "is", "was", "for", "and", "this", "with"],
                ["ka", "ki", "ko", "hai", "tha", "hum", "mera", "aur"])

_FILLER_RATE = 0.08


def _perturb(token: str, op: int, pos: int) -> str:
    """Spelling-variation noise: swap, drop, or double one character."""
    if op == 0 and len(token) >= 2:                   # swap adjacent
        p = pos % (len(token) - 1)
        return token[:p] + token[p + 1] + token[p] + token[p + 2:]
    if op == 1 and len(token) >= 3:                   # drop one
        p = pos % len(token)
        return token[:p] + token[p + 1:]
    p = pos % len(token)                              # double one
    return token[:p] + token[p] + token[p:]


def gen_synthetic(profile: ClassProfile, n: int, mix_rate: float, noise_rate: float,
                  rng: np.random.Generator) -> list:
    """Generate n labeled records following the profile's class skew.

    Each record draws 3..12 tokens; its base vocabulary (English-like or
    Roman-Urdu-like) is chosen per record, and each token switches to the
    other vocabulary with probability ``mix_rate``. Each token's spelling
    is perturbed with probability ``noise_rate``. Class counts follow the
    profile exactly (largest-remainder apportionment), so empirical
    frequencies converge as fast as possible.
    """
    for name, rate in (("mix_rate", mix_rate), ("noise_rate", noise_rate)):
        if not 0.0 <= rate <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"{name} must lie in [0, 1], got {rate}")
    c = profile.num_classes
    if n < 10 * c:
        raise ValueError(f"need at least {10 * c} records for {c} classes")
    if c > len(CLASS_KEYWORDS):
        raise ValueError("not enough keyword pools for this profile")
    counts = apportion(n, profile.proportions)
    labels = np.repeat(np.arange(c), counts)

    lengths = rng.integers(3, 13, size=n)
    total = int(lengths.sum())
    base_lang = rng.integers(0, 2, size=n)
    switch = rng.random(total) < mix_rate
    use_filler = rng.random(total) < _FILLER_RATE
    pick = rng.integers(0, 1 << 30, size=total)
    noisy = rng.random(total) < noise_rate
    noise_op = rng.integers(0, 3, size=total)
    noise_pos = rng.integers(0, 1 << 30, size=total)

    records = []
    cursor = 0
    for r in range(n):
        label = int(labels[r])
        pools = CLASS_KEYWORDS[label]
        tokens = []
        for j in range(cursor, cursor + int(lengths[r])):
            lang = (int(base_lang[r]) + int(switch[j])) % 2
            pool = FILLER_WORDS[lang] if use_filler[j] else pools[lang]
            tok = pool[pick[j] % len(pool)]
            if noisy[j]:
                tok = _perturb(tok, int(noise_op[j]), int(noise_pos[j]))
            tokens.append(tok)
        cursor += int(lengths[r])
        records.append(LabeledText(" ".join(tokens), label))

    order = rng.permutation(n)
    return [records[i] for i in order]
