"""Deterministic mini-batch training of McM or the baseline: Adam (plus
minimal Adadelta/SGD), per-epoch evaluation of every head, best-checkpoint
selection on the prediction head's macro-F1 (the checkpoints themselves
are ``mcm.checkpoint``'s), and the 6-variant experiment matrix with
per-epoch error curves.

All randomness flows from one seed: it is forked into fixed named streams
(embedding init, skip-gram, model init, shuffling, dropout, validation
carving), so identical (seed, data, config) reproduce bitwise-identical
curves and checkpoints.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .checkpoint import (
    load_checkpoint,
    make_checkpoint,
    model_arrays,
    rebuild_model,
    save_checkpoint,
)
from .data import (
    EncodedCorpus,
    Vocabulary,
    build_vocab,
    encode,
    pick_max_len,
    stratified_indices,
    token_id_sequences,
)
from .embeddings import (
    EmbeddingTable,
    SkipGramConfig,
    char_compose_table,
    init_random,
    train_skipgram,
)
from .layers import check_fields
from .metrics import evaluate
from .model import KINDS, check_max_len, heads_loss, probabilities
from .tensor import RowGrad, Tape, backward

# The checkpoint names this module offered before ``mcm.checkpoint`` held
# them; the benchmark harness still imports them from here.
__all__ = ["load_checkpoint", "make_checkpoint", "model_arrays", "rebuild_model",
           "save_checkpoint"]

COMPONENT_TITLES = {
    "cnn": "Stacked-CNN Learner",
    "slstm": "Stacked-LSTM Learner",
    "lstm": "LSTM Learner",
    "discriminator": "Discriminator",
    "baseline": "-",
}

_MODE_SUFFIX = {"elmo_like": "E", "random": "R", "domain": "D"}


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 0.002
    optimizer: str = "adam"
    dropout: float = 0.2
    seed: int = 1
    attention: bool = False
    embedding_mode: str = "random"
    embedding_dim: Optional[int] = None  # default: 1024 for elmo_like, else 300
    max_len: Optional[int] = None        # default: 95th-percentile rule
    min_count: int = 2
    select_on: str = "test"
    stop_disc_gradients: bool = False

    def __post_init__(self):
        check_fields(TrainConfig, vars(self), CHOICES)
        if min(self.epochs, self.batch_size, self.min_count, self.resolved_embedding_dim) < 1:
            raise ValueError("epochs, batch_size, min_count and embedding_dim must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_len is not None:
            # the fewest ids of any kind; run_training lifts it to its own kind's
            check_max_len(self.max_len, min(cls.shortest for cls in KINDS.values()))

    @property
    def resolved_embedding_dim(self) -> int:
        if self.embedding_dim is not None:
            return self.embedding_dim
        return 1024 if self.embedding_mode == "elmo_like" else 300


def variant_name(model_cls, cfg: TrainConfig) -> str:
    """How checkpoints and reports name a run of ``model_cls`` under ``cfg``:
    a class that fixes its embedding mode has one variant, its ``name``;
    otherwise the name, ``_``, the mode's letter, and ``A`` with attention
    (``McM_R``, ``McM_EA``)."""
    if model_cls.embedding_mode:
        return model_cls.name
    return f"{model_cls.name}_{_MODE_SUFFIX[cfg.embedding_mode]}{'A' if cfg.attention else ''}"


def seed_streams(seed: int) -> dict:
    """Fixed fork order of the master seed; each consumer owns one child."""
    names = ("embedding", "skipgram", "model", "shuffle", "dropout", "validation")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return dict(zip(names, children))


# ---------------------------------------------------------------------------
# optimizers


# The rules' hyper-parameters: Kingma & Ba's Adam defaults, and Zeiler's
# Adadelta (arXiv:1212.5701). Adam's zero-gradient form is exact only for
# betas above 0.5 (see ``Adam``).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ADADELTA_RHO = 0.95
ADADELTA_EPSILON = 1e-6


class Adam:
    """Bias-corrected Adam in Kingma & Ba's folded order (arXiv:1412.6980,
    Sec. 2): both bias corrections fold into one scalar step,
    ``lr * sqrt(1 - beta2^t) / (1 - beta1^t)``, and epsilon becomes
    ``epsilon * sqrt(1 - beta2^t)``. This is the textbook update up to
    rounding. One elementwise update rule, applied in place to one array
    (or block of one) at a time; its two state slots are the first and
    second moments.

    ``g=None`` is the zero-gradient form: the moments only decay, in 7
    passes per element with one divide and one sqrt (the full rule takes
    12). It equals the full rule at a +0.0 or -0.0 gradient bit for bit,
    because no moment is ever -0.0: the moments start at +0.0, a sum is
    -0.0 only when both addends are, and ``beta > 0.5`` keeps a nonzero
    moment from rounding to zero when it decays. So ``m*beta1 + (±0.0)``
    is ``m*beta1`` and ``v*beta2 + (+0.0)`` is ``v*beta2``.
    """

    slots = 2

    def __init__(self):
        self.t = 0

    def begin_step(self) -> None:
        self.t += 1
        root_corr2 = math.sqrt(1.0 - ADAM_BETA2 ** self.t)
        self.step_scale = root_corr2 / (1.0 - ADAM_BETA1 ** self.t)
        self.eps_hat = ADAM_EPSILON * root_corr2

    def update(self, p, g, lr: float, tmp, m, v) -> None:
        a, b = tmp
        m *= ADAM_BETA1
        v *= ADAM_BETA2
        if g is not None:
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - ADAM_BETA2
            v += a
        # p -= (lr * step_scale) * m / (sqrt(v) + eps_hat)
        np.sqrt(v, out=b)
        b += self.eps_hat
        np.divide(m, b, out=a)
        a *= lr * self.step_scale
        p -= a


class Adadelta:
    """Adadelta; its state slots are the running squared gradient and
    squared update. Classical Adadelta needs no learning rate; lr acts as a
    plain multiplier (use ~1.0 with this optimizer).

    ``g=None`` is the zero-gradient form: each average ``x`` decays as
    ``x - c*x``, which has the bits of the rule's ``x + c*(0.0 - x)``
    because ``0.0 - x == -x`` and ``c*(-x) == -(c*x)`` under
    round-to-nearest, and the update is ``-0.0``, which leaves every ``p``
    as it is.
    """

    slots = 2

    def begin_step(self) -> None:
        pass

    def update(self, p, g, lr: float, tmp, eg, ed) -> None:
        a, b = tmp
        if g is None:
            np.multiply(eg, 1.0 - ADADELTA_RHO, out=a)
            eg -= a
            np.multiply(ed, 1.0 - ADADELTA_RHO, out=a)
            ed -= a
            return
        np.multiply(g, g, out=a)
        a -= eg
        a *= 1.0 - ADADELTA_RHO
        eg += a
        # delta = -sqrt((ed + epsilon) / (eg + epsilon)) * g, in a
        np.add(ed, ADADELTA_EPSILON, out=a)
        np.add(eg, ADADELTA_EPSILON, out=b)
        a /= b
        np.sqrt(a, out=a)
        np.negative(a, out=a)
        a *= g
        np.multiply(a, a, out=b)
        b -= ed
        b *= 1.0 - ADADELTA_RHO
        ed += b
        a *= lr
        p += a


class Sgd:
    """Plain gradient descent; no state. ``g=None`` leaves ``p`` as it is."""

    slots = 0

    def begin_step(self) -> None:
        pass

    def update(self, p, g, lr: float, tmp) -> None:
        if g is not None:
            p -= np.multiply(g, lr, out=tmp[0])


_RULES = {"adam": Adam, "adadelta": Adadelta, "sgd": Sgd}

# TrainConfig field -> its allowed values: the keys of the tables that use them
CHOICES = {"optimizer": _RULES, "embedding_mode": _MODE_SUFFIX, "select_on": ("test", "validation")}


# Elements per block in ``Optimizer.step``: a block's four arrays and the
# rule's two scratch arrays then fit a 2 MB L2 cache. Adam's zero-gradient
# pass over a 50000 x 300 table took 86 ms at 32k elements, 93 ms at 16k
# and 92 ms at 64k (2 vCPUs, numpy 2.4, medians of 10 interleaved rounds,
# each the median of 9 passes); 32k was faster than 16k in 8 of the rounds
# and than 64k in all 10. The rules write their intermediates into two
# block-sized scratch arrays that the ``Optimizer`` owns (``out=``) instead
# of allocating temporaries: a 256 KB temporary per operation is mapped and
# unmapped each time under glibc's default malloc thresholds.
_BLOCK = 32768


def _row_blocks(shape) -> list:
    """Index expressions cutting an array of ``shape`` into runs of whole
    rows of about ``_BLOCK`` elements; each one selects a view."""
    if not shape:
        return [...]
    rows = max(1, _BLOCK // max(1, math.prod(shape[1:])))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


class Optimizer:
    """Binds one update rule to a model's trainable tensors."""

    def __init__(self, kind: str, params, lr: float):
        check_fields(TrainConfig, {"optimizer": kind}, CHOICES)
        self.params = list(params)
        self.lr = lr
        self.rule = _RULES[kind]()
        self.state = [tuple(np.zeros(p.data.shape) for _ in range(self.rule.slots))
                      for p in self.params]
        # large enough for the biggest block of any parameter
        size = max([_BLOCK] + [math.prod(p.data.shape[1:]) for p in self.params])
        self._scratch = (np.empty(size), np.empty(size))

    def _update(self, p: np.ndarray, g: Optional[np.ndarray], state) -> None:
        """The rule over ``p``, ``g`` (None: the zero-gradient form) and the
        state, block by block."""
        for b in _row_blocks(p.shape):
            pb = p[b]
            tmp = tuple(s[:pb.size].reshape(pb.shape) for s in self._scratch)
            self.rule.update(pb, None if g is None else g[b], self.lr, tmp,
                             *(s[b] for s in state))

    def step(self) -> None:
        """Apply the update rule to every parameter that has a gradient.

        The rule runs block by block over views of the parameter, its
        gradient and its state (``_row_blocks``), so the temporaries of a
        large embedding table stay in cache instead of streaming the whole
        table through memory several times. Every rule is elementwise and
        each element sees the same operations in the same order, so the
        result is bitwise that of one whole-array update.

        A row-sparse gradient (a ``RowGrad`` in ``grad``, such as the
        embedding table's) is never made dense. The rule runs on copies of
        the gradient's rows of the parameter and its state; the
        zero-gradient form (``g=None``), which equals the rule at a zero
        gradient bit for bit, runs over the whole array; then the copied
        rows are written back. Every row is updated as a dense zero-filled
        gradient would update it, and only the zero-gradient pass touches
        the whole table.
        """
        self.rule.begin_step()
        for param, state in zip(self.params, self.state):
            p, g = param.data, param.grad
            if g is None:
                continue
            if isinstance(g, RowGrad):
                rows = g.rows
                p_rows, state_rows = p[rows], tuple(s[rows] for s in state)
                self._update(p_rows, g.values, state_rows)
                self._update(p, None, state)
                p[rows] = p_rows
                for s, s_rows in zip(state, state_rows):
                    s[rows] = s_rows
                continue
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
            self._update(p, g, state)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# evaluation


# Messages per forward when evaluating or predicting.
INFER_BATCH = 256


def infer_probabilities(model, ids) -> list:
    """Each head's infer-mode probabilities, an (n, C) array, for an
    (n, max_len) id batch, ``INFER_BATCH`` messages per forward."""
    out = [np.empty((len(ids), model.config.num_classes)) for _ in model.heads]
    for lo in range(0, len(ids), INFER_BATCH):
        for head_out, logits in zip(out, model.head_logits(ids[lo:lo + INFER_BATCH], "infer")):
            head_out[lo:lo + INFER_BATCH] = probabilities(logits).data
    return out


def evaluate_components(model, corpus: EncodedCorpus) -> dict:
    """Infer-mode evaluation of every head, each predicting the argmax of
    its probabilities; never mutates the model."""
    probs = infer_probabilities(model, corpus.sequences)
    return {head: evaluate(corpus.labels, np.argmax(p, axis=1), model.config.num_classes)
            for head, p in zip(model.heads, probs)}


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    reports: dict  # head -> EvalReport on the test split

    def test_error(self, component: str) -> float:
        return 1.0 - self.reports[component].accuracy

    def macro_f1(self, component: str) -> float:
        return self.reports[component].macro_f1


# ---------------------------------------------------------------------------
# training loops


def _batch_slices(n: int, batch_size: int, order: np.ndarray):
    """Contiguous chunks of a shuffled index vector; a trailing singleton is
    folded into the previous batch so train-mode batchnorm keeps n >= 2."""
    starts = list(range(0, n, batch_size))
    chunks = [order[s:s + batch_size] for s in starts]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _carve_validation(corpus: EncodedCorpus, rng: np.random.Generator):
    """Per-class 80/20 split of an encoded corpus, for selection only; each
    part keeps the corpus order."""
    parts = []
    for idx in stratified_indices(corpus.labels, 0.8, rng):
        idx = np.sort(np.asarray(idx, dtype=np.intp))
        parts.append(EncodedCorpus(corpus.sequences[idx], corpus.labels[idx]))
    return tuple(parts)


def _check_selection(labels, cfg: TrainConfig) -> None:
    """Refuse ``select_on="validation"`` when the 80/20 carve-out of the
    training ``labels`` would leave no validation records: a class of c
    records keeps ``round(0.8 * c)`` of them, all of them for c < 3."""
    if (cfg.select_on == "validation"
            and np.unique(labels, return_counts=True)[1].max(initial=0) < 3):
        raise ValueError("select_on='validation' needs a class with at least 3 training "
                         "records: the 80/20 carve-out left no validation records")


def _selection_split(train: EncodedCorpus, cfg: TrainConfig, streams: dict):
    """(the part of ``train`` to fit, the validation part to select on).

    With ``select_on="test"`` the whole split is fitted and the validation
    part is None. A validation part left empty by the carve-out is refused
    before any training (``_check_selection``).
    """
    if cfg.select_on != "validation":
        return train, None
    _check_selection(train.labels, cfg)
    return _carve_validation(train, np.random.default_rng(streams["validation"]))


@contextmanager
def _diverges_as(where: str):
    """Raise numpy's overflow and invalid-value errors inside the block, as
    ``TrainingDiverged`` naming ``where``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingDiverged(f"{exc} {where}") from exc


def fit(model, train: EncodedCorpus, test: EncodedCorpus, cfg: TrainConfig,
        vocab: Vocabulary, class_names):
    """Train either model on the sum of its heads' cross-entropies,
    evaluate every head each epoch, and return the best checkpoint (by the
    macro-F1 of the last head, the prediction, on the split ``cfg.select_on``
    names; earlier epoch on ties) together with the full per-epoch curve
    data. The checkpoint records the best epoch, ``cfg.seed`` and the variant
    (``variant_name``).

    The model is left holding the best epoch's parameters, and the
    checkpoint holds the model's arrays themselves, not copies
    (``make_checkpoint``): a later update of the model shows in it. The
    snapshot of the best epoch that training keeps is gone once the model
    holds it again.

    Training that diverges raises ``TrainingDiverged``: an overflow or
    invalid value in a batch's step or in an evaluation (``_diverges_as``),
    a non-finite loss, or a non-finite parameter after an epoch. The last
    two stay checked, since a NaN already in the inputs spreads without any
    floating-point error.
    """
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test splits must be nonempty")
    streams = seed_streams(cfg.seed)
    shuffle_rng = np.random.default_rng(streams["shuffle"])
    dropout_rng = np.random.default_rng(streams["dropout"])

    train_part, select = _selection_split(train, cfg, streams)
    opt = Optimizer(cfg.optimizer, model.parameters(), cfg.learning_rate)
    prediction = model.heads[-1]
    records = []
    best_f1 = -1.0
    best_arrays = model_arrays(model)
    best_epoch = -1
    n = len(train_part)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for b, batch in enumerate(_batch_slices(n, cfg.batch_size, order)):
            with _diverges_as(f"at epoch {epoch}, batch {b}"):
                with Tape() as tape:
                    logits = model.head_logits(train_part.sequences[batch], "train", dropout_rng)
                    total = heads_loss(logits, train_part.labels[batch])
                if not np.isfinite(total.data):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {b}")
                backward(total, tape)
                opt.step()
            opt.zero_grad()
            loss_sum += float(total.data) * len(batch)
        # A loss sees an update only through later batches and the rows they
        # read, so every parameter is checked once an epoch.
        bad = [name for name, t in model.tensors() if not np.isfinite(t.data).all()]
        if bad:
            raise TrainingDiverged(f"non-finite parameters after epoch {epoch}: {', '.join(bad)}")

        with _diverges_as(f"in the evaluation after epoch {epoch}"):
            reports = evaluate_components(model, test)
            if select is None:
                selection_f1 = reports[prediction].macro_f1
            else:
                selection_f1 = evaluate_components(model, select)[prediction].macro_f1
        records.append(EpochRecord(epoch, loss_sum / n, reports))
        if selection_f1 > best_f1:
            best_f1 = selection_f1
            best_epoch = epoch
            for name, a in model.arrays().items():
                np.copyto(best_arrays[name], a)

    for name, a in model.arrays().items():
        a[...] = best_arrays.pop(name)  # the snapshot goes as the model takes it back
    return make_checkpoint(model, vocab, class_names, best_epoch=best_epoch, seed=cfg.seed,
                           variant=variant_name(type(model), cfg)), records


# ---------------------------------------------------------------------------
# end-to-end orchestration


def build_embedding_table(cfg: TrainConfig, vocab: Vocabulary, train_records,
                          streams: dict) -> EmbeddingTable:
    d = cfg.resolved_embedding_dim
    if cfg.embedding_mode == "random":
        return init_random(vocab.size, d, np.random.default_rng(streams["embedding"]))
    if cfg.embedding_mode == "elmo_like":
        return char_compose_table(vocab.id_to_token, d,
                                  np.random.default_rng(streams["embedding"]))
    corpus = token_id_sequences(train_records, vocab)
    return train_skipgram(corpus, vocab.size, SkipGramConfig(dim=d),
                          np.random.default_rng(streams["skipgram"]))


def run_training(train_records, test_records, cfg: TrainConfig, class_names, kind="mcm"):
    """Vocab -> embedding -> model -> fit, all from one seed, for a model
    kind of ``KINDS``: ``(model, checkpoint, per-epoch records)``. The
    checkpoint holds the vocabulary and ``fit``'s training record.

    Both splits are encoded to ``cfg.max_len`` ids (by default the
    95th-percentile rule's), but at least the model class's ``shortest``.
    The model config takes ``cfg``'s fields of the same name and the four
    sizes. A model class that fixes ``embedding_mode`` trains on a table of
    that mode: the baseline always trains on a random table.
    """
    check_fields(TrainConfig, {"kind": kind}, {"kind": KINDS})
    model_cls = KINDS[kind]
    config_cls = model_cls.config_class
    cfg = replace(cfg, embedding_mode=model_cls.embedding_mode or cfg.embedding_mode)
    streams = seed_streams(cfg.seed)
    vocab = build_vocab(train_records, cfg.min_count)
    max_len = max(cfg.max_len if cfg.max_len is not None else pick_max_len(train_records),
                  model_cls.shortest)
    enc_train, enc_test = (encode(r, vocab, max_len) for r in (train_records, test_records))
    table = build_embedding_table(cfg, vocab, train_records, streams)
    shared = {f.name for f in fields(config_cls)} & {f.name for f in fields(TrainConfig)}
    sizes = {"vocab_size": vocab.size, "embed_dim": cfg.resolved_embedding_dim,
             "num_classes": len(class_names), "max_len": max_len}
    config = config_cls(**{**{name: getattr(cfg, name) for name in shared}, **sizes})
    model = model_cls.build(config, table, streams["model"])
    return model, *fit(model, enc_train, enc_test, cfg, vocab, class_names)


def report_rows(variant, heads, reports=None, status="ok") -> list:
    """One results row per head: its metrics from ``reports`` (head ->
    ``EvalReport``), or without reports, empty metrics carrying ``status``."""
    rows = []
    for head in heads:
        row = {"model": variant, "component": COMPONENT_TITLES[head], "accuracy": "",
               "precision": "", "recall": "", "f1": "", "status": status}
        if reports is not None:
            r = reports[head]
            row.update(accuracy=f"{r.accuracy:.6f}", precision=f"{r.macro_precision:.6f}",
                       recall=f"{r.macro_recall:.6f}", f1=f"{r.macro_f1:.6f}")
        rows.append(row)
    return rows


def write_results_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model,component,accuracy,precision,recall,f1,status\n")
        for row in rows:
            fh.write("{model},{component},{accuracy},{precision},{recall},{f1},{status}\n"
                     .format(**row))


def write_curve_csv(records, path) -> None:
    """Each epoch's test error of every head the records hold."""
    heads = list(records[0].reports)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["epoch", *heads]) + "\n")
        for rec in records:
            fh.write(",".join([str(rec.epoch), *(f"{rec.test_error(h):.6f}" for h in heads)])
                     + "\n")


def run_experiment_matrix(train_records, test_records, base_cfg: TrainConfig,
                          out_dir, class_names) -> list:
    """The baseline, then the six embedding/attention variants, one seed;
    each variant overrides ``base_cfg``'s embedding mode and attention.

    Emits results.csv (25 rows: the baseline + 6 variants x 4 components)
    and one per-epoch test-error curve CSV per cell. A failing cell is
    recorded in the status column without aborting the rest; a selection
    no cell could make (``_check_selection``) is refused before the first
    cell and before ``out_dir`` is made.
    """
    _check_selection([rec.label for rec in train_records], base_cfg)
    # (model kind, its config) of each cell
    cells = [("baseline", base_cfg)] + [
        ("mcm", replace(base_cfg, embedding_mode=mode, attention=attention))
        for mode in _MODE_SUFFIX for attention in (False, True)]
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for kind, cfg in cells:
        model_cls = KINDS[kind]
        variant, heads = variant_name(model_cls, cfg), model_cls.heads
        try:
            _, ckpt, records = run_training(train_records, test_records, cfg, class_names, kind)
            write_curve_csv(records, os.path.join(out_dir, f"curve_{variant}.csv"))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            rows += report_rows(variant, heads, status=f"error: {exc}")
        else:
            rows += report_rows(variant, heads, records[ckpt.config["best_epoch"]].reports)
    write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    return rows
