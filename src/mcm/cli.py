"""Command-line entry point: synthetic data generation, training,
evaluation, batch prediction, and the full experiment matrix.

Every knob can come from flags or from a key=value config file
(# comments allowed); flags win. All randomness flows from --seed.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import (
    DEFAULT_CLASSES,
    encode,
    encode_tokens,
    gen_synthetic,
    load_training_tsv,
    load_tsv,
    stratified_split,
    table1_profile,
    tokenize,
    write_tsv,
)
from .model import probabilities
from .trainer import (
    COMPONENT_TITLES,
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    _metric_row,
    best_rows,
    evaluate_components,
    load_checkpoint,
    rebuild_model,
    run_experiment_matrix,
    run_training,
    save_checkpoint,
    write_curve_csv,
    write_results_csv,
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse {text!r} as a boolean")


_CONFIG_KEYS = {
    "train": str, "test": str, "out": str, "seed": int, "epochs": int,
    "batch_size": int, "lr": float, "optimizer": str, "dropout": float,
    "embedding": str, "embedding_dim": int, "attention": _parse_bool,
    "max_len": int, "min_count": int, "select_on": str,
}


def parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](raw.strip())
    return values


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", help="training TSV (text<TAB>label)")
    p.add_argument("--test", help="test TSV")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--optimizer", choices=["adam", "adadelta", "sgd"])
    p.add_argument("--dropout", type=float)
    p.add_argument("--embedding", choices=["elmo_like", "random", "domain"])
    p.add_argument("--embedding-dim", type=int, dest="embedding_dim")
    p.add_argument("--attention", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--min-count", type=int, dest="min_count")
    p.add_argument("--select-on", choices=["test", "validation"], dest="select_on")
    p.add_argument("--config", help="key=value config file; flags override it")


def _merged_options(args) -> dict:
    merged = {}
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


# option name -> TrainConfig field, where the two differ
_FIELD_NAMES = {"lr": "learning_rate", "embedding": "embedding_mode"}


def _train_config(opts: dict) -> TrainConfig:
    """Every option but the file locations, set by flag or config file;
    each field left unset keeps ``TrainConfig``'s default."""
    return TrainConfig(**{_FIELD_NAMES.get(k, k): v for k, v in opts.items()
                          if k not in ("train", "test", "out")})


def _require(opts: dict, keys, command: str) -> None:
    missing = [k for k in keys if not opts.get(k)]
    if missing:
        raise ValueError(f"{command} requires --" + ", --".join(m.replace("_", "-") for m in missing))


def _check_exists(path, what: str) -> None:
    if not os.path.exists(path):
        raise OSError(f"{what} file not found: {path}")


def _report_rejections(result, path, what: str, rejection_log=None):
    if result.rejections:
        print(f"{what}: rejected {len(result.rejections)} of {result.records_in} lines",
              file=sys.stderr)
        if rejection_log:
            with open(rejection_log, "w", encoding="utf-8") as fh:
                for line_no, reason in result.rejections:
                    fh.write(f"line {line_no}: {reason}\n")
    if not result.records:
        raise ValueError(f"{what} file {path} contains no usable records")


def _load_splits(opts: dict, rejection_dir=None):
    """(class names, train records, test records) for ``opts``' train and
    test files, labelled by the class names of the training file
    (``load_training_tsv``). With ``rejection_dir``, each file's rejected
    lines are written there."""
    def log(what):
        return os.path.join(rejection_dir, f"rejections_{what}.txt") if rejection_dir else None

    _check_exists(opts["train"], "train")
    names, train = load_training_tsv(opts["train"])
    if len(names) < 2:
        raise ValueError(f"train file {opts['train']} has one class label, {names[0]!r}; "
                         "a classifier needs at least 2")
    if names != DEFAULT_CLASSES:
        print(f"train: labels are not the Table-1 classes; training on {len(names)} "
              f"classes: {', '.join(names)}", file=sys.stderr)
    _report_rejections(train, opts["train"], "train", log("train"))
    _check_exists(opts["test"], "test")
    test = load_tsv(opts["test"], class_names=names)
    _report_rejections(test, opts["test"], "test", log("test"))
    return names, train.records, test.records


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
    profile_name = args.profile
    if profile_name != "table1":
        raise ValueError(f"unknown profile {profile_name!r} (available: table1)")
    profile = table1_profile()
    rng = np.random.default_rng(args.seed)
    records = gen_synthetic(profile, args.n, args.mix_rate, args.noise_rate, rng)
    train, test = stratified_split(records, 0.8, rng)
    os.makedirs(args.out, exist_ok=True)
    write_tsv(train, os.path.join(args.out, "train.tsv"), profile.names)
    write_tsv(test, os.path.join(args.out, "test.tsv"), profile.names)
    counts = np.bincount([r.label for r in records], minlength=profile.num_classes)
    print(f"wrote {len(train)} train / {len(test)} test records to {args.out}")
    for name, count in zip(profile.names, counts):
        print(f"  {name:<24} {count:>8}  {count / len(records):7.2%}")
    return 0


def cmd_train(args) -> int:
    opts = _merged_options(args)
    _require(opts, ("train", "test", "out"), "train")
    cfg = _train_config(opts)
    out_dir = opts["out"]
    os.makedirs(out_dir, exist_ok=True)
    class_names, train_records, test_records = _load_splits(opts, out_dir)
    model, ckpt, records, vocab = run_training(train_records, test_records, cfg, class_names)
    variant = cfg.variant_name
    save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint.mcm"))
    best = records[ckpt.config["best_epoch"]]
    write_results_csv(best_rows(model, ckpt, records), os.path.join(out_dir, "results.csv"))
    write_curve_csv(records, os.path.join(out_dir, f"curve_{variant}.csv"))
    print(f"{variant}: best epoch {ckpt.config['best_epoch']}, "
          f"discriminator macro-F1 {best.macro_f1('discriminator'):.4f}, "
          f"test error {best.test_error('discriminator'):.4f}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model, vocab = rebuild_model(ckpt)
    result = load_tsv(args.test, class_names=ckpt.class_names)
    unknown = [(ln, reason) for ln, reason in result.rejections
               if reason.startswith("unknown label")]
    if unknown:
        listing = "; ".join(f"line {ln}: {reason}" for ln, reason in unknown[:20])
        raise ValueError(f"{len(unknown)} records carry labels unseen in training: {listing}")
    if not result.records:
        raise ValueError(f"{args.test} contains no usable records")
    corpus = encode(result.records, vocab, ckpt.config["max_len"])
    os.makedirs(args.out, exist_ok=True)
    reports = evaluate_components(model, corpus)
    variant = ckpt.config.get("variant", model.name)
    rows = []
    for head in model.heads:
        title = COMPONENT_TITLES[head]
        print(f"{title if len(model.heads) > 1 else variant}:")  # a lone head goes by the model
        print("  " + reports[head].to_text().replace("\n", "\n  "))
        rows.append(_metric_row(variant, title, reports[head]))
    write_results_csv(rows, os.path.join(args.out, "eval_results.csv"))
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model, vocab = rebuild_model(ckpt)
    max_len = ckpt.config["max_len"]
    names = ckpt.class_names
    lines = [line.rstrip("\n") for line in sys.stdin]
    outputs = [None] * len(lines)
    pending = []  # (line index, encoded row)
    for i, line in enumerate(lines):
        tokens = tokenize(line)
        if not tokens:
            outputs[i] = "UNKNOWN\t0.0000"
        else:
            pending.append((i, encode_tokens(tokens, vocab, max_len)))
    for lo in range(0, len(pending), 256):
        chunk = pending[lo:lo + 256]
        ids = np.stack([row for _, row in chunk])
        probs = probabilities(model.head_logits(ids, "infer")[-1]).data
        for (i, _), p in zip(chunk, probs):
            c = int(np.argmax(p))
            outputs[i] = f"{names[c]}\t{p[c]:.4f}"
    for line in outputs:
        print(line)
    return 0


def cmd_matrix(args) -> int:
    opts = _merged_options(args)
    _require(opts, ("train", "test", "out"), "matrix")
    cfg = _train_config(opts)
    out_dir = opts["out"]
    os.makedirs(out_dir, exist_ok=True)
    class_names, train_records, test_records = _load_splits(opts)
    rows = run_experiment_matrix(train_records, test_records, cfg, out_dir, class_names)
    failures = [row for row in rows if row["status"] != "ok"]
    for row in rows:
        print("{model:<8} {component:<22} acc={accuracy} f1={f1} [{status}]".format(**row))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcm",
                                     description="Multi-cascaded bilingual text classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic bilingual corpus")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--mix-rate", type=float, default=0.5, dest="mix_rate")
    p.add_argument("--noise-rate", type=float, default=0.1, dest="noise_rate")
    p.add_argument("--profile", default="table1")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train one model variant")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify raw text lines from stdin")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("matrix", help="run the 6-variant matrix plus baseline")
    _add_train_flags(p)
    p.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, CheckpointError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
