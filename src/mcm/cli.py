"""Command-line entry point: synthetic data generation, training,
evaluation, batch prediction, and the full experiment matrix.

Each training option but the file locations comes from a ``TrainConfig``
field, and can be set by a flag or by a key=value config file (# comments
allowed); flags win. ``stop_disc_gradients`` has neither. All randomness
flows from --seed.
"""
from __future__ import annotations

import argparse
import os
import sys
import typing

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, rebuild_model, save_checkpoint
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
from .layers import check_fields
from .trainer import (
    CHOICES,
    COMPONENT_TITLES,
    TrainConfig,
    TrainingDiverged,
    evaluate_components,
    infer_probabilities,
    report_rows,
    run_experiment_matrix,
    run_training,
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


# TrainConfig field -> its flag and config-key name, where the two differ
_CLI_NAMES = {"learning_rate": "lr", "embedding_mode": "embedding"}
_FILE_HELP = {"train": "training TSV (text<TAB>label)", "test": "test TSV",
              "out": "output directory"}
# option name -> (TrainConfig field, its annotated type, an Optional's first);
# the file locations have no field. stop_disc_gradients has no option: it stays
# a config field until a measurement (per-component gradient norms) calls for it.
_OPTIONS = {**dict.fromkeys(_FILE_HELP, (None, str)),
            **{_CLI_NAMES.get(name, name): (name, (typing.get_args(kind) or (kind,))[0])
               for name, kind in typing.get_type_hints(TrainConfig).items()
               if name != "stop_disc_gradients"}}


def parse_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        field, kind = _OPTIONS[key]
        try:
            value = (_parse_bool if kind is bool else kind)(raw.strip())
            check_fields(TrainConfig, {field: value}, CHOICES)
        except ValueError as exc:  # the line names the key, not a choice's field
            raise ValueError(f"{path}:{line_no}: {key}: "
                             f"{str(exc).removeprefix(field + ': ')}") from None
        values[key] = value
    return values


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    for name, (field, kind) in _OPTIONS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction, default=None)
        else:
            p.add_argument(flag, dest=name, type=kind, choices=CHOICES.get(field),
                           help=_FILE_HELP.get(name))
    p.add_argument("--config", help="key=value config file; flags override it")


def _merged_options(args) -> dict:
    merged = parse_config_file(args.config) if args.config else {}
    merged.update((k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None)
    return merged


def _train_config(opts: dict) -> TrainConfig:
    """Every option but the file locations, set by flag or config file;
    each field left unset keeps ``TrainConfig``'s default."""
    return TrainConfig(**{_OPTIONS[k][0]: v for k, v in opts.items() if _OPTIONS[k][0]})


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
            os.makedirs(os.path.dirname(rejection_log), exist_ok=True)
            with open(rejection_log, "w", encoding="utf-8") as fh:
                for line_no, reason in result.rejections:
                    fh.write(f"line {line_no}: {reason}\n")
    if not result.records:
        raise ValueError(f"{what} file {path} contains no usable records")


def _load_splits(opts: dict, rejection_dir=None):
    """(class names, train records, test records) for ``opts``' train and
    test files, labelled by the class names of the training file
    (``load_training_tsv``). Both files must exist before either is read.
    With ``rejection_dir``, each file's rejected lines are written there."""
    def log(what):
        return os.path.join(rejection_dir, f"rejections_{what}.txt") if rejection_dir else None

    for what in ("train", "test"):
        _check_exists(opts[what], what)
    names, train = load_training_tsv(opts["train"])
    if len(names) < 2:
        raise ValueError(f"train file {opts['train']} has one class label, {names[0]!r}; "
                         "a classifier needs at least 2")
    if names != DEFAULT_CLASSES:
        print(f"train: labels are not the Table-1 classes; training on {len(names)} "
              f"classes: {', '.join(names)}", file=sys.stderr)
    _report_rejections(train, opts["train"], "train", log("train"))
    test = load_tsv(opts["test"], class_names=names)
    _report_rejections(test, opts["test"], "test", log("test"))
    return names, train.records, test.records


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
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
    class_names, train_records, test_records = _load_splits(opts, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    model, ckpt, records = run_training(train_records, test_records, cfg, class_names)
    variant = ckpt.config["variant"]
    save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint.mcm"))
    best = records[ckpt.config["best_epoch"]]
    write_results_csv(report_rows(variant, model.heads, best.reports),
                      os.path.join(out_dir, "results.csv"))
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
    _report_rejections(result, args.test, "test")
    corpus = encode(result.records, vocab, ckpt.config["max_len"])
    os.makedirs(args.out, exist_ok=True)
    reports = evaluate_components(model, corpus)
    variant = ckpt.config.get("variant", model.name)
    for head in model.heads:
        title = COMPONENT_TITLES[head]
        print(f"{title if len(model.heads) > 1 else variant}:")  # a lone head goes by the model
        print("  " + reports[head].to_text().replace("\n", "\n  "))
    write_results_csv(report_rows(variant, model.heads, reports),
                      os.path.join(args.out, "eval_results.csv"))
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model, vocab = rebuild_model(ckpt)
    max_len = ckpt.config["max_len"]
    names = ckpt.class_names
    messages = [tokenize(line.rstrip("\n")) for line in sys.stdin]
    ids = np.array([encode_tokens(t, vocab, max_len) for t in messages if t], dtype=np.int64)
    probs = iter(infer_probabilities(model, ids.reshape(-1, max_len))[-1])
    for tokens in messages:
        if not tokens:
            print("UNKNOWN\t0.0000")
            continue
        p = next(probs)
        c = int(np.argmax(p))
        print(f"{names[c]}\t{p[c]:.4f}")
    return 0


def cmd_matrix(args) -> int:
    opts = _merged_options(args)
    _require(opts, ("train", "test", "out"), "matrix")
    fixed = [name for name in ("embedding", "attention") if name in opts]
    if fixed:
        raise ValueError("matrix runs every embedding mode with and without attention; "
                         f"it takes no {' or '.join(fixed)} option")
    cfg = _train_config(opts)
    class_names, train_records, test_records = _load_splits(opts)
    rows = run_experiment_matrix(train_records, test_records, cfg, opts["out"], class_names)
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
