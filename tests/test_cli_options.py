"""The training options in process: flags, the key=value config file, how
flags override the file, how both land in ``TrainConfig``, and what
``train`` and ``matrix`` refuse before they make any directory."""
import argparse
import typing
from dataclasses import fields, replace

import pytest

from mcm.cli import _merged_options, _train_config, build_parser, main, parse_config_file
from mcm.trainer import TrainConfig


def parse(*argv, command="train"):
    return build_parser().parse_args([command, *argv])


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_config_file_skips_comments_and_blank_lines_and_strips_spaces(tmp_path):
    path = write_config(tmp_path, "# whole-line comment\n\n   \n"
                                  "epochs = 3   # trailing comment\n"
                                  "lr=0.5\n"
                                  "  optimizer\t=  sgd \n"
                                  "train = data/train.tsv\n")
    assert parse_config_file(path) == {"epochs": 3, "lr": 0.5, "optimizer": "sgd",
                                       "train": "data/train.tsv"}


@pytest.mark.parametrize("text,value", [
    ("1", True), ("true", True), ("yes", True), ("on", True), ("TRUE", True), ("Yes", True),
    ("0", False), ("false", False), ("no", False), ("off", False), ("False", False),
    ("OFF", False),
])
def test_config_file_reads_every_bool_spelling(tmp_path, text, value):
    path = write_config(tmp_path, f"attention = {text}\n")
    assert parse_config_file(path) == {"attention": value}


@pytest.mark.parametrize("text,line,message", [
    ("epochs=3\nepoch=4\n", 2, "unknown key 'epoch'"),
    ("# a comment\nepochs 3\n", 2, "expected key=value"),
    ("stop_disc_gradients=true\n", 1, "unknown key 'stop_disc_gradients'"),
    ("epochs = 1\nlr = 0.5\nepochs = 2\n", 3, "key 'epochs' set twice (first at line 1)"),
])
def test_config_file_error_names_the_file_and_line(tmp_path, text, line, message):
    path = write_config(tmp_path, text)
    with pytest.raises(ValueError) as info:
        parse_config_file(path)
    assert str(info.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("text,message", [
    ("epochs=abc\n", "epochs: invalid literal for int() with base 10: 'abc'"),
    ("attention=maybe\n", "attention: cannot parse 'maybe' as a boolean"),
    ("max_len=\n", "max_len: invalid literal for int() with base 10: ''"),
    ("lr = fast\n", "lr: could not convert string to float: 'fast'"),
])
def test_a_value_that_does_not_parse_names_the_file_line_and_key(tmp_path, capsys, text,
                                                                  message):
    path = write_config(tmp_path, "# settings\n" + text)
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:2: {message}"]


@pytest.mark.parametrize("key,choices", [
    ("optimizer", "'adam', 'adadelta', 'sgd'"),
    ("embedding", "'elmo_like', 'random', 'domain'"),
    ("select_on", "'test', 'validation'"),
])
def test_a_config_value_outside_its_choices_names_the_file_line_and_key(
        tmp_path, monkeypatch, capsys, key, choices):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.tsv").write_text("shukria bahut acha\tAppreciation\n"
                                       "rishwat mangta hai\tCorruption\n", encoding="utf-8")
    path = write_config(tmp_path, f"train = data.tsv\n{key} = foo\ntest = data.tsv\nout = run\n")
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}:2: {key}: invalid choice 'foo' (choose from {choices})"]
    assert not (tmp_path / "run").exists()


def test_a_config_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"epochs=3\nlr=\xff\n")
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff"), err


def test_a_negative_seed_is_refused_before_any_file_is_touched(tmp_path, capsys):
    argv = ["train", "--train", str(tmp_path / "no.tsv"), "--test", str(tmp_path / "no.tsv"),
            "--out", str(tmp_path / "run"), "--seed", "-1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be non-negative, got -1"]
    assert not (tmp_path / "run").exists()


def test_a_flag_overrides_the_config_file(tmp_path):
    path = write_config(tmp_path, "epochs=3\nattention=true\nlr=0.1\noptimizer=sgd\n")
    opts = _merged_options(parse("--config", str(path), "--epochs", "5", "--no-attention"))
    assert opts == {"epochs": 5, "attention": False, "lr": 0.1, "optimizer": "sgd"}
    assert _train_config(opts) == TrainConfig(epochs=5, attention=False, learning_rate=0.1,
                                              optimizer="sgd")
    path.write_text("attention=false\n", encoding="utf-8")
    assert _merged_options(parse("--config", str(path), "--attention")) == {"attention": True}


@pytest.mark.parametrize("command", ["train", "matrix"])
@pytest.mark.parametrize("flag,value,kwargs", [
    ("--optimizer", "rmsprop", {"choices": ["adam", "adadelta", "sgd"]}),
    ("--embedding", "glove", {"choices": ["elmo_like", "random", "domain"]}),
    ("--select-on", "train", {"choices": ["test", "validation"]}),
    ("--epochs", "abc", {"type": int}),
    ("--embedding-dim", "1.5", {"type": int}),
    ("--max-len", "x", {"type": int}),
    ("--seed", "", {"type": int}),
    ("--lr", "fast", {"type": float}),
    ("--dropout", "half", {"type": float}),
])
def test_a_bad_flag_value_gets_argparse_s_message(capsys, command, flag, value, kwargs):
    reference = argparse.ArgumentParser(prog=f"mcm {command}")
    reference.add_argument(flag, **kwargs)
    with pytest.raises(SystemExit) as want_exit:
        reference.parse_args([flag, value])
    want = capsys.readouterr().err.splitlines()[-1]
    with pytest.raises(SystemExit) as got_exit:
        parse(flag, value, command=command)
    assert capsys.readouterr().err.splitlines()[-1] == want
    assert got_exit.value.code == want_exit.value.code == 2


# TrainConfig field -> (its option name, a value other than the default as
# written after the flag or the key, and as it lands in the field)
OPTIONS = {
    "epochs": ("epochs", "3", 3),
    "batch_size": ("batch_size", "7", 7),
    "learning_rate": ("lr", "0.25", 0.25),
    "optimizer": ("optimizer", "sgd", "sgd"),
    "dropout": ("dropout", "0.5", 0.5),
    "seed": ("seed", "9", 9),
    "attention": ("attention", "yes", True),
    "embedding_mode": ("embedding", "domain", "domain"),
    "embedding_dim": ("embedding_dim", "16", 16),
    "max_len": ("max_len", "12", 12),
    "min_count": ("min_count", "1", 1),
    "select_on": ("select_on", "validation", "validation"),
}


def test_every_field_but_stop_disc_gradients_is_an_option():
    assert set(OPTIONS) == {f.name for f in fields(TrainConfig)} - {"stop_disc_gradients"}


@pytest.mark.parametrize("command", ["train", "matrix"])
@pytest.mark.parametrize("field", list(OPTIONS))
def test_a_flag_and_a_config_key_set_their_field(tmp_path, command, field):
    name, text, value = OPTIONS[field]
    flag = "--" + name.replace("_", "-")
    by_flag = parse(flag, command=command) if value is True else parse(flag, text,
                                                                        command=command)
    by_key = parse("--config", str(write_config(tmp_path, f"{name}={text}\n")),
                   command=command)
    hint = typing.get_type_hints(TrainConfig)[field]
    want_types = typing.get_args(hint) or (hint,)  # Optional[int] allows int
    for args in (by_flag, by_key):
        cfg = _train_config(_merged_options(args))
        assert cfg == replace(TrainConfig(), **{field: value})
        assert type(getattr(cfg, field)) in want_types


@pytest.mark.parametrize("flag", ["--stop-disc-gradients", "--no-stop-disc-gradients"])
def test_stop_disc_gradients_has_no_flag(capsys, flag):
    with pytest.raises(SystemExit):
        parse(flag)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "matrix"])
@pytest.mark.parametrize("missing", ["train", "test"])
def test_a_missing_input_file_makes_no_directory(tmp_path, monkeypatch, capsys, command,
                                                 missing):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.tsv").write_text("shukria bahut acha\tAppreciation\n"
                                       "rishwat mangta hai\tCorruption\n", encoding="utf-8")
    files = {"train": "data.tsv", "test": "data.tsv", missing: "nope.tsv"}
    assert main([command, "--train", files["train"], "--test", files["test"],
                 "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: {missing} file not found: nope.tsv\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,config,named", [
    (["--attention"], "", "attention"),
    (["--no-attention"], "", "attention"),
    (["--embedding", "random"], "", "embedding"),
    ([], "attention = no\n", "attention"),
    ([], "embedding = domain\n", "embedding"),
    (["--embedding", "domain"], "attention = yes\n", "embedding or attention"),
])
def test_matrix_refuses_the_options_every_cell_sets(tmp_path, monkeypatch, capsys, argv,
                                                    config, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    assert main(["matrix", "--train", "train.tsv", "--test", "test.tsv", "--out", "matrix",
                 "--config", "run.cfg", *argv]) == 1
    assert capsys.readouterr().err == ("error: matrix runs every embedding mode with and "
                                       f"without attention; it takes no {named} option\n")
    assert not (tmp_path / "matrix").exists()


@pytest.mark.parametrize("flag,value", [("--mix-rate", "1.5"), ("--mix-rate", "nan"),
                                        ("--noise-rate", "-0.5")])
def test_gen_synth_refuses_a_rate_outside_0_1(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-synth", "--n", "120", "--out", "data", flag, value]) == 1
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must lie in [0, 1], got {float(value)}\n"
    assert not (tmp_path / "data").exists()
