"""tools/output_manifest.py: a checkout against itself, a changed output
string named, and a directory that is no checkout refused before any run.

The full list runs in ``tests/test_reachable.py``; these tests run
gen-synth and one fixture's eval and predict, with ``SCENARIOS`` cut short.
"""
import ast
import os
import shutil
import sys

import pytest

from .helpers import load_tool

output_manifest = load_tool("output_manifest")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN_SYNTH_STDOUT = " ".join(output_manifest.GEN_SYNTH) + " stdout"


@pytest.fixture
def short_list(monkeypatch):
    monkeypatch.setattr(output_manifest, "SCENARIOS", [
        step for step in output_manifest.SCENARIOS if "fixtures/baseline.mcm" in step[0]])
    assert len(output_manifest.SCENARIOS) == 2


def test_a_checkout_against_itself_reports_nothing(short_list, capsys):
    assert output_manifest.main([REPO, REPO]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    # stdout, stderr and exit of gen-synth and the two commands, and 24 files:
    # gen-synth's 2, write_inputs' 21 and the eval's results
    assert captured.err == "0 of 33 entries differ\n"


def test_the_manifest_names_each_output_once(short_list, capsys):
    assert output_manifest.main([REPO]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(set(names)) == len(names) == 33
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
    assert GEN_SYNTH_STDOUT in names and "fixtures/baseline-eval/eval_results.csv" in names


def test_the_tool_imports_only_the_standard_library_at_module_level():
    with open(output_manifest.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {alias.name for node in tree.body if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert "json" in modules
    assert {name.split(".")[0] for name in modules} <= sys.stdlib_module_names


def test_every_scenario_has_its_own_entry():
    names = [output_manifest.entry(argv, stdin) for argv, stdin, _ in output_manifest.SCENARIOS]
    assert len(set(names)) == len(names)


def test_a_changed_output_string_is_named(short_list, tmp_path, capsys):
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "mcm" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("test records to") == 1
    cli.write_text(text.replace("test records to", "test records in"), encoding="utf-8")
    assert output_manifest.main([REPO, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [GEN_SYNTH_STDOUT]
    assert captured.err == "1 of 33 entries differ\n"


def test_a_directory_without_the_cli_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    def refuse(checkout):
        raise AssertionError(f"ran {checkout}")

    monkeypatch.setattr(output_manifest, "checkout_manifest", refuse)
    assert output_manifest.main([REPO, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: no {tmp_path}/src/mcm/cli.py; "
                            "each DIR must name a checkout\n")


def test_a_failing_child_is_an_error(short_list, tmp_path, capsys):
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "mcm" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace("    profile = table1_profile()\n",
                                "    raise RuntimeError('broken')\n"), encoding="utf-8")
    assert output_manifest.main([REPO, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: broken" in captured.err
    assert captured.err.splitlines()[-1] == (f"error: the scenarios exited with code 1 in "
                                             f"{tmp_path}")
