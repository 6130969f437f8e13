"""tools/paired_bench.py: seed lists, the per-metric verdict rule and the
failed-operation share."""
import json
import os
import textwrap

import pytest

from .helpers import load_tool

paired_bench = load_tool("paired_bench")


def test_parse_seeds():
    assert paired_bench.parse_seeds("41-44") == [41, 42, 43, 44]
    assert paired_bench.parse_seeds("3,7-8,1") == [3, 7, 8, 1]
    with pytest.raises(ValueError):
        paired_bench.parse_seeds("x")
    with pytest.raises(ValueError, match="reversed seed range '50-41'"):
        paired_bench.parse_seeds("50-41,3")


def test_a_reversed_seed_range_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        paired_bench.main(["--base", str(tmp_path), "--seeds", "50-41,3"])
    assert exc.value.code == 2 and "--seeds" in capsys.readouterr().err


def test_nine_of_ten_wins_beyond_the_base_spread_is_a_gain():
    base = [3.0, 3.1, 2.9, 3.2, 3.0, 2.8, 3.1, 3.0, 2.9, 3.0]
    change = [b - 0.5 for b in base[:9]] + [base[9] + 0.1]  # loses the last pair
    row = paired_bench.summarise(base, change, "lower", 0.25)
    assert (row["wins"], row["pairs"], row["verdict"]) == (9, 10, "gain")
    assert row["move"] < 0
    # the same values where higher is better: the change is worse, within 25%
    assert paired_bench.summarise(base, change, "higher", 0.25)["verdict"] == "-"
    assert paired_bench.summarise(base, change, "higher", 0.1)["verdict"] == "worse"


def test_eight_wins_or_a_gap_inside_the_spread_is_no_gain():
    base = [3.0, 3.1, 2.9, 3.2, 3.0, 2.8, 3.1, 3.0, 2.9, 3.0]
    change = [b - 0.5 for b in base[:8]] + [base[8], base[9] + 0.1]  # a tie counts for neither
    assert paired_bench.summarise(base, change, "lower", 0.25)["wins"] == 8
    assert paired_bench.summarise(base, change, "lower", 0.25)["verdict"] == "-"
    spread = [1.0, 5.0, 1.0, 5.0]  # an interquartile range wider than the bound
    assert paired_bench.summarise(spread, [v - 1.0 for v in spread], "lower",
                                  0.25)["verdict"] == "unresolved"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    steady = [3.0, 3.0, 3.1, 3.1]
    wide = [2.0, 4.0, 2.0, 4.0]
    for base, change in ((wide, steady), (steady, wide)):  # either side's spread
        assert paired_bench.summarise(base, change, "lower", 0.25)["verdict"] == "unresolved"
    assert paired_bench.summarise(steady, steady, "lower", 0.25)["verdict"] == "-"
    # every change run beats every base run: no gain (3 of 4 pairs), but resolved
    base, change = [10.0, 10.0, 12.0, 18.0], [9.5, 11.0, 9.0, 9.0]
    row = paired_bench.summarise(base, change, "lower", 0.1)
    assert (row["wins"], row["verdict"]) == (3, "unresolved")
    row = paired_bench.summarise(base, [9.5, 9.9, 9.0, 9.0], "lower", 0.1)
    assert (row["wins"], row["verdict"]) == (4, "-")


FAKE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
p50 = {p50}
metrics = {{"predict_p50_ms": {{"value": p50, "unit": "ms"}},
            "test_macro_f1": {{"value": 0.5, "unit": "f1"}}}}
print("table line")
print(json.dumps({{"train-toy": {{"correct": {correct}, "attempted": 4, "failed": {failed},
                                 "metrics": metrics}}}}))
"""


def fake_checkout(root, p50, correct=True, failed=0):
    """A checkout whose perfbench/run.py prints a fixed summary line."""
    os.makedirs(os.path.join(root, "perfbench"))
    with open(os.path.join(root, "perfbench", "run.py"), "w", encoding="utf-8") as fh:
        fh.write(textwrap.dedent(FAKE_RUN.format(p50=p50, correct=correct, failed=failed)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump({"end_to_end": [
            {"name": "predict_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "test_macro_f1", "unit": "f1", "better": "higher", "bound": 0.15}]}, fh)
    return str(root)


def test_runs_both_checkouts_per_seed_alternating_and_reports_each_metric(tmp_path, capsys):
    base = fake_checkout(tmp_path / "base", "3.0 + seed / 100")
    change = fake_checkout(tmp_path / "change", "2.5 + seed / 100")
    assert paired_bench.main(["--base", base, "--change", change, "--seeds", "1-3",
                              "--seconds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" train-toy")[0] for line in out[:6]] == [
        "seed 1 base  ", "seed 1 change", "seed 2 change", "seed 2 base  ",
        "seed 3 base  ", "seed 3 change"]
    rows = {line.split()[0]: line for line in out if line.startswith("  ")}
    assert rows["predict_p50_ms"].endswith("wins 3/3  gain")
    assert rows["test_macro_f1"].endswith("wins 0/3  -")


def test_a_worse_metric_exits_1(tmp_path, capsys):
    base = fake_checkout(tmp_path / "base", "3.0")
    change = fake_checkout(tmp_path / "change", "4.0")  # 33% slower, the bound is 25%
    assert paired_bench.main(["--base", base, "--change", change, "--seeds", "1-2"]) == 1
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")}
    assert rows["predict_p50_ms"].endswith("wins 0/2  worse")
    assert rows["test_macro_f1"].endswith("wins 0/2  -")


def test_a_failed_check_or_a_crash_exits_1(tmp_path, capsys):
    good = fake_checkout(tmp_path / "good", "3.0")
    failing = fake_checkout(tmp_path / "failing", "2.0", correct=False)
    assert paired_bench.main(["--base", good, "--change", failing, "--seeds", "1"]) == 1
    os.remove(os.path.join(failing, "perfbench", "run.py"))
    assert paired_bench.main(["--base", good, "--change", failing, "--seeds", "1"]) == 1
    assert "without a summary" in capsys.readouterr().err


def test_a_change_without_benchmark_json_is_one_error_line(tmp_path, capsys):
    base = fake_checkout(tmp_path / "base", "3.0")
    assert paired_bench.main(["--base", base, "--change", str(tmp_path), "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no ") and captured.err.count("\n") == 1
    assert "BENCHMARK.json" in captured.err


@pytest.mark.parametrize("base_failed,change_failed,code", [(0, 0, 0), (1, 1, 0), (2, 1, 0),
                                                            (0, 1, 1), (1, 2, 1)])
def test_a_larger_failed_share_exits_1(tmp_path, capsys, base_failed, change_failed, code):
    base = fake_checkout(tmp_path / "base", "3.0", failed=base_failed)
    change = fake_checkout(tmp_path / "change", "3.0", failed=change_failed)
    assert paired_bench.main(["--base", base, "--change", change, "--seeds", "1-2"]) == code
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("  failed ops")]
    assert line.split() == ["failed", "ops", "base", f"{2 * base_failed}/8", "->", "change",
                            f"{2 * change_failed}/8"] + ["worse"] * code
