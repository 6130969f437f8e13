"""tools/step_faults.py: a two-step run prints every phase's medians, the
MiB a backward copies and the process's peak RSS; bad arguments and
incomplete checkouts are refused."""
import json
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "step_faults.py")


def step_faults(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True,
                          check=False, timeout=300)


def test_two_steps_give_faults_and_times_of_each_phase():
    proc = step_faults("--workload", "train-toy", "--seed", "1", "--steps", "2", "--warmup", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert (result["workload"], result["seed"], result["steps"]) == ("train-toy", 1, 2)
    assert list(result["phases"]) == ["forward", "backward", "optimizer"]
    for phase in result["phases"].values():
        assert phase["minflt"] >= 0 and phase["ms"] > 0
    assert result["copied_mib"] >= 0
    assert lines[2].split() == ["backward", *lines[2].split()[1:6],
                                f"{result['copied_mib']:.2f}", "MiB", "copied"]
    assert result["peak_rss_mb"] > 0
    assert lines[-2].strip() == f"peak RSS of the process, set-up included: " \
                                f"{result['peak_rss_mb']:.1f} MiB"
    assert len(lines) == 6  # a heading, one line per phase, the peak, the JSON


@pytest.mark.parametrize("args, message", [
    (["--workload", "nope", "--seed", "1"], "unknown workload 'nope'"),
    (["--workload", "train-toy", "--seed", "1", "--steps", "0"], "--steps must be at least 1"),
])
def test_bad_arguments_are_refused(args, message):
    proc = step_faults(*args)
    assert proc.returncode != 0 and message in proc.stderr


@pytest.mark.parametrize("parts", [[], ["src/mcm/__init__.py"], ["perfbench/bench.py"]],
                         ids=["empty", "no-bench", "no-package"])
def test_an_incomplete_checkout_is_one_error_line(tmp_path, parts):
    for part in parts:
        (tmp_path / part).parent.mkdir(parents=True)
        (tmp_path / part).write_text("")
    proc = step_faults("--workload", "train-toy", "--seed", "1", "--checkout", str(tmp_path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: no ") and proc.stderr.count("\n") == 1, proc.stderr
