"""Compare two checkouts on the benchmark in interleaved pairs of runs.

    python3 tools/paired_bench.py --base ../parent --change . --seeds 41-50 --seconds 10

Each seed makes one pair: ``perfbench/run.py --workload all`` runs once in
each checkout, one after the other, and the side that runs first alternates
from pair to pair (the base first on even pairs). Each run prints one line
as it ends. Then, per workload, every end-to-end metric that the change's
``BENCHMARK.json`` lists gets one row: each side's median and quartiles,
the change's move in the median, its pair wins (ties count for neither) and
a verdict:

* ``gain``: the change wins at least nine tenths of the pairs and its median
  beats the base's by more than the base's interquartile range;
* ``worse``: its median is worse than the base's by more than the metric's
  bound (a fraction of the base's median);
* ``unresolved``: neither, and either side's interquartile range is wider
  than the bound, so the runs cannot tell a move within the bound from
  none; unless every run of the change beats every run of the base;
* ``-``: none of these.

Each workload also gets each side's failed operations over attempted
ones, summed over its runs.

The script only calls each checkout's ``perfbench/run.py``; it writes
nothing. It exits 1 when a run fails or reports ``correct: false``, when
some metric is ``worse``, or when the change fails a larger share of its
operations than the base on some workload. It exits 2, before any run, when
``--change`` holds no ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np


def parse_seeds(text: str) -> list:
    """'41-50' or '41,43,45' (or a mix) as a list of ints; a reversed
    range such as '50-41' is refused."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"reversed seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def run_once(checkout: str, seed: int, seconds: float) -> dict:
    """One ``--workload all`` run in ``checkout``: {workload: its result}."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    try:  # run.py exits 1 but still prints the summary when a check failed
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode} "
                           "without a summary") from None


def summarise(base: list, change: list, better: str, bound: float) -> dict:
    """The row of one metric from its paired values (pair i is base[i],
    change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    q_base, q_change = np.percentile(base, [25, 50, 75]), np.percentile(change, [25, 50, 75])
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gap = sign * (q_change[1] - q_base[1])  # > 0: the change is better in the median
    iqr = q_base[2] - q_base[0]
    allowed = bound * abs(q_base[1])
    if wins >= math.ceil(0.9 * len(base)) and gap > iqr:
        verdict = "gain"
    elif -gap > allowed:
        verdict = "worse"
    elif (max(iqr, q_change[2] - q_change[0]) > allowed
          and min(sign * c for c in change) <= max(sign * b for b in base)):
        verdict = "unresolved"
    else:
        verdict = "-"
    return {"base": q_base.tolist(), "change": q_change.tolist(),
            "move": (q_change[1] - q_base[1]) / q_base[1] if q_base[1] else math.nan,
            "wins": wins, "pairs": len(base), "verdict": verdict}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--change", default=".", help="checkout of the change (default: .)")
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="for example 41-50, or 41,43,45")
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    spec = os.path.join(sides["change"], "BENCHMARK.json")
    if not os.path.isfile(spec):
        print(f"error: no {spec}; --change must name a checkout", file=sys.stderr)
        return 2
    with open(spec, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    runs = {"base": [], "change": []}
    ok = True
    for i, seed in enumerate(args.seeds):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            try:
                result = run_once(sides[side], seed, args.seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            runs[side].append(result)
            for name, r in result.items():
                ok &= bool(r["correct"])
                values = " ".join(f"{m}={e['value']:.4g}" for m, e in r["metrics"].items())
                print(f"seed {seed} {side:<6} {name}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {values}", flush=True)

    for name in runs["base"][0]:
        print(f"\n{name} ({len(runs['base'])} pairs): median [quartiles]")
        for m in metrics:
            values = {side: [r[name]["metrics"][m["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            row = summarise(values["base"], values["change"], m["better"], m["bound"])
            ok &= row["verdict"] != "worse"
            b, c = row["base"], row["change"]
            print(f"  {m['name']:<16} {b[1]:10.4g} [{b[0]:.4g}, {b[2]:.4g}] -> "
                  f"{c[1]:10.4g} [{c[0]:.4g}, {c[2]:.4g}]  {row['move']:+7.1%}  "
                  f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
        counts = {side: [sum(r[name][k] for r in rs) for k in ("failed", "attempted")]
                  for side, rs in runs.items()}
        (fb, ab), (fc, ac) = counts["base"], counts["change"]
        more = fc * ab > fb * ac  # the change's failed share is the larger
        ok &= not more
        print(f"  failed ops       base {fb}/{ab} -> change {fc}/{ac}"
              f"{'  worse' if more else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
