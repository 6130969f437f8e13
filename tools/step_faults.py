"""Minor page faults and milliseconds of each phase of a training step.

    python3 tools/step_faults.py --workload train-toy --seed 7
    python3 tools/step_faults.py --checkout ../parent --workload train-toy --seed 7

Sets up one ``perfbench`` workload for the seed with ``perfbench/bench.py``
(inputs, vocabulary, embeddings, model and training config), then runs
training steps with the calls ``trainer.fit`` makes, cycling over the
training batches in a seeded order. Each step has three phases:

* forward: ``head_logits`` and ``heads_loss`` under a tape;
* backward: ``tensor.backward``;
* optimizer: ``Optimizer.step`` and ``zero_grad``.

Around each phase it reads ``resource.getrusage(RUSAGE_SELF).ru_minflt``
and the clock, in this process only. It also wraps ``mcm.tensor._accumulate``
to count the bytes that first dense gradient writes copy in each backward:
each write that ``_accumulate`` does not adopt as the gradient itself (see
``tensor.Fresh``). After ``--warmup`` steps it prints the median of each
phase over the next ``--steps`` steps, one line per phase (the backward's
with the MiB copied), then the process's peak resident set (``ru_maxrss``,
in MiB) after the measured steps, then all of it as one JSON object (the
copies as ``copied_mib``, the peak as ``peak_rss_mb``) on the last line.
That peak covers the whole process, so it includes the set-up: the
inputs, the vocabulary, the embedding table and the model.

``--checkout`` names the tree whose ``src/`` and ``perfbench/`` are measured
(default: the one holding this script), so two checkouts can be compared
with the same script; a tree without ``src/mcm`` or ``perfbench/bench.py``
is refused with one ``error:`` line and exit code 2. BLAS runs on one
thread, as in the benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("forward", "backward", "optimizer")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a perfbench workload, such as train-toy")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=20, help="measured steps (default 20)")
    p.add_argument("--warmup", type=int, default=5, help="unmeasured steps first (default 5)")
    p.add_argument("--checkout", default=ROOT, help="tree to measure (default: this one)")
    args = p.parse_args(argv)
    if args.steps < 1 or args.warmup < 0:
        p.error("--steps must be at least 1 and --warmup at least 0")
    return args


def measure(args):
    """({phase: (median minor faults, median ms)}, median MiB copied per
    backward) over the measured steps."""
    checkout = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import bench
    import numpy as np
    from mcm import tensor
    from mcm.model import heads_loss
    from mcm.tensor import Tape, backward
    from mcm.trainer import Optimizer

    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"one of {', '.join(bench.WORKLOADS)}")
    w = bench.WORKLOADS[args.workload]
    train_records, test_records, _ = bench.make_inputs(w, args.seed)
    s = bench.set_up(w, train_records, test_records, args.seed)
    cfg = bench.train_config(w, args.seed)
    opt = Optimizer(cfg.optimizer, s.model.parameters(), cfg.learning_rate)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(s.train))
    batches = [order[lo:lo + w.batch] for lo in range(0, len(order) - w.batch + 1, w.batch)]

    def now():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()

    accumulate = tensor._accumulate
    copied = [0]  # bytes copied by first dense writes since the last reset

    def counting_accumulate(t, g):
        array = g.array if isinstance(g, tensor.Fresh) else g
        first_dense = t._grad is None and not isinstance(array, tensor.RowGrad)
        accumulate(t, g)
        if first_dense and t._grad is not array:
            copied[0] += t._grad.nbytes

    tensor._accumulate = counting_accumulate
    samples = {phase: [] for phase in PHASES}
    copied_mib = []
    for step in range(args.warmup + args.steps):
        batch = batches[step % len(batches)]
        marks = [now()]
        with Tape() as tape:
            logits = s.model.head_logits(s.train.sequences[batch], "train", rng)
            total = heads_loss(logits, s.train.labels[batch])
        marks.append(now())
        copied[0] = 0
        backward(total, tape)
        marks.append(now())
        opt.step()
        opt.zero_grad()
        marks.append(now())
        if step >= args.warmup:
            copied_mib.append(copied[0] / 2**20)
            for phase, (f0, t0), (f1, t1) in zip(PHASES, marks, marks[1:]):
                samples[phase].append((f1 - f0, (t1 - t0) * 1e3))
    medians = {phase: (statistics.median(f for f, _ in rows),
                       statistics.median(ms for _, ms in rows))
               for phase, rows in samples.items()}
    return medians, statistics.median(copied_mib)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    for part in (os.path.join("src", "mcm", "__init__.py"), os.path.join("perfbench", "bench.py")):
        if not os.path.isfile(os.path.join(checkout, part)):
            print(f"error: no {part} under {checkout}; --checkout must name a full checkout",
                  file=sys.stderr)
            return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, as in perfbench/run.py
    result, copied_mib = measure(args)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{args.workload} seed {args.seed}: medians over {args.steps} steps "
          f"after {args.warmup} warm-up steps")
    for phase, (faults, ms) in result.items():
        copies = f" {copied_mib:6.2f} MiB copied" if phase == "backward" else ""
        print(f"  {phase:<10} {faults:8.0f} minor faults {ms:9.1f} ms{copies}")
    print(f"  peak RSS of the process, set-up included: {peak_mb:.1f} MiB")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "steps": args.steps,
                      "phases": {phase: {"minflt": faults, "ms": ms}
                                 for phase, (faults, ms) in result.items()},
                      "copied_mib": round(copied_mib, 2), "peak_rss_mb": round(peak_mb, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
