"""Benchmark of the `rinehart` CLI, end to end and layer by layer.

    python3 bench/run.py --workload tables --seed 7 --seconds 40 --trace 0

Run from the root of a checkout.  One closed-loop client with one command in
flight: passes run one at a time, each in a fresh interpreter (`one_pass.py`)
that imports `rinehart` from `src/`, builds the workload's algebras and runs
every command of the workload (`workloads.py`) through `rinehart.cli.main`.
Passes repeat until `--seconds` have passed; every reported time is the
median over passes.  Pass k of an untraced run draws its inputs from
seed + k * 1000003, so the median covers many samples of the seeded law
checks; the time of one sample varies too much for one seed to stand for a
workload.  A traced run repeats the run's seed, so its counts are exact.

With `--trace 0` the metrics are the end-to-end ones:
  setup_s       import rinehart and build the algebras
  wall_s        first command to last rendered report
  cpu_s         user + system CPU over the same interval, children included
  peak_rss_mib  the pass's peak resident memory
The three times are given at the host's reference speed: each pass's time is
multiplied by REFERENCE_LOOP_S over the time the pass took for the reference
loop of `one_pass.py`.  On a shared host the raw times of the same code moved
by 50% between two sets of ten runs; the summary line prints the raw medians
and the host's speed as well.

With `--trace 1` untraced and traced passes alternate, every traced pass must
print the same bytes as the untraced one before it, and the metrics are the
per-layer ones of `spans.py`, plus `cli.out_bytes` and `trace.overhead_s`
(traced minus untraced wall_s), all in raw seconds.  The spans of the last traced pass are
written to `bench/out/`.

A command that raises, exits non-zero or answers wrong counts as failed; the
summary line gives `mismatch_frac` = failed / attempted.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
# every run must end within 180 s; a pass still running at this point is killed
RUN_LIMIT_S = 170
PASS_SEED_STRIDE = 1000003
# seconds the reference loop of one_pass.py takes at the reference speed:
# Intel Xeon at 2.1 GHz, Python 3.11.7, with no other load on its core
REFERENCE_LOOP_S = 0.12

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_reuse", "_frac")):
        return "ratio"
    return "count"


def at_reference_speed(run: dict, name: str) -> float:
    """An end-to-end metric of one pass, a time scaled to the reference speed."""
    if END_TO_END[name] != "s":
        return run[name]
    return run[name] * REFERENCE_LOOP_S / run["reference_loop_s"]


def one_pass(commands, trace: bool, spans_out: Path | None, start: float) -> dict:
    spec = {"commands": commands, "trace": trace,
            "spans_out": str(spans_out) if spans_out else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "one_pass.py")],
            input=json.dumps(spec), stdout=subprocess.PIPE, text=True,
            timeout=max(RUN_LIMIT_S - (time.perf_counter() - start), 1),
        )
    except subprocess.TimeoutExpired:
        sys.exit("error: a pass did not finish within the run's time limit")
    if proc.returncode != 0:
        sys.exit(f"error: a pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (BENCH.parent / "src" / "rinehart").is_dir():
        sys.exit(f"error: no src/rinehart next to {BENCH.name}/; run from a checkout")
    spans_out = None
    if args.trace:
        (BENCH / "out").mkdir(exist_ok=True)
        spans_out = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"

    start = time.perf_counter()
    plain, traced = [], []
    attempted = failed = 0
    while True:
        seed = args.seed if args.trace else args.seed + len(plain) * PASS_SEED_STRIDE
        commands = workloads.commands(args.workload, seed)
        base = one_pass(commands, False, None, start)
        plain.append(base)
        attempted += len(commands)
        failed += sum(base["failed"])
        if args.trace:
            run = one_pass(commands, True, spans_out, start)
            traced.append(run)
            attempted += len(commands)
            # a traced command must also print exactly what the untraced one did
            failed += sum(bad or digest != ref for bad, digest, ref in zip(
                run["failed"], run["stdout_sha256"], base["stdout_sha256"]))
        if time.perf_counter() - start >= args.seconds:
            break

    def median(runs, key):
        return statistics.median(r[key] for r in runs)

    if args.trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in metrics.items()}
        raw = []
    else:
        metrics = {name: {"value": statistics.median(at_reference_speed(r, name) for r in plain),
                          "unit": u}
                   for name, u in END_TO_END.items()}
        raw = [f"raw_{name}={median(plain, name):.6g} s"
               for name, u in END_TO_END.items() if u == "s"]
        raw.append(f"host_speed={REFERENCE_LOOP_S / median(plain, 'reference_loop_s'):.4g}")
    summary = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print(f"workload={args.workload} seed={args.seed} passes={len(plain) + len(traced)}",
          *summary, f"mismatch_frac={failed / attempted:.6g} ({failed}/{attempted})", *raw)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
