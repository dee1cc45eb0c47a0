"""One benchmark pass, in a fresh interpreter.

Reads `{"commands": [[argv, sha256 or null], ...], "trace": bool,
"spans_out": path or null}` as JSON on stdin.  Imports `rinehart` from the
checkout's `src/`, builds the algebras, runs every command through
`rinehart.cli.main` in this process, checks each answer, and prints one JSON
object with the pass's timings, the sha256 of each command's stdout and
which commands failed.  With `"trace": true` the commands run under the
outside-in tracer of `spans.py` and the object also holds the per-layer
metrics.

The pass also times a fixed reference loop just before and just after the
commands.  On a shared host the same pass runs up to 1.7 times slower for
minutes at a time, and the loop slows with it; `run.py` scales the pass's
times by it.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def reference_loop_s() -> float:
    """Seconds for a fixed job of exact arithmetic, with the collector off so
    that the heap the commands left behind does not change the job."""
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        step = Fraction(2, 3)
        for i in range(40000):
            key = (i % 61, i % 7)
            acc[key] = acc.get(key, Fraction(0)) + step * (i % 5 - 2)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_command(main, argv):
    """(exit code or None if it raised, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code
        except Exception:  # a raised command is one failed command, not a failed pass
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def answer_ok(rc, stdout: str, sha256: str | None) -> bool:
    if rc != 0:
        return False
    if sha256 is not None:
        return hashlib.sha256(stdout.encode()).hexdigest() == sha256
    checks = json.loads(stdout)["checks"]
    return bool(checks) and all(check["ok"] for check in checks)


def run_pass(commands, trace: bool, spans_out: str | None = None) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from rinehart import cli, presets

    for spec in sorted({argv[argv.index("--algebra") + 1] for argv, _ in commands}):
        presets.builtin(spec)
    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    results = []
    reference_s = reference_loop_s()
    try:
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        for argv, _ in commands:
            scope = tracer.command() if tracer else contextlib.nullcontext()
            with scope:
                results.append(run_command(cli.main, argv))
        wall_s, cpu_s = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    finally:
        if tracer:
            tracer.restore()
    reference_s = (reference_s + reference_loop_s()) / 2

    failed = []
    for (argv, sha256), (rc, stdout, stderr) in zip(commands, results):
        try:
            ok = answer_ok(rc, stdout, sha256)
        except (ValueError, KeyError, TypeError):  # stdout is not a report
            ok = False
        if not ok:
            sys.stderr.write(f"wrong answer (exit {rc}): rinehart {' '.join(argv)}\n{stderr}")
        failed.append(not ok)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_loop_s": reference_s,
        "stdout_sha256": [hashlib.sha256(stdout.encode()).hexdigest()
                          for _, stdout, _ in results],
        "failed": failed,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["layers"]["cli.out_bytes"] = sum(len(stdout.encode()) for _, stdout, _ in results)
        if spans_out:
            tracer.write_spans(spans_out)
    return out


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    commands = [(list(argv), sha256) for argv, sha256 in spec["commands"]]
    print(json.dumps(run_pass(commands, spec["trace"], spec.get("spans_out"))))
