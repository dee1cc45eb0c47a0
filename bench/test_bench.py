"""Self-test of the benchmark's tracer.

    python -m pytest bench/test_bench.py

Runs small commands that enter every wrapped layer, with and without the
outside-in tracer.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import one_pass  # noqa: E402

# small command lines that together enter every wrapped layer; only the
# byte identity of their output matters here, not its answer key
SMOKE = [
    (["--algebra", "weyl(1)", "cyclic", "--max-weight", "3", "--u-cap", "2"], None),
    (["--algebra", "weyl(1)", "poisson-homology", "--max-weight", "4"], None),
    (["--algebra", "weyl(1)", "--seed", "3", "verify", "quasi", "--samples", "4"], None),
    (["--algebra", "weyl(1)", "--seed", "3", "verify", "tower", "--samples", "5"], None),
    (["--algebra", "arrangement(x,y,y-x,y+x)", "verify", "euler",
      "--max-weight", "1", "--euler-cap", "1"], None),
    (["--algebra", "semidirect(sl2,std)", "poisson-cohomology", "--max-weight", "1"], None),
    (["--algebra", "lie(sl2)", "ce", "--module", "sym-adjoint", "--max-weight", "4"], None),
    (["--algebra", "lie(sl2)", "center", "--filtration-cap", "2", "--max-weight", "2"], None),
]


def _bindings() -> dict:
    """Every name bound in a rinehart module or on a class defined there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "rinehart" and not name.startswith("rinehart."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, impl in vars(value).items():
                    out[(name, attr, member)] = impl
    return out


def test_traced_pass_prints_the_same_bytes_and_restores_every_name():
    plain = one_pass.run_pass(SMOKE, trace=False)
    before = _bindings()
    traced = one_pass.run_pass(SMOKE, trace=True)
    after = _bindings()

    assert traced["stdout_sha256"] == plain["stdout_sha256"]
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    from rinehart import homology, linalg, poisson, quasimod, uea

    assert homology.cohomology_dims is linalg.cohomology_dims
    assert poisson.cohomology_dims is linalg.cohomology_dims
    assert quasimod.cohomology_dims is linalg.cohomology_dims
    assert uea.kernel_and_rank is linalg.kernel_and_rank
    # every wrapped layer was entered, so no metric is a silent zero
    assert [name for name, value in traced["layers"].items() if not value > 0] == []


def _traced_in_fresh_interpreter(hash_seed: str) -> dict:
    spec = {"commands": SMOKE, "trace": True, "spans_out": None}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "one_pass.py")],
        input=json.dumps(spec), capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


def test_every_count_repeats_across_traced_runs():
    first = _traced_in_fresh_interpreter("1")
    second = _traced_in_fresh_interpreter("2")
    counts = [name for name in first if not name.endswith("_s")]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
