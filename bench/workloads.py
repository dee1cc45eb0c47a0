"""The benchmark's workloads and the answer key of every command.

A workload is a list of `rinehart` command lines, run one after another.
`{seed}` in a command line is replaced by the benchmark seed; that is the
only way the seed reaches the program.

A command whose output does not depend on the seed carries the sha256 of its
stdout, recorded from the library as it stood when the benchmark was added;
it passes when it exits 0 with exactly that stdout.  A seeded `verify` command carries `None`: it passes
when it exits 0 and every check in its report is ok.  The laws it checks are
theorems, so that answer holds for any seed.
"""
from __future__ import annotations

WORKLOADS: dict[str, list[tuple[list[str], str | None]]] = {
    # Ranks and slice assembly (linalg, homology).  In `cyclic` the same
    # poisson_boundary inputs recur about 5 times, because the slices repeat
    # across columns and the u_cap - 1 run repeats them all; in
    # `poisson-homology` every input is new.  A memo there has one command
    # that uses it and one that bypasses it.
    "tables": [
        (["--algebra", "weyl(1)", "cyclic", "--max-weight", "24", "--u-cap", "3"],
         "ba9b374cd5653f3238f4271f5667c7db8076b9e3354aac7a26e27852c5b80672"),
        (["--algebra", "weyl(2)", "poisson-homology", "--max-weight", "5"],
         "0ea5a5a434e94968ecdf93c43351d672f7bef297734836f7a35257bde85e7d74"),
    ],
    # Seeded law checks: Polynomial arithmetic, UEA normal ordering, lazy
    # cochain composition, the quasi-module harness and the PBW tower; no
    # linalg.  weyl(1) keeps the Hochschild harness at many cheap trials:
    # the cost of one trial varies by 0.8 of its mean with its random arity,
    # so a few costly trials would make the time follow the seed.
    "laws": [
        (["--algebra", "weyl(1)", "--seed", "{seed}", "verify", "quasi",
          "--samples", "60"], None),
        (["--algebra", "weyl(2)", "--seed", "{seed}", "verify", "tower",
          "--samples", "20"], None),
    ],
    # Multivector evaluation and cochain-slice assembly with little linalg;
    # every basis element is assembled once, so nothing is reused.  The Euler
    # check's Casimir search needs kernel vectors, not only ranks.
    "multivector": [
        (["--algebra", "arrangement(x,y,y-x,y+x)", "verify", "euler",
          "--max-weight", "2", "--euler-cap", "2"],
         "030c1c06f7b528a20dea73beaa79d9b7413086d7480d99374e9f754706411b8c"),
        (["--algebra", "semidirect(sl2,std)", "poisson-cohomology", "--max-weight", "2"],
         "1c8fac8f2fb15ec7a211e0ff6757ae43d0863e711405e60e67fdecde5c8a93c0"),
        (["--algebra", "lie(sl2)", "ce", "--module", "sym-adjoint", "--max-weight", "10"],
         "562920c994df8384bc352e491216f8b631653e4067180cdcf30f21748264f6db"),
    ],
}


def commands(workload: str, seed: int) -> list[tuple[list[str], str | None]]:
    """The workload's command lines for this seed, each with its answer key."""
    return [
        ([arg.replace("{seed}", str(seed)) for arg in argv], sha256)
        for argv, sha256 in WORKLOADS[workload]
    ]
