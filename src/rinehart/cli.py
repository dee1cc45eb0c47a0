"""Command-line surface: algebra ingestion, cohomology tables, identity suites.

Reports are deterministic: sorted keys, fixed column order, no timestamps.
Exit codes: 0 all checks passed, 1 a check failed or a slice is not a complex,
2 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import presets
from .homology import (
    capped_casimir_search,
    cyclic_homology,
    euler_contraction_check,
    homology_totals,
    poisson_homology,
)
from .lie_rinehart import (
    Connection,
    LieRinehartAlgebra,
    PresentationError,
    check_axioms,
)
from .linalg import NotAComplexError
from .pbwext import (
    EtaContext,
    verify_eta_properties,
    verify_f_identities,
    verify_identity_tower,
    verify_pbw_chain,
)
from .poisson import poisson_cohomology
from .poly import PolyDerivation, PolyParseError, _tokenize, parse_poly
from .quasimod import (
    adjoint_instance,
    ce_cohomology,
    hochschild_instance,
    quasi_axiom_check,
    ruth_check,
)
from .uea import EnvelopingAlgebra, center_search


class SpecFileError(ValueError):
    pass


def parse_spec(path: str) -> LieRinehartAlgebra:
    """Read the JSON presentation format; structural problems carry the field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"{path}: cannot read: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from exc
    return presentation_from_dict(data, origin=path)


def presentation_from_dict(data: dict, origin: str = "<spec>") -> LieRinehartAlgebra:
    if not isinstance(data, dict):
        raise SpecFileError(f"{origin}: a presentation must be a JSON object")

    def checked(name, kind, item, what, optional=False):
        """data[name] if it is a `kind` whose elements (values, for an
        object) are all `item`s, a bool being no int; None for a missing or
        null optional field."""
        value = data.get(name)
        if value is None and optional:
            return None
        members = value.values() if isinstance(value, dict) else value
        if (not isinstance(value, kind) or isinstance(value, bool)
                or item and any(not isinstance(v, item) or isinstance(v, bool) for v in members)):
            raise SpecFileError(f"{origin}: missing or malformed field {name!r}: need {what}")
        return value

    vars = tuple(checked("vars", list, str, "a list of names"))
    rank = checked("rank", int, None, "an integer")
    basis = tuple(checked("basis", list, str, "a list of names"))
    anchor_rows = checked("anchor", list, list, "a list of rows", True) or []
    brackets = checked("bracket", dict, list, "an object of rows", True) or {}
    weights = checked("weights", dict, int, "an object of name: integer weight", True)
    name = checked("name", str, None, "a string", True)
    if len(basis) != rank:
        raise SpecFileError(f"{origin}: rank {rank} but {len(basis)} basis names")
    for field, names in (("vars", vars), ("basis", basis)):
        for n in names:  # one `name` token each, as polynomial strings spell them
            try:
                if _tokenize(n) != [("v", n)]:
                    raise PolyParseError(f"{n!r} is not one name")
            except PolyParseError as exc:
                raise SpecFileError(f"{origin}: field {field!r}: {exc}") from exc

    def poly(text, field):
        try:
            return parse_poly(vars, str(text))
        except PolyParseError as exc:
            raise SpecFileError(f"{origin}: {field}: {exc}") from exc

    if len(anchor_rows) != rank:
        raise SpecFileError(f"{origin}: anchor needs one row per basis element")
    anchor = []
    for k, row in enumerate(anchor_rows):
        if len(row) != len(vars):
            raise SpecFileError(f"{origin}: anchor[{k}] needs one entry per variable")
        anchor.append(PolyDerivation(vars, [poly(s, f"anchor[{k}]") for s in row]))

    structure = {}
    for key, row in brackets.items():
        try:
            i, j = (int(t) for t in key.split(","))
        except ValueError as exc:
            raise SpecFileError(f"{origin}: bracket key {key!r} is not 'i,j'") from exc
        if len(row) != rank:
            raise SpecFileError(f"{origin}: bracket[{key}] needs {rank} entries")
        cs = tuple(poly(s, f"bracket[{key}]") for s in row)
        # two key strings for one pair, such as "0,1" and "0, 1"; the
        # presentation checks the diagonal and the mirrors
        if structure.setdefault((i, j), cs) != cs:
            raise SpecFileError(f"{origin}: bracket[{key}] conflicts with another key for {i},{j}")

    try:
        alg = LieRinehartAlgebra(vars, basis, tuple(anchor), structure, weights,
                                 name=origin if name is None else name)
    except PresentationError as exc:
        raise SpecFileError(f"{origin}: {exc}") from exc
    return alg


# -- reports ---------------------------------------------------------------


class ReportTable:
    """Rows of (complex, weight, degree, dimension) plus metadata."""

    def __init__(self, command: str, algebra: str, params: dict):
        self.command = command
        self.algebra = algebra
        self.params = dict(params)
        self.rows: list[tuple[str, int, int, int]] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.summary: dict = {}

    def add_row(self, complex_name: str, weight: int, degree: int, dimension: int):
        self.rows.append((complex_name, weight, degree, dimension))

    def add_check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "algebra": self.algebra,
            "params": self.params,
            "rows": [
                {"complex": c, "weight": w, "degree": d, "dimension": dim}
                for c, w, d, dim in sorted(self.rows)
            ],
            "checks": [
                {"name": n, "ok": ok, "detail": detail}
                for n, ok, detail in self.checks
            ],
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        lines = ["complex,weight,degree,dimension"]
        for c, w, d, dim in sorted(self.rows):
            lines.append(f"{c},{w},{d},{dim}")
        for n, ok, _ in self.checks:
            lines.append(f"check:{n},,,{'pass' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_csv()


# -- commands ---------------------------------------------------------------


def _load_algebra(args) -> LieRinehartAlgebra:
    if args.spec_file:
        return parse_spec(args.spec_file)
    if args.algebra:
        return presets.builtin(args.algebra)
    raise SpecFileError("no algebra given: use --algebra or --spec-file")


def _computed(report: ReportTable, alg: LieRinehartAlgebra, compute, *params):
    """compute(*params) for a table command, or None with one failed check in
    the report and no rows: `axioms` when the presentation fails its axioms
    (its slices need not be complexes, nor stay in their weight), `complex`
    when the differentials of a slice do not compose to zero."""
    ax = check_axioms(alg)
    if not ax.ok:
        report.add_check("axioms", False, "; ".join(ax.failures))
        return None
    try:
        return compute(*params)
    except NotAComplexError as exc:
        report.add_check("complex", False, str(exc))
        return None


def cmd_check(args) -> ReportTable:
    alg = _load_algebra(args)
    report = ReportTable("check", alg.name, {"ruth_cap": args.ruth_cap})
    ax = check_axioms(alg)
    report.add_check("axioms", ax.ok, "; ".join(ax.failures))
    rc = ruth_check(Connection(alg), degree_cap=args.ruth_cap, seed=args.seed)
    report.add_check("adjoint-complex-square-zero", rc.ok, "; ".join(rc.failures[:3]))
    return report


def cmd_poisson_cohomology(args) -> ReportTable:
    alg = _load_algebra(args)
    report = ReportTable(
        "poisson-cohomology", alg.name,
        {"max_weight": args.max_weight, "max_degree": args.max_degree},
    )
    table = _computed(report, alg, poisson_cohomology, alg, args.max_weight, args.max_degree)
    if table is None:
        return report
    for (w, k), dim in sorted(table.items()):
        report.add_row("poisson-cochain", w, k, dim)
    totals = homology_totals(table)
    report.summary = {"totals_by_degree": {str(k): totals[k] for k in sorted(totals)}}
    return report


def cmd_poisson_homology(args) -> ReportTable:
    alg = _load_algebra(args)
    report = ReportTable("poisson-homology", alg.name, {"max_weight": args.max_weight})
    table = _computed(report, alg, poisson_homology, alg, args.max_weight)
    if table is None:
        return report
    for (w, k), dim in sorted(table.items()):
        if dim:
            report.add_row("poisson-chain", w, k, dim)
    totals = homology_totals(table)
    report.summary = {"totals_by_degree": {str(k): totals[k] for k in sorted(totals)}}
    return report


def cmd_cyclic(args) -> ReportTable:
    alg = _load_algebra(args)
    report = ReportTable(
        "cyclic", alg.name, {"max_weight": args.max_weight, "u_cap": args.u_cap}
    )
    result = _computed(report, alg, cyclic_homology, alg, args.max_weight, args.u_cap)
    if result is None:
        return report
    table, stable = result
    for (w, t), dim in sorted(table.items()):
        report.add_row("cyclic-total", w, t, dim)
    totals = homology_totals(table)
    report.summary = {"stabilized": stable,
                      "totals_by_degree": {str(t): totals[t] for t in sorted(totals)}}
    report.add_check("u-truncation-stabilized", stable)
    return report


def cmd_center(args) -> ReportTable:
    alg = _load_algebra(args)
    report = ReportTable(
        "center", alg.name,
        {"filtration_cap": args.filtration_cap, "max_weight": args.max_weight},
    )
    basis = _computed(report, alg, center_search, EnvelopingAlgebra(alg),
                      args.filtration_cap, args.max_weight)
    if basis is None:
        return report
    report.add_row("center", args.max_weight, args.filtration_cap, len(basis))
    report.summary = {"dimension": len(basis), "basis": sorted(repr(u) for u in basis)}
    return report


def cmd_ce(args) -> ReportTable:
    alg = _load_algebra(args)
    module = {"trivial": "trivial", "sym-adjoint": "sym_adjoint_lie"}[args.module]
    report = ReportTable(
        "ce", alg.name,
        {"module": module, "max_weight": args.max_weight, "max_degree": args.max_degree},
    )
    table = _computed(report, alg, ce_cohomology, alg, module, args.max_weight, args.max_degree)
    if table is None:
        return report
    for (w, m), dim in sorted(table.items()):
        report.add_row(f"ce-{args.module}", w, m, dim)
    return report


def cmd_verify(args) -> ReportTable:
    alg = _load_algebra(args)
    report = ReportTable(
        f"verify-{args.suite}", alg.name,
        {"samples": args.samples, "seed": args.seed},
    )
    if args.suite == "quasi":
        for label, inst in (
            ("adjoint", adjoint_instance(alg)),
            ("hochschild", hochschild_instance(alg)),
        ):
            rep = quasi_axiom_check(inst, alg, trials=args.samples, seed=args.seed)
            report.add_check(f"quasi-module-laws-{label}", rep.ok, "; ".join(rep.failures[:3]))
    elif args.suite == "pbw":
        ctx = EtaContext(alg)
        rep = verify_pbw_chain(ctx, samples=args.samples, seed=args.seed)
        report.add_check("lift-chain-relation", rep.ok, "; ".join(rep.failures[:3]))
    elif args.suite == "tower":
        ctx = EtaContext(alg)
        rep = verify_identity_tower(ctx, samples=args.samples, seed=args.seed)
        report.add_check("homotopy-tower", rep.ok, "; ".join(rep.failures[:3]))
    elif args.suite == "eta":
        ctx = EtaContext(alg)
        rep = verify_eta_properties(ctx, samples=args.samples, seed=args.seed)
        report.add_check("eta-tensor-properties", rep.ok, "; ".join(rep.failures[:3]))
        rep = verify_f_identities(ctx, samples=args.samples, seed=args.seed)
        report.add_check("leg-lowering-identities", rep.ok, "; ".join(rep.failures[:3]))
    elif args.suite == "euler":
        rep = euler_contraction_check(alg, args.euler, args.max_weight,
                                      args.max_degree, euler_degree_cap=args.euler_cap)
        report.add_check(
            "euler-contraction-splits-weights", rep.ok,
            f"checked {rep.trials}; " + "; ".join(rep.failures[:3]),
        )
        basis = capped_casimir_search(alg, args.max_weight, args.euler_cap)
        report.add_row("casimirs", args.max_weight, 0, len(basis))
        report.summary = {"casimir_basis": sorted(repr(p) for p in basis)}
    return report


def _at_least(minimum: int):
    """argparse type for a count: an int no smaller than minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rinehart",
        description="Exact homological computations for Lie-Rinehart presentations",
    )
    parser.add_argument("--algebra", help="builtin name, e.g. weyl(1), lie(sl2), "
                                          "semidirect(sl2,std), arrangement(x,y-x,y+x)")
    parser.add_argument("--spec-file", help="JSON presentation file")
    parser.add_argument("--out", choices=["json", "csv"], default="json")
    parser.add_argument("--seed", type=int, default=0)
    count = _at_least(0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="axioms and the adjoint-complex square")
    p.add_argument("--ruth-cap", type=count, default=3)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("poisson-cohomology")
    p.add_argument("--max-weight", type=int, default=6)
    p.add_argument("--max-degree", type=count, default=2)
    p.set_defaults(func=cmd_poisson_cohomology)

    p = sub.add_parser("poisson-homology")
    p.add_argument("--max-weight", type=int, default=6)
    p.set_defaults(func=cmd_poisson_homology)

    p = sub.add_parser("cyclic")
    p.add_argument("--max-weight", type=int, default=6)
    p.add_argument("--u-cap", type=int, default=3)
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("center")
    p.add_argument("--filtration-cap", type=count, default=2)
    p.add_argument("--max-weight", type=int, default=4)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("ce")
    p.add_argument("--module", choices=["trivial", "sym-adjoint"], default="trivial")
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-degree", type=count, default=3)
    p.set_defaults(func=cmd_ce)

    p = sub.add_parser("verify")
    p.add_argument("suite", choices=["quasi", "pbw", "tower", "eta", "euler"])
    p.add_argument("--samples", type=_at_least(1), default=50)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-degree", type=count, default=3)
    p.add_argument("--euler", default="E")
    p.add_argument("--euler-cap", type=count, default=2)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (SpecFileError, PresentationError, PolyParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.out))
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
