"""Acceptance gate: every criterion at its stated tolerance, one line each.

All values are exact integers; the only tolerances are the two wall-clock
bounds on the Weyl tables.  Run with -s to see the PASS lines.
"""
import itertools
import random
import time

import pytest

from rinehart import presets
from rinehart.cli import main as cli_main
from rinehart.cochain import cochain_equal
from rinehart.homology import (
    capped_casimir_search,
    cyclic_homology,
    euler_contraction_check,
    poisson_boundary,
    poisson_homology,
)
from rinehart.lie_rinehart import Connection, check_axioms
from rinehart.pbwext import (
    EtaContext,
    verify_eta_properties,
    verify_f_identities,
    verify_identity_tower,
    verify_pbw_chain,
)
from rinehart.poisson import Multivector, SymAlgebra, poisson_cohomology, poisson_differential
from rinehart.poly import Polynomial
from rinehart.quasimod import (
    adjoint_instance,
    ce_cohomology,
    hochschild_instance,
    multivector_to_nl,
    nl_ce_apply,
    nl_to_multivector,
    quasi_axiom_check,
    ruth_check,
)
from test_homology import kahler_d

BUILTINS = [
    ("weyl(1)", lambda: presets.weyl(1)),
    ("weyl(2)", lambda: presets.weyl(2)),
    ("lie(sl2)", lambda: presets.lie("sl2")),
    ("semidirect(sl2,std)", lambda: presets.semidirect_sl2()),
    ("arrangement(3)", lambda: presets.arrangement(["x", "y-x", "y+x"])),
    ("arrangement(4)", lambda: presets.arrangement(["x", "y", "y-x", "y+x"])),
]


def report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def totals_by_degree(table):
    out = {}
    for (_, k), dim in table.items():
        out[k] = out.get(k, 0) + dim
    return out


def test_criterion_1_weyl_cohomology():
    t0 = time.time()
    table1 = poisson_cohomology(presets.weyl(1), 8, 2)
    elapsed1 = time.time() - t0
    ok = table1[(0, 0)] == 1
    ok = ok and totals_by_degree(table1) == {0: 1, 1: 0, 2: 0}
    ok = ok and elapsed1 < 10.0
    table2 = poisson_cohomology(presets.weyl(2), 4, 2)
    ok = ok and totals_by_degree(table2) == {0: 1, 1: 0, 2: 0}
    report(1, "weyl cohomology pattern", ok)


def test_criterion_2_weyl_homology_and_cyclic():
    t0 = time.time()
    hom = poisson_homology(presets.weyl(1), 8)
    cyc, stable = cyclic_homology(presets.weyl(1), 8, 3)
    elapsed = time.time() - t0
    ok = totals_by_degree(hom) == {0: 0, 1: 0, 2: 1}
    ct = totals_by_degree(cyc)
    ok = ok and ct.get(0, 0) == 0 and ct.get(1, 0) == 0 and ct.get(2, 0) == 1
    ok = ok and ct.get(3, 0) == 0 and ct.get(4, 0) == 1
    ok = ok and stable
    ok = ok and elapsed < 30.0
    report(2, "weyl homology and cyclic pattern", ok)


def test_criterion_3_lie_algebra_cross_check():
    alg = presets.lie("sl2")
    pois = poisson_cohomology(alg, 4, 3)
    ce = ce_cohomology(alg, "sym_adjoint_lie", 4, 3)
    ok = True
    for key in sorted(set(pois) | set(ce)):
        ok = ok and pois.get(key, 0) == ce.get(key, 0)
    ok = ok and [pois.get((q, 0), 0) for q in range(5)] == [1, 0, 1, 0, 1]
    report(3, "sl2 poisson vs chevalley-eilenberg entrywise", ok)


def test_criterion_4_center_oracle():
    from rinehart.uea import EnvelopingAlgebra, center_search

    weyl = presets.weyl(1)
    basis_w = center_search(EnvelopingAlgebra(weyl), 4, 6)
    ok = len(basis_w) == 1
    sl2 = presets.lie("sl2")
    basis_s = center_search(EnvelopingAlgebra(sl2), 2, 2)
    ok = ok and len(basis_s) == 2
    # accumulated degree-zero cohomology up to the matching caps
    pois_w = poisson_cohomology(weyl, 6, 0)
    acc_w = sum(dim for (w, k), dim in pois_w.items() if k == 0)
    pois_s = poisson_cohomology(sl2, 2, 0)
    acc_s = sum(dim for (w, k), dim in pois_s.items() if k == 0)
    ok = ok and acc_w == len(basis_w) and acc_s == len(basis_s)
    report(4, "center dimensions match degree-zero cohomology", ok)


@pytest.mark.parametrize("forms", [["x", "y-x", "y+x"], ["x", "y", "y-x", "y+x"]])
def test_criterion_5_line_arrangements(forms):
    alg = presets.arrangement(forms)
    ok = check_axioms(alg).ok
    rep = euler_contraction_check(alg, "E", 4, 4, euler_degree_cap=2)
    ok = ok and rep.ok and rep.trials > 0
    basis = capped_casimir_search(alg, 4, 4)
    ok = ok and len(basis) == 1 and basis[0].total_degree() == 0
    report(5, f"arrangement of {len(forms)} lines", ok)


@pytest.mark.parametrize(
    "name,maker",
    [BUILTINS[0], BUILTINS[2], BUILTINS[3], BUILTINS[5]],
)
def test_criterion_6_quasi_module_suites(name, maker):
    alg = maker()
    ok = quasi_axiom_check(adjoint_instance(alg), alg, trials=100, seed=2026).ok
    ok = ok and quasi_axiom_check(hochschild_instance(alg), alg, trials=100, seed=2026).ok
    report(6, f"quasi-module laws on {name}", ok)


def test_criterion_6_mutation_witness():
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    inst = inst._replace(h=lambda r, X, v: Multivector(P, max(v.degree - 1, 0)))
    rep = quasi_axiom_check(inst, alg, trials=100, seed=2026)
    ok = (not rep.ok) and any("scaled action homotopy" in f for f in rep.failures)
    report(6, "zeroed homotopy is caught with a witness", ok)


@pytest.mark.parametrize("name,maker", BUILTINS)
def test_criterion_7_extended_pbw_suites(name, maker):
    alg = maker()
    ctx = EtaContext(alg)
    ok = verify_pbw_chain(ctx, samples=50, seed=7).ok
    ok = ok and verify_identity_tower(ctx, samples=50, seed=7).ok
    ok = ok and verify_eta_properties(ctx, samples=15, seed=7).ok
    ok = ok and verify_f_identities(ctx, samples=10, seed=7).ok
    report(7, f"extended lift identities on {name}", ok)


def test_criterion_8_structural_invariants():
    rng = random.Random(2026)
    ok = True
    for name, maker in BUILTINS[:1] + BUILTINS[2:4]:
        alg = maker()
        P = SymAlgebra(alg)

        def rand_mv(k):
            terms = {}
            for legs in itertools.combinations(range(P.N), k):
                if rng.random() < 0.7:
                    exp = tuple(rng.randint(0, 1) for _ in range(P.N))
                    terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 2]))
            return Multivector(P, k, terms)

        # differential squares to zero
        for k in range(0, min(3, P.N)):
            ok = ok and poisson_differential(poisson_differential(rand_mv(k))).is_zero()
        # adjoint-complex structure operator squares to zero
        ok = ok and ruth_check(Connection(alg), degree_cap=2, seed=1, samples=2).ok
        # mixed-complex relations
        from rinehart.homology import KahlerForm

        for k in range(0, P.N + 1):
            terms = {}
            for legs in itertools.combinations(range(P.N), k):
                exp = tuple(rng.randint(0, 1) for _ in range(P.N))
                terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-1, 1]))
            w = KahlerForm(P, k, terms)
            ok = ok and kahler_d(kahler_d(w)).is_zero()
            ok = ok and poisson_boundary(poisson_boundary(w)).is_zero()
            ok = ok and (poisson_boundary(kahler_d(w)) + kahler_d(poisson_boundary(w))).is_zero()
        # round trip and differential transport through the nonlinear tables
        inst = adjoint_instance(alg)
        for k in range(0, min(2, P.N) + 1):
            D = rand_mv_restricted(rng, P, k)
            ok = ok and nl_to_multivector(multivector_to_nl(inst, D, cap=1)) == D
            el = multivector_to_nl(inst, D, cap=3)
            lhs = multivector_to_nl(inst, poisson_differential(D), cap=1)
            rhs = nl_ce_apply(el, out_cap=1)
            ok = ok and nl_equal_on_basis(lhs, rhs, alg)
        # square of the total nonlinear differential
        D = rand_mv_restricted(rng, P, 0)
        el = multivector_to_nl(inst, D, cap=4)
        twice = nl_ce_apply(nl_ce_apply(el, out_cap=2), out_cap=1)
        for i, table in enumerate(twice.tables):
            for v in table.values():
                ok = ok and inst.equal(v, inst.zero(i))
    report(8, "structural invariants", ok)


def rand_mv_restricted(rng, P, k):
    terms = {}
    for legs in itertools.combinations(range(P.N), k):
        if rng.random() < 0.7:
            exp = tuple(rng.randint(0, 1) for _ in range(P.N))
            terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-1, 1]))
    return Multivector(P, k, terms)


def nl_equal_on_basis(a, b, alg):
    zero_mono = tuple(0 for _ in alg.vars)
    for i in range(a.degree + 1):
        for gens in itertools.combinations(range(alg.rank), a.degree - i):
            largs = tuple((zero_mono, g) for g in gens)
            va = a.tables[i].get(largs) or a.inst.zero(i)
            vb = b.tables[i].get(largs) or b.inst.zero(i)
            if not a.inst.equal(va, vb):
                return False
    return True


def test_criterion_9_deterministic_reports(capsys):
    argv = ["--algebra", "weyl(1)", "--seed", "11", "verify", "pbw", "--samples", "15"]
    outputs = []
    for _ in range(2):
        code = cli_main(argv)
        outputs.append(capsys.readouterr().out)
        assert code == 0
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(9, "byte-identical reports under a fixed seed", ok)
