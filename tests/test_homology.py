import itertools
import random

import pytest
from fractions import Fraction

from rinehart import presets
from rinehart.homology import (
    KahlerForm,
    capped_casimir_search,
    contract_bivector,
    cyclic_homology,
    duality_cap,
    duality_cap_rank_check,
    euler_contraction_check,
    euler_insertion,
    homology_totals,
    kahler_d,
    poisson_boundary,
    poisson_homology,
)
from rinehart.poisson import Multivector, SymAlgebra, poisson_differential
from rinehart.poly import Polynomial


def rand_form(rng, P, k, max_deg=2):
    terms = {}
    for legs in itertools.combinations(range(P.N), k):
        if rng.random() < 0.7:
            exp = tuple(rng.randint(0, max_deg) for _ in range(P.N))
            terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 2]))
    return KahlerForm(P, k, terms)


ALGEBRAS = [
    ("weyl1", lambda: presets.weyl(1)),
    ("sl2", lambda: presets.lie("sl2")),
    ("semidirect", lambda: presets.semidirect_sl2()),
    ("arr4", lambda: presets.arrangement(["x", "y", "y-x", "y+x"])),
]


def test_kahler_differential_of_function():
    P = SymAlgebra(presets.weyl(1))
    w = kahler_d(KahlerForm.function(P, P.poly("x*e")))
    assert w.terms == {(0,): P.poly("e"), (1,): P.poly("x")}


def test_contraction_of_top_form_weyl():
    P = SymAlgebra(presets.weyl(1))
    top = KahlerForm(P, 2, {(0, 1): Polynomial.const(P.vars, 1)})
    c = contract_bivector(top)
    assert c.degree == 0 and not c.is_zero()
    assert c.terms[()].is_constant()


def test_boundary_two_ways_agree():
    P = SymAlgebra(presets.weyl(1))
    w = KahlerForm(P, 1, {(1,): P.coordinate(0)})  # x d(e)
    direct = poisson_boundary(w)
    expanded = contract_bivector(kahler_d(w))  # second term vanishes on 1-forms
    assert direct == expanded


@pytest.mark.parametrize("name,maker", ALGEBRAS)
def test_mixed_complex_relations(name, maker):
    P = SymAlgebra(maker())
    rng = random.Random(3)
    for k in range(0, P.N + 1):
        for _ in range(3):
            w = rand_form(rng, P, k)
            assert kahler_d(kahler_d(w)).is_zero()
            assert poisson_boundary(poisson_boundary(w)).is_zero()
            anti = poisson_boundary(kahler_d(w)) + kahler_d(poisson_boundary(w))
            assert anti.is_zero()


def test_weyl_homology_totals():
    table = poisson_homology(presets.weyl(1), 8)
    assert homology_totals(table) == {0: 0, 1: 0, 2: 1}


def test_abelian_zero_boundary():
    A = SymAlgebra(presets.lie("abelian2"))
    rng = random.Random(5)
    for k in range(0, 3):
        assert poisson_boundary(rand_form(rng, A, k)).is_zero()
    table = poisson_homology(presets.lie("abelian2"), 2)
    # every form in range survives: degree k dimension = C(2,k) * dim Sym^*
    assert table[(2, 1)] == 2 * 2  # two legs, coefficient degree 1 each


def test_weyl_cyclic_with_stabilization():
    table, stable = cyclic_homology(presets.weyl(1), 8, 3)
    assert stable
    totals = {}
    for (lam, t), dim in table.items():
        totals[t] = totals.get(t, 0) + dim
    assert totals.get(0, 0) == 0
    assert totals.get(1, 0) == 0
    assert totals.get(2, 0) == 1
    assert totals.get(3, 0) == 0
    assert totals.get(4, 0) == 1


def test_duality_cap_examples():
    P = SymAlgebra(presets.weyl(1))
    full = duality_cap(Multivector(P, 2, {(0, 1): Polynomial.const(P.vars, 1)}))
    assert full.degree == 0 and full.terms[()].is_constant()
    f = P.poly("x^2")
    capped = duality_cap(Multivector.function(P, f))
    assert capped.terms == {(0, 1): f}


def test_duality_cap_bijective_on_slices():
    for weight, degree in [(2, 0), (2, 1), (3, 2)]:
        rank, dim = duality_cap_rank_check(presets.weyl(1), weight, degree)
        assert rank == dim and dim > 0


def test_duality_cap_transport_experiment():
    # recorded experiment: whether the cap intertwines the differential with
    # the boundary up to sign; not asserted as an invariant, only that the
    # cap itself is exact (bijectivity is covered above)
    P = SymAlgebra(presets.weyl(1))
    rng = random.Random(7)
    mismatches = 0
    for _ in range(4):
        terms = {}
        for legs in itertools.combinations(range(P.N), 1):
            exp = tuple(rng.randint(0, 2) for _ in range(P.N))
            terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-1, 1]))
        D = Multivector(P, 1, terms)
        lhs = duality_cap(poisson_differential(D))
        rhs = poisson_boundary(duality_cap(D))
        if lhs != rhs and lhs != -rhs:
            mismatches += 1
    assert mismatches >= 0  # informational only


@pytest.mark.parametrize(
    "forms,expected_weight",
    [(["x", "y-x", "y+x"], 1), (["x", "y", "y-x", "y+x"], 2)],
)
def test_euler_contraction_arrangements(forms, expected_weight):
    alg = presets.arrangement(forms)
    assert alg.weights["D"] == expected_weight
    rep = euler_contraction_check(alg, "E", 4, 4, euler_degree_cap=2)
    assert rep.ok and rep.checked > 100


def test_euler_contraction_weyl_symplectic():
    rep = euler_contraction_check(presets.weyl(1), "x*e", 4, 2)
    assert rep.ok


def test_euler_contraction_rejects_non_diagonal():
    # a mathematical failure: a failed check with the witness, not an error
    rep = euler_contraction_check(presets.weyl(1), "x^2*e", 2, 1)
    assert not rep.ok and rep.checked == 0
    assert len(rep.failures) == 1 and "not a multiple" in rep.failures[0]


def test_euler_insertion_is_interior_product():
    P = SymAlgebra(presets.arrangement(["x", "y-x", "y+x"]))
    E = P.poly("E")
    idx = P.vars.index("E")
    D = Multivector(P, 2, {(0, idx): Polynomial.const(P.vars, 1)})
    ins = euler_insertion(D, E)
    # inserting E into d/dx ^ d/dE picks out the E-leg with a sign
    assert ins.terms == {(0,): Polynomial.const(P.vars, -1)}


@pytest.mark.parametrize("forms", [["x", "y-x", "y+x"], ["x", "y", "y-x", "y+x"]])
def test_capped_casimir_search_arrangements(forms):
    basis = capped_casimir_search(presets.arrangement(forms), 4, 4)
    assert len(basis) == 1
    assert basis[0].is_constant()


def test_capped_casimir_search_weyl():
    basis = capped_casimir_search(presets.weyl(1), 6, 4)
    assert len(basis) == 1 and basis[0].is_constant()
