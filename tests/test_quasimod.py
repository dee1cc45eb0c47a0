import itertools
import math
import random

import pytest

from rinehart import presets
from rinehart.cochain import CapExceededError, cochain_equal, zero_cochain
from rinehart.lie_rinehart import Connection
from rinehart.poisson import Multivector, SymAlgebra, poisson_cohomology, poisson_differential
from rinehart.poly import Polynomial
from rinehart.quasimod import (
    LinearCECochain,
    NLCochainElement,
    adjoint_instance,
    ce_cohomology,
    ce_cohomology_matrix_module,
    hochschild_instance,
    linear_structure_operator,
    linear_to_nonlinear,
    multivector_to_nl,
    nl_ce_apply,
    nl_membership,
    nl_to_multivector,
    nonlinear_to_linear,
    quasi_axiom_check,
)

ALGEBRAS = [
    ("weyl1", lambda: presets.weyl(1)),
    ("sl2", lambda: presets.lie("sl2")),
    ("semidirect", lambda: presets.semidirect_sl2()),
    ("arr4", lambda: presets.arrangement(["x", "y", "y-x", "y+x"])),
]


def rand_mv(rng, P, k, max_entry=1):
    terms = {}
    for legs in itertools.combinations(range(P.N), k):
        if rng.random() < 0.7:
            exp = tuple(rng.randint(0, max_entry) for _ in range(P.N))
            terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 2]))
    return Multivector(P, k, terms)


def rand_linear(rng, inst, alg, k):
    P = inst.sym
    tables = []
    for i in range(k + 1):
        table = {}
        for T in itertools.combinations(range(alg.rank), k - i):
            terms = {}
            for legs in itertools.combinations(range(P.n), i):
                if rng.random() < 0.8:
                    exp = tuple(rng.randint(0, 1) for _ in range(P.N))
                    terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 2]))
            table[T] = Multivector(P, i, terms)
        tables.append(table)
    return LinearCECochain(inst, alg, k, tables)


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


# -- the instance laws -------------------------------------------------------


@pytest.mark.parametrize("name,maker", ALGEBRAS)
def test_adjoint_instance_laws(name, maker):
    alg = maker()
    assert quasi_axiom_check(adjoint_instance(alg), alg, trials=30, seed=11).ok


@pytest.mark.parametrize("name,maker", ALGEBRAS)
def test_hochschild_instance_laws(name, maker):
    alg = maker()
    assert quasi_axiom_check(hochschild_instance(alg), alg, trials=12, seed=11).ok


def test_zeroed_homotopy_fails_with_witness():
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    inst.h = lambda r, X, v: Multivector(P, max(v.degree - 1, 0))
    rep = quasi_axiom_check(inst, alg, trials=60, seed=7)
    assert not rep.ok
    assert any("scaled action homotopy" in f for f in rep.failures)


def test_adjoint_homotopy_example():
    # one leg, constant coefficient: the homotopy peels the leg and appends
    # the generator symbol
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    v = Multivector(P, 1, {(0,): Polynomial.const(P.vars, 1)})
    out = inst.h(alg.poly("x"), alg.basis_element(0), v)
    assert out.terms == {(): P.poly("e")}


def test_adjoint_def_htp_hand_value():
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    v = Multivector(P, 1, {(0,): Polynomial.const(P.vars, 1)})  # d/dx
    X = alg.basis_element(0)
    rX = X.scale(alg.poly("x"))
    lhs = inst.lie(rX, v)
    assert lhs.terms == {(0,): Polynomial.const(P.vars, -1)}
    rhs = inst.r_act(alg.poly("x"), inst.lie(X, v)) + inst.h(
        alg.poly("x"), X, inst.d(v)
    ) + inst.d(inst.h(alg.poly("x"), X, v))
    assert inst.equal(lhs, rhs)


def test_hochschild_operator_examples():
    from rinehart.cochain import TableCochain, hochschild_b, homotopy, lie_action

    alg = presets.weyl(1)
    inst = hochschild_instance(alg)
    U = inst.uea
    u0 = U.scalar("x") * U.generator(0)
    phi = TableCochain.constant(U, u0)
    b0 = hochschild_b(phi)
    r1 = alg.poly("x^2")
    assert b0(r1) == U.scalar(r1) * u0 - u0 * U.scalar(r1)
    # arity-one homotopy: insert and right-multiply
    psi = TableCochain(U, 1, lambda exps: U.generator(0), cap=None)
    e = alg.basis_element(0)
    h = homotopy(alg.poly("x"), e, psi)
    assert h.arity == 0
    assert h() == U.generator(0) * U.generator(0)
    # corrected module action: commutator minus the anchor on arguments
    act = lie_action(e, psi)
    assert act(alg.poly("x")) == U.generator(0).commutator(U.generator(0)) - psi(alg.poly("1"))


# -- nonlinear cochains over the adjoint instance ------------------------------


@pytest.mark.parametrize("name,maker", ALGEBRAS[:3])
def test_multivector_transport_membership_roundtrip(name, maker):
    alg = maker()
    inst = adjoint_instance(alg)
    P = inst.sym
    rng = random.Random(13)
    for k in range(0, min(3, P.N)):
        D = rand_mv(rng, P, k)
        el = multivector_to_nl(inst, D, cap=3)
        assert nl_membership(el)
        assert nl_to_multivector(el) == D
        lhs = multivector_to_nl(inst, poisson_differential(D), cap=1)
        rhs = nl_ce_apply(el, out_cap=1)
        assert nl_equal_on_basis(lhs, rhs, alg)


def test_nl_ce_apply_squares_to_zero():
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    rng = random.Random(17)
    for k in range(0, 2):
        D = rand_mv(rng, P, k)
        el = multivector_to_nl(inst, D, cap=4)
        twice = nl_ce_apply(nl_ce_apply(el, out_cap=2), out_cap=1)
        for i, table in enumerate(twice.tables):
            for v in table.values():
                assert inst.equal(v, inst.zero(i))


def test_membership_rejects_tampered_table():
    alg = presets.semidirect_sl2()
    inst = adjoint_instance(alg)
    P = inst.sym
    rng = random.Random(19)
    D = rand_mv(rng, P, 2)
    el = multivector_to_nl(inst, D, cap=2)
    target = None
    for largs in el.tables[0]:
        if any(sum(m) > 0 for m, _ in largs):
            target = largs
            break
    el.tables[0][target] = el.tables[0][target] + Multivector.function(
        P, Polynomial.const(P.vars, 1)
    )
    assert not nl_membership(el)


def test_cap_exhaustion_is_loud():
    alg = presets.semidirect_sl2()
    inst = adjoint_instance(alg)
    P = inst.sym
    rng = random.Random(23)
    D = rand_mv(rng, P, 2)
    el = multivector_to_nl(inst, D, cap=1)
    with pytest.raises(CapExceededError):
        nl_ce_apply(el, out_cap=1)


# -- the comparison map --------------------------------------------------------


def test_linear_to_nonlinear_lie_algebra_is_identity():
    alg = presets.lie("sl2")
    inst = adjoint_instance(alg)
    rng = random.Random(29)
    c = rand_linear(rng, inst, alg, 2)
    el = linear_to_nonlinear(c, Connection(alg), cap=0)
    zero_mono = ()
    for i in range(3):
        for T, v in c.tables[i].items():
            largs = tuple((zero_mono, a) for a in T)
            assert inst.equal(el.tables[i][largs], v)


@pytest.mark.parametrize("conn_kind", ["trivial", "random"])
def test_linear_to_nonlinear_members_and_section(conn_kind):
    alg = presets.semidirect_sl2()
    inst = adjoint_instance(alg)
    rng = random.Random(31)
    if conn_kind == "trivial":
        conn = Connection(alg)
    else:
        def rl():
            return alg.element([
                Polynomial.monomial(alg.vars, tuple(rng.randint(0, 1) for _ in alg.vars),
                                    rng.choice([-1, 1]))
                for _ in range(alg.rank)
            ])
        conn = Connection(alg, [[rl() for _ in range(alg.rank)]
                                for _ in range(len(alg.vars))])
    for k in range(0, 3):
        c = rand_linear(rng, inst, alg, k)
        el = linear_to_nonlinear(c, conn, cap=2)
        assert nl_membership(el)
        back = nonlinear_to_linear(el)
        for i in range(k + 1):
            for T in c.tables[i]:
                assert inst.equal(back.tables[i][T], c.tables[i][T])


def test_linear_to_nonlinear_zero_is_zero():
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    tables = [
        {T: Multivector(P, i)
         for T in itertools.combinations(range(alg.rank), 1 - i)}
        for i in range(2)
    ]
    el = linear_to_nonlinear(LinearCECochain(inst, alg, 1, tables), Connection(alg), cap=2)
    for i, table in enumerate(el.tables):
        for v in table.values():
            assert inst.equal(v, inst.zero(i))


@pytest.mark.parametrize("name,maker", [("weyl1", lambda: presets.weyl(1)),
                                        ("weyl2", lambda: presets.weyl(2)),
                                        ("semi", lambda: presets.semidirect_sl2())])
def test_linear_to_nonlinear_intertwines_default_connection(name, maker):
    alg = maker()
    inst = adjoint_instance(alg)
    conn = Connection(alg)
    rng = random.Random(37)
    for k in range(0, min(2, alg.rank) + 1):
        c = rand_linear(rng, inst, alg, k)
        lhs = linear_to_nonlinear(linear_structure_operator(c, conn), conn, cap=1)
        rhs = nl_ce_apply(linear_to_nonlinear(c, conn, cap=2), out_cap=1)
        assert nl_equal_on_basis(lhs, rhs, alg)


def test_linear_structure_operator_squares_to_zero():
    alg = presets.semidirect_sl2()
    inst = adjoint_instance(alg)
    conn = Connection(alg)
    rng = random.Random(41)
    for k in range(0, 3):
        c = rand_linear(rng, inst, alg, k)
        dd = linear_structure_operator(linear_structure_operator(c, conn), conn)
        for table in dd.tables:
            for v in table.values():
                assert v.is_zero()


# -- honest CE cohomology ---------------------------------------------------------


def test_ce_sl2_trivial_module():
    table = ce_cohomology(presets.lie("sl2"), "trivial", 0, 3)
    assert [table.get((0, m), 0) for m in range(4)] == [1, 0, 0, 1]


def test_ce_sl2_sym_adjoint_casimir_row():
    table = ce_cohomology(presets.lie("sl2"), "sym_adjoint_lie", 4, 3)
    assert [table.get((q, 0), 0) for q in range(5)] == [1, 0, 1, 0, 1]


def test_ce_matches_poisson_for_sl2():
    sym = ce_cohomology(presets.lie("sl2"), "sym_adjoint_lie", 4, 3)
    pois = poisson_cohomology(presets.lie("sl2"), 4, 3)
    for key in sorted(set(sym) | set(pois)):
        assert sym.get(key, 0) == pois.get(key, 0)


def test_ce_abelian_binomials():
    table = ce_cohomology(presets.lie("abelian2"), "sym_adjoint_lie", 3, 2)
    for q in range(3):
        for p in range(3):
            assert table.get((q - p, p), 0) == math.comb(2, p) * (q + 1)


def test_ce_trivial_module_weyl_line():
    table = ce_cohomology(presets.weyl(1), "trivial", 6, 1)
    totals = {}
    for (w, m), dim in table.items():
        totals[m] = totals.get(m, 0) + dim
    assert totals == {0: 1, 1: 0}


def test_ce_matrix_module_standard_rep():
    # H(sl2; V) = 0 for the standard two-dimensional representation
    alg = presets.lie("sl2")
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    assert ce_cohomology_matrix_module(alg, [e, f, h]) == [0, 0, 0, 0]


def test_ce_matrix_module_rejects_wrong_matrices():
    alg = presets.lie("sl2")
    bad = [[0, 1], [0, 0]]
    with pytest.raises(ValueError, match="do not represent"):
        ce_cohomology_matrix_module(alg, [bad, bad, bad])
