import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from rinehart import presets, quasimod
from rinehart.cochain import CapExceededError, cochain_equal, zero_cochain
from rinehart.lie_rinehart import Connection, bracket_extend, seeded_check
from rinehart.linalg import ComplexSlice, assemble, assemble_slice, cohomology_dims
from rinehart.poisson import Multivector, SymAlgebra, poisson_cohomology, poisson_differential
from rinehart.poly import (Polynomial, alternating_value, ce_terms, insert_leg, leg_basis,
                           parse_poly, sort_with_sign)
from rinehart.quasimod import (
    LinearCECochain,
    NLCochainElement,
    _rand_lelement,
    _rand_poly,
    adj_delta,
    adj_lie,
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
from test_poisson import reference_summed, reference_symbol_bracket

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


def rand_poly(rng, vars, terms=2):
    p = Polynomial.zero(vars)
    for _ in range(terms):
        exp = tuple(rng.randint(0, 1) for _ in vars)
        p = p + Polynomial.monomial(vars, exp, rng.choice([-2, -1, 1, 2]))
    return p


def rand_adjoint_mv(rng, P, k):
    """Base-direction legs, each leg set with a multi-term symbol coefficient."""
    return Multivector(P, k, {legs: rand_poly(rng, P.vars)
                              for legs in itertools.combinations(range(P.n), k)
                              if rng.random() < 0.8})


def random_connection(rng, alg):
    def rl():
        return alg.element([
            Polynomial.monomial(alg.vars, tuple(rng.randint(0, 1) for _ in alg.vars),
                                rng.choice([-1, 1]))
            for _ in range(alg.rank)
        ])

    return Connection(alg, [[rl() for _ in range(alg.rank)] for _ in range(len(alg.vars))])


BUILTINS = ["weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)",
            "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"]


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
    inst = inst._replace(h=lambda r, X, v: Multivector(P, max(v.degree - 1, 0)))
    rep = quasi_axiom_check(inst, alg, trials=60, seed=7)
    assert not rep.ok
    assert any("scaled action homotopy" in f for f in rep.failures)
    # the first failing trial names itself and its seed, and replays from them
    assert rep.failures[0].startswith("trial 4, seed=7: ") and rep.trials == 5
    assert quasi_axiom_check(inst, alg, trials=5, seed=7).failures[0] == rep.failures[0]


def reference_quasi_axiom_check(inst, alg, trials=100, seed=0):
    """The six laws with every operand built afresh inside its own law, as
    `quasi_axiom_check` ran them before it shared a trial's sub-results."""
    def trial(rng, t):
        degree = rng.choice(inst.degrees)
        m = inst.random_element(rng, degree)
        r = _rand_poly(rng, alg)
        X = _rand_lelement(rng, alg)
        Y = _rand_lelement(rng, alg)

        def law(label, a, b):
            return None if inst.equal(a, b) else f"{label} fails (degree {degree}, r={r}, X={X})"

        return [w for w in (
            law("d o d = 0", inst.d(inst.d(m)), inst.zero(degree + 2)),
            law("d o r = r o d", inst.d(inst.r_act(r, m)), inst.r_act(r, inst.d(m))),
            law("d o lie = lie o d", inst.d(inst.lie(X, m)), inst.lie(X, inst.d(m))),
            law("Leibniz", inst.lie(X, inst.r_act(r, m)),
                inst.r_act(r, inst.lie(X, m)) + inst.r_act(X.anchor_derivation()(r), m)),
            law("scaled action homotopy", inst.lie(X.scale(r), m),
                inst.r_act(r, inst.lie(X, m)) + inst.h(r, X, inst.d(m))
                + inst.d(inst.h(r, X, m))),
            law("homotopy equivariance", inst.lie(Y, inst.h(r, X, m)),
                inst.h(r, X, inst.lie(Y, m)) + inst.h(Y.anchor_derivation()(r), X, m)
                + inst.h(r, bracket_extend(Y, X), m)),
        ) if w]

    return seeded_check(trials, seed, trial)


def mutated(inst, kind):
    """inst with its homotopy zeroed, its lie sign-flipped or its r_act doubled."""
    if kind == "zeroed h":
        return inst._replace(h=lambda r, X, m: inst.h(r, X, m).scale(0))
    if kind == "flipped lie":
        return inst._replace(lie=lambda X, m: inst.lie(X, m).scale(-1))
    if kind == "doubled r_act":
        return inst._replace(r_act=lambda r, m: inst.r_act(r, m).scale(2))
    return inst


@pytest.mark.parametrize("kind", ["correct", "zeroed h", "flipped lie", "doubled r_act"])
@pytest.mark.parametrize("make_inst", [adjoint_instance, hochschild_instance])
@pytest.mark.parametrize("spec,trials", [("weyl(1)", 10), ("semidirect(sl2,std)", 4)])
def test_shared_sub_results_match_the_reference_harness(spec, trials, make_inst, kind):
    alg = presets.builtin(spec)
    inst = mutated(make_inst(alg), kind)
    for seed in (3, 4):
        got = quasi_axiom_check(inst, alg, trials=trials, seed=seed)
        want = reference_quasi_axiom_check(inst, alg, trials=trials, seed=seed)
        assert (got.ok, got.failures, got.trials) == (want.ok, want.failures, want.trials)
        assert got.ok == (kind == "correct")


def test_adjoint_homotopy_example():
    # one leg, constant coefficient: the homotopy peels the leg and appends
    # the generator symbol
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    v = Multivector(P, 1, {(0,): Polynomial.const(P.vars, 1)})
    out = inst.h(parse_poly(alg.vars, "x"), alg.basis_element(0), v)
    assert out.terms == {(): P.poly("e")}


def test_adjoint_def_htp_hand_value():
    alg = presets.weyl(1)
    inst = adjoint_instance(alg)
    P = inst.sym
    v = Multivector(P, 1, {(0,): Polynomial.const(P.vars, 1)})  # d/dx
    X = alg.basis_element(0)
    rX = X.scale(parse_poly(alg.vars, "x"))
    lhs = inst.lie(rX, v)
    assert lhs.terms == {(0,): Polynomial.const(P.vars, -1)}
    rhs = inst.r_act(parse_poly(alg.vars, "x"), inst.lie(X, v)) + inst.h(
        parse_poly(alg.vars, "x"), X, inst.d(v)
    ) + inst.d(inst.h(parse_poly(alg.vars, "x"), X, v))
    assert inst.equal(lhs, rhs)


def test_hochschild_operator_examples():
    from rinehart.cochain import TableCochain, hochschild_b, homotopy, lie_action

    alg = presets.weyl(1)
    inst = hochschild_instance(alg)
    U = inst.uea
    u0 = U.scalar(parse_poly(U.alg.vars, "x")) * U.generator(0)
    phi = TableCochain(U, 0, lambda exps: u0)
    b0 = hochschild_b(phi)
    r1 = parse_poly(alg.vars, "x^2")
    assert b0.eval_monos(((2,),)) == U.scalar(r1) * u0 - u0 * U.scalar(r1)
    # arity-one homotopy: insert and right-multiply
    psi = TableCochain(U, 1, lambda exps: U.generator(0))
    e = alg.basis_element(0)
    h = homotopy(parse_poly(alg.vars, "x"), e, psi)
    assert h.arity == 0
    assert h.eval_monos(()) == U.generator(0) * U.generator(0)
    # corrected module action: commutator minus the anchor on arguments
    act = lie_action(e, psi)
    assert act.eval_monos(((1,),)) == \
        U.generator(0).commutator(U.generator(0)) - psi.eval_monos(((0,),))


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
    el.tables[0][target] = el.tables[0][target] + Multivector(
        P, 0, {(): Polynomial.const(P.vars, 1)})
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
    el = linear_to_nonlinear(c, cap=0)
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
    # the section takes no connection; drawing one only shifts the later draws
    if conn_kind == "random":
        random_connection(rng, alg)
    for k in range(0, 3):
        c = rand_linear(rng, inst, alg, k)
        el = linear_to_nonlinear(c, cap=2)
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
    el = linear_to_nonlinear(LinearCECochain(inst, alg, 1, tables), cap=2)
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
        lhs = linear_to_nonlinear(linear_structure_operator(c, conn), cap=1)
        rhs = nl_ce_apply(linear_to_nonlinear(c, cap=2), out_cap=1)
        assert nl_equal_on_basis(lhs, rhs, alg)


@pytest.mark.parametrize("random_conn", [False, True])
@pytest.mark.parametrize("name", BUILTINS)
def test_linear_structure_operator_squares_to_zero(name, random_conn):
    # the curvature correction of an output column with m arguments carries
    # (-1)^(j+l+m); with (-1)^(j+l) the semidirect random case fails
    alg = presets.builtin(name)
    inst = adjoint_instance(alg)
    rng = random.Random(41)
    conn = random_connection(rng, alg) if random_conn else Connection(alg)
    for k in range(0, 3):
        c = rand_linear(rng, inst, alg, k)
        dd = linear_structure_operator(linear_structure_operator(c, conn), conn)
        for table in dd.tables:
            for v in table.values():
                assert v.is_zero()


# -- reference paths: the leg loops the two flat kernels replaced -----------------


def reference_adj_lie(P, X, v):
    """The bracket on coefficients, and [rho(X), d/dx_u] = -sum_w
    d(rho(X) x_w)/dx_u d/dx_w on each leg, one sum per term."""
    xsym = P.element_symbol(X)
    rho = X.anchor_derivation()
    out = Multivector(P, v.degree)
    for legs, c in v.terms.items():
        br = reference_symbol_bracket(P, xsym, c)
        if not br.is_zero():
            out = out + Multivector(P, v.degree, {legs: br})
        for t, u in enumerate(legs):
            for w in range(P.n):
                coeff = -rho.images[w].partial(u)
                new, sign = insert_leg(legs[:t] + legs[t + 1:], w)
                if coeff.is_zero() or not sign:
                    continue
                out = out + Multivector(
                    P, v.degree, {new: (P.lift(coeff) * c).scale(sign * (-1) ** t)}
                )
    return out


def reference_curvature_replace(P, conn, X, Y, v):
    """Replace one base leg at a time by the five-term curvature value."""
    alg = P.alg
    out = Multivector(P, max(v.degree - 1, 0))
    for legs, c in v.terms.items():
        for t, u in enumerate(legs):
            img = conn.basic_curvature(X, Y, alg.coordinate_field(alg.vars[u]))
            if img.is_zero():
                continue
            rest = legs[:t] + legs[t + 1:]
            sign = 1 if t % 2 == 0 else -1
            out = out + Multivector(
                P, v.degree - 1, {rest: (c * P.element_symbol(img)).scale(sign)}
            )
    return out


@pytest.mark.parametrize("name", BUILTINS)
def test_adj_lie_matches_the_reference_leg_loop(name):
    alg = presets.builtin(name)
    P = SymAlgebra(alg)
    rng = random.Random(43)
    for k in range(P.n + 1):
        for _ in range(3):
            v = rand_adjoint_mv(rng, P, k)
            X = alg.element([rand_poly(rng, alg.vars) for _ in range(alg.rank)])
            assert adj_lie(P, X, v) == reference_adj_lie(P, X, v)


@pytest.mark.parametrize("name,random_conn", [(name, False) for name in BUILTINS]
                         + [("weyl(2)", True)])
def test_curvature_correction_matches_the_reference_leg_loop(name, random_conn):
    # a cochain that is zero below its top column k: column k - 1 of its
    # structure operator is the curvature correction alone, with the sign
    # (-1)^(0+1) of the argument pair
    alg = presets.builtin(name)
    rng = random.Random(47)
    conn = random_connection(rng, alg) if random_conn else Connection(alg)
    inst = adjoint_instance(alg)
    P = inst.sym
    nonzero = 0
    for k in range(1, min(2, P.n) + 1):
        v = rand_adjoint_mv(rng, P, k)
        tables = [{T: Multivector(P, i) for T in itertools.combinations(range(alg.rank), k - i)}
                  for i in range(k)] + [{(): v}]
        out = linear_structure_operator(LinearCECochain(inst, alg, k, tables), conn)
        for a, b in itertools.combinations(range(alg.rank), 2):
            want = -reference_curvature_replace(
                P, conn, alg.basis_element(a), alg.basis_element(b), v)
            assert out.tables[k - 1][(a, b)] == want
            nonzero += not want.is_zero()
    assert nonzero or not random_conn


def reference_adj_delta(P, v):
    """The Koszul differential as (legs, Polynomial) pieces: each symbol
    partial times each anchor image, its leg wedged in front."""
    def pieces():
        for legs, c in v.terms.items():
            for a in range(P.d):
                if not (dc := c.partial(P.n + a)):
                    continue
                for u, im in enumerate(P.alg.anchor[a].images):
                    new, sign = insert_leg(legs, u)
                    if im and sign:
                        yield new, (P.lift(im) * dc).scale(sign)

    return reference_summed(Multivector, P, v.degree + 1, pieces())


def reference_replace_legs_and_factors(P, v, leg_map, factor_map):
    """Leg-and-factor replacement as (legs, Polynomial) pieces: the leg u at
    position t replaced by leg_map(u) with the sign (-1)^t, and a symbol
    factor g_a by the symbol of factor_map(a)."""
    def pieces():
        for legs, c in v.terms.items():
            for t, u in enumerate(legs):
                rest = legs[:t] + legs[t + 1:]
                for w, im in enumerate(leg_map(u).images):
                    new, sign = insert_leg(rest, w)
                    if im and sign:
                        yield new, (P.lift(im) * c).scale(sign * (-1) ** t)
            for a in range(P.d):
                sym = P.element_symbol(factor_map(a))
                if sym and (dc := c.partial(P.n + a)):
                    yield legs, dc * sym

    return reference_summed(Multivector, P, v.degree, pieces())


@pytest.mark.parametrize("name", BUILTINS)
def test_adj_delta_matches_the_reference_piece_loop(name):
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(59)
    integral = 0
    for k in range(P.n + 1):
        for _ in range(3):
            v = rand_adjoint_mv(rng, P, k)
            assert adj_delta(P, v) == reference_adj_delta(P, v)
            # halves, alone and in sums that come to integers, times a
            # squared symbol factor, whose partial 2 g makes a half integral:
            # the kernel keeps them exact and stores an integral value as an int
            g = P.generator_symbol(rng.randrange(P.d))
            H = (v.scale(Fraction(1, 2))
                 + rand_adjoint_mv(rng, P, k).scale(Fraction(3, 2))).scale(g * g)
            got = adj_delta(P, H)
            assert got == reference_adj_delta(P, H)
            assert all(type(c) is int for c in got.flat.values() if c.denominator == 1)
            integral += sum(type(c) is int for c in got.flat.values())
    # a Lie algebra has no base legs, so its Koszul differential is zero
    assert integral or not P.n


@pytest.mark.parametrize("name", BUILTINS)
def test_replace_legs_and_factors_matches_the_reference_piece_loop(name):
    alg = presets.builtin(name)
    P = SymAlgebra(alg)
    rng = random.Random(67)
    conn = random_connection(rng, alg)
    for k in range(P.n + 1):
        v = rand_adjoint_mv(rng, P, k)
        X = alg.element([rand_poly(rng, alg.vars) for _ in range(alg.rank)])
        maps = (lambda u: conn.basic_der(X, alg.coordinate_field(alg.vars[u])),
                lambda a: conn.basic_l(X, alg.basis_element(a)))
        assert (quasimod.replace_legs_and_factors(P, v, *maps)
                == reference_replace_legs_and_factors(P, v, *maps))


@pytest.mark.parametrize("name", BUILTINS)
def test_each_generator_image_is_asked_once_and_only_where_v_has_it(name, monkeypatch):
    alg = presets.builtin(name)
    P = SymAlgebra(alg)
    rng = random.Random(71)
    conn = random_connection(rng, alg)
    derive, missing, calls = Multivector.derive, Counter(), []

    def counted(v, degree, coordinate_image, leg_image):
        asked = Counter()

        def coordinate(a):
            asked["x", a] += 1
            return coordinate_image(a)

        def leg(u):
            asked["leg", u] += 1
            return leg_image(u)

        out = derive(v, degree, coordinate, leg)
        coordinates = {a for _, exp in v.flat for a, e in enumerate(exp) if e}
        legs = {u for legs, _ in v.flat for u in legs}
        assert set(asked.values()) <= {1}
        assert {a for kind, a in asked if kind == "x"} == coordinates
        assert {u for kind, u in asked if kind == "leg"} == legs
        missing.update(x=P.N - len(coordinates), leg=P.n - len(legs))
        calls.append(degree)
        return out

    monkeypatch.setattr(Multivector, "derive", counted)
    for k in range(P.n + 1):
        for _ in range(2):
            v = rand_adjoint_mv(rng, P, k)
            X = alg.element([rand_poly(rng, alg.vars) for _ in range(alg.rank)])
            adj_delta(P, v)
            adj_lie(P, X, v)
            quasimod.adj_nabla_b(P, conn, X, v)
    assert len(calls) == 6 * (P.n + 1)
    # some draws lack a coordinate and, with base legs, some lack a leg
    assert missing["x"] and (missing["leg"] or not P.n)


# -- honest CE cohomology ---------------------------------------------------------


def test_ce_sl2_trivial_module():
    table = ce_cohomology(presets.lie("sl2"), "trivial", 0, 3)
    assert [table.get((0, m), 0) for m in range(4)] == [1, 0, 0, 1]


def test_ce_sl2_sym_adjoint_casimir_row():
    table = ce_cohomology(presets.lie("sl2"), "sym_adjoint_lie", 4, 3)
    assert [table.get((q, 0), 0) for q in range(5)] == [1, 0, 1, 0, 1]


@pytest.mark.parametrize("spec", ["lie(sl2)", "lie(abelian2)"])
def test_ce_matches_poisson_for_sl2(spec):
    sym = ce_cohomology(presets.builtin(spec), "sym_adjoint_lie", 4, 3)
    pois = poisson_cohomology(presets.builtin(spec), 4, 3)
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


def reference_matrix_module(alg, actions):
    """The matrix-module CE cohomology on Fraction vectors, with its own
    basis, alternating lookup and image: the path before the module became
    one `_ce_slice` of linear forms."""
    if alg.vars:
        raise ValueError("matrix modules require a constants base")
    d = alg.rank
    dim = len(actions[0]) if actions else 0
    mats = [
        {(i, j): Fraction(c) for i, row in enumerate(m) for j, c in enumerate(row) if c}
        for m in actions
    ]

    def act(k, vec):
        out = [Fraction(0)] * dim
        for (i, j), c in mats[k].items():
            if vec[j]:
                out[i] += c * vec[j]
        return out

    for i, j in itertools.combinations(range(d), 2):
        for col in range(dim):
            vec = [Fraction(0)] * dim
            vec[col] = Fraction(1)
            lhs = [a - b for a, b in zip(act(i, act(j, vec)), act(j, act(i, vec)))]
            rhs = [Fraction(0)] * dim
            for k, c in enumerate(alg.structure_vector(i, j)):
                cv = c.constant_value()
                if cv:
                    rhs = [r + cv * v for r, v in zip(rhs, act(k, vec))]
            if lhs != rhs:
                raise ValueError(
                    f"matrices do not represent the bracket on generators ({i}, {j})"
                )

    def basis_at(m):
        return [(T, t) for T in itertools.combinations(range(d), m) for t in range(dim)]

    def eval_cochain(table, args_idx):
        key, sign = sort_with_sign(args_idx)
        vec = table.get(key) if sign else None
        return [sign * c for c in vec] if vec is not None else [Fraction(0)] * dim

    def image(key):
        T, t = key
        vec = [Fraction(0)] * dim
        vec[t] = Fraction(1)
        table = {T: vec}

        def acted(k, rest):
            v = eval_cochain(table, rest)
            return act(k, v) if any(v) else None

        def bracketed(a, b, rest):
            out = [Fraction(0)] * dim
            for kk, c in enumerate(alg.structure_vector(a, b)):
                if cv := c.constant_value():
                    v = eval_cochain(table, (kk,) + rest)
                    out = [o + cv * x for o, x in zip(out, v)]
            return out

        for S in itertools.combinations(range(d), len(T) + 1):
            out = [Fraction(0)] * dim
            for sgn, term in ce_terms(S, acted, bracketed):
                out = [o + sgn * x for o, x in zip(out, term)]
            for comp, val in enumerate(out):
                yield (S, comp), val

    bases = [basis_at(m) for m in range(d + 1)]
    diffs = [assemble(bases[m], image, bases[m + 1])[0] for m in range(d)]
    return cohomology_dims(ComplexSlice([len(b) for b in bases], diffs))


def _adjoint_matrices(alg):
    # ad(e_i) sends e_j to [e_i, e_j] = sum_k c_ij^k e_k
    return [[[alg.structure_vector(i, j)[k].constant_value() for j in range(alg.rank)]
             for k in range(alg.rank)] for i in range(alg.rank)]


@pytest.mark.parametrize("spec,actions,dims", [
    ("lie(sl2)", [[[0]], [[0]], [[0]]], [1, 0, 0, 1]),
    ("lie(sl2)", [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]], [0, 0, 0, 0]),
    ("lie(sl2)", "adjoint", [0, 0, 0, 0]),
    ("lie(abelian2)", [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [2, 4, 2]),
    ("lie(abelian2)", [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], [1, 2, 1]),
    ("lie(abelian2)", [[[0, 1], [0, 0]], [[1, 0], [0, 1]]], [0, 0, 0]),
], ids=["sl2-trivial", "sl2-standard", "sl2-adjoint", "abelian2-zero", "abelian2-jordan",
        "abelian2-jordan-identity"])
def test_ce_matrix_module_matches_the_reference(spec, actions, dims):
    alg = presets.builtin(spec)
    if actions == "adjoint":
        actions = _adjoint_matrices(alg)
    assert reference_matrix_module(alg, actions) == dims
    assert ce_cohomology_matrix_module(alg, actions) == dims


def reference_ce_image(alg, value_vars, lie_images):
    """The CE slice image by the full CE sum: `ce_terms` over every
    (|T|+1)-subset S of the generators, each value looked up by
    `alternating_value`; the reference for `_ce_slice`, which visits only
    the sets a basis cochain reaches."""
    d = alg.rank
    # every nonzero structure coefficient c^k_ab, a < b, lifted to the values once
    pad = (0,) * (len(value_vars) - len(alg.vars))
    structure = {(a, b): [(k, Polynomial._of(value_vars, {e + pad: v for e, v in c.terms.items()}))
                          for k, c in enumerate(alg.structure_vector(a, b)) if c]
                 for a, b in itertools.combinations(range(d), 2)}

    def image(key):
        T, exp = key
        table = {T: Polynomial.monomial(value_vars, exp, 1)}

        def act(k, rest):
            v = alternating_value(table, rest)
            return None if v is None else lie_images[k](v)

        def bracketed(a, b, rest):
            total = None
            for kk, c in structure[a, b]:
                if (v := alternating_value(table, (kk,) + rest)) is not None:
                    term = c * v
                    total = term if total is None else total + term
            return total

        for S in itertools.combinations(range(d), len(T) + 1):
            total = Polynomial.zero(value_vars)
            for sign, term in ce_terms(S, act, bracketed):
                total = total + (term if sign == 1 else -term)
            for texp, coeff in total.terms.items():
                yield (S, texp), coeff

    return image


def _checked_ce_slices(monkeypatch):
    """Compare every slice `_ce_slice` builds, entry by entry, with the slice
    assembled from `reference_ce_image` on the same basis; the list of the
    compared slices fills up as they are built."""
    fast, seen = quasimod._ce_slice, []

    def checked(alg, value_vars, lie_images, W, max_position, value_weights, gen_w, wbr):
        got = fast(alg, value_vars, lie_images, W, max_position, value_weights, gen_w, wbr)
        bases = [leg_basis(gen_w, value_weights, m, W + m * wbr) for m in range(max_position + 1)]
        want = assemble_slice(bases, reference_ce_image(alg, value_vars, lie_images))
        assert got.sizes == want.sizes
        assert [m.entries for m in got.diffs] == [m.entries for m in want.diffs], (W, value_vars)
        seen.append(got)
        return got

    monkeypatch.setattr(quasimod, "_ce_slice", checked)
    return seen


@pytest.mark.parametrize("spec, module, max_weight", [
    ("lie(sl2)", "sym_adjoint_lie", 10), ("semidirect(sl2,std)", "trivial", 6)])
def test_ce_slice_applies_each_action_once(monkeypatch, spec, module, max_weight):
    # every basis cochain on T runs the plan of T, but each slice's memo
    # builds it once, and only that build reads the derivation images of the
    # generators k that act on T, each once
    alg = presets.builtin(spec)
    apply, fast = quasimod._apply_plan, quasimod._ce_slice
    builds, runs, reading, watching = Counter(), Counter(), [], {}

    class Watched:
        def __init__(self, k, derivation):
            self.k, self.derivation = k, derivation

        @property
        def images(self):
            assert reading, "an image is read outside a plan build"
            reading[-1].append(self.k)
            return self.derivation.images

    def watched_slice(alg, value_vars, lie_images, *rest):
        return fast(alg, value_vars, [Watched(k, D) for k, D in enumerate(lie_images)], *rest)

    def counted_apply(plans, build, flat, *context):
        if build not in watching:
            def watched_build(*args):
                T = args[-1]
                builds[build, T] += 1
                reading.append([])
                plan = build(*args)
                assert reading.pop() == [k for k in range(alg.rank) if k not in T]
                return plan
            watching[build] = watched_build
        runs[build] += len(flat)
        return apply(plans, watching[build], flat, *context)

    monkeypatch.setattr(quasimod, "_ce_slice", watched_slice)
    monkeypatch.setattr(quasimod, "_apply_plan", counted_apply)
    ce_cohomology(alg, module, max_weight, 3)
    assert builds and set(builds.values()) == {1}
    # one memo per slice, and many basis cochains per plan
    assert len(runs) == len({build for build, _ in builds}) > 1
    assert sum(runs.values()) > 2 * len(builds)


@pytest.mark.parametrize("spec, module, max_weight", [
    (spec, "trivial", 4) for spec in ["weyl(1)", "weyl(2)", "lie(sl2)", "lie(abelian2)",
                                      "semidirect(sl2,std)", "arrangement(x,y,y-x,y+x)",
                                      "arrangement(x,y-x,y+x)"]
] + [("lie(sl2)", "sym_adjoint_lie", 8), ("lie(abelian2)", "sym_adjoint_lie", 4)])
def test_ce_slice_matches_the_reference_image(monkeypatch, spec, module, max_weight):
    alg = presets.builtin(spec)
    seen = _checked_ce_slices(monkeypatch)
    ce_cohomology(alg, module, max_weight, alg.rank)
    # an abelian Lie algebra acts by zero on both modules
    assert seen and any(m.entries for piece in seen for m in piece.diffs) == (spec != "lie(abelian2)")


def test_matrix_module_ce_slice_matches_the_reference_image(monkeypatch):
    seen = _checked_ce_slices(monkeypatch)
    standard = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
    assert ce_cohomology_matrix_module(presets.lie("sl2"), standard) == [0, 0, 0, 0]
    assert len(seen) == 1 and all(m.entries for m in seen[0].diffs)


@pytest.mark.parametrize("actions", [
    [[[0, 1], [0, 0]]],
    [[[0]], [[0]], [[0]], [[0]]],
    [[[0], [0]], [[0], [0]], [[0], [0]]],
    [],
], ids=["one-matrix", "four-matrices", "not-square", "none"])
def test_ce_matrix_module_rejects_a_wrong_shape(actions):
    with pytest.raises(ValueError, match=r"expected 3 matrices of shape n x n"):
        ce_cohomology_matrix_module(presets.lie("sl2"), actions)
