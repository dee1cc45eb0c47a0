import itertools
import random

import pytest
from fractions import Fraction

from rinehart import homology, pbwext, poisson, presets, quasimod
from rinehart.homology import (
    KahlerForm,
    capped_casimir_search,
    cyclic_homology,
    duality_cap,
    duality_cap_rank_check,
    euler_contraction_check,
    homology_totals,
    poisson_boundary,
    poisson_homology,
)
from rinehart.linalg import ComplexSlice, assemble, cohomology_dims
from rinehart.poisson import Multivector, SymAlgebra, _apply_plan, poisson_differential
from rinehart.poly import Polynomial, exponents, insert_leg, leg_basis
from test_poisson import reference_summed


def kahler_d(w):
    """The exterior derivative through the plan `homology._d_plan`, the one
    `cyclic` runs."""
    P = w.parent
    return KahlerForm.from_flat(P, w.degree + 1,
                                _apply_plan(P._plans, homology._d_plan, w.flat, P))


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
    w = kahler_d(KahlerForm(P, 0, {(): P.poly("x*e")}))
    assert w.terms == {(0,): P.poly("e"), (1,): P.poly("x")}


def test_contraction_of_top_form_weyl():
    P = SymAlgebra(presets.weyl(1))
    top = KahlerForm(P, 2, {(0, 1): Polynomial.const(P.vars, 1)})
    c = reference_contract(top)
    assert c.degree == 0 and not c.is_zero()
    assert c.terms[()].total_degree() == 0


def test_boundary_two_ways_agree():
    P = SymAlgebra(presets.weyl(1))
    w = KahlerForm(P, 1, {(1,): P.coordinate(0)})  # x d(e)
    direct = poisson_boundary(w)
    expanded = reference_contract(kahler_d(w))  # second term vanishes on 1-forms
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


def recorded_boundary_sources(monkeypatch):
    """The basis form of every poisson_boundary call, in call order."""
    seen = []

    def record(w):
        (key, _), = w.entries()
        seen.append(key)
        return poisson_boundary(w)

    monkeypatch.setattr(homology, "poisson_boundary", record)
    return seen


def test_cyclic_homology_takes_each_boundary_once(monkeypatch):
    # every slice and column that holds a basis form shares its one b block,
    # and no 0-form is a source: its boundary has no rows to go to
    seen = recorded_boundary_sources(monkeypatch)
    table, stable = cyclic_homology(presets.weyl(1), 8, 3)
    assert stable and len(seen) > 100
    assert len(seen) == len(set(seen))
    assert [key for key in seen if not key[0]] == []


def recorded_plan_sources(monkeypatch, build):
    """The key of every one-term input that `homology._apply_plan` runs
    through the plan builder build, in call order."""
    seen = []

    def record(plans, builder, flat, *context):
        if builder is build:
            (key,) = flat
            seen.append(key)
        return _apply_plan(plans, builder, flat, *context)

    monkeypatch.setattr(homology, "_apply_plan", record)
    return seen


def test_poisson_homology_takes_each_boundary_once(monkeypatch):
    # each slice has its own basis forms, and its chain complex stops at
    # degree 1: a 0-form is never a source
    seen = recorded_plan_sources(monkeypatch, homology._boundary_plan)
    table = poisson_homology(presets.weyl(1), 8)
    assert homology_totals(table) == {0: 0, 1: 0, 2: 1} and len(seen) > 100
    assert len(seen) == len(set(seen))
    assert [key for key in seen if not key[0]] == []


def test_duality_cap_examples():
    P = SymAlgebra(presets.weyl(1))
    full = duality_cap(Multivector(P, 2, {(0, 1): Polynomial.const(P.vars, 1)}))
    assert full.degree == 0 and full.terms[()].total_degree() == 0
    f = P.poly("x^2")
    capped = duality_cap(Multivector(P, 0, {(): f}))
    assert capped.terms == {(0, 1): f}


def test_duality_cap_bijective_on_slices():
    for weight, degree in [(2, 0), (2, 1), (3, 2)]:
        rank, dim = duality_cap_rank_check(presets.weyl(1), weight, degree)
        assert rank == dim and dim > 0


def test_duality_cap_intertwines_the_differential_and_the_boundary():
    # on these builtins the modular vector field sum_a d_a pi^{ab} d_b is
    # zero, so the cap carries the Lichnerowicz-Poisson differential to the
    # Koszul-Brylinski boundary with sign +
    for spec in ["weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)"]:
        P = SymAlgebra(presets.builtin(spec))
        rng = random.Random(7)
        nonzero = 0
        for k in range(P.N + 1):
            for _ in range(3):
                terms = {}
                for legs in itertools.combinations(range(P.N), k):
                    if rng.random() < 0.6:
                        exp = tuple(rng.randint(0, 1) for _ in range(P.N))
                        terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 3]))
                D = Multivector(P, k, terms)
                lhs = duality_cap(poisson_differential(D))
                rhs = poisson_boundary(duality_cap(D))
                if k < P.N:
                    assert lhs == rhs, (spec, k)
                    nonzero += not lhs.is_zero()
                else:
                    # degree N: both sides vanish, at degrees -1 and 0
                    assert lhs.is_zero() and rhs.is_zero()
        assert nonzero >= P.N, spec


@pytest.mark.parametrize(
    "forms,expected_weight",
    [(["x", "y-x", "y+x"], 1), (["x", "y", "y-x", "y+x"], 2)],
)
def test_euler_contraction_arrangements(forms, expected_weight):
    alg = presets.arrangement(forms)
    assert alg.weights["D"] == expected_weight
    rep = euler_contraction_check(alg, "E", 4, 4, euler_degree_cap=2)
    assert rep.ok and rep.trials > 100


def test_euler_contraction_weyl_symplectic():
    rep = euler_contraction_check(presets.weyl(1), "x*e", 4, 2)
    assert rep.ok


def test_euler_contraction_rejects_non_diagonal():
    # a mathematical failure: a failed check with the witness, not an error
    rep = euler_contraction_check(presets.weyl(1), "x^2*e", 2, 1)
    assert not rep.ok and rep.trials == 0
    assert len(rep.failures) == 1 and "not a multiple" in rep.failures[0]


def reference_euler_contraction_check(alg, euler, max_weight, max_degree, euler_degree_cap):
    """The Euler check with two direct differentials per basis multivector,
    delta(i_E D) and delta(D), and no memo; the reference for the memoized
    `euler_contraction_check`.  euler is a string or a symbol polynomial."""
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    if isinstance(euler, str):
        euler = P.poly(euler)
    try:
        eigws = homology._euler_eigenweights(P, euler)
    except ValueError as exc:
        return homology.CheckReport(False, (str(exc),), 0)
    failures, checked = [], 0
    for k in range(0, min(max_degree, P.N) + 1):
        for legs in itertools.combinations(range(P.N), k):
            legw = sum(vw[a] for a in legs)
            for exp in exponents(vw, max_weight + legw, cap=euler_degree_cap):
                wt = sum(e * w for e, w in zip(exp, vw)) - legw
                if wt > max_weight or wt < -max_weight:
                    continue
                eig = sum(e * w for e, w in zip(exp, eigws)) - sum(eigws[a] for a in legs)
                D = Multivector.basis_element(P, legs, exp)
                lhs = poisson_differential(D.interior(euler)) + poisson_differential(D).interior(euler)
                if not (lhs - D.scale(eig)).is_zero():
                    failures.append(f"anticommutator is not weight*id on "
                                    f"{homology._label(P, legs, exp)} (weight {eig})")
                    if len(failures) >= 3:
                        return homology.CheckReport(False, tuple(failures), checked)
                checked += 1
    return homology.CheckReport(not failures, tuple(failures), checked)


def test_euler_check_takes_each_differential_once(monkeypatch):
    # on an arrangement each i_E D is one basis term that the loop met one
    # degree lower, so every delta input is new and most basis elements
    # need one differential, not two
    seen = []

    def record(D):
        seen.append(tuple(D.entries()))
        return poisson_differential(D)

    monkeypatch.setattr(homology, "poisson_differential", record)
    alg = presets.arrangement(["x", "y", "y-x", "y+x"])
    rep = euler_contraction_check(alg, "E", 2, 3, euler_degree_cap=2)
    assert rep.ok and rep.trials > 100
    assert len(seen) == len(set(seen)) == rep.trials
    monkeypatch.undo()
    assert rep == reference_euler_contraction_check(alg, "E", 2, 3, 2)


def test_euler_contraction_plans_are_built_once_per_leg_set(monkeypatch):
    # both contractions of the check read one plan memo on the partials of
    # E: each leg set's rows are built once per call, and the memo dies
    # with the call, so a second call builds them again
    built = []
    plan = homology._contract_plan
    monkeypatch.setattr(homology, "_contract_plan",
                        lambda values, legs: built.append(legs) or plan(values, legs))
    alg = presets.arrangement(["x", "y", "y-x", "y+x"])
    rep = euler_contraction_check(alg, "E", 2, 3, euler_degree_cap=2)
    assert rep.ok and rep.trials > 100
    first = list(built)
    assert len(first) == len(set(first)) == 2 ** 4  # every leg set of x, y, E, D
    assert {len(legs) for legs in first} == {0, 1, 2, 3, 4}
    assert euler_contraction_check(alg, "E", 2, 3, euler_degree_cap=2) == rep
    assert built[len(first):] == first


@pytest.mark.parametrize("spec, euler, max_weight, max_degree, cap", [
    ("weyl(1)", "x*e", 4, 2, 2),
    ("weyl(1)", "x*e", 3, 2, 4),
    ("weyl(2)", "x1*e1 + 2*x2*e2", 2, 3, 2),
    ("weyl(1)", "x^2*e", 2, 1, 2),
    ("arrangement(x,y-x,y+x)", "E", 3, 3, 3),
    # not an arrangement: eigenweights 2, -2 and 0 on e, f and h
    ("lie(sl2)", "h", 2, 3, 2),
    # E/2: Fraction rows in the contraction plans; the polynomial is passed
    ("arrangement(x,y,y-x,y+x)", Fraction(1, 2), 2, 3, 2),
])
def test_euler_check_matches_the_two_differential_reference(spec, euler, max_weight,
                                                            max_degree, cap):
    # with x*e the terms of i_E D carry a coordinate factor and leave the
    # enumerated basis, so the memo computes them on a miss
    alg = presets.builtin(spec)
    if isinstance(euler, Fraction):
        euler = SymAlgebra(alg).poly("E").scale(euler)
    got = euler_contraction_check(alg, euler, max_weight, max_degree, euler_degree_cap=cap)
    assert got == reference_euler_contraction_check(alg, euler, max_weight, max_degree, cap)
    assert got.trials == {"lie(sl2)": 230, "arrangement(x,y,y-x,y+x)": 999}.get(spec, got.trials)


def test_euler_insertion_is_interior_product():
    P = SymAlgebra(presets.arrangement(["x", "y-x", "y+x"]))
    E = P.poly("E")
    idx = P.vars.index("E")
    D = Multivector(P, 2, {(0, idx): Polynomial.const(P.vars, 1)})
    ins = D.interior(E)
    # inserting E into d/dx ^ d/dE picks out the E-leg with a sign
    assert ins.terms == {(0,): Polynomial.const(P.vars, -1)}


@pytest.mark.parametrize("forms", [["x", "y-x", "y+x"], ["x", "y", "y-x", "y+x"]])
def test_capped_casimir_search_arrangements(forms):
    basis = capped_casimir_search(presets.arrangement(forms), 4, 4)
    assert len(basis) == 1
    assert basis[0].total_degree() == 0


def test_capped_casimir_search_weyl():
    basis = capped_casimir_search(presets.weyl(1), 6, 4)
    assert len(basis) == 1 and basis[0].total_degree() == 0


# -- reference paths: the operators on Polynomial coefficients ----------------


def reference_d(w):
    P = w.parent

    def pieces():
        for legs, c in w.terms.items():
            for a in range(P.N):
                new, sign = insert_leg(legs, a)
                if sign and (dc := c.partial(a)):
                    yield new, dc if sign == 1 else -dc

    return reference_summed(KahlerForm, P, w.degree + 1, pieces())


def reference_interior(a, w):
    """Interior product with the coordinate vector field of index a."""
    terms = {}
    for legs, c in w.terms.items():
        if a in legs:
            t = legs.index(a)
            terms[legs[:t] + legs[t + 1:]] = c if t % 2 == 0 else -c
    return KahlerForm(w.parent, max(w.degree - 1, 0), terms)


def reference_contract(w):
    """sum_{a<b} {g_a, g_b} i_a i_b over every structure pair."""
    P = w.parent
    out = KahlerForm(P, max(w.degree - 2, 0))
    if w.degree < 2:
        return out
    for (a, b), coef in P._table.items():
        if not coef.is_zero():
            out = out + reference_interior(a, reference_interior(b, w)).scale(coef)
    return out


def reference_boundary(w):
    P = w.parent
    if w.degree == 0:
        return KahlerForm(P, 0)
    if w.degree == 1:
        return reference_contract(reference_d(w))
    return reference_contract(reference_d(w)) - reference_d(reference_contract(w))


def reference_duality_cap(D):
    """Interior products right to left along each leg set into the top form."""
    P = D.parent
    out = KahlerForm(P, P.N - D.degree)
    for legs, c in D.terms.items():
        w = KahlerForm(P, P.N, {tuple(range(P.N)): c})
        for a in reversed(legs):
            w = reference_interior(a, w)
        out = out + KahlerForm(P, P.N - D.degree, w.terms)
    return out


def basis_forms(P, max_weight):
    """Every basis form whose legs and monomial weigh at most max_weight."""
    vw = P.weight_vector()
    for k in range(P.N + 1):
        for legs in itertools.combinations(range(P.N), k):
            for exp in exponents(vw, max_weight - sum(vw[a] for a in legs)):
                yield KahlerForm.basis_element(P, legs, exp)


def rand_multiterm_form(rng, P, k):
    """Every leg set with probability 0.7, each with a multi-term coefficient,
    some of them non-integral."""
    terms = {}
    for legs in itertools.combinations(range(P.N), k):
        if rng.random() < 0.7:
            terms[legs] = sum(
                (Polynomial.monomial(P.vars, tuple(rng.randint(0, 2) for _ in range(P.N)),
                                     rng.choice([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]))
                 for _ in range(rng.randint(1, 3))),
                Polynomial.zero(P.vars))
    return KahlerForm(P, k, terms)


def assert_matches_reference(w):
    pairs = [(kahler_d(w), reference_d(w)),
             (poisson_boundary(w), reference_boundary(w))]
    for flat, reference in pairs:
        assert flat == reference
        # coefficients stay canonical: an int whenever integral
        assert all(type(c) is int or c.denominator != 1
                   for p in flat.terms.values() for c in p.terms.values())


POSITIVE_WEIGHT_BUILTINS = ["weyl(1)", "weyl(2)", "lie(sl2)", "lie(abelian2)",
                            "semidirect(sl2,std)"]


# weyl(3) at the largest weight that stays under a second on a 2-core host:
# 8,989 forms
BASIS_FORM_WEIGHT = {"weyl(3)": 6}


@pytest.mark.parametrize("name", POSITIVE_WEIGHT_BUILTINS + ["weyl(3)"])
def test_flat_kernels_match_the_reference_on_basis_forms(name):
    P = SymAlgebra(presets.builtin(name))
    forms = list(basis_forms(P, BASIS_FORM_WEIGHT.get(name, 4)))
    assert len(forms) > 10
    for w in forms:
        assert_matches_reference(w)


@pytest.mark.parametrize("name", POSITIVE_WEIGHT_BUILTINS + [
    "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"])
def test_flat_kernels_match_the_reference_on_random_forms(name):
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(23)
    for k in range(P.N + 1):
        for _ in range(4):
            assert_matches_reference(rand_multiterm_form(rng, P, k))


@pytest.mark.parametrize("name", POSITIVE_WEIGHT_BUILTINS + [
    "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"])
def test_boundary_on_shared_leg_sets_matches_the_reference(name):
    # one SymAlgebra for every form, so the later ones run the plans the
    # earlier ones left in its memo
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(37)
    for k in range(P.N + 1):
        A = rand_multiterm_form(rng, P, k)
        half = Polynomial.const(P.vars, Fraction(1, 2))
        for w in [A, rand_multiterm_form(rng, P, k), A.scale(Fraction(1, 2)),
                  A.scale(P.coordinate(0) + half) - rand_multiterm_form(rng, P, k)]:
            assert poisson_boundary(w) == reference_boundary(w)


@pytest.mark.parametrize("name", POSITIVE_WEIGHT_BUILTINS)
def test_boundary_plans_are_built_once_per_leg_set(name, monkeypatch):
    built = []
    plan = homology._boundary_plan
    monkeypatch.setattr(homology, "_boundary_plan",
                        lambda P, legs: built.append(legs) or plan(P, legs))
    P = SymAlgebra(presets.builtin(name))
    assert P._plans == {}
    rng, met = random.Random(41), set()
    for k in range(P.N + 1):
        for _ in range(2):
            w = rand_multiterm_form(rng, P, k)
            met |= {legs for legs, _ in w.flat}
            poisson_boundary(w)
            assert sorted(built) == sorted(met)
    assert {legs for _, legs in P._plans} == met
    # the memo lives on its SymAlgebra: a fresh one builds again
    fresh = SymAlgebra(presets.builtin(name))
    assert fresh._plans == {}
    poisson_boundary(KahlerForm.basis_element(fresh, (0,), (1,) * fresh.N))
    assert built[len(met):] == [(0,)]
    assert list(fresh._plans) == [(homology._boundary_plan, (0,))]


@pytest.mark.parametrize("name", POSITIVE_WEIGHT_BUILTINS)
def test_slice_rows_are_the_operators_on_wrapped_basis_elements(name):
    # the slice builders run the plans on bare basis keys; the reference runs
    # `poisson_boundary` and `poisson_differential` on the basis elements
    P = SymAlgebra(presets.builtin(name))
    vw, wbr = P.weight_vector(), P.bracket_weight()
    boundary = lambda key: poisson_boundary(KahlerForm.basis_element(P, *key)).entries()
    differential = lambda key: poisson_differential(Multivector.basis_element(P, *key)).entries()
    cases = []
    for lam in homology._slice_weights(P, 2)[1:3]:
        cases.append((homology.homology_slice(P, lam), boundary,
                      [homology._form_basis(P, lam, P.N - p) for p in range(P.N + 1)]))
    for W in (1, 2):
        cases.append((poisson.cochain_slice(P, W, P.N), differential,
                      [leg_basis(vw, vw, k, W + k * wbr) for k in range(P.N + 1)]))
    nnz = [0, 0]
    for s, image, bases in cases:
        for d, src, tgt in zip(s.diffs, bases, bases[1:]):
            assert d.rows == assemble(src, image, tgt)[0].rows
            nnz[image is differential] += len(d.entries)
    # both operators vanish on the abelian bracket, and on no other builtin
    assert (min(nnz) > 0) == (name != "lie(abelian2)")


@pytest.mark.parametrize("name", POSITIVE_WEIGHT_BUILTINS + [
    "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"])
def test_the_symbol_algebra_keeps_only_presentation_plans(name, monkeypatch):
    # `derive` and `contract` build their plans from one call's images, in a
    # memo of that call: the adjoint laws, eta and the tower leave no plan on
    # the symbol algebra.  Its memo holds the plans that depend on the
    # presentation alone, and d's is built once per leg set, like the
    # boundary's.
    built = []
    plan = homology._d_plan
    monkeypatch.setattr(homology, "_d_plan",
                        lambda P, legs: built.append((P, legs)) or plan(P, legs))
    alg = presets.builtin(name)
    inst, ctx = quasimod.adjoint_instance(alg), pbwext.EtaContext(alg)
    for seed in range(2):
        assert quasimod.quasi_axiom_check(inst, alg, trials=3, seed=seed).ok
        assert pbwext.verify_eta_properties(ctx, 3, seed).ok
        assert pbwext.verify_f_identities(ctx, 3, seed).ok
        assert pbwext.verify_identity_tower(ctx, 3, seed).ok
    assert inst.sym._plans == ctx.P._plans == {}
    rng = random.Random(43)
    for P in (inst.sym, ctx.P):
        for k in range(P.N + 1):
            for _ in range(2):
                w = rand_multiterm_form(rng, P, k)
                assert kahler_d(kahler_d(w)).is_zero()
                poisson_boundary(w)
                poisson_differential(Multivector(P, k, w.terms))
        presentation_only = {poisson._differential_plan, homology._boundary_plan,
                             homology._d_plan}
        assert {build for build, _ in P._plans} == presentation_only
    assert len(built) == len(set(built)) == sum(
        build is homology._d_plan for P in (inst.sym, ctx.P) for build, _ in P._plans)


@pytest.mark.parametrize("name", POSITIVE_WEIGHT_BUILTINS + ["arrangement(x,y,y-x,y+x)"])
def test_duality_cap_matches_the_reference(name):
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(29)
    for k in range(P.N + 1):
        for _ in range(3):
            terms = {legs: Polynomial.monomial(P.vars, tuple(rng.randint(0, 2) for _ in range(P.N)),
                                               rng.choice([-2, 1, 3]))
                     for legs in itertools.combinations(range(P.N), k) if rng.random() < 0.7}
            D = Multivector(P, k, terms)
            assert duality_cap(D) == reference_duality_cap(D)


# -- reference path: cyclic tables from two runs, one per truncation -----------


def reference_cyclic_slice(P, lam, u_cap, t_max, images):
    """The total complex of slice lam assembled key by key: (w, j) goes to
    (boundary w, j) + (d w, j - 1); `images` holds each form's boundary."""
    wbr = P.bracket_weight()

    def basis_at(t):
        return sorted((j, legs, exp) for j in range(u_cap + 1)
                      for legs, exp in homology._form_basis(P, lam - j * wbr, t - 2 * j))

    def image(key):
        j, legs, exp = key
        if (legs, exp) not in images:
            w = KahlerForm.basis_element(P, legs, exp)
            images[legs, exp] = list(poisson_boundary(w).entries())
        for (tlegs, texp), c in images[legs, exp]:
            yield (j, tlegs, texp), c
        for (tlegs, texp), c in kahler_d(KahlerForm.basis_element(P, legs, exp)).entries() \
                if j else ():
            yield (j - 1, tlegs, texp), c

    bases = [basis_at(t_max - p) for p in range(t_max + 1)]
    diffs = [assemble(bases[p], image, bases[p + 1])[0] for p in range(t_max)]
    return ComplexSlice([len(b) for b in bases], diffs)


def reference_cyclic_homology(alg, max_weight, u_cap):
    """The table at u_cap and the flag from a second, separate run at u_cap - 1."""
    P = SymAlgebra(alg)
    images = {}

    def run(cap):
        t_top, report = P.N + 2 * cap, P.N + 2 * cap - 2
        table = {}
        for lam in homology._slice_weights(P, max_weight, cap):
            dims = cohomology_dims(reference_cyclic_slice(P, lam, cap, t_top, images))
            for p, dim in enumerate(dims):
                if dim and t_top - p <= report:
                    table[(lam, t_top - p)] = dim
        return table, report

    full, _ = run(u_cap)
    smaller, small_report = run(u_cap - 1)
    stabilized = all(full.get(key, 0) == smaller.get(key, 0)
                     for key in set(full) | set(smaller) if key[1] <= small_report)
    return full, stabilized


@pytest.mark.parametrize("name,max_weight,u_cap,stabilized", [
    ("weyl(1)", 8, 2, True), ("weyl(1)", 8, 3, True), ("weyl(1)", 8, 4, True),
    ("weyl(2)", 1, 2, False), ("weyl(2)", 1, 3, False),
    ("lie(sl2)", 4, 2, False), ("lie(sl2)", 4, 3, False),
    ("lie(abelian2)", 3, 2, True), ("lie(abelian2)", 3, 3, True),
    ("semidirect(sl2,std)", 1, 2, False), ("semidirect(sl2,std)", 1, 3, False),
])
def test_cyclic_homology_matches_the_two_run_reference(name, max_weight, u_cap, stabilized):
    alg = presets.builtin(name)
    expected = reference_cyclic_homology(alg, max_weight, u_cap)
    assert expected[1] is stabilized and expected[0]
    assert cyclic_homology(alg, max_weight, u_cap) == expected
