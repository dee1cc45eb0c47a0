import itertools
import random
from fractions import Fraction

import pytest

from rinehart import poisson, presets
from rinehart.homology import KahlerForm
from rinehart.poisson import Multivector, SymAlgebra, poisson_cohomology, poisson_differential
from rinehart.poly import Polynomial, perm_sign
from rinehart.quasimod import (
    NonlinearRejection,
    adjoint_instance,
    multivector_to_nl,
    nl_to_multivector,
)


def rand_mv(rng, P, k, max_deg=2):
    terms = {}
    for legs in itertools.combinations(range(P.N), k):
        if rng.random() < 0.7:
            exp = tuple(rng.randint(0, max_deg) for _ in range(P.N))
            terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 2]))
    return Multivector(P, k, terms)


def rand_sym(rng, P, max_deg=2):
    p = Polynomial.zero(P.vars)
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(P.N))
        p = p + Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 2]))
    return p


def reference_symbol_bracket(P, f, g):
    """The symbol bracket as the sum over a < b of {x_a, x_b} (f_a g_b - f_b g_a)."""
    out = Polynomial.zero(P.vars)
    for (a, b), coef in P._table.items():
        out = out + coef * (f.partial(a) * g.partial(b) - f.partial(b) * g.partial(a))
    return out


def reference_summed(cls, P, degree, pieces):
    """The leg tensor of type cls summing (legs, Polynomial) pieces on sorted
    legs, through `from_flat`: the piece loops the flat kernels replaced."""
    acc = {}
    for legs, c in pieces:
        for exp, v in c.terms.items():
            acc[legs, exp] = acc.get((legs, exp), 0) + v
    return cls.from_flat(P, degree, acc)


ALGEBRAS = [
    ("weyl1", lambda: presets.weyl(1)),
    ("sl2", lambda: presets.lie("sl2")),
    ("semidirect", lambda: presets.semidirect_sl2()),
    ("arr3", lambda: presets.arrangement(["x", "y-x", "y+x"])),
    ("arr4", lambda: presets.arrangement(["x", "y", "y-x", "y+x"])),
]


def test_bracket_generators_weyl():
    P = SymAlgebra(presets.weyl(1))
    x, xi = P.coordinate(0), P.coordinate(1)
    assert reference_symbol_bracket(P, xi, x) == Polynomial.const(P.vars, 1)
    assert reference_symbol_bracket(P, xi * xi, x) == xi.scale(2)
    assert reference_symbol_bracket(P, x, x).is_zero()


def test_bracket_structure_constants_sl2():
    P = SymAlgebra(presets.lie("sl2"))
    e, f, h = (P.coordinate(i) for i in range(3))
    assert reference_symbol_bracket(P, e, f) == h
    assert reference_symbol_bracket(P, h, e) == e.scale(2)


def test_bracket_arrangement_generators():
    # [E, D] = r D turns into {D, E} = -r D on symbols
    alg = presets.arrangement(["x", "y-x", "y+x"])  # r = 1
    P = SymAlgebra(alg)
    E, D = P.poly("E"), P.poly("D")
    assert reference_symbol_bracket(P, D, E) == -D


@pytest.mark.parametrize("name,maker", ALGEBRAS)
def test_bracket_laws(name, maker):
    P = SymAlgebra(maker())
    rng = random.Random(5)

    def br(f, g):
        return reference_symbol_bracket(P, f, g)

    for _ in range(6):
        f, g, h = (rand_sym(rng, P) for _ in range(3))
        assert (br(f, g) + br(g, f)).is_zero()
        assert br(f, g * h) == br(f, g) * h + g * br(f, h)
        jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
        assert jac.is_zero()


def test_differential_on_coordinates_weyl():
    P = SymAlgebra(presets.weyl(1))
    d = poisson_differential(Multivector(P, 0, {(): P.coordinate(0)}))
    # single leg d/d(e) with coefficient {e, x} = 1
    assert d.terms == {(1,): Polynomial.const(P.vars, 1)}


def test_differential_kills_constants_and_zero_bracket():
    P = SymAlgebra(presets.weyl(1))
    assert poisson_differential(
        Multivector(P, 0, {(): Polynomial.const(P.vars, 5)})
    ).is_zero()
    A = SymAlgebra(presets.lie("abelian2"))
    rng = random.Random(7)
    for k in range(0, 2):
        assert poisson_differential(rand_mv(rng, A, k)).is_zero()


@pytest.mark.parametrize("name,maker", ALGEBRAS)
def test_differential_squares_to_zero(name, maker):
    P = SymAlgebra(maker())
    rng = random.Random(11)
    for k in range(0, min(3, P.N)):
        for _ in range(4):
            D = rand_mv(rng, P, k)
            assert poisson_differential(poisson_differential(D)).is_zero()


def test_casimirs_are_constants_weyl():
    table = poisson_cohomology(presets.weyl(1), 8, 2)
    assert table[(0, 0)] == 1
    totals = {}
    for (w, k), dim in table.items():
        totals[k] = totals.get(k, 0) + dim
    assert totals == {0: 1, 1: 0, 2: 0}


def test_weyl2_cohomology_pattern():
    table = poisson_cohomology(presets.weyl(2), 4, 2)
    totals = {}
    for (w, k), dim in table.items():
        totals[k] = totals.get(k, 0) + dim
    assert totals == {0: 1, 1: 0, 2: 0}


def test_sl2_casimir_row():
    table = poisson_cohomology(presets.lie("sl2"), 6, 3)
    assert [table.get((q, 0), 0) for q in range(7)] == [1, 0, 1, 0, 1, 0, 1]


def test_abelian_cohomology_is_everything():
    import math

    table = poisson_cohomology(presets.lie("abelian2"), 3, 2)
    # zero differential: at coefficient degree q the degree-p piece has
    # dimension C(2,p) * dim Sym^q; slice weight is q - p (legs weigh in)
    for q in range(4):
        for p in range(3):
            want = math.comb(2, p) * (q + 1)
            assert table.get((q - p, p), 0) == want


def test_cohomology_requires_positive_weights():
    with pytest.raises(ValueError, match="positive weights"):
        poisson_cohomology(presets.arrangement(["x", "y-x", "y+x"]), 4, 2)


def test_nonlinear_tables_read_values():
    P = SymAlgebra(presets.weyl(1))
    D = Multivector(P, 1, {(1,): Polynomial.const(P.vars, 1)})  # d/d(e)
    el = multivector_to_nl(adjoint_instance(P.alg), D, cap=1)
    zero_mono = (0,)
    assert el.tables[0][((zero_mono, 0),)].coefficient(()) == Polynomial.const(P.vars, 1)
    assert el.tables[1][()].is_zero()


@pytest.mark.parametrize("name,maker", ALGEBRAS[:4])
def test_nonlinear_round_trip(name, maker):
    P = SymAlgebra(maker())
    inst = adjoint_instance(P.alg)
    rng = random.Random(13)
    for k in range(0, min(3, P.N)):
        D = rand_mv(rng, P, k)
        assert nl_to_multivector(multivector_to_nl(inst, D, cap=1)) == D


def test_nonlinear_rejects_perturbed_entry():
    P = SymAlgebra(presets.semidirect_sl2())
    rng = random.Random(17)
    D = rand_mv(rng, P, 2)
    el = multivector_to_nl(adjoint_instance(P.alg), D, cap=1)
    for i, table in enumerate(el.tables):
        for largs, v in table.items():
            if any(sum(m) > 0 for m, _ in largs):
                legs = tuple(range(i))  # the first i base legs
                table[largs] = v + Multivector(P, i, {legs: Polynomial.const(P.vars, 1)})
                with pytest.raises(NonlinearRejection):
                    nl_to_multivector(el)
                return
    pytest.fail("no coefficient-bearing entry found to perturb")


# -- reference paths: the permutation determinant and every leg set ----------


def reference_evaluate(D, args):
    """D on args as a sum over leg sets of det(d_{leg} arg) by permutations."""
    P = D.parent
    out = Polynomial.zero(P.vars)
    for legs, c in D.terms.items():
        for perm in itertools.permutations(range(D.degree)):
            term = Polynomial.const(P.vars, perm_sign(perm))
            for row, leg in enumerate(legs):
                term = term * args[perm[row]].partial(leg)
            out = out + c * term
    return out


def reference_interior(D, f):
    """f in the first slot, read off on every coordinate leg set."""
    P = D.parent
    terms = {}
    if D.degree:
        for legs in itertools.combinations(range(P.N), D.degree - 1):
            terms[legs] = reference_evaluate(D, [f] + [P.coordinate(a) for a in legs])
    return Multivector(P, max(D.degree - 1, 0), terms)


def reference_differential(D):
    """The docstring formula of poisson_differential on every (k+1)-leg set."""
    P = D.parent
    k = D.degree
    terms = {}
    for legs in itertools.combinations(range(P.N), k + 1):
        total = Polynomial.zero(P.vars)
        for i in range(k + 1):
            term = reference_symbol_bracket(P, P.coordinate(legs[i]),
                                            D.coefficient(legs[:i] + legs[i + 1:]))
            total = total + (term if i % 2 == 0 else -term)
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = [P.coordinate(legs[t]) for t in range(k + 1) if t not in (i, j)]
            br = P.coordinate_action(legs[i], P.coordinate(legs[j]))
            term = reference_evaluate(D, [br] + rest)
            total = total + (term if (i + j) % 2 == 0 else -term)
        terms[legs] = total
    return Multivector(P, k + 1, terms)


def rand_multiterm_mv(rng, P, k):
    """Every leg set with probability 0.7, each with a multi-term coefficient."""
    terms = {legs: rand_sym(rng, P)
             for legs in itertools.combinations(range(P.N), k) if rng.random() < 0.7}
    return Multivector(P, k, terms)


BUILTINS = ["weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)",
            "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"]


@pytest.mark.parametrize("name", BUILTINS)
def test_laplace_expansion_matches_the_reference_paths(name):
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(19)
    for k in range(min(3, P.N) + 1):
        for _ in range(3):
            D = rand_multiterm_mv(rng, P, k)
            args = [rand_sym(rng, P) for _ in range(k)]
            f = rand_sym(rng, P)
            assert D.evaluate(args) == reference_evaluate(D, args)
            assert D.interior(f) == reference_interior(D, f)
            assert poisson_differential(D) == reference_differential(D)
            # halves, alone and in sums that come to integers: the
            # differential's `_d_table` contraction keeps them exact
            # and stores an integral sum as an int
            H = D.scale(Fraction(1, 2)) + rand_multiterm_mv(rng, P, k).scale(Fraction(3, 2))
            got = poisson_differential(H)
            assert got == reference_differential(H)
            assert all(type(c) is int for c in got.flat.values() if c.denominator == 1)
    for a in range(P.N):
        for _ in range(3):
            g = rand_sym(rng, P)
            assert P.coordinate_action(a, g) == reference_symbol_bracket(P, P.coordinate(a), g)


@pytest.mark.parametrize("name", BUILTINS)
def test_differential_on_shared_leg_sets_matches_the_reference(name):
    # one SymAlgebra for every multivector, so the later ones read the
    # bracket-pair sums the earlier ones left in its memo
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(29)
    for k in range(min(3, P.N) + 1):
        A = rand_multiterm_mv(rng, P, k)
        half = Polynomial.const(P.vars, Fraction(1, 2))
        for D in [A, rand_multiterm_mv(rng, P, k), A.scale(Fraction(1, 2)),
                  A.scale(P.coordinate(0) + half) - rand_multiterm_mv(rng, P, k)]:
            assert poisson_differential(D) == reference_differential(D)


def differential_plans(P):
    """The leg sets that hold a `poisson_differential` plan in P's memo."""
    return {legs for build, legs in P._plans if build is poisson._differential_plan}


@pytest.mark.parametrize("name", BUILTINS)
def test_bracket_pair_sums_are_evaluated_once_per_leg_set(name, monkeypatch):
    calls = []
    evaluate = Multivector.evaluate
    monkeypatch.setattr(Multivector, "evaluate",
                        lambda D, args: calls.append(D) or evaluate(D, args))
    P = SymAlgebra(presets.builtin(name))
    assert P._plans == {}
    rng = random.Random(31)
    for k in range(1, min(3, P.N) + 1):
        A = rand_multiterm_mv(rng, P, k)
        poisson_differential(A)
        assert differential_plans(P) >= {legs for legs, _ in A.flat}
        calls.clear()
        B = Multivector(P, k, {legs: rand_sym(rng, P) for legs in A.terms})
        assert poisson_differential(B) == reference_differential(B)
        assert calls == []
    # the memo lives on its SymAlgebra: a fresh one evaluates again, once
    # per nonzero bracket pair on d/dx_0, whose one rest admits them all
    fresh = SymAlgebra(presets.builtin(name))
    assert fresh._plans == {}
    poisson_differential(Multivector.basis_element(fresh, (0,), (0,) * fresh.N))
    assert len(calls) == len(fresh._d_table) > 0
    assert differential_plans(fresh) == {(0,)}


@pytest.mark.parametrize("name", BUILTINS)
def test_contraction_matches_the_reference_interior_products(name):
    # a one-form given per coordinate is sum_a form(a) dx_a, so its
    # contraction is the form-weighted sum of the interior products with
    # the coordinates; the form df gives the interior product with f
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(23)
    for k in range(min(3, P.N) + 1):
        for _ in range(2):
            D = rand_multiterm_mv(rng, P, k)
            form = [rand_sym(rng, P) for _ in range(P.N)]
            want = Multivector(P, max(k - 1, 0))
            for a in range(P.N):
                want = want + reference_interior(D, P.coordinate(a)).scale(form[a])
            assert D.contract(form.__getitem__) == want
            f = rand_sym(rng, P)
            assert D.contract(f.partial) == reference_interior(D, f)


def test_evaluate_rejects_a_wrong_arity():
    P = SymAlgebra(presets.weyl(1))
    D = Multivector(P, 1, {(1,): Polynomial.const(P.vars, 1)})
    with pytest.raises(ValueError, match="wrong number of arguments"):
        D.evaluate([])


def test_basis_element_is_the_checked_monomial_and_the_constructor_still_checks():
    P = SymAlgebra(presets.weyl(2))
    for k in range(P.N + 1):
        for legs in itertools.combinations(range(P.N), k):
            exp = tuple(range(P.N))
            got = Multivector.basis_element(P, legs, exp)
            assert got == Multivector(P, k, {legs: Polynomial.monomial(P.vars, exp, 1)})
    one = Polynomial.const(P.vars, 1)
    for degree, legs in [(2, (1, 0)), (2, (1, 1)), (1, (0, 1)), (2, (0,))]:
        with pytest.raises(ValueError, match="bad leg set"):
            Multivector(P, degree, {legs: one})
    # a zero coefficient is dropped before its leg set is looked at
    zero = Polynomial.zero(P.vars)
    assert Multivector(P, 1, {(0,): one, (1, 0): zero}).flat == {((0,), (0,) * P.N): 1}


def test_flat_constructor_makes_integral_fractions_ints_and_drops_zero_sums():
    P = SymAlgebra(presets.weyl(1))
    e, f = (1, 0), (0, 2)
    got = Multivector.from_flat(P, 1, {((0,), e): Fraction(4, 2), ((1,), e): 0,
                                       ((1,), f): Fraction(1, 2)})
    assert got.flat == {((0,), e): 2, ((1,), f): Fraction(1, 2)}
    assert type(got.flat[(0,), e]) is int


def test_terms_is_a_read_only_view():
    P = SymAlgebra(presets.weyl(1))
    D = Multivector(P, 1, {(0,): P.poly("x*e + 2")})
    assert D.terms == {(0,): P.poly("x*e + 2")}
    with pytest.raises(TypeError):
        D.terms[(1,)] = P.poly("x")
    assert D.flat == {((0,), (1, 1)): 1, ((0,), (0, 0)): 2}


def test_repr_is_unchanged():
    # recorded before the storage became flat: legs sorted, each coefficient
    # printed as a Polynomial
    P = SymAlgebra(presets.semidirect_sl2())
    D = Multivector(P, 2, {(1, 3): P.poly("x*e - 2*y^2"),
                           (0, 2): P.poly("3*f*h + 1").scale(Fraction(1, 2)),
                           (0, 4): P.poly("y")})
    assert repr(D) == ("(1/2 + 3/2*f*h)*d/dx^d/de + (y)*d/dx^d/dh"
                       " + (x*e - 2*y^2)*d/dy^d/df")
    w = KahlerForm(P, 1, {(4,): P.poly("x*y - e"), (0,): P.poly("h^2").scale(Fraction(-3, 4))})
    assert repr(w) == "(-3/4*h^2)*dx + (-e + x*y)*dh"
    assert repr(KahlerForm(P, 0)) == "0"
    assert repr(Multivector(P, 0, {(): P.poly("2")})) == "(2)*1"


@pytest.mark.parametrize("name", BUILTINS + ["lie(abelian2)"])
def test_leg_tensor_difference_is_the_sum_with_the_negative(name):
    P = SymAlgebra(presets.builtin(name))
    rng = random.Random(47)
    for k in range(min(3, P.N) + 1):
        for _ in range(4):
            A = rand_multiterm_mv(rng, P, k)
            # B shares A's legs, so A - B cancels in part, and fractions enter
            B = rand_multiterm_mv(rng, P, k) + A.scale(rng.choice([1, Fraction(1, 2)]))
            for X, Y in [(A, B), (B, A), (A, A), (A, Multivector(P, k)), (Multivector(P, k), A)]:
                got = X - Y
                assert got == X + (-Y)
                assert all(not c.is_zero() for c in got.terms.values())
            assert (A - A).is_zero() and (A + B) - B == A


@pytest.mark.parametrize("name", BUILTINS + ["lie(abelian2)"])
def test_coordinate_bracket_is_antisymmetric(name):
    P = SymAlgebra(presets.builtin(name))
    for a in range(P.N):
        assert P.coordinate_action(a, P.coordinate(a)).is_zero()
        for b in range(P.N):
            ab = P.coordinate_action(a, P.coordinate(b))
            assert ab == -P.coordinate_action(b, P.coordinate(a))
            assert ab == reference_symbol_bracket(P, P.coordinate(a), P.coordinate(b))


def test_a_plan_row_of_another_length_than_the_term_raises():
    # the pairwise sum of exponent and shift would stop at the shorter one and
    # key a cut exponent; the plan is refused when built, and not kept
    term = {((0,), (1, 2)): 1}
    for build in (lambda legs: ([(0, [((), (-1,), 1)])], {}),
                  lambda legs: ((), {((), (0, 0, 1)): 1})):
        plans: dict = {}
        with pytest.raises(ValueError, match="another length than 2"):
            poisson._apply_plan(plans, build, term)
        assert plans == {}
    fine = lambda legs: ([(0, [((), (-1, 0), 3)])], {((), (0, 1)): 1})
    assert poisson._apply_plan({}, fine, term) == {((), (0, 2)): 3, ((), (1, 3)): 1}
