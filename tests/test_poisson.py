import itertools
import random

import pytest

from rinehart import presets
from rinehart.homology import euler_insertion
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
    assert P.bracket(xi, x) == Polynomial.const(P.vars, 1)
    assert P.bracket(xi * xi, x) == xi.scale(2)
    assert P.bracket(x, x).is_zero()


def test_bracket_structure_constants_sl2():
    P = SymAlgebra(presets.lie("sl2"))
    e, f, h = (P.coordinate(i) for i in range(3))
    assert P.bracket(e, f) == h
    assert P.bracket(h, e) == e.scale(2)


def test_bracket_arrangement_generators():
    # [E, D] = r D turns into {D, E} = -r D on symbols
    alg = presets.arrangement(["x", "y-x", "y+x"])  # r = 1
    P = SymAlgebra(alg)
    E, D = P.poly("E"), P.poly("D")
    assert P.bracket(D, E) == -D


@pytest.mark.parametrize("name,maker", ALGEBRAS)
def test_bracket_laws(name, maker):
    P = SymAlgebra(maker())
    rng = random.Random(5)
    for _ in range(6):
        f, g, h = (rand_sym(rng, P) for _ in range(3))
        assert (P.bracket(f, g) + P.bracket(g, f)).is_zero()
        assert P.bracket(f, g * h) == P.bracket(f, g) * h + g * P.bracket(f, h)
        jac = (
            P.bracket(f, P.bracket(g, h))
            + P.bracket(g, P.bracket(h, f))
            + P.bracket(h, P.bracket(f, g))
        )
        assert jac.is_zero()


def test_differential_on_coordinates_weyl():
    P = SymAlgebra(presets.weyl(1))
    d = poisson_differential(Multivector.function(P, P.coordinate(0)))
    # single leg d/d(e) with coefficient {e, x} = 1
    assert d.terms == {(1,): Polynomial.const(P.vars, 1)}


def test_differential_kills_constants_and_zero_bracket():
    P = SymAlgebra(presets.weyl(1))
    assert poisson_differential(
        Multivector.function(P, Polynomial.const(P.vars, 5))
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
            term = P.bracket(P.coordinate(legs[i]), D.coefficient(legs[:i] + legs[i + 1:]))
            total = total + (term if i % 2 == 0 else -term)
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = [P.coordinate(legs[t]) for t in range(k + 1) if t not in (i, j)]
            br = P.coordinate_bracket(legs[i], legs[j])
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
            assert euler_insertion(D, f) == reference_interior(D, f)
            assert poisson_differential(D) == reference_differential(D)
    for a in range(P.N):
        for _ in range(3):
            g = rand_sym(rng, P)
            assert P.coordinate_action(a, g) == P.bracket(P.coordinate(a), g)


def test_evaluate_rejects_a_wrong_arity():
    P = SymAlgebra(presets.weyl(1))
    D = Multivector(P, 1, {(1,): Polynomial.const(P.vars, 1)})
    with pytest.raises(ValueError, match="wrong number of arguments"):
        D.evaluate([])
