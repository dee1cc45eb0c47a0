import random
from fractions import Fraction

import pytest

from rinehart import presets
from rinehart.lie_rinehart import Connection
from rinehart.poly import Polynomial, parse_poly
from rinehart.uea import (
    CocycleError,
    DerivationExtension,
    EnvelopingAlgebra,
    PBWMap,
    center_search,
)


def rand_uea(rng, U, max_fil=2, max_deg=2):
    out = U.zero()
    for _ in range(rng.randint(1, 3)):
        gexp = [0] * U.alg.rank
        for _ in range(rng.randint(0, max_fil)):
            gexp[rng.randrange(U.alg.rank)] += 1
        xexp = tuple(rng.randint(0, max_deg) for _ in U.alg.vars)
        c = Polynomial.monomial(U.alg.vars, xexp, rng.choice([-2, -1, 1, 2]))
        out = out + U.monomial(c, tuple(gexp))
    return out


def rand_sym(rng, U, max_deg=2):
    p = Polynomial.zero(U.sym_vars)
    for _ in range(rng.randint(1, 3)):
        exp = [0] * len(U.sym_vars)
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(len(U.sym_vars))] += 1
        p = p + Polynomial.monomial(U.sym_vars, tuple(exp), rng.choice([-2, -1, 1, 2]))
    return p


def test_weyl_defining_relation():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar("x")
    assert e * x == x * e + U.one()
    assert e * e * x == x * e * e + e.scale(2)


def test_sl2_defining_relation():
    U = EnvelopingAlgebra(presets.lie("sl2"))
    e, f, h = U.generator(0), U.generator(1), U.generator(2)
    # normal order is ascending (e before f), so [e,f] = h reads as:
    assert f * e == e * f - h
    assert h * e == e * h + e.scale(2)


@pytest.mark.parametrize("maker", [
    lambda: presets.weyl(2),
    lambda: presets.lie("sl2"),
    lambda: presets.semidirect_sl2(),
    lambda: presets.arrangement(["x", "y-x", "y+x"]),
])
def test_associativity_random(maker):
    U = EnvelopingAlgebra(maker())
    rng = random.Random(5)
    for _ in range(8):
        a, b, c = (rand_uea(rng, U) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_filtration_commutator_drop():
    rng = random.Random(7)
    for maker in (presets.weyl(2), presets.semidirect_sl2()):
        U = EnvelopingAlgebra(maker)
        for _ in range(8):
            a, b = rand_uea(rng, U), rand_uea(rng, U)
            c = a.commutator(b)
            if not c.is_zero():
                assert (
                    c.filtration_degree()
                    <= a.filtration_degree() + b.filtration_degree() - 1
                )


def test_gr_symbol_examples():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar("x")
    u = x * e * e + e.scale(2)
    assert u.gr_symbol() == parse_poly(U.sym_vars, "x*e^2")
    assert U.scalar("x^3 - 2").gr_symbol() == parse_poly(U.sym_vars, "x^3 - 2")


def test_gr_symbol_sl2_casimir():
    U = EnvelopingAlgebra(presets.lie("sl2"))
    e, f, h = U.generator(0), U.generator(1), U.generator(2)
    cas = e * f + f * e + (h * h).scale(Fraction(1, 2))
    assert cas.gr_symbol() == parse_poly(U.sym_vars, "2*e*f") + \
        parse_poly(U.sym_vars, "h^2").scale(Fraction(1, 2))


def test_gr_symbol_multiplicative_on_top_degree():
    rng = random.Random(11)
    U = EnvelopingAlgebra(presets.weyl(2))
    for _ in range(8):
        a, b = rand_uea(rng, U), rand_uea(rng, U)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).gr_symbol() == a.gr_symbol() * b.gr_symbol()


def test_pbw_base_cases():
    U = EnvelopingAlgebra(presets.weyl(1))
    pb = PBWMap(U)
    assert pb(parse_poly(U.sym_vars, "e")) == U.generator(0)
    assert pb(parse_poly(U.sym_vars, "x^2 - 3")) == U.scalar("x^2 - 3")


def test_pbw_weyl_squares():
    U = EnvelopingAlgebra(presets.weyl(1))
    pb = PBWMap(U)
    e = U.generator(0)
    assert pb(parse_poly(U.sym_vars, "e^2")) == e * e
    assert pb(parse_poly(U.sym_vars, "x*e^2")) == U.scalar("x") * e * e


@pytest.mark.parametrize("maker", [
    lambda: presets.weyl(1),
    lambda: presets.lie("sl2"),
    lambda: presets.semidirect_sl2(),
])
def test_pbw_is_a_section_of_the_symbol(maker):
    U = EnvelopingAlgebra(maker())
    pb = PBWMap(U)
    rng = random.Random(13)
    for _ in range(8):
        m = rand_sym(rng, U)
        tops = {exp: c for exp, c in m.terms.items()}
        if not tops:
            continue
        # compare the top symbol degreewise: lift each homogeneous piece
        gen_deg = lambda exp: sum(exp[len(U.alg.vars):])
        by_deg = {}
        for exp, c in tops.items():
            by_deg.setdefault(gen_deg(exp), {})[exp] = c
        for terms in by_deg.values():
            piece = Polynomial(U.sym_vars, terms)
            lifted = pb(piece)
            assert lifted.gr_symbol() == piece


def test_pbw_respects_ring_multiplication_trivial_connection():
    rng = random.Random(17)
    U = EnvelopingAlgebra(presets.weyl(2))
    pb = PBWMap(U)
    for _ in range(6):
        m = rand_sym(rng, U)
        r = Polynomial.monomial(
            U.alg.vars, tuple(rng.randint(0, 2) for _ in U.alg.vars), rng.choice([1, 2, -1])
        )
        r_sym = Polynomial.monomial(
            U.sym_vars,
            tuple(list(next(iter(r.terms))) + [0] * U.alg.rank),
            next(iter(r.terms.values())),
        )
        assert pb(r_sym * m) == U.scalar(r) * pb(m)


def test_pbw_nontrivial_connection_still_a_section():
    alg = presets.weyl(1)
    U = EnvelopingAlgebra(alg)
    table = [[alg.element(["x"])]]
    pb = PBWMap(U, Connection(alg, table))
    m = parse_poly(U.sym_vars, "e^2")
    lifted = pb(m)
    assert lifted.gr_symbol() == m


def test_center_weyl():
    U = EnvelopingAlgebra(presets.weyl(1))
    basis = center_search(U, 4, 6)
    assert len(basis) == 1
    assert basis[0].filtration_degree() == 0
    assert basis[0].terms[(0,)].is_constant()


def test_center_sl2_has_casimir():
    U = EnvelopingAlgebra(presets.lie("sl2"))
    basis = center_search(U, 2, 2)
    assert len(basis) == 2
    e, f, h = U.generator(0), U.generator(1), U.generator(2)
    for u in basis:
        for g in (e, f, h):
            assert u.commutator(g).is_zero()
    assert any(u.filtration_degree() == 2 for u in basis)


def test_center_abelian_everything():
    U = EnvelopingAlgebra(presets.lie("abelian2"))
    basis = center_search(U, 2, 2)
    # all of Sym^{<=2}(Q^2): 1, a, b, a^2, ab, b^2
    assert len(basis) == 6


def test_extend_derivation_inner():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar("x")
    u0 = x * e + e * e
    D = DerivationExtension(U, {"x": u0.commutator(x)}, {"e": u0.commutator(e)})
    rng = random.Random(19)
    for _ in range(8):
        a = rand_uea(rng, U)
        assert D(a) == u0.commutator(a)


def test_extend_derivation_lowering():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar("x")
    D = DerivationExtension(U, {}, {"e": U.one()})
    assert D(x * e * e) == (x * e).scale(2)
    rng = random.Random(23)
    for _ in range(8):
        a, b = rand_uea(rng, U), rand_uea(rng, U)
        assert D(a * b) == D(a) * b + a * D(b)


def test_extend_derivation_rejects_bad_pair():
    U = EnvelopingAlgebra(presets.lie("sl2"))
    with pytest.raises(CocycleError, match="module cocycle"):
        DerivationExtension(U, {}, {"e": U.generator(1)})


def test_commutator_symbol_is_the_poisson_bracket():
    # the top part of a commutator of lifts recovers the symbol bracket
    from rinehart.poisson import SymAlgebra

    rng = random.Random(29)
    for maker in (presets.weyl(1), presets.lie("sl2"), presets.semidirect_sl2()):
        U = EnvelopingAlgebra(maker)
        P = SymAlgebra(maker)
        pb = PBWMap(U)
        for _ in range(8):
            exps = []
            for _ in range(2):
                e = [0] * len(U.sym_vars)
                for _ in range(rng.randint(1, 2)):
                    e[rng.randrange(len(U.sym_vars))] += 1
                exps.append(tuple(e))
            a = Polynomial.monomial(U.sym_vars, exps[0], 1)
            b = Polynomial.monomial(U.sym_vars, exps[1], 1)
            qdeg = lambda e: sum(e[len(U.alg.vars):])
            top = qdeg(exps[0]) + qdeg(exps[1]) - 1
            comm = pb(a).commutator(pb(b))
            got = Polynomial(
                U.sym_vars,
                {e: c for e, c in comm.full_symbol().terms.items() if qdeg(e) == top},
            )
            assert got == P.bracket(a, b)
