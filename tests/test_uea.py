import itertools
import math
import random
from fractions import Fraction

import pytest

from rinehart import presets
from rinehart.lie_rinehart import (Connection, LElement, LieRinehartAlgebra,
                                   check_axioms)
from rinehart.linalg import assemble, kernel_and_rank
from rinehart.pbwext import EtaContext, tower_eval
from rinehart.poisson import Multivector, SymAlgebra
from rinehart.poly import Polynomial, PolyDerivation, exponents, parse_poly
from rinehart.uea import EnvelopingAlgebra, UEAElement, center_search
from test_poisson import reference_symbol_bracket

BUILTINS = ["weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)",
            "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"]


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


def filtration_degree(u):
    return max((sum(e) for e in u.terms), default=0)


def reference_symbol(u, keep):
    """The terms on generator exponents e with keep(e), generators replaced
    by commuting symbols."""
    return Polynomial(u.parent.sym_vars, {m + e: v for e, c in u.terms.items() if keep(e)
                                          for m, v in c.terms.items()})


def gr_symbol(u):
    """Top filtration part, generators replaced by commuting symbols."""
    top = filtration_degree(u)
    return reference_symbol(u, lambda e: sum(e) == top)


def test_weyl_defining_relation():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar(parse_poly(U.alg.vars, "x"))
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
                    filtration_degree(c)
                    <= filtration_degree(a) + filtration_degree(b) - 1
                )


def test_gr_symbol_examples():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar(parse_poly(U.alg.vars, "x"))
    u = x * e * e + e.scale(2)
    assert gr_symbol(u) == parse_poly(U.sym_vars, "x*e^2")
    r = parse_poly(U.alg.vars, "x^3 - 2")
    assert gr_symbol(U.scalar(r)) == parse_poly(U.sym_vars, "x^3 - 2")


def test_gr_symbol_sl2_casimir():
    U = EnvelopingAlgebra(presets.lie("sl2"))
    e, f, h = U.generator(0), U.generator(1), U.generator(2)
    cas = e * f + f * e + (h * h).scale(Fraction(1, 2))
    assert gr_symbol(cas) == parse_poly(U.sym_vars, "2*e*f") + \
        parse_poly(U.sym_vars, "h^2").scale(Fraction(1, 2))


def test_gr_symbol_multiplicative_on_top_degree():
    rng = random.Random(11)
    U = EnvelopingAlgebra(presets.weyl(2))
    for _ in range(8):
        a, b = rand_uea(rng, U), rand_uea(rng, U)
        if a.is_zero() or b.is_zero():
            continue
        assert gr_symbol(a * b) == gr_symbol(a) * gr_symbol(b)


def pbw_section(alg, conn=None):
    """The enveloping algebra of alg and the PBW section of symbols into it,
    from tower level 0: on a symbol monomial of generator degree q the tower
    is q! times the section, so c*mono gives c/q! times the tower on mono."""
    ctx = EtaContext(alg, conn)
    n = len(alg.vars)

    def pb(sym):
        out = ctx.U.zero()
        for exp, c in sym.terms.items():
            mono = Multivector(ctx.P, 0, {(): Polynomial.monomial(ctx.P.vars, exp, 1)})
            out = out + tower_eval(ctx, (), mono, ()).scale(
                Fraction(c, math.factorial(sum(exp[n:]))))
        return out

    return ctx.U, pb


def test_pbw_base_cases():
    U, pb = pbw_section(presets.weyl(1))
    assert pb(parse_poly(U.sym_vars, "e")) == U.generator(0)
    assert pb(parse_poly(U.sym_vars, "x^2 - 3")) == U.scalar(parse_poly(U.alg.vars, "x^2 - 3"))


def test_pbw_weyl_squares():
    U, pb = pbw_section(presets.weyl(1))
    e = U.generator(0)
    assert pb(parse_poly(U.sym_vars, "e^2")) == e * e
    assert pb(parse_poly(U.sym_vars, "x*e^2")) == U.scalar(parse_poly(U.alg.vars, "x")) * e * e


@pytest.mark.parametrize("maker", [
    lambda: presets.weyl(1),
    lambda: presets.lie("sl2"),
    lambda: presets.semidirect_sl2(),
])
def test_pbw_is_a_section_of_the_symbol(maker):
    U, pb = pbw_section(maker())
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
            assert gr_symbol(lifted) == piece


def test_pbw_respects_ring_multiplication_trivial_connection():
    rng = random.Random(17)
    U, pb = pbw_section(presets.weyl(2))
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
    table = [[alg.element([parse_poly(alg.vars, "x")])]]
    U, pb = pbw_section(alg, Connection(alg, table))
    m = parse_poly(U.sym_vars, "e^2")
    lifted = pb(m)
    assert gr_symbol(lifted) == m


def test_center_weyl():
    U = EnvelopingAlgebra(presets.weyl(1))
    basis = center_search(U, 4, 6)
    assert len(basis) == 1
    assert filtration_degree(basis[0]) == 0
    assert basis[0].terms[(0,)].total_degree() == 0


def test_center_sl2_has_casimir():
    U = EnvelopingAlgebra(presets.lie("sl2"))
    basis = center_search(U, 2, 2)
    assert len(basis) == 2
    e, f, h = U.generator(0), U.generator(1), U.generator(2)
    for u in basis:
        for g in (e, f, h):
            assert u.commutator(g).is_zero()
    assert any(filtration_degree(u) == 2 for u in basis)


def test_center_abelian_everything():
    U = EnvelopingAlgebra(presets.lie("abelian2"))
    basis = center_search(U, 2, 2)
    # all of Sym^{<=2}(Q^2): 1, a, b, a^2, ab, b^2
    assert len(basis) == 6


# -- degree-one extensions ------------------------------------------------------


class CocycleError(Exception):
    pass


class DerivationExtension:
    """Extend a compatible pair (values on ring generators, values on module
    generators) to a derivation of the enveloping algebra.

    The pair must satisfy the generator-level cocycle equations; failures
    raise CocycleError naming the offending equation.
    """

    def __init__(self, U: EnvelopingAlgebra, phi0: dict[str, UEAElement],
                 phi1: dict[str, UEAElement]):
        self.U = U
        alg = U.alg
        self.phi0 = {v: phi0.get(v, U.zero()) for v in alg.vars}
        self.phi1 = {b: phi1.get(b, U.zero()) for b in alg.basis}
        self._check()

    # phi0 on an arbitrary ring element, by the cocycle rule on monomials
    def phi0_apply(self, f: Polynomial) -> UEAElement:
        U = self.U
        alg = U.alg
        out = U.zero()
        for exp, c in f.terms.items():
            gens = [u for u in range(len(alg.vars)) for _ in range(exp[u])]
            for t in range(len(gens)):
                pre = Polynomial.monomial(alg.vars, _exp_of(gens[:t], len(alg.vars)), 1)
                post = Polynomial.monomial(alg.vars, _exp_of(gens[t + 1:], len(alg.vars)), 1)
                term = U.scalar(pre) * self.phi0[alg.vars[gens[t]]] * U.scalar(post)
                out = out + term.scale(c)
        return out

    def phi1_apply(self, x: LElement) -> UEAElement:
        U = self.U
        alg = U.alg
        out = U.zero()
        for k, f in enumerate(x.coeffs):
            if f.is_zero():
                continue
            out = out + U.scalar(f) * self.phi1[alg.basis[k]]
            gen = U.generator(k)
            out = out + self.phi0_apply(f) * gen
        return out

    def _check(self):
        U = self.U
        alg = U.alg
        # well-definedness of phi0 on the commutative ring
        for u, v in itertools.combinations(range(len(alg.vars)), 2):
            xu = U.scalar(Polynomial.variable(alg.vars, alg.vars[u]))
            xv = U.scalar(Polynomial.variable(alg.vars, alg.vars[v]))
            lhs = xu.commutator(self.phi0[alg.vars[v]])
            rhs = xv.commutator(self.phi0[alg.vars[u]])
            if lhs != rhs:
                raise CocycleError(
                    f"ring cocycle symmetry fails on ({alg.vars[u]}, {alg.vars[v]})"
                )
        # mixed equation on generators
        for k in range(alg.rank):
            ek = U.generator(k)
            for u, vname in enumerate(alg.vars):
                xu = U.scalar(Polynomial.variable(alg.vars, vname))
                lhs = ek.commutator(self.phi0[vname]) - self.phi0_apply(
                    alg.anchor[k](Polynomial.variable(alg.vars, vname))
                )
                rhs = xu.commutator(self.phi1[alg.basis[k]])
                if lhs != rhs:
                    raise CocycleError(
                        f"mixed cocycle equation fails on ({alg.basis[k]}, {vname})"
                    )
        # Lie cocycle equation on generator pairs
        for i, j in itertools.combinations(range(alg.rank), 2):
            ei, ej = U.generator(i), U.generator(j)
            lhs = (
                ei.commutator(self.phi1[alg.basis[j]])
                - ej.commutator(self.phi1[alg.basis[i]])
                - self.phi1_apply(alg.basis_bracket(i, j))
            )
            if not lhs.is_zero():
                raise CocycleError(
                    f"module cocycle equation fails on ({alg.basis[i]}, {alg.basis[j]})"
                )

    def __call__(self, u: UEAElement) -> UEAElement:
        U = self.U
        alg = U.alg
        out = U.zero()
        for gexp, c in u.terms.items():
            gens = [k for k in range(alg.rank) for _ in range(gexp[k])]
            head = self.phi0_apply(c)
            tail = U.monomial(Polynomial.const(alg.vars, 1), gexp)
            out = out + head * tail
            for t in range(len(gens)):
                pre = U.monomial(c, _exp_of(gens[:t], alg.rank))
                post = U.monomial(Polynomial.const(alg.vars, 1), _exp_of(gens[t + 1:], alg.rank))
                out = out + pre * self.phi1[alg.basis[gens[t]]] * post
        return out


def _exp_of(gens: list[int], size: int) -> tuple[int, ...]:
    exp = [0] * size
    for g in gens:
        exp[g] += 1
    return tuple(exp)


def test_extend_derivation_inner():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar(parse_poly(U.alg.vars, "x"))
    u0 = x * e + e * e
    D = DerivationExtension(U, {"x": u0.commutator(x)}, {"e": u0.commutator(e)})
    rng = random.Random(19)
    for _ in range(8):
        a = rand_uea(rng, U)
        assert D(a) == u0.commutator(a)


def test_extend_derivation_lowering():
    U = EnvelopingAlgebra(presets.weyl(1))
    e, x = U.generator(0), U.scalar(parse_poly(U.alg.vars, "x"))
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

    rng = random.Random(29)
    for maker in (presets.weyl(1), presets.lie("sl2"), presets.semidirect_sl2()):
        U, pb = pbw_section(maker)
        P = SymAlgebra(maker)
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
            got = reference_symbol(comm, lambda e: sum(e) == top)
            assert got == reference_symbol_bracket(P, a, b)


# -- the product against the generator-by-generator normal ordering -------------


def reference_mul(a, b):
    """a * b rewritten one generator letter at a time, right to left: each
    e_i is moved through b by e_i r = r e_i + rho_i(r) and
    e_i e_j = e_j e_i + [e_i, e_j] for i > j, on whole polynomials."""
    U = a.parent
    alg = U.alg
    memo = {}

    def add(terms, exp, coeff):
        s = terms.get(exp, alg.zero_poly()) + coeff
        if s.is_zero():
            terms.pop(exp, None)
        else:
            terms[exp] = s

    def gen_times_monomial(i, beta):
        if (i, beta) not in memo:
            first = next((j for j, x in enumerate(beta) if x), None)
            if first is None or i <= first:
                exp = list(beta)
                exp[i] += 1
                out = {tuple(exp): Polynomial.const(alg.vars, 1)}
            else:
                rest = tuple(x - (j == first) for j, x in enumerate(beta))
                out = gen_times_element(first, gen_times_monomial(i, rest))
                for l, f in enumerate(alg.structure_vector(i, first)):
                    if not f.is_zero():
                        for exp, c in gen_times_monomial(l, rest).items():
                            add(out, exp, f * c)
            memo[i, beta] = out
        return memo[i, beta]

    def gen_times_element(i, terms):
        out = {}
        for beta, g in terms.items():
            for exp, c in gen_times_monomial(i, beta).items():
                add(out, exp, g * c)
            add(out, beta, alg.anchor[i](g))
        return out

    out = {}
    for alpha, f in a.terms.items():
        piece = dict(b.terms)
        for k in reversed([k for k in range(len(alpha)) for _ in range(alpha[k])]):
            piece = gen_times_element(k, piece)
        for exp, c in piece.items():
            add(out, exp, f * c)
    return UEAElement(U, out)


def rand_fraction_poly(rng, U, max_deg=2):
    """A multi-term ring element whose coefficients include Fractions."""
    c = Polynomial.zero(U.alg.vars)
    for _ in range(rng.randint(1, 3)):
        xexp = tuple(rng.randint(0, max_deg) for _ in U.alg.vars)
        c = c + Polynomial.monomial(U.alg.vars, xexp,
                                    rng.choice([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)]))
    return c


def rand_fraction_uea(rng, U, max_fil=3):
    """Several generator words, each with a rand_fraction_poly coefficient."""
    out = U.zero()
    for _ in range(rng.randint(1, 4)):
        gexp = [0] * U.alg.rank
        for _ in range(rng.randint(0, max_fil)):
            gexp[rng.randrange(U.alg.rank)] += 1
        out = out + U.monomial(rand_fraction_poly(rng, U), tuple(gexp))
    return out


@pytest.mark.parametrize("spec", BUILTINS)
def test_product_matches_the_generator_by_generator_reference(spec):
    U, pb = pbw_section(presets.builtin(spec))
    rng = random.Random(31)
    saw_fraction = False
    for _ in range(12):
        a, b = rand_fraction_uea(rng, U), rand_fraction_uea(rng, U)
        got = a * b
        assert got == reference_mul(a, b)
        for c in got.terms.values():
            assert not c.is_zero()
            assert all(v.__class__ is int or v.denominator != 1 for v in c.terms.values())
            saw_fraction |= any(v.__class__ is Fraction for v in c.terms.values())
    assert saw_fraction
    # products of PBW lifts and scalar factors on either side
    for _ in range(4):
        a, b = pb(rand_sym(rng, U)), pb(rand_sym(rng, U))
        r = U.scalar(rand_fraction_poly(rng, U))
        for x, y in [(a, b), (r, a), (b, r)]:
            assert x * y == reference_mul(x, y)


def non_constant_bracket():
    """[d/dx, x^2 d/dx + d/dy] = 2x d/dx: no builtin has a non-constant
    structure function."""
    vars = ("x", "y")
    fields = (PolyDerivation(vars, [parse_poly(vars, "1"), parse_poly(vars, "0")]),
              PolyDerivation(vars, [parse_poly(vars, "x^2"), parse_poly(vars, "1")]))
    alg = LieRinehartAlgebra(vars, ("X", "Y"), fields, {
        (0, 1): (parse_poly(vars, "2*x"), Polynomial.zero(vars))})
    assert check_axioms(alg).ok
    return alg


def test_product_matches_the_reference_on_a_non_constant_bracket():
    alg = non_constant_bracket()
    assert alg.structure == {(0, 1): (parse_poly(alg.vars, "2*x"), alg.zero_poly())}
    U = EnvelopingAlgebra(alg)
    rng = random.Random(37)
    for _ in range(10):
        a, b = rand_fraction_uea(rng, U, max_fil=4), rand_fraction_uea(rng, U, max_fil=4)
        assert a * b == reference_mul(a, b)
    X, Y = U.generator(0), U.generator(1)
    assert Y * X == X * Y - U.scalar(parse_poly(U.alg.vars, "2*x")) * X


@pytest.mark.parametrize("spec", BUILTINS + ["non-constant bracket"])
def test_generator_times_generator_monomial_matches_the_reference(spec):
    # the commutation case of the normal-form recursion, e_k * e^beta
    alg = non_constant_bracket() if spec == "non-constant bracket" else presets.builtin(spec)
    U = EnvelopingAlgebra(alg)
    one, zero = Polynomial.const(alg.vars, 1), (0,) * len(alg.vars)
    for k in range(alg.rank):
        unit = tuple(int(i == k) for i in range(alg.rank))
        for beta in exponents((1,) * alg.rank, 3):
            want = reference_mul(U.generator(k), U.monomial(one, beta))
            assert UEAElement._of(U, U._ex(unit, zero, beta)) == want, (k, beta)


@pytest.mark.parametrize("spec,fil,weight", [
    ("weyl(1)", 2, 4), ("lie(sl2)", 2, 2), ("lie(abelian2)", 2, 2),
])
def test_center_commutators_match_the_reference(spec, fil, weight):
    U = EnvelopingAlgebra(presets.builtin(spec))
    gens = [U.scalar(Polynomial.variable(U.alg.vars, v)) for v in U.alg.vars]
    gens += [U.generator(k) for k in range(U.alg.rank)]
    for u in center_search(U, fil, weight):
        for g in gens:
            assert reference_mul(u, g) == reference_mul(g, u)
            assert u.commutator(g).is_zero()


def test_scale_by_zero_and_nonzero_factors():
    U = EnvelopingAlgebra(presets.weyl(2))
    rng = random.Random(41)
    a = rand_fraction_uea(rng, U)
    for zero in (0, Fraction(0)):
        got = a.scale(zero)
        assert got.is_zero() and got == U.zero()
    for f in (3, Fraction(-1, 2)):
        got = a.scale(f)
        assert set(got.terms) == set(a.terms)
        for e, c in a.terms.items():
            assert got.terms[e] == c.scale(f)
            assert not got.terms[e].is_zero()
        assert got == U.scalar(Polynomial.const(U.alg.vars, f)) * a
    # a ring factor multiplies through the product, not through scale
    f = parse_poly(U.alg.vars, "x1*x2 - 2*x2")
    got = U.scalar(f) * a
    assert dict(got.terms) == {e: f * c for e, c in a.terms.items()}
    with pytest.raises(TypeError, match="not an exact coefficient"):
        a.scale(f)


# -- the flat storage against references on the terms view ----------------------


def assert_canonical(u):
    """No zero coefficient is stored and integral Fractions are ints."""
    for (m, e), c in u.flat.items():
        assert len(m) == len(u.parent.alg.vars) and len(e) == u.parent.alg.rank
        assert c != 0 and (c.__class__ is int or c.denominator != 1), c


def reference_combination(pairs):
    """sum of sign * x over (sign, x), on {generator exponent: Polynomial}."""
    out = {}
    for sign, x in pairs:
        for e, c in x.terms.items():
            s = out.get(e, Polynomial.zero(c.vars)) + c.scale(sign)
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def reference_repr(u):
    if not u.terms:
        return "0"
    parts = []
    for e, c in sorted(u.terms.items(), key=lambda t: (sum(t[0]), t[0])):
        gens = "*".join(f"{name}^{a}" if a > 1 else name
                        for name, a in zip(u.parent.alg.basis, e) if a)
        parts.append(f"({c})*{gens}" if gens else f"({c})")
    return " + ".join(parts)


@pytest.mark.parametrize("spec", BUILTINS + ["lie(abelian2)"])
def test_flat_storage_matches_the_terms_view(spec):
    U = EnvelopingAlgebra(presets.builtin(spec))
    rng = random.Random(43)
    half = Fraction(1, 2)
    cancelled = integral = 0
    for _ in range(10):
        a = rand_fraction_uea(rng, U)
        # b shares terms with a, so a + b and a - b cancel in part
        b = rand_fraction_uea(rng, U) + a.scale(rng.choice([-1, 1, half]))
        assert UEAElement(U, a.terms) == a
        cases = [
            (a + b, [(1, a), (1, b)]),
            (a - b, [(1, a), (-1, b)]),
            (a.scale(-1), [(-1, a)]),
            (a - a, []),
            (a + a.scale(-1), []),
            (a.scale(half) + a.scale(half), [(1, a)]),
        ]
        for got, pairs in cases:
            assert_canonical(got)
            want = UEAElement(U, reference_combination(pairs))
            assert got == want
            assert got.terms == want.terms
            cancelled += got.is_zero() or len(got.flat) < sum(len(x.flat) for _, x in pairs)
        halved = a.scale(half)
        integral += any(halved.flat[k].__class__ is Fraction and c.__class__ is int
                        for k, c in (halved + halved).flat.items())
        f = rand_fraction_poly(rng, U)
        for factor in (3, -1, Fraction(2, 3), half):
            got = a.scale(factor)
            assert_canonical(got)
            assert got == UEAElement(U, {e: c.scale(factor) for e, c in a.terms.items()})
        got = U.scalar(f) * a
        assert_canonical(got)
        assert got == UEAElement(U, {e: f * c for e, c in a.terms.items()})
        assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == a
        for u in (a, b, a + b, a - a):
            assert repr(u) == reference_repr(u)
    assert cancelled and integral


def test_terms_view_is_read_only():
    u = EnvelopingAlgebra(presets.weyl(1)).generator(0)
    t = u.terms
    (e, c), = t.items()
    with pytest.raises(TypeError):
        t[e] = c + c
    assert repr(u) == "(1)*e"


# -- the triple memo against references that do not use it ----------------------


def rand_word_uea(rng, U):
    """Terms c x^m e^alpha, each with at least one generator letter."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        gexp = [0] * U.alg.rank
        for _ in range(rng.randint(1, 3)):
            gexp[rng.randrange(U.alg.rank)] += 1
        terms[tuple(gexp)] = rand_fraction_poly(rng, U)
    return terms


@pytest.mark.parametrize("spec", BUILTINS + ["lie(abelian2)"])
def test_products_do_not_depend_on_the_memo_state(spec):
    alg = presets.builtin(spec)
    rng = random.Random(47)
    U = EnvelopingAlgebra(alg)
    pairs = [(rand_word_uea(rng, U), rand_word_uea(rng, U)) for _ in range(6)]
    others = [(rand_word_uea(rng, U), rand_word_uea(rng, U)) for _ in range(6)]
    fresh = [UEAElement(U, a) * UEAElement(U, b) for a, b in pairs]
    # a second algebra whose triple memo other products, the swapped ones
    # among them, fill first; then the same products in reverse order
    V = EnvelopingAlgebra(alg)
    for a, b in others + [(b, a) for a, b in pairs]:
        UEAElement(V, a) * UEAElement(V, b)
    assert V._ex_cache
    filled = [UEAElement(V, a) * UEAElement(V, b) for a, b in reversed(pairs)][::-1]
    for (a, b), x, y in zip(pairs, fresh, filled):
        assert x == reference_mul(UEAElement(U, a), UEAElement(U, b))
        assert y == reference_mul(UEAElement(V, a), UEAElement(V, b))
        # a signed accumulation on the filled memo
        assert V.collect(V.add_product({}, UEAElement(V, a).flat, UEAElement(V, b).flat,
                                       -1)) == y.scale(-1)


@pytest.mark.parametrize("spec", BUILTINS)
def test_each_pair_of_terms_builds_its_rows_once(monkeypatch, spec):
    alg = presets.builtin(spec)
    rng = random.Random(53)
    U = EnvelopingAlgebra(alg)
    assert U._pair_rows == {}
    pairs = [(rand_fraction_uea(rng, U), rand_fraction_uea(rng, U)) for _ in range(6)]
    pairs += [(b, a) for a, b in pairs]
    products = [a * b for a, b in pairs]
    assert {(ka, kb) for ka, by_b in U._pair_rows.items() for kb in by_b} == \
        {(ka, kb) for a, b in pairs for ka in a.flat for kb in b.flat}
    calls = []
    ex = EnvelopingAlgebra._ex
    monkeypatch.setattr(EnvelopingAlgebra, "_ex", lambda self, *t: calls.append(t) or ex(self, *t))
    for (a, b), ab in zip(pairs, products):
        assert ab == reference_mul(a, b)
        assert U.collect(U.add_product({}, a.flat, b.flat, Fraction(-1, 3))) == \
            ab.scale(Fraction(-1, 3))
    assert calls == []
    # the rows live on the algebra: a new one starts with none and builds its own
    V = EnvelopingAlgebra(alg)
    assert V._pair_rows == {} and V._ex_cache == {}
    a, b = (UEAElement._of(V, u.flat) for u in pairs[0])
    assert (a * b).flat == products[0].flat and calls


@pytest.mark.parametrize("spec", ["weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)",
                                  "lie(abelian2)"])
@pytest.mark.parametrize("fil,weight", [(2, 4), (3, 6)])
def test_center_dimension_matches_the_poisson_center_of_symbols(spec, fil, weight):
    """The center found by products in U(L) against the degree-zero Poisson
    cohomology of the symbols, the kernel of f -> ({x_a, f})_a, on the symbol
    monomials of generator degree <= fil and weight <= weight."""
    alg = presets.builtin(spec)
    P = SymAlgebra(alg)
    gen_w = [alg.generator_weight(k) for k in range(alg.rank)]
    monos = [x + g for g in exponents(gen_w, weight) if sum(g) <= fil
             for x in exponents(alg.var_weights(),
                                weight - sum(a * w for a, w in zip(g, gen_w)))]

    def image(e):
        f = Polynomial.monomial(P.vars, e, 1)
        for a in range(P.N):
            for exp, c in P.coordinate_action(a, f).terms.items():
                yield (a, exp), c

    kernel, _ = kernel_and_rank(assemble(monos, image)[0])
    assert len(center_search(EnvelopingAlgebra(alg), fil, weight)) == len(kernel)


# -- the accumulator -------------------------------------------------------------


@pytest.mark.parametrize("spec", ["weyl(2)", "semidirect(sl2,std)", "lie(sl2)"])
def test_accumulated_products_and_sums_are_canonical(spec):
    alg = presets.builtin(spec)
    U = EnvelopingAlgebra(alg)
    rng = random.Random(61)
    half = Fraction(1, 2)
    for _ in range(6):
        a, b, c = (rand_fraction_uea(rng, U) for _ in range(3))
        ab = reference_mul(a, b)
        # terms that cancel leave no key, even on a map that held others
        acc = U.add_product(U.add_sum({}, c.flat), a.flat, b.flat)
        U.add_product(acc, a.flat, b.flat, -1)
        assert U.collect(U.add_sum(acc, c.flat, -1)).flat == {}
        # signs and Fraction factors, on products and on sums
        for s in (-1, Fraction(2, 3), half):
            got = U.collect(U.add_product({}, a.flat, b.flat, s))
            assert_canonical(got)
            assert got == ab.scale(s)
            got = U.collect(U.add_sum(U.add_product({}, a.flat, b.flat), c.flat, s))
            assert_canonical(got)
            assert got == ab + c.scale(s)
        # halves that sum to integers are stored as ints
        whole = U.collect(U.add_sum(U.add_sum({}, a.flat, half), a.flat, half))
        assert whole.flat == a.flat
        assert all(v.__class__ is int for k, v in whole.flat.items() if a.flat[k].__class__ is int)
        doubled = U.collect(U.add_product({}, a.scale(half).flat, b.scale(2).flat))
        assert doubled.flat == ab.flat
        assert all(v.__class__ is int for k, v in doubled.flat.items()
                   if ab.flat[k].__class__ is int)

