"""Quasi-module structures: complexes with ring and module actions compatible
only up to explicit homotopies, their nonlinear Chevalley-Eilenberg cochains,
and exact CE cohomology for honest modules.

Two instances are provided: the adjoint one (multivectors with base-direction
legs over the symbol algebra) and the Hochschild one (ring cochains valued in
the enveloping algebra).  All laws are verified pointwise with seeded inputs.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .cochain import (
    CapExceededError,
    TableCochain,
    cochain_equal,
    hochschild_b,
    homotopy,
    lie_action,
    monomial_tuples,
    r_action,
    zero_cochain,
)
from .lie_rinehart import (CheckReport, Connection, LElement, LieRinehartAlgebra, bracket_extend,
                           seeded_check)
from .linalg import ComplexSlice, assemble_slice, cohomology_dims
from .poisson import Multivector, SymAlgebra, _apply_plan, _lowered, cochain_table
from .poly import (Polynomial, PolyDerivation, alternating_value, ce_terms, exponents, insert_leg,
                   leg_basis, multilinear_terms, sort_with_sign)
from .uea import EnvelopingAlgebra

LArg = tuple[tuple[int, ...], int]  # (ring monomial exponent, generator index)


class NonlinearRejection(Exception):
    pass


# -- adjoint-side elementary operators ----------------------------------------


def adj_delta(P: SymAlgebra, v: Multivector) -> Multivector:
    """Koszul differential: the derivation g_a -> sum_u rho_a(x_u) d/dx_u."""
    return v.derive(v.degree + 1, lambda a: None if a < P.n else Multivector(
        P, 1, {(u,): P.lift(im) for u, im in enumerate(P.alg.anchor[a - P.n].images)}),
        lambda u: None)


def adj_lie(P: SymAlgebra, X: LElement, v: Multivector) -> Multivector:
    """The bracket with the symbol of X: the derivation x_a -> {X, x_a} on
    coefficients, with the commutator [rho(X), d/dx_u] in place of each leg u."""
    xsym, rho = P.element_symbol(X), X.anchor_derivation()
    return v.derive(v.degree, lambda a: Multivector(P, 0, {(): -P.coordinate_action(a, xsym)}),
                    lambda u: rho.commutator(P.alg.coordinate_field(P.alg.vars[u])))


def adj_h(P: SymAlgebra, r: Polynomial, X: LElement, v: Multivector) -> Multivector:
    """Leg-lowering homotopy: contract a leg with dr and multiply by X."""
    return v.interior(P.lift(r)).scale(P.element_symbol(X))


def adj_r_action(P: SymAlgebra, r: Polynomial, v: Multivector) -> Multivector:
    return v.scale(P.lift(r))


def replace_legs_and_factors(P: SymAlgebra, v: Multivector, leg_map, factor_map) -> Multivector:
    """Derivation-style operator: replace one leg u by the derivation
    leg_map(u), or one symbol factor g_a by the symbol of the module element
    factor_map(a), one at a time, coefficients untouched."""
    return v.derive(v.degree, lambda a: None if a < P.n else Multivector(
        P, 0, {(): P.element_symbol(factor_map(a - P.n))}), leg_map)


def adj_nabla_b(P: SymAlgebra, conn: Connection, X: LElement, v: Multivector) -> Multivector:
    """The induced connection along X: the derivation x_u -> rho(X)(x_u),
    g_a -> the symbol of the connection along X on e_a, and the connection
    along X in place of each leg."""
    alg, rho = P.alg, X.anchor_derivation()

    def coordinate_image(a):
        f = P.lift(rho.images[a]) if a < P.n else P.element_symbol(
            conn.basic_l(X, alg.basis_element(a - P.n)))
        return Multivector(P, 0, {(): f})

    return v.derive(v.degree, coordinate_image,
                    lambda u: conn.basic_der(X, alg.coordinate_field(alg.vars[u])))


# -- instances ------------------------------------------------------------------


class QuasiModuleInstance(NamedTuple):
    """Operator bundle: differential, two actions, and the homotopy."""

    d: Callable
    r_act: Callable
    lie: Callable
    h: Callable
    equal: Callable
    random_element: Callable
    degrees: tuple[int, ...]
    zero: Callable
    sym: SymAlgebra | None = None
    uea: EnvelopingAlgebra | None = None


def adjoint_instance(alg: LieRinehartAlgebra) -> QuasiModuleInstance:
    """Multivectors with base legs; the differential is minus the Koszul one."""
    P = SymAlgebra(alg)

    def rand(rng: random.Random, degree: int) -> Multivector:
        terms = {}
        for legs in itertools.combinations(range(P.n), degree):
            if rng.random() < 0.8:
                exp = tuple(rng.randint(0, 2) for _ in range(P.N))
                if sum(exp) > 3:
                    exp = tuple(0 for _ in range(P.N))
                terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-2, -1, 1, 2]))
        return Multivector(P, degree, terms)

    return QuasiModuleInstance(
        d=lambda v: -adj_delta(P, v),
        r_act=lambda r, v: adj_r_action(P, r, v),
        lie=lambda X, v: adj_lie(P, X, v),
        h=lambda r, X, v: adj_h(P, r, X, v),
        equal=lambda a, b: a.flat == b.flat,
        random_element=rand,
        degrees=tuple(range(0, P.n + 1)),
        zero=lambda degree: Multivector(P, max(degree, 0)),
        sym=P,
    )


def hochschild_instance(alg: LieRinehartAlgebra) -> QuasiModuleInstance:
    """Ring cochains with enveloping-algebra values; differential raises arity.
    A random cochain has a random value on each monomial tuple of degree <= 3."""
    U = EnvelopingAlgebra(alg)

    def rand(rng: random.Random, arity: int) -> TableCochain:
        table = {}
        for exps in monomial_tuples(len(alg.vars), arity, 3):
            out = U.zero()
            for _ in range(2):
                g = [0] * alg.rank
                # no generator to draw on an empty basis
                for _ in range(rng.randint(0, 2) if alg.rank else 0):
                    g[rng.randrange(alg.rank)] += 1
                c = Polynomial.monomial(
                    alg.vars, tuple(rng.randint(0, 1) for _ in alg.vars),
                    rng.choice([-2, -1, 1, 2]),
                )
                out = out + U.monomial(c, tuple(g))
            table[exps] = out
        # generous backing cap: the laws compose several operators
        return TableCochain.from_table(U, arity, table, cap=63)

    return QuasiModuleInstance(
        d=hochschild_b,
        r_act=r_action,
        lie=lie_action,
        h=homotopy,
        equal=cochain_equal,
        random_element=rand,
        degrees=(0, 1, 2),
        zero=lambda degree: zero_cochain(U, degree),
        uea=U,
    )


# -- the law harness --------------------------------------------------------------


def _rand_poly(rng, alg):
    exp = tuple(rng.randint(0, 1) for _ in alg.vars)
    if sum(exp) > 2:
        exp = tuple(0 for _ in alg.vars)
    return Polynomial.monomial(alg.vars, exp, rng.choice([-2, -1, 1, 2]))


def _rand_lelement(rng, alg):
    return alg.element([_rand_poly(rng, alg) for _ in range(alg.rank)])


def quasi_axiom_check(inst: QuasiModuleInstance, alg: LieRinehartAlgebra,
                      trials: int = 100, seed: int = 0) -> CheckReport:
    """Pointwise verification of the six compatibility laws on seeded inputs.
    Each trial builds d(m), r*m, lie(X, m), r*lie(X, m) and h(r, X, m) once
    and shares them between the laws that use them."""
    def trial(rng, t):
        degree = rng.choice(inst.degrees)
        m = inst.random_element(rng, degree)
        r = _rand_poly(rng, alg)
        X = _rand_lelement(rng, alg)
        Y = _rand_lelement(rng, alg)
        dm, rm, lx, hx = inst.d(m), inst.r_act(r, m), inst.lie(X, m), inst.h(r, X, m)
        rlx = inst.r_act(r, lx)

        def law(label, a, b):
            return None if inst.equal(a, b) else f"{label} fails (degree {degree}, r={r}, X={X})"

        return [w for w in (
            law("d o d = 0", inst.d(dm), inst.zero(degree + 2)),
            law("d o r = r o d", inst.d(rm), inst.r_act(r, dm)),
            law("d o lie = lie o d", inst.d(lx), inst.lie(X, dm)),
            law("Leibniz", inst.lie(X, rm), rlx + inst.r_act(X.anchor_derivation()(r), m)),
            law("scaled action homotopy", inst.lie(X.scale(r), m),
                rlx + inst.h(r, X, dm) + inst.d(hx)),
            law("homotopy equivariance", inst.lie(Y, hx),
                inst.h(r, X, inst.lie(Y, m)) + inst.h(Y.anchor_derivation()(r), X, m)
                + inst.h(r, bracket_extend(Y, X), m)),
        ) if w]

    return seeded_check(trials, seed, trial)


# -- nonlinear cochains ------------------------------------------------------------


def _larg_element(alg: LieRinehartAlgebra, arg: LArg) -> LElement:
    exp, a = arg
    coeffs = [Polynomial.zero(alg.vars) for _ in range(alg.rank)]
    coeffs[a] = Polynomial.monomial(alg.vars, exp, 1)
    return LElement(alg, tuple(coeffs))


def _larg_terms(Y: LElement) -> list[tuple[LArg, int | Fraction]]:
    """Y as (monomial argument, constant coefficient) pairs."""
    return [((exp, a), c) for a, f in enumerate(Y.coeffs) for exp, c in f.terms.items()]


class NLCochainElement:
    """Tuple (phi_0.., phi_k): phi_i takes (k-i) module-generator arguments of
    the shape monomial*basis and returns a module element of degree i.

    Tables are only consulted within the declared cap; anything beyond raises.
    """

    def __init__(self, inst: QuasiModuleInstance, alg: LieRinehartAlgebra,
                 degree: int, cap: int, tables: list[dict]):
        self.inst = inst
        self.alg = alg
        self.degree = degree
        self.cap = cap
        self.tables = tables  # tables[i]: dict[tuple[LArg,...]] -> element

    def phi(self, i: int, largs: tuple[LArg, ...]):
        if any(sum(m) > self.cap for m, _ in largs):
            raise CapExceededError(f"argument tuple {largs} beyond cap {self.cap}")
        return self.tables[i].get(tuple(largs))

    def evaluate(self, i: int, args: list[LElement]):
        """Multilinear (over the constants) evaluation of phi_i."""
        out = self.inst.zero(i)
        for largs, coeff in multilinear_terms([_larg_terms(arg) for arg in args]):
            sorted_largs, sign = sort_with_sign(largs, key=lambda a: (a[1], a[0]))
            if not sign:
                continue
            v = self.phi(i, sorted_largs)
            if v is not None:
                out = out + v.scale(coeff * sign)
        return out


def _largs_universe(alg: LieRinehartAlgebra, cap: int) -> list[LArg]:
    monos = exponents((1,) * len(alg.vars), cap)
    return [(m, a) for a in range(alg.rank) for m in monos]


def total_at(el: NLCochainElement | LinearCECochain, i: int, elems: list[LElement]):
    """Column i of the total differential at one argument tuple: the
    alternating action/bracket sum on the arguments plus (-1)^{argument count}
    times the module differential of the previous column.  The action is
    `el.inst.lie`, so a linear cochain gets its covariant derivative here."""
    inst = el.inst
    total = inst.zero(i)
    for sign, term in ce_terms(
        elems,
        lambda x, rest: inst.lie(x, el.evaluate(i, rest)),
        lambda x, y, rest: el.evaluate(i, [bracket_extend(x, y)] + rest),
    ):
        total = total + term.scale(sign)
    if i >= 1:
        total = total + inst.d(el.evaluate(i - 1, elems)).scale(1 if len(elems) % 2 == 0 else -1)
    return total


def nl_ce_apply(el: NLCochainElement, out_cap: int | None = None) -> NLCochainElement:
    """The total differential, tabulated on the generator tuples within the
    output cap."""
    alg = el.alg
    k = el.degree
    cap = el.cap if out_cap is None else out_cap
    universe = _largs_universe(alg, cap)
    tables = [{largs: total_at(el, i, [_larg_element(alg, a) for a in largs])
               for largs in itertools.combinations(universe, k + 1 - i)}
              for i in range(k + 2)]
    return NLCochainElement(el.inst, alg, k + 1, cap, tables)


def peeled_value(el: NLCochainElement, i: int, elems: list[LElement], r: Polynomial):
    """r*phi_i(elems) + h_{r,Y}(phi_{i+1}(elems without Y)), Y the last
    argument: the nonlinearity constraint says this is phi_i at elems with Y
    replaced by r*Y."""
    inst = el.inst
    return (inst.r_act(r, el.evaluate(i, elems))
            + inst.h(r, elems[-1], el.evaluate(i + 1, elems[:-1])))


def nl_membership(el: NLCochainElement) -> bool:
    """The nonlinearity constraint tying consecutive tables through the
    homotopy, checked on generator tuples within the cap."""
    alg = el.alg
    k = el.degree
    variables = [
        Polynomial.variable(alg.vars, v) for v in alg.vars
    ]
    universe = _largs_universe(alg, el.cap)
    for i in range(k):
        m = k - i
        for largs in itertools.combinations(universe, m):
            elems = [_larg_element(alg, a) for a in largs]
            for r in variables:
                mono_deg = sum(largs[-1][0]) + 1
                if mono_deg > el.cap:
                    continue
                if not el.inst.equal(el.evaluate(i, elems[:-1] + [elems[-1].scale(r)]),
                                     peeled_value(el, i, elems, r)):
                    return False
    return True


# -- transport between multivectors and adjoint nonlinear cochains -----------------


def _split_entry(D: Multivector, largs: tuple[LArg, ...], i: int) -> Multivector:
    """D with the generator arguments largs in its first slots, on the i base
    legs left: the table entry of multivector_to_nl at largs."""
    P = D.parent
    for arg in largs:
        D = D.interior(P.element_symbol(_larg_element(P.alg, arg)))
    return Multivector(P, i, {legs: c for legs, c in D.terms.items()
                              if all(u < P.n for u in legs)})


def multivector_to_nl(inst: QuasiModuleInstance, D: Multivector, cap: int = 1) -> NLCochainElement:
    """Split a multivector by how many base-direction legs each value keeps;
    the values live on D's parent."""
    universe = _largs_universe(D.parent.alg, cap)
    tables = [
        {largs: _split_entry(D, largs, i)
         for largs in itertools.combinations(universe, D.degree - i)}
        for i in range(D.degree + 1)
    ]
    return NLCochainElement(inst, D.parent.alg, D.degree, cap, tables)


def nl_to_multivector(el: NLCochainElement) -> Multivector:
    """Inverse of the splitting: rebuild the multivector from the
    pure-generator entries, then check every entry against it; an entry the
    multiderivation expansion of its neighbours does not give is rejected."""
    p = el.degree
    P = el.tables[p][()].parent  # the parent its entries live on
    zero_mono = tuple(0 for _ in el.alg.vars)
    terms = {}
    for i in range(p + 1):
        for gens in itertools.combinations(range(P.d), p - i):
            v = el.tables[i].get(tuple((zero_mono, a) for a in gens))
            if v is None:
                continue
            # arguments are (generators.., base legs..); sorted coordinate
            # order puts the base legs first
            sign = 1 if (i * (p - i)) % 2 == 0 else -1
            terms.update((xlegs + tuple(P.n + a for a in gens), c.scale(sign))
                         for xlegs, c in v.terms.items())
    D = Multivector(P, p, terms)
    for i, table in enumerate(el.tables):
        for largs, v in table.items():
            if v.flat != _split_entry(D, largs, i).flat:
                raise NonlinearRejection(
                    f"table entry phi_{i}{largs} is incompatible with the "
                    "multiderivation expansion of its neighbours"
                )
    return D


# -- honest-module CE cohomology ------------------------------------------------


def _ce_slice(alg: LieRinehartAlgebra, value_vars, lie_images, W: int, max_position: int,
              value_weights, gen_w, wbr: int) -> ComplexSlice:
    """CE complex slice for an honest module of polynomial type.

    lie_images[k] is the `PolyDerivation` of the values by which basis
    element k acts; values are polynomials over value_vars of weights
    value_weights.  A cochain on the generators T has weight W when its
    value has weight W + |T|*wbr + the weights gen_w of T.  The image of a
    basis cochain on T runs through `poisson._apply_plan` on T's plan,
    built once for the slice from the derivations' `.images`.
    """
    d = alg.rank
    bases = [leg_basis(gen_w, value_weights, m, W + m * wbr) for m in range(max_position + 1)]
    pad = (0,) * (len(value_vars) - len(alg.vars))  # ring exponents lifted to the values

    def plan(T):
        # the cochain x^exp on T is zero elsewhere, so only the sets S that
        # T reaches carry a term (docs/signs.md, "Chevalley-Eilenberg
        # shape"): T plus the acting leg k, whose derivation gives the rows
        # under each value coordinate b, and T minus T[q] plus a pair a < b
        # with a component along T[q], the fixed rows
        by_b: dict = {}
        for k in range(d):
            S, sign = insert_leg(T, k)
            if sign:
                for b, im in enumerate(lie_images[k].images):
                    by_b.setdefault(b, []).extend((S, _lowered(u, b), sign * v)
                                                  for u, v in im.terms.items())
        fixed: dict = {}
        for q, kk in enumerate(T):
            rest = T[:q] + T[q + 1:]
            for a, b in itertools.combinations(range(d), 2):
                with_b, s1 = insert_leg(rest, b)
                S, s2 = insert_leg(with_b, a)
                # -s1*s2 = (-1)^{i+j} for a, b at positions i < j of S, and
                # (-1)^q moves kk from the front of (kk,) + rest to T[q]
                sign = -s1 * s2 * (-1 if q % 2 else 1)
                for e, c in alg.structure_vector(a, b)[kk].terms.items() if sign else ():
                    fixed[S, e + pad] = fixed.get((S, e + pad), 0) + sign * c
        return list(by_b.items()), fixed

    plans: dict = {}  # the plan of each generator set T, for this slice
    return assemble_slice(bases, lambda key: _apply_plan(plans, plan, {key: 1}).items())


def ce_cohomology(alg: LieRinehartAlgebra, module: str, max_weight: int,
                  max_degree: int) -> dict[tuple[int, int], int]:
    """Exact CE cohomology per weight for the honest modules.

    module: "trivial" (the base ring through the anchor) or
    "sym_adjoint_lie" (symbols with the bracket action; constants base only).
    """
    if alg.weights is None:
        raise ValueError("presentation has no declared weights")
    d = alg.rank
    if module == "trivial":
        value_vars, lie_images = alg.vars, alg.anchor
        value_weights = [alg.weights[v] for v in alg.vars]
    elif module == "sym_adjoint_lie":
        if alg.vars:
            raise ValueError("sym_adjoint_lie module requires a constants base")
        P = SymAlgebra(alg)
        value_vars = P.vars
        value_weights = [alg.weights[b] for b in alg.basis]
        lie_images = [PolyDerivation(value_vars, [P.coordinate_action(P.n + k, P.coordinate(a))
                                                 for a in range(P.N)]) for k in range(d)]
    else:
        raise ValueError(f"unknown module {module!r}")

    if any(w <= 0 for w in value_weights):
        raise ValueError("module is not weight-finite")
    gen_w = [alg.generator_weight(k) for k in range(d)]
    wbr = alg.bracket_weight()
    return cochain_table(gen_w, wbr, max_weight, max_degree, lambda W, top: _ce_slice(
        alg, value_vars, lie_images, W, top, value_weights, gen_w, wbr))


# -- linear cochains and the comparison map -------------------------------------


class LinearCECochain:
    """R-multilinear cochain tuple valued in leg-graded adjoint elements.

    tables[i] maps increasing basis-index tuples of length (degree - i) to
    multivectors with i base legs; evaluation extends R-multilinearly.
    """

    def __init__(self, inst: QuasiModuleInstance, alg: LieRinehartAlgebra,
                 degree: int, tables: list[dict]):
        self.inst = inst
        self.alg = alg
        self.degree = degree
        self.tables = tables

    def evaluate(self, i: int, args: list[LElement]) -> Multivector:
        P = self.inst.sym
        out = Multivector(P, i)
        factors = [[(a, f) for a, f in enumerate(arg.coeffs) if f] for arg in args]
        for idx, coeff in multilinear_terms(factors, Polynomial.const(self.alg.vars, 1)):
            if (v := alternating_value(self.tables[i], idx)) is not None:
                out = out + v.scale(P.lift(coeff))
        return out


def linear_to_nonlinear(c: LinearCECochain, cap: int = 2) -> NLCochainElement:
    """The section of the nonlinear cochains determined by the constraint.

    Values on pure generator tuples are the given R-multilinear ones; a
    coefficient variable is peeled off the last offending argument through the
    instance homotopy, which is exactly what membership demands.  The result
    is independent of any connection.
    """
    inst, alg = c.inst, c.alg
    k = c.degree
    universe = _largs_universe(alg, cap)
    tables: list[dict] = [dict() for _ in range(k + 1)]
    out = NLCochainElement(inst, alg, k, cap, tables)

    def build(i, largs):
        cached = tables[i].get(largs)
        if cached is not None:
            return cached
        elems = [_larg_element(alg, arg) for arg in largs]
        peel = None
        for t in range(len(largs) - 1, -1, -1):
            if sum(largs[t][0]) > 0:
                peel = t
                break
        if peel is None:
            value = c.evaluate(i, elems)
        else:
            exp, a = largs[peel]
            u = next(idx for idx, e in enumerate(exp) if e > 0)
            smaller = list(exp)
            smaller[u] -= 1
            # the peeled argument moves last, past len(largs) - 1 - peel others
            reordered = [elems[t] for t in range(len(largs)) if t != peel]
            value = peeled_value(out, i, reordered + [_larg_element(alg, (tuple(smaller), a))],
                                 Polynomial.variable(alg.vars, alg.vars[u]))
            value = value.scale(1 if (len(largs) - 1 - peel) % 2 == 0 else -1)
        tables[i][largs] = value
        return value

    for i in range(k, -1, -1):
        m = k - i
        # fill by increasing coefficient degree so the recursion only looks up
        for total in range(0, cap * m + 1):
            for largs in itertools.combinations(universe, m):
                if sum(sum(e) for e, _ in largs) == total:
                    build(i, largs)
    return out


def nonlinear_to_linear(el: NLCochainElement) -> LinearCECochain:
    """Restrict to pure generator tuples (the section inverts by restriction)."""
    inst, alg = el.inst, el.alg
    k = el.degree
    zero_mono = tuple(0 for _ in alg.vars)
    tables: list[dict] = []
    for i in range(k + 1):
        table = {}
        for gens in itertools.combinations(range(alg.rank), k - i):
            largs = tuple((zero_mono, a) for a in gens)
            elems = [_larg_element(alg, arg) for arg in largs]
            table[gens] = el.evaluate(i, elems)
        tables.append(table)
    return LinearCECochain(inst, alg, k, tables)


# -- the symmetric-power structure operator --------------------------------------


def linear_structure_operator(c: LinearCECochain, conn: Connection) -> LinearCECochain:
    """Total differential on the linear side: `total_at` with the covariant
    action `adj_nabla_b` of the connection in place of the instance's, plus
    the curvature correction.  Signs follow the total convention of the
    nonlinear side (docs/signs.md)."""
    alg = c.alg
    P = c.inst.sym
    k = c.degree
    covariant = c.inst._replace(lie=lambda X, v: adj_nabla_b(P, conn, X, v))
    el = LinearCECochain(covariant, alg, k, c.tables)
    tables: list[dict] = []
    for i in range(k + 2):
        m = k + 1 - i
        table = {}
        for T in itertools.combinations(range(alg.rank), m):
            elems = [alg.basis_element(a) for a in T]
            total = total_at(el, i, elems)
            if i + 1 <= k:
                # curvature correction from the next column
                for j, l in itertools.combinations(range(m), 2):
                    rest = [elems[t] for t in range(m) if t not in (j, l)]
                    v = c.evaluate(i + 1, rest)
                    term = v.contract(lambda u: P.element_symbol(conn.basic_curvature(
                        elems[j], elems[l], alg.coordinate_field(alg.vars[u]))))
                    total = total + term.scale(1 if (j + l + m) % 2 == 0 else -1)
            table[T] = total
        tables.append(table)
    return LinearCECochain(c.inst, alg, k + 1, tables)


def ruth_check(conn: Connection, degree_cap: int = 3, seed: int = 0,
               samples: int = 4) -> CheckReport:
    """Exact check that the structure operator squares to zero on its
    generator-degree <= 1 part, the two-term adjoint complex L -> Der(R).

    Trial t of 3 * samples draws a random pair (omega_L, omega_D) of total
    degree m = t % 3, whatever `samples` is, with coefficients of degree <=
    degree_cap: the linear cochain whose column 0 is the symbol of omega_L
    and whose column 1 is the one-leg multivector sum_u omega_D(x_u) d/dx_u.
    It is pushed through the operator twice, and every basis evaluation of
    the result must vanish identically.
    """
    alg = conn.alg
    inst = adjoint_instance(alg)
    P = inst.sym

    def trial(rng, t):
        def rand_poly():
            p = alg.zero_poly()
            for _ in range(rng.randint(1, 2)):
                exp = tuple(rng.randint(0, degree_cap) for _ in alg.vars)
                if sum(exp) > degree_cap:
                    exp = tuple(0 for _ in alg.vars)
                p = p + Polynomial.monomial(alg.vars, exp, rng.choice([-2, -1, 1, 2]))
            return p

        m = t % 3
        tables: list[dict] = [{
            idx: Multivector(P, 0, {(): P.element_symbol(
                LElement(alg, tuple(rand_poly() for _ in range(alg.rank))))})
            for idx in itertools.combinations(range(alg.rank), m)
        }] + [{} for _ in range(m)]
        if m >= 1:
            tables[1] = {
                idx: Multivector(P, 1, {(u,): P.lift(rand_poly()) for u in range(P.n)})
                for idx in itertools.combinations(range(alg.rank), m - 1)
            }
        c = LinearCECochain(inst, alg, m, tables)
        square = linear_structure_operator(linear_structure_operator(c, conn), conn)
        return [f"square of the structure operator is nonzero at total degree {m}, "
                f"basis tuple {idx}: {v}"
                for table in square.tables for idx, v in table.items() if not v.is_zero()]

    return seeded_check(3 * samples, seed, trial)


def ce_cohomology_matrix_module(alg: LieRinehartAlgebra,
                                actions: list[list[list[Fraction | int]]]) -> list[int]:
    """CE cohomology of a finite-dimensional module over a constants base.

    actions[k] is the n x n matrix of the k-th generator, one per generator;
    the matrices must satisfy the bracket relations exactly.  The module is
    the linear forms in one value variable per basis vector, each generator
    acting by the derivation of its matrix: with generator and bracket
    weights 0 and value weights 1, the CE slice of weight 1.
    """
    if alg.vars:
        raise ValueError("matrix modules require a constants base")
    d = alg.rank
    dim = len(actions[0]) if actions else 0
    if len(actions) != d or dim == 0 or any(
            len(m) != dim or any(len(row) != dim for row in m) for m in actions):
        raise ValueError(f"expected {d} matrices of shape n x n (n >= 1), one per generator")
    value_vars = tuple(f"v{t}" for t in range(dim))
    unit = [(0,) * t + (1,) + (0,) * (dim - t - 1) for t in range(dim)]
    # generator k sends basis vector t to column t of its matrix
    ders = [PolyDerivation(value_vars, [
        Polynomial(value_vars, {unit[i]: Fraction(m[i][t]) for i in range(dim)})
        for t in range(dim)]) for m in actions]
    for i, j in itertools.combinations(range(d), 2):
        rhs = PolyDerivation.zero(value_vars)
        for k, c in enumerate(alg.structure_vector(i, j)):
            if cv := c.constant_value():
                rhs = rhs + ders[k].scale_by(cv)
        if ders[i].commutator(ders[j]) != rhs:
            raise ValueError(f"matrices do not represent the bracket on generators ({i}, {j})")
    return cohomology_dims(_ce_slice(alg, value_vars, ders, 1, d, [1] * dim, [0] * d, 0))
