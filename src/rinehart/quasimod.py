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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cochain import (
    CapExceededError,
    TableCochain,
    add as cochain_add,
    cochain_equal,
    hochschild_b,
    homotopy,
    lie_action,
    monomial_tuples,
    r_action,
    scale as cochain_scale,
    zero_cochain,
)
from .lie_rinehart import CheckReport, Connection, LElement, LieRinehartAlgebra, bracket_extend
from .linalg import ComplexSlice, assemble, cohomology_dims
from .poisson import Multivector, SymAlgebra
from .poly import Polynomial, ce_terms, exponents, insert_leg, sort_with_sign
from .uea import EnvelopingAlgebra

LArg = tuple[tuple[int, ...], int]  # (ring monomial exponent, generator index)


class NonlinearRejection(Exception):
    pass


# -- adjoint-side elementary operators ----------------------------------------


def adj_delta(P: SymAlgebra, v: Multivector) -> Multivector:
    """Koszul differential: wedge an anchor leg for each symbol factor."""
    out = Multivector(P, v.degree + 1)
    for legs, c in v.terms.items():
        for a in range(P.d):
            dc = c.partial(P.n + a)
            if dc.is_zero():
                continue
            rho = P.alg.anchor[a]
            for u, im in enumerate(rho.images):
                new, sign = insert_leg(legs, u)
                if im.is_zero() or not sign:
                    continue
                out = out + Multivector(P, v.degree + 1, {new: (P.lift(im) * dc).scale(sign)})
    return out


def adj_lie(P: SymAlgebra, X: LElement, v: Multivector) -> Multivector:
    """Commute the anchor field into each leg plus the bracket on coefficients."""
    xsym = P.element_symbol(X)
    rho = X.anchor_derivation()
    out = Multivector(P, v.degree)
    for legs, c in v.terms.items():
        br = P.bracket(xsym, c)
        if not br.is_zero():
            out = out + Multivector(P, v.degree, {legs: br})
        for t, u in enumerate(legs):
            # [rho(X), d/dx_u] = -sum_v d(rho X x_v)/dx_u * d/dx_v
            for w in range(P.n):
                coeff = -rho.images[w].partial(u)
                new, sign = insert_leg(legs[:t] + legs[t + 1:], w)
                if coeff.is_zero() or not sign:
                    continue
                out = out + Multivector(
                    P, v.degree, {new: (P.lift(coeff) * c).scale(sign * (-1) ** t)}
                )
    return out


def adj_h(P: SymAlgebra, r: Polynomial, X: LElement, v: Multivector) -> Multivector:
    """Leg-lowering homotopy: contract a leg with dr and multiply by X."""
    xsym = P.element_symbol(X)
    rl = P.lift(r)
    out = Multivector(P, max(v.degree - 1, 0))
    for legs, c in v.terms.items():
        for t, u in enumerate(legs):
            dr = rl.partial(u)
            if dr.is_zero():
                continue
            rest = legs[:t] + legs[t + 1:]
            sign = 1 if t % 2 == 0 else -1
            out = out + Multivector(P, v.degree - 1, {rest: (dr * c * xsym).scale(sign)})
    return out


def adj_r_action(P: SymAlgebra, r: Polynomial, v: Multivector) -> Multivector:
    return v.scale(P.lift(r))


def adj_nabla_b(P: SymAlgebra, conn: Connection, X: LElement, v: Multivector) -> Multivector:
    """The induced connection along X on legs and coefficients."""
    alg = P.alg
    out = Multivector(P, v.degree)
    # derivation on the coefficient: anchor on base variables, induced
    # connection on symbol variables
    rho = X.anchor_derivation()
    gen_images = [
        P.element_symbol(conn.basic_l(X, alg.basis_element(a))) for a in range(P.d)
    ]
    for legs, c in v.terms.items():
        deriv = Polynomial.zero(P.vars)
        for u in range(P.n):
            if not rho.images[u].is_zero():
                deriv = deriv + c.partial(u) * P.lift(rho.images[u])
        for a in range(P.d):
            if not gen_images[a].is_zero():
                deriv = deriv + c.partial(P.n + a) * gen_images[a]
        if not deriv.is_zero():
            out = out + Multivector(P, v.degree, {legs: deriv})
        for t, u in enumerate(legs):
            img = conn.basic_der(X, alg.coordinate_field(alg.vars[u]))
            rest = legs[:t] + legs[t + 1:]
            for w, im in enumerate(img.images):
                new, sign = insert_leg(rest, w)
                if im.is_zero() or not sign:
                    continue
                out = out + Multivector(
                    P, v.degree, {new: (P.lift(im) * c).scale(sign * (-1) ** t)}
                )
    return out


# -- instances ------------------------------------------------------------------


@dataclass
class QuasiModuleInstance:
    """Operator bundle: differential, two actions, and the homotopy."""

    name: str
    d: Callable
    r_act: Callable
    lie: Callable
    h: Callable
    equal: Callable
    random_element: Callable
    degrees: tuple[int, ...]
    zero: Callable


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

    def mv_equal(a: Multivector, b: Multivector) -> bool:
        if a.is_zero() or b.is_zero():
            return a.terms == b.terms
        return a.degree == b.degree and a.terms == b.terms

    inst = QuasiModuleInstance(
        name=f"adjoint({alg.name})",
        d=lambda v: -adj_delta(P, v),
        r_act=lambda r, v: adj_r_action(P, r, v),
        lie=lambda X, v: adj_lie(P, X, v),
        h=lambda r, X, v: adj_h(P, r, X, v),
        equal=mv_equal,
        random_element=rand,
        degrees=tuple(range(0, P.n + 1)),
        zero=lambda degree: Multivector(P, max(degree, 0)),
    )
    inst.sym = P
    return inst


def hochschild_instance(alg: LieRinehartAlgebra, cap: int = 3,
                        probe_degree: int = 2) -> QuasiModuleInstance:
    """Ring cochains with enveloping-algebra values; differential raises arity."""
    U = EnvelopingAlgebra(alg)

    def rand(rng: random.Random, arity: int) -> TableCochain:
        table = {}
        for exps in monomial_tuples(len(alg.vars), arity, cap):
            out = U.zero()
            for _ in range(2):
                g = [0] * alg.rank
                for _ in range(rng.randint(0, 2)):
                    g[rng.randrange(alg.rank)] += 1
                c = Polynomial.monomial(
                    alg.vars, tuple(rng.randint(0, 1) for _ in alg.vars),
                    rng.choice([-2, -1, 1, 2]),
                )
                out = out + U.monomial(c, tuple(g))
            table[exps] = out
        # generous backing cap: the laws compose several operators
        return TableCochain.from_table(U, arity, table, cap=cap + 60)

    inst = QuasiModuleInstance(
        name=f"hochschild({alg.name})",
        d=hochschild_b,
        r_act=r_action,
        lie=lie_action,
        h=homotopy,
        equal=lambda a, b: cochain_equal(a, b, probe_degree),
        random_element=rand,
        degrees=(0, 1, 2),
        zero=lambda degree: zero_cochain(U, degree),
    )
    inst.uea = U
    return inst


# -- the law harness --------------------------------------------------------------


def _rand_poly(rng, alg, max_deg=2):
    exp = tuple(rng.randint(0, 1) for _ in alg.vars)
    if sum(exp) > max_deg:
        exp = tuple(0 for _ in alg.vars)
    return Polynomial.monomial(alg.vars, exp, rng.choice([-2, -1, 1, 2]))


def _rand_lelement(rng, alg):
    return alg.element([_rand_poly(rng, alg) for _ in range(alg.rank)])


def quasi_axiom_check(inst: QuasiModuleInstance, alg: LieRinehartAlgebra,
                      trials: int = 100, seed: int = 0) -> CheckReport:
    """Pointwise verification of the five compatibility laws on seeded inputs."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        degree = rng.choice(inst.degrees)
        m = inst.random_element(rng, degree)
        r = _rand_poly(rng, alg)
        X = _rand_lelement(rng, alg)
        Y = _rand_lelement(rng, alg)

        def check(label, a, b):
            if not inst.equal(a, b):
                failures.append(
                    f"trial {trial}: {label} fails (degree {degree}, r={r}, X={X})"
                )

        dd = inst.d(inst.d(m))
        check("d o d = 0", dd, inst.zero(degree + 2))
        check("d o r = r o d", inst.d(inst.r_act(r, m)), inst.r_act(r, inst.d(m)))
        check("d o lie = lie o d", inst.d(inst.lie(X, m)), inst.lie(X, inst.d(m)))
        leib_rhs = _add_elements(inst.r_act(r, inst.lie(X, m)),
                                 inst.r_act(X.anchor_derivation()(r), m))
        check("Leibniz", inst.lie(X, inst.r_act(r, m)), leib_rhs)
        def_rhs = _add_elements(
            inst.r_act(r, inst.lie(X, m)),
            inst.h(r, X, inst.d(m)),
            inst.d(inst.h(r, X, m)),
        )
        check("scaled action homotopy", inst.lie(X.scale(r), m), def_rhs)
        prop_rhs = _add_elements(
            inst.h(r, X, inst.lie(Y, m)),
            inst.h(Y.anchor_derivation()(r), X, m),
            inst.h(r, bracket_extend(Y, X), m),
        )
        check("homotopy equivariance", inst.lie(Y, inst.h(r, X, m)), prop_rhs)
        if len(failures) >= 5:
            return CheckReport(False, tuple(failures), trial + 1)
    return CheckReport(not failures, tuple(failures), trials)


# -- nonlinear cochains ------------------------------------------------------------


def _larg_element(alg: LieRinehartAlgebra, arg: LArg) -> LElement:
    exp, a = arg
    coeffs = [Polynomial.zero(alg.vars) for _ in range(alg.rank)]
    coeffs[a] = Polynomial.monomial(alg.vars, exp, 1)
    return LElement(alg, tuple(coeffs))


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
        out = None
        for combo in itertools.product(
            *[[(exp, a, c) for a, f in enumerate(arg.coeffs) for exp, c in f.terms.items()]
              for arg in args]
        ):
            largs = tuple((exp, a) for exp, a, _ in combo)
            coeff = 1
            for _, _, c in combo:
                coeff *= c
            sorted_largs, sign = sort_with_sign(largs, key=lambda a: (a[1], a[0]))
            if not sign:
                continue
            v = self.phi(i, sorted_largs)
            if v is None:
                continue
            piece = _scale_element(v, coeff * sign)
            out = piece if out is None else _add_elements(out, piece)
        if out is None:
            return self.inst.zero(i)
        return out


def _scale_element(v, c):
    if isinstance(v, TableCochain):
        return cochain_scale(c, v)
    return v.scale(c)


def _add_elements(*parts):
    """The sum of module elements; lazy cochains in one sum node."""
    if isinstance(parts[0], TableCochain):
        return cochain_add(*parts)
    return sum(parts[1:], parts[0])


def _largs_universe(alg: LieRinehartAlgebra, cap: int) -> list[LArg]:
    monos = exponents((1,) * len(alg.vars), cap)
    return [(m, a) for a in range(alg.rank) for m in monos]


def nl_ce_apply(el: NLCochainElement, out_cap: int | None = None) -> NLCochainElement:
    """Total differential: alternating action/bracket sum on the arguments
    plus (-1)^{argument count} times the module differential of the previous
    column."""
    inst, alg = el.inst, el.alg
    k = el.degree
    cap = el.cap if out_cap is None else out_cap
    universe = _largs_universe(alg, cap)
    tables: list[dict] = []
    for i in range(k + 2):
        table = {}
        m = k + 1 - i
        for largs in itertools.combinations(universe, m):
            elems = [_larg_element(alg, a) for a in largs]
            total = inst.zero(i)
            if i <= k:
                for sign, term in ce_terms(
                    elems,
                    lambda x, rest: inst.lie(x, el.evaluate(i, rest)),
                    lambda x, y, rest: el.evaluate(i, [bracket_extend(x, y)] + rest),
                ):
                    total = _add_elements(total, _scale_element(term, sign))
            if i >= 1:
                term = inst.d(el.evaluate(i - 1, elems))
                total = _add_elements(total, _scale_element(term, 1 if m % 2 == 0 else -1))
            table[largs] = total
        tables.append(table)
    return NLCochainElement(inst, alg, k + 1, cap, tables)


def nl_membership(el: NLCochainElement, report: list | None = None) -> bool:
    """The nonlinearity constraint tying consecutive tables through the
    homotopy, checked on generator tuples within the cap."""
    inst, alg = el.inst, el.alg
    k = el.degree
    ok = True
    variables = [
        Polynomial.variable(alg.vars, v) for v in alg.vars
    ]
    universe = _largs_universe(alg, el.cap)
    for i in range(k):
        m = k - i
        for largs in itertools.combinations(universe, m):
            elems = [_larg_element(alg, a) for a in largs]
            last = elems[-1]
            for r in variables:
                mono_deg = sum(largs[-1][0]) + 1
                if mono_deg > el.cap:
                    continue
                lhs = _add_elements(
                    el.evaluate(i, elems[:-1] + [last.scale(r)]),
                    _scale_element(inst.r_act(r, el.evaluate(i, elems)), -1),
                )
                rhs = inst.h(r, last, el.evaluate(i + 1, elems[:-1]))
                if not inst.equal(lhs, rhs):
                    ok = False
                    if report is not None:
                        report.append((i, largs, r))
                    else:
                        return False
    return ok


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
            if v.terms != _split_entry(D, largs, i).terms:
                raise NonlinearRejection(
                    f"table entry phi_{i}{largs} is incompatible with the "
                    "multiderivation expansion of its neighbours"
                )
    return D


# -- honest-module CE cohomology ------------------------------------------------


def _ce_slice(alg: LieRinehartAlgebra, value_vars, lie_images, W: int,
              max_position: int, value_weights) -> ComplexSlice:
    """CE complex slice for an honest module of polynomial type.

    lie_images[k] is a derivation-style callable value -> value for the
    action of basis element k; values are polynomials over value_vars.
    """
    d = alg.rank
    gen_w = [alg.generator_weight(k) for k in range(d)]
    wbr = alg.bracket_weight()

    def basis_at(m):
        out = []
        for T in itertools.combinations(range(d), m):
            need = W + m * wbr + sum(gen_w[a] for a in T)
            for exp in exponents(value_weights, need, exact=True):
                out.append((T, exp))
        return sorted(out)

    bases = [basis_at(m) for m in range(max_position + 1)]
    labels = [[f"{exp}|{T}" for T, exp in b] for b in bases]

    def eval_cochain(table, args_idx):
        """R/K-multilinear alternating evaluation on basis-index tuples."""
        key, sign = sort_with_sign(args_idx)
        val = table.get(key) if sign else None
        if val is None:
            return Polynomial.zero(value_vars)
        return val if sign == 1 else -val

    def image(key):
        T, exp = key
        table = {T: Polynomial.monomial(value_vars, exp, 1)}

        def act(k, rest):
            v = eval_cochain(table, rest)
            return lie_images[k](v) if v else None

        def bracketed(a, b, rest):
            total = None
            for kk, c in enumerate(alg.structure_vector(a, b)):
                if c and (v := eval_cochain(table, (kk,) + rest)):
                    term = _lift_to(value_vars, c) * v
                    total = term if total is None else total + term
            return total

        for S in itertools.combinations(range(d), len(T) + 1):
            total = Polynomial.zero(value_vars)
            for sign, term in ce_terms(S, act, bracketed):
                total = total + (term if sign == 1 else -term)
            for texp, coeff in total.terms.items():
                yield (S, texp), coeff

    diffs = [assemble(bases[m], image, bases[m + 1])[0] for m in range(max_position)]
    return ComplexSlice(labels, diffs, name=f"ce W={W}")


def _lift_to(value_vars, c: Polynomial) -> Polynomial:
    out = Polynomial.zero(value_vars)
    extra = len(value_vars) - len(c.vars)
    for exp, v in c.terms.items():
        out = out + Polynomial.monomial(value_vars, tuple(exp) + (0,) * extra, v)
    return out


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
        value_vars = alg.vars
        value_weights = [alg.weights[v] for v in alg.vars] if alg.vars else []
        lie_images = [alg.anchor[k] for k in range(d)]
        lie_calls = [(lambda v, k=k: lie_images[k](v)) for k in range(d)]
    elif module == "sym_adjoint_lie":
        if alg.vars:
            raise ValueError("sym_adjoint_lie module requires a constants base")
        P = SymAlgebra(alg)
        value_vars = P.vars
        value_weights = [alg.weights[b] for b in alg.basis]
        lie_calls = [
            (lambda v, k=k: P.coordinate_action(P.n + k, v)) for k in range(d)
        ]
    else:
        raise ValueError(f"unknown module {module!r}")

    if any(w <= 0 for w in value_weights) and value_weights:
        raise ValueError("module is not weight-finite")
    top = min(max_degree + 1, d)
    gen_w = [alg.generator_weight(k) for k in range(d)]
    wbr = alg.bracket_weight()
    weights = set()
    for m in range(top + 1):
        for T in itertools.combinations(range(d), m):
            base = -m * wbr - sum(gen_w[a] for a in T)
            for W in range(base, max_weight + 1):
                weights.add(W)
    table: dict[tuple[int, int], int] = {}
    for W in sorted(weights):
        dims = cohomology_dims(
            _ce_slice(alg, value_vars, lie_calls, W, top, value_weights)
        )
        for m in range(min(max_degree, len(dims) - 1) + 1):
            if m == top and top < d:
                continue
            table[(W, m)] = dims[m]
    return table

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
        for idx in itertools.product(range(self.alg.rank), repeat=len(args)):
            key, sign = sort_with_sign(idx)
            v = self.tables[i].get(key) if sign else None
            if v is None:
                continue
            coeff = Polynomial.const(self.alg.vars, 1)
            for arg, a in zip(args, idx):
                coeff = coeff * arg.coeffs[a]
                if coeff.is_zero():
                    break
            if coeff.is_zero():
                continue
            out = out + v.scale(P.lift(coeff)).scale(sign)
        return out


def linear_to_nonlinear(c: LinearCECochain, conn: Connection | None = None,
                        cap: int = 2) -> NLCochainElement:
    """The section of the nonlinear cochains determined by the constraint.

    Values on pure generator tuples are the given R-multilinear ones; a
    coefficient variable is peeled off the last offending argument through the
    instance homotopy, which is exactly what membership demands.  The result
    is independent of any connection; the connection argument is kept for
    call-site symmetry with the structure operator and may be None.
    """
    inst, alg = c.inst, c.alg
    P = inst.sym
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
            inner_arg = (tuple(smaller), a)
            reordered = [largs[t] for t in range(len(largs)) if t != peel]
            sign = 1 if (len(largs) - 1 - peel) % 2 == 0 else -1
            xvar = Polynomial.variable(alg.vars, alg.vars[u])
            inner_elems = [_larg_element(alg, arg) for arg in reordered]
            head = out.evaluate(i, [
                _larg_element(alg, arg) for arg in reordered
            ] + [_larg_element(alg, inner_arg)])
            value = inst.r_act(xvar, head)
            if i + 1 <= k:
                tail = inst.h(xvar, _larg_element(alg, inner_arg),
                              out.evaluate(i + 1, inner_elems))
                value = value + tail
            value = value.scale(sign)
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


def _curvature_replace(P: SymAlgebra, conn: Connection, X: LElement, Y: LElement,
                       v: Multivector) -> Multivector:
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
                P, v.degree - 1,
                {rest: (c * P.element_symbol(img)).scale(sign)},
            )
    return out


def linear_structure_operator(c: LinearCECochain, conn: Connection) -> LinearCECochain:
    """Total differential on the linear side: covariant CE derivative, the
    Koszul piece on values, and the curvature correction.  Signs follow the
    total convention of the nonlinear side (docs/signs.md)."""
    inst, alg = c.inst, c.alg
    P = inst.sym
    k = c.degree
    tables: list[dict] = []
    for i in range(k + 2):
        m = k + 1 - i
        table = {}
        for T in itertools.combinations(range(alg.rank), m):
            elems = [alg.basis_element(a) for a in T]
            total = Multivector(P, i)
            if i <= k:
                # exterior covariant derivative of c_i
                for sign, term in ce_terms(
                    elems,
                    lambda x, rest: adj_nabla_b(P, conn, x, c.evaluate(i, rest)),
                    lambda x, y, rest: c.evaluate(i, [bracket_extend(x, y)] + rest),
                ):
                    total = total + term.scale(sign)
            if i >= 1:
                # value differential of the previous column, total-complex sign
                prev = c.evaluate(i - 1, elems)
                term = -adj_delta(P, prev)
                total = total + term.scale(1 if m % 2 == 0 else -1)
            if i + 1 <= k:
                # curvature correction from the next column
                for j, l in itertools.combinations(range(m), 2):
                    rest = [elems[t] for t in range(m) if t not in (j, l)]
                    v = c.evaluate(i + 1, rest)
                    term = _curvature_replace(P, conn, elems[j], elems[l], v)
                    total = total + term.scale(1 if (j + l) % 2 == 0 else -1)
            table[T] = total
        tables.append(table)
    return LinearCECochain(inst, alg, k + 1, tables)


def ce_cohomology_matrix_module(alg: LieRinehartAlgebra,
                                actions: list[list[list[Fraction | int]]]) -> list[int]:
    """CE cohomology of a finite-dimensional module over a constants base.

    actions[k] is the matrix of the k-th generator; the matrices must satisfy
    the bracket relations exactly.
    """
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
    labels = [[f"{T}.{t}" for T, t in b] for b in bases]
    return cohomology_dims(ComplexSlice(labels, diffs, name="ce matrix module"))
