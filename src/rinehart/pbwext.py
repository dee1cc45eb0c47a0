"""The extended symbol-to-operator lift: eta tensors, the leg-lowering maps,
the homotopy tower of maps into ring cochains (level 0 is the recursive
lift), and the antisymmetrized morphism assembled from the tower.

Everything here is verified pointwise: the maps are evaluated on concrete
adjoint elements and monomial argument tuples, never stored as matrices.
"""
from __future__ import annotations

import itertools

from .cochain import TableCochain, hochschild_b, lie_action, monomial_tuples
from .lie_rinehart import (CheckReport, Connection, LElement, LieRinehartAlgebra, bracket_extend,
                           seeded_check)
from .poisson import Multivector, SymAlgebra
from .poly import Polynomial, PolyDerivation, perm_sign
from .quasimod import (LArg, NLCochainElement, _larg_element, adj_delta, adj_lie, adj_nabla_b,
                       hochschild_instance, nl_ce_apply, peeled_value, replace_legs_and_factors,
                       total_at)
from .uea import UEAElement


class EtaContext:
    """Presentation, connection and the memo cache of the tower maps."""

    def __init__(self, alg: LieRinehartAlgebra, conn: Connection | None = None):
        self.alg = alg
        self.conn = conn if conn is not None else Connection(alg)
        # one enveloping algebra for the tower and the Hochschild instance:
        # elements of two copies never compare equal
        self.hochschild = hochschild_instance(alg)
        self.U = self.hochschild.uea
        self.P = SymAlgebra(alg)
        self._tower_cache: dict = {}
        self._eta_mixed_cache: dict = {}
        self._basic_cache: dict = {}

    def basic(self, induced, X: LElement, target):
        """induced(X, target), for induced the connection's `basic_der` on a
        derivation or `basic_l` on a module element, computed once."""
        image = self._basic_cache.get((X, target))
        if image is None:
            image = self._basic_cache[X, target] = induced(X, target)
        return image

    # -- the three eta tensors ------------------------------------------

    def eta_mixed(self, Y: LElement, D: PolyDerivation, X: LElement) -> LElement:
        eta = self._eta_mixed_cache.get((Y, D, X))
        if eta is None:
            eta = self._eta_mixed_cache[Y, D, X] = (
                bracket_extend(Y, self.conn.nabla(D, X))
                - self.conn.nabla(Y.anchor_derivation().commutator(D), X)
                - self.conn.nabla(D, bracket_extend(Y, X))
            )
        return eta

    def eta_der(self, Y: LElement, X: LElement, D: PolyDerivation) -> PolyDerivation:
        c = self.conn
        return (
            Y.anchor_derivation().commutator(c.basic_der(X, D))
            - c.basic_der(bracket_extend(Y, X), D)
            - c.basic_der(X, Y.anchor_derivation().commutator(D))
        )

    def eta_l(self, Y: LElement, X: LElement, Z: LElement) -> LElement:
        c = self.conn
        return (
            bracket_extend(Y, c.basic_l(X, Z))
            - c.basic_l(bracket_extend(Y, X), Z)
            - c.basic_l(X, bracket_extend(Y, Z))
        )


def f_map(ctx: EtaContext, Y: LElement, v: Multivector) -> Multivector:
    """Lower one leg, raise the symbol degree through the mixed eta tensor:
    the contraction of each symbol partial with the tensor on its factor."""
    P, alg = ctx.P, ctx.alg
    out = Multivector(P, max(v.degree - 1, 0))
    for a in range(P.d):
        out = out + v.partial(P.n + a).contract(lambda u: P.element_symbol(
            ctx.eta_mixed(Y, alg.coordinate_field(alg.vars[u]), alg.basis_element(a))))
    return out


# -- the extended lift and the tower ------------------------------------------


def _decompose(ctx: EtaContext, v: Multivector):
    """Coordinate terms as (scalar, Der factors, module factors) triples."""
    P, alg = ctx.P, ctx.alg
    out = []
    for (legs, exp), coeff in v.flat.items():
        xpart = exp[: P.n]
        gens = [a for a in range(P.d) for _ in range(exp[P.n + a])]
        mono = Polynomial.monomial(alg.vars, xpart, 1)
        Ds = [alg.coordinate_field(alg.vars[u]) for u in legs]
        if gens:
            Xs = [alg.basis_element(gens[0]).scale(mono)] + [
                alg.basis_element(a) for a in gens[1:]
            ]
        elif Ds:
            Ds = [Ds[0].scale_by(mono)] + Ds[1:]
            Xs = []
        else:
            out.append((coeff, (), (), mono))
            continue
        out.append((coeff, tuple(Ds), tuple(Xs), None))
    return out


def _nabla_b_decomposed(ctx: EtaContext, X: LElement, Ds: tuple, Xs: tuple):
    """The induced connection along X of a decomposable, again decomposed."""
    out = []
    for i, D in enumerate(Ds):
        image = ctx.basic(ctx.conn.basic_der, X, D)
        if not image.is_zero():
            out.append((Ds[:i] + (image,) + Ds[i + 1:], Xs, 1))
    for j, Z in enumerate(Xs):
        image = ctx.basic(ctx.conn.basic_l, X, Z)
        if not image.is_zero():
            out.append((Ds, Xs[:j] + (image,) + Xs[j + 1:], 1))
    return out


def tower_eval(ctx: EtaContext, Ys: tuple, v: Multivector, args: tuple) -> UEAElement:
    """Evaluate the tower map for the ordered module tuple Ys; with Ys = ()
    this is the extended lift."""
    U, acc = ctx.U, {}
    for coeff, Ds, Xs, scalar in _decompose(ctx, v):
        if scalar is not None:
            if not Ys:
                if args:
                    raise ValueError("scalar part takes no arguments")
                U.add_sum(acc, U.scalar(scalar).flat, coeff)
            continue
        U.add_sum(acc, _tower_term(ctx, Ys, Ds, Xs, args).flat, coeff)
    return U.collect(acc)


def _tower_term(ctx: EtaContext, Ys: tuple, Ds: tuple, Xs: tuple, args: tuple) -> UEAElement:
    n = len(Ys)
    U, alg = ctx.U, ctx.alg
    p = len(Ds)
    if p - n < 0:
        return U.zero()
    if len(args) != p - n:
        raise ValueError(f"tower map into arity {p - n} got {len(args)} arguments")
    if not (Ys or Ds or Xs):
        return U.one()
    key = (Ys, Ds, Xs, args)
    cached = ctx._tower_cache.get(key)
    if cached is not None:
        return cached
    acc = {}
    mono = Polynomial.monomial(alg.vars, args[0], 1) if args else None
    for i, D in enumerate(Ds):
        if mono is None:
            break
        head = D(mono)
        if head.is_zero():
            continue
        # one-based sign (-1)^{i+1+n}
        sign = 1 if (i + n) % 2 == 0 else -1
        rest = Ds[:i] + Ds[i + 1:]
        U.add_product(acc, U.scalar(head).flat,
                      _tower_term(ctx, Ys, rest, Xs, args[1:]).flat, sign)
    for j, X in enumerate(Xs):
        rest = Xs[:j] + Xs[j + 1:]
        U.add_product(acc, U.include(X).flat, _tower_term(ctx, Ys, Ds, rest, args).flat)
        for piece_Ds, piece_Xs, piece_coeff in _nabla_b_decomposed(ctx, X, Ds, rest):
            U.add_sum(acc, _tower_term(ctx, Ys, piece_Ds, piece_Xs, args).flat, -piece_coeff)
    for i, Y in enumerate(Ys):
        rest_Y = Ys[:i] + Ys[i + 1:]
        # one-based sign (-1)^{i+n}
        sign = 1 if (i + 1 + n) % 2 == 0 else -1
        for piece_Ds, piece_Xs, piece_coeff in _f_decomposed(ctx, Y, Ds, Xs):
            U.add_sum(acc, _tower_term(ctx, rest_Y, piece_Ds, piece_Xs, args).flat,
                      sign * piece_coeff)
    result = ctx._tower_cache[key] = U.collect(acc)
    return result


def _f_decomposed(ctx: EtaContext, Y: LElement, Ds: tuple, Xs: tuple):
    """The leg-lowering map of a decomposable, as decomposables."""
    out = []
    for i, D in enumerate(Ds):
        rest_D = Ds[:i] + Ds[i + 1:]
        sign = 1 if i % 2 == 0 else -1
        for j, X in enumerate(Xs):
            eta = ctx.eta_mixed(Y, D, X)
            if eta.is_zero():
                continue
            out.append((rest_D, Xs[:j] + (eta,) + Xs[j + 1:], sign))
    return out


def tower_map(ctx: EtaContext, Ys: tuple, v: Multivector) -> TableCochain:
    # arity may be negative, in which case the map is the formal zero and the
    # arity-raising differential restores degree zero
    return TableCochain(ctx.U, v.degree - len(Ys), lambda exps: tower_eval(ctx, Ys, v, exps))


# -- verification reports ------------------------------------------------------


def _random_adjoint_term(rng, P, p, q):
    legs = tuple(sorted(rng.sample(range(P.n), p))) if p else ()
    exp = [0] * P.N
    for u in range(P.n):
        exp[u] = rng.randint(0, 1)
    for _ in range(q if P.d else 0):  # no generator to draw on an empty basis
        exp[P.n + rng.randrange(P.d)] += 1
    return Multivector(
        P, p, {legs: Polynomial.monomial(P.vars, tuple(exp), rng.choice([-2, -1, 1, 2]))}
    )


def _random_args(rng, nvars, arity, deg):
    return tuple(
        tuple(rng.randint(0, deg) for _ in range(nvars)) for _ in range(arity)
    )


def _rand_lelement(rng, alg):
    coeffs = []
    for _ in range(alg.rank):
        exp = tuple(rng.randint(0, 1) for _ in alg.vars)
        coeffs.append(Polynomial.monomial(alg.vars, exp, rng.choice([-1, 1, 2])))
    return LElement(alg, tuple(coeffs))


def verify_eta_properties(ctx: EtaContext, samples: int = 20, seed: int = 0) -> CheckReport:
    """Multilinearity of the mixed tensor and its argument-scaling expansion."""
    alg = ctx.alg

    def trial(rng, t):
        Y = _rand_lelement(rng, alg)
        X = _rand_lelement(rng, alg)
        Z = _rand_lelement(rng, alg)
        exp = tuple(rng.randint(0, 2) for _ in alg.vars)
        r = Polynomial.monomial(alg.vars, exp, rng.choice([1, 2, -1]))
        D = PolyDerivation(
            alg.vars,
            [Polynomial.monomial(alg.vars, tuple(rng.randint(0, 1) for _ in alg.vars),
                                 rng.choice([-1, 1])) for _ in alg.vars],
        )
        if not (ctx.eta_mixed(Y, D.scale_by(r), X) - ctx.eta_mixed(Y, D, X).scale(r)).is_zero():
            yield "scaling in the derivation slot fails"
        if not (ctx.eta_mixed(Y, D, X.scale(r)) - ctx.eta_mixed(Y, D, X).scale(r)).is_zero():
            yield "scaling in the module slot fails"
        # five correction terms; the last two assemble the induced connection
        lhs = ctx.eta_mixed(Y.scale(r), D, X)
        correction = (
            -Y.scale(ctx.conn.nabla(D, X).anchor_derivation()(r))
            + Y.scale(D(X.anchor_derivation()(r)))
            + ctx.conn.nabla(D, Y).scale(X.anchor_derivation()(r))
            + ctx.conn.basic_l(X, Y).scale(D(r))
        )
        if not (lhs - ctx.eta_mixed(Y, D, X).scale(r) - correction).is_zero():
            yield "argument-scaling expansion fails"
        # compatibility relations between the three tensors
        if not (
            ctx.eta_l(Y, X, Z).anchor_derivation()
            - ctx.eta_der(Y, X, Z.anchor_derivation())
        ).is_zero():
            yield "anchor of the module tensor mismatch"
        if not (
            ctx.eta_mixed(Y, Z.anchor_derivation(), X) - ctx.eta_l(Y, X, Z)
        ).is_zero():
            yield "mixed tensor on an anchor image mismatch"
        if not (
            ctx.eta_mixed(Y, D, X).anchor_derivation() - ctx.eta_der(Y, X, D)
        ).is_zero():
            yield "anchor of the mixed tensor mismatch"

    return seeded_check(samples, seed, trial)


def verify_f_identities(ctx: EtaContext, samples: int = 15, seed: int = 0) -> CheckReport:
    """The anticommutator with the Koszul differential and the bracket
    compatibility of the leg-lowering maps, on p <= 2 legs and q <= 2
    symbol factors."""
    P, alg = ctx.P, ctx.alg

    def trial(rng, t):
        p = rng.randint(0, min(2, P.n))
        q = rng.randint(0, 2)
        v = _random_adjoint_term(rng, P, p, q)
        Y1 = _rand_lelement(rng, alg)
        Y2 = _rand_lelement(rng, alg)
        # commutator with the connection along Y1 (the curvature-like identity)
        lhs = adj_lie(P, Y1, adj_nabla_b(P, ctx.conn, Y2, v)) - adj_nabla_b(
            P, ctx.conn, Y2, adj_lie(P, Y1, v)
        )
        rhs = adj_nabla_b(P, ctx.conn, bracket_extend(Y1, Y2), v) + replace_legs_and_factors(
            P, v,
            lambda u: ctx.eta_der(Y1, Y2, alg.coordinate_field(alg.vars[u])),
            lambda a: ctx.eta_l(Y1, Y2, alg.basis_element(a)),
        )
        if not (lhs - rhs).is_zero():
            yield f"connection commutator identity fails at (p,q)=({p},{q})"
        # anticommutator of the leg-lowering map with the Koszul differential
        lhs2 = f_map(ctx, Y1, adj_delta(P, v)) + adj_delta(P, f_map(ctx, Y1, v))
        # the eta tensors on each symbol factor in place of a leg or a factor
        rhs2 = Multivector(P, v.degree)
        for a in range(P.d):
            if (da := v.partial(P.n + a)).is_zero():
                continue
            rhs2 = rhs2 + replace_legs_and_factors(
                P, da,
                lambda u: ctx.eta_der(Y1, alg.basis_element(a), alg.coordinate_field(alg.vars[u])),
                lambda b: ctx.eta_l(Y1, alg.basis_element(a), alg.basis_element(b)),
            )
        if not (lhs2 - rhs2).is_zero():
            yield f"leg-lowering anticommutator fails at (p,q)=({p},{q})"
        # bracket compatibility
        lhs3 = (
            adj_lie(P, Y1, f_map(ctx, Y2, v))
            - f_map(ctx, Y2, adj_lie(P, Y1, v))
            - adj_lie(P, Y2, f_map(ctx, Y1, v))
            + f_map(ctx, Y1, adj_lie(P, Y2, v))
        )
        rhs3 = f_map(ctx, bracket_extend(Y1, Y2), v)
        if not (lhs3 - rhs3).is_zero():
            yield f"bracket compatibility fails at (p,q)=({p},{q})"

    return seeded_check(samples, seed, trial)


def verify_pbw_chain(ctx: EtaContext, samples: int = 50, seed: int = 0) -> CheckReport:
    """The lift exchanges the Koszul differential with minus the cochain one,
    on p <= 2 legs, q <= 2 symbol factors and arguments of degree <= 2."""
    P = ctx.P

    def trial(rng, t):
        p = rng.randint(0, min(2, P.n - 1) if P.n else 0)
        q = rng.randint(0, 2)
        v = _random_adjoint_term(rng, P, p, q)
        args = _random_args(rng, P.n, p + 1, 2)
        lhs = tower_eval(ctx, (), adj_delta(P, v), args)
        rhs = hochschild_b(tower_map(ctx, (), v)).eval_monos(args)
        if not (lhs + rhs).is_zero():
            yield f"chain relation fails at (p,q)=({p},{q}), args {args}"

    return seeded_check(samples, seed, trial)


def verify_identity_tower(ctx: EtaContext, samples: int = 50, seed: int = 0) -> CheckReport:
    """The commutator tower: module actions of the tower maps against the
    next level composed with the two differentials, at levels n <= 1, on
    p <= 2 legs, q <= 2 symbol factors and arguments of degree <= 1."""
    P, alg = ctx.P, ctx.alg

    def trial(rng, t):
        n = rng.randint(0, 1)
        Ys = tuple(_rand_lelement(rng, alg) for _ in range(n + 1))
        if min(2, P.n) < n:
            # every map in the identity lands in negative arity and vanishes
            return
        p = rng.randint(n, min(2, P.n))
        q = rng.randint(0, 2)
        v = _random_adjoint_term(rng, P, p, q)
        args = _random_args(rng, P.n, p - n, 1)
        lhs = ctx.U.zero()
        for i in range(n + 1):
            rest = Ys[:i] + Ys[i + 1:]
            sign = 1 if i % 2 == 0 else -1
            term = lie_action(Ys[i], tower_map(ctx, rest, v)).eval_monos(args)
            term = term - tower_eval(ctx, rest, adj_lie(P, Ys[i], v), args)
            lhs = lhs + term.scale(sign)
        for i, j in itertools.combinations(range(n + 1), 2):
            rest = tuple(Ys[t] for t in range(n + 1) if t not in (i, j))
            # one-based sign (-1)^{i+j}
            sign = 1 if (i + j) % 2 == 0 else -1
            sub = (bracket_extend(Ys[i], Ys[j]),) + rest
            lhs = lhs + tower_eval(ctx, sub, v, args).scale(sign)
        rhs = hochschild_b(tower_map(ctx, Ys, v)).eval_monos(args)
        delta_term = tower_eval(ctx, Ys, adj_delta(P, v), args)
        rhs = rhs + delta_term.scale(1 if (n + 1) % 2 == 0 else -1)
        if not (lhs - rhs).is_zero():
            yield f"tower identity fails at n={n}, (p,q)=({p},{q}), args {args}"

    return seeded_check(samples, seed, trial)


# -- the antisymmetrized morphism ------------------------------------------------


def _shuffles(k: int, i: int):
    """(k, i)-shuffles of range(k + i) with their signs."""
    idx = list(range(k + i))
    for first in itertools.combinations(idx, k):
        rest = [t for t in idx if t not in first]
        perm = list(first) + rest
        yield first, rest, perm_sign(perm)


def antisymmetrized_tower(ctx: EtaContext, k: int, el: NLCochainElement, col: int,
                          Ys: tuple, args: tuple) -> UEAElement:
    """Value of the order-k antisymmetrization applied to one table column."""
    total = ctx.U.zero()
    i = len(Ys) - k
    for first, rest, sign in _shuffles(k, i):
        sub = tuple(Ys[t] for t in first)
        inner = el.evaluate(col, [Ys[t] for t in rest])
        term = tower_eval(ctx, sub, inner, args)
        total = total + term.scale(sign)
    return total


def morphism_component(ctx: EtaContext, el: NLCochainElement, m: int,
                       Ys: tuple, args: tuple) -> UEAElement:
    """Component m of the assembled morphism: sum of antisymmetrized towers
    applied to the columns at and above m."""
    total = ctx.U.zero()
    k = el.degree
    for shift in range(0, k - m + 1):
        col = m + shift
        total = total + antisymmetrized_tower(ctx, shift, el, col, Ys, args)
    return total


class MorphismImage(NLCochainElement):
    """The image of el on the Hochschild instance: phi_m at a generator tuple
    is the arity-m cochain of morphism_component, built on first use.  It is
    defined on every tuple, so it has no cap."""

    def __init__(self, ctx: EtaContext, el: NLCochainElement):
        super().__init__(ctx.hochschild, ctx.alg, el.degree, None,
                         [{} for _ in range(el.degree + 1)])
        self.ctx = ctx
        self.source = el

    def phi(self, i: int, largs: tuple[LArg, ...]) -> TableCochain:
        value = self.tables[i].get(largs)
        if value is None:
            Ys = tuple(_larg_element(self.alg, arg) for arg in largs)
            value = self.tables[i][largs] = TableCochain(
                self.ctx.U, i, lambda exps: morphism_component(self.ctx, self.source, i, Ys, exps))
        return value


def verify_morphism_chain(ctx: EtaContext, el: NLCochainElement, max_args: int = 1,
                          out_cap: int | None = None) -> CheckReport:
    """Chain-map property of the assembled morphism, on generator tuples:
    psi(D el) = D psi(el) with the one total differential D of quasimod.

    Both sides are degree k+1 tuples of ring cochains; component m is compared
    on basis module tuples and monomial arguments of degree <= 1.
    """
    P, alg = ctx.P, ctx.alg
    k = el.degree
    failures = []
    checked = 0
    if out_cap is None:
        out_cap = el.cap - 1 if el.cap else 1
    image_of_total = MorphismImage(ctx, nl_ce_apply(el, out_cap=out_cap))
    image = MorphismImage(ctx, el)
    for m in range(0, k + 2):
        for gens in itertools.combinations(range(alg.rank), k + 1 - m):
            Ys = [alg.basis_element(a) for a in gens]
            lhs, rhs = image_of_total.evaluate(m, Ys), total_at(image, m, Ys)
            for args in monomial_tuples(P.n, m, 1)[:max_args] or [()]:
                if not (lhs.eval_monos(args) - rhs.eval_monos(args)).is_zero():
                    failures.append(f"chain property fails at column {m}, {gens}, {args}")
                    if len(failures) >= 2:
                        return CheckReport(False, tuple(failures), checked)
                checked += 1
    return CheckReport(not failures, tuple(failures), checked)


def morphism_membership_defect(ctx: EtaContext, el: NLCochainElement,
                               r: Polynomial, witness_args: tuple = ()) -> UEAElement:
    """Defect of the image tuple against the target-side nonlinearity.

    Returns psi_i(Y_1..r*Y_m) - r*psi_i(Y_1..Y_m) - h_{r,Y_m}(psi_{i+1}(..))
    evaluated at the first basis tuple of the top row; a nonzero value
    exhibits that the morphism image leaves the nonlinear subspace.
    """
    alg = ctx.alg
    m = el.degree
    if m < 1 or alg.rank < m:
        raise ValueError("need at least one module argument to scale")
    Ys = [alg.basis_element(a) for a in range(m)]
    image = MorphismImage(ctx, el)
    lhs = image.evaluate(0, Ys[:-1] + [Ys[-1].scale(r)]).eval_monos(witness_args)
    return lhs - peeled_value(image, 0, Ys, r).eval_monos(witness_args)
