"""The extended symbol-to-operator lift: eta tensors, the leg-lowering maps,
the recursive lift into ring cochains, the homotopy tower above it, and the
antisymmetrized morphism assembled from the tower.

Everything here is verified pointwise: the maps are evaluated on concrete
adjoint elements and monomial argument tuples, never stored as matrices.
"""
from __future__ import annotations

import itertools
import random

from .cochain import TableCochain, hochschild_b, homotopy, lie_action, monomial_tuples
from .lie_rinehart import CheckReport, Connection, LElement, LieRinehartAlgebra, bracket_extend
from .poisson import Multivector, SymAlgebra
from .poly import Polynomial, PolyDerivation, ce_terms, insert_leg, perm_sign
from .quasimod import NLCochainElement, adj_delta, adj_lie, adj_nabla_b, _larg_element
from .uea import EnvelopingAlgebra, UEAElement


class EtaContext:
    """Presentation, connection and the memo caches of the recursive maps."""

    def __init__(self, alg: LieRinehartAlgebra, conn: Connection | None = None):
        self.alg = alg
        self.conn = conn if conn is not None else Connection(alg)
        self.U = EnvelopingAlgebra(alg)
        self.P = SymAlgebra(alg)
        self._lift_cache: dict = {}
        self._tower_cache: dict = {}

    # -- the three eta tensors ------------------------------------------

    def eta_mixed(self, Y: LElement, D: PolyDerivation, X: LElement) -> LElement:
        c = self.conn
        return (
            bracket_extend(Y, c.nabla(D, X))
            - c.nabla(Y.anchor_derivation().commutator(D), X)
            - c.nabla(D, bracket_extend(Y, X))
        )

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


# -- coordinate-level leg/factor replacement ----------------------------------


def replace_legs_and_factors(ctx: EtaContext, v: Multivector, leg_map, factor_map) -> Multivector:
    """Derivation-style operator: replace one leg (by a derivation) or one
    symbol factor (by a module element) at a time, coefficients untouched."""
    P = ctx.P
    alg = ctx.alg
    out = Multivector(P, v.degree)
    for legs, c in v.terms.items():
        for t, u in enumerate(legs):
            image = leg_map(u)
            if image is None or image.is_zero():
                continue
            rest = legs[:t] + legs[t + 1:]
            for w, im in enumerate(image.images):
                new, sign = insert_leg(rest, w)
                if im.is_zero() or not sign:
                    continue
                out = out + Multivector(
                    P, v.degree, {new: (P.lift(im) * c).scale(sign * (-1) ** t)}
                )
        for a in range(P.d):
            image = factor_map(a)
            if image is None or image.is_zero():
                continue
            dc = c.partial(P.n + a)
            if dc.is_zero():
                continue
            out = out + Multivector(P, v.degree, {legs: dc * P.element_symbol(image)})
    return out


def f_map(ctx: EtaContext, Y: LElement, v: Multivector) -> Multivector:
    """Lower one leg, raise the symbol degree through the mixed eta tensor."""
    P = ctx.P
    alg = ctx.alg
    out = Multivector(P, max(v.degree - 1, 0))
    for legs, c in v.terms.items():
        for t, u in enumerate(legs):
            rest = legs[:t] + legs[t + 1:]
            sign = 1 if t % 2 == 0 else -1
            for a in range(P.d):
                dc = c.partial(P.n + a)
                if dc.is_zero():
                    continue
                eta = ctx.eta_mixed(Y, alg.coordinate_field(alg.vars[u]), alg.basis_element(a))
                if eta.is_zero():
                    continue
                out = out + Multivector(
                    P, v.degree - 1,
                    {rest: (dc * P.element_symbol(eta)).scale(sign)},
                )
    return out


# -- the extended lift and the tower ------------------------------------------


def _decompose(ctx: EtaContext, v: Multivector):
    """Coordinate terms as (scalar, Der factors, module factors) triples."""
    P, alg = ctx.P, ctx.alg
    out = []
    for legs, c in v.terms.items():
        for exp, coeff in c.terms.items():
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


def extended_lift_eval(ctx: EtaContext, v: Multivector, args: tuple) -> UEAElement:
    """Evaluate the recursive lift of an adjoint element on monomial arguments."""
    total = ctx.U.zero()
    for coeff, Ds, Xs, scalar in _decompose(ctx, v):
        if scalar is not None:
            if len(args) != 0:
                raise ValueError("scalar part takes no arguments")
            total = total + ctx.U.scalar(scalar).scale(coeff)
            continue
        total = total + _lift_term(ctx, Ds, Xs, args).scale(coeff)
    return total


def _lift_term(ctx: EtaContext, Ds: tuple, Xs: tuple, args: tuple) -> UEAElement:
    if len(args) != len(Ds):
        raise ValueError(f"{len(Ds)} derivation slots but {len(args)} arguments")
    key = (Ds, Xs, args)
    cached = ctx._lift_cache.get(key)
    if cached is not None:
        return cached
    U, alg = ctx.U, ctx.alg
    if not Ds and not Xs:
        result = U.one()
    else:
        result = U.zero()
        mono = (
            Polynomial.monomial(alg.vars, args[0], 1) if args else None
        )
        for i, D in enumerate(Ds):
            rest = Ds[:i] + Ds[i + 1:]
            head = D(mono)
            if head.is_zero():
                continue
            sign = 1 if i % 2 == 0 else -1
            result = result + (
                U.scalar(head) * _lift_term(ctx, rest, Xs, args[1:])
            ).scale(sign)
        for j, X in enumerate(Xs):
            rest = Xs[:j] + Xs[j + 1:]
            result = result + U.include(X) * _lift_term(ctx, Ds, rest, args)
            for piece_Ds, piece_Xs, piece_coeff in _nabla_b_decomposed(ctx, X, Ds, rest):
                result = result - _lift_term(ctx, piece_Ds, piece_Xs, args).scale(piece_coeff)
    ctx._lift_cache[key] = result
    return result


def _nabla_b_decomposed(ctx: EtaContext, X: LElement, Ds: tuple, Xs: tuple):
    """The induced connection along X of a decomposable, again decomposed."""
    conn = ctx.conn
    out = []
    for i, D in enumerate(Ds):
        image = conn.basic_der(X, D)
        if not image.is_zero():
            out.append((Ds[:i] + (image,) + Ds[i + 1:], Xs, 1))
    for j, Z in enumerate(Xs):
        image = conn.basic_l(X, Z)
        if not image.is_zero():
            out.append((Ds, Xs[:j] + (image,) + Xs[j + 1:], 1))
    return out


def extended_lift(ctx: EtaContext, v: Multivector) -> TableCochain:
    p = v.degree
    return TableCochain(
        ctx.U, p, lambda exps: extended_lift_eval(ctx, v, exps), label="lift"
    )


def tower_eval(ctx: EtaContext, Ys: tuple, v: Multivector, args: tuple) -> UEAElement:
    """Evaluate the tower map for the ordered module tuple Ys."""
    total = ctx.U.zero()
    n = len(Ys)
    for coeff, Ds, Xs, scalar in _decompose(ctx, v):
        if scalar is not None:
            if n == 0:
                total = total + ctx.U.scalar(scalar).scale(coeff)
            continue
        total = total + _tower_term(ctx, Ys, Ds, Xs, args).scale(coeff)
    return total


def _tower_term(ctx: EtaContext, Ys: tuple, Ds: tuple, Xs: tuple, args: tuple) -> UEAElement:
    n = len(Ys)
    U, alg = ctx.U, ctx.alg
    if n == 0:
        return _lift_term(ctx, Ds, Xs, args)
    p = len(Ds)
    if p - n < 0:
        return U.zero()
    if len(args) != p - n:
        raise ValueError(f"tower map into arity {p - n} got {len(args)} arguments")
    key = (Ys, Ds, Xs, args)
    cached = ctx._tower_cache.get(key)
    if cached is not None:
        return cached
    result = U.zero()
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
        result = result + (
            U.scalar(head) * _tower_term(ctx, Ys, rest, Xs, args[1:])
        ).scale(sign)
    for j, X in enumerate(Xs):
        rest = Xs[:j] + Xs[j + 1:]
        result = result + U.include(X) * _tower_term(ctx, Ys, Ds, rest, args)
        for piece_Ds, piece_Xs, piece_coeff in _nabla_b_decomposed(ctx, X, Ds, rest):
            result = result - _tower_term(ctx, Ys, piece_Ds, piece_Xs, args).scale(piece_coeff)
    for i, Y in enumerate(Ys):
        rest_Y = Ys[:i] + Ys[i + 1:]
        # one-based sign (-1)^{i+n}
        sign = 1 if (i + 1 + n) % 2 == 0 else -1
        for piece_Ds, piece_Xs, piece_coeff in _f_decomposed(ctx, Y, Ds, Xs):
            result = result + _tower_term(ctx, rest_Y, piece_Ds, piece_Xs, args).scale(
                piece_coeff if sign == 1 else -piece_coeff
            )
    ctx._tower_cache[key] = result
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
    p = v.degree
    n = len(Ys)
    return TableCochain(
        ctx.U, p - n,
        lambda exps: tower_eval(ctx, Ys, v, exps),
        label=f"tower{n}",
    )


# -- verification reports ------------------------------------------------------


def _random_adjoint_term(rng, P, p, q, coeff_deg=1):
    legs = tuple(sorted(rng.sample(range(P.n), p))) if p else ()
    exp = [0] * P.N
    for u in range(P.n):
        exp[u] = rng.randint(0, coeff_deg)
    for _ in range(q):
        exp[P.n + rng.randrange(P.d)] += 1
    return Multivector(
        P, p, {legs: Polynomial.monomial(P.vars, tuple(exp), rng.choice([-2, -1, 1, 2]))}
    )


def _random_args(rng, nvars, arity, deg):
    return tuple(
        tuple(rng.randint(0, deg) for _ in range(nvars)) for _ in range(arity)
    )


def _rand_lelement(rng, alg, deg=1):
    coeffs = []
    for _ in range(alg.rank):
        exp = tuple(rng.randint(0, deg) for _ in alg.vars)
        coeffs.append(Polynomial.monomial(alg.vars, exp, rng.choice([-1, 1, 2])))
    return LElement(alg, tuple(coeffs))


def verify_eta_properties(ctx: EtaContext, samples: int = 20, seed: int = 0) -> CheckReport:
    """Multilinearity of the mixed tensor and its argument-scaling expansion."""
    alg = ctx.alg
    rng = random.Random(seed)
    failures = []
    checked = 0
    for _ in range(samples):
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
            failures.append("scaling in the derivation slot fails")
        if not (ctx.eta_mixed(Y, D, X.scale(r)) - ctx.eta_mixed(Y, D, X).scale(r)).is_zero():
            failures.append("scaling in the module slot fails")
        # five correction terms; the last two assemble the induced connection
        lhs = ctx.eta_mixed(Y.scale(r), D, X)
        correction = (
            -Y.scale(ctx.conn.nabla(D, X).anchor_derivation()(r))
            + Y.scale(D(X.anchor_derivation()(r)))
            + ctx.conn.nabla(D, Y).scale(X.anchor_derivation()(r))
            + ctx.conn.basic_l(X, Y).scale(D(r))
        )
        if not (lhs - ctx.eta_mixed(Y, D, X).scale(r) - correction).is_zero():
            failures.append("argument-scaling expansion fails")
        # compatibility relations between the three tensors
        if not (
            ctx.eta_l(Y, X, Z).anchor_derivation()
            - ctx.eta_der(Y, X, Z.anchor_derivation())
        ).is_zero():
            failures.append("anchor of the module tensor mismatch")
        if not (
            ctx.eta_mixed(Y, Z.anchor_derivation(), X) - ctx.eta_l(Y, X, Z)
        ).is_zero():
            failures.append("mixed tensor on an anchor image mismatch")
        if not (
            ctx.eta_mixed(Y, D, X).anchor_derivation() - ctx.eta_der(Y, X, D)
        ).is_zero():
            failures.append("anchor of the mixed tensor mismatch")
        checked += 1
        if failures:
            return CheckReport(False, tuple(failures), checked)
    return CheckReport(True, (), checked)


def verify_f_identities(ctx: EtaContext, samples: int = 15, seed: int = 0,
                        p_max: int = 2, q_max: int = 2) -> CheckReport:
    """The anticommutator with the Koszul differential and the bracket
    compatibility of the leg-lowering maps."""
    P, alg = ctx.P, ctx.alg
    rng = random.Random(seed)
    failures = []
    checked = 0
    for _ in range(samples):
        p = rng.randint(0, min(p_max, P.n))
        q = rng.randint(0, q_max)
        v = _random_adjoint_term(rng, P, p, q)
        Y1 = _rand_lelement(rng, alg)
        Y2 = _rand_lelement(rng, alg)
        # commutator with the connection along Y1 (the curvature-like identity)
        lhs = adj_lie(P, Y1, adj_nabla_b(P, ctx.conn, Y2, v)) - adj_nabla_b(
            P, ctx.conn, Y2, adj_lie(P, Y1, v)
        )
        rhs = adj_nabla_b(P, ctx.conn, bracket_extend(Y1, Y2), v) + replace_legs_and_factors(
            ctx, v,
            lambda u: ctx.eta_der(Y1, Y2, alg.coordinate_field(alg.vars[u])),
            lambda a: ctx.eta_l(Y1, Y2, alg.basis_element(a)),
        )
        if not (lhs - rhs).is_zero():
            failures.append(f"connection commutator identity fails at (p,q)=({p},{q})")
        # anticommutator of the leg-lowering map with the Koszul differential
        lhs2 = f_map(ctx, Y1, adj_delta(P, v)) + adj_delta(P, f_map(ctx, Y1, v))
        rhs2 = _f_delta_right_side(ctx, Y1, v)
        if not (lhs2 - rhs2).is_zero():
            failures.append(f"leg-lowering anticommutator fails at (p,q)=({p},{q})")
        # bracket compatibility
        lhs3 = (
            adj_lie(P, Y1, f_map(ctx, Y2, v))
            - f_map(ctx, Y2, adj_lie(P, Y1, v))
            - adj_lie(P, Y2, f_map(ctx, Y1, v))
            + f_map(ctx, Y1, adj_lie(P, Y2, v))
        )
        rhs3 = f_map(ctx, bracket_extend(Y1, Y2), v)
        if not (lhs3 - rhs3).is_zero():
            failures.append(f"bracket compatibility fails at (p,q)=({p},{q})")
        checked += 1
        if failures:
            return CheckReport(False, tuple(failures), checked)
    return CheckReport(True, (), checked)


def _f_delta_right_side(ctx: EtaContext, Y: LElement, v: Multivector) -> Multivector:
    """Double sum on the right of the anticommutator identity."""
    P, alg = ctx.P, ctx.alg
    out = Multivector(P, v.degree)
    for legs, c in v.terms.items():
        # module-module part: remove two symbol factors, multiply the tensor in
        for a in range(P.d):
            da = c.partial(P.n + a)
            if da.is_zero():
                continue
            for b in range(P.d):
                dab = da.partial(P.n + b)
                if dab.is_zero():
                    continue
                eta = ctx.eta_l(Y, alg.basis_element(a), alg.basis_element(b))
                if eta.is_zero():
                    continue
                out = out + Multivector(
                    P, v.degree, {legs: dab * P.element_symbol(eta)}
                )
        # leg-module part: replace a leg by the derivation tensor of a factor
        for t, u in enumerate(legs):
            rest = legs[:t] + legs[t + 1:]
            for a in range(P.d):
                da = c.partial(P.n + a)
                if da.is_zero():
                    continue
                eta = ctx.eta_der(Y, alg.basis_element(a), alg.coordinate_field(alg.vars[u]))
                if eta.is_zero():
                    continue
                for w, im in enumerate(eta.images):
                    new, sign = insert_leg(rest, w)
                    if im.is_zero() or not sign:
                        continue
                    out = out + Multivector(
                        P, v.degree, {new: (P.lift(im) * da).scale(sign * (-1) ** t)}
                    )
    return out


def verify_pbw_chain(ctx: EtaContext, samples: int = 50, seed: int = 0,
                     p_max: int = 2, q_max: int = 2, arg_deg: int = 2) -> CheckReport:
    """The lift exchanges the Koszul differential with minus the cochain one."""
    P = ctx.P
    rng = random.Random(seed)
    failures = []
    checked = 0
    for _ in range(samples):
        p = rng.randint(0, min(p_max, P.n - 1) if P.n else 0)
        q = rng.randint(0, q_max)
        v = _random_adjoint_term(rng, P, p, q)
        args = _random_args(rng, P.n, p + 1, arg_deg)
        lhs = extended_lift_eval(ctx, adj_delta(P, v), args)
        rhs = hochschild_b(extended_lift(ctx, v)).eval_monos(args)
        if not (lhs + rhs).is_zero():
            failures.append(f"chain relation fails at (p,q)=({p},{q}), args {args}")
            return CheckReport(False, tuple(failures), checked)
        checked += 1
    return CheckReport(True, (), checked)


def verify_identity_tower(ctx: EtaContext, n_max: int = 1, p_max: int = 2,
                          q_max: int = 2, samples: int = 50, seed: int = 0,
                          arg_deg: int = 1) -> CheckReport:
    """The commutator tower: module actions of the tower maps against the
    next level composed with the two differentials."""
    P, alg = ctx.P, ctx.alg
    rng = random.Random(seed)
    failures = []
    checked = 0
    for _ in range(samples):
        n = rng.randint(0, n_max)
        Ys = tuple(_rand_lelement(rng, alg) for _ in range(n + 1))
        p_hi = min(p_max, P.n)
        if p_hi < n:
            # every map in the identity lands in negative arity and vanishes
            checked += 1
            continue
        p = rng.randint(n, p_hi)
        q = rng.randint(0, q_max)
        v = _random_adjoint_term(rng, P, p, q)
        for args in [_random_args(rng, P.n, p - n, arg_deg)]:
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
                failures.append(
                    f"tower identity fails at n={n}, (p,q)=({p},{q}), args {args}"
                )
                return CheckReport(False, tuple(failures), checked)
            checked += 1
    return CheckReport(True, (), checked)


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


def verify_morphism_chain(ctx: EtaContext, el: NLCochainElement,
                          arg_deg: int = 1, max_args: int = 1,
                          out_cap: int | None = None) -> CheckReport:
    """Chain-map property of the assembled morphism, on generator tuples.

    Both sides are degree k+1 tuples of ring cochains; component m is compared
    on basis module tuples and monomial arguments.
    """
    from .quasimod import nl_ce_apply

    P, alg = ctx.P, ctx.alg
    k = el.degree
    failures = []
    checked = 0
    if out_cap is None:
        out_cap = el.cap - 1 if el.cap else 1
    image_el = nl_ce_apply(el, out_cap=out_cap)
    for m in range(0, k + 2):
        ce_args = k + 1 - m
        for gens in itertools.combinations(range(alg.rank), ce_args):
            Ys = tuple(alg.basis_element(a) for a in gens)
            for args in monomial_tuples(P.n, m, arg_deg)[:max_args] or [()]:
                lhs = morphism_component(ctx, image_el, m, Ys, args)
                rhs = _target_total(ctx, el, m, Ys, args)
                if not (lhs - rhs).is_zero():
                    failures.append(f"chain property fails at column {m}, {gens}, {args}")
                    if len(failures) >= 2:
                        return CheckReport(False, tuple(failures), checked)
                checked += 1
    return CheckReport(not failures, tuple(failures), checked)


def _target_total(ctx: EtaContext, el: NLCochainElement, m: int, Ys: tuple,
                  args: tuple) -> UEAElement:
    """Total differential on the morphism image, evaluated at one point."""
    U = ctx.U
    total = U.zero()

    def act(Y, rest):
        inner = TableCochain(U, m, lambda exps: morphism_component(ctx, el, m, rest, exps))
        return lie_action(Y, inner).eval_monos(args)

    def bracketed(Y, Z, rest):
        return _morphism_multilinear(ctx, el, m, (bracket_extend(Y, Z),) + rest, args)

    for sign, term in ce_terms(Ys, act, bracketed):
        total = total + term.scale(sign)
    # module differential of the previous column with the total-complex sign
    if m >= 1:
        inner = TableCochain(
            U, m - 1, lambda exps: morphism_component(ctx, el, m - 1, Ys, exps)
        )
        term = hochschild_b(inner).eval_monos(args)
        total = total + term.scale(1 if len(Ys) % 2 == 0 else -1)
    return total


def _morphism_multilinear(ctx: EtaContext, el: NLCochainElement, m: int,
                          Ys: tuple, args: tuple) -> UEAElement:
    """Expand module arguments with polynomial coefficients multilinearly over
    the constants (the morphism components are only constants-linear)."""
    U = ctx.U
    alg = ctx.alg
    total = U.zero()
    expansions = []
    for Y in Ys:
        pieces = []
        for a, f in enumerate(Y.coeffs):
            for exp, cc in f.terms.items():
                pieces.append((exp, a, cc))
        expansions.append(pieces)
    for combo in itertools.product(*expansions):
        coeff = 1
        elems = []
        for exp, a, cc in combo:
            coeff *= cc
            elems.append(_larg_element(alg, (exp, a)))
        total = total + morphism_component(ctx, el, m, tuple(elems), args).scale(coeff)
    return total


def morphism_membership_defect(ctx: EtaContext, el: NLCochainElement,
                               r: Polynomial, witness_args: tuple = ()) -> UEAElement:
    """Defect of the image tuple against the target-side nonlinearity.

    Returns psi_i(Y_1..r*Y_m) - r*psi_i(Y_1..Y_m) - h_{r,Y_m}(psi_{i+1}(..))
    evaluated at the first basis tuple of the top row; a nonzero value
    exhibits that the morphism image leaves the nonlinear subspace.
    """
    alg = ctx.alg
    k = el.degree
    i = 0
    m = k - i
    if m < 1 or alg.rank < m:
        raise ValueError("need at least one module argument to scale")
    Ys = tuple(alg.basis_element(a) for a in range(m))
    scaled = Ys[:-1] + (Ys[-1].scale(r),)
    lhs = _morphism_multilinear(ctx, el, i, scaled, witness_args)
    lhs = lhs - ctx.U.scalar(r) * morphism_component(ctx, el, i, Ys, witness_args)
    inner = TableCochain(
        ctx.U, i + 1,
        lambda exps: morphism_component(ctx, el, i + 1, Ys[:-1], exps),
    )
    rhs = homotopy(r, Ys[-1], inner).eval_monos(witness_args)
    return lhs - rhs
