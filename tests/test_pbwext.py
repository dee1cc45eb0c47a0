import itertools
import json
import random
from collections import Counter

import pytest

from rinehart import cli, pbwext, presets, quasimod
from rinehart.cochain import TableCochain, hochschild_b, cochain_equal
from rinehart.pbwext import (
    EtaContext,
    f_map,
    morphism_membership_defect,
    tower_eval,
    tower_map,
    verify_eta_properties,
    verify_f_identities,
    verify_identity_tower,
    verify_morphism_chain,
    verify_pbw_chain,
)
from rinehart.poisson import Multivector
from rinehart.poly import Polynomial, PolyDerivation, insert_leg, parse_poly
from rinehart.quasimod import (adj_delta, adj_h, adjoint_instance, multivector_to_nl,
                               replace_legs_and_factors)
from test_cochain import cup_derivation
from test_quasimod import BUILTINS, random_connection
from test_uea import filtration_degree

ALGEBRAS = [
    ("weyl1", lambda: presets.weyl(1)),
    ("weyl2", lambda: presets.weyl(2)),
    ("sl2", lambda: presets.lie("sl2")),
    ("semidirect", lambda: presets.semidirect_sl2()),
    ("arr3", lambda: presets.arrangement(["x", "y-x", "y+x"])),
    ("arr4", lambda: presets.arrangement(["x", "y", "y-x", "y+x"])),
]


def rand_mv(rng, P, k, coeff=1):
    # adjoint elements: base-direction legs only, symbol factors in the coefficient
    terms = {}
    for legs in itertools.combinations(range(P.n), k):
        exp = tuple(rng.randint(0, coeff) for _ in range(P.N))
        terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-1, 1, 2]))
    return Multivector(P, k, terms)


def rand_poly(rng, vars, terms=2):
    p = Polynomial.zero(vars)
    for _ in range(terms):
        exp = tuple(rng.randint(0, 1) for _ in vars)
        p = p + Polynomial.monomial(vars, exp, rng.choice([-2, -1, 1, 2]))
    return p


def rand_adjoint_mv(rng, P, k):
    """Base-direction legs, each leg set with a multi-term symbol coefficient
    of symbol degree up to two in every generator."""
    return Multivector(P, k, {legs: rand_poly(rng, P.vars) * rand_poly(rng, P.vars)
                              for legs in itertools.combinations(range(P.n), k)})


CONNECTION_CASES = [(name, False) for name in BUILTINS] + [("weyl(2)", True)]


# -- eta tensors -----------------------------------------------------------


def test_eta_vanishes_for_lie_algebras():
    ctx = EtaContext(presets.lie("sl2"))
    alg = ctx.alg
    D = PolyDerivation.zero(alg.vars)
    e, f = alg.basis_element(0), alg.basis_element(1)
    assert ctx.eta_mixed(e, D, f).is_zero()
    assert ctx.eta_l(e, f, alg.basis_element(2)).is_zero()


@pytest.mark.parametrize("name,maker", ALGEBRAS[:4])
def test_eta_properties(name, maker):
    assert verify_eta_properties(EtaContext(maker()), samples=12, seed=5).ok


def test_eta_properties_random_connection():
    alg = presets.weyl(2)
    conn = random_connection(random.Random(3), alg)
    assert verify_eta_properties(EtaContext(alg, conn), samples=10, seed=7).ok


def test_eta_context_computes_each_distinct_triple_once():
    # the tower asks for eta_mixed triples and induced-connection images
    # repeatedly; each distinct one reaches the connection once per context
    ctx = EtaContext(presets.weyl(2))
    conn, calls = ctx.conn, Counter()

    class CountingConnection:
        def __getattr__(self, name):
            def counted(*args):
                calls[(name,) + args] += 1
                return getattr(conn, name)(*args)
            return counted

    ctx.conn = CountingConnection()
    triples = []
    eta_mixed = ctx.eta_mixed
    ctx.eta_mixed = lambda *args: triples.append(args) or eta_mixed(*args)
    assert verify_identity_tower(ctx, samples=20, seed=7).ok
    assert len(triples) > len(set(triples)) > 0
    # eta_mixed calls nabla three times, and nothing else in the tower does
    assert sum(n for key, n in calls.items() if key[0] == "nabla") == 3 * len(set(triples))
    # each distinct induced-connection image, on a derivation or on a
    # module element, is computed once
    images = {(key[0], n) for key, n in calls.items() if key[0] in ("basic_der", "basic_l")}
    assert images == {("basic_der", 1), ("basic_l", 1)}


def test_a_wrong_eta_tensor_fails_with_a_replayable_witness(monkeypatch, capsys):
    monkeypatch.setattr(EtaContext, "eta_mixed", lambda self, Y, D, X: Y)
    code = cli.main(["--algebra", "weyl(1)", "--seed", "3", "verify", "eta", "--samples", "12"])
    detail = next(c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]
                  if c["name"] == "eta-tensor-properties")
    assert code == 1
    assert detail.startswith("trial 0, seed=3: ")
    replay = verify_eta_properties(EtaContext(presets.weyl(1)), samples=1, seed=3)
    assert replay.failures[0] == detail.split("; ")[0]


@pytest.mark.parametrize("check, name, witness", [
    (verify_f_identities, "weyl(2)", "trial 5, seed=5: leg-lowering anticommutator fails"),
    (verify_pbw_chain, "semidirect(sl2,std)", "trial 1, seed=5: chain relation fails"),
    (verify_identity_tower, "weyl(2)", "trial 16, seed=5: tower identity fails"),
])
def test_a_negated_koszul_differential_fails_with_a_replayable_witness(monkeypatch, check,
                                                                        name, witness):
    monkeypatch.setattr(pbwext, "adj_delta", lambda P, v: -adj_delta(P, v))
    rep = check(EtaContext(presets.builtin(name)), samples=50, seed=5)
    trial = int(witness.split()[1].rstrip(","))
    assert rep.failures[0].startswith(witness) and rep.trials == trial + 1
    replay = check(EtaContext(presets.builtin(name)), samples=trial + 1, seed=5)
    assert replay.failures == rep.failures


def test_verify_eta_replays_a_leg_lowering_witness_with_samples_n_plus_one(monkeypatch, capsys):
    # every seeded check of `verify eta` runs --samples trials, so a witness
    # at trial N replays with --samples N+1
    monkeypatch.setattr(pbwext, "adj_delta", lambda P, v: -adj_delta(P, v))
    details = []
    for samples in ("50", "6"):
        code = cli.main(["--algebra", "weyl(2)", "--seed", "5", "verify", "eta",
                         "--samples", samples])
        assert code == 1
        details.append(next(c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]
                            if c["name"] == "leg-lowering-identities"))
    assert details[0].startswith("trial 5, seed=5: leg-lowering anticommutator fails")
    assert details[1] == details[0]


def test_eta_hand_value_weyl():
    # (r, X, Y, D) = (x, e, e, d/dx) with the trivial connection: every term
    # of the scaling expansion vanishes individually, and so does the tensor
    ctx = EtaContext(presets.weyl(1))
    alg = ctx.alg
    e = alg.basis_element(0)
    dx = alg.coordinate_field("x")
    assert ctx.eta_mixed(e, dx, e).is_zero()
    xe = e.scale(parse_poly(alg.vars, "x"))
    assert ctx.eta_mixed(xe, dx, e).is_zero()
    # a genuinely nonzero value: scale the module argument by x^2 instead
    x2e = e.scale(parse_poly(alg.vars, "x^2"))
    assert ctx.eta_mixed(e, dx, x2e).is_zero()  # property (b): R-linear slot
    assert ctx.eta_mixed(x2e, dx, xe) == e.scale(parse_poly(alg.vars, "2*x"))


# -- the leg-lowering maps ---------------------------------------------------


def test_f_map_vanishes_for_lie_algebras():
    ctx = EtaContext(presets.lie("sl2"))
    P = ctx.P
    rng = random.Random(5)
    v = rand_mv(rng, P, 0)
    assert f_map(ctx, ctx.alg.basis_element(0), v).is_zero()


@pytest.mark.parametrize("name,maker", [ALGEBRAS[0], ALGEBRAS[1], ALGEBRAS[3]])
def test_f_identities(name, maker):
    assert verify_f_identities(EtaContext(maker()), samples=10, seed=5).ok


def reference_f_map(ctx, Y, v):
    """Lower one leg, raise the symbol degree through the mixed eta tensor,
    one sum per (term, leg, factor)."""
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


def reference_f_delta_right_side(ctx, Y, v):
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


@pytest.mark.parametrize("name,random_conn", CONNECTION_CASES)
def test_leg_lowering_operators_match_the_reference_loops(name, random_conn):
    alg = presets.builtin(name)
    rng = random.Random(53)
    ctx = EtaContext(alg, random_connection(rng, alg) if random_conn else None)
    P = ctx.P
    nonzero = Counter()
    for k in range(P.n + 1):
        for _ in range(2):
            v = rand_adjoint_mv(rng, P, k)
            Y = alg.element([rand_poly(rng, alg.vars) for _ in range(alg.rank)])
            lowered = reference_f_map(ctx, Y, v)
            assert f_map(ctx, Y, v) == lowered
            # verify_f_identities' right side: each symbol partial with the
            # eta tensors of its factor in place of a leg or a second factor
            right = Multivector(P, k)
            for a in range(P.d):
                right = right + replace_legs_and_factors(
                    P, v.partial(P.n + a),
                    lambda u: ctx.eta_der(Y, alg.basis_element(a),
                                          alg.coordinate_field(alg.vars[u])),
                    lambda b: ctx.eta_l(Y, alg.basis_element(a), alg.basis_element(b)))
            assert right == reference_f_delta_right_side(ctx, Y, v)
            assert f_map(ctx, Y, adj_delta(P, v)) + adj_delta(P, f_map(ctx, Y, v)) == right
            nonzero.update(f_map=not lowered.is_zero(), right=not right.is_zero())
    assert not random_conn or (nonzero["f_map"] and nonzero["right"])
    assert verify_f_identities(ctx, samples=6, seed=5).ok


# -- the extended lift ---------------------------------------------------------


def test_lift_base_case_single_derivation():
    ctx = EtaContext(presets.weyl(1))
    v = Multivector(ctx.P, 1, {(0,): Polynomial.const(ctx.P.vars, 1)})
    assert tower_eval(ctx, (), v, ((2,),)) == ctx.U.scalar(parse_poly(ctx.alg.vars, "2*x"))


def test_lift_pure_symbol_is_factorial_multiple_of_the_lift():
    # no prefactor in the recursion: the zero-leg case gives q! times the
    # PBW section of the symbol, which is e*e on e^2 and x*e*e on x*e^2
    ctx = EtaContext(presets.weyl(1))
    e = ctx.U.generator(0)
    m = parse_poly(ctx.P.vars, "e^2")
    v = Multivector(ctx.P, 0, {(): m})
    assert tower_eval(ctx, (), v, ()) == (e * e).scale(2)
    m3 = parse_poly(ctx.P.vars, "x*e^2")
    v3 = Multivector(ctx.P, 0, {(): m3})
    x = ctx.U.scalar(parse_poly(ctx.alg.vars, "x"))
    assert tower_eval(ctx, (), v3, ()) == (x * e * e).scale(2)


def test_lift_one_step_hand_expansion():
    # one leg tensor one symbol factor, evaluated at x: head term plus the
    # factor term, no connection correction for the trivial connection
    ctx = EtaContext(presets.weyl(1))
    v = Multivector(ctx.P, 1, {(0,): parse_poly(ctx.P.vars, "e")})
    e = ctx.U.generator(0)
    assert tower_eval(ctx, (), v, ((1,),)) == e.scale(2)


def test_lift_hkr_antisymmetrized_cups():
    ctx = EtaContext(presets.weyl(2))
    P, U = ctx.P, ctx.U
    v = Multivector(P, 2, {(0, 1): Polynomial.const(P.vars, 1)})
    d1 = ctx.alg.coordinate_field("x1")
    d2 = ctx.alg.coordinate_field("x2")
    for args in [((1, 0), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0))]:
        monos = [Polynomial.monomial(ctx.alg.vars, a, 1) for a in args]
        want = U.scalar(d1(monos[0])) * U.scalar(d2(monos[1])) - U.scalar(
            d2(monos[0])
        ) * U.scalar(d1(monos[1]))
        assert tower_eval(ctx, (), v, args) == want


def test_cup_differential_identity():
    # b(D u phi) = -D u b(phi) pointwise on random capped cochains
    alg = presets.weyl(2)
    ctx = EtaContext(alg)
    rng = random.Random(7)
    from rinehart.cochain import monomial_tuples

    for arity in (0, 1, 2):
        table = {}
        for exps in monomial_tuples(2, arity, 3):
            g = [0] * alg.rank
            g[rng.randrange(alg.rank)] += rng.randint(0, 2)
            c = Polynomial.monomial(alg.vars, tuple(rng.randint(0, 1) for _ in alg.vars),
                                    rng.choice([-1, 1]))
            table[exps] = ctx.U.monomial(c, tuple(g))
        phi = TableCochain.from_table(ctx.U, arity, table, cap=40)
        D = alg.coordinate_field("x1").scale_by(parse_poly(alg.vars, "x2"))
        lhs = hochschild_b(cup_derivation(D, phi))
        rhs = cup_derivation(D, hochschild_b(phi))
        total = lambda exps: lhs.eval_monos(exps) + rhs.eval_monos(exps)
        for exps in monomial_tuples(2, arity + 2, 2):
            assert total(exps).is_zero()


def test_chain_relation_all_builtins():
    for name, maker in ALGEBRAS:
        ctx = EtaContext(maker())
        rep = verify_pbw_chain(ctx, samples=25, seed=7)
        assert rep.ok, (name, rep.failures)


# -- the tower ---------------------------------------------------------------


def test_level_zero_checks_its_arity():
    ctx = EtaContext(presets.weyl(1))
    scalar = Multivector(ctx.P, 0, {(): parse_poly(ctx.P.vars, "x")})
    with pytest.raises(ValueError):
        tower_eval(ctx, (), scalar, ((1,),))
    one_leg = Multivector(ctx.P, 1, {(0,): parse_poly(ctx.P.vars, "e")})
    with pytest.raises(ValueError):
        tower_eval(ctx, (), one_leg, ())


def test_tower_level_one_vanishes_for_lie_algebras():
    ctx = EtaContext(presets.lie("sl2"))
    rng = random.Random(11)
    v = rand_mv(rng, ctx.P, 0)
    Y = ctx.alg.basis_element(0)
    assert tower_eval(ctx, (Y,), v, ()).is_zero()


def test_tower_weyl_hand_case():
    # one module element, one leg, no symbol part: every branch vanishes
    ctx = EtaContext(presets.weyl(1))
    v = Multivector(ctx.P, 1, {(0,): Polynomial.const(ctx.P.vars, 1)})
    Y = ctx.alg.basis_element(0)
    value = tower_eval(ctx, (Y,), v, ())
    assert value.is_zero()
    assert filtration_degree(value) == 0


def test_tower_values_respect_filtration():
    ctx = EtaContext(presets.semidirect_sl2())
    rng = random.Random(13)
    for _ in range(6):
        p = rng.randint(1, 2)
        q = rng.randint(0, 2)
        legs = tuple(sorted(rng.sample(range(ctx.P.n), p)))
        exp = [0] * ctx.P.N
        for _ in range(q):
            exp[ctx.P.n + rng.randrange(ctx.P.d)] += 1
        v = Multivector(ctx.P, p, {legs: Polynomial.monomial(ctx.P.vars, tuple(exp), 1)})
        Y = ctx.alg.basis_element(rng.randrange(ctx.alg.rank))
        args = tuple(tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(p - 1))
        value = tower_eval(ctx, (Y,), v, args)
        assert filtration_degree(value) <= q


def test_identity_tower_all_builtins():
    for name, maker in ALGEBRAS:
        ctx = EtaContext(maker())
        rep = verify_identity_tower(ctx, samples=25, seed=7)
        assert rep.ok, (name, rep.failures)


def reference_tower_eval(ctx, Ys, v, args, memo):
    """tower_eval with one element per product and per partial sum, added two
    at a time; memo in place of the context's tower cache."""
    total = ctx.U.zero()
    for coeff, Ds, Xs, scalar in pbwext._decompose(ctx, v):
        if scalar is not None:
            if not Ys:
                total = total + ctx.U.scalar(scalar).scale(coeff)
            continue
        total = total + reference_tower_term(ctx, Ys, Ds, Xs, args, memo).scale(coeff)
    return total


def reference_tower_term(ctx, Ys, Ds, Xs, args, memo):
    n, U = len(Ys), ctx.U
    if len(Ds) < n:
        return U.zero()
    if not (Ys or Ds or Xs):
        return U.one()
    key = (Ys, Ds, Xs, args)
    if key in memo:
        return memo[key]
    term = lambda Ys, Ds, Xs, args: reference_tower_term(ctx, Ys, Ds, Xs, args, memo)
    result = U.zero()
    mono = Polynomial.monomial(ctx.alg.vars, args[0], 1) if args else None
    for i, D in enumerate(Ds if mono is not None else ()):
        head = D(mono)
        if not head.is_zero():
            rest = Ds[:i] + Ds[i + 1:]
            value = U.scalar(head) * term(Ys, rest, Xs, args[1:])
            result = result + (value if (i + n) % 2 == 0 else value.scale(-1))
    for j, X in enumerate(Xs):
        rest = Xs[:j] + Xs[j + 1:]
        result = result + U.include(X) * term(Ys, Ds, rest, args)
        for piece_Ds, piece_Xs, c in pbwext._nabla_b_decomposed(ctx, X, Ds, rest):
            result = result - term(Ys, piece_Ds, piece_Xs, args).scale(c)
    for i, Y in enumerate(Ys):
        sign = 1 if (i + 1 + n) % 2 == 0 else -1
        for piece_Ds, piece_Xs, c in pbwext._f_decomposed(ctx, Y, Ds, Xs):
            result = result + term(Ys[:i] + Ys[i + 1:], piece_Ds, piece_Xs, args).scale(sign * c)
    memo[key] = result
    return result


@pytest.mark.parametrize("name", ["weyl(2)", "semidirect(sl2,std)"])
@pytest.mark.parametrize("random_conn", [False, True])
def test_tower_accumulation_equals_the_pairwise_reference(name, random_conn):
    alg = presets.builtin(name)
    rng = random.Random(59)
    ctx = EtaContext(alg, random_connection(rng, alg) if random_conn else None)
    P, memo = ctx.P, {}
    levels = Counter()
    for _ in range(24):
        # the identity tower's draws, one level higher: n <= 2 module
        # arguments, p <= 2 legs, q <= 2 symbol factors, arguments of degree <= 2
        n = rng.randint(0, 2)
        Ys = tuple(pbwext._rand_lelement(rng, alg) for _ in range(n))
        p = rng.randint(n, 2)
        v = pbwext._random_adjoint_term(rng, P, p, rng.randint(0, 2))
        args = pbwext._random_args(rng, P.n, p - n, 2)
        value = tower_eval(ctx, Ys, v, args)
        assert value == reference_tower_eval(ctx, Ys, v, args, memo), (n, p, args)
        assert all(c and (c.__class__ is int or c.denominator != 1) for c in value.flat.values())
        levels[n] += not value.is_zero()
    assert levels[0] and levels[1]


# -- the assembled morphism -----------------------------------------------------


def test_morphism_degree_zero_is_the_lift():
    ctx = EtaContext(presets.weyl(1))
    inst = adjoint_instance(ctx.alg)
    rng = random.Random(15)
    from rinehart.pbwext import morphism_component

    m = parse_poly(ctx.P.vars, "x*e^2 - e")
    D = Multivector(ctx.P, 0, {(): m})
    el = multivector_to_nl(inst, D, cap=2)
    assert morphism_component(ctx, el, 0, (), ()) == tower_eval(ctx, (), D, ())


@pytest.mark.parametrize("degree", [0, 1])
def test_morphism_chain_property_weyl(degree):
    ctx = EtaContext(presets.weyl(1))
    inst = adjoint_instance(ctx.alg)
    rng = random.Random(17)
    D = rand_mv(rng, ctx.P, degree)
    el = multivector_to_nl(inst, D, cap=3)
    rep = verify_morphism_chain(ctx, el, max_args=2)
    assert rep.ok, rep.failures


def test_morphism_chain_property_semidirect_degree1():
    ctx = EtaContext(presets.semidirect_sl2())
    inst = adjoint_instance(ctx.alg)
    rng = random.Random(19)
    D = rand_mv(rng, ctx.P, 1, coeff=0)
    el = multivector_to_nl(inst, D, cap=4)
    rep = verify_morphism_chain(ctx, el, max_args=1, out_cap=1)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("degree", [1, 2])
def test_morphism_chain_property_reaches_nonzero_bracket_terms(degree, monkeypatch):
    # lie(sl2) has no base variables, so every leg is a generator direction
    # and the bracket terms of the target differential are nonzero
    ctx = EtaContext(presets.lie("sl2"))
    P = ctx.P
    rng = random.Random(17)
    D = Multivector(P, degree, {
        legs: Polynomial.monomial(P.vars, tuple(rng.randint(0, 1) for _ in range(P.N)),
                                  rng.choice([-1, 1, 2]))
        for legs in itertools.combinations(range(P.N), degree)})
    el = multivector_to_nl(adjoint_instance(ctx.alg), D, cap=3)
    # the bracketed terms of the total differential on the Hochschild side,
    # the ones valued in ring cochains
    bracket_terms = []
    original = quasimod.ce_terms

    def recording(args, act, bracketed):
        def record(*parts):
            value = bracketed(*parts)
            if isinstance(value, TableCochain):
                bracket_terms.append(value)
            return value
        return original(args, act, record)

    monkeypatch.setattr(quasimod, "ce_terms", recording)
    rep = verify_morphism_chain(ctx, el, max_args=1)
    assert rep.ok, rep.failures
    assert any(not v.eval_monos(((),) * v.arity).is_zero() for v in bracket_terms)


def test_homotopy_exchange_corrected_sign_holds():
    # the true exchange law carries a minus on the rescaled-subscript tower map
    alg = presets.weyl(1)
    ctx = EtaContext(alg)
    P = ctx.P
    rng = random.Random(11)
    from rinehart.cochain import homotopy

    for _ in range(10):
        terms = {}
        for legs in itertools.combinations(range(P.n), 1):
            exp = tuple(rng.randint(0, 2) for _ in range(P.N))
            terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-1, 1, 2]))
        v = Multivector(P, 1, terms)
        r = Polynomial.monomial(alg.vars, (rng.randint(1, 2),), 1)
        Y = alg.element([Polynomial.monomial(alg.vars, (rng.randint(0, 2),), rng.choice([1, -1]))])
        lhs = tower_eval(ctx, (), adj_h(P, r, Y, v), ()) - homotopy(
            r, Y, tower_map(ctx, (), v)
        ).eval_monos(())
        rhs = ctx.U.scalar(r) * tower_eval(ctx, (Y,), v, ()) - tower_eval(
            ctx, (Y.scale(r),), v, ()
        )
        assert (lhs - rhs).is_zero()


def test_morphism_membership_defect_vanishes_in_degree_one():
    # consequence of the corrected exchange law: degree-one images satisfy
    # the target nonlinearity constraint exactly
    alg = presets.weyl(2)
    ctx = EtaContext(alg)
    inst = adjoint_instance(alg)
    rng = random.Random(3)
    for _ in range(4):
        D = rand_mv(rng, ctx.P, 1)
        el = multivector_to_nl(inst, D, cap=4)
        assert morphism_membership_defect(ctx, el, parse_poly(alg.vars, "x1^2"), ()).is_zero()


def test_homotopy_exchange_fails_through_the_lift():
    # the displayed degree-one obstruction: lift of the source homotopy minus
    # the target homotopy of the lift is not r s1_Y + s1_{rY}
    alg = presets.weyl(1)
    ctx = EtaContext(alg)
    P = ctx.P
    rng = random.Random(11)
    from rinehart.cochain import homotopy

    found = False
    for _ in range(10):
        terms = {}
        for legs in itertools.combinations(range(P.n), 1):
            exp = tuple(rng.randint(0, 2) for _ in range(P.N))
            terms[legs] = Polynomial.monomial(P.vars, exp, rng.choice([-1, 1, 2]))
        v = Multivector(P, 1, terms)
        r = Polynomial.monomial(alg.vars, (rng.randint(1, 2),), 1)
        Y = alg.element([Polynomial.monomial(alg.vars, (rng.randint(0, 2),), rng.choice([1, -1]))])
        lhs = tower_eval(ctx, (), adj_h(P, r, Y, v), ()) - homotopy(
            r, Y, tower_map(ctx, (), v)
        ).eval_monos(())
        rhs = ctx.U.scalar(r) * tower_eval(ctx, (Y,), v, ()) + tower_eval(
            ctx, (Y.scale(r),), v, ()
        )
        if not (lhs - rhs).is_zero():
            found = True
            break
    assert found
