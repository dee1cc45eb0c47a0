import random
from fractions import Fraction

import pytest

from rinehart import presets, quasimod
from rinehart.lie_rinehart import (
    CheckReport,
    Connection,
    LieRinehartAlgebra,
    PresentationError,
    bracket_extend,
    check_axioms,
    from_action,
    seeded_check,
)
from rinehart.poisson import Multivector, SymAlgebra
from rinehart.poly import Polynomial, PolyDerivation, parse_poly
from rinehart.quasimod import ruth_check
from test_poisson import reference_summed
from test_quasimod import (BUILTINS, rand_adjoint_mv, random_connection,
                           reference_replace_legs_and_factors)


def rand_poly(rng, alg, max_deg=2):
    p = alg.zero_poly()
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, max_deg) for _ in alg.vars)
        p = p + Polynomial.monomial(alg.vars, exp, rng.choice([-2, -1, 1, 2]))
    return p


def rand_element(rng, alg):
    return alg.element([rand_poly(rng, alg) for _ in range(alg.rank)])


# -- axioms ---------------------------------------------------------------


def test_abelian_passes():
    assert check_axioms(presets.lie("abelian2")).ok


def test_weyl_passes():
    assert check_axioms(presets.weyl(1)).ok
    assert check_axioms(presets.weyl(2)).ok


def test_sl2_passes_and_flipped_sign_fails_with_witness():
    assert check_axioms(presets.lie("sl2")).ok
    vars = ()
    basis = ("e", "f", "h")
    z = PolyDerivation.zero(vars)
    c = lambda v: Polynomial.const(vars, v)
    bad = LieRinehartAlgebra(
        vars,
        basis,
        (z, z, z),
        {  # [e,h] sign flipped
            (0, 1): (c(0), c(0), c(1)),
            (0, 2): (c(2), c(0), c(0)),
            (1, 2): (c(0), c(2), c(0)),
        },
    )
    rep = check_axioms(bad)
    assert not rep.ok
    assert any("Jacobi" in f and "e" in f and "f" in f and "h" in f for f in rep.failures)


def test_weight_homogeneity_checked():
    alg = presets.arrangement(["x", "y-x", "y+x"])
    assert check_axioms(alg).ok
    bad = LieRinehartAlgebra(
        alg.vars, alg.basis, alg.anchor, alg.structure,
        weights={"x": 1, "y": 2, "E": 0, "D": 1},
    )
    rep = check_axioms(bad)
    assert not rep.ok and any("homogeneous" in f for f in rep.failures)


# -- bracket and anchor -----------------------------------------------------


def test_weyl_bracket_forced_by_leibniz():
    alg = presets.weyl(1)
    e = alg.basis_element(0)
    xe = e.scale(parse_poly(alg.vars, "x"))
    assert bracket_extend(xe, e) == -e
    assert bracket_extend(xe, xe).is_zero()


def test_arrangement_bracket():
    alg = presets.arrangement(["x", "y-x", "y+x"])  # r = 1
    E, D = alg.basis_element(0), alg.basis_element(1)
    assert bracket_extend(E, D) == D


def test_anchor_apply():
    alg = presets.weyl(1)
    e = alg.basis_element(0)
    assert e.anchor_derivation()(parse_poly(alg.vars, "x^2")) == parse_poly(alg.vars, "2*x")
    ab = presets.lie("abelian2")
    assert ab.basis_element(0).anchor_derivation()(parse_poly(ab.vars, "3")).is_zero()


def test_arrangement_euler_weight():
    alg = presets.arrangement(["x", "y-x", "y+x"])
    E = alg.basis_element(0)
    assert E.anchor_derivation()(parse_poly(alg.vars, "x^2*y")) == parse_poly(alg.vars, "3*x^2*y")


def test_leibniz_random():
    rng = random.Random(23)
    for alg in (presets.weyl(2), presets.arrangement(["x", "y", "y-x", "y+x"])):
        for _ in range(10):
            X, Y = rand_element(rng, alg), rand_element(rng, alg)
            f = rand_poly(rng, alg)
            lhs = bracket_extend(X, Y.scale(f))
            rhs = Y.scale(X.anchor_derivation()(f)) + bracket_extend(X, Y).scale(f)
            assert (lhs - rhs).is_zero()


def test_jacobi_and_antisymmetry_random():
    rng = random.Random(29)
    alg = presets.semidirect_sl2()
    for _ in range(8):
        X, Y, Z = (rand_element(rng, alg) for _ in range(3))
        assert (bracket_extend(X, Y) + bracket_extend(Y, X)).is_zero()
        jac = (
            bracket_extend(bracket_extend(X, Y), Z)
            + bracket_extend(bracket_extend(Y, Z), X)
            + bracket_extend(bracket_extend(Z, X), Y)
        )
        assert jac.is_zero()


# -- connections ------------------------------------------------------------


def test_basic_connection_weyl_examples():
    alg = presets.weyl(1)
    conn = Connection(alg)
    e = alg.basis_element(0)
    xe = e.scale(parse_poly(alg.vars, "x"))
    assert conn.basic_l(e, xe) == e
    assert conn.basic_der(e, alg.coordinate_field("x")).is_zero()


def test_basic_connection_compatibility_random():
    rng = random.Random(31)
    for alg in (presets.weyl(2), presets.semidirect_sl2()):
        conn = Connection(alg)
        rconn = Connection(
            alg,
            [[rand_element(rng, alg) for _ in range(alg.rank)]
             for _ in range(len(alg.vars))],
        )
        for c in (conn, rconn):
            for _ in range(6):
                X, Y = rand_element(rng, alg), rand_element(rng, alg)
                lhs = c.basic_l(X, Y).anchor_derivation()
                rhs = c.basic_der(X, Y.anchor_derivation())
                assert lhs == rhs


def test_basic_curvature_vanishes_for_lie_algebras():
    alg = presets.lie("sl2")
    conn = Connection(alg)
    rng = random.Random(37)
    for _ in range(5):
        X, Y = rand_element(rng, alg), rand_element(rng, alg)
        D = PolyDerivation.zero(alg.vars)
        assert conn.basic_curvature(X, Y, D).is_zero()


def plain_curvature_l(conn, X, Y, Z):
    """Curvature of the induced connection on L."""
    return (
        conn.basic_l(X, conn.basic_l(Y, Z))
        - conn.basic_l(Y, conn.basic_l(X, Z))
        - conn.basic_l(bracket_extend(X, Y), Z)
    )


def plain_curvature_der(conn, X, Y, D):
    """Curvature of the induced connection on derivations."""
    return (
        conn.basic_der(X, conn.basic_der(Y, D))
        - conn.basic_der(Y, conn.basic_der(X, D))
        - conn.basic_der(bracket_extend(X, Y), D)
    )


def test_basic_curvature_weyl_trivial_connection_value():
    alg = presets.weyl(1)
    conn = Connection(alg)
    e = alg.basis_element(0)
    xe = e.scale(parse_poly(alg.vars, "x"))
    dx = alg.coordinate_field("x")
    k = conn.basic_curvature(e, xe, dx)
    assert k.is_zero()
    # both composite curvatures agree with the plain ones on these inputs
    assert k.anchor_derivation() == plain_curvature_der(conn, e, xe, dx).scale_by(-1)


def test_curvature_relations_random_connection():
    # the five-term tensor composed with the anchor reproduces the plain
    # curvatures up to the documented global sign (docs/signs.md)
    rng = random.Random(41)
    alg = presets.weyl(2)
    table = [[rand_element(rng, alg) for _ in range(alg.rank)]
             for _ in range(len(alg.vars))]
    conn = Connection(alg, table)
    for _ in range(5):
        X, Y, Z = (rand_element(rng, alg) for _ in range(3))
        D = PolyDerivation(alg.vars, [rand_poly(rng, alg) for _ in alg.vars])
        lhs = conn.basic_curvature(X, Y, Z.anchor_derivation())
        assert (lhs + plain_curvature_l(conn, X, Y, Z)).is_zero()
        lhs2 = conn.basic_curvature(X, Y, D).anchor_derivation()
        assert (lhs2 + plain_curvature_der(conn, X, Y, D)).is_zero()


# -- the compositional references ---------------------------------------------
#
# Brackets, anchors, connections and derivations built from whole module
# elements and polynomials: each basis element scaled and added, each
# derivation summed over the partials.  The slot-by-slot library code must
# agree with them.


def reference_apply(D, p):
    """D(p) as the sum over i of (d p / d x_i) D(x_i)."""
    out = Polynomial.zero(D.vars)
    for i, im in enumerate(D.images):
        if not im.is_zero():
            out = out + p.partial(i) * im
    return out


def reference_anchor_derivation(X):
    alg = X.algebra
    images = []
    for u in range(len(alg.vars)):
        im = alg.zero_poly()
        for k, f in enumerate(X.coeffs):
            if f:
                im = im + f * alg.anchor[k].images[u]
        images.append(im)
    return PolyDerivation(alg.vars, images)


def reference_anchor_apply(a, f):
    out = a.algebra.zero_poly()
    for k, c in enumerate(a.coeffs):
        if c:
            out = out + c * reference_apply(a.algebra.anchor[k], f)
    return out


def reference_bracket_extend(a, b):
    alg = a.algebra
    out = alg.zero_element()
    for i, f in enumerate(a.coeffs):
        if f.is_zero():
            continue
        for j, g in enumerate(b.coeffs):
            if g.is_zero():
                continue
            out = out + alg.basis_bracket(i, j).scale(f * g)
    for j, g in enumerate(b.coeffs):
        if not g.is_zero():
            out = out + alg.basis_element(j).scale(reference_anchor_apply(a, g))
    for i, f in enumerate(a.coeffs):
        if not f.is_zero():
            out = out - alg.basis_element(i).scale(reference_anchor_apply(b, f))
    return out


def reference_nabla(conn, D, Y):
    alg = conn.alg
    out = alg.zero_element()
    for j, g in enumerate(Y.coeffs):
        if g.is_zero():
            continue
        out = out + alg.basis_element(j).scale(reference_apply(D, g))
        for u in range(len(alg.vars)):
            du = D.images[u]
            if du.is_zero():
                continue
            out = out + conn.table[u][j].scale(g * du)
    return out


def rand_fraction_poly(rng, vars):
    """Zero about a quarter of the time, else up to three terms of degree <= 2
    per variable with Fraction and int coefficients."""
    p = Polynomial.zero(vars)
    for _ in range(rng.choice([0, 1, 2, 3])):
        exp = tuple(rng.randint(0, 2) for _ in vars)
        p = p + Polynomial.monomial(vars, exp, rng.choice([Fraction(-3, 2), -1, Fraction(1, 3), 2]))
    return p


@pytest.mark.parametrize("name", BUILTINS + ["lie(abelian2)"])
def test_slot_by_slot_arithmetic_equals_the_compositional_reference(name):
    rng = random.Random(47)
    alg = presets.builtin(name)
    conns = (Connection(alg), random_connection(rng, alg))
    for _ in range(8):
        X, Y = (alg.element([rand_fraction_poly(rng, alg.vars) for _ in range(alg.rank)])
                for _ in range(2))
        p = rand_fraction_poly(rng, alg.vars)
        D = PolyDerivation(alg.vars, [rand_fraction_poly(rng, alg.vars) for _ in alg.vars])
        # the paths that reuse X's anchor derivation run first and fill its memo
        bracket_extend(X, Y)
        reused = [(conn.basic_l(X, Y), conn.basic_der(X, D)) for conn in conns]
        rho = X.anchor_derivation()
        assert rho == reference_anchor_derivation(X)
        assert X.anchor_derivation() is rho
        # the memo is not part of the value: EtaContext caches key on elements
        fresh = alg.element(X.coeffs)
        assert fresh == X and hash(fresh) == hash(X)
        assert reused == [(conn.basic_l(fresh, Y), conn.basic_der(fresh, D)) for conn in conns]
        assert D(p) == reference_apply(D, p)
        assert X.anchor_derivation() == reference_anchor_derivation(X)
        assert X.anchor_derivation()(p) == reference_anchor_apply(X, p)
        assert bracket_extend(X, Y) == reference_bracket_extend(X, Y)
        for conn in conns:
            assert conn.nabla(D, Y) == reference_nabla(conn, D, Y)
            assert conn.nabla(X.anchor_derivation(), Y) == reference_nabla(
                conn, reference_anchor_derivation(X), Y)


def reference_adj_nabla_b(P, conn, X, v):
    """adj_nabla_b as the anchor term multiplied out on every partial, zero
    or not, plus the reference leg-and-factor replacement."""
    alg = P.alg
    lifted = [P.lift(im) for im in X.anchor_derivation().images]
    anchored = reference_summed(Multivector, P, v.degree, (
        (legs, c.partial(u) * im)
        for legs, c in v.terms.items() for u, im in enumerate(lifted) if im
    ))
    return anchored + reference_replace_legs_and_factors(
        P, v,
        lambda u: conn.basic_der(X, alg.coordinate_field(alg.vars[u])),
        lambda a: conn.basic_l(X, alg.basis_element(a)),
    )


@pytest.mark.parametrize("name", BUILTINS + ["lie(abelian2)"])
def test_scalings_and_the_symbol_bracket_multiply_no_zero_operand(name, monkeypatch):
    rng = random.Random(53)
    alg = presets.builtin(name)
    P = SymAlgebra(alg)
    conn = random_connection(rng, alg)
    zero = alg.zero_poly()
    products = []
    mul = Polynomial.__mul__

    def recording(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recording)
    zero_products = 0
    for t in range(8):
        # every other slot and image zero; f zero about a quarter of the time
        X = alg.element([rand_fraction_poly(rng, alg.vars) if (k + t) % 2 else zero
                         for k in range(alg.rank)])
        D = PolyDerivation(alg.vars, [rand_fraction_poly(rng, alg.vars) if (u + t) % 2 else zero
                                      for u in range(len(alg.vars))])
        f = rand_fraction_poly(rng, alg.vars)
        # base-variable coefficients that miss some variable, so that some
        # partials along the anchor images vanish
        v = rand_adjoint_mv(rng, P, rng.randint(0, min(2, P.n)))
        X.anchor_derivation()
        products.clear()
        want = (alg.element([f * a for a in X.coeffs]),
                PolyDerivation(alg.vars, [f * a for a in D.images]),
                reference_adj_nabla_b(P, conn, X, v))
        zero_products += sum(1 for a, b in products if not (a and b))
        products.clear()
        got = (X.scale(f), D.scale_by(f), quasimod.adj_nabla_b(P, conn, X, v))
        assert all(a and b for a, b in products), name
        assert got == want
    # the references multiply by zero, so the inputs reach every skip
    assert zero_products


def test_connection_refuses_a_table_entry_of_another_presentation():
    # nabla adds an entry's coefficients slot by slot, so an entry of another
    # rank would be cut to length or overrun the slots
    arr = presets.builtin("arrangement(x,y-x,y+x)")
    table = [[arr.zero_element() for _ in range(arr.rank)] for _ in arr.vars]
    table[0][0] = presets.builtin("semidirect(sl2,std)").basis_element(2)
    with pytest.raises(PresentationError, match="another presentation"):
        Connection(arr, table)


# -- the seeded trial loop ------------------------------------------------------


def test_seeded_check_stops_at_the_first_failing_trial_and_names_its_seed():
    draws = []

    def trial(rng, t):
        draws.append(rng.randrange(1000))
        return [f"x={draws[-1]}", "y"] if t == 3 else []

    rep = seeded_check(10, 42, trial)
    assert rep == CheckReport(False, (f"trial 3, seed=42: x={draws[3]}", "trial 3, seed=42: y"), 4)
    assert len(draws) == 4
    # the same seed and samples = t + 1 replay the same draws
    assert seeded_check(4, 42, trial) == rep and draws[4:] == draws[:4]
    assert seeded_check(7, 42, lambda rng, t: ()) == CheckReport(True, (), 7)


# -- the two-term adjoint complex: the structure operator in generator degree <= 1


@pytest.mark.parametrize(
    "maker",
    [
        lambda: presets.lie("sl2"),
        lambda: presets.weyl(1),
        lambda: presets.weyl(2),
        lambda: presets.semidirect_sl2(),
        lambda: presets.arrangement(["x", "y-x", "y+x"]),
        lambda: presets.arrangement(["x", "y", "y-x", "y+x"]),
    ],
)
def test_ruth_check_builtin_trivial_connection(maker):
    alg = maker()
    assert ruth_check(Connection(alg), degree_cap=3, samples=2).ok


def test_ruth_check_random_connection():
    failing = []
    for name in ["weyl(1)", "weyl(2)", "lie(sl2)", "lie(abelian2)", "semidirect(sl2,std)",
                 "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"]:
        rng = random.Random(43)
        alg = presets.builtin(name)
        table = [[rand_element(rng, alg) for _ in range(alg.rank)]
                 for _ in range(len(alg.vars))]
        if not ruth_check(Connection(alg, table), degree_cap=2, samples=2).ok:
            failing.append(name)
    assert failing == []


def test_ruth_check_witness_replays_with_samples_one_past_its_trial(monkeypatch):
    # a CE sum whose sign flips on three or more arguments first fails at
    # total degree 1, so not at trial 0
    terms = quasimod.ce_terms
    monkeypatch.setattr(quasimod, "ce_terms", lambda args, act, bracketed: (
        (-sign if len(args) >= 3 else sign, term) for sign, term in terms(args, act, bracketed)))
    rng = random.Random(43)
    alg = presets.builtin("semidirect(sl2,std)")
    conn = Connection(alg, [[rand_element(rng, alg) for _ in range(alg.rank)]
                            for _ in range(len(alg.vars))])
    first = ruth_check(conn, degree_cap=2, seed=0, samples=4)
    n = first.trials - 1
    assert not first.ok and n >= 1
    assert first.failures[0].startswith(f"trial {n}, seed=0: ")
    replay = ruth_check(conn, degree_cap=2, seed=0, samples=n + 1)
    assert replay.failures[0] == first.failures[0]


# -- constructors ------------------------------------------------------------


def _sl2_presentation(table):
    zero = PolyDerivation.zero(())
    return LieRinehartAlgebra((), ("e", "f", "h"), (zero, zero, zero), {
        key: tuple(Polynomial.const((), c) for c in cs) for key, cs in table.items()})


def test_bracket_key_below_the_diagonal_is_mirrored():
    # [f, e] = -h is [e, f] = h: a (1, 0) key is not dropped
    mirrored = _sl2_presentation({(1, 0): (0, 0, -1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})
    sl2 = presets.lie("sl2")
    assert mirrored.structure == sl2.structure
    assert all(mirrored.structure_vector(i, j) == sl2.structure_vector(i, j)
               for i in range(3) for j in range(3))
    assert check_axioms(mirrored).ok


def test_bracket_conflicting_with_its_mirror_is_rejected():
    with pytest.raises(PresentationError, match="conflicts with its mirror"):
        _sl2_presentation({(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)})
    # the same bracket given both ways is accepted
    both = _sl2_presentation({(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})
    assert both.structure == {(0, 1): both.structure_vector(0, 1)}


def test_from_action_abelian_scaling():
    vars = ("x",)
    act = (PolyDerivation(vars, [parse_poly(vars, "x")]),)
    alg = from_action(vars, ("t",), {}, act)
    assert check_axioms(alg).ok
    assert alg.structure == {}


def test_from_action_sl2_zero_action():
    vars = ()
    z = PolyDerivation.zero(vars)
    alg = from_action(
        vars, ("e", "f", "h"),
        {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
        (z, z, z),
    )
    assert check_axioms(alg).ok


def test_from_action_sl2_standard_action_passes():
    alg = presets.semidirect_sl2()
    assert check_axioms(alg).ok


def test_from_action_rejects_non_morphism():
    vars = ("x", "y")
    e = PolyDerivation(vars, [parse_poly(vars, "0"), parse_poly(vars, "x")])
    f = PolyDerivation(vars, [parse_poly(vars, "y"), parse_poly(vars, "0")])
    h = PolyDerivation(vars, [parse_poly(vars, "x"), parse_poly(vars, "y")])  # wrong
    with pytest.raises(PresentationError, match="morphism"):
        from_action(
            vars, ("e", "f", "h"),
            {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
            (e, f, h),
        )


@pytest.mark.parametrize("forms, r", [
    (["x"], -1), (["x", "y"], 0), (["x", "y-x", "y+x"], 1), (["x", "y", "y-x", "y+x"], 2),
])
def test_arrangement_bracket_is_deg_f_minus_one(forms, r):
    # Saito's basis E, F d/dy: F is homogeneous of degree len(forms) - 1
    alg = presets.arrangement(forms)
    E, D = alg.basis_element(0), alg.basis_element(1)
    assert bracket_extend(E, D) == D.scale(r)
    assert check_axioms(alg).ok


def test_from_action_rejects_an_arrangement_bracket_off_by_one():
    vars = ("x", "y")
    E = PolyDerivation(vars, [parse_poly(vars, "x"), parse_poly(vars, "y")])
    D = PolyDerivation(vars, [parse_poly(vars, "0"), parse_poly(vars, "y^2-x^2")])
    assert from_action(vars, ("E", "D"), {(0, 1): (0, 1)}, (E, D)).rank == 2
    with pytest.raises(PresentationError, match="morphism"):
        from_action(vars, ("E", "D"), {(0, 1): (0, 2)}, (E, D))


def test_arrangement_presets():
    with pytest.raises(PresentationError):
        presets.arrangement(["y", "y-x"])  # x missing
    with pytest.raises(PresentationError):
        presets.arrangement(["x", "y", "2*y"])  # proportional lines


def test_proportional_compares_exact_ratios():
    XY = ("x", "y")
    assert presets._proportional(parse_poly(XY, "x + y"), parse_poly(XY, "3*x + 3*y"))
    assert not presets._proportional(parse_poly(XY, "2*x + y"), parse_poly(XY, "4*x + 3*y"))
    # ratios that differ by less than a float can tell apart
    big = 10**17
    assert not presets._proportional(parse_poly(XY, f"{big + 1}*x + {big}*y"),
                                      parse_poly(XY, f"{big}*x + {big}*y"))
