import functools
import operator
import random
from fractions import Fraction

import pytest

from rinehart import presets
from rinehart.cochain import (
    CapExceededError,
    TableCochain,
    hochschild_b,
    homotopy,
    lie_action,
    monomial_tuples,
    r_action,
)
from rinehart.poly import Polynomial, multilinear_terms
from rinehart.uea import EnvelopingAlgebra
from test_uea import rand_fraction_poly

BUILTINS = ["weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)",
            "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"]
PROBE_DEGREE = 3


def cup_derivation(D, phi):
    """Prepend a derivation argument: (D u phi)(r0, ..) = D(r0) * phi(..)."""
    U = phi.U

    def kernel(exps):
        mono = Polynomial.monomial(U.alg.vars, exps[0], 1)
        head = D(mono)
        if head.is_zero():
            return U.zero()
        return U.scalar(head) * phi.eval_monos(exps[1:])

    return TableCochain(U, phi.arity + 1, kernel)


def random_table(rng, U, arity, degree):
    alg = U.alg
    table = {}
    for exps in monomial_tuples(len(alg.vars), arity, degree):
        g = [0] * alg.rank
        g[rng.randrange(alg.rank)] += rng.randint(0, 2)
        c = Polynomial.monomial(alg.vars, tuple(rng.randint(0, 1) for _ in alg.vars),
                                rng.choice([-2, -1, 1, 2]))
        table[exps] = U.monomial(c, tuple(g))
    return table


def operator_cochains(U, rng):
    """Every cochain operator over a table-backed cochain of arity 1."""
    alg = U.alg
    phi = TableCochain.from_table(U, 1, random_table(rng, U, 1, 4), cap=40)
    psi = TableCochain.from_table(U, 1, random_table(rng, U, 1, 4), cap=40)
    one = Polynomial.const(alg.vars, 1)
    X = alg.basis_element(0).scale(Polynomial.variable(alg.vars, alg.vars[0]) if alg.vars else one)
    r = Polynomial.variable(alg.vars, alg.vars[-1]) if alg.vars else one
    return {
        "table": phi,
        "hochschild_b": hochschild_b(phi),
        "lie_action": lie_action(X, phi),
        "homotopy": homotopy(r, X, hochschild_b(phi)),
        "cup_derivation": cup_derivation(alg.basis_element(alg.rank - 1).anchor_derivation(),
                                         phi),
        "add": phi + psi,
        "scale": phi.scale(Fraction(-3, 2)),
    }


@pytest.mark.parametrize("spec", BUILTINS)
def test_memoized_values_equal_direct_kernel_calls(spec):
    U = EnvelopingAlgebra(presets.builtin(spec))
    for name, cochain in operator_cochains(U, random.Random(3)).items():
        tuples = monomial_tuples(len(U.alg.vars), cochain.arity, PROBE_DEGREE)
        memoized = [cochain.eval_monos(exps) for exps in tuples]
        # without variables there is one argument tuple, where some vanish
        assert any(not value.is_zero() for value in memoized) or not U.alg.vars, (spec, name)
        for exps, value in zip(tuples, memoized):
            assert value == cochain.kernel(exps), (spec, name, exps)
            assert cochain.eval_monos(exps) is value


def test_kernel_runs_once_per_distinct_tuple():
    U = EnvelopingAlgebra(presets.weyl(2))
    calls = {}

    def kernel(exps):
        calls[exps] = calls.get(exps, 0) + 1
        return U.scalar(Polynomial.monomial(U.alg.vars, exps[0], 1))

    phi = TableCochain(U, 1, kernel)
    # b(phi) asks for phi at a merged argument once per split of it
    b = hochschild_b(phi)
    for _ in range(2):
        for exps in monomial_tuples(len(U.alg.vars), 2, PROBE_DEGREE):
            b.eval_monos(exps)
    assert calls and set(calls.values()) == {1}


def test_cap_exceeded_is_raised_on_every_call():
    U = EnvelopingAlgebra(presets.weyl(1))
    phi = TableCochain.from_table(U, 1, {}, cap=1)
    b = hochschild_b(phi)
    for _ in range(3):
        with pytest.raises(CapExceededError):
            phi.eval_monos(((2,),))
        with pytest.raises(CapExceededError):
            b.eval_monos(((1,), (1,)))
    with pytest.raises(ValueError, match="arity"):
        phi.eval_monos(((0,), (0,)))


@pytest.mark.parametrize("spec", ["weyl(2)", "semidirect(sl2,std)"])
def test_sum_and_scale_are_pointwise(spec):
    U = EnvelopingAlgebra(presets.builtin(spec))
    rng = random.Random(5)
    phi, psi = (TableCochain.from_table(U, 2, random_table(rng, U, 2, 3), cap=40)
                for _ in range(2))
    total, scaled, zeroed = phi + psi, phi.scale(Fraction(-3, 2)), psi.scale(0)
    for exps in monomial_tuples(len(U.alg.vars), 2, PROBE_DEGREE):
        assert total.eval_monos(exps) == phi.eval_monos(exps) + psi.eval_monos(exps)
        assert scaled.eval_monos(exps) == phi.eval_monos(exps).scale(Fraction(-3, 2))
        assert zeroed.eval_monos(exps).is_zero()


def test_adding_cochains_of_different_arities_raises():
    U = EnvelopingAlgebra(presets.weyl(1))
    phi = TableCochain.from_table(U, 1, {}, cap=1)
    with pytest.raises(ValueError, match="arities 1 and 2"):
        phi + hochschild_b(phi)


@pytest.mark.parametrize("spec", ["weyl(2)", "semidirect(sl2,std)"])
def test_a_chain_of_sums_is_one_node_over_its_summands(spec):
    U = EnvelopingAlgebra(presets.builtin(spec))
    rng = random.Random(11)
    a, b, c, d = (TableCochain.from_table(U, 2, random_table(rng, U, 2, 3), cap=40)
                  for _ in range(4))
    total = (a + b) + (c + d)
    assert total.summands == (a, b, c, d) and a.summands == ()
    assert (a + b + c).summands == (a, b, c)
    # a scaled sum is a new term, not flattened into the next sum
    assert len(((a + b).scale(2) + c).summands) == 2
    for exps in monomial_tuples(len(U.alg.vars), 2, PROBE_DEGREE):
        left, right = (x.eval_monos(exps) + y.eval_monos(exps) for x, y in ((a, b), (c, d)))
        assert total.eval_monos(exps) == left + right
    with pytest.raises(ValueError, match="arities 2 and 3"):
        total + hochschild_b(a)
    with pytest.raises(ValueError, match="arities 3 and 2"):
        hochschild_b(a) + total


def test_monomial_tuples_are_built_once_as_a_tuple():
    first = monomial_tuples(2, 3, 2)
    assert isinstance(first, tuple) and monomial_tuples(2, 3, 2) is first
    monos = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    brute = {(p, q, r) for p in monos for q in monos for r in monos
             if sum(map(sum, (p, q, r))) <= 2}
    assert len(first) == len(set(first)) and set(first) == brute


# -- the accumulating kernels against pairwise references -------------------------
#
# Each reference builds one element per product and per partial sum and adds
# them two at a time, as the kernels did before they accumulated into one map.


def reference_sum(summands):
    """The pointwise sum of the cochains in summands."""
    return TableCochain(summands[0].U, summands[0].arity, lambda exps: functools.reduce(
        operator.add, (term.eval_monos(exps) for term in summands)))


def reference_call(phi, *args):
    """phi on polynomial arguments, by multilinear expansion."""
    out = phi.U.zero()
    for exps, coeff in multilinear_terms([a.terms.items() for a in args]):
        out = out + phi.eval_monos(exps).scale(coeff)
    return out


def reference_hochschild_b(phi):
    U, q = phi.U, phi.arity

    def kernel(exps):
        out = U.x_power(exps[0]) * phi.eval_monos(exps[1:])
        for i in range(q):
            merged = exps[:i] + (tuple(x + y for x, y in zip(exps[i], exps[i + 1])),) + exps[i + 2:]
            term = phi.eval_monos(merged)
            out = out + term if i % 2 == 1 else out - term
        last = phi.eval_monos(exps[:-1]) * U.x_power(exps[-1])
        return out + last if q % 2 == 1 else out - last

    return TableCochain(U, q + 1, kernel)


def reference_r_action(f, phi):
    fU = phi.U.scalar(f)
    return TableCochain(phi.U, phi.arity, lambda exps: fU * phi.eval_monos(exps))


def reference_lie_action(X, phi):
    U = phi.U
    rho, iX = X.anchor_derivation(), U.include(X)

    def kernel(exps):
        val = phi.eval_monos(exps)
        out = iX * val - val * iX
        args = [Polynomial.monomial(U.alg.vars, e, 1) for e in exps]
        for i in range(len(exps)):
            moved = rho(args[i])
            if not moved.is_zero():
                out = out - reference_call(phi, *args[:i], moved, *args[i + 1:])
        return out

    return TableCochain(U, phi.arity, kernel)


def reference_homotopy(r, X, phi):
    U, q = phi.U, phi.arity
    rho, iX = X.anchor_derivation(), U.include(X)

    def kernel(exps):
        args = [Polynomial.monomial(U.alg.vars, e, 1) for e in exps]
        out = U.zero()
        for i in range(1, q + 1):
            term = reference_call(phi, *args[: i - 1], r, *args[i - 1:]) * iX
            out = out + term if i % 2 == 1 else out - term
        for i in range(1, q):
            for j in range(i, q):
                acted = args[: i - 1] + [r] + args[i - 1:]
                acted[j] = rho(args[j - 1])
                term = reference_call(phi, *acted)
                out = out + term if i % 2 == 1 else out - term
        return out

    return TableCochain(U, q - 1, kernel)


def assert_anchor_applied_once_per_exponent(monkeypatch, U, X, got, want):
    """Over every argument tuple of degree <= PROBE_DEGREE, got's kernels
    apply X's anchor once per distinct argument exponent, and got equals want."""
    rho, rho_calls = X.anchor_derivation(), []
    derivation = type(rho)
    call = derivation.__call__
    # U(L) products apply the generators' anchors too: count X's alone
    counted = lambda self, f: (self is rho and rho_calls.append(f)) or call(self, f)
    met, nonzero = set(), 0
    for exps in monomial_tuples(len(U.alg.vars), got.arity, PROBE_DEGREE):
        with monkeypatch.context() as m:
            m.setattr(derivation, "__call__", counted)
            value = got.eval_monos(exps)
        met.update(exps)
        assert value == want.eval_monos(exps), exps
        nonzero += not value.is_zero()
    assert nonzero
    moved = [next(iter(f.terms)) for f in rho_calls]
    assert all(f.terms == {e: 1} for f, e in zip(rho_calls, moved))
    assert sorted(moved) == sorted(met)


@pytest.mark.parametrize("spec", ["weyl(2)", "semidirect(sl2,std)", "arrangement(x,y-x,y+x)"])
def test_homotopy_moves_each_argument_once(monkeypatch, spec):
    # from arity 3 the insert-and-act sum acts on the second argument at two
    # insertion points, and every tuple shares exponents with others; the
    # anchor image of each exponent is computed once for the cochain
    U = EnvelopingAlgebra(presets.builtin(spec))
    alg = U.alg
    rng = random.Random(29)
    phi = TableCochain.from_table(U, 3, random_table(rng, U, 3, 4), cap=40)
    X = alg.element([rand_fraction_poly(rng, U) for _ in range(alg.rank)])
    r = rand_fraction_poly(rng, U)
    assert_anchor_applied_once_per_exponent(
        monkeypatch, U, X, homotopy(r, X, phi), reference_homotopy(r, X, phi))


@pytest.mark.parametrize("spec", ["weyl(2)", "semidirect(sl2,std)", "arrangement(x,y-x,y+x)"])
def test_lie_action_moves_each_argument_once(monkeypatch, spec):
    U = EnvelopingAlgebra(presets.builtin(spec))
    alg = U.alg
    rng = random.Random(31)
    phi = TableCochain.from_table(U, 2, random_table(rng, U, 2, 4), cap=40)
    X = alg.element([rand_fraction_poly(rng, U) for _ in range(alg.rank)])
    assert_anchor_applied_once_per_exponent(
        monkeypatch, U, X, lie_action(X, phi), reference_lie_action(X, phi))


@pytest.mark.parametrize("spec", BUILTINS)
def test_accumulating_kernels_equal_the_pairwise_references(spec):
    U = EnvelopingAlgebra(presets.builtin(spec))
    alg, n = U.alg, len(U.alg.vars)
    rng = random.Random(17)
    nonzero = 0
    for q in (0, 1, 2):
        phi, psi, chi = (TableCochain.from_table(U, q, random_table(rng, U, q, 4), cap=40)
                         for _ in range(3))
        X = alg.element([rand_fraction_poly(rng, U) for _ in range(alg.rank)])
        f, r = rand_fraction_poly(rng, U), rand_fraction_poly(rng, U)
        pairs = [
            (hochschild_b(phi), reference_hochschild_b(phi)),
            (r_action(f, phi), reference_r_action(f, phi)),
            (lie_action(X, phi), reference_lie_action(X, phi)),
            (phi + psi + chi.scale(-1), reference_sum([phi, psi, chi.scale(-1)])),
            (phi + phi.scale(-1), reference_sum([phi, phi.scale(-1)])),
        ]
        if q:
            pairs.append((homotopy(r, X, phi), reference_homotopy(r, X, phi)))
        for got, want in pairs:
            assert got.arity == want.arity
            for exps in monomial_tuples(n, got.arity, PROBE_DEGREE):
                value = got.eval_monos(exps)
                assert value == want.eval_monos(exps), (spec, q, exps)
                assert all(c and (c.__class__ is int or c.denominator != 1)
                           for c in value.flat.values())
                nonzero += not value.is_zero()
    assert nonzero
