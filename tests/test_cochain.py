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
)
from rinehart.poly import Polynomial
from rinehart.uea import EnvelopingAlgebra

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
