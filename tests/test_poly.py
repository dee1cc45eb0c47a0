import itertools
import random

import pytest
from fractions import Fraction

from rinehart.poly import (
    Polynomial,
    PolyDerivation,
    PolyParseError,
    VariableMismatch,
    ce_terms,
    exponents,
    insert_leg,
    parse_poly,
    perm_sign,
    sort_with_sign,
)

XY = ("x", "y")


def P(s, vars=XY):
    return parse_poly(vars, s)


def random_poly(rng, vars, max_deg=3):
    p = Polynomial.zero(vars)
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, max_deg) for _ in vars)
        p = p + Polynomial.monomial(vars, exp, rng.choice([-2, -1, 1, 2]))
    return p


def test_mul_ring_identity():
    assert P("x+1") * P("x-1") == P("x^2-1")


def test_derivation_leibniz_example():
    ddx = PolyDerivation.coordinate(XY, "x")
    assert ddx(P("x^2*y")) == P("2*x*y")


def test_euler_derivation_on_monomial():
    # x d/dx + y d/dy scales a monomial by its total degree
    euler = PolyDerivation(XY, [P("x"), P("y")])
    assert euler(P("x^3*y")) == P("4*x^3*y")


def test_mismatched_variables_rejected():
    with pytest.raises(VariableMismatch):
        P("x") + parse_poly(("x",), "x")


def test_weight_split_standard():
    pieces = P("x^2 + x*y^3").weight_split((1, 1))
    assert set(pieces) == {2, 4}
    assert pieces[2] == P("x^2") and pieces[4] == P("x*y^3")


def test_weight_split_zero():
    assert Polynomial.zero(XY).weight_split((1, 1)) == {}


def test_weight_split_declared_weights():
    vars = ("x", "D")
    p = parse_poly(vars, "x + D")
    pieces = p.weight_split((1, 2))
    assert pieces[1] == parse_poly(vars, "x")
    assert pieces[2] == parse_poly(vars, "D")


def test_weight_split_pieces_sum_and_homogeneous():
    rng = random.Random(7)
    w = (1, 3)
    for _ in range(25):
        p = random_poly(rng, XY)
        pieces = p.weight_split(w)
        total = Polynomial.zero(XY)
        for wt, piece in pieces.items():
            assert piece.is_weight_homogeneous(w)
            assert piece.weight(w) == wt
            total = total + piece
        assert total == p


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(30):
        p, q, s = (random_poly(rng, XY) for _ in range(3))
        assert (p * q) * s == p * (q * s)
        assert p * q == q * p
        assert p * (q + s) == p * q + p * s


def test_derivation_leibniz_randomized():
    rng = random.Random(13)
    d = PolyDerivation(XY, [P("y^2"), P("x*y - 1")])
    for _ in range(30):
        p, q = random_poly(rng, XY), random_poly(rng, XY)
        assert d(p * q) == d(p) * q + p * d(q)


def test_derivation_commutator_is_derivation():
    rng = random.Random(17)
    d1 = PolyDerivation(XY, [P("y"), P("x^2")])
    d2 = PolyDerivation(XY, [P("1"), P("x*y")])
    c = d1.commutator(d2)
    for _ in range(20):
        p, q = random_poly(rng, XY), random_poly(rng, XY)
        assert c(p * q) == c(p) * q + p * c(q)
        assert c(p) == d1(d2(p)) - d2(d1(p))


def test_parse_rejects_garbage():
    with pytest.raises(PolyParseError):
        P("x +")
    with pytest.raises(PolyParseError):
        P("z")
    with pytest.raises(PolyParseError):
        P("x / y")


def test_parse_precedence_and_unary_minus():
    assert P("-x^2 + 2*(x - 1)") == P("2*x - x^2 - 2")
    assert P("--3") == Polynomial.const(XY, 3)


def test_constant_coefficients_exact():
    p = Polynomial.const(XY, Fraction(1, 3))
    assert (p + p + p) == Polynomial.const(XY, 1)


def test_zero_variable_ring():
    one = Polynomial.const((), 1)
    assert (one + one).constant_value() == 2
    assert parse_poly((), "7 - 5") == Polynomial.const((), 2)


def _box_filter(weights, budget, exact, cap):
    """Every exponent tuple of a box large enough to hold the answer, in
    lexicographic order, filtered by the weight condition."""
    ranges = [range((cap if w == 0 else max(budget, 0) // w) + 1) for w in weights]
    out = []
    for e in itertools.product(*ranges):
        total = sum(a * w for a, w in zip(e, weights))
        if (total == budget) if exact else (total <= budget):
            out.append(e)
    return out


@pytest.mark.parametrize("exact", [False, True])
def test_exponents_match_a_filtered_box_in_the_same_order(exact):
    cases = [((1, 1), 3), ((2, 3), 7), ((1,), 0), ((), 0), ((), 2), ((1, 2), -1),
             ((0, 1), 2), ((1, 0, 2), 4), ((0, 0), 1)]
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(0, 4)
        cases.append((tuple(rng.randint(0, 3) for _ in range(n)), rng.randint(-1, 8)))
    for weights, budget in cases:
        for cap in (0, 2):
            assert exponents(weights, budget, exact, cap) == _box_filter(
                weights, budget, exact, cap
            ), (weights, budget, cap)


def test_exponents_reject_negative_and_uncapped_zero_weights():
    with pytest.raises(ValueError, match="negative"):
        exponents((1, -1), 3)
    with pytest.raises(ValueError, match="cap"):
        exponents((0, 1), 3)


def _inversion_parity(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def test_perm_sign_is_the_inversion_parity():
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            assert perm_sign(perm) == _inversion_parity(perm)


def test_sort_with_sign_sorts_and_vanishes_on_repeats():
    for perm in itertools.permutations("abcd"):
        ordered, sign = sort_with_sign(perm)
        assert ordered == tuple("abcd")
        assert sign == _inversion_parity(["abcd".index(c) for c in perm])
    assert sort_with_sign((2, 0, 2)) == ((0, 2, 2), 0)
    assert sort_with_sign([(1, 5), (0, 9)], key=lambda a: a[0]) == (((0, 9), (1, 5)), -1)


def test_insert_leg_matches_the_sign_of_sorting_the_wedge():
    for k in range(5):
        for legs in itertools.combinations(range(6), k):
            for w in range(6):
                new, sign = insert_leg(legs, w)
                ordered, expected = sort_with_sign((w,) + legs)
                assert sign == expected
                if sign:
                    assert new == ordered



def test_ce_terms_is_the_signed_chevalley_eilenberg_sum():
    # docs/signs.md, one-based: (-1)^(i+1) on the actions, (-1)^(i+j) on the
    # brackets; a flip of either sign changes this list
    terms = list(ce_terms(
        ("a", "b", "c", "d"),
        lambda x, rest: ("act", x, "".join(rest)),
        lambda x, y, rest: ("br", x + y, "".join(rest)),
    ))
    assert terms == [
        (1, ("act", "a", "bcd")), (-1, ("act", "b", "acd")),
        (1, ("act", "c", "abd")), (-1, ("act", "d", "abc")),
        (-1, ("br", "ab", "cd")), (1, ("br", "ac", "bd")), (-1, ("br", "ad", "bc")),
        (-1, ("br", "bc", "ad")), (1, ("br", "bd", "ac")), (-1, ("br", "cd", "ab")),
    ]
    # a None term is skipped, lists slice like tuples
    assert list(ce_terms(["a", "b"], lambda x, rest: None, lambda x, y, rest: rest)) == [
        (-1, [])]


# -- coefficients: int when integral, Fraction otherwise ---------------------


def _random_terms(rng, nvars, rational):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exp = tuple(rng.randint(0, 3) for _ in range(nvars))
        num = rng.randint(-9, 9)
        terms[exp] = Fraction(num, rng.randint(1, 4)) if rational else num
    return terms


def _ref(terms):
    """The reference: a dict of nonzero Fractions."""
    return {e: Fraction(c) for e, c in terms.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = c * e[i]
    return out


def _assert_canonical(p, ref):
    """p equals the reference, and a coefficient is an int exactly when it is
    integral (so integral inputs give ints only)."""
    assert p.terms == ref
    for c in p.terms.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), (p, c)


@pytest.mark.parametrize("rational", [False, True])
def test_arithmetic_matches_a_fraction_reference(rational):
    rng = random.Random(23)
    for _ in range(200):
        a, b = _random_terms(rng, 2, rational), _random_terms(rng, 2, rational)
        p, q = Polynomial(XY, a), Polynomial(XY, b)
        ra, rb = _ref(a), _ref(b)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3) if rational else 1)
        _assert_canonical(p + q, _ref_add(ra, rb))
        _assert_canonical(p - q, _ref_add(ra, rb, -1))
        _assert_canonical(p * q, _ref_mul(ra, rb))
        _assert_canonical(p.scale(c), {e: c * v for e, v in ra.items() if c})
        _assert_canonical(c * p, {e: c * v for e, v in ra.items() if c})
        for i in range(2):
            _assert_canonical(p.partial(i), _ref_partial(ra, i))


def test_integral_results_of_rational_arithmetic_are_ints():
    half = Polynomial.const(XY, Fraction(1, 2))
    for p in (half + half, half.scale(2), half * Polynomial.const(XY, 4),
              parse_poly(XY, "x^2").scale(Fraction(1, 2)).partial(0)):
        assert all(type(c) is int for c in p.terms.values()), p
    assert type((half + half).constant_value()) is int
    assert type(Polynomial.zero(XY).constant_value()) is int


def test_coefficients_are_exact():
    assert repr(Polynomial.const(XY, True)) == "1"
    assert type(Polynomial.const(XY, True).constant_value()) is int
    assert type(Polynomial.const(XY, Fraction(6, 3)).constant_value()) is int
    for bad in (0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            Polynomial.const(XY, bad)
        with pytest.raises(TypeError):
            Polynomial.monomial(XY, (1, 0), bad)
        with pytest.raises(TypeError):
            P("x").scale(bad)


def test_parse_round_trips_the_printed_form():
    rng = random.Random(29)
    vars = ("x", "y", "z")
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exp = tuple(rng.choice([0, 0, 1, 2, 5]) for _ in vars)
            terms[exp] = rng.choice([-1, 1, rng.randint(-10**6, 10**6)])
        p = Polynomial(vars, terms)
        assert parse_poly(vars, repr(p)) == p, repr(p)
        # an int coefficient prints exactly as the equal Fraction does
        as_fractions = Polynomial(vars)
        as_fractions.terms = {e: Fraction(c) for e, c in p.terms.items()}
        assert repr(as_fractions) == repr(p)
