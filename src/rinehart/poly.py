"""Exact multivariate polynomials over Q, with derivations and weight gradings.

Everything downstream computes in these: a coefficient is an `int` when it is
integral and a `fractions.Fraction` only otherwise, monomials are exponent
tuples over a fixed, ordered variable list, and all operations return fresh
canonical values (no stored zero coefficients).  An `int` hashes, compares
and prints like the equal Fraction, so the choice never shows; coefficients
are divided only through `Fraction(a, b)`, since `a / b` on two ints is a float.
The permutation-sign, alternating-lookup, leg-insertion, exponent and
slice-basis enumeration helpers that every other module shares live here too.
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Mapping

Exponent = tuple[int, ...]


class VariableMismatch(ValueError):
    """Raised when two polynomials over different variable lists are combined."""


def _coefficient(c) -> int | Fraction:
    """c as a coefficient: an int when it is integral (a bool too), else a Fraction."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


def _integral_to_int(terms: dict) -> dict:
    """terms with each value made a coefficient, in place: only a product or
    sum of Fractions can be an integral Fraction."""
    for e, c in terms.items():
        if c.__class__ is not int:
            terms[e] = _coefficient(c)
    return terms


def _cleaned(acc: dict) -> dict:
    """acc without its zero values, each integral Fraction made an int."""
    return {k: c if c.__class__ is int else _coefficient(c) for k, c in acc.items() if c}


def _merged(a: dict, b: dict, op) -> dict:
    """The coefficient map a op b for op add or sub, in one pass over b:
    no zero coefficient kept, integral ones made ints."""
    out = dict(a)
    for k, c in b.items():
        s = op(out.get(k, 0), c)
        if s:
            out[k] = s if s.__class__ is int else _coefficient(s)
        else:
            del out[k]
    return out


class Polynomial:
    """Immutable polynomial: a finite map exponent-tuple -> nonzero coefficient,
    an int when integral and a Fraction otherwise.  Divide coefficients with
    Fraction(a, b), never a / b."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: tuple[str, ...],
                 terms: Mapping[Exponent, int | Fraction] | None = None):
        self.vars = tuple(vars)
        clean: dict[Exponent, int | Fraction] = {}
        if terms:
            nv = len(self.vars)
            for exp, c in terms.items():
                c = _coefficient(c)
                if c == 0:
                    continue
                if len(exp) != nv or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent {exp} for {nv} variables")
                clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _of(cls, vars: tuple[str, ...], terms: dict) -> "Polynomial":
        """A polynomial on terms that are already canonical (a vars tuple, no
        zero coefficient, integral ones as int), taken as is, unchecked."""
        p = object.__new__(cls)
        p.vars, p.terms, p._hash = vars, terms, None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "Polynomial":
        return cls(vars)

    @classmethod
    def const(cls, vars: tuple[str, ...], c) -> "Polynomial":
        c = _coefficient(c)
        if c == 0:
            return cls(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "Polynomial":
        if name not in vars:
            raise VariableMismatch(f"no variable {name!r} in {vars}")
        return cls(vars, {tuple(int(v == name) for v in vars): 1})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], exp: Exponent, c=1) -> "Polynomial":
        return cls(vars, {tuple(exp): _coefficient(c)})

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._of(self.vars, _merged(self.terms, other.terms, operator.add))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._of(self.vars, _merged(self.terms, other.terms, operator.sub))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Exponent, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial._of(self.vars, _integral_to_int(out))

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _coefficient(c)
        if c == 0:
            return Polynomial._of(self.vars, {})
        return Polynomial._of(self.vars, _integral_to_int({e: c * v for e, v in self.terms.items()}))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.const(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable."""
        out: dict[Exponent, int | Fraction] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k == 0:
                continue
            e = list(exp)
            e[i] = k - 1
            out[tuple(e)] = c * k
        return Polynomial._of(self.vars, _integral_to_int(out))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def constant_value(self) -> int | Fraction:
        """The coefficient of the constant monomial."""
        return self.terms.get((0,) * len(self.vars), 0)

    # -- gradings -------------------------------------------------------

    def weight_split(self, weights: tuple[int, ...]) -> dict[int, "Polynomial"]:
        """Split into weight-homogeneous pieces; pieces sum back to self."""
        if len(weights) != len(self.vars):
            raise VariableMismatch("weights length must match variable count")
        out: dict[int, dict[Exponent, int | Fraction]] = {}
        for exp, c in self.terms.items():
            w = sum(e * wt for e, wt in zip(exp, weights))
            out.setdefault(w, {})[exp] = c
        return {w: Polynomial._of(self.vars, terms) for w, terms in out.items()}

    def is_weight_homogeneous(self, weights: tuple[int, ...]) -> bool:
        return len(self.weight_split(weights)) <= 1

    def weight(self, weights: tuple[int, ...]) -> int | None:
        """Weight of a homogeneous polynomial (None for zero)."""
        pieces = self.weight_split(weights)
        if not pieces:
            return None
        if len(pieces) > 1:
            raise ValueError("polynomial is not weight homogeneous")
        return next(iter(pieces))

    # -- display --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, int | Fraction]]:
        # graded lexicographic on the declared variable list
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exp)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s


class PolyDerivation:
    """Derivation of the polynomial ring, determined by its variable images."""

    __slots__ = ("vars", "images")

    def __init__(self, vars: tuple[str, ...], images: Iterable[Polynomial]):
        self.vars = tuple(vars)
        self.images = tuple(images)
        if len(self.images) != len(self.vars):
            raise VariableMismatch("one image per variable required")
        for im in self.images:
            if im.vars != self.vars:
                raise VariableMismatch("image over wrong variable list")

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "PolyDerivation":
        z = Polynomial.zero(vars)
        return cls(vars, [z] * len(vars))

    @classmethod
    def coordinate(cls, vars: tuple[str, ...], name: str) -> "PolyDerivation":
        """The coordinate vector field d/d(name)."""
        if name not in vars:
            raise VariableMismatch(f"no variable {name!r} in {vars}")
        return cls(vars, [Polynomial.const(vars, int(v == name)) for v in vars])

    def __call__(self, p: Polynomial) -> Polynomial:
        """D(p) term by term, with no Polynomial built on the way: c x^e goes
        to the sum over i of c e_i x^(e - 1_i) D(x_i), each term of D(x_i) a
        shift of e."""
        if p.vars != self.vars:
            raise VariableMismatch(f"{p.vars} vs {self.vars}")
        acc: dict[Exponent, int | Fraction] = {}
        for i, im in enumerate(self.images):
            for e, ci in im.terms.items():
                shift = e[:i] + (e[i] - 1,) + e[i + 1:]
                for exp, c in p.terms.items():
                    if exp[i]:
                        key = tuple(map(operator.add, exp, shift))
                        acc[key] = acc.get(key, 0) + exp[i] * c * ci
        return Polynomial._of(self.vars, _cleaned(acc))

    def __add__(self, other: "PolyDerivation") -> "PolyDerivation":
        return PolyDerivation(self.vars, [a + b for a, b in zip(self.images, other.images)])

    def __sub__(self, other: "PolyDerivation") -> "PolyDerivation":
        return PolyDerivation(self.vars, [a - b for a, b in zip(self.images, other.images)])

    def scale_by(self, f: Polynomial | int | Fraction) -> "PolyDerivation":
        if isinstance(f, Polynomial):
            zero = Polynomial.zero(self.vars)
            return PolyDerivation(self.vars, [f * a if f and a else zero for a in self.images])
        return PolyDerivation(self.vars, [a.scale(f) for a in self.images])

    def commutator(self, other: "PolyDerivation") -> "PolyDerivation":
        """[self, other] = self o other - other o self, again a derivation."""
        images = [
            self(other.images[i]) - other(self.images[i])
            for i in range(len(self.vars))
        ]
        return PolyDerivation(self.vars, images)

    def is_zero(self) -> bool:
        return all(im.is_zero() for im in self.images)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyDerivation)
            and self.vars == other.vars
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.vars, self.images))

    def __repr__(self) -> str:
        parts = [f"({im})*d/d{v}" for v, im in zip(self.vars, self.images) if not im.is_zero()]
        return " + ".join(parts) if parts else "0"


# -- signs and exponent enumeration ---------------------------------------------


def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm))."""
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def sort_with_sign(items, key=None) -> tuple[tuple, int]:
    """The items sorted (by key) and the sign of the sorting permutation; the
    sign is 0 when two keys are equal, where an alternating map vanishes."""
    keys = [x if key is None else key(x) for x in items]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    sign = perm_sign(order) if len(set(keys)) == len(keys) else 0
    return tuple(items[t] for t in order), sign


def alternating_value(table, args):
    """The value at args of an alternating map stored on sorted tuples: the
    table's value at the sorted args, negated for an odd sort; None when two
    args repeat or the table holds nothing there."""
    key, sign = sort_with_sign(args)
    v = table.get(key) if sign else None
    return v if v is None or sign == 1 else -v


def insert_leg(legs: tuple[int, ...], w: int) -> tuple[tuple[int, ...], int]:
    """Wedge the leg w in front of the sorted legs and sort: the new legs and
    (-1)^#{l < w}, or (legs, 0) when w is already a leg."""
    pos = bisect_left(legs, w)
    if pos < len(legs) and legs[pos] == w:
        return legs, 0
    return legs[:pos] + (w,) + legs[pos:], -1 if pos % 2 else 1


def ce_terms(args, act, bracketed):
    """The signed terms of the Chevalley-Eilenberg sum on args (docs/signs.md),
    for the caller to add up in its own arithmetic: ((-1)^j, act(args[j],
    rest)) with rest = args without j, then ((-1)^(j+l), bracketed(args[j],
    args[l], rest)) for j < l with rest = args without j and l.  j and l are
    0-based, so these are the one-based (-1)^(i+1) and (-1)^(i+j).  A term
    that is None is skipped."""
    for j in range(len(args)):
        term = act(args[j], args[:j] + args[j + 1:])
        if term is not None:
            yield (-1 if j % 2 else 1), term
    for j, l in itertools.combinations(range(len(args)), 2):
        term = bracketed(args[j], args[l], args[:j] + args[j + 1:l] + args[l + 1:])
        if term is not None:
            yield (-1 if (j + l) % 2 else 1), term


def multilinear_terms(factors, one=1):
    """The terms of a multilinear expansion: for each choice of one (key,
    coefficient) pair per factor, the tuple of keys in factor order and the
    product of the coefficients.  The product starts from one, so no factors
    give the single term ((), one) in the caller's coefficient type."""
    for combo in itertools.product(*factors):
        coeff = one
        for _, c in combo:
            coeff = coeff * c
        yield tuple(key for key, _ in combo), coeff


def exponents(weights, budget: int, exact: bool = False,
              cap: int | None = None) -> list[Exponent]:
    """Exponent tuples e with sum(e_i * weights_i) <= budget (== budget when
    exact), in lexicographic order, first variable slowest.  A weight-zero
    variable takes the exponents 0..cap."""
    if any(w < 0 for w in weights):
        raise ValueError("negative weights are not supported")
    if 0 in weights and cap is None:
        raise ValueError("a weight-zero variable needs an exponent cap")
    layer = [((), budget)] if budget >= 0 else []
    for i, w in enumerate(weights):
        forced = exact and i == len(weights) - 1
        grown = []
        for acc, left in layer:
            if w == 0:
                choices = range(cap + 1)
            elif forced:  # an exact budget fixes the last exponent
                choices = (left // w,) if left % w == 0 else ()
            else:
                choices = range(left // w + 1)
            grown.extend((acc + (e,), left - e * w) for e in choices)
        layer = grown
    return [acc for acc, left in layer if not exact or left == 0]


def leg_basis(leg_weights, weights, k: int, budget: int) -> list[tuple[tuple[int, ...], Exponent]]:
    """The pairs (legs, exp) with legs a k-subset of range(len(leg_weights))
    and exp of weight exactly budget plus the legs' weights, sorted: legs and
    exponents are both enumerated in lexicographic order.  Empty when k is not
    a subset size.  The exponents of each distinct budget are enumerated
    once per call."""
    if not 0 <= k <= len(leg_weights):
        return []
    subsets = list(itertools.combinations(range(len(leg_weights)), k))
    budgets = [budget + sum(leg_weights[a] for a in legs) for legs in subsets]
    lists = {b: exponents(weights, b, exact=True) for b in set(budgets)}
    return [(legs, exp) for legs, b in zip(subsets, budgets) for exp in lists[b]]


# -- parsing -------------------------------------------------------------
#
# Minimal grammar (see docs/poly-grammar.md):
#   expr   := term (('+' | '-') term)*
#   term   := ('-')* factor ('*' factor)*
#   factor := base ('^' nat)?
#   base   := nat | name | '(' expr ')'

class PolyParseError(ValueError):
    pass


def parse_poly(vars: tuple[str, ...], text: str) -> Polynomial:
    """Parse an integer-coefficient polynomial in the declared variables."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if tok is None or (kind is not None and tok[0] != kind):
            raise PolyParseError(f"unexpected token {tok!r} at {pos} in {text!r}")
        pos += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() and peek()[0] in "+-":
            op = take()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        sign = 1
        while peek() and peek()[0] == "-":
            take()
            sign = -sign
        node = parse_factor()
        while peek() and peek()[0] == "*":
            take()
            node = node * parse_factor()
        return node.scale(sign)

    def parse_factor():
        node = parse_base()
        if peek() and peek()[0] == "^":
            take()
            kind, value = take("n")
            node = node ** value
        return node

    def parse_base():
        tok = peek()
        if tok is None:
            raise PolyParseError(f"unexpected end of input in {text!r}")
        if tok[0] == "n":
            take()
            return Polynomial.const(vars, tok[1])
        if tok[0] == "v":
            take()
            if tok[1] not in vars:
                raise PolyParseError(f"unknown variable {tok[1]!r} (have {vars})")
            return Polynomial.variable(vars, tok[1])
        if tok[0] == "(":
            take()
            node = parse_expr()
            take(")")
            return node
        raise PolyParseError(f"unexpected token {tok!r} in {text!r}")

    result = parse_expr()
    if pos != len(tokens):
        raise PolyParseError(f"trailing input {tokens[pos:]!r} in {text!r}")
    return result


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            out.append((ch, None))
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            out.append(("n", int(text[i:j])))
            i = j
        elif ch.isascii() and (ch.isalpha() or ch == "_"):
            j = i
            while j < len(text) and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("v", text[i:j]))
            i = j
        else:
            raise PolyParseError(f"bad character {ch!r} in {text!r}")
    return out
