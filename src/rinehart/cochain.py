"""Cochains on the base ring with enveloping-algebra values.

C^q(R, U) is infinite dimensional, but every identity we verify is pointwise,
so a cochain is just a kernel evaluable on q-tuples of ring monomials; an
operator that meets a polynomial argument (r, or an anchor image) expands it
term by term.  Table-backed cochains have a degree cap and raise
CapExceededError beyond it instead of silently truncating.

Operators compose cochains lazily, so one inner value is asked for many times
(once per term of b, L_X, h and the cup products that reach it).  Kernels are
pure and no code mutates a returned value, which is what lets each cochain
memoize its values, and `lie_action` and `homotopy` the anchor image of each
argument exponent.  Each kernel call adds its products and signed terms into
one coefficient map of its own (`EnvelopingAlgebra.add_product`) and cleans it once.
"""
from __future__ import annotations

import itertools

from .lie_rinehart import LElement
from .poly import Polynomial, exponents
from .uea import EnvelopingAlgebra, UEAElement

Mono = tuple[int, ...]


class CapExceededError(RuntimeError):
    """An operator needed a cochain value beyond the stored degree cap."""


class TableCochain:
    """Arity-q cochain with values in the enveloping algebra.

    Kernel values are memoized per argument tuple for the life of the cochain;
    an error, such as CapExceededError, is raised again on every call."""

    def __init__(self, U: EnvelopingAlgebra, arity: int, kernel, summands=()):
        self.U = U
        self.arity = arity
        self.kernel = kernel
        self.summands: tuple[TableCochain, ...] = summands  # the terms of a sum node
        self._values: dict[tuple[Mono, ...], UEAElement] = {}

    @classmethod
    def from_table(cls, U: EnvelopingAlgebra, arity: int,
                   table: dict[tuple[Mono, ...], UEAElement], cap: int) -> "TableCochain":
        def kernel(exps):
            if sum(sum(e) for e in exps) > cap:
                raise CapExceededError(
                    f"monomial tuple {exps} exceeds the table cap {cap}"
                )
            return table.get(exps, U.zero())

        return cls(U, arity, kernel)

    def eval_monos(self, exps: tuple[Mono, ...]) -> UEAElement:
        value = self._values.get(exps)
        if value is None:
            if len(exps) != self.arity:
                raise ValueError(f"arity {self.arity} cochain got {len(exps)} arguments")
            value = self._values[exps] = self.kernel(exps)
        return value

    def __add__(self, other: "TableCochain") -> "TableCochain":
        """The pointwise sum, evaluated lazily.  A chain a + b + c is one node
        over its summands, so no partial sum is stored."""
        if other.arity != self.arity:
            raise ValueError(f"cannot add cochains of arities {self.arity} and {other.arity}")
        summands = (self.summands or (self,)) + (other.summands or (other,))

        def kernel(exps):
            acc = {}
            for term in summands:
                self.U.add_sum(acc, term.eval_monos(exps).flat)
            return self.U.collect(acc)

        return TableCochain(self.U, self.arity, kernel, summands)

    def scale(self, c) -> "TableCochain":
        """c * self for a scalar c, evaluated lazily."""
        return TableCochain(self.U, self.arity, lambda exps: self.eval_monos(exps).scale(c))

_TUPLES: dict[tuple[int, int, int], tuple] = {}  # monomial_tuples per argument triple


def monomial_tuples(nvars: int, arity: int, total_degree: int) -> tuple[tuple[Mono, ...], ...]:
    """All arity-tuples of monomial exponents with total degree <= bound."""
    key = (nvars, arity, total_degree)
    if key not in _TUPLES:
        monos = exponents((1,) * nvars, total_degree)
        _TUPLES[key] = tuple(combo for combo in itertools.product(monos, repeat=arity)
                             if sum(sum(e) for e in combo) <= total_degree)
    return _TUPLES[key]


def cochain_equal(a: TableCochain, b: TableCochain) -> bool:
    """Pointwise equality on every monomial tuple of degree <= 2."""
    if a.arity != b.arity:
        return False
    if a.arity < 0:
        return True
    n = len(a.U.alg.vars)
    for exps in monomial_tuples(n, a.arity, 2):
        if a.eval_monos(exps) != b.eval_monos(exps):
            return False
    return True


# -- operators ---------------------------------------------------------------


def hochschild_b(phi: TableCochain) -> TableCochain:
    """The arity-raising differential (ring arguments, algebra values)."""
    U = phi.U
    q = phi.arity
    if q < 0:
        return zero_cochain(U, q + 1)

    def kernel(exps):
        acc = U.add_product({}, U.x_power(exps[0]).flat, phi.eval_monos(exps[1:]).flat)
        for i in range(q):
            merged = exps[:i] + (tuple(x + y for x, y in zip(exps[i], exps[i + 1])),) + exps[i + 2:]
            U.add_sum(acc, phi.eval_monos(merged).flat, 1 if i % 2 == 1 else -1)
        U.add_product(acc, phi.eval_monos(exps[:-1]).flat, U.x_power(exps[-1]).flat,
                      1 if q % 2 == 1 else -1)
        return U.collect(acc)

    return TableCochain(U, q + 1, kernel)


def r_action(f: Polynomial, phi: TableCochain) -> TableCochain:
    U, fU = phi.U, phi.U.scalar(f).flat
    kernel = lambda exps: U.collect(U.add_product({}, fU, phi.eval_monos(exps).flat))
    return TableCochain(U, phi.arity, kernel)


def _anchor_images(X: LElement, vars: tuple[str, ...]):
    """e -> rho_X(x^e) as {exponent: c}, each computed once for the cochain
    node that owns the returned function."""
    rho, moved = X.anchor_derivation(), {}

    def image(e: Mono) -> dict:
        terms = moved.get(e)
        if terms is None:
            terms = moved[e] = rho(Polynomial._of(vars, {e: 1})).terms
        return terms

    return image


def lie_action(X: LElement, phi: TableCochain) -> TableCochain:
    """Commutator with the module element minus the anchor on the arguments."""
    U = phi.U
    iX, image = U.include(X).flat, _anchor_images(X, U.alg.vars)

    def kernel(exps):
        val = phi.eval_monos(exps).flat
        acc = U.add_product(U.add_product({}, iX, val), val, iX, -1)
        for i, e in enumerate(exps):
            for f, c in image(e).items():
                U.add_sum(acc, phi.eval_monos(exps[:i] + (f,) + exps[i + 1:]).flat, -c)
        return U.collect(acc)

    return TableCochain(U, phi.arity, kernel)


def homotopy(r: Polynomial, X: LElement, phi: TableCochain) -> TableCochain:
    """The arity-lowering homotopy tying the two module structures.

    Insert r at position i with sign (-1)^{i+1}, right-multiplied by X; plus
    the insert-and-act sum where the anchor hits an original argument at or
    after the insertion point, same sign.  Both expand the terms of r.
    """
    U = phi.U
    q = phi.arity
    if q == 0:
        # maps into arity -1, which is zero; kept as a formal zero so that
        # b(h(phi)) lands in arity 0 again
        return zero_cochain(U, -1)
    iX, image, rterms = U.include(X).flat, _anchor_images(X, U.alg.vars), r.terms.items()

    def kernel(exps):
        acc = {}
        for i in range(1, q + 1):
            sign, head, tail = 1 if i % 2 == 1 else -1, exps[: i - 1], exps[i - 1:]
            for g, c in rterms:
                inserted = head + (g,) + tail
                U.add_product(acc, phi.eval_monos(inserted).flat, iX, sign * c)
                # act on original argument j - 1 >= i - 1, one slot right of g
                for j in range(i, q):
                    for f, d in image(exps[j - 1]).items():
                        acted = inserted[:j] + (f,) + inserted[j + 1:]
                        U.add_sum(acc, phi.eval_monos(acted).flat, sign * c * d)
        return U.collect(acc)

    return TableCochain(U, q - 1, kernel)


def zero_cochain(U: EnvelopingAlgebra, arity: int) -> TableCochain:
    return TableCochain(U, arity, lambda exps: U.zero())
