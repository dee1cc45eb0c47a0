"""The universal enveloping algebra as an algebra of solvable type.

An element is stored as flat terms {(x exponent, generator exponent): c},
c a nonzero int or (when not integral) Fraction, for the normal form
sum c x^m e_1^a1 ... e_d^ad; `terms` is a read-only view of it as
{generator exponent: Polynomial}.  Sums, differences, scalar factors and
products all work on the flat terms; products by the rewrite rules
e_i * r -> r * e_i + rho(e_i)(r) and
e_i * e_j -> e_j * e_i + [e_i, e_j] for i > j.  A product is one pass
over pairs of terms x^m e^alpha, x^n e^beta that reads the normal form of
the triple e^alpha * x^n * e^beta, shifted by x^m.  One recursion gives that
normal form, e^gamma * e^beta being the triple with n = 0; it, the
rho_i(x^p) it reads and the shifted rows of each pair of terms are memoized
on the algebra wrapper (Kandri-Rody & Weispfenning, JSC 1990; Apel &
Lassner, JSC 1988).  That pass, `add_product`, adds
s * a * b into a caller's map, `add_sum` adds s * a and `collect` cleans the
map once: a kernel builds its value in one map of its own, not one element
per product or partial sum.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from operator import add, sub
from types import MappingProxyType

from .lie_rinehart import LElement, LieRinehartAlgebra
from .linalg import assemble, kernel_and_rank
from .poly import Polynomial, _cleaned, _coefficient, _merged, exponents

Expo = tuple[int, ...]
Flat = dict[tuple[Expo, Expo], "int | Fraction"]


def _plus(a: Expo, b: Expo) -> Expo:
    return tuple(map(add, a, b))


def _pop_first(e: Expo) -> tuple[int, Expo]:
    """The first k with e[k] > 0 and e - eps_k; (len(e), e) for a zero e."""
    k = next((k for k, a in enumerate(e) if a), len(e))
    return k, (e[:k] + (e[k] - 1,) + e[k + 1:] if k < len(e) else e)


class EnvelopingAlgebra:
    """Wrapper owning the normal-form memos for one presentation."""

    def __init__(self, alg: LieRinehartAlgebra):
        self.alg = alg
        self.sym_vars = alg.vars + alg.basis
        self._units = [tuple(int(k == i) for k in range(alg.rank)) for i in range(alg.rank)]
        self._xzero, self._gzero = (0,) * len(alg.vars), (0,) * alg.rank
        self._rho_cache: dict[tuple[int, Expo], dict[Expo, int | Fraction]] = {}
        self._ex_cache: dict[tuple[Expo, Expo, Expo], Flat] = {}
        self._pair_rows: dict[tuple[Expo, Expo], dict[tuple[Expo, Expo], list]] = {}

    # -- constructors ---------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement._of(self, {})

    def scalar(self, f: Polynomial) -> "UEAElement":
        return UEAElement._of(self, {(m, self._gzero): c for m, c in f.terms.items()})

    def x_power(self, e: Expo) -> "UEAElement":
        """The ring monomial x^e."""
        return UEAElement._of(self, {(e, self._gzero): 1})

    def one(self) -> "UEAElement":
        return self.x_power(self._xzero)

    def generator(self, k: int) -> "UEAElement":
        return UEAElement._of(self, {(self._xzero, self._units[k]): 1})

    def include(self, x: LElement) -> "UEAElement":
        return UEAElement._of(self, {(m, self._units[k]): c for k, f in enumerate(x.coeffs)
                                     for m, c in f.terms.items()})

    def monomial(self, coeff: Polynomial, exp: Expo) -> "UEAElement":
        return UEAElement(self, {exp: coeff})

    def add_product(self, acc: dict, a: Flat, b: Flat, s=1) -> dict:
        """acc plus s*x*y*c x^(m+p) e^delta over x x^m e^alpha in a, y x^n e^beta
        in b and c x^p e^delta in e^alpha x^n e^beta, in place; acc may hold
        zeros and integral Fractions until `collect`.  The rows
        [((m+p, delta), c), ...] of each pair of terms are built once."""
        rows = self._pair_rows
        for ka, x in a.items():
            by_b = rows.get(ka)
            if by_b is None:
                by_b = rows[ka] = {}
            for kb, y in b.items():
                row = by_b.get(kb)
                if row is None:
                    (m, alpha), (n, beta) = ka, kb
                    row = by_b[kb] = [((_plus(m, p), delta), c) for (p, delta), c
                                      in self._ex(alpha, n, beta).items()]
                xy = s * x * y
                for key, c in row:
                    acc[key] = acc.get(key, 0) + xy * c
        return acc

    def add_sum(self, acc: dict, a: Flat, s=1) -> dict:
        """acc plus s * a, in place."""
        for key, c in a.items():
            acc[key] = acc.get(key, 0) + s * c
        return acc

    def collect(self, acc: dict) -> "UEAElement":
        """The element of an accumulated map, zeros dropped."""
        return UEAElement._of(self, _cleaned(acc))

    # -- normal ordering core on flat terms --------------------------------

    def _rho(self, i: int, p: Expo) -> dict[Expo, int | Fraction]:
        """rho_i(x^p) as {x exponent: c}."""
        cached = self._rho_cache.get((i, p))
        if cached is None:
            x = Polynomial._of(self.alg.vars, {p: 1})
            cached = self._rho_cache[i, p] = self.alg.anchor[i](x).terms
        return cached

    def _gen_times(self, i: int, flat: Flat) -> Flat:
        """e_i * flat, by e_i x^p e^gamma = x^p (e_i e^gamma) + rho_i(x^p) e^gamma."""
        acc = defaultdict(int)
        unit = self._units[i]
        for (p, gamma), c in flat.items():
            for (q, delta), d in self._ex(unit, self._xzero, gamma).items():
                acc[_plus(p, q), delta] += c * d
            for r, d in self._rho(i, p).items():
                acc[r, gamma] += c * d
        return _cleaned(acc)

    def _ex(self, alpha: Expo, n: Expo, beta: Expo) -> Flat:
        """e^alpha * x^n * e^beta in normal form.  Already ordered when alpha
        is zero, or n is zero and no generator of alpha comes after the
        first generator j of beta; otherwise, for n zero and alpha = eps_k,
        e_j (e_k e^(beta - eps_j)) + [e_k, e_j] e^(beta - eps_j), and else
        e_k (e^(alpha - eps_k) x^n e^beta), k the first generator of alpha."""
        cached = self._ex_cache.get((alpha, n, beta))
        if cached is not None:
            return cached
        k, rest = _pop_first(alpha)
        j, beta_rest = _pop_first(beta)
        plain = n == self._xzero
        if not any(alpha) or plain and max(t for t, a in enumerate(alpha) if a) <= j:
            cached = {(n, _plus(alpha, beta)): 1}
        elif plain and not any(rest):
            acc = defaultdict(int, self._gen_times(j, self._ex(alpha, n, beta_rest)))
            for l, f in enumerate(self.alg.structure_vector(k, j)):
                if f:
                    for (q, delta), d in self._ex(self._units[l], n, beta_rest).items():
                        for m, a in f.terms.items():
                            acc[_plus(m, q), delta] += a * d
            cached = _cleaned(acc)
        else:
            cached = self._gen_times(k, self._ex(rest, n, beta))
        self._ex_cache[alpha, n, beta] = cached
        return cached


class UEAElement:
    """Finite map (x exponent, generator exponent) -> nonzero coefficient c,
    an int when integral and a Fraction otherwise, for c x^m e^alpha."""

    __slots__ = ("parent", "flat")

    def __init__(self, parent: EnvelopingAlgebra, terms: dict[Expo, Polynomial]):
        """The element sum c_alpha e^alpha of {alpha: c_alpha}."""
        self.parent = parent
        self.flat = {(m, tuple(e)): c for e, p in terms.items() for m, c in p.terms.items()}

    @classmethod
    def _of(cls, parent: EnvelopingAlgebra, flat: Flat) -> "UEAElement":
        """An element on canonical flat terms (no zero, integral ones as
        int), taken as is."""
        u = object.__new__(cls)
        u.parent, u.flat = parent, flat
        return u

    @property
    def terms(self) -> MappingProxyType:
        """A read-only {generator exponent: Polynomial} view, built on each access."""
        rows: dict[Expo, dict] = {}
        for (m, e), c in self.flat.items():
            rows.setdefault(e, {})[m] = c
        vars = self.parent.alg.vars
        return MappingProxyType({e: Polynomial._of(vars, row) for e, row in rows.items()})

    def is_zero(self) -> bool:
        return not self.flat

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UEAElement)
            and self.parent is other.parent
            and self.flat == other.flat
        )

    def __add__(self, other: "UEAElement") -> "UEAElement":
        return UEAElement._of(self.parent, _merged(self.flat, other.flat, add))

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return UEAElement._of(self.parent, _merged(self.flat, other.flat, sub))

    def scale(self, c) -> "UEAElement":
        """c * self for a scalar c; R is an integral domain, so a nonzero c
        leaves no zero coefficient."""
        if not c:
            return self.parent.zero()
        return UEAElement._of(self.parent, {k: _coefficient(c * v) for k, v in self.flat.items()})

    def __mul__(self, other: "UEAElement") -> "UEAElement":
        """self * other, one `EnvelopingAlgebra.add_product` into an empty map."""
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self.parent.collect(self.parent.add_product({}, self.flat, other.flat))

    def commutator(self, other: "UEAElement") -> "UEAElement":
        return self * other - other * self

    def __repr__(self):
        if not self.flat:
            return "0"
        U = self.parent
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            gens = "*".join(
                f"{name}^{a}" if a > 1 else name
                for name, a in zip(U.alg.basis, e)
                if a
            )
            parts.append(f"({c})*{gens}" if gens else f"({c})")
        return " + ".join(parts)


# -- center search ------------------------------------------------------------


def center_search(
    U: EnvelopingAlgebra, filtration_cap: int, weight_cap: int
) -> list[UEAElement]:
    """Exact basis of elements commuting with every generator, within caps.

    Requires declared positive weights so the search space is finite;
    commuting with the ring variables and module generators suffices.
    """
    alg = U.alg
    if alg.weights is None:
        raise ValueError("center search needs declared weights")
    if any(alg.weights[nm] <= 0 for nm in alg.vars + alg.basis):
        raise ValueError(
            "center search needs positive weights; use the capped degree-zero "
            "kernel search on the commutative side instead"
        )
    vw = alg.var_weights()
    gen_w = [alg.generator_weight(k) for k in range(alg.rank)]
    basis_monos = [
        (xexp, gexp)
        for gexp in exponents(gen_w, weight_cap)
        if sum(gexp) <= filtration_cap
        for xexp in exponents(vw, weight_cap - sum(a * w for a, w in zip(gexp, gen_w)))
    ]
    basis_monos.sort(key=lambda t: (sum(t[1]), t[1], sum(t[0]), t[0]))

    generators = [U.scalar(Polynomial.variable(alg.vars, v)) for v in alg.vars]
    generators += [U.generator(k) for k in range(alg.rank)]

    def image(key):
        b = UEAElement._of(U, {key: 1})
        for gi, g in enumerate(generators):
            for (xexp, gexp), v in b.commutator(g).flat.items():
                yield (gi, xexp, gexp), v

    m, _ = assemble(basis_monos, image)
    kernel, _ = kernel_and_rank(m)
    return [UEAElement._of(U, {basis_monos[j]: _coefficient(c) for j, c in enumerate(vec) if c})
            for vec in kernel]
