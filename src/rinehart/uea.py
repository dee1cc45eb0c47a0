"""The universal enveloping algebra as a normal-ordered rewriting system.

Elements are finite maps (generator exponent vector) -> coefficient in R,
in the normal form coefficient * e_1^a1 ... e_d^ad.  Products rewrite
e_i * r -> r * e_i + rho(e_i)(r) and e_i * e_j -> e_j * e_i + [e_i, e_j]
for i > j; generator-pair products are memoized on the algebra wrapper.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .lie_rinehart import Connection, LElement, LieRinehartAlgebra
from .linalg import assemble, kernel_and_rank
from .poly import Polynomial, exponents

Expo = tuple[int, ...]


class EnvelopingAlgebra:
    """Wrapper owning the rewriting caches for one presentation."""

    def __init__(self, alg: LieRinehartAlgebra):
        self.alg = alg
        self._gen_mono_cache: dict[tuple[int, Expo], "UEAElement"] = {}
        self.sym_vars = alg.vars + alg.basis

    # -- constructors ---------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def scalar(self, f) -> "UEAElement":
        if isinstance(f, str):
            f = self.alg.poly(f)
        elif isinstance(f, (int, Fraction)):
            f = Polynomial.const(self.alg.vars, f)
        e0 = (0,) * self.alg.rank
        return UEAElement(self, {e0: f})

    def one(self) -> "UEAElement":
        return self.scalar(1)

    def generator(self, k: int) -> "UEAElement":
        exp = [0] * self.alg.rank
        exp[k] = 1
        return UEAElement(self, {tuple(exp): self.alg.one()})

    def include(self, x: LElement) -> "UEAElement":
        out = self.zero()
        for k, f in enumerate(x.coeffs):
            if not f.is_zero():
                exp = [0] * self.alg.rank
                exp[k] = 1
                out = out + UEAElement(self, {tuple(exp): f})
        return out

    def monomial(self, coeff: Polynomial, exp: Expo) -> "UEAElement":
        return UEAElement(self, {tuple(exp): coeff})

    # -- normal ordering core --------------------------------------------

    def _gen_times_monomial(self, i: int, beta: Expo) -> "UEAElement":
        """e_i * e^beta in normal form."""
        key = (i, beta)
        cached = self._gen_mono_cache.get(key)
        if cached is not None:
            return cached
        first = next((j for j, b in enumerate(beta) if b), None)
        if first is None or i <= first:
            exp = list(beta)
            exp[i] += 1
            result = UEAElement(self, {tuple(exp): self.alg.one()})
        else:
            j = first
            rest = list(beta)
            rest[j] -= 1
            rest = tuple(rest)
            inner = self._gen_times_monomial(i, rest)
            result = self._gen_times_element(j, inner)
            bracket = self.include(self.alg.basis_bracket(i, j))
            result = result + bracket * UEAElement(self, {rest: self.alg.one()})
        self._gen_mono_cache[key] = result
        return result

    def _gen_times_element(self, i: int, u: "UEAElement") -> "UEAElement":
        """e_i * u in normal form."""
        terms: dict[Expo, Polynomial] = {}
        rho_i = self.alg.anchor[i]

        def add(exp, coeff):
            if coeff.is_zero():
                return
            cur = terms.get(exp)
            s = coeff if cur is None else cur + coeff
            if s.is_zero():
                terms.pop(exp, None)
            else:
                terms[exp] = s

        for beta, g in u.terms.items():
            for exp, c in self._gen_times_monomial(i, beta).terms.items():
                add(exp, g * c)
            add(beta, rho_i(g))
        return UEAElement._of(self, terms)


class UEAElement:
    __slots__ = ("parent", "terms")

    def __init__(self, parent: EnvelopingAlgebra, terms: dict[Expo, Polynomial]):
        self.parent = parent
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _of(cls, parent: EnvelopingAlgebra, terms: dict[Expo, Polynomial]) -> "UEAElement":
        """An element on terms with no zero coefficient, taken as is."""
        u = object.__new__(cls)
        u.parent, u.terms = parent, terms
        return u

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UEAElement)
            and self.parent is other.parent
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "UEAElement") -> "UEAElement":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return UEAElement._of(self.parent, out)

    def __neg__(self) -> "UEAElement":
        return UEAElement._of(self.parent, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + (-other)

    def scale(self, f) -> "UEAElement":
        if isinstance(f, Polynomial):
            return UEAElement(self.parent, {e: f * c for e, c in self.terms.items()})
        return UEAElement(self.parent, {e: c.scale(f) for e, c in self.terms.items()})

    def __mul__(self, other: "UEAElement") -> "UEAElement":
        if not isinstance(other, UEAElement):
            return NotImplemented
        U = self.parent
        out = U.zero()
        for alpha, f in self.terms.items():
            gens = [k for k in range(len(alpha)) for _ in range(alpha[k])]
            piece = other
            for k in reversed(gens):
                piece = U._gen_times_element(k, piece)
            out = out + piece.scale(f)
        return out

    def commutator(self, other: "UEAElement") -> "UEAElement":
        return self * other - other * self

    def filtration_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def weight(self) -> int | None:
        """Weight of a homogeneous element under the declared weights."""
        alg = self.parent.alg
        vw = alg.var_weights()
        seen = set()
        for e, c in self.terms.items():
            gw = sum(a * alg.generator_weight(k) for k, a in enumerate(e))
            for w, piece in c.weight_split(vw).items():
                seen.add(w + gw)
        if not seen:
            return None
        if len(seen) > 1:
            raise ValueError("element is not weight homogeneous")
        return seen.pop()

    def gr_symbol(self) -> Polynomial:
        """Top filtration part, generators replaced by commuting symbols."""
        U = self.parent
        nvars = len(U.alg.vars)
        top = self.filtration_degree()
        out = Polynomial.zero(U.sym_vars)
        for e, c in self.terms.items():
            if sum(e) != top:
                continue
            for exp, coeff in c.terms.items():
                out = out + Polynomial.monomial(U.sym_vars, exp + e, coeff)
        return out

    def full_symbol(self) -> Polynomial:
        """All of the element as a polynomial in commuting symbols."""
        U = self.parent
        out = Polynomial.zero(U.sym_vars)
        for e, c in self.terms.items():
            for exp, coeff in c.terms.items():
                out = out + Polynomial.monomial(U.sym_vars, exp + e, coeff)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        U = self.parent
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            gens = "*".join(
                f"{name}^{a}" if a > 1 else name
                for name, a in zip(U.alg.basis, e)
                if a
            )
            if gens:
                parts.append(f"({c})*{gens}")
            else:
                parts.append(f"({c})")
        return " + ".join(parts)


# -- PBW -------------------------------------------------------------------


class PBWMap:
    """Connection-dependent lift of symbols to normal-ordered elements.

    Defined recursively on products of module factors, averaging over the
    factor removed and correcting with the induced connection; values are
    cached per symbol monomial.
    """

    def __init__(self, U: EnvelopingAlgebra, conn: Connection | None = None):
        self.U = U
        self.alg = U.alg
        self.conn = conn if conn is not None else Connection(U.alg)
        self._cache: dict[Expo, UEAElement] = {}

    def element_to_sym(self, x: LElement) -> Polynomial:
        sym_vars = self.U.sym_vars
        n = len(self.alg.vars)
        out = Polynomial.zero(sym_vars)
        for k, f in enumerate(x.coeffs):
            for exp, c in f.terms.items():
                e = list(exp) + [0] * self.alg.rank
                e[n + k] += 1
                out = out + Polynomial.monomial(sym_vars, tuple(e), c)
        return out

    def connection_derivation(self, X: LElement):
        """nabla^L_X acting on symbols as a derivation (anchor on the base)."""
        alg = self.alg
        images = [X.anchor_derivation().images[u] for u in range(len(alg.vars))]
        gen_images = [
            self.element_to_sym(self.conn.basic_l(X, alg.basis_element(a)))
            for a in range(alg.rank)
        ]
        return images, gen_images

    def _apply_connection(self, X: LElement, sym: Polynomial) -> Polynomial:
        images, gen_images = self.connection_derivation(X)
        sym_vars = self.U.sym_vars
        n = len(self.alg.vars)
        out = Polynomial.zero(sym_vars)
        for u, im in enumerate(images):
            if im.is_zero():
                continue
            lifted = Polynomial.zero(sym_vars)
            for exp, c in im.terms.items():
                lifted = lifted + Polynomial.monomial(
                    sym_vars, tuple(exp) + (0,) * self.alg.rank, c
                )
            out = out + sym.partial(u) * lifted
        for a, im in enumerate(gen_images):
            if im.is_zero():
                continue
            out = out + sym.partial(n + a) * im
        return out

    def __call__(self, sym: Polynomial) -> UEAElement:
        if sym.vars != self.U.sym_vars:
            raise ValueError("symbol over the wrong variable list")
        out = self.U.zero()
        for exp, c in sym.terms.items():
            out = out + self._mono(exp).scale(c)
        return out

    def _mono(self, exp: Expo) -> UEAElement:
        cached = self._cache.get(exp)
        if cached is not None:
            return cached
        alg = self.alg
        n = len(alg.vars)
        xpart = exp[:n]
        gens = [a for a in range(alg.rank) for _ in range(exp[n + a])]
        coeff = Polynomial.monomial(alg.vars, xpart, 1)
        if not gens:
            result = self.U.scalar(coeff)
        else:
            factors = [alg.basis_element(gens[0]).scale(coeff)] + [
                alg.basis_element(a) for a in gens[1:]
            ]
            result = self._of_factors(factors)
        self._cache[exp] = result
        return result

    def _of_factors(self, factors: list[LElement]) -> UEAElement:
        k = len(factors)
        if k == 0:
            return self.U.one()
        if k == 1:
            return self.U.include(factors[0])
        out = self.U.zero()
        for i, X in enumerate(factors):
            rest = factors[:i] + factors[i + 1:]
            rest_sym = Polynomial.const(self.U.sym_vars, 1)
            for Y in rest:
                rest_sym = rest_sym * self.element_to_sym(Y)
            out = out + self.U.include(X) * self(rest_sym)
            out = out - self(self._apply_connection(X, rest_sym))
        return out.scale(Fraction(1, k))


def pbw(U: EnvelopingAlgebra, sym: Polynomial, conn: Connection | None = None) -> UEAElement:
    return PBWMap(U, conn)(sym)


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
        xexp, gexp = key
        b = U.monomial(Polynomial.monomial(alg.vars, xexp, 1), gexp)
        for gi, g in enumerate(generators):
            for gexp2, c in b.commutator(g).terms.items():
                for xexp2, v in c.terms.items():
                    yield (gi, xexp2, gexp2), v

    m, _ = assemble(basis_monos, image)
    kernel, _ = kernel_and_rank(m)
    out = []
    for vec in kernel:
        u = U.zero()
        for j, c in enumerate(vec):
            if c:
                xexp, gexp = basis_monos[j]
                u = u + U.monomial(Polynomial.monomial(alg.vars, xexp, c), gexp)
        out.append(u)
    return out


# -- degree-one extensions ------------------------------------------------------


class CocycleError(Exception):
    pass


class DerivationExtension:
    """Extend a compatible pair (values on ring generators, values on module
    generators) to a derivation of the enveloping algebra.

    The pair must satisfy the generator-level cocycle equations; failures
    raise CocycleError naming the offending equation.
    """

    def __init__(self, U: EnvelopingAlgebra, phi0: dict[str, UEAElement],
                 phi1: dict[str, UEAElement]):
        self.U = U
        alg = U.alg
        self.phi0 = {v: phi0.get(v, U.zero()) for v in alg.vars}
        self.phi1 = {b: phi1.get(b, U.zero()) for b in alg.basis}
        self._check()

    # phi0 on an arbitrary ring element, by the cocycle rule on monomials
    def phi0_apply(self, f: Polynomial) -> UEAElement:
        U = self.U
        alg = U.alg
        out = U.zero()
        for exp, c in f.terms.items():
            gens = [u for u in range(len(alg.vars)) for _ in range(exp[u])]
            for t in range(len(gens)):
                pre = Polynomial.monomial(alg.vars, _exp_of(gens[:t], len(alg.vars)), 1)
                post = Polynomial.monomial(alg.vars, _exp_of(gens[t + 1:], len(alg.vars)), 1)
                term = U.scalar(pre) * self.phi0[alg.vars[gens[t]]] * U.scalar(post)
                out = out + term.scale(c)
        return out

    def phi1_apply(self, x: LElement) -> UEAElement:
        U = self.U
        alg = U.alg
        out = U.zero()
        for k, f in enumerate(x.coeffs):
            if f.is_zero():
                continue
            out = out + U.scalar(f) * self.phi1[alg.basis[k]]
            gen = U.generator(k)
            out = out + self.phi0_apply(f) * gen
        return out

    def _check(self):
        U = self.U
        alg = U.alg
        # well-definedness of phi0 on the commutative ring
        for u, v in itertools.combinations(range(len(alg.vars)), 2):
            xu = U.scalar(Polynomial.variable(alg.vars, alg.vars[u]))
            xv = U.scalar(Polynomial.variable(alg.vars, alg.vars[v]))
            lhs = xu.commutator(self.phi0[alg.vars[v]])
            rhs = xv.commutator(self.phi0[alg.vars[u]])
            if lhs != rhs:
                raise CocycleError(
                    f"ring cocycle symmetry fails on ({alg.vars[u]}, {alg.vars[v]})"
                )
        # mixed equation on generators
        for k in range(alg.rank):
            ek = U.generator(k)
            for u, vname in enumerate(alg.vars):
                xu = U.scalar(Polynomial.variable(alg.vars, vname))
                lhs = ek.commutator(self.phi0[vname]) - self.phi0_apply(
                    alg.anchor[k](Polynomial.variable(alg.vars, vname))
                )
                rhs = xu.commutator(self.phi1[alg.basis[k]])
                if lhs != rhs:
                    raise CocycleError(
                        f"mixed cocycle equation fails on ({alg.basis[k]}, {vname})"
                    )
        # Lie cocycle equation on generator pairs
        for i, j in itertools.combinations(range(alg.rank), 2):
            ei, ej = U.generator(i), U.generator(j)
            lhs = (
                ei.commutator(self.phi1[alg.basis[j]])
                - ej.commutator(self.phi1[alg.basis[i]])
                - self.phi1_apply(alg.basis_bracket(i, j))
            )
            if not lhs.is_zero():
                raise CocycleError(
                    f"module cocycle equation fails on ({alg.basis[i]}, {alg.basis[j]})"
                )

    def __call__(self, u: UEAElement) -> UEAElement:
        U = self.U
        alg = U.alg
        out = U.zero()
        for gexp, c in u.terms.items():
            gens = [k for k in range(alg.rank) for _ in range(gexp[k])]
            head = self.phi0_apply(c)
            tail = U.monomial(alg.one(), gexp)
            out = out + head * tail
            for t in range(len(gens)):
                pre = U.monomial(c, _exp_of(gens[:t], alg.rank))
                post = U.monomial(alg.one(), _exp_of(gens[t + 1:], alg.rank))
                out = out + pre * self.phi1[alg.basis[gens[t]]] * post
        return out


def _exp_of(gens: list[int], size: int) -> Expo:
    exp = [0] * size
    for g in gens:
        exp[g] += 1
    return tuple(exp)
