"""The graded Poisson algebra of symbols and its multivector cohomology.

Symbols live in Q[x_1..x_n, g_1..g_d] (ring variables then one symbol per
module generator).  Multivectors are stored in coordinates as finite maps
(sorted leg set) -> symbol coefficient; the differential is evaluated on
coordinate tuples, which determines a multiderivation completely.
"""
from __future__ import annotations

import itertools
from operator import add, sub
from types import MappingProxyType

from .lie_rinehart import LieRinehartAlgebra
from .linalg import ComplexSlice, assemble_slice, cohomology_dims
from .poly import Polynomial, _cleaned, _merged, insert_leg, leg_basis

Legs = tuple[int, ...]


class SymAlgebra:
    """Poisson bracket on symbols, generated by the anchor and the bracket."""

    def __init__(self, alg: LieRinehartAlgebra):
        self.alg = alg
        self.n = len(alg.vars)
        self.d = alg.rank
        self.vars = alg.vars + alg.basis
        self.N = self.n + self.d
        self._weight_vector: tuple[int, ...] | None = None
        self._bracket_weight: int | None = None
        units = [(0,) * a + (1,) + (0,) * (self.N - a - 1) for a in range(self.N)]
        self._coordinates = [Polynomial._of(self.vars, {u: 1}) for u in units]
        self._table = {(a, b): self._generator_bracket(a, b)
                       for a, b in itertools.combinations(range(self.N), 2)}
        # per coordinate a, the nonzero (b, terms (u - e_b, v) of {x_b, x_a}),
        # sorted by b, for the plans and `coordinate_action`
        self._acting: list[list] = [[] for _ in range(self.N)]
        for (a, b), br in self._table.items():
            if br:
                self._acting[b].append((a, [(_lowered(u, a), v) for u, v in br.terms.items()]))
                self._acting[a].append((b, [(_lowered(u, b), -v) for u, v in br.terms.items()]))
        # for the boundary and the differential, per nonzero pair a < b, the
        # partials (m, u - e_m, u_m v) of {x_a, x_b}
        self._d_table = {ab: [(m, _lowered(u, m), k * v)
                              for u, v in br.terms.items() for m, k in enumerate(u) if k]
                         for ab, br in self._table.items() if br}
        # per (plan builder, leg set), the rows that `_apply_plan` runs
        self._plans: dict = {}

    def lift(self, f: Polynomial) -> Polynomial:
        """Include a ring element into the symbol algebra."""
        pad = (0,) * self.d
        return Polynomial._of(self.vars, {exp + pad: c for exp, c in f.terms.items()})

    def generator_symbol(self, k: int) -> Polynomial:
        return self._coordinates[self.n + k]

    def coordinate(self, a: int) -> Polynomial:
        return self._coordinates[a]

    def poly(self, text: str) -> Polynomial:
        from .poly import parse_poly

        return parse_poly(self.vars, text)

    def element_symbol(self, x) -> Polynomial:
        """sum_k lift(f_k) g_k; distinct generators give distinct monomials."""
        units = [(0,) * k + (1,) + (0,) * (self.d - k - 1) for k in range(self.d)]
        return Polynomial._of(self.vars, {exp + units[k]: c for k, f in enumerate(x.coeffs)
                                          for exp, c in f.terms.items()})

    def _generator_bracket(self, a: int, b: int) -> Polynomial:
        n = self.n
        if a < n and b < n:
            return Polynomial.zero(self.vars)
        if a < n <= b:
            # {x_a, g_i} = -rho(e_i)(x_a)
            return -self.lift(self.alg.anchor[b - n].images[a])
        i, j = a - n, b - n
        out = Polynomial.zero(self.vars)
        for k, c in enumerate(self.alg.structure_vector(i, j)):
            if not c.is_zero():
                out = out + self.lift(c) * self.generator_symbol(k)
        return out

    def coordinate_action(self, a: int, g: Polynomial) -> Polynomial:
        """{x_a, g} = -sum_b {x_b, x_a} d_b g: the bracket with one coordinate,
        in one pass over the terms of g and the rows of `_acting`."""
        out: dict = {}
        for b, terms in self._acting[a]:
            for exp, c in g.terms.items():
                if k := exp[b]:
                    for shift, v in terms:
                        key = tuple(map(add, exp, shift))
                        out[key] = out.get(key, 0) - k * c * v
        return Polynomial._of(self.vars, _cleaned(out))

    # -- weights -------------------------------------------------------

    def weight_vector(self) -> tuple[int, ...]:
        """The declared weight of every variable, computed on first use."""
        if self._weight_vector is None:
            alg = self.alg
            if alg.weights is None:
                raise ValueError("presentation has no declared weights")
            self._weight_vector = tuple(alg.weights[v] for v in self.vars)
        return self._weight_vector

    def bracket_weight(self) -> int:
        """The weight shift of the bracket, computed on first use."""
        if self._bracket_weight is None:
            self._bracket_weight = self.alg.bracket_weight()
        return self._bracket_weight


class LegTensor:
    """Flat terms {(sorted leg set, exponent): c}, c a nonzero int or (when not
    integral) Fraction, all of one degree: the leg-indexed data shared by
    multivectors and Kahler forms.  `terms` is a read-only view of them as
    {legs: Polynomial}."""

    __slots__ = ("parent", "degree", "flat")
    leg_prefix = ""

    def __init__(self, parent: SymAlgebra, degree: int, terms: dict[Legs, Polynomial] | None = None):
        """The tensor of {legs: coefficient}; zero coefficients are dropped."""
        self.parent = parent
        self.degree = degree
        self.flat: dict = {}
        for legs, c in (terms or {}).items():
            if c.is_zero():
                continue
            if len(legs) != degree or list(legs) != sorted(set(legs)):
                raise ValueError(f"bad leg set {legs} for degree {degree}")
            self.flat.update(((tuple(legs), exp), v) for exp, v in c.terms.items())

    @classmethod
    def _of(cls, parent: SymAlgebra, degree: int, flat: dict):
        """A tensor on canonical flat terms (sorted legs, no zero, integral
        coefficients as int), taken as is."""
        t = object.__new__(cls)
        t.parent, t.degree, t.flat = parent, degree, flat
        return t

    @classmethod
    def from_flat(cls, parent: SymAlgebra, degree: int, flat: dict):
        """The tensor of flat terms on sorted legs: zero sums are dropped and
        integral Fractions made ints."""
        return cls._of(parent, degree, _cleaned(flat))

    @classmethod
    def basis_element(cls, parent: SymAlgebra, legs: Legs, exp: tuple[int, ...]):
        """The monomial exp on the leg set legs, as keyed by `entries`; exp
        is an exponent tuple of an enumerated basis, taken unchecked."""
        return cls._of(parent, len(legs), {(legs, exp): 1})

    @property
    def terms(self) -> MappingProxyType:
        """A read-only {legs: Polynomial} view, built on each access."""
        rows: dict[Legs, dict] = {}
        for (legs, exp), c in self.flat.items():
            rows.setdefault(legs, {})[exp] = c
        vars = self.parent.vars
        return MappingProxyType({legs: Polynomial._of(vars, row) for legs, row in rows.items()})

    def is_zero(self) -> bool:
        return not self.flat

    def partial(self, i: int):
        """Every coefficient differentiated by the i-th symbol variable."""
        return self.from_flat(self.parent, self.degree, {
            (legs, exp[:i] + (k - 1,) + exp[i + 1:]): k * c
            for (legs, exp), c in self.flat.items() if (k := exp[i])})

    def __add__(self, other):
        return self._combined(other, add)

    def __neg__(self):
        return self._of(self.parent, self.degree, {k: -c for k, c in self.flat.items()})

    def __sub__(self, other):
        return self._combined(other, sub)

    def _combined(self, other, op):
        """self op other for op add or sub, of the degree of its nonzero side."""
        degree = other.degree if other.flat and not self.flat else self.degree
        return self._of(self.parent, degree, _merged(self.flat, other.flat, op))

    def scale(self, c):
        """Multiply every coefficient by a polynomial or a scalar."""
        if not isinstance(c, Polynomial):
            c = Polynomial.const(self.parent.vars, c)
        acc: dict = {}
        for (legs, exp), v in self.flat.items():
            for e, a in c.terms.items():
                key = legs, tuple(map(add, exp, e))
                acc[key] = acc.get(key, 0) + a * v
        return self.from_flat(self.parent, self.degree, acc)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.parent is other.parent
            and self.degree == other.degree
            and self.flat == other.flat
        )

    def coefficient(self, legs: Legs) -> Polynomial:
        legs = tuple(legs)
        return Polynomial._of(self.parent.vars,
                              {exp: c for (on, exp), c in self.flat.items() if on == legs})

    def entries(self):
        """((legs, exponent), coefficient) for every monomial term."""
        return self.flat.items()

    def __repr__(self):
        P = self.parent
        parts = []
        for legs, c in sorted(self.terms.items()):
            legstr = "^".join(f"{self.leg_prefix}{P.vars[a]}" for a in legs) or "1"
            parts.append(f"({c})*{legstr}")
        return " + ".join(parts) if parts else "0"


class Multivector(LegTensor):
    """Alternating multiderivation in coordinates: map (sorted legs) -> symbol."""

    __slots__ = ()
    leg_prefix = "d/d"

    def contract(self, form) -> "Multivector":
        """The interior product with the one-form sum_a form(a) dx_a, form asked
        once per coordinate that is a leg; a function has no leg, and gives zero."""
        values = {a: form(a).terms for a in {a for legs, _ in self.flat for a in legs}}
        return Multivector.from_flat(self.parent, max(self.degree - 1, 0),
                                     _apply_plan({}, _contract_plan, self.flat, values))

    def derive(self, degree: int, coordinate_image, leg_image) -> "Multivector":
        """The image of this multivector, as one of the given degree, under
        the derivation of symbols tensor legs fixed by its generator images
        (docs/signs.md, "Wedging one leg").  coordinate_image(a) is the image
        of the symbol coordinate x_a, a multivector of degree 0 or 1 or None:
        each partial d_a c is multiplied by it, its leg wedged in front by
        `insert_leg`.  leg_image(u) is a derivation of the base ring or None,
        lifted: it replaces the leg d/dx_u at 0-based position t with the
        sign (-1)^t, then each of its legs is wedged in by `insert_leg`.
        Each image is asked once, and only for the coordinates and legs that
        occur in the terms; the rows of this call's plan per leg set are
        built from them."""
        P = self.parent
        used = sorted({a for _, exp in self.flat for a, k in enumerate(exp) if k})
        coordinates = [(a, im.flat.items()) for a in used
                       if (im := coordinate_image(a)) is not None]
        pad = (0,) * P.d
        leg_terms = {u: [(w, e + pad, c) for w, im in enumerate(D.images)
                         for e, c in im.terms.items()]
                     for u in sorted({u for legs, _ in self.flat for u in legs})
                     if (D := leg_image(u)) is not None}

        def plan(legs):
            by_b = [(a, [(new, _lowered(e, a), sign * v) for (w, e), v in image
                         for new, sign in [insert_leg(legs, w[0]) if w else (legs, 1)] if sign])
                    for a, image in coordinates]
            fixed: dict = {}
            for t, u in enumerate(legs):
                for w, e, v in leg_terms.get(u, ()):
                    new, sign = insert_leg(legs[:t] + legs[t + 1:], w)
                    if sign:
                        fixed[new, e] = fixed.get((new, e), 0) + (-sign if t % 2 else sign) * v
            return by_b, fixed

        return Multivector.from_flat(P, degree, _apply_plan({}, plan, self.flat))

    def interior(self, f: Polynomial) -> "Multivector":
        """Insert f into the first slot: the contraction with df, the Laplace
        expansion of the determinant along its first row."""
        return self.contract(f.partial)

    def evaluate(self, args: list[Polynomial]) -> Polynomial:
        """Value on symbol arguments, inserted slot by slot."""
        if len(args) != self.degree:
            raise ValueError("wrong number of arguments")
        D = self
        for arg in args:
            D = D.interior(arg)
        return D.coefficient(())


def _lowered(exp: tuple[int, ...], b: int) -> tuple[int, ...]:
    """exp - e_b, with -1 at b when exp has no x_b."""
    return exp[:b] + (exp[b] - 1,) + exp[b + 1:]


def _contract_plan(values, legs: Legs) -> tuple[tuple, dict]:
    """The contraction rows on the leg set L, values[a] the {exponent: c} terms of
    the one-form along x_a: c on L gives (-1)^t c values[L[t]] on L less L[t]."""
    return (), {(legs[:t] + legs[t + 1:], e): -v if t % 2 else v
                for t, a in enumerate(legs) for e, v in values[a].items()}


def _apply_plan(plans: dict, build, flat: dict, *context) -> dict:
    """The flat image of an operator that is a derivation in the coefficient
    factor and moves the legs by fixed rows: the one loop that applies an
    operator to flat leg-tensor terms.  Its plan (by_b, fixed) = build(*context,
    L) per leg set L is built on first use, checked to shift exponents of the
    term's length (ValueError), and kept in plans under (build, L).  A term
    c x^e on L adds e_b c v at (new, e + shift) for each row (new, shift, v)
    under b in by_b, and c v at (new, e + u) for each row (new, u): v of fixed."""
    acc: dict = {}
    for (legs, exp), c in flat.items():
        if (plan := plans.get((build, legs))) is None:
            plan, n = build(*context, legs), len(exp)
            if any(len(shift) != n for _, rows in plan[0] for _, shift, _ in rows) or any(
                    len(u) != n for _, u in plan[1]):
                raise ValueError(f"the plan on {legs} has a shift of another length than {n}")
            plans[build, legs] = plan
        by_b, fixed = plan
        for b, rows in by_b:
            if k := exp[b]:
                f = k * c
                for new, shift, v in rows:
                    key = new, tuple(map(add, exp, shift))
                    acc[key] = acc.get(key, 0) + f * v
        for (new, u), v in fixed.items():
            key = new, tuple(map(add, exp, u))
            acc[key] = acc.get(key, 0) + c * v
    return acc


def poisson_differential(D: Multivector) -> Multivector:
    """The degree +1 differential of the bracket, on coordinate tuples.

    Value on coordinates (gamma_1..gamma_{k+1}):
      sum_i (-1)^{i+1} {gamma_i, D(..hat i..)}
      + sum_{i<j} (-1)^{i+j} D({gamma_i, gamma_j}, ..hat i, hat j..),
    run through `_apply_plan` with the plan of `_differential_plan`.
    """
    return Multivector.from_flat(D.parent, D.degree + 1, _apply_plan(
        D.parent._plans, _differential_plan, D.flat, D.parent))


def _differential_plan(P: SymAlgebra, legs: Legs) -> tuple[list, dict]:
    """The rows of `poisson_differential` on the leg set L.  The first sum
    wedges x_a onto L with the sign s of `insert_leg`, and {x_a, x^e} =
    -sum_b e_b x^(e - e_b) {x_b, x_a}: the row (L + a, u - e_b, -s v) under b
    per term v x^u of {x_b, x_a}.  The second sum is linear over symbols, so
    its rows are the flat terms of `_pair_sum`, on the unit d/dx_L."""
    by_b: dict = {}
    for a in range(P.N):
        new, sign = insert_leg(legs, a)
        if sign:
            for b, terms in P._acting[a]:
                by_b.setdefault(b, []).extend((new, shift, -sign * v) for shift, v in terms)
    return sorted(by_b.items()), _cleaned(_pair_sum(P, legs))


def _pair_sum(P: SymAlgebra, legs: Legs) -> dict:
    """The flat terms of sum_{i<j} (-1)^{i+j} D({gamma_i, gamma_j}, ..) on
    coordinates, for the unit D = d/dx_L on the leg set L:
    D({x_a, x_b}, x_R) = (i_{x_a, x_b} D)(x_R), one interior per pair,
    contracted from the partials of {x_a, x_b} in `_d_table`."""
    acc: dict = {}
    rests = sorted({legs[:p] + legs[p + 1:] for p in range(len(legs))})
    for (a, b), partials in P._d_table.items():
        inner = None  # D with {x_a, x_b} in its first slot, once a rest admits (a, b)
        for rest in rests:
            with_b, s1 = insert_leg(rest, b)
            new, s2 = insert_leg(with_b, a)
            # a and b sit at positions i < j of new: (-1)^{i+j} = -s1*s2
            if s1 * s2:
                if inner is None:
                    # (-1)^t d_m {x_a, x_b} on L without m = L[t]
                    inner = Multivector.from_flat(P, len(legs) - 1, {
                        (legs[:t] + legs[t + 1:], u): -v if t % 2 else v
                        for t, m in enumerate(legs) for n, u, v in partials if n == m})
                for exp, v in inner.evaluate([P.coordinate(r) for r in rest]).terms.items():
                    acc[new, exp] = acc.get((new, exp), 0) - s1 * s2 * v
    return acc


# -- weight-sliced cohomology -------------------------------------------------


def cochain_slice(P: SymAlgebra, W: int, max_position: int) -> ComplexSlice:
    """The weight-W multivector complex through cochain degree max_position,
    its columns the `_differential_plan` images of the basis multivectors."""
    vw, wbr = P.weight_vector(), P.bracket_weight()
    bases = [leg_basis(vw, vw, k, W + k * wbr) for k in range(max_position + 1)]
    return assemble_slice(bases, lambda key: _apply_plan(P._plans, _differential_plan,
                                                         {key: 1}, P).items())


def cochain_table(leg_weights, wbr: int, max_weight: int, max_degree: int,
                  build) -> dict[tuple[int, int], int]:
    """Cohomology dimensions per (weight, cochain degree) of a weight-sliced
    complex whose degree-k cochains sit on k-subsets of legs, each leg of
    weight w lowering the slice weight by w + wbr.  build(W, top) is the slice
    of weight W through degree top = max_degree + 1 (at most the leg count),
    so each reported degree has its outgoing differential, for W from the
    lowest weight a cochain of degree <= top has to max_weight.
    """
    n = len(leg_weights)
    top = min(max_degree + 1, n)
    lowest = min((-k * wbr - sum(leg_weights[a] for a in legs) for k in range(top + 1)
                  for legs in itertools.combinations(range(n), k)), default=max_weight + 1)
    table: dict[tuple[int, int], int] = {}
    for W in range(lowest, max_weight + 1):
        dims = cohomology_dims(build(W, top))
        for k in range(min(max_degree, top) + 1):
            table[(W, k)] = dims[k]
    return table


def poisson_cohomology(
    alg: LieRinehartAlgebra, max_weight: int, max_degree: int
) -> dict[tuple[int, int], int]:
    """Exact Poisson cohomology dimensions per (weight, cochain degree).

    Requires declared positive weights (the weight-zero directions of the
    line arrangements are handled by the Euler contraction instead).
    """
    P = SymAlgebra(alg)
    if any(w <= 0 for w in P.weight_vector()):
        raise ValueError(
            "poisson_cohomology needs positive weights on every variable; "
            "use euler_contraction_check / capped_casimir_search instead"
        )
    return cochain_table(P.weight_vector(), P.bracket_weight(), max_weight, max_degree,
                         lambda W, top: cochain_slice(P, W, top))
