"""Lie-Rinehart algebras presented over polynomial rings.

A presentation is a free module of rank d over R = Q[x_1..x_n] with named
basis, an anchor (one derivation of R per basis element) and structure
functions [e_i, e_j] = sum_k c_ij^k e_k.  Brackets and the anchor extend to
arbitrary coefficients by the Leibniz rule; all axioms are checked on basis
tuples, which suffices (the Jacobiator and the anchor-morphism defect are
R-multilinear once Leibniz holds -- see docs/basis-reduction.md).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial, PolyDerivation, ce_terms, parse_poly, perm_sign, sort_with_sign


class PresentationError(ValueError):
    pass


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exact check: pass/fail, the witnesses of the failures,
    and how many trials (sampled inputs or basis points) were checked; 0 for
    the exhaustive axiom check, which does not count."""

    ok: bool
    failures: tuple[str, ...]
    trials: int = 0

    def __bool__(self):
        return self.ok


class LieRinehartAlgebra:
    """Polynomial base ring, free module with anchor and structure functions."""

    def __init__(
        self,
        vars: tuple[str, ...],
        basis: tuple[str, ...],
        anchor: tuple[PolyDerivation, ...],
        structure: dict[tuple[int, int], tuple[Polynomial, ...]],
        weights: dict[str, int] | None = None,
        name: str = "",
    ):
        self.vars = tuple(vars)
        self.basis = tuple(basis)
        if len(set(self.vars + self.basis)) != len(self.vars) + len(self.basis):
            raise PresentationError("variable and basis names must be distinct")
        self.rank = len(self.basis)
        if len(anchor) != self.rank:
            raise PresentationError("need one anchor derivation per basis element")
        for d in anchor:
            if d.vars != self.vars:
                raise PresentationError("anchor derivation over wrong variables")
        self.anchor = tuple(anchor)
        self.structure: dict[tuple[int, int], tuple[Polynomial, ...]] = {}
        zero = Polynomial.zero(self.vars)
        for (i, j), cs in structure.items():
            if i == j and any(c for c in cs):
                raise PresentationError(f"nonzero bracket [{i},{i}] violates antisymmetry")
            if not (0 <= i < self.rank and 0 <= j < self.rank):
                raise PresentationError(f"bracket key {(i, j)} out of range")
            if len(cs) != self.rank:
                raise PresentationError("structure vector has wrong length")
            if i < j and any(c for c in cs):
                self.structure[(i, j)] = tuple(cs)
        self.weights = dict(weights) if weights else None
        if self.weights is not None:
            missing = [n for n in self.vars + self.basis if n not in self.weights]
            if missing:
                raise PresentationError(f"weights missing for {missing}")
        self.name = name
        self._zero = zero

    # -- ring helpers ----------------------------------------------------

    def poly(self, text: str) -> Polynomial:
        return parse_poly(self.vars, text)

    def zero_poly(self) -> Polynomial:
        return self._zero

    def one(self) -> Polynomial:
        return Polynomial.const(self.vars, 1)

    def coordinate_field(self, name: str) -> PolyDerivation:
        return PolyDerivation.coordinate(self.vars, name)

    # -- module elements ---------------------------------------------------

    def element(self, coeffs) -> "LElement":
        cs = []
        for c in coeffs:
            if isinstance(c, str):
                c = self.poly(c)
            elif isinstance(c, (int, Fraction)):
                c = Polynomial.const(self.vars, c)
            cs.append(c)
        if len(cs) != self.rank:
            raise PresentationError("coefficient vector has wrong length")
        return LElement(self, tuple(cs))

    def basis_element(self, k: int) -> "LElement":
        return LElement(
            self,
            tuple(
                Polynomial.const(self.vars, 1 if i == k else 0)
                for i in range(self.rank)
            ),
        )

    def zero_element(self) -> "LElement":
        return LElement(self, tuple(self._zero for _ in range(self.rank)))

    def structure_vector(self, i: int, j: int) -> tuple[Polynomial, ...]:
        if i == j:
            return tuple(self._zero for _ in range(self.rank))
        if i < j:
            return self.structure.get((i, j), tuple(self._zero for _ in range(self.rank)))
        cs = self.structure.get((j, i))
        if cs is None:
            return tuple(self._zero for _ in range(self.rank))
        return tuple(-c for c in cs)

    def basis_bracket(self, i: int, j: int) -> "LElement":
        return LElement(self, self.structure_vector(i, j))

    # -- weights ---------------------------------------------------------

    def var_weights(self) -> tuple[int, ...]:
        if self.weights is None:
            raise PresentationError("no weights declared")
        return tuple(self.weights[v] for v in self.vars)

    def generator_weight(self, k: int) -> int:
        if self.weights is None:
            raise PresentationError("no weights declared")
        return self.weights[self.basis[k]]

    def bracket_weight(self) -> int:
        """The common shift of the bracket/anchor on weights (checked by axioms)."""
        if self.weights is None:
            raise PresentationError("no weights declared")
        vw = self.var_weights()
        for k, d in enumerate(self.anchor):
            for u, im in enumerate(d.images):
                if im:
                    return im.weight(vw) - vw[u] - self.generator_weight(k)
        for (i, j), cs in self.structure.items():
            for k, c in enumerate(cs):
                if c:
                    return (
                        c.weight(vw)
                        + self.generator_weight(k)
                        - self.generator_weight(i)
                        - self.generator_weight(j)
                    )
        return 0

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "vars": list(self.vars),
            "rank": self.rank,
            "basis": list(self.basis),
            "anchor": [[repr(im) for im in d.images] for d in self.anchor],
            "bracket": {
                f"{i},{j}": [repr(c) for c in cs]
                for (i, j), cs in sorted(self.structure.items())
            },
        }
        if self.weights is not None:
            data["weights"] = dict(sorted(self.weights.items()))
        return data

    def __repr__(self):
        return f"LieRinehartAlgebra({self.name or 'anonymous'}, R=Q{list(self.vars)}, rank {self.rank})"


class LElement:
    """Element sum_k f_k e_k of the free module, coefficients in R."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: LieRinehartAlgebra, coeffs: tuple[Polynomial, ...]):
        self.algebra = algebra
        self.coeffs = coeffs

    def __add__(self, other: "LElement") -> "LElement":
        return LElement(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LElement") -> "LElement":
        return LElement(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LElement":
        return LElement(self.algebra, tuple(-a for a in self.coeffs))

    def scale(self, f) -> "LElement":
        if isinstance(f, Polynomial):
            return LElement(self.algebra, tuple(f * a for a in self.coeffs))
        return LElement(self.algebra, tuple(a.scale(f) for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def anchor_derivation(self) -> PolyDerivation:
        """rho(self) as a derivation of R."""
        alg = self.algebra
        images = []
        for u in range(len(alg.vars)):
            im = alg.zero_poly()
            for k, f in enumerate(self.coeffs):
                if f:
                    im = im + f * alg.anchor[k].images[u]
            images.append(im)
        return PolyDerivation(alg.vars, images)

    def __repr__(self):
        parts = [
            f"({c})*{name}"
            for c, name in zip(self.coeffs, self.algebra.basis)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def anchor_apply(a: LElement, f: Polynomial) -> Polynomial:
    """The action of a on f through the anchor."""
    out = a.algebra.zero_poly()
    for k, c in enumerate(a.coeffs):
        if c:
            out = out + c * a.algebra.anchor[k](f)
    return out


def bracket_extend(a: LElement, b: LElement) -> LElement:
    """[a, b] by bilinear extension with the Leibniz anchor corrections."""
    alg = a.algebra
    if alg is not b.algebra:
        raise PresentationError("elements of different presentations")
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
            out = out + alg.basis_element(j).scale(anchor_apply(a, g))
    for i, f in enumerate(a.coeffs):
        if not f.is_zero():
            out = out - alg.basis_element(i).scale(anchor_apply(b, f))
    return out


def check_axioms(alg: LieRinehartAlgebra, max_failures: int = 3) -> CheckReport:
    """Anchor morphism, Jacobi, weight homogeneity -- on basis tuples."""
    failures: list[str] = []

    def record(msg):
        failures.append(msg)

    # anchor is a morphism of Lie algebras
    for i, j in itertools.combinations(range(alg.rank), 2):
        lhs = alg.basis_bracket(i, j).anchor_derivation()
        rhs = alg.anchor[i].commutator(alg.anchor[j])
        if lhs != rhs:
            record(
                f"anchor morphism fails on ({alg.basis[i]}, {alg.basis[j]}): "
                f"rho([.,.]) = {lhs} but [rho, rho] = {rhs}"
            )
            if len(failures) >= max_failures:
                return CheckReport(False, tuple(failures))

    # Jacobi on basis triples (tensorial once anchor morphism + Leibniz hold)
    for i, j, k in itertools.combinations(range(alg.rank), 3):
        ei, ej, ek = (alg.basis_element(t) for t in (i, j, k))
        jac = (
            bracket_extend(bracket_extend(ei, ej), ek)
            + bracket_extend(bracket_extend(ej, ek), ei)
            + bracket_extend(bracket_extend(ek, ei), ej)
        )
        if not jac.is_zero():
            record(
                f"Jacobi fails on ({alg.basis[i]}, {alg.basis[j]}, {alg.basis[k]}): "
                f"defect {jac}"
            )
            if len(failures) >= max_failures:
                return CheckReport(False, tuple(failures))

    if alg.weights is not None:
        vw = alg.var_weights()
        shift = alg.bracket_weight()
        for k, d in enumerate(alg.anchor):
            for u, im in enumerate(d.images):
                if im.is_zero():
                    continue
                want = vw[u] + alg.generator_weight(k) + shift
                if not im.is_weight_homogeneous(vw) or im.weight(vw) != want:
                    record(
                        f"anchor image rho({alg.basis[k]})({alg.vars[u]}) = {im} "
                        f"is not homogeneous of weight {want}"
                    )
        for (i, j), cs in alg.structure.items():
            for k, c in enumerate(cs):
                if c.is_zero():
                    continue
                want = (
                    alg.generator_weight(i)
                    + alg.generator_weight(j)
                    + shift
                    - alg.generator_weight(k)
                )
                if not c.is_weight_homogeneous(vw) or c.weight(vw) != want:
                    record(
                        f"structure function c[{alg.basis[i]},{alg.basis[j]}]^{alg.basis[k]}"
                        f" = {c} is not homogeneous of weight {want}"
                    )

    return CheckReport(not failures, tuple(failures))


# -- connections and the two-term adjoint complex -------------------------


class Connection:
    """A connection on L: values nabla_{d/dx_u}(e_j), extended by Leibniz.

    The default (all zero on basis pairs) is the canonical choice for a free
    module; any other table works as long as shapes match.
    """

    def __init__(self, alg: LieRinehartAlgebra, table: list[list[LElement]] | None = None):
        self.alg = alg
        n, d = len(alg.vars), alg.rank
        if table is None:
            table = [[alg.zero_element() for _ in range(d)] for _ in range(n)]
        if len(table) != n or any(len(row) != d for row in table):
            raise PresentationError("connection table must be n x d")
        self.table = table

    def nabla(self, D: PolyDerivation, Y: LElement) -> LElement:
        """nabla_D(Y): R-linear in D, Leibniz in Y."""
        alg = self.alg
        out = alg.zero_element()
        for j, g in enumerate(Y.coeffs):
            if g.is_zero():
                continue
            out = out + alg.basis_element(j).scale(D(g))
            for u in range(len(alg.vars)):
                du = D.images[u]
                if du.is_zero():
                    continue
                out = out + self.table[u][j].scale(g * du)
        return out

    def basic_l(self, X: LElement, Y: LElement) -> LElement:
        """The induced connection on L along X, applied to Y."""
        return self.nabla(Y.anchor_derivation(), X) + bracket_extend(X, Y)

    def basic_der(self, X: LElement, D: PolyDerivation) -> PolyDerivation:
        """The induced connection on derivations along X, applied to D."""
        return self.nabla(D, X).anchor_derivation() + X.anchor_derivation().commutator(D)

    def basic_apply(self, X: LElement, target):
        if isinstance(target, LElement):
            return self.basic_l(X, target)
        return self.basic_der(X, target)

    def basic_curvature(self, X: LElement, Y: LElement, D: PolyDerivation) -> LElement:
        """The five-term curvature tensor of the pair of induced connections."""
        br = bracket_extend(X, Y)
        return (
            self.nabla(D, br)
            - bracket_extend(self.nabla(D, X), Y)
            - bracket_extend(X, self.nabla(D, Y))
            - self.nabla(self.basic_der(Y, D), X)
            + self.nabla(self.basic_der(X, D), Y)
        )

    def plain_curvature_l(self, X: LElement, Y: LElement, Z: LElement) -> LElement:
        """Curvature of the induced connection on L."""
        return (
            self.basic_l(X, self.basic_l(Y, Z))
            - self.basic_l(Y, self.basic_l(X, Z))
            - self.basic_l(bracket_extend(X, Y), Z)
        )

    def plain_curvature_der(self, X: LElement, Y: LElement, D: PolyDerivation) -> PolyDerivation:
        """Curvature of the induced connection on derivations."""
        return (
            self.basic_der(X, self.basic_der(Y, D))
            - self.basic_der(Y, self.basic_der(X, D))
            - self.basic_der(bracket_extend(X, Y), D)
        )


class _AdCochain:
    """R-multilinear alternating cochain on L with values in L or Der(R).

    Values are stored on increasing basis tuples and extended multilinearly.
    kind is "l" or "der"; degree is the number of L-arguments.
    """

    def __init__(self, alg, degree, kind, values):
        self.alg = alg
        self.degree = degree
        self.kind = kind
        self.values = values  # dict[tuple[int,...] increasing] -> value

    def zero_value(self):
        if self.kind == "l":
            return self.alg.zero_element()
        return PolyDerivation.zero(self.alg.vars)

    def value_on_basis(self, idx: tuple[int, ...]):
        """Value on an arbitrary basis tuple, resolving the sign by sorting."""
        key, sign = sort_with_sign(idx)
        v = self.values.get(key) if sign else None
        if v is None:
            return self.zero_value()
        return v if sign == 1 else -v

    def evaluate(self, args: list[LElement]):
        """Multilinear extension to arbitrary module elements."""
        alg = self.alg
        out = self.zero_value()
        for idx in itertools.product(range(alg.rank), repeat=self.degree):
            coeff = Polynomial.const(alg.vars, 1)
            for arg, a in zip(args, idx):
                coeff = coeff * arg.coeffs[a]
                if coeff.is_zero():
                    break
            if coeff.is_zero():
                continue
            base = self.value_on_basis(idx)
            if self.kind == "l":
                out = out + base.scale(coeff)
            else:
                out = out + base.scale_by(coeff)
        return out


def _koszul_differential(conn: Connection, c: _AdCochain) -> _AdCochain:
    """Exterior covariant derivative of c along the induced connections."""
    alg = conn.alg
    deg = c.degree + 1
    e = alg.basis_element

    def act(i, rest):
        return conn.basic_apply(e(i), c.value_on_basis(rest))

    def bracketed(i, j, rest):
        return c.evaluate([bracket_extend(e(i), e(j))] + [e(t) for t in rest])

    values = {
        idx: sum((t if s == 1 else -t for s, t in ce_terms(idx, act, bracketed)),
                 c.zero_value())
        for idx in itertools.combinations(range(alg.rank), deg)
    }
    return _AdCochain(alg, deg, c.kind, values)


def _curvature_wedge(conn: Connection, c: _AdCochain) -> _AdCochain:
    """Wedge the basic-curvature two-form into a Der-valued cochain."""
    alg = conn.alg
    deg = c.degree + 2
    values = {}
    for idx in itertools.combinations(range(alg.rank), deg):
        total = alg.zero_element()
        for i, j in itertools.combinations(range(deg), 2):
            rest = tuple(idx[t] for t in range(deg) if t not in (i, j))
            v = c.value_on_basis(rest)
            term = conn.basic_curvature(
                alg.basis_element(idx[i]), alg.basis_element(idx[j]), v
            )
            # matches the curvature form produced by the square of the
            # exterior covariant derivative (zero-based odd i+j positive)
            total = total + (term if (i + j) % 2 == 1 else -term)
        values[idx] = total
    return _AdCochain(alg, deg, "l", values)


def _anchor_post(c: _AdCochain) -> _AdCochain:
    values = {idx: v.anchor_derivation() for idx, v in c.values.items()}
    return _AdCochain(c.alg, c.degree, "der", values)


def adjoint_operator(conn: Connection, part_l: _AdCochain | None, part_der: _AdCochain | None,
                     total_degree: int):
    """One application of the structure operator on the two-term complex.

    Input: a pair (omega_L in Omega^m(L;L), omega_Der in Omega^{m-1}(L;Der))
    of total degree m.  Output: the degree m+1 pair.  Signs are the unique
    choice (up to global convention) making the square vanish; see
    docs/signs.md.
    """
    alg = conn.alg
    m = total_degree
    sign_rho = 1 if m % 2 == 0 else -1
    out_l = None
    out_der = None
    if part_l is not None:
        out_l = _koszul_differential(conn, part_l)
        rho_part = _anchor_post(part_l)
        if sign_rho == -1:
            rho_part = _AdCochain(alg, rho_part.degree, "der",
                                  {k: -v for k, v in rho_part.values.items()})
        out_der = rho_part
    if part_der is not None:
        k_part = _curvature_wedge(conn, part_der)
        if sign_rho == 1:
            k_part = _AdCochain(alg, k_part.degree, "l",
                                {k: -v for k, v in k_part.values.items()})
        out_l = _add_cochains(out_l, k_part)
        out_der = _add_cochains(out_der, _koszul_differential(conn, part_der))
    return out_l, out_der


def _add_cochains(a: _AdCochain | None, b: _AdCochain | None):
    if a is None:
        return b
    if b is None:
        return a
    values = dict(a.values)
    for idx, v in b.values.items():
        values[idx] = values[idx] + v if idx in values else v
    return _AdCochain(a.alg, a.degree, a.kind, values)


def ruth_check(conn: Connection, degree_cap: int = 3, seed: int = 0,
               samples: int = 4, max_total_degree: int = 2) -> CheckReport:
    """Exact check that the adjoint two-term structure operator squares to zero.

    Random cochain pairs with polynomial coefficients of degree <= degree_cap
    are pushed through the operator twice; every basis evaluation of the
    result must vanish identically.
    """
    import random as _random

    alg = conn.alg
    rng = _random.Random(seed)
    failures = []
    trials = 0

    def rand_poly():
        p = alg.zero_poly()
        for _ in range(rng.randint(1, 2)):
            exp = tuple(rng.randint(0, degree_cap) for _ in alg.vars)
            if sum(exp) > degree_cap:
                exp = tuple(0 for _ in alg.vars)
            p = p + Polynomial.monomial(alg.vars, exp, rng.choice([-2, -1, 1, 2]))
        return p

    def rand_l():
        return LElement(alg, tuple(rand_poly() for _ in range(alg.rank)))

    def rand_der():
        return PolyDerivation(alg.vars, [rand_poly() for _ in alg.vars])

    for m in range(0, max_total_degree + 1):
        for trial in range(samples):
            vals_l = {
                idx: rand_l() for idx in itertools.combinations(range(alg.rank), m)
            }
            part_l = _AdCochain(alg, m, "l", vals_l)
            part_der = None
            if m >= 1 and len(alg.vars) > 0:
                vals_d = {
                    idx: rand_der()
                    for idx in itertools.combinations(range(alg.rank), m - 1)
                }
                part_der = _AdCochain(alg, m - 1, "der", vals_d)
            l1, d1 = adjoint_operator(conn, part_l, part_der, m)
            l2, d2 = adjoint_operator(conn, l1, d1, m + 1)
            for c in (l2, d2):
                if c is None:
                    continue
                for idx, v in c.values.items():
                    if (isinstance(v, LElement) and not v.is_zero()) or (
                        isinstance(v, PolyDerivation) and not v.is_zero()
                    ):
                        failures.append(
                            f"square of the structure operator is nonzero at total degree {m}, "
                            f"trial {trial}, basis tuple {idx}: {v}"
                        )
                        if len(failures) >= 3:
                            return CheckReport(False, tuple(failures), trials)
            trials += 1
    return CheckReport(not failures, tuple(failures), trials)


# -- constructors ----------------------------------------------------------


def poly_divide_exact(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """f / g when g divides f exactly (graded-lex long division), else None."""
    if g.is_zero():
        return None
    vars = f.vars
    quot = Polynomial.zero(vars)
    rem = f

    def leading(p):
        return max(p.terms, key=lambda e: (sum(e), e))

    lg = leading(g)
    cg = g.terms[lg]
    while not rem.is_zero():
        lr = leading(rem)
        if any(a < b for a, b in zip(lr, lg)):
            return None
        exp = tuple(a - b for a, b in zip(lr, lg))
        c = Fraction(rem.terms[lr], cg)
        t = Polynomial.monomial(vars, exp, c)
        quot = quot + t
        rem = rem - t * g
    return quot


def from_vector_fields(
    vars: tuple[str, ...],
    fields: tuple[PolyDerivation, ...],
    basis_names: tuple[str, ...] | None = None,
    weights: dict[str, int] | None = None,
    name: str = "",
) -> LieRinehartAlgebra:
    """Presentation from R-independent vector fields closed under commutators.

    Structure functions are solved exactly (Cramer plus exact division over R);
    a commutator outside the R-span is rejected with a witness.
    """
    d = len(fields)
    n = len(vars)
    if basis_names is None:
        basis_names = tuple(f"v{k+1}" for k in range(d))
    # choose d rows of the n x d coefficient matrix with invertible determinant
    matrix = [[fields[k].images[u] for k in range(d)] for u in range(n)]
    best = None
    for rows in itertools.combinations(range(n), d):
        det = _poly_det([[matrix[u][k] for k in range(d)] for u in rows])
        if not det.is_zero():
            best = (rows, det)
            break
    if best is None:
        raise PresentationError("vector fields are not R-independent")
    rows, det = best

    def solve_in_span(target: PolyDerivation) -> tuple[Polynomial, ...] | None:
        sub = [[matrix[u][k] for k in range(d)] for u in rows]
        rhs = [target.images[u] for u in rows]
        coeffs = []
        for k in range(d):
            mk = [row[:k] + [rhs[t]] + row[k + 1:] for t, row in enumerate(sub)]
            q = poly_divide_exact(_poly_det(mk), det)
            if q is None:
                return None
            coeffs.append(q)
        # verify on every row, not only the chosen submatrix
        for u in range(n):
            acc = Polynomial.zero(vars)
            for k in range(d):
                acc = acc + coeffs[k] * matrix[u][k]
            if acc != target.images[u]:
                return None
        return tuple(coeffs)

    structure: dict[tuple[int, int], tuple[Polynomial, ...]] = {}
    for i, j in itertools.combinations(range(d), 2):
        comm = fields[i].commutator(fields[j])
        sol = solve_in_span(comm)
        if sol is None:
            raise PresentationError(
                f"commutator [{basis_names[i]}, {basis_names[j]}] = {comm} "
                "is not in the R-span of the fields"
            )
        structure[(i, j)] = sol
    return LieRinehartAlgebra(vars, basis_names, fields, structure, weights, name)


def _poly_det(m: list[list[Polynomial]]) -> Polynomial:
    d = len(m)
    if d == 0:
        raise ValueError("empty matrix")
    vars = m[0][0].vars
    out = Polynomial.zero(vars)
    for perm in itertools.permutations(range(d)):
        term = Polynomial.const(vars, perm_sign(perm))
        for i in range(d):
            term = term * m[i][perm[i]]
            if term.is_zero():
                break
        out = out + term
    return out


def from_action(
    vars: tuple[str, ...],
    basis_names: tuple[str, ...],
    lie_constants: dict[tuple[int, int], tuple[Fraction | int, ...]],
    action: tuple[PolyDerivation, ...],
    weights: dict[str, int] | None = None,
    name: str = "",
) -> LieRinehartAlgebra:
    """Free presentation R tensor g from a Lie algebra action by derivations.

    The action must realize the given structure constants exactly.
    """
    d = len(basis_names)
    consts = Polynomial.const(vars, 0)

    def cvec(i, j):
        if i == j:
            return tuple(consts for _ in range(d))
        if i < j:
            raw = lie_constants.get((i, j), (0,) * d)
            return tuple(Polynomial.const(vars, c) for c in raw)
        raw = lie_constants.get((j, i), (0,) * d)
        return tuple(Polynomial.const(vars, -c) for c in raw)

    for i, j in itertools.combinations(range(d), 2):
        comm = action[i].commutator(action[j])
        want = PolyDerivation.zero(vars)
        for k, c in enumerate(cvec(i, j)):
            want = want + action[k].scale_by(c)
        if comm != want:
            raise PresentationError(
                f"action matrices are not a Lie algebra morphism on "
                f"({basis_names[i]}, {basis_names[j]}): [..] = {comm}, expected {want}"
            )
    structure = {
        (i, j): cvec(i, j) for i, j in itertools.combinations(range(d), 2)
    }
    return LieRinehartAlgebra(vars, basis_names, action, structure, weights, name)
