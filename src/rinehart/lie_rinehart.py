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
import random
from fractions import Fraction
from typing import NamedTuple

from .poly import Polynomial, PolyDerivation


class PresentationError(ValueError):
    pass


class CheckReport(NamedTuple):
    """Outcome of an exact check: pass/fail, the witnesses of the failures,
    and how many trials (sampled inputs or basis points) were checked; 0 for
    the exhaustive axiom check, which does not count."""

    ok: bool
    failures: tuple[str, ...]
    trials: int = 0

    def __bool__(self):
        return self.ok


def seeded_check(samples: int, seed: int, trial) -> CheckReport:
    """Run trial(rng, t) for t < samples on one random.Random(seed) stream;
    each trial returns one text per failed identity.  The report stops at the
    first failing trial and prefixes its texts with `trial t, seed=S: `, so
    that the same seed with samples = t + 1 replays the failure."""
    rng = random.Random(seed)
    for t in range(samples):
        failures = tuple(f"trial {t}, seed={seed}: {text}" for text in trial(rng, t))
        if failures:
            return CheckReport(False, failures, t + 1)
    return CheckReport(True, (), samples)


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
        # the full antisymmetric table: a key (i, j) with i > j is the
        # bracket [e_i, e_j], mirrored to (j, i) with negated coefficients
        self._brackets: dict[tuple[int, int], tuple[Polynomial, ...]] = {}
        zero = Polynomial.zero(self.vars)
        for (i, j), cs in structure.items():
            if i == j and any(c for c in cs):
                raise PresentationError(f"nonzero bracket [{i},{i}] violates antisymmetry")
            if not (0 <= i < self.rank and 0 <= j < self.rank):
                raise PresentationError(f"bracket key {(i, j)} out of range")
            if len(cs) != self.rank:
                raise PresentationError("structure vector has wrong length")
            for key, value in (((i, j), tuple(cs)), ((j, i), tuple(-c for c in cs))):
                if self._brackets.setdefault(key, value) != value:
                    raise PresentationError(f"bracket [{i},{j}] conflicts with its mirror [{j},{i}]")
        # the nonzero brackets with i < j, in the order first given
        self.structure = {key: cs for key, cs in self._brackets.items()
                          if key[0] < key[1] and any(c for c in cs)}
        self.weights = dict(weights) if weights is not None else None
        if self.weights is not None:
            missing = [n for n in self.vars + self.basis if n not in self.weights]
            if missing:
                raise PresentationError(f"weights missing for {missing}")
        self.name = name
        self._zero = zero
        self._zeros = (zero,) * self.rank

    # -- ring helpers ----------------------------------------------------

    def zero_poly(self) -> Polynomial:
        return self._zero

    def coordinate_field(self, name: str) -> PolyDerivation:
        return PolyDerivation.coordinate(self.vars, name)

    # -- module elements ---------------------------------------------------

    def element(self, coeffs) -> "LElement":
        cs = tuple(coeffs)
        if len(cs) != self.rank:
            raise PresentationError("coefficient vector has wrong length")
        return LElement(self, cs)

    def basis_element(self, k: int) -> "LElement":
        return LElement(
            self,
            tuple(
                Polynomial.const(self.vars, 1 if i == k else 0)
                for i in range(self.rank)
            ),
        )

    def zero_element(self) -> "LElement":
        return LElement(self, self._zeros)

    def structure_vector(self, i: int, j: int) -> tuple[Polynomial, ...]:
        return self._brackets.get((i, j), self._zeros)

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

    def weight_pieces(self) -> list[tuple[str, Polynomial, int]]:
        """(label, p, w) per nonzero anchor image, then per nonzero structure
        function p: p has the weight w plus the bracket weight."""
        vw, gw = self.var_weights(), self.generator_weight
        return [(f"anchor image rho({self.basis[k]})({self.vars[u]})", im, vw[u] + gw(k))
                for k, d in enumerate(self.anchor) for u, im in enumerate(d.images) if im] + [
            (f"structure function c[{self.basis[i]},{self.basis[j]}]^{self.basis[k]}", c,
             gw(i) + gw(j) - gw(k))
            for (i, j), cs in self.structure.items() for k, c in enumerate(cs) if c]

    def bracket_weight(self) -> int:
        """The common shift of the bracket/anchor on weights (checked by
        axioms), read off the first weight piece; a ValueError names that
        piece when it is not weight homogeneous."""
        if self.weights is None:
            raise PresentationError("no weights declared")
        pieces, vw = self.weight_pieces(), self.var_weights()
        if not pieces:
            return 0
        label, p, w = pieces[0]
        if not p.is_weight_homogeneous(vw):
            raise ValueError(f"{label} = {p} is not weight homogeneous")
        return p.weight(vw) - w


class LElement:
    """Element sum_k f_k e_k of the free module, coefficients in R."""

    __slots__ = ("algebra", "coeffs", "_rho")

    def __init__(self, algebra: LieRinehartAlgebra, coeffs: tuple[Polynomial, ...]):
        self.algebra = algebra
        self.coeffs = coeffs
        self._rho: PolyDerivation | None = None

    def __add__(self, other: "LElement") -> "LElement":
        return LElement(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LElement") -> "LElement":
        return LElement(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LElement":
        return LElement(self.algebra, tuple(-a for a in self.coeffs))

    def scale(self, f) -> "LElement":
        if isinstance(f, Polynomial):
            zero = self.algebra.zero_poly()
            return LElement(self.algebra, tuple(f * a if f and a else zero for a in self.coeffs))
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
        """rho(self) as a derivation of R, built once: x_u goes to sum_k f_k rho_k(x_u)."""
        if self._rho is None:
            alg = self.algebra
            images = [alg.zero_poly()] * len(alg.vars)
            for f, rho in zip(self.coeffs, alg.anchor):
                if f:
                    for u, im in enumerate(rho.images):
                        if im:
                            images[u] = images[u] + f * im
            self._rho = PolyDerivation(alg.vars, images)
        return self._rho

    def __repr__(self):
        parts = [
            f"({c})*{name}"
            for c, name in zip(self.coeffs, self.algebra.basis)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def bracket_extend(a: LElement, b: LElement) -> LElement:
    """[a, b] by bilinear extension with the Leibniz anchor corrections, slot
    by slot: coefficient k is rho(a)(g_k) - rho(b)(f_k) + sum_ij f_i g_j c_ij^k
    for a = sum f_i e_i and b = sum g_j e_j."""
    alg = a.algebra
    if alg is not b.algebra:
        raise PresentationError("elements of different presentations")
    rho_a, rho_b = a.anchor_derivation(), b.anchor_derivation()
    out = [rho_a(g) - rho_b(f) for f, g in zip(a.coeffs, b.coeffs)]
    for (i, j), cs in alg._brackets.items():
        f, g = a.coeffs[i], b.coeffs[j]
        if f and g:
            fg = f * g
            for k, c in enumerate(cs):
                if c:
                    out[k] = out[k] + fg * c
    return LElement(alg, tuple(out))


def check_axioms(alg: LieRinehartAlgebra) -> CheckReport:
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
            if len(failures) >= 3:
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
            if len(failures) >= 3:
                return CheckReport(False, tuple(failures))

    if alg.weights is not None:
        vw = alg.var_weights()
        try:
            shift = alg.bracket_weight()
        except ValueError as exc:
            # the piece the shift is read off has no weight: nothing to
            # check the other pieces against
            record(str(exc))
            return CheckReport(False, tuple(failures))
        for label, p, w in alg.weight_pieces():
            if not p.is_weight_homogeneous(vw) or p.weight(vw) != w + shift:
                record(f"{label} = {p} is not homogeneous of weight {w + shift}")

    return CheckReport(not failures, tuple(failures))


# -- connections -----------------------------------------------------------


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
        if any(Y.algebra is not alg for row in table for Y in row):
            raise PresentationError("connection table entry of another presentation")
        self.table = table

    def nabla(self, D: PolyDerivation, Y: LElement) -> LElement:
        """nabla_D(Y): R-linear in D, Leibniz in Y, slot by slot: coefficient k
        is D(g_k) + sum_{u,j} g_j D(x_u) Gamma[u][j]_k for Y = sum g_j e_j and
        Gamma[u][j] = nabla_{d/dx_u}(e_j)."""
        out = [D(g) for g in Y.coeffs]
        for du, row in zip(D.images, self.table):
            for g, gamma in zip(Y.coeffs, row):
                if du and g and not gamma.is_zero():
                    h = g * du
                    for k, c in enumerate(gamma.coeffs):
                        if c:
                            out[k] = out[k] + h * c
        return LElement(self.alg, tuple(out))

    def basic_l(self, X: LElement, Y: LElement) -> LElement:
        """The induced connection on L along X, applied to Y."""
        return self.nabla(Y.anchor_derivation(), X) + bracket_extend(X, Y)

    def basic_der(self, X: LElement, D: PolyDerivation) -> PolyDerivation:
        """The induced connection on derivations along X, applied to D."""
        return self.nabla(D, X).anchor_derivation() + X.anchor_derivation().commutator(D)

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


# -- constructors ----------------------------------------------------------


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
    structure = {key: tuple(Polynomial.const(vars, c) for c in cs)
                 for key, cs in lie_constants.items()}
    alg = LieRinehartAlgebra(vars, basis_names, action, structure, weights, name)
    for i, j in itertools.combinations(range(alg.rank), 2):
        comm = action[i].commutator(action[j])
        want = alg.basis_bracket(i, j).anchor_derivation()
        if comm != want:
            raise PresentationError(
                f"action matrices are not a Lie algebra morphism on "
                f"({basis_names[i]}, {basis_names[j]}): [..] = {comm}, expected {want}"
            )
    return alg
