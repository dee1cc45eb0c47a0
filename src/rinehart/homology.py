"""Kahler forms on the symbol algebra, the Poisson boundary, cyclic theory,
the duality cap, and the Euler contraction used for weight-zero directions."""
from __future__ import annotations

import itertools

from .lie_rinehart import LieRinehartAlgebra
from .linalg import ComplexSlice, assemble, cohomology_dims, kernel_and_rank, rank
from .poisson import (
    Legs,
    LegTensor,
    Multivector,
    SymAlgebra,
    _label,
    _slice_basis,
    poisson_differential,
)
from .poly import Polynomial, exponents, insert_leg


class KahlerForm(LegTensor):
    """Differential form: finite map (sorted d-gamma leg set) -> symbol."""

    __slots__ = ()
    leg_prefix = "d"


def kahler_d(w: KahlerForm) -> KahlerForm:
    """Exterior derivative."""
    P = w.parent

    def pieces():
        for legs, c in w.terms.items():
            for a in range(P.N):
                new, sign = insert_leg(legs, a)
                if sign and (dc := c.partial(a)):
                    yield new, dc if sign == 1 else -dc

    return KahlerForm.summed(P, w.degree + 1, pieces())


def interior(a: int, w: KahlerForm) -> KahlerForm:
    """Interior product with the coordinate vector field of index a.  Distinct
    leg sets stay distinct without a, so no two terms meet."""
    out = KahlerForm(w.parent, max(w.degree - 1, 0))
    for legs, c in w.terms.items():
        if a in legs:
            t = legs.index(a)
            out.terms[legs[:t] + legs[t + 1:]] = c if t % 2 == 0 else -c
    return out


def contract_bivector(w: KahlerForm) -> KahlerForm:
    """Contraction with the structure bivector: sum_{a<b} {g_a, g_b} i_a i_b.

    The two interior products are applied innermost-leg-first (i_a after i_b).
    """
    P = w.parent
    if w.degree < 2:
        return KahlerForm(P, max(w.degree - 2, 0))
    out = KahlerForm(P, w.degree - 2)
    for (a, b), coef in P._table.items():
        if coef.is_zero():
            continue
        piece = interior(a, interior(b, w)).scale(coef)
        if not piece.is_zero():
            out = out + piece
    return out


def poisson_boundary(w: KahlerForm) -> KahlerForm:
    """The degree -1 boundary: commutator of contraction and d."""
    P = w.parent
    if w.degree == 0:
        return KahlerForm(P, 0)
    if w.degree == 1:
        return contract_bivector(kahler_d(w))
    return contract_bivector(kahler_d(w)) - kahler_d(contract_bivector(w))


# -- weight slices -----------------------------------------------------------


def _form_basis(P: SymAlgebra, lam: int, k: int, jweight: int = 0) -> list[tuple[Legs, tuple[int, ...]]]:
    """Forms of homological degree k in the slice lam (offset by u-columns)."""
    vw = P.weight_vector()
    wbr = P.bracket_weight()
    out = []
    if not 0 <= k <= P.N:
        return out
    for legs in itertools.combinations(range(P.N), k):
        need = lam - (k + jweight) * wbr - sum(vw[a] for a in legs)
        for exp in P.monomials_of_weight(need):
            out.append((legs, exp))
    out.sort()
    return out


def homology_slice(P: SymAlgebra, lam: int) -> ComplexSlice:
    """The boundary complex of slice lam as a cochain slice (positions are
    N - homological degree)."""
    bases = [_form_basis(P, lam, P.N - p) for p in range(P.N + 1)]
    labels = [[_label(P, legs, exp, "d") for legs, exp in b] for b in bases]
    diffs = [
        assemble(bases[p], lambda key: poisson_boundary(
            KahlerForm.basis_element(P, *key)).entries(), bases[p + 1])[0]
        for p in range(P.N)
    ]
    return ComplexSlice(labels, diffs, name=f"poisson-chain L={lam}")


def poisson_homology(alg: LieRinehartAlgebra, max_weight: int) -> dict[tuple[int, int], int]:
    """Exact boundary homology per (slice weight, homological degree)."""
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    if any(w <= 0 for w in vw):
        raise ValueError("poisson_homology needs positive weights")
    wbr = P.bracket_weight()
    lams = set()
    for k in range(P.N + 1):
        for legs in itertools.combinations(range(P.N), k):
            base = sum(vw[a] for a in legs)
            for wt in range(base, max_weight + 1):
                lams.add(wt + k * wbr)
    table: dict[tuple[int, int], int] = {}
    for lam in sorted(lams):
        dims = cohomology_dims(homology_slice(P, lam))
        for p, dim in enumerate(dims):
            k = P.N - p
            table[(lam, k)] = table.get((lam, k), 0) + dim
    return table


def homology_totals(table: dict[tuple[int, int], int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for (_, k), dim in table.items():
        out[k] = out.get(k, 0) + dim
    return out


# -- cyclic -------------------------------------------------------------------


def cyclic_slice(P: SymAlgebra, lam: int, u_cap: int, t_max: int) -> ComplexSlice:
    """Total complex of the u-truncated mixed complex in slice lam.

    Objects at total degree t are pairs (form of degree t - 2j, column j),
    differential (w, j) -> (boundary w, j) + (d w, j - 1).
    """
    def basis_at(t):
        out = []
        for j in range(0, u_cap + 1):
            k = t - 2 * j
            for legs, exp in _form_basis(P, lam, k, jweight=j):
                out.append((j, legs, exp))
        return sorted(out)

    bases = [basis_at(t_max - p) for p in range(t_max + 1)]
    labels = [
        [f"u^{j}*{_label(P, legs, exp, 'd')}" for j, legs, exp in b] for b in bases
    ]

    def image(key):
        j, legs, exp = key
        w = KahlerForm.basis_element(P, legs, exp)
        for (tlegs, texp), c in poisson_boundary(w).entries():
            yield (j, tlegs, texp), c
        if j:
            for (tlegs, texp), c in kahler_d(w).entries():
                yield (j - 1, tlegs, texp), c

    diffs = [assemble(bases[p], image, bases[p + 1])[0] for p in range(t_max)]
    return ComplexSlice(labels, diffs, name=f"cyclic L={lam} cap={u_cap}")


def cyclic_homology(
    alg: LieRinehartAlgebra, max_weight: int, u_cap: int
) -> tuple[dict[tuple[int, int], int], bool]:
    """Cyclic dimensions per (slice weight, total degree) plus a flag that the
    truncation column made no difference against u_cap - 1."""
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    if any(w <= 0 for w in vw):
        raise ValueError("cyclic_homology needs positive weights")
    if u_cap < 2:
        raise ValueError("u_cap must be at least 2 to detect stabilization")
    wbr = P.bracket_weight()

    def run(cap):
        # slices carry all columns j <= cap; degrees above the complete range
        # t <= N + 2cap - 2 are truncation edge and not reported
        t_top = P.N + 2 * cap
        report = P.N + 2 * cap - 2
        lams = set()
        for j in range(cap + 1):
            for k in range(P.N + 1):
                for legs in itertools.combinations(range(P.N), k):
                    base = sum(vw[a] for a in legs)
                    for wt in range(base, max_weight + 1):
                        lams.add(wt + (k + j) * wbr)
        table: dict[tuple[int, int], int] = {}
        for lam in sorted(lams):
            dims = cohomology_dims(cyclic_slice(P, lam, cap, t_top))
            for p, dim in enumerate(dims):
                t = t_top - p
                if dim and t <= report:
                    table[(lam, t)] = table.get((lam, t), 0) + dim
        return table, report

    full, full_report = run(u_cap)
    smaller, small_report = run(u_cap - 1)
    stabilized = all(
        full.get((lam, t), 0) == smaller.get((lam, t), 0)
        for lam, t in set(full) | set(smaller)
        if t <= small_report
    )
    return full, stabilized


# -- duality cap ---------------------------------------------------------------


def duality_cap(D: Multivector) -> KahlerForm:
    """Contract a multivector into the coordinate top form.

    Interior products are applied right to left along each leg set; the image
    of the leg set S is +/- the complementary form.
    """
    P = D.parent
    out = KahlerForm(P, P.N - D.degree)
    top_legs = tuple(range(P.N))
    for legs, c in D.terms.items():
        w = KahlerForm(P, P.N, {top_legs: c})
        for a in reversed(legs):
            w = interior(a, w)
        out = out + KahlerForm(P, P.N - D.degree, w.terms)
    return out


def duality_cap_rank_check(alg: LieRinehartAlgebra, weight: int, degree: int) -> tuple[int, int]:
    """(rank, dimension) of the cap on one cochain weight slice."""
    P = SymAlgebra(alg)
    basis = _slice_basis(P, weight, degree)
    m, _ = assemble(basis, lambda key: duality_cap(Multivector.basis_element(P, *key)).entries())
    return rank(m), len(basis)


# -- Euler contraction ----------------------------------------------------------


class EulerReport:
    def __init__(self, ok: bool, failures: list[str], checked: int):
        self.ok = ok
        self.failures = failures
        self.checked = checked

    def __bool__(self):
        return self.ok


def euler_insertion(D: Multivector, euler: Polynomial) -> Multivector:
    """Insert the Euler element into the first slot of a multivector."""
    return D.interior(euler)


def _euler_eigenweights(P: SymAlgebra, euler: Polynomial):
    """Eigenvalues of {euler, -} on the coordinates; the element must act
    diagonally for the contraction identity to make sense."""
    out = []
    for a in range(P.N):
        b = -P.coordinate_action(a, euler)
        if b.is_zero():
            out.append(0)
            continue
        coords = P.coordinate(a)
        exp = next(iter(coords.terms))
        if set(b.terms) != {exp}:
            raise ValueError(
                f"{{euler, {P.vars[a]}}} = {b} is not a multiple of {P.vars[a]}"
            )
        out.append(b.terms[exp])
    return out


def euler_contraction_check(
    alg: LieRinehartAlgebra,
    euler: str | Polynomial,
    max_weight: int,
    max_degree: int,
    euler_degree_cap: int = 2,
) -> EulerReport:
    """Check that inserting the Euler element splits the differential:
    delta(s0 D) + s0(delta D) = weight(D) * D on every basis multivector.

    The weight of a term is taken in the grading generated by the Euler
    element itself; for the arrangement presets that is the declared one.
    An element that does not act diagonally on the coordinates fails the
    check, with the coordinate it moves as the witness.
    """
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    if isinstance(euler, str):
        euler = P.poly(euler)
    try:
        eigws = _euler_eigenweights(P, euler)
    except ValueError as exc:
        return EulerReport(False, [str(exc)], 0)
    failures = []
    checked = 0

    for k in range(0, min(max_degree, P.N) + 1):
        for legs in itertools.combinations(range(P.N), k):
            legw = sum(vw[a] for a in legs)
            for exp in exponents(vw, max_weight + legw, cap=euler_degree_cap):
                wt = sum(e * w for e, w in zip(exp, vw)) - legw
                if wt > max_weight or wt < -max_weight:
                    continue
                eig = sum(e * w for e, w in zip(exp, eigws)) - sum(eigws[a] for a in legs)
                D = Multivector.basis_element(P, legs, exp)
                lhs = poisson_differential(euler_insertion(D, euler)) + euler_insertion(
                    poisson_differential(D), euler
                )
                rhs = D.scale(eig)
                if not (lhs - rhs).is_zero():
                    failures.append(
                        f"anticommutator is not weight*id on {_label(P, legs, exp, 'd')} "
                        f"(weight {eig})"
                    )
                    if len(failures) >= 3:
                        return EulerReport(False, failures, checked)
                checked += 1
    return EulerReport(not failures, failures, checked)


def capped_casimir_search(
    alg: LieRinehartAlgebra,
    max_weight: int,
    euler_degree_cap: int = 4,
) -> list[Polynomial]:
    """Exact kernel of the differential on functions, within the caps.

    Weight-zero variables (the Euler direction) are capped separately by
    exponent; everything else by weight.
    """
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    monos = exponents(vw, max_weight, cap=euler_degree_cap)
    m, _ = assemble(
        monos, lambda exp: poisson_differential(Multivector.basis_element(P, (), exp)).entries()
    )
    kernel, _ = kernel_and_rank(m)
    out = []
    for vec in kernel:
        p = Polynomial.zero(P.vars)
        for j, c in enumerate(vec):
            if c:
                p = p + Polynomial.monomial(P.vars, monos[j], c)
        out.append(p)
    return out
