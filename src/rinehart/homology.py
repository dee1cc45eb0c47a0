"""Kahler forms on the symbol algebra, the Poisson boundary, cyclic theory,
the duality cap, and the Euler contraction used for weight-zero directions."""
from __future__ import annotations

import itertools
from operator import add

from .lie_rinehart import CheckReport, LieRinehartAlgebra
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
from .poly import Polynomial, _integral_to_int, exponents, insert_leg


class KahlerForm(LegTensor):
    """Differential form: finite map (sorted d-gamma leg set) -> symbol."""

    __slots__ = ()
    leg_prefix = "d"

    @classmethod
    def from_flat(cls, parent: SymAlgebra, degree: int, flat: dict) -> "KahlerForm":
        """The form of a flat form {(legs, exp): coefficient} (the shape of
        `entries`; zeros are dropped).  The operators below are integer kernels
        on flat forms; a KahlerForm is built only for their callers."""
        by_legs: dict[Legs, dict] = {}
        for (legs, exp), c in flat.items():
            if c:
                by_legs.setdefault(legs, {})[exp] = c
        w = cls(parent, degree)
        w.terms = {legs: Polynomial._of(parent.vars, _integral_to_int(t))
                   for legs, t in by_legs.items()}
        return w


def _d(flat: dict) -> dict:
    """d on a flat form: x^exp dL goes to sum_a exp_a x^(exp - e_a) dx_a ^ dL."""
    out: dict = {}
    for (legs, exp), c in flat.items():
        for a, k in enumerate(exp):
            if k:
                new, sign = insert_leg(legs, a)
                if sign:
                    key = (new, exp[:a] + (k - 1,) + exp[a + 1:])
                    out[key] = out.get(key, 0) + sign * k * c
    return out


def _contract(P: SymAlgebra, flat: dict) -> dict:
    """i_pi on a flat form: only the pairs a < b at leg positions i < j of a
    term are visited; i_a i_b removes them with the sign (-1)^(i + j)."""
    out: dict = {}
    for (legs, exp), c in flat.items():
        for i, j in itertools.combinations(range(len(legs)), 2):
            coef = P._table[legs[i], legs[j]]
            if coef:
                rest = legs[:i] + legs[i + 1:j] + legs[j + 1:]
                c_ij = -c if (i + j) % 2 else c
                for e, v in coef.terms.items():
                    key = (rest, tuple(map(add, exp, e)))
                    out[key] = out.get(key, 0) + v * c_ij
    return out


def kahler_d(w: KahlerForm) -> KahlerForm:
    """Exterior derivative."""
    return KahlerForm.from_flat(w.parent, w.degree + 1, _d(dict(w.entries())))


def contract_bivector(w: KahlerForm) -> KahlerForm:
    """Contraction with the structure bivector: sum_{a<b} {g_a, g_b} i_a i_b,
    the two interior products applied innermost-leg-first (i_a after i_b)."""
    return KahlerForm.from_flat(w.parent, max(w.degree - 2, 0),
                                _contract(w.parent, dict(w.entries())))


def poisson_boundary(w: KahlerForm) -> KahlerForm:
    """The degree -1 boundary: commutator of contraction and d, i_pi d - d i_pi,
    which is zero on functions and i_pi d on 1-forms."""
    P, flat = w.parent, dict(w.entries())
    out = _contract(P, _d(flat))
    for key, c in _d(_contract(P, flat)).items():
        out[key] = out.get(key, 0) - c
    return KahlerForm.from_flat(P, max(w.degree - 1, 0), out)


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


def _slice_weights(P: SymAlgebra, max_weight: int, cap: int = 0) -> list[int]:
    """The weights lam, in increasing order, of the slices that hold a form of
    weight <= max_weight in a u-column j <= cap."""
    vw, wbr = P.weight_vector(), P.bracket_weight()
    return sorted({wt + (k + j) * wbr for j in range(cap + 1) for k in range(P.N + 1)
                   for legs in itertools.combinations(range(P.N), k)
                   for wt in range(sum(vw[a] for a in legs), max_weight + 1)})


def homology_slice(P: SymAlgebra, lam: int) -> ComplexSlice:
    """The boundary complex of slice lam as a cochain slice (positions are
    N - homological degree); each position is labelled by its basis keys."""
    bases = [_form_basis(P, lam, P.N - p) for p in range(P.N + 1)]
    diffs = [
        assemble(bases[p], lambda key: poisson_boundary(
            KahlerForm.basis_element(P, *key)).entries(), bases[p + 1])[0]
        for p in range(P.N)
    ]
    return ComplexSlice(bases, diffs, name=f"poisson-chain L={lam}")


def poisson_homology(alg: LieRinehartAlgebra, max_weight: int) -> dict[tuple[int, int], int]:
    """Exact boundary homology per (slice weight, homological degree)."""
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    if any(w <= 0 for w in vw):
        raise ValueError("poisson_homology needs positive weights")
    table: dict[tuple[int, int], int] = {}
    for lam in _slice_weights(P, max_weight):
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


def cyclic_slice(P: SymAlgebra, lam: int, u_cap: int, t_max: int,
                 images: dict) -> ComplexSlice:
    """Total complex of the u-truncated mixed complex in slice lam.

    Objects at total degree t are pairs (form of degree t - 2j, column j),
    differential (w, j) -> (boundary w, j) + (d w, j - 1).  `images` maps a
    basis form (legs, exp) to its boundary entries and is filled on first
    use: the boundary depends on neither j nor the slice.
    """
    def basis_at(t):
        out = []
        for j in range(0, u_cap + 1):
            k = t - 2 * j
            for legs, exp in _form_basis(P, lam, k, jweight=j):
                out.append((j, legs, exp))
        return sorted(out)

    bases = [basis_at(t_max - p) for p in range(t_max + 1)]

    def image(key):
        j, legs, exp = key
        if (legs, exp) not in images:
            w = KahlerForm.basis_element(P, legs, exp)
            images[legs, exp] = list(poisson_boundary(w).entries())
        for (tlegs, texp), c in images[legs, exp]:
            yield (j, tlegs, texp), c
        for (tlegs, texp), c in _d({(legs, exp): 1}).items() if j else ():
            yield (j - 1, tlegs, texp), c

    diffs = [assemble(bases[p], image, bases[p + 1])[0] for p in range(t_max)]
    return ComplexSlice(bases, diffs, name=f"cyclic L={lam} cap={u_cap}")


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
    images: dict = {}  # basis-form boundaries, shared by the two runs

    def run(cap):
        # slices carry all columns j <= cap; degrees above the complete range
        # t <= N + 2cap - 2 are truncation edge and not reported
        t_top = P.N + 2 * cap
        report = P.N + 2 * cap - 2
        table: dict[tuple[int, int], int] = {}
        for lam in _slice_weights(P, max_weight, cap):
            dims = cohomology_dims(cyclic_slice(P, lam, cap, t_top, images))
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

    Interior products are applied right to left along each leg set, each
    with the sign (-1)^t of its leg's position t; the image of the leg set S
    is +/- the complementary form, so no two terms meet.
    """
    P = D.parent
    out = KahlerForm(P, P.N - D.degree)
    for legs, c in D.terms.items():
        rest, sign = tuple(range(P.N)), 1
        for a in reversed(legs):
            t = rest.index(a)
            rest, sign = rest[:t] + rest[t + 1:], -sign if t % 2 else sign
        out.terms[rest] = c if sign == 1 else -c
    return out


def duality_cap_rank_check(alg: LieRinehartAlgebra, weight: int, degree: int) -> tuple[int, int]:
    """(rank, dimension) of the cap on one cochain weight slice."""
    P = SymAlgebra(alg)
    basis = _slice_basis(P, weight, degree)
    m, _ = assemble(basis, lambda key: duality_cap(Multivector.basis_element(P, *key)).entries())
    return rank(m), len(basis)


# -- Euler contraction ----------------------------------------------------------


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
) -> CheckReport:
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
        return CheckReport(False, (str(exc),), 0)
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
                        return CheckReport(False, tuple(failures), checked)
                checked += 1
    return CheckReport(not failures, tuple(failures), checked)


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
