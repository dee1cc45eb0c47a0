"""Kahler forms on the symbol algebra, the Poisson boundary, cyclic theory,
the duality cap, and the Euler contraction used for weight-zero directions."""
from __future__ import annotations

import itertools

from .lie_rinehart import CheckReport, LieRinehartAlgebra
from .linalg import (ComplexSlice, SparseMatrixQ, assemble, assemble_slice, cohomology_dims,
                     kernel_and_rank, rank)
from .poisson import (
    Legs,
    LegTensor,
    Multivector,
    SymAlgebra,
    _apply_plan,
    _contract_plan,
    _lowered,
    poisson_differential,
)
from .poly import Polynomial, _cleaned, exponents, insert_leg, leg_basis


class KahlerForm(LegTensor):
    """Differential form: finite map (sorted d-gamma leg set) -> symbol."""

    __slots__ = ()
    leg_prefix = "d"


def poisson_boundary(w: KahlerForm) -> KahlerForm:
    """The degree -1 Koszul-Brylinski boundary, contract(d w) - d(contract w),
    in one pass (docs/signs.md), run through `poisson._apply_plan` with the
    plan of `_boundary_plan`; zero on functions."""
    return KahlerForm.from_flat(w.parent, max(w.degree - 1, 0), _apply_plan(
        w.parent._plans, _boundary_plan, w.flat, w.parent))


def _boundary_plan(P: SymAlgebra, legs: Legs) -> tuple[list, dict]:
    """The rows of `poisson_boundary` on the leg set L: a term c x^e dx_L
    gives -(-1)^i c {x^e, x_L_i} on L without L_i, with {x^e, x_a} =
    sum_b e_b x^(e - e_b) {x_b, x_a}, and -(-1)^(i+j) c x^e d{x_L_i, x_L_j}
    wedged onto L without L_i, L_j, for 0-based positions i < j."""
    by_b: dict = {}
    for i, a in enumerate(legs):
        rest, s = legs[:i] + legs[i + 1:], 1 if i % 2 else -1
        for b, terms in P._acting[a]:
            by_b.setdefault(b, []).extend((rest, shift, s * v) for shift, v in terms)
    fixed: dict = {}
    for i, j in itertools.combinations(range(len(legs)), 2):
        for m, u, v in P._d_table.get((legs[i], legs[j]), ()):
            new, sign = insert_leg(legs[:i] + legs[i + 1:j] + legs[j + 1:], m)
            if sign:
                fixed[new, u] = fixed.get((new, u), 0) + (sign if (i + j) % 2 else -sign) * v
    return sorted(by_b.items()), _cleaned(fixed)


def _d_plan(P: SymAlgebra, legs: Legs) -> tuple[list, dict]:
    """The rows of the exterior derivative d on the leg set L, which `cyclic`
    runs: x^e dx_L goes to sum_a e_a x^(e - e_a) dx_a ^ dx_L, so the row
    (L + a, -e_a, s) under a for each x_a that `insert_leg` wedges onto L
    with the sign s."""
    zero = (0,) * P.N
    return [(a, [(new, _lowered(zero, a), sign)]) for a in range(P.N)
            for new, sign in [insert_leg(legs, a)] if sign], {}


# -- weight slices -----------------------------------------------------------


def _form_basis(P: SymAlgebra, lam: int, k: int) -> list[tuple[Legs, tuple[int, ...]]]:
    """Forms of homological degree k in the slice lam: on the legs L, the
    coefficient has weight lam - k*wbr - the weights of L."""
    vw = P.weight_vector()
    return leg_basis([-w for w in vw], vw, k, lam - k * P.bracket_weight())


def _slice_weights(P: SymAlgebra, max_weight: int, cap: int = 0) -> list[int]:
    """The weights lam, in increasing order, of the slices that hold a form of
    weight <= max_weight in a u-column j <= cap."""
    vw, wbr = P.weight_vector(), P.bracket_weight()
    return sorted({wt + (k + j) * wbr for j in range(cap + 1) for k in range(P.N + 1)
                   for legs in itertools.combinations(range(P.N), k)
                   for wt in range(sum(vw[a] for a in legs), max_weight + 1)})


def homology_slice(P: SymAlgebra, lam: int) -> ComplexSlice:
    """The boundary complex of slice lam as a cochain slice (positions are
    N - homological degree), its columns the `_boundary_plan` images of the
    basis forms."""
    bases = [_form_basis(P, lam, P.N - p) for p in range(P.N + 1)]
    return assemble_slice(bases, lambda key: _apply_plan(P._plans, _boundary_plan, {key: 1},
                                                         P).items())


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


class _MixedBlocks:
    """The blocks of the mixed complex (b, d) on the forms of one symbol
    algebra, each built on first use.  With B(mu, k) = `_form_basis(P, mu, k)`,
    the boundary block b(mu, k): B(mu, k) -> B(mu, k - 1) and the de Rham block
    d(mu, k): B(mu, k) -> B(mu + wbr, k + 1) hold one column
    [(row index, coefficient), ...] per basis form; neither depends on the
    slice or the u-column that it is placed in."""

    def __init__(self, P: SymAlgebra):
        self.P = P
        self.wbr = P.bracket_weight()
        self._bases: dict = {}
        self._blocks: dict = {}

    def basis(self, mu: int, k: int) -> tuple[list, dict]:
        """B(mu, k) and the row index of each of its forms."""
        if (mu, k) not in self._bases:
            basis = _form_basis(self.P, mu, k)
            self._bases[mu, k] = basis, {form: i for i, form in enumerate(basis)}
        return self._bases[mu, k]

    def block(self, op: str, mu: int, k: int) -> list[list[tuple[int, object]]]:
        """b(mu, k) when op is "b", d(mu, k) when it is "d"."""
        if (op, mu, k) not in self._blocks:
            if op == "b":
                row_of = self.basis(mu, k - 1)[1]
                image = lambda form: poisson_boundary(
                    KahlerForm.basis_element(self.P, *form)).entries()
            else:
                row_of = self.basis(mu + self.wbr, k + 1)[1]
                image = lambda form: _apply_plan(self.P._plans, _d_plan, {form: 1},
                                                 self.P).items()
            self._blocks[op, mu, k] = [[(row_of[key], c) for key, c in image(form)]
                                       for form in self.basis(mu, k)[0]]
        return self._blocks[op, mu, k]


def cyclic_slice(blocks: _MixedBlocks, lam: int, u_cap: int, t_max: int) -> ComplexSlice:
    """Total complex of the u-truncated mixed complex in slice lam.

    Objects at total degree t are pairs (form of degree t - 2j, column j),
    ordered by column and then by form: column j of degree t is
    B(lam - j*wbr, t - 2j).  The differential (w, j) -> (b w, j) + (d w, j - 1)
    places b(mu, k) on the column's own rows and d(mu, k) on the rows of
    column j - 1.  Neither raises j, so the columns j < u_cap lead every
    position and span the u_cap - 1 truncation, the slice's `leading`
    subcomplex.
    """
    N = blocks.P.N

    def columns(t):
        """(j, mu, k, offset) per column present at degree t, and the size."""
        out, size = [], 0
        for j in range(u_cap + 1):
            k, mu = t - 2 * j, lam - j * blocks.wbr
            if 0 <= k <= N:
                out.append((j, mu, k, size))
                size += len(blocks.basis(mu, k)[0])
        return out, size

    layout = [columns(t_max - p) for p in range(t_max + 1)]
    # the columns j < u_cap come first: their size is the offset of column u_cap
    leading = [next((at for j, _, _, at in cols if j == u_cap), size) for cols, size in layout]
    diffs = []
    for (src, ncols), (tgt, nrows) in zip(layout, layout[1:]):
        row_at = {j: at for j, _, _, at in tgt}
        m = SparseMatrixQ(nrows, ncols)
        for j, mu, k, col in src:
            # b keeps the column and d lowers it; a block is built only when
            # its target column is present (b(mu, 0) has no rows to go to)
            for op, row in (("b", row_at.get(j)), ("d", row_at.get(j - 1))):
                if row is None:
                    continue
                for s, image in enumerate(blocks.block(op, mu, k), col):
                    for i, c in image:  # block entries are nonzero, ints when integral
                        m.rows[row + i][s] = c
        diffs.append(m)
    return ComplexSlice([size for _, size in layout], diffs, leading=leading)


def cyclic_homology(
    alg: LieRinehartAlgebra, max_weight: int, u_cap: int
) -> tuple[dict[tuple[int, int], int], bool]:
    """Cyclic dimensions per (slice weight, total degree) plus a flag that the
    truncation column made no difference against u_cap - 1.

    The u_cap - 1 table is that of each slice's leading subcomplex, from the
    same elimination, on the slices that the u_cap - 1 truncation has."""
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    if any(w <= 0 for w in vw):
        raise ValueError("cyclic_homology needs positive weights")
    if u_cap < 2:
        raise ValueError("u_cap must be at least 2 to detect stabilization")
    blocks = _MixedBlocks(P)
    # slices carry all columns j <= cap; degrees above the complete range
    # t <= N + 2cap - 2 are truncation edge and not reported
    t_top = P.N + 2 * u_cap
    report, small_report = t_top - 2, t_top - 4
    small_weights = set(_slice_weights(P, max_weight, u_cap - 1))
    full: dict[tuple[int, int], int] = {}
    smaller: dict[tuple[int, int], int] = {}
    for lam in _slice_weights(P, max_weight, u_cap):
        dims, leading = cohomology_dims(cyclic_slice(blocks, lam, u_cap, t_top))
        for p, (dim, lead) in enumerate(zip(dims, leading)):
            t = t_top - p
            if dim and t <= report:
                full[(lam, t)] = dim
            if lead and t <= small_report and lam in small_weights:
                smaller[(lam, t)] = lead
    stabilized = smaller == {key: dim for key, dim in full.items() if key[1] <= small_report}
    return full, stabilized


# -- duality cap ---------------------------------------------------------------


def duality_cap(D: Multivector) -> KahlerForm:
    """Contract a multivector into the coordinate top form.

    Interior products are applied right to left along each leg set, each
    with the sign (-1)^t of its leg's position t; the image of the leg set S
    is +/- the complementary form, so no two terms meet.
    """
    P, flat = D.parent, {}
    for (legs, exp), c in D.flat.items():
        rest, sign = tuple(range(P.N)), 1
        for a in reversed(legs):
            t = rest.index(a)
            rest, sign = rest[:t] + rest[t + 1:], -sign if t % 2 else sign
        flat[rest, exp] = c if sign == 1 else -c
    return KahlerForm._of(P, P.N - D.degree, flat)


def duality_cap_rank_check(alg: LieRinehartAlgebra, weight: int, degree: int) -> tuple[int, int]:
    """(rank, dimension) of the cap on one cochain weight slice."""
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    basis = leg_basis(vw, vw, degree, weight + degree * P.bracket_weight())
    m, _ = assemble(basis, lambda key: duality_cap(Multivector.basis_element(P, *key)).entries())
    return rank(m), len(basis)


# -- Euler contraction ----------------------------------------------------------


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


def _label(P: SymAlgebra, legs: Legs, exp: tuple[int, ...]) -> str:
    mono = "*".join(
        f"{v}^{e}" if e > 1 else v for v, e in zip(P.vars, exp) if e
    ) or "1"
    legstr = "^".join(f"d{P.vars[a]}" for a in legs) or "1"
    return f"{mono}|{legstr}"


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

    delta runs once per unit term (legs, exp) that the call meets, and
    delta(s0 D) is the combination of the images of the terms of s0 D; the
    memo holds the images of two leg counts at a time.  Both contractions
    read one memo of `_contract_plan` rows; both memos die with the call.
    """
    P = SymAlgebra(alg)
    vw = P.weight_vector()
    if isinstance(euler, str):
        euler = P.poly(euler)
    try:
        eigws = _euler_eigenweights(P, euler)
    except ValueError as exc:
        return CheckReport(False, (str(exc),), 0)
    dE = [euler.partial(a).terms for a in range(P.N)]  # i_E contracts with dE
    plans: dict = {}
    failures = []
    checked = 0
    images: dict = {}  # delta of each unit term (legs, exp) met in this call

    def delta(key):
        if key not in images:
            images[key] = poisson_differential(Multivector.basis_element(P, *key))
        return images[key]

    for k in range(0, min(max_degree, P.N) + 1):
        # the terms of i_E D have k - 1 legs: no lower image is asked for again
        images = {key: im for key, im in images.items() if len(key[0]) >= k - 1}
        for legs in itertools.combinations(range(P.N), k):
            legw = sum(vw[a] for a in legs)
            for exp in exponents(vw, max_weight + legw, cap=euler_degree_cap):
                wt = sum(e * w for e, w in zip(exp, vw)) - legw
                if wt > max_weight or wt < -max_weight:
                    continue
                eig = sum(e * w for e, w in zip(exp, eigws)) - sum(eigws[a] for a in legs)
                # delta(i_E D) + i_E(delta D) - eig * D, summed in one dict
                acc: dict = {(legs, exp): -eig}
                for key, c in _apply_plan(plans, _contract_plan, {(legs, exp): 1}, dE).items():
                    for term, v in delta(key).entries():
                        acc[term] = acc.get(term, 0) + c * v
                for term, v in _apply_plan(plans, _contract_plan, delta((legs, exp)).flat,
                                           dE).items():
                    acc[term] = acc.get(term, 0) + v
                if any(acc.values()):
                    failures.append(
                        f"anticommutator is not weight*id on {_label(P, legs, exp)} "
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
