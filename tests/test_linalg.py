import copy
import random

import pytest
from fractions import Fraction

from rinehart import cli, homology, linalg, poisson, presets, quasimod, uea
from rinehart.linalg import (
    ComplexSlice,
    NotAComplexError,
    SparseMatrixQ,
    assemble,
    cohomology_dims,
    kernel_and_rank,
    rank,
)


def apply(m: SparseMatrixQ, vec) -> list[Fraction]:
    """The product m vec, the reference for the kernel and d o d checks."""
    if len(vec) != m.ncols:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * m.nrows
    for (i, j), c in m.entries.items():
        if vec[j]:
            out[i] += c * vec[j]
    return out


def _rref(m: SparseMatrixQ) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Pivot choice per column: smallest |numerator|, then smallest denominator,
    then lowest row index; keeps entries small and the output deterministic.
    """
    rows: list[dict[int, Fraction]] = [dict() for _ in range(m.nrows)]
    for (i, j), c in m.entries.items():
        rows[i][j] = c
    rows = [r for r in rows if r]
    pivots: list[int] = []
    reduced: list[dict[int, Fraction]] = []
    for col in range(m.ncols):
        candidates = [(abs(r[col].numerator), r[col].denominator, idx)
                      for idx, r in enumerate(rows) if col in r]
        if not candidates:
            continue
        _, _, best = min(candidates)
        pivot_row = rows.pop(best)
        inv = Fraction(1, pivot_row[col])
        pivot_row = {j: c * inv for j, c in pivot_row.items()}
        for target in (rows, reduced):
            for idx, r in enumerate(target):
                if col in r:
                    f = r[col]
                    newr = dict(r)
                    for j, c in pivot_row.items():
                        s = newr.get(j, Fraction(0)) - f * c
                        if s:
                            newr[j] = s
                        else:
                            newr.pop(j, None)
                    target[idx] = newr
        rows = [r for r in rows if r]
        reduced.append(pivot_row)
        pivots.append(col)
        if not rows:
            break
    return reduced, pivots


def reference_kernel_and_rank(m: SparseMatrixQ) -> tuple[list[list[Fraction]], int]:
    """Reference for `kernel_and_rank`: the kernel basis read off the Fraction
    RREF (one vector per free column) and the rank."""
    reduced, pivots = _rref(m)
    rank = len(pivots)
    pivot_set = set(pivots)
    pivot_of_row = {col: row for row, col in enumerate(pivots)}
    basis: list[list[Fraction]] = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * m.ncols
        vec[free] = Fraction(1)
        for col in pivots:
            r = reduced[pivot_of_row[col]]
            if free in r:
                vec[col] = -r[free]
        basis.append(vec)
    return basis, rank


def set_entry(m: SparseMatrixQ, i: int, j: int, c):
    """Store c at (i, j) as a canonical entry: an int when integral, and no
    entry at all when zero."""
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise IndexError((i, j))
    if c.__class__ is not int:
        c = Fraction(c)
        c = c.numerator if c.denominator == 1 else c
    if c:
        m.rows[i][j] = c
    else:
        m.rows[i].pop(j, None)


def mat(rows):
    m = SparseMatrixQ(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            set_entry(m, i, j, c)
    return m


def test_identity_has_trivial_kernel():
    basis, rk = kernel_and_rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert basis == [] and rk == 3


def test_zero_matrix_full_kernel():
    basis, rk = kernel_and_rank(SparseMatrixQ(2, 5))
    assert rk == 0 and len(basis) == 5


def test_rank_one_kernel_vector():
    basis, rk = kernel_and_rank(mat([[1, 2], [2, 4]]))
    assert rk == 1
    assert len(basis) == 1
    v = basis[0]
    # the line through (-2, 1)
    assert v[0] * 1 == -2 * v[1]


def test_kernel_vectors_are_exact():
    rng = random.Random(3)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = SparseMatrixQ(nr, nc)
        for i in range(nr):
            for j in range(nc):
                if rng.random() < 0.5:
                    set_entry(m, i, j, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        basis, rk = kernel_and_rank(m)
        assert rk + len(basis) == nc
        assert rank(m) == rk == reference_kernel_and_rank(m)[1]
        for v in basis:
            assert all(c == 0 for c in apply(m, v))


def test_integral_entries_are_ints_and_results_are_fractions():
    m, _ = assemble(["s"], lambda s: [("u", Fraction(4, 2)), ("v", Fraction(1, 2))])
    assert type(m.entries[(0, 0)]) is int and type(m.entries[(1, 0)]) is Fraction
    rng = random.Random(11)
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = mat([[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(nc)] for _ in range(nr)])
        assert all(type(c) is int for c in m.entries.values())
        basis, rk = kernel_and_rank(m)
        assert all(type(c) is Fraction for v in basis for c in v)
        # half the entries made Fractions, some of them integral again
        for (i, j), c in list(m.entries.items()):
            if rng.random() < 0.5:
                set_entry(m, i, j, Fraction(c * rng.choice([1, 2, 3]), rng.choice([1, 2, 3])))
        assert rank(m) == reference_kernel_and_rank(m)[1]


def test_ranks_kernels_and_checks_leave_every_matrix_as_it_was():
    # an integer matrix's rows reach the echelon and the d o d check as
    # stored, and a Fraction matrix's reach the echelon in a scaled copy; the
    # echelon builds a new row at each step
    P = poisson.SymAlgebra(presets.weyl(1))
    slices = [homology.homology_slice(P, lam) for lam in (3, 4)]
    slices.append(homology.cyclic_slice(homology._MixedBlocks(P), 4, 2, P.N + 4))
    for s in slices:
        assert all(type(c) is int for d in s.diffs for row in d.rows for c in row.values())
        assert all(linalg._integer_rows(d) is d.rows for d in s.diffs)
        before = copy.deepcopy([d.rows for d in s.diffs])
        assert sum(map(rank, s.diffs)) > 0
        cohomology_dims(s)
        assert [d.rows for d in s.diffs] == before
    rng = random.Random(31)
    for trial in range(60):
        nr, nc = rng.randint(2, 7), rng.randint(2, 7)
        entries = [0, 0, 1, -1, 2, 3] if trial % 2 else [0, 1, -2, Fraction(1, 2), Fraction(-3, 4)]
        m = mat([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)])
        before = copy.deepcopy(m.rows)
        kernel_and_rank(m)
        assert m.rows == before


def test_cohomology_single_spot():
    s = ComplexSlice([1], [])
    assert cohomology_dims(s) == [1]


def test_cohomology_acyclic_identity():
    s = ComplexSlice([1, 1], [mat([[1]])])
    assert cohomology_dims(s) == [0, 0]


def test_cohomology_koszul_two_variables_weight_one():
    # Q -> Q^2 -> Q truncation of the (x, xi) Koszul complex in weight 1:
    # 1 |-> (x, xi)-coordinates, then (a, b) |-> x*b - xi*a style pairing
    d0 = mat([[1], [1]])
    d1 = mat([[1, -1]])
    s = ComplexSlice([1, 2, 1], [d0, d1])
    assert cohomology_dims(s) == [0, 0, 0]


def test_cohomology_rejects_non_complex():
    d0 = mat([[1], [0]])
    d1 = mat([[1, 0]])
    s = ComplexSlice([1, 2, 1], [d0, d1])
    with pytest.raises(NotAComplexError) as exc:
        cohomology_dims(s)
    assert exc.value.position == 0


def test_cohomology_zero_differentials_gives_dimensions():
    s = ComplexSlice([2, 1, 3], [SparseMatrixQ(1, 2), SparseMatrixQ(3, 1)])
    assert cohomology_dims(s) == [2, 1, 3]


def test_rank_matches_fraction_path_on_every_builtin_slice(monkeypatch):
    slices = []

    def record(slice_):
        slices.append(slice_)
        return linalg.cohomology_dims(slice_)

    for mod in (homology, poisson, quasimod):
        monkeypatch.setattr(mod, "cohomology_dims", record)
    for spec in ("weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)",
                 "arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"):
        alg = presets.builtin(spec)
        if min(alg.weights.values()) > 0:  # the graded tables need positive weights
            homology.poisson_homology(alg, 2)
            # cyclic slices of weight 2 take seconds on two-variable algebras
            homology.cyclic_homology(alg, 1 if len(alg.vars) > 1 else 2, 2)
            poisson.poisson_cohomology(alg, 2, 2)
        quasimod.ce_cohomology(alg, "trivial", 2, 2)
        if not alg.vars:
            quasimod.ce_cohomology(alg, "sym_adjoint_lie", 2, 2)
    diffs = [d for s in slices for d in s.diffs if d.entries]
    assert len(diffs) > 100
    for d in diffs:
        assert rank(d) == reference_kernel_and_rank(d)[1], d


def test_kernel_matches_the_reference_on_every_kernel_search(monkeypatch, capsys):
    matrices = []

    def record(m):
        matrices.append(m)
        return linalg.kernel_and_rank(m)

    monkeypatch.setattr(uea, "kernel_and_rank", record)  # center_search
    monkeypatch.setattr(homology, "kernel_and_rank", record)  # capped_casimir_search
    for spec in ("weyl(1)", "weyl(2)", "lie(sl2)", "semidirect(sl2,std)", "lie(abelian2)"):
        assert cli.main(["--algebra", spec, "center"]) == 0
    for spec in ("arrangement(x,y,y-x,y+x)", "arrangement(x,y-x,y+x)"):
        assert cli.main(["--algebra", spec, "verify", "euler"]) == 0
    capsys.readouterr()
    assert len(matrices) == 7 and sum(len(m.entries) for m in matrices) > 1000
    rng = random.Random(29)
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        entries = [0, 0, 0, 1, -2, Fraction(rng.randint(-5, 5), rng.randint(1, 4))]
        matrices.append(mat([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]))
    for m in matrices:
        assert kernel_and_rank(m) == reference_kernel_and_rank(m), m


def columns(m, n, nrows=None):
    """The first n columns of m, and only its first nrows rows when given."""
    rows = m.rows if nrows is None else m.rows[:nrows]
    return SparseMatrixQ(len(rows), n, [{j: c for j, c in row.items() if j < n} for row in rows])


def test_leading_rank_is_the_rank_of_the_leading_columns():
    # one differential whose leading block is all of its rows: the leading
    # dimension at the source is n - rank(first n columns)
    rng = random.Random(17)
    for trial in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        entries = [0, 0, 1, -1, 2, -3] if trial % 2 else [0, 0, 1, Fraction(1, 2), Fraction(-2, 3)]
        m = mat([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)])
        for n in sorted({0, nc // 2, nc}):
            s = ComplexSlice([nc, nr], [m], leading=[n, nr])
            dims, leading = cohomology_dims(s)
            assert dims == cohomology_dims(ComplexSlice(s.sizes, s.diffs))
            assert leading[0] == n - reference_kernel_and_rank(columns(m, n))[1]


def test_leading_rank_matches_the_fraction_path_on_every_cyclic_slice(monkeypatch):
    slices = []

    def record(slice_):
        slices.append(slice_)
        return linalg.cohomology_dims(slice_)

    monkeypatch.setattr(homology, "cohomology_dims", record)
    for spec in ("weyl(1)", "weyl(2)", "lie(sl2)", "lie(abelian2)", "semidirect(sl2,std)"):
        alg = presets.builtin(spec)
        homology.cyclic_homology(alg, 1 if len(alg.vars) > 1 else 2, 2)
    checked = 0
    for s in slices:
        ranks = []
        for k, d in enumerate(s.diffs):
            block = columns(d, s.leading[k], s.leading[k + 1])
            ranks.append(reference_kernel_and_rank(block)[1])
            checked += bool(block.entries)
        ranks = [0] + ranks + [0]
        expected = [n - ranks[k + 1] - ranks[k] for k, n in enumerate(s.leading)]
        assert linalg.cohomology_dims(s)[1] == expected, s.sizes
    assert checked > 30


def test_a_leading_block_that_is_not_a_subcomplex_raises():
    d0 = mat([[1, 0], [0, 1]])
    ComplexSlice([2, 2], [d0], leading=[1, 1])
    # column 1 leads but maps to row 1, which does not
    with pytest.raises(ValueError, match="not a subcomplex"):
        ComplexSlice([2, 2], [d0], leading=[2, 1])
    with pytest.raises(ValueError, match="one leading size per position"):
        ComplexSlice([2, 2], [d0], leading=[3, 1])


def product_is_zero_by_apply(upper, lower):
    """Reference d o d test: apply `upper` to every column of `lower`."""
    for j in range(lower.ncols):
        col = [lower.entries.get((i, j), 0) for i in range(lower.nrows)]
        if any(apply(upper, col)):
            return False
    return True


def test_complex_check_cancels_denominators_across_rows():
    # d0 has a different denominator in each row, so clearing them row by row
    # would scale d0's rows unequally and leave d1 d0 != 0.
    d0 = mat([[Fraction(1, 2), 1], [Fraction(1, 3), 0], [0, Fraction(1, 5)]])
    d1 = mat([[2, -3, -10], [Fraction(1, 7), Fraction(-3, 14), Fraction(-5, 7)]])
    assert product_is_zero_by_apply(d1, d0)
    s = ComplexSlice([2, 3, 2], [d0, d1])
    s.check_complex()
    assert cohomology_dims(s) == [0, 0, 1]


def test_complex_check_rejects_near_cancellation():
    d0 = mat([[Fraction(1, 2), 1], [Fraction(1, 3), 0], [0, Fraction(1, 5)]])
    d1 = mat([[2, -3, -10], [Fraction(1, 7), Fraction(-3, 14), Fraction(-5, 8)]])
    assert not product_is_zero_by_apply(d1, d0)
    s = ComplexSlice([2, 3, 2], [d0, d1])
    with pytest.raises(NotAComplexError) as exc:
        s.check_complex()
    assert exc.value.position == 0


def test_assemble_sums_repeats_drops_zeros_and_keeps_source_order():
    images = {"a": [("u", 1), ("v", 2), ("u", Fraction(1, 2))],
              "b": [("w", 3), ("v", -2), ("v", 2)],
              "c": [("v", 1), ("v", -1)]}
    m, targets = assemble(["a", "b", "c"], images.__getitem__)
    assert targets == ["u", "v", "w"]
    assert (m.nrows, m.ncols) == (3, 3)
    assert m.entries == {(0, 0): Fraction(3, 2), (1, 0): 2, (2, 1): 3}
    fixed, rows = assemble(["b", "a"], images.__getitem__, ["w", "v", "u"])
    assert rows == ["w", "v", "u"]
    assert fixed.entries == {(0, 0): 3, (1, 1): 2, (2, 1): Fraction(3, 2)}
    with pytest.raises(KeyError, match="leaves the target basis"):
        assemble(["a"], images.__getitem__, ["u"])
