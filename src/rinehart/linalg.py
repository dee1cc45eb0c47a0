"""Exact sparse linear algebra over Q and finite graded complex slices.

`assemble` turns a linear map on a basis into a matrix, and `assemble_slice`
a map on graded bases into a slice; every kernel search and every slice
differential but the cyclic ones, which are placed from shared blocks, is
built with them.

Matrix entries are ints when integral and Fractions otherwise.  One integer
echelon, `_echelon`, built with row steps invertible over Q, serves every
rank, every leading rank and every kernel, so all are exact; kernel vectors
come from it by back substitution and have Fraction entries.  The d o d
check multiplies the same integer rows, built once per differential.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence


class NotAComplexError(Exception):
    """A slice whose consecutive differentials fail to compose to zero."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"d_{position + 1} o d_{position} != 0")


class SparseMatrixQ:
    """Sparse exact matrix: finite map (row, col) -> nonzero rational, an int
    when integral and a Fraction otherwise."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], int | Fraction] = {}

    def set(self, i: int, j: int, c):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        if c.__class__ is not int:
            c = Fraction(c)
            c = c.numerator if c.denominator == 1 else c
        if c:
            self.entries[(i, j)] = c
        else:
            self.entries.pop((i, j), None)


def assemble(src: Sequence, image: Callable[[object], Iterable[tuple[object, Fraction]]],
             tgt: Sequence | None = None) -> tuple[SparseMatrixQ, list]:
    """Matrix of a linear map: column j holds image(src[j]), an iterable of
    (target key, coefficient) pairs, with repeated keys summed and zero sums
    dropped.  Row i is tgt[i] when a target basis is given, and a key outside
    it raises KeyError; otherwise rows are numbered in first-seen order.
    Returns the matrix and the row keys."""
    targets = list(tgt) if tgt is not None else []
    index = {key: i for i, key in enumerate(targets)}
    cols = []
    for s in src:
        col: dict[int, Fraction] = {}
        for key, c in image(s):
            row = index.get(key)
            if row is None:
                if tgt is not None:
                    raise KeyError(f"the image of {s!r} leaves the target basis at {key!r}")
                row = index[key] = len(targets)
                targets.append(key)
            col[row] = col[row] + c if row in col else c
        cols.append(col)
    m = SparseMatrixQ(len(targets), len(cols))
    for j, col in enumerate(cols):
        for i, c in col.items():
            m.set(i, j, c)
    return m, targets


def _integer_rows(m: SparseMatrixQ) -> list[dict[int, int]]:
    """Rows of L*m, L the lcm of all denominators: one scalar for the whole
    matrix keeps its rank and whether a product with it vanishes."""
    scale = lcm(*{c.denominator for c in m.entries.values()})
    out: list[dict[int, int]] = [{} for _ in range(m.nrows)]
    for (i, j), c in m.entries.items():
        out[i][j] = c.numerator * (scale // c.denominator)
    return out


def _echelon(m: SparseMatrixQ, rows: list[dict[int, int]] | None = None) -> dict[int, dict[int, int]]:
    """An exact integer echelon of m's rows, {leading column: pivot row}.  A
    row meeting pivot p at column c becomes b*row - a*p (a/b = row[c]/p[c] in
    lowest terms), a step invertible over Q; pivots are divided by their
    content.  `rows`, when given, are `_integer_rows(m)`, and are used up.

    Rows are reduced at their lowest column, so the pivots below any n are as
    many as the rank of m's first n columns."""
    echelon: dict[int, dict[int, int]] = {}
    for row in _integer_rows(m) if rows is None else rows:
        while row and (c := min(row)) in echelon:
            pivot = echelon[c]
            g = gcd(row[c], pivot[c])
            a, b = row[c] // g, pivot[c] // g
            row = {j: b * v for j, v in row.items()} if b != 1 else row
            for j, v in pivot.items():
                row[j] = row.get(j, 0) - a * v
                if not row[j]:
                    del row[j]
        if row:  # c = min(row); a positive lead keeps b == 1 on unit pivots
            g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
            echelon[c] = {j: v // g for j, v in row.items()}
    return echelon


def rank(m: SparseMatrixQ) -> int:
    """Exact rank, by the integer echelon of `_echelon`."""
    return len(_echelon(m))


def kernel_and_rank(m: SparseMatrixQ) -> tuple[list[list[Fraction]], int]:
    """Exact kernel basis and the rank, from the echelon of `_echelon`.

    There is one vector per free column f, 1 at f and 0 at every other free
    column; its pivot entries follow by back substitution, highest leading
    column first, x_c = -sum(row[j] x_j for j > c) / row[c].  It is the one
    kernel vector with those free values, the RREF's, with Fraction entries."""
    echelon = _echelon(m)
    leads = sorted(echelon, reverse=True)
    basis: list[list[Fraction]] = []
    for free in range(m.ncols):
        if free in echelon:
            continue
        vec = [Fraction(0)] * m.ncols
        vec[free] = Fraction(1)
        for c in leads:
            row = echelon[c]
            vec[c] = Fraction(-sum(v * vec[j] for j, v in row.items() if j > c), row[c])
        basis.append(vec)
    return basis, len(echelon)


class ComplexSlice:
    """A finite weight-homogeneous piece of a cochain complex: the basis size
    of every position, d_k from position k (columns) to k+1.

    `leading`, when given, is a basis prefix size per position whose prefixes
    span a subcomplex: every d_k maps its first leading[k] columns into its
    first leading[k + 1] rows, which is checked here in one pass over the
    entries.  Its d o d = 0 follows from that of the whole slice."""

    def __init__(self, sizes: list[int], diffs: list[SparseMatrixQ],
                 leading: list[int] | None = None):
        if len(diffs) != max(len(sizes) - 1, 0):
            raise ValueError("need one differential per adjacent pair of positions")
        for k, d in enumerate(diffs):
            if d.ncols != sizes[k] or d.nrows != sizes[k + 1]:
                raise ValueError(f"differential {k} has wrong shape")
        if leading is not None:
            if len(leading) != len(sizes) or not all(
                    0 <= n <= size for n, size in zip(leading, sizes)):
                raise ValueError("need one leading size per position, within its basis")
            for k, d in enumerate(diffs):
                cols, rows = leading[k], leading[k + 1]
                if any(j < cols and i >= rows for i, j in d.entries):
                    raise ValueError(f"the leading block of differential {k} is not a subcomplex")
        self.sizes = sizes
        self.diffs = diffs
        self.leading = leading

    def check_complex(self) -> list[list[dict[int, int]]]:
        """Raise NotAComplexError(k) at the first k with d_{k+1} d_k != 0;
        return the `_integer_rows` of every differential it multiplied."""
        rows = [_integer_rows(d) for d in self.diffs]
        for k in range(len(rows) - 1):
            for upper in rows[k + 1]:
                acc: dict[int, int] = {}
                for i, c in upper.items():
                    for j, d in rows[k][i].items():
                        acc[j] = acc.get(j, 0) + c * d
                if any(acc.values()):
                    raise NotAComplexError(k)
        return rows

    def dimensions(self) -> list[int]:
        return list(self.sizes)


def assemble_slice(bases: Sequence[Sequence],
                   image: Callable[[object], Iterable[tuple[object, Fraction]]]) -> ComplexSlice:
    """The slice whose position k has the basis bases[k] and whose d_k is the
    `assemble` matrix of image from bases[k] to bases[k + 1]."""
    return ComplexSlice([len(b) for b in bases],
                        [assemble(src, image, tgt)[0] for src, tgt in zip(bases, bases[1:])])


def _dims(sizes: list[int], ranks: list[int]) -> list[int]:
    """dim H^k = sizes[k] - rank(d_k) - rank(d_{k-1})."""
    ranks = [0] + ranks + [0]
    return [n - ranks[k + 1] - ranks[k] for k, n in enumerate(sizes)]


def cohomology_dims(slice: ComplexSlice) -> list[int] | tuple[list[int], list[int]]:
    """dim H^k = dim ker(d_k) - rank(d_{k-1}) for every position of the slice;
    for a slice with a `leading` subcomplex, the pair (those dimensions, the
    subcomplex's).  One elimination per differential gives both: the rank of
    the leading block is the number of pivots in its leading columns, since
    the rows below the block are zero there."""
    rows = slice.check_complex()
    pivots = [_echelon(d, r) for d, r in zip(slice.diffs, rows)]
    dims = _dims(slice.sizes, [len(p) for p in pivots])
    if slice.leading is None:
        return dims
    return dims, _dims(slice.leading, [sum(c < n for c in p)
                                       for p, n in zip(pivots, slice.leading)])
