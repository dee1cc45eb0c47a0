"""Exact sparse linear algebra over Q and finite graded complex slices.

A `SparseMatrixQ` is one {column: entry} dict per row, entries ints when
integral and Fractions otherwise, with `entries` a {(row, col): entry} view.
`assemble` writes the image of a linear map on a basis into rows, and
`assemble_slice` that of a map on graded bases; every kernel search and every
slice differential but the cyclic ones, placed from shared blocks, is built
with them.

One integer echelon, `_echelon`, built with row steps invertible over Q,
serves every rank, every leading rank and every kernel, so all are exact;
kernel vectors come from it by back substitution and have Fraction entries.
It reads an integer matrix's rows as stored, the d o d check any matrix's,
and neither changes a matrix.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .poly import _cleaned


class NotAComplexError(Exception):
    """A slice whose consecutive differentials fail to compose to zero."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"d_{position + 1} o d_{position} != 0")


class SparseMatrixQ:
    """Sparse exact matrix stored as rows: rows[i] maps a column to a nonzero
    rational, an int when integral and a Fraction otherwise.  Given rows are
    taken as they are; with none, the matrix is zero."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[dict] | None = None):
        self.nrows, self.ncols = nrows, ncols
        self.rows: list[dict[int, int | Fraction]] = rows or [{} for _ in range(nrows)]

    @property
    def entries(self) -> dict[tuple[int, int], int | Fraction]:
        """A {(row, col): c} view of the rows, built on each access."""
        return {(i, j): c for i, row in enumerate(self.rows) for j, c in row.items()}


def assemble(src: Sequence, image: Callable[[object], Iterable[tuple[object, Fraction]]],
             tgt: Sequence | None = None) -> tuple[SparseMatrixQ, list]:
    """Matrix of a linear map: column j holds image(src[j]), an iterable of
    (target key, coefficient) pairs, with repeated keys summed and zero sums
    dropped.  Row i is tgt[i] when a target basis is given, and a key outside
    it raises KeyError; otherwise rows are numbered in first-seen order.
    Returns the matrix and the row keys."""
    targets = list(tgt) if tgt is not None else []
    index = {key: i for i, key in enumerate(targets)}
    rows: list[dict] = [{} for _ in targets]
    for j, s in enumerate(src):
        for key, c in image(s):
            i = index.get(key)
            if i is None:
                if tgt is not None:
                    raise KeyError(f"the image of {s!r} leaves the target basis at {key!r}")
                i = index[key] = len(targets)
                targets.append(key)
                rows.append({})
            rows[i][j] = rows[i].get(j, 0) + c
    rows = [_cleaned(row) if 0 in row.values() or set(map(type, row.values())) - {int} else row
            for row in rows]
    return SparseMatrixQ(len(rows), len(src), rows), targets


def _integer_rows(m: SparseMatrixQ) -> list[dict[int, int]]:
    """m's rows when every entry is an int; otherwise the rows of L*m, L the
    lcm of all denominators, in a copy: one scalar for the whole matrix keeps
    its rank and whether a product with it vanishes."""
    if set(map(type, chain.from_iterable(map(dict.values, m.rows)))) <= {int}:
        return m.rows
    scale = lcm(*{c.denominator for row in m.rows for c in row.values()})
    return [{j: c.numerator * (scale // c.denominator) for j, c in row.items()}
            for row in m.rows]


def _echelon(m: SparseMatrixQ) -> dict[int, dict[int, int]]:
    """An exact integer echelon of m's rows, {leading column: pivot row}.  A
    row meeting pivot p at column c becomes b*row - a*p (a/b = row[c]/p[c] in
    lowest terms), a step invertible over Q; pivots are divided by their
    content.  Each step builds a new row, so m is left as it is.

    Rows are reduced at their lowest column, so the pivots below any n are as
    many as the rank of m's first n columns."""
    echelon: dict[int, dict[int, int]] = {}
    for row in _integer_rows(m):
        while row and (c := min(row)) in echelon:
            pivot = echelon[c]
            g = gcd(row[c], pivot[c])
            a, b = row[c] // g, pivot[c] // g
            row = {j: b * v for j, v in row.items()} if b != 1 else row.copy()
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
    rows.  Its d o d = 0 follows from that of the whole slice."""

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
                if any(j < cols for row in d.rows[rows:] for j in row):
                    raise ValueError(f"the leading block of differential {k} is not a subcomplex")
        self.sizes = sizes
        self.diffs = diffs
        self.leading = leading

    def check_complex(self):
        """Raise NotAComplexError(k) at the first k with d_{k+1} d_k != 0, in exact products."""
        for k, (lower, higher) in enumerate(zip(self.diffs, self.diffs[1:])):
            for upper in higher.rows:
                acc: dict[int, int | Fraction] = {}
                for i, c in upper.items():
                    for j, d in lower.rows[i].items():
                        acc[j] = acc.get(j, 0) + c * d
                if any(acc.values()):
                    raise NotAComplexError(k)

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
    slice.check_complex()
    pivots = [_echelon(d) for d in slice.diffs]
    dims = _dims(slice.sizes, [len(p) for p in pivots])
    if slice.leading is None:
        return dims
    return dims, _dims(slice.leading, [sum(c < n for c in p)
                                       for p, n in zip(pivots, slice.leading)])
