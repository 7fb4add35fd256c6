"""Exact rational scalars and exact linear algebra.

Scalars are fractions.Fraction: always reduced, positive denominator, so
structural equality is semantic equality.

Rank, span and kernel questions take sparse rows: a row is a mapping
{column: entry} with int or Fraction entries and every column in
range(width), the width being given alongside the rows.  Absent columns and
explicit zero entries are zero.  RowSpace answers all of them with a sparse
echelon basis whose rows are integer dicts (denominators cleared, divided by
the gcd of their entries), one row per pivot column, the pivot being the
row's last nonzero column.  `rank` and `kernel_basis` are thin layers over
it.  The vectors it returns (`normal_form`, `kernel`, `kernel_basis`) are
sparse as well: Fraction dicts of the nonzero entries in increasing column
order.

Determinants, square solves and the Smith normal form take dense matrices,
nested lists in row-major order; determinants and solves use the one dense
fraction-free Bareiss elimination, qtk.kernels.echelon_int.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import MalformedInputError, SingularMatrixError
from .kernels import echelon_int

Scalar = Fraction

SparseRow = Mapping[int, int | Fraction]
Row = Sequence[Scalar]
Matrix = Sequence[Row]

_ONE = Fraction(1)
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_scalar(x) -> Fraction:
    """Coerce ints, Fractions, and 'p' or 'p/q' strings of decimal digits to
    an exact rational.  Decimal points and exponents are rejected:
    Fraction('1e10000000') builds a ten-million-digit integer, and larger
    exponents take hours."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x.strip()):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"not a rational: {x!r}") from exc
    raise MalformedInputError(f"not a rational: {x!r}")


def as_int(x) -> int:
    """An integer read from JSON; bools, floats and strings are rejected."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise MalformedInputError(f"not an integer: {x!r}")


def scalar_str(x: Fraction) -> str:
    """Serialize a rational as 'p' or 'p/q'; inverse of as_scalar."""
    return str(x)


def check_matrix(rows: Matrix) -> tuple[int, int]:
    """Validate rectangular shape, return (nrows, ncols)."""
    nrows = len(rows)
    if nrows == 0:
        return 0, 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise MalformedInputError("ragged matrix")
    return nrows, ncols


def cleared_dense(row: Row) -> tuple[list[int], int]:
    """The dense row times the lcm of its denominators, as ints, and that lcm."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def int_if_integral(x: int | Fraction) -> int | Fraction:
    """x as an int when it is integral, else unchanged: products and sums of
    ints skip the gcd that every Fraction operation pays."""
    return int(x) if x.denominator == 1 else x


def cleared(vec: SparseRow) -> tuple[dict[int, int], int]:
    """The nonzero entries of the sparse row times the lcm of their
    denominators, as ints, and that lcm."""
    scale = lcm(*(x.denominator for x in vec.values()))
    return {c: x.numerator * (scale // x.denominator) for c, x in vec.items() if x}, scale


# ---------------------------------------------------------------------------
# Sparse row space.

def _eliminate(rows: dict[int, dict[int, int]], vec: dict[int, int],
               full: bool) -> tuple[int, int]:
    """Subtract pivot rows from the integer vector `vec` in place, last column first.

    Returns (m, lead): afterwards vec equals m * (vec before) minus a
    combination of `rows`, with m > 0, and lead is the last column left
    nonzero (-1 if none).  Stops at the first column without a pivot row
    unless `full`, in which case every pivot column is cleared.  A partial
    run may leave zero entries below lead.
    """
    heap = [-c for c in vec]
    heapify(heap)
    m, lead = 1, -1
    while heap:
        c = -heappop(heap)
        a = vec[c]
        if not a:
            del vec[c]
            continue
        row = rows.get(c)
        if row is None:
            if lead < 0:
                lead = c
            if not full:
                break
            continue
        b = row[c]
        if a % b:
            g = gcd(a, b)
            s = b // g
            for k in vec:
                vec[k] *= s
            m *= s
            q = a // g
        else:
            q = a // b
        for k, x in row.items():
            if k in vec:
                vec[k] -= q * x
            else:
                # k < c: rows only reach left of their pivot, so k is unseen.
                vec[k] = -q * x
                heappush(heap, -k)
        del vec[c]
    return m, lead


class RowSpace:
    """The span over the rationals of row vectors of a fixed width.

    Rows are kept as integer dicts {column: entry} with gcd 1 and a positive
    pivot, keyed by the pivot: the row's last nonzero column.  No two rows
    share a pivot, so the pivots count the rank, and a vector lies in the
    span iff clearing its last column by the row keyed there, again and
    again, empties it.
    """

    def __init__(self, ncols: int, rows: Iterable[SparseRow] = ()):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def free_columns(self) -> list[int]:
        """The non-pivot columns, increasing.

        Column j is free iff its unit vector is independent of the rows and
        the unit vectors before it, so these are exactly the columns a greedy
        left-to-right extension of the rows to a basis would pick.
        """
        return [c for c in range(self.ncols) if c not in self.rows]

    def _integer_row(self, v: SparseRow) -> tuple[dict[int, int], int]:
        if v and not (min(v) >= 0 and max(v) < self.ncols):
            raise MalformedInputError(
                f"row on columns {min(v)}..{max(v)} in a row space of width {self.ncols}")
        return cleared(v)

    def insert(self, v: SparseRow) -> bool:
        """Add v to the span; True iff the rank grew."""
        vec, _ = self._integer_row(v)
        _, lead = _eliminate(self.rows, vec, full=False)
        if lead < 0:
            return False
        vec = {c: x for c, x in vec.items() if x}
        g = gcd(*vec.values())
        if vec[lead] < 0:
            g = -g
        self.rows[lead] = {c: x // g for c, x in vec.items()}
        return True

    def contains(self, v: SparseRow) -> bool:
        """Whether v lies in the span."""
        vec, _ = self._integer_row(v)
        return _eliminate(self.rows, vec, full=False)[1] < 0

    def normal_form(self, v: SparseRow) -> dict[int, Fraction]:
        """The unique w with v - w in the span and w zero on every pivot
        column; w is empty iff v lies in the span."""
        vec, scale = self._integer_row(v)
        m, _ = _eliminate(self.rows, vec, full=True)
        return {c: Fraction(x, m * scale) for c, x in sorted(vec.items()) if x}

    def kernel(self) -> list[dict[int, Fraction]]:
        """Basis of {x : row . x = 0 for every row}: one vector per free
        column, increasing, with entry 1 there and 0 at the other free columns."""
        reduced: dict[int, dict[int, int]] = {}
        for p in sorted(self.rows):
            # Only pivots left of p are in `reduced`, so p itself survives.
            vec = dict(self.rows[p])
            _eliminate(reduced, vec, full=True)
            reduced[p] = vec
        # Pivots come in increasing order and lie right of every other
        # column of their row, so each vector's columns stay increasing.
        basis = {f: {f: _ONE} for f in self.free_columns()}
        for p, row in reduced.items():
            for c, x in row.items():
                if c != p:
                    basis[c][p] = Fraction(-x, row[p])
        return list(basis.values())


def rank(rows: Iterable[SparseRow], ncols: int) -> int:
    """Rank of the sparse rows, each of width ncols."""
    return RowSpace(ncols, rows).rank


def kernel_basis(rows: Iterable[SparseRow], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right null space of the sparse rows; the identity when
    there are no rows, empty iff full column rank.

    Deterministic: one basis vector per free column in increasing column
    order, normalized to have entry 1 at its free column and 0 at the other
    free columns.  Free columns are those without a pivot when every row is
    pivoted on its first nonzero column.
    """
    # RowSpace pivots on last columns; numbered from the right, that is the first.
    last = ncols - 1
    space = RowSpace(ncols, ({last - c: x for c, x in row.items()} for row in rows))
    return [{last - c: x for c, x in reversed(v.items())} for v in reversed(space.kernel())]


# ---------------------------------------------------------------------------
# Dense square systems.

def det(rows: Matrix) -> Fraction:
    """Determinant of a square rational matrix."""
    nrows, ncols = check_matrix(rows)
    if nrows != ncols:
        raise MalformedInputError("determinant of a non-square matrix")
    if nrows == 0:
        return Fraction(1)
    scaled = []
    scale = 1
    for row in rows:
        ints, s = cleared_dense(row)
        scale *= s
        scaled.append(ints)
    r, ech, _, sign = echelon_int(scaled, ncols)
    if r < nrows:
        return Fraction(0)
    # One-step Bareiss leaves det(int matrix) = swap_sign * last pivot.
    return Fraction(sign * ech[nrows - 1][ncols - 1], scale)


def solve_exact(a: Matrix, b: Row) -> list[Fraction]:
    """Unique exact solution of a*x = b for square invertible a."""
    nrows, ncols = check_matrix(a)
    if nrows != ncols:
        raise MalformedInputError("solve_exact needs a square matrix")
    if len(b) != nrows:
        raise MalformedInputError("right-hand side has wrong length")
    if nrows == 0:
        return []
    aug = [cleared_dense(list(row) + [bv])[0] for row, bv in zip(a, b)]
    r, ech, pivot_cols, _ = echelon_int(aug, ncols + 1)
    if r < nrows or pivot_cols != list(range(nrows)):
        raise SingularMatrixError("matrix is singular")
    x = [Fraction(0)] * ncols
    for i in range(nrows - 1, -1, -1):
        acc = Fraction(ech[i][ncols])
        for j in range(i + 1, ncols):
            acc -= Fraction(ech[i][j]) * x[j]
        x[i] = acc / ech[i][i]
    return x


def dot(u: Row, v: Row) -> Fraction:
    """Rational inner product."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


# ---------------------------------------------------------------------------
# Smith normal form over the integers.

def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def snf(m: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix.

    Returns (diag, U, V) with U*m*V diagonal, diag[i] >= 0, diag[i] | diag[i+1],
    and U, V unimodular.  diag lists only the min(nrows, ncols) diagonal entries.
    """
    nrows, ncols = check_matrix(m)
    A = [[int(v) for v in row] for row in m]
    U = _identity(nrows)
    V = _identity(ncols)

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        # row dst -= q * row src
        A[dst] = [a - q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_add(dst, src, q):
        for row in A:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # Pick the nonzero entry of smallest magnitude in the trailing block.
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        # Reduce the pivot row and column until both are clean.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
        # Enforce divisibility: fold any non-multiple into the pivot block.
        pivot = A[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if A[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, -1)
            continue
        t += 1

    for i in range(limit):
        if A[i][i] < 0:
            row_negate(i)
    diag = [A[i][i] for i in range(limit)]
    return diag, U, V
