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

Rows whose entries are all int skip the clearing: RowSpace takes a copy of
them as they are, and `det` reads an int matrix as it is.

Determinants, square solves and integer inverses take dense matrices,
nested lists in row-major order, and use the one dense fraction-free
Bareiss elimination, qtk.kernels.echelon_int.  Where a solution is wanted,
`_back_substitute` follows it with the one fraction-free back-substitution,
so that no Fraction arises before the final quotients (Nakos, Turner and
Williams, SIGSAM Bull. 1997).  There is no integer normal form: the cones of
a valid pair are unimodular, so every lattice question about them is
answered by the columns of an integer inverse, the adjugate times the +-1
determinant (see charpair.dual_edge_frame).  `inverse_int` returns a
determinant with its adjugate, so charpair reads a cone's determinants,
dual frame and facet normals from one elimination per cone matrix, and
calls no `det`.

Numbers typed as text (`as_scalar`, `ascii_int`) are read with str
methods, not `re`: no process compiles a pattern to read a fan.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import MalformedInputError, SingularMatrixError
from .kernels import echelon_int

Scalar = Fraction

SparseRow = Mapping[int, int | Fraction]
Row = Sequence[Scalar]
Matrix = Sequence[Row]

_ONE = Fraction(1)


def _signed(text: str) -> tuple[str, str]:
    """text's leading '+' or '-' (or '') and the rest, surrounding
    whitespace stripped first."""
    text = text.strip()
    return (text[0], text[1:]) if text[:1] in ("+", "-") else ("", text)


def _is_digits(text: str) -> bool:
    """Whether text is one or more ASCII digits 0-9: str.isdigit alone also
    takes the other Unicode digits, such as '٣', '²' and '１'."""
    return text.isascii() and text.isdigit()


def as_scalar(x) -> Fraction:
    """Coerce ints, Fractions, and 'p' or 'p/q' strings of decimal digits to
    an exact rational.  Decimal points and exponents are rejected:
    Fraction('1e10000000') builds a ten-million-digit integer, and larger
    exponents take hours.  Digit strings of any length are read, through
    `decimal_int`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        sign, rest = _signed(x)
        num, slash, den = rest.partition("/")
        if _is_digits(num) and (_is_digits(den) or not slash):
            num, den = decimal_int(num), decimal_int(den) if slash else 1
            if den:
                return Fraction(-num if sign == "-" else num, den)
    raise MalformedInputError(f"not a rational: {x!r}")


def as_int(x) -> int:
    """An integer read from JSON; bools, floats and strings are rejected."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise MalformedInputError(f"not an integer: {x!r}")


def ascii_int(text: str) -> int:
    """An optional sign and ASCII digits 0-9, surrounding whitespace
    allowed, as an int: the one rule for integers typed by hand (options,
    QTK_SEED, catalog parameters).  Anything else raises ValueError, the
    other Unicode digits and the `_` separators that int() takes included,
    as do more digits than int() reads (4300 by default)."""
    if not _is_digits(_signed(text)[1]):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def scalar_str(x: Fraction) -> str:
    """Serialize a rational as 'p' or 'p/q'; inverse of as_scalar.

    Integers of any length are written out: CPython's str() refuses one of
    more digits than sys.get_int_max_str_digits() (4300 by default), so
    long ones are converted in pieces below it, and that process-wide
    limit is left as it is.
    """
    num = x.numerator
    digits = "-" + _decimal(-num) if num < 0 else _decimal(num)
    return digits if x.denominator == 1 else f"{digits}/{_decimal(x.denominator)}"


# Below every digit limit CPython accepts (at least 640 digits).
_PIECE_DIGITS = 600
_PIECE = 10 ** _PIECE_DIGITS


def _decimal(n: int) -> str:
    """The decimal digits of n >= 0, split in halves until each is below _PIECE."""
    if n < _PIECE:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of n's digits, since log10(2) > 0.3
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def decimal_int(digits: str) -> int:
    """The int written by a string of decimal digits of any length; the
    inverse of _decimal.  CPython's int() refuses more digits than
    sys.get_int_max_str_digits(), so a long string is split in halves
    until each has at most _PIECE_DIGITS, and that process-wide limit is
    left as it is."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return decimal_int(digits[:-half]) * 10 ** half + decimal_int(digits[-half:])


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
    combination of `rows`, with m != 0, and lead is the last column left
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

    Rows are kept as integer dicts {column: entry} with gcd 1, keyed by the
    pivot: the row's last nonzero column.  No two rows share a pivot, so the
    pivots count the rank, and a vector lies in the span iff clearing its
    last column by the row keyed there, again and again, empties it.  The
    pivot's sign is whatever elimination left: every use divides by it.
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
        """An integer copy of v, which elimination may change, and its scale."""
        if v and not (min(v) >= 0 and max(v) < self.ncols):
            raise MalformedInputError(
                f"row on columns {min(v)}..{max(v)} in a row space of width {self.ncols}")
        # One C-level scan of the entries' types, not a Python test per entry.
        if {*map(type, v.values())} <= {int}:
            return dict(v), 1
        return cleared(v)

    def insert(self, v: SparseRow) -> bool:
        """Add v to the span; True iff the rank grew."""
        vec, _ = self._integer_row(v)
        _, lead = _eliminate(self.rows, vec, full=False)
        if lead < 0:
            return False
        g = gcd(*vec.values())  # gcd skips zeros, and vec[lead] is not zero
        self.rows[lead] = {c: x // g for c, x in vec.items() if x}
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
        if all(type(x) is int for x in row):
            scaled.append(row)
            continue
        ints, s = cleared_dense(row)
        scale *= s
        scaled.append(ints)
    r, ech, _, sign = echelon_int(scaled, ncols)
    if r < nrows:
        return Fraction(0)
    # One-step Bareiss leaves det(int matrix) = swap_sign * last pivot.
    return Fraction(sign * ech[nrows - 1][ncols - 1], scale)


def _back_substitute(aug: list[list[int]], n: int) -> tuple[int, list[list[int]], int] | None:
    """Fraction-free elimination of [a | b_1 ... b_m], a square of size n,
    and fraction-free back-substitution: (d, ys, swap sign) with a x = b_k
    iff x = ys[k] / d, d being the last pivot, or None when a is singular.

    d is det a times the swap sign, so ys[k] = d x is integral by Cramer's
    rule and each division below is exact.
    """
    _, ech, pivot_cols, sign = echelon_int(aug, len(aug[0]))
    if pivot_cols[:n] != list(range(n)):
        return None
    d = ech[n - 1][n - 1]
    ys = []
    for col in range(n, len(aug[0])):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = ech[i]
            acc = d * row[col]
            for j in range(i + 1, n):
                acc -= row[j] * y[j]
            y[i] = acc // row[i]
        ys.append(y)
    return d, ys, sign


def inverse_int(a: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """det a and the columns of adj a = det(a) a^-1 for a square int matrix,
    from one elimination of [a | I]; column k of a^-1 is the k-th column
    over the determinant.  The columns are None when a is singular."""
    n, ncols = check_matrix(a)
    if n != ncols:
        raise MalformedInputError("inverse of a non-square matrix")
    if n == 0:
        return 1, []
    aug = [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(a)]
    solved = _back_substitute(aug, n)
    if solved is None:
        return 0, None
    d, ys, sign = solved
    # d = sign * det a and each y = d a^-1 e_k, so sign * y is an adjugate column.
    return sign * d, [[sign * x for x in y] for y in ys]


def solve_exact(a: Matrix, rhs: Sequence[Row]) -> list[list[Fraction]]:
    """Unique exact solutions x of a*x = b for square invertible a, one per
    right-hand side b in rhs, from one elimination of [a | b_1 ... b_m]."""
    nrows, ncols = check_matrix(a)
    if nrows != ncols:
        raise MalformedInputError("solve_exact needs a square matrix")
    if any(len(b) != nrows for b in rhs):
        raise MalformedInputError("right-hand side has wrong length")
    if nrows == 0:
        return [[] for _ in rhs]
    aug = [cleared_dense(list(row) + [b[i] for b in rhs])[0] for i, row in enumerate(a)]
    solved = _back_substitute(aug, nrows)
    if solved is None:
        raise SingularMatrixError("matrix is singular")
    d, ys, _ = solved
    return [[Fraction(x, d) for x in y] for y in ys]


def dot(u: Row, v: Row) -> int | Fraction:
    """Exact inner product: an int for int vectors, else a Fraction."""
    return sum(map(mul, u, v))
