"""Dense fraction-free integer row reduction (one-step Bareiss).

This is the one dense elimination in the package: exact.det,
exact.solve_exact and exact.inverse_int reduce through it (the last two
then back-substitute without fractions, in exact._back_substitute), and
the tests use it as the oracle for the sparse RowSpace.  Every intermediate
entry is a minor of the input matrix, so entries stay integral and their
bit growth is polynomial instead of exponential (Bareiss, Math. Comp. 1968).
"""

from __future__ import annotations

BACKEND = "python"


def echelon_int(rows, ncols):
    """Reduce an integer matrix to row echelon form without fractions.

    Args:
        rows: list of rows, each a list of Python ints (consumed as read-only).
        ncols: number of columns (also required for 0-row matrices).

    Returns:
        (rank, echelon, pivot_cols, swap_sign) where `echelon` is a new list
        of integer rows with pivots on `pivot_cols` (strictly increasing),
        rows below the rank are zero, and `swap_sign` is the parity (+1/-1)
        of the row swaps performed.  For a square full-rank input the last
        pivot equals swap_sign * det(matrix).
    """
    mat = [list(row) for row in rows]
    nrows = len(mat)
    rank = 0
    prev = 1
    swap_sign = 1
    pivot_cols = []
    for col in range(ncols):
        pivot_row = -1
        for i in range(rank, nrows):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != rank:
            mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
            swap_sign = -swap_sign
        pivot = mat[rank][col]
        pivot_row_vals = mat[rank]
        for i in range(rank + 1, nrows):
            row_i = mat[i]
            factor = row_i[col]
            # The full update keeps every entry a minor of the input, which is
            # what makes the division by `prev` exact; do not shortcut it.
            for j in range(col, ncols):
                row_i[j] = (pivot * row_i[j] - factor * pivot_row_vals[j]) // prev
        prev = pivot
        pivot_cols.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, mat, pivot_cols, swap_sign
