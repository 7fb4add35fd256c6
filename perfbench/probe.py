"""A fixed pure-Python workload that measures how fast the host runs now.

run.py starts it in a fresh interpreter before every job, so it pays the
same interpreter start, imports, allocation and integer/Fraction
arithmetic as a job.  Job times are scaled by the probe's nominal time over
its measured time, which cancels the drift of a shared host's speed (tens
of percent over minutes).  It imports nothing from the repository, so no
change to qtk can move it.
"""

import argparse  # noqa: F401  (start-up cost comparable to the CLI's)
import dataclasses  # noqa: F401
import json
from fractions import Fraction


def _rank(mat: list[list[int]]) -> int:
    """One-step fraction-free elimination; entries stay minors of the input."""
    mat = [list(r) for r in mat]
    rank, prev = 0, 1
    for col in range(len(mat[0])):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for row in mat[rank + 1:]:
            f = row[col]
            for j in range(col, len(top)):
                row[j] = (top[col] * row[j] - f * top[j]) // prev
        prev = top[col]
        rank += 1
    return rank


def work() -> str:
    acc = Fraction(0)
    rows = []
    for i in range(1, 2500):
        acc += Fraction(i % 13, i + 1)
        rows.append({(i, i % 7): [i * j for j in range(8)]})
    mat = [[(i * 7 + j * 13 + i * j) % 11 - 5 for j in range(40)] for i in range(40)]
    return json.dumps([acc.numerator.bit_length(), len(rows), _rank(mat)])


if __name__ == "__main__":
    print(work())
