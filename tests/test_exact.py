"""Exact linear algebra: SNF, solving, kernels, determinants, row spaces."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import exact
from qtk.errors import MalformedInputError, SingularMatrixError
from qtk.kernels import echelon_int


def frac_rows(rows):
    return [[F(v) for v in row] for row in rows]


def sparse_rows(rows):
    """Dense rows as sparse rows of their nonzero entries."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def matmul(a, b):
    """Integer matrix product."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def sparse_dot(u, v):
    return sum((x * v[c] for c, x in u.items() if c in v), F(0))


class TestSnf:
    def test_diag_2_3(self):
        diag, U, V = exact.snf([[2, 0], [0, 3]])
        assert diag == [1, 6]
        assert matmul(matmul(U, [[2, 0], [0, 3]]), V) == [[1, 0], [0, 6]]

    def test_identity(self):
        diag, U, V = exact.snf([[1, 0], [0, 1]])
        assert diag == [1, 1]
        assert abs(exact.det(U)) == 1
        assert abs(exact.det(V)) == 1

    def test_wide_matrix(self):
        # transposed stack of e1, e2, -e1-e2
        m = [[1, 0, -1], [0, 1, -1]]
        diag, U, V = exact.snf(m)
        assert diag == [1, 1]

    def test_empty(self):
        diag, U, V = exact.snf([])
        assert diag == []

    def test_random_properties(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            diag, U, V = exact.snf(m)
            prod = matmul(matmul(U, m), V)
            for i in range(rows):
                for j in range(cols):
                    expected = diag[i] if i == j and i < len(diag) else 0
                    assert prod[i][j] == expected
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 or (a == 0 and b == 0)
            assert abs(exact.det(U)) == 1
            assert abs(exact.det(V)) == 1
            assert all(d >= 0 for d in diag)


class TestSolve:
    def test_identity(self):
        assert exact.solve_exact(frac_rows([[1, 0], [0, 1]]), [F(1), F(1)]) == [F(1), F(1)]

    def test_cp2_vertex_system(self):
        a = frac_rows([[0, 1], [-1, -1]])
        assert exact.solve_exact(a, [F(1), F(1)]) == [F(-2), F(1)]
        a = frac_rows([[1, 0], [-1, -1]])
        assert exact.solve_exact(a, [F(1), F(1)]) == [F(1), F(-2)]

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            exact.solve_exact(frac_rows([[1, 1], [2, 2]]), [F(1), F(1)])

    def test_roundtrip_random(self):
        rng = random.Random(11)
        done = 0
        while done < 30:
            n = rng.randint(1, 5)
            a = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            if exact.det(a) == 0:
                continue
            x = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            b = [exact.dot(row, x) for row in a]
            assert exact.solve_exact(a, b) == x
            done += 1


class TestKernel:
    def test_full_rank(self):
        assert exact.kernel_basis(sparse_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3) == []

    def test_one_relation(self):
        basis = exact.kernel_basis([{0: F(1), 1: F(1)}], 2)
        assert basis == [{0: F(-1), 1: F(1)}]

    def test_rank_one_wide(self):
        basis = exact.kernel_basis(sparse_rows([[1, 1, 1], [1, 1, 1]]), 3)
        assert len(basis) == 2
        for v in basis:
            assert sum(v.values()) == 0

    def test_no_rows_give_the_identity(self):
        assert exact.kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]
        assert exact.rank([], 3) == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            # Explicit zero entries stay in: they must read as absent columns.
            a = [{c: rng.choice((F(rng.randint(-5, 5)), rng.randint(-5, 5)))
                  for c in range(cols)} for _ in range(rows)]
            basis = exact.kernel_basis(a, cols)
            for v in basis:
                assert all(sparse_dot(row, v) == 0 for row in a)
            assert exact.rank(a, cols) + len(basis) == cols

    def test_cleared(self):
        assert exact.cleared({0: F(1, 2), 1: F(0), 2: F(-1, 3), 4: 1}) == \
            ({0: 3, 2: -2, 4: 6}, 6)


class TestDet:
    @pytest.mark.parametrize("m, expected", [
        ([[0, 1], [-1, -1]], 1),
        ([[1, 0], [-1, -1]], -1),
        ([[2, 0], [0, 3]], 6),
        ([[1, 2], [2, 4]], 0),
    ])
    def test_small(self, m, expected):
        assert exact.det(frac_rows(m)) == expected

    def test_det_multiplicative(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = frac_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            b = frac_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            ab = [[exact.dot(ra, col) for col in zip(*b)] for ra in a]
            assert exact.det(ab) == exact.det(a) * exact.det(b)



class TestAsInt:
    def test_accepts_ints(self):
        assert exact.as_int(-3) == -3

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1", None])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(MalformedInputError):
            exact.as_int(bad)


# ---------------------------------------------------------------------------
# RowSpace against the dense Bareiss elimination.

def dense_echelon(rows, ncols):
    """(rank, pivot columns) of sparse rational rows by the dense kernel."""
    ints = []
    for row in rows:
        m = lcm(*(F(x).denominator for x in row.values()))
        ints.append([int(row.get(c, 0) * m) for c in range(ncols)])
    r, _, pivots, _ = echelon_int(ints, ncols)
    return r, pivots


def dense_rank(rows, ncols):
    return dense_echelon(rows, ncols)[0]


# Fraction and int entries, and explicit zeros of both kinds.
ENTRIES = st.one_of(st.just(0), st.just(F(0)), st.integers(-6, 6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def sparse_system(draw):
    """Sparse rational rows whose later rows are often combinations of
    earlier ones, plus probe vectors in and out of their span."""
    ncols = draw(st.integers(1, 7))
    vector = st.dictionaries(st.integers(0, ncols - 1), ENTRIES, max_size=ncols)
    base = draw(st.lists(vector, max_size=6))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))

    def combination(cs):
        out = {}
        for c, row in zip(cs, base):
            for j, x in row.items():
                out[j] = out.get(j, 0) + c * x
        return out

    rows = list(base)
    probes = draw(st.lists(vector, max_size=3))
    if base:
        for cs in draw(st.lists(coeffs, max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), combination(cs))
        probes += [combination(cs) for cs in draw(st.lists(coeffs, min_size=1, max_size=3))]
    return ncols, rows, probes


class TestRowSpace:
    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_rank_and_insert_match_dense(self, system):
        ncols, rows, _ = system
        space = exact.RowSpace(ncols)
        for k, row in enumerate(rows):
            grew = dense_rank(rows[:k + 1], ncols) > dense_rank(rows[:k], ncols)
            assert space.insert(row) == grew
        assert space.rank == dense_rank(rows, ncols) == exact.rank(rows, ncols)

    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_contains_and_normal_form(self, system):
        ncols, rows, probes = system
        space = exact.RowSpace(ncols, rows)
        r = dense_rank(rows, ncols)
        free = set(space.free_columns())
        for v in probes:
            member = dense_rank(rows + [v], ncols) == r
            assert space.contains(v) == member
            w = space.normal_form(v)
            assert (not w) == member
            assert all(x for x in w.values()) and list(w) == sorted(w)
            assert set(w) <= free
            diff = dict(v)
            for c, x in w.items():
                diff[c] = diff.get(c, 0) - x
            assert space.contains(diff)

    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_free_columns_are_the_greedy_extension(self, system):
        ncols, rows, _ = system
        chosen, current = [], list(rows)
        for j in range(ncols):
            unit = {j: 1}
            if dense_rank(current + [unit], ncols) > dense_rank(current, ncols):
                chosen.append(j)
                current.append(unit)
        assert exact.RowSpace(ncols, rows).free_columns() == chosen

    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_kernel_annihilates_rows(self, system):
        ncols, rows, _ = system
        space = exact.RowSpace(ncols, rows)
        kernel = space.kernel()
        assert len(kernel) == ncols - dense_rank(rows, ncols)
        assert dense_rank(kernel, ncols) == len(kernel)
        for v in kernel:
            assert all(sparse_dot(row, v) == 0 for row in rows)

    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_kernel_basis_is_canonical(self, system):
        ncols, rows, _ = system
        _, pivots = dense_echelon(rows, ncols)
        free = [c for c in range(ncols) if c not in pivots]
        basis = exact.kernel_basis(rows, ncols)
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert [v.get(c, 0) for c in free] == [int(c == f) for c in free]
            assert all(x for x in v.values()) and list(v) == sorted(v)
            assert all(sparse_dot(row, v) == 0 for row in rows)

    def test_wrong_width_is_rejected(self):
        # A column outside range(width) is malformed, wherever the row goes.
        with pytest.raises(MalformedInputError):
            exact.RowSpace(3).insert({3: F(1)})
        with pytest.raises(MalformedInputError):
            exact.RowSpace(3).contains({-1: 1})
        with pytest.raises(MalformedInputError):
            exact.rank([{0: 1}, {0: 2, 5: 1}], 3)
        with pytest.raises(MalformedInputError):
            exact.kernel_basis([{3: 1}], 3)
