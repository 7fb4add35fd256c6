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


class TestSnf:
    def test_diag_2_3(self):
        diag, U, V = exact.snf([[2, 0], [0, 3]])
        assert diag == [1, 6]
        assert exact.matmul_int(exact.matmul_int(U, [[2, 0], [0, 3]]), V) == \
            [[1, 0], [0, 6]]

    def test_identity(self):
        diag, U, V = exact.snf([[1, 0], [0, 1]])
        assert diag == [1, 1]
        assert abs(exact.int_det_unimodular(U)) == 1
        assert abs(exact.int_det_unimodular(V)) == 1

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
            prod = exact.matmul_int(exact.matmul_int(U, m), V)
            for i in range(rows):
                for j in range(cols):
                    expected = diag[i] if i == j and i < len(diag) else 0
                    assert prod[i][j] == expected
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 or (a == 0 and b == 0)
            assert abs(exact.int_det_unimodular(U)) == 1
            assert abs(exact.int_det_unimodular(V)) == 1
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
            b = exact.matvec(a, x)
            assert exact.solve_exact(a, b) == x
            done += 1


class TestKernel:
    def test_full_rank(self):
        assert exact.kernel_basis(frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []

    def test_one_relation(self):
        basis = exact.kernel_basis(frac_rows([[1, 1]]))
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == 0 and v != [0, 0]

    def test_rank_one_wide(self):
        basis = exact.kernel_basis(frac_rows([[1, 1, 1], [1, 1, 1]]))
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            a = [[F(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]
            basis = exact.kernel_basis(a)
            for v in basis:
                assert all(av == 0 for av in exact.matvec(a, v))
            assert exact.rank(a) + len(basis) == cols


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
    """(rank, pivot columns) of a rational matrix by the dense kernel."""
    ints = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        ints.append([int(x * m) for x in row])
    r, _, pivots, _ = echelon_int(ints, ncols)
    return r, pivots


def dense_rank(rows, ncols):
    return dense_echelon(rows, ncols)[0]


ENTRIES = st.one_of(st.just(F(0)), st.just(F(0)),
                    st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def sparse_system(draw):
    """A sparse rational matrix whose later rows are often combinations of
    earlier ones, plus probe vectors in and out of its span."""
    ncols = draw(st.integers(1, 7))
    vector = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    base = draw(st.lists(vector, max_size=6))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))

    def combination(cs):
        return [sum((c * row[j] for c, row in zip(cs, base)), F(0)) for j in range(ncols)]

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
        assert space.rank == dense_rank(rows, ncols) == exact.rank(rows or [[F(0)] * ncols])

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
            assert (not any(w)) == member
            assert all(x == 0 for c, x in enumerate(w) if c not in free)
            assert space.contains([a - b for a, b in zip(v, w)])

    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_free_columns_are_the_greedy_extension(self, system):
        ncols, rows, _ = system
        chosen, current = [], list(rows)
        for j in range(ncols):
            unit = [F(int(i == j)) for i in range(ncols)]
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
            assert all(exact.dot(row, v) == 0 for row in rows)

    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_kernel_basis_is_canonical(self, system):
        ncols, rows, _ = system
        if not rows:
            return
        _, pivots = dense_echelon(rows, ncols)
        free = [c for c in range(ncols) if c not in pivots]
        basis = exact.kernel_basis(rows)
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert [v[c] for c in free] == [F(int(c == f)) for c in free]
            assert all(exact.dot(row, v) == 0 for row in rows)

    def test_wrong_width_is_rejected(self):
        with pytest.raises(MalformedInputError):
            exact.RowSpace(3).insert([F(1), F(2)])
