"""Exact linear algebra: solving, kernels, determinants, row spaces."""

import random
import re
import sys
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


def sparse_dot(u, v):
    return sum((x * v[c] for c, x in u.items() if c in v), F(0))


class TestSolve:
    def test_identity(self):
        assert exact.solve_exact(frac_rows([[1, 0], [0, 1]]), [[F(1), F(1)]]) == [[F(1), F(1)]]

    def test_cp2_vertex_system(self):
        a = frac_rows([[0, 1], [-1, -1]])
        assert exact.solve_exact(a, [[F(1), F(1)]]) == [[F(-2), F(1)]]
        a = frac_rows([[1, 0], [-1, -1]])
        assert exact.solve_exact(a, [[F(1), F(1)]]) == [[F(1), F(-2)]]

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            exact.solve_exact(frac_rows([[1, 1], [2, 2]]), [[F(1), F(1)]])

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
            assert exact.solve_exact(a, [b]) == [x]
            done += 1

    def test_several_right_hand_sides_in_one_call(self):
        rng = random.Random(12)
        done = 0
        while done < 10:
            n = rng.randint(1, 5)
            a = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            if exact.det(a) == 0:
                continue
            xs = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                  for _ in range(rng.randint(0, 4))]
            bs = [[exact.dot(row, x) for row in a] for x in xs]
            assert exact.solve_exact(a, bs) == xs
            assert exact.solve_exact(a, bs) == [exact.solve_exact(a, [b])[0] for b in bs]
            done += 1


def gauss_jordan(rows):
    """Reference: (det, inverse columns or None) of a square int matrix by
    Gauss-Jordan elimination over Fraction."""
    n = len(rows)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    d = F(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            d = -d
        p = aug[col][col]
        d *= p
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return d, [[aug[r][n + k] for r in range(n)] for k in range(n)]


@st.composite
def square_int_matrices(draw):
    """Square int matrices up to 6x6; often the last row is a combination
    of the others, so singular matrices come up as well as |det| > 1."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        cs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[k] for c, row in zip(cs, rows)) for k in range(n)]
    return rows


class TestInverseInt:
    @settings(max_examples=300, deadline=None)
    @given(square_int_matrices())
    def test_matches_fraction_gauss_jordan(self, a):
        d, adjugate = exact.inverse_int(a)
        ref_det, ref_inverse = gauss_jordan(a)
        assert d == ref_det and type(d) is int
        if ref_inverse is None:
            assert adjugate is None
        else:
            assert all(type(x) is int for col in adjugate for x in col)
            assert [[F(x, d) for x in col] for col in adjugate] == ref_inverse
        assert exact.det(a) == d

    def test_unimodular_adjugate_is_the_inverse(self):
        assert exact.inverse_int([[0, 1], [-1, -1]]) == (1, [[-1, 1], [-1, 0]])
        assert exact.inverse_int([[2, 0], [0, 3]]) == (6, [[3, 0], [0, 2]])

    def test_non_square(self):
        with pytest.raises(MalformedInputError):
            exact.inverse_int([[1, 2]])


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
        assert exact.det(m) == expected
        # One Fraction row among int rows is still cleared.
        assert exact.det([frac_rows(m)[0]] + m[1:]) == expected

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


class TestAsciiInt:
    @pytest.mark.parametrize("text, value", [
        ("7", 7), (" -7 ", -7), ("+007", 7), ("1" * 4300, int("1" * 4300))])
    def test_accepts_sign_and_ascii_digits(self, text, value):
        assert exact.ascii_int(text) == value

    # ARABIC-INDIC DIGIT THREE and FULLWIDTH DIGIT THREE, which int() reads
    @pytest.mark.parametrize("bad", ["\u0663", "\uff13", "1_0", "1 0", "", "+", "1.0",
                                     "1" * 4301])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            exact.ascii_int(bad)


class TestAsScalar:
    @pytest.mark.parametrize("text, value", [
        ("-3/4", F(-3, 4)), (" 5 ", F(5)), ("+2/6", F(1, 3)), ("007", F(7))])
    def test_accepts_p_and_p_over_q(self, text, value):
        assert exact.as_scalar(text) == value

    @pytest.mark.parametrize("bad", [
        "0.5", "1.5", "1e3", "1e10000000", "1E-9", "1/0", "", "1 / 2", "1/-2",
        "inf", "nan", "1_000", "\u0663", 2.5, True, None])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(MalformedInputError):
            exact.as_scalar(bad)


# The readers as they were with patterns: the reference that the str-method
# readers must match, value for value and message for message.
_RATIONAL = r"([+-]?)([0-9]+)(?:/([0-9]+))?"
_INTEGER = r"[+-]?[0-9]+"


def pattern_as_scalar(x):
    if isinstance(x, F):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return F(x)
    match = re.fullmatch(_RATIONAL, x.strip()) if isinstance(x, str) else None
    if match:
        sign, num, den = match.groups("1")
        num, den = exact.decimal_int(num), exact.decimal_int(den)
        if den:
            return F(-num if sign == "-" else num, den)
    raise MalformedInputError(f"not a rational: {x!r}")


def pattern_ascii_int(text):
    if not re.fullmatch(_INTEGER, text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def outcome(read, text):
    """What read(text) gives: its value, or its exception's type and message."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


LONG = "9" + "0123456789" * 500  # 5001 digits, read through decimal_int
READ_CASES = [
    "0", "7", "-7", "+7", "-0", "+-1", "-+1", "--1", "+", "-", "", " ", "/", "1/", "/2",
    "1/0", "0/5", "-0/5", "1/-2", "1/+2", "-3/4", "+2/6", " 3/4 ", "3 / 4", "3/ 4", "3 /4",
    "1/2/3", "1//2", "007", "1_0", "1.5", "1e3", "0x10", " -7\n", "\t+5\t",
    # ARABIC-INDIC DIGIT THREE, SUPERSCRIPT TWO, FULLWIDTH DIGIT ONE
    "\u0663", "\u00b2", "\uff11", "1\u00b2", "\uff11/2", "1/\u0663",
    # Unicode whitespace: EM SPACE, NO-BREAK SPACE, IDEOGRAPHIC SPACE, FILE SEPARATOR
    "\u20033/4\u3000", "\u00a0-7", "\x1c5\x1c", "3\u2003/4",
    LONG, "-" + LONG, LONG + "/" + LONG[::-1], "1/" + LONG, LONG + "/0", " " + LONG + " ",
]


class TestReadersMatchPatterns:
    @pytest.mark.parametrize("text", READ_CASES)
    def test_fixed_cases(self, text):
        assert outcome(exact.as_scalar, text) == outcome(pattern_as_scalar, text)
        assert outcome(exact.ascii_int, text) == outcome(pattern_ascii_int, text)

    @pytest.mark.parametrize("value", [F(3, 4), 5, -5, True, 2.5, None, b"1"])
    def test_non_strings(self, value):
        assert outcome(exact.as_scalar, value) == outcome(pattern_as_scalar, value)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789+-/ .e_\t\n\u0663\u00b2\uff11\u2003\u00a0\x1c",
                   max_size=12) | st.text(max_size=8))
    def test_any_text(self, text):
        assert outcome(exact.as_scalar, text) == outcome(pattern_as_scalar, text)
        assert outcome(exact.ascii_int, text) == outcome(pattern_ascii_int, text)


def from_digits(digits):
    """The int of a decimal digit string, read 1000 digits at a time."""
    n = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        n = n * 10 ** len(piece) + int(piece)
    return n


class TestScalarStr:
    @pytest.mark.parametrize("value", [F(0), F(7), F(-7), F(-3, 4), F(10 ** 600 - 1, 2)])
    def test_short_values_are_str(self, value):
        assert exact.scalar_str(value) == str(value)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), length=st.integers(1, 14000),
           negative=st.booleans())
    def test_any_length(self, seed, length, negative):
        """Numerators and denominators of any length are written out
        digit for digit, and CPython's digit limit is left as it is."""
        limit = sys.get_int_max_str_digits()
        rng = random.Random(seed)
        digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789")
                                                 for _ in range(length - 1))
        odd = digits[:-1] + "1"
        sign = "-" if negative else ""
        assert exact.scalar_str(F(from_digits(digits)) * (-1) ** negative) == sign + digits
        assert exact.scalar_str(F(from_digits(odd), 2) * (-1) ** negative) \
            == f"{sign}{odd}/2"
        if from_digits(digits) > 1:
            assert exact.scalar_str(F(1, from_digits(digits))) == f"1/{digits}"
        assert sys.get_int_max_str_digits() == limit


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

    @settings(max_examples=100, deadline=None)
    @given(sparse_system())
    def test_rows_are_left_unchanged(self, system):
        """Elimination works on a copy of every row, int rows included."""
        ncols, rows, probes = system
        before = [dict(v) for v in rows + probes]
        space = exact.RowSpace(ncols, rows)
        for v in probes:
            space.contains(v)
            space.normal_form(v)
            space.insert(v)
        assert rows + probes == before

    def test_int_rows_skip_clearing(self, monkeypatch):
        calls = []

        def counting(vec, _real=exact.cleared):
            calls.append(vec)
            return _real(vec)

        monkeypatch.setattr(exact, "cleared", counting)
        space = exact.RowSpace(3, [{0: 2, 2: -4}, {1: 3, 2: 0}])
        assert space.contains({0: 1, 2: -2}) and space.rank == 2 and calls == []
        assert space.normal_form({0: F(1, 2), 1: 1}) == {0: F(1, 2)}
        # An int entry before a Fraction one does not pass the row through.
        assert space.normal_form({0: 1, 1: F(1, 2)}) == {0: F(1)}
        assert len(calls) == 2

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
