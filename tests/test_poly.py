"""Sparse polynomials and powers of linear forms."""

import random
from fractions import Fraction as F

import pytest

from qtk import ppbrion as pp
from qtk.catalog import all_instances
from qtk.errors import MalformedInputError
from qtk.invsys import Potential
from qtk.poly import MultiPoly, power_of_linear_forms, weighted_monomials


class TestArithmetic:
    def test_ring_identities(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        assert (x + y) * (x - y) == x ** 2 - y ** 2
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
        assert x - x == MultiPoly.zero(2)
        assert not (x - x)

    def test_no_zero_terms_stored(self):
        x = MultiPoly.variable(1, 0)
        assert (x - x).terms == {}
        assert (x * 0).terms == {}

    def test_evaluate(self):
        p = MultiPoly(2, {(2, 1): F(3), (0, 0): F(-1)})
        assert p.evaluate([F(2), F(5)]) == 3 * 4 * 5 - 1

    def test_substitute_linear(self):
        # f(x, y) = x*y under x -> u+v, y -> u-v
        f = MultiPoly.monomial((1, 1))
        u_plus_v = MultiPoly.linear_form([1, 1])
        u_minus_v = MultiPoly.linear_form([1, -1])
        g = f.substitute([u_plus_v, u_minus_v])
        u = MultiPoly.variable(2, 0)
        v = MultiPoly.variable(2, 1)
        assert g == u ** 2 - v ** 2

    def test_partial_and_apply(self):
        p = MultiPoly(2, {(3, 1): F(1)})
        assert p.partial(0) == MultiPoly(2, {(2, 1): F(3)})
        # d^(2,0) x^3 y = 3!/1! x y
        assert p.apply_derivative((2, 0)) == MultiPoly(2, {(1, 1): F(6)})
        assert p.apply_derivative((4, 0)) == MultiPoly.zero(2)

    @pytest.mark.parametrize("expo", [(1, 0, 0), (-1, 0), (1,), (1.0, 0), (True, "1")])
    def test_apply_derivative_checks_its_exponent(self, expo):
        # one non-negative int per variable: a longer exponent used to be
        # truncated, a negative entry gave an antiderivative
        with pytest.raises(MalformedInputError, match="bad exponent"):
            MultiPoly(2, {(2, 1): F(3)}).apply_derivative(expo)

    @pytest.mark.parametrize("index", [2, -1, 1.0])
    def test_partial_checks_its_index(self, index):
        with pytest.raises(MalformedInputError, match="no variable"):
            MultiPoly(2, {(2, 1): F(3)}).partial(index)

    def test_ring_results_are_clean(self):
        """Results built without the constructor's checks still hold only
        int-tuple keys of the right length and nonzero Fraction values."""
        x = MultiPoly.variable(2, 0)
        p = MultiPoly(2, {(3, 1): 2, (0, 2): F(-1, 2)})
        results = [p + x, x + 1, -p, p - p, p * x, p * 3, 3 * p, p * F(1, 3),
                   p * 0, p / 4, p ** 2, p.partial(0), p.partial(1),
                   p.apply_derivative((1, 1)), p.apply_derivative((0, 0))]
        for q in results:
            assert q.nvars == 2
            for expo, c in q.terms.items():
                assert type(c) is F and c
                assert len(expo) == 2 and all(type(e) is int and e >= 0 for e in expo)
            assert MultiPoly(2, q.terms) == q

    def test_int_terms_stay_int(self):
        """Ring operations keep int coefficients int; the constructor, the
        reader of outside terms, still makes Fractions.  The cycle rows of
        ppbrion, built by an integer recurrence, hold ints too."""
        p = MultiPoly._trusted(2, {(1, 0): 2, (0, 1): -3})
        q = MultiPoly._trusted(2, {(1, 1): 5, (0, 0): 1})
        for r in (p + q, p - q, -p, p * q, p * 3, 3 * p, p * p * q, p ** 3, p.partial(0),
                  p.apply_derivative((1, 0))):
            assert r and all(type(c) is int for c in r.terms.values()), r
        assert all(type(c) is F for c in MultiPoly(2, p.terms).terms.values())
        assert all(type(c) is F for c in (p * F(1, 2)).terms.values())
        for inst in all_instances():
            for entry in pp._spanning_tree(inst.cp)[2]:
                for d, rows in enumerate(pp._facet_rows(inst.cp, entry, inst.cp.n), 1):
                    for row in rows.values():
                        assert all(type(c) is int for c in row.values()), (inst.label, d)

    def test_weighted_degrees(self):
        p = MultiPoly(2, {(1, 1): F(1)})
        assert Potential(("x", "y"), (2, 4), p, 6).degree == 6
        with pytest.raises(MalformedInputError, match="quasi-homogeneous"):
            Potential(("x", "y"), (2, 4), p, 4)

    def test_lex_iteration_is_sorted(self):
        p = MultiPoly(2, {(1, 0): F(1), (0, 1): F(1), (0, 0): F(1)})
        assert [e for e, _ in p.items()] == [(0, 0), (0, 1), (1, 0)]

    def test_monomial_enumeration(self):
        assert weighted_monomials((1, 1), 2) == [(0, 2), (1, 1), (2, 0)]
        assert weighted_monomials((2, 4), 6) == [(1, 1), (3, 0)]
        assert weighted_monomials((), 0) == [()]
        assert weighted_monomials((), 2) == []


class TestPowersOfLinearForms:
    def test_pure_power_passthrough(self):
        out = power_of_linear_forms((2,))
        assert out == [(F(1), (F(1),))]

    def test_xy_decomposition(self):
        out = power_of_linear_forms((1, 1))
        assert sorted(c for c, _ in out) == [F(-1, 4), F(1, 4)]
        self._assert_reexpands((1, 1), out)

    def test_xyz_eight_signed_cubes(self):
        out = power_of_linear_forms((1, 1, 1))
        # folded to eps_1 = +1: 4 distinct cubes
        assert len(out) == 4
        self._assert_reexpands((1, 1, 1), out)

    def test_random_reexpansion(self):
        rng = random.Random(4)
        for _ in range(20):
            nvars = rng.randint(1, 3)
            alpha = tuple(rng.randint(0, 2) for _ in range(nvars))
            if sum(alpha) == 0:
                continue
            self._assert_reexpands(alpha, power_of_linear_forms(alpha))

    @staticmethod
    def _assert_reexpands(alpha, decomposition):
        nvars = len(alpha)
        d = sum(alpha)
        acc = MultiPoly.zero(nvars)
        for coeff, form in decomposition:
            acc = acc + MultiPoly.linear_form(list(form)) ** d * coeff
        assert acc == MultiPoly.monomial(alpha)
