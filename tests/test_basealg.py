"""Base algebras: constructors, validation, mutants, the classifying map."""

from fractions import Fraction as F

import pytest

from qtk import basealg as ba
from qtk.catalog import all_instances
from qtk.errors import DegreeMismatchError, MalformedInputError
from qtk.poly import MultiPoly

from conftest import two_character_cases


class TestConstructors:
    def test_point(self):
        pt = ba.make_point()
        assert pt.dim == 1 and pt.top == 0
        assert pt.integrate(pt.unit()) == 1
        assert pt.mul(pt.unit(), pt.unit()) == pt.unit()
        assert pt.validate().ok

    def test_cp1(self, base_cp1):
        assert base_cp1.names == ("1", "t")
        assert base_cp1.mul(base_cp1.element("t"), base_cp1.element("t")) == {}
        assert base_cp1.integrate(ba.el_scale(base_cp1.element("t"), 5)) == 5
        assert base_cp1.integrate(base_cp1.unit()) == 0

    def test_cp2(self, base_cp2):
        t = base_cp2.element("t")
        t2 = base_cp2.mul(t, t)
        assert t2 == base_cp2.element("t2")
        assert base_cp2.integrate(t2) == 1
        assert base_cp2.integrate(ba.el_add(t, t2)) == 1
        assert base_cp2.validate().ok

    def test_cp3_validates(self):
        assert ba.make_cp(3).validate().ok

    def test_tensor_unit_law_and_kunneth(self, base_cp1):
        pt = ba.make_point()
        prod = ba.tensor(pt, base_cp1)
        assert prod.dim == base_cp1.dim
        assert prod.validate().ok
        uv = ba.tensor(ba.make_cp(1, "u"), ba.make_cp(1, "v"))
        assert sorted(uv.names) == ["1", "u", "uv", "v"]
        assert len(uv.indices_of_degree(2)) == 2
        assert uv.validate().ok
        # (u x 1)(1 x v) = u x v pairs to 1
        u, v = uv.element("u"), uv.element("v")
        assert uv.integrate(uv.mul(u, v)) == 1

    def test_tensor_koszul_sign(self):
        # one odd generator on each side: e*f = -f*e
        def odd_line(gen):
            return ba.GradedBaseAlgebra(
                ["1", gen], [0, 1],
                {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}},
                [0, 1])

        assert odd_line("e").validate().ok
        prod = ba.tensor(odd_line("e"), odd_line("f"))
        assert prod.validate().ok
        e, f = prod.element("e"), prod.element("f")
        assert prod.mul(e, f) == ba.el_scale(prod.mul(f, e), -1)
        assert prod.mul(e, e) == {}
        assert prod.integrate(prod.mul(e, f)) == 1


class TestValidatorMutants:
    def test_unit_mutant(self):
        # two degree-0 elements
        alg = ba.GradedBaseAlgebra(
            ["1", "e"], [0, 0],
            {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}},
            [1, 0])
        report = alg.validate()
        assert not report.ok
        assert not [c for c in report.checks if c.name == "unit"][0].passed

    def test_commutativity_mutant(self, base_cp1):
        products = {k: dict(v) for k, v in base_cp1.products.items()}
        products[(1, 0)] = {1: F(2)}  # t*1 = 2t but 1*t = t
        alg = ba.GradedBaseAlgebra(base_cp1.names, base_cp1.degrees, products,
                                   base_cp1.fundamental)
        report = alg.validate()
        assert not [c for c in report.checks if c.name == "graded_commutative"][0].passed

    def test_associativity_mutant(self):
        cp4 = ba.make_cp(4)
        products = {k: dict(v) for k, v in cp4.products.items()}
        products[(2, 2)] = {4: F(2)}  # t2*t2 = 2*t4, both association orders differ
        alg = ba.GradedBaseAlgebra(cp4.names, cp4.degrees, products, cp4.fundamental)
        report = alg.validate()
        assert not [c for c in report.checks if c.name == "associative"][0].passed

    def test_pairing_mutant(self, base_cp2):
        fundamental = [F(0)] * base_cp2.dim  # kill the functional
        alg = ba.GradedBaseAlgebra(base_cp2.names, base_cp2.degrees,
                                   base_cp2.products, fundamental)
        report = alg.validate()
        assert not [c for c in report.checks if c.name == "poincare_pairing"][0].passed

    def test_graded_product_mutant(self, base_cp1):
        products = {k: dict(v) for k, v in base_cp1.products.items()}
        products[(1, 1)] = {1: F(1)}  # t*t = t lands in the wrong degree
        alg = ba.GradedBaseAlgebra(base_cp1.names, base_cp1.degrees, products,
                                   base_cp1.fundamental)
        report = alg.validate()
        assert not [c for c in report.checks if c.name == "graded_products"][0].passed


class TestChern:
    def test_degree_check(self, base_cp1):
        with pytest.raises(MalformedInputError):
            ba.make_chern(base_cp1, 1, [{0: F(1)}])  # unit is degree 0

    def test_evaluate_linear(self, base_cp2):
        ch = ba.make_chern(base_cp2, 2, [{1: F(2)}, {1: F(-1)}])
        assert ch.evaluate([1, 0]) == {1: F(2)}
        assert ch.evaluate([1, 2]) == {}
        assert ch.evaluate([F(1, 2), 0]) == {1: F(1)}

    def test_json_roundtrip(self, base_cp2):
        ch = ba.make_chern(base_cp2, 2, [{1: F(2)}, {1: F(-1)}])
        again = ba.chern_from_json(base_cp2, ba.chern_to_json(base_cp2, ch))
        assert again == ch


class TestFGamma:
    def test_point_base_constant(self):
        pt = ba.make_point()
        f = ba.f_gamma(pt, ba.zero_chern(2), pt.unit(), 0)
        assert f == MultiPoly.constant(2, 1)

    def test_cp1_base_linear(self, base_cp1):
        ch = ba.make_chern(base_cp1, 1, [{1: F(7)}])
        f = ba.f_gamma(base_cp1, ch, base_cp1.unit(), 1)
        assert f == MultiPoly.linear_form([7])

    def test_product_base_quadratic(self):
        uv = ba.tensor(ba.make_cp(1, "u"), ba.make_cp(1, "v"))
        image = ba.el_add(uv.element("u"), uv.element("v"))
        ch = ba.make_chern(uv, 1, [image])
        f = ba.f_gamma(uv, ch, uv.unit(), 2)
        assert f == MultiPoly(1, {(2,): F(2)})

    def test_homogeneity_and_linearity(self, base_cp2):
        ch = ba.make_chern(base_cp2, 1, [{1: F(3)}])
        t = base_cp2.element("t")
        f1 = ba.f_gamma(base_cp2, ch, t, 1)
        assert f1.is_homogeneous(1)
        f2 = ba.f_gamma(base_cp2, ch, ba.el_scale(t, F(5, 2)), 1)
        assert f2 == f1 * F(5, 2)

    def test_degree_mismatch(self, base_cp1):
        ch = ba.make_chern(base_cp1, 1, [{1: F(1)}])
        with pytest.raises(DegreeMismatchError):
            ba.f_gamma(base_cp1, ch, base_cp1.element("t"), 1)
        with pytest.raises(DegreeMismatchError):
            ba.f_gamma(base_cp1, ch, base_cp1.unit(), 2)


def chern_power_by_repeated_product(alg, chern, i):
    """Reference for c(x)^i: c(x) with MultiPoly coefficients, multiplied
    out i times through the structure constants."""
    cx = {}
    for a in range(chern.n):
        for k, c in chern.images[a]:
            cx[k] = cx.get(k, MultiPoly.zero(chern.n)) + MultiPoly.variable(chern.n, a) * c
    power = {alg.unit_index(): MultiPoly.constant(chern.n, 1)}
    for _ in range(i):
        out = {}
        for j, p in power.items():
            for k, q in cx.items():
                for m, c in alg.products.get((j, k), {}).items():
                    out[m] = out.get(m, MultiPoly.zero(chern.n)) + p * q * c
        power = {m: p for m, p in out.items() if p}
    return power


CHERN_CASES = [(inst.label, inst.base, inst.chern) for inst in all_instances()] \
    + two_character_cases()


@pytest.mark.parametrize("case", CHERN_CASES, ids=lambda case: case[0])
def test_chern_power_equals_repeated_product(case):
    _, alg, chern = case
    for i in range(alg.top // 2 + 1):
        assert dict(ba.chern_power_symbolic(alg, chern, i)) \
            == chern_power_by_repeated_product(alg, chern, i)


class TestJsonRoundtrip:
    def test_algebra_roundtrip(self, base_cp2):
        again = ba.from_json(ba.to_json(base_cp2))
        assert again.names == base_cp2.names
        assert again.degrees == base_cp2.degrees
        assert again.products == base_cp2.products
        assert again.fundamental == base_cp2.fundamental
