"""Piecewise polynomials: Courant basis, graded dimensions, quotients."""

import itertools
from fractions import Fraction as F

import pytest

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import exact
from qtk import ppbrion as pp
from qtk import srbundle as sr
from qtk.catalog import all_instances, get
from qtk.errors import MalformedInputError, PairMismatchError
from qtk.poly import MultiPoly, weighted_monomials
from qtk.srbundle import BundleRing


class TestCourantBasis:
    def test_cp1_shape(self, cp1):
        phi1, phi2 = pp.courant_basis(cp1)
        assert phi1.polys == (MultiPoly.variable(1, 0), MultiPoly.zero(1))
        # second ray has lattice vector -1, so its dual coordinate is -x
        assert phi2.polys == (MultiPoly.zero(1), MultiPoly.linear_form([-1]))

    def test_cp2_first_function(self, cp2):
        phi1 = pp.courant_basis(cp2)[0]
        assert phi1.polys[0] == MultiPoly.variable(2, 0)  # on cone {1,2}
        assert phi1.polys[1] == MultiPoly.zero(2)  # on cone {2,3}

    def test_value_one_at_own_ray(self):
        for inst in all_instances():
            cp = inst.cp
            basis = pp.courant_basis(cp)
            for i, phi in enumerate(basis):
                for ci, cone in enumerate(cp.max_cones):
                    for j in cone:
                        expected = F(int(j == i))
                        assert phi.polys[ci].evaluate(cp.lam[j]) == expected

    def test_sum_is_all_ones_support_function(self, cp2):
        basis = pp.courant_basis(cp2)
        for ci, cone in enumerate(cp2.max_cones):
            total = MultiPoly.zero(cp2.n)
            for phi in basis:
                total = total + phi.polys[ci]
            for j in cone:
                assert total.evaluate(cp2.lam[j]) == 1

    def test_courant_functions_span_degree_one(self):
        for inst in all_instances():
            cp = inst.cp
            vectors = [pp._to_vector(phi) for phi in pp.courant_basis(cp)]
            assert exact.rank(vectors, pp._coefficient_layout(cp, 1)[2]) == cp.s
            assert pp.pp_graded_dim(cp, 1) == cp.s, inst.label


class TestMultiply:
    def test_by_zero(self, cp1):
        phi1 = pp.courant_basis(cp1)[0]
        zero = pp.PPElement(cp1, 1, tuple(MultiPoly.zero(1) for _ in cp1.max_cones))
        prod = pp.multiply(phi1, zero)
        assert all(not g for g in prod.polys)

    def test_cp1_square(self, cp1):
        phi1 = pp.courant_basis(cp1)[0]
        sq = pp.multiply(phi1, phi1)
        assert sq.polys == (MultiPoly.monomial((2,)), MultiPoly.zero(1))

    def test_global_character_square(self, cp2):
        chi = pp.global_character(cp2, [1, 2])
        sq = pp.multiply(chi, chi)
        expected = MultiPoly.linear_form([1, 2]) ** 2
        assert all(g == expected for g in sq.polys)

    def test_pair_mismatch(self, cp1, cp2):
        with pytest.raises(PairMismatchError):
            pp.multiply(pp.courant_basis(cp1)[0],
                        pp.global_character(cp2, [1, 0]))


class TestCompatibility:
    def test_incompatible_tuple_detected(self, cp2):
        polys = [MultiPoly.variable(2, 0), MultiPoly.zero(2), MultiPoly.zero(2)]
        el = pp.PPElement(cp2, 1, tuple(polys))
        # x1 restricted to the facet spans of cone {1,2} does not vanish
        assert not pp.is_compatible(el)

    def test_character_decomposes_in_courant_basis(self):
        for inst in all_instances():
            cp = inst.cp
            basis = pp.courant_basis(cp)
            for a in range(cp.n):
                chi_vec = [F(int(r == a)) for r in range(cp.n)]
                chi = pp.global_character(cp, chi_vec)
                for ci in range(len(cp.max_cones)):
                    acc = MultiPoly.zero(cp.n)
                    for i in range(cp.s):
                        coeff = cp.lam[i][a]
                        if coeff:
                            acc = acc + basis[i].polys[ci] * coeff
                    assert acc == chi.polys[ci], (inst.label, a, ci)


class TestGradedDims:
    def test_degree_zero_is_constants(self):
        for inst in all_instances():
            assert pp.pp_graded_dim(inst.cp, 0) == 1, inst.label

    def test_spec_examples(self, cp1, cp2):
        assert pp.pp_graded_dim(cp1, 1) == 2
        assert pp.pp_graded_dim(cp2, 1) == 3

    def test_basis_elements_are_compatible(self, cp2):
        for d in (1, 2):
            for el in pp.pp_basis(cp2, d):
                assert pp.is_compatible(el)


class TestBrionQuotient:
    def test_cp1(self, cp1):
        assert pp.brion_quotient_dims(cp1) == [1, 1]

    def test_cp2(self, cp2):
        assert pp.brion_quotient_dims(cp2) == [1, 1, 1]

    def test_hirzebruch_toric(self):
        cp = get("hirzebruch-toric?m=1").cp
        assert pp.brion_quotient_dims(cp) == [1, 2, 1]

    def test_matches_point_base_betti_everywhere(self):
        for inst in all_instances():
            ring = get_point_ring(inst)
            dims = sr.betti(ring)
            quot = pp.brion_quotient_dims(inst.cp)
            interleaved = []
            for d in quot:
                interleaved.extend([d, 0])
            assert interleaved[:len(dims)] == dims, inst.label


def get_point_ring(inst):
    return BundleRing(inst.cp, ba.make_point(), ba.zero_chern(inst.cp.n))


class TestBrionBundle:
    def test_point_base_reduces_to_quotient(self, point_ring_cp2, cp2):
        dims = pp.brion_bundle_dims(point_ring_cp2)
        assert dims == [1, 0, 1, 0, 1]

    def test_matches_betti_everywhere(self, all_instances):
        for inst in all_instances:
            ring = inst.ring()
            assert pp.brion_bundle_dims(ring) == sr.betti(ring), inst.label

    def test_trivial_bundle_kunneth(self):
        ring = get("hirzebruch?a=0").ring()
        assert pp.brion_bundle_dims(ring) == [1, 0, 2, 0, 1]

    def test_dimension_four_fans_match_betti(self):
        e = [tuple(int(r == i) for r in range(4)) for i in range(4)]
        # 4-stage Bott tower: rays e_i and -e_i + sum_{j>i} a_ij e_j, one of
        # each pair per cone.
        partners = [(-1, 1, 0, 2), (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1)]
        bott = cpm.toric_pair(e + partners, [
            tuple(sorted(i + 4 * pick for i, pick in enumerate(picks)))
            for picks in itertools.product((0, 1), repeat=4)])
        # cp2 x cp2: the cp2 fan in each coordinate pair.
        cp2_cones = [(0, 1), (1, 2), (0, 2)]
        cp2xcp2 = cpm.toric_pair(
            [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)],
            [c1 + tuple(3 + j for j in c2) for c1 in cp2_cones for c2 in cp2_cones])
        for cp, expected in ((bott, [1, 0, 4, 0, 6, 0, 4, 0, 1]),
                             (cp2xcp2, [1, 0, 2, 0, 3, 0, 2, 0, 1])):
            ring = BundleRing(cp, ba.make_point(), ba.zero_chern(4))
            assert sr.betti(ring) == expected
            assert pp.brion_bundle_dims(ring) == expected


class TestLinearPaths:
    """The compatibility rows and the character index maps against the
    polynomial definitions they replace."""

    def test_index_shift_products_equal_multiply(self):
        # multiply() checks each product against the rows of its degree, so
        # this is also the per-product reference for _character_shifts' proof.
        for inst in all_instances():
            cp = inst.cp
            for d in range(1, cp.n + 1):
                for a, shift in enumerate(pp._character_shifts(cp, d)):
                    char = pp.global_character(cp, [int(r == a) for r in range(cp.n)])
                    for q, el in zip(pp._pp_kernel(cp, d - 1), pp.pp_basis(cp, d - 1)):
                        expected = pp._to_vector(pp.multiply(char, el))
                        assert {shift[j]: x for j, x in q.items()} == expected, \
                            (inst.label, d, a)

    def test_restriction_rows_equal_substitution(self):
        for inst in all_instances():
            cp = inst.cp
            for d in range(cp.n + 1):
                monos = weighted_monomials((1,) * cp.n, d)
                per = len(monos)
                expected = []
                for facet, c1, c2 in pp.facet_pairs(cp):
                    forms = [MultiPoly.linear_form([cp.lam[j][r] for j in facet])
                             if facet else MultiPoly.zero(0) for r in range(cp.n)]
                    restricted = [MultiPoly.monomial(m, 1).substitute(forms) for m in monos]
                    for sm in weighted_monomials((1,) * len(facet), d):
                        row = {}
                        for k, g in enumerate(restricted):
                            c = g.coefficient(sm)
                            if c:
                                row[c1 * per + k] = c
                                row[c2 * per + k] = -c
                        if row:
                            expected.append(row)
                assert pp._compatibility_rows(cp, d) == tuple(expected), (inst.label, d)

    def test_changed_kernel_vector_is_incompatible(self):
        for inst in all_instances():
            cp = inst.cp
            for d in range(1, cp.n + 1):
                q = pp._pp_kernel(cp, d)[0]
                assert pp.is_compatible(pp._from_vector(cp, d, q))
                # every coefficient that some row reads (cp1 has no rows for d > 0)
                for j in {j for row in pp._compatibility_rows(cp, d) for j in row}:
                    changed = dict(q)
                    changed[j] = changed.get(j, 0) + 1
                    assert not pp.is_compatible(pp._from_vector(cp, d, changed)), inst.label

    def test_shift_check_rejects_an_extra_row(self, cp2, monkeypatch):
        # Requiring coefficient 0 (x_2^2 on the first cone) to vanish at
        # degree 2 is not implied by degree 1, where x_2 is compatible.
        rows = pp._compatibility_rows
        monkeypatch.setattr(pp, "_compatibility_rows",
                            lambda cp, d: rows(cp, d) + (({0: 1},) if d == 2 else ()))
        pp._character_shifts.cache_clear()
        with pytest.raises(MalformedInputError, match="product violates facet compatibility"):
            pp._character_shifts(cp2, 2)

    def test_quotient_dims_are_point_bundle_betti(self):
        for inst in all_instances():
            cp = inst.cp
            even = sr.betti(get_point_ring(inst))[0::2]
            for m in range(-1, 2 * cp.n + 2):
                assert pp.brion_quotient_dims(cp, m) == even[:m // 2 + 1], (inst.label, m)
