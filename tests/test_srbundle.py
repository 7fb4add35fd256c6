"""The divisor-polynomial model: reduction, evaluation, graded dimensions."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import exact
from qtk import srbundle as sr
from qtk.catalog import all_instances, get
from qtk.cli import load_bundle_file
from qtk.errors import DegreeMismatchError, MalformedInputError

import fans
from conftest import exterior_algebra, hirzebruch_ring, shifted_dual_character


def cp3_times_cp3_ring():
    # The product fan of two CP^3 fans, built here from its definition:
    # rays e_1, e_2, e_3, -(e_1+e_2+e_3) of each factor, padded by zeros,
    # and a cone for every 3-subset of each factor's four rays.
    def cp3_rays(shift):
        units = [[int(k == shift + i) for k in range(6)] for i in range(3)]
        return units + [[-int(shift <= k < shift + 3) for k in range(6)]]
    rays = cp3_rays(0) + cp3_rays(3)
    cones = [a + tuple(4 + j for j in b)
             for a in combinations(range(4), 3) for b in combinations(range(4), 3)]
    return sr.BundleRing(cpm.make_pair(6, rays, rays, cones), ba.make_point(),
                         ba.zero_chern(6))


# Poincare polynomial of CP^3 x CP^3, (1 + t^2 + t^4 + t^6)^2, one entry per degree.
CP3_TIMES_CP3_DIMS = [1, 0, 2, 0, 3, 0, 4, 0, 3, 0, 2, 0, 1]


def monomial(ring, expo):
    return {(tuple(expo), ring.base.unit_index()): F(1)}


class TestReduce:
    def test_cp2_square(self, point_ring_cp2):
        ring = point_ring_cp2
        x1 = sr.x_class(ring, 0)
        red = sr.reduce(ring, sr.bel_mul(ring, x1, x1))
        assert red == monomial(ring, (1, 0, 1))  # x1*x3

    def test_hirzebruch_square(self):
        ring = hirzebruch_ring(2)
        x1 = sr.x_class(ring, 0)
        red = sr.reduce(ring, sr.bel_mul(ring, x1, x1))
        # x1^2 = a*t*x1 after dropping the non-face x1*x2
        assert red == {((1, 0), ring.base.names.index("t")): F(2)}

    def test_squarefree_face_monomials_are_fixed(self):
        for inst in all_instances():
            ring = inst.ring()
            for face in cpm.faces(inst.cp):
                expo = tuple(int(i in face) for i in range(inst.cp.s))
                el = monomial(ring, expo)
                assert sr.reduce(ring, el) == el

    def test_nonface_dies(self, point_ring_cp1):
        ring = point_ring_cp1
        el = monomial(ring, (1, 1))  # x1*x2 spans no cone
        assert sr.reduce(ring, el) == {}


class TestEvaluateTop:
    def test_cp2_transverse_cone(self, point_ring_cp2):
        ring = point_ring_cp2
        el = monomial(ring, (1, 1, 0))
        assert sr.evaluate_top(ring, el) == 1

    def test_cp2_self_intersection(self, point_ring_cp2):
        ring = point_ring_cp2
        assert sr.evaluate_top(ring, monomial(ring, (2, 0, 0))) == 1

    def test_hirzebruch_self_intersections(self):
        for a in (0, 1, 2, 3):
            ring = hirzebruch_ring(a)
            assert sr.evaluate_top(ring, monomial(ring, (2, 0))) == a
            assert sr.evaluate_top(ring, monomial(ring, (0, 2))) == -a

    def test_degree_mismatch(self, point_ring_cp2):
        ring = point_ring_cp2
        with pytest.raises(DegreeMismatchError):
            sr.evaluate_top(ring, monomial(ring, (1, 0, 0)))

    def test_flip_signs(self):
        ring = get("cp1-flip").ring()
        assert sr.evaluate_top(ring, monomial(ring, (1, 0))) == 1
        assert sr.evaluate_top(ring, monomial(ring, (0, 1))) == -1


class TestIntersectionNumber:
    def test_cp2_sum_squared(self, point_ring_cp2):
        ring = point_ring_cp2
        s = sr.rho(ring, [1, 1, 1])
        assert sr.intersection_number(ring, [s, s]) == 9

    def test_hirzebruch_polynomial(self):
        for a in (1, 3):
            ring = hirzebruch_ring(a)
            rng = random.Random(a)
            for _ in range(6):
                h1 = F(rng.randint(-8, 8), rng.randint(1, 3))
                h2 = F(rng.randint(-8, 8), rng.randint(1, 3))
                r = sr.rho(ring, [h1, h2])
                val = sr.intersection_number(ring, [r, r], ring.base.unit())
                assert val == a * (h1 ** 2 - h2 ** 2)

    def test_odd_total_degree_rejected(self, point_ring_cp2):
        ring = point_ring_cp2
        r = sr.rho(ring, [1, 1, 1])
        with pytest.raises(DegreeMismatchError):
            sr.intersection_number(ring, [r])


# The Betti numbers of each catalog family, the same at every parameter value.
CATALOG_BETTI = {
    "cp1": [1, 0, 1],
    "cp2": [1, 0, 1, 0, 1],
    "cp3": [1, 0, 1, 0, 1, 0, 1],
    "cp1xcp1": [1, 0, 2, 0, 1],
    "hirzebruch-toric": [1, 0, 2, 0, 1],
    "cp1-flip": [1, 0, 1],
    "cp2-twist": [1, 0, 1, 0, 1],
    "hirzebruch": [1, 0, 2, 0, 1],
    "cp1-bundle-over-cp2": [1, 0, 2, 0, 2, 0, 1],
    "cp1xcp1-bundle": [1, 0, 3, 0, 3, 0, 1],
    "cp2-bundle-over-cp1": [1, 0, 2, 0, 2, 0, 1],
}


class TestBetti:
    def test_expected_dims(self):
        instances = all_instances()
        assert {inst.name for inst in instances} == set(CATALOG_BETTI)
        for inst in instances:
            assert sr.betti(inst.ring()) == CATALOG_BETTI[inst.name], inst.label

    def test_leray_hirsch_count(self):
        for inst in all_instances():
            ring = inst.ring()
            total = sum(sr.betti(ring))
            assert total == ring.base.dim * len(inst.cp.max_cones), inst.label

    def test_point_base_cp1(self, point_ring_cp1):
        assert sr.betti(point_ring_cp1) == [1, 0, 1]

    def test_cp3_times_cp3_is_kunneth(self):
        assert sr.betti(cp3_times_cp3_ring()) == CP3_TIMES_CP3_DIMS


class TestCherneq:
    def test_relations_pair_to_zero(self):
        # c(lambda) lifted equals sum <lam_i, lambda> x_i against everything:
        # every top-degree row of the full relation set evaluates to zero
        for inst in all_instances():
            ring = inst.ring()
            basis, rows = sr.relation_vectors(ring, ring.total_degree)
            assert len(rows) == inst.cp.n and all(rows), inst.label
            for row in (row for stage in rows for row in stage):
                el = {basis[col]: F(c) for col, c in row.items()}
                assert sr.evaluate_top(ring, el) == 0, inst.label


# Every catalog ring and every pinned generated fan and bundle; all are
# valid pairs.
STAGED_RINGS = [(inst.label, inst.ring()) for inst in all_instances()] + [
    (name, load_bundle_file(fans.bundle_path(name)).ring()) for name in sorted(fans.PINNED)]


def staged_spaces(ring, monkeypatch):
    """Per degree 0..top+2: the walk's basis and span, the number of rows
    the walk built, and the span of the full relation set."""
    built, real = [], sr.relation_vectors

    def counting(ring, d, positions=None):
        basis, rows = real(ring, d, positions)
        built.append(sum(map(len, rows)))
        return basis, rows

    monkeypatch.setattr(sr, "relation_vectors", counting)
    for d, (basis, span) in enumerate(sr._relation_spaces(ring, ring.total_degree + 2)):
        full = [row for stage in real(ring, d)[1] for row in stage]
        yield d, basis, span, built[d], full


@pytest.mark.parametrize("ring", [ring for _, ring in STAGED_RINGS],
                         ids=[label for label, _ in STAGED_RINGS])
class TestStagedRelations:
    def test_staged_span_is_the_full_span(self, ring, monkeypatch):
        for d, basis, span, _, full in staged_spaces(ring, monkeypatch):
            reference = exact.RowSpace(len(basis), full)
            assert span.rank == reference.rank, d
            assert span.free_columns() == reference.free_columns(), d
            assert all(span.contains(row) for row in full), d

    def test_every_staged_row_raises_the_rank(self, ring, monkeypatch):
        # The theta_a are a regular sequence on a valid pair.
        for d, _, span, built, _ in staged_spaces(ring, monkeypatch):
            assert built == span.rank, d


class TestChoiceIndependence:
    def test_alternative_dual_characters_give_equal_pairings(self, monkeypatch):
        for inst in all_instances():
            ring = inst.ring()
            cp = ring.cp
            for a in range(cp.s):
                xa = sr.x_class(ring, a)
                el = sr.bel_mul(ring, xa, xa)
                nf_default = sr.reduce(ring, el)
                with monkeypatch.context() as m:
                    m.setattr(sr, "dual_character", shifted_dual_character)
                    nf_shifted = sr.reduce(ring, el)
                # normal forms may differ term by term, but pairings agree
                for cexpo, cidx in sr.graded_basis(ring, ring.total_degree - 4):
                    other = {(cexpo, cidx): F(1)}
                    lhs = sr.evaluate_top(ring, sr.bel_mul(ring, nf_default, other))
                    rhs = sr.evaluate_top(ring, sr.bel_mul(ring, nf_shifted, other))
                    assert lhs == rhs, (inst.label, a, cexpo, cidx)


class TestQuotientAlgebra:
    def test_dims_match_betti(self):
        for inst in all_instances():
            ring = inst.ring()
            qa = sr.quotient_algebra(ring)
            dims = sr.betti(ring)
            for d, dim in enumerate(dims):
                assert len(qa.indices_of_degree(d)) == dim, (inst.label, d)

    def test_poincare_duality_everywhere(self):
        # the quotient validates, which includes non-degenerate pairing
        for inst in all_instances():
            qa = sr.quotient_algebra(inst.ring())
            assert qa.validate().ok, inst.label

    def test_cp3_times_cp3_quotient(self):
        qa = sr.quotient_algebra(cp3_times_cp3_ring())
        assert qa.validate().ok
        assert [len(qa.indices_of_degree(d)) for d in range(13)] == CP3_TIMES_CP3_DIMS

    def test_zero_lattice_vectors_do_not_vanish_above_top(self):
        # Two rays with zero lattice vectors over a point: no linear relation
        # touches x1 or x2, so x1^2 survives in degree 4 above top = 2.
        cp = cpm.make_pair(1, [(1,), (-1,)], [(0,), (0,)], [(0,), (1,)])
        ring = sr.BundleRing(cp, ba.make_point(), ba.zero_chern(1))
        assert sr.betti(ring) == [1, 0, 2]
        with pytest.raises(MalformedInputError,
                           match="does not vanish above top degree"):
            sr.quotient_algebra(ring)

    def test_cp2_quotient_is_truncated_line(self, point_ring_cp2):
        qa = sr.quotient_algebra(point_ring_cp2)
        assert [len(qa.indices_of_degree(d)) for d in range(5)] == [1, 0, 1, 0, 1]
        gen = {qa.indices_of_degree(2)[0]: F(1)}
        sq = qa.mul(gen, gen)
        assert qa.integrate(sq) == 1


# ---------------------------------------------------------------------------
# Ring laws of the flat product, checked after reduction.

# Every catalog ring, cp2 over Lambda(e), and cp1 over Lambda(e, f), where
# e*f = -f*e makes the Koszul signs visible; zero Chern data on the last two.
LAW_RINGS = [(inst.label, inst.ring()) for inst in all_instances()] + [
    ("cp2-over-exterior-e", sr.BundleRing(get("cp2").cp, exterior_algebra("e"), ba.zero_chern(2))),
    ("cp1-over-exterior-ef", sr.BundleRing(
        get("cp1").cp, ba.tensor(exterior_algebra("e"), exterior_algebra("f")), ba.zero_chern(1))),
]


def _draw_element(data, ring):
    terms = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, 1), min_size=ring.cp.s, max_size=ring.cp.s).map(tuple),
        st.integers(0, ring.base.dim - 1),
        st.sampled_from([F(1), F(-1), F(2), F(-1, 3), F(3, 2)])), min_size=1, max_size=3))
    el = {}
    for expo, idx, c in terms:
        el = ba.el_add(el, {(expo, idx): c})
    return el


def _parity_parts(ring, a):
    odd = {key: c for key, c in a.items() if ring.base.degrees[key[1]] % 2}
    even = {key: c for key, c in a.items() if key not in odd}
    return even, odd


@pytest.mark.parametrize("ring", [r for _, r in LAW_RINGS], ids=[n for n, _ in LAW_RINGS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flat_product_ring_laws(ring, data):
    a, b, c = (_draw_element(data, ring) for _ in range(3))
    mul = lambda u, v: sr.bel_mul(ring, u, v)
    red = lambda u: sr.reduce(ring, u)
    one = sr.one(ring)
    assert red(mul(one, a)) == red(a) == red(mul(a, one))
    assert red(mul(mul(a, b), c)) == red(mul(a, mul(b, c)))
    # a*b = sum (-1)^(|a_p||b_q|) b_q*a_p = b*a_even + (b_even - b_odd)*a_odd
    a_even, a_odd = _parity_parts(ring, a)
    b_even, b_odd = _parity_parts(ring, b)
    swapped = ba.el_add(mul(b, a_even), mul(ba.el_add(b_even, ba.el_scale(b_odd, -1)), a_odd))
    assert red(mul(a, b)) == red(swapped)
