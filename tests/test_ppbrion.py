"""Piecewise polynomials: Courant basis, graded dimensions, quotients."""

import itertools
import math
from fractions import Fraction as F

import pytest

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import exact
from qtk import ppbrion as pp
from qtk import srbundle as sr
from qtk.catalog import all_instances, get
from qtk.cli import load_bundle_file
from qtk.errors import MalformedInputError, PairMismatchError
from qtk.poly import MultiPoly, weighted_monomials
from qtk.srbundle import BundleRing

import fans
from conftest import clear_caches


def global_character(cp, chi):
    """The global linear function of a character, same on every cone."""
    g = MultiPoly.linear_form([F(c) for c in chi])
    return pp.PPElement(cp, 1, tuple(g for _ in cp.max_cones))


def courant_basis(cp):
    """One piecewise linear function per ray: value 1 on its own lattice
    vector, 0 on the other rays of each cone containing it, 0 elsewhere."""
    out = []
    for i in range(cp.s):
        polys = []
        for cone in cp.max_cones:
            if i in cone:
                w = cpm.dual_edge_frame(cp, cone)[cone.index(i)]
                polys.append(MultiPoly.linear_form(list(w)))
            else:
                polys.append(MultiPoly.zero(cp.n))
        el = pp.PPElement(cp, 1, tuple(polys))
        assert pp.is_compatible(el)
        out.append(el)
    return out


class TestCourantBasis:
    def test_cp1_shape(self, cp1):
        phi1, phi2 = courant_basis(cp1)
        assert phi1.polys == (MultiPoly.variable(1, 0), MultiPoly.zero(1))
        # second ray has lattice vector -1, so its dual coordinate is -x
        assert phi2.polys == (MultiPoly.zero(1), MultiPoly.linear_form([-1]))

    def test_cp2_first_function(self, cp2):
        phi1 = courant_basis(cp2)[0]
        assert phi1.polys[0] == MultiPoly.variable(2, 0)  # on cone {1,2}
        assert phi1.polys[1] == MultiPoly.zero(2)  # on cone {2,3}

    def test_value_one_at_own_ray(self):
        for inst in all_instances():
            cp = inst.cp
            basis = courant_basis(cp)
            for i, phi in enumerate(basis):
                for ci, cone in enumerate(cp.max_cones):
                    for j in cone:
                        expected = F(int(j == i))
                        assert phi.polys[ci].evaluate(cp.lam[j]) == expected

    def test_sum_is_all_ones_support_function(self, cp2):
        basis = courant_basis(cp2)
        for ci, cone in enumerate(cp2.max_cones):
            total = MultiPoly.zero(cp2.n)
            for phi in basis:
                total = total + phi.polys[ci]
            for j in cone:
                assert total.evaluate(cp2.lam[j]) == 1

    def test_courant_functions_span_degree_one(self):
        for inst in all_instances():
            cp = inst.cp
            vectors = [per_cone_vector(phi) for phi in courant_basis(cp)]
            assert exact.rank(vectors, len(cp.max_cones) * cp.n) == cp.s
            assert pp.pp_graded_dim(cp, 1) == cp.s, inst.label


class TestMultiply:
    def test_by_zero(self, cp1):
        phi1 = courant_basis(cp1)[0]
        zero = pp.PPElement(cp1, 1, tuple(MultiPoly.zero(1) for _ in cp1.max_cones))
        prod = pp.multiply(phi1, zero)
        assert all(not g for g in prod.polys)

    def test_cp1_square(self, cp1):
        phi1 = courant_basis(cp1)[0]
        sq = pp.multiply(phi1, phi1)
        assert sq.polys == (MultiPoly.monomial((2,)), MultiPoly.zero(1))

    def test_global_character_square(self, cp2):
        chi = global_character(cp2, [1, 2])
        sq = pp.multiply(chi, chi)
        expected = MultiPoly.linear_form([1, 2]) ** 2
        assert all(g == expected for g in sq.polys)

    def test_pair_mismatch(self, cp1, cp2):
        with pytest.raises(PairMismatchError):
            pp.multiply(courant_basis(cp1)[0],
                        global_character(cp2, [1, 0]))


class TestCompatibility:
    def test_incompatible_tuple_detected(self, cp2):
        polys = [MultiPoly.variable(2, 0), MultiPoly.zero(2), MultiPoly.zero(2)]
        el = pp.PPElement(cp2, 1, tuple(polys))
        # x1 restricted to the facet spans of cone {1,2} does not vanish
        assert not pp.is_compatible(el)

    def test_character_decomposes_in_courant_basis(self):
        for inst in all_instances():
            cp = inst.cp
            basis = courant_basis(cp)
            for a in range(cp.n):
                chi_vec = [F(int(r == a)) for r in range(cp.n)]
                chi = global_character(cp, chi_vec)
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

    def test_negative_degree_raises_on_cold_and_warm_caches(self, cp2):
        clear_caches()
        for warm in (False, True):
            for read in (pp.pp_graded_dim, pp.pp_basis):
                with pytest.raises(MalformedInputError, match="non-negative"):
                    read(cp2, -1)
            # warms the tables to top n = 2 and to top 3
            assert len(pp.pp_basis(cp2, 2)) == pp.pp_graded_dim(cp2, 2) == 6


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
        assert pp.brion_bundle_dims(point_ring_cp2) == ([1, 0, 1, 0, 1], [1, 1, 1])

    def test_matches_betti_everywhere(self, all_instances):
        for inst in all_instances:
            ring = inst.ring()
            assert pp.brion_bundle_dims(ring)[0] == sr.betti(ring), inst.label

    def test_trivial_bundle_kunneth(self):
        ring = get("hirzebruch?a=0").ring()
        assert pp.brion_bundle_dims(ring) == ([1, 0, 2, 0, 1], [1, 1])

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
            assert pp.brion_bundle_dims(ring) == (expected, expected[0::2])

    @pytest.mark.parametrize("ring", [inst.ring() for inst in all_instances()] + [
        load_bundle_file(fans.bundle_path(name)).ring() for name in sorted(fans.BUNDLES)],
        ids=[inst.label for inst in all_instances()] + sorted(fans.BUNDLES))
    def test_fiber_list_is_the_fibre_quotient(self, ring):
        # The fibre list, read off the bundle's unit block, against a pass
        # over the fibre alone: the bundle over a point.
        assert pp.brion_bundle_dims(ring)[1] == pp.brion_quotient_dims(ring.cp)


def per_cone_vector(el):
    """The element's coefficients, one block of degree-d monomials per cone."""
    monos = weighted_monomials((1,) * el.cp.n, el.degree)
    index = {m: k for k, m in enumerate(monos)}
    return {ci * len(monos) + index[m]: x
            for ci, g in enumerate(el.polys) for m, x in g.terms.items()}


def restricted(g, cp, facet):
    """The polynomial g on the span of the facet's lattice vectors, in one
    parameter per facet ray, by substitution."""
    forms = [MultiPoly.linear_form([cp.lam[j][r] for j in facet])
             if facet else MultiPoly.zero(0) for r in range(cp.n)]
    return g.substitute(forms)


def reference_rows(cp, d):
    """The facet compatibility rows in per-cone coordinates (one block of
    degree-d monomials per cone): per shared facet and facet monomial, the
    coefficient there of f_sigma - f_tau on the facet's span."""
    monos = weighted_monomials((1,) * cp.n, d)
    per = len(monos)
    rows = []
    for facet, c1, c2 in pp.facet_pairs(cp):
        parts = [restricted(MultiPoly.monomial(m, 1), cp, facet) for m in monos]
        for sm in weighted_monomials((1,) * len(facet), d):
            row = {}
            for k, g in enumerate(parts):
                c = g.coefficient(sm)
                if c:
                    row[c1 * per + k] = c
                    row[c2 * per + k] = -c
            if row:
                rows.append(row)
    return rows


def reference_dim(cp, d):
    """dim PP_d as the kernel dimension of the reference rows."""
    width = len(cp.max_cones) * len(weighted_monomials((1,) * cp.n, d))
    return width - exact.rank(reference_rows(cp, d), width)


def fan_pair(fan):
    n, rays, lam, cones = fan
    return cpm.make_pair(n, rays, lam, cones)


# Products, blow-ups and Bott towers of dimension 2-4, small enough for the
# reference rows in every degree up to n + 1.
GENERATED = {
    "cp1xcp1xcp1": fans.product_fan(fans.product_fan(fans.cp_fan(1), fans.cp_fan(1)),
                                    fans.cp_fan(1)),
    "cp1xcp2": fans.product_fan(fans.cp_fan(1), fans.cp_fan(2)),
    "cp2-blowup-twice": fans.blow_up(fans.blow_up(fans.cp_fan(2), 0), 1),
    "cp3-twist-blowup": fans.blow_up(fans.cp_fan(3, (1, -1, -1)), 2),
    "bott3": fans.bott_tower(3, {(0, 1): 2, (0, 2): -1, (1, 2): 1}),
    "cp2xcp2": fans.product_fan(fans.cp_fan(2), fans.cp_fan(2)),
    "cp4-blowup": fans.blow_up(fans.cp_fan(4), 3),
}


def spline_pairs():
    """Every catalog pair and every generated one, with a label."""
    seen = {}
    for inst in all_instances():
        seen.setdefault(inst.cp, inst.label)
    return [(label, cp) for cp, label in seen.items()] + \
        [(name, fan_pair(fan)) for name, fan in GENERATED.items()]


def cycle_rows(cp, top):
    """Per degree 0..top, the cycle rows of every off-tree facet, one dict
    per facet, as the walk over the facets reads them."""
    per_facet = [[{}] + list(pp._facet_rows(cp, entry, top))
                 for entry in pp._spanning_tree(cp)[2]]
    return [tuple(rows[d] for rows in per_facet) for d in range(top + 1)]


def times_character(cp, facet, rows, shift, a):
    """x_a on the facet's span times one facet's cycle rows, read in the next
    degree through the shift map of x_a; zero entries and rows left out.  On
    the facet's span x_a is sum_j lam_{F_j}[a] t_j, so the row at t^sm feeds
    the rows at t^(sm + e_j)."""
    out = {}
    for j, ray in enumerate(facet):
        c = cp.lam[ray][a]
        if not c:
            continue
        for sm, row in rows.items():
            target = out.setdefault(sm[:j] + (sm[j] + 1,) + sm[j + 1:], {})
            for col, x in row.items():
                k = shift[col]
                target[k] = target.get(k, 0) + c * x
    kept = {sm: {k: x for k, x in row.items() if x} for sm, row in out.items()}
    return {sm: row for sm, row in kept.items() if row}


def shift_failures(cp, product=times_character):
    """Every (facet entry, d, a), d = 2..n, at which the x_a product of the
    facet's degree-(d-1) cycle rows differs from its degree-d rows read on
    the image of x_a's shift map: the edge columns (e, m) with m_a > 0.  The
    rows build each column from one a only, so this checks the others."""
    failures = []
    rows = cycle_rows(cp, cp.n)
    for d in range(2, cp.n + 1):
        root = len(weighted_monomials((1,) * cp.n, d))
        lower = weighted_monomials((1,) * cp.n, d - 1)
        for k, entry in enumerate(pp._spanning_tree(cp)[2]):
            for a, shift in enumerate(pp._shift_maps(cp, d)):
                read = {sm: {c: x for c, x in row.items() if lower[(c - root) % len(lower)][a]}
                        for sm, row in rows[d][k].items()}
                if product(cp, entry[0], rows[d - 1][k], shift, a) != \
                        {sm: row for sm, row in read.items() if row}:
                    failures.append((entry, d, a))
    return failures


def face_ring_dim(cp, d):
    """The Hilbert function of the face ring of the fan's simplicial
    complex: 1 at d = 0, else the sum over nonempty faces F of
    C(d-1, |F|-1)."""
    if d == 0:
        return 1
    faces = {face for cone in cp.max_cones for k in range(1, len(cone) + 1)
             for face in itertools.combinations(sorted(cone), k)}
    return sum(math.comb(d - 1, len(face) - 1) for face in faces)


@pytest.mark.parametrize("label, cp, top", [
    (label, cp, cp.n + 1 if label not in GENERATED else cp.n) for label, cp in spline_pairs()],
    ids=[label for label, _ in spline_pairs()])
def test_dims_equal_the_face_ring_hilbert_function(label, cp, top):
    """Piecewise polynomials on a simplicial fan form its face ring, so
    dim PP_d is the face ring's Hilbert function in every degree: up to
    n + 1 on the catalog pairs, up to n on the generated fans."""
    for d in range(top + 1):
        assert pp.pp_graded_dim(cp, d) == face_ring_dim(cp, d), (label, d)


class TestSplineCoordinates:
    """The spanning tree, the cycle rows and the dimensions they give,
    against the facet compatibility rows in per-cone coordinates."""

    @pytest.mark.parametrize("label, cp", spline_pairs(), ids=[p[0] for p in spline_pairs()])
    def test_dims_equal_reference_kernel_dims(self, label, cp):
        for d in range(cp.n + 2):
            assert pp.pp_graded_dim(cp, d) == reference_dim(cp, d), (label, d)

    @pytest.mark.parametrize("label, cp", spline_pairs(), ids=[p[0] for p in spline_pairs()])
    def test_tree_spans_every_cone(self, label, cp):
        edges, paths, off_tree = pp._spanning_tree(cp)
        assert len(edges) == len(cp.max_cones) - 1
        assert paths[0] == ()
        assert {child for _, child, _ in edges} == set(range(1, len(cp.max_cones)))
        for e, (parent, child, _) in enumerate(edges):
            assert paths[child] == paths[parent] + (e,), label
        assert len(off_tree) == len(pp.facet_pairs(cp)) - len(edges)

    @pytest.mark.parametrize("label, cp", spline_pairs(), ids=[p[0] for p in spline_pairs()])
    def test_edge_form_is_the_child_dual_edge_vector(self, label, cp):
        # l_e vanishes on the shared facet and pairs to +1 with the ray that
        # completes the child cone.
        pairs = {(c1, c2): facet for facet, c1, c2 in pp.facet_pairs(cp)}
        for parent, child, form in pp._spanning_tree(cp)[0]:
            facet = pairs.get((parent, child), pairs.get((child, parent)))
            assert all(type(x) is int for x in form)
            for ray in cp.max_cones[child]:
                pairing = sum(x * y for x, y in zip(cp.lam[ray], form))
                assert pairing == (0 if ray in facet else 1), (label, parent, child)

    def test_disconnected_cones_raise(self):
        # Two copies of the cp2 fan in one pair: every facet lies on exactly
        # two cones, but no facet joins the copies, so no tree spans them.
        rays = [(1, 0), (0, 1), (-1, -1)] * 2
        cp = cpm.toric_pair(rays, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for d in (0, 1, 2):
            with pytest.raises(MalformedInputError, match="not connected"):
                pp.pp_graded_dim(cp, d)
        with pytest.raises(MalformedInputError, match="not connected"):
            pp.brion_quotient_dims(cp)

    @pytest.mark.parametrize("label, cp", spline_pairs(), ids=[p[0] for p in spline_pairs()])
    def test_free_coordinates_read_the_kernel_faithfully(self, label, cp):
        # brion_bundle_dims ranks its rows on the free columns only.  The
        # top degree keeps no kernel, and a larger top changes no degree.
        table, higher = pp._splines(cp, cp.n), pp._splines(cp, cp.n + 1)
        assert table[cp.n][1] == () and table[cp.n][0] == higher[cp.n][0]
        for d, (free, kernel) in enumerate(table[:cp.n]):
            assert len(free) == len(kernel) == pp.pp_graded_dim(cp, d)
            read = [{free[c]: x for c, x in q.items() if c in free} for q in kernel]
            assert exact.rank(read, len(free)) == len(kernel), (label, d)
            assert all(type(x) is int for q in kernel for x in q.values())
            assert higher[d] == (free, kernel), (label, d)


class TestLinearPaths:
    """The cycle rows and the character index maps against the polynomial
    definitions they replace."""

    def test_index_shift_products_equal_multiply(self):
        # multiply() checks each product against the facets directly, so
        # this is also the per-product reference for _shift_maps' proof.
        for inst in all_instances():
            cp = inst.cp
            for d in range(1, cp.n + 1):
                for a, shift in enumerate(pp._shift_maps(cp, d)):
                    char = global_character(cp, [int(r == a) for r in range(cp.n)])
                    for q, el in zip(pp._splines(cp, cp.n)[d - 1][1], pp.pp_basis(cp, d - 1)):
                        shifted = pp._from_vector(cp, d, {shift[j]: x for j, x in q.items()})
                        assert shifted == pp.multiply(char, el), (inst.label, d, a)

    def test_restriction_rows_equal_substitution(self):
        # Per off-tree facet and facet monomial, in monomial order, the rows
        # are the coefficients of the facet restriction of sum +-l_e m over
        # the two paths' own edges, by substitution.
        for label, cp in spline_pairs()[:-2]:
            edges, paths, off_tree = pp._spanning_tree(cp)
            rows_by_degree = cycle_rows(cp, cp.n)
            for d in range(cp.n + 1):
                lower = weighted_monomials((1,) * cp.n, d - 1) if d else []
                root = len(weighted_monomials((1,) * cp.n, d))
                expected = []
                for facet, c1, c2 in off_tree:
                    parts = {}
                    for e in set(paths[c1]) ^ set(paths[c2]):
                        sign = 1 if e in paths[c1] else -1
                        form = MultiPoly.linear_form(edges[e][2]) * sign
                        for k, m in enumerate(lower):
                            parts[root + e * len(lower) + k] = restricted(
                                form * MultiPoly.monomial(m, 1), cp, facet)
                    rows = {}
                    for sm in weighted_monomials((1,) * len(facet), d):
                        row = {c: g.coefficient(sm) for c, g in sorted(parts.items())
                               if g.coefficient(sm)}
                        if row:
                            rows[sm] = row
                    expected.append(rows)
                got = rows_by_degree[d]
                assert got == tuple(expected), (label, d)
                assert [list(rows) for rows in got] == [list(rows) for rows in expected], \
                    (label, d)

    def test_changed_kernel_vector_is_incompatible(self):
        for inst in all_instances():
            cp = inst.cp
            rows_by_degree = cycle_rows(cp, cp.n)
            for d in range(1, cp.n + 1):
                q = pp._splines(cp, cp.n + 1)[d][1][0]
                assert pp.is_compatible(pp._from_vector(cp, d, q))
                # every coordinate that some cycle row reads (cp1 has none)
                for j in {j for rows in rows_by_degree[d] for row in rows.values()
                          for j in row}:
                    changed = dict(q)
                    changed[j] = changed.get(j, 0) + 1
                    assert not pp.is_compatible(pp._from_vector(cp, d, changed)), inst.label

    def test_basis_vectors_satisfy_the_reference_rows(self):
        for label, cp in spline_pairs()[:-2]:
            for d in range(cp.n + 1):
                rows = reference_rows(cp, d)
                for el in pp.pp_basis(cp, d):
                    vec = per_cone_vector(el)
                    assert not any(sum(x * vec.get(c, 0) for c, x in row.items())
                                   for row in rows), (label, d)

    @pytest.mark.parametrize("label, cp", spline_pairs(), ids=[p[0] for p in spline_pairs()])
    def test_every_product_equals_the_rows_on_its_image(self, label, cp):
        # Each x_a product of a facet's rows, not only the first a of each
        # column that the rows are built from.
        assert shift_failures(cp) == [], label

    def test_shift_check_rejects_a_changed_product(self, cp3):
        # At degree 3 the edge column of x_0 x_1 is built from the x_0
        # product of the degree-2 rows, so only the check for a = 1 sees a
        # change to the x_1 one.
        column = len(weighted_monomials((1,) * 3, 3)) + \
            weighted_monomials((1,) * 3, 2).index((1, 1, 0))

        def changed(cp, facet, rows, shift, a):
            out = times_character(cp, facet, rows, shift, a)
            if a == 1 and len(shift) == pp._width(cp, 2):
                row = out.setdefault((3,) + (0,) * (len(facet) - 1), {})
                row[column] = row.get(column, 0) + 1
            return out

        failures = shift_failures(cp3, changed)
        assert failures and {(d, a) for _, d, a in failures} == {(3, 1)}

    def test_quotient_dims_are_point_bundle_betti(self):
        for inst in all_instances():
            cp = inst.cp
            even = sr.betti(get_point_ring(inst))[0::2]
            for m in range(-1, 2 * cp.n + 2):
                assert pp.brion_quotient_dims(cp, m) == even[:m // 2 + 1], (inst.label, m)
