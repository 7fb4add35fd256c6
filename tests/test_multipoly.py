"""Integration over multi-polytopes: oracles, symbolic identities, both
intersection pipelines.

The independent volume/integral oracle used here triangulates an honest
convex polytope from its vertex set and integrates powers of linear forms
over each simplex with the classical barycentric formula

    integral over T of l^d = vol(T) * n! d!/(n+d)! * h_d(l(v_0), ..., l(v_n)),

h_d the complete homogeneous symmetric polynomial.  No cone signs, no dual
frames: a genuinely different computation path.
"""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import multipoly as mp
from qtk.catalog import all_instances, get
from qtk.errors import DegreeMismatchError
from qtk.poly import MultiPoly, power_of_linear_forms, weighted_monomials

from conftest import hirzebruch_ring


# ---------------------------------------------------------------------------
# Independent oracle.

def simplex_volume(vertices):
    n = len(vertices) - 1
    rows = [[F(v[r]) - F(vertices[0][r]) for r in range(n)] for v in vertices[1:]]
    from qtk import exact
    return abs(exact.det(rows)) / factorial(n)


def simplex_linear_power(vertices, ell, d):
    n = len(vertices) - 1
    values = [sum(F(l) * F(v[r]) for r, l in enumerate(ell)) for v in vertices]
    h_d = F(0)
    for expo in weighted_monomials((1,) * (n + 1), d):
        term = F(1)
        for val, e in zip(values, expo):
            term *= val ** e
        h_d += term
    scale = F(factorial(n) * factorial(d), factorial(n + d))
    return simplex_volume(vertices) * scale * h_d


def convex_oracle_integral(inst, f):
    """Triangulate the polytope at inst.ample_h from its centroid and
    integrate f monomial by monomial via powers of linear forms."""
    cp = inst.cp
    h = list(inst.ample_h)
    verts = {cone: cpm.vertex(cp, h, cone) for cone in cp.max_cones}
    centroid = [sum((v[r] for v in verts.values()), F(0)) / len(verts)
                for r in range(cp.n)]
    simplices = []
    for i in range(cp.s):
        facet_verts = [verts[cone] for cone in cp.max_cones if i in cone]
        assert len(facet_verts) == cp.n, "facet is not a simplex"
        simplices.append([centroid] + facet_verts)
    total = F(0)
    for alpha, coeff in f.items():
        if sum(alpha) == 0:
            part = sum((simplex_volume(sx) for sx in simplices), F(0))
        else:
            part = F(0)
            for c, form in power_of_linear_forms(alpha):
                for sx in simplices:
                    part += c * simplex_linear_power(sx, form, sum(alpha))
        total += coeff * part
    return total


class TestConvexOracle:
    def test_volumes_match_triangulation(self):
        for inst in all_instances():
            if not inst.convex:
                continue
            delta = mp.multipolytope(inst.cp, inst.ample_h)
            assert mp.volume(delta) == convex_oracle_integral(
                inst, MultiPoly.constant(inst.cp.n, 1)), inst.label

    def test_polynomial_integrals_match_triangulation(self):
        rng = random.Random(21)
        for inst in all_instances():
            if not inst.convex:
                continue
            n = inst.cp.n
            delta = mp.multipolytope(inst.cp, inst.ample_h)
            for degree in (1, 2):
                terms = {m: F(rng.randint(-3, 3))
                         for m in weighted_monomials((1,) * n, degree)}
                f = MultiPoly(n, terms)
                assert mp.integrate_polynomial(delta, f) == \
                    convex_oracle_integral(inst, f), (inst.label, degree)


class TestIntegrateLinearPower:
    def test_interval_length(self, cp1):
        delta = mp.multipolytope(cp1, [F(3), F(5)])
        assert mp.integrate_polynomial(delta, MultiPoly.linear_form([F(1)]) ** 0) == 8

    def test_triangle_area_direction_independent(self, cp2):
        delta = mp.multipolytope(cp2, [1, 1, 1])
        one = MultiPoly.linear_form([1, 2]) ** 0
        assert mp.integrate_polynomial(delta, one) == F(9, 2)
        for direction in ([1, 2], [3, 7]):
            sym = mp.integral_polynomial_symbolic(cp2, one, direction=direction)
            assert sym.evaluate([1, 1, 1]) == F(9, 2)

    def test_interval_first_moment(self, cp1):
        h1, h2 = F(2), F(3)
        delta = mp.multipolytope(cp1, [h1, h2])
        assert mp.integrate_polynomial(delta, MultiPoly.linear_form([1]) ** 1) \
            == (h1 ** 2 - h2 ** 2) / 2


class TestIntegratePolynomial:
    def test_degenerate_interval(self, cp1):
        delta = mp.multipolytope(cp1, [1, -1])
        assert mp.volume(delta) == 0

    def test_reversed_interval_negative_length(self, cp1):
        delta = mp.multipolytope(cp1, [-2, 1])  # [-1, -2] reversed
        assert mp.volume(delta) == -1

    def test_perturbed_monomials(self, cp2):
        delta = mp.multipolytope(cp2, [1, 1, 1])
        # triangle (1,1), (-2,1), (1,-2): both need the perturbation path
        assert mp.integrate_polynomial(delta, MultiPoly.monomial((2, 0))) == F(9, 4)
        assert mp.integrate_polynomial(delta, MultiPoly.monomial((1, 1))) == -F(9, 8)


class TestOneVertexSum:
    def test_generic_power_equals_its_monomial_expansion(self, all_instances):
        """The vertex sum of one generic form l sums over cones that are all
        generic (m = 0); integrate_polynomial((l.x)^d) goes through the +-1
        forms of power_of_linear_forms, many of which vanish on a dual edge
        vector (m > 0).  The two cases of the one vertex sum must agree
        exactly."""
        rng = random.Random(4417)
        perturbed = set()
        for inst in all_instances:
            cp = inst.cp
            dual = list(mp._all_dual_vectors(cp))
            while True:
                ell = tuple(rng.randint(-5, 5) for _ in range(cp.n))
                if all(sum(a * b for a, b in zip(ell, w)) for w in dual):
                    break
            for d in range(3):
                h = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cp.s)]
                delta = mp.multipolytope(cp, h)
                f = MultiPoly.linear_form(ell) ** d
                weight = F(factorial(d), factorial(cp.n + d))
                plan = mp._scaled_plans(cp, [(ell, d, weight)])
                assert all(m == 0 for _, cones in plan[1] for _, _, _, m, _ in cones)
                assert mp._evaluate(cp, plan, h) \
                    == mp.integrate_polynomial(delta, f), (inst.label, ell, d, h)
                for alpha, _ in f.items():
                    if sum(alpha) and any(
                            m > 0 for _, form in power_of_linear_forms(alpha)
                            for _, _, _, m, _ in mp._vertex_plan(cp, form)):
                        perturbed.add(inst.label)
        assert {"cp2", "cp3", "cp1xcp1", "cp2-twist", "hirzebruch-toric?m=1",
                "hirzebruch-toric?m=2"} <= perturbed


class TestSymbolicIntegral:
    def test_cp1_volume_polynomial(self, cp1):
        sym = mp.integral_polynomial_symbolic(cp1, MultiPoly.constant(1, 1))
        assert sym == MultiPoly(2, {(1, 0): F(1), (0, 1): F(1)})

    def test_cp2_volume_polynomial(self, cp2):
        sym = mp.integral_polynomial_symbolic(cp2, MultiPoly.constant(2, 1))
        expected = MultiPoly.linear_form([1, 1, 1]) ** 2 / 2
        assert sym == expected

    def test_agrees_with_numeric_at_random_points(self):
        rng = random.Random(6)
        for inst in all_instances():
            cp = inst.cp
            for degree in (0, 1, 2):
                terms = {m: F(rng.randint(-2, 2))
                         for m in weighted_monomials((1,) * cp.n, degree)}
                f = MultiPoly(cp.n, terms)
                sym = mp.integral_polynomial_symbolic(cp, f)
                assert sym.is_homogeneous(cp.n + degree)
                for _ in range(3):
                    h = [F(rng.randint(-9, 9), rng.randint(1, 3))
                         for _ in range(cp.s)]
                    delta = mp.multipolytope(cp, h)
                    assert sym.evaluate(h) == mp.integrate_polynomial(delta, f)

    def test_direction_independence(self):
        from qtk import exact
        for inst in all_instances():
            cp = inst.cp
            one = MultiPoly.constant(cp.n, 1)
            d1 = mp.generic_direction(cp)
            d2 = tuple(F(9 ** k + 1) for k in range(cp.n))
            if any(exact.dot(d2, w) == 0
                   for _, _, frame in mp._cone_data(cp) for w in frame):
                d2 = tuple(F(11 ** k + 3) for k in range(cp.n))
            p1 = mp.integral_polynomial_symbolic(cp, one, direction=d1)
            p2 = mp.integral_polynomial_symbolic(cp, one, direction=d2)
            assert p1 == p2, inst.label


class TestIderLaw:
    """Order-n partial derivatives of the symbolic integral: the sign times
    the integrand at the cone's vertex for cones, zero off faces."""

    @staticmethod
    def integrands(cp):
        yield MultiPoly.constant(cp.n, 1)
        for a in range(cp.n):
            yield MultiPoly.variable(cp.n, a)

    def test_cone_subsets(self):
        for inst in all_instances():
            cp = inst.cp
            for f in self.integrands(cp):
                sym = mp.integral_polynomial_symbolic(cp, f)
                for cone in cp.max_cones:
                    deriv = sym
                    for i in cone:
                        deriv = deriv.partial(i)
                    frame = cpm.dual_edge_frame(cp, cone)
                    vertex_coords = []
                    for r in range(cp.n):
                        acc = MultiPoly.zero(cp.s)
                        for idx, w in zip(cone, frame):
                            acc = acc + MultiPoly.variable(cp.s, idx) * w[r]
                        vertex_coords.append(acc)
                    expected = f.substitute(vertex_coords) * \
                        cpm.cone_sign(cp, cone).value
                    assert deriv == expected, (inst.label, cone)

    def test_non_face_multisets_vanish(self):
        import itertools
        for inst in all_instances():
            cp = inst.cp
            non_faces = []
            for multiset in itertools.combinations_with_replacement(range(cp.s), cp.n):
                support = tuple(sorted(set(multiset)))
                if not cpm.is_face(cp, support):
                    non_faces.append(multiset)
            if not non_faces:
                continue
            for f in self.integrands(cp):
                sym = mp.integral_polynomial_symbolic(cp, f)
                for multiset in non_faces:
                    deriv = sym
                    for i in multiset:
                        deriv = deriv.partial(i)
                    assert not deriv, (inst.label, multiset)


class TestGammaPipelines:
    def test_volume_cases(self, point_ring_cp2, cp2):
        delta = mp.multipolytope(cp2, [1, 1, 1])
        ring = point_ring_cp2
        assert mp.I_gamma(ring, ring.base.unit(), 0, delta) == F(9, 2)

    def test_hirzebruch_examples(self):
        ring = hirzebruch_ring(1)
        cp = ring.cp
        rng = random.Random(3)
        for _ in range(5):
            h1 = F(rng.randint(-5, 5), rng.randint(1, 2))
            h2 = F(rng.randint(-5, 5), rng.randint(1, 2))
            delta = mp.multipolytope(cp, [h1, h2])
            assert mp.I_gamma(ring, ring.base.unit(), 1, delta) == \
                (h1 ** 2 - h2 ** 2) / 2
            assert mp.I_gamma(ring, ring.base.element("t"), 0, delta) == h1 + h2

    def test_bkk_examples(self, point_ring_cp2, cp2):
        delta = mp.multipolytope(cp2, [1, 1, 1])
        res = mp.bkk_check(point_ring_cp2, point_ring_cp2.base.unit(), 0, delta)
        assert (res.lhs, res.rhs, res.equal) == (9, 9, True)

        ring = hirzebruch_ring(2)
        res = mp.bkk_check(ring, ring.base.unit(), 1,
                           mp.multipolytope(ring.cp, [1, 0]))
        assert (res.lhs, res.rhs, res.equal) == (2, 2, True)

    def test_bkk_symbolic_cp1(self, point_ring_cp1, cp1):
        rng = random.Random(17)
        for _ in range(5):
            h = [F(rng.randint(-6, 6)) for _ in range(2)]
            delta = mp.multipolytope(cp1, h)
            res = mp.bkk_check(point_ring_cp1, point_ring_cp1.base.unit(), 0, delta)
            assert res.equal and res.lhs == h[0] + h[1]

    def test_degree_errors(self):
        ring = hirzebruch_ring(1)
        delta = mp.multipolytope(ring.cp, [1, 1])
        with pytest.raises(DegreeMismatchError):
            mp.bkk_check(ring, ring.base.unit(), 2, delta)
        with pytest.raises(DegreeMismatchError):
            mp.I_gamma(ring, ring.base.element("t"), 1, delta)


class TestHorizontalPart:
    def test_hirzebruch_formula(self):
        for a in (1, 2):
            ring = hirzebruch_ring(a)
            rng = random.Random(a)
            for _ in range(4):
                h = [F(rng.randint(-4, 4)) for _ in range(2)]
                delta = mp.multipolytope(ring.cp, h)
                el = mp.horizontal_part(ring, delta, 1)
                expected = ba.el_scale(ring.base.element("t"),
                                       a * (h[0] ** 2 - h[1] ** 2))
                assert el == expected

    def test_point_base_is_scaled_volume(self, point_ring_cp2, cp2):
        delta = mp.multipolytope(cp2, [1, 1, 1])
        el = mp.horizontal_part(point_ring_cp2, delta, 0)
        assert el == {0: F(9)}  # 2! * 9/2

    def test_pairing_against_complementary_classes(self):
        # <b_2i * eta, [B]> = F_eta(Delta) for every eta of matching degree
        rng = random.Random(23)
        for label in ("cp1-bundle-over-cp2?a=2", "cp1xcp1-bundle"):
            ring = get(label).ring()
            k = ring.base.top
            for i in range(k // 2 + 1):
                h = [F(rng.randint(-3, 3)) for _ in range(ring.cp.s)]
                delta = mp.multipolytope(ring.cp, h)
                b2i = mp.horizontal_part(ring, delta, i)
                for eta_idx in ring.base.indices_of_degree(k - 2 * i):
                    eta = {eta_idx: F(1)}
                    lhs = ring.base.integrate(ring.base.mul(b2i, eta))
                    rhs = mp.F_gamma(ring, eta, i, delta)
                    assert lhs == rhs, (label, i)

    def test_i_out_of_range(self):
        ring = hirzebruch_ring(1)
        delta = mp.multipolytope(ring.cp, [1, 1])
        with pytest.raises(DegreeMismatchError):
            mp.horizontal_part(ring, delta, 2)


class TestBkkRandomized:
    def test_random_suite_across_catalog(self):
        rng = random.Random(20290810)
        cases = 0
        for inst in all_instances():
            ring = inst.ring()
            k = ring.base.top
            for _ in range(8):
                i = rng.randint(0, k // 2)
                candidates = ring.base.indices_of_degree(k - 2 * i)
                gamma = {rng.choice(candidates): F(1)}
                h = [F(rng.randint(-12, 12), rng.randint(1, 4))
                     for _ in range(inst.cp.s)]
                res = mp.bkk_check(ring, gamma, i, mp.multipolytope(inst.cp, h))
                assert res.equal, (inst.label, gamma, i, h)
                cases += 1
        assert cases >= 100
