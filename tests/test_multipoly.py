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
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import multipoly as mp
from qtk.catalog import all_instances, get
from qtk.errors import DegreeMismatchError, MalformedInputError
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
            if inst.ample_h is None:
                continue
            assert mp.volume(inst.cp, inst.ample_h) == convex_oracle_integral(
                inst, MultiPoly.constant(inst.cp.n, 1)), inst.label

    def test_polynomial_integrals_match_triangulation(self):
        rng = random.Random(21)
        for inst in all_instances():
            if inst.ample_h is None:
                continue
            n = inst.cp.n
            for degree in (1, 2):
                terms = {m: F(rng.randint(-3, 3))
                         for m in weighted_monomials((1,) * n, degree)}
                f = MultiPoly(n, terms)
                assert mp.integrate_polynomial(inst.cp, inst.ample_h, f) == \
                    convex_oracle_integral(inst, f), (inst.label, degree)


class TestIntegrateLinearPower:
    def test_interval_length(self, cp1):
        one = MultiPoly.linear_form([F(1)]) ** 0
        assert mp.integrate_polynomial(cp1, [F(3), F(5)], one) == 8

    def test_triangle_area_direction_independent(self, cp2):
        one = MultiPoly.linear_form([1, 2]) ** 0
        assert mp.integrate_polynomial(cp2, [1, 1, 1], one) == F(9, 2)
        for direction in ([1, 2], [3, 7]):
            sym = mp.integral_polynomial_symbolic(cp2, one, direction=direction)
            assert sym.evaluate([1, 1, 1]) == F(9, 2)

    def test_interval_first_moment(self, cp1):
        h1, h2 = F(2), F(3)
        assert mp.integrate_polynomial(cp1, [h1, h2], MultiPoly.linear_form([1]) ** 1) \
            == (h1 ** 2 - h2 ** 2) / 2


class TestIntegratePolynomial:
    def test_degenerate_interval(self, cp1):
        assert mp.volume(cp1, [1, -1]) == 0

    def test_reversed_interval_negative_length(self, cp1):
        assert mp.volume(cp1, [-2, 1]) == -1  # [-1, -2] reversed

    def test_perturbed_monomials(self, cp2):
        h = [1, 1, 1]
        # triangle (1,1), (-2,1), (1,-2): both need the perturbation path
        assert mp.integrate_polynomial(cp2, h, MultiPoly.monomial((2, 0))) == F(9, 4)
        assert mp.integrate_polynomial(cp2, h, MultiPoly.monomial((1, 1))) == -F(9, 8)


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
                f = MultiPoly.linear_form(ell) ** d
                weight = F(factorial(d), factorial(cp.n + d))
                plan = mp._scaled_plans(cp, [(ell, d, weight)])
                assert all(not poles for _, _, poles in plan[1])
                assert mp._evaluate(cp, plan, h) \
                    == mp.integrate_polynomial(cp, h, f), (inst.label, ell, d, h)
                for alpha, _ in f.items():
                    if sum(alpha) and any(
                            m > 0 for _, form in power_of_linear_forms(alpha)
                            for _, _, _, m, _, _ in mp._vertex_plan(cp, form)):
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
                    assert sym.evaluate(h) == mp.integrate_polynomial(cp, h, f)

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


def symbolic_by_multipoly(cp, f, direction=None):
    """The symbolic integral of f the way it was once taken, as a reference:
    per monomial of f and form of its decomposition, the vertex sum of the
    unscaled cone plan with l(A) and zeta(A) as MultiPoly linear forms in h,
    raised to powers in Fractions, with no common denominator."""
    hs = [MultiPoly.variable(cp.s, i) for i in range(cp.s)]
    zero = MultiPoly.zero(cp.s)
    ell0 = mp.generic_direction(cp) if direction is None else tuple(map(F, direction))
    total = zero
    for alpha, coeff in f.items():
        d = sum(alpha)
        power = cp.n + d
        scale = coeff * F(factorial(d), factorial(power))
        for c, form in power_of_linear_forms(alpha) if d else [(F(1), ell0)]:
            for cone, lw, zw, m, cs, den in mp._vertex_plan(cp, tuple(form)):
                la0 = sum((hs[i] * a for i, a in zip(cone, lw)), zero)
                la1 = sum((hs[i] * b for i, b in zip(cone, zw)), zero)
                # t^0 of (la0 + t la1)^power / (t^m * ...): t^j of the
                # numerator against t^(m-j) of the cone's series
                for j in range(min(power, m) + 1):
                    total = total + la0 ** (power - j) * la1 ** j \
                        * (comb(power, j) * F(cs[m - j], den) * c * scale)
    return total


def degenerate_directions(cp):
    """Directions vanishing on a dual edge vector of the first cone, so some
    cones have m > 0: one per dual edge vector (n > 1), its third, and 0."""
    out = [(0,) * cp.n]
    for w in mp._cone_data(cp)[0][2]:
        i = next(k for k, x in enumerate(w) if x)
        if cp.n > 1:
            j = (i + 1) % cp.n
            ell = [0] * cp.n
            ell[j], ell[i] = w[i], -w[j]
            out += [tuple(ell), tuple(F(x, 3) for x in ell)]
    return out


class TestSymbolicInInts:
    """The int vertex sums equal the Fraction MultiPoly vertex sums."""

    def test_degenerate_directions(self, all_instances):
        for inst in all_instances:
            cp = inst.cp
            one = MultiPoly.constant(cp.n, 1)
            for ell in degenerate_directions(cp):
                assert any(m > 0 for *_, m, _, _ in mp._vertex_plan(cp, tuple(map(F, ell))))
                assert mp.integral_polynomial_symbolic(cp, one, direction=ell) \
                    == symbolic_by_multipoly(cp, one, ell), (inst.label, ell)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_integrands(self, data):
        cp = data.draw(st.sampled_from(all_instances())).cp
        degree = data.draw(st.integers(0, 3))
        monos = weighted_monomials((1,) * cp.n, degree)
        chosen = data.draw(st.lists(st.sampled_from(monos), unique=True))
        coeffs = data.draw(st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
            min_size=len(chosen), max_size=len(chosen)))
        f = MultiPoly(cp.n, dict(zip(chosen, coeffs)))
        ell = data.draw(st.sampled_from([None] + degenerate_directions(cp)))
        assert mp.integral_polynomial_symbolic(cp, f, direction=ell) \
            == symbolic_by_multipoly(cp, f, ell)

    def test_uncancelled_poles_are_rejected(self, cp2):
        """A cone with m > 0 whose Laurent coefficients are negated, as if
        its sign were flipped, leaves its poles uncancelled, for symbolic
        and for numeric h."""
        den, forms = mp._integration_plan(cp2, MultiPoly.constant(2, 1), (F(0), F(1)))
        (power, flat, poles), = forms
        cone, lw, zw, m, a = poles[0]
        assert m > 0
        flipped = ((cone, lw, zw, m, tuple(tuple(-v for v in row) for row in a)),) + poles[1:]
        plan = (den, ((power, flat, flipped),))
        for h in (None, [F(1), F(2), F(3)]):
            with pytest.raises(MalformedInputError, match="pole terms"):
                mp._evaluate(cp2, plan, h)


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
                        cpm.cone_sign(cp, cone)
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
        ring = point_ring_cp2
        assert mp.I_gamma(ring, ring.base.unit(), 0, [1, 1, 1]) == F(9, 2)

    def test_hirzebruch_examples(self):
        ring = hirzebruch_ring(1)
        cp = ring.cp
        rng = random.Random(3)
        for _ in range(5):
            h1 = F(rng.randint(-5, 5), rng.randint(1, 2))
            h2 = F(rng.randint(-5, 5), rng.randint(1, 2))
            assert mp.I_gamma(ring, ring.base.unit(), 1, [h1, h2]) == \
                (h1 ** 2 - h2 ** 2) / 2
            assert mp.I_gamma(ring, ring.base.element("t"), 0, [h1, h2]) == h1 + h2

    def test_bkk_examples(self, point_ring_cp2, cp2):
        assert mp.bkk_sides(point_ring_cp2, point_ring_cp2.base.unit(), 0,
                            [1, 1, 1]) == (9, 9)

        ring = hirzebruch_ring(2)
        assert mp.bkk_sides(ring, ring.base.unit(), 1, [1, 0]) == (2, 2)

    def test_bkk_symbolic_cp1(self, point_ring_cp1, cp1):
        rng = random.Random(17)
        for _ in range(5):
            h = [F(rng.randint(-6, 6)) for _ in range(2)]
            lhs, rhs = mp.bkk_sides(point_ring_cp1, point_ring_cp1.base.unit(), 0, h)
            assert lhs == rhs == h[0] + h[1]

    def test_degree_errors(self):
        ring = hirzebruch_ring(1)
        with pytest.raises(DegreeMismatchError):
            mp.bkk_sides(ring, ring.base.unit(), 2, [1, 1])
        with pytest.raises(DegreeMismatchError):
            mp.I_gamma(ring, ring.base.element("t"), 1, [1, 1])


class TestSupportVector:
    def test_every_h_taker_checks_the_length(self):
        ring = hirzebruch_ring(1)
        one, unit = MultiPoly.constant(ring.cp.n, 1), ring.base.unit()
        calls = [lambda h: mp.volume(ring.cp, h),
                 lambda h: mp.integrate_polynomial(ring.cp, h, one),
                 lambda h: mp.I_gamma(ring, unit, 1, h),
                 lambda h: mp.F_gamma(ring, unit, 1, h),
                 lambda h: mp.bkk_sides(ring, unit, 1, h),
                 lambda h: mp.horizontal_part(ring, h, 1)]
        for call in calls:
            assert call(["1/2", 3]) == call([F(1, 2), F(3)])
            for h in ([1], [1, 1, 1]):
                with pytest.raises(MalformedInputError,
                                   match="^support vector length must equal the ray count$"):
                    call(h)


class TestHorizontalPart:
    def test_hirzebruch_formula(self):
        for a in (1, 2):
            ring = hirzebruch_ring(a)
            rng = random.Random(a)
            for _ in range(4):
                h = [F(rng.randint(-4, 4)) for _ in range(2)]
                el = mp.horizontal_part(ring, h, 1)
                expected = ba.el_scale(ring.base.element("t"),
                                       a * (h[0] ** 2 - h[1] ** 2))
                assert el == expected

    def test_point_base_is_scaled_volume(self, point_ring_cp2, cp2):
        el = mp.horizontal_part(point_ring_cp2, [1, 1, 1], 0)
        assert el == {0: F(9)}  # 2! * 9/2

    def test_pairing_against_complementary_classes(self):
        # <b_2i * eta, [B]> = F_eta(Delta) for every eta of matching degree
        rng = random.Random(23)
        for label in ("cp1-bundle-over-cp2?a=2", "cp1xcp1-bundle"):
            ring = get(label).ring()
            k = ring.base.top
            for i in range(k // 2 + 1):
                h = [F(rng.randint(-3, 3)) for _ in range(ring.cp.s)]
                b2i = mp.horizontal_part(ring, h, i)
                for eta_idx in ring.base.indices_of_degree(k - 2 * i):
                    eta = {eta_idx: F(1)}
                    lhs = ring.base.integrate(ring.base.mul(b2i, eta))
                    rhs = mp.F_gamma(ring, eta, i, h)
                    assert lhs == rhs, (label, i)

    def test_i_out_of_range(self):
        ring = hirzebruch_ring(1)
        with pytest.raises(DegreeMismatchError):
            mp.horizontal_part(ring, [1, 1], 2)


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
                lhs, rhs = mp.bkk_sides(ring, gamma, i, h)
                assert lhs == rhs, (inst.label, gamma, i, h)
                cases += 1
        assert cases >= 100
