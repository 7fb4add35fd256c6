"""Potentials, annihilators, Hilbert functions, Frobenius kernels."""

import random
from fractions import Fraction as F
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import invsys as iv
from qtk import multipoly as mp
from qtk import srbundle as sr
from qtk.catalog import all_instances, get
from qtk.errors import MalformedInputError, OddClassesPresentError
from qtk.poly import MultiPoly, weighted_monomials

from conftest import exterior_algebra, hirzebruch_ring, two_character_cases


def fan_h_vector(cp):
    """h-vector from face counts alone: h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_{i-1}."""
    f = [0] * (cp.n + 1)
    f[0] = 1
    for face in cpm.faces(cp):
        f[len(face)] += 1
    return [sum((-1) ** (k - i) * comb(cp.n - i, k - i) * f[i]
                for i in range(k + 1)) for k in range(cp.n + 1)]


class TestVolumePotential:
    def test_cp1(self, cp1):
        p = iv.volume_potential(cp1)
        assert p.poly == MultiPoly.linear_form([1, 1])
        assert p.degree == 2

    def test_cp2(self, cp2):
        p = iv.volume_potential(cp2)
        assert p.poly == MultiPoly.linear_form([1, 1, 1]) ** 2 / 2

    def test_hirzebruch_toric_matches_numeric_integrals(self):
        inst = get("hirzebruch-toric?m=1")
        p = iv.volume_potential(inst.cp)
        rng = random.Random(31)
        for _ in range(10):
            h = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(inst.cp.s)]
            assert p.poly.evaluate(h) == mp.volume(inst.cp, h)


class TestBundlePotentials:
    def test_hirzebruch_closed_form(self):
        for a in (0, 1, 2, 3):
            ring = hirzebruch_ring(a)
            p = iv.bundle_potential_integral(ring)
            assert p.var_names == ("t", "h1", "h2")
            expected = MultiPoly(3, {
                (0, 2, 0): F(a, 2), (0, 0, 2): F(-a, 2),
                (1, 1, 0): F(1), (1, 0, 1): F(1),
            })
            assert p.poly == expected

    def test_point_base_reduces_to_volume(self):
        for name in ("cp1", "cp2", "cp3", "cp2-twist"):
            inst = get(name)
            ring = inst.ring()
            p = iv.bundle_potential_integral(ring)
            v = iv.volume_potential(inst.cp)
            assert p.poly == v.poly and p.degree == v.degree, name

    @pytest.mark.parametrize("spec", ["cp1-bundle-over-cp2?a=2", "cp1xcp1-bundle"])
    def test_one_pairing_polynomial_per_class_up_to_scale(self, spec, monkeypatch):
        # Both bases have one top class, which several base monomials are
        # multiples of (t^2 and t2 on CP^2, u*v and uv on CP^1 x CP^1), so
        # the direct potential needs one pairing polynomial per i and class
        # up to scale, and the rescaled results equal the pairing
        # polynomials of every monomial.
        ring = get(spec).ring()
        base = ring.base
        pos = [k for k, d in enumerate(base.degrees) if d > 0]
        weights = tuple(base.degrees[k] for k in pos)
        units = [{k: F(1)} for k in pos]
        expected, monomials, classes = {}, 0, []
        for i in range(base.top // 2 + 1):
            for beta in weighted_monomials(weights, base.top - 2 * i):
                gamma = ba.el_scale(ba.power_product(base, units, beta),
                                    F(1, prod(factorial(e) for e in beta)))
                monomials += bool(gamma)
                if gamma and not any(j == i and g.keys() == gamma.keys()
                           and len({gamma[k] / g[k] for k in g}) == 1 for j, g in classes):
                    classes.append((i, gamma))
                part = sr.pairing_polynomial(ring, gamma, ring.cp.n + i)
                expected.update({beta + alpha: c for alpha, c in part.terms.items()})
        calls = []

        def counted(ring, gamma, degree, _real=sr.pairing_polynomial):
            calls.append(degree)
            return _real(ring, gamma, degree)

        monkeypatch.setattr(iv, "pairing_polynomial", counted)
        pot = iv.bundle_potential_direct(ring)
        assert sorted(calls) == [ring.cp.n + i for i, _ in classes]
        assert monomials > len(calls)
        assert pot.poly == MultiPoly(len(pos) + ring.cp.s, expected)

    def test_direct_equals_integral_everywhere(self, all_instances, cp2):
        # the two-character rings reach f_gamma's multinomial at i = 2
        rings = [(inst.label, inst.ring()) for inst in all_instances] \
            + [(label, sr.BundleRing(cp2, alg, chern))
               for label, alg, chern in two_character_cases()]
        for label, ring in rings:
            pi = iv.bundle_potential_integral(ring)
            pd = iv.bundle_potential_direct(ring)
            assert pi.var_names == pd.var_names
            assert pi.poly == pd.poly, label

    @pytest.mark.parametrize("builder", [iv.bundle_potential_integral,
                                         iv.bundle_potential_direct],
                             ids=lambda builder: builder.__name__)
    def test_rejects_odd_classes(self, cp1, builder):
        ring = sr.BundleRing(cp1, exterior_algebra(), ba.zero_chern(1))
        with pytest.raises(OddClassesPresentError, match="odd-degree classes"):
            builder(ring)

    def test_quasi_homogeneous(self, all_instances):
        for inst in all_instances:
            ring = inst.ring()
            p = iv.bundle_potential_integral(ring)
            assert p.degree == ring.total_degree
            assert all(sum(w * e for w, e in zip(p.weights, expo)) == p.degree
                       for expo in p.poly.terms)


class TestAnnHilbert:
    def test_cp2_volume(self, cp2):
        dims = iv.ann_hilbert(iv.volume_potential(cp2))
        assert dims[0::2] == (1, 1, 1)
        assert dims == (1, 0, 1, 0, 1)

    def test_hirzebruch_bundle(self):
        dims = iv.ann_hilbert(iv.bundle_potential_integral(hirzebruch_ring(1)))
        assert dims[0::2] == (1, 2, 1)

    def test_constant_potential(self):
        dims = iv.ann_hilbert(iv.Potential((), (), MultiPoly.constant(0, 1), 0))
        assert dims == (1,)

    def test_matches_betti_everywhere(self, all_instances):
        for inst in all_instances:
            ring = inst.ring()
            dims = iv.ann_hilbert(iv.bundle_potential_integral(ring))
            assert list(dims) == sr.betti(ring), inst.label

    def test_symmetry(self, all_instances):
        for inst in all_instances:
            dims = iv.ann_hilbert(iv.bundle_potential_integral(inst.ring()))
            assert dims == dims[::-1], inst.label

    def test_h_vector_for_point_base_toric_pairs(self):
        for name in ("cp1", "cp2", "cp3", "cp1xcp1", "hirzebruch-toric"):
            inst = get(name)
            dims = iv.ann_hilbert(iv.volume_potential(inst.cp))
            assert list(dims[0::2]) == fan_h_vector(inst.cp), name

    def test_scale_invariance(self, cp2):
        p = iv.volume_potential(cp2)
        scaled = iv.Potential(p.var_names, p.weights, p.poly * 7, p.degree)
        assert iv.ann_hilbert(scaled) == iv.ann_hilbert(p)


def apolar_rows_by_derivatives(p, d):
    """The apolar rows the direct way: the whole potential differentiated
    once per degree-d monomial, each image's coefficients read into the
    rows of the degree p.degree - d monomials."""
    monos = weighted_monomials(p.weights, d)
    index = {t: k for k, t in enumerate(weighted_monomials(p.weights, p.degree - d))}
    rows = [{} for _ in index]
    for i, m in enumerate(monos):
        for t, c in p.poly.apply_derivative(m).terms.items():
            rows[index[t]][i] = c
    return monos, rows


class TestApolarRows:
    """The catalecticant rows, read off the potential's terms, equal the
    rows of one derivative per monomial."""

    def test_catalog_potentials(self, all_instances):
        for inst in all_instances:
            p = iv.bundle_potential_integral(inst.ring())
            for d in range(p.degree + 1):
                assert iv._apolar_rows(p, d) == apolar_rows_by_derivatives(p, d), \
                    (inst.label, d)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_quasi_homogeneous(self, data):
        weights = tuple(data.draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=3)))
        degree = 2 * data.draw(st.integers(0, 6))
        monos = weighted_monomials(weights, degree)
        chosen = data.draw(st.lists(st.sampled_from(monos), unique=True)
                           if monos else st.just([]))
        coeffs = data.draw(st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
            min_size=len(chosen), max_size=len(chosen)))
        names = tuple(f"y{k}" for k in range(len(weights)))
        p = iv.Potential(names, weights,
                         MultiPoly(len(weights), dict(zip(chosen, coeffs))), degree)
        for d in range(degree + 1):
            assert iv._apolar_rows(p, d) == apolar_rows_by_derivatives(p, d), d


class TestAnnGenerators:
    def test_cp1_generators(self, cp1):
        p = iv.volume_potential(cp1)
        gens = iv.ann_generators(p)
        assert sorted(gens) == [2, 4]
        assert len(gens[2]) == 1
        diff = gens[2][0]
        # proportional to d1 - d2
        assert diff.coefficient((1, 0)) == -diff.coefficient((0, 1)) != 0
        assert len(gens[4]) == 1

    def test_cp2_volume_generators(self, cp2):
        p = iv.volume_potential(cp2)
        gens = iv.ann_generators(p)
        assert len(gens[2]) == 2  # differences of the three first partials
        for g in gens[2]:
            assert sum(g.terms.values()) == 0  # killed by symmetry of the potential

    def test_hirzebruch_single_weight2_generator(self):
        ring = hirzebruch_ring(2)
        p = iv.bundle_potential_integral(ring)
        gens = iv.ann_generators(p)
        assert len(gens[2]) == 1

    def test_every_generator_kills_potential(self, all_instances):
        for inst in all_instances:
            p = iv.bundle_potential_integral(inst.ring())
            for _, gs in iv.ann_generators(p).items():
                for g in gs:
                    assert not iv.apply_operator(g, p.poly), inst.label

    def test_generators_span_annihilator_dimensions(self, cp2):
        # dim Ann_d = dim Sym_d - hilbert_d must be reproduced by the ideal
        from qtk import exact
        from qtk.poly import weighted_monomials
        p = iv.volume_potential(cp2)
        dims = iv.ann_hilbert(p)
        gens = iv.ann_generators(p)
        flat = [(d, g) for d, gs in gens.items() for g in gs]
        for d in range(0, p.degree + 1, 2):
            monos = weighted_monomials(p.weights, d)
            index = {m: i for i, m in enumerate(monos)}
            vectors = []
            for gd, g in flat:
                if gd > d:
                    continue
                for m in weighted_monomials(p.weights, d - gd):
                    prod = g * MultiPoly.monomial(m)
                    vectors.append({index[expo]: c for expo, c in prod.terms.items()})
            ideal_dim = exact.rank(vectors, len(monos))
            assert len(monos) - ideal_dim == dims[d]


class TestFrobeniusKernel:
    def test_cp2_quotient_already_self_dual(self, point_ring_cp2):
        qa = sr.quotient_algebra(point_ring_cp2)
        assert iv.frobenius_kernel(qa) == {}

    def test_truncated_line_gorenstein(self, base_cp2):
        # Q[x]/x^3 with top functional on x^2
        assert iv.frobenius_kernel(base_cp2) == {}

    def test_zero_multiplication_square(self):
        # 1, x, y with all positive products zero and socle degree 2:
        # the pairing matrix in degree 1 is the 2x2 zero matrix
        alg = ba.GradedBaseAlgebra(
            ["1", "x", "y"], [0, 1, 1],
            {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)},
             (0, 2): {2: F(1)}, (2, 0): {2: F(1)}},
            [0, 0, 0])
        kernel = iv.frobenius_kernel(alg, top=2)
        assert kernel[1] == [{1: F(1)}, {2: F(1)}]

    def test_kernel_quotient_dims_are_self_dual(self, all_instances):
        for inst in all_instances[:4]:
            qa = sr.quotient_algebra(inst.ring())
            kernel = iv.frobenius_kernel(qa)
            dims = {}
            for d in sorted(set(qa.degrees)):
                dims[d] = len(qa.indices_of_degree(d)) - len(kernel.get(d, []))
            for d, v in dims.items():
                assert dims.get(qa.top - d, 0) == v


class TestPotentialChecks:
    def test_rejects_non_quasi_homogeneous(self):
        poly = MultiPoly(2, {(1, 0): F(1), (0, 1): F(1)})  # weighted degrees 2 and 4
        with pytest.raises(MalformedInputError,
                           match="not quasi-homogeneous of weighted degree 4"):
            iv.Potential(("x", "y"), (2, 4), poly, 4)

    @pytest.mark.parametrize("weights", [(2,), (2, 4, 2), (0, 2), (2, 3), (-2, 2)])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(MalformedInputError,
                           match="weights must be positive even ints, one per variable"):
            iv.Potential(("x", "y"), weights, MultiPoly.zero(2), 4)
