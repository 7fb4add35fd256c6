"""The per-pair and per-ring caches: cached and uncached paths agree, a
cache never hides an error, and the BKK sample loop does no h-independent
exact work once per sample."""

import contextlib
import dataclasses
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import multipoly as mp
from qtk import srbundle as sr
from qtk.catalog import all_instances, get
from qtk.cli import _bkk_samples, main
from qtk.errors import MalformedInputError, NotAConeError, NotAFaceError
from qtk.poly import MultiPoly, monomials_of_degree

from conftest import clear_caches

INSTANCES = all_instances()


def label(inst):
    return inst.label


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_default_reduce_equals_explicit_chooser(inst, data):
    """The cached linear reduction equals the rewriting with the same
    (canonical) characters passed explicitly, which never caches."""
    ring = inst.ring()
    cp = ring.cp
    terms = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, 2), min_size=cp.s, max_size=cp.s).map(tuple),
        st.integers(0, ring.base.dim - 1),
        st.fractions(min_value=-5, max_value=5, max_denominator=4)), max_size=6))
    el = {}
    for expo, idx, c in terms:
        el = ba.el_add(el, {(expo, idx): c})
    canonical = lambda face, j: cpm.dual_character(cp, face, j)
    assert sr.reduce(ring, el) == sr.reduce(ring, el, chooser=canonical)


def support_vectors(s):
    """Support vectors with negative, zero and fractional entries."""
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                    min_size=s, max_size=s)


def valid_pairs(ring, c):
    """Every (c times a basis class gamma, i) with deg gamma = top - 2i."""
    top = ring.base.top
    return [({idx: c}, i) for i in range(top // 2 + 1)
            for idx in ring.base.indices_of_degree(top - 2 * i)]


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_multinomial_f_gamma_equals_repeated_product(inst, data):
    """F_gamma (multinomial expansion at integer H, cached top pairings)
    equals the repeated product behind `qtk intersect`."""
    ring = inst.ring()
    h = data.draw(support_vectors(ring.cp.s))
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    delta = mp.multipolytope(ring.cp, h)
    for gamma, i in valid_pairs(ring, c):
        product = [sr.rho(ring, h)] * (ring.cp.n + i)
        assert mp.F_gamma(ring, gamma, i, delta) == \
            sr.intersection_number(ring, product, gamma)


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cached_top_pairing_equals_explicit_chooser(inst, data):
    """evaluate_top through the cached pairings equals the rewriting with
    the canonical characters passed explicitly, on top-degree elements."""
    ring = inst.ring()
    cp = ring.cp
    terms = []
    for xdeg in range(ring.total_degree // 2 + 1):
        idxs = ring.base.indices_of_degree(ring.total_degree - 2 * xdeg)
        if idxs:
            terms.append(st.tuples(
                st.lists(st.integers(0, cp.s - 1), min_size=xdeg, max_size=xdeg),
                st.sampled_from(idxs),
                st.fractions(min_value=-5, max_value=5, max_denominator=4)))
    el = {}
    for slots, idx, c in data.draw(st.lists(st.one_of(terms), max_size=6)):
        expo = tuple(slots.count(i) for i in range(cp.s))
        el = ba.el_add(el, {(expo, idx): c})
    canonical = lambda face, j: cpm.dual_character(cp, face, j)
    assert sr.evaluate_top(ring, el) == sr.evaluate_top(ring, el, chooser=canonical)


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_planned_integral_equals_symbolic(inst, data):
    """integrate_polynomial at integer H equals the symbolic integral
    evaluated at h, for homogeneous integrands of degree 0 to 2."""
    cp = inst.cp
    degree = data.draw(st.integers(0, 2))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    f = MultiPoly(cp.n, {alpha: data.draw(coeffs)
                         for alpha in monomials_of_degree(cp.n, degree)})
    h = data.draw(support_vectors(cp.s))
    assert mp.integrate_polynomial(mp.multipolytope(cp, h), f) == \
        mp.integral_polynomial_symbolic(cp, f).evaluate(h)


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
def test_values_survive_cache_clear(inst):
    ring = inst.ring()
    samples = list(_bkk_samples(ring, 6, 11))

    def values():
        out = []
        for gamma, i, h in samples:
            delta = mp.multipolytope(ring.cp, h)
            f = ba.f_gamma(ring.base, ring.chern, gamma, i)
            out.append((mp.integrate_polynomial(delta, f),
                        mp.bkk_check(ring, gamma, i, delta)))
        return out

    clear_caches()
    cold = values()
    warm = values()
    clear_caches()
    assert cold == warm == values()
    assert all(res.equal for _, res in cold)


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
def test_sign_and_character_ignore_the_order(inst):
    cp = inst.cp
    for cone in cp.max_cones:
        sign = cpm.cone_sign(cp, cone)
        for perm in itertools.permutations(cone):
            assert cpm.cone_sign(cp, perm) == sign
    for face in cpm.faces(cp):
        for j in face:
            chi = cpm.dual_character(cp, face, j)
            for perm in itertools.permutations(face):
                assert cpm.dual_character(cp, perm, j) == chi


class TestErrorsAreNotCached:
    """The wrappers keep their checks and messages, naming the caller's own
    order, and an error raises again on every call."""

    def test_not_a_cone(self):
        cp = get("cp1xcp1").cp  # x1 and x2 span no cone
        for _ in range(2):
            with pytest.raises(NotAConeError, match=r"^\[1, 0\] is not a maximal cone$"):
                cpm.cone_sign(cp, (1, 0))

    def test_not_a_face(self, cp2):
        for _ in range(2):
            with pytest.raises(NotAFaceError, match=r"^\[2, 1, 0\] is not a face$"):
                cpm.dual_character(cp2, (2, 1, 0), 0)
            with pytest.raises(NotAFaceError,
                               match="distinguished index must belong to the face"):
                cpm.dual_character(cp2, (1, 0), 2)

    def test_non_unimodular_cone(self):
        cp = cpm.make_pair(1, [(1,), (-1,)], [(2,), (-1,)], [(0,), (1,)])
        for _ in range(2):
            with pytest.raises(MalformedInputError,
                               match="cone fails simpliciality or unimodularity"):
                cpm.cone_sign(cp, (0,))
            with pytest.raises(MalformedInputError, match="face is not unimodular"):
                cpm.dual_character(cp, (0,), 0)


# ---------------------------------------------------------------------------
# Regression guard: the exact work charpair and multipoly do during check-all,
# and the characters reduce asks for, must not grow with the number of BKK
# samples.

COUNTED = [(cpm, "det"), (cpm, "solve_exact"), (mp, "dot"),
           (sr, "dual_character"), (mp, "f_gamma"), (mp, "power_of_linear_forms")]


def exact_work(monkeypatch, spec, samples):
    counts = dict.fromkeys((name for _, name in COUNTED), 0)
    for module, name in COUNTED:
        def counting(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    clear_caches()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-all", spec, "--samples", str(samples)]) == 0
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("spec", ["cp3", "cp2-twist", "cp2-bundle-over-cp1?a=1,b=2"])
def test_exact_work_independent_of_sample_count(monkeypatch, spec):
    few = exact_work(monkeypatch, spec, 100)
    many = exact_work(monkeypatch, spec, 300)
    assert few == many
    # Every counted name is really reached, except that a fan over a point
    # integrates only constants, which need no powers of linear forms.
    over_point = get(spec).base.dim == 1
    assert all(count or (over_point and name == "power_of_linear_forms")
               for name, count in few.items()), few


# ---------------------------------------------------------------------------
# Mutants: a fault on either side of the BKK identity still fails check-all
# after its h-independent work moved out of the sample loop.

@pytest.fixture
def cold_caches():
    """Start and end with empty caches, so no faulty value outlives the test."""
    clear_caches()
    yield
    clear_caches()


def check_all_report(spec, capsys):
    code = main(["check-all", spec, "--samples", "20"])
    return code, json.loads(capsys.readouterr().out)["result"]


def test_flipped_cone_sign_fails_the_intersection_side(monkeypatch, capsys, cold_caches):
    flipped = get("cp2").cp.max_cones[0]

    def cone_sign(cp, cone, _real=sr.cone_sign):
        sign = _real(cp, cone)
        return dataclasses.replace(sign, value=-sign.value) \
            if sign.rays == flipped else sign

    monkeypatch.setattr(sr, "cone_sign", cone_sign)
    code, result = check_all_report("cp2", capsys)
    assert code == 1 and not result["bkk_ok"] and result["bkk_failures"]
    assert result["betti_equals_brion"] and result["hilbert_matches"]


def test_dropped_linear_form_fails_the_integral_side(monkeypatch, capsys, cold_caches):
    # A fan over a point integrates only constants, which use no linear
    # forms; over CP^2 the samples with i > 0 do.
    def power_of_linear_forms(alpha, _real=mp.power_of_linear_forms):
        return _real(alpha)[1:]

    monkeypatch.setattr(mp, "power_of_linear_forms", power_of_linear_forms)
    code, result = check_all_report("cp1-bundle-over-cp2?a=1", capsys)
    assert code == 1 and not result["bkk_ok"] and result["bkk_failures"]
    assert all(fail["i"] > 0 for fail in result["bkk_failures"])


@pytest.mark.parametrize("spec", ["cp2", "cp3", "hirzebruch?a=2", "cp2-twist"])
def test_negated_character_fails_the_intersection_side(monkeypatch, capsys, cold_caches, spec):
    def dual_character(cp, face, j, _real=sr.dual_character):
        return tuple(-c for c in _real(cp, face, j))

    monkeypatch.setattr(sr, "dual_character", dual_character)
    code, result = check_all_report(spec, capsys)
    assert code == 1 and not result["bkk_ok"] and result["bkk_failures"]
    assert result["betti_equals_brion"]
