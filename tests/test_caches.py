"""The per-pair and per-ring caches: cached and uncached paths agree, a
cache never hides an error, and the BKK sample loop does no h-independent
exact work once per sample."""

import contextlib
import io
import itertools
import json
import re
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import exact
from qtk import multipoly as mp
from qtk import srbundle as sr
from qtk.catalog import all_instances, get
from qtk.cli import _bkk_samples, main
from qtk.errors import DegreeMismatchError, MalformedInputError, NotAConeError, NotAFaceError
from qtk.exact import cleared_dense
from qtk.poly import MultiPoly, weighted_monomials
from qtk.record import Record

import fans
from conftest import clear_caches, two_character_cases

INSTANCES = all_instances()


def label(inst):
    return inst.label


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_default_reduce_equals_explicit_chooser(inst, data):
    """reduce's default chooser is the canonical character, and the
    rewriting is linear over the base: it equals the sum of the terms' base
    classes times the normal forms of their x-monomials, the associativity
    that associativity_top_pairing relies on."""
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
    nf = sr.reduce(ring, el)
    assert nf == sr.reduce(ring, el, chooser=canonical)
    linear = {}
    for (expo, i), c in el.items():
        monomial = {(expo, ring.base.unit_index()): 1}
        for (e, j), r in sr.reduce(ring, monomial).items():
            linear = ba.el_add(linear, {(e, k): c * r * ck for k, ck
                                        in ring.base.products.get((i, j), {}).items()})
    assert nf == linear


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
    """F_gamma (the sampler's table of weighted face monomials, summed at
    integer H) equals the repeated product behind `qtk intersect`."""
    ring = inst.ring()
    h = data.draw(support_vectors(ring.cp.s))
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    for gamma, i in valid_pairs(ring, c):
        product = [sr.rho(ring, h)] * (ring.cp.n + i)
        assert mp.F_gamma(ring, gamma, i, h) == \
            sr.intersection_number(ring, product, gamma)


def reference_bkk_sides(ring, gamma, i, h):
    """(I_gamma, F_gamma) by the route without a sampler: f_gamma integrated
    by integrate_polynomial, and gamma * rho(H)^(n+i) expanded by the
    multinomial theorem over every x-monomial of degree n+i (those off the
    faces pair to zero) and paired by evaluate_top, over D^(n+i)."""
    big_h, den = cleared_dense(h)
    k = ring.cp.n + i
    el = {}
    for alpha in weighted_monomials((1,) * ring.cp.s, k):
        c = factorial(k) // prod(map(factorial, alpha)) * \
            prod(v ** e for v, e in zip(big_h, alpha))
        for idx, g in gamma.items():
            if c and g:
                el[alpha, idx] = c * g
    integral = mp.integrate_polynomial(ring.cp, h,
                                       ba.f_gamma(ring.base, ring.chern, gamma, i))
    return integral, sr.evaluate_top(ring, el) / den ** k


def mixed_support_vectors(s):
    """Support vectors whose entries have independent denominators up to 6."""
    entry = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    return st.lists(entry, min_size=s, max_size=s)


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sampler_equals_reference_route(inst, data):
    """I_gamma, F_gamma and bkk_sides read one cached sampler per (gamma, i);
    they equal the route without it for every valid i, on the zero class,
    on multi-term rational classes (zero coefficients included) and on the
    same class again, with caches warm from earlier examples."""
    ring = inst.ring()
    top, n = ring.base.top, ring.cp.n
    h = data.draw(mixed_support_vectors(ring.cp.s))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    whole = MultiPoly.zero(n)
    integrals = Fraction(0)
    for i in range(top // 2 + 1):
        drawn = {idx: data.draw(coeff) for idx in ring.base.indices_of_degree(top - 2 * i)}
        for gamma in ({}, drawn, dict(drawn)):
            integral, intersection = reference_bkk_sides(ring, gamma, i, h)
            assert mp.I_gamma(ring, gamma, i, h) == integral
            assert mp.F_gamma(ring, gamma, i, h) == intersection
            lhs, rhs = mp.bkk_sides(ring, gamma, i, h)
            assert lhs == factorial(n + i) * integral == factorial(i) * intersection == rhs
        whole = whole + ba.f_gamma(ring.base, ring.chern, drawn, i)
        integrals += mp.I_gamma(ring, drawn, i, h)
    # The integrands of all i at once are not homogeneous: integrating their
    # sum brings each degree's vertex sums to one power of D.
    assert mp.integrate_polynomial(ring.cp, h, whole) == integrals


def associativity_top_pairing(ring, el):
    """<el, [M]> by associativity: a term c b_g x^expo pairs to
    c * sum sign(J) r <b_g b_j, [B]> over the terms r b_j x^e of the normal
    form of the unit monomial x^expo whose support J is a maximal cone."""
    base, cp = ring.base, ring.cp
    total = Fraction(0)
    for (expo, g), c in el.items():
        for (e, j), r in sr.reduce(ring, {(expo, base.unit_index()): Fraction(1)}).items():
            supp = tuple(k for k, v in enumerate(e) if v)
            if len(supp) == cp.n:
                total += c * cpm.cone_sign(cp, supp) * r * \
                    base.integrate(base.products.get((g, j), {}))
    return total


def top_pairing_rings():
    """(id, ring): every catalog ring, and cp2's fan over the two bases with
    nonzero Chern data in two characters, where reduce multiplies base
    classes."""
    cp2 = get("cp2").cp
    return [(inst.label, inst.ring()) for inst in INSTANCES] + \
        [(name, sr.BundleRing(cp2, alg, chern)) for name, alg, chern in two_character_cases()]


@pytest.mark.parametrize("ring", [pytest.param(ring, id=name)
                                  for name, ring in top_pairing_rings()])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cached_top_pairing_equals_explicit_chooser(ring, data):
    """evaluate_top, which reduces the whole element, equals the pairing by
    associativity from the normal forms of unit x-monomials, on random
    top-degree elements with rational coefficients."""
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
    assert sr.evaluate_top(ring, el) == associativity_top_pairing(ring, el)


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
                         for alpha in weighted_monomials((1,) * cp.n, degree)})
    h = data.draw(support_vectors(cp.s))
    assert mp.integrate_polynomial(cp, h, f) == \
        mp.integral_polynomial_symbolic(cp, f).evaluate(h)


@pytest.mark.parametrize("inst", INSTANCES, ids=label)
def test_values_survive_cache_clear(inst):
    ring = inst.ring()
    samples = list(_bkk_samples(ring, 6, 11))

    def values():
        out = []
        for gamma, i, h in samples:
            f = ba.f_gamma(ring.base, ring.chern, gamma, i)
            out.append((mp.integrate_polynomial(ring.cp, h, f),
                        mp.bkk_sides(ring, gamma, i, h)))
        return out

    clear_caches()
    cold = values()
    warm = values()
    clear_caches()
    assert cold == warm == values()
    assert all(lhs == rhs for _, (lhs, rhs) in cold)


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

    @pytest.mark.parametrize("options, message", [
        (["--gamma", "t", "--i", "0"], "error: gamma has degree 2, expected 4\n"),
        (["--gamma", "1", "--i", "3"], "error: need 0 <= 2*3 <= 4\n"),
        (["--gamma", "1", "--i", "-1"], "error: need 0 <= 2*-1 <= 4\n")])
    def test_bkk_errors_on_cold_and_warm_caches(self, capsys, options, message):
        spec = "cp1-bundle-over-cp2?a=1"

        def error():
            code = main(["bkk", spec, "--h", "1,1", *options])
            return code, capsys.readouterr()

        clear_caches()
        cold = [error(), error()]
        # Warm the samplers of both valid (gamma, i) of the base CP^2 with a
        # top-degree class.
        for gamma, i in (("t", "1"), ("1", "2"), ("t^2", "0")):
            assert main(["bkk", spec, "--h", "1,1", "--gamma", gamma, "--i", i]) == 0
        capsys.readouterr()
        warm = [error(), error()]
        for code, captured in cold + warm:
            assert (code, captured.out, captured.err) == (2, "", message)

    @pytest.mark.parametrize("gamma, i, message", [
        ("1", -1, "need 0 <= 2*-1 <= 4"),
        ("1", 3, "need 0 <= 2*3 <= 4"),
        ("t", 0, "gamma has degree 2, expected 4"),
        ("t", 3, "need 0 <= 2*3 <= 4")])
    def test_bkk_sides_errors_on_cold_and_warm_caches(self, gamma, i, message):
        """I_gamma, F_gamma and bkk_sides leave the (gamma, i) check to
        f_gamma, reached through the sampler on every call."""
        ring = get("cp1-bundle-over-cp2?a=1").ring()
        gamma = ring.base.element(gamma)
        sides = (mp.I_gamma, mp.F_gamma, mp.bkk_sides)

        def raise_every_time():
            for side in sides:
                for _ in range(2):
                    with pytest.raises(DegreeMismatchError, match=f"^{re.escape(message)}$"):
                        side(ring, gamma, i, [1, 1])

        clear_caches()
        raise_every_time()
        for warm_gamma, warm_i in (("t2", 0), ("t", 1), ("1", 2)):
            for side in sides:
                side(ring, ring.base.element(warm_gamma), warm_i, [1, 1])
        raise_every_time()

    def test_non_unimodular_cone(self):
        cp = cpm.make_pair(1, [(1,), (-1,)], [(2,), (-1,)], [(0,), (1,)])
        for _ in range(2):
            with pytest.raises(MalformedInputError,
                               match="cone fails simpliciality or unimodularity"):
                cpm.cone_sign(cp, (0,))
            with pytest.raises(MalformedInputError, match="face is not unimodular"):
                cpm.dual_character(cp, (0,), 0)


# ---------------------------------------------------------------------------
# Regression guard: the exact work charpair, multipoly and srbundle do during
# check-all, and the characters reduce asks for, must not grow with the number
# of BKK samples.

COUNTED = [(cpm, "inverse_int"), (mp, "dot"),
           (sr, "dual_character"), (mp, "f_gamma"), (mp, "power_of_linear_forms"),
           (sr, "evaluate_top")]


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


@pytest.mark.parametrize("spec", ["cp3", "cp2-bundle-over-cp1?a=1,b=2"])
def test_check_all_records_independent_of_sample_count(monkeypatch, spec):
    """The BKK sample loop builds no value record per sample."""
    def records(samples):
        count = 0

        def counting(self, *args, _real=Record.__init__, **kwargs):
            nonlocal count
            count += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(Record, "__init__", counting)
        clear_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check-all", spec, "--samples", str(samples)]) == 0
        monkeypatch.undo()
        return count

    assert records(100) == records(300)


def test_check_all_solves_once_per_maximal_cone(monkeypatch):
    # One elimination of [lambda_sigma | I] gives a cone's lattice determinant
    # and whole dual edge frame, and one of [rays | I] its ray determinant and
    # every facet normal: two per cone, none per facet.
    assert exact_work(monkeypatch, "cp3", 20)["inverse_int"] == \
        2 * len(get("cp3").cp.max_cones)


@pytest.mark.parametrize("fan", [fans.cp_fan(3), fans.GOLDEN["cp4-blowup"],
                                 fans.GOLDEN["bott4"], fans.GOLDEN["cp2xcp2"]],
                         ids=["cp3", "cp4-blowup", "bott4", "cp2xcp2"])
def test_validate_eliminates_at_most_twice_per_maximal_cone(monkeypatch, fan):
    """validate runs the dense elimination for [rays | I] and for
    [lambda_sigma | I] of each maximal cone, never per facet or walk step:
    every facet normal is a column of its first owner's ray adjugate and
    every side the sign of a dot product."""
    cp = cpm.make_pair(*fan)
    calls = 0

    def counting(*args, _real=exact.echelon_int):
        nonlocal calls
        calls += 1
        return _real(*args)

    clear_caches()
    monkeypatch.setattr(exact, "echelon_int", counting)
    assert cpm.validate(cp).ok
    monkeypatch.undo()
    clear_caches()
    assert 0 < calls <= 2 * len(cp.max_cones)


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
        return -sign if tuple(sorted(cone)) == flipped else sign

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
