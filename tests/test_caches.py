"""The per-pair and per-ring caches: cached and uncached paths agree, a
cache never hides an error, and the BKK sample loop does no h-independent
exact work once per sample."""

import contextlib
import io
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import multipoly as mp
from qtk import srbundle as sr
from qtk.catalog import all_instances, get
from qtk.cli import _bkk_samples, main
from qtk.errors import (DegenerateDirectionError, MalformedInputError,
                        NotAConeError, NotAFaceError)

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
def test_degenerate_direction_raises_on_every_call(inst):
    cp = inst.cp
    w = mp._cone_data(cp)[0][2][0]
    # Orthogonal to the dual edge vector w (the zero form when n = 1).
    ell = (-w[1], w[0]) + (0,) * (cp.n - 2) if cp.n > 1 else (0,)
    delta = mp.multipolytope(cp, [1] * cp.s)
    for _ in range(3):
        with pytest.raises(DegenerateDirectionError):
            mp.integrate_linear_power(delta, ell, 2)


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

COUNTED = [(cpm, "snf"), (cpm, "det"), (cpm, "solve_exact"), (mp, "dot"),
           (sr, "dual_character")]


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


@pytest.mark.parametrize("spec", ["cp3", "cp2-twist"])
def test_exact_work_independent_of_sample_count(monkeypatch, spec):
    few = exact_work(monkeypatch, spec, 100)
    many = exact_work(monkeypatch, spec, 300)
    assert few == many
    assert all(few.values()), few  # every counted name is really reached
