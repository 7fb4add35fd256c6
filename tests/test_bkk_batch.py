"""The batch BKK check against the one-sample form.

`multipoly.bkk_check(ring, samples)` checks a stream of (gamma, i, h) in
one call and returns the failing samples; `bkk_sides` gives both sides of
one sample.  The batch must fail exactly where the per-sample comparison
fails, with the same values, raise the same error at the same sample, and
be what `check-all` calls, once.  A mutant sampler, with one table weight
raised by 1, makes samples fail, so the failure lists are not all empty.
The stream is evaluated in chunks of at most `multipoly.CHUNK` samples;
streams ending at and around a chunk boundary fail as the per-sample
comparison does, and a single sample is a batch of one.  The generated
P(L0 + L1 + L2) over CP^2 reaches the vertex sum's pole path, and a
mutant Laurent coefficient is caught there.  Support vectors written
with int, "p/q" and Fraction entries are read as bkk_sides reads them.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import multipoly as mp
from qtk.catalog import all_instances, get
from qtk.cli import _bkk_samples, load_bundle_file, main
from qtk.errors import DegreeMismatchError, MalformedInputError
from qtk.exact import scalar_str
from qtk.poly import MultiPoly

from conftest import clear_caches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = sorted({inst.label for inst in all_instances()} | {"cp2-bundle-over-cp1?a=1,b=2"})


def generated_ring(tmp_path_factory, k, m, twists):
    """P(L0 + ... + L_k) over CP^m with the twists, from the benchmark's
    generator."""
    spec = importlib.util.spec_from_file_location(
        "instances", os.path.join(ROOT, "perfbench", "instances.py"))
    instances = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setitem(sys.modules, "instances", instances)  # its dataclass looks itself up
        spec.loader.exec_module(instances)
        path = str(tmp_path_factory.mktemp("bundle") / "bundle.json")
        instances.write_bundle(path, instances.projective_bundle(k, m, twists))
    return load_bundle_file(path).ring()


@pytest.fixture(scope="module")
def pb33(tmp_path_factory):
    """P(L0 + L1 + L2 + L3) over CP^3 with twists (1, 2, -1)."""
    return generated_ring(tmp_path_factory, 3, 3, [1, 2, -1])


@pytest.fixture(scope="module")
def pb22(tmp_path_factory):
    """P(L0 + L1 + L2) over CP^2 with twists (2, -1), as in the crosscheck
    workload."""
    return generated_ring(tmp_path_factory, 2, 2, [2, -1])


def raise_first_weight(monkeypatch):
    """Make every sampler's first table weight 1 larger."""
    real = mp._bkk_sampler

    def mutant(ring, gamma, i):
        plan, table, wden = real(ring, gamma, i)
        if table:
            (factors, weight), *rest = table
            table = ((factors, weight + 1), *rest)
        return plan, table, wden
    monkeypatch.setattr(mp, "_bkk_sampler", mutant)


def reference_failures(ring, samples):
    """The failing samples by one bkk_sides comparison per sample."""
    out = []
    for gamma, i, h in samples:
        lhs, rhs = mp.bkk_sides(ring, gamma, i, h)
        if lhs != rhs:
            out.append((gamma, i, h, lhs, rhs))
    return out


def assert_batch_equals_reference(ring, monkeypatch):
    for mutated in (False, True):
        if mutated:
            raise_first_weight(monkeypatch)
        for seed in range(5):
            samples = list(_bkk_samples(ring, 300, seed))
            failures = mp.bkk_check(ring, samples)
            assert failures == reference_failures(ring, samples)
            assert bool(failures) == mutated
        monkeypatch.undo()


@pytest.mark.parametrize("spec", SPECS)
def test_batch_equals_per_sample_sides(spec, monkeypatch):
    assert_batch_equals_reference(get(spec).ring(), monkeypatch)


def test_batch_equals_per_sample_sides_pb33(pb33, monkeypatch):
    assert_batch_equals_reference(pb33, monkeypatch)


def test_batch_equals_per_sample_sides_pb22(pb22, monkeypatch):
    assert_batch_equals_reference(pb22, monkeypatch)


def pole_cones(ring, samples):
    """The cones with m > 0 in the sampler plans the samples read."""
    plans = {mp._sampler(ring, gamma, i)[0] for gamma, i, _ in samples}
    return [cone for _, forms in plans for _, _, poles in forms for cone in poles]


def test_the_batch_reaches_the_pole_path(pb22):
    """Some form of the batch comparison vanishes on a dual edge vector, so
    the core's Laurent path and its pole check run."""
    assert pole_cones(pb22, _bkk_samples(pb22, 300, 0))


def perturb_a_pole_coefficient(monkeypatch):
    """Make a[0][0], the first Laurent coefficient of every sampler's first
    cone with m > 0, larger by 1."""
    real = mp._bkk_sampler

    def mutant(ring, gamma, i):
        (den, forms), table, wden = real(ring, gamma, i)
        out, done = [], False
        for power, flat, poles in forms:
            if poles and not done:
                (cone, lw, zw, m, a), *rest = poles
                (first, *row), *rows = a
                a = ((first + 1, *row), *rows)
                poles, done = ((cone, lw, zw, m, a), *rest), True
            out.append((power, flat, poles))
        return (den, tuple(out)), table, wden
    monkeypatch.setattr(mp, "_bkk_sampler", mutant)


def test_a_wrong_pole_coefficient_is_caught(pb22, monkeypatch):
    """The perturbed coefficient adds l(A)^(n+d) to the cone's pole of
    order m, which no other cone cancels wherever l(A) != 0.  The error
    raises when the first chunk is evaluated, after CHUNK samples."""
    samples = list(_bkk_samples(pb22, 300, 0))
    assert len(samples) > mp.CHUNK
    perturb_a_pole_coefficient(monkeypatch)
    consumed = []

    def stream():
        for sample in samples:
            consumed.append(sample)
            yield sample
    with pytest.raises(MalformedInputError, match="pole terms of the vertex sum do not cancel"):
        mp.bkk_check(pb22, stream())
    assert len(consumed) == mp.CHUNK


@pytest.mark.parametrize("count", [mp.CHUNK - 1, mp.CHUNK, mp.CHUNK + 1, 2 * mp.CHUNK + 17])
def test_streams_at_chunk_boundaries(count, pb22, monkeypatch):
    """Streams that end just before, at and just after a chunk, and one of
    several chunks, with the samplers interleaved, fail exactly where the
    per-sample comparison fails, with the true and the mutant sampler."""
    samples = list(_bkk_samples(pb22, count, 2))
    assert len({(i, *gamma) for gamma, i, _ in samples[:mp.CHUNK]}) > 1
    for mutated in (False, True):
        if mutated:
            raise_first_weight(monkeypatch)
        failures = mp.bkk_check(pb22, samples)
        assert failures == reference_failures(pb22, samples)
        assert bool(failures) == mutated


def record_batches(monkeypatch):
    """The number of samples of every batch the int core evaluates."""
    sizes = []
    real = mp._batch

    def counting(plan, table, cols, scales):
        sizes.append(len(scales))
        return real(plan, table, cols, scales)
    monkeypatch.setattr(mp, "_batch", counting)
    return sizes


@pytest.mark.parametrize("spec", ["cp2", "cp2-bundle-over-cp1?a=1,b=2"])
def test_no_batch_exceeds_a_chunk(spec, monkeypatch):
    """bkk_check evaluates every sample once, in batches of at most CHUNK
    samples; a fan over a point has one sampler, so its batches are whole
    chunks and the rest."""
    ring = get(spec).ring()
    count = 2 * mp.CHUNK + 17
    samples = list(_bkk_samples(ring, count, 0))
    sizes = record_batches(monkeypatch)
    mp.bkk_check(ring, samples)
    assert sum(sizes) == count and max(sizes) <= mp.CHUNK
    if ring.base.top == 0:
        assert sizes == [mp.CHUNK, mp.CHUNK, 17]


def test_one_sample_is_a_batch_of_one(monkeypatch):
    """bkk_sides, F_gamma, I_gamma and integrate_polynomial each reach the
    int core once, with a batch of one: one formula for one sample and for
    a stream."""
    ring = get("cp2-bundle-over-cp1?a=1,b=2").ring()
    (gamma, i, h), = _bkk_samples(ring, 1, 0)
    f = MultiPoly(ring.cp.n, {(1, 1): F(2), (2, 0): F(-1, 3)})
    sizes = record_batches(monkeypatch)
    for call in (lambda: mp.bkk_sides(ring, gamma, i, h), lambda: mp.F_gamma(ring, gamma, i, h),
                 lambda: mp.I_gamma(ring, gamma, i, h),
                 lambda: mp.integrate_polynomial(ring.cp, h, f)):
        sizes.clear()
        call()
        assert sizes == [1]


@pytest.mark.parametrize("inst", all_instances(), ids=lambda inst: inst.label)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_classes_written_differently(inst, data):
    """Multi-term rational classes, with zero coefficients and in either key
    order, and the zero class, fail as the per-sample comparison does."""
    ring = inst.ring()
    top = ring.base.top
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    entry = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
    samples = []
    for i in range(top // 2 + 1):
        gamma = {idx: data.draw(coeff) for idx in ring.base.indices_of_degree(top - 2 * i)}
        for written in ({}, gamma, dict(reversed(gamma.items()))):
            h = data.draw(st.lists(entry, min_size=ring.cp.s, max_size=ring.cp.s))
            samples.append((written, i, h))
    with pytest.MonkeyPatch.context() as monkeypatch:
        raise_first_weight(monkeypatch)
        assert mp.bkk_check(ring, samples) == reference_failures(ring, samples)
    assert mp.bkk_check(ring, samples) == []


@pytest.mark.parametrize("spec", ["cp3", "cp1-bundle-over-cp2?a=1", "cp1xcp1-bundle"])
def test_mutant_sampler_fails_check_all(spec, monkeypatch, capsys):
    """check-all exits 1 and lists the failures of the per-sample
    comparison: same order, gamma, i, h, lhs and rhs strings."""
    monkeypatch.delenv("QTK_SEED", raising=False)
    raise_first_weight(monkeypatch)
    clear_caches()
    code = main(["check-all", spec, "--samples", "60", "--seed", "3"])
    result = json.loads(capsys.readouterr().out)["result"]
    ring = get(spec).ring()
    expected = [{"gamma": ba.el_str(ring.base, gamma), "i": i,
                 "h": [scalar_str(v) for v in h],
                 "lhs": scalar_str(lhs), "rhs": scalar_str(rhs)}
                for gamma, i, h, lhs, rhs
                in reference_failures(ring, _bkk_samples(ring, 60, 3))]
    assert (code, result["bkk_ok"], result["ok"]) == (1, False, False)
    assert 0 < len(expected) < 60
    assert result["bkk_failures"] == expected


class TestErrorsInTheStream:
    """A bad sample raises the error bkk_sides raises for it, when the
    batch reaches it, and not before."""

    SPEC = "cp1-bundle-over-cp2?a=1"

    BAD = [
        ("t", 0, [1, 1], DegreeMismatchError),
        ("1", 3, [1, 1], DegreeMismatchError),
        ("1", -1, [1, 1], DegreeMismatchError),
        ("t", 1, [1], MalformedInputError),
        ("t", 5, [1, 1, 1], MalformedInputError),
        ("t", 1, ["1.5", 1], MalformedInputError),
        # h is read entry by entry as support_vector reads it, and its error
        # comes before that of a bad (gamma, i)
        ("1", 3, [1], MalformedInputError),
        ("1", 3, ["x", 1, 1], MalformedInputError),
        ("t", 1, [], MalformedInputError),
        ("t", 1, [True, 1], MalformedInputError),
        ("t", 1, [1.0, 1], MalformedInputError),
        ("t", 1, [None, 1], MalformedInputError),
        ("t", 1, ["1/0", 1], MalformedInputError),
        ("t", 1, ["1/-2", 1], MalformedInputError),
        ("t", 1, [" 1 / 2", 1], MalformedInputError)]

    @pytest.mark.parametrize("gamma, i, h, error", BAD)
    def test_same_error_at_the_same_sample(self, gamma, i, h, error):
        self.check(gamma, i, h, error, 30)

    @pytest.mark.parametrize("gamma, i, h, error", BAD)
    def test_same_error_past_the_first_chunk(self, gamma, i, h, error):
        """The first chunk is evaluated before the stream reaches the bad
        sample, which still raises at its own place."""
        self.check(gamma, i, h, error, mp.CHUNK + 30)

    def check(self, gamma, i, h, error, before):
        ring = get(self.SPEC).ring()
        bad = (ring.base.element(gamma), i, h)
        with pytest.raises(error) as expected:
            mp.bkk_sides(ring, *bad)
        # The good samples warm the samplers of every valid (gamma, i).
        good = list(_bkk_samples(ring, before + 10, 0))
        clear_caches()
        for _ in range(2):  # cold, then warm caches
            consumed = []

            def stream():
                for sample in good[:before] + [bad] + good[before:]:
                    consumed.append(sample)
                    yield sample
            with pytest.raises(error) as raised:
                mp.bkk_check(ring, stream())
            assert str(raised.value) == str(expected.value)
            assert consumed[-1] is bad and len(consumed) == before + 1


def test_check_all_calls_the_batch_once(monkeypatch):
    """cmd_check_all reaches multipoly.bkk_check once, through the module
    attribute a tracer rebinds, with the whole sample stream."""
    calls = []
    real = mp.bkk_check

    def counting(ring, samples):
        samples = list(samples)
        calls.append(len(samples))
        return real(ring, samples)
    monkeypatch.setattr(mp, "bkk_check", counting)
    monkeypatch.delenv("QTK_SEED", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-all", "cp3", "--samples", "40"]) == 0
    assert calls == [40]


def written(v: F, rng: random.Random):
    """The rational v as an int, a "p/q" or "p" string (maybe unreduced,
    signed or padded) or a Fraction."""
    forms = [v, f"{v.numerator}/{v.denominator}", f" {2 * v.numerator}/{2 * v.denominator}",
             str(v), f"+{v}" if v >= 0 else str(v)]
    if v.denominator == 1:
        forms.append(int(v))
    return rng.choice(forms)


@pytest.mark.parametrize("spec", ["hirzebruch?a=1", "cp2-bundle-over-cp1?a=1,b=2", "cp3"])
def test_entries_written_as_int_string_or_fraction(spec, monkeypatch):
    """A stream of support vectors mixing int, "p/q" string and Fraction
    entries fails exactly where one bkk_sides call per sample fails."""
    ring = get(spec).ring()
    rng = random.Random(29)
    samples = [(gamma, i, [written(v, rng) for v in h])
               for gamma, i, h in _bkk_samples(ring, 200, 1)]
    assert {type(v) for _, _, h in samples for v in h} == {int, str, F}
    for mutated in (False, True):
        if mutated:
            raise_first_weight(monkeypatch)
        failures = mp.bkk_check(ring, samples)
        assert failures == reference_failures(ring, samples)
        assert bool(failures) == mutated
