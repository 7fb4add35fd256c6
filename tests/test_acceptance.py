"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
`pytest -s tests/test_acceptance.py`) and enforces its runtime budget.  All
comparisons are exact rational equalities; there are no tolerances.
"""

import contextlib
import io
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import cli
from qtk import invsys as iv
from qtk import multipoly as mp
from qtk import ppbrion as pp
from qtk import srbundle as sr
from qtk.catalog import CATALOG, all_instances, get
from qtk.poly import MultiPoly

from test_invsys import fan_h_vector


def default_instances():
    """One representative per catalog name (default parameters)."""
    return [get(name) for name in CATALOG]


@contextmanager
def criterion(num, description, limit_seconds):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - t0
        if elapsed >= limit_seconds:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, budget {limit_seconds}s")
        ok = True
        print(f"[criterion {num}] PASS - {description} ({elapsed:.2f}s)")
    finally:
        if not ok:
            print(f"[criterion {num}] FAIL - {description}")


def test_criterion_1_cp2_sanity():
    with criterion(1, "cp2 volume 9/2 and divisor square 9 = 2! * 9/2", 1.0):
        inst = get("cp2")
        ring = inst.ring()
        vol = mp.volume(inst.cp, [1, 1, 1])
        assert vol == F(9, 2)
        s = sr.rho(ring, [1, 1, 1])
        top = sr.intersection_number(ring, [s, s])
        assert top == 9
        assert top == 2 * vol


def test_criterion_2_hirzebruch_cross_check():
    with criterion(2, "hirzebruch a=0..3: x1^2 = a and both pipelines give "
                      "a*(h1^2-h2^2) on 10 points", 1.0):
        points = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(-1), F(2)),
                  (F(1, 2), F(1, 3)), (F(-3), F(-2)), (F(2), F(-5)),
                  (F(7, 3), F(1)), (F(-1, 4), F(3, 2)), (F(5), F(5))]
        for a in (0, 1, 2, 3):
            ring = get(f"hirzebruch?a={a}").ring()
            x1 = sr.x_class(ring, 0)
            assert sr.evaluate_top(ring, sr.bel_mul(ring, x1, x1)) == a
            for h1, h2 in points:
                lhs, rhs = mp.bkk_sides(ring, ring.base.unit(), 1, [h1, h2])
                expected = a * (h1 ** 2 - h2 ** 2)
                assert lhs == expected and rhs == expected


def test_criterion_3_bkk_property_suite():
    with criterion(3, "BKK identity on >= 100 random cases across the catalog",
                   30.0):
        rng = random.Random(31419)
        instances = all_instances()
        assert len(instances) >= 4
        cases = 0
        for inst in instances:
            ring = inst.ring()
            k = ring.base.top
            for _ in range(7):
                i = rng.randint(0, k // 2)
                gamma_idx = rng.choice(ring.base.indices_of_degree(k - 2 * i))
                gamma = {gamma_idx: F(1)}
                h = [F(rng.randint(-3 * d, 3 * d), d)
                     for d in (rng.randint(1, 4) for _ in range(inst.cp.s))]
                lhs, rhs = mp.bkk_sides(ring, gamma, i, h)
                assert lhs == rhs, (inst.label, gamma, i, h)
                cases += 1
        assert cases >= 100


def test_criterion_4_ider_law():
    with criterion(4, "order-n partials of integrals: sign * integrand at the "
                      "vertex on cones, zero off faces", 10.0):
        for inst in all_instances():
            cp = inst.cp
            integrands = [MultiPoly.constant(cp.n, 1)] + \
                [MultiPoly.variable(cp.n, a) for a in range(cp.n)]
            for f in integrands:
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
                for multiset in itertools.combinations_with_replacement(
                        range(cp.s), cp.n):
                    support = tuple(sorted(set(multiset)))
                    if cpm.is_face(cp, support):
                        continue
                    deriv = sym
                    for i in multiset:
                        deriv = deriv.partial(i)
                    assert not deriv, (inst.label, multiset)


def test_criterion_5_potential_equality():
    with criterion(5, "integral and direct bundle potentials coincide as "
                      "polynomials", 10.0):
        for inst in all_instances():
            ring = inst.ring()
            pi = iv.bundle_potential_integral(ring)
            pd = iv.bundle_potential_direct(ring)
            assert pi.var_names == pd.var_names and pi.weights == pd.weights
            assert pi.poly == pd.poly, inst.label


def test_criterion_6_hilbert_match():
    with criterion(6, "annihilator Hilbert function = graded Betti numbers; "
                      "h-vector for toric point-base pairs", 10.0):
        for inst in all_instances():
            ring = inst.ring()
            hilbert = iv.ann_hilbert(iv.bundle_potential_integral(ring))
            dims = sr.betti(ring)
            assert list(hilbert[0::2]) == dims[0::2], inst.label
            assert all(d == 0 for d in hilbert[1::2])
        for name in ("cp1", "cp2", "cp3", "cp1xcp1", "hirzebruch-toric"):
            inst = get(name)
            hilbert = iv.ann_hilbert(iv.volume_potential(inst.cp))
            assert list(hilbert[0::2]) == fan_h_vector(inst.cp), name
        assert iv.ann_hilbert(iv.volume_potential(get("cp2").cp))[0::2] == (1, 1, 1)
        assert iv.ann_hilbert(
            iv.bundle_potential_integral(get("hirzebruch?a=1").ring())
        )[0::2] == (1, 2, 1)


def test_criterion_7_brion_match():
    with criterion(7, "piecewise-polynomial quotient dims = Betti numbers "
                      "(fiber and bundle)", 10.0):
        for inst in all_instances():
            ring = inst.ring()
            dims = sr.betti(ring)
            point_ring = sr.BundleRing(inst.cp, ba.make_point(),
                                       ba.zero_chern(inst.cp.n))
            fiber_expected = sr.betti(point_ring)[0::2]
            assert pp.brion_bundle_dims(ring) == (dims, fiber_expected), inst.label
            assert pp.brion_quotient_dims(inst.cp) == fiber_expected, inst.label


def _charpair_mutants():
    good_rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [(0, 1), (1, 2), (0, 2)]
    return {
        "simplicial": cpm.make_pair(
            2, [(1, 0), (2, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], cones),
        "unimodular": cpm.make_pair(
            2, good_rays, [(2, 0), (0, 1), (-1, -1)], cones),
        "facet_pairing": cpm.toric_pair(good_rays, cones[:2]),
        "point_coverage": cpm.toric_pair([(1, 0), (0, 1), (1, -1)], cones),
    }


def _basealg_mutants():
    cp1b = ba.make_cp(1)
    cp2b = ba.make_cp(2)
    cp4b = ba.make_cp(4)
    two_units = ba.GradedBaseAlgebra(
        ["1", "e"], [0, 0],
        {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}}, [1, 0])
    asym = {k: dict(v) for k, v in cp1b.products.items()}
    asym[(1, 0)] = {1: F(2)}
    non_comm = ba.GradedBaseAlgebra(cp1b.names, cp1b.degrees, asym,
                                    cp1b.fundamental)
    skew = {k: dict(v) for k, v in cp4b.products.items()}
    skew[(2, 2)] = {4: F(2)}
    non_assoc = ba.GradedBaseAlgebra(cp4b.names, cp4b.degrees, skew,
                                     cp4b.fundamental)
    degenerate = ba.GradedBaseAlgebra(cp2b.names, cp2b.degrees, cp2b.products,
                                      [F(0)] * cp2b.dim)
    return {
        "unit": two_units,
        "graded_commutative": non_comm,
        "associative": non_assoc,
        "poincare_pairing": degenerate,
    }


def test_criterion_8_validator_mutants():
    with criterion(8, "each pair/base invariant has a mutant the validator "
                      "rejects", 5.0):
        for check_name, mutant in _charpair_mutants().items():
            report = cpm.validate(mutant)
            assert not report.ok, check_name
            failed = {c.name for c in report.checks if not c.passed}
            assert check_name in failed, (check_name, failed)
        for check_name, mutant in _basealg_mutants().items():
            report = mutant.validate()
            assert not report.ok, check_name
            failed = {c.name for c in report.checks if not c.passed}
            assert check_name in failed, (check_name, failed)
        # the unmutated versions pass, so each rejection is caused by the mutation
        assert cpm.validate(get("cp2").cp).ok
        assert ba.make_cp(1).validate().ok and ba.make_cp(2).validate().ok
        assert ba.make_cp(4).validate().ok


def test_criterion_9_check_all_determinism():
    with criterion(9, "check-all is byte-deterministic with exit 0 on every "
                      "catalog instance", 60.0):
        for inst in default_instances():
            outputs = []
            codes = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(cli.main(["check-all", inst.label]))
                outputs.append(buf.getvalue())
            assert codes == [0, 0], inst.label
            assert outputs[0] == outputs[1], inst.label
            assert outputs[0], inst.label
