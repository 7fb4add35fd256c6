"""Characteristic pairs: validation, signs, vertices, dual data."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtk import charpair as cpm
from qtk import exact
from qtk.catalog import all_instances, get
from qtk.errors import MalformedInputError, NotAConeError, NotAFaceError

import fans


class TestValidate:
    def test_cp2_passes(self, cp2):
        report = cpm.validate(cp2)
        assert report.ok
        assert [c.name for c in report.checks] == \
            ["simplicial", "unimodular", "facet_pairing", "point_coverage"]

    def test_all_catalog_pairs_pass(self):
        for inst in all_instances():
            assert cpm.validate(inst.cp).ok, inst.label

    def test_missing_cone_breaks_pairing(self):
        bad = cpm.toric_pair([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        report = cpm.validate(bad)
        assert not report.ok
        checks = {c.name: c for c in report.checks}
        assert not checks["facet_pairing"].passed
        assert checks["point_coverage"] == cpm.CheckResult(
            "point_coverage", False, "skipped: facets not paired")

    def test_non_unimodular_lambda(self):
        bad = cpm.make_pair(2, [(1, 0), (0, 1), (-1, -1)],
                            [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        report = cpm.validate(bad)
        assert not report.ok
        assert not [c for c in report.checks if c.name == "unimodular"][0].passed

    def test_incomplete_fan_fails_coverage(self):
        bad = cpm.toric_pair([(1, 0), (0, 1), (1, -1)], [(0, 1), (1, 2), (0, 2)])
        report = cpm.validate(bad)
        failed = {c.name for c in report.checks if not c.passed}
        assert "point_coverage" in failed

    def test_dependent_rays_fail_simpliciality(self):
        bad = cpm.make_pair(2, [(1, 0), (2, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)],
                            [(0, 1), (1, 2), (0, 2)])
        report = cpm.validate(bad)
        assert not [c for c in report.checks if c.name == "simplicial"][0].passed

    def test_malformed_inputs_rejected(self):
        with pytest.raises(MalformedInputError):
            cpm.make_pair(2, [(1, 0)], [(1, 0)], [(0, 1)])  # index out of range
        with pytest.raises(MalformedInputError):
            cpm.make_pair(2, [(1, 0, 0), (0, 1)], [(1, 0), (0, 1)], [(0, 1)])

    def test_double_cover_fails_coverage(self):
        # Three rays taken twice around: every facet is shared by two cones on
        # opposite sides, but every generic direction lies in two cones.
        rays = [(1, 0), (-1, 1), (0, -1)] * 2
        cones = [(i, (i + 1) % 6) for i in range(6)]
        report = cpm.validate(cpm.toric_pair(rays, cones))
        checks = {c.name: c for c in report.checks}
        assert checks["simplicial"].passed and checks["unimodular"].passed
        assert checks["facet_pairing"].passed
        assert not checks["point_coverage"].passed
        assert "lies in 2 maximal cones" in checks["point_coverage"].detail


def _sampled_coverage(cp, samples=400, seed=20290):
    """Reference: every one of `samples` random directions off the cone
    boundaries lies in exactly one maximal cone."""
    rng = random.Random(seed)
    done = 0
    while done < samples:
        point = [F(rng.randint(-997, 997), rng.randint(1, 7)) for _ in range(cp.n)]
        inside, boundary = 0, False
        for cone in cp.max_cones:
            a = [[cp.ray_dirs[i][r] for i in cone] for r in range(cp.n)]
            coords = exact.solve_exact(a, [point])[0]
            inside += all(c > 0 for c in coords)
            boundary = boundary or (min(coords) == 0)
        if boundary or not any(point):
            continue
        if inside != 1:
            return False
        done += 1
    return True


@st.composite
def fans_on_catalog_shapes(draw):
    """The catalog's triangle, square and tetrahedron cone sets on random rays."""
    shape = draw(st.sampled_from([get(name).cp for name in ("cp2", "cp1xcp1", "cp3")]))
    ray = st.tuples(*[st.integers(-3, 3)] * shape.n)
    rays = draw(st.lists(ray, min_size=shape.s, max_size=shape.s))
    return cpm.make_pair(shape.n, rays, rays, shape.max_cones)


@settings(max_examples=100, deadline=None)
@given(fans_on_catalog_shapes())
def test_coverage_agrees_with_sampling(cp):
    checks = {c.name: c for c in cpm.validate(cp).checks}
    assume(checks["simplicial"].passed)
    assert checks["point_coverage"].passed == _sampled_coverage(cp)


# Catalog pairs, generated fans of dimension 4 and 5, and pairs failing
# simpliciality, unimodularity, pairing and coverage.
SCALED_PAIRS = [inst.cp for inst in all_instances()] + \
    [cpm.make_pair(*fan) for _, fan in sorted(fans.GOLDEN.items())] + [
        cpm.make_pair(2, [(1, 0), (2, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)],
                      [(0, 1), (1, 2), (0, 2)]),
        cpm.make_pair(2, [(1, 0), (0, 1), (-1, -1)], [(2, 0), (0, 1), (-1, -1)],
                      [(0, 1), (1, 2), (0, 2)]),
        cpm.toric_pair([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]),
        cpm.toric_pair([(1, 0), (0, 1), (1, -1)], [(0, 1), (1, 2), (0, 2)]),
        cpm.toric_pair([(1, 0), (-1, 1), (0, -1)] * 2, [(i, (i + 1) % 6) for i in range(6)]),
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_positive_ray_scales_change_no_report_and_no_sign(data):
    """Validation and cone signs read ray directions only up to a positive
    scale per ray, Fraction scales included: the reports, detail strings
    included, and the signs stay the same."""
    cp = data.draw(st.sampled_from(SCALED_PAIRS))
    scales = data.draw(st.lists(st.sampled_from([1, 1, F(3, 7), 5, F(1, 2), F(7, 3)]),
                                min_size=cp.s, max_size=cp.s))
    scaled = cpm.make_pair(cp.n, [[x * t for x in v] for v, t in zip(cp.ray_dirs, scales)],
                           cp.lam, cp.max_cones)
    report = cpm.validate(cp)
    assert cpm.validate(scaled).as_dict() == report.as_dict()
    if report.ok:
        for cone in cp.max_cones:
            assert cpm.cone_sign(scaled, cone) == cpm.cone_sign(cp, cone)


# ---------------------------------------------------------------------------
# Reference: validation with a determinant per cone and a sparse kernel per
# facet for its normal.  Reading the normals from the ray adjugates instead
# must change no report, detail strings included.

def _reference_cone(cp, cone):
    """(det of the cleared ray directions, det of the lattice vectors)."""
    rays = [exact.cleared_dense(cp.ray_dirs[i])[0] for i in cone]
    return exact.det(rays), exact.inverse_int(cp.lam_rows(cone))[0]


def _facet_normal(n, rows):
    """A primitive integer normal, as a sparse row, of the hyperplane
    spanned by n - 1 independent integer rows."""
    (normal,) = exact.RowSpace(n, ({c: x for c, x in enumerate(row) if x}
                                   for row in rows)).kernel()
    return exact.cleared(normal)[0]


def _sparse_side(normal, v):
    d = sum(x * v[c] for c, x in normal.items())
    return (d > 0) - (d < 0)


def _reference_coverage(cp):
    rays = [exact.cleared_dense(v)[0] for v in cp.ray_dirs]
    walls = []
    for facet, sides in cpm.facet_table(cp):
        normal = _facet_normal(cp.n, [rays[i] for i in facet])
        (c1, s1), (c2, s2) = signed = [(ci, _sparse_side(normal, rays[p])) for ci, p in sides]
        if s1 == s2:
            return cpm.CheckResult("point_coverage", False,
                                   f"cones {list(cp.max_cones[c1])} and "
                                   f"{list(cp.max_cones[c2])} "
                                   f"lie on the same side of facet {list(facet)}")
        walls.append((normal, signed))
    for c in itertools.count(1):
        v = [c ** k for k in range(cp.n)]
        at = [_sparse_side(normal, v) for normal, _ in walls]
        if all(at):
            break
    outside = {ci for s, (_, signed) in zip(at, walls) for ci, sc in signed if sc != s}
    inside = len(cp.max_cones) - len(outside)
    if inside != 1:
        return cpm.CheckResult("point_coverage", False,
                               f"direction {v} lies in {inside} maximal cones")
    return cpm.CheckResult("point_coverage", True,
                           f"each facet separates its two cones; direction {v} "
                           "lies in one maximal cone")


def reference_validate(cp):
    check = cpm.CheckResult
    dets = {cone: _reference_cone(cp, cone) for cone in cp.max_cones}
    flat = next((cone for cone in cp.max_cones if not dets[cone][0]), None)
    if flat is not None:
        skipped = "skipped: not simplicial"
        return cpm.ValidationReport((
            check("simplicial", False, f"rays of cone {list(flat)} are linearly dependent"),
            check("unimodular", False, skipped), check("facet_pairing", False, skipped),
            check("point_coverage", False, skipped)))
    skew = next((cone for cone in cp.max_cones if abs(dets[cone][1]) != 1), None)
    unimodular = check("unimodular", True) if skew is None else check(
        "unimodular", False, f"cone {list(skew)} has lattice determinant {dets[skew][1]}")
    bad = [list(f) for f, sides in cpm.facet_table(cp) if len(sides) != 2]
    pairing = check("facet_pairing", True) if not bad else check(
        "facet_pairing", False, f"facets not shared by exactly two cones: {bad}")
    coverage = (_reference_coverage(cp) if not bad else
                check("point_coverage", False, "skipped: facets not paired"))
    return cpm.ValidationReport((check("simplicial", True), unimodular, pairing, coverage))


# Every catalog pair, every fan of tests/fans.py, and pairs failing each check.
REFERENCE_PAIRS = {
    **{inst.label: inst.cp for inst in all_instances()},
    **{name: cpm.make_pair(*fan) for name, fan in fans.GOLDEN.items()},
    **{name: cpm.make_pair(*args[0]) for name, args in fans.PINNED.items()},
    "dependent-rays": SCALED_PAIRS[-5],
    "lattice-det-2": SCALED_PAIRS[-4],
    "missing-cone": SCALED_PAIRS[-3],
    "incomplete": SCALED_PAIRS[-2],
    "double-cover": SCALED_PAIRS[-1],
    "same-side": cpm.toric_pair([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)]),
    "same-side-n1": cpm.make_pair(1, [(1,), (2,)], [(1,), (1,)], [(0,), (1,)]),
    "four-rays-n1": cpm.make_pair(1, [(1,), (-1,), (1,), (-1,)], [(1,), (-1,)] * 2,
                                     [(0,), (1,), (2,), (3,)]),
    "lattice-det-3-twist": cpm.make_pair(2, [(1, 0), (0, 1), (-1, -1)],
                                         [(1, 0), (0, 3), (-1, -1)],
                                         [(0, 1), (1, 2), (0, 2)]),
    "cp3-fraction-rays": cpm.make_pair(
        3, [["1/2", 0, 0], [0, "3/7", 0], [0, 0, 5], ["-1/3", "-1/3", "-1/3"]],
        get("cp3").cp.lam, get("cp3").cp.max_cones),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_PAIRS))
def test_reports_match_the_kernel_normal_reference(name):
    cp = REFERENCE_PAIRS[name]
    assert cpm.validate(cp).as_dict() == reference_validate(cp).as_dict()


def test_reference_pairs_fail_every_check():
    """The failing pairs above fail each check, and coverage in both ways."""
    failed = {(c.name, c.detail.split(" ")[0]) for cp in REFERENCE_PAIRS.values()
              for c in cpm.validate(cp).checks if not c.passed}
    assert {("simplicial", "rays"), ("unimodular", "cone"), ("facet_pairing", "facets"),
            ("point_coverage", "cones"), ("point_coverage", "direction")} <= failed


@pytest.mark.parametrize("name", sorted(REFERENCE_PAIRS))
def test_wall_normals_are_facet_normals(name):
    """Each paired facet's normal is orthogonal to the facet's rays and
    nonzero on both completing rays, and each side is the sign there."""
    cp = REFERENCE_PAIRS[name]
    checks = {c.name: c.passed for c in cpm.validate(cp).checks}
    if not (checks["simplicial"] and checks["facet_pairing"]):
        return
    rays = [exact.cleared_dense(v)[0] for v in cp.ray_dirs]
    for facet, owners in cpm.facet_table(cp):
        normal, signed = cpm._wall(cp, owners)
        assert [exact.dot(normal, rays[i]) for i in facet] == [0] * len(facet)
        for (ci, side), (owner, p) in zip(signed, owners, strict=True):
            d = exact.dot(normal, rays[p])
            assert ci == owner and d != 0 and side == (1 if d > 0 else -1)


class TestConeSign:
    def test_cp1_both_positive(self, cp1):
        assert cpm.cone_sign(cp1, (0,)) == 1
        assert cpm.cone_sign(cp1, (1,)) == 1

    def test_cp2_identity_cone(self, cp2):
        assert cpm.cone_sign(cp2, (0, 1)) == 1

    def test_toric_pairs_all_positive(self):
        for name in ("cp2", "cp3", "cp1xcp1", "hirzebruch-toric"):
            cp = get(name).cp
            for cone in cp.max_cones:
                assert cpm.cone_sign(cp, cone) == 1, (name, cone)

    def test_twist_has_negative_signs(self):
        cp = get("cp2-twist").cp
        signs = sorted(cpm.cone_sign(cp, c) for c in cp.max_cones)
        assert signs == [-1, -1, 1]

    def test_ordering_independence(self, cp3):
        for cone in cp3.max_cones:
            base = cpm.cone_sign(cp3, cone)
            for perm in itertools.permutations(cone):
                assert cpm.cone_sign(cp3, perm) == base

    def test_not_a_cone(self, cp2):
        with pytest.raises(NotAConeError):
            cpm.cone_sign(cp2, (0, 0))


class TestVertex:
    def test_cp2_examples(self, cp2):
        h = [F(1), F(1), F(1)]
        assert cpm.vertex(cp2, h, (0, 1)) == (F(1), F(1))
        assert cpm.vertex(cp2, h, (1, 2)) == (F(-2), F(1))

    def test_cp1_negative_ray(self, cp1):
        assert cpm.vertex(cp1, [F(2), F(7)], (1,)) == (F(-7),)

    def test_support_vector_coerces_and_checks_length(self, cp2):
        assert cpm.support_vector(cp2, [1, "1/2", F(-3)]) == (F(1), F(1, 2), F(-3))
        for h in ([1, 1], [1, 1, 1, 1]):
            with pytest.raises(MalformedInputError,
                               match="^support vector length must equal the ray count$"):
                cpm.vertex(cp2, h, (0, 1))

    def test_adjacent_cones_share_facet_equations(self):
        rng = random.Random(8)
        for inst in all_instances():
            cp = inst.cp
            h = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cp.s)]
            for facet, c1, c2 in _facet_pairs(cp):
                v1 = cpm.vertex(cp, h, cp.max_cones[c1])
                v2 = cpm.vertex(cp, h, cp.max_cones[c2])
                for i in facet:
                    assert exact.dot(cp.lam[i], v1) == h[i]
                    assert exact.dot(cp.lam[i], v2) == h[i]


def _facet_pairs(cp):
    owners = {}
    for ci, cone in enumerate(cp.max_cones):
        for drop in range(cp.n):
            facet = cone[:drop] + cone[drop + 1:]
            owners.setdefault(facet, []).append(ci)
    return [(f, cs[0], cs[1]) for f, cs in owners.items() if len(cs) == 2]


class TestDualEdgeFrame:
    def test_cp2_identity_cone(self, cp2):
        assert cpm.dual_edge_frame(cp2, (0, 1)) == ((F(1), F(0)), (F(0), F(1)))

    def test_cp2_mixed_cone(self, cp2):
        assert cpm.dual_edge_frame(cp2, (1, 2)) == ((F(-1), F(1)), (F(-1), F(0)))

    def test_cp1(self, cp1):
        assert cpm.dual_edge_frame(cp1, (1,)) == ((F(-1),),)

    def test_frame_inverts_lambda_rows(self):
        for inst in all_instances():
            cp = inst.cp
            for cone in cp.max_cones:
                frame = cpm.dual_edge_frame(cp, cone)
                for j, i in enumerate(cone):
                    for k, w in enumerate(frame):
                        assert exact.dot(cp.lam[i], w) == (1 if j == k else 0)

    def test_vertex_is_frame_combination(self, cp2):
        h = [F(3), F(-1), F(2)]
        for cone in cp2.max_cones:
            frame = cpm.dual_edge_frame(cp2, cone)
            combo = [sum((h[i] * w[r] for i, w in zip(cone, frame)), F(0))
                     for r in range(cp2.n)]
            assert tuple(combo) == cpm.vertex(cp2, h, cone)


class TestDualCharacter:
    def test_cp2_examples(self, cp2):
        assert cpm.dual_character(cp2, (0,), 0) == (1, 0)
        assert cpm.dual_character(cp2, (0, 1), 0) == (1, 0)

    def test_cp1_fiber_pair(self, cp1):
        assert cpm.dual_character(cp1, (0,), 0) == (1,)

    def test_defining_equations_hold_everywhere(self):
        for inst in all_instances():
            cp = inst.cp
            for face in cpm.faces(cp):
                for j in face:
                    chi = cpm.dual_character(cp, face, j)
                    assert all(isinstance(c, int) for c in chi)
                    for i in face:
                        assert exact.dot(cp.lam[i], chi) == (1 if i == j else 0)

    def test_not_a_face(self, cp2):
        with pytest.raises(NotAFaceError):
            cpm.dual_character(cp2, (0, 1, 2), 0)
        with pytest.raises(NotAFaceError):
            cpm.dual_character(cp2, (0, 1), 2)


class TestJson:
    def test_roundtrip(self, cp2):
        again = cpm.from_json(cpm.to_json(cp2))
        assert again == cp2

    def test_one_based_cones_in_files(self, cp2):
        data = cpm.to_json(cp2)
        assert data["max_cones"][0] == [1, 2]
