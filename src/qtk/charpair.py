"""Complete simplicial fans with characteristic maps.

A CharacteristicPair stores the geometric ray directions of a complete
simplicial fan, the lattice vector attached to each ray, and the maximal
cones.  All indices are 0-based internally; the JSON interchange format is
1-based (see from_json / to_json).  `validate` checks a pair exactly, in
integers: determinants of the cleared ray directions and of the lattice
vectors, and the signs of integer dot products with facet normals, all
read from one elimination per cone matrix (`_cone`).

A multi-polytope over a pair is just its support vector h, one rational per
ray (`support_vector`); a cone's orientation sign is a plain int.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from operator import mul
from typing import Sequence

from .errors import MalformedInputError, NotAConeError, NotAFaceError, SingularMatrixError
from .exact import as_int, as_scalar, cleared_dense, inverse_int, scalar_str
from .record import Record


class CharacteristicPair(Record):
    """Fan dimension n, s rays with geometric directions and lattice vectors,
    and the maximal cones as n-element index tuples."""

    __slots__ = ("n", "ray_dirs", "lam", "max_cones", "_hash")
    n: int
    ray_dirs: tuple[tuple[Fraction, ...], ...]
    lam: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def _check(self):
        n, s = self.n, len(self.ray_dirs)
        if n < 1:
            raise MalformedInputError("fan dimension must be positive")
        if len(self.lam) != s:
            raise MalformedInputError("need one lattice vector per ray")
        for v in self.ray_dirs:
            if len(v) != n:
                raise MalformedInputError("ray direction has wrong length")
        for v in self.lam:
            if len(v) != n:
                raise MalformedInputError("lattice vector has wrong length")
        for cone in self.max_cones:
            if len(cone) != n or len(set(cone)) != n:
                raise MalformedInputError("maximal cones must have n distinct rays")
            if any(i < 0 or i >= s for i in cone):
                raise MalformedInputError("cone index out of range")
            if tuple(sorted(cone)) != cone:
                raise MalformedInputError("cone indices must be sorted")
        if len(set(self.max_cones)) != len(self.max_cones):
            raise MalformedInputError("duplicate maximal cone")
        # Every cached layer keys on the pair; hashing its Fractions on each
        # lookup would cost more than many of the lookups save.
        object.__setattr__(self, "_hash", super().__hash__())

    def __hash__(self) -> int:
        return self._hash

    @property
    def s(self) -> int:
        return len(self.ray_dirs)

    def lam_rows(self, cone: Sequence[int]) -> list[list[int]]:
        """Rows are the lattice vectors of the given rays, in the given order."""
        return [list(self.lam[i]) for i in cone]


def make_pair(n, ray_dirs, lam, max_cones) -> CharacteristicPair:
    """Build a pair from loosely typed data: ray directions may be ints,
    Fractions or 'p/q' strings; everything else must be an int."""
    return CharacteristicPair(
        n=as_int(n),
        ray_dirs=tuple(tuple(as_scalar(x) for x in v) for v in ray_dirs),
        lam=tuple(tuple(as_int(x) for x in v) for v in lam),
        max_cones=tuple(tuple(sorted(as_int(i) for i in c)) for c in max_cones),
    )


def toric_pair(rays, max_cones) -> CharacteristicPair:
    """Pair with lattice vectors equal to the (integer) ray directions."""
    rays = [tuple(int(x) for x in v) for v in rays]
    return make_pair(len(rays[0]), rays, rays, max_cones)


# ---------------------------------------------------------------------------
# Faces.

@lru_cache(maxsize=None)
def faces(cp: CharacteristicPair) -> tuple[tuple[int, ...], ...]:
    """All nonempty faces (subsets of maximal cones), sorted."""
    seen = set()
    for cone in cp.max_cones:
        for mask in range(1, 1 << len(cone)):
            face = tuple(cone[i] for i in range(len(cone)) if (mask >> i) & 1)
            seen.add(face)
    return tuple(sorted(seen, key=lambda f: (len(f), f)))


@lru_cache(maxsize=None)
def _face_set(cp: CharacteristicPair) -> frozenset[tuple[int, ...]]:
    return frozenset(faces(cp))


def is_face(cp: CharacteristicPair, subset: Sequence[int]) -> bool:
    key = tuple(sorted(subset))
    if not key:
        return True
    return key in _face_set(cp)


@lru_cache(maxsize=None)
def facet_table(cp: CharacteristicPair) -> tuple[tuple[tuple[int, ...],
                                                      tuple[tuple[int, int], ...]], ...]:
    """Every facet of a maximal cone, sorted, with one (cone index, completing
    ray) pair per maximal cone containing it, in cone order."""
    owners: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ci, cone in enumerate(cp.max_cones):
        for drop, ray in enumerate(cone):
            owners.setdefault(cone[:drop] + cone[drop + 1:], []).append((ci, ray))
    return tuple((f, tuple(owners[f])) for f in sorted(owners))


# ---------------------------------------------------------------------------
# Signs, vertices, dual frames.

@lru_cache(maxsize=None)
def _cleared_rays(cp: CharacteristicPair) -> tuple[tuple[int, ...], ...]:
    """Each ray direction times the positive lcm of its denominators.

    Validation and cone signs read ray determinants and facet sides only for
    their signs and zero tests, and a positive row scale changes neither.
    """
    return tuple(tuple(cleared_dense(v)[0]) for v in cp.ray_dirs)


@lru_cache(maxsize=None)
def _cone(cp: CharacteristicPair, key: tuple[int, ...]) -> tuple[
        int, int, tuple[tuple[int, ...], ...] | None, tuple[tuple[int, ...], ...] | None]:
    """Everything read from one maximal cone's matrices, once per pair and
    sorted cone, in two integer eliminations, one of [lambda_sigma | I] and
    one of [cleared ray directions | I]: (det of the cleared ray directions,
    a positive multiple of the ray directions' det; det of the lattice
    vectors; the columns of adj lambda_sigma; the columns of the cleared
    rays' adjugate).  An adjugate is None when its matrix is singular.
    The dual edge frame is the lattice adjugate over its determinant (see
    _frame), and each facet normal a column of the rays' adjugate (see
    _wall)."""
    rays = _cleared_rays(cp)
    d_lam, adj_lam = inverse_int(cp.lam_rows(key))
    d_rays, adj_rays = inverse_int([rays[i] for i in key])
    as_tuples = lambda cols: None if cols is None else tuple(map(tuple, cols))
    return d_rays, d_lam, as_tuples(adj_lam), as_tuples(adj_rays)


def _maximal(cp: CharacteristicPair, cone: Sequence[int]) -> tuple[int, ...]:
    key = tuple(sorted(cone))
    if key not in cp.max_cones:
        raise NotAConeError(f"{list(cone)} is not a maximal cone")
    return key


@lru_cache(maxsize=None)
def _frame(cp: CharacteristicPair, key: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """The dual edge frame of a maximal cone, the lattice adjugate's columns
    over its determinant, built on first read: validation reads only the
    two determinants and the rays' adjugate."""
    _, d_lam, adjugate, _ = _cone(cp, key)
    if adjugate is None:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(Fraction(x, d_lam) for x in col) for col in adjugate)


def cone_sign(cp: CharacteristicPair, cone: Sequence[int]) -> int:
    """Orientation sign of a maximal cone, +1 or -1.

    sgn(det of geometric ray directions) times det of the lattice vectors;
    permuting the cone flips both determinants, so the product is
    ordering-independent and is read from the sorted cone's determinants.
    """
    d_ray, d_lam, _, _ = _cone(cp, _maximal(cp, cone))
    if d_ray == 0 or abs(d_lam) != 1:
        raise MalformedInputError("cone fails simpliciality or unimodularity")
    return (1 if d_ray > 0 else -1) * d_lam


def support_vector(cp: CharacteristicPair, h: Sequence) -> tuple[Fraction, ...]:
    """The support numbers of a multi-polytope, one rational per ray."""
    hs = tuple(as_scalar(v) for v in h)
    if len(hs) != cp.s:
        raise MalformedInputError("support vector length must equal the ray count")
    return hs


def vertex(cp: CharacteristicPair, h: Sequence, cone: Sequence[int]) -> tuple[Fraction, ...]:
    """The point x with <lam_i, x> = h_i for every ray i of the maximal cone:
    sum_j h_{cone[j]} w_j over its dual edge frame."""
    key = _maximal(cp, cone)
    hs = support_vector(cp, h)
    frame = _frame(cp, key)
    return tuple(sum((hs[i] * w[r] for i, w in zip(key, frame)), Fraction(0))
                 for r in range(cp.n))


def dual_edge_frame(cp: CharacteristicPair, cone: Sequence[int]) -> tuple[tuple[Fraction, ...], ...]:
    """Vectors w_1..w_n with <lam_{cone[j]}, w_k> = delta_{jk}, the cone's
    rays taken in increasing order.

    These are the columns of the inverse of the matrix whose rows are the
    cone's lattice vectors, integral when the cone is unimodular, and
    solved in one elimination per pair and cone.  Vertices and dual
    characters are read from them, so no other solve runs on lattice
    vectors.
    """
    return _frame(cp, _maximal(cp, cone))


def dual_character(cp: CharacteristicPair, face: Sequence[int], j: int) -> tuple[int, ...]:
    """Integer vector chi with <lam_j, chi> = 1 and <lam_i, chi> = 0 for i in face-{j}.

    It is j's dual edge vector in the first maximal cone containing the
    face, so it also pairs to zero with that cone's other rays, and it is
    integral because the cone's lattice vectors form a lattice basis.  It
    depends on the face as a set, so it is computed once per pair, sorted
    face and j.
    """
    key = tuple(sorted(face))
    if j not in key:
        raise NotAFaceError("distinguished index must belong to the face")
    if not is_face(cp, key):
        raise NotAFaceError(f"{list(face)} is not a face")
    return _dual_character(cp, key, j)


@lru_cache(maxsize=None)
def _dual_character(cp: CharacteristicPair, key: tuple[int, ...], j: int) -> tuple[int, ...]:
    cone = next(c for c in cp.max_cones if set(key) <= set(c))
    chi = _frame(cp, cone)[cone.index(j)]
    if any(x.denominator != 1 for x in chi):
        raise MalformedInputError("face is not unimodular")
    return tuple(int(x) for x in chi)


# ---------------------------------------------------------------------------
# Validation.

class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")
    _defaults = {"detail": ""}
    name: str
    passed: bool
    detail: str


class ValidationReport(Record):
    __slots__ = ("checks",)
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _check_simplicial(cp: CharacteristicPair) -> CheckResult:
    for cone in cp.max_cones:
        if not _cone(cp, cone)[0]:
            return CheckResult("simplicial", False,
                               f"rays of cone {list(cone)} are linearly dependent")
    return CheckResult("simplicial", True)


def _check_unimodular(cp: CharacteristicPair) -> CheckResult:
    # |det| = 1 makes a cone's lattice vectors, and so each face's, part of a basis.
    for cone in cp.max_cones:
        d = _cone(cp, cone)[1]
        if abs(d) != 1:
            return CheckResult("unimodular", False,
                               f"cone {list(cone)} has lattice determinant {scalar_str(d)}")
    return CheckResult("unimodular", True)


def _check_facet_pairing(cp: CharacteristicPair) -> CheckResult:
    bad = [list(f) for f, sides in facet_table(cp) if len(sides) != 2]
    if bad:
        return CheckResult("facet_pairing", False,
                           f"facets not shared by exactly two cones: {bad}")
    return CheckResult("facet_pairing", True)


def _side(normal: Sequence[int], v: Sequence[int]) -> int:
    """Sign of <normal, v>: the side of the normal's hyperplane v is on."""
    d = sum(map(mul, normal, v))
    return (d > 0) - (d < 0)


def _wall(cp: CharacteristicPair, owners: tuple[tuple[int, int], ...]) -> tuple[
        tuple[int, ...], tuple[tuple[int, int], ...]]:
    """A paired facet's integer normal and, per owner, (cone index, side of
    its completing ray).

    The normal is the column of the first owner's ray adjugate (see _cone)
    at the dropped ray, so no facet needs an elimination of its own: it is
    orthogonal to the facet's rays and pairs with the completing ray to the
    cone's nonzero determinant.
    """
    (c1, p1), (c2, p2) = owners
    cone = cp.max_cones[c1]
    d_rays, _, _, adjugate = _cone(cp, cone)
    normal = adjugate[cone.index(p1)]
    s1 = (d_rays > 0) - (d_rays < 0)  # <normal, rays[p1]> is d_rays itself
    return normal, ((c1, s1), (c2, _side(normal, _cleared_rays(cp)[p2])))


def _check_coverage(cp: CharacteristicPair) -> CheckResult:
    """Every generic direction lies in exactly one maximal cone; the pair
    must be simplicial, with every facet paired.

    A generic path crosses walls only inside facets, and crossing one moves
    only its two cones; on opposite sides, one is left as the other is
    entered.  So all generic directions lie in equally many cones (for n = 1
    the two rays are opposite), and one off every facet hyperplane decides.
    Each hyperplane meets the moment curve (1, c, c^2, ...) at most n - 1
    times, so the walk over c = 1, 2, ... ends.

    Each facet gets one integer normal from its first owner's ray adjugate
    (see _wall), and every side is the sign of an integer dot product with
    it.  Sides are only compared within one facet, so the normal's sign and
    scale do not matter.
    """
    walls = []  # (facet normal, ((cone index, side of its completing ray), ...))
    for facet, owners in facet_table(cp):
        wall = _, ((c1, s1), (c2, s2)) = _wall(cp, owners)
        if s1 == s2:
            return CheckResult("point_coverage", False,
                               f"cones {list(cp.max_cones[c1])} and {list(cp.max_cones[c2])} "
                               f"lie on the same side of facet {list(facet)}")
        walls.append(wall)
    for c in count(1):
        v = [c ** k for k in range(cp.n)]
        at = [_side(normal, v) for normal, _ in walls]
        if all(at):
            break
    outside = {ci for s, (_, signed) in zip(at, walls) for ci, sc in signed if sc != s}
    inside = len(cp.max_cones) - len(outside)
    if inside != 1:
        return CheckResult("point_coverage", False,
                           f"direction {v} lies in {inside} maximal cones")
    return CheckResult("point_coverage", True,
                       f"each facet separates its two cones; direction {v} "
                       "lies in one maximal cone")


def validate(cp: CharacteristicPair) -> ValidationReport:
    """Run all pair invariants, exactly: simpliciality, unimodularity of
    every maximal cone, facet pairing, and coverage of every generic
    direction by exactly one maximal cone."""
    simplicial = _check_simplicial(cp)
    if not simplicial.passed:
        skipped = "skipped: not simplicial"
        return ValidationReport((simplicial, CheckResult("unimodular", False, skipped),
                                 CheckResult("facet_pairing", False, skipped),
                                 CheckResult("point_coverage", False, skipped)))
    pairing = _check_facet_pairing(cp)
    coverage = (_check_coverage(cp) if pairing.passed else
                CheckResult("point_coverage", False, "skipped: facets not paired"))
    return ValidationReport((simplicial, _check_unimodular(cp), pairing, coverage))


# ---------------------------------------------------------------------------
# JSON interchange (1-based cone indices, rationals as strings).

def to_json(cp: CharacteristicPair) -> dict:
    return {
        "n": cp.n,
        "rays": [[scalar_str(x) for x in v] for v in cp.ray_dirs],
        "lambda": [list(v) for v in cp.lam],
        "max_cones": [[i + 1 for i in cone] for cone in cp.max_cones],
    }


def from_json(data: dict) -> CharacteristicPair:
    try:
        cones = [[as_int(i) - 1 for i in c] for c in data["max_cones"]]
        return make_pair(data["n"], data["rays"], data["lambda"], cones)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad characteristic-pair object: {exc}") from exc
