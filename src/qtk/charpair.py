"""Complete simplicial fans with characteristic maps.

A CharacteristicPair stores the geometric ray directions of a complete
simplicial fan, the lattice vector attached to each ray, and the maximal
cones.  All indices are 0-based internally; the JSON interchange format is
1-based (see from_json / to_json).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import exact
from .errors import MalformedInputError, NotAConeError, NotAFaceError
from .exact import as_int, as_scalar, det, scalar_str, snf, solve_exact


@dataclass(frozen=True)
class CharacteristicPair:
    """Fan dimension n, s rays with geometric directions and lattice vectors,
    and the maximal cones as n-element index tuples."""

    n: int
    ray_dirs: tuple[tuple[Fraction, ...], ...]
    lam: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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
        object.__setattr__(self, "_hash",
                           hash((self.n, self.ray_dirs, self.lam, self.max_cones)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def s(self) -> int:
        return len(self.ray_dirs)

    def lam_rows(self, cone: Sequence[int]) -> list[list[int]]:
        """Rows are the lattice vectors of the given rays, in the given order."""
        return [list(self.lam[i]) for i in cone]

    def ray_rows(self, cone: Sequence[int]) -> list[list[Fraction]]:
        return [list(self.ray_dirs[i]) for i in cone]


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


# ---------------------------------------------------------------------------
# Signs, vertices, dual frames.

@dataclass(frozen=True)
class ConeSign:
    rays: tuple[int, ...]
    value: int


def cone_sign(cp: CharacteristicPair, cone: Sequence[int]) -> ConeSign:
    """Orientation sign of a maximal cone.

    sgn(det of geometric ray directions) times det of the lattice vectors;
    permuting the cone flips both determinants, so the product is
    ordering-independent and is computed once per pair and sorted cone.
    """
    key = tuple(sorted(cone))
    if key not in cp.max_cones:
        raise NotAConeError(f"{list(cone)} is not a maximal cone")
    return _cone_sign(cp, key)


@lru_cache(maxsize=None)
def _cone_sign(cp: CharacteristicPair, key: tuple[int, ...]) -> ConeSign:
    d_ray = det(cp.ray_rows(key))
    d_lam = det([[Fraction(x) for x in row] for row in cp.lam_rows(key)])
    if d_ray == 0 or abs(d_lam) != 1:
        raise MalformedInputError("cone fails simpliciality or unimodularity")
    sign = (1 if d_ray > 0 else -1) * int(d_lam)
    return ConeSign(rays=key, value=sign)


def vertex(cp: CharacteristicPair, h: Sequence, cone: Sequence[int]) -> tuple[Fraction, ...]:
    """The point x with <lam_i, x> = h_i for every ray i of the maximal cone."""
    key = tuple(sorted(cone))
    if key not in cp.max_cones:
        raise NotAConeError(f"{list(cone)} is not a maximal cone")
    hs = [as_scalar(v) for v in h]
    if len(hs) != cp.s:
        raise MalformedInputError("support vector has wrong length")
    a = [[Fraction(x) for x in cp.lam[i]] for i in key]
    b = [hs[i] for i in key]
    return tuple(solve_exact(a, b))


def dual_edge_frame(cp: CharacteristicPair, cone: Sequence[int]) -> tuple[tuple[Fraction, ...], ...]:
    """Vectors w_1..w_n with <lam_{cone[j]}, w_k> = delta_{jk}.

    These are the columns of the inverse of the matrix whose rows are the
    cone's lattice vectors; the vertex of any support vector h is
    sum_j h_{cone[j]} w_j.
    """
    key = tuple(sorted(cone))
    if key not in cp.max_cones:
        raise NotAConeError(f"{list(cone)} is not a maximal cone")
    a = [[Fraction(x) for x in cp.lam[i]] for i in key]
    n = cp.n
    cols = []
    for k in range(n):
        b = [Fraction(int(j == k)) for j in range(n)]
        cols.append(tuple(solve_exact(a, b)))
    return tuple(cols)


def dual_character(cp: CharacteristicPair, face: Sequence[int], j: int) -> tuple[int, ...]:
    """Integer vector chi with <lam_j, chi> = 1 and <lam_i, chi> = 0 for i in face-{j}.

    Exists because the face's lattice vectors extend to a lattice basis.  For
    faces smaller than n the solution is the canonical one obtained by SNF
    back-substitution with all free parameters set to zero.  It depends on
    the face as a set, so it is computed once per pair, sorted face and j.
    """
    key = tuple(sorted(face))
    if j not in key:
        raise NotAFaceError("distinguished index must belong to the face")
    if not is_face(cp, key):
        raise NotAFaceError(f"{list(face)} is not a face")
    return _dual_character(cp, key, j)


@lru_cache(maxsize=None)
def _dual_character(cp: CharacteristicPair, key: tuple[int, ...], j: int) -> tuple[int, ...]:
    rows = cp.lam_rows(key)
    b = [1 if i == j else 0 for i in key]
    diag, U, V = snf(rows)
    t = len(key)
    if any(d != 1 for d in diag):
        raise MalformedInputError("face is not unimodular")
    ub = [sum(U[r][c] * b[c] for c in range(t)) for r in range(t)]
    y = ub + [0] * (cp.n - t)
    chi = [sum(V[r][c] * y[c] for c in range(cp.n)) for r in range(cp.n)]
    return tuple(chi)


# ---------------------------------------------------------------------------
# Validation.

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
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
        if exact.rank((dict(enumerate(cp.ray_dirs[i])) for i in cone), cp.n) != cp.n:
            return CheckResult("simplicial", False,
                               f"rays of cone {list(cone)} are linearly dependent")
    return CheckResult("simplicial", True)


def _check_unimodular(cp: CharacteristicPair) -> CheckResult:
    for face in faces(cp):
        diag, _, _ = snf(cp.lam_rows(face))
        if any(d != 1 for d in diag):
            return CheckResult("unimodular", False,
                               f"face {list(face)} has SNF diagonal {diag}")
    return CheckResult("unimodular", True)


def _check_facet_pairing(cp: CharacteristicPair) -> CheckResult:
    counts: dict[tuple[int, ...], int] = {}
    for cone in cp.max_cones:
        for drop in range(cp.n):
            facet = cone[:drop] + cone[drop + 1:]
            counts[facet] = counts.get(facet, 0) + 1
    bad = sorted(f for f, c in counts.items() if c != 2)
    if bad:
        return CheckResult("facet_pairing", False,
                           f"facets not shared by exactly two cones: {[list(f) for f in bad]}")
    return CheckResult("facet_pairing", True)


def _cone_membership(cp: CharacteristicPair, point: Sequence[Fraction]) -> tuple[int, bool]:
    """(number of cones containing the point strictly, hit a boundary?)."""
    inside = 0
    boundary = False
    for cone in cp.max_cones:
        a = [[cp.ray_dirs[i][r] for i in cone] for r in range(cp.n)]
        try:
            coords = solve_exact(a, list(point))
        except exact.SingularMatrixError:
            continue
        if all(c > 0 for c in coords):
            inside += 1
        elif all(c >= 0 for c in coords):
            boundary = True
    return inside, boundary


def _check_coverage(cp: CharacteristicPair, samples: int, seed: int) -> CheckResult:
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 50 * samples:
            return CheckResult("point_coverage", False,
                               "too many boundary hits while sampling directions")
        point = [Fraction(rng.randint(-997, 997), rng.randint(1, 7)) for _ in range(cp.n)]
        if all(x == 0 for x in point):
            continue
        inside, boundary = _cone_membership(cp, point)
        if boundary:
            continue
        if inside != 1:
            return CheckResult(
                "point_coverage", False,
                f"direction {[scalar_str(x) for x in point]} lies in {inside} maximal cones")
        done += 1
    return CheckResult("point_coverage", True, f"{samples} generic directions covered once")


def validate(cp: CharacteristicPair, samples: int = 64, seed: int = 20290) -> ValidationReport:
    """Run all pair invariants: simpliciality, unimodularity of every face,
    facet pairing, and probabilistic point coverage."""
    checks = [_check_simplicial(cp)]
    if checks[0].passed:
        checks.append(_check_unimodular(cp))
        checks.append(_check_facet_pairing(cp))
        checks.append(_check_coverage(cp, samples, seed))
    else:
        checks.append(CheckResult("unimodular", False, "skipped: not simplicial"))
        checks.append(CheckResult("facet_pairing", False, "skipped: not simplicial"))
        checks.append(CheckResult("point_coverage", False, "skipped: not simplicial"))
    return ValidationReport(tuple(checks))


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
