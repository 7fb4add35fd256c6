"""Piecewise polynomial functions on a characteristic pair.

An element stores one polynomial on the cocharacter space per maximal cone;
adjacent cones must agree on the span of the lattice vectors of their shared
facet.  A monomial restricts to that span as a product of the facet's
linear forms, an int-coefficient MultiPoly in one parameter per facet ray.
In coordinates (one coefficient per cone and monomial) that is one set of
integer restriction rows per degree, one row per shared facet and monomial
in the facet's ray parameters.  The graded pieces are the kernels
of these rows; an element is compatible iff every row annihilates it.
Multiplying by a standard character x_a moves the coefficient of m to
m + e_a, so character products are index maps on kernel vectors.  Each map
is proved compatible once: every row of the next degree, read through it,
lies in the span of the rows of this degree.  Quotient dimensions come from
exact rank and match the Stanley-Reisner graded dimensions degree by degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import exact
from .basealg import make_point, zero_chern
from .charpair import CharacteristicPair, dual_edge_frame, facet_table
from .errors import MalformedInputError, PairMismatchError
from .poly import MultiPoly, weighted_monomials
from .record import Record
from .srbundle import BundleRing


class PPElement(Record):
    """Per maximal cone, a homogeneous degree-d polynomial on the
    cocharacter space (graded degree 2d)."""

    __slots__ = ("cp", "degree", "polys")
    cp: CharacteristicPair
    degree: int
    polys: tuple[MultiPoly, ...]

    def _check(self):
        if len(self.polys) != len(self.cp.max_cones):
            raise MalformedInputError("need one polynomial per maximal cone")
        for g in self.polys:
            if g.nvars != self.cp.n or not g.is_homogeneous(self.degree):
                raise MalformedInputError(
                    f"cone polynomials must be homogeneous of degree {self.degree}")


def facet_pairs(cp: CharacteristicPair) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(facet, cone index, cone index) for every shared facet."""
    if any(len(sides) != 2 for _, sides in facet_table(cp)):
        raise MalformedInputError("facet pairing fails; validate the pair first")
    return tuple((facet, c1, c2) for facet, ((c1, _), (c2, _)) in facet_table(cp))


def is_compatible(el: PPElement) -> bool:
    """Whether every compatibility row of the element's degree vanishes on it."""
    ints, _ = exact.cleared(_to_vector(el))
    return not any(sum(x * ints.get(c, 0) for c, x in row.items())
                   for row in _compatibility_rows(el.cp, el.degree))


def multiply(f: PPElement, g: PPElement) -> PPElement:
    if f.cp != g.cp:
        raise PairMismatchError("elements live over different pairs")
    out = PPElement(f.cp, f.degree + g.degree,
                    tuple(a * b for a, b in zip(f.polys, g.polys)))
    if not is_compatible(out):
        raise MalformedInputError("product violates facet compatibility")
    return out


def global_character(cp: CharacteristicPair, chi) -> PPElement:
    """The global linear function of a character, same on every cone."""
    g = MultiPoly.linear_form([Fraction(exact.as_scalar(c)) for c in chi])
    return PPElement(cp, 1, tuple(g for _ in cp.max_cones))


def courant_basis(cp: CharacteristicPair) -> list[PPElement]:
    """One piecewise linear function per ray: value 1 on its own lattice
    vector, 0 on the other rays of each cone containing it, 0 elsewhere."""
    out = []
    for i in range(cp.s):
        polys = []
        for cone in cp.max_cones:
            if i in cone:
                frame = dual_edge_frame(cp, cone)
                w = frame[cone.index(i)]
                polys.append(MultiPoly.linear_form(list(w)))
            else:
                polys.append(MultiPoly.zero(cp.n))
        el = PPElement(cp, 1, tuple(polys))
        if not is_compatible(el):
            raise MalformedInputError("courant function violates compatibility")
        out.append(el)
    return out


# ---------------------------------------------------------------------------
# Graded pieces as kernels of the compatibility system.

@lru_cache(maxsize=None)
def _coefficient_layout(cp: CharacteristicPair, d: int):
    """(monomials, cones, width): coefficient ci * len(monomials) + k is that
    of monomial k on cone ci."""
    monos = tuple(weighted_monomials((1,) * cp.n, d))
    ncones = len(cp.max_cones)
    return monos, ncones, len(monos) * ncones


def _to_vector(el: PPElement) -> dict[int, Fraction]:
    """The element's coefficients as a sparse vector."""
    monos, _, _ = _coefficient_layout(el.cp, el.degree)
    index = {m: k for k, m in enumerate(monos)}
    return {ci * len(monos) + index[m]: x
            for ci, g in enumerate(el.polys) for m, x in g.terms.items()}


def _from_vector(cp: CharacteristicPair, d: int, vec: dict[int, Fraction]) -> PPElement:
    monos, ncones, _ = _coefficient_layout(cp, d)
    terms: list[dict] = [{} for _ in range(ncones)]
    for c, x in vec.items():
        ci, k = divmod(c, len(monos))
        terms[ci][monos[k]] = x
    return PPElement(cp, d, tuple(MultiPoly(cp.n, t) for t in terms))


def _facet_restrictions(cp: CharacteristicPair, facet: tuple[int, ...],
                        d: int) -> dict[tuple[int, ...], MultiPoly]:
    """Per degree-d monomial x^m, its restriction to the span of the facet's
    lattice vectors: an int-coefficient polynomial in one parameter t_j per
    facet ray.

    x_a restricts to the linear form sum_j lam_{facet[j]}[a] t_j, and x^m to
    that form times the restriction of x^(m - e_a), a being m's first
    nonzero index.
    """
    t = len(facet)
    forms = [MultiPoly._trusted(t, {tuple(int(i == j) for i in range(t)): cp.lam[ray][a]
                                    for j, ray in enumerate(facet) if cp.lam[ray][a]})
             for a in range(cp.n)]
    out = {(0,) * cp.n: MultiPoly._trusted(t, {(0,) * t: 1})}
    for degree in range(1, d + 1):
        lower, out = out, {}
        for m in _coefficient_layout(cp, degree)[0]:
            a = next(r for r, e in enumerate(m) if e)
            out[m] = forms[a] * lower[m[:a] + (m[a] - 1,) + m[a + 1:]]
    return out


@lru_cache(maxsize=None)
def _compatibility_rows(cp: CharacteristicPair, d: int) -> tuple[dict[int, int], ...]:
    """The degree-d compatibility rows as sparse integer dicts: one per
    shared facet and facet monomial that some coefficient restricts to, in
    facet then monomial order."""
    monos, _, _ = _coefficient_layout(cp, d)
    per = len(monos)
    rows = []
    for facet, c1, c2 in facet_pairs(cp):
        restricted = _facet_restrictions(cp, facet, d)
        by_monomial: dict[tuple[int, ...], dict[int, int]] = {}
        for k, m in enumerate(monos):
            for sm, c in restricted[m].terms.items():
                row = by_monomial.setdefault(sm, {})
                row[c1 * per + k] = c
                row[c2 * per + k] = -c
        rows.extend(by_monomial[sm] for sm in sorted(by_monomial))
    return tuple(rows)


@lru_cache(maxsize=None)
def _pp_kernel(cp: CharacteristicPair, d: int) -> tuple[dict[int, Fraction], ...]:
    """The canonical kernel basis of the degree-d compatibility rows."""
    return tuple(exact.kernel_basis(_compatibility_rows(cp, d),
                                    _coefficient_layout(cp, d)[2]))


def pp_graded_dim(cp: CharacteristicPair, d: int) -> int:
    """Dimension of the compatible piecewise polynomials of degree d."""
    if d < 0:
        raise MalformedInputError("degree must be non-negative")
    return len(_pp_kernel(cp, d))


def pp_basis(cp: CharacteristicPair, d: int) -> list[PPElement]:
    return [_from_vector(cp, d, vec) for vec in _pp_kernel(cp, d)]


@lru_cache(maxsize=None)
def _character_shifts(cp: CharacteristicPair, d: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication by each x_a from degree d-1 to degree d as an index map:
    coefficient j of degree d-1 becomes coefficient shifts[a][j] of degree d.

    Each map is proved once to send compatible elements to compatible ones:
    every degree-d row read through it lies in the span of the degree-(d-1)
    rows, so it vanishes on every kernel vector."""
    lower, ncones, width = _coefficient_layout(cp, d - 1)
    upper, _, _ = _coefficient_layout(cp, d)
    index = {m: k for k, m in enumerate(upper)}
    span = exact.RowSpace(width, _compatibility_rows(cp, d - 1))
    shifts = []
    for a in range(cp.n):
        step = [index[m[:a] + (m[a] + 1,) + m[a + 1:]] for m in lower]
        shift = tuple(ci * len(upper) + k for ci in range(ncones) for k in step)
        back = {c: j for j, c in enumerate(shift)}
        for row in _compatibility_rows(cp, d):
            if not span.contains({back[c]: x for c, x in row.items() if c in back}):
                raise MalformedInputError("product violates facet compatibility")
        shifts.append(shift)
    return tuple(shifts)


# ---------------------------------------------------------------------------
# Quotient dimensions.

def brion_quotient_dims(cp: CharacteristicPair, max_degree: int | None = None) -> list[int]:
    """Graded dimensions of piecewise polynomials modulo global linear
    functions; entry d sits in cohomological degree 2d.  This is the bundle
    over a point with zero Chern data, read in even degrees."""
    point = BundleRing(cp, make_point(), zero_chern(cp.n))
    return brion_bundle_dims(point, 2 * cp.n if max_degree is None else max_degree)[0::2]


def brion_bundle_dims(ring: BundleRing, max_degree: int | None = None) -> list[int]:
    """Graded dimensions of (base tensor piecewise polynomials) modulo the
    relations identifying each character's image with its global linear
    function; full list over cohomological degrees 0..max_degree.  The
    quotient is the cohomology ring, so above the total degree the list is
    padded with zeros instead of computed."""
    cp, base = ring.cp, ring.base
    top = ring.total_degree
    if max_degree is None:
        max_degree = top
    dims = []
    for total in range(min(max_degree, top) + 1):
        offset = {}  # base index -> first column of its block b tensor PP_d
        width = 0
        for b in range(base.dim):
            rem = total - base.degrees[b]
            if rem >= 0 and rem % 2 == 0:
                offset[b] = width
                width += _coefficient_layout(cp, rem // 2)[2]
        space_dim = sum(pp_graded_dim(cp, (total - base.degrees[b]) // 2) for b in offset)
        rows = []
        for a in range(cp.n):
            c_a = ring.chern.evaluate([int(r == a) for r in range(cp.n)])
            for b in range(base.dim):
                rem = total - 2 - base.degrees[b]
                if rem < 0 or rem % 2:
                    continue
                d = rem // 2 + 1
                # (c(x_a) b) tensor q  minus  b tensor (x_a q)
                cb = [(offset[b2], coeff) for b2, coeff
                      in base.mul(c_a, {b: Fraction(1)}).items() if b2 in offset]
                off = offset[b]
                shift = _character_shifts(cp, d)[a]
                for q in _pp_kernel(cp, d - 1):
                    vec = {}
                    for o, coeff in cb:
                        for j, x in q.items():
                            vec[o + j] = vec.get(o + j, 0) + coeff * x
                    for j, x in q.items():
                        vec[off + shift[j]] = vec.get(off + shift[j], 0) - x
                    rows.append(vec)
        dims.append(space_dim - exact.rank(rows, width))
    return dims + [0] * (max_degree - top)
