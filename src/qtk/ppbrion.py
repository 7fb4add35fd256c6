"""Piecewise polynomial functions on a characteristic pair.

An element stores one polynomial on the cocharacter space per maximal cone;
adjacent cones must agree on the span of the lattice vectors of their shared
facet.  In coordinates (one coefficient per cone and monomial) that is one
set of integer restriction rows per degree, one row per shared facet and
monomial in the facet's ray parameters.  The graded pieces are the kernels
of these rows; an element is compatible iff every row annihilates it.
Multiplying by a standard character x_a moves the coefficient of m to
m + e_a, so character products are index maps on kernel vectors, checked
against the rows of the next degree.  Quotient dimensions come from exact
rank and match the Stanley-Reisner graded dimensions degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exact
from .basealg import make_point, zero_chern
from .charpair import CharacteristicPair, dual_edge_frame
from .errors import MalformedInputError, PairMismatchError
from .poly import MultiPoly, monomials_of_degree
from .srbundle import BundleRing


@dataclass(frozen=True)
class PPElement:
    """Per maximal cone, a homogeneous degree-d polynomial on the
    cocharacter space (graded degree 2d)."""

    cp: CharacteristicPair
    degree: int
    polys: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.polys) != len(self.cp.max_cones):
            raise MalformedInputError("need one polynomial per maximal cone")
        for g in self.polys:
            if g.nvars != self.cp.n or not g.is_homogeneous(self.degree):
                raise MalformedInputError(
                    f"cone polynomials must be homogeneous of degree {self.degree}")


@lru_cache(maxsize=None)
def facet_pairs(cp: CharacteristicPair) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(facet, cone index, cone index) for every shared facet."""
    owners: dict[tuple[int, ...], list[int]] = {}
    for ci, cone in enumerate(cp.max_cones):
        for drop in range(cp.n):
            facet = cone[:drop] + cone[drop + 1:]
            owners.setdefault(facet, []).append(ci)
    out = []
    for facet, cones in sorted(owners.items()):
        if len(cones) != 2:
            raise MalformedInputError("facet pairing fails; validate the pair first")
        out.append((facet, cones[0], cones[1]))
    return tuple(out)


def _restrict_to_facet_span(cp: CharacteristicPair, facet: tuple[int, ...],
                            g: MultiPoly) -> MultiPoly:
    """Restriction of g to the span of the facet's lattice vectors, as a
    polynomial in one parameter per facet ray."""
    return g.substitute([MultiPoly.linear_form([cp.lam[j][r] for j in facet])
                         if facet else MultiPoly.zero(0) for r in range(cp.n)])


def is_compatible(el: PPElement) -> bool:
    return _annihilated(el.cp, el.degree, _to_vector(el))


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
    monos = tuple(monomials_of_degree(cp.n, d))
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


@lru_cache(maxsize=None)
def _compatibility_rows(cp: CharacteristicPair, d: int) -> tuple[dict[int, int], ...]:
    """The degree-d compatibility rows as sparse integer dicts: one per
    shared facet and facet monomial that some coefficient restricts to, in
    facet then monomial order."""
    monos, _, _ = _coefficient_layout(cp, d)
    per = len(monos)
    rows = []
    for facet, c1, c2 in facet_pairs(cp):
        restricted = [_restrict_to_facet_span(cp, facet, MultiPoly.monomial(m, 1))
                      for m in monos]
        for sm in monomials_of_degree(len(facet), d):
            row = {}
            for k, g in enumerate(restricted):
                c = int(g.coefficient(sm))  # integer: lattice vectors are integral
                if c:
                    row[c1 * per + k] = c
                    row[c2 * per + k] = -c
            if row:
                rows.append(row)
    return tuple(rows)


def _annihilated(cp: CharacteristicPair, d: int, vec: dict[int, Fraction]) -> bool:
    """Whether every degree-d compatibility row vanishes on the sparse vector."""
    ints, _ = exact.cleared(vec)
    return not any(sum(x * ints.get(c, 0) for c, x in row.items())
                   for row in _compatibility_rows(cp, d))


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
def _character_shift(cp: CharacteristicPair, d: int, a: int) -> tuple[int, ...]:
    """Multiplication by x_a from degree d-1 to degree d as an index map:
    coefficient j of degree d-1 becomes coefficient shift[j] of degree d."""
    lower, ncones, _ = _coefficient_layout(cp, d - 1)
    upper, _, _ = _coefficient_layout(cp, d)
    index = {m: k for k, m in enumerate(upper)}
    step = [index[m[:a] + (m[a] + 1,) + m[a + 1:]] for m in lower]
    return tuple(ci * len(upper) + k for ci in range(ncones) for k in step)


def _character_products(cp: CharacteristicPair, d: int, a: int) -> list[dict[int, Fraction]]:
    """x_a times each degree-(d-1) kernel vector, as sparse degree-d vectors,
    each checked against the degree-d compatibility rows."""
    shift = _character_shift(cp, d, a)
    out = []
    for q in _pp_kernel(cp, d - 1):
        prod = {shift[j]: x for j, x in q.items()}
        if not _annihilated(cp, d, prod):
            raise MalformedInputError("product violates facet compatibility")
        out.append(prod)
    return out


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
    products = {}  # (d, a) -> x_a times the degree d-1 kernel, for this call only
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
                if (d, a) not in products:
                    products[d, a] = _character_products(cp, d, a)
                # (c(x_a) b) tensor q  minus  b tensor (x_a q)
                cb = [(offset[b2], coeff) for b2, coeff
                      in base.mul(c_a, {b: Fraction(1)}).items() if b2 in offset]
                off = offset[b]
                for q, xq in zip(_pp_kernel(cp, d - 1), products[d, a]):
                    vec = {}
                    for o, coeff in cb:
                        for j, x in q.items():
                            vec[o + j] = vec.get(o + j, 0) + coeff * x
                    for j, x in xq.items():
                        vec[off + j] = vec.get(off + j, 0) - x
                    rows.append(vec)
        dims.append(space_dim - exact.rank(rows, width))
    return dims + [0] * (max_degree - top)
