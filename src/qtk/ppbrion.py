"""Piecewise polynomial functions on a characteristic pair.

An element stores one polynomial on the cocharacter space per maximal cone;
adjacent cones must agree on the span of the lattice vectors of their shared
facet F, on which x_a restricts to sum_j lam_{F_j}[a] t_j, one parameter t_j
per facet ray.  An element is compatible iff every difference across a
facet restricts to zero.

The graded pieces are computed in spline coordinates (the matrix form of
Billera and Rose, A dimension series for multivariate splines, DCG 1991).
Two cones agree on a facet's span exactly when the facet's normal form
divides their difference.  So fix a breadth-first spanning tree of the dual
graph, rooted at cone 0, and write f_sigma = f_root + sum l_e g_e over the
tree edges e on sigma's path, l_e being the child cone's integral dual edge
vector opposite the shared facet.  In degree d the coordinates are one root
block of degree-d monomials and one block of degree-(d-1) monomials per
tree edge; every tuple that agrees across the tree's facets has exactly one
such form.  What is left is one cycle condition per facet off the tree, in
which the root block cancels: integer cycle rows, one per such facet and
monomial in its ray parameters.  dim PP_d is the width minus their rank.
_splines ranks every degree up to a top in one table, which keeps per
degree the free columns, as many as that dimension, and below the top a
kernel basis of primitive int vectors; no echelon form outlives it.

Multiplying by a standard character x_a is an index map on the root and
edge blocks, by the identity x_a f_sigma = x_a f_root + sum l_e (x_a g_e):
it multiplies f_root and every g_e by x_a.  On a facet's span x_a is
sum_j lam_{F_j}[a] t_j, so the facet's degree-d cycle row at t^sm, read
through that map, is sum_j lam_{F_j}[a] times its degree-(d-1) row at
t^(sm - e_j).  That recurrence builds the rows above degree 1, each column
from one a, facet by facet.  tests/test_ppbrion.py checks
the maps against multiply() (test_index_shift_products_equal_multiply) and
the recurrence for every a (test_every_product_equals_the_rows_on_its_image).
Quotient dimensions come from exact rank, on the free coordinates of the
cycle rows, which read each graded piece isomorphically, and match the
Stanley-Reisner graded dimensions degree by degree.  One pass reads one
table, to the largest PP degree it needs.

One pass over the bundle's total degrees gives the fibre's quotient
dimensions too.  The relation (c(x_a) b) tensor q - b tensor (x_a q) touches
the unit block 1 tensor PP_d only when b = 1, since c(x_a) b has base degree
at least 2, so the relation space projects onto that block as the span of
the x_a q: the fibre's relations.  The unit block comes last, and a RowSpace
pivots on last columns, so its pivots in that block count the projection's
rank whatever the insertion order.  The fibre's degree-d dimension is dim
PP_d minus that count at total degree 2d, and the pass runs at least to 2n.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import exact
from .basealg import make_point, zero_chern
from .charpair import CharacteristicPair, dual_edge_frame, facet_table
from .exact import int_if_integral
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
    """Whether the polynomials of every two cones agree on the span of
    their shared facet: the difference restricts to zero there."""
    cp = el.cp
    for facet, c1, c2 in facet_pairs(cp):
        forms = [MultiPoly.linear_form([cp.lam[ray][a] for ray in facet]) for a in range(cp.n)]
        if (el.polys[c1] - el.polys[c2]).substitute(forms):
            return False
    return True


def multiply(f: PPElement, g: PPElement) -> PPElement:
    if f.cp != g.cp:
        raise PairMismatchError("elements live over different pairs")
    out = PPElement(f.cp, f.degree + g.degree,
                    tuple(a * b for a, b in zip(f.polys, g.polys)))
    if not is_compatible(out):
        raise MalformedInputError("product violates facet compatibility")
    return out


# ---------------------------------------------------------------------------
# Spline coordinates: a spanning tree of the dual graph and the cycle rows.

@lru_cache(maxsize=None)
def _monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The degree-d monomials in n variables, in lexicographic order; none
    for d < 0."""
    return tuple(weighted_monomials((1,) * n, d)) if d >= 0 else ()


@lru_cache(maxsize=None)
def _spanning_tree(cp: CharacteristicPair):
    """(edges, paths, off_tree) of a breadth-first spanning tree of the dual
    graph, rooted at cone 0, neighbours taken in facet_pairs order.

    edges[e] is (parent cone, child cone, l_e), edges in the order the search
    found their child cones; l_e is the child's dual edge vector opposite the
    shared facet (cleared of denominators, which a unimodular cone has none
    of): an int vector that vanishes on the facet's lattice vectors and pairs
    positively with the child's other ray.
    paths[c] is the tuple of edges from the root to cone c, and off_tree the
    facet_pairs entries of the facets that no tree edge crosses.
    """
    pairs = facet_pairs(cp)
    around: list[list[tuple[int, int]]] = [[] for _ in cp.max_cones]
    for k, (_, c1, c2) in enumerate(pairs):
        around[c1].append((k, c2))
        around[c2].append((k, c1))
    paths: dict[int, tuple[int, ...]] = {0: ()}
    order, edges, on_tree = [0], [], set()
    for parent in order:
        for k, child in around[parent]:
            if child in paths:
                continue
            cone = cp.max_cones[child]
            ray = next(r for r in cone if r not in pairs[k][0])
            form, _ = exact.cleared(dict(enumerate(dual_edge_frame(cp, cone)[cone.index(ray)])))
            paths[child] = paths[parent] + (len(edges),)
            edges.append((parent, child, tuple(form.get(a, 0) for a in range(cp.n))))
            on_tree.add(k)
            order.append(child)
    if len(paths) < len(cp.max_cones):
        raise MalformedInputError("the maximal cones are not connected through shared facets")
    return (tuple(edges), tuple(paths[c] for c in range(len(cp.max_cones))),
            tuple(p for k, p in enumerate(pairs) if k not in on_tree))


def _width(cp: CharacteristicPair, d: int) -> int:
    """The number of degree-d coordinates: the root block of degree-d
    monomials, then one block of degree-(d-1) monomials per tree edge."""
    return len(_monomials(cp.n, d)) + len(_spanning_tree(cp)[0]) * len(_monomials(cp.n, d - 1))


def _from_vector(cp: CharacteristicPair, d: int, vec: dict[int, int | Fraction]) -> PPElement:
    """The element with these degree-d coordinates: f_root on cone 0, and
    f_child = f_parent + l_e g_e down each tree edge e."""
    edges, _, _ = _spanning_tree(cp)
    top, lower = _monomials(cp.n, d), _monomials(cp.n, d - 1)
    blocks: list[dict] = [{} for _ in range(len(edges) + 1)]
    for c, x in vec.items():
        if c < len(top):
            blocks[0][top[c]] = x
        else:
            e, k = divmod(c - len(top), len(lower))
            blocks[e + 1][lower[k]] = x
    polys = [MultiPoly(cp.n, blocks[0])] + [MultiPoly.zero(cp.n)] * len(edges)
    for (parent, child, form), block in zip(edges, blocks[1:]):
        polys[child] = polys[parent] + MultiPoly.linear_form(form) * MultiPoly(cp.n, block)
    return PPElement(cp, d, tuple(polys))


def _facet_rows(cp: CharacteristicPair, entry: tuple[tuple[int, ...], int, int],
                top: int) -> Iterator[dict[tuple[int, ...], dict[int, int]]]:
    """The cycle rows of one off-tree facet entry (F, sigma, tau) in degrees
    d = 1..top, one dict per degree, each built from the one before: from
    facet monomial sm, in monomial order, to the sparse int coefficients of
    t^sm in f_sigma - f_tau on F's span, the sum of +-l_e g_e over the tree
    edges on one of the two paths only.  Zero rows are left out.

    Degree 1 is read directly: <lam_{F_j}, l_e> with the path's sign.  Above
    it, column (e, m) comes from the first a with m_a > 0: it is
    sum_j lam_{F_j}[a] times the degree-(d-1) row at t^(sm - e_j), read at
    the column that the shift map of x_a sends to (e, m)."""
    facet, c1, c2 = entry
    edges, paths, _ = _spanning_tree(cp)
    on1, on2 = set(paths[c1]), set(paths[c2])
    root = len(_monomials(cp.n, 1))
    rows: dict[tuple[int, ...], dict[int, int]] = {}
    for sm in _monomials(len(facet), 1):
        lam = cp.lam[facet[sm.index(1)]]
        for e in sorted(on1 ^ on2):
            x = sum(map(mul, lam, edges[e][2]))
            if x:
                rows.setdefault(sm, {})[root + e] = x if e in on1 else -x
    yield rows
    # x_a on F's span: (j, lam_{F_j}[a]) for the rays of F where it is nonzero
    on_facet = [[(j, cp.lam[ray][a]) for j, ray in enumerate(facet) if cp.lam[ray][a]]
                for a in range(cp.n)]
    for d in range(2, top + 1):
        # Column root + e * len(mid) + k of degree d-1 is edge e's monomial
        # mid[k], and x_a sends it to (e, mid[k] + e_a).  a is the first
        # index of mid[k] + e_a with a positive exponent for every a up to
        # reach[k], the first index of mid[k] with one (every a if d = 2).
        root, mid = len(_monomials(cp.n, d - 1)), _monomials(cp.n, d - 2)
        reach = [next((a for a, k in enumerate(m) if k), cp.n - 1) for m in mid]
        shifts = _shift_maps(cp, d)
        out: dict[tuple[int, ...], dict[int, int]] = {}
        for sm, row in rows.items():
            images: list[list[tuple[int, int]]] = [[] for _ in shifts]
            for c, x in row.items():
                for a in range(reach[(c - root) % len(mid)] + 1):
                    images[a].append((shifts[a][c], x))
            for image, lam_a in zip(images, on_facet):
                if not image:
                    continue
                for j, coeff in lam_a:
                    target = out.setdefault(sm[:j] + (sm[j] + 1,) + sm[j + 1:], {})
                    for k, x in image:
                        target[k] = target.get(k, 0) + coeff * x
        rows = {sm: kept for sm, row in sorted(out.items())
                if (kept := {k: x for k, x in row.items() if x})}
        yield rows


@lru_cache(maxsize=None)
def _splines(cp: CharacteristicPair,
             top: int) -> tuple[tuple[dict[int, int], tuple[dict[int, int], ...]], ...]:
    """Per degree d = 0..top: (column -> position among the free columns of
    the degree-d cycle rows, dim PP_d of them, and below top a basis of PP_d).

    One walk over the off-tree facets carries each facet's rows up to top and
    inserts them into each degree's space, in facet order and then monomial
    order.  The degrees are read from top down, each space dropped once read.
    Reading the free coordinates is an isomorphism of PP_d onto the rationals
    of that many coordinates: they determine an element, and any values there
    extend to one.  The basis is the kernel of the cycle rows, one vector per
    free column, cleared: with entry 1 there, it is primitive."""
    spaces = [exact.RowSpace(_width(cp, d)) for d in range(top + 1)]
    for entry in _spanning_tree(cp)[2]:
        for d, rows in enumerate(_facet_rows(cp, entry, top), 1):
            for row in rows.values():
                spaces[d].insert(row)
    table = []
    for d in range(top, -1, -1):
        space = spaces.pop()
        free = {c: k for k, c in enumerate(space.free_columns())}
        kernel = tuple(exact.cleared(v)[0] for v in space.kernel()) if d < top else ()
        table.append((free, kernel))
    return tuple(reversed(table))


def pp_graded_dim(cp: CharacteristicPair, d: int) -> int:
    """Dimension of the compatible piecewise polynomials of degree d."""
    if d < 0:
        raise MalformedInputError("degree must be non-negative")
    return len(_splines(cp, max(d, cp.n))[d][0])


def pp_basis(cp: CharacteristicPair, d: int) -> list[PPElement]:
    if d < 0:
        raise MalformedInputError("degree must be non-negative")
    return [_from_vector(cp, d, vec) for vec in _splines(cp, max(d + 1, cp.n))[d][1]]


@lru_cache(maxsize=None)
def _shift_maps(cp: CharacteristicPair, d: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication by each x_a from degree d-1 to degree d as an index map:
    coordinate j of degree d-1 becomes coordinate shifts[a][j] of degree d.
    The map is right by the identity x_a f_sigma = x_a f_root + sum l_e (x_a g_e):
    it moves the monomial m of the root block and of every edge block to
    m + e_a.  test_index_shift_products_equal_multiply checks it against
    multiply(), and test_every_product_equals_the_rows_on_its_image checks
    that every degree-d cycle row read through it is x_a on the facet times
    that facet's degree-(d-1) rows."""
    top, mid, low = (_monomials(cp.n, k) for k in (d, d - 1, d - 2))
    top_index = {m: k for k, m in enumerate(top)}
    mid_index = {m: k for k, m in enumerate(mid)}
    nedges = len(_spanning_tree(cp)[0])
    shifts = []
    for a in range(cp.n):
        up = lambda m: m[:a] + (m[a] + 1,) + m[a + 1:]
        shifts.append(tuple([top_index[up(m)] for m in mid]
                            + [len(top) + e * len(mid) + mid_index[up(m)]
                               for e in range(nedges) for m in low]))
    return tuple(shifts)


# ---------------------------------------------------------------------------
# Quotient dimensions.

def brion_quotient_dims(cp: CharacteristicPair, max_degree: int | None = None) -> list[int]:
    """Graded dimensions of piecewise polynomials modulo global linear
    functions; entry d sits in cohomological degree 2d.  This is the bundle
    over a point with zero Chern data, read in even degrees."""
    point = BundleRing(cp, make_point(), zero_chern(cp.n))
    return brion_bundle_dims(point, 2 * cp.n if max_degree is None else max_degree)[0][0::2]


def brion_bundle_dims(ring: BundleRing,
                      max_degree: int | None = None) -> tuple[list[int], list[int]]:
    """(bundle, fibre) quotient dimensions from one pass.  The bundle's are
    those of (base tensor piecewise polynomials) modulo the relations
    identifying each character's image with its global linear function, over
    cohomological degrees 0..max_degree, padded with zeros above the total
    degree; the fibre's, d = 0..n, are dim PP_d minus the pivots in the unit
    block, which comes last, so the pass runs to total degree at least 2n."""
    cp, base = ring.cp, ring.base
    top = ring.total_degree
    if max_degree is None:
        max_degree = top
    unit = base.unit_index()
    blocks = [b for b in range(base.dim) if b != unit] + [unit]
    dims, fiber = [], []
    last = max(min(max_degree, top), 2 * cp.n)
    splines = _splines(cp, last // 2)
    for total in range(last + 1):
        # base index -> first column of its block b tensor PP_d, each PP_d
        # read on its free coordinates
        offset = {}
        width = 0
        for b in blocks:
            rem = total - base.degrees[b]
            if rem >= 0 and rem % 2 == 0:
                offset[b] = width
                width += len(splines[rem // 2][0])
        space = exact.RowSpace(width)
        for a in range(cp.n):
            c_a = ring.chern.image(a)
            for b in range(base.dim):
                rem = total - 2 - base.degrees[b]
                if rem < 0 or rem % 2:
                    continue
                d = rem // 2 + 1
                # (c(x_a) b) tensor q  minus  b tensor (x_a q)
                cb = [(offset[b2], int_if_integral(coeff)) for b2, coeff
                      in base.mul(c_a, {b: Fraction(1)}).items() if b2 in offset]
                off = offset[b]
                shift = _shift_maps(cp, d)[a]
                (low, kernel), high = splines[d - 1], splines[d][0]
                for q in kernel:
                    vec = {}
                    for j, x in q.items():
                        k = low.get(j)
                        if k is not None:
                            for o, coeff in cb:
                                vec[o + k] = vec.get(o + k, 0) + coeff * x
                        k = high.get(shift[j])
                        if k is not None:
                            vec[off + k] = vec.get(off + k, 0) - x
                    space.insert(vec)
        dims.append(width - space.rank)
        if total % 2 == 0 and total <= 2 * cp.n:
            fiber.append(width - offset[unit] - sum(p >= offset[unit] for p in space.rows))
    return dims[:max_degree + 1] + [0] * (max_degree - top), fiber
